//! The TCP front end: a bound listener fanned out over a fixed pool of
//! worker threads, each running a keep-alive accept/serve loop.
//!
//! This is the one sanctioned `thread::spawn` site outside
//! `tweetmob-par` (clippy's `disallowed-methods` bans it elsewhere, see
//! `clippy.toml`): request fan-out is
//! I/O concurrency over immutable shared state — there is no chunk
//! order to keep deterministic and no compute to route through the
//! shared pool. Each worker owns a `try_clone` of the listener and
//! blocks in `accept`, so the kernel load-balances connections without
//! any queue of our own.

use crate::handlers::{handle, AppState};
use crate::http::{read_request, HttpError, Response};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-socket read/write timeout. A stalled or half-open client ties
/// up one worker for at most this long.
pub(crate) const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server: its resolved address and the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: TcpListener,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound — with port `0` this is
    /// where the kernel put us.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the pool and joins every worker. The stop flag is raised,
    /// the shared listener is flipped non-blocking (all clones share
    /// the file description, so every *future* `accept` returns
    /// immediately), and one wake-up connection per worker unblocks
    /// anyone already parked in `accept`.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.listener.set_nonblocking(true);
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&self.addr, SOCKET_TIMEOUT);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Blocks until every worker exits — for a foreground server this
    /// is "forever, or until the process is killed".
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// How many worker threads the pool is running.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

/// Binds `addr` and starts `workers` accept/serve threads (at least
/// one) over the shared state.
///
/// # Errors
///
/// Propagates bind/clone failures from the OS (address in use,
/// permission, exhausted descriptors).
pub fn serve<A: ToSocketAddrs>(
    addr: A,
    state: AppState,
    workers: usize,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let workers = workers.max(1);
    let mut handles = Vec::with_capacity(workers);
    // One clone of the state per worker, the last one moving it.
    for state in std::iter::repeat_n(state, workers) {
        let listener = listener.try_clone()?;
        let stop = Arc::clone(&stop);
        #[expect(
            clippy::disallowed_methods,
            reason = "I/O workers over an immutable bundle: no compute to route through \
                      tweetmob-par and no chunk order to keep"
        )]
        handles.push(std::thread::spawn(move || {
            worker_loop(&listener, &state, &stop);
        }));
    }
    Ok(ServerHandle {
        addr,
        stop,
        listener,
        workers: handles,
    })
}

fn worker_loop(listener: &TcpListener, state: &AppState, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Stopping flips the listener non-blocking, so every
                // worker lands here; otherwise back off briefly so a
                // transient accept error (aborted handshake, fd
                // pressure) cannot hot-spin the worker.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        serve_connection(stream, state, stop);
    }
}

/// Runs one connection's keep-alive loop until the client closes, asks
/// to close, errors, or the server is stopping.
fn serve_connection(stream: TcpStream, state: &AppState, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    // Responses go out in one write; disable Nagle so that write is a
    // segment on the wire immediately instead of parking behind the
    // peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(Some(request)) => {
                let close = request.close || stop.load(Ordering::SeqCst);
                let response = handle(state, &request);
                if response.write_to(&mut write_half, close).is_err() || close {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => {
                // A malformed stream cannot be re-synchronised: answer
                // 400 once and drop the connection.
                let _ = bad_request_response(&e).write_to(&mut write_half, true);
                return;
            }
        }
    }
}

fn bad_request_response(e: &HttpError) -> Response {
    crate::handlers::ApiError::bad_request(e.to_string()).into_response()
}
