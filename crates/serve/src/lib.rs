//! # tweetmob-serve
//!
//! An HTTP layer over fitted model artifacts: load a `.tma` bundle
//! **once**, share it read-only across worker threads behind an
//! [`Arc<ModelBundle>`](tweetmob_data::ModelBundle), and answer flow
//! queries without ever refitting. This is the serving half of the
//! fit-once / predict-many split (`DESIGN.md` §13): `tweetmob fit`
//! produces the artifact, `tweetmob serve` turns it into a query
//! endpoint.
//!
//! ## Endpoints
//!
//! | route                                    | answer |
//! |------------------------------------------|--------|
//! | `GET /healthz`                           | liveness + area count |
//! | `GET /population`                        | the bundle's areas and populations |
//! | `GET /predict?model=&origin=&dest=`      | pairwise flow, same JSON as `tweetmob predict --json` |
//! | `GET /top_k?model=&origin=&k=`           | ranked destinations, same JSON as `tweetmob predict --json --top` |
//! | `POST /epidemic`                         | a deterministic outbreak scenario over the artifact's flows |
//! | `GET /provenance`                        | the run manifest embedded in the artifact (404 when absent) |
//! | `GET /metrics`                           | the process metrics registry, including per-endpoint latency |
//!
//! ## Design constraints
//!
//! * **No HTTP-reachable input may panic a handler.** Every query
//!   string, body and path is funnelled through typed errors
//!   ([`ApiError`], [`tweetmob_data::QueryError`]) into 4xx responses;
//!   clippy's `unwrap_used`/`expect_used`/`panic`/`unreachable` denial
//!   holds over this crate's library code like any other.
//! * **Byte-deterministic responses.** Handlers are pure reads over an
//!   immutable bundle and serialize through the same
//!   [`tweetmob_obs::Json`] writer the CLI uses, so N identical concurrent requests return
//!   byte-identical bodies and `GET /predict` output is `diff`-equal to
//!   `tweetmob predict --json` against the same artifact.
//! * **Std-only transport.** The listener is `std::net::TcpListener`
//!   with a small fixed pool of accept/worker threads — the one
//!   sanctioned `thread::spawn` site outside `tweetmob-par`, because
//!   request fan-out is I/O concurrency over immutable state, not
//!   data-parallel compute (no chunk-order determinism contract to
//!   uphold). Latency is sampled through [`tweetmob_obs::Timer`] so no
//!   clock is read outside `tweetmob-obs`.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use tweetmob_data::ModelBundle;
//!
//! let bundle = ModelBundle::load_file("models.tma")?;
//! let state = tweetmob_serve::AppState::new(Arc::new(bundle));
//! let handle = tweetmob_serve::serve("127.0.0.1:0", state, 4)?;
//! println!("listening on {}", handle.addr());
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod handlers;
mod http;
mod server;

pub use handlers::{handle, predict_json, top_k_json, ApiError, AppState};
pub use http::{read_request, HttpError, Request, Response, MAX_BODY_BYTES};
pub use server::{serve, ServerHandle};
