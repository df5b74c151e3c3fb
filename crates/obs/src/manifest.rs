//! Run provenance: what ran, over which exact bytes, producing what.
//!
//! A [`RunManifest`] records the subcommand, its normalized arguments,
//! the seed and thread count, content hashes of every input file read
//! and artifact written, and the crate versions that produced them. It
//! renders two ways:
//!
//! * the **full** manifest ([`RunManifest::to_json`]) embedded in every
//!   `--metrics-out` document — includes outputs, outcome and thread
//!   count (thread count is execution shape, so the redacted rendering
//!   zeroes it);
//! * the **portable** manifest ([`RunManifest::to_embedded_json`])
//!   embedded in a TMA0 artifact's `PROV` section — only the fields
//!   that describe *what the artifact is* (schema, subcommand, args,
//!   seed, input hashes, crate versions), never where it was written or
//!   how many threads fit it, so artifact bytes stay invariant across
//!   thread counts and output paths.
//!
//! Files are stamped with FNV-1a 64 ([`fnv1a64_file`]) — a dependency-
//! free, endianness-free content hash that is stable across platforms.
//! It is an integrity check for provenance, not a cryptographic seal.
//!
//! Pipeline code reports the files it touches through the process-wide
//! [`record_input`] / [`record_output`] collectors; the CLI drains them
//! ([`recorded_inputs`], [`recorded_outputs`]) when it assembles the
//! manifest at the end of the run.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::sync::Mutex;

/// Version of the manifest JSON layout. Bump on any field change.
pub(crate) const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// A content stamp of one file: path as given, size, FNV-1a 64 hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStamp {
    /// The path exactly as the run referred to it.
    pub path: String,
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 content hash, 16 lowercase hex digits.
    pub fnv1a64: String,
}

impl FileStamp {
    /// Stamps the file at `path` by streaming its contents.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file.
    pub fn of_file(path: &str) -> std::io::Result<Self> {
        let (bytes, hash) = fnv1a64_file(path)?;
        Ok(Self {
            path: path.to_string(),
            bytes,
            fnv1a64: format!("{hash:016x}"),
        })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("bytes", self.bytes.into()),
            ("fnv1a64", self.fnv1a64.as_str().into()),
            ("path", self.path.as_str().into()),
        ])
    }
}

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64 state.
fn fnv1a64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64 over a byte slice.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

/// Streams a file through FNV-1a 64, returning `(size, hash)`.
///
/// # Errors
///
/// Any I/O error opening or reading the file.
pub fn fnv1a64_file(path: &str) -> std::io::Result<(u64, u64)> {
    let mut file = std::fs::File::open(path)?;
    let mut hash = FNV_OFFSET;
    let mut size = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        size += n as u64;
        hash = fnv1a64_fold(hash, &buf[..n]);
    }
    Ok((size, hash))
}

/// Provenance of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunManifest {
    /// The subcommand that ran (e.g. `"fit"`).
    pub subcommand: String,
    /// Normalized argument list: positionals in order, then sorted
    /// `--flag=value` pairs, then sorted switches, with output-routing
    /// flags (`--metrics-out`, `--trace-out`, `--threads`, ...)
    /// excluded — those describe the observation, not the computation.
    pub args: Vec<String>,
    /// The generator seed, when the run took one.
    pub seed: Option<u64>,
    /// Resolved worker-thread count. Execution shape: zeroed under
    /// redaction and absent from the portable rendering.
    pub threads: u64,
    /// `"ok"` or `"error"`.
    pub outcome: String,
    /// Every input file the run read, stamped.
    pub inputs: Vec<FileStamp>,
    /// Every artifact the run wrote, stamped. Absent from the portable
    /// rendering (an artifact cannot contain its own hash).
    pub outputs: Vec<FileStamp>,
    /// Workspace crate versions, by crate name.
    pub crates: BTreeMap<String, String>,
}

impl RunManifest {
    /// The full manifest. Under `redact` the thread count is zeroed (it
    /// is the one execution-shape field here; hashes and args are
    /// deterministic already).
    #[must_use]
    pub fn to_json(&self, redact: bool) -> Json {
        let mut doc = self.to_embedded_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("outcome".into(), self.outcome.as_str().into());
            map.insert("outputs".into(), stamps(&self.outputs));
            map.insert(
                "threads".into(),
                (if redact { 0 } else { self.threads }).into(),
            );
        }
        doc
    }

    /// The portable manifest for embedding in an artifact: schema,
    /// subcommand, args, seed, input stamps and crate versions only —
    /// no outputs, outcome or thread count, so the same fit produces
    /// byte-identical artifacts at every thread count and output path.
    #[must_use]
    pub fn to_embedded_json(&self) -> Json {
        Json::obj([
            (
                "args",
                Json::Arr(self.args.iter().map(|a| a.as_str().into()).collect()),
            ),
            (
                "crates",
                Json::Obj(
                    self.crates
                        .iter()
                        .map(|(name, version)| (name.clone(), version.as_str().into()))
                        .collect(),
                ),
            ),
            ("inputs", stamps(&self.inputs)),
            ("schema_version", MANIFEST_SCHEMA_VERSION.into()),
            ("seed", self.seed.into()),
            ("subcommand", self.subcommand.as_str().into()),
        ])
    }
}

fn stamps(stamps: &[FileStamp]) -> Json {
    Json::Arr(stamps.iter().map(FileStamp::to_json).collect())
}

/// Paths reported by pipeline code, drained when the manifest is built.
static RECORDED_INPUTS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static RECORDED_OUTPUTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn push_unique(store: &Mutex<Vec<String>>, path: &str) {
    let mut paths = store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !paths.iter().any(|p| p == path) {
        paths.push(path.to_string());
    }
}

/// Reports that the running pipeline read the file at `path`. Duplicate
/// reports of the same path collapse to one.
pub fn record_input(path: &str) {
    push_unique(&RECORDED_INPUTS, path);
}

/// Reports that the running pipeline wrote an artifact at `path`.
pub fn record_output(path: &str) {
    push_unique(&RECORDED_OUTPUTS, path);
}

/// Every input path reported so far, in first-report order.
#[must_use]
pub fn recorded_inputs() -> Vec<String> {
    RECORDED_INPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Every output path reported so far, in first-report order.
#[must_use]
pub fn recorded_outputs() -> Vec<String> {
    RECORDED_OUTPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Clears the recorded input/output paths (test isolation).
#[cfg(test)]
fn clear_recorded() {
    RECORDED_INPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    RECORDED_OUTPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn file_hash_matches_slice_hash() {
        let dir = std::env::temp_dir().join("tweetmob-obs-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stamp.bin");
        let payload = b"tweetmob provenance payload";
        std::fs::write(&path, payload).unwrap();
        let path = path.to_str().unwrap();
        let (size, hash) = fnv1a64_file(path).unwrap();
        assert_eq!(size, payload.len() as u64);
        assert_eq!(hash, fnv1a64(payload));
        let stamp = FileStamp::of_file(path).unwrap();
        assert_eq!(stamp.bytes, size);
        assert_eq!(stamp.fnv1a64, format!("{hash:016x}"));
    }

    fn sample() -> RunManifest {
        RunManifest {
            subcommand: "fit".into(),
            args: vec!["data.jsonl".into(), "--scale=national".into()],
            seed: Some(42),
            threads: 8,
            outcome: "ok".into(),
            inputs: vec![FileStamp {
                path: "data.jsonl".into(),
                bytes: 10,
                fnv1a64: "00000000000000aa".into(),
            }],
            outputs: vec![FileStamp {
                path: "m.tma".into(),
                bytes: 20,
                fnv1a64: "00000000000000bb".into(),
            }],
            crates: [("tweetmob-obs".to_string(), "0.1.0".to_string())].into(),
        }
    }

    #[test]
    fn full_rendering_carries_everything_redaction_zeroes_threads() {
        let m = sample();
        let full = m.to_json(false);
        assert_eq!(full["subcommand"], "fit");
        assert_eq!(full["seed"], 42);
        assert_eq!(full["threads"], 8);
        assert_eq!(full["outcome"], "ok");
        assert_eq!(full["outputs"][0]["path"], "m.tma");
        assert_eq!(full["inputs"][0]["fnv1a64"], "00000000000000aa");
        assert_eq!(full["crates"]["tweetmob-obs"], "0.1.0");
        assert_eq!(full["schema_version"], i64::from(MANIFEST_SCHEMA_VERSION));
        let redacted = m.to_json(true);
        assert_eq!(redacted["threads"], 0);
        // Threads is the only field redaction touches.
        let mut expect = full;
        if let Json::Obj(map) = &mut expect {
            map.insert("threads".into(), 0u64.into());
        }
        assert_eq!(expect, redacted);
    }

    #[test]
    fn portable_rendering_is_the_full_one_minus_run_fields() {
        let m = sample();
        let portable = m.to_embedded_json();
        let mut full = m.to_json(false);
        if let Json::Obj(map) = &mut full {
            for key in ["outcome", "outputs", "threads"] {
                assert!(map.remove(key).is_some(), "full manifest lacks {key}");
            }
        }
        assert_eq!(portable, full);
        // Invariant under everything the portable form excludes.
        let mut other = m;
        other.threads = 1;
        other.outputs.clear();
        other.outcome = "error".into();
        assert_eq!(portable, other.to_embedded_json());
    }

    #[test]
    fn rendering_parses_back_to_the_same_document() {
        let doc = sample().to_json(false);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn seedless_manifest_renders_null() {
        let mut m = sample();
        m.seed = None;
        assert!(m.to_json(false)["seed"].is_null());
    }

    #[test]
    fn recorders_dedupe_and_drain() {
        clear_recorded();
        record_input("a.jsonl");
        record_input("a.jsonl");
        record_input("b.jsonl");
        record_output("out.tma");
        assert_eq!(recorded_inputs(), vec!["a.jsonl", "b.jsonl"]);
        assert_eq!(recorded_outputs(), vec!["out.tma"]);
        clear_recorded();
        assert!(recorded_inputs().is_empty());
        assert!(recorded_outputs().is_empty());
    }
}
