//! Model-artifact bundle: the fit-once / predict-many container.
//!
//! A [`ModelBundle`] is everything a serving process needs to answer
//! mobility queries without refitting: the four fitted model artifacts
//! ([`FittedModelSet`]), and the area metadata and populations they were
//! fitted against — persisted in one versioned binary container. The
//! pairwise geometry is not stored: a load rebuilds it from the area
//! centres behind an [`Arc`], so all threads predict from the same
//! immutable state.
//!
//! The container opens with a magic and stores little-endian
//! fixed-width fields (std `to_le_bytes` / `from_le_bytes`) in tagged
//! sections:
//!
//! ```text
//! offset size  field
//! 0      4     magic  b"TMA0"
//! 4      4     schema version (u32 LE) — currently 2
//! 8      4     section count (u32 LE) — 4, or 5 with PROV
//! 12     …     sections: tag [u8;4] | payload len (u64 LE) | payload
//! ```
//!
//! Sections, in this order (the reader accepts no other):
//!
//! * `META` — label, population source (u16-length strings), search
//!   radius (f64 bits);
//! * `AREA` — count (at most `MAX_AREAS`), then per area: name,
//!   centre lat/lon, census population;
//! * `POPS` — the population vector the models were fitted against;
//! * `MODL` — the fitted parameters of all four models;
//! * `PROV` (optional) — run provenance: the portable
//!   `tweetmob-obs` manifest JSON (UTF-8, stored verbatim) describing
//!   the exact fit run — subcommand, normalized args, seed, input
//!   content hashes, crate versions. Written when the caller sets it
//!   ([`ModelBundle::set_provenance`]).
//!
//! A layout change bumps [`ARTIFACT_VERSION`]; readers reject versions
//! they do not know.
//!
//! Every float travels as its IEEE-754 bit pattern, so a loaded bundle
//! predicts **bit-identically** to the in-memory fit it was saved from
//! on the platform that wrote it — the acceptance contract of the
//! artifact layer, asserted end to end in `tests/artifacts.rs`.
//!
//! Malformed containers surface as [`IoError::Format`], and so does a
//! bundle that [`ModelBundle::save`] cannot write so that it loads back
//! unchanged; saving and loading record `artifact/save`/`artifact/load`
//! spans plus the `artifact/bytes` gauge.

use crate::io::IoError;
use std::io::{self, Read, Write};
use std::sync::Arc;
use tweetmob_geo::{PairGeometry, Point};
use tweetmob_models::{
    FittedModelSet, FlowObservation, Gravity2Fit, Gravity4Fit, InterveningPopulation, ModelKind,
    OpportunitiesFit, RadiationFit,
};

/// Magic bytes opening a model-artifact bundle ("TweetMob Artifact").
pub const ARTIFACT_MAGIC: [u8; 4] = *b"TMA0";
/// Schema version of the bundle container. Bump on any layout change;
/// readers reject versions they do not know.
pub const ARTIFACT_VERSION: u32 = 2;

/// Most areas a bundle may hold, checked by [`ModelBundle::save`] and by
/// the reader right after the `AREA` count, before anything is
/// allocated. A load rebuilds O(n²) geometry and intervening rankings
/// (~28 bytes per ordered pair), so the cap bounds what a small hostile
/// file can cost: at 1,024 areas a ~35 KB file rebuilds ~30 MB. Every
/// writer stays far below it — each scale and both E11 worlds fit 20
/// areas, and the widest test set has 70.
const MAX_AREAS: usize = 1024;

const TAG_META: [u8; 4] = *b"META";
const TAG_AREA: [u8; 4] = *b"AREA";
const TAG_POPS: [u8; 4] = *b"POPS";
const TAG_MODL: [u8; 4] = *b"MODL";
const TAG_PROV: [u8; 4] = *b"PROV";

/// Typed rejection of a malformed artifact query.
///
/// Every variant names the offending input and, for range errors, the
/// valid range, so callers (CLI messages, HTTP 400 bodies) can echo a
/// actionable diagnosis without re-deriving bundle state. Queries never
/// panic on bad input — a serving worker must survive any request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Origin area index is not in `0..len`.
    OriginOutOfRange {
        /// The rejected origin index.
        origin: usize,
        /// Number of areas in the bundle.
        len: usize,
    },
    /// Destination area index is not in `0..len`.
    DestOutOfRange {
        /// The rejected destination index.
        dest: usize,
        /// Number of areas in the bundle.
        len: usize,
    },
    /// Origin and destination are the same area — a self-pair has no
    /// flow observation under any of the fitted models.
    SelfPair {
        /// The repeated area index.
        index: usize,
    },
    /// `top_k` was asked for zero destinations.
    ZeroK,
    /// The model name does not parse as a [`ModelKind`].
    UnknownModel {
        /// The rejected model name.
        name: String,
    },
    /// No area in the bundle has this name (case-insensitive).
    UnknownArea {
        /// The rejected area name.
        name: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let range = |f: &mut std::fmt::Formatter<'_>, len: usize| {
            if len == 0 {
                write!(f, "the bundle covers no areas")
            } else {
                write!(
                    f,
                    "the bundle covers {len} areas (valid indices 0..={})",
                    len - 1
                )
            }
        };
        match self {
            QueryError::OriginOutOfRange { origin, len } => {
                write!(f, "origin index {origin} is out of range: ")?;
                range(f, *len)
            }
            QueryError::DestOutOfRange { dest, len } => {
                write!(f, "destination index {dest} is out of range: ")?;
                range(f, *len)
            }
            QueryError::SelfPair { index } => write!(
                f,
                "origin and destination are both area {index}: a self-pair has no flow"
            ),
            QueryError::ZeroK => write!(f, "k must be at least 1"),
            QueryError::UnknownModel { name } => write!(
                f,
                "unknown model {name:?} (expected gravity4|gravity2|radiation|opportunities)"
            ),
            QueryError::UnknownArea { name } => {
                write!(f, "no area named {name:?} in the bundle")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Experiment provenance stored in a bundle's `META` section.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleMeta {
    /// Experiment label (e.g. the scale name the CLI fitted at).
    pub label: String,
    /// Where the fitting populations came from ("twitter" / "census").
    pub population_source: String,
    /// Search radius ε of the area set, km.
    pub radius_km: f64,
}

/// One area's metadata inside a bundle — enough to answer name-based
/// queries and to seed downstream consumers (the epidemic network uses
/// the census population).
#[derive(Debug, Clone, PartialEq)]
pub struct BundleArea {
    /// Area name, unique within the bundle (case-insensitive lookup).
    pub name: String,
    /// Area centre.
    pub center: Point,
    /// Census population of the area.
    pub census_population: f64,
}

/// The persistable fit-once / predict-many artifact: fitted models,
/// the data they were fitted against, and the shared geometry cache.
///
/// The geometry and the intervening-population rankings are **derived**
/// state — deterministic functions of the area centres and populations
/// — so neither is serialized: the rankings are rebuilt on construction
/// and the geometry on load from the `AREA` centres. On the platform
/// that wrote it, a loaded bundle is indistinguishable from the one
/// that was saved.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    meta: BundleMeta,
    areas: Vec<BundleArea>,
    populations: Vec<f64>,
    models: FittedModelSet,
    geometry: Arc<PairGeometry>,
    intervening: InterveningPopulation,
    provenance: Option<String>,
}

impl ModelBundle {
    /// Assembles a bundle from its parts, rebuilding the derived
    /// intervening-population rankings.
    ///
    /// # Panics
    ///
    /// If `areas`, `populations` and `geometry` do not agree in length.
    #[must_use]
    pub fn new(
        meta: BundleMeta,
        areas: Vec<BundleArea>,
        populations: Vec<f64>,
        models: FittedModelSet,
        geometry: Arc<PairGeometry>,
    ) -> Self {
        assert_eq!(
            areas.len(),
            populations.len(),
            "areas and populations must align"
        );
        assert_eq!(
            geometry.len(),
            populations.len(),
            "geometry and populations must align"
        );
        let intervening = InterveningPopulation::from_geometry(Arc::clone(&geometry), &populations);
        Self {
            meta,
            areas,
            populations,
            models,
            geometry,
            intervening,
            provenance: None,
        }
    }

    /// Attaches a run-provenance document (the portable `tweetmob-obs`
    /// manifest JSON) to be written as the bundle's `PROV` section.
    pub fn set_provenance(&mut self, manifest_json: String) {
        self.provenance = Some(manifest_json);
    }

    /// The run-provenance document stored in the bundle's `PROV`
    /// section, if the writer recorded one.
    #[must_use]
    pub fn provenance(&self) -> Option<&str> {
        self.provenance.as_deref()
    }

    /// Experiment provenance.
    #[must_use]
    pub fn meta(&self) -> &BundleMeta {
        &self.meta
    }

    /// Area metadata, in fitting order.
    #[must_use]
    pub fn areas(&self) -> &[BundleArea] {
        &self.areas
    }

    /// The population vector the models were fitted against, aligned
    /// with [`ModelBundle::areas`].
    #[must_use]
    pub fn populations(&self) -> &[f64] {
        &self.populations
    }

    /// The four fitted model artifacts.
    #[must_use]
    pub fn models(&self) -> &FittedModelSet {
        &self.models
    }

    /// The shared pairwise geometry cache (cheap to clone and hand to
    /// any number of prediction threads).
    #[must_use]
    pub fn geometry(&self) -> &Arc<PairGeometry> {
        &self.geometry
    }

    /// The derived intervening-population structure over the bundle's
    /// populations and geometry.
    #[must_use]
    pub fn intervening(&self) -> &InterveningPopulation {
        &self.intervening
    }

    /// Number of areas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.areas.len()
    }

    /// Whether the bundle covers no areas.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.areas.is_empty()
    }

    /// Index of the area with this name (case-insensitive), if any.
    #[must_use]
    pub fn area_index(&self, name: &str) -> Option<usize> {
        self.areas
            .iter()
            .position(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Validates an origin–destination pair against the bundle.
    ///
    /// # Errors
    ///
    /// [`QueryError::OriginOutOfRange`], [`QueryError::DestOutOfRange`]
    /// or [`QueryError::SelfPair`].
    fn check_pair(&self, origin: usize, dest: usize) -> Result<(), QueryError> {
        if origin >= self.len() {
            return Err(QueryError::OriginOutOfRange {
                origin,
                len: self.len(),
            });
        }
        if dest >= self.len() {
            return Err(QueryError::DestOutOfRange {
                dest,
                len: self.len(),
            });
        }
        if origin == dest {
            return Err(QueryError::SelfPair { index: origin });
        }
        Ok(())
    }

    /// Resolves an area name (case-insensitive) to its index.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownArea`] when no area carries the name.
    pub fn resolve_area(&self, name: &str) -> Result<usize, QueryError> {
        self.area_index(name)
            .ok_or_else(|| QueryError::UnknownArea {
                name: name.to_owned(),
            })
    }

    /// Parses a model name into a [`ModelKind`] with a typed error.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownModel`] when the name is not a model key.
    pub fn resolve_model(name: &str) -> Result<ModelKind, QueryError> {
        ModelKind::parse(name).ok_or_else(|| QueryError::UnknownModel {
            name: name.to_owned(),
        })
    }

    /// The prediction-ready observation for an origin–destination pair:
    /// populations from the bundle, distance from the geometry cache,
    /// intervening population from the derived rankings,
    /// `observed_flow` zero (prediction ignores it).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when an index is out of range or `origin == dest`.
    pub fn observation(&self, origin: usize, dest: usize) -> Result<FlowObservation, QueryError> {
        self.check_pair(origin, dest)?;
        Ok(FlowObservation {
            origin_population: self.populations[origin],
            dest_population: self.populations[dest],
            distance_km: self.geometry.distance(origin, dest),
            intervening_population: self.intervening.s(origin, dest),
            observed_flow: 0.0,
        })
    }

    /// Predicted flow of one model for an origin–destination pair.
    ///
    /// # Errors
    ///
    /// As [`ModelBundle::observation`].
    pub fn predict(&self, kind: ModelKind, origin: usize, dest: usize) -> Result<f64, QueryError> {
        Ok(self.models.predict(kind, &self.observation(origin, dest)?))
    }

    /// The `k` destinations with the largest predicted flow from
    /// `origin`, as `(area index, predicted flow)` descending.
    /// Deterministic: ties break toward the smaller area index
    /// (`total_cmp`, no thread-count or load-order sensitivity).
    /// `k` larger than the number of destinations clamps.
    ///
    /// # Errors
    ///
    /// [`QueryError::OriginOutOfRange`] or [`QueryError::ZeroK`].
    pub fn top_k(
        &self,
        kind: ModelKind,
        origin: usize,
        k: usize,
    ) -> Result<Vec<(usize, f64)>, QueryError> {
        if origin >= self.len() {
            return Err(QueryError::OriginOutOfRange {
                origin,
                len: self.len(),
            });
        }
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        let mut scored: Vec<(usize, f64)> = (0..self.len())
            .filter(|&dest| dest != origin)
            .map(|dest| {
                let obs = FlowObservation {
                    origin_population: self.populations[origin],
                    dest_population: self.populations[dest],
                    distance_km: self.geometry.distance(origin, dest),
                    intervening_population: self.intervening.s(origin, dest),
                    observed_flow: 0.0,
                };
                (dest, self.models.predict(kind, &obs))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        Ok(scored)
    }

    /// Serializes the bundle into the container format, or fails when
    /// the container could not give the bundle back whole.
    fn encode(&self) -> Result<Vec<u8>, IoError> {
        let mut meta = Vec::new();
        put_str(&mut meta, &self.meta.label, "meta label")?;
        put_str(
            &mut meta,
            &self.meta.population_source,
            "meta population source",
        )?;
        meta.extend_from_slice(&self.meta.radius_km.to_le_bytes());

        check_area_count(self.areas.len())?;
        // Within MAX_AREAS, so the count fits its u32 field; `new`
        // holds the population vector to the same length.
        let count = (self.areas.len() as u32).to_le_bytes();
        let mut area = count.to_vec();
        for a in &self.areas {
            put_str(&mut area, &a.name, "area name")?;
            area.extend_from_slice(&a.center.lat.to_le_bytes());
            area.extend_from_slice(&a.center.lon.to_le_bytes());
            area.extend_from_slice(&a.census_population.to_le_bytes());
        }

        let mut pops = count.to_vec();
        for &p in &self.populations {
            pops.extend_from_slice(&p.to_le_bytes());
        }

        let mut modl = Vec::new();
        let m = &self.models;
        for v in [
            m.gravity4.c,
            m.gravity4.alpha,
            m.gravity4.beta,
            m.gravity4.gamma,
            m.gravity4.log_r_squared,
        ] {
            modl.extend_from_slice(&v.to_le_bytes());
        }
        modl.extend_from_slice(&(m.gravity4.n_used as u64).to_le_bytes());
        for v in [m.gravity2.c, m.gravity2.gamma, m.gravity2.log_r_squared] {
            modl.extend_from_slice(&v.to_le_bytes());
        }
        modl.extend_from_slice(&(m.gravity2.n_used as u64).to_le_bytes());
        modl.extend_from_slice(&m.radiation.c.to_le_bytes());
        modl.extend_from_slice(&(m.radiation.n_used as u64).to_le_bytes());
        modl.extend_from_slice(&m.opportunities.c.to_le_bytes());
        modl.extend_from_slice(&(m.opportunities.n_used as u64).to_le_bytes());

        let mut sections: Vec<(&[u8; 4], &[u8])> = vec![
            (&TAG_META, &meta),
            (&TAG_AREA, &area),
            (&TAG_POPS, &pops),
            (&TAG_MODL, &modl),
        ];
        // Raw UTF-8 bytes under the section's own u64 length framing —
        // a u16-prefixed string would truncate a long manifest.
        if let Some(prov) = &self.provenance {
            sections.push((&TAG_PROV, prov.as_bytes()));
        }
        Ok(container(&sections))
    }

    /// Parses a container produced by [`ModelBundle::encode`], which
    /// writes `META`, `AREA`, `POPS` and `MODL` in that order, then
    /// `PROV` when it has provenance. Any other section count, tag or
    /// order is a format error.
    ///
    /// The geometry is a function of the `AREA` centres, so it is
    /// rebuilt from them, like the intervening rankings; the area cap
    /// bounds that O(n²) work.
    fn decode(bytes: &[u8]) -> Result<Self, IoError> {
        let mut r = Reader { rem: bytes };
        let magic = r.take(4, "magic")?;
        if magic != ARTIFACT_MAGIC {
            return Err(format_err(format!(
                "bad magic {magic:?}, expected {ARTIFACT_MAGIC:?}"
            )));
        }
        let version = r.u32("version")?;
        if version != ARTIFACT_VERSION {
            return Err(format_err(format!(
                "unsupported artifact version {version} (reader supports {ARTIFACT_VERSION})"
            )));
        }
        let n_sections = r.u32("section count")?;
        if n_sections != 4 && n_sections != 5 {
            return Err(format_err(format!(
                "section count {n_sections}: the writer stores 4 sections, or 5 with PROV"
            )));
        }
        let meta = decode_meta(r.section(TAG_META)?)?;
        let areas = decode_areas(r.section(TAG_AREA)?)?;
        let populations = decode_pops(r.section(TAG_POPS)?)?;
        let models = decode_models(r.section(TAG_MODL)?)?;
        let provenance = if n_sections == 5 {
            let json = String::from_utf8(r.section(TAG_PROV)?.to_vec())
                .map_err(|_| format_err("PROV section is not valid UTF-8".into()))?;
            Some(json)
        } else {
            None
        };
        if !r.rem.is_empty() {
            return Err(format_err(format!(
                "{} trailing bytes after final section",
                r.rem.len()
            )));
        }

        if areas.len() != populations.len() {
            return Err(format_err(format!(
                "section length mismatch: {} areas, {} populations",
                areas.len(),
                populations.len()
            )));
        }
        let centers: Vec<Point> = areas.iter().map(|a| a.center).collect();
        let geometry = PairGeometry::shared(&centers);
        let mut bundle = Self::new(meta, areas, populations, models, geometry);
        bundle.provenance = provenance;
        Ok(bundle)
    }

    /// Writes the bundle to a stream, recording the `artifact/save`
    /// span and the `artifact/bytes` gauge.
    ///
    /// # Errors
    ///
    /// [`IoError::Format`], before anything is written, when the bundle
    /// would not load back unchanged: more than `MAX_AREAS` (1,024)
    /// areas, or a label, population source or area name longer than
    /// 65,535 bytes. [`IoError::Io`] on write failure, including the
    /// final flush's.
    pub fn save<W: Write>(&self, w: W) -> Result<(), IoError> {
        self.save_to(|| Ok(w))
    }

    /// Encodes the bundle, then opens the destination and writes it, so
    /// a bundle that `save` refuses leaves the destination untouched.
    fn save_to<W: Write>(&self, open: impl FnOnce() -> io::Result<W>) -> Result<(), IoError> {
        let encoded = {
            let _span = tweetmob_obs::span!("artifact/save");
            self.encode()?
        };
        let mut w = open()?;
        w.write_all(&encoded)?;
        w.flush()?;
        tweetmob_obs::gauge!("artifact/bytes")
            .set(i64::try_from(encoded.len()).unwrap_or(i64::MAX));
        Ok(())
    }

    /// Reads a bundle written by [`ModelBundle::save`], recording the
    /// `artifact/load` span and the `artifact/bytes` gauge.
    ///
    /// # Errors
    ///
    /// [`IoError::Io`] on read failure; [`IoError::Format`] on a
    /// malformed or version-incompatible container (no path attached;
    /// [`ModelBundle::load_file`] attaches the file name).
    pub fn load<R: Read>(mut r: R) -> Result<Self, IoError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let bundle = {
            let _span = tweetmob_obs::span!("artifact/load");
            Self::decode(&bytes)?
        };
        tweetmob_obs::gauge!("artifact/bytes").set(i64::try_from(bytes.len()).unwrap_or(i64::MAX));
        Ok(bundle)
    }

    /// [`ModelBundle::save`] to a file path, which is attached to any
    /// error.
    ///
    /// # Errors
    ///
    /// As [`ModelBundle::save`]; a refused bundle leaves an existing
    /// file unchanged.
    pub fn save_file(&self, path: &str) -> Result<(), IoError> {
        self.save_to(|| Ok(io::BufWriter::new(std::fs::File::create(path)?)))
            .map_err(|e| e.with_path(path))
    }

    /// [`ModelBundle::load`] from a file path, which is attached to any
    /// error.
    ///
    /// # Errors
    ///
    /// As [`ModelBundle::load`].
    pub fn load_file(path: &str) -> Result<Self, IoError> {
        let file = std::fs::File::open(path).map_err(IoError::Io)?;
        Self::load(std::io::BufReader::new(file)).map_err(|e| e.with_path(path))
    }
}

/// The TMA0 container: magic, version, section count, then each
/// section as its tag, u64 payload length and payload.
fn container(sections: &[(&[u8; 4], &[u8])]) -> Vec<u8> {
    let body: usize = sections.iter().map(|(_, p)| 4 + 8 + p.len()).sum();
    let mut out = Vec::with_capacity(12 + body);
    out.extend_from_slice(&ARTIFACT_MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(*tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

fn format_err(message: String) -> IoError {
    IoError::Format {
        path: String::new(),
        message,
    }
}

/// The one area cap of writer and reader: a count over [`MAX_AREAS`]
/// is a format error naming the count and the cap.
fn check_area_count(n: usize) -> Result<(), IoError> {
    if n > MAX_AREAS {
        return Err(format_err(format!(
            "{n} areas: an artifact holds at most {MAX_AREAS}"
        )));
    }
    Ok(())
}

/// Appends `s` behind its u16 byte length; a longer string is a format
/// error rather than one cut short (or mid-character).
fn put_str(buf: &mut Vec<u8>, s: &str, what: &str) -> Result<(), IoError> {
    let len = u16::try_from(s.len()).map_err(|_| {
        format_err(format!(
            "{what} is {} bytes: an artifact string holds at most {}",
            s.len(),
            u16::MAX
        ))
    })?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Bounds-checked little-endian reader over a byte slice: malformed
/// input surfaces as [`IoError::Format`], never a panic.
struct Reader<'a> {
    rem: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], IoError> {
        if self.rem.len() < n {
            return Err(format_err(format!(
                "truncated while reading {what}: need {n} bytes, have {}",
                self.rem.len()
            )));
        }
        let (head, tail) = self.rem.split_at(n);
        self.rem = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], IoError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    fn u16(&mut self, what: &str) -> Result<u16, IoError> {
        self.array(what).map(u16::from_le_bytes)
    }

    fn u32(&mut self, what: &str) -> Result<u32, IoError> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &str) -> Result<u64, IoError> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn f64(&mut self, what: &str) -> Result<f64, IoError> {
        self.array(what).map(f64::from_le_bytes)
    }

    fn string(&mut self, what: &str) -> Result<String, IoError> {
        let len = usize::from(self.u16(what)?);
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| format_err(format!("{what} is not valid UTF-8")))
    }

    /// The payload of the next section, which must carry `tag`.
    fn section(&mut self, tag: [u8; 4]) -> Result<&'a [u8], IoError> {
        let found: [u8; 4] = self.array("section tag")?;
        if found != tag {
            return Err(format_err(format!(
                "expected section {}, found {}",
                String::from_utf8_lossy(&tag),
                String::from_utf8_lossy(&found)
            )));
        }
        let len = self.usize_from_u64("section length")?;
        self.take(len, "section payload")
    }

    fn usize_from_u64(&mut self, what: &str) -> Result<usize, IoError> {
        let raw = self.u64(what)?;
        usize::try_from(raw).map_err(|_| format_err(format!("implausible {what} {raw}")))
    }

    fn finish(self, what: &str) -> Result<(), IoError> {
        if self.rem.is_empty() {
            Ok(())
        } else {
            Err(format_err(format!(
                "{} trailing bytes in {what} section",
                self.rem.len()
            )))
        }
    }
}

fn decode_meta(payload: &[u8]) -> Result<BundleMeta, IoError> {
    let mut r = Reader { rem: payload };
    let label = r.string("meta label")?;
    let population_source = r.string("meta population source")?;
    let radius_km = r.f64("meta radius")?;
    r.finish("META")?;
    Ok(BundleMeta {
        label,
        population_source,
        radius_km,
    })
}

fn decode_areas(payload: &[u8]) -> Result<Vec<BundleArea>, IoError> {
    let mut r = Reader { rem: payload };
    let count = r.u32("area count")? as usize;
    check_area_count(count)?;
    let mut areas = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.string("area name")?;
        let lat = r.f64("area latitude")?;
        let lon = r.f64("area longitude")?;
        let census_population = r.f64("area census population")?;
        let center = Point::new(lat, lon)
            .map_err(|e| format_err(format!("area {name:?}: invalid centre: {e}")))?;
        areas.push(BundleArea {
            name,
            center,
            census_population,
        });
    }
    r.finish("AREA")?;
    Ok(areas)
}

fn decode_pops(payload: &[u8]) -> Result<Vec<f64>, IoError> {
    let mut r = Reader { rem: payload };
    let count = r.u32("population count")?;
    let mut pops = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        pops.push(r.f64("population")?);
    }
    r.finish("POPS")?;
    Ok(pops)
}

fn decode_models(payload: &[u8]) -> Result<FittedModelSet, IoError> {
    let mut r = Reader { rem: payload };
    let gravity4 = Gravity4Fit {
        c: r.f64("gravity4 c")?,
        alpha: r.f64("gravity4 alpha")?,
        beta: r.f64("gravity4 beta")?,
        gamma: r.f64("gravity4 gamma")?,
        log_r_squared: r.f64("gravity4 r²")?,
        n_used: r.usize_from_u64("gravity4 n_used")?,
    };
    let gravity2 = Gravity2Fit {
        c: r.f64("gravity2 c")?,
        gamma: r.f64("gravity2 gamma")?,
        log_r_squared: r.f64("gravity2 r²")?,
        n_used: r.usize_from_u64("gravity2 n_used")?,
    };
    let radiation = RadiationFit {
        c: r.f64("radiation c")?,
        n_used: r.usize_from_u64("radiation n_used")?,
    };
    let opportunities = OpportunitiesFit {
        c: r.f64("opportunities c")?,
        n_used: r.usize_from_u64("opportunities n_used")?,
    };
    r.finish("MODL")?;
    Ok(FittedModelSet {
        gravity4,
        gravity2,
        radiation,
        opportunities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweetmob_models::FittedModel;

    fn scatter(count: usize, seed: u64) -> Vec<Point> {
        let mut k = seed;
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        (0..count)
            .map(|_| Point::new_unchecked(next(-44.0, -10.0), next(113.0, 154.0)))
            .collect()
    }

    /// The message of the format error `result` must be.
    fn format_message<T: std::fmt::Debug>(result: Result<T, IoError>) -> String {
        match result {
            Err(IoError::Format { message, .. }) => message,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    fn sample_bundle(n: usize, seed: u64) -> ModelBundle {
        let centers = scatter(n, seed);
        let geometry = PairGeometry::shared(&centers);
        let mut k = seed.wrapping_mul(31).wrapping_add(7);
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        let populations: Vec<f64> = (0..n).map(|_| next(1e3, 1e6)).collect();
        let intervening = InterveningPopulation::from_geometry(Arc::clone(&geometry), &populations);
        let mut obs = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let o = FlowObservation {
                    origin_population: populations[i],
                    dest_population: populations[j],
                    distance_km: geometry.distance(i, j),
                    intervening_population: intervening.s(i, j),
                    observed_flow: 0.01 * populations[i] * populations[j]
                        / (geometry.distance(i, j) * geometry.distance(i, j)),
                };
                obs.push(o);
            }
        }
        let models = FittedModelSet::fit(&obs).unwrap();
        let areas: Vec<BundleArea> = centers
            .iter()
            .enumerate()
            .map(|(i, &center)| BundleArea {
                name: format!("Area {i}"),
                center,
                census_population: populations[i] * 1.5,
            })
            .collect();
        ModelBundle::new(
            BundleMeta {
                label: "test".into(),
                population_source: "twitter".into(),
                radius_km: 50.0,
            },
            areas,
            populations,
            models,
            geometry,
        )
    }

    #[test]
    fn save_load_round_trip_is_byte_identical() {
        let bundle = sample_bundle(8, 17);
        let mut first = Vec::new();
        bundle.save(&mut first).unwrap();
        let loaded = ModelBundle::load(&first[..]).unwrap();
        let mut second = Vec::new();
        loaded.save(&mut second).unwrap();
        assert_eq!(first, second, "re-encoding must be canonical");
        assert_eq!(loaded.meta(), bundle.meta());
        assert_eq!(loaded.areas(), bundle.areas());
        assert_eq!(loaded.models(), bundle.models());
        assert_eq!(
            loaded
                .populations()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            bundle
                .populations()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn loaded_predictions_bit_match_the_original() {
        let bundle = sample_bundle(7, 3);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let loaded = ModelBundle::load(&buf[..]).unwrap();
        for kind in ModelKind::ALL {
            for i in 0..bundle.len() {
                for j in 0..bundle.len() {
                    if i == j {
                        continue;
                    }
                    assert_eq!(
                        bundle.predict(kind, i, j).unwrap().to_bits(),
                        loaded.predict(kind, i, j).unwrap().to_bits(),
                        "{kind} {i}->{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_is_descending_and_deterministic() {
        let bundle = sample_bundle(9, 5);
        let top = bundle.top_k(ModelKind::Gravity2, 0, 4).unwrap();
        assert_eq!(top.len(), 4);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(top.iter().all(|&(j, _)| j != 0));
        // k larger than the area count is clamped.
        assert_eq!(bundle.top_k(ModelKind::Gravity2, 0, 100).unwrap().len(), 8);
        // Deterministic across repeated evaluation.
        assert_eq!(top, bundle.top_k(ModelKind::Gravity2, 0, 4).unwrap());
    }

    #[test]
    fn queries_reject_bad_input_with_typed_errors() {
        let bundle = sample_bundle(5, 17);
        assert_eq!(
            bundle.observation(5, 0),
            Err(QueryError::OriginOutOfRange { origin: 5, len: 5 })
        );
        assert_eq!(
            bundle.observation(0, 9),
            Err(QueryError::DestOutOfRange { dest: 9, len: 5 })
        );
        assert_eq!(
            bundle.observation(3, 3),
            Err(QueryError::SelfPair { index: 3 })
        );
        assert_eq!(
            bundle.predict(ModelKind::Gravity4, 0, 7),
            Err(QueryError::DestOutOfRange { dest: 7, len: 5 })
        );
        assert_eq!(
            bundle.top_k(ModelKind::Gravity2, 11, 3),
            Err(QueryError::OriginOutOfRange { origin: 11, len: 5 })
        );
        assert_eq!(
            bundle.top_k(ModelKind::Gravity2, 0, 0),
            Err(QueryError::ZeroK)
        );
        assert_eq!(
            bundle.resolve_area("atlantis"),
            Err(QueryError::UnknownArea {
                name: "atlantis".into()
            })
        );
        assert_eq!(bundle.resolve_area("AREA 1"), Ok(1));
        assert_eq!(
            ModelBundle::resolve_model("newton"),
            Err(QueryError::UnknownModel {
                name: "newton".into()
            })
        );
        assert_eq!(
            ModelBundle::resolve_model("gravity2"),
            Ok(ModelKind::Gravity2)
        );
        // The messages carry the valid range — serving handlers echo
        // them verbatim into 400 bodies.
        let msg = QueryError::OriginOutOfRange { origin: 5, len: 5 }.to_string();
        assert!(msg.contains("valid indices 0..=4"), "{msg}");
    }

    #[test]
    fn observation_matches_its_parts() {
        let bundle = sample_bundle(6, 29);
        let obs = bundle.observation(1, 4).unwrap();
        assert_eq!(
            obs.origin_population.to_bits(),
            bundle.populations()[1].to_bits()
        );
        assert_eq!(
            obs.distance_km.to_bits(),
            bundle.geometry().distance(1, 4).to_bits()
        );
        assert_eq!(
            obs.intervening_population.to_bits(),
            bundle.intervening().s(1, 4).to_bits()
        );
        assert_eq!(obs.observed_flow, 0.0);
        let direct = bundle.models().gravity4.predict_flow(&obs);
        assert_eq!(
            bundle.predict(ModelKind::Gravity4, 1, 4).unwrap().to_bits(),
            direct.to_bits()
        );
    }

    #[test]
    fn area_lookup_is_case_insensitive() {
        let bundle = sample_bundle(4, 11);
        assert_eq!(bundle.area_index("area 2"), Some(2));
        assert_eq!(bundle.area_index("AREA 0"), Some(0));
        assert_eq!(bundle.area_index("nowhere"), None);
    }

    #[test]
    fn corrupt_containers_are_format_errors() {
        let bundle = sample_bundle(5, 41);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            ModelBundle::load(&bad[..]),
            Err(IoError::Format { .. })
        ));

        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(format_message(ModelBundle::load(&bad[..])).contains("version"));

        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(
            ModelBundle::load(truncated),
            Err(IoError::Format { .. })
        ));

        let mut trailing = buf.clone();
        trailing.extend_from_slice(b"junk");
        assert!(matches!(
            ModelBundle::load(&trailing[..]),
            Err(IoError::Format { .. })
        ));
    }

    #[test]
    fn provenance_round_trips_byte_identically() {
        let mut bundle = sample_bundle(4, 67);
        assert_eq!(bundle.provenance(), None);
        let manifest = r#"{"schema_version": 1, "seed": 42, "subcommand": "fit"}"#;
        bundle.set_provenance(manifest.to_string());
        let mut first = Vec::new();
        bundle.save(&mut first).unwrap();
        let loaded = ModelBundle::load(&first[..]).unwrap();
        assert_eq!(loaded.provenance(), Some(manifest));
        // Canonical re-encode holds with the optional section present.
        let mut second = Vec::new();
        loaded.save(&mut second).unwrap();
        assert_eq!(first, second, "re-encoding must be canonical");
        assert_eq!(loaded.models(), bundle.models());
    }

    #[test]
    fn duplicate_prov_sections_are_rejected() {
        let mut bundle = sample_bundle(4, 67);
        bundle.set_provenance("{}".to_string());
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let count = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        buf[8..12].copy_from_slice(&(count + 1).to_le_bytes());
        buf.extend_from_slice(b"PROV");
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(b"{}");
        let message = format_message(ModelBundle::load(&buf[..]));
        assert!(message.contains("section count 6"), "{message}");
    }

    #[test]
    fn sections_out_of_the_writer_order_are_rejected() {
        let bundle = sample_bundle(4, 53);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        for (tag, renamed) in [(b"META", b"XTRA"), (b"MODL", b"PROV")] {
            let mut bad = buf.clone();
            let pos = bad.windows(4).position(|w| w == tag).unwrap();
            bad[pos..pos + 4].copy_from_slice(renamed);
            let message = format_message(ModelBundle::load(&bad[..]));
            assert!(message.contains("expected section"), "{message}");
        }
    }

    #[test]
    fn every_truncation_is_a_format_error() {
        let mut bundle = sample_bundle(4, 59);
        let mut plain = Vec::new();
        bundle.save(&mut plain).unwrap();
        bundle.set_provenance(r#"{"seed": 3}"#.to_string());
        let mut with_prov = Vec::new();
        bundle.save(&mut with_prov).unwrap();
        for buf in [plain, with_prov] {
            for cut in 0..buf.len() {
                assert!(
                    matches!(ModelBundle::load(&buf[..cut]), Err(IoError::Format { .. })),
                    "prefix of {cut} of {} bytes",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn every_byte_flip_is_a_format_error_or_loads_back_exactly() {
        let mut bundle = sample_bundle(5, 61);
        bundle.set_provenance(r#"{"seed": 3}"#.to_string());
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        for at in 0..buf.len() {
            for flip in 1..=u8::MAX {
                let mut bad = buf.clone();
                bad[at] ^= flip;
                match ModelBundle::load(&bad[..]) {
                    Err(IoError::Format { .. }) => {}
                    Ok(loaded) => {
                        let mut again = Vec::new();
                        loaded.save(&mut again).unwrap();
                        assert!(again == bad, "byte {at} ^ {flip} loads as other bytes");
                    }
                    Err(other) => panic!("byte {at} ^ {flip}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_large_area_count_is_a_format_error() {
        // 100k areas take ~3.4 MB of AREA and POPS but would take ~240 GB
        // of geometry: the count is checked as soon as it is read.
        let n = 100_000u32;
        let mut area = n.to_le_bytes().to_vec();
        let mut pops = area.clone();
        area.resize(4 + 26 * n as usize, 0); // empty names, centres at (0, 0)
        pops.resize(4 + 8 * n as usize, 0);
        let sections = [
            (&TAG_META, &[0; 12][..]),
            (&TAG_AREA, &area),
            (&TAG_POPS, &pops),
            (&TAG_MODL, &[0; 14 * 8]),
        ];
        let message = format_message(ModelBundle::load(&container(&sections)[..]));
        assert!(message.contains("100000 areas"), "{message}");
        assert!(message.contains(&MAX_AREAS.to_string()), "{message}");
    }

    #[test]
    fn save_writes_strings_up_to_the_length_limit_and_refuses_longer() {
        let mut bundle = sample_bundle(3, 13);
        bundle.meta.label = "x".repeat(usize::from(u16::MAX));
        let mut first = Vec::new();
        bundle.save(&mut first).unwrap();
        let loaded = ModelBundle::load(&first[..]).unwrap();
        assert_eq!(loaded.meta(), bundle.meta());
        let mut second = Vec::new();
        loaded.save(&mut second).unwrap();
        assert_eq!(first, second);
        // 65,536 ASCII bytes would load back one byte short; 32,768
        // two-byte characters would be cut mid-character.
        for label in ["x".repeat(1 << 16), "é".repeat(1 << 15)] {
            bundle.meta.label = label;
            let mut buf = Vec::new();
            let message = format_message(bundle.save(&mut buf));
            assert!(message.contains("meta label is 65536 bytes"), "{message}");
            assert!(buf.is_empty(), "nothing is written");
        }
        bundle.meta.label.clear();
        bundle.areas[1].name = "é".repeat(40_000);
        assert!(format_message(bundle.save(Vec::new())).contains("area name"));
        // Refused before the file is opened, so an existing one survives.
        let path = std::env::temp_dir().join("tweetmob_artifact_refused.tma");
        std::fs::write(&path, &first).unwrap();
        let path = path.to_string_lossy().into_owned();
        assert!(format_message(bundle.save_file(&path)).contains("area name"));
        assert_eq!(std::fs::read(&path).unwrap(), first);
    }

    #[test]
    fn save_refuses_more_than_max_areas() {
        let small = sample_bundle(3, 13);
        let n = MAX_AREAS + 1;
        let area = small.areas()[0].clone();
        let bundle = ModelBundle::new(
            small.meta().clone(),
            vec![area.clone(); n],
            vec![1.0; n],
            *small.models(),
            PairGeometry::shared(&vec![area.center; n]),
        );
        let message = format_message(bundle.save(Vec::new()));
        assert!(message.contains("1025 areas"), "{message}");
    }

    #[test]
    fn non_utf8_prov_is_a_format_error() {
        let bundle = sample_bundle(4, 67);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let count = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        buf[8..12].copy_from_slice(&(count + 1).to_le_bytes());
        buf.extend_from_slice(b"PROV");
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let message = format_message(ModelBundle::load(&buf[..]));
        assert!(message.contains("UTF-8"), "{message}");
    }

    #[test]
    fn file_errors_carry_the_path() {
        let err = ModelBundle::load_file("/nonexistent/bundle.tma").unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
        let dir = std::env::temp_dir().join("tweetmob_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.tma");
        std::fs::write(&path, b"not an artifact").unwrap();
        let path = path.to_string_lossy().into_owned();
        match ModelBundle::load_file(&path) {
            Err(IoError::Format { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected Format with path, got {other:?}"),
        }
    }

    #[test]
    fn save_load_metrics_are_recorded() {
        let bundle = sample_bundle(5, 71);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let _ = ModelBundle::load(&buf[..]).unwrap();
        let registry = tweetmob_obs::global();
        assert!(registry.span_stat("artifact/save").is_some());
        assert!(registry.span_stat("artifact/load").is_some());
    }
}
