//! Request routing and the endpoint handlers.
//!
//! Every handler is a pure read over the shared, immutable
//! [`ModelBundle`] — no locks, no mutation — so responses are
//! byte-deterministic regardless of request interleaving. All input
//! validation funnels through [`ApiError`]; the only `5xx` the layer
//! can produce is for states a client cannot cause.

use crate::http::{Request, Response};
use std::sync::Arc;
use tweetmob_data::{ModelBundle, QueryError};
use tweetmob_epidemic::{MobilityNetwork, OutbreakScenario, SeirParams};
use tweetmob_models::ModelKind;
use tweetmob_obs::{Json, Timer, SERVE_LATENCY_BOUNDS_NS};

/// Fixed RK4 step, days — the same step the CLI `epidemic` command
/// uses, so the two answer identically.
const SCENARIO_DT: f64 = 0.25;

/// Shared server state: the artifact, loaded once, shared read-only.
#[derive(Clone)]
pub struct AppState {
    bundle: Arc<ModelBundle>,
}

impl AppState {
    /// Wraps a loaded bundle for sharing across worker threads.
    #[must_use]
    pub fn new(bundle: Arc<ModelBundle>) -> Self {
        AppState { bundle }
    }

    /// The artifact this server answers from.
    #[must_use]
    pub fn bundle(&self) -> &ModelBundle {
        &self.bundle
    }
}

/// A client-visible failure: an HTTP status plus a message rendered as
/// `{"error": ...}`. Constructors exist for each status the API emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status (400, 404, 405).
    pub status: u16,
    /// Human-readable cause, echoed into the JSON body.
    pub message: String,
}

impl ApiError {
    /// `400 Bad Request`.
    #[must_use]
    pub(crate) fn bad_request(message: String) -> Self {
        ApiError {
            status: 400,
            message,
        }
    }

    /// `404 Not Found`.
    #[must_use]
    fn not_found(message: String) -> Self {
        ApiError {
            status: 404,
            message,
        }
    }

    /// `405 Method Not Allowed`.
    #[must_use]
    fn method_not_allowed(method: &str, path: &str, allowed: &str) -> Self {
        ApiError {
            status: 405,
            message: format!("{method} is not supported on {path}; use {allowed}"),
        }
    }

    /// Renders the error as its JSON response.
    #[must_use]
    pub(crate) fn into_response(self) -> Response {
        Response {
            status: self.status,
            content_type: "application/json",
            body: Json::obj([("error", self.message.into())]).to_string(),
        }
    }
}

impl From<QueryError> for ApiError {
    /// Query errors carry their own precise messages (including the
    /// valid index range); the mapping only picks the status: a name
    /// that resolves to nothing is a missing resource (`404`), every
    /// other shape of bad input is a `400`.
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::UnknownArea { .. } => ApiError::not_found(e.to_string()),
            _ => ApiError::bad_request(e.to_string()),
        }
    }
}

/// Routes one request and records per-endpoint observability: a
/// `serve/<endpoint>/requests` counter, a `serve/<endpoint>/errors`
/// counter for 4xx/5xx, and a `serve/<endpoint>/latency_ns` histogram
/// over [`SERVE_LATENCY_BOUNDS_NS`] — wide enough that even a
/// cold-start request lands in a finite bucket (`GET /metrics` renders
/// the `overflow` count that would betray saturation).
#[must_use]
pub fn handle(state: &AppState, req: &Request) -> Response {
    let timer = Timer::start();
    let endpoint = endpoint_label(&req.path);
    let response = route(state, req).unwrap_or_else(ApiError::into_response);
    let registry = tweetmob_obs::global();
    registry
        .counter(&format!("serve/{endpoint}/requests"))
        .add(1);
    if response.status >= 400 {
        registry.counter(&format!("serve/{endpoint}/errors")).add(1);
    }
    registry
        .histogram(
            &format!("serve/{endpoint}/latency_ns"),
            &SERVE_LATENCY_BOUNDS_NS,
        )
        .record(timer.elapsed_ns());
    response
}

/// Metric label for a request path: the known endpoint name, or
/// `"other"` so unknown paths cannot mint unbounded metric names.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/population" => "population",
        "/predict" => "predict",
        "/top_k" => "top_k",
        "/epidemic" => "epidemic",
        "/provenance" => "provenance",
        "/metrics" => "metrics",
        _ => "other",
    }
}

fn route(state: &AppState, req: &Request) -> Result<Response, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(healthz(state)),
        ("GET", "/population") => Ok(population(state)),
        ("GET", "/predict") => predict(state, req),
        ("GET", "/top_k") => top_k(state, req),
        ("POST", "/epidemic") => epidemic(state, req),
        ("GET", "/provenance") => provenance(state),
        ("GET", "/metrics") => Ok(Response::json(tweetmob_obs::global().to_json())),
        (_, "/healthz" | "/population" | "/predict" | "/top_k" | "/provenance" | "/metrics") => {
            Err(ApiError::method_not_allowed(&req.method, &req.path, "GET"))
        }
        (_, "/epidemic") => Err(ApiError::method_not_allowed(&req.method, &req.path, "POST")),
        _ => Err(ApiError::not_found(format!(
            "no such endpoint {:?}; try /healthz, /population, /predict, /top_k, /epidemic, \
             /provenance or /metrics",
            req.path
        ))),
    }
}

fn healthz(state: &AppState) -> Response {
    Response::json(
        Json::obj([
            ("status", "ok".into()),
            ("areas", state.bundle().len().into()),
            ("label", state.bundle().meta().label.as_str().into()),
        ])
        .to_string(),
    )
}

fn population(state: &AppState) -> Response {
    let bundle = state.bundle();
    let areas = bundle
        .areas()
        .iter()
        .zip(bundle.populations())
        .map(|(area, &model_pop)| {
            Json::obj([
                ("name", area.name.as_str().into()),
                ("lat", area.center.lat.into()),
                ("lon", area.center.lon.into()),
                ("census_population", area.census_population.into()),
                ("model_population", model_pop.into()),
            ])
        })
        .collect();
    let meta = bundle.meta();
    Response::json(
        Json::obj([
            ("label", meta.label.as_str().into()),
            ("population_source", meta.population_source.as_str().into()),
            ("radius_km", meta.radius_km.into()),
            ("areas", Json::Arr(areas)),
        ])
        .to_string(),
    )
}

/// The model kinds a `model=` parameter names: one kind, or all four
/// for the CLI-compatible `all` (also the default when absent).
fn model_param(req: &Request) -> Result<Vec<ModelKind>, ApiError> {
    match req.query.get("model").map(String::as_str) {
        None => Ok(ModelKind::ALL.to_vec()),
        Some(m) if m.eq_ignore_ascii_case("all") => Ok(ModelKind::ALL.to_vec()),
        Some(m) => Ok(vec![ModelBundle::resolve_model(m)
            .map_err(|e| ApiError::bad_request(format!("{e}, or all")))?]),
    }
}

/// Resolves a `origin=` / `dest=` parameter: an area name (the CLI's
/// case-insensitive lookup) or a bare numeric index into the bundle.
fn area_param(bundle: &ModelBundle, req: &Request, key: &str) -> Result<usize, ApiError> {
    let raw = req
        .query
        .get(key)
        .ok_or_else(|| ApiError::bad_request(format!("missing query parameter {key:?}")))?;
    if !raw.is_empty() && raw.bytes().all(|b| b.is_ascii_digit()) {
        let idx: usize = raw
            .parse()
            .map_err(|_| ApiError::bad_request(format!("{key}={raw:?} is not a valid index")))?;
        if idx >= bundle.len() {
            return Err(ApiError::bad_request(format!(
                "{key} index {idx} is out of range: the bundle covers {} areas \
                 (valid indices 0..={})",
                bundle.len(),
                bundle.len().saturating_sub(1)
            )));
        }
        return Ok(idx);
    }
    Ok(bundle.resolve_area(raw)?)
}

/// The canonical name of a resolved area index.
fn area_name(bundle: &ModelBundle, index: usize) -> Result<String, ApiError> {
    bundle
        .areas()
        .get(index)
        .map(|a| a.name.clone())
        .ok_or_else(|| ApiError::bad_request(format!("area index {index} is out of range")))
}

/// `GET /predict?model=&origin=&dest=`.
fn predict(state: &AppState, req: &Request) -> Result<Response, ApiError> {
    let bundle = state.bundle();
    let kinds = model_param(req)?;
    let origin = area_param(bundle, req, "origin")?;
    let dest = area_param(bundle, req, "dest")?;
    Ok(Response::json(
        predict_json(bundle, &kinds, origin, dest)?.to_string(),
    ))
}

/// `GET /top_k?model=&origin=&k=`.
fn top_k(state: &AppState, req: &Request) -> Result<Response, ApiError> {
    let bundle = state.bundle();
    let kinds = model_param(req)?;
    let origin = area_param(bundle, req, "origin")?;
    let k: usize = match req.query.get("k") {
        None => 5,
        Some(raw) => raw.parse().map_err(|_| {
            ApiError::bad_request(format!("k={raw:?} is not a non-negative integer"))
        })?,
    };
    Ok(Response::json(
        top_k_json(bundle, &kinds, origin, k)?.to_string(),
    ))
}

/// An area's name, or `null` for an index outside the bundle.
fn name_json(bundle: &ModelBundle, index: usize) -> Json {
    bundle
        .areas()
        .get(index)
        .map_or(Json::Null, |a| a.name.as_str().into())
}

/// The pairwise prediction document: what `GET /predict` serves and
/// `tweetmob predict --json` prints, built in one place so the two stay
/// byte-identical.
///
/// # Errors
///
/// The [`QueryError`] of an out-of-range index or a self-pair.
pub fn predict_json(
    bundle: &ModelBundle,
    kinds: &[ModelKind],
    origin: usize,
    dest: usize,
) -> Result<Json, QueryError> {
    bundle.observation(origin, dest)?;
    let predictions = kinds
        .iter()
        .map(|&k| Ok((k.key().to_string(), bundle.predict(k, origin, dest)?.into())))
        .collect::<Result<_, QueryError>>()?;
    Ok(Json::obj([
        ("origin", name_json(bundle, origin)),
        ("dest", name_json(bundle, dest)),
        (
            "distance_km",
            bundle.geometry().distance(origin, dest).into(),
        ),
        ("predictions", Json::Obj(predictions)),
    ]))
}

/// The ranked-destinations document: what `GET /top_k` serves and
/// `tweetmob predict --json --top K` prints.
///
/// # Errors
///
/// The [`QueryError`] of an out-of-range origin or `k = 0`.
pub fn top_k_json(
    bundle: &ModelBundle,
    kinds: &[ModelKind],
    origin: usize,
    k: usize,
) -> Result<Json, QueryError> {
    let models = kinds
        .iter()
        .map(|&kind| {
            let ranked = bundle
                .top_k(kind, origin, k)?
                .into_iter()
                .map(|(dest, flow)| {
                    Json::obj([("dest", name_json(bundle, dest)), ("flow", flow.into())])
                })
                .collect();
            Ok((kind.key().to_string(), Json::Arr(ranked)))
        })
        .collect::<Result<_, QueryError>>()?;
    Ok(Json::obj([
        ("origin", name_json(bundle, origin)),
        ("k", k.into()),
        ("models", Json::Obj(models)),
    ]))
}

/// An optional finite number field of a JSON object, with a default
/// when absent or `null`. A present non-numeric value is a `400`, not
/// a silent default.
fn f64_field(obj: &Json, key: &str, default: f64) -> Result<f64, ApiError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) if v.is_null() => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ApiError::bad_request(format!("field {key:?} must be a number"))),
    }
}

/// A positive, finite rate parameter.
fn positive_rate(name: &str, value: f64) -> Result<f64, ApiError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(ApiError::bad_request(format!(
            "field {name:?} must be a finite rate > 0, got {value}"
        )))
    }
}

/// `POST /epidemic` — runs a deterministic SIR/SEIR outbreak over the
/// artifact's fitted flows, exactly as `tweetmob epidemic
/// --artifact-in` would.
///
/// Body (all fields optional except `seed_city`):
///
/// ```json
/// {"seed_city": "Sydney", "model": "gravity2", "beta": 0.5,
///  "gamma": 0.2, "sigma": null, "days": 365, "leave_rate": 0.02,
///  "immune": 0.0}
/// ```
fn epidemic(state: &AppState, req: &Request) -> Result<Response, ApiError> {
    let bundle = state.bundle();
    let body = if req.body.trim().is_empty() {
        Json::obj([])
    } else {
        Json::parse(&req.body)
            .map_err(|e| ApiError::bad_request(format!("request body is not valid JSON: {e}")))?
    };
    if body.as_object().is_none() {
        return Err(ApiError::bad_request(
            "request body must be a JSON object".into(),
        ));
    }

    let seed_city = body
        .get("seed_city")
        .and_then(Json::as_str)
        .ok_or_else(|| {
            ApiError::bad_request("field \"seed_city\" (an area name) is required".into())
        })?;
    let seed_patch = bundle.resolve_area(seed_city)?;
    let kind = match body.get("model").and_then(Json::as_str) {
        None => ModelKind::Gravity2,
        Some(m) => ModelBundle::resolve_model(m)?,
    };
    let beta = positive_rate("beta", f64_field(&body, "beta", 0.5)?)?;
    let gamma = positive_rate("gamma", f64_field(&body, "gamma", 0.2)?)?;
    // `run_deterministic` bounds the horizon to a decade, which also
    // bounds worst-case CPU per request.
    let days = f64_field(&body, "days", 365.0)?;
    let leave_rate = positive_rate("leave_rate", f64_field(&body, "leave_rate", 0.02)?)?;
    let immune = f64_field(&body, "immune", 0.0)?;

    let network = MobilityNetwork::from_artifact(bundle, kind, leave_rate)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    let mut scenario = OutbreakScenario::new(network, beta, gamma)
        .seed(seed_patch, 20.0)
        .with_initial_immunity(immune);
    match body.get("sigma") {
        None => {}
        Some(v) if v.is_null() => {}
        Some(v) => {
            let sigma = v
                .as_f64()
                .ok_or_else(|| ApiError::bad_request("field \"sigma\" must be a number".into()))?;
            scenario = scenario.with_seir(SeirParams { sigma });
        }
    }
    let timeline = scenario
        .run_deterministic(days, SCENARIO_DT)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;

    let cities = bundle
        .areas()
        .iter()
        .enumerate()
        .map(|(p, area)| {
            Json::obj([
                ("name", area.name.as_str().into()),
                ("arrival_day", timeline.arrival_time(p, 100.0).into()),
                ("peak_infected", timeline.peak_infected(p).into()),
                ("final_size", timeline.final_size(p).into()),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("seed_city", area_name(bundle, seed_patch)?.into()),
        ("model", kind.key().into()),
        ("beta", beta.into()),
        ("gamma", gamma.into()),
        ("r0", (beta / gamma).into()),
        ("days", days.into()),
        ("cities", Json::Arr(cities)),
    ]);
    Ok(Response::json(doc.to_string()))
}

/// `GET /provenance` — the run manifest embedded at fit time, verbatim.
fn provenance(state: &AppState) -> Result<Response, ApiError> {
    match state.bundle().provenance() {
        Some(manifest) => Ok(Response::json(manifest.to_string())),
        None => Err(ApiError::not_found(
            "the artifact carries no provenance section (written by `tweetmob fit`)".into(),
        )),
    }
}
