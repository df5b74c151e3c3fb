//! End-to-end tests of the serving layer against an in-process server:
//! golden parity with the artifact query API (the same documents
//! `tweetmob predict --json` prints), the 4xx contract for every shape
//! of bad input, and byte-determinism under concurrent load.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use tweetmob_data::{BundleArea, BundleMeta, ModelBundle};
use tweetmob_geo::{PairGeometry, Point};
use tweetmob_models::{FittedModelSet, FlowObservation, InterveningPopulation, ModelKind};
use tweetmob_obs::Json;
use tweetmob_serve::{serve, AppState, ServerHandle, MAX_BODY_BYTES};

// --- fixture -----------------------------------------------------------

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

/// A small fitted bundle over synthetic cities, mirroring the fixture
/// the artifact layer's own tests use.
fn bundle(n: usize, seed: u64) -> ModelBundle {
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
            obs.push(FlowObservation {
                origin_population: populations[i],
                dest_population: populations[j],
                distance_km: geometry.distance(i, j),
                intervening_population: intervening.s(i, j),
                observed_flow: 0.01 * populations[i] * populations[j]
                    / (geometry.distance(i, j) * geometry.distance(i, j)),
            });
        }
    }
    let models = FittedModelSet::fit(&obs).unwrap();
    let areas: Vec<BundleArea> = centers
        .iter()
        .enumerate()
        .map(|(i, &center)| BundleArea {
            name: format!("City {i}"),
            center,
            census_population: populations[i] * 1.5,
        })
        .collect();
    ModelBundle::new(
        BundleMeta {
            label: "serve-test".into(),
            population_source: "twitter".into(),
            radius_km: 50.0,
        },
        areas,
        populations,
        models,
        geometry,
    )
}

fn start(bundle: ModelBundle, workers: usize) -> ServerHandle {
    serve("127.0.0.1:0", AppState::new(Arc::new(bundle)), workers).expect("bind test server")
}

// --- a tiny HTTP client ------------------------------------------------

fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    read_response(&mut BufReader::new(stream))
}

fn read_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    exchange(addr, "GET", target, "")
}

// --- golden parity with the artifact query API -------------------------

#[test]
fn predict_matches_the_cli_json_document_byte_for_byte() {
    let b = bundle(6, 41);
    let server = start(b.clone(), 2);
    let addr = server.addr();

    // The CLI's pairwise --json document, assembled the same way
    // `commands::predict` does, straight from the bundle.
    let map = ModelKind::ALL
        .iter()
        .map(|&k| (k.key().to_string(), b.predict(k, 1, 4).unwrap().into()))
        .collect();
    let expected = Json::obj([
        ("origin", "City 1".into()),
        ("dest", "City 4".into()),
        ("distance_km", b.geometry().distance(1, 4).into()),
        ("predictions", Json::Obj(map)),
    ])
    .to_string();

    // By name (with an escaped space), and by bare index.
    let (status, body) = get(addr, "/predict?origin=City+1&dest=City%204");
    assert_eq!(status, 200);
    assert_eq!(body, expected);
    let (status, by_index) = get(addr, "/predict?origin=1&dest=4");
    assert_eq!(status, 200);
    assert_eq!(by_index, expected);

    server.stop();
}

#[test]
fn top_k_matches_the_cli_json_document_and_defaults_k_to_5() {
    let b = bundle(8, 9);
    let server = start(b.clone(), 2);
    let addr = server.addr();

    let ranked = b
        .top_k(ModelKind::Gravity2, 2, 5)
        .unwrap()
        .into_iter()
        .map(|(dest, flow)| {
            Json::obj([
                ("dest", b.areas()[dest].name.as_str().into()),
                ("flow", flow.into()),
            ])
        })
        .collect();
    let expected = Json::obj([
        ("origin", "City 2".into()),
        ("k", 5u64.into()),
        ("models", Json::obj([("gravity2", Json::Arr(ranked))])),
    ])
    .to_string();

    let (status, body) = get(addr, "/top_k?model=gravity2&origin=city+2");
    assert_eq!(status, 200);
    assert_eq!(body, expected);

    server.stop();
}

// --- the 4xx contract --------------------------------------------------

#[test]
fn every_shape_of_bad_input_is_a_typed_4xx() {
    let server = start(bundle(5, 3), 2);
    let addr = server.addr();

    // Unknown area name: the resource does not exist.
    let (status, body) = get(addr, "/predict?origin=Atlantis&dest=City+1");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no area named"), "{body}");

    // Out-of-range numeric index: bad request, message names the range.
    let (status, body) = get(addr, "/predict?origin=9&dest=1");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("valid indices 0..=4"), "{body}");

    // Unknown model: bad request, message lists the spellings.
    let (status, body) = get(addr, "/predict?model=newton&origin=0&dest=1");
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("gravity4|gravity2|radiation|opportunities"),
        "{body}"
    );

    // Self pair.
    let (status, body) = get(addr, "/predict?origin=2&dest=2");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("self-pair"), "{body}");

    // Missing parameter.
    let (status, body) = get(addr, "/predict?dest=1");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("missing query parameter"), "{body}");
    assert!(body.contains("origin"), "{body}");

    // k = 0.
    let (status, body) = get(addr, "/top_k?origin=0&k=0");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("k must be at least 1"), "{body}");

    // Non-numeric k.
    let (status, body) = get(addr, "/top_k?origin=0&k=many");
    assert_eq!(status, 400, "{body}");

    // Unknown path.
    let (status, body) = get(addr, "/no-such-endpoint");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no such endpoint"), "{body}");

    // Wrong method on a GET endpoint, and on the POST endpoint.
    let (status, _) = exchange(addr, "POST", "/predict?origin=0&dest=1", "");
    assert_eq!(status, 405);
    let (status, _) = get(addr, "/epidemic");
    assert_eq!(status, 405);

    // Malformed scenario body.
    let (status, body) = exchange(addr, "POST", "/epidemic", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = exchange(addr, "POST", "/epidemic", "[]");
    assert_eq!(status, 400, "{body}");
    let (status, body) = exchange(addr, "POST", "/epidemic", "{}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("seed_city"), "{body}");
    let (status, body) = exchange(
        addr,
        "POST",
        "/epidemic",
        "{\"seed_city\": \"City 0\", \"beta\": -1}",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("beta"), "{body}");

    // A declared body over the limit is refused from the headers alone.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /epidemic HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n"
    )
    .expect("send");
    let (status, body) = read_response(&mut BufReader::new(stream));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("exceeds"), "{body}");

    server.stop();
}

// --- determinism under concurrency ------------------------------------

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test needs concurrent clients, not a compute stage"
)]
fn concurrent_identical_requests_return_byte_identical_bodies() {
    let server = start(bundle(7, 23), 4);
    let addr = server.addr();
    let target = "/predict?origin=0&dest=3";

    let (status, reference) = get(addr, target);
    assert_eq!(status, 200);

    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for _ in 0..16 {
                    let (status, body) = get(addr, target);
                    assert_eq!(status, 200);
                    bodies.push(body);
                }
                bodies
            })
        })
        .collect();
    for t in threads {
        for body in t.join().expect("client thread") {
            assert_eq!(body, reference);
        }
    }

    server.stop();
}

// --- the scenario endpoint ---------------------------------------------

#[test]
fn epidemic_scenarios_run_deterministically_over_the_artifact() {
    let server = start(bundle(5, 17), 2);
    let addr = server.addr();
    let body = "{\"seed_city\": \"City 0\", \"days\": 30}";

    let (status, first) = exchange(addr, "POST", "/epidemic", body);
    assert_eq!(status, 200, "{first}");
    let doc = Json::parse(&first).expect("valid json");
    assert_eq!(doc["seed_city"], "City 0");
    assert_eq!(doc["model"], "gravity2");
    assert_eq!(doc["r0"].as_f64(), Some(2.5));
    assert_eq!(doc["days"].as_f64(), Some(30.0));
    let cities = doc["cities"].as_array().expect("cities array");
    assert_eq!(cities.len(), 5);
    for city in cities {
        assert!(city["peak_infected"].as_f64().is_some());
        assert!(city["final_size"].as_f64().is_some());
    }

    // Identical scenario, identical bytes.
    let (status, second) = exchange(addr, "POST", "/epidemic", body);
    assert_eq!(status, 200);
    assert_eq!(second, first);

    server.stop();
}

/// One `POST /epidemic` answer pinned byte for byte, as recorded once:
/// a change to the epidemic engine or the document that moves any
/// digit of any city fails here.
#[test]
fn epidemic_response_body_matches_the_golden_bytes() {
    let server = start(bundle(6, 17), 1);
    let body = "{\"seed_city\": \"City 2\", \"days\": 365}";
    let (status, reply) = exchange(server.addr(), "POST", "/epidemic", body);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply, GOLDEN_EPIDEMIC_BODY);
    server.stop();
}

const GOLDEN_EPIDEMIC_BODY: &str = "\
    {\"beta\":0.5,\"cities\":[\
    {\"arrival_day\":13.0,\"final_size\":110083.10348356671,\"name\":\"City 0\",\"peak_infected\":98639.05209341395},\
    {\"arrival_day\":22.75,\"final_size\":55790.3428024533,\"name\":\"City 1\",\"peak_infected\":18757.154207456573},\
    {\"arrival_day\":5.75,\"final_size\":151715.3024746903,\"name\":\"City 2\",\"peak_infected\":169144.28055473557},\
    {\"arrival_day\":17.75,\"final_size\":205104.46147214423,\"name\":\"City 3\",\"peak_infected\":166254.29681935586},\
    {\"arrival_day\":15.75,\"final_size\":2178323.9146435927,\"name\":\"City 4\",\"peak_infected\":398371.3581972092},\
    {\"arrival_day\":15.25,\"final_size\":2214808.5278081493,\"name\":\"City 5\",\"peak_infected\":436675.8875626804}],\
    \"days\":365.0,\"gamma\":0.2,\"model\":\"gravity2\",\"r0\":2.5,\"seed_city\":\"City 2\"}";

#[test]
fn epidemic_horizon_outside_the_scenario_bound_is_a_400() {
    let server = start(bundle(5, 17), 1);
    for days in ["1e12", "3651", "0", "-5"] {
        let body = format!("{{\"seed_city\": \"City 0\", \"days\": {days}}}");
        let (status, reply) = exchange(server.addr(), "POST", "/epidemic", &body);
        assert_eq!(status, 400, "days {days}: {reply}");
        assert!(reply.contains("bad timestep"), "days {days}: {reply}");
    }
    server.stop();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_worker_survives() {
    let b = bundle(5, 17);
    let server = start(b, 1);
    let addr = server.addr();
    let body = "[".repeat(MAX_BODY_BYTES);
    let (status, reply) = exchange(addr, "POST", "/epidemic", &body);
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("nesting deeper than 128"), "{reply}");
    // The single worker is still alive and answering.
    let (status, reply) = get(addr, "/predict?origin=0&dest=1");
    assert_eq!(status, 200, "{reply}");
    server.stop();
}

// --- provenance, health, population, metrics ---------------------------

#[test]
fn provenance_is_served_verbatim_or_404_when_absent() {
    let bare = start(bundle(4, 5), 1);
    let (status, body) = get(bare.addr(), "/provenance");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no provenance"), "{body}");
    bare.stop();

    let manifest = r#"{"schema_version": 1, "seed": 42, "subcommand": "fit"}"#;
    let mut b = bundle(4, 5);
    b.set_provenance(manifest.to_string());
    let server = start(b, 1);
    let (status, body) = get(server.addr(), "/provenance");
    assert_eq!(status, 200);
    assert_eq!(body, manifest);
    server.stop();
}

#[test]
fn health_population_and_metrics_answer_from_the_bundle() {
    let b = bundle(6, 31);
    let server = start(b.clone(), 2);
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("healthz json");
    assert_eq!(doc["status"], "ok");
    assert_eq!(doc["areas"].as_u64(), Some(6));

    let (status, body) = get(addr, "/population");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("population json");
    assert_eq!(doc["label"], "serve-test");
    assert_eq!(doc["population_source"], "twitter");
    let areas = doc["areas"].as_array().expect("areas array");
    assert_eq!(areas.len(), 6);
    assert_eq!(areas[0]["name"], "City 0");
    assert_eq!(
        areas[2]["census_population"].as_f64(),
        Some(b.areas()[2].census_population)
    );

    // Metrics render the per-endpoint counters and latency histograms
    // this very test populated (the registry is process-global).
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("serve/healthz/requests"),
        "metrics missing healthz counter"
    );
    assert!(
        body.contains("serve/population/latency_ns"),
        "metrics missing latency histogram"
    );
    assert!(
        body.contains("\"overflow\""),
        "latency histograms must render overflow"
    );

    server.stop();
}
