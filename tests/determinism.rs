//! Whole-pipeline determinism: identical config ⇒ bit-identical dataset,
//! experiment results and simulations — the property that makes
//! EXPERIMENTS.md numbers reproducible on any machine and thread count.

use tweetmob::core::{Experiment, Scale};
use tweetmob::epidemic::{MobilityNetwork, OutbreakScenario, SeirParams};
use tweetmob::models::ModelKind;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::small();
    cfg.n_users = 3_000;
    cfg
}

#[test]
fn generator_is_bit_identical_across_runs() {
    let a = TweetGenerator::new(config()).generate();
    let b = TweetGenerator::new(config()).generate();
    assert_eq!(a.n_tweets(), b.n_tweets());
    assert!(a.iter_tweets().zip(b.iter_tweets()).all(|(x, y)| x == y));
}

#[test]
fn experiment_results_are_reproducible() {
    let a = TweetGenerator::new(config()).generate();
    let b = TweetGenerator::new(config()).generate();
    let ea = Experiment::new(&a);
    let eb = Experiment::new(&b);
    let pa = ea.population_correlation(Scale::National).unwrap();
    let pb = eb.population_correlation(Scale::National).unwrap();
    assert_eq!(pa.correlation.r, pb.correlation.r);
    let ma = ea.mobility(Scale::National).unwrap();
    let mb = eb.mobility(Scale::National).unwrap();
    assert_eq!(ma.gravity2.gamma, mb.gravity2.gamma);
    assert_eq!(ma.od_total, mb.od_total);
}

#[test]
fn different_seed_changes_everything_downstream() {
    let a = TweetGenerator::new(config()).generate();
    let b = TweetGenerator::new(config().with_seed(424242)).generate();
    let ga = Experiment::new(&a).mobility(Scale::National).unwrap();
    let gb = Experiment::new(&b).mobility(Scale::National).unwrap();
    assert_ne!(ga.od_total, gb.od_total);
    assert_ne!(ga.gravity2.gamma, gb.gravity2.gamma);
}

#[test]
fn per_user_location_counts_are_reproducible() {
    // `distinct_locations_per_user` dedups venues through an ordered set;
    // its output must be identical across runs and across repeated calls
    // on the same dataset (no hash-iteration-order dependence).
    let a = TweetGenerator::new(config()).generate();
    let b = TweetGenerator::new(config()).generate();
    let la = a.distinct_locations_per_user(0.01);
    assert_eq!(la, b.distinct_locations_per_user(0.01));
    assert_eq!(la, a.distinct_locations_per_user(0.01));
    assert_eq!(la.len(), a.n_users());
}

#[test]
fn venue_revisit_coordinates_are_bit_identical() {
    // The generator's per-user venue memory must replay the exact same
    // coordinates run-to-run — not just the same counts. Compare the full
    // coordinate stream at the bit level.
    let a = TweetGenerator::new(config()).generate();
    let b = TweetGenerator::new(config()).generate();
    let coords = |ds: &tweetmob::data::TweetDataset| -> Vec<(u64, u64)> {
        ds.iter_tweets()
            .map(|t| (t.location.lat.to_bits(), t.location.lon.to_bits()))
            .collect()
    };
    assert_eq!(coords(&a), coords(&b));
}

#[test]
fn stochastic_epidemic_reproducible_given_seed() {
    let net = MobilityNetwork::from_flows(
        vec![100_000.0, 60_000.0, 40_000.0],
        &[(0, 1, 5.0), (1, 0, 5.0), (1, 2, 2.0), (2, 1, 2.0)],
        0.04,
    )
    .unwrap();
    let scenario = OutbreakScenario::new(net, 0.5, 0.2).seed(0, 25.0);
    let a = scenario.run_stochastic(120.0, 0.25, 7).unwrap();
    let b = scenario.run_stochastic(120.0, 0.25, 7).unwrap();
    assert_eq!(a.infected, b.infected);
    let c = scenario.run_stochastic(120.0, 0.25, 8).unwrap();
    assert_ne!(a.infected, c.infected);
}

/// FNV-1a 64 over the bits of every recorded number of a timeline:
/// times, then each patch's infected curve, then each patch's
/// recovered curve.
fn timeline_digest(tl: &tweetmob::epidemic::EpidemicTimeline) -> u64 {
    let mut bytes = Vec::new();
    for curve in std::iter::once(&tl.times)
        .chain(&tl.infected)
        .chain(&tl.recovered)
    {
        for v in curve {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    tweetmob::obs::manifest::fnv1a64(&bytes)
}

/// The three-patch chain 0 ↔ 1 ↔ 2 the scenario unit tests use.
fn chain_network() -> MobilityNetwork {
    MobilityNetwork::from_flows(
        vec![100_000.0, 50_000.0, 80_000.0],
        &[(0, 1, 10.0), (1, 0, 10.0), (1, 2, 10.0), (2, 1, 10.0)],
        0.04,
    )
    .unwrap()
}

/// The scenario variants every golden digest covers: SIR and SEIR,
/// each plain, with initial immunity, with a partial travel
/// restriction, with a full closure from day 0, and with immunity and
/// a restriction together.
fn golden_scenarios(base: &OutbreakScenario) -> Vec<(&'static str, OutbreakScenario)> {
    let mut out = Vec::new();
    for (model, s) in [
        ("sir", base.clone()),
        ("seir", base.clone().with_seir(SeirParams { sigma: 0.25 })),
    ] {
        out.push((model, s.clone()));
        out.push((model, s.clone().with_initial_immunity(0.3)));
        out.push((model, s.clone().with_travel_restriction(5.0, 0.01)));
        out.push((model, s.clone().with_travel_restriction(0.0, 0.0)));
        out.push((
            model,
            s.with_initial_immunity(0.2)
                .with_travel_restriction(40.0, 0.25),
        ));
    }
    out
}

fn assert_digests(label: &str, scenarios: &[(&str, OutbreakScenario)], days: f64, want: &[u64]) {
    let got: Vec<u64> = scenarios
        .iter()
        .map(|(_, s)| timeline_digest(&s.run_deterministic(days, 0.25).unwrap()))
        .collect();
    assert_eq!(got, want, "{label}: got {got:#018x?}");
}

/// Golden deterministic timelines on the three-patch chain: every
/// number of every timeline, bit for bit, as recorded once.
#[test]
fn deterministic_epidemic_chain_timelines_match_golden_digests() {
    let base = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 50.0);
    assert_digests(
        "chain",
        &golden_scenarios(&base),
        200.0,
        &[
            0x2facb4b061be8492,
            0x6515b8bd35662f1e,
            0x8b03f075b3e51cfa,
            0xabfdd2fbe76a7049,
            0x1021b4106c605697,
            0x03e5bb77dbc27391,
            0x54532ee6fd9362f2,
            0x5b0bce695ac01b9c,
            0x984037ba1ca48ee0,
            0x44350c0f7dbe5370,
        ],
    );
}

/// Golden deterministic timelines over the 20-area national network an
/// artifact of the small default corpus yields, seeded in Sydney the
/// way `POST /epidemic` seeds.
#[test]
fn deterministic_epidemic_artifact_timelines_match_golden_digests() {
    let ds = TweetGenerator::new(GeneratorConfig::small()).generate();
    let (_, bundle) = Experiment::new(&ds).fit(Scale::National).unwrap();
    let net = MobilityNetwork::from_artifact(&bundle, ModelKind::Gravity2, 0.02).unwrap();
    assert_eq!(net.n_patches(), 20);
    let sydney = bundle.area_index("Sydney").unwrap();
    let base = OutbreakScenario::new(net, 0.5, 0.2).seed(sydney, 20.0);
    assert_digests(
        "national",
        &golden_scenarios(&base),
        365.0,
        &[
            0x549e96486212b566,
            0x2e959aafadd6b62c,
            0x812d38d686385797,
            0x5914c2416c20970a,
            0x76b8396761863610,
            0x716f2c05d89b7482,
            0x50ad490672a2de0a,
            0xe657be2f973b145b,
            0xdbcfcc8d2cdf6920,
            0xf5fe9aae99d43cb4,
        ],
    );
}

/// A golden digest of one fixed-seed stochastic timeline.
#[test]
fn stochastic_epidemic_timeline_matches_golden_digest() {
    let scenario = OutbreakScenario::new(chain_network(), 0.5, 0.2)
        .with_seir(SeirParams { sigma: 0.25 })
        .with_initial_immunity(0.1)
        .with_travel_restriction(30.0, 0.5)
        .seed(0, 25.0);
    let tl = scenario.run_stochastic(120.0, 0.25, 7).unwrap();
    assert_eq!(
        timeline_digest(&tl),
        0x3adc15a96672c095,
        "got {:#018x}",
        timeline_digest(&tl)
    );
}
