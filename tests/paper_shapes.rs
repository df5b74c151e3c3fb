//! The paper's headline qualitative claims, verified end-to-end at the
//! default experiment scale (20,000 users). Each test names the paper
//! artifact it guards. These are the acceptance tests for the
//! reproduction: if one fails, EXPERIMENTS.md is out of date.

use std::sync::OnceLock;
use tweetmob::core::{Experiment, PooledPopulation, Scale};
use tweetmob::data::{DatasetSummary, TweetDataset};
use tweetmob::geo::{haversine_km, DensityGrid, Point, AUSTRALIA_BBOX};
use tweetmob::models::ModelKind;
use tweetmob::stats::powerlaw::fit_scan_xmin;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn dataset() -> &'static TweetDataset {
    static DS: OnceLock<TweetDataset> = OnceLock::new();
    DS.get_or_init(|| TweetGenerator::new(GeneratorConfig::default()).generate())
}

fn experiment() -> Experiment<'static> {
    Experiment::new(dataset())
}

#[test]
fn table1_statistics_in_paper_bands() {
    let s = DatasetSummary::of(dataset());
    // Paper: 13.3 tweets/user, 35.5 h waiting, 4.76 locations/user.
    assert!(
        (10.0..18.0).contains(&s.avg_tweets_per_user),
        "tweets/user {}",
        s.avg_tweets_per_user
    );
    assert!(
        (20.0..55.0).contains(&s.avg_waiting_time_hours),
        "waiting {} h",
        s.avg_waiting_time_hours
    );
    assert!(
        (3.0..7.0).contains(&s.avg_locations_per_user),
        "locations/user {}",
        s.avg_locations_per_user
    );
    // Enthusiast tail exists and thins with the threshold, as in §II.
    assert!(s.activity.over_50 > s.activity.over_100);
    assert!(s.activity.over_100 > s.activity.over_500);
    assert!(s.activity.over_500 >= s.activity.over_1000);
    assert!(s.activity.over_1000 > 0);
}

#[test]
fn fig1_density_concentrates_on_the_coast() {
    let mut grid = DensityGrid::new(AUSTRALIA_BBOX, 0.5);
    grid.extend(dataset().iter_points());
    // The top cells must sit near known settlements (capitals or
    // regional cities), never in the interior.
    use tweetmob::synth::NATIONAL_TOP20;
    for cell in grid.top_cells(5) {
        let nearest = NATIONAL_TOP20
            .iter()
            .map(|a| haversine_km(a.center, cell.center))
            .fold(f64::INFINITY, f64::min);
        assert!(
            nearest < 150.0,
            "dense cell at {} is {:.0} km from any major city",
            cell.center,
            nearest
        );
    }
    // The single densest cell belongs to Sydney specifically.
    let top = grid.top_cells(1)[0];
    let sydney = Point::new_unchecked(-33.8688, 151.2093);
    assert!(
        haversine_km(sydney, top.center) < 60.0,
        "densest cell at {} is not Sydney",
        top.center
    );
    // And the deep interior is nearly empty: a 300 km disc around the
    // continental centre holds well under 1 % of tweets.
    let interior = Point::new_unchecked(-25.6, 134.4);
    let interior_tweets = dataset()
        .iter_points()
        .filter(|&p| haversine_km(interior, p) < 300.0)
        .count();
    assert!(
        (interior_tweets as f64) < 0.01 * dataset().n_tweets() as f64,
        "interior tweets {interior_tweets}"
    );
}

#[test]
fn fig2a_tweets_per_user_is_heavy_tailed_power_law() {
    let counts: Vec<f64> = dataset()
        .tweets_per_user()
        .iter()
        .map(|&c| c as f64)
        .collect();
    let fit = fit_scan_xmin(&counts).expect("power-law fit");
    // The generating law is a power law of exponent 1.73 bent down by an
    // exponential cutoff at 350 tweets; the MLE tail should stay nearby.
    assert!(
        (1.6..2.4).contains(&fit.alpha),
        "fitted alpha {}",
        fit.alpha
    );
    assert!(fit.ks_distance < 0.1, "ks {}", fit.ks_distance);
    // Tail spans at least three decades of counts.
    let max = counts.iter().copied().fold(0.0f64, f64::max);
    assert!(max >= 1_000.0, "max tweets/user {max}");
}

#[test]
fn fig2b_waiting_times_span_many_decades() {
    let waits: Vec<f64> = dataset()
        .waiting_times_secs()
        .iter()
        .map(|&s| s as f64)
        .filter(|&s| s > 0.0)
        .collect();
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for &w in &waits {
        lo = lo.min(w);
        hi = hi.max(w);
    }
    let decades = (hi / lo).log10();
    // Paper: "span at least eight decades".
    assert!(
        decades >= 6.0,
        "waiting times span only {decades:.1} decades"
    );
}

/// Fig. 3 on the default corpus (20,000 users, default seed). The
/// National > Metropolitan ordering here is a smoke check on one seed;
/// the claim itself is asserted over a seed ensemble by
/// [`fig3_national_beats_metro_on_the_median_of_five_seeds`].
#[test]
fn fig3_population_correlation_strong_and_ordered() {
    let exp = experiment();
    let per_scale = Scale::ALL.map(|s| exp.population_correlation(s).expect("fig 3"));
    let pooled = PooledPopulation::of(per_scale.into()).expect("pooled correlation");
    // Paper: r = 0.816, p = 2.06e-15 over 60 samples.
    assert_eq!(pooled.pooled.n, 60);
    assert!(pooled.pooled.r > 0.75, "pooled r = {}", pooled.pooled.r);
    assert!(
        pooled.pooled.p_two_tailed < 1e-10,
        "p = {}",
        pooled.pooled.p_two_tailed
    );
    // "the correlation appears to weaken as the population size and
    // geographic scale decrease": National ≥ Metropolitan.
    let national = &pooled.per_scale[0];
    let metro = &pooled.per_scale[2];
    assert!(
        national.correlation.r > metro.correlation.r,
        "national {} vs metro {}",
        national.correlation.r,
        metro.correlation.r
    );
}

/// Fig. 3's ordering claim ("the correlation appears to weaken as the
/// population size and geographic scale decrease"), stated at the size
/// it holds at: the median log-log r over **5 seeds** (the default seed
/// and the next four) at the default **20,000 users**, National above
/// Metropolitan. On single seeds the metro r is sample-size-limited and
/// overtakes the national r on a few seeds by 0.01–0.03, so one seed
/// cannot carry the claim.
#[test]
fn fig3_national_beats_metro_on_the_median_of_five_seeds() {
    const SEEDS: u64 = 5;
    let base = GeneratorConfig::default();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut national, mut metro) = (Vec::new(), Vec::new());
    for k in 0..SEEDS {
        let cfg = GeneratorConfig {
            seed: base.seed + k,
            ..base.clone()
        };
        assert_eq!(cfg.n_users, 20_000);
        let ds = TweetGenerator::new(cfg).generate();
        let exp = Experiment::new(&ds);
        let r = |scale| {
            exp.population_correlation(scale)
                .expect("fig 3")
                .correlation
                .r
        };
        national.push(r(Scale::National));
        metro.push(r(Scale::Metropolitan));
    }
    let (n, m) = (median(national.clone()), median(metro.clone()));
    assert!(
        n > m,
        "median national r {n} vs metro r {m} (national {national:?}, metro {metro:?})"
    );
}

#[test]
fn fig3b_metro_correlation_degrades_at_half_km_radius() {
    let exp = experiment();
    let at_2km = exp
        .population_correlation_with_radius(Scale::Metropolitan, 2.0)
        .unwrap();
    let at_half_km = exp
        .population_correlation_with_radius(Scale::Metropolitan, 0.5)
        .unwrap();
    assert!(
        at_half_km.correlation.r < at_2km.correlation.r,
        "0.5 km r = {} should be below 2 km r = {}",
        at_half_km.correlation.r,
        at_2km.correlation.r
    );
}

#[test]
fn table2_gravity_beats_radiation() {
    let exp = experiment();
    let mut gravity_hit_sum = 0.0;
    let mut radiation_hit_sum = 0.0;
    for scale in Scale::ALL {
        let report = exp.mobility(scale).expect("table II");
        let g2 = report.evaluation(ModelKind::Gravity2);
        let rad = report.evaluation(ModelKind::Radiation);
        // Pearson ordering holds at every scale (paper Table II).
        assert!(
            g2.pearson > rad.pearson,
            "{}: g2 {} vs radiation {}",
            scale.name(),
            g2.pearson,
            rad.pearson
        );
        // All models stay in the paper's credible band.
        assert!(g2.pearson > 0.6, "{}: g2 r = {}", scale.name(), g2.pearson);
        gravity_hit_sum += g2.hit_rate_50;
        radiation_hit_sum += rad.hit_rate_50;
    }
    assert!(
        gravity_hit_sum > radiation_hit_sum,
        "gravity mean hit {} vs radiation {}",
        gravity_hit_sum / 3.0,
        radiation_hit_sum / 3.0
    );
}

#[test]
fn table2_gravity_exponents_are_physical() {
    let exp = experiment();
    for scale in Scale::ALL {
        let report = exp.mobility(scale).unwrap();
        // Distance decay must be positive (flows fall with distance) and
        // below the implausible regime.
        assert!(
            report.models.gravity2.gamma > 0.2 && report.models.gravity2.gamma < 4.0,
            "{}: gamma {}",
            scale.name(),
            report.models.gravity2.gamma
        );
        // Population exponents positive: bigger places exchange more.
        assert!(report.models.gravity4.alpha > 0.0, "{}", scale.name());
        assert!(report.models.gravity4.beta > 0.0, "{}", scale.name());
    }
}
