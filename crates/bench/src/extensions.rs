//! Experiments E11–E14: the paper's claims tested beyond its own figures.

use crate::{Outcome, Study};
use tweetmob_core::{
    deterrence_ablation, displacement_profile, temporal_stability, waiting_time_stationarity,
    AreaSet, Experiment, PopulationSource, Scale,
};
use tweetmob_geo::haversine_km;
use tweetmob_stats::concentration::{gini, theil};
use tweetmob_synth::counterfactual::{top_areas, uniform_country_places};
use tweetmob_synth::gazetteer::world_places;
use tweetmob_synth::{Area, Place, TweetGenerator};

/// The 20 cities nearest the population-weighted centre of a world — a
/// contiguous "state-sized" study region.
fn central_region(places: &[Place], k: usize) -> Vec<Area> {
    let total: f64 = places.iter().map(|p| p.area.population as f64).sum();
    let clat = places
        .iter()
        .map(|p| p.area.center.lat * p.area.population as f64)
        .sum::<f64>()
        / total;
    let clon = places
        .iter()
        .map(|p| p.area.center.lon * p.area.population as f64)
        .sum::<f64>()
        / total;
    let centre = tweetmob_geo::Point::new_unchecked(clat, clon);
    let mut areas: Vec<Area> = places.iter().map(|p| p.area).collect();
    areas.sort_by(|a, b| haversine_km(centre, a.center).total_cmp(&haversine_km(centre, b.center)));
    areas.truncate(k);
    // Study areas are conventionally listed by population.
    areas.sort_by_key(|a| std::cmp::Reverse(a.population));
    areas
}

/// Experiment E11 — the geographic counterfactual behind the paper's
/// headline claim.
///
/// The paper argues Radiation loses to Gravity in Australia *because* of
/// geography ("unlike U.S.A. where a large population spreads relatively
/// evenly across the country"). This holds everything fixed — user
/// count, activity model, the distance-driven travel kernel — and swaps
/// only the world: the real coastal Australian gazetteer vs a uniform
/// jittered-grid country with the same total population.
///
/// Two scale analogues are compared, because the deficit is strongest
/// where geography is gappiest: the national scale (top-20 cities,
/// ε = 50 km) and the state scale (a contiguous 20-city subregion,
/// ε = 25 km — NSW for Australia, the cities nearest the grid centre for
/// the uniform country). If the paper's causal story is right, the
/// Gravity-vs-Radiation gap must shrink in the uniform world.
pub(crate) fn counterfactual(study: &Study) -> Outcome {
    let cfg = &study.cfg;
    println!("================================================================");
    println!("E11 — geographic counterfactual: Australia vs a uniform country");
    println!("================================================================");

    let australia = world_places();
    let total_pop: u64 = australia.iter().map(|p| p.area.population).sum();
    let uniform = uniform_country_places(8, 6, total_pop, cfg.seed);

    let apops: Vec<f64> = australia.iter().map(|p| p.area.population as f64).collect();
    let upops: Vec<f64> = uniform.iter().map(|p| p.area.population as f64).collect();
    println!("population concentration   Gini      Theil    (0 = even)");
    let (agini, atheil) = (gini(&apops)?, theil(&apops)?);
    println!("  Australia (coastal)     {agini:>6.3}   {atheil:>7.3}");
    let (ugini, utheil) = (gini(&upops)?, theil(&upops)?);
    println!("  uniform country         {ugini:>6.3}   {utheil:>7.3}");
    println!();

    // (world label, study label, areas, radius)
    let setups: Vec<(&str, &str, Vec<Area>, f64)> = vec![
        (
            "Australia",
            "national (top-20 cities)",
            Scale::National.areas().to_vec(),
            50.0,
        ),
        (
            "Australia",
            "state (NSW top-20)",
            Scale::State.areas().to_vec(),
            25.0,
        ),
        (
            "uniform",
            "national analogue (top-20 cities)",
            top_areas(&uniform, 20),
            50.0,
        ),
        (
            "uniform",
            "state analogue (central 20 cities)",
            central_region(&uniform, 20),
            25.0,
        ),
    ];

    // BTreeMap: the verdict below folds over this map, and report lines must
    // come out in the same order every run.
    let mut gap_sum: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for (world, region, areas, radius) in setups {
        let places = if world == "Australia" {
            australia.clone()
        } else {
            uniform.clone()
        };
        let dataset = TweetGenerator::with_places(cfg.clone(), places).generate();
        let experiment = Experiment::new(&dataset);
        let area_set = AreaSet::new(areas, radius);
        match experiment.fit_with(
            &area_set,
            PopulationSource::Twitter,
            format!("{world} / {region}"),
        ) {
            Ok((report, _)) => {
                let g2 = report
                    .evaluation("Gravity 2Param")
                    .ok_or("no Gravity 2Param evaluation")?;
                let rad = report
                    .evaluation("Radiation")
                    .ok_or("no Radiation evaluation")?;
                let gap = g2.pearson - rad.pearson;
                println!("--- {world}: {region}, ε = {radius} km ---");
                println!(
                    "  Gravity 2Param  r = {:.3}  hit@50% = {:.3}",
                    g2.pearson, g2.hit_rate_50
                );
                println!(
                    "  Radiation       r = {:.3}  hit@50% = {:.3}",
                    rad.pearson, rad.hit_rate_50
                );
                println!(
                    "  gravity − radiation gap = {gap:+.3}   ({} trips, {} pairs)",
                    report.od_total, report.nonzero_pairs
                );
                println!();
                let e = gap_sum.entry(world).or_insert((0.0, 0));
                e.0 += gap;
                e.1 += 1;
            }
            Err(e) => println!("{world} / {region}: {e}"),
        }
    }

    let mean = |w: &str| {
        gap_sum
            .get(w)
            .map(|&(s, n)| s / n.max(1) as f64)
            .unwrap_or(f64::NAN)
    };
    let aus = mean("Australia");
    let uni = mean("uniform");
    println!("verdict: mean gravity-over-radiation gap");
    println!("  Australia       {aus:+.3}");
    println!("  uniform country {uni:+.3}");
    if uni < aus {
        println!("→ the gap shrinks on even geography: Radiation's deficit in the");
        println!("  paper is geographic, exactly as §IV argues.");
    } else {
        println!("→ the gap did NOT shrink — investigate before citing E11.");
    }
    Ok(())
}

/// Experiment E12 — temporal responsiveness.
///
/// The paper's pitch is that tweets are "generated continuously in large
/// volume … which provides timely and accessible information on human
/// mobility". This quantifies the claim the paper itself never tests:
/// how much collection time does the population estimate need? It slices
/// the 8-month window into months and repeats Fig. 3 inside each.
pub(crate) fn temporal(study: &Study) -> Outcome {
    let ds = study.header("E12 — temporal responsiveness of population estimation");
    for scale in [Scale::National, Scale::Metropolitan] {
        println!("--- {} scale, 8 monthly windows ---", scale.name());
        match temporal_stability(ds, scale, 8) {
            Ok(st) => {
                println!(
                    "{:>7} {:>10} {:>9} {:>12} {:>12}",
                    "window", "tweets", "users", "r(census)", "r(full)"
                );
                for (k, w) in st.windows.iter().enumerate() {
                    println!(
                        "{:>7} {:>10} {:>9} {:>12.3} {:>12.3}",
                        k + 1,
                        w.n_tweets,
                        w.n_users,
                        w.vs_census.r,
                        w.vs_full_period.r
                    );
                }
                println!(
                    "worst single-month census correlation: {:.3}",
                    st.worst_census_r()
                );
            }
            Err(e) => println!("unavailable: {e}"),
        }
        println!();
    }
    match waiting_time_stationarity(ds) {
        Ok((ks, p)) => println!(
            "waiting-time stationarity (first vs second half, per-user capped): KS = {ks:.3}, p = {p:.3}"
        ),
        Err(e) => println!("stationarity test unavailable: {e}"),
    }
    println!();
    println!("reading: if every monthly r(census) is close to the full-period");
    println!("value, one month of tweets already suffices for a responsive");
    println!("population estimate — the feasibility the paper argues for.");
    Ok(())
}

/// Experiment E13 — extended model-family comparison (DESIGN.md §6 +
/// paper future work).
///
/// Adds to the paper's three models: intervening opportunities,
/// exponential-deterrence gravity, the Tanner combination, and
/// doubly-constrained gravity (IPF). Prints one table per scale.
pub(crate) fn ablation_models(study: &Study) -> Outcome {
    study.header("extended model ablation (7 models × 3 scales)");
    for (scale, mobility) in Scale::ALL.iter().zip(study.mobility()) {
        let report = match mobility {
            Ok(m) => &m.report,
            Err(e) => {
                println!("{}: {e}", scale.name());
                continue;
            }
        };
        println!("=== {} ({} trips) ===", scale.name(), report.od_total);
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "model", "Pearson", "hit@50%", "logRMSE", "rank-ρ", "SSI"
        );
        let ablation = deterrence_ablation(report);
        for e in report.evaluations.iter().chain(ablation.evaluations()) {
            println!(
                "{:<16} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                e.model, e.pearson, e.hit_rate_50, e.log_rmse, e.spearman, e.sorensen
            );
        }
        if let Ok((tanner, _)) = &ablation.tanner {
            println!(
                "deterrence read-out: γ = {:.2}, 1/κ = {:+.2e}/km (κ ≈ {:.0} km)",
                tanner.gamma,
                tanner.inv_kappa,
                1.0 / tanner.inv_kappa.abs().max(1e-12)
            );
        }
        if let Ok((iters, _)) = &ablation.ipf {
            println!("IPF converged in {iters} sweeps");
        }
        println!();
    }
    println!("expected shape: the gravity family tops every scale; IPF wins the");
    println!("Sørensen index by construction (matched marginals); Radiation trails.");
    Ok(())
}

/// Experiment E14 — trip-displacement profile.
///
/// The jump-length distribution P(Δr) of consecutive same-user tweets is
/// the mobility literature's standard first diagnostic (the paper's
/// ref.\[9\], Hawelka et al. 2014, reports a truncated power law for
/// global tweets). This prints the log-binned PDF, its tail exponent, and
/// the mass per distance regime.
pub(crate) fn displacement(study: &Study) -> Outcome {
    let ds = study.header("E14 — consecutive-tweet displacement profile");
    let profile = match displacement_profile(ds) {
        Ok(profile) => profile,
        Err(e) => {
            println!("unavailable: {e}");
            return Ok(());
        }
    };
    println!(
        "{} jumps, median {:.2} km",
        profile.n_jumps, profile.median_km
    );
    println!();
    println!("{:>14} {:>14} {:>10}", "Δr (km)", "density", "count");
    for b in profile.pdf.iter().filter(|b| b.count > 0) {
        println!("{:>14.3e} {:>14.3e} {:>10}", b.center, b.density, b.count);
    }
    println!();
    if let Some(tail) = profile.tail {
        println!(
            "tail: alpha = {:.2} above {:.1} km (n = {}, KS = {:.3})",
            tail.alpha, tail.xmin, tail.n_tail, tail.ks_distance
        );
    }
    let shares = &profile.shares;
    println!("mass per regime:");
    println!("  local (<5 km)            {:.1} %", shares.local * 100.0);
    println!(
        "  metropolitan (5–100)     {:.1} %",
        shares.metropolitan * 100.0
    );
    println!(
        "  inter-city (100–1000)    {:.1} %",
        shares.intercity * 100.0
    );
    println!(
        "  continental (≥1000)      {:.1} %",
        shares.continental * 100.0
    );
    println!();
    println!("expected shape: heavy tail across four decades with most mass");
    println!("local — the multi-scale structure the paper's three study scales");
    println!("slice through.");
    Ok(())
}
