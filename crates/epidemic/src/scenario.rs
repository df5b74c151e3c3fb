//! Outbreak scenarios and timelines: the user-facing simulation API.

use crate::deterministic::{seed_infection, susceptible, Rates, Rk4, I, R, S};
use crate::network::{Edges, MobilityNetwork};
use crate::stochastic::{step as stochastic_step, DiscreteState};
use std::fmt;
use tweetmob_stats::rng::SplitMix64;

/// SEIR extension parameters.
#[derive(Debug, Clone, Copy)]
pub struct SeirParams {
    /// Incubation rate σ (per day); mean incubation period is `1/σ`.
    pub sigma: f64,
}

/// Errors configuring or running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A rate parameter was non-positive or non-finite.
    BadRate(&'static str, f64),
    /// Bad time-stepping parameters.
    BadTimestep(&'static str),
    /// Seed patch out of range.
    BadSeedPatch(usize),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadRate(name, v) => write!(f, "rate {name} = {v} must be > 0"),
            ScenarioError::BadTimestep(what) => write!(f, "bad timestep: {what}"),
            ScenarioError::BadSeedPatch(p) => write!(f, "seed patch {p} out of range"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A travel restriction: from `start_day` onward every migration rate
/// is multiplied by `rate_factor` (0 = full border closure).
#[derive(Debug, Clone, Copy)]
struct TravelRestriction {
    /// Day the restriction takes effect.
    start_day: f64,
    /// Multiplier applied to all migration rates, in `[0, 1]`.
    rate_factor: f64,
}

/// Longest horizon a scenario may run, days. Both engines record one
/// snapshot per step, so a decade at `dt = 0.25` is ~15k snapshots,
/// while an unbounded horizon would try to allocate a timeline of
/// `days / dt` of them.
const MAX_DAYS: f64 = 3650.0;

/// An outbreak configuration over a mobility network.
#[derive(Debug, Clone)]
pub struct OutbreakScenario {
    network: MobilityNetwork,
    beta: f64,
    gamma: f64,
    seir: Option<SeirParams>,
    seeds: Vec<(usize, f64)>,
    restriction: Option<TravelRestriction>,
    initial_immunity: f64,
}

impl OutbreakScenario {
    /// An SIR scenario with transmission rate `beta` and recovery rate
    /// `gamma` (per day). `R0 = beta / gamma` in a single well-mixed
    /// patch.
    pub fn new(network: MobilityNetwork, beta: f64, gamma: f64) -> Self {
        Self {
            network,
            beta,
            gamma,
            seir: None,
            seeds: Vec::new(),
            restriction: None,
            initial_immunity: 0.0,
        }
    }

    /// Switches to SEIR dynamics with the given incubation rate.
    pub fn with_seir(mut self, params: SeirParams) -> Self {
        self.seir = Some(params);
        self
    }

    /// Adds `count` initial infections in `patch` (builder style;
    /// repeated calls accumulate).
    pub fn seed(mut self, patch: usize, count: f64) -> Self {
        self.seeds.push((patch, count));
        self
    }

    /// Starts every patch with `fraction` of its population already
    /// immune (vaccination / prior exposure). The classic threshold
    /// result: an outbreak with basic number R₀ dies out when the
    /// immune fraction exceeds `1 − 1/R₀`.
    pub fn with_initial_immunity(mut self, fraction: f64) -> Self {
        self.initial_immunity = fraction;
        self
    }

    /// Imposes a travel restriction: from `start_day` every migration
    /// rate is multiplied by `rate_factor` — the classic containment
    /// intervention a responsive Twitter-derived model would inform.
    pub fn with_travel_restriction(mut self, start_day: f64, rate_factor: f64) -> Self {
        self.restriction = Some(TravelRestriction {
            start_day,
            rate_factor,
        });
        self
    }

    fn validate(&self, days: f64, dt: f64) -> Result<(), ScenarioError> {
        if !(self.beta > 0.0) || !self.beta.is_finite() {
            return Err(ScenarioError::BadRate("beta", self.beta));
        }
        if !(self.gamma > 0.0) || !self.gamma.is_finite() {
            return Err(ScenarioError::BadRate("gamma", self.gamma));
        }
        if let Some(s) = self.seir {
            if !(s.sigma > 0.0) || !s.sigma.is_finite() {
                return Err(ScenarioError::BadRate("sigma", s.sigma));
            }
        }
        if !(dt > 0.0) || !dt.is_finite() {
            return Err(ScenarioError::BadTimestep("dt must be > 0"));
        }
        if !(days > 0.0) || days < dt {
            return Err(ScenarioError::BadTimestep(
                "days must cover at least one step",
            ));
        }
        if !(days <= MAX_DAYS) {
            return Err(ScenarioError::BadTimestep(
                "days must be finite and at most 3650",
            ));
        }
        for &(p, _) in &self.seeds {
            if p >= self.network.n_patches() {
                return Err(ScenarioError::BadSeedPatch(p));
            }
        }
        if !(0.0..1.0).contains(&self.initial_immunity) {
            return Err(ScenarioError::BadRate(
                "initial_immunity",
                self.initial_immunity,
            ));
        }
        if let Some(r) = self.restriction {
            if !(0.0..=1.0).contains(&r.rate_factor) || !r.rate_factor.is_finite() {
                return Err(ScenarioError::BadRate("rate_factor", r.rate_factor));
            }
            if !r.start_day.is_finite() || r.start_day < 0.0 {
                return Err(ScenarioError::BadTimestep(
                    "restriction start_day must be ≥ 0",
                ));
            }
        }
        Ok(())
    }

    /// The engines' rate parameters.
    fn rates(&self) -> Rates {
        Rates {
            beta: self.beta,
            gamma: self.gamma,
            sigma: self.seir.map(|s| s.sigma),
        }
    }

    /// The migration edges of the network as it is, and the restricted
    /// ones with the day they take over, if a restriction is set.
    fn edges(&self) -> (Edges, Option<(f64, Edges)>) {
        let restricted = self
            .restriction
            .map(|r| (r.start_day, self.network.edges(r.rate_factor)));
        (self.network.edges(1.0), restricted)
    }

    /// Runs the deterministic RK4 engine, recording one snapshot per
    /// step.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for invalid rates, timestep or seed patches.
    pub fn run_deterministic(&self, days: f64, dt: f64) -> Result<EpidemicTimeline, ScenarioError> {
        let _span = tweetmob_obs::span!("epidemic/run_deterministic");
        self.validate(days, dt)?;
        let mut state = susceptible(self.network.populations());
        if self.initial_immunity > 0.0 {
            for patch in &mut state {
                let immune = patch[S] * self.initial_immunity;
                patch[S] -= immune;
                patch[R] += immune;
            }
        }
        for &(p, c) in &self.seeds {
            seed_infection(&mut state, p, c);
        }
        let steps = (days / dt).round() as usize;
        let (free, restricted) = self.edges();
        let mut rk4 = Rk4::new(self.rates(), state);
        let mut timeline = EpidemicTimeline::new(self.network.n_patches(), steps + 1);
        timeline.push(0.0, rk4.state().iter().map(|x| (x[I], x[R])));
        for k in 1..=steps {
            let t = k as f64 * dt;
            let edges = match &restricted {
                Some((start, edges)) if t > *start => edges,
                _ => &free,
            };
            rk4.step(edges, dt);
            timeline.push(t, rk4.state().iter().map(|x| (x[I], x[R])));
        }
        Ok(timeline)
    }

    /// Runs the stochastic binomial-chain engine with the given RNG
    /// seed.
    ///
    /// # Errors
    ///
    /// As [`OutbreakScenario::run_deterministic`].
    pub fn run_stochastic(
        &self,
        days: f64,
        dt: f64,
        rng_seed: u64,
    ) -> Result<EpidemicTimeline, ScenarioError> {
        let _span = tweetmob_obs::span!("epidemic/run_stochastic");
        self.validate(days, dt)?;
        let rates = self.rates();
        let mut rng = SplitMix64::new(rng_seed);
        let mut state = DiscreteState::susceptible(&self.network, self.seir.is_some());
        if self.initial_immunity > 0.0 {
            for p in 0..self.network.n_patches() {
                let immune = (state.s[p] as f64 * self.initial_immunity).round() as u64;
                let immune = immune.min(state.s[p]);
                state.s[p] -= immune;
                state.r[p] += immune;
            }
        }
        for &(p, c) in &self.seeds {
            state.seed_infection(p, c.round() as u64);
        }
        let steps = (days / dt).round() as usize;
        let (free, restricted) = self.edges();
        let mut timeline = EpidemicTimeline::new(self.network.n_patches(), steps + 1);
        timeline.push(0.0, state.snapshot());
        for k in 1..=steps {
            let t = k as f64 * dt;
            let edges = match &restricted {
                Some((start, edges)) if t > *start => edges,
                _ => &free,
            };
            stochastic_step(edges, &rates, &mut state, dt, &mut rng);
            timeline.push(t, state.snapshot());
        }
        Ok(timeline)
    }
}

/// Recorded infection curves per patch.
#[derive(Debug, Clone)]
pub struct EpidemicTimeline {
    /// Snapshot times, days.
    pub times: Vec<f64>,
    /// `infected[p][k]` = infectious count in patch `p` at `times[k]`.
    pub infected: Vec<Vec<f64>>,
    /// `recovered[p][k]` = cumulative recovered in patch `p`.
    pub recovered: Vec<Vec<f64>>,
}

impl EpidemicTimeline {
    /// An empty timeline with room for `snapshots` per curve.
    fn new(n_patches: usize, snapshots: usize) -> Self {
        let curves = || {
            (0..n_patches)
                .map(|_| Vec::with_capacity(snapshots))
                .collect()
        };
        Self {
            times: Vec::with_capacity(snapshots),
            infected: curves(),
            recovered: curves(),
        }
    }

    /// Records the snapshot at `t` from each patch's `(infected,
    /// recovered)` pair, in patch order.
    fn push(&mut self, t: f64, patches: impl Iterator<Item = (f64, f64)>) {
        self.times.push(t);
        for ((infected, recovered), (i, r)) in self
            .infected
            .iter_mut()
            .zip(&mut self.recovered)
            .zip(patches)
        {
            infected.push(i);
            recovered.push(r);
        }
    }

    /// Number of patches.
    pub fn n_patches(&self) -> usize {
        self.infected.len()
    }

    /// Maximum simultaneous infections in `patch`.
    ///
    /// # Panics
    ///
    /// If `patch` is out of range.
    pub fn peak_infected(&self, patch: usize) -> f64 {
        self.infected[patch].iter().copied().fold(0.0, f64::max)
    }

    /// Day the infection count in `patch` first reaches `threshold`, or
    /// `None` if it never does — the arrival-time observable used to rank
    /// how quickly an outbreak reaches each city.
    ///
    /// # Panics
    ///
    /// If `patch` is out of range.
    pub fn arrival_time(&self, patch: usize, threshold: f64) -> Option<f64> {
        self.infected[patch]
            .iter()
            .position(|&v| v >= threshold)
            .map(|k| self.times[k])
    }

    /// Final cumulative recovered (attack size) in `patch`.
    ///
    /// # Panics
    ///
    /// If `patch` is out of range.
    pub fn final_size(&self, patch: usize) -> f64 {
        *self.recovered[patch].last().unwrap_or(&0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_network() -> MobilityNetwork {
        // Three patches in a line: 0 ↔ 1 ↔ 2.
        MobilityNetwork::from_flows(
            vec![100_000.0, 50_000.0, 80_000.0],
            &[(0, 1, 10.0), (1, 0, 10.0), (1, 2, 10.0), (2, 1, 10.0)],
            0.04,
        )
        .unwrap()
    }

    #[test]
    fn arrival_order_follows_network_topology() {
        let scenario = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 50.0);
        let tl = scenario.run_deterministic(200.0, 0.2).unwrap();
        let t0 = tl.arrival_time(0, 100.0).unwrap();
        let t1 = tl.arrival_time(1, 100.0).unwrap();
        let t2 = tl.arrival_time(2, 100.0).unwrap();
        assert!(t0 < t1, "t0 {t0} t1 {t1}");
        assert!(t1 < t2, "t1 {t1} t2 {t2}");
    }

    #[test]
    fn seir_scenario_runs_and_spreads() {
        let scenario = OutbreakScenario::new(chain_network(), 0.5, 0.2)
            .with_seir(SeirParams { sigma: 0.25 })
            .seed(0, 100.0);
        let tl = scenario.run_deterministic(300.0, 0.2).unwrap();
        assert!(
            tl.final_size(2) > 10_000.0,
            "final size {}",
            tl.final_size(2)
        );
    }

    #[test]
    fn stochastic_mean_tracks_deterministic() {
        let scenario = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 200.0);
        let det = scenario.run_deterministic(150.0, 0.25).unwrap();
        let mut stoch_final = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let tl = scenario.run_stochastic(150.0, 0.25, seed).unwrap();
            stoch_final += tl.final_size(0);
        }
        stoch_final /= runs as f64;
        let det_final = det.final_size(0);
        assert!(
            (stoch_final - det_final).abs() / det_final < 0.1,
            "stochastic {stoch_final} vs deterministic {det_final}"
        );
    }

    #[test]
    fn timeline_observables_consistent() {
        let scenario = OutbreakScenario::new(chain_network(), 0.6, 0.2).seed(0, 10.0);
        let tl = scenario.run_deterministic(100.0, 0.5).unwrap();
        assert_eq!(tl.n_patches(), 3);
        assert_eq!(tl.times.len(), tl.infected[0].len());
        assert!(tl.peak_infected(0) > 10.0);
        assert!(tl.arrival_time(0, 1e12).is_none());
        // Total recovered across patches is monotone (per patch it is
        // not: migration moves recovered individuals between patches).
        let total_recovered: Vec<f64> = (0..tl.times.len())
            .map(|k| (0..tl.n_patches()).map(|p| tl.recovered[p][k]).sum())
            .collect();
        for w in total_recovered.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn validation_errors() {
        let net = chain_network();
        assert!(matches!(
            OutbreakScenario::new(net.clone(), 0.0, 0.2).run_deterministic(10.0, 0.1),
            Err(ScenarioError::BadRate("beta", _))
        ));
        assert!(matches!(
            OutbreakScenario::new(net.clone(), 0.5, -1.0).run_deterministic(10.0, 0.1),
            Err(ScenarioError::BadRate("gamma", _))
        ));
        assert!(matches!(
            OutbreakScenario::new(net.clone(), 0.5, 0.2)
                .with_seir(SeirParams { sigma: 0.0 })
                .run_deterministic(10.0, 0.1),
            Err(ScenarioError::BadRate("sigma", _))
        ));
        assert!(matches!(
            OutbreakScenario::new(net.clone(), 0.5, 0.2).run_deterministic(10.0, 0.0),
            Err(ScenarioError::BadTimestep(_))
        ));
        assert!(matches!(
            OutbreakScenario::new(net, 0.5, 0.2)
                .seed(99, 1.0)
                .run_deterministic(10.0, 0.1),
            Err(ScenarioError::BadSeedPatch(99))
        ));
    }

    #[test]
    fn unbounded_horizon_rejected_by_both_engines() {
        let scenario = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 1.0);
        for days in [f64::INFINITY, 1e12, MAX_DAYS + 0.25] {
            assert!(matches!(
                scenario.run_deterministic(days, 0.25),
                Err(ScenarioError::BadTimestep(_))
            ));
            assert!(matches!(
                scenario.run_stochastic(days, 0.25, 7),
                Err(ScenarioError::BadTimestep(_))
            ));
        }
        // The bound itself is a valid horizon.
        let timeline = scenario.run_deterministic(MAX_DAYS, 1.0).unwrap();
        assert_eq!(timeline.times.last().copied(), Some(MAX_DAYS));
    }

    #[test]
    fn travel_restriction_delays_spread() {
        let base = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 50.0);
        let unrestricted = base.clone().run_deterministic(250.0, 0.25).unwrap();
        // Closing 99 % of travel on day 5 delays arrival in patch 2.
        let restricted = base
            .clone()
            .with_travel_restriction(5.0, 0.01)
            .run_deterministic(250.0, 0.25)
            .unwrap();
        let t_free = unrestricted.arrival_time(2, 100.0).unwrap();
        let t_shut = restricted.arrival_time(2, 100.0).unwrap();
        assert!(
            t_shut > t_free + 5.0,
            "restriction should delay: free {t_free}, restricted {t_shut}"
        );
        // Full closure before any export keeps patch 2 clean.
        let sealed = base
            .clone()
            .with_travel_restriction(0.0, 0.0)
            .run_deterministic(250.0, 0.25)
            .unwrap();
        assert!(
            sealed.final_size(2) < 1.0,
            "sealed {}",
            sealed.final_size(2)
        );
    }

    #[test]
    fn restriction_validation() {
        let base = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 10.0);
        assert!(matches!(
            base.clone()
                .with_travel_restriction(5.0, 1.5)
                .run_deterministic(10.0, 0.25),
            Err(ScenarioError::BadRate("rate_factor", _))
        ));
        assert!(matches!(
            base.clone()
                .with_travel_restriction(-1.0, 0.5)
                .run_deterministic(10.0, 0.25),
            Err(ScenarioError::BadTimestep(_))
        ));
    }

    #[test]
    fn herd_immunity_threshold_respected() {
        // R0 = 2.5 → threshold 1 − 1/2.5 = 0.6.
        let base = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 100.0);
        let below = base
            .clone()
            .with_initial_immunity(0.3)
            .run_deterministic(400.0, 0.25)
            .unwrap();
        let above = base
            .clone()
            .with_initial_immunity(0.75)
            .run_deterministic(400.0, 0.25)
            .unwrap();
        // Attack size beyond the pre-immune pool: below threshold it is
        // substantial, above it is negligible.
        let pop0 = 100_000.0;
        let below_attack = below.final_size(0) - 0.3 * pop0;
        let above_attack = above.final_size(0) - 0.75 * pop0;
        assert!(
            below_attack > 10_000.0,
            "below-threshold attack {below_attack}"
        );
        assert!(
            above_attack < 2_000.0,
            "above-threshold attack {above_attack}"
        );
        // Stochastic engine honours it too.
        let stoch = base
            .clone()
            .with_initial_immunity(0.75)
            .run_stochastic(200.0, 0.25, 1)
            .unwrap();
        assert!(stoch.final_size(0) < 0.76 * pop0 + 2_000.0);
    }

    #[test]
    fn immunity_fraction_validated() {
        let base = OutbreakScenario::new(chain_network(), 0.5, 0.2).seed(0, 10.0);
        assert!(matches!(
            base.clone()
                .with_initial_immunity(1.0)
                .run_deterministic(10.0, 0.25),
            Err(ScenarioError::BadRate("initial_immunity", _))
        ));
        assert!(base
            .clone()
            .with_initial_immunity(0.0)
            .run_deterministic(10.0, 0.25)
            .is_ok());
    }

    #[test]
    fn multiple_seeds_accumulate() {
        let scenario = OutbreakScenario::new(chain_network(), 0.5, 0.2)
            .seed(0, 10.0)
            .seed(2, 10.0);
        let tl = scenario.run_deterministic(50.0, 0.25).unwrap();
        // Both end patches are infected from day 0.
        assert!(tl.infected[0][0] > 0.0);
        assert!(tl.infected[2][0] > 0.0);
        assert_eq!(tl.infected[1][0], 0.0);
    }
}
