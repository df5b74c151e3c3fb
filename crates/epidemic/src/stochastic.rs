//! Stochastic metapopulation SEIR: discrete-time binomial chains.
//!
//! For small outbreaks the deterministic ODE is wrong in kind — it cannot
//! go extinct. The stochastic engine steps whole individuals:
//!
//! * infections per patch ~ `Binomial(S, 1 − exp(−β I/N · dt))`
//! * incubations ~ `Binomial(E, 1 − exp(−σ dt))` (SEIR mode)
//! * recoveries ~ `Binomial(I, 1 − exp(−γ dt))`
//! * migration: each compartment loses `Binomial(X, 1 − exp(−mᵢⱼ dt))`
//!   to each destination, sequentially (an adequate multinomial
//!   approximation at the small per-step rates used here).
//!
//! Binomial sampling is implemented from scratch on top of
//! [`SplitMix64`]: Bernoulli summation for small `n·p`, normal
//! approximation for large.

use crate::deterministic::Rates;
use crate::network::{Edges, MobilityNetwork};
use tweetmob_stats::rng::SplitMix64;

/// Draws `Binomial(n, p)`.
///
/// Exact Bernoulli summation when `n ≤ 64` or the expected count is
/// small; otherwise a clamped normal approximation (error far below the
/// demographic noise being modelled).
pub(crate) fn binomial(rng: &mut SplitMix64, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 64 || mean < 16.0 || n as f64 - mean < 16.0 {
        // Exact via inversion on a geometric-skip (fast when p is small)
        // or plain Bernoulli loop.
        if p < 0.1 {
            // Skip-ahead sampling: count successes by jumping over
            // failures with geometric gaps.
            let mut count = 0u64;
            let mut i = 0u64;
            let log_q = (1.0 - p).ln();
            loop {
                let u = rng.next_f64().max(1e-300);
                let skip = (u.ln() / log_q).floor() as u64;
                i = i.saturating_add(skip).saturating_add(1);
                if i > n {
                    return count;
                }
                count += 1;
            }
        }
        let mut count = 0u64;
        for _ in 0..n {
            if rng.next_f64() < p {
                count += 1;
            }
        }
        count
    } else {
        // Normal approximation with continuity correction.
        let sd = (mean * (1.0 - p)).sqrt();
        let u1 = rng.next_f64().max(1e-300);
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + sd * z + 0.5).clamp(0.0, n as f64) as u64
    }
}

/// Integer compartment state per patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DiscreteState {
    /// Susceptible per patch.
    pub(crate) s: Vec<u64>,
    /// Exposed per patch (empty in SIR mode).
    pub(crate) e: Vec<u64>,
    /// Infectious per patch.
    pub(crate) i: Vec<u64>,
    /// Recovered per patch.
    pub(crate) r: Vec<u64>,
}

impl DiscreteState {
    /// All-susceptible state (populations rounded to whole people).
    pub(crate) fn susceptible(net: &MobilityNetwork, seir: bool) -> Self {
        let n = net.n_patches();
        Self {
            s: net
                .populations()
                .iter()
                .map(|&p| p.round() as u64)
                .collect(),
            e: if seir { vec![0; n] } else { Vec::new() },
            i: vec![0; n],
            r: vec![0; n],
        }
    }

    /// Moves up to `count` people from S to I in `patch`.
    pub(crate) fn seed_infection(&mut self, patch: usize, count: u64) {
        let c = count.min(self.s[patch]);
        self.s[patch] -= c;
        self.i[patch] += c;
    }

    /// Total individuals.
    #[cfg(test)]
    fn total(&self) -> u64 {
        self.s.iter().sum::<u64>()
            + self.e.iter().sum::<u64>()
            + self.i.iter().sum::<u64>()
            + self.r.iter().sum::<u64>()
    }

    /// Total infectious individuals.
    #[cfg(test)]
    fn total_infected(&self) -> u64 {
        self.i.iter().sum()
    }

    /// Each patch's `(infected, recovered)` counts as floats, the
    /// pairs a timeline records.
    pub(crate) fn snapshot(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.i
            .iter()
            .zip(&self.r)
            .map(|(&i, &r)| (i as f64, r as f64))
    }
}

/// Advances the chain by one step of `dt` days, migrating over `edges`.
pub(crate) fn step(
    edges: &Edges,
    rates: &Rates,
    state: &mut DiscreteState,
    dt: f64,
    rng: &mut SplitMix64,
) {
    let seir = rates.sigma.is_some();
    // Epidemic transitions first (per patch, using start-of-step counts).
    for p in 0..state.s.len() {
        let pop = state.s[p] + state.i[p] + state.r[p] + if seir { state.e[p] } else { 0 };
        if pop == 0 {
            continue;
        }
        let lambda = rates.beta * state.i[p] as f64 / pop as f64;
        let p_inf = 1.0 - (-lambda * dt).exp();
        let infections = binomial(rng, state.s[p], p_inf);
        let p_rec = 1.0 - (-rates.gamma * dt).exp();
        let recoveries = binomial(rng, state.i[p], p_rec);
        state.s[p] -= infections;
        if let Some(sigma) = rates.sigma {
            let p_inc = 1.0 - (-sigma * dt).exp();
            let incubations = binomial(rng, state.e[p], p_inc);
            state.e[p] += infections;
            state.e[p] -= incubations;
            state.i[p] += incubations;
        } else {
            state.i[p] += infections;
        }
        state.i[p] -= recoveries;
        state.r[p] += recoveries;
    }
    // Migration.
    for (i, row) in edges.rows().enumerate() {
        for &(j, m) in row {
            let p_move = 1.0 - (-m * dt).exp();
            let ms = binomial(rng, state.s[i], p_move);
            state.s[i] -= ms;
            state.s[j] += ms;
            let mi = binomial(rng, state.i[i], p_move);
            state.i[i] -= mi;
            state.i[j] += mi;
            let mr = binomial(rng, state.r[i], p_move);
            state.r[i] -= mr;
            state.r[j] += mr;
            if seir {
                let me = binomial(rng, state.e[i], p_move);
                state.e[i] -= me;
                state.e[j] += me;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_matches_moments() {
        let mut rng = SplitMix64::new(1);
        for (n, p) in [(10u64, 0.5), (1_000, 0.01), (1_000_000, 0.3), (50, 0.9)] {
            let trials = 3_000;
            let mut sum = 0.0;
            for _ in 0..trials {
                sum += binomial(&mut rng, n, p) as f64;
            }
            let mean = sum / trials as f64;
            let expect = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (mean - expect).abs() < 4.0 * sd / (trials as f64).sqrt() + 0.5,
                "n={n} p={p}: mean {mean}, expect {expect}"
            );
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SplitMix64::new(2);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
        for _ in 0..100 {
            let v = binomial(&mut rng, 10, 0.3);
            assert!(v <= 10);
        }
    }

    fn net_two() -> MobilityNetwork {
        MobilityNetwork::from_flows(vec![50_000.0, 50_000.0], &[(0, 1, 1.0), (1, 0, 1.0)], 0.05)
            .unwrap()
    }

    #[test]
    fn population_conserved_exactly() {
        let net = net_two();
        let edges = net.edges(1.0);
        let rates = Rates {
            beta: 0.5,
            gamma: 0.2,
            sigma: Some(0.3),
        };
        let mut state = DiscreteState::susceptible(&net, true);
        state.seed_infection(0, 10);
        let before = state.total();
        let mut rng = SplitMix64::new(3);
        for _ in 0..1_000 {
            step(&edges, &rates, &mut state, 0.25, &mut rng);
        }
        assert_eq!(state.total(), before);
    }

    #[test]
    fn large_outbreak_approaches_deterministic_final_size() {
        // R0 = 2 in one big patch: attack rate ≈ 0.7968.
        let net = MobilityNetwork::from_flows(vec![200_000.0], &[], 0.0).unwrap();
        let edges = net.edges(1.0);
        let rates = Rates {
            beta: 0.4,
            gamma: 0.2,
            sigma: None,
        };
        let mut state = DiscreteState::susceptible(&net, false);
        state.seed_infection(0, 50);
        let mut rng = SplitMix64::new(4);
        for _ in 0..4_000 {
            step(&edges, &rates, &mut state, 0.1, &mut rng);
        }
        let attack = state.r[0] as f64 / 200_000.0;
        assert!((attack - 0.7968).abs() < 0.03, "attack {attack}");
    }

    #[test]
    fn small_seeds_sometimes_go_extinct() {
        // With R0 = 1.5 and a single index case, extinction probability
        // is ~1/R0 ≈ 0.67 — across 40 runs we must see both outcomes.
        let net = MobilityNetwork::from_flows(vec![10_000.0], &[], 0.0).unwrap();
        let edges = net.edges(1.0);
        let rates = Rates {
            beta: 0.3,
            gamma: 0.2,
            sigma: None,
        };
        let mut extinct = 0;
        let mut took_off = 0;
        for seed in 0..40 {
            let mut rng = SplitMix64::new(seed);
            let mut state = DiscreteState::susceptible(&net, false);
            state.seed_infection(0, 1);
            for _ in 0..2_000 {
                step(&edges, &rates, &mut state, 0.2, &mut rng);
                if state.total_infected() == 0 {
                    break;
                }
            }
            if state.r[0] < 100 {
                extinct += 1;
            } else {
                took_off += 1;
            }
        }
        assert!(extinct > 5, "extinct {extinct}");
        assert!(took_off > 5, "took off {took_off}");
    }

    #[test]
    fn migration_carries_outbreak_across_patches() {
        let net = net_two();
        let edges = net.edges(1.0);
        let rates = Rates {
            beta: 0.6,
            gamma: 0.2,
            sigma: None,
        };
        let mut state = DiscreteState::susceptible(&net, false);
        state.seed_infection(0, 100);
        let mut rng = SplitMix64::new(7);
        for _ in 0..1_500 {
            step(&edges, &rates, &mut state, 0.2, &mut rng);
        }
        assert!(state.r[1] > 5_000, "patch 1 recovered {}", state.r[1]);
    }

    #[test]
    fn binomial_never_exceeds_n() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let n = rng.next_below(2_000_000) as u64;
            let p = rng.next_f64();
            let v = binomial(&mut rng, n, p);
            assert!(v <= n, "seed {seed}: Binomial({n}, {p}) gave {v}");
        }
    }

    #[test]
    fn step_conserves_individuals() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let n = 2 + rng.next_below(4);
            let populations: Vec<f64> = (0..n)
                .map(|_| (100 + rng.next_below(49_900)) as f64)
                .collect();
            let beta = rng.range_f64(0.05, 1.5);
            let gamma = rng.range_f64(0.05, 1.0);
            let flows: Vec<(usize, usize, f64)> = (0..n)
                .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j, 1.0)))
                .collect();
            let net = MobilityNetwork::from_flows(populations, &flows, 0.05).unwrap();
            let edges = net.edges(1.0);
            let rates = Rates {
                beta,
                gamma,
                sigma: None,
            };
            let mut state = DiscreteState::susceptible(&net, false);
            state.seed_infection(0, 10);
            let before = state.total();
            for _ in 0..50 {
                step(&edges, &rates, &mut state, 0.25, &mut rng);
            }
            assert_eq!(state.total(), before, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_seeding_is_reproducible() {
        let net = net_two();
        let edges = net.edges(1.0);
        let rates = Rates {
            beta: 0.5,
            gamma: 0.2,
            sigma: None,
        };
        let run = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            let mut state = DiscreteState::susceptible(&net, false);
            state.seed_infection(0, 10);
            for _ in 0..500 {
                step(&edges, &rates, &mut state, 0.25, &mut rng);
            }
            state
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
