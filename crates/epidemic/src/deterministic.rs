//! Deterministic metapopulation SEIR dynamics (RK4).
//!
//! Per patch `i` with force of infection `λᵢ = β Iᵢ / Nᵢ`:
//!
//! ```text
//! dSᵢ/dt = −λᵢ Sᵢ + Σⱼ (mⱼᵢ Sⱼ − mᵢⱼ Sᵢ)
//! dEᵢ/dt =  λᵢ Sᵢ − σ Eᵢ + Σⱼ (mⱼᵢ Eⱼ − mᵢⱼ Eᵢ)
//! dIᵢ/dt =  σ Eᵢ − γ Iᵢ + Σⱼ (mⱼᵢ Iⱼ − mᵢⱼ Iᵢ)
//! dRᵢ/dt =  γ Iᵢ + Σⱼ (mⱼᵢ Rⱼ − mᵢⱼ Rᵢ)
//! ```
//!
//! SIR is the σ → ∞ special case, implemented by skipping the E
//! compartment entirely (`sigma = None`). Integration is classic
//! fixed-step RK4 — plenty for the smooth, stiff-free dynamics here, and
//! dependency-free.

use crate::network::MobilityNetwork;

/// Full system state: compartment values per patch, flattened as
/// `[S..., E..., I..., R...]` (E block absent in SIR mode).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct State {
    /// Susceptible per patch.
    pub(crate) s: Vec<f64>,
    /// Exposed per patch (empty in SIR mode).
    pub(crate) e: Vec<f64>,
    /// Infectious per patch.
    pub(crate) i: Vec<f64>,
    /// Recovered per patch.
    pub(crate) r: Vec<f64>,
}

impl State {
    /// All-susceptible state over the network's populations.
    pub(crate) fn susceptible(net: &MobilityNetwork, seir: bool) -> Self {
        let n = net.n_patches();
        Self {
            s: net.populations().to_vec(),
            e: if seir { vec![0.0; n] } else { Vec::new() },
            i: vec![0.0; n],
            r: vec![0.0; n],
        }
    }

    /// Moves `count` people from S to I in `patch` (clamped to available
    /// susceptibles).
    pub(crate) fn seed_infection(&mut self, patch: usize, count: f64) {
        let c = count.min(self.s[patch]);
        self.s[patch] -= c;
        self.i[patch] += c;
    }

    /// Total population across compartments and patches.
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.s.iter().sum::<f64>()
            + self.e.iter().sum::<f64>()
            + self.i.iter().sum::<f64>()
            + self.r.iter().sum::<f64>()
    }

    fn zeros_like(&self) -> State {
        State {
            s: vec![0.0; self.s.len()],
            e: vec![0.0; self.e.len()],
            i: vec![0.0; self.i.len()],
            r: vec![0.0; self.r.len()],
        }
    }

    fn axpy(&mut self, a: f64, other: &State) {
        for (x, y) in self.s.iter_mut().zip(&other.s) {
            *x += a * y;
        }
        for (x, y) in self.e.iter_mut().zip(&other.e) {
            *x += a * y;
        }
        for (x, y) in self.i.iter_mut().zip(&other.i) {
            *x += a * y;
        }
        for (x, y) in self.r.iter_mut().zip(&other.r) {
            *x += a * y;
        }
    }
}

/// Epidemic rate parameters for the deterministic engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rates {
    /// Transmission rate β (per day).
    pub(crate) beta: f64,
    /// Recovery rate γ (per day).
    pub(crate) gamma: f64,
    /// Incubation rate σ (per day); `None` selects SIR.
    pub(crate) sigma: Option<f64>,
}

/// Computes the time derivative of `state`.
fn derivative(net: &MobilityNetwork, rates: &Rates, state: &State, out: &mut State) {
    let n = net.n_patches();
    let seir = rates.sigma.is_some();
    // Current patch populations (conserved by migration, but recompute
    // for force-of-infection correctness during transients).
    for p in 0..n {
        let n_p = state.s[p] + state.i[p] + state.r[p] + if seir { state.e[p] } else { 0.0 };
        let lambda = if n_p > 0.0 {
            rates.beta * state.i[p] / n_p
        } else {
            0.0
        };
        let infections = lambda * state.s[p];
        let recoveries = rates.gamma * state.i[p];
        if let Some(sigma) = rates.sigma {
            let incubations = sigma * state.e[p];
            out.s[p] = -infections;
            out.e[p] = infections - incubations;
            out.i[p] = incubations - recoveries;
            out.r[p] = recoveries;
        } else {
            out.s[p] = -infections;
            out.i[p] = infections - recoveries;
            out.r[p] = recoveries;
        }
    }
    // Migration fluxes.
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let m = net.rate(i, j);
            if m == 0.0 {
                continue;
            }
            out.s[i] -= m * state.s[i];
            out.s[j] += m * state.s[i];
            out.i[i] -= m * state.i[i];
            out.i[j] += m * state.i[i];
            out.r[i] -= m * state.r[i];
            out.r[j] += m * state.r[i];
            if seir {
                out.e[i] -= m * state.e[i];
                out.e[j] += m * state.e[i];
            }
        }
    }
}

/// One RK4 step of size `dt` days.
pub(crate) fn rk4_step(net: &MobilityNetwork, rates: &Rates, state: &State, dt: f64) -> State {
    let mut k1 = state.zeros_like();
    derivative(net, rates, state, &mut k1);

    let mut mid = state.clone();
    mid.axpy(dt / 2.0, &k1);
    let mut k2 = state.zeros_like();
    derivative(net, rates, &mid, &mut k2);

    let mut mid2 = state.clone();
    mid2.axpy(dt / 2.0, &k2);
    let mut k3 = state.zeros_like();
    derivative(net, rates, &mid2, &mut k3);

    let mut end = state.clone();
    end.axpy(dt, &k3);
    let mut k4 = state.zeros_like();
    derivative(net, rates, &end, &mut k4);

    let mut next = state.clone();
    next.axpy(dt / 6.0, &k1);
    next.axpy(dt / 3.0, &k2);
    next.axpy(dt / 3.0, &k3);
    next.axpy(dt / 6.0, &k4);
    // Clamp tiny negative values arising from floating-point error.
    for v in next
        .s
        .iter_mut()
        .chain(next.e.iter_mut())
        .chain(next.i.iter_mut())
        .chain(next.r.iter_mut())
    {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_patch(pop: f64) -> MobilityNetwork {
        MobilityNetwork::from_flows(vec![pop], &[], 0.0).unwrap()
    }

    fn two_patches(leave: f64) -> MobilityNetwork {
        MobilityNetwork::from_flows(vec![10_000.0, 10_000.0], &[(0, 1, 1.0), (1, 0, 1.0)], leave)
            .unwrap()
    }

    fn run(net: &MobilityNetwork, rates: &Rates, mut state: State, days: f64, dt: f64) -> State {
        let steps = (days / dt).round() as usize;
        for _ in 0..steps {
            state = rk4_step(net, rates, &state, dt);
        }
        state
    }

    #[test]
    fn population_is_conserved() {
        let net = two_patches(0.1);
        let rates = Rates {
            beta: 0.5,
            gamma: 0.2,
            sigma: None,
        };
        let mut state = State::susceptible(&net, false);
        state.seed_infection(0, 50.0);
        let before = state.total();
        let after = run(&net, &rates, state, 100.0, 0.1).total();
        assert!(
            (before - after).abs() / before < 1e-9,
            "Δ = {}",
            before - after
        );
    }

    #[test]
    fn sir_final_size_matches_analytic() {
        // Single patch SIR with R0 = 2: the final-size equation gives
        // z = 1 − exp(−R0 z) → z ≈ 0.7968.
        let net = single_patch(1e6);
        let rates = Rates {
            beta: 0.4,
            gamma: 0.2,
            sigma: None,
        };
        let mut state = State::susceptible(&net, false);
        state.seed_infection(0, 10.0);
        let end = run(&net, &rates, state, 400.0, 0.05);
        let attack = end.r[0] / 1e6;
        assert!((attack - 0.7968).abs() < 0.01, "attack rate {attack}");
    }

    #[test]
    fn below_threshold_epidemic_dies_out() {
        // R0 = 0.5: no outbreak.
        let net = single_patch(1e6);
        let rates = Rates {
            beta: 0.1,
            gamma: 0.2,
            sigma: None,
        };
        let mut state = State::susceptible(&net, false);
        state.seed_infection(0, 100.0);
        let end = run(&net, &rates, state, 200.0, 0.1);
        assert!(end.r[0] < 300.0, "final recovered {}", end.r[0]);
        assert!(end.i[0] < 1.0);
    }

    #[test]
    fn seir_delays_the_peak() {
        let net = single_patch(1e5);
        let mut sir = State::susceptible(&net, false);
        sir.seed_infection(0, 10.0);
        let mut seir = State::susceptible(&net, true);
        seir.seed_infection(0, 10.0);
        let rates_sir = Rates {
            beta: 0.5,
            gamma: 0.2,
            sigma: None,
        };
        let rates_seir = Rates {
            beta: 0.5,
            gamma: 0.2,
            sigma: Some(0.3),
        };
        // Track the peak day of I.
        let peak_day = |rates: &Rates, mut st: State, seir_mode: bool| {
            let _ = seir_mode;
            let mut best = (0.0, 0.0);
            let dt = 0.1;
            for step in 0..3_000 {
                st = rk4_step(&net, rates, &st, dt);
                if st.i[0] > best.1 {
                    best = (step as f64 * dt, st.i[0]);
                }
            }
            best.0
        };
        let sir_peak = peak_day(&rates_sir, sir, false);
        let seir_peak = peak_day(&rates_seir, seir, true);
        assert!(
            seir_peak > sir_peak + 5.0,
            "sir peak {sir_peak}, seir peak {seir_peak}"
        );
    }

    #[test]
    fn migration_spreads_infection_to_coupled_patch() {
        let net = two_patches(0.05);
        let rates = Rates {
            beta: 0.5,
            gamma: 0.2,
            sigma: None,
        };
        let mut state = State::susceptible(&net, false);
        state.seed_infection(0, 20.0);
        let end = run(&net, &rates, state, 150.0, 0.1);
        assert!(end.r[1] > 1_000.0, "patch 1 recovered {}", end.r[1]);
    }

    #[test]
    fn no_migration_keeps_uninfected_patch_clean() {
        let net = MobilityNetwork::from_flows(vec![1e4, 1e4], &[], 0.0).unwrap();
        let rates = Rates {
            beta: 0.5,
            gamma: 0.2,
            sigma: None,
        };
        let mut state = State::susceptible(&net, false);
        state.seed_infection(0, 20.0);
        let end = run(&net, &rates, state, 150.0, 0.1);
        assert_eq!(end.i[1], 0.0);
        assert_eq!(end.r[1], 0.0);
        assert!(end.r[0] > 100.0);
    }

    #[test]
    fn seed_clamps_to_population() {
        let net = single_patch(100.0);
        let mut state = State::susceptible(&net, false);
        state.seed_infection(0, 1e9);
        assert_eq!(state.i[0], 100.0);
        assert_eq!(state.s[0], 0.0);
    }
}
