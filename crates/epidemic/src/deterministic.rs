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
//! SIR is the σ → ∞ special case: infections go straight to I and the E
//! lane stays `+0.0` (`sigma = None`). Integration is classic
//! fixed-step RK4 — plenty for the smooth, stiff-free dynamics here, and
//! dependency-free.
//!
//! [`Rk4`] owns every buffer a run needs, so a step allocates nothing.
//! A patch's compartments are one lane array `[S, E, I, R]`. The
//! migration term walks the network's nonzero rates row by row
//! ([`Edges`]): the origin's derivative is held in a local accumulator,
//! and each edge's flux `m·xᵢ` is computed once, subtracted from it and
//! added to the destination.
//!
//! That order is the textbook double loop's order, so every number is
//! bit-identical to it: the derivative of patch `k` starts from its
//! local terms, gains the inflows of origins `i < k` in ascending `i`,
//! loses its own outflows in ascending destination, then gains the
//! inflows of origins `i > k`. No operation is fused (`mul_add`) or
//! reassociated, and the SIR population `S + I + R + E` adds the E
//! lane's `+0.0` exactly where the textbook form adds a literal `0.0`.

use crate::network::Edges;

/// Lane of the susceptible count in a [`Patch`].
pub(crate) const S: usize = 0;
/// Lane of the exposed count (always `+0.0` in SIR mode).
pub(crate) const E: usize = 1;
/// Lane of the infectious count.
pub(crate) const I: usize = 2;
/// Lane of the recovered count.
pub(crate) const R: usize = 3;

/// One patch's compartments as lanes `[S, E, I, R]`.
pub(crate) type Patch = [f64; 4];

/// Epidemic rate parameters, shared by both engines.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rates {
    /// Transmission rate β (per day).
    pub(crate) beta: f64,
    /// Recovery rate γ (per day).
    pub(crate) gamma: f64,
    /// Incubation rate σ (per day); `None` selects SIR.
    pub(crate) sigma: Option<f64>,
}

/// The all-susceptible state over patch `populations`.
pub(crate) fn susceptible(populations: &[f64]) -> Vec<Patch> {
    populations.iter().map(|&p| [p, 0.0, 0.0, 0.0]).collect()
}

/// Moves `count` people from S to I in `patch` (clamped to available
/// susceptibles).
pub(crate) fn seed_infection(state: &mut [Patch], patch: usize, count: f64) {
    let x = &mut state[patch];
    let c = count.min(x[S]);
    x[S] -= c;
    x[I] += c;
}

/// The RK4 integrator and its workspace, built once per run.
#[derive(Debug, Clone)]
pub(crate) struct Rk4 {
    rates: Rates,
    /// The state at the start of the current step.
    x: Vec<Patch>,
    /// The point the next derivative is evaluated at.
    stage: Vec<Patch>,
    /// The derivative at `stage`.
    k: Vec<Patch>,
    /// The weighted sum of derivatives that becomes the next state.
    next: Vec<Patch>,
}

impl Rk4 {
    /// An integrator starting from `state`.
    pub(crate) fn new(rates: Rates, state: Vec<Patch>) -> Self {
        let zeros = vec![[0.0; 4]; state.len()];
        Self {
            rates,
            stage: zeros.clone(),
            k: zeros.clone(),
            next: zeros,
            x: state,
        }
    }

    /// The current state.
    pub(crate) fn state(&self) -> &[Patch] {
        &self.x
    }

    /// Advances the state by one RK4 step of `dt` days over the
    /// migration `edges`.
    ///
    /// Per element this is `next = x + dt/6·k1`, then `+ dt/3·k2`,
    /// `+ dt/3·k3` and `+ dt/6·k4` in that order, each stage at
    /// `x + dt/2·k1`, `x + dt/2·k2` and `x + dt·k3`, and tiny negative
    /// values from floating-point error are clamped to zero.
    pub(crate) fn step(&mut self, edges: &Edges, dt: f64) {
        let (half, third, sixth) = (dt / 2.0, dt / 3.0, dt / 6.0);
        let Self {
            rates,
            x,
            stage,
            k,
            next,
        } = self;
        derivative(rates, edges, x, k);
        for (((n, s), x), k) in next.iter_mut().zip(stage.iter_mut()).zip(&*x).zip(&*k) {
            *n = lanes(|l| x[l] + sixth * k[l]);
            *s = lanes(|l| x[l] + half * k[l]);
        }
        derivative(rates, edges, stage, k);
        for (((n, s), x), k) in next.iter_mut().zip(stage.iter_mut()).zip(&*x).zip(&*k) {
            *n = lanes(|l| n[l] + third * k[l]);
            *s = lanes(|l| x[l] + half * k[l]);
        }
        derivative(rates, edges, stage, k);
        for (((n, s), x), k) in next.iter_mut().zip(stage.iter_mut()).zip(&*x).zip(&*k) {
            *n = lanes(|l| n[l] + third * k[l]);
            *s = lanes(|l| x[l] + dt * k[l]);
        }
        derivative(rates, edges, stage, k);
        for (n, k) in next.iter_mut().zip(&*k) {
            *n = lanes(|l| {
                let v = n[l] + sixth * k[l];
                if v < 0.0 {
                    0.0
                } else {
                    v
                }
            });
        }
        std::mem::swap(x, next);
    }
}

/// A lane array whose lane `l` is `f(l)`.
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> Patch {
    [f(S), f(E), f(I), f(R)]
}

/// Writes the time derivative of `x` into `out`.
fn derivative(rates: &Rates, edges: &Edges, x: &[Patch], out: &mut [Patch]) {
    for (o, p) in out.iter_mut().zip(x) {
        // Current patch population (conserved by migration, but
        // recomputed for force-of-infection correctness in transients).
        let n_p = p[S] + p[I] + p[R] + p[E];
        let lambda = if n_p > 0.0 {
            rates.beta * p[I] / n_p
        } else {
            0.0
        };
        let infections = lambda * p[S];
        let recoveries = rates.gamma * p[I];
        *o = match rates.sigma {
            Some(sigma) => {
                let incubations = sigma * p[E];
                [
                    -infections,
                    infections - incubations,
                    incubations - recoveries,
                    recoveries,
                ]
            }
            None => [-infections, 0.0, infections - recoveries, recoveries],
        };
    }
    // Migration fluxes.
    for (i, row) in edges.rows().enumerate() {
        let xi = x[i];
        let mut outflow = out[i];
        for &(j, m) in row {
            let flux = lanes(|l| m * xi[l]);
            outflow = lanes(|l| outflow[l] - flux[l]);
            let dest = &mut out[j];
            *dest = lanes(|l| dest[l] + flux[l]);
        }
        out[i] = outflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MobilityNetwork;

    fn single_patch(pop: f64) -> MobilityNetwork {
        MobilityNetwork::from_flows(vec![pop], &[], 0.0).unwrap()
    }

    fn two_patches(leave: f64) -> MobilityNetwork {
        MobilityNetwork::from_flows(vec![10_000.0, 10_000.0], &[(0, 1, 1.0), (1, 0, 1.0)], leave)
            .unwrap()
    }

    fn sir(beta: f64, gamma: f64) -> Rates {
        Rates {
            beta,
            gamma,
            sigma: None,
        }
    }

    /// `net`'s all-susceptible state with `count` infections in patch 0.
    fn seeded(net: &MobilityNetwork, count: f64) -> Vec<Patch> {
        let mut state = susceptible(net.populations());
        seed_infection(&mut state, 0, count);
        state
    }

    fn run(net: &MobilityNetwork, rates: Rates, state: Vec<Patch>, days: f64, dt: f64) -> Rk4 {
        let edges = net.edges(1.0);
        let mut rk4 = Rk4::new(rates, state);
        for _ in 0..(days / dt).round() as usize {
            rk4.step(&edges, dt);
        }
        rk4
    }

    fn total(state: &[Patch]) -> f64 {
        state.iter().flatten().sum()
    }

    #[test]
    fn population_is_conserved() {
        let net = two_patches(0.1);
        let state = seeded(&net, 50.0);
        let before = total(&state);
        let after = total(run(&net, sir(0.5, 0.2), state, 100.0, 0.1).state());
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
        let end = run(&net, sir(0.4, 0.2), seeded(&net, 10.0), 400.0, 0.05);
        let attack = end.state()[0][R] / 1e6;
        assert!((attack - 0.7968).abs() < 0.01, "attack rate {attack}");
    }

    #[test]
    fn below_threshold_epidemic_dies_out() {
        // R0 = 0.5: no outbreak.
        let net = single_patch(1e6);
        let end = run(&net, sir(0.1, 0.2), seeded(&net, 100.0), 200.0, 0.1);
        let [_, _, i, r] = end.state()[0];
        assert!(r < 300.0, "final recovered {r}");
        assert!(i < 1.0);
    }

    #[test]
    fn seir_delays_the_peak() {
        let net = single_patch(1e5);
        let edges = net.edges(1.0);
        let peak_day = |rates: Rates| {
            let mut rk4 = Rk4::new(rates, seeded(&net, 10.0));
            let mut best = (0.0, 0.0);
            let dt = 0.1;
            for step in 0..3_000 {
                rk4.step(&edges, dt);
                let i = rk4.state()[0][I];
                if i > best.1 {
                    best = (step as f64 * dt, i);
                }
            }
            best.0
        };
        let sir_peak = peak_day(sir(0.5, 0.2));
        let seir_peak = peak_day(Rates {
            sigma: Some(0.3),
            ..sir(0.5, 0.2)
        });
        assert!(
            seir_peak > sir_peak + 5.0,
            "sir peak {sir_peak}, seir peak {seir_peak}"
        );
    }

    #[test]
    fn sir_keeps_the_exposed_lane_at_positive_zero() {
        let net = two_patches(0.05);
        let end = run(&net, sir(0.5, 0.2), seeded(&net, 20.0), 50.0, 0.25);
        for patch in end.state() {
            assert_eq!(patch[E].to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn migration_spreads_infection_to_coupled_patch() {
        let net = two_patches(0.05);
        let end = run(&net, sir(0.5, 0.2), seeded(&net, 20.0), 150.0, 0.1);
        assert!(
            end.state()[1][R] > 1_000.0,
            "patch 1 recovered {}",
            end.state()[1][R]
        );
    }

    #[test]
    fn no_migration_keeps_uninfected_patch_clean() {
        let net = MobilityNetwork::from_flows(vec![1e4, 1e4], &[], 0.0).unwrap();
        let end = run(&net, sir(0.5, 0.2), seeded(&net, 20.0), 150.0, 0.1);
        assert_eq!(end.state()[1][I], 0.0);
        assert_eq!(end.state()[1][R], 0.0);
        assert!(end.state()[0][R] > 100.0);
    }

    #[test]
    fn seed_clamps_to_population() {
        let net = single_patch(100.0);
        let state = seeded(&net, 1e9);
        assert_eq!(state[0][I], 100.0);
        assert_eq!(state[0][S], 0.0);
    }
}
