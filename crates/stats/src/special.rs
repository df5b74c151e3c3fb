//! Special functions: ln-gamma and the regularised incomplete beta.
//!
//! Implemented from scratch (DESIGN.md §5): Lanczos approximation for
//! ln-gamma and Lentz continued fractions for the incomplete beta.
//! Accuracy targets: ~1e-12 relative for
//! ln-gamma, ~1e-10 absolute for the incomplete beta over the t-test
//! parameter range, which is far tighter than anything the paper's
//! p-values need.

/// Natural log of the gamma function for `x > 0`.
///
/// Lanczos approximation with g = 7, n = 9 coefficients (Boost/Numerical
/// Recipes parameterisation); relative error below 1e-13 for `x > 0`.
///
/// Returns `f64::INFINITY` for `x <= 0` at the poles (non-positive
/// integers) and uses the reflection formula elsewhere on the negative
/// axis.
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Poles at the non-positive integers.
        if x <= 0.0 && x == x.floor() {
            return f64::INFINITY;
        }
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let s = (std::f64::consts::PI * x).sin();
        if s == 0.0 {
            return f64::INFINITY;
        }
        return std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The beta function `B(a, b) = Γ(a)Γ(b)/Γ(a+b)` for `a, b > 0`.
pub fn beta(a: f64, b: f64) -> f64 {
    (ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)).exp()
}

/// Regularised incomplete beta function `I_x(a, b)` for `a, b > 0`,
/// `x ∈ [0, 1]`.
///
/// Continued-fraction evaluation (modified Lentz), using the symmetry
/// `I_x(a,b) = 1 − I_{1−x}(b,a)` to stay in the rapidly-converging region.
/// NaN inputs propagate as NaN.
pub(crate) fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x.is_nan() || a.is_nan() || b.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    // Prefactor x^a (1-x)^b / (a B(a,b)) in log space for stability.
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_gamma(a) - ln_gamma(b) + ln_gamma(a + b);
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() / a) * beta_cf(a, b, x)
    } else {
        1.0 - (ln_front.exp() / b) * beta_cf(b, a, 1.0 - x)
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes `betacf`).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64, label: &str) {
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "{label}: got {got}, want {want}"
        );
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        let factorials = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (i, &f) in factorials.iter().enumerate() {
            let n = (i + 1) as f64;
            assert_close(ln_gamma(n), f64::ln(f), 1e-12, &format!("ln_gamma({n})"));
        }
    }

    #[test]
    fn ln_gamma_half_integers() {
        // Γ(1/2) = √π, Γ(3/2) = √π/2, Γ(5/2) = 3√π/4
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert_close(ln_gamma(0.5), sqrt_pi.ln(), 1e-12, "ln_gamma(0.5)");
        assert_close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12, "ln_gamma(1.5)");
        assert_close(
            ln_gamma(2.5),
            (3.0 * sqrt_pi / 4.0).ln(),
            1e-12,
            "ln_gamma(2.5)",
        );
    }

    #[test]
    fn ln_gamma_large_argument_stirling_regime() {
        // Reference value from SciPy: gammaln(100) = 359.1342053695754
        assert_close(
            ln_gamma(100.0),
            359.134_205_369_575_4,
            1e-12,
            "ln_gamma(100)",
        );
        // gammaln(1000) = 5905.220423209181
        assert_close(
            ln_gamma(1000.0),
            5_905.220_423_209_181,
            1e-12,
            "ln_gamma(1000)",
        );
    }

    #[test]
    fn ln_gamma_reflection_negative_axis() {
        // Γ(-0.5) = -2√π → ln|Γ(-0.5)| = ln(2√π)
        let want = (2.0 * std::f64::consts::PI.sqrt()).ln();
        assert_close(ln_gamma(-0.5), want, 1e-10, "ln_gamma(-0.5)");
    }

    #[test]
    fn ln_gamma_poles_are_infinite() {
        assert!(ln_gamma(0.0).is_infinite());
        assert!(ln_gamma(-1.0).is_infinite());
        assert!(ln_gamma(-2.0).is_infinite());
    }

    #[test]
    fn beta_function_known_values() {
        // B(1,1) = 1, B(2,3) = 1/12, B(0.5,0.5) = π
        assert_close(beta(1.0, 1.0), 1.0, 1e-12, "B(1,1)");
        assert_close(beta(2.0, 3.0), 1.0 / 12.0, 1e-12, "B(2,3)");
        assert_close(beta(0.5, 0.5), std::f64::consts::PI, 1e-12, "B(.5,.5)");
    }

    #[test]
    fn inc_beta_boundaries() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        assert_eq!(inc_beta(2.0, 3.0, -0.1), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.1), 1.0);
    }

    #[test]
    fn inc_beta_uniform_case_is_identity() {
        // I_x(1,1) = x
        for x in [0.1, 0.25, 0.5, 0.75, 0.9] {
            assert_close(inc_beta(1.0, 1.0, x), x, 1e-12, &format!("I_{x}(1,1)"));
        }
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for (a, b, x) in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.2), (10.0, 3.0, 0.77)] {
            let lhs = inc_beta(a, b, x);
            let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
            assert_close(lhs, rhs, 1e-12, &format!("symmetry a={a} b={b} x={x}"));
        }
    }

    #[test]
    fn inc_beta_reference_values() {
        // SciPy: betainc(2, 3, 0.4) = 0.5248
        assert_close(inc_beta(2.0, 3.0, 0.4), 0.5248, 1e-10, "I_.4(2,3)");
        // betainc(0.5, 0.5, 0.5) = 0.5 (arcsine distribution median)
        assert_close(inc_beta(0.5, 0.5, 0.5), 0.5, 1e-12, "I_.5(.5,.5)");
        // betainc(5, 5, 0.5) = 0.5 by symmetry
        assert_close(inc_beta(5.0, 5.0, 0.5), 0.5, 1e-12, "I_.5(5,5)");
    }

    #[test]
    fn inc_beta_nan_propagates() {
        assert!(inc_beta(2.0, 3.0, f64::NAN).is_nan());
        assert!(inc_beta(f64::NAN, 3.0, 0.5).is_nan());
    }

    mod properties {
        use super::super::*;
        use crate::rng::SplitMix64;

        const CASES: u64 = 256;

        #[test]
        fn ln_gamma_satisfies_recurrence() {
            for seed in 0..CASES {
                let x = SplitMix64::new(seed).range_f64(0.1, 50.0);
                // Γ(x+1) = x·Γ(x) ⇒ lnΓ(x+1) = lnΓ(x) + ln x
                let lhs = ln_gamma(x + 1.0);
                let rhs = ln_gamma(x) + x.ln();
                assert!(
                    (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
                    "seed {seed}, x={x}: {lhs} vs {rhs}"
                );
            }
        }

        #[test]
        fn inc_beta_in_unit_interval_and_monotone() {
            for seed in 0..CASES {
                let mut rng = SplitMix64::new(seed);
                let a = rng.range_f64(0.1, 20.0);
                let b = rng.range_f64(0.1, 20.0);
                let x = rng.next_f64();
                let dx = rng.range_f64(0.0, 0.5);
                let v = inc_beta(a, b, x);
                assert!(
                    (0.0..=1.0).contains(&v),
                    "seed {seed}: I_{x}({a},{b}) = {v}"
                );
                let v2 = inc_beta(a, b, (x + dx).min(1.0));
                assert!(v2 >= v - 1e-12, "seed {seed}: not monotone: {v2} < {v}");
            }
        }

        #[test]
        fn inc_beta_symmetry_property() {
            for seed in 0..CASES {
                let mut rng = SplitMix64::new(seed);
                let a = rng.range_f64(0.1, 20.0);
                let b = rng.range_f64(0.1, 20.0);
                let x = rng.range_f64(0.001, 0.999);
                let lhs = inc_beta(a, b, x);
                let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
                assert!((lhs - rhs).abs() < 1e-10, "seed {seed}: {lhs} vs {rhs}");
            }
        }
    }
}
