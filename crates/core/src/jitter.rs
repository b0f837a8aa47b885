//! Annealed parameter jitter (§5.1): *"This stochastic nature can also be
//! considered for some other parameters which are not too much rigid like
//! µ_s and µ_k … it seems quite logical to decrease the stochastic nature
//! of the parameters when time passes."*
//!
//! The jitter multiplies a friction value by `1 + A(t)·u` with
//! `u ~ U(−1, 1)` and amplitude `A(t) = A₀·exp(−c·t/t_max)` — the same
//! annealing shape as the arbiter, so early rounds explore slightly
//! softer/harder friction while late rounds are rigid.

use rand::rngs::StdRng;
use rand::Rng;

/// Annealed multiplicative jitter for `µ_s`/`µ_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrictionJitter {
    /// Initial relative amplitude `A₀ ∈ [0, 1)`.
    pub amplitude: f64,
    /// Decay rate `c > 0`.
    pub c: f64,
    /// Time scale over which the parameters harden.
    pub t_max: f64,
}

impl serde::Serialize for FrictionJitter {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("amplitude".to_string(), self.amplitude.to_value()),
            ("c".to_string(), self.c.to_value()),
            ("t_max".to_string(), self.t_max.to_value()),
        ])
    }
}

impl serde::Deserialize for FrictionJitter {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let jitter = FrictionJitter {
            amplitude: v.field("amplitude")?,
            c: v.field("c")?,
            t_max: v.field("t_max")?,
        };
        jitter.validate()?;
        Ok(jitter)
    }
}

impl FrictionJitter {
    /// Validates the parameter ranges — the single source of truth shared
    /// by [`FrictionJitter::new`], JSON deserialization and
    /// `PhysicsConfig::validate`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.amplitude) {
            return Err(format!("jitter amplitude {} not in [0, 1)", self.amplitude));
        }
        if !self.c.is_finite() || self.c <= 0.0 || !self.t_max.is_finite() || self.t_max <= 0.0 {
            return Err("jitter decay rate and t_max must be finite and positive".into());
        }
        Ok(())
    }

    /// Creates a jitter model.
    ///
    /// # Panics
    /// Panics on `amplitude ∉ [0, 1)`, non-positive `c` or `t_max` (an
    /// amplitude ≥ 1 could drive friction negative).
    pub fn new(amplitude: f64, c: f64, t_max: f64) -> Self {
        assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0, 1)");
        assert!(c > 0.0, "decay rate must be positive");
        assert!(t_max > 0.0, "t_max must be positive");
        FrictionJitter { amplitude, c, t_max }
    }

    /// The amplitude `A(t)` remaining at time `t`.
    pub fn amplitude_at(&self, t: f64) -> f64 {
        self.amplitude * (-self.c * (t.max(0.0) / self.t_max)).exp()
    }

    /// Applies the jitter to a parameter value at time `t`.
    pub fn apply(&self, value: f64, t: f64, rng: &mut StdRng) -> f64 {
        Self::apply_amp(value, self.amplitude_at(t), rng)
    }

    /// Applies the jitter with a precomputed amplitude `a = A(t)`.
    ///
    /// `A(t)` depends only on `t`, so a sweep deciding many tasks at one
    /// time can hoist the `exp` out of the per-task loop and call this —
    /// bitwise-identical to [`FrictionJitter::apply`], including the RNG
    /// draw discipline (no draw when the amplitude is zero).
    #[inline]
    pub fn apply_amp(value: f64, a: f64, rng: &mut StdRng) -> f64 {
        if a <= 0.0 {
            return value;
        }
        let u: f64 = rng.gen_range(-1.0..=1.0);
        value * (1.0 + a * u)
    }

    /// Advances `rng` past `n` calls of [`FrictionJitter::apply_amp`] at
    /// amplitude `a` without computing their values: the same draws in the
    /// same order (none when `a ≤ 0`), so a caller that can prove `n`
    /// jittered values irrelevant keeps its stream bitwise in step.
    #[inline]
    pub fn skip_amp(a: f64, n: usize, rng: &mut StdRng) {
        if a <= 0.0 {
            return;
        }
        for _ in 0..n {
            let _: f64 = rng.gen_range(-1.0..=1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn amplitude_decays_monotonically() {
        let j = FrictionJitter::new(0.5, 3.0, 100.0);
        assert!((j.amplitude_at(0.0) - 0.5).abs() < 1e-12);
        assert!(j.amplitude_at(50.0) < 0.5);
        assert!(j.amplitude_at(200.0) < j.amplitude_at(100.0));
    }

    #[test]
    fn jitter_stays_within_band_and_positive() {
        let j = FrictionJitter::new(0.4, 2.0, 50.0);
        let mut r = rng();
        for _ in 0..2000 {
            let v = j.apply(2.0, 0.0, &mut r);
            assert!((2.0 * 0.6 - 1e-12..=2.0 * 1.4 + 1e-12).contains(&v), "{v}");
            assert!(v > 0.0);
        }
    }

    #[test]
    fn jitter_vanishes_late() {
        let j = FrictionJitter::new(0.4, 5.0, 10.0);
        let mut r = rng();
        let v = j.apply(2.0, 1000.0, &mut r);
        assert!((v - 2.0).abs() < 1e-9, "late jitter should be rigid: {v}");
    }

    #[test]
    fn jitter_is_mean_preserving() {
        let j = FrictionJitter::new(0.5, 1.0, 1e9); // effectively constant A
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| j.apply(1.0, 0.0, &mut r)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn skip_amp_draws_exactly_what_apply_amp_draws() {
        for (a, n) in [(0.0, 5), (-0.1, 3), (0.3, 0), (0.3, 1), (1e-300, 7), (0.99, 4)] {
            let (mut applied, mut skipped) = (rng(), rng());
            for _ in 0..n {
                FrictionJitter::apply_amp(1.5, a, &mut applied);
            }
            FrictionJitter::skip_amp(a, n, &mut skipped);
            assert_eq!(applied.state(), skipped.state(), "a = {a}, n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "amplitude must be in")]
    fn amplitude_one_rejected() {
        let _ = FrictionJitter::new(1.0, 1.0, 1.0);
    }
}
