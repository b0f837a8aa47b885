//! The stochastic arbiter of §5.2: choose among feasible slopes, giving
//! "most of the chance to the links which are the steepest" with "some rare
//! probabilities for choosing the less steep slopes", and let the choice
//! harden over time so the system anneals toward the deterministic
//! steepest-descent rule ("the rigidity of the correct values increases
//! over time … an evolutionary approach").
//!
//! The archival PDF's formula is typographically corrupted; we implement
//! the semantics its prose specifies (see DESIGN.md §2):
//!
//! * exploration probability `β(t) = β₀·exp(−c·t/t_max)`;
//! * with probability `1−β(t)` take the steepest feasible link `a₁`;
//! * otherwise draw among all feasible links with weights
//!   `w_j = 1 − (a₁−a_j)/(a₁−a_m) + w_floor` — linear in relative
//!   steepness, so the steepest link keeps the largest share even while
//!   exploring, while the floor keeps the least steep link at the "rare
//!   probability" the prose demands (never exactly zero).

use rand::rngs::StdRng;
use rand::Rng;

/// Link-choice policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arbiter {
    /// Always take the steepest feasible slope (the ablation baseline and
    /// the `t → ∞` limit of the stochastic rule).
    Deterministic,
    /// The paper's annealed stochastic chooser.
    Stochastic {
        /// Initial probability `β₀ ∈ (0, 1)` of not taking the steepest
        /// link.
        beta0: f64,
        /// Decay rate `c > 0` of the exploration probability.
        c: f64,
        /// Time scale `t_max` over which the choice hardens.
        t_max: f64,
    },
}

impl Default for Arbiter {
    fn default() -> Self {
        Arbiter::Stochastic { beta0: 0.3, c: 3.0, t_max: 100.0 }
    }
}

impl serde::Serialize for Arbiter {
    fn to_value(&self) -> serde::Value {
        match *self {
            Arbiter::Deterministic => serde::Value::Object(vec![(
                "kind".to_string(),
                serde::Value::Str("deterministic".to_string()),
            )]),
            Arbiter::Stochastic { beta0, c, t_max } => serde::Value::Object(vec![
                ("kind".to_string(), serde::Value::Str("stochastic".to_string())),
                ("beta0".to_string(), beta0.to_value()),
                ("c".to_string(), c.to_value()),
                ("t_max".to_string(), t_max.to_value()),
            ]),
        }
    }
}

impl serde::Deserialize for Arbiter {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let kind: String = v.field("kind")?;
        let arbiter = match kind.as_str() {
            "deterministic" => Arbiter::Deterministic,
            "stochastic" => Arbiter::Stochastic {
                beta0: v.field("beta0")?,
                c: v.field("c")?,
                t_max: v.field("t_max")?,
            },
            other => return Err(format!("unknown arbiter kind `{other}`")),
        };
        arbiter.validate()?;
        Ok(arbiter)
    }
}

/// Weight floor of the exploration draw: the flattest feasible link keeps
/// this relative weight, realising the "rare probabilities for choosing the
/// less steep slopes".
const W_FLOOR: f64 = 0.1;

impl Arbiter {
    /// Validates the annealing parameter ranges — the single source of
    /// truth shared by JSON deserialization and `pp-scenario` spec
    /// validation.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Arbiter::Deterministic => Ok(()),
            Arbiter::Stochastic { beta0, c, t_max } => {
                if !(0.0..1.0).contains(&beta0) {
                    return Err(format!("beta0 {beta0} not in [0, 1)"));
                }
                if !c.is_finite() || c <= 0.0 || !t_max.is_finite() || t_max <= 0.0 {
                    return Err("arbiter decay rate and t_max must be finite and positive".into());
                }
                Ok(())
            }
        }
    }

    /// The exploration probability `β(t)` (0 for the deterministic rule).
    pub fn exploration(&self, t: f64) -> f64 {
        match *self {
            Arbiter::Deterministic => 0.0,
            Arbiter::Stochastic { beta0, c, t_max } => {
                assert!(t_max > 0.0, "t_max must be positive");
                beta0 * (-c * (t.max(0.0) / t_max)).exp()
            }
        }
    }

    /// Chooses one index into `scores` (`(candidate, steepness a_{i,j})`
    /// pairs; all candidates must already satisfy the feasibility
    /// criterion). Returns `None` for an empty candidate set.
    pub fn choose<T: Copy>(&self, scores: &[(T, f64)], t: f64, rng: &mut StdRng) -> Option<T> {
        if scores.is_empty() {
            return None;
        }
        // Index of the steepest candidate.
        let (best_idx, &(best, a1)) =
            scores.iter().enumerate().max_by(|x, y| x.1 .1.total_cmp(&y.1 .1)).expect("non-empty");
        if scores.len() == 1 {
            return Some(best);
        }
        let beta = self.exploration(t);
        if beta <= 0.0 || !rng.gen_bool(beta.min(1.0)) {
            return Some(self.steepest_untied(scores, a1, best, rng));
        }
        // Explore: linear weights in relative steepness.
        let am = scores.iter().map(|&(_, a)| a).fold(f64::INFINITY, f64::min);
        let span = (a1 - am).max(1e-12);
        // Weights are recomputed in the pick loop rather than collected:
        // the same expression folded in the same order, with no allocation.
        let w = |&(_, a): &(T, f64)| 1.0 - (a1 - a) / span + W_FLOOR;
        let total: f64 = scores.iter().map(w).sum();
        let mut pick = rng.gen_range(0.0..total);
        for s in scores {
            let w = w(s);
            if pick < w {
                return Some(s.0);
            }
            pick -= w;
        }
        Some(scores[best_idx].0)
    }

    /// Resolves a "take the steepest" decision. The deterministic arbiter
    /// keeps `max_by`'s fixed tie order (reproducible ablation baseline);
    /// the stochastic arbiter draws uniformly among ties, since on a flat
    /// surface every slope is equally steep and a fixed order would march
    /// all loads down one corridor (physically, symmetry breaking).
    fn steepest_untied<T: Copy>(
        &self,
        scores: &[(T, f64)],
        a1: f64,
        best: T,
        rng: &mut StdRng,
    ) -> T {
        if matches!(self, Arbiter::Deterministic) {
            return best;
        }
        let tol = 1e-12 * a1.abs().max(1.0);
        let tied = scores.iter().filter(|&&(_, a)| a1 - a <= tol).count();
        if tied <= 1 {
            return best;
        }
        let pick = rng.gen_range(0..tied);
        scores.iter().filter(|&&(_, a)| a1 - a <= tol).nth(pick).map(|&(c, _)| c).unwrap_or(best)
    }

    /// Analytic probability of choosing the steepest link at time `t` given
    /// the candidate steepness values — used by experiment `exp6` to plot
    /// the annealing curve without sampling noise.
    pub fn steepest_probability(&self, scores: &[f64], t: f64) -> f64 {
        if scores.len() <= 1 {
            return 1.0;
        }
        let beta = self.exploration(t);
        let a1 = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let am = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let span = (a1 - am).max(1e-12);
        let weights: Vec<f64> = scores.iter().map(|&a| 1.0 - (a1 - a) / span + W_FLOOR).collect();
        let total: f64 = weights.iter().sum();
        // Probability mass of one maximal candidate (the one `max_by`
        // settles on): the exploit path splits its (1−β) share uniformly
        // among tied maxima for the stochastic arbiter (matching
        // `steepest_untied`), and the exploration draw adds that
        // candidate's weight share.
        let tol = 1e-12 * a1.abs().max(1.0);
        let tied = scores.iter().filter(|&&a| a1 - a <= tol).count().max(1);
        let idx =
            scores.iter().enumerate().max_by(|x, y| x.1.total_cmp(y.1)).map(|(i, _)| i).unwrap();
        let exploit_share = if matches!(self, Arbiter::Deterministic) || tied == 1 {
            1.0
        } else {
            1.0 / tied as f64
        };
        (1.0 - beta) * exploit_share + beta * weights[idx] / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn deterministic_always_takes_steepest() {
        let a = Arbiter::Deterministic;
        let scores = [(0u32, 1.0), (1, 5.0), (2, 3.0)];
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(a.choose(&scores, 0.0, &mut r), Some(1));
        }
    }

    #[test]
    fn empty_candidates_give_none() {
        let a = Arbiter::default();
        let mut r = rng();
        assert_eq!(a.choose::<u32>(&[], 0.0, &mut r), None);
    }

    #[test]
    fn single_candidate_always_chosen() {
        let a = Arbiter::default();
        let mut r = rng();
        assert_eq!(a.choose(&[(7u32, 0.1)], 0.0, &mut r), Some(7));
    }

    #[test]
    fn exploration_decays_to_zero() {
        let a = Arbiter::Stochastic { beta0: 0.5, c: 3.0, t_max: 100.0 };
        assert!((a.exploration(0.0) - 0.5).abs() < 1e-12);
        assert!(a.exploration(50.0) < 0.5);
        assert!(a.exploration(1000.0) < 1e-10 + 0.5 * (-30.0f64).exp() * 2.0);
        assert!(a.exploration(100.0) < a.exploration(10.0));
    }

    #[test]
    fn steepest_is_modal_even_early() {
        let a = Arbiter::Stochastic { beta0: 0.5, c: 3.0, t_max: 100.0 };
        let scores = [(0u32, 1.0), (1, 5.0), (2, 3.0)];
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            let pick = a.choose(&scores, 0.0, &mut r).unwrap();
            counts[pick as usize] += 1;
        }
        assert!(counts[1] > counts[2], "{counts:?}");
        assert!(counts[2] > counts[0], "{counts:?}");
        // Less-steep links do get "some rare probabilities".
        assert!(counts[0] > 0, "{counts:?}");
    }

    #[test]
    fn choice_hardens_over_time() {
        let a = Arbiter::Stochastic { beta0: 0.8, c: 4.0, t_max: 50.0 };
        let scores = [(0u32, 1.0), (1, 5.0)];
        let mut r = rng();
        let rate = |t: f64, r: &mut StdRng| {
            let hits = (0..2000).filter(|_| a.choose(&scores, t, r) == Some(1)).count();
            hits as f64 / 2000.0
        };
        let early = rate(0.0, &mut r);
        let late = rate(200.0, &mut r);
        assert!(late > early, "early {early} late {late}");
        assert!(late > 0.99);
    }

    #[test]
    fn steepest_probability_analytic_matches_sampling() {
        let a = Arbiter::Stochastic { beta0: 0.6, c: 2.0, t_max: 100.0 };
        let scores = [(0u32, 2.0), (1, 6.0), (2, 4.0)];
        let plain: Vec<f64> = scores.iter().map(|&(_, s)| s).collect();
        let p = a.steepest_probability(&plain, 10.0);
        let mut r = rng();
        let hits = (0..20_000).filter(|_| a.choose(&scores, 10.0, &mut r) == Some(1)).count();
        let emp = hits as f64 / 20_000.0;
        assert!((p - emp).abs() < 0.02, "analytic {p} empirical {emp}");
    }

    #[test]
    fn tied_maxima_split_uniformly() {
        // On a flat candidate set the stochastic arbiter must not favour any
        // link (the symmetry breaking that spreads in-motion loads).
        let a = Arbiter::Stochastic { beta0: 0.3, c: 3.0, t_max: 100.0 };
        let scores = [(0u32, 2.0), (1, 2.0), (2, 2.0), (3, 2.0)];
        let mut r = rng();
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[a.choose(&scores, 0.0, &mut r).unwrap() as usize] += 1;
        }
        for c in counts {
            assert!((1700..2300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn steepest_probability_analytic_matches_sampling_with_ties() {
        let a = Arbiter::Stochastic { beta0: 0.6, c: 2.0, t_max: 100.0 };
        let scores = [(0u32, 6.0), (1, 6.0), (2, 3.0)];
        let plain: Vec<f64> = scores.iter().map(|&(_, s)| s).collect();
        let p = a.steepest_probability(&plain, 10.0);
        let mut r = rng();
        // `max_by` settles on the last tied maximum, index 1.
        let hits = (0..20_000).filter(|_| a.choose(&scores, 10.0, &mut r) == Some(1)).count();
        let emp = hits as f64 / 20_000.0;
        assert!((p - emp).abs() < 0.02, "analytic {p} empirical {emp}");
    }

    /// `choose` as it was when the explore draw collected its weights into
    /// a `Vec` — the reference the allocation-free draw must match.
    fn choose_with_weight_vec<T: Copy>(
        arb: &Arbiter,
        scores: &[(T, f64)],
        t: f64,
        rng: &mut StdRng,
    ) -> Option<T> {
        if scores.is_empty() {
            return None;
        }
        let (best_idx, &(best, a1)) =
            scores.iter().enumerate().max_by(|x, y| x.1 .1.total_cmp(&y.1 .1)).expect("non-empty");
        if scores.len() == 1 {
            return Some(best);
        }
        let beta = arb.exploration(t);
        if beta <= 0.0 || !rng.gen_bool(beta.min(1.0)) {
            return Some(arb.steepest_untied(scores, a1, best, rng));
        }
        let am = scores.iter().map(|&(_, a)| a).fold(f64::INFINITY, f64::min);
        let span = (a1 - am).max(1e-12);
        let weights: Vec<f64> =
            scores.iter().map(|&(_, a)| 1.0 - (a1 - a) / span + W_FLOOR).collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                return Some(scores[i].0);
            }
            pick -= w;
        }
        Some(scores[best_idx].0)
    }

    #[test]
    fn explore_draw_matches_weight_vec_reference() {
        // Many seeds × random score sets (some drawn from a four-value
        // palette so ties are common), early times so most draws explore:
        // the pick and the RNG stream position must match after every call.
        let arbs = [
            Arbiter::Stochastic { beta0: 0.95, c: 1.0, t_max: 100.0 },
            Arbiter::default(),
            Arbiter::Deterministic,
        ];
        let mut gen = StdRng::seed_from_u64(7);
        let mut explored = 0usize;
        for seed in 0..200u64 {
            let len = gen.gen_range(1..9usize);
            let tied = gen.gen_bool(0.5);
            let scores: Vec<(u32, f64)> = (0..len as u32)
                .map(|i| {
                    let a = if tied {
                        [0.5, 1.0, 2.0, 2.0][gen.gen_range(0..4usize)]
                    } else {
                        gen.gen_range(-3.0..5.0)
                    };
                    (i, a)
                })
                .collect();
            for arb in &arbs {
                let (mut r_new, mut r_old) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for step in 0..50 {
                    let t = step as f64;
                    let got = arb.choose(&scores, t, &mut r_new);
                    let want = choose_with_weight_vec(arb, &scores, t, &mut r_old);
                    assert_eq!(got, want, "seed {seed} step {step} {arb:?} {scores:?}");
                    assert_eq!(r_new.state(), r_old.state(), "stream diverged");
                    explored += (arb.exploration(t) > 0.5 && len > 1) as usize;
                }
            }
        }
        assert!(explored > 1000, "too few explore-heavy draws: {explored}");
    }

    #[test]
    fn steepest_probability_tends_to_one() {
        let a = Arbiter::default();
        let scores = [1.0, 2.0, 3.0];
        let p0 = a.steepest_probability(&scores, 0.0);
        let p_inf = a.steepest_probability(&scores, 1e6);
        assert!(p0 < p_inf);
        assert!((p_inf - 1.0).abs() < 1e-9);
        assert_eq!(a.steepest_probability(&[4.0], 0.0), 1.0);
    }
}
