//! Feasibility rules (§5.1): when may a load leave its node, and where may
//! a load in motion still climb?
//!
//! * **Stationary** (Eq. 1 transplanted): task `k` may move from `i` to `j`
//!   iff `tan β = (h_i − h_j − 2l)/e_{i,j} > µ_s(k, i)`.
//! * **In motion** (the energy model): the load may hop to `j` iff
//!   `h*_{t−1} − c₀·µ_k·e_{i,j} > h(v_j)` — the paper points out this is
//!   Theorem 1 with the contour chosen as the nodes one link away
//!   (`r_{c,p} = e_{i,j}`).
//!
//! Both return the per-candidate steepness scores `a_{i,j}` that feed the
//! stochastic arbiter of §5.2.

use crate::energy::{flag_decrement, updated_flag};
use crate::params::PhysicsConfig;

/// A candidate destination: `(index into the neighbour slices, steepness)`.
pub type Candidate = (usize, f64);

/// Stationary candidates for a task of size `load` with static friction
/// `mu_s` on a node of height `h_i`, written into `out` (cleared first).
/// Neighbour `idx` sits at height `h_j[idx]` over a link of weight
/// `e_ij[idx]` (the view's structure-of-arrays slices, already restricted
/// to live links). The `self_correction` branch is hoisted out of the loop,
/// but each score keeps the operation order of
/// [`gradient`](crate::params::gradient), so it is bitwise the paper's
/// `tan β`.
pub fn stationary_candidates_soa_into(
    cfg: &PhysicsConfig,
    load: f64,
    mu_s: f64,
    h_i: f64,
    h_j: &[f64],
    e_ij: &[f64],
    out: &mut Vec<Candidate>,
) {
    debug_assert_eq!(h_j.len(), e_ij.len());
    let correction = if cfg.self_correction { 2.0 * load } else { 0.0 };
    out.clear();
    out.extend(h_j.iter().zip(e_ij).enumerate().filter_map(|(idx, (&h, &e))| {
        debug_assert!(e > 0.0, "link weights are validated positive");
        let a = (h_i - h - correction) / e;
        (a > mu_s).then_some((idx, a))
    }));
}

/// In-motion candidates for a load carrying potential-height `flag` with
/// kinetic friction `mu_k`, over the same slices as
/// [`stationary_candidates_soa_into`]. The steepness is the headroom
/// `a_{i,j} = h*_{t−1} − c₀·µ_k·e_{i,j} − h(v_j)` (§5.2's in-motion `a`),
/// and a candidate is feasible iff it is positive.
pub fn motion_candidates_soa_into(
    cfg: &PhysicsConfig,
    flag: f64,
    mu_k: f64,
    h_j: &[f64],
    e_ij: &[f64],
    out: &mut Vec<Candidate>,
) {
    debug_assert_eq!(h_j.len(), e_ij.len());
    out.clear();
    out.extend(h_j.iter().zip(e_ij).enumerate().filter_map(|(idx, (&h, &e))| {
        let a = updated_flag(cfg, flag, mu_k, e) - h;
        (a > 0.0).then_some((idx, a))
    }));
}

/// The minimum height difference below which no transfer can start, given
/// `µ_s`, link weight and load size: `h_i − h_j` must exceed
/// `µ_s·e + 2l`. Used by experiment `exp2` to draw the movement frontier.
pub fn movement_threshold(cfg: &PhysicsConfig, mu_s: f64, e_ij: f64, load: f64) -> f64 {
    mu_s * e_ij + if cfg.self_correction { 2.0 * load } else { 0.0 }
}

/// Maximum number of hops a load can take before its flag falls to the
/// floor height `h_floor`, on links of weight ≥ `e_min` — the discrete
/// Corollary 3 (`r ≤ h*/µ_k`).
pub fn max_hops_bound(cfg: &PhysicsConfig, flag0: f64, h_floor: f64, mu_k: f64, e_min: f64) -> u32 {
    let per_hop = flag_decrement(cfg, mu_k, e_min);
    if per_hop <= 0.0 {
        return u32::MAX;
    }
    (((flag0 - h_floor) / per_hop).max(0.0)).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::gradient;

    fn cfg() -> PhysicsConfig {
        PhysicsConfig::default()
    }

    /// Runs the stationary kernel over `(h_j, e_ij)` pairs.
    fn stationary(
        c: &PhysicsConfig,
        load: f64,
        mu_s: f64,
        h_i: f64,
        n: &[(f64, f64)],
    ) -> Vec<Candidate> {
        let (h, e): (Vec<f64>, Vec<f64>) = n.iter().copied().unzip();
        let mut out = Vec::new();
        stationary_candidates_soa_into(c, load, mu_s, h_i, &h, &e, &mut out);
        out
    }

    /// Runs the in-motion kernel over `(h_j, e_ij)` pairs.
    fn motion(c: &PhysicsConfig, flag: f64, mu_k: f64, n: &[(f64, f64)]) -> Vec<Candidate> {
        let (h, e): (Vec<f64>, Vec<f64>) = n.iter().copied().unzip();
        let mut out = Vec::new();
        motion_candidates_soa_into(c, flag, mu_k, &h, &e, &mut out);
        out
    }

    #[test]
    fn stationary_strictness() {
        let c = cfg();
        // h_i = 10, neighbour at 0, e = 1, l = 1 ⇒ a = 8. µ_s = 8 blocks.
        let n = [(0.0, 1.0)];
        assert!(stationary(&c, 1.0, 8.0, 10.0, &n).is_empty());
        let got = stationary(&c, 1.0, 7.9, 10.0, &n);
        assert_eq!(got.len(), 1);
        assert!((got[0].1 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_filters_uphill_neighbors() {
        let c = cfg();
        let n = [(20.0, 1.0), (0.0, 1.0), (9.0, 1.0)];
        let got = stationary(&c, 1.0, 0.5, 10.0, &n);
        // Only the height-0 neighbour: (10−0−2)/1 = 8 > 0.5.
        // The 9.0 neighbour gives (10−9−2)/1 = −1.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 1);
    }

    #[test]
    fn heavier_links_flatten_gradients() {
        let c = cfg();
        let cheap = stationary(&c, 1.0, 1.0, 10.0, &[(0.0, 1.0)]);
        let costly = stationary(&c, 1.0, 1.0, 10.0, &[(0.0, 8.0)]);
        assert_eq!(cheap.len(), 1);
        assert!(costly.is_empty(), "(10−0−2)/8 = 1 is not > µ_s = 1");
    }

    #[test]
    fn motion_requires_positive_headroom() {
        let c = cfg();
        // flag 5, µ_k = 1, e = 1 ⇒ flag' = 4: can enter nodes below 4.
        let n = [(3.9, 1.0), (4.0, 1.0), (10.0, 1.0)];
        let got = motion(&c, 5.0, 1.0, &n);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
        assert!((got[0].1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn motion_prefers_lowest_destination() {
        let c = cfg();
        let n = [(2.0, 1.0), (0.0, 1.0)];
        let got = motion(&c, 5.0, 0.5, &n);
        assert_eq!(got.len(), 2);
        // Headroom toward the lower node is larger.
        let s: Vec<f64> = got.iter().map(|&(_, a)| a).collect();
        assert!(s[1] > s[0]);
    }

    #[test]
    fn soa_kernel_scores_are_bitwise_the_scalar_formulas() {
        // Awkward magnitudes on purpose: any re-association in the kernels
        // would show up as a last-ulp difference from `gradient` and
        // `updated_flag`, the scalar references.
        for self_correction in [true, false] {
            let c = PhysicsConfig { self_correction, ..cfg() };
            let pairs: Vec<(f64, f64)> = (0..17)
                .map(|k| {
                    let k = k as f64;
                    (10.0 + (k * 0.7).sin() * 9.3 + k * 1e-13, 0.3 + (k * 1.3).cos().abs() * 2.0)
                })
                .collect();
            for (load, mu, h_i, flag) in
                [(1.0, 0.5, 14.2, 15.0), (0.37, 3.1, 11.0 + 1e-12, 9.5), (5.0, 0.01, 25.0, 30.0)]
            {
                let bits = |v: Vec<Candidate>| {
                    v.into_iter().map(|(i, s)| (i, s.to_bits())).collect::<Vec<_>>()
                };
                let want: Vec<Candidate> = pairs
                    .iter()
                    .map(|&(h, e)| gradient(&c, h_i, h, load, e))
                    .enumerate()
                    .filter(|&(_, a)| a > mu)
                    .collect();
                assert_eq!(
                    bits(stationary(&c, load, mu, h_i, &pairs)),
                    bits(want),
                    "sc={self_correction}"
                );
                let want: Vec<Candidate> = pairs
                    .iter()
                    .map(|&(h, e)| updated_flag(&c, flag, mu, e) - h)
                    .enumerate()
                    .filter(|&(_, a)| a > 0.0)
                    .collect();
                assert_eq!(
                    bits(motion(&c, flag, mu, &pairs)),
                    bits(want),
                    "motion sc={self_correction}"
                );
            }
        }
    }

    #[test]
    fn threshold_combines_friction_and_correction() {
        let c = cfg();
        assert_eq!(movement_threshold(&c, 2.0, 1.5, 1.0), 5.0); // 3 + 2
        let nc = PhysicsConfig { self_correction: false, ..c };
        assert_eq!(movement_threshold(&nc, 2.0, 1.5, 1.0), 3.0);
    }

    #[test]
    fn hop_bound_matches_corollary3() {
        let c = cfg();
        // flag 10 above a floor of 0, per-hop cost 0.5 ⇒ 20 hops.
        assert_eq!(max_hops_bound(&c, 10.0, 0.0, 0.5, 1.0), 20);
        assert_eq!(max_hops_bound(&c, 10.0, 9.0, 0.5, 1.0), 2);
        assert_eq!(max_hops_bound(&c, 0.0, 5.0, 0.5, 1.0), 0);
    }
}
