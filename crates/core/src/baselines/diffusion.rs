//! The diffusion method (Cybenko 1989; optimal parameters Xu & Lau 1994).
//!
//! Each node sends `α·(h_i − h_j)` worth of load across every edge to a
//! lighter neighbour, every round. With `α` below the stability bound the
//! scheme provably converges on any connected topology; `α_opt =
//! 2/(λ₂ + λ_max)` maximises the convergence rate. Loads being discrete
//! tasks, the per-edge quota is filled greedily ("discrete diffusion").

use pp_sim::balancer::{LoadBalancer, MigrationIntent, NodeView};
use pp_topology::graph::Topology;
use pp_topology::spectral::{optimal_diffusion_alpha, safe_diffusion_alpha};
use rand::rngs::StdRng;
use std::collections::HashSet;

/// First-order-scheme diffusion balancer.
#[derive(Debug, Clone)]
pub struct DiffusionBalancer {
    alpha: f64,
    name: String,
}

impl DiffusionBalancer {
    /// Diffusion with an explicit parameter `α ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "α must be in (0, 1]");
        DiffusionBalancer { alpha, name: format!("diffusion(α={alpha:.3})") }
    }

    /// Diffusion with the Xu–Lau optimal `α` for `topo`.
    pub fn optimal(topo: &Topology) -> Self {
        let alpha = optimal_diffusion_alpha(topo, 2000).clamp(1e-6, 1.0);
        DiffusionBalancer { alpha, name: format!("diffusion-opt(α={alpha:.3})") }
    }

    /// Diffusion with the always-safe `α = 1/(Δ+1)` (Cybenko).
    pub fn safe(topo: &Topology) -> Self {
        let alpha = safe_diffusion_alpha(topo);
        DiffusionBalancer { alpha, name: format!("diffusion-safe(α={alpha:.3})") }
    }

    /// The diffusion parameter in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl LoadBalancer for DiffusionBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide_into(&self, view: &NodeView<'_>, _rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        let mut used: HashSet<u64> = HashSet::new();
        for (&to, &h_j) in view.neighbors.iter().zip(view.nbr_heights) {
            if view.height <= h_j {
                continue;
            }
            let quota = self.alpha * (view.height - h_j);
            let mut sent = 0.0;
            for task in view.tasks {
                if used.contains(&task.id.0) {
                    continue;
                }
                if sent + task.size <= quota + 1e-9 {
                    used.insert(task.id.0);
                    sent += task.size;
                    out.push(MigrationIntent { task: task.id, to, flag: 0.0, heat: 0.0 });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::{decide_on_ring, ring_view_state};
    use pp_topology::graph::NodeId;

    #[test]
    fn quota_respected_per_edge() {
        // Node 0 at 10, neighbours at 0: α = 0.25 ⇒ quota 2.5 per edge ⇒ 2
        // unit tasks per edge.
        let intents = decide_on_ring(&[10.0, 0.0, 0.0, 0.0], DiffusionBalancer::new(0.25));
        assert_eq!(intents.len(), 4);
        let to1 = intents.iter().filter(|i| i.to == NodeId(1)).count();
        let to3 = intents.iter().filter(|i| i.to == NodeId(3)).count();
        assert_eq!(to1, 2);
        assert_eq!(to3, 2);
    }

    #[test]
    fn no_send_uphill_or_level() {
        let intents = decide_on_ring(&[5.0, 5.0, 9.0, 5.0], DiffusionBalancer::new(0.5));
        assert!(intents.is_empty());
    }

    #[test]
    fn each_task_sent_at_most_once() {
        let intents = decide_on_ring(&[3.0, 0.0, 0.0, 0.0], DiffusionBalancer::new(1.0));
        let mut ids: Vec<u64> = intents.iter().map(|i| i.task.0).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert!(before <= 3);
    }

    #[test]
    fn optimal_and_safe_constructors() {
        let (state, _) = ring_view_state(&[1.0, 0.0, 0.0, 0.0]);
        let opt = DiffusionBalancer::optimal(&state.topo);
        let safe = DiffusionBalancer::safe(&state.topo);
        assert!(opt.alpha() > 0.0 && opt.alpha() <= 1.0);
        assert!((safe.alpha() - 1.0 / 3.0).abs() < 1e-12);
        assert!(opt.name().starts_with("diffusion-opt"));
    }

    #[test]
    #[should_panic(expected = "α must be in")]
    fn zero_alpha_rejected() {
        let _ = DiffusionBalancer::new(0.0);
    }
}
