//! Contracting Within a Neighborhood (CWN, Shu & Kale 1989): the workload
//! index is used directly — each node repeatedly hands tasks to its
//! currently least-loaded neighbour while its own load exceeds that
//! neighbour's by more than a threshold.

use pp_sim::balancer::{LoadBalancer, MigrationIntent, NodeView};
use rand::rngs::StdRng;

/// CWN balancer.
#[derive(Debug, Clone)]
pub struct CwnBalancer {
    threshold: f64,
    name: String,
}

impl CwnBalancer {
    /// Transfers happen while `h_i − min_j h_j > threshold`.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be ≥ 0");
        CwnBalancer { threshold, name: format!("cwn(Δ={threshold})") }
    }
}

impl LoadBalancer for CwnBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide_into(&self, view: &NodeView<'_>, _rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        if view.neighbors.is_empty() {
            return;
        }
        let mut h_i = view.height;
        let mut h_eff = view.nbr_heights.to_vec();
        for task in view.tasks {
            // Least-loaded neighbour under the current plan.
            let (idx, &h_min) = h_eff
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                .expect("non-empty");
            if h_i - h_min <= self.threshold {
                break;
            }
            out.push(MigrationIntent {
                task: task.id,
                to: view.neighbors[idx],
                flag: 0.0,
                heat: 0.0,
            });
            h_i -= task.size;
            h_eff[idx] += task.size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::decide_on_ring;
    use pp_topology::graph::NodeId;

    #[test]
    fn contracts_toward_smallest_index() {
        // Node 0 at 6, neighbours 1 (h=0) and 3 (h=4): tasks flow to 1
        // until the plan evens out.
        let intents = decide_on_ring(&[6.0, 0.0, 0.0, 4.0], CwnBalancer::new(1.0));
        assert!(!intents.is_empty());
        // First transfers go to the lightest neighbour (node 1).
        assert_eq!(intents[0].to, NodeId(1));
        // Plan: (6,0) → (5,1) → (4,2) → stop when h_i − min ≤ 1: after two
        // sends h_i = 4, mins are 2 and 4 ⇒ 4−2 = 2 > 1 ⇒ third send;
        // then h_i = 3, h_eff = [3,4] ⇒ 0 ≤ 1 stop.
        assert_eq!(intents.len(), 3);
    }

    #[test]
    fn balanced_system_idle() {
        let intents = decide_on_ring(&[3.0, 3.0, 3.0, 3.0], CwnBalancer::new(1.0));
        assert!(intents.is_empty());
    }

    #[test]
    fn threshold_zero_balances_to_unit_granularity() {
        let intents = decide_on_ring(&[4.0, 2.0, 4.0, 2.0], CwnBalancer::new(0.0));
        // Plan: h_i = 4, neighbours [2, 2] → send (3, [3,2]) → send
        // (2, [3,3]) → stop when h_i ≤ min.
        assert_eq!(intents.len(), 2);
    }

    #[test]
    #[should_panic(expected = "threshold must be")]
    fn negative_threshold_rejected() {
        let _ = CwnBalancer::new(-1.0);
    }
}
