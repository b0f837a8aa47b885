//! Random-neighbour balancing: the classical stochastic strawman — when a
//! node is heavier than a uniformly chosen neighbour by more than a
//! threshold, it sends that neighbour one task.

use pp_sim::balancer::{LoadBalancer, MigrationIntent, NodeView};
use rand::rngs::StdRng;
use rand::Rng;

/// Random-neighbour balancer.
#[derive(Debug, Clone)]
pub struct RandomNeighborBalancer {
    threshold: f64,
    name: String,
}

impl RandomNeighborBalancer {
    /// Sends one task when the sampled neighbour is lighter by more than
    /// `threshold`.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be ≥ 0");
        RandomNeighborBalancer { threshold, name: format!("random(Δ={threshold})") }
    }
}

impl LoadBalancer for RandomNeighborBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide_into(&self, view: &NodeView<'_>, rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        if view.neighbors.is_empty() || view.tasks.is_empty() {
            return;
        }
        let k = rng.gen_range(0..view.neighbors.len());
        if view.height - view.nbr_heights[k] > self.threshold {
            let to = view.neighbors[k];
            out.push(MigrationIntent { task: view.tasks[0].id, to, flag: 0.0, heat: 0.0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::{decide, ring_view_state};
    use pp_sim::balancer::{build_view, LinkView, ViewScratch};
    use pp_topology::graph::NodeId;
    use rand::SeedableRng;

    #[test]
    fn sends_at_most_one_task() {
        let (state, heights) = ring_view_state(&[9.0, 0.0, 0.0, 0.0]);
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            0,
            0.0,
        );
        let b = RandomNeighborBalancer::new(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let intents = decide(&b, &view, &mut rng);
            assert!(intents.len() <= 1);
            if let Some(i) = intents.first() {
                assert!(i.to == NodeId(1) || i.to == NodeId(3));
            }
        }
    }

    #[test]
    fn balanced_system_idle() {
        let (state, heights) = ring_view_state(&[2.0, 2.0, 2.0, 2.0]);
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            0,
            0.0,
        );
        let b = RandomNeighborBalancer::new(0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert!(decide(&b, &view, &mut rng).is_empty());
        }
    }

    #[test]
    fn deterministic_per_rng_seed() {
        let (state, heights) = ring_view_state(&[9.0, 5.0, 0.0, 5.0]);
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            0,
            0.0,
        );
        let b = RandomNeighborBalancer::new(1.0);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| decide(&b, &view, &mut rng).len()).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }
}
