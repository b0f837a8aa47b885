//! Sender-initiated threshold policy (Eager, Lazowska & Zahorjan 1986):
//! a node above its high watermark probes a random neighbour and transfers
//! one task if the probe finds the neighbour below the acceptance
//! threshold.

use pp_sim::balancer::{LoadBalancer, MigrationIntent, NodeView};
use rand::rngs::StdRng;
use rand::Rng;

/// Sender-initiated threshold balancer.
#[derive(Debug, Clone)]
pub struct SenderInitiatedBalancer {
    t_high: f64,
    t_accept: f64,
    probes: usize,
    name: String,
}

impl SenderInitiatedBalancer {
    /// Above `t_high` the node probes up to `probes` random neighbours and
    /// sends one task to the first found below `t_accept`.
    pub fn new(t_high: f64, t_accept: f64, probes: usize) -> Self {
        assert!(probes >= 1, "need at least one probe");
        SenderInitiatedBalancer {
            t_high,
            t_accept,
            probes,
            name: format!("sender-init(H={t_high},A={t_accept},p={probes})"),
        }
    }
}

impl LoadBalancer for SenderInitiatedBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide_into(&self, view: &NodeView<'_>, rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        if view.height <= self.t_high || view.tasks.is_empty() || view.neighbors.is_empty() {
            return;
        }
        for _ in 0..self.probes {
            let k = rng.gen_range(0..view.neighbors.len());
            if view.nbr_heights[k] < self.t_accept {
                let to = view.neighbors[k];
                out.push(MigrationIntent { task: view.tasks[0].id, to, flag: 0.0, heat: 0.0 });
                return;
            }
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
    fn below_watermark_never_sends() {
        let (state, heights) = ring_view_state(&[3.0, 0.0, 0.0, 0.0]);
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
        let b = SenderInitiatedBalancer::new(5.0, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(decide(&b, &view, &mut rng).is_empty());
    }

    #[test]
    fn probe_finds_idle_neighbor() {
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
        let b = SenderInitiatedBalancer::new(5.0, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut sent = 0;
        for _ in 0..20 {
            sent += decide(&b, &view, &mut rng).len();
        }
        assert!(sent > 0);
    }

    #[test]
    fn busy_neighbors_reject_probe() {
        let (state, heights) = ring_view_state(&[9.0, 8.0, 0.0, 8.0]);
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
        let b = SenderInitiatedBalancer::new(5.0, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(0);
        // Neighbours of node 0 (1 and 3) are both at 8 ≥ accept ⇒ no send.
        for _ in 0..20 {
            assert!(decide(&b, &view, &mut rng).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_rejected() {
        let _ = SenderInitiatedBalancer::new(1.0, 1.0, 0);
    }
}
