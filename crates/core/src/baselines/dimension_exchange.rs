//! The dimension exchange method (Cybenko 1989): edges are partitioned into
//! matchings ("dimensions"); in round `r` each node pairs with its partner
//! in class `r mod k` and the heavier of the two sends half the difference.
//! On a hypercube one full sweep of the `d` dimensions balances the system
//! exactly (the §2 result this reproduction re-verifies in its tests).

use pp_sim::balancer::{GlobalView, LoadBalancer, MigrationIntent, NodeView};
use pp_topology::coloring::EdgeColoring;
use pp_topology::graph::{NodeId, Topology};
use rand::rngs::StdRng;
use serde::Value;

/// Dimension-exchange balancer. Holds the edge colouring of the topology it
/// was built for and sweeps the colour classes round-robin.
#[derive(Debug, Clone)]
pub struct DimensionExchangeBalancer {
    /// `partners[class][node]` = the node's matched partner in that class.
    partners: Vec<Vec<Option<NodeId>>>,
    classes: usize,
    current_class: usize,
    name: String,
}

impl DimensionExchangeBalancer {
    /// Builds the balancer for `topo` (computes the edge colouring).
    pub fn new(topo: &Topology) -> Self {
        let coloring = EdgeColoring::new(topo);
        let classes = coloring.color_count().max(1);
        let mut partners = vec![vec![None; topo.node_count()]; classes];
        for (c, class) in coloring.classes().iter().enumerate() {
            for &(u, v) in class {
                partners[c][u.idx()] = Some(v);
                partners[c][v.idx()] = Some(u);
            }
        }
        DimensionExchangeBalancer {
            partners,
            classes,
            current_class: 0,
            name: format!("dimension-exchange({classes} classes)"),
        }
    }

    /// Number of colour classes (one full sweep = this many rounds).
    pub fn class_count(&self) -> usize {
        self.classes
    }
}

impl LoadBalancer for DimensionExchangeBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_round(&mut self, global: &GlobalView<'_>) {
        self.current_class = (global.round as usize).wrapping_sub(1) % self.classes;
    }

    fn decide(&self, view: &NodeView<'_>, _rng: &mut StdRng) -> Vec<MigrationIntent> {
        let Some(partner) = self.partners[self.current_class][view.node.idx()] else {
            return Vec::new();
        };
        // The partner must be a live neighbour this round.
        let Some(k) = view.neighbors.iter().position(|&j| j == partner) else {
            return Vec::new();
        };
        let h_j = view.nbr_heights[k];
        if view.height <= h_j {
            return Vec::new(); // the lighter side stays passive
        }
        let target = (view.height - h_j) / 2.0;
        let mut sent = 0.0;
        let mut intents = Vec::new();
        for task in view.tasks {
            if sent + task.size <= target + 1e-9 {
                sent += task.size;
                intents.push(MigrationIntent { task: task.id, to: partner, flag: 0.0, heat: 0.0 });
            }
        }
        intents
    }

    /// The round-robin cursor is per-round internal state; `begin_round`
    /// rewrites it from the round counter, but a restored policy carries it
    /// so the pre-tick state matches the capture exactly.
    fn save_state(&self) -> Option<Value> {
        Some(Value::Object(vec![(
            "current_class".to_string(),
            Value::UInt(self.current_class as u64),
        )]))
    }

    fn load_state(&mut self, state: &Value, _nodes: usize) -> Result<(), String> {
        let class: u64 = state.field("current_class")?;
        if class as usize >= self.classes {
            return Err(format!("class {class} out of range ({} classes)", self.classes));
        }
        self.current_class = class as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::ring_view_state;
    use pp_sim::balancer::{build_view, LinkView, ViewScratch};
    use rand::SeedableRng;

    #[test]
    fn heavier_side_sends_half_difference() {
        let (state, heights) = ring_view_state(&[8.0, 2.0, 0.0, 0.0]);
        let mut b = DimensionExchangeBalancer::new(&state.topo);
        // Find the round whose class pairs 0 with 1.
        let mut rng = StdRng::seed_from_u64(0);
        let mut matched = false;
        for round in 1..=b.class_count() as u64 {
            let global = GlobalView { topo: &state.topo, heights: &heights, round, time: 0.0 };
            b.begin_round(&global);
            let mut scratch = ViewScratch::new();
            let view = build_view(
                &mut scratch,
                &state,
                NodeId(0),
                &heights,
                &LinkView::all_up(&state, 1.0),
                round,
                0.0,
            );
            let intents = b.decide(&view, &mut rng);
            if intents.iter().any(|i| i.to == NodeId(1)) {
                // (8−2)/2 = 3 units.
                assert_eq!(intents.len(), 3);
                assert!(intents.iter().all(|i| i.to == NodeId(1)));
                matched = true;
            }
        }
        assert!(matched, "no round paired nodes 0 and 1");
    }

    #[test]
    fn class_cursor_rides_checkpoint_state() {
        let (state, heights) = ring_view_state(&[1.0, 1.0, 1.0, 1.0]);
        let mut b = DimensionExchangeBalancer::new(&state.topo);
        let global = GlobalView { topo: &state.topo, heights: &heights, round: 2, time: 0.0 };
        b.begin_round(&global);
        let saved = b.save_state().expect("dimension exchange is stateful");
        let mut fresh = DimensionExchangeBalancer::new(&state.topo);
        fresh.load_state(&saved, 4).expect("well-formed state");
        assert_eq!(fresh.current_class, b.current_class);
        // An out-of-range cursor is rejected, not applied.
        let bad = Value::Object(vec![("current_class".into(), Value::UInt(999))]);
        assert!(fresh.load_state(&bad, 4).is_err());
    }

    #[test]
    fn lighter_side_stays_passive() {
        let (state, heights) = ring_view_state(&[1.0, 9.0, 1.0, 1.0]);
        let mut b = DimensionExchangeBalancer::new(&state.topo);
        let mut rng = StdRng::seed_from_u64(0);
        for round in 1..=b.class_count() as u64 {
            let global = GlobalView { topo: &state.topo, heights: &heights, round, time: 0.0 };
            b.begin_round(&global);
            let mut scratch = ViewScratch::new();
            let view = build_view(
                &mut scratch,
                &state,
                NodeId(0),
                &heights,
                &LinkView::all_up(&state, 1.0),
                round,
                0.0,
            );
            assert!(b.decide(&view, &mut rng).is_empty());
        }
    }

    #[test]
    fn hypercube_uses_dim_classes() {
        let topo = Topology::hypercube(3);
        let b = DimensionExchangeBalancer::new(&topo);
        assert_eq!(b.class_count(), 3);
    }

    #[test]
    fn unmatched_node_idle() {
        // A star's centre is matched in every class, but leaves are matched
        // in only one class each.
        let topo = Topology::star(5);
        let b = DimensionExchangeBalancer::new(&topo);
        let idle_classes: usize =
            (0..b.class_count()).filter(|&c| b.partners[c][1].is_none()).count();
        assert!(idle_classes >= b.class_count() - 1);
    }
}
