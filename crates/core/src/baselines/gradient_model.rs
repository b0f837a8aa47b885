//! The Gradient Model (GM, Lin & Keller 1987): a *pressure surface* of
//! proximities — each lightly-loaded node has proximity 0, everyone else
//! holds `1 + min(neighbour proximities)` — and overloaded nodes push one
//! task per round toward the neighbour closest to an underloaded region.
//!
//! The proximity map is refreshed every round from the height snapshot
//! (multi-source BFS), standing in for the per-round neighbour message
//! exchange the original distributed algorithm performs.

use pp_sim::balancer::{GlobalView, LoadBalancer, MigrationIntent, NodeView};
use rand::rngs::StdRng;
use serde::{Deserialize, Value};
use std::collections::VecDeque;

/// GM balancer with static low/high watermarks.
#[derive(Debug, Clone)]
pub struct GradientModelBalancer {
    low: f64,
    high: f64,
    proximity: Vec<u32>,
    name: String,
}

impl GradientModelBalancer {
    /// A node is *lightly loaded* below `low` and *overloaded* above `high`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low <= high, "low watermark must not exceed high");
        GradientModelBalancer {
            low,
            high,
            proximity: Vec::new(),
            name: format!("gradient-model(L={low},H={high})"),
        }
    }

    /// The current proximity (pressure) value of a node; `u32::MAX` when no
    /// lightly-loaded node is reachable.
    pub fn proximity(&self, node: usize) -> u32 {
        self.proximity.get(node).copied().unwrap_or(u32::MAX)
    }
}

impl LoadBalancer for GradientModelBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_round(&mut self, global: &GlobalView<'_>) {
        // Multi-source BFS from all lightly-loaded nodes.
        let n = global.topo.node_count();
        self.proximity = vec![u32::MAX; n];
        let mut q = VecDeque::new();
        for (i, &h) in global.heights.iter().enumerate() {
            if h < self.low {
                self.proximity[i] = 0;
                q.push_back(i);
            }
        }
        while let Some(u) = q.pop_front() {
            let d = self.proximity[u];
            for &v in global.topo.neighbors(pp_topology::graph::NodeId(u as u32)) {
                if self.proximity[v.idx()] == u32::MAX {
                    self.proximity[v.idx()] = d + 1;
                    q.push_back(v.idx());
                }
            }
        }
    }

    fn decide_into(&self, view: &NodeView<'_>, _rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        if view.height <= self.high || view.tasks.is_empty() {
            return;
        }
        let my_prox = self.proximity(view.node.idx());
        if my_prox == 0 {
            return; // already next to (or in) an underloaded region
        }
        // Push one task toward the lowest-proximity neighbour, strictly
        // descending the pressure surface.
        let best = view
            .neighbors
            .iter()
            .map(|&j| (self.proximity(j.idx()), j))
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)));
        let Some((prox, to)) = best else { return };
        if prox < my_prox && prox != u32::MAX {
            out.push(MigrationIntent { task: view.tasks[0].id, to, flag: 0.0, heat: 0.0 });
        }
    }

    /// The propagated pressure map is per-round internal state: it is
    /// rebuilt by the next `begin_round`, but a checkpoint taken between
    /// rounds still carries it so a restored policy answers
    /// [`GradientModelBalancer::proximity`] queries identically before that
    /// rebuild happens.
    fn save_state(&self) -> Option<Value> {
        Some(Value::Object(vec![(
            "proximity".to_string(),
            Value::Array(self.proximity.iter().map(|&p| Value::UInt(u64::from(p))).collect()),
        )]))
    }

    fn load_state(&mut self, state: &Value, nodes: usize) -> Result<(), String> {
        let proximity = Vec::<u32>::from_value(
            state.get("proximity").ok_or("gradient-model state missing `proximity`")?,
        )?;
        // A truncated or spliced array is rejected against the engine's
        // node count instead of silently answering `u32::MAX` for the
        // missing tail. Empty is the legitimate pre-first-round state.
        if !proximity.is_empty() && proximity.len() != nodes {
            return Err(format!(
                "gradient-model pressure map has {} entries for {nodes} nodes",
                proximity.len()
            ));
        }
        self.proximity = proximity;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::{decide, ring_view_state};
    use pp_sim::balancer::{build_view, LinkView, ViewScratch};
    use pp_topology::graph::NodeId;
    use rand::SeedableRng;

    fn prepared(loads: &[f64], low: f64, high: f64) -> (GradientModelBalancer, Vec<f64>) {
        let (state, heights) = ring_view_state(loads);
        let mut b = GradientModelBalancer::new(low, high);
        let global = GlobalView { topo: &state.topo, heights: &heights, round: 1, time: 0.0 };
        b.begin_round(&global);
        (b, heights)
    }

    #[test]
    fn proximity_map_is_bfs_distance() {
        // Ring of 6: only node 3 is light (h < 1).
        let (b, _) = prepared(&[5.0, 5.0, 5.0, 0.0, 5.0, 5.0], 1.0, 4.0);
        assert_eq!(b.proximity(3), 0);
        assert_eq!(b.proximity(2), 1);
        assert_eq!(b.proximity(4), 1);
        assert_eq!(b.proximity(0), 3);
    }

    #[test]
    fn overloaded_node_pushes_toward_pressure_gradient() {
        let loads = [9.0, 5.0, 5.0, 0.0, 5.0, 5.0];
        let (state, heights) = ring_view_state(&loads);
        let mut b = GradientModelBalancer::new(1.0, 4.0);
        let global = GlobalView { topo: &state.topo, heights: &heights, round: 1, time: 0.0 };
        b.begin_round(&global);
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            1,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let intents = decide(&b, &view, &mut rng);
        assert_eq!(intents.len(), 1);
        // Node 0's neighbours are 1 (prox 2) and 5 (prox 2): tie broken by
        // id ⇒ node 1.
        assert_eq!(intents[0].to, NodeId(1));
    }

    #[test]
    fn below_high_watermark_stays_quiet() {
        let (state, heights) = ring_view_state(&[3.0, 3.0, 3.0, 0.0, 3.0, 3.0]);
        let mut b = GradientModelBalancer::new(1.0, 4.0);
        let global = GlobalView { topo: &state.topo, heights: &heights, round: 1, time: 0.0 };
        b.begin_round(&global);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..6 {
            let mut scratch = ViewScratch::new();
            let view = build_view(
                &mut scratch,
                &state,
                NodeId(i),
                &heights,
                &LinkView::all_up(&state, 1.0),
                1,
                0.0,
            );
            assert!(decide(&b, &view, &mut rng).is_empty());
        }
    }

    #[test]
    fn no_light_node_means_no_pressure() {
        let (b, _) = prepared(&[5.0, 5.0, 5.0, 5.0], 1.0, 4.0);
        assert_eq!(b.proximity(0), u32::MAX);
        let (state, heights) = ring_view_state(&[5.0, 5.0, 5.0, 5.0]);
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            1,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(0);
        assert!(decide(&b, &view, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "low watermark")]
    fn inverted_watermarks_rejected() {
        let _ = GradientModelBalancer::new(5.0, 1.0);
    }

    #[test]
    fn pressure_map_rides_checkpoint_state() {
        let (b, _) = prepared(&[5.0, 5.0, 5.0, 0.0, 5.0, 5.0], 1.0, 4.0);
        let state = b.save_state().expect("gradient model is stateful");
        let mut fresh = GradientModelBalancer::new(1.0, 4.0);
        assert_eq!(fresh.proximity(2), u32::MAX, "fresh policy knows nothing");
        fresh.load_state(&state, 6).expect("well-formed state");
        for node in 0..6 {
            assert_eq!(fresh.proximity(node), b.proximity(node));
        }
        // Malformed state errors instead of panicking.
        assert!(fresh.load_state(&Value::Object(vec![]), 6).is_err());
        assert!(fresh
            .load_state(&Value::Object(vec![("proximity".into(), Value::Bool(true))]), 6)
            .is_err());
        // A truncated pressure map is rejected against the node count, not
        // padded with u32::MAX; the empty pre-first-round map is fine.
        let truncated =
            Value::Object(vec![("proximity".into(), Value::Array(vec![Value::UInt(0); 3]))]);
        assert!(fresh.load_state(&truncated, 6).unwrap_err().contains("6 nodes"));
        let empty = Value::Object(vec![("proximity".into(), Value::Array(vec![]))]);
        assert!(fresh.load_state(&empty, 6).is_ok());
    }
}
