//! Property test: the incrementally maintained height cache and imbalance
//! sufficient statistics (`Σh`, `Σh²`) must agree with a from-scratch
//! recompute after *any* interleaving of task adds, removals (migrations),
//! and work consumption; and so must each node's smallest task size, also
//! across `restore_node`.

use pp_metrics::imbalance::Imbalance;
use pp_sim::state::SystemState;
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskId};
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkMap};
use proptest::prelude::*;

const NODES: usize = 6;

fn fresh_state() -> SystemState {
    let topo = Topology::ring(NODES);
    let links = LinkMap::uniform(&topo, LinkAttrs::default());
    SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none())
}

/// From-scratch recompute of every statistic the state maintains
/// incrementally: per-node height = Σ resident task sizes.
fn check_against_scratch(s: &SystemState) -> Result<(), String> {
    for i in 0..NODES {
        let node = s.node(NodeId(i as u32));
        let expect: f64 = node.tasks().iter().map(|t| t.size).sum();
        let cached = s.height_slice()[i];
        if (cached - node.height()).abs() > 1e-9 {
            return Err(format!("cache {cached} != node height {}", node.height()));
        }
        if (cached - expect).abs() > 1e-6 {
            return Err(format!("node {i}: cached {cached} vs recomputed {expect}"));
        }
    }
    let expect = Imbalance::of(s.height_slice());
    if (s.cov() - expect.cov).abs() > 1e-6 * (1.0 + expect.cov) {
        return Err(format!("cov {} vs recomputed {}", s.cov(), expect.cov));
    }
    if (s.mean_height() - expect.mean).abs() > 1e-6 * (1.0 + expect.mean.abs()) {
        return Err(format!("mean {} vs recomputed {}", s.mean_height(), expect.mean));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ops are encoded as (selector, node, size) triples:
    /// selector % 3 == 0 → add a task; 1 → migrate the front task of `node`
    /// to the next node (remove + add, what the engine's launch/arrival
    /// path does); 2 → consume work on `node`.
    #[test]
    fn incremental_stats_match_recompute(
        ops in prop::collection::vec((0u8..3, 0usize..NODES, 0.1f64..4.0), 1..=120),
    ) {
        let mut s = fresh_state();
        let mut next_id = 0u64;
        for (sel, node, size) in ops {
            let v = NodeId(node as u32);
            match sel {
                0 => {
                    s.add_task(v, Task::new(TaskId(next_id), size, v.0));
                    next_id += 1;
                }
                1 => {
                    let front = s.node(v).tasks().first().map(|t| t.id);
                    if let Some(id) = front {
                        let task = s.remove_task(v, id).expect("front task is resident");
                        let dest = NodeId(((node + 1) % NODES) as u32);
                        s.add_task(dest, task);
                    }
                }
                _ => {
                    s.consume_work(v, size);
                }
            }
            // The invariant holds after *every* mutation, not just at the end.
            if let Err(e) = check_against_scratch(&s) {
                prop_assert!(false, "{e}");
            }
        }
    }

    /// Long consume-heavy sequences drive heights to zero and back; the
    /// sufficient statistics must never drift into a negative variance (the
    /// `cov` clamp) or a stale cache.
    #[test]
    fn repeated_fill_and_drain_does_not_drift(
        rounds in 1usize..20,
        size in 0.5f64..3.0,
    ) {
        let mut s = fresh_state();
        let mut id = 0u64;
        for _ in 0..rounds {
            for i in 0..NODES {
                s.add_task(NodeId(i as u32), Task::new(TaskId(id), size, i as u32));
                id += 1;
            }
            for i in 0..NODES {
                s.consume_work(NodeId(i as u32), size * 2.0);
            }
        }
        if let Err(e) = check_against_scratch(&s) {
            prop_assert!(false, "{e}");
        }
        // Everything consumed: flat surface, zero CoV.
        prop_assert!(s.cov().abs() < 1e-9, "cov {}", s.cov());
    }

    /// Ops are `(selector, node, size index, amount)`: selector % 4 == 0 →
    /// add a task of size `SIZES[size index]`; 1 → remove the task at
    /// position `size index` (mod the count), not only the front; 2 →
    /// consume `amount` (completing tasks now and then); 3 → restore the
    /// node with every other of its tasks and its height. The few sizes
    /// make ties at the minimum common, so removing one tied task must
    /// keep the minimum, and removing the last one must raise it.
    #[test]
    fn smallest_task_size_matches_recompute(
        ops in prop::collection::vec((0u8..4, 0usize..NODES, 0usize..8, 0.0f64..3.0), 1..=160),
    ) {
        const SIZES: [f64; 8] = [0.5, 1.0, 1.0, 2.0, 0.25, 1.0, 3.5, 0.5];
        let mut s = fresh_state();
        let mut next_id = 0u64;
        for (sel, node, pick, amount) in ops {
            let v = NodeId(node as u32);
            let tasks = s.node(v).tasks().to_vec();
            match sel {
                0 => {
                    s.add_task(v, Task::new(TaskId(next_id), SIZES[pick], v.0));
                    next_id += 1;
                }
                1 if !tasks.is_empty() => {
                    let id = tasks[pick % tasks.len()].id;
                    s.remove_task(v, id).expect("resident task");
                }
                2 => {
                    s.consume_work(v, amount);
                }
                3 => {
                    let kept: Vec<Task> = tasks.iter().copied().step_by(2).collect();
                    let height = kept.iter().map(|t| t.size).sum();
                    s.restore_node(v, kept, height);
                }
                _ => {}
            }
            for i in 0..NODES {
                let tasks = s.node(NodeId(i as u32)).tasks();
                let expect = tasks.iter().map(|t| t.size).fold(f64::INFINITY, f64::min);
                let got = s.min_task_sizes()[i];
                prop_assert_eq!(got.to_bits(), expect.to_bits(), "node {} of {:?}", i, tasks);
            }
        }
    }
}
