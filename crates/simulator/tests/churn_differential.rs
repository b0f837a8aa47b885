//! Churn differential gate: a run with node churn must be byte-identical
//! across the tick strategy, the event strategy, and a checkpoint/resume
//! split — for every `(shards, threads)` execution layout, including the
//! K = 64 one-node-per-shard extreme. This is the engine-level guarantee
//! the statistical comparison harness leans on: a churn scenario's metrics
//! are a function of `(spec, seed)` alone, never of how the run was laid
//! out or whether it was interrupted.

use pp_sim::prelude::*;
use pp_tasking::workload::Workload;
use pp_topology::graph::Topology;

/// A quiescence-stable greedy policy (pure, draw-free `decide`), so the
/// event strategy actually gets to skip rounds around the churn events.
struct GreedyStable;
impl LoadBalancer for GreedyStable {
    fn name(&self) -> &str {
        "greedy-stable"
    }
    fn decide(&self, view: &NodeView<'_>, _rng: &mut rand::rngs::StdRng) -> Vec<MigrationIntent> {
        let Some(task) = view.tasks.first() else { return Vec::new() };
        let h = view.nbr_heights;
        let Some(k) = (0..h.len()).min_by(|&a, &b| h[a].total_cmp(&h[b])) else {
            return Vec::new();
        };
        if view.height - h[k] > 1.0 {
            vec![MigrationIntent { task: task.id, to: view.neighbors[k], flag: 0.0, heat: 0.0 }]
        } else {
            Vec::new()
        }
    }
    fn quiescence_stable(&self) -> bool {
        true
    }
}

const ROUNDS: u64 = 50;
const SPLIT: u64 = 18;

fn churny(strategy: SimulationStrategy, shards: usize, threads: usize) -> Engine {
    EngineBuilder::new(Topology::torus(&[8, 8]))
        .workload(Workload::uniform_random(64, 6.0, 3))
        .balancer(GreedyStable)
        .config(EngineConfig {
            shards,
            threads,
            consume_rate: 0.25,
            strategy,
            ..Default::default()
        })
        .churn(ChurnPlan::markov(64, ROUNDS, 0.03, 0.3, 41))
        .seed(29)
        .build()
}

fn finish(mut e: Engine) -> RunReport {
    e.run_rounds(ROUNDS);
    e.drain(25.0);
    e.report()
}

#[test]
fn churn_is_identical_across_strategies_layouts_and_resume() {
    let want = finish(churny(SimulationStrategy::Tick, 1, 1));
    // The plan really fires: down nodes exist mid-run.
    {
        let mut probe = churny(SimulationStrategy::Tick, 1, 1);
        probe.run_rounds(SPLIT);
        assert!(probe.down_node_count() > 0, "differential run must exercise churn");
    }
    for k in [1usize, 4, 64] {
        for t in [1usize, 4] {
            // Straight tick run.
            let tick = finish(churny(SimulationStrategy::Tick, k, t));
            assert_eq!(tick, want, "tick K={k} threads={t}");
            // Straight event run.
            let event = finish(churny(SimulationStrategy::Event, k, t));
            assert_eq!(event, want, "event K={k} threads={t}");
            // Interrupted run: checkpoint at the split (through the JSON
            // form, so the serialized path is the one under test), resume
            // into a fresh engine, continue to the end.
            let mut writer = churny(SimulationStrategy::Tick, k, t);
            writer.run_rounds(SPLIT);
            let cp = Checkpoint::from_json(&writer.checkpoint().to_json()).expect("round trip");
            let mut resumed = churny(SimulationStrategy::Event, k, t);
            resumed.restore(&cp).expect("restore");
            resumed.run_rounds(ROUNDS - SPLIT);
            resumed.drain(25.0);
            assert_eq!(resumed.report(), want, "resumed K={k} threads={t}");
        }
    }
}
