//! Churn differential gate: a run with node churn must be byte-identical
//! across every `(shards, threads)` execution layout — the skip-free K = 1
//! reference, the fast-forwarding K ≥ 2 layouts, including the K = 64
//! one-node-per-shard extreme — and across a checkpoint/resume split that
//! crosses between K = 1 and K ≥ 2. This is the engine-level guarantee
//! the statistical comparison harness leans on: a churn scenario's metrics
//! are a function of `(spec, seed)` alone, never of how the run was laid
//! out or whether it was interrupted.

use pp_sim::prelude::*;
use pp_tasking::workload::Workload;
use pp_topology::graph::Topology;

/// The one-task greedy step: toward the lowest live neighbour, when the
/// node stands more than `threshold` above it.
fn greedy(view: &NodeView<'_>, threshold: f64) -> Option<MigrationIntent> {
    let task = view.tasks.first()?;
    let h = view.nbr_heights;
    let k = (0..h.len()).min_by(|&a, &b| h[a].total_cmp(&h[b]))?;
    let intent = MigrationIntent { task: task.id, to: view.neighbors[k], flag: 0.0, heat: 0.0 };
    (view.height - h[k] > threshold).then_some(intent)
}

/// A quiescence-stable greedy policy (pure, draw-free `decide`), so the
/// K ≥ 2 layouts actually get to skip rounds around the churn events.
struct GreedyStable;
impl LoadBalancer for GreedyStable {
    fn name(&self) -> &str {
        "greedy-stable"
    }
    fn decide_into(
        &self,
        view: &NodeView<'_>,
        _rng: &mut rand::rngs::StdRng,
        out: &mut Vec<MigrationIntent>,
    ) {
        out.extend(greedy(view, 1.0));
    }
    fn quiescence_stable(&self) -> bool {
        true
    }
}

const ROUNDS: u64 = 50;
const SPLIT: u64 = 18;

fn churny(shards: usize, threads: usize) -> Engine {
    EngineBuilder::new(Topology::torus(&[8, 8]))
        .workload(Workload::uniform_random(64, 6.0, 3))
        .balancer(GreedyStable)
        .config(EngineConfig { shards, threads, consume_rate: 0.25, ..Default::default() })
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
fn churn_is_identical_across_layouts_and_resume() {
    let want = finish(churny(1, 1));
    // The plan really fires: down nodes exist mid-run.
    {
        let mut probe = churny(1, 1);
        probe.run_rounds(SPLIT);
        assert!(probe.down_node_count() > 0, "differential run must exercise churn");
    }
    for k in [1usize, 4, 64] {
        for t in [1usize, 4] {
            // Straight run.
            let straight = finish(churny(k, t));
            assert_eq!(straight, want, "K={k} threads={t}");
            // Interrupted run: checkpoint at the split (through the JSON
            // form, so the serialized path is the one under test), resume
            // into a fresh engine on the other side of K = 1 / K ≥ 2,
            // continue to the end.
            let mut writer = churny(k, t);
            writer.run_rounds(SPLIT);
            let cp = Checkpoint::from_json(&writer.checkpoint().to_json()).expect("round trip");
            let (rk, rt) = if k == 1 { (4, t) } else { (1, 1) };
            let mut resumed = churny(rk, rt);
            resumed.restore(&cp).expect("restore");
            resumed.run_rounds(ROUNDS - SPLIT);
            resumed.drain(25.0);
            assert_eq!(resumed.report(), want, "K={k} threads={t} resumed at K={rk} threads={rt}");
        }
    }
}
