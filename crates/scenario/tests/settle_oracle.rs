//! End-to-end oracle for the settle step: a run in which every occupied
//! node gets a view and `decide_into` must report exactly what the real
//! run reports.
//!
//! `lab --verify` compares layouts of the same engine, so the settle step
//! runs on both sides of its diff, and no pinned golden uses friction
//! jitter, the case in which a settled node still draws from its stream.
//! Here a wrapper forwards everything to the spec's balancer except
//! `LoadBalancer::settle`, which it leaves at the declining default. Its
//! `RunReport` (CoV series, ledger digest, totals) must equal the real
//! balancer's bit for bit, at `K = 1` and at `K = 16` on the pooled path.

use pp_core::jitter::FrictionJitter;
use pp_core::params::PhysicsConfig;
use pp_scenario::registry::by_name;
use pp_scenario::spec::{BalancerSpec, ScenarioSpec, WorkloadSpec};
use pp_sim::balancer::{
    GlobalView, LoadBalancer, MigratingLoad, MigrationIntent, NodeView, RestingNode,
};
use pp_sim::engine::RunReport;
use pp_topology::spec::TopologySpec;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The spec's balancer, with `settle` forwarded or left at the default,
/// counting the views the engine builds for `decide_into`.
struct Oracle {
    inner: Box<dyn LoadBalancer>,
    settle: bool,
    views: Arc<AtomicU64>,
}

impl LoadBalancer for Oracle {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_round(&mut self, global: &GlobalView<'_>) {
        self.inner.begin_round(global);
    }

    fn settle(&self, node: &RestingNode<'_>, rng: &mut StdRng) -> bool {
        self.settle && self.inner.settle(node, rng)
    }

    fn decide_into(&self, view: &NodeView<'_>, rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        self.views.fetch_add(1, Ordering::Relaxed);
        self.inner.decide_into(view, rng, out);
    }

    fn quiescence_stable(&self) -> bool {
        self.inner.quiescence_stable()
    }

    fn on_arrival(
        &self,
        view: &NodeView<'_>,
        load: &MigratingLoad,
        rng: &mut StdRng,
    ) -> Option<MigrationIntent> {
        self.inner.on_arrival(view, load, rng)
    }

    fn save_state(&self) -> Option<serde::Value> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &serde::Value, nodes: usize) -> Result<(), String> {
        self.inner.load_state(state, nodes)
    }
}

/// Runs `spec` under `(shards, threads)` with the balancer wrapped;
/// returns the report and the views built for `decide_into`.
fn run(spec: &ScenarioSpec, layout: (usize, usize), settle: bool) -> (RunReport, u64) {
    let mut spec = spec.clone();
    spec.checkpoint = None;
    (spec.engine.shards, spec.engine.threads) = layout;
    let views = Arc::new(AtomicU64::new(0));
    let inner = spec.balancer.build(&spec.topology.build());
    let oracle = Oracle { inner, settle, views: Arc::clone(&views) };
    let mut engine = spec.engine_builder().expect("valid spec").balancer(oracle).build();
    spec.finish_engine(&mut engine).expect("no checkpoint files");
    let views = views.load(Ordering::Relaxed);
    (engine.report(), views)
}

/// Asserts the settled run equals the all-views run at `K = 1` and
/// `K = 16`; returns the views built with and without settling at `K = 1`.
fn assert_oracle_agrees(spec: &ScenarioSpec) -> (u64, u64) {
    let mut counts = (0, 0);
    for layout in [(1, 1), (16, 2)] {
        let (real, settled_views) = run(spec, layout, true);
        let (oracle, all_views) = run(spec, layout, false);
        let case = format!("{} at K = {}", spec.name, layout.0);
        assert_eq!(real, oracle, "{case}: settling changed the report");
        assert_eq!(format!("{real:?}"), format!("{oracle:?}"), "{case}: report bits differ");
        assert!(settled_views <= all_views, "{case}: {settled_views} > {all_views} views");
        if layout.0 == 1 {
            counts = (settled_views, all_views);
        }
    }
    counts
}

/// The benchmark's dense-sweep shape: uniform-random loads on a torus
/// under annealed friction jitter, so every node draws every round.
fn jittered_dense_torus(side: usize, rounds: u64) -> ScenarioSpec {
    let mut s = by_name("torus16k-sharded").expect("registered");
    s.name = format!("jittered-dense-torus-{side}");
    s.topology = TopologySpec::Torus { dims: vec![side, side] };
    s.workload = WorkloadSpec::UniformRandom { max_per_node: 8.0, seed: 11 };
    s.balancer = BalancerSpec::ParticlePlane {
        config: PhysicsConfig {
            jitter: Some(FrictionJitter::new(0.3, 1.0, 1e9)),
            ..PhysicsConfig::default()
        },
        arbiter: None,
        name: None,
    };
    s.duration.rounds = rounds;
    s.duration.drain = 5.0;
    s
}

/// The dense torus under a link up/down process that keeps more than half
/// the links down, so jittered nodes with every link down are common: such
/// a node settles without drawing, though its tasks would be inert.
fn flaky_dense_torus(side: usize, rounds: u64) -> ScenarioSpec {
    let mut s = jittered_dense_torus(side, rounds);
    s.name = format!("flaky-dense-torus-{side}");
    s.faults.model = Some((0.4, 0.3));
    s
}

/// The registry specs the oracle covers besides the dense torus.
const REGISTERED: [&str; 4] = ["faulty-torus", "churn-faults", "hetero-speeds", "moving-hotspot"];

#[test]
fn settled_runs_equal_runs_that_build_every_view() {
    let (settled, all) = assert_oracle_agrees(&jittered_dense_torus(12, 40));
    // The settle step must actually fire, or the equality above is vacuous.
    assert!(settled * 4 < all, "dense torus: {settled} of {all} views still built");
    assert_oracle_agrees(&flaky_dense_torus(12, 40));
    for name in REGISTERED {
        let spec = by_name(name).expect("registered").smoke(30, 20.0);
        assert_oracle_agrees(&spec);
    }
}

/// The same oracle over full horizons and larger dense tori, plus the
/// registry specs under friction jitter (release: CI runs it with
/// `--ignored`).
#[test]
#[ignore = "full horizons; run in release with --ignored"]
fn settled_runs_equal_runs_that_build_every_view_full() {
    assert_oracle_agrees(&jittered_dense_torus(48, 300));
    assert_oracle_agrees(&flaky_dense_torus(32, 200));
    for name in REGISTERED {
        let spec = by_name(name).expect("registered");
        assert_oracle_agrees(&spec);
        let mut jittered = spec.clone();
        if let BalancerSpec::ParticlePlane { config, .. } = &mut jittered.balancer {
            config.jitter = Some(FrictionJitter::new(0.3, 1.0, 200.0));
        }
        jittered.name = format!("{name} (jittered)");
        assert_oracle_agrees(&jittered);
    }
}
