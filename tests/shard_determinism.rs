//! The sharded tick pipeline's correctness contract: for the same seed,
//! every `(shards, threads)` layout — including `K = 1`, the sequential
//! reference — produces **byte-identical** `RunReport`s (`PartialEq` over
//! every recorded artifact: the CoV series, the full migration ledger,
//! totals), with the paper's particle-plane balancer, under the full event
//! mix: link-fault processes, Poisson arrivals, work consumption,
//! heterogeneous speeds and recorded-trace replay.
//!
//! The quiescence-stable skip is active in these runs (the default
//! particle-plane configuration has no jitter), so this also proves that
//! skipping clean shards is unobservable; a jittered variant exercises the
//! skip-disabled path.

use particle_plane::prelude::*;
use pp_scenario::differential::{self, Matrix};
use pp_tasking::workload::{record_trace, ArrivalProcess};

/// Layouts to pit against the sequential reference: pure decomposition,
/// decomposition + pool threads, and a shard count above the node count
/// (clamping).
const LAYOUTS: &[(usize, usize)] = &[(2, 1), (7, 1), (16, 2), (64, 3), (4096, 2)];

fn run(
    mut spec_engine: EngineConfig,
    shards: usize,
    threads: usize,
    build: &dyn Fn() -> EngineBuilder,
) -> RunReport {
    spec_engine.shards = shards;
    spec_engine.threads = threads;
    let mut e = build().config(spec_engine).build();
    e.run_rounds(60);
    e.drain(40.0);
    e.report()
}

fn assert_layout_invariant(config: EngineConfig, build: impl Fn() -> EngineBuilder) {
    let reference = run(config, 1, 1, &build);
    for &(k, t) in LAYOUTS {
        let report = run(config, k, t, &build);
        assert_eq!(reference, report, "K={k} threads={t} diverged from sequential");
    }
}

#[test]
fn quiescent_redistribution_identical_across_layouts() {
    let build = || {
        EngineBuilder::new(Topology::torus(&[8, 8]))
            .workload(Workload::uniform_random(64, 10.0, 11))
            .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
            .seed(9)
    };
    assert_layout_invariant(EngineConfig::default(), build);
}

#[test]
fn faults_and_poisson_arrivals_identical_across_layouts() {
    let config = EngineConfig {
        consume_rate: 0.25,
        fault_model: Some(FaultModel { p_down: 0.04, p_up: 0.5 }),
        arrival: ArrivalProcess::Poisson { rate: 3.0, size_min: 0.5, size_max: 1.5 },
        ..Default::default()
    };
    let build = || {
        EngineBuilder::new(Topology::torus(&[8, 8]))
            .workload(Workload::uniform_random(64, 6.0, 3))
            .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
            .seed(17)
    };
    assert_layout_invariant(config, build);
}

#[test]
fn trace_replay_with_speeds_identical_across_layouts() {
    let trace = record_trace(
        &ArrivalProcess::MovingHotspot { rate: 4.0, size: 1.0, dwell: 8.0, stride: 11 },
        64,
        50.0,
        23,
    );
    let config = EngineConfig { consume_rate: 0.15, ..Default::default() };
    let build = move || {
        let speeds: Vec<f64> = (0..64).map(|i| if i % 3 == 0 { 2.0 } else { 0.8 }).collect();
        EngineBuilder::new(Topology::torus(&[8, 8]))
            .workload(Workload::hotspot(64, 5, 40.0))
            .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
            .node_speeds(speeds)
            .arrival_trace(trace.clone())
            .seed(31)
    };
    assert_layout_invariant(config, build);
}

#[test]
fn jittered_balancer_disables_skip_but_stays_identical() {
    // Friction jitter draws per task per round, so the balancer reports
    // quiescence_stable = false and no shard is ever skipped — layouts
    // must still be outcome-identical (same per-node RNG streams).
    let cfg = PhysicsConfig {
        jitter: Some(pp_core::jitter::FrictionJitter::new(0.4, 2.0, 200.0)),
        ..Default::default()
    };
    let build = move || {
        EngineBuilder::new(Topology::torus(&[8, 8]))
            .workload(Workload::uniform_random(64, 8.0, 5))
            .balancer(ParticlePlaneBalancer::new(cfg))
            .seed(13)
    };
    assert_layout_invariant(EngineConfig::default(), build);
}

#[test]
fn sharded_scenario_specs_match_their_sequential_twin() {
    // The same invariant through the declarative layer: a registry spec
    // with explicit shards, re-run with shards pinned to 1.
    let spec = by_name("torus16k-sharded").expect("registered").smoke(4, 10.0);
    assert!(spec.engine.shards >= 2, "scenario should request sharding");
    let own =
        Matrix { layouts: vec![(spec.engine.shards, spec.engine.threads)], splits: vec![None] };
    differential::check(&spec, &own).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn skip_engages_at_steady_state_with_sharding() {
    // After convergence the sharded engine should be skipping most
    // shard-ticks (this is what BENCH_4's throughput win is made of).
    let mut e = EngineBuilder::new(Topology::torus(&[16, 16]))
        .workload(Workload::uniform_random(256, 8.0, 5))
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .config(EngineConfig { shards: 8, ..Default::default() })
        .seed(5)
        .build();
    e.run_rounds(400);
    e.drain(50.0);
    let before = e.shard_stats();
    let executed = e.executed_rounds();
    e.run_rounds(100);
    let after = e.shard_stats();
    // All 8 shards sleep through all 100 converged rounds: with nothing
    // due, every round fast-forwards without reaching the sweep.
    assert_eq!(e.executed_rounds(), executed, "converged rounds must fast-forward");
    assert_eq!(after.ticks_evaluated, before.ticks_evaluated);
    assert_eq!(after.ticks_skipped, before.ticks_skipped);
    assert_eq!(after.nodes_evaluated, before.nodes_evaluated);
}
