//! Resume-equivalence differential suite: for randomized [`ScenarioSpec`]s,
//! running N rounds → checkpoint → serialize → parse → restore into a fresh
//! engine → M rounds must be **byte-identical** to running N+M rounds
//! straight — across shard counts K ∈ {1, 3, 64}, worker threads ∈ {1, 4},
//! with link faults, Poisson/diurnal arrivals, trace replay, heterogeneous
//! speeds and work consumption in the mix. The spec-level cases go through
//! the differential harness ([`pp_scenario::differential`]), which compares
//! golden report bytes and `RunReport`s (full CoV series, every ledger
//! record, totals), so equality means the resumed run is observationally
//! indistinguishable from the uninterrupted one. The rest check engine
//! state the reports do not show.

use pp_core::jitter::FrictionJitter;
use pp_core::params::PhysicsConfig;
use pp_scenario::differential::{self, Matrix};
use pp_scenario::registry;
use pp_scenario::spec::{
    ArrivalSpec, BalancerSpec, DiffusionAlpha, DurationSpec, EngineKnobs, FaultPlanSpec,
    ScenarioSpec, SpeedSpec, WorkloadSpec,
};
use pp_sim::state::{SystemState, NODE_WORD};
use pp_topology::spec::TopologySpec;
use proptest::prelude::*;

fn topology_variant(idx: u8) -> TopologySpec {
    match idx % 4 {
        0 => TopologySpec::Torus { dims: vec![6, 6] },
        1 => TopologySpec::Mesh { dims: vec![8, 8] },
        2 => TopologySpec::Ring { n: 24 },
        _ => TopologySpec::Hypercube { dim: 5 },
    }
}

fn workload_variant(idx: u8, seed: u64) -> WorkloadSpec {
    match idx % 4 {
        0 => WorkloadSpec::Hotspot { node: 0, total: 40.0, task_size: 1.0 },
        1 => WorkloadSpec::UniformRandom { max_per_node: 6.0, seed },
        2 => WorkloadSpec::Bimodal { fraction: 0.25, high: 8.0, low: 1.0, seed },
        _ => WorkloadSpec::Empty,
    }
}

fn arrival_variant(idx: u8, n: usize) -> ArrivalSpec {
    match idx % 5 {
        0 => ArrivalSpec::Quiescent,
        1 => ArrivalSpec::Poisson { rate: 4.0, size_min: 0.5, size_max: 1.5 },
        2 => ArrivalSpec::Diurnal {
            base_rate: 3.0,
            amplitude: 0.8,
            period: 6.0,
            size_min: 0.5,
            size_max: 1.0,
        },
        3 => ArrivalSpec::MovingHotspot { rate: 5.0, size: 1.0, dwell: 2.5, stride: 7 },
        _ => ArrivalSpec::Replay {
            events: (0..6)
                .map(|i| (0.7 * i as f64 + 0.3, (i * 5 % n) as u32, 1.0 + 0.25 * i as f64))
                .collect(),
        },
    }
}

fn balancer_variant(idx: u8) -> BalancerSpec {
    match idx % 5 {
        // The paper's balancer, jitter off (quiescence-stable: shard
        // activity tracking engages at K >= 2).
        0 => BalancerSpec::default(),
        // Jitter on: per-task RNG draws every round even when nothing
        // moves, so the checkpoint must resume every node stream
        // mid-sequence.
        1 => BalancerSpec::ParticlePlane {
            config: PhysicsConfig {
                jitter: Some(FrictionJitter::new(0.4, 1.0, 50.0)),
                ..PhysicsConfig::default()
            },
            arbiter: None,
            name: None,
        },
        // Stateful baselines: per-round internal state rides the
        // save_state/load_state contract.
        2 => BalancerSpec::GradientModel { low: 2.0, high: 5.0 },
        3 => BalancerSpec::DimensionExchange,
        _ => BalancerSpec::Diffusion { alpha: DiffusionAlpha::Safe },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_runs_are_byte_identical_to_straight_runs(
        t_idx in 0u8..4,
        w_idx in 0u8..4,
        a_idx in 0u8..5,
        b_idx in 0u8..5,
        layout in 0u8..6,
        faulty in 0u8..2,
        hetero in 0u8..2,
        seed in 0u64..10_000,
        rounds in 6u64..=10,
        split_num in 1u64..100,
    ) {
        // K in {1, 3, 64} crossed with threads in {1, 4} (K = 64 clamps to
        // the node count on the smaller topologies — also worth covering).
        let (shards, threads) = [(1, 1), (3, 1), (64, 1), (1, 4), (3, 4), (64, 4)][layout as usize];
        let topology = topology_variant(t_idx);
        let n = topology.node_count();
        let spec = ScenarioSpec {
            name: format!("resume-prop-{t_idx}-{w_idx}-{a_idx}-{b_idx}-{layout}"),
            description: "randomized resume-equivalence case".to_string(),
            topology,
            workload: workload_variant(w_idx, seed),
            arrival: arrival_variant(a_idx, n),
            balancer: balancer_variant(b_idx),
            faults: FaultPlanSpec { model: (faulty == 1).then_some((0.06, 0.5)) },
            speeds: if hetero == 1 {
                SpeedSpec::TwoTier { fast_fraction: 0.25, fast: 2.0, slow: 0.75, seed }
            } else {
                SpeedSpec::Uniform
            },
            engine: EngineKnobs {
                consume_rate: if hetero == 1 { 0.3 } else { 0.0 },
                shards,
                threads,
                ..EngineKnobs::default()
            },
            duration: DurationSpec { rounds, drain: 15.0 },
            seed,
            ..ScenarioSpec::default()
        };
        spec.validate().expect("generated specs must validate");
        // A random kill-and-resume point strictly mid-run; the second half
        // resumes under the same layout.
        let at = 1 + split_num % (rounds - 1);
        let matrix = Matrix { layouts: vec![(shards, threads)], splits: vec![Some(at)] };
        if let Err(e) = differential::check(&spec, &matrix) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Runs split at each of `splits`: K = 1 halves resumed at K = 3 and K = 3
/// halves resumed at K = 1.
fn splits(at: impl IntoIterator<Item = u64>) -> Matrix {
    Matrix { layouts: vec![(1, 1), (3, 2)], splits: at.into_iter().map(Some).collect() }
}

/// The golden-byte form of the invariant on a fixed chaos case: faults +
/// Poisson arrivals + consumption, split at every possible round, rendered
/// reports compared byte-for-byte.
#[test]
fn chaos_scenario_splits_byte_identically_at_every_round() {
    let mut spec = registry::by_name("faulty-torus").expect("registered").smoke(6, 20.0);
    spec.arrival = ArrivalSpec::Poisson { rate: 3.0, size_min: 0.5, size_max: 1.5 };
    spec.engine.consume_rate = 0.2;
    differential::check(&spec, &splits(1..=6)).unwrap_or_else(|e| panic!("{e}"));
}

/// Trace replay keeps absolute record offsets in the event queue; a resume
/// must pick up the remaining records and only those.
#[test]
fn trace_replay_resumes_at_the_right_offset() {
    let spec = registry::by_name("trace-replay").expect("registered").smoke(8, 25.0);
    differential::check(&spec, &splits([1, 4, 7])).unwrap_or_else(|e| panic!("{e}"));
}

/// The structure-of-arrays mirrors (`occupied_words`, `height_slice`)
/// are derived hot-path state, not checkpoint state: a checkpoint written
/// before the SoA layout existed would restore identically. This pins
/// that — restore into a different *thread* layout and immediately
/// re-checkpoint must reproduce the exact bytes (threads are excluded from
/// capture; spatial K is recorded, so K is held fixed), the rebuilt SoA
/// mirrors must agree bitwise with the per-node truth at every node, and
/// the continued run must land on the straight run's report.
#[test]
fn soa_mirrors_rebuild_exactly_across_relayout() {
    let mut spec = registry::by_name("faulty-torus").expect("registered").smoke(8, 20.0);
    spec.arrival = ArrivalSpec::Poisson { rate: 3.0, size_min: 0.5, size_max: 1.5 };
    spec.engine.consume_rate = 0.2;
    spec.engine.shards = 3;
    spec.engine.threads = 1;
    let straight = spec.run().expect("straight");

    let mut writer = spec.build_engine().expect("engine");
    writer.run_rounds(4);
    let bytes = writer.checkpoint().to_json();
    let cp = pp_sim::checkpoint::Checkpoint::from_json(&bytes).expect("round trip");

    for threads in [1usize, 4] {
        let mut respec = spec.clone();
        respec.engine.threads = threads;
        let mut resumed = respec.build_engine().expect("engine");
        resumed.restore(&cp).expect("restore");
        assert_eq!(
            resumed.checkpoint().to_json(),
            bytes,
            "re-checkpoint after restore (T={threads}) must be byte-identical"
        );
        assert_mirrors(resumed.state(), &format!("after restore (T={threads})"));
        resumed.run_rounds(4);
        assert_mirrors(resumed.state(), &format!("after the resumed rounds (T={threads})"));
        resumed.drain(20.0);
        assert_mirrors(resumed.state(), &format!("after the drain (T={threads})"));
        assert_eq!(resumed.report(), straight, "continuation under T={threads} diverged");
    }
}

/// Asserts that the SoA mirrors agree with the per-node truth at every
/// node: the occupancy bit is `task_count() != 0`, and the cached height
/// is the node's height, bitwise.
fn assert_mirrors(state: &SystemState, when: &str) {
    for i in 0..state.node_count() {
        let v = pp_topology::graph::NodeId(i as u32);
        let occupied = state.occupied_words()[i / NODE_WORD] >> (i % NODE_WORD) & 1 == 1;
        assert_eq!(
            occupied,
            state.node(v).task_count() != 0,
            "occupancy bit diverged at node {i} {when}"
        );
        assert_eq!(
            state.height_slice()[i].to_bits(),
            state.node(v).height().to_bits(),
            "height mirror diverged at node {i} {when}"
        );
    }
}

/// A resumed spec must also be able to *checkpoint again* — chained
/// checkpoints across two interruptions still land on the straight run.
#[test]
fn double_interruption_still_exact() {
    let spec = registry::by_name("hetero-speeds").expect("registered").smoke(9, 20.0);
    let straight = spec.run().expect("straight");

    let mut first = spec.build_engine().expect("engine");
    first.run_rounds(3);
    let cp1 = pp_sim::checkpoint::Checkpoint::from_json(&first.checkpoint().to_json()).unwrap();
    let mut second = spec.build_engine().expect("engine");
    second.restore(&cp1).expect("restore 1");
    second.run_rounds(3);
    let cp2 = pp_sim::checkpoint::Checkpoint::from_json(&second.checkpoint().to_json()).unwrap();
    let mut third = spec.build_engine().expect("engine");
    third.restore(&cp2).expect("restore 2");
    third.run_rounds(3).drain(20.0);
    assert_eq!(third.report(), straight);
}
