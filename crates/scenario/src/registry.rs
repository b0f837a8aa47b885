//! The registry of named, validated scenarios: the paper's experiment
//! setups plus the workload families the ROADMAP asks for (bursty ON/OFF,
//! diurnal sine-wave, adversarial moving hotspot, heterogeneous node
//! speeds, recorded-trace replay). Every entry is a plain [`ScenarioSpec`]
//! — runnable from `pp-lab`, tests, benches and CI alike, and printable
//! as JSON with `pp-lab <name> --spec`.

use crate::spec::{
    ArrivalSpec, BalancerSpec, CheckpointSpec, ChurnSpec, DiffusionAlpha, DurationSpec,
    EngineKnobs, FaultPlanSpec, LinkSpec, ResourceSpec, ScenarioSpec, SpeedSpec, TaskGraphSpec,
    WorkloadSpec,
};
use pp_tasking::workload::{record_trace, ArrivalProcess};
use pp_topology::spec::TopologySpec;

fn base(name: &str, description: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        description: description.to_string(),
        ..ScenarioSpec::default()
    }
}

/// All registered scenarios, in display order. Names are unique; every
/// entry validates (enforced by a test).
pub fn registry() -> Vec<ScenarioSpec> {
    // The replay scenario's recorded trace (deterministic per seed).
    let trace = record_trace(
        &ArrivalProcess::MovingHotspot { rate: 4.0, size: 1.0, dwell: 10.0, stride: 5 },
        16,
        60.0,
        7,
    );
    let all = vec![
        // 1. The paper's canonical worst case: one hill on a flat yard.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            workload: WorkloadSpec::Hotspot { node: 0, total: 128.0, task_size: 1.0 },
            ..base("hotspot-torus", "single 128-unit hotspot on an 8x8 torus (Theorem 2 in action)")
        },
        // 2. Uniform random initial imbalance on a hypercube.
        ScenarioSpec {
            topology: TopologySpec::Hypercube { dim: 6 },
            workload: WorkloadSpec::UniformRandom { max_per_node: 12.0, seed: 5 },
            ..base("uniform-hypercube", "uniform-random loads on a 6-cube")
        },
        // 3. Bimodal split on a mesh (no wraparound shortcuts).
        ScenarioSpec {
            topology: TopologySpec::Mesh { dims: vec![8, 8] },
            workload: WorkloadSpec::Bimodal { fraction: 0.25, high: 16.0, low: 2.0, seed: 5 },
            ..base("bimodal-mesh", "25% of nodes at 16 units, the rest at 2, on an 8x8 mesh")
        },
        // 4. Linear ramp on a ring — the slowest-mixing family.
        ScenarioSpec {
            topology: TopologySpec::Ring { n: 32 },
            workload: WorkloadSpec::Ramp { step: 0.5 },
            duration: DurationSpec { rounds: 400, drain: 100.0 },
            ..base("ramp-ring", "linear load ramp around a 32-ring (diameter-limited mixing)")
        },
        // 5. Heavy-tailed tasks over heterogeneous faulty links.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            links: LinkSpec::Random { seed: 21, bw: (0.5, 2.0), d: (0.5, 2.0), f_max: 0.02 },
            workload: WorkloadSpec::Zipf { count: 1024, base: 1.0, skew: 0.3, seed: 21 },
            duration: DurationSpec { rounds: 300, drain: 500.0 },
            ..base("zipf-heterogeneous", "1024 zipf tasks over random link attributes")
        },
        // 6. Bursty ON/OFF arrivals against a consuming system.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![6, 6] },
            arrival: ArrivalSpec::Bursty { rate: 12.0, burst_len: 5.0, quiet_len: 20.0, size: 1.0 },
            engine: EngineKnobs { consume_rate: 0.3, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 500, drain: 100.0 },
            ..base(
                "bursty-onoff",
                "ON/OFF arrival bursts (12/s for 5s, quiet 20s) with consumption",
            )
        },
        // 7. Diurnal sine-wave load — the day/night cycle.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![6, 6] },
            arrival: ArrivalSpec::Diurnal {
                base_rate: 6.0,
                amplitude: 0.8,
                period: 100.0,
                size_min: 0.5,
                size_max: 1.5,
            },
            engine: EngineKnobs { consume_rate: 0.2, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 500, drain: 100.0 },
            ..base(
                "diurnal-wave",
                "sine-wave arrival rate (amplitude 0.8, period 100) with consumption",
            )
        },
        // 8. The adversarial moving hotspot: arrivals chase the balancer.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            arrival: ArrivalSpec::MovingHotspot { rate: 10.0, size: 1.0, dwell: 25.0, stride: 27 },
            engine: EngineKnobs { consume_rate: 0.15, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 400, drain: 100.0 },
            ..base("moving-hotspot", "all arrivals target one node that jumps every 25 time units")
        },
        // 9. Heterogeneous node speeds: fast nodes drain, slow nodes pile up.
        ScenarioSpec {
            topology: TopologySpec::Mesh { dims: vec![8, 8] },
            workload: WorkloadSpec::UniformRandom { max_per_node: 10.0, seed: 9 },
            arrival: ArrivalSpec::Poisson { rate: 6.0, size_min: 0.5, size_max: 1.5 },
            speeds: SpeedSpec::TwoTier { fast_fraction: 0.25, fast: 3.0, slow: 0.75, seed: 9 },
            engine: EngineKnobs { consume_rate: 0.25, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 400, drain: 100.0 },
            ..base(
                "hetero-speeds",
                "25% of nodes consume 4x faster (two-tier speeds) under arrivals",
            )
        },
        // 10. Recorded-trace replay: a moving-hotspot trace captured once,
        // replayed record-for-record (the regression-testing workhorse).
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![4, 4] },
            arrival: ArrivalSpec::Replay {
                events: trace.iter().map(|ev| (ev.time, ev.node, ev.size)).collect(),
            },
            engine: EngineKnobs { consume_rate: 0.1, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 120, drain: 100.0 },
            ..base("trace-replay", "replays a recorded 60-time-unit moving-hotspot arrival trace")
        },
        // 11. Fault tolerance: per-transfer faults + dynamic up/down links.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            links: LinkSpec::Uniform { bandwidth: 1.0, distance: 1.0, fault_prob: 0.1 },
            workload: WorkloadSpec::Bimodal { fraction: 0.25, high: 6.0, low: 0.5, seed: 11 },
            faults: FaultPlanSpec { model: Some((0.05, 0.5)) },
            duration: DurationSpec { rounds: 250, drain: 200.0 },
            ..base("faulty-torus", "10% per-transfer link faults plus a Markov up/down process")
        },
        // 12. Dependency pipeline: chained tasks resist migration.
        ScenarioSpec {
            topology: TopologySpec::Mesh { dims: vec![4, 4] },
            workload: WorkloadSpec::Hotspot { node: 0, total: 32.0, task_size: 1.0 },
            task_graph: TaskGraphSpec::Chain { count: 16, weight: 8.0 },
            duration: DurationSpec { rounds: 200, drain: 200.0 },
            ..base("dependency-pipeline", "16 chained + 16 free tasks on one node of a 4x4 mesh")
        },
        // 13. Resource pinning: half the hotspot is nailed to its node.
        ScenarioSpec {
            topology: TopologySpec::Mesh { dims: vec![4, 4] },
            workload: WorkloadSpec::Hotspot { node: 0, total: 32.0, task_size: 1.0 },
            resources: ResourceSpec::PinFirst { count: 16, node: 0, strength: 8.0 },
            duration: DurationSpec { rounds: 200, drain: 200.0 },
            ..base("pinned-resources", "16 of 32 hotspot tasks pinned to node 0 (µ_s ∝ R_{k,i})")
        },
        // 14. Classical baseline: Xu–Lau optimal diffusion on the same hotspot.
        ScenarioSpec {
            topology: TopologySpec::Mesh { dims: vec![8, 8] },
            links: LinkSpec::Instant,
            workload: WorkloadSpec::Hotspot { node: 0, total: 128.0, task_size: 1.0 },
            balancer: BalancerSpec::Diffusion { alpha: DiffusionAlpha::Optimal },
            ..base("diffusion-baseline", "Xu-Lau optimal diffusion on the mesh hotspot (reference)")
        },
        // 15. Classical baseline: dimension exchange on its home topology.
        ScenarioSpec {
            topology: TopologySpec::Hypercube { dim: 5 },
            links: LinkSpec::Instant,
            workload: WorkloadSpec::UniformRandom { max_per_node: 12.0, seed: 3 },
            balancer: BalancerSpec::DimensionExchange,
            ..base("dimension-exchange-cube", "Cybenko dimension exchange on a 5-cube (reference)")
        },
        // 16. Big parallel sweep: the 1k-node scale point on the sharded
        // decision path (what bench_ticks measures, as a scenario).
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![32, 32] },
            workload: WorkloadSpec::UniformRandom { max_per_node: 10.0, seed: 42 },
            engine: EngineKnobs { shards: 4, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 100, drain: 100.0 },
            ..base("torus1k-parallel", "1024-node torus on the 4-shard decision sweep")
        },
        // 17. Production scale, explicitly sharded: the 16k-node torus
        // split into 64 row bands (what BENCH_4 measures, as a scenario).
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![128, 128] },
            workload: WorkloadSpec::UniformRandom { max_per_node: 8.0, seed: 42 },
            engine: EngineKnobs { shards: 64, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 60, drain: 100.0 },
            ..base("torus16k-sharded", "16,384-node torus on the 64-shard tick pipeline")
        },
        // 18. The 65,536-node scale point: one hotspot on a 256×256 torus,
        // 128 shards — far shards sleep until the balancing wave reaches
        // their halo (the shard-level activity tracking showcase).
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![256, 256] },
            workload: WorkloadSpec::Hotspot { node: 0, total: 2048.0, task_size: 1.0 },
            engine: EngineKnobs { shards: 128, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 40, drain: 100.0 },
            ..base("torus65536-sharded", "65,536-node torus, 128 shards, spreading hotspot")
        },
        // 19. Checkpoint/resume under fire: Markov link faults, Poisson
        // arrivals and consumption all active when the run is split — the
        // kill/resume-mid-fault chaos case `pp-lab --verify` replays
        // against its straight-run twin.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![32, 32] },
            workload: WorkloadSpec::UniformRandom { max_per_node: 6.0, seed: 19 },
            arrival: ArrivalSpec::Poisson { rate: 8.0, size_min: 0.5, size_max: 1.5 },
            faults: FaultPlanSpec { model: Some((0.08, 0.4)) },
            engine: EngineKnobs { consume_rate: 0.2, shards: 4, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 200, drain: 100.0 },
            ..base(
                "torus1k-resume-midfault",
                "1024-node torus split mid-run with faults + arrivals in flight",
            )
        },
        // 20. Long-horizon production scale with periodic checkpointing:
        // the 16k-node sharded torus writing a restart point every 16
        // rounds (capture is read-only, so the report is identical to an
        // uncheckpointed run — asserted by the golden gate). Redistribution
        // only (no consumption): the spec predates the resident-work consume
        // sweep, and its golden pins the consumption-free run.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![128, 128] },
            workload: WorkloadSpec::UniformRandom { max_per_node: 8.0, seed: 20 },
            arrival: ArrivalSpec::Bursty { rate: 20.0, burst_len: 4.0, quiet_len: 12.0, size: 1.0 },
            engine: EngineKnobs { shards: 16, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 120, drain: 100.0 },
            checkpoint: Some(CheckpointSpec {
                every: 16,
                path: "target/ckpt/torus16k-checkpointed.ckpt.json".to_string(),
            }),
            ..base("torus16k-checkpointed", "16,384-node torus checkpointing every 16 rounds")
        },
        // 21. The fast-forward showcase: a million-node torus over a
        // 50,000-round horizon. The small hotspot drains (and the balancer
        // quiesces) within tens of rounds; at K = 256 every round after is
        // fast-forwarded in closed form. The K = 1 reference would execute
        // all 50,000 rounds, each sampling the drained surface's CoV with
        // the drift guard's exact O(n) pass; this layout runs the full
        // horizon in a fraction of a second in release. (While the hotspot
        // holds work, the consume sweep costs n/64 chunk tests plus the
        // occupied nodes per event, at any K.)
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![1024, 1024] },
            workload: WorkloadSpec::Hotspot { node: 0, total: 64.0, task_size: 1.0 },
            engine: EngineKnobs { consume_rate: 1.0, shards: 256, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 50_000, drain: 100.0 },
            ..base(
                "torus1m-event",
                "1,048,576-node torus over 50,000 rounds via event-driven time skipping",
            )
        },
        // 22. A moving hotspot on the 16k-node torus, 64 shards,
        // redistribution only (consume_rate 0), so most shards stay clean
        // while the dirty frontier drifts. The name is kept from the
        // adaptive-repartitioning era (ADR-008, superseded): the benchmark
        // loads the spec by it.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![128, 128] },
            arrival: ArrivalSpec::MovingHotspot { rate: 24.0, size: 1.0, dwell: 8.0, stride: 4097 },
            engine: EngineKnobs { shards: 64, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 200, drain: 100.0 },
            ..base("hotspot16k-adaptive", "moving hotspot on the 64-shard 16k torus")
        },
        // 23. Irregular topology I: preferential-attachment hubs. The
        // hotspot's escape routes all funnel through a few high-degree
        // nodes — the opposite of the torus's uniform degree.
        ScenarioSpec {
            topology: TopologySpec::ScaleFree { n: 256, m: 3, seed: 24 },
            workload: WorkloadSpec::Hotspot { node: 0, total: 256.0, task_size: 1.0 },
            duration: DurationSpec { rounds: 300, drain: 100.0 },
            ..base("scalefree-hotspot", "256-unit hotspot on a 256-node scale-free graph (m=3)")
        },
        // 24. Irregular topology II: a random-geometric field (uneven
        // degree, long shortest paths) under diurnal arrivals.
        ScenarioSpec {
            topology: TopologySpec::Geometric { n: 128, radius: 0.18, seed: 25 },
            arrival: ArrivalSpec::Diurnal {
                base_rate: 5.0,
                amplitude: 0.8,
                period: 80.0,
                size_min: 0.5,
                size_max: 1.5,
            },
            engine: EngineKnobs { consume_rate: 0.2, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 400, drain: 100.0 },
            ..base("geometric-diurnal", "diurnal arrivals on a 128-node random-geometric graph")
        },
        // 25. Node churn on the torus: Markov join/leave membership under
        // Poisson arrivals — leavers drain their queues to live neighbours,
        // joiners start cold (ADR-010).
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            workload: WorkloadSpec::UniformRandom { max_per_node: 8.0, seed: 26 },
            arrival: ArrivalSpec::Poisson { rate: 6.0, size_min: 0.5, size_max: 1.5 },
            churn: ChurnSpec::Markov { leave: 0.02, join: 0.25, seed: 26 },
            engine: EngineKnobs { consume_rate: 0.25, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 300, drain: 100.0 },
            ..base("torus-churn", "Markov node join/leave churn on the torus under arrivals")
        },
        // 26. The everything-fails case: node churn *and* the Markov link
        // up/down process *and* per-transfer link faults, simultaneously.
        ScenarioSpec {
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            links: LinkSpec::Uniform { bandwidth: 1.0, distance: 1.0, fault_prob: 0.05 },
            workload: WorkloadSpec::Bimodal { fraction: 0.25, high: 10.0, low: 1.0, seed: 27 },
            faults: FaultPlanSpec { model: Some((0.05, 0.5)) },
            churn: ChurnSpec::Markov { leave: 0.015, join: 0.2, seed: 27 },
            engine: EngineKnobs { consume_rate: 0.15, ..EngineKnobs::default() },
            duration: DurationSpec { rounds: 300, drain: 150.0 },
            ..base("churn-faults", "node churn plus link faults plus transfer faults at once")
        },
    ];
    all
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// All registered names, in display order.
pub fn names() -> Vec<String> {
    registry().into_iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Matrix};
    use std::collections::HashSet;

    #[test]
    fn registry_is_large_and_unique() {
        let all = registry();
        assert!(all.len() >= 26, "registry has only {} scenarios", all.len());
        let names: HashSet<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        // The ROADMAP-mandated workload families are all present.
        for required in [
            "bursty-onoff",
            "diurnal-wave",
            "moving-hotspot",
            "hetero-speeds",
            "trace-replay",
            "torus1k-resume-midfault",
            "torus16k-checkpointed",
            "torus1m-event",
            "hotspot16k-adaptive",
            "scalefree-hotspot",
            "geometric-diurnal",
            "torus-churn",
            "churn-faults",
        ] {
            assert!(names.contains(required), "missing required scenario `{required}`");
        }
    }

    #[test]
    fn churn_scenarios_actually_churn() {
        // The ChurnSpec wiring must reach the engine: a smoke run of each
        // churn scenario has down nodes mid-run, and the split run still
        // matches the straight run byte-for-byte.
        for name in ["torus-churn", "churn-faults"] {
            let spec = by_name(name).expect("registered").smoke(8, 15.0);
            let mut engine = spec.build_engine().expect("builds");
            engine.run_rounds(8);
            assert!(engine.down_node_count() > 0, "{name} scheduled no churn in smoke mode");
            differential::check(&spec, &split_at(4, (1, 1))).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn midfault_resume_scenario_splits_exactly() {
        // The chaos scenario in miniature: kill mid-fault at its own
        // 4-shard layout, resume, and the report must be byte-identical
        // to never having stopped.
        let spec = by_name("torus1k-resume-midfault").expect("registered").smoke(6, 15.0);
        assert_eq!(spec.engine.shards, 4);
        differential::check(&spec, &split_at(3, (4, 0))).unwrap_or_else(|e| panic!("{e}"));
    }

    /// One run at `layout`, split at round `at`.
    fn split_at(at: u64, layout: (usize, usize)) -> Matrix {
        Matrix { layouts: vec![layout], splits: vec![Some(at)] }
    }

    #[test]
    fn every_entry_validates() {
        for s in registry() {
            s.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn every_entry_builds_an_engine() {
        for s in registry() {
            let engine = s.build_engine().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(engine.state().node_count(), s.topology.node_count(), "{}", s.name);
        }
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("hotspot-torus").is_some());
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn invalid_arbiter_fails_validation_and_parse_alike() {
        // validate() and the JSON Deserialize path share Arbiter::validate,
        // so a spec cannot pass one and fail the other.
        use pp_core::arbiter::Arbiter;
        use pp_core::params::PhysicsConfig;
        let mut s = by_name("hotspot-torus").expect("registered");
        s.balancer = BalancerSpec::ParticlePlane {
            config: PhysicsConfig::default(),
            arbiter: Some(Arbiter::Stochastic { beta0: 1.5, c: -1.0, t_max: 0.0 }),
            name: None,
        };
        assert!(s.validate().is_err());
        assert!(ScenarioSpec::from_json(&s.to_json_pretty()).is_err());
    }

    #[test]
    fn every_entry_round_trips_through_json() {
        for s in registry() {
            let json = s.to_json_pretty();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: parse error {e}", s.name));
            assert_eq!(back, s, "{} did not round-trip", s.name);
            // And the re-serialization is byte-identical.
            assert_eq!(back.to_json_pretty(), json, "{} JSON not canonical", s.name);
        }
    }

    #[test]
    fn smoke_runs_are_deterministic_per_seed() {
        // Every registered scenario, in miniature: two same-seed runs must
        // be outcome-identical (RunReport implements PartialEq over every
        // recorded artifact).
        for s in registry() {
            let small = s.smoke(3, 10.0);
            let a = small.run().unwrap_or_else(|e| panic!("{e}"));
            let b = small.run().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a, b, "{} diverged across same-seed runs", s.name);
        }
    }

    #[test]
    fn torus1m_event_keeps_its_horizon_and_fast_forwards() {
        let spec = by_name("torus1m-event").expect("registered");
        assert_eq!(spec.topology.node_count(), 1 << 20);
        // The point of the entry: a 50,000-round horizon at a million
        // nodes, which only a fast-forwarding K ≥ 2 layout runs quickly.
        assert_eq!(spec.duration.rounds, 50_000);
        assert_eq!(spec.engine.shards, 256);
        // The hotspot drains and the balancer quiesces within ~200 rounds;
        // everything after is closed-form. Run a truncated horizon (full
        // scale, debug build) and check the sweep counters have frozen.
        let mut spec = spec;
        spec.duration.rounds = 400;
        let mut engine = spec.build_engine().expect("builds");
        engine.run_rounds(250);
        let evaluated = engine.shard_stats().ticks_evaluated;
        assert_eq!(engine.next_wake(), None, "system must fully quiesce");
        engine.run_rounds(150);
        assert_eq!(engine.shard_stats().ticks_evaluated, evaluated, "tail must fast-forward");
        assert_eq!(engine.round(), 400);
        assert_eq!(engine.report().series.len(), 401);
    }
}
