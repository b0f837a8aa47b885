//! Theorem 2 integration tests: "the load balancing scheme converges to a
//! nearly perfect load balance" — exercised end-to-end on the standard
//! topology families with both hotspot and random initial distributions.

use particle_plane::prelude::*;

fn converge(topo: Topology, workload: Workload, rounds: u64, seed: u64) -> RunReport {
    let mut engine = EngineBuilder::new(topo)
        .workload(workload)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .seed(seed)
        .build();
    engine.run_rounds(rounds).drain(500.0);
    engine.report()
}

#[test]
fn hotspot_spreads_on_mesh_torus_hypercube() {
    let cases: Vec<(Topology, &str)> = vec![
        (Topology::mesh(&[6, 6]), "mesh"),
        (Topology::torus(&[6, 6]), "torus"),
        (Topology::hypercube(5), "hypercube"),
    ];
    for (topo, name) in cases {
        let n = topo.node_count();
        let initial_cov = Imbalance::of(&Workload::hotspot(n, 0, 2.0 * n as f64).heights()).cov;
        let r = converge(topo, Workload::hotspot(n, 0, 2.0 * n as f64), 400, 3);
        assert!(
            r.final_imbalance.cov < 0.25 * initial_cov,
            "{name}: cov {} did not drop well below initial {initial_cov}",
            r.final_imbalance.cov
        );
        assert!(r.final_imbalance.cov < 1.0, "{name}: {}", r.final_imbalance.cov);
    }
}

#[test]
fn random_workload_balances_on_torus() {
    let topo = Topology::torus(&[8, 8]);
    let w = Workload::uniform_random(64, 8.0, 17);
    let before = Imbalance::of(&w.heights()).cov;
    let r = converge(topo, w, 200, 5);
    assert!(r.final_imbalance.cov < before, "cov {} vs initial {before}", r.final_imbalance.cov);
    assert!(r.final_imbalance.cov < 0.6);
}

#[test]
fn load_is_conserved_through_the_whole_run() {
    let topo = Topology::torus(&[6, 6]);
    let w = Workload::hotspot(36, 0, 72.0);
    let total = w.total_load();
    let mut engine = EngineBuilder::new(topo)
        .workload(w)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .seed(1)
        .build();
    for _ in 0..50 {
        engine.run_rounds(4);
        let sys = engine.system_load();
        assert!((sys - total).abs() < 1e-6, "system load drifted: {sys} vs {total}");
    }
}

#[test]
fn imbalance_trend_is_downward() {
    // The CoV series need not be strictly monotone (stochastic arbiter,
    // in-flight load), but its tail must sit far below its head.
    let topo = Topology::torus(&[8, 8]);
    let r = converge(topo, Workload::hotspot(64, 0, 128.0), 300, 9);
    let pts = r.series.points();
    let head: f64 = pts.iter().take(5).map(|&(_, v)| v).sum::<f64>() / 5.0;
    let tail: f64 = pts.iter().rev().take(5).map(|&(_, v)| v).sum::<f64>() / 5.0;
    assert!(tail < 0.2 * head, "head {head} tail {tail}");
}

#[test]
fn bigger_hotspots_take_longer_but_still_converge() {
    let topo = |_| Topology::torus(&[6, 6]);
    let small = converge(topo(()), Workload::hotspot(36, 0, 36.0), 400, 2);
    let big = converge(topo(()), Workload::hotspot(36, 0, 144.0), 400, 2);
    let t_small = small.converged_round(0.6, 3);
    let t_big = big.converged_round(0.6, 3);
    assert!(t_small.is_some(), "small hotspot should converge");
    assert!(t_big.is_some(), "big hotspot should converge");
    assert!(t_small.unwrap() <= t_big.unwrap());
}

#[test]
fn multi_hotspot_and_ramp_workloads() {
    let topo = Topology::torus(&[6, 6]);
    for w in [
        Workload::multi_hotspot(36, &[0, 17, 35], 108.0),
        Workload::ramp(36, 0.25),
        Workload::bimodal(36, 0.3, 6.0, 1.0, 4),
    ] {
        let before = Imbalance::of(&w.heights()).cov;
        let r = converge(topo.clone(), w, 250, 8);
        assert!(
            r.final_imbalance.cov < before.max(0.2),
            "cov {} vs initial {before}",
            r.final_imbalance.cov
        );
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let topo = Topology::hypercube(4);
        converge(topo, Workload::uniform_random(16, 6.0, 2), 100, 77).final_imbalance
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn sharded_engine_matches_sequential() {
    let build = |shards: usize, threads: usize| {
        let topo = Topology::torus(&[8, 8]);
        let w = Workload::hotspot(64, 10, 128.0);
        let mut engine = EngineBuilder::new(topo)
            .workload(w)
            .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
            .config(EngineConfig { shards, threads, ..Default::default() })
            .seed(31)
            .build();
        engine.run_rounds(120).drain(300.0);
        (engine.heights(), engine.report())
    };
    let (h_seq, r_seq) = build(1, 1);
    let (h_par, r_par) = build(4, 2);
    assert_eq!(h_seq, h_par);
    // Byte-identical reports: the persistent worker pool must not perturb
    // the per-node RNG streams or the event ordering in any way.
    assert_eq!(r_seq, r_par);
}
