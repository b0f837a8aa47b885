//! Stress suite for the pinned-shard-worker sweep: byte-identical
//! `RunReport`s across the full `threads × shards` matrix, checkpoint
//! crossings that change the execution layout mid-run, panic-in-one-shard
//! recovery, and a rapid-fire barrier hammer.
//!
//! Most tests here run through the public engine API — the pool's own
//! unit tests cover the barrier/affinity mechanics in isolation; these
//! tests prove the property that matters upstream: *execution layout is
//! unobservable in the output bytes.* Two raw-pool storms at the bottom
//! hammer the lock-free epoch barrier directly (spin→park→wake cycling and
//! the panic re-raise) across the same worker × shard matrix.

use pp_sim::prelude::*;
use pp_tasking::workload::{ArrivalProcess, Workload};
use pp_topology::graph::Topology;
use rand::rngs::StdRng;
use rand::Rng;

/// Moves one task toward the lowest neighbour, but draws from the node's
/// RNG stream on *every* decision of an occupied node (the engine never
/// asks an empty one) — never quiescence-stable, so every shard is
/// evaluated every round and the barrier fires at full width.
struct NoisyGreedy;

impl LoadBalancer for NoisyGreedy {
    fn name(&self) -> &str {
        "noisy-greedy"
    }

    fn decide(&self, view: &NodeView<'_>, rng: &mut StdRng) -> Vec<MigrationIntent> {
        // The draw happens whenever the node is asked: per-node streams make
        // the outcome layout-independent, the non-stability makes it dense.
        let threshold = 1.0 + rng.gen_range(0.0..0.25);
        let Some(task) = view.tasks.first() else { return Vec::new() };
        let h = view.nbr_heights;
        let Some(k) = (0..h.len()).min_by(|&a, &b| h[a].total_cmp(&h[b])) else {
            return Vec::new();
        };
        if view.height - h[k] > threshold {
            vec![MigrationIntent { task: task.id, to: view.neighbors[k], flag: 0.0, heat: 0.0 }]
        } else {
            Vec::new()
        }
    }
}

/// The deterministic quiescence-stable variant: exercises the mixed
/// evaluated/skipped sweep where some of a worker's owned shards are
/// clean and cost only a flag read.
struct LazyGreedy;

impl LoadBalancer for LazyGreedy {
    fn name(&self) -> &str {
        "lazy-greedy"
    }

    fn decide(&self, view: &NodeView<'_>, _rng: &mut StdRng) -> Vec<MigrationIntent> {
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

/// 64-node torus with the full event mix — faults, Poisson arrivals,
/// consumption — so dirty-marking, halo adjacency and the commit phase
/// all stay busy while the layout varies.
fn busy_engine(balancer: impl LoadBalancer + 'static, shards: usize, threads: usize) -> Engine {
    let topo = Topology::torus(&[8, 8]);
    let w = Workload::uniform_random(64, 6.0, 3);
    EngineBuilder::new(topo)
        .workload(w)
        .balancer(balancer)
        .config(EngineConfig {
            shards,
            threads,
            consume_rate: 0.2,
            fault_model: Some(FaultModel { p_down: 0.05, p_up: 0.5 }),
            arrival: ArrivalProcess::Poisson { rate: 2.0, size_min: 0.5, size_max: 1.5 },
            ..Default::default()
        })
        .seed(17)
        .build()
}

const THREADS: &[usize] = &[1, 2, 4, 8];
const SHARDS: &[usize] = &[1, 4, 64];

#[test]
fn dense_reports_identical_across_thread_and_shard_matrix() {
    let reference = {
        let mut e = busy_engine(NoisyGreedy, 1, 1);
        e.run_rounds(30).drain(25.0);
        e.report()
    };
    for &k in SHARDS {
        for &t in THREADS {
            let mut e = busy_engine(NoisyGreedy, k, t);
            e.run_rounds(30).drain(25.0);
            assert_eq!(e.report(), reference, "K={k} threads={t} diverged");
        }
    }
}

#[test]
fn skip_capable_reports_identical_across_thread_and_shard_matrix() {
    let reference = {
        let mut e = busy_engine(LazyGreedy, 1, 1);
        e.run_rounds(30).drain(25.0);
        e.report()
    };
    for &k in SHARDS {
        for &t in THREADS {
            let mut e = busy_engine(LazyGreedy, k, t);
            e.run_rounds(30).drain(25.0);
            assert_eq!(e.report(), reference, "K={k} threads={t} diverged");
        }
    }
}

#[test]
fn checkpoint_crosses_thread_counts_exactly() {
    // Write under a multi-threaded layout, resume under every thread
    // count (and back): worker affinity is execution layout, not state,
    // so the continuation must not know where it was captured.
    let mut straight = busy_engine(NoisyGreedy, 4, 1);
    straight.run_rounds(24);
    straight.drain(25.0);
    let want = straight.report();

    let mut writer = busy_engine(NoisyGreedy, 64, 8);
    writer.run_rounds(9);
    let cp = Checkpoint::from_json(&writer.checkpoint().to_json()).expect("round trip");
    for &k in SHARDS {
        for &t in THREADS {
            let mut resumed = busy_engine(NoisyGreedy, k, t);
            resumed.restore(&cp).expect("restore");
            resumed.run_rounds(15);
            resumed.drain(25.0);
            assert_eq!(resumed.report(), want, "resume under K={k} threads={t} diverged");
        }
    }
}

#[test]
fn layout_changes_mid_run_through_chained_checkpoints() {
    // The layout changes twice mid-run — (1,1) → (64,8) → (4,2) — with
    // the state carried through serialized checkpoints each time. The
    // final bytes must match a run that never changed anything.
    let mut straight = busy_engine(NoisyGreedy, 16, 4);
    straight.run_rounds(30);
    straight.drain(25.0);
    let want = straight.report();

    let mut a = busy_engine(NoisyGreedy, 1, 1);
    a.run_rounds(10);
    let cp = Checkpoint::from_json(&a.checkpoint().to_json()).expect("round trip");
    let mut b = busy_engine(NoisyGreedy, 64, 8);
    b.restore(&cp).expect("restore into (64,8)");
    b.run_rounds(10);
    let cp = Checkpoint::from_json(&b.checkpoint().to_json()).expect("round trip");
    let mut c = busy_engine(NoisyGreedy, 4, 2);
    c.restore(&cp).expect("restore into (4,2)");
    c.run_rounds(10);
    c.drain(25.0);
    assert_eq!(c.report(), want, "chained layout changes diverged");
}

/// Panics on exactly one node in exactly one round, then behaves like
/// [`LazyGreedy`] — so the panic hits one shard of one parallel sweep.
struct PanicOnce;

impl LoadBalancer for PanicOnce {
    fn name(&self) -> &str {
        "panic-once"
    }

    fn decide(&self, view: &NodeView<'_>, rng: &mut StdRng) -> Vec<MigrationIntent> {
        if view.round == 5 && view.node.0 == 13 {
            panic!("injected decide failure");
        }
        LazyGreedy.decide(view, rng)
    }
}

#[test]
fn panic_in_one_shard_names_it_and_leaves_the_engine_usable() {
    // 8 shards over 64 nodes → node 13 lives in shard 1. Threads = 4 so
    // the sweep runs on the pool; the other workers' shards must complete
    // (the barrier ack survives the unwind) and the panic must name the
    // failing shard, not hang or abort the process.
    let mut e = busy_engine(PanicOnce, 8, 4);
    e.run_rounds(4);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        e.run_rounds(1);
    }));
    let msg = *caught.expect_err("round 5 must panic").downcast::<String>().expect("message");
    assert!(msg.contains("[1]"), "panic names the owning shard: {msg}");
    // The pool (and its barrier) survives: later rounds run to completion
    // on the same workers. (Round 5's sweep was torn, so the *numbers*
    // are off the reference trajectory — the property under test is that
    // the machinery neither hangs nor compounds the failure.)
    e.run_rounds(10);
    e.drain(25.0);
    let r = e.report();
    assert_eq!(r.rounds, 15);
    assert!(r.time > 0.0);
}

#[test]
fn barrier_hammer_rapid_rounds_stay_exact() {
    // Hundreds of tiny rounds at maximum worker count and shard count:
    // thousands of barrier crossings with near-empty shard work, where a
    // lost wake or a stale epoch would deadlock or misorder. Identity
    // against the sequential reference proves neither happened.
    let run = |k: usize, t: usize| {
        let topo = Topology::torus(&[8, 8]);
        let w = Workload::uniform_random(64, 6.0, 7);
        let mut e = EngineBuilder::new(topo)
            .workload(w)
            .balancer(NoisyGreedy)
            .config(EngineConfig { shards: k, threads: t, ..Default::default() })
            .seed(23)
            .build();
        e.run_rounds(400).drain(25.0);
        e.report()
    };
    let reference = run(1, 1);
    assert_eq!(run(64, 8), reference, "hammer (64,8) diverged");
    assert_eq!(run(64, 3), reference, "hammer (64,3) diverged");
}

#[test]
fn raw_barrier_hammer_spin_park_storm_across_layouts() {
    // The raw pool under the lock-free epoch barrier: 400 rounds per
    // (workers, shards) shape across the full matrix, with idle gaps long
    // past the spin limit injected mid-storm so workers fall from the spin
    // loop into a real park and must be woken by the next epoch publish.
    // Each round chains a shard-and-round-dependent update into its slot,
    // so a round that ran twice, not at all, or against a stale epoch
    // breaks the final chained values.
    use pp_sim::pool::ShardPool;
    for &w in THREADS {
        for &k in SHARDS {
            let pool = ShardPool::new(w, k);
            let mut slots = vec![0u64; k];
            let mut expect = vec![0u64; k];
            for round in 0..400u64 {
                pool.run_shards(&mut slots, &|s: usize, slot: &mut u64| {
                    *slot = slot.wrapping_mul(31).wrapping_add(round ^ s as u64);
                });
                for (s, e) in expect.iter_mut().enumerate() {
                    *e = e.wrapping_mul(31).wrapping_add(round ^ s as u64);
                }
                if round % 133 == 0 {
                    // Longer than any reasonable spin window: every worker
                    // parks, and the next round's wake path is exercised.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            assert_eq!(slots, expect, "workers={w} K={k}: storm diverged");
        }
    }
}

#[test]
fn raw_pool_panic_re_raises_naming_shards_and_stays_usable() {
    // Two shards of one round panic; the caller's re-raise must name both
    // in sorted order, the sibling shards must still have completed their
    // work, and the same pool (same parked workers, same barrier) must run
    // later rounds normally.
    use pp_sim::pool::ShardPool;
    let pool = ShardPool::new(4, 64);
    let mut slots = vec![0u32; 64];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run_shards(&mut slots, &|s: usize, slot: &mut u32| {
            if s == 7 || s == 42 {
                panic!("injected shard failure");
            }
            *slot = 100 + s as u32;
        });
    }));
    let msg = *caught.expect_err("must re-raise").downcast::<String>().expect("message");
    assert!(msg.contains("[7, 42]"), "panic names the failing shards: {msg}");
    for (s, &v) in slots.iter().enumerate() {
        if s != 7 && s != 42 {
            assert_eq!(v, 100 + s as u32, "sibling shard {s} must have completed");
        }
    }
    pool.run_shards(&mut slots, &|s: usize, slot: &mut u32| *slot = s as u32 + 1);
    assert!(
        slots.iter().enumerate().all(|(s, &v)| v == s as u32 + 1),
        "pool must stay usable after an unwound round"
    );
}

#[test]
fn executed_rounds_counts_swept_rounds_only() {
    // A quiescence-stable policy on a system that settles: once every
    // shard is clean, rounds stop executing sweeps and the counter stops
    // advancing, at every layout.
    for &(k, t) in &[(1usize, 1usize), (8, 4)] {
        let topo = Topology::ring(8);
        let w = Workload::hotspot(8, 0, 8.0);
        let mut e = EngineBuilder::new(topo)
            .workload(w)
            .balancer(LazyGreedy)
            .config(EngineConfig { shards: k, threads: t, ..Default::default() })
            .seed(1)
            .build();
        e.run_rounds(50);
        let executed = e.executed_rounds();
        assert!(executed > 0, "K={k}: the hotspot must execute early rounds");
        e.run_rounds(10);
        if k > 1 {
            // Shard-level activity tracking has resolution at K ≥ 2: a
            // settled system stops executing sweeps, and the quiescent
            // tail adds none.
            assert!(
                executed < 50,
                "K={k}: a settled system must stop executing sweeps (got {executed})"
            );
            assert_eq!(e.executed_rounds(), executed, "K={k} t={t}: quiescent tail swept");
        } else {
            // The K = 1 reference pipeline never skips — every round's
            // sweep executes, including the tail's.
            assert_eq!(e.executed_rounds(), 60, "K=1 executes every round");
        }
    }
}
