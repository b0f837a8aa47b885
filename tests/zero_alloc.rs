//! Proof of the zero-allocation claim: once a quiescent system has
//! converged, sequential balance rounds perform **zero heap allocations and
//! zero deallocations** — the height map, imbalance statistics, neighbour
//! views, decision buffers and metric storage are all maintained
//! incrementally or reused from scratch space.
//!
//! This file must hold exactly one `#[test]` so no concurrent test thread
//! pollutes the global allocation counters.

use particle_plane::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_rounds_do_not_allocate() {
    let dense = || (Topology::torus(&[8, 8]), Workload::uniform_random(64, 8.0, 5));
    // Without jitter a converged node has no feasible slope left, so the
    // arbiter never draws and steady state touches no RNG-driven paths.
    assert_steady_state_allocates_nothing(PhysicsConfig::default(), dense());
    // With annealed jitter every node still draws one `µ_s` jitter per
    // resident task per round — the draw-only inert-node path, which must
    // stay allocation-free too.
    assert_steady_state_allocates_nothing(
        PhysicsConfig {
            jitter: Some(FrictionJitter::new(0.3, 1.0, 1e9)),
            ..PhysicsConfig::default()
        },
        dense(),
    );
    // Sparse: a small hotspot on a 12×12 torus (three 64-node chunks, the
    // last one partial) comes to rest on a few nodes, so the sweep walks
    // the occupied-node mask past mostly empty chunks and never builds an
    // empty node's view.
    assert_steady_state_allocates_nothing(
        PhysicsConfig::default(),
        (Topology::torus(&[12, 12]), Workload::hotspot(144, 77, 12.0)),
    );
}

/// Converges a quiescent redistribution of `workload` on `topo` under the
/// paper's balancer with `cfg` (stochastic arbiter, as benchmarked) and
/// counts the heap traffic of 50 further sequential rounds.
fn assert_steady_state_allocates_nothing(cfg: PhysicsConfig, (topo, w): (Topology, Workload)) {
    let n = topo.node_count();
    let mut engine = EngineBuilder::new(topo)
        .workload(w)
        .balancer(ParticlePlaneBalancer::new(cfg))
        .seed(5)
        .build();

    // Converge and drain so no migrations or events remain, then warm every
    // scratch buffer and pre-reserve the metrics series for the measured
    // window.
    engine.run_rounds(300);
    engine.drain(50.0);
    let migrations_before = engine.report().ledger.migration_count();
    let rounds_before = engine.round();
    engine.reserve_rounds(64);
    engine.run_rounds(4); // warm-up inside the reserved window

    let a0 = ALLOCS.load(Ordering::SeqCst);
    let d0 = DEALLOCS.load(Ordering::SeqCst);
    engine.run_rounds(50);
    let allocs = ALLOCS.load(Ordering::SeqCst) - a0;
    let deallocs = DEALLOCS.load(Ordering::SeqCst) - d0;

    // Sanity: the system really is in a migration-free steady state, and the
    // rounds really ran.
    let report = engine.report();
    assert_eq!(report.ledger.migration_count(), migrations_before, "steady state assumption");
    assert_eq!(report.rounds, rounds_before + 54);

    let empty = engine.heights().iter().filter(|&&h| h == 0.0).count();
    let case = format!("{n} nodes, {empty} empty, jitter: {}", cfg.jitter.is_some());
    assert_eq!(allocs, 0, "steady-state rounds ({case}) allocated {allocs} times");
    assert_eq!(deallocs, 0, "steady-state rounds ({case}) deallocated {deallocs} times");
    if n == 144 {
        assert!(empty > n / 2, "the sparse case must stay mostly empty ({case})");
    }
}
