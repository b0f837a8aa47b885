//! The skip differential suite: the `K ≥ 2` engine's correctness contract
//! is that, skipping clean shards and fast-forwarding effect-free rounds,
//! it produces for any scenario and any `(shards, threads)` layout a
//! `RunReport` **byte-identical** to the skip-free `K = 1` reference —
//! skipping must be unobservable in everything the run records (CoV
//! series, migration ledger, totals, clock).
//!
//! In the test ids, `tick` is the `K = 1` reference and `event` a
//! skipping `K ≥ 2` layout.
//!
//! The suite runs a family of 24 deterministically varied scenarios
//! (faults, Poisson/diurnal/bursty arrivals, recorded-trace replay,
//! heterogeneous speeds, consumption, several topology families) through
//! the differential harness ([`pp_scenario::differential`]): layouts
//! `K ∈ {2, 3, 64} × threads ∈ {1, 4}`, and a checkpoint crossed mid-run
//! between `K = 1` and `K ≥ 2` in both directions — a reference half
//! resumed under a skipping layout (and vice versa) must land on the very
//! same report. Every variant is compared with the `K = 1` reference as
//! golden report bytes and as a whole `RunReport`. See
//! `docs/adr/ADR-006-event-strategy.md`.

use particle_plane::prelude::*;
use pp_scenario::differential::{self, Matrix};

/// 24 deterministically varied scenario specs. Variation is modular rather
/// than random so every CI run exercises the identical family, but the
/// axes are chosen to cover every event source the engine has: initial
/// imbalance shapes, dynamic arrivals (including trace replay), link
/// faults, heterogeneous speeds, and work consumption.
fn specs() -> Vec<ScenarioSpec> {
    (0..24u64)
        .map(|i| {
            let mut s = ScenarioSpec {
                name: format!("diff-{i}"),
                description: "skip differential family".into(),
                ..ScenarioSpec::default()
            };
            s.topology = match i % 4 {
                0 => TopologySpec::Torus { dims: vec![6, 6] },
                1 => TopologySpec::Mesh { dims: vec![5, 7] },
                2 => TopologySpec::Ring { n: 24 },
                _ => TopologySpec::Hypercube { dim: 5 },
            };
            s.workload = match i % 3 {
                0 => WorkloadSpec::Hotspot { node: 0, total: 40.0, task_size: 1.0 },
                1 => WorkloadSpec::UniformRandom { max_per_node: 6.0, seed: i },
                _ => WorkloadSpec::Bimodal { fraction: 0.3, high: 9.0, low: 1.0, seed: i },
            };
            s.arrival = match i % 5 {
                0 => ArrivalSpec::Quiescent,
                1 => ArrivalSpec::Poisson { rate: 4.0, size_min: 0.5, size_max: 1.5 },
                2 => ArrivalSpec::Diurnal {
                    base_rate: 3.0,
                    amplitude: 0.7,
                    period: 8.0,
                    size_min: 0.5,
                    size_max: 1.0,
                },
                3 => ArrivalSpec::Bursty { rate: 6.0, burst_len: 2.0, quiet_len: 5.0, size: 1.0 },
                _ => ArrivalSpec::Replay {
                    events: vec![(0.7, 3, 2.0), (3.2, 11, 1.0), (3.2, 0, 0.5), (9.9, 7, 1.5)],
                },
            };
            if i % 3 == 1 {
                s.faults = FaultPlanSpec { model: Some((0.05, 0.5)) };
            }
            if i % 4 == 2 {
                s.speeds =
                    SpeedSpec::TwoTier { fast_fraction: 0.25, fast: 2.0, slow: 0.75, seed: i };
            }
            if i % 2 == 0 {
                s.engine.consume_rate = 0.3;
            }
            s.duration = DurationSpec { rounds: 10 + (i % 3) * 4, drain: 25.0 };
            s.seed = 100 + i;
            s
        })
        .collect()
}

/// Checks every spec of the family against its `K = 1` reference under
/// `matrix`.
fn check_family(matrix: Matrix) {
    for spec in specs() {
        differential::check(&spec, &matrix).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// One layout, straight through.
fn straight(k: usize, t: usize) -> Matrix {
    Matrix { layouts: vec![(k, t)], splits: vec![None] }
}

/// Runs the first half at each layout, crosses the checkpoint through its
/// serialized JSON form into a fresh engine under the next layout, and
/// finishes there.
fn crossover(layouts: Vec<(usize, usize)>) -> Matrix {
    Matrix { layouts, splits: vec![Some(SPLIT)] }
}

/// Half-way through the shortest spec of the family.
const SPLIT: u64 = 5;

#[test]
fn family_is_valid_and_varied() {
    let all = specs();
    assert_eq!(all.len(), 24);
    for s in &all {
        s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
    }
    // Every axis actually varies within the family.
    assert!(all.iter().any(|s| s.faults.model.is_some()));
    assert!(all.iter().any(|s| s.faults.model.is_none()));
    assert!(all.iter().any(|s| !matches!(s.speeds, SpeedSpec::Uniform)));
    assert!(all.iter().any(|s| s.engine.consume_rate > 0.0));
    assert!(all.iter().any(|s| s.engine.consume_rate == 0.0));
    assert!(all.iter().any(|s| matches!(s.arrival, ArrivalSpec::Replay { .. })));
}

/// `K = 2`, the smallest layout that skips.
#[test]
fn tick_vs_event_sequential_reference() {
    check_family(straight(2, 1));
}

#[test]
fn tick_vs_event_three_shards() {
    check_family(straight(3, 1));
}

#[test]
fn tick_vs_event_clamped_shards() {
    check_family(straight(64, 1));
}

/// `K = 2` with more threads than shards.
#[test]
fn tick_vs_event_sequential_threaded() {
    check_family(straight(2, 4));
}

#[test]
fn tick_vs_event_three_shards_threaded() {
    check_family(straight(3, 4));
}

#[test]
fn tick_vs_event_clamped_shards_threaded() {
    check_family(straight(64, 4));
}

#[test]
fn checkpoint_crossover_tick_to_event() {
    // The checkpoint format does not record whether rounds were skipped:
    // a K = 1 half resumed at K = 3 must finish on the identical report
    // (and, as the matrix wraps, a K = 3 half resumed at K = 1).
    check_family(crossover(vec![(1, 1), (3, 1)]));
}

#[test]
fn checkpoint_crossover_event_to_tick() {
    // A pooled K = 64 half resumed on the K = 1 reference, and back.
    check_family(crossover(vec![(64, 4), (1, 1)]));
}

#[test]
fn checkpoint_crossover_across_layouts() {
    // Crossing between two skipping layouts: the two independent
    // exactness invariants (restore, skip) must compose.
    check_family(crossover(vec![(3, 1), (64, 4)]));
}
