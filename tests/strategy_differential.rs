//! The cross-strategy differential suite: the event strategy's correctness
//! contract is that for any scenario and any `(shards, threads)` layout it
//! produces a `RunReport` **byte-identical** to the round-by-round tick
//! reference — skipping a round must be unobservable in everything the run
//! records (CoV series, migration ledger, totals, clock).
//!
//! The suite runs a family of 24 deterministically varied scenarios
//! (faults, Poisson/diurnal/bursty arrivals, recorded-trace replay,
//! heterogeneous speeds, consumption, several topology families) through
//! the differential harness ([`pp_scenario::differential`]): both
//! strategies across `K ∈ {1, 3, 64} × threads ∈ {1, 4}`, and a checkpoint
//! crossed mid-run *between* strategies in both directions — a tick half
//! resumed under event (and vice versa) must land on the very same report.
//! Every variant is compared with the sequential tick reference as golden
//! report bytes and as a whole `RunReport`. See
//! `docs/adr/ADR-006-event-strategy.md`.

use particle_plane::prelude::*;
use pp_scenario::differential::{self, Matrix};
use pp_sim::strategy::SimulationStrategy::{self, Event, Tick};

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
                description: "cross-strategy differential family".into(),
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

/// Checks every spec of the family against its sequential tick reference
/// under `matrix`.
fn check_family(matrix: Matrix) {
    for spec in specs() {
        differential::check(&spec, &matrix).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Both strategies, straight through, at one layout.
fn both_strategies(k: usize, t: usize) -> Matrix {
    Matrix { strategies: vec![Tick, Event], layouts: vec![(k, t)], splits: vec![None] }
}

/// Runs the first half under `first` at each layout, crosses the
/// checkpoint through its serialized JSON form into a fresh engine under
/// the other strategy (and the next layout), and finishes there.
fn crossover(first: SimulationStrategy, layouts: Vec<(usize, usize)>) -> Matrix {
    Matrix { strategies: vec![first], layouts, splits: vec![Some(SPLIT)] }
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

#[test]
fn tick_vs_event_sequential_reference() {
    check_family(both_strategies(1, 1));
}

#[test]
fn tick_vs_event_three_shards() {
    check_family(both_strategies(3, 1));
}

#[test]
fn tick_vs_event_clamped_shards() {
    check_family(both_strategies(64, 1));
}

#[test]
fn tick_vs_event_sequential_threaded() {
    check_family(both_strategies(1, 4));
}

#[test]
fn tick_vs_event_three_shards_threaded() {
    check_family(both_strategies(3, 4));
}

#[test]
fn tick_vs_event_clamped_shards_threaded() {
    check_family(both_strategies(64, 4));
}

#[test]
fn checkpoint_crossover_tick_to_event() {
    // The checkpoint format is strategy-free: a tick half resumed under
    // the event strategy must finish on the identical report.
    check_family(crossover(Tick, vec![(1, 1)]));
}

#[test]
fn checkpoint_crossover_event_to_tick() {
    check_family(crossover(Event, vec![(1, 1)]));
}

#[test]
fn checkpoint_crossover_across_layouts() {
    // Crossing strategy *and* layout at once: the two independent
    // exactness invariants (restore, skip) must compose.
    check_family(crossover(Event, vec![(3, 1), (64, 4)]));
}
