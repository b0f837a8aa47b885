//! Pinned sweep and skip counts of the fast-forwarding `K ≥ 2` engine.
//!
//! Report bytes cannot tell a scheduler that skips from one that does not:
//! an executed effect-free round and a fast-forwarded one record the same
//! sample. These counters can. For each run this pins
//!
//! * `executed_rounds()` — rounds that ran the full pipeline instead of
//!   being fast-forwarded;
//! * `ticks_evaluated` — shard sweeps run (the per-shard dirty tracking);
//! * `ticks_skipped` — clean shards passed over inside rounds that ran, so
//!   `(evaluated + skipped) / K` equals `executed_rounds()`.
//!
//! A change that wakes more often, or sweeps shards that are clean, moves
//! a pinned value and fails here rather than only in a timing. A change
//! that skips more must be checked by the differential harness first and
//! then re-pinned here.

use pp_scenario::registry::by_name;
use pp_scenario::spec::ScenarioSpec;
use pp_sim::engine::Engine;

/// `(executed_rounds, ticks_evaluated, ticks_skipped)` after `rounds`.
fn counts(engine: &mut Engine, rounds: u64) -> (u64, u64, u64) {
    engine.run_rounds(rounds - engine.round());
    let s = engine.shard_stats();
    let k = engine.shard_layout().shards as u64;
    assert_eq!(s.ticks_evaluated + s.ticks_skipped, k * engine.executed_rounds());
    (engine.executed_rounds(), s.ticks_evaluated, s.ticks_skipped)
}

/// A registry spec with no checkpoint files.
fn spec(name: &str) -> ScenarioSpec {
    let mut spec = by_name(name).expect("registered");
    spec.checkpoint = None;
    spec
}

#[test]
fn bursty_arrivals_fast_forward_the_quiet_rounds() {
    // K = 16: 98 of 120 rounds run, 93 of them sweep a shard.
    let spec = spec("torus16k-checkpointed");
    assert_eq!(spec.engine.shards, 16);
    let mut engine = spec.build_engine().expect("builds");
    assert_eq!(counts(&mut engine, spec.duration.rounds), (98, 880, 688));
}

#[test]
fn a_fault_process_runs_every_round() {
    // K = 4 with consumption, arrivals and Markov link faults: the fault
    // process draws every round, so no round is skipped and every shard
    // is swept each time.
    let spec = spec("torus1k-resume-midfault");
    assert_eq!(spec.engine.shards, 4);
    assert!(spec.engine.consume_rate > 0.0);
    let mut engine = spec.build_engine().expect("builds");
    assert_eq!(counts(&mut engine, spec.duration.rounds), (200, 800, 0));
}

#[test]
fn torus1m_event_sweeps_only_while_the_hotspot_drains() {
    // Horizon-capped as in `lab --verify` (8 rounds, drain ≤ 25), then
    // continued to 400 rounds: 125 rounds run and the other 275
    // fast-forward once the consumed hotspot is gone.
    let mut spec = spec("torus1m-event");
    assert_eq!(spec.engine.shards, 256);
    spec.duration.rounds = spec.duration.rounds.min(8);
    spec.duration.drain = spec.duration.drain.min(25.0);
    let mut engine = spec.build_engine().expect("builds");
    assert_eq!(counts(&mut engine, 8), (8, 270, 1778));
    assert_eq!(counts(&mut engine, 400), (125, 428, 31572));
}
