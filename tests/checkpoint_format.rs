//! Checkpoint format gate: a golden fixture committed under `golden/`
//! pins the version-1 byte format, and malformed inputs — future versions,
//! truncations, corrupted fields, hostile numbers, structural mutations —
//! must error cleanly, never panic.
//!
//! The fixture is the `faulty-torus` smoke scenario captured at round 4:
//! deterministic, machine-independent (auto layout resolves to one shard;
//! thread counts are not part of a checkpoint), and busy enough to populate
//! every section (tasks, down links, ledger, series, free slots). To
//! regenerate after an intended format change:
//!
//! ```text
//! cargo test --test checkpoint_format regenerate_fixture -- --ignored
//! ```

use pp_scenario::registry;
use pp_scenario::spec::ScenarioSpec;
use pp_sim::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use pp_sim::engine::Engine;
use support::VALUES;

#[path = "../crates/scenario/tests/support/mod.rs"]
mod support;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/checkpoint-v1.ckpt.json");

/// The scenario the fixture captures (smoke caps match `pp-lab --smoke`).
fn fixture_spec() -> ScenarioSpec {
    registry::by_name("faulty-torus").expect("registered").smoke(8, 25.0)
}

/// Builds the fixture engine and runs it to the capture point (round 4).
fn engine_at_capture_point() -> Engine {
    let mut e = fixture_spec().build_engine().expect("engine");
    e.run_rounds(4);
    e
}

fn fixture_text() -> String {
    std::fs::read_to_string(FIXTURE).expect("committed fixture golden/checkpoint-v1.ckpt.json")
}

#[test]
fn fixture_parses_resumes_and_stays_byte_stable() {
    let text = fixture_text();
    let cp = Checkpoint::from_json(&text).expect("fixture parses");
    assert_eq!(cp.round, 4);
    assert_eq!(cp.nodes, 64);
    assert_eq!(cp.balancer, "particle-plane");

    // Byte-stability: capturing the same engine state today must reproduce
    // the committed fixture exactly. If this fails after an intended format
    // or behavior change, regenerate (see module docs) and commit the diff
    // deliberately.
    let fresh = engine_at_capture_point().checkpoint().to_json();
    assert_eq!(fresh, text, "checkpoint bytes drifted from the committed v1 fixture");

    // And the fixture resumes into the exact straight-run report.
    let spec = fixture_spec();
    let straight = spec.run().expect("straight run");
    let resumed = spec.run_from_checkpoint(&cp).expect("resume from fixture");
    assert_eq!(resumed, straight);
}

#[test]
fn future_version_is_rejected_not_panicked() {
    let text = fixture_text();
    assert!(text.starts_with("{\n  \"version\": 1,"), "fixture must lead with the version");
    let future = text.replacen("\"version\": 1", "\"version\": 2", 1);
    let err = Checkpoint::from_json(&future).unwrap_err();
    assert!(err.contains("version 2"), "unhelpful version error: {err}");
    assert!(err.contains(&CHECKPOINT_VERSION.to_string()));
}

#[test]
fn truncated_bytes_error_at_every_cut_point() {
    let text = fixture_text();
    // Dense cuts near the start (header/version territory) plus spread
    // samples across the whole body.
    let mut cuts: Vec<usize> = (0..64).collect();
    cuts.extend((1..50).map(|i| i * text.len() / 50));
    // len-1 would only trim the trailing newline (still a complete JSON
    // document); len-2 drops the closing brace.
    cuts.push(text.len() - 2);
    for cut in cuts {
        assert!(Checkpoint::from_json(&text[..cut]).is_err(), "cut at byte {cut} must error");
    }
}

#[test]
fn corrupted_fields_error_cleanly() {
    let text = fixture_text();
    let cases: &[(&str, &str)] = &[
        ("\"nodes\": 64", "\"nodes\": \"sixty-four\""), // type confusion
        ("\"round\": 4", "\"round\": -4"),              // sign corruption
        ("\"kind\": \"load\"", "\"kind\": \"warp\""),   // unknown event
        ("\"stats\": {", "\"stats\": ["),               // shape corruption
        ("\"balancer\": \"particle-plane\"", "\"balancer\": null"),
    ];
    for (from, to) in cases {
        let bad = text.replacen(from, to, 1);
        assert_ne!(&bad, &text, "corruption `{from}` did not apply — fixture shape changed?");
        assert!(Checkpoint::from_json(&bad).is_err(), "corruption `{from}` -> `{to}` must error");
    }
    // Raw binary garbage.
    assert!(Checkpoint::from_json("\u{0}\u{1}\u{2}garbage").is_err());
}

#[test]
fn structurally_valid_but_mismatched_checkpoint_is_refused_by_restore() {
    let cp = Checkpoint::from_json(&fixture_text()).expect("fixture parses");
    // A different scenario's engine: same parse, wrong fingerprint.
    let mut other = registry::by_name("bursty-onoff")
        .expect("registered")
        .smoke(8, 25.0)
        .build_engine()
        .expect("engine");
    let err = other.restore(&cp).unwrap_err();
    assert!(err.contains("nodes") || err.contains("balancer"), "{err}");
    // The refused engine is still usable.
    other.run_rounds(2);
    assert_eq!(other.round(), 2);
}

/// Parses `text`, restores it into the fixture's engine and runs three
/// rounds; `Err` if the parse or the restore refuses it.
fn probe(text: &str) -> Result<(), String> {
    let cp = Checkpoint::from_json(text)?;
    let mut e = fixture_spec().build_engine()?;
    e.restore(&cp)?;
    e.run_rounds(3);
    e.report();
    Ok(())
}

/// The fixture as the one document the probe mutates.
fn fixture_doc() -> Vec<(String, String)> {
    vec![("checkpoint-v1".to_string(), fixture_text())]
}

#[test]
fn huge_task_size_anywhere_is_refused_or_runs_never_panics() {
    // A size of 1e308 is finite, so it parses, but the launch or landing
    // time it implies (size / bandwidth, plus the clock) need not be.
    // Every `"size"` in the fixture — resident tasks, tasks in flight,
    // ledger records — is corrupted in turn: restore must refuse it or
    // the resumed run must step on without panicking.
    let done = support::sweep(
        &fixture_doc(),
        |line| line.ends_with("\"size\": "),
        |_| vec!["1e308"],
        probe,
    );
    assert!(done.cases > 100, "fixture shape changed: {} sizes", done.cases);
    assert!(done.refused > 0, "no corruption was refused — is the fixture still exercised?");
}

#[test]
fn each_literal_with_one_rotating_value_is_refused_or_runs() {
    // Every numeric literal of the fixture — header, statistics, RNG
    // words, heights, tasks, flights, the event queue, down-link words,
    // ledger and series — gets one of the probe values in turn.
    let done = support::sweep(&fixture_doc(), |_| true, |i| vec![VALUES[i % VALUES.len()]], probe);
    assert!(done.sites > 1000, "fixture shape changed: {} literals", done.sites);
    assert!(done.refused > 0);
}

#[test]
#[ignore = "every literal × every value: run in release (`cargo test --release --test \
            checkpoint_format each_literal -- --ignored`)"]
fn each_literal_with_every_value_is_refused_or_runs() {
    let done = support::sweep(&fixture_doc(), |_| true, |_| VALUES.to_vec(), probe);
    assert!(done.sites > 1000, "fixture shape changed: {} literals", done.sites);
    assert_eq!(done.cases, VALUES.len() * done.sites);
}

#[test]
fn each_value_with_one_rotating_structural_mutation_is_refused_or_runs() {
    // Every value of the fixture gets one structural mutation in turn: a
    // key dropped, an array's first element dropped or duplicated, an
    // array emptied, or the value retyped.
    let done = support::structural_sweep(&fixture_doc(), true, probe);
    assert!(done.sites > 2000, "fixture shape changed: {} values", done.sites);
    assert_eq!(done.cases, done.sites);
    assert!(done.refused > 0);
}

#[test]
#[ignore = "every value × every structural mutation: run in release (`cargo test --release \
            --test checkpoint_format every_structural -- --ignored`)"]
fn every_structural_mutation_is_refused_or_runs() {
    let done = support::structural_sweep(&fixture_doc(), false, probe);
    assert!(done.cases > 4 * done.sites, "only {} cases", done.cases);
}

/// Regenerates the committed fixture. Run manually after an intended
/// format change; `fixture_parses_resumes_and_stays_byte_stable` keeps it
/// honest on every CI run.
#[test]
#[ignore = "writes golden/checkpoint-v1.ckpt.json; run after intended format changes"]
fn regenerate_fixture() {
    let text = engine_at_capture_point().checkpoint().to_json();
    std::fs::write(FIXTURE, text).expect("write fixture");
}
