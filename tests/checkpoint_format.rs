//! Checkpoint format gate: a golden fixture committed under `golden/`
//! pins the version-1 byte format, and malformed inputs — future versions,
//! truncations, corrupted fields — must error cleanly, never panic.
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

#[test]
fn huge_task_size_anywhere_is_refused_or_runs_never_panics() {
    // A size of 1e308 is finite, so it parses, but the launch or landing
    // time it implies (size / bandwidth, plus the clock) need not be.
    // Every `"size"` in the fixture — resident tasks, tasks in flight,
    // ledger records — is corrupted in turn: restore must refuse it or
    // the resumed run must step on without panicking.
    let text = fixture_text();
    let key = "\"size\": ";
    let sites: Vec<usize> = text.match_indices(key).map(|(at, _)| at + key.len()).collect();
    assert!(sites.len() > 100, "fixture shape changed: {} sizes", sites.len());
    let (mut refused, mut panics) = (0, Vec::new());
    for &at in &sites {
        let end = at + text[at..].find([',', '\n']).expect("value ends");
        let bad = format!("{}1e308{}", &text[..at], &text[end..]);
        let Ok(cp) = Checkpoint::from_json(&bad) else {
            refused += 1;
            continue;
        };
        let mut e = fixture_spec().build_engine().expect("engine");
        if e.restore(&cp).is_err() {
            refused += 1;
            continue;
        }
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run_rounds(3);
        }));
        if run.is_err() {
            panics.push(at);
        }
    }
    assert!(panics.is_empty(), "{} of {} size corruptions panicked", panics.len(), sites.len());
    assert!(refused > 0, "no corruption was refused — is the fixture still exercised?");
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
