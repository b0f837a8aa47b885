//! Checkpoint format gate: a golden fixture committed under `golden/`
//! pins the version-2 byte format, a second one keeps the version-1
//! reader honest, and malformed inputs to either — future versions,
//! truncations, corrupted fields, hostile numbers, structural mutations —
//! must error cleanly, never panic.
//!
//! Both fixtures are the `faulty-torus` smoke scenario captured at round
//! 4: deterministic, machine-independent (auto layout resolves to one
//! shard; thread counts are not part of a checkpoint), and busy enough to
//! populate every section (tasks, down links, ledger, series, free slots).
//! `checkpoint-v1.ckpt.json` was written by the version-1 writer, which
//! stored every ledger record; it stays committed as it is. To regenerate
//! the version-2 fixture after an intended format change, write a fresh
//! capture into cargo's per-target scratch directory and copy it over the
//! fixture with the `cp` command the test prints:
//!
//! ```text
//! cargo test --test checkpoint_format regenerate_fixture -- --ignored --nocapture
//! ```

use pp_scenario::registry;
use pp_scenario::report::GoldenReport;
use pp_scenario::spec::{write_checkpoint, ArrivalSpec, ScenarioSpec};
use pp_sim::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use pp_sim::engine::{Engine, RunReport};
use pp_topology::spec::TopologySpec;
use support::VALUES;

#[path = "../crates/scenario/tests/support/mod.rs"]
mod support;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/checkpoint-v2.ckpt.json");
const FIXTURE_V1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/checkpoint-v1.ckpt.json");

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
    std::fs::read_to_string(FIXTURE).expect("committed fixture golden/checkpoint-v2.ckpt.json")
}

fn fixture_v1_text() -> String {
    std::fs::read_to_string(FIXTURE_V1).expect("committed fixture golden/checkpoint-v1.ckpt.json")
}

/// Both fixtures, labelled: every malformed-input check runs over each.
fn fixtures() -> Vec<(String, String)> {
    vec![
        ("checkpoint-v2".to_string(), fixture_text()),
        ("checkpoint-v1".to_string(), fixture_v1_text()),
    ]
}

#[test]
fn fixture_parses_resumes_and_stays_byte_stable() {
    let text = fixture_text();
    let cp = Checkpoint::from_json(&text).expect("fixture parses");
    assert_eq!(cp.round, 4);
    assert_eq!(cp.nodes, 64);
    assert_eq!(cp.balancer, "particle-plane");
    assert!(cp.ledger.count > 0, "the fixture has migrated");

    // Byte-stability: capturing the same engine state today must reproduce
    // the committed fixture exactly. If this fails after an intended format
    // or behavior change, regenerate (see module docs) and commit the diff
    // deliberately.
    let fresh = engine_at_capture_point().checkpoint().to_json();
    assert_eq!(fresh, text, "checkpoint bytes drifted from the committed v2 fixture");

    // And the fixture resumes into the exact straight-run report.
    let spec = fixture_spec();
    let straight = spec.run().expect("straight run");
    let resumed = spec.run_from_checkpoint(&cp).expect("resume from fixture");
    assert_eq!(resumed, straight);
}

#[test]
fn v1_fixture_resumes_exactly_through_the_v1_reader() {
    // The version-1 file stores every ledger record. Folding them through
    // `TrafficLedger::record` repeats the run's own additions in its own
    // order, so the parsed checkpoint is the state a fresh capture holds,
    // bit for bit, and it renders to the version-2 fixture.
    let v1 = Checkpoint::from_json(&fixture_v1_text()).expect("v1 fixture parses");
    let fresh = engine_at_capture_point().checkpoint();
    assert!(v1.ledger.count > 0 && v1.ledger.digest != 0, "records were folded");
    assert!(v1 == fresh, "the v1 reader's state differs from a fresh capture");
    assert_eq!(first_difference(&v1.to_json(), &fixture_text()), None);
    let spec = fixture_spec();
    let resumed = spec.run_from_checkpoint(&v1).expect("resume from the v1 fixture");
    assert_eq!(resumed, spec.run().expect("straight run"));
}

#[test]
fn a_v1_checkpoint_under_churn_is_refused() {
    // Version 1 recorded the churn plan's whole length, not the events
    // applied by its round, so its churn fingerprint cannot be checked.
    let text = fixture_v1_text();
    let body = text.trim_end().strip_suffix('}').expect("an object");
    let churned = format!("{},\n  \"churn_len\": 5\n}}\n", body.trim_end());
    let err = Checkpoint::from_json(&churned).unwrap_err();
    assert!(err.contains("churn plan's length"), "{err}");
    let plain = format!("{},\n  \"churn_len\": 0\n}}\n", body.trim_end());
    assert!(Checkpoint::from_json(&plain).is_ok(), "no churn, nothing to check");
}

/// `spec` run straight, as the golden bytes `lab` writes and as a report.
fn golden(spec: &ScenarioSpec, r: &RunReport) -> String {
    GoldenReport::from_run(&spec.name, spec.seed, 64, r).to_canonical_json()
}

#[test]
fn a_churn_checkpoint_resumes_under_a_longer_horizon() {
    // `churn-faults` cut to 4 rounds and checkpointed at its end, then
    // resumed under the 8-round smoke horizon: the 8-round plan is drawn
    // from the same stream, so its first 4 rounds are the cut plan's.
    let full = registry::by_name("churn-faults").expect("registered").smoke(8, 25.0);
    assert_eq!(full.duration.rounds, 8);
    let mut cut = full.clone();
    cut.duration.rounds = 4;
    let mut engine = cut.build_engine().expect("engine");
    engine.run_rounds(4);
    let cp = Checkpoint::from_json(&engine.checkpoint().to_json()).expect("round trip");
    assert!(cp.churn_prefix.events > 0, "churn applied by round 4");
    let straight = full.run().expect("straight run");
    let resumed = full.run_from_checkpoint(&cp).expect("a longer horizon resumes");
    assert_eq!(golden(&full, &resumed), golden(&full, &straight));
    assert_eq!(resumed, straight);

    // A plan that differs inside the applied prefix is refused.
    let mut other = full.clone();
    if let pp_scenario::spec::ChurnSpec::Markov { seed, .. } = &mut other.churn {
        *seed += 1;
    }
    let err = other.run_from_checkpoint(&cp).unwrap_err();
    assert!(err.contains("churn events"), "{err}");
}

/// Where two texts first differ (`None` when equal), so a mismatch in a
/// multi-megabyte checkpoint reports a byte offset instead of both texts.
fn first_difference(a: &str, b: &str) -> Option<usize> {
    let common = a.bytes().zip(b.bytes()).position(|(x, y)| x != y);
    common.or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

#[test]
fn churn_checkpoint_bytes_agree_three_ways() {
    // A full-size `churn-faults` engine (64×64) after 20 rounds: thousands
    // of hops, faulted ones among them, down nodes and links, tasks
    // part-consumed. The file `write_checkpoint` streams, the
    // `to_json` text and the `Value`-path re-render of that text must be
    // the same bytes.
    let mut spec = registry::by_name("churn-faults").expect("registered");
    spec.topology = TopologySpec::Torus { dims: vec![64, 64] };
    let mut engine = spec.build_engine().expect("engine");
    engine.run_rounds(20);
    let cp = engine.checkpoint();
    assert!(cp.churn_prefix.events > 0 && engine.down_node_count() > 0, "the run churns");
    assert!(cp.ledger.faults > 0, "some hops were faulted");
    assert!(cp.ledger.faults < cp.ledger.count, "some hops were not");

    let text = cp.to_json();
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/churn-faults-64x64-round20.ckpt.json");
    write_checkpoint(&cp, path).expect("writes the checkpoint");
    let file = std::fs::read_to_string(path).expect("reads it back");
    assert_eq!(first_difference(&file, &text), None, "write_checkpoint against to_json");
    let tree = serde_json::from_str(&text).expect("parses");
    let rendered = serde_json::to_string_pretty(&tree).expect("renders") + "\n";
    assert_eq!(first_difference(&rendered, &text), None, "Value-path re-render against to_json");
    // And every value sits under its own key: the text lifts back to the
    // captured state.
    let lifted = Checkpoint::from_json(&text).expect("lifts");
    assert!(lifted == cp, "the text does not lift back to the captured checkpoint");
    std::fs::remove_file(path).expect("removes the file");
}

#[test]
fn future_version_is_rejected_not_panicked() {
    let text = fixture_text();
    assert!(text.starts_with("{\n  \"version\": 2,"), "fixture must lead with the version");
    assert!(fixture_v1_text().starts_with("{\n  \"version\": 1,"));
    let future = text.replacen("\"version\": 2", "\"version\": 3", 1);
    let err = Checkpoint::from_json(&future).unwrap_err();
    assert!(err.contains("version 3"), "unhelpful version error: {err}");
    assert!(err.contains(&CHECKPOINT_VERSION.to_string()));
}

#[test]
fn truncated_bytes_error_at_every_cut_point() {
    for (name, text) in fixtures() {
        // Dense cuts near the start (header/version territory) plus spread
        // samples across the whole body.
        let mut cuts: Vec<usize> = (0..64).collect();
        cuts.extend((1..50).map(|i| i * text.len() / 50));
        // len-1 would only trim the trailing newline (still a complete JSON
        // document); len-2 drops the closing brace.
        cuts.push(text.len() - 2);
        for cut in cuts {
            assert!(Checkpoint::from_json(&text[..cut]).is_err(), "{name}: cut at byte {cut}");
        }
    }
}

#[test]
fn corrupted_fields_error_cleanly() {
    let cases: &[(&str, &str)] = &[
        ("\"nodes\": 64", "\"nodes\": \"sixty-four\""), // type confusion
        ("\"round\": 4", "\"round\": -4"),              // sign corruption
        ("\"kind\": \"load\"", "\"kind\": \"warp\""),   // unknown event
        ("\"stats\": {", "\"stats\": ["),               // shape corruption
        ("\"balancer\": \"particle-plane\"", "\"balancer\": null"),
    ];
    for (name, text) in fixtures() {
        for (from, to) in cases {
            let bad = text.replacen(from, to, 1);
            assert_ne!(&bad, &text, "{name}: corruption `{from}` did not apply");
            assert!(Checkpoint::from_json(&bad).is_err(), "{name}: `{from}` -> `{to}`");
        }
    }
    // Raw binary garbage.
    assert!(Checkpoint::from_json("\u{0}\u{1}\u{2}garbage").is_err());
}

/// The text after `"key": ` on the first line that carries it.
fn value_of<'t>(text: &'t str, key: &str) -> &'t str {
    let line = text.lines().find(|l| l.trim_start().starts_with(&format!("\"{key}\": ")));
    let line = line.unwrap_or_else(|| panic!("no `{key}` in the fixture"));
    line.split_once(": ").expect("a field").1.trim_end_matches(',')
}

#[test]
fn inconsistent_or_non_finite_ledger_state_is_refused() {
    // Values no sequence of hops produces: each must be refused by the
    // parse or the restore, never restored into a run.
    let text = fixture_text();
    let count: usize = value_of(&text, "count").parse().expect("an integer");
    let set = |key: &str, to: String| {
        let from = format!("\"{key}\": {}", value_of(&text, key));
        let bad = text.replacen(&from, &format!("\"{key}\": {to}"), 1);
        assert_ne!(bad, text, "`{key}` did not apply");
        bad
    };
    let cases = [
        set("faults", (count + 1).to_string()),
        set("m2_heat", "-1.0".into()),
        set("m2_traffic", "-1e-300".into()),
        set("co_moment", "1e400".into()),
        set("weighted_traffic", "-1e400".into()),
        set("mean_heat", "null".into()),
        set("count", "-1".into()),
        set("digest", "1.5".into()),
    ];
    for (i, bad) in cases.iter().enumerate() {
        assert!(probe(bad).is_err(), "ledger case {i} was accepted");
    }
}

/// The first 64×64 `churn-faults` engine with perfbench's churn-checkpoint
/// load (Poisson arrivals at rate 40, consume rate 0.15, K = 16), captured
/// at each of `rounds`, as rendered bytes.
fn churn_checkpoints(rounds: &[u64]) -> Vec<Checkpoint> {
    let mut spec = registry::by_name("churn-faults").expect("registered");
    spec.topology = TopologySpec::Torus { dims: vec![64, 64] };
    spec.arrival = ArrivalSpec::Poisson { rate: 40.0, size_min: 0.5, size_max: 1.5 };
    spec.engine.consume_rate = 0.15;
    spec.engine.shards = 16;
    let mut engine = spec.build_engine().expect("engine");
    rounds
        .iter()
        .map(|&r| {
            engine.run_rounds(r - engine.round());
            engine.checkpoint()
        })
        .collect()
}

#[test]
fn a_churn_checkpoint_stays_small_as_the_run_goes_on() {
    // A version-1 checkpoint of this run at round 60 was 9.3 MB, 92% of
    // it ledger records. Version 2 stores the ledger's state, so the size
    // is set by the nodes, and what grows with the rounds run is the CoV
    // series alone.
    let cps = churn_checkpoints(&[20, 60]);
    let (early, late) = (&cps[0], &cps[1]);
    assert!(late.ledger.count > early.ledger.count, "the run keeps migrating");
    let late_bytes = late.to_json().len();
    assert!(late_bytes < 1_000_000, "round-60 checkpoint is {late_bytes} bytes");
    // Without the series and the state that churns from round to round
    // (resident tasks, loads in flight, pending events), the two captures
    // differ only in digits.
    let fixed = |cp: &Checkpoint| {
        let mut cp = cp.clone();
        cp.series.clear();
        cp.node_tasks.iter_mut().for_each(Vec::clear);
        cp.flights.clear();
        cp.free_slots.clear();
        cp.queue.clear();
        cp.to_json().len()
    };
    let (a, b) = (fixed(early), fixed(late));
    assert!(b.abs_diff(a) * 100 < a, "fixed part: {a} bytes at round 20, {b} at round 60");
    // The series grows by one sample per round.
    assert_eq!(late.series.len() - early.series.len(), 40);
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

/// The paths the checkpoint writer writes as `null`: the balancer state of
/// a stateless balancer and a free flight slot. Every other value retyped
/// to `null` must be refused.
fn nullable(path: &str) -> bool {
    path == ".balancer_state" || path.strip_prefix(".flights[").is_some_and(|i| !i.contains('.'))
}

#[test]
fn huge_task_size_anywhere_is_refused_or_runs_never_panics() {
    // A size of 1e308 is finite, so it parses, but the launch or landing
    // time it implies (size / bandwidth, plus the clock) need not be.
    // Every `"size"` in the fixtures — resident tasks, tasks in flight,
    // version-1 ledger records — is corrupted in turn: restore must refuse
    // it or the resumed run must step on without panicking.
    let done =
        support::sweep(&fixtures(), |line| line.ends_with("\"size\": "), |_| vec!["1e308"], probe);
    assert!(done.cases > 100, "fixture shape changed: {} sizes", done.cases);
    assert!(done.refused > 0, "no corruption was refused — is the fixture still exercised?");
}

#[test]
fn each_literal_with_one_rotating_value_is_refused_or_runs() {
    // Every numeric literal of the fixtures — header, statistics, RNG
    // words, heights, tasks, flights, the event queue, down-link words,
    // ledger and series — gets one of the probe values in turn.
    let done = support::sweep(&fixtures(), |_| true, |i| vec![VALUES[i % VALUES.len()]], probe);
    assert!(done.sites > 1000, "fixture shape changed: {} literals", done.sites);
    assert!(done.refused > 0);
}

#[test]
#[ignore = "every literal × every value: run in release (`cargo test --release --test \
            checkpoint_format each_literal -- --ignored`)"]
fn each_literal_with_every_value_is_refused_or_runs() {
    let done = support::sweep(&fixtures(), |_| true, |_| VALUES.to_vec(), probe);
    assert!(done.sites > 1000, "fixture shape changed: {} literals", done.sites);
    assert_eq!(done.cases, VALUES.len() * done.sites);
}

#[test]
fn each_value_with_one_rotating_structural_mutation_is_refused_or_runs() {
    // Every value of the fixtures gets one structural mutation in turn: a
    // key dropped, an array's first element dropped or duplicated, an
    // array emptied, or the value retyped.
    let done = support::structural_sweep(&fixtures(), true, nullable, probe);
    assert!(done.sites > 2000, "fixture shape changed: {} values", done.sites);
    assert_eq!(done.cases, done.sites);
    assert!(done.refused > 0);
}

#[test]
#[ignore = "every value × every structural mutation: run in release (`cargo test --release \
            --test checkpoint_format every_structural -- --ignored`)"]
fn every_structural_mutation_is_refused_or_runs() {
    let done = support::structural_sweep(&fixtures(), false, nullable, probe);
    assert!(done.cases > 4 * done.sites, "only {} cases", done.cases);
}

/// Writes a fresh capture of the fixture under `CARGO_TARGET_TMPDIR` and
/// prints the `cp` command that installs it; the committed fixture is never
/// touched. Run manually after an intended format change;
/// `fixture_parses_resumes_and_stays_byte_stable` keeps it honest on every
/// CI run.
#[test]
#[ignore = "writes a fresh capture to the target tmpdir; run after intended format changes"]
fn regenerate_fixture() {
    let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/checkpoint-v2.ckpt.json");
    let text = engine_at_capture_point().checkpoint().to_json();
    std::fs::write(fresh, text).expect("write fresh fixture");
    println!("fresh capture written; to install it:\n  cp {fresh} {FIXTURE}");
}
