//! Untrusted scenario JSON gives an error or a clean run, never a panic, an
//! abort or a hang. Every numeric literal of every registry scenario's
//! smoke JSON (as `pp-lab --smoke` runs it) is replaced, one at a time, by
//! hostile values: one past the `f64` range (`1e400`), the largest
//! magnitudes (`1e308`, `4294967296` = 2^32), and the edges `-1` and `0`.
//! The structural probe drops each key, drops or duplicates each array's
//! first element, empties each array and retypes each value. Each mutant
//! must fail to parse or validate, or build and run three rounds; a value
//! retyped to `null` must be refused unless `lab --spec` writes that key
//! as `null`. A watchdog aborts the process, naming the case, when one
//! case runs too long.

mod support;

use pp_scenario::registry::registry;
use pp_scenario::spec::ScenarioSpec;
use support::{numeric_literals, VALUES};

/// `pp-lab --smoke`'s round and drain caps.
const SMOKE: (u64, f64) = (8, 25.0);

/// The most nodes a probed spec is built with: the largest registry
/// scenario's (a 1024×1024 torus).
const MAX_BUILT_NODES: usize = 1 << 20;

/// Parses, builds and runs `text` for three rounds; `Err` if it is
/// rejected. A valid spec larger than any registry scenario — a duplicated
/// torus dimension makes 2^24 nodes, 4 GB — is validated but not built:
/// that measures capacity, not input handling.
fn probe(text: &str) -> Result<(), String> {
    let spec = ScenarioSpec::from_json(text)?;
    spec.validate()?;
    if spec.topology.node_count() > MAX_BUILT_NODES {
        return Err(format!("{} nodes: validated, not built", spec.topology.node_count()));
    }
    let mut engine = spec.build_engine()?;
    engine.run_rounds(3);
    engine.report();
    Ok(())
}

/// The paths `lab --spec` writes as `null` when unset; every other value
/// retyped to `null` must be refused.
fn nullable(path: &str) -> bool {
    [".balancer.arbiter", ".balancer.name", ".balancer.config.jitter", ".faults.model"]
        .contains(&path)
}

/// Every registry spec's smoke JSON, named.
fn smoke_docs() -> Vec<(String, String)> {
    registry()
        .iter()
        .map(|spec| (spec.name.clone(), spec.smoke(SMOKE.0, SMOKE.1).to_json_pretty()))
        .collect()
}

/// Runs the probe over every registry smoke spec with `values(literal
/// index)` in place of each literal; returns how many cases ran.
fn sweep(values: impl Fn(usize) -> Vec<&'static str>) -> usize {
    let done = support::sweep(&smoke_docs(), |_| true, values, probe);
    assert!(done.sites > 1000, "only {} numeric literals in the registry smoke specs", done.sites);
    done.cases
}

#[test]
fn each_literal_with_one_rotating_value_errs_or_runs() {
    let cases = sweep(|i| vec![VALUES[i % VALUES.len()]]);
    assert!(cases > 1000);
}

#[test]
#[ignore = "every literal × every value: run in release (`cargo test --release -p pp-scenario \
            --test mutation_probe -- --ignored`)"]
fn each_literal_with_every_value_errs_or_runs() {
    let cases = sweep(|_| VALUES.to_vec());
    assert!(cases > 5000);
}

#[test]
fn each_value_with_one_rotating_structural_mutation_errs_or_runs() {
    let done = support::structural_sweep(&smoke_docs(), true, nullable, probe);
    assert!(done.sites > 2000, "only {} values in the registry smoke specs", done.sites);
    assert_eq!(done.cases, done.sites);
}

#[test]
#[ignore = "every value × every structural mutation: run in release (`cargo test --release -p \
            pp-scenario --test mutation_probe every_structural -- --ignored`)"]
fn every_structural_mutation_errs_or_runs() {
    let done = support::structural_sweep(&smoke_docs(), false, nullable, probe);
    assert!(done.cases > 4 * done.sites, "only {} cases", done.cases);
}

#[test]
fn literal_scan_finds_numbers_outside_strings_only() {
    let text = r#"{"a": -1.5e-3, "b": "x1 \"2", "c": [0, 42]}"#;
    let found: Vec<&str> = numeric_literals(text).iter().map(|&(s, e)| &text[s..e]).collect();
    assert_eq!(found, ["-1.5e-3", "0", "42"]);
}
