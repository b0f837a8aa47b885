//! Untrusted scenario JSON gives an error or a clean run, never a panic, an
//! abort or a hang. Every numeric literal of every registry scenario's
//! smoke JSON (as `pp-lab --smoke` runs it) is replaced, one at a time, by
//! hostile values: one past the `f64` range (`1e400`), the largest
//! magnitudes (`1e308`, `4294967296` = 2^32), and the edges `-1` and `0`.
//! Each mutant must fail to parse or validate, or build and run three
//! rounds. A watchdog aborts the process, naming the case, when one case
//! runs too long.

use pp_scenario::registry::registry;
use pp_scenario::spec::ScenarioSpec;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The values each literal is put through.
const VALUES: [&str; 5] = ["1e308", "4294967296", "1e400", "-1", "0"];

/// `pp-lab --smoke`'s round and drain caps.
const SMOKE: (u64, f64) = (8, 25.0);

/// How long one case may take before the watchdog calls it a hang.
const CASE_LIMIT: Duration = Duration::from_secs(if cfg!(debug_assertions) { 60 } else { 10 });

/// Byte ranges of the numeric literals in JSON `text`.
fn numeric_literals(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i < bytes.len() && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e')
                {
                    i += 1;
                }
                spans.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Parses, builds and runs `text` for three rounds; `Err` if it is
/// rejected.
fn probe(text: &str) -> Result<(), String> {
    let spec = ScenarioSpec::from_json(text)?;
    let mut engine = spec.build_engine()?;
    engine.run_rounds(3);
    engine.report();
    Ok(())
}

/// Aborts the process when the case it was last told about runs past
/// [`CASE_LIMIT`]: a hang cannot be caught, only reported.
struct Watchdog {
    case: Arc<Mutex<(Instant, String)>>,
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn start() -> Watchdog {
        let case = Arc::new(Mutex::new((Instant::now(), String::new())));
        let done = Arc::new(AtomicBool::new(false));
        let (c, d) = (case.clone(), done.clone());
        std::thread::spawn(move || {
            while !d.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200));
                let (since, label) = &*c.lock().unwrap_or_else(|e| e.into_inner());
                if since.elapsed() > CASE_LIMIT && !d.load(Ordering::Relaxed) {
                    // Straight to stderr: the test harness captures
                    // `eprintln!`, and the abort would discard it.
                    let mut err = std::io::stderr();
                    let _ = writeln!(err, "probe case {label} ran past {CASE_LIMIT:?}: a hang");
                    std::process::abort();
                }
            }
        });
        Watchdog { case, done }
    }

    fn now_running(&self, label: String) {
        *self.case.lock().unwrap_or_else(|e| e.into_inner()) = (Instant::now(), label);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Runs the probe with `values(literal index)` in place of each literal and
/// returns how many cases ran; panics listing every case that panicked.
fn sweep(values: impl Fn(usize) -> Vec<&'static str>) -> usize {
    let watchdog = Watchdog::start();
    let (mut cases, mut literals) = (0, 0);
    let mut panicked = Vec::new();
    for spec in registry() {
        let text = spec.smoke(SMOKE.0, SMOKE.1).to_json_pretty();
        for (start, end) in numeric_literals(&text) {
            for value in values(literals) {
                let line = text[..start].lines().last().unwrap_or("").trim_start();
                let label = format!("{}: `{line}{}` -> {value}", spec.name, &text[start..end]);
                let mutant = format!("{}{value}{}", &text[..start], &text[end..]);
                watchdog.now_running(label.clone());
                if catch_unwind(AssertUnwindSafe(|| probe(&mutant))).is_err() {
                    panicked.push(label);
                }
                cases += 1;
            }
            literals += 1;
        }
    }
    assert!(literals > 1000, "only {literals} numeric literals in the registry smoke specs");
    assert!(panicked.is_empty(), "{} cases panicked:\n{}", panicked.len(), panicked.join("\n"));
    cases
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
fn literal_scan_finds_numbers_outside_strings_only() {
    let text = r#"{"a": -1.5e-3, "b": "x1 \"2", "c": [0, 42]}"#;
    let found: Vec<&str> = numeric_literals(text).iter().map(|&(s, e)| &text[s..e]).collect();
    assert_eq!(found, ["-1.5e-3", "0", "42"]);
}
