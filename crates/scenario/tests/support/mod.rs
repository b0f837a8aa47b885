//! The numeric mutation probe shared by the scenario and checkpoint format
//! tests: every numeric literal of a JSON document is replaced, one at a
//! time, by hostile values, and each mutant must be refused or run
//! cleanly, never panic, abort or hang. A watchdog aborts the process,
//! naming the case, when one case runs too long.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The values each literal is put through: one past the `f64` range
/// (`1e400`), the largest magnitudes (`1e308`, `4294967296` = 2^32), and
/// the edges `-1` and `0`.
pub const VALUES: [&str; 5] = ["1e308", "4294967296", "1e400", "-1", "0"];

/// How long one case may take before the watchdog calls it a hang.
const CASE_LIMIT: Duration = Duration::from_secs(if cfg!(debug_assertions) { 60 } else { 10 });

/// Byte ranges of the numeric literals in JSON `text`.
pub fn numeric_literals(text: &str) -> Vec<(usize, usize)> {
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

/// What a [`sweep`] ran.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Mutants probed.
    pub cases: usize,
    /// Literals mutated.
    pub literals: usize,
    /// Mutants the probe refused with `Err`.
    pub refused: usize,
}

/// Probes every numeric literal of each `(name, text)` document whose line
/// up to the literal passes `select`, with `values(literal index)` in its
/// place, under `catch_unwind` and the watchdog. Panics listing every case
/// that panicked.
pub fn sweep(
    docs: &[(String, String)],
    select: impl Fn(&str) -> bool,
    values: impl Fn(usize) -> Vec<&'static str>,
    probe: impl Fn(&str) -> Result<(), String>,
) -> Sweep {
    let watchdog = Watchdog::start();
    let mut done = Sweep::default();
    let mut panicked = Vec::new();
    for (name, text) in docs {
        for (start, end) in numeric_literals(text) {
            let line = text[..start].rsplit('\n').next().unwrap_or("").trim_start();
            if !select(line) {
                continue;
            }
            for value in values(done.literals) {
                let label = format!("{name}: `{line}{}` -> {value}", &text[start..end]);
                let mutant = format!("{}{value}{}", &text[..start], &text[end..]);
                watchdog.now_running(label.clone());
                match catch_unwind(AssertUnwindSafe(|| probe(&mutant))) {
                    Ok(Ok(())) => {}
                    Ok(Err(_)) => done.refused += 1,
                    Err(_) => panicked.push(label),
                }
                done.cases += 1;
            }
            done.literals += 1;
        }
    }
    assert!(panicked.is_empty(), "{} cases panicked:\n{}", panicked.len(), panicked.join("\n"));
    done
}
