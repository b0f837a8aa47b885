//! The mutation probes shared by the scenario and checkpoint format tests.
//! The numeric probe replaces every numeric literal of a JSON document, one
//! at a time, by hostile values; the structural probe drops each object
//! key, drops or duplicates each array's first element, empties each array
//! and retypes each value. Each mutant must be refused or run cleanly,
//! never panic, abort or hang. A watchdog aborts the process, naming the
//! case, when one case runs too long.

use serde_json::Value;
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

/// What a [`sweep`] or a [`structural_sweep`] ran.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Mutants probed.
    pub cases: usize,
    /// Literals (numeric probe) or values (structural probe) mutated.
    pub sites: usize,
    /// Mutants the probe refused with `Err`.
    pub refused: usize,
}

/// Runs the probe on one mutant under `catch_unwind` and the watchdog,
/// recording a panic against its label.
fn probe_case(
    watchdog: &Watchdog,
    label: String,
    mutant: &str,
    probe: &impl Fn(&str) -> Result<(), String>,
    done: &mut Sweep,
    panicked: &mut Vec<String>,
) {
    watchdog.now_running(label.clone());
    match catch_unwind(AssertUnwindSafe(|| probe(mutant))) {
        Ok(Ok(())) => {}
        Ok(Err(_)) => done.refused += 1,
        Err(_) => panicked.push(label),
    }
    done.cases += 1;
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
            for value in values(done.sites) {
                let label = format!("{name}: `{line}{}` -> {value}", &text[start..end]);
                let mutant = format!("{}{value}{}", &text[..start], &text[end..]);
                probe_case(&watchdog, label, &mutant, &probe, &mut done, &mut panicked);
            }
            done.sites += 1;
        }
    }
    assert!(panicked.is_empty(), "{} cases panicked:\n{}", panicked.len(), panicked.join("\n"));
    done
}

/// What a value can be retyped to.
fn retypes() -> [(&'static str, Value); 5] {
    [
        ("null", Value::Null),
        ("a string", Value::Str("x".into())),
        ("[]", Value::Array(Vec::new())),
        ("{}", Value::Object(Vec::new())),
        ("a bool", Value::Bool(true)),
    ]
}

/// The mutations of one value in place: each retype to another kind, and
/// for an array its first element dropped or duplicated and the array
/// emptied, for an object each key dropped.
fn local_mutants(v: &Value) -> Vec<(String, Value)> {
    let kind = |v: &Value| std::mem::discriminant(v);
    let mut out: Vec<(String, Value)> = retypes()
        .into_iter()
        .filter(|(_, r)| kind(r) != kind(v))
        .map(|(name, r)| (format!("retyped to {name}"), r))
        .collect();
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push(("first element dropped".into(), Value::Array(items[1..].to_vec())));
            let mut twice = items.clone();
            twice.insert(0, items[0].clone());
            out.push(("first element duplicated".into(), Value::Array(twice)));
            out.push(("emptied".into(), Value::Array(Vec::new())));
        }
        Value::Object(fields) => {
            for i in 0..fields.len() {
                let mut rest = fields.clone();
                rest.remove(i);
                out.push((format!("key `{}` dropped", fields[i].0), Value::Object(rest)));
            }
        }
        _ => {}
    }
    out
}

/// Calls `emit(label, document)` for the structural mutants of `v`, the
/// value at `path`: all of them, or with `rotate` one per value, chosen by
/// the value's pre-order index. Returns the next pre-order index.
fn structural_mutants(
    v: &Value,
    path: &str,
    index: usize,
    rotate: bool,
    emit: &mut dyn FnMut(String, Value),
) -> usize {
    let local = local_mutants(v);
    let pick = index % local.len().max(1);
    for (j, (what, m)) in local.into_iter().enumerate() {
        if !rotate || j == pick {
            emit(format!("`{path}` {what}"), m);
        }
    }
    let mut next = index + 1;
    match v {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                next =
                    structural_mutants(item, &format!("{path}[{i}]"), next, rotate, &mut |l, m| {
                        let mut copy = items.clone();
                        copy[i] = m;
                        emit(l, Value::Array(copy));
                    });
            }
        }
        Value::Object(fields) => {
            for (i, (key, item)) in fields.iter().enumerate() {
                next = structural_mutants(
                    item,
                    &format!("{path}.{key}"),
                    next,
                    rotate,
                    &mut |l, m| {
                        let mut copy = fields.clone();
                        copy[i].1 = m;
                        emit(l, Value::Object(copy));
                    },
                );
            }
        }
        _ => {}
    }
    next
}

/// Probes the structural mutants of each `(name, text)` JSON document —
/// every one, or with `rotate` one per value — rendered back to text,
/// under `catch_unwind` and the watchdog. Panics listing every case that
/// panicked.
pub fn structural_sweep(
    docs: &[(String, String)],
    rotate: bool,
    probe: impl Fn(&str) -> Result<(), String>,
) -> Sweep {
    let watchdog = Watchdog::start();
    let mut done = Sweep::default();
    let mut panicked = Vec::new();
    for (name, text) in docs {
        let doc = serde_json::from_str(text).expect("the probed document parses");
        let values = structural_mutants(&doc, "", 0, rotate, &mut |label, mutant| {
            let mutant = serde_json::to_string_pretty(&mutant).expect("a value renders");
            let label = format!("{name}: {label}");
            probe_case(&watchdog, label, &mutant, &probe, &mut done, &mut panicked);
        });
        done.sites += values;
    }
    assert!(panicked.is_empty(), "{} cases panicked:\n{}", panicked.len(), panicked.join("\n"));
    done
}
