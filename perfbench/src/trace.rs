//! In-memory spans around the benchmark's calls into each layer's public
//! functions. Spans stay in a `Vec` until the run ends; a disabled tracer
//! runs the wrapped call and records nothing.

use serde::Value;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `sim.run_rounds`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run: self.run });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Per span name, in first-seen order: `(name, count, total_ns,
    /// self_ns)`, where a span's self time is its duration minus the time
    /// its child spans cover (children run one after another on the
    /// benchmark's thread, so their durations add).
    pub fn self_times(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    rows.push((s.name, 0, 0, 0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.ns();
            row.3 += s.ns().saturating_sub(covered);
        }
        rows
    }

    /// All spans as a JSON array (written out when the run ends).
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("run".into(), Value::UInt(u64::from(s.run))),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Array(spans)).expect("span serialization is total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let rows = tr.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").expect("outer row");
        let inner = rows.iter().find(|r| r.0 == "inner").expect("inner row");
        assert_eq!((outer.1, inner.1), (1, 2));
        assert_eq!(inner.2, inner.3, "leaf spans are all self time");
        assert_eq!(outer.3, outer.2 - inner.2);
        assert!(tr.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.self_times().is_empty());
    }
}
