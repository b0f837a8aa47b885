//! Steadiness tooling over result files written by `perfbench sweep`: per
//! workload and end-to-end metric, the median and quartiles (Python's
//! `statistics.quantiles(n=4)`, the exclusive method), their spread as a
//! share of the median against the metric's bound from `BENCHMARK.json`,
//! and — for two result files — the median shift plus a Welch verdict.
//! Means, Student-t intervals and Welch tests come from
//! `pp_metrics::summary`.

use pp_metrics::summary::{welch_test, Summary};
use serde::Value;

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(data, n=4)` (method `exclusive`) computes them.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    if ld < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[(j - 1) as usize] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// One end-to-end metric's declaration in `BENCHMARK.json`.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(bench: &Value) -> Result<Vec<Declared>, String> {
    let list = bench.get("end_to_end").and_then(Value::as_array).ok_or("no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            Ok(Declared {
                name: m.field("name")?,
                lower_is_better: m.field::<String>("better")? == "lower",
                bound: m.field("bound")?,
            })
        })
        .collect()
}

/// A result file: `(workload, result)` per line, in file order.
fn load(path: &str) -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = serde_json::from_str(l).map_err(|e| format!("{path}: {e}"))?;
            let w: String = v.field("workload")?;
            let r = v.get("result").cloned().ok_or("line without `result`")?;
            Ok((w, r))
        })
        .collect()
}

fn values(rows: &[(String, Value)], workload: &str, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, r)| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The workloads in `rows`, sorted, each once.
fn workloads_of(rows: &[(String, Value)]) -> Vec<&str> {
    let mut names: Vec<&str> = rows.iter().map(|(w, _)| w.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn count(rows: &[(String, Value)], workload: &str, key: &str) -> u64 {
    rows.iter().filter(|(w, _)| w == workload).filter_map(|(_, r)| r.get(key)?.as_u64()).sum()
}

/// Prints the steadiness report for `first` (and its agreement with
/// `second`, when given). Returns whether every check held: every metric
/// has values for every workload in both files, which cover the same
/// workloads; each spread but `setup_s`'s is below a third of its bound;
/// and no median is worse than the first set's by more than its bound.
pub fn report(bench_path: &str, first: &str, second: Option<&str>) -> Result<bool, String> {
    let text = std::fs::read_to_string(bench_path)
        .map_err(|e| format!("cannot read {bench_path}: {e}"))?;
    let bench = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let metrics = declared(&bench)?;
    let a = load(first)?;
    let b = second.map(load).transpose()?;
    let workloads = workloads_of(&a);
    let mut ok = true;
    if workloads.is_empty() {
        println!("{first}: no result lines");
        ok = false;
    }
    if let Some(b) = &b {
        if workloads_of(b) != workloads {
            println!("the two files cover different workloads");
            ok = false;
        }
    }
    for w in workloads {
        let (att, fail) = (count(&a, w, "attempted"), count(&a, w, "failed"));
        println!("== {w}: failed_run_ratio {fail}/{att}");
        println!(
            "{:<16} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6} {:>14}  agreement",
            "metric", "n", "median", "q1", "q3", "spread", "bound", "mean±ci95"
        );
        for m in &metrics {
            let xs = values(&a, w, &m.name);
            let (q1, med, q3) = quartiles(&xs);
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() };
            let steady = !xs.is_empty() && (m.name == "setup_s" || spread < m.bound / 3.0);
            let s = Summary::of(&xs);
            let mut line = format!(
                "{:<16} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6} {:>14}",
                m.name,
                xs.len(),
                med,
                q1,
                q3,
                spread,
                m.bound,
                format!("{:.4}±{:.4}", s.mean, s.ci95()),
            );
            if xs.is_empty() {
                line.push_str("  NO VALUES");
                ok = false;
            } else if !steady {
                line.push_str("  SPREAD>bound/3");
                ok = false;
            }
            if let Some(b) = &b {
                let ys = values(b, w, &m.name);
                if ys.is_empty() {
                    line.push_str("  NO VALUES IN SECOND FILE");
                    ok = false;
                }
                let (_, med_b, _) = quartiles(&ys);
                let shift = if med == 0.0 { 0.0 } else { (med_b - med) / med.abs() };
                let worse = if m.lower_is_better { shift } else { -shift };
                let (verdict, t, df) = welch_test(&Summary::of(&ys), &s);
                line.push_str(&format!(
                    "  second median {med_b:.6} ({:+.2}%, welch {} t={t:.2} df={df})",
                    shift * 100.0,
                    verdict.as_str()
                ));
                if worse > m.bound {
                    line.push_str("  WORSE>bound");
                    ok = false;
                }
            }
            println!("{line}");
        }
        if fail > 0 {
            ok = false;
        }
    }
    println!("{}", if ok { "steady: every check held" } else { "steady: CHECKS FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
