//! Cross-run summary statistics and fixed-width text tables for the
//! paper's claims (`pp-lab paper`) and the `pp-lab stats` comparison
//! harness.

/// Two-sided 97.5th-percentile Student-t critical values for df = 1..=30
/// (so `T975[df - 1]` is the 95%-CI multiplier at that df). Exact table
/// values; beyond df = 30 the normal 1.96 asymptote is close enough for
/// reporting purposes.
const T975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Student-t critical value for a two-sided 95% interval at `df` degrees
/// of freedom: exact table lookup for df ≤ 30, the normal-limit 1.96
/// above. `df = 0` (a single sample carries no spread information)
/// returns infinity.
pub fn t975(df: usize) -> f64 {
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => T975[d - 1],
        _ => 1.96,
    }
}

/// Mean / standard deviation / min / max over repeated runs of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; empty input yields zeros. Any NaN sample
    /// poisons *every* field (mean, stddev, min and max are all NaN), so
    /// a corrupted run can never masquerade as a plausible min/max while
    /// the mean is already NaN.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary { n: 0, mean: 0.0, stddev: 0.0, min: 0.0, max: 0.0 };
        }
        let n = samples.len();
        if samples.iter().any(|x| x.is_nan()) {
            return Summary { n, mean: f64::NAN, stddev: f64::NAN, min: f64::NAN, max: f64::NAN };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Half-width of the 95% confidence interval, `t₀.₉₇₅(n−1)·s/√n`
    /// (0 for n < 2). Uses the Student-t critical value, not the normal
    /// 1.96: at the harness's realistic replicate counts (5–10 seeds)
    /// the t value is 2.78–2.26, so the z approximation understates the
    /// interval by up to ~40%.
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t975(self.n - 1) * self.stddev / (self.n as f64).sqrt()
        }
    }
}

/// Outcome of a two-sample Welch comparison at the 95% level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The first sample's mean is significantly lower.
    Lower,
    /// The first sample's mean is significantly higher.
    Higher,
    /// No significant difference (or not enough data to tell).
    Indistinguishable,
}

impl Verdict {
    /// Stable machine-readable label (`lower` / `higher` /
    /// `indistinguishable`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Lower => "lower",
            Verdict::Higher => "higher",
            Verdict::Indistinguishable => "indistinguishable",
        }
    }
}

/// Welch's unequal-variance t-test between two summarised samples at the
/// 95% level, with the Welch–Satterthwaite degrees of freedom rounded
/// down to stay conservative. Returns the verdict for `a` relative to
/// `b` plus the t statistic and the df used. Degenerate inputs (n < 2 on
/// either side, NaN anywhere, or two zero-variance samples with equal
/// means) come back `Indistinguishable`; two zero-variance samples with
/// *different* means are trivially distinguishable.
pub fn welch_test(a: &Summary, b: &Summary) -> (Verdict, f64, usize) {
    if a.n < 2 || b.n < 2 || a.mean.is_nan() || b.mean.is_nan() {
        return (Verdict::Indistinguishable, 0.0, 0);
    }
    let va = a.stddev * a.stddev / a.n as f64;
    let vb = b.stddev * b.stddev / b.n as f64;
    if va + vb == 0.0 {
        return if a.mean < b.mean {
            (Verdict::Lower, f64::NEG_INFINITY, a.n + b.n - 2)
        } else if a.mean > b.mean {
            (Verdict::Higher, f64::INFINITY, a.n + b.n - 2)
        } else {
            (Verdict::Indistinguishable, 0.0, a.n + b.n - 2)
        };
    }
    let t = (a.mean - b.mean) / (va + vb).sqrt();
    let df_ws = (va + vb) * (va + vb) / (va * va / (a.n - 1) as f64 + vb * vb / (b.n - 1) as f64);
    let df = (df_ws.floor() as usize).max(1);
    let crit = t975(df);
    let verdict = if t < -crit {
        Verdict::Lower
    } else if t > crit {
        Verdict::Higher
    } else {
        Verdict::Indistinguishable
    };
    (verdict, t, df)
}

/// A fixed-width text table builder (`pp-lab paper` prints the paper's
/// tables with it).
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns. Widths count characters,
    /// not bytes, so cells holding `µ`, `β` or `≤` line up.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let width = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| width(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(cell));
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - width(cell)));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given number of decimals (helper for table
/// cells).
pub fn fmt(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert!(s.ci95() > 0.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95(), 0.0);
        assert_eq!(s.mean, 5.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn ci95_uses_student_t_at_small_n() {
        // n = 5 → df = 4 → t₀.₉₇₅ = 2.776, not the normal 1.96. Samples
        // with mean 3, stddev 1 make the expected half-width explicit.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        let expected = 2.776 * s.stddev / 5f64.sqrt();
        assert!((s.ci95() - expected).abs() < 1e-12, "got {}", s.ci95());
        // The old z-based value would be ~29% smaller.
        assert!(s.ci95() > 1.96 * s.stddev / 5f64.sqrt() * 1.2);
    }

    #[test]
    fn t_table_exact_then_asymptote() {
        assert_eq!(t975(1), 12.706);
        assert_eq!(t975(4), 2.776);
        assert_eq!(t975(9), 2.262);
        assert_eq!(t975(30), 2.042);
        assert_eq!(t975(31), 1.96);
        assert_eq!(t975(1000), 1.96);
        assert!(t975(0).is_infinite());
        // The table is monotone decreasing toward the normal limit.
        for df in 1..30 {
            assert!(t975(df) > t975(df + 1), "df {df}");
        }
    }

    #[test]
    fn nan_sample_poisons_every_field() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.n, 3);
        assert!(s.mean.is_nan());
        assert!(s.stddev.is_nan());
        assert!(s.min.is_nan(), "min must not silently skip the NaN");
        assert!(s.max.is_nan(), "max must not silently skip the NaN");
        assert!(s.ci95().is_nan());
    }

    #[test]
    fn welch_separated_and_overlapping_samples() {
        let low = Summary::of(&[1.0, 1.1, 0.9, 1.05, 0.95]);
        let high = Summary::of(&[5.0, 5.2, 4.8, 5.1, 4.9]);
        let (v, t, df) = welch_test(&low, &high);
        assert_eq!(v, Verdict::Lower);
        assert!(t < -2.0);
        assert!(df >= 1);
        assert_eq!(welch_test(&high, &low).0, Verdict::Higher);
        // Same distribution → indistinguishable.
        let a = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Summary::of(&[1.1, 2.1, 2.9, 4.1, 4.9]);
        assert_eq!(welch_test(&a, &b).0, Verdict::Indistinguishable);
    }

    #[test]
    fn welch_degenerate_inputs() {
        let one = Summary::of(&[2.0]);
        let many = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(welch_test(&one, &many).0, Verdict::Indistinguishable);
        let nan = Summary::of(&[1.0, f64::NAN]);
        assert_eq!(welch_test(&nan, &many).0, Verdict::Indistinguishable);
        // Two zero-variance samples: equal means tie, unequal separate.
        let flat2 = Summary::of(&[2.0, 2.0]);
        let flat2b = Summary::of(&[2.0, 2.0, 2.0]);
        let flat5 = Summary::of(&[5.0, 5.0]);
        assert_eq!(welch_test(&flat2, &flat2b).0, Verdict::Indistinguishable);
        assert_eq!(welch_test(&flat2, &flat5).0, Verdict::Lower);
        assert_eq!(welch_test(&flat5, &flat2).0, Verdict::Higher);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "22.5"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn table_pads_by_characters_not_bytes() {
        let mut t = TextTable::new(vec!["param", "value"]);
        t.row(vec!["µ_s", "0.20"]);
        t.row(vec!["tan β", "0.36"]);
        t.row(vec!["x", "1"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[1], "-".repeat(12));
        for (line, value) in [(0, "value"), (2, "0.20"), (3, "0.36"), (4, "1")] {
            assert!(lines[line].ends_with(value), "{r}");
            let start = lines[line].chars().count() - value.chars().count();
            assert_eq!(start, 7, "column 2 misaligned on line {line}:\n{r}");
        }
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_row() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn fmt_decimals() {
        assert_eq!(fmt(2.25916, 2), "2.26");
        assert_eq!(fmt(1.0, 0), "1");
    }
}
