//! The differential harness: a scenario's report must not depend on how
//! the run was executed. One [`check`] runs a [`ScenarioSpec`] under every
//! [`Variant`] of a [`Matrix`] — `(shards, threads)` layout × resume split
//! × repartition knob — and compares each against a single reference run:
//! `K = 1`, `T = 1` (the skip-free sequential pipeline), straight through,
//! repartitioning off and the checkpoint knob off (the harness never
//! writes files). A `K ≥ 2` variant with a quiescence-stable policy skips
//! clean shards and fast-forwards effect-free rounds, so the comparison
//! checks that skipping too.
//! Equality means byte-identical canonical [`GoldenReport`] JSON, without
//! the layout metadata line, *and* an equal [`RunReport`] (every
//! migration-ledger record included).
//!
//! A split variant runs its first half under its own layout, checkpoints
//! through the serialized JSON form, and resumes the second half in a
//! fresh engine under the next layout of the matrix, so layout crossover
//! — from `K = 1` to `K ≥ 2` and back, when the matrix lists both — costs
//! no extra runs. Random split points turn a matrix into a kill-and-resume
//! chaos test.
//!
//! For a spec that sets a repartition knob the matrix gains a fourth axis:
//! the knob off, the spec's own knob, and [`FROZEN`] (measures skew every
//! round, never fires). Two more checks ride on it: a frozen run never
//! repartitions, and the spec's own knob fires at least once when run
//! straight at the spec's own layout — a gate whose knob never fires
//! verifies nothing.
//!
//! On a mismatch the error names the scenario, the variant and the first
//! diverging round (the first unequal `cov_series` sample); when the series
//! agree it names the first unequal report field or ledger record.
//!
//! ```
//! use pp_scenario::differential::{check, Matrix};
//! use pp_scenario::registry;
//!
//! let spec = registry::by_name("faulty-torus").unwrap().smoke(4, 10.0);
//! // K = 1 and K = 3, each split at round 2 and resumed under the other.
//! let matrix = Matrix { layouts: vec![(1, 1), (3, 1)], splits: vec![Some(2)] };
//! assert_eq!(check(&spec, &matrix), Ok(2));
//! ```

use crate::report::GoldenReport;
use crate::spec::ScenarioSpec;
use pp_sim::checkpoint::Checkpoint;
use pp_sim::engine::{RepartitionConfig, RunReport};
use std::fmt;

/// The repartition knob that measures load skew every round and can never
/// fire (ADR-008's frozen configuration).
pub const FROZEN: RepartitionConfig = RepartitionConfig { every: 1, skew_threshold: f64::INFINITY };

/// The axes [`check`] runs a spec under. The repartition axis is implied:
/// it applies only to specs that set a knob.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// `(shards, threads)` layouts (`0` = auto, as in the spec knobs).
    pub layouts: Vec<(usize, usize)>,
    /// `Some(at)`: run `at` rounds, checkpoint, resume the rest in a fresh
    /// engine; `None`: run straight through.
    pub splits: Vec<Option<u64>>,
}

/// Which repartition knob a variant runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repartition {
    /// No repartitioning (the reference).
    Off,
    /// The spec's own knob, whatever it is.
    Own,
    /// [`FROZEN`].
    Frozen,
}

/// One way of executing a spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    /// Layout of the run, or of its first half.
    pub layout: (usize, usize),
    /// `(round, layout)` the second half resumes at and under.
    pub resume: Option<(u64, (usize, usize))>,
    /// The repartition knob (the same in both halves).
    pub repartition: Repartition,
}

/// The reference every variant is compared with.
const REFERENCE: Variant = Variant { layout: (1, 1), resume: None, repartition: Repartition::Off };

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (k, t) = self.layout;
        write!(f, "K={k} T={t}")?;
        if let Some((at, (k, t))) = self.resume {
            write!(f, ", split at {at} -> K={k} T={t}")?;
        }
        match self.repartition {
            Repartition::Own => Ok(()),
            Repartition::Off => f.write_str(", knob off"),
            Repartition::Frozen => f.write_str(", knob frozen"),
        }
    }
}

impl Matrix {
    /// Every variant of `spec` the matrix spans, in a fixed order, less the
    /// one that is the reference itself.
    pub fn variants(&self, spec: &ScenarioSpec) -> Vec<Variant> {
        let modes: &[Repartition] = match spec.engine.repartition {
            Some(_) => &[Repartition::Off, Repartition::Own, Repartition::Frozen],
            None => &[Repartition::Own],
        };
        let mut all = Vec::new();
        for &repartition in modes {
            for (i, &layout) in self.layouts.iter().enumerate() {
                let next = self.layouts[(i + 1) % self.layouts.len()];
                for &split in &self.splits {
                    let resume = split.map(|at| (at, next));
                    let v = Variant { layout, resume, repartition };
                    if resume.is_some() || spec_for(spec, &v) != spec_for(spec, &REFERENCE) {
                        all.push(v);
                    }
                }
            }
        }
        all
    }
}

/// `spec` configured for (the first half of) `v`, checkpoint knob off.
fn spec_for(spec: &ScenarioSpec, v: &Variant) -> ScenarioSpec {
    let mut s = spec.clone();
    s.checkpoint = None;
    (s.engine.shards, s.engine.threads) = v.layout;
    s.engine.repartition = match v.repartition {
        Repartition::Off => None,
        Repartition::Own => spec.engine.repartition,
        Repartition::Frozen => Some(FROZEN),
    };
    s
}

/// Runs `spec` as `v` describes; returns the report and the adaptive
/// repartitions summed over both halves of a split run.
pub fn run_variant(spec: &ScenarioSpec, v: &Variant) -> Result<(RunReport, u64), String> {
    let first = spec_for(spec, v);
    let mut engine = first.build_engine()?;
    let mut repartitions = 0;
    if let Some((at, layout)) = v.resume {
        engine.run_rounds(at.min(first.duration.rounds));
        let text = engine.checkpoint().to_json();
        repartitions += engine.repartitions();
        drop(engine);
        let second = spec_for(spec, &Variant { layout, resume: None, ..*v });
        engine = second.build_engine()?;
        engine.restore(&Checkpoint::from_json(&text)?)?;
    }
    first.finish_engine(&mut engine)?;
    Ok((engine.report(), repartitions + engine.repartitions()))
}

/// Runs `spec` under every variant of `matrix` and compares each with the
/// reference run; returns how many variants passed. `Err` names the
/// scenario, the variant and what diverged.
pub fn check(spec: &ScenarioSpec, matrix: &Matrix) -> Result<usize, String> {
    check_with(spec, matrix, run_variant)
}

/// [`check`] with the variant runner supplied by the caller (the reference
/// is run by it too) — how a test feeds the harness a known divergence.
pub fn check_with(
    spec: &ScenarioSpec,
    matrix: &Matrix,
    run: impl Fn(&ScenarioSpec, &Variant) -> Result<(RunReport, u64), String>,
) -> Result<usize, String> {
    let text = |r: &RunReport| {
        GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), r)
            .to_canonical_json()
    };
    let fail = |v: &Variant, why: String| format!("scenario `{}` [{v}]: {why}", spec.name);
    let (want, _) = run(spec, &REFERENCE).map_err(|e| fail(&REFERENCE, e))?;
    let want_text = text(&want);
    let variants = matrix.variants(spec);
    for v in &variants {
        let (got, fired) = run(spec, v).map_err(|e| fail(v, e))?;
        let got_text = text(&got);
        if got_text != want_text || got != want {
            return Err(fail(v, divergence((&want_text, &want), (&got_text, &got))));
        }
        let native = v.layout == (spec.engine.shards, spec.engine.threads) && v.resume.is_none();
        match v.repartition {
            Repartition::Frozen if fired > 0 => {
                return Err(fail(v, format!("frozen knob repartitioned {fired} times")));
            }
            Repartition::Own if spec.engine.repartition.is_some() && native && fired == 0 => {
                return Err(fail(v, "the knob never fired at the spec's own layout".into()));
            }
            _ => {}
        }
    }
    Ok(variants.len())
}

/// Names what differs between the reference and a variant: the first
/// unequal CoV sample (sample `i` is taken after round `i`), else the first
/// unequal report field, else the first unequal ledger record.
fn divergence(
    (want_text, want): (&str, &RunReport),
    (got_text, got): (&str, &RunReport),
) -> String {
    let (a, b) = (want.series.points(), got.series.points());
    let bits = |p: Option<&(f64, f64)>| p.map(|&(t, c)| (t.to_bits(), c.to_bits()));
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| bits(a.get(i)) != bits(b.get(i))) {
        return format!(
            "first diverging round {i}: cov_series sample {i} is {:?}, the reference has {:?}",
            b.get(i),
            a.get(i)
        );
    }
    if let Some((line, _)) = want_text.lines().zip(got_text.lines()).find(|(a, b)| a != b) {
        let field = line.trim().split(':').next().unwrap_or(line).trim_matches('"');
        return format!("cov_series agrees; first unequal field `{field}`");
    }
    let (a, b) = (want.ledger.records(), got.ledger.records());
    match (0..a.len().max(b.len())).find(|&j| a.get(j) != b.get(j)) {
        Some(j) => format!("reports agree but migration ledger record {j} differs"),
        None => "reports differ outside the golden fields and the ledger".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec::ArrivalSpec;

    #[test]
    fn variants_cover_the_matrix_less_the_reference() {
        let spec = registry::by_name("hotspot-torus").expect("registered");
        let m = Matrix { layouts: vec![(1, 1), (4, 2)], splits: vec![None, Some(3)] };
        let all = m.variants(&spec);
        // 2 layouts × 2 splits, less the reference itself.
        assert_eq!(all.len(), 3);
        assert!(!all.contains(&REFERENCE));
        // A split resumes under the next layout: K ≥ 2 → K = 1 and back.
        let split =
            Variant { layout: (4, 2), resume: Some((3, (1, 1))), repartition: Repartition::Own };
        assert!(all.contains(&split));
        assert_eq!(split.to_string(), "K=4 T=2, split at 3 -> K=1 T=1");
        let back =
            Variant { layout: (1, 1), resume: Some((3, (4, 2))), repartition: Repartition::Own };
        assert!(all.contains(&back));
        // A knob adds the off / own / frozen axis.
        let adaptive = registry::by_name("hotspot16k-adaptive").expect("registered");
        assert_eq!(m.variants(&adaptive).len(), 3 * 4 - 1);
    }

    #[test]
    fn a_known_divergence_names_its_round_and_variant() {
        // The variant resumed at round 3 under K=4 lands one extra task at
        // t = 5.5, between rounds 5 and 6: the run diverges at round 6.
        let spec = registry::by_name("faulty-torus").expect("registered").smoke(8, 10.0);
        let m = Matrix { layouts: vec![(4, 2)], splits: vec![None, Some(3)] };
        let err = check_with(&spec, &m, |s, v| {
            let mut s = s.clone();
            if v.resume.is_some() {
                s.arrival = ArrivalSpec::Replay { events: vec![(5.5, 9, 1.0)] };
            }
            run_variant(&s, v)
        })
        .expect_err("the injected arrival must be caught");
        assert!(
            err.starts_with("scenario `faulty-torus` [K=4 T=2, split at 3 -> K=4 T=2]"),
            "{err}"
        );
        assert!(err.contains("first diverging round 6:"), "{err}");
        // The straight variant before it passed: the error is the split's.
        assert!(check(&spec, &Matrix { splits: vec![None], ..m }).is_ok());
    }

    #[test]
    fn a_field_only_divergence_names_the_field() {
        let spec = registry::by_name("hotspot-torus").expect("registered").smoke(3, 5.0);
        let m = Matrix { layouts: vec![(3, 1)], splits: vec![None] };
        let err = check_with(&spec, &m, |s, v| {
            let (mut report, fired) = run_variant(s, v)?;
            if v.layout == (3, 1) {
                report.completed_tasks += 1;
            }
            Ok((report, fired))
        })
        .expect_err("an extra completed task must be caught");
        assert!(err.ends_with("cov_series agrees; first unequal field `completed_tasks`"), "{err}");
    }
}
