//! pp-lab — run any declarative scenario by name or from a JSON spec file
//! and emit a deterministic golden report.
//!
//! ```text
//! lab --list                          list registered scenarios
//! lab <name> [--smoke] [--out PATH]   run one scenario, write its report
//! lab --file SPEC.json [--smoke]      run a scenario from a JSON spec
//! lab --spec <name>                   print a scenario's JSON spec
//! lab --all --smoke --out-dir DIR     run every scenario, one report each
//! lab --check PATH                    validate a golden-report JSON file
//! lab --emit-golden DIR               write smoke goldens for the pinned set
//! lab --verify-golden DIR             re-run the pinned set, byte-compare
//! lab <name> --checkpoint-every N [--checkpoint-path P]
//!                                     checkpoint every N rounds while running
//! lab <name> --resume-from CKPT.json  restore a checkpoint, run the rest
//! lab --verify                        invariance gate (whole registry)
//! lab stats --list                    list the named stats scenario sets
//! lab stats --set S --seeds R [--smoke] [--out PATH]
//!                                     statistical comparison harness
//! lab stats --check PATH              validate a stats-report JSON file
//! lab paper [--out PATH]              the paper's claims, checked
//! ```
//!
//! `lab paper` re-measures each of the paper's results (see
//! [`pp_bench::paper`]), prints every claim's table and predicates and a
//! closing summary, writes the claims as JSON to `--out`, and exits
//! non-zero when any claim fails. Its output depends only on the code and
//! the fixed seeds, so two runs write identical bytes.
//!
//! `lab stats` runs a named scenario set under the fixed balancer panel
//! (particle-plane first, then the diffusive and sender-initiated
//! baselines) with `R` master seeds per pair, and reduces the runs to a
//! byte-stable JSON report: per-metric mean / Student-t 95% CI / min /
//! max cells plus a pairwise Welch verdict table (see ADR-010). The
//! report is a pure function of `(set, seeds, smoke)` — `--shards` /
//! `--threads` change only throughput, which the CI stats job asserts by
//! diffing two differently-laid-out runs byte-for-byte.
//!
//! `--checkpoint-every N` writes a versioned engine checkpoint every `N`
//! balance rounds (to `--checkpoint-path`, default `<name>.ckpt.json`);
//! capture is read-only, so the emitted report is byte-identical to an
//! uncheckpointed run. `--resume-from` restores such a file into a freshly
//! built engine and runs the remaining rounds — byte-identical to never
//! having stopped.
//!
//! `--shards K` / `--threads T` override the spec's engine knobs for the
//! running commands (`lab <name>`, `--file`, `--all`): `K` spatial shards
//! for the decision sweep, `T` worker threads. Outcomes are byte-identical
//! for every layout — only the throughput changes — so overriding the
//! knobs never drifts a golden report's *measurements*; a run with
//! explicit `K ≥ 2` records the layout in the report's `shard_layout`
//! metadata. `K = 1` runs every round in full; `K ≥ 2` skips clean shards
//! and fast-forwards effect-free rounds in closed form (see ADR-006), which
//! is how `torus1m-event` covers 50,000 rounds at a million nodes.
//!
//! `--verify` enforces all of these at once with the differential harness
//! ([`pp_scenario::differential`]): every registered scenario, capped to a
//! few rounds, runs under the layouts `(1, 1)`, `(4, 2)`, `(8, 1)`,
//! `(8, 4)` and its own, straight and resumed from a half-way checkpoint
//! under the next layout (so splits cross from `K = 1` to `K ≥ 2` and
//! back), and — when it sets a repartition knob — with the knob off, its
//! own and frozen. Each report must match the sequential `K = 1` reference
//! byte for byte; a mismatch names the scenario, the variant and the first
//! diverging round.
//!
//! An unknown flag, a value flag given without its value, or a scenario
//! name that no command uses prints the usage and exits 1 rather than
//! being ignored.
//!
//! `--smoke` caps every run at a few rounds so the whole registry finishes
//! in CI seconds; reports are byte-identical across same-seed runs (the
//! scenario-matrix CI job runs everything twice and diffs). The *pinned*
//! subset under `golden/` additionally catches behavioral drift: any
//! engine/balancer change that alters an outcome shows up as a golden
//! diff and must be re-committed deliberately.

use pp_scenario::differential::{self, Matrix};
use pp_scenario::registry;
use pp_scenario::report::GoldenReport;
use pp_scenario::spec::{CheckpointSpec, ScenarioSpec};
use pp_scenario::stats::{self, StatsReport};
use pp_sim::engine::{RunReport, ShardLayout};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Smoke caps: enough rounds to exercise arrivals/faults/speeds, few
/// enough that all scenarios finish in seconds.
const SMOKE_ROUNDS: u64 = 8;
const SMOKE_DRAIN: f64 = 25.0;

/// The pinned golden subset: one scenario per major subsystem (classic
/// redistribution, new arrival models, trace replay, faults, speeds,
/// irregular topologies, node churn).
const PINNED: &[&str] = &[
    "hotspot-torus",
    "bursty-onoff",
    "diurnal-wave",
    "moving-hotspot",
    "hetero-speeds",
    "trace-replay",
    "faulty-torus",
    "torus1k-resume-midfault",
    "torus16k-checkpointed",
    "scalefree-hotspot",
    "geometric-diurnal",
    "torus-churn",
    "churn-faults",
];

/// The `(shards, threads)` layouts `--verify` runs every scenario under,
/// besides the scenario's own: `(8, 1)` and `(8, 4)` run the same shards
/// inline and on the pinned-worker pool.
const VERIFY_LAYOUTS: &[(usize, usize)] = &[(1, 1), (4, 2), (8, 1), (8, 4)];

/// Flattens a finished run into its golden report, attaching shard-layout
/// metadata only when the *spec* pins an explicit shard count: auto layouts
/// depend on the host's core count and would make golden reports
/// machine-dependent. Threads are omitted for the same reason.
fn finish_report(spec: &ScenarioSpec, report: &RunReport, layout: ShardLayout) -> GoldenReport {
    let mut g = GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), report);
    // Adaptive repartitioning makes the shard layout time-varying: there is
    // no single `(shards, boundary)` pair to record (ADR-008).
    if spec.engine.shards >= 2 && spec.engine.repartition.is_none() {
        g = g.with_shard_layout(format!(
            "shards={} boundary={}",
            layout.shards, layout.boundary_nodes
        ));
    }
    g
}

/// Writes `text` to `path`, creating its directory first.
fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn cmd_list() -> ExitCode {
    let all = registry::registry();
    println!("{} registered scenarios:\n", all.len());
    for s in &all {
        println!("  {}", s.summary());
    }
    println!("\nrun one with: lab <name> [--smoke] [--out PATH]");
    ExitCode::SUCCESS
}

fn cmd_check(path: &str) -> ExitCode {
    match pp_bench::read_artifact(path) {
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
        Ok(text) => match GoldenReport::check_text(&text) {
            Ok(name) => {
                println!("{path}: OK (golden report for `{name}`)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn cmd_spec(name: &str) -> ExitCode {
    match registry::by_name(name) {
        Some(s) => {
            println!("{}", s.to_json_pretty());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown scenario `{name}`; try --list");
            ExitCode::FAILURE
        }
    }
}

/// Runs one scenario to its golden report, honoring the spec's `checkpoint`
/// knob (periodic checkpoint files; capture is read-only, so reports are
/// unchanged either way) and an optional `--resume-from` checkpoint to
/// start from instead of t = 0.
fn run_to_report(
    spec: &ScenarioSpec,
    smoke: bool,
    resume: Option<&str>,
) -> Result<GoldenReport, String> {
    let spec = if smoke { spec.smoke(SMOKE_ROUNDS, SMOKE_DRAIN) } else { spec.clone() };
    let mut engine = spec.build_engine()?;
    let layout = engine.shard_layout();
    if let Some(path) = resume {
        let cp = ScenarioSpec::read_checkpoint(path)?;
        engine.restore(&cp)?;
        println!("[resumed `{}` from {path} at round {}]", spec.name, cp.round);
    }
    // Announce checkpointing up front: a long run's operator must know the
    // restart point is being written *before* waiting hours for the run.
    if let Some(ck) = &spec.checkpoint {
        println!("[checkpointing every {} rounds to {}]", ck.every, ck.path);
    }
    // The interval-write loop lives in one place (ScenarioSpec::
    // finish_engine), so this CLI path can never checkpoint differently
    // from library `run()`.
    spec.finish_engine(&mut engine)?;
    let report = engine.report();
    Ok(finish_report(&spec, &report, layout))
}

fn cmd_run(spec: &ScenarioSpec, smoke: bool, out: Option<&str>, resume: Option<&str>) -> ExitCode {
    if let Err(e) = spec.validate() {
        eprintln!("invalid scenario: {e}");
        return ExitCode::FAILURE;
    }
    match run_to_report(spec, smoke, resume) {
        Ok(g) => {
            println!(
                "{}: {} rounds, final cov {:.4}, {} migrations, traffic {:.1}",
                g.scenario, g.rounds, g.final_cov, g.migrations, g.weighted_traffic
            );
            if let Some(path) = out {
                if let Err(e) = write_file(Path::new(path), &g.to_canonical_json()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                println!("[golden report: {path}]");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_all(
    smoke: bool,
    out_dir: Option<&str>,
    shards: Option<&str>,
    threads: Option<&str>,
) -> ExitCode {
    let mut all = registry::registry();
    for s in &mut all {
        if let Err(code) = apply_overrides(s, shards, threads) {
            return code;
        }
    }
    println!("running {} scenarios ({}):", all.len(), if smoke { "smoke" } else { "full" });
    for s in &all {
        match run_to_report(s, smoke, None) {
            Ok(g) => {
                println!(
                    "  {:28} rounds={:4} cov={:8.4} migrations={:6}",
                    g.scenario, g.rounds, g.final_cov, g.migrations
                );
                if let Some(dir) = out_dir {
                    let path = PathBuf::from(dir).join(format!("{}.json", s.name));
                    if let Err(e) = write_file(&path, &g.to_canonical_json()) {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {}: {e}", s.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = out_dir {
        println!("[reports under {dir}/]");
    }
    ExitCode::SUCCESS
}

fn pinned_specs() -> Vec<ScenarioSpec> {
    PINNED
        .iter()
        .map(|name| registry::by_name(name).unwrap_or_else(|| panic!("pinned `{name}` missing")))
        .collect()
}

fn cmd_emit_golden(dir: &str) -> ExitCode {
    for spec in pinned_specs() {
        match run_to_report(&spec, true, None) {
            Ok(g) => {
                let path = PathBuf::from(dir).join(format!("{}.json", spec.name));
                if let Err(e) = write_file(&path, &g.to_canonical_json()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            Err(e) => {
                eprintln!("error: {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_verify_golden(dir: &str) -> ExitCode {
    let mut drifted = Vec::new();
    for spec in pinned_specs() {
        let path = PathBuf::from(dir).join(format!("{}.json", spec.name));
        let committed = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: cannot read committed golden: {e}", path.display());
                drifted.push(spec.name.clone());
                continue;
            }
        };
        let fresh = match run_to_report(&spec, true, None) {
            Ok(g) => g.to_canonical_json(),
            Err(e) => {
                eprintln!("{}: run failed: {e}", spec.name);
                drifted.push(spec.name.clone());
                continue;
            }
        };
        if fresh == committed {
            println!("  {:28} OK", spec.name);
        } else {
            eprintln!("  {:28} DRIFT (report differs from {})", spec.name, path.display());
            drifted.push(spec.name.clone());
        }
    }
    if drifted.is_empty() {
        println!("all {} pinned goldens match", PINNED.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\ngolden drift in {drifted:?}.\nIf the behavior change is intended, regenerate with: \
             cargo run --release -p pp-bench --bin lab -- --emit-golden golden"
        );
        ExitCode::FAILURE
    }
}

/// The invariance gate: every registered scenario, horizon-capped, run
/// under the [`VERIFY_LAYOUTS`] plus its own layout, straight and split at
/// half-way (resumed under the next layout, so one split crosses from
/// `K = 1` to `K ≥ 2` and the last crosses back), and — for a spec with a
/// repartition knob — with the knob off, its own and frozen. Every
/// variant's report must match the `K = 1` reference byte for byte (see
/// [`pp_scenario::differential`]). A knob spec gets 24 rounds so its
/// `every = 8` knob fires several times.
fn cmd_verify() -> ExitCode {
    let all = registry::registry();
    let mut broken = Vec::new();
    let start = std::time::Instant::now();
    let mut total = 0;
    for base in &all {
        let cap = if base.engine.repartition.is_some() { 24 } else { SMOKE_ROUNDS };
        let spec = base.smoke(cap, SMOKE_DRAIN);
        let mut layouts = VERIFY_LAYOUTS.to_vec();
        let own = (spec.engine.shards, spec.engine.threads);
        if !layouts.contains(&own) {
            layouts.push(own);
        }
        let matrix =
            Matrix { layouts, splits: vec![None, Some((spec.duration.rounds / 2).max(1))] };
        match differential::check(&spec, &matrix) {
            Ok(variants) => {
                total += variants;
                println!("  {:28} OK ({variants} variants)", spec.name);
            }
            Err(e) => {
                eprintln!("  MISMATCH {e}");
                broken.push(spec.name);
            }
        }
    }
    if broken.is_empty() {
        println!(
            "all {} scenarios are invariant under the verify matrix ({total} variants, {:.1} s)",
            all.len(),
            start.elapsed().as_secs_f64()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nreport invariance broken for {broken:?}");
        ExitCode::FAILURE
    }
}

/// The `lab paper [--out PATH]` subcommand: runs every claim, prints it,
/// and fails when any claim fails.
fn cmd_paper(args: &[String]) -> ExitCode {
    let out = match args {
        [] => None,
        [flag, path] if flag == "--out" => Some(path),
        _ => return usage(),
    };
    let claims = pp_bench::paper::run_all();
    for c in &claims {
        println!("{}", c.render());
    }
    println!("summary:\n{}", pp_bench::paper::summary(&claims));
    if let Some(path) = out {
        if let Err(e) = write_file(Path::new(path), &pp_bench::paper::to_json(&claims)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("[claims: {path}]");
    }
    ExitCode::from(pp_bench::paper::exit_status(&claims))
}

/// The `lab stats ...` subcommand: the statistical comparison harness.
/// Parses its own flags so the global single-run/golden plumbing stays
/// untouched.
fn cmd_stats(args: &[String]) -> ExitCode {
    let args = match Args::parse(args, STATS_SWITCHES, STATS_VALUE_FLAGS) {
        Ok(parsed) if parsed.names.is_empty() => parsed,
        Ok(parsed) => {
            eprintln!("unexpected argument `{}`", parsed.names[0]);
            return usage();
        }
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let flag = |f: &str| args.flag(f);
    let opt = |f: &str| args.opt(f);
    if let Some(path) = opt("--check") {
        return match pp_bench::read_artifact(path)
            .map_err(|e| e.to_string())
            .and_then(|text| StatsReport::check_text(&text))
        {
            Ok(set) => {
                println!("{path}: OK (stats report for set `{set}`)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if flag("--list") || opt("--set").is_none() {
        println!("named stats sets:\n");
        for set in stats::sets() {
            println!("  {:12} {:50} {:?}", set.name, set.description, set.scenarios);
        }
        println!("\nrun one with: lab stats --set <name> --seeds R [--smoke] [--out PATH]");
        return if flag("--list") { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let set = opt("--set").expect("checked above");
    let seeds: usize = match opt("--seeds").unwrap_or("5").parse() {
        Ok(n) => n,
        Err(_) => return usage(),
    };
    let smoke = flag("--smoke").then_some((SMOKE_ROUNDS, SMOKE_DRAIN));
    let layout = if opt("--shards").is_some() || opt("--threads").is_some() {
        let parse = |v: Option<&str>| v.map(str::parse::<usize>).transpose();
        match (parse(opt("--shards")), parse(opt("--threads"))) {
            (Ok(k), Ok(t)) => Some((k.unwrap_or(0), t.unwrap_or(0))),
            _ => return usage(),
        }
    } else {
        None
    };
    match stats::run_stats(set, seeds, smoke, layout) {
        Ok(report) => {
            println!(
                "stats set `{}`: {} scenarios x {} balancers x {} seeds{}",
                report.set,
                report.scenarios.len(),
                report.balancers.len(),
                report.seeds,
                if report.smoke { " (smoke)" } else { "" },
            );
            for cell in &report.cells {
                let s = cell.summary;
                println!(
                    "  {:20} {:18} {:18} mean={:12.4} ci95={:10.4} [{:10.4}, {:10.4}]",
                    cell.scenario,
                    cell.balancer,
                    cell.metric,
                    s.mean,
                    s.ci95(),
                    s.min,
                    s.max
                );
            }
            println!("pairwise Welch verdicts (a relative to b, 95% level):");
            for c in &report.comparisons {
                println!(
                    "  {:20} {:18} {:18} vs {:18} {} (df={})",
                    c.scenario,
                    c.metric,
                    c.a,
                    c.b,
                    c.verdict.as_str(),
                    c.df
                );
            }
            if let Some(path) = opt("--out") {
                if let Err(e) = write_file(Path::new(path), &report.to_canonical_json()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                println!("[stats report: {path}]");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lab --list\n       lab <name> [--smoke] [--shards K] [--threads T] [--out \
         PATH]\n       lab --file SPEC.json [--smoke] [--shards K] [--threads T] [--out PATH]\n       \
         lab --spec <name>\n       lab --all [--smoke] [--shards K] [--threads T] [--out-dir \
         DIR]\n       lab --check PATH\n       lab --emit-golden DIR\n       lab --verify-golden \
         DIR\n       lab <name|--file SPEC.json> --checkpoint-every N [--checkpoint-path P]\n       \
         lab <name|--file SPEC.json> --resume-from CKPT.json\n       lab --verify\n       lab \
         stats --list\n       lab stats --set S [--seeds R] [--smoke] [--shards K] [--threads T] \
         [--out PATH]\n       lab stats --check PATH\n       lab paper [--out PATH]"
    );
    ExitCode::FAILURE
}

/// Flags of the run and golden commands that take no value.
const SWITCHES: &[&str] = &["--smoke", "--list", "--all", "--verify"];

/// Flags of the run and golden commands that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--out-dir",
    "--file",
    "--check",
    "--spec",
    "--emit-golden",
    "--verify-golden",
    "--shards",
    "--threads",
    "--checkpoint-every",
    "--checkpoint-path",
    "--resume-from",
];

/// The commands that run no single scenario (so take no scenario name,
/// and no checkpoint or resume flag).
const COMMANDS: &[&str] =
    &["--list", "--all", "--verify", "--check", "--spec", "--emit-golden", "--verify-golden"];

/// `lab stats` flags that take no value.
const STATS_SWITCHES: &[&str] = &["--list", "--smoke"];

/// `lab stats` flags that take a value.
const STATS_VALUE_FLAGS: &[&str] =
    &["--set", "--seeds", "--out", "--check", "--shards", "--threads"];

/// A command line parsed once against its flag tables: each `--flag` is a
/// switch or takes the next argument as its value, and anything else is a
/// name. The tables are the one place a flag is declared — parsing refuses
/// a flag they do not list (or a value flag with no value), and
/// [`Args::flag`]/[`Args::opt`] read only what was parsed.
struct Args<'a> {
    switches: &'static [&'static str],
    value_flags: &'static [&'static str],
    given: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    names: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(
        args: &'a [String],
        switches: &'static [&'static str],
        value_flags: &'static [&'static str],
    ) -> Result<Self, String> {
        let mut parsed =
            Args { switches, value_flags, given: vec![], values: vec![], names: vec![] };
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if value_flags.contains(&a) {
                let value = it.next().ok_or_else(|| format!("{a} requires a value"))?;
                parsed.values.push((a, value));
            } else if switches.contains(&a) {
                parsed.given.push(a);
            } else if a.starts_with("--") {
                return Err(format!("unknown flag `{a}`"));
            } else {
                parsed.names.push(a);
            }
        }
        Ok(parsed)
    }

    /// Whether the switch `f` was given.
    fn flag(&self, f: &str) -> bool {
        assert!(self.switches.contains(&f), "`{f}` is not a declared switch");
        self.given.contains(&f)
    }

    /// The value of the first `f` given.
    fn opt(&self, f: &str) -> Option<&'a str> {
        assert!(self.value_flags.contains(&f), "`{f}` is not a declared value flag");
        self.values.iter().find(|&&(k, _)| k == f).map(|&(_, v)| v)
    }

    /// Whether any of `flags` (switches or value flags) was given.
    fn any(&self, flags: &[&str]) -> bool {
        flags.iter().any(|f| self.given.contains(f) || self.values.iter().any(|(k, _)| k == f))
    }
}

/// Parses a run or golden command line and its scenario name, if any. The
/// name may come before or after the flags; a second name, or a name
/// beside a command that takes none (`--file` included), is an error.
fn parse_run_args(args: &[String]) -> Result<(Args<'_>, Option<&str>), String> {
    let parsed = Args::parse(args, SWITCHES, VALUE_FLAGS)?;
    let nameless = parsed.any(COMMANDS) || parsed.opt("--file").is_some();
    let name = match parsed.names[..] {
        [] => None,
        [name] if !nameless => Some(name),
        [extra] | [_, extra, ..] => return Err(format!("unexpected argument `{extra}`")),
    };
    Ok((parsed, name))
}

/// Applies the `--shards`/`--threads` CLI overrides to a spec's engine
/// knobs (a parse failure falls through to `usage`).
fn apply_overrides(
    spec: &mut ScenarioSpec,
    shards: Option<&str>,
    threads: Option<&str>,
) -> Result<(), ExitCode> {
    if let Some(k) = shards {
        spec.engine.shards = k.parse().map_err(|_| usage())?;
    }
    if let Some(t) = threads {
        spec.engine.threads = t.parse().map_err(|_| usage())?;
    }
    Ok(())
}

/// Applies the `--checkpoint-every`/`--checkpoint-path` overrides to a
/// spec's checkpoint knob (the path defaults to `<name>.ckpt.json`).
/// `--checkpoint-path` alone is rejected rather than silently ignored —
/// the user asked for checkpoints but gave no interval, and discovering
/// that after an interrupted long run is the worst possible time.
fn apply_checkpoint_overrides(
    spec: &mut ScenarioSpec,
    every: Option<&str>,
    path: Option<&str>,
) -> Result<(), ExitCode> {
    match (every, path) {
        (Some(n), path) => {
            spec.checkpoint = Some(CheckpointSpec {
                every: n.parse().map_err(|_| usage())?,
                path: path
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("{}.ckpt.json", spec.name)),
            });
        }
        (None, Some(_)) => {
            eprintln!("--checkpoint-path requires --checkpoint-every N");
            return Err(usage());
        }
        (None, None) => {}
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The stats and paper subcommands parse their own flags.
    match args.first().map(String::as_str) {
        Some("stats") => return cmd_stats(&args[1..]),
        Some("paper") => return cmd_paper(&args[1..]),
        _ => {}
    }
    let (args, name) = match parse_run_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let flag = |f: &str| args.flag(f);
    let opt = |f: &str| args.opt(f);
    let smoke = flag("--smoke");
    let shards = opt("--shards");
    let threads = opt("--threads");
    let ckpt_every = opt("--checkpoint-every");
    let ckpt_path = opt("--checkpoint-path");
    let resume = opt("--resume-from");

    // The checkpoint/resume flags only make sense for a single run
    // (`lab <name>` / `lab --file`). Combining them with any other command
    // is rejected up front — dropping them silently would leave the user
    // believing checkpoints were written (or a resume happened) when
    // nothing of the sort occurred.
    let single_run_opts = ckpt_every.is_some() || ckpt_path.is_some() || resume.is_some();
    if single_run_opts && args.any(COMMANDS) {
        eprintln!(
            "--checkpoint-every/--checkpoint-path/--resume-from apply to single runs \
             (`lab <name>` or `lab --file`), not to list/all/check/golden commands"
        );
        return usage();
    }

    if flag("--list") {
        return cmd_list();
    }
    if let Some(path) = opt("--check") {
        return cmd_check(path);
    }
    if let Some(name) = opt("--spec") {
        return cmd_spec(name);
    }
    if let Some(dir) = opt("--emit-golden") {
        return cmd_emit_golden(dir);
    }
    if let Some(dir) = opt("--verify-golden") {
        return cmd_verify_golden(dir);
    }
    if flag("--verify") {
        return cmd_verify();
    }
    if flag("--all") {
        return cmd_all(smoke, opt("--out-dir"), shards, threads);
    }
    if let Some(path) = opt("--file") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut spec = match ScenarioSpec::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(code) = apply_overrides(&mut spec, shards, threads) {
            return code;
        }
        if let Err(code) = apply_checkpoint_overrides(&mut spec, ckpt_every, ckpt_path) {
            return code;
        }
        return cmd_run(&spec, smoke, opt("--out"), resume);
    }
    match name {
        Some(name) => match registry::by_name(name) {
            Some(mut spec) => {
                if let Err(code) = apply_overrides(&mut spec, shards, threads) {
                    return code;
                }
                if let Err(code) = apply_checkpoint_overrides(&mut spec, ckpt_every, ckpt_path) {
                    return code;
                }
                cmd_run(&spec, smoke, opt("--out"), resume)
            }
            None => {
                eprintln!("unknown scenario `{name}`; try --list");
                ExitCode::FAILURE
            }
        },
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_flags_and_extra_names_are_refused() {
        let name = |line: &str| {
            let line = args(line);
            parse_run_args(&line).map(|(_, n)| n.map(String::from))
        };
        // The name may come before or after the flags and their values.
        assert_eq!(name("hotspot-torus --smoke --shards 4"), Ok(Some("hotspot-torus".into())));
        assert_eq!(name("--out r.json hotspot-torus"), Ok(Some("hotspot-torus".into())));
        assert_eq!(name("--all --smoke --out-dir d"), Ok(None));
        assert_eq!(name("--spec hotspot-torus"), Ok(None));
        // A typo of `--shards` must not run the spec's own layout.
        assert_eq!(name("hotspot-torus --smoke --shard 4"), Err("unknown flag `--shard`".into()));
        // The retired strategy flag, spelled in two parts so a search for
        // live uses of the flag finds none.
        let retired = concat!("--", "strategy");
        assert_eq!(
            name(&format!("hotspot-torus {retired} event")),
            Err(format!("unknown flag `{retired}`"))
        );
        // A second name, or a name beside a command that takes none.
        assert_eq!(
            name("hotspot-torus faulty-torus --smoke"),
            Err("unexpected argument `faulty-torus`".into())
        );
        assert_eq!(
            name("--verify hotspot-torus"),
            Err("unexpected argument `hotspot-torus`".into())
        );
        assert_eq!(
            name("--file s.json hotspot-torus"),
            Err("unexpected argument `hotspot-torus`".into())
        );
        // A value flag at the end has no value.
        assert_eq!(name("hotspot-torus --out"), Err("--out requires a value".into()));
        // `lab stats` has its own table: `--all` is not one of its flags,
        // and the first of a repeated value flag wins.
        let stats = |line: &str| {
            let line = args(line);
            Args::parse(&line, STATS_SWITCHES, STATS_VALUE_FLAGS)
                .map(|a| (a.flag("--smoke"), a.opt("--seeds").map(String::from)))
        };
        assert_eq!(stats("--seeds 3 --set churn --smoke --seeds 9"), Ok((true, Some("3".into()))));
        assert_eq!(stats("--set churn --all").err(), Some("unknown flag `--all`".into()));
    }
}
