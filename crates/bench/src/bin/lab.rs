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
//! ```
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
//! metadata.
//!
//! `--strategy tick|event` overrides how rounds advance: `tick` sweeps
//! every round (the reference), `event` fast-forwards quiescent rounds via
//! the wake scheduler. Like the layout knobs, the strategy never changes an
//! outcome — reports are byte-identical either way (see ADR-006).
//!
//! `--verify` enforces all of these at once with the differential harness
//! ([`pp_scenario::differential`]): every registered scenario, capped to a
//! few rounds, runs under both strategies, the layouts `(1, 1)`, `(4, 2)`,
//! `(8, 1)`, `(8, 4)` and its own, straight and resumed from a half-way
//! checkpoint under the other strategy and layout, and — when it sets a
//! repartition knob — with the knob off, its own and frozen. Each report
//! must match the sequential tick reference byte for byte; a mismatch
//! names the scenario, the variant and the first diverging round.
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
use pp_sim::strategy::SimulationStrategy;
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

fn write_report(g: &GoldenReport, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
    }
    std::fs::write(path, g.to_canonical_json()).map_err(|e| format!("cannot write {path:?}: {e}"))
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
                if let Err(e) = write_report(&g, Path::new(path)) {
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
    strategy: Option<&str>,
) -> ExitCode {
    let mut all = registry::registry();
    for s in &mut all {
        if let Err(code) = apply_overrides(s, shards, threads, strategy) {
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
                    if let Err(e) = write_report(&g, &path) {
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
                if let Err(e) = write_report(&g, &path) {
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
/// under both strategies, the [`VERIFY_LAYOUTS`] plus its own layout,
/// straight and split at half-way, and — for a spec with a repartition
/// knob — with the knob off, its own and frozen. Every variant's report
/// must match the `K = 1` tick reference byte for byte (see
/// [`pp_scenario::differential`]). Horizons are capped directly, not via
/// `smoke()` (which leaves event horizons alone), so every variant runs
/// the same rounds; a knob spec gets 24 rounds so its `every = 8` knob
/// fires several times.
fn cmd_verify() -> ExitCode {
    let all = registry::registry();
    let mut broken = Vec::new();
    for base in &all {
        let mut spec = base.clone();
        let cap = if spec.engine.repartition.is_some() { 24 } else { SMOKE_ROUNDS };
        spec.duration.rounds = spec.duration.rounds.min(cap);
        spec.duration.drain = spec.duration.drain.min(SMOKE_DRAIN);
        let mut layouts = VERIFY_LAYOUTS.to_vec();
        let own = (spec.engine.shards, spec.engine.threads);
        if !layouts.contains(&own) {
            layouts.push(own);
        }
        let matrix = Matrix {
            strategies: vec![SimulationStrategy::Tick, SimulationStrategy::Event],
            layouts,
            splits: vec![None, Some((spec.duration.rounds / 2).max(1))],
        };
        match differential::check(&spec, &matrix) {
            Ok(variants) => println!("  {:28} OK ({variants} variants)", spec.name),
            Err(e) => {
                eprintln!("  MISMATCH {e}");
                broken.push(spec.name);
            }
        }
    }
    if broken.is_empty() {
        println!("all {} scenarios are invariant under the verify matrix", all.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("\nreport invariance broken for {broken:?}");
        ExitCode::FAILURE
    }
}

/// The `lab stats ...` subcommand: the statistical comparison harness.
/// Parses its own flags so the global single-run/golden plumbing stays
/// untouched.
fn cmd_stats(args: &[String]) -> ExitCode {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    for f in ["--set", "--seeds", "--out", "--check", "--shards", "--threads"] {
        if flag(f) && opt(f).is_none() {
            eprintln!("{f} requires a value");
            return usage();
        }
    }
    if let Some(path) = opt("--check") {
        return match pp_bench::read_artifact(&path)
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
    let seeds: usize = match opt("--seeds").as_deref().unwrap_or("5").parse() {
        Ok(n) => n,
        Err(_) => return usage(),
    };
    let smoke = flag("--smoke").then_some((SMOKE_ROUNDS, SMOKE_DRAIN));
    let layout = if opt("--shards").is_some() || opt("--threads").is_some() {
        let parse = |v: Option<String>| v.map(|s| s.parse::<usize>()).transpose();
        match (parse(opt("--shards")), parse(opt("--threads"))) {
            (Ok(k), Ok(t)) => Some((k.unwrap_or(0), t.unwrap_or(0))),
            _ => return usage(),
        }
    } else {
        None
    };
    match stats::run_stats(&set, seeds, smoke, layout) {
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
                let path = Path::new(&path);
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        if let Err(e) = std::fs::create_dir_all(dir) {
                            eprintln!("cannot create {dir:?}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if let Err(e) = std::fs::write(path, report.to_canonical_json()) {
                    eprintln!("cannot write {path:?}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("[stats report: {}]", path.display());
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
        "usage: lab --list\n       lab <name> [--smoke] [--shards K] [--threads T] [--strategy \
         tick|event] [--out PATH]\n       lab --file SPEC.json [--smoke] [--shards K] [--threads \
         T] [--strategy tick|event] [--out PATH]\n       lab --spec <name>\n       lab --all \
         [--smoke] [--shards K] [--threads T] [--strategy tick|event] [--out-dir DIR]\n       lab \
         --check PATH\n       lab --emit-golden DIR\n       lab --verify-golden DIR\n       lab \
         <name|--file SPEC.json> --checkpoint-every N [--checkpoint-path P]\n       lab \
         <name|--file SPEC.json> --resume-from CKPT.json\n       lab --verify\n       lab stats --list\n       lab stats --set S [--seeds R] [--smoke] [--shards K] [--threads T] [--out PATH]\n       lab \
         stats --check PATH"
    );
    ExitCode::FAILURE
}

/// Applies the `--shards`/`--threads`/`--strategy` CLI overrides to a
/// spec's engine knobs (a parse failure falls through to `usage`).
fn apply_overrides(
    spec: &mut ScenarioSpec,
    shards: Option<&str>,
    threads: Option<&str>,
    strategy: Option<&str>,
) -> Result<(), ExitCode> {
    if let Some(k) = shards {
        spec.engine.shards = k.parse().map_err(|_| usage())?;
    }
    if let Some(t) = threads {
        spec.engine.threads = t.parse().map_err(|_| usage())?;
    }
    if let Some(s) = strategy {
        spec.engine.strategy = s.parse().map_err(|e: String| {
            eprintln!("{e}");
            usage()
        })?;
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
    // The stats harness is a self-contained subcommand with its own flags.
    if args.first().map(String::as_str) == Some("stats") {
        return cmd_stats(&args[1..]);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let smoke = flag("--smoke");
    let shards = opt("--shards");
    let threads = opt("--threads");
    let strategy = opt("--strategy");
    let ckpt_every = opt("--checkpoint-every");
    let ckpt_path = opt("--checkpoint-path");
    let resume = opt("--resume-from");

    // A checkpoint/resume flag with its value missing (e.g. a shell
    // variable that expanded empty left `--resume-from` trailing) must not
    // silently degrade into a plain run — the operator would believe a
    // resume happened or restart points were written.
    for f in ["--checkpoint-every", "--checkpoint-path", "--resume-from"] {
        if flag(f) && opt(f).is_none() {
            eprintln!("{f} requires a value");
            return usage();
        }
    }

    // The checkpoint/resume flags only make sense for a single run
    // (`lab <name>` / `lab --file`). Combining them with any other command
    // is rejected up front — dropping them silently would leave the user
    // believing checkpoints were written (or a resume happened) when
    // nothing of the sort occurred.
    let single_run_opts = ckpt_every.is_some() || ckpt_path.is_some() || resume.is_some();
    let other_command = flag("--list")
        || flag("--all")
        || flag("--verify")
        || ["--check", "--spec", "--emit-golden", "--verify-golden"]
            .iter()
            .any(|f| opt(f).is_some());
    if single_run_opts && other_command {
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
        return cmd_check(&path);
    }
    if let Some(name) = opt("--spec") {
        return cmd_spec(&name);
    }
    if let Some(dir) = opt("--emit-golden") {
        return cmd_emit_golden(&dir);
    }
    if let Some(dir) = opt("--verify-golden") {
        return cmd_verify_golden(&dir);
    }
    if flag("--verify") {
        return cmd_verify();
    }
    if flag("--all") {
        return cmd_all(
            smoke,
            opt("--out-dir").as_deref(),
            shards.as_deref(),
            threads.as_deref(),
            strategy.as_deref(),
        );
    }
    if let Some(path) = opt("--file") {
        let text = match std::fs::read_to_string(&path) {
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
        if let Err(code) =
            apply_overrides(&mut spec, shards.as_deref(), threads.as_deref(), strategy.as_deref())
        {
            return code;
        }
        if let Err(code) =
            apply_checkpoint_overrides(&mut spec, ckpt_every.as_deref(), ckpt_path.as_deref())
        {
            return code;
        }
        return cmd_run(&spec, smoke, opt("--out").as_deref(), resume.as_deref());
    }
    // First non-flag argument that is not the value of a value-taking
    // flag is the scenario name (`lab --out r.json hotspot-torus` and
    // `lab hotspot-torus --out r.json` both work).
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
        "--strategy",
        "--checkpoint-every",
        "--checkpoint-path",
        "--resume-from",
    ];
    let name = args.iter().enumerate().find_map(|(i, a)| {
        let is_flag_value = i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str());
        (!a.starts_with("--") && !is_flag_value).then(|| a.clone())
    });
    match name {
        Some(name) => match registry::by_name(&name) {
            Some(mut spec) => {
                if let Err(code) = apply_overrides(
                    &mut spec,
                    shards.as_deref(),
                    threads.as_deref(),
                    strategy.as_deref(),
                ) {
                    return code;
                }
                if let Err(code) = apply_checkpoint_overrides(
                    &mut spec,
                    ckpt_every.as_deref(),
                    ckpt_path.as_deref(),
                ) {
                    return code;
                }
                cmd_run(&spec, smoke, opt("--out").as_deref(), resume.as_deref())
            }
            None => {
                eprintln!("unknown scenario `{name}`; try --list");
                ExitCode::FAILURE
            }
        },
        None => usage(),
    }
}
