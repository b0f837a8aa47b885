//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--mini]
//! perfbench sweep --workload <name> --seeds A-B [--seconds S] --out FILE
//! perfbench steady FILE [SECOND_FILE] [--bench BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics from a
//! traced run (`--trace 1`). `sweep` runs the first form untraced once per
//! seed, each in its own process, and appends the result lines to FILE; `steady`
//! summarises such files (see `stats`). See `README.md` for the metrics.

mod measure;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use std::process::{Command, ExitCode, Stdio};
use workloads::Scale;

/// The default workload seed when `--seed` is omitted.
const DEFAULT_SEED: u64 = 1;
/// The default measuring time when `--seconds` is omitted.
const DEFAULT_SECONDS: f64 = 25.0;

/// `--key value` options after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        let pos = self.0.iter().position(|a| a == key)?;
        self.0.get(pos + 1).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {key}")),
        }
    }
}

/// Where runs write their checkpoint and trace files: the build directory
/// (`CARGO_TARGET_DIR`, else `.bench_build`) under the working directory.
fn io_dir() -> String {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    format!("{base}/perfbench")
}

/// The host facts results depend on.
fn host_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cache = |idx: u32| {
        std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size"))
            .map_or_else(|_| "?".into(), |s| s.trim().to_string())
    };
    format!("host: available_parallelism={cores} L2={} L3={}", cache(2), cache(3))
}

fn result_line(outcome: &measure::Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let v = if value.is_finite() { value } else { 0.0 };
            let entry =
                vec![("value".into(), Value::Float(v)), ("unit".into(), Value::Str(unit.into()))];
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && outcome.metrics.iter().all(|m| m.1.is_finite());
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(outcome.attempted as u64)),
        ("failed".into(), Value::UInt(outcome.failed as u64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serialization is total")
}

fn bench(args: &Args) -> Result<(), String> {
    let name = args.get("--workload").ok_or("missing --workload")?;
    let seed: u64 = args.parse("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parse("--seconds", DEFAULT_SECONDS)?;
    let trace = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let scale = if args.has("--mini") { Scale::Mini } else { Scale::Full };
    let dir = io_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let w = workloads::generate(name, seed, scale, &dir).ok_or_else(|| {
        format!("unknown workload `{name}` (known: {})", workloads::NAMES.join(", "))
    })?;
    println!("{}", host_line());
    println!(
        "workload: {} seed={seed} nodes={} rounds={} shards={} workers={}",
        w.name,
        w.spec.topology.node_count(),
        w.spec.duration.rounds,
        w.spec.engine.shards,
        w.spec.engine.threads
    );
    let mut tracer = trace::Tracer::new(trace);
    let outcome = if trace {
        measure::per_layer(&w, seconds, &mut tracer)
    } else {
        measure::end_to_end(&w, seconds)
    };
    if let Some(ck) = &w.spec.checkpoint {
        let _ = std::fs::remove_file(&ck.path);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    if trace {
        let path = format!("{dir}/trace-{}-seed{seed}.json", w.name);
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("spans: {path}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<24} {value:>16.6} {unit}");
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

/// Runs the benchmark untraced once per seed, each in its own process,
/// appending `{"workload", "seed", "result"}` lines to `--out`.
fn sweep(args: &Args) -> Result<(), String> {
    use std::io::Write;
    let name = args.get("--workload").ok_or("missing --workload")?;
    let seeds = args.get("--seeds").ok_or("missing --seeds A-B")?;
    let (lo, hi) = seeds.split_once('-').ok_or("--seeds takes A-B")?;
    let (lo, hi): (u64, u64) =
        (lo.parse().map_err(|_| "bad --seeds")?, hi.parse().map_err(|_| "bad --seeds")?);
    let out = args.get("--out").ok_or("missing --out")?;
    let default_seconds = DEFAULT_SECONDS.to_string();
    let seconds = args.get("--seconds").unwrap_or(&default_seconds);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for seed in lo..=hi {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", seconds, "--trace", "0"])
            .stderr(Stdio::inherit());
        let started = std::time::Instant::now();
        let output = cmd.output().map_err(|e| format!("cannot run {exe:?}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("").to_string();
        let result = serde_json::from_str(&last)
            .map_err(|e| format!("seed {seed}: no result line ({e}); exit {}", output.status))?;
        let line = Value::Object(vec![
            ("workload".into(), Value::Str(name.into())),
            ("seed".into(), Value::UInt(seed)),
            ("result".into(), result),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("cannot open {out}: {e}"))?;
        let text = serde_json::to_string(&line).expect("result serialization is total");
        writeln!(file, "{text}").map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("{name} seed {seed}: {:.1}s wall", started.elapsed().as_secs_f64());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = argv.first().cloned().unwrap_or_default();
    let outcome = match sub.as_str() {
        "sweep" => sweep(&Args(argv.split_off(1))),
        "steady" => {
            let args = Args(argv.split_off(1));
            let files: Vec<&str> = args
                .0
                .iter()
                .enumerate()
                .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args.0[i - 1] != "--bench"))
                .map(|(_, a)| a.as_str())
                .collect();
            let bench = args.get("--bench").unwrap_or("BENCHMARK.json");
            match files.as_slice() {
                [first] => stats::report(bench, first, None),
                [first, second] => stats::report(bench, first, Some(second)),
                _ => Err("steady takes one or two result files".into()),
            }
            .and_then(|ok| if ok { Ok(()) } else { Err("steadiness checks failed".into()) })
        }
        _ => bench(&Args(argv)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
