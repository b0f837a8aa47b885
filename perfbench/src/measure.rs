//! One benchmark run of one workload: set-up, repeated timed repetitions,
//! the output check, and (traced) the per-layer measurements.
//!
//! A *repetition* takes a freshly built engine from round 0 to the rendered
//! golden report. Untraced repetitions run `Engine::run_rounds` in one call
//! (or one call per checkpoint interval); traced repetitions call it one
//! round at a time inside a span, and wrap every other layer call too.
//!
//! The output check compares each repetition's report digest with a
//! reference run of the same spec and seed down another path (see
//! [`Reference`]). The reference runs after the repetitions, so it neither
//! raises their memory high-water mark nor shares their time window.

use crate::trace::Tracer;
use crate::workloads::{Reference, Workload};
use pp_core::balancer::ParticlePlaneBalancer;
use pp_metrics::shard::ShardAccum;
use pp_scenario::report::GoldenReport;
use pp_scenario::spec::{write_checkpoint, BalancerSpec, ScenarioSpec};
use pp_sim::balancer::{build_view, LinkView, LoadBalancer, ViewScratch};
use pp_sim::checkpoint::Checkpoint;
use pp_sim::engine::{Engine, RunReport};
use pp_sim::pool::ShardPool;
use pp_topology::graph::NodeId;
use pp_topology::partition::Partition;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Repetitions an untraced run makes even when one outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// Replay passes over the end-of-run state (the median pass is reported).
const REPLAY_PASSES: usize = 5;
/// No-op barrier rounds per timed batch, and batches.
const BARRIER_ROUNDS: usize = 2000;
const BARRIER_BATCHES: usize = 7;
/// Workers of the pool `pool.barrier_ns` times. The measured runs pin one
/// worker, which the engine runs inline without a pool, so the barrier is
/// timed with the two workers the reference runs use, at the measured K.
const BARRIER_WORKERS: usize = 2;

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run prints as its result line.
pub struct Outcome {
    /// Repetitions attempted.
    pub attempted: usize,
    /// Repetitions whose output check failed or that panicked.
    pub failed: usize,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// A 64-bit digest of everything a [`RunReport`] records (every float by
/// its bits), so repetitions are checked against the reference without
/// keeping their ledgers alive.
pub fn fingerprint(r: &RunReport) -> u64 {
    let mut h = DefaultHasher::new();
    r.balancer.hash(&mut h);
    r.rounds.hash(&mut h);
    for x in [r.time, r.total_load, r.in_flight_load] {
        x.to_bits().hash(&mut h);
    }
    r.completed_tasks.hash(&mut h);
    format!("{:?}", r.final_imbalance).hash(&mut h);
    for &(t, c) in r.series.points() {
        (t.to_bits(), c.to_bits()).hash(&mut h);
    }
    let l = &r.ledger;
    for x in [l.total_load_moved(), l.total_weighted_traffic(), l.total_heat()] {
        x.to_bits().hash(&mut h);
    }
    l.fault_count().hash(&mut h);
    for m in l.records() {
        (m.time.to_bits(), m.from, m.to, m.size.to_bits()).hash(&mut h);
        (m.link_weight.to_bits(), m.heat.to_bits(), m.faulted).hash(&mut h);
    }
    h.finish()
}

/// The output check's reference: the same spec and seed down another path.
fn reference_fingerprint(w: &Workload) -> Result<u64, String> {
    let mut spec = w.spec.clone();
    spec.checkpoint = None;
    let report = match w.reference {
        Reference::Layout { shards, threads } => {
            spec.engine.shards = shards;
            spec.engine.threads = threads;
            spec.run()?
        }
        Reference::SplitResume { at, shards, threads } => {
            spec.engine.shards = shards;
            spec.engine.threads = threads;
            split_resume(&spec, at)?
        }
    };
    Ok(fingerprint(&report))
}

/// Whether `Engine::restore` accepts a checkpoint taken now. It rejects an
/// in-flight total that float drift left a few ulps below zero (seen at
/// -2e-12 once nothing is in flight), so the benchmark checkpoints for
/// restoring only where the total reads non-negative.
fn restorable(in_flight_load: f64) -> bool {
    in_flight_load >= 0.0
}

/// `ScenarioSpec::run_split`, with the split moved past rounds that are not
/// [`restorable`]: run to `at`, checkpoint, encode, decode, restore into a
/// fresh engine, then run the remaining rounds and the drain.
fn split_resume(spec: &ScenarioSpec, at: u64) -> Result<RunReport, String> {
    let mut first = spec.build_engine()?;
    first.run_rounds(at);
    while !restorable(first.in_flight_load()) && first.round() < spec.duration.rounds {
        first.run_rounds(1);
    }
    let cp = Checkpoint::from_json(&first.checkpoint().to_json())?;
    drop(first);
    let mut resumed = spec.build_engine()?;
    resumed.restore(&cp)?;
    resumed.run_rounds(spec.duration.rounds - cp.round).drain(spec.duration.drain);
    Ok(resumed.report())
}

/// CPU seconds the whole process has used: every thread, live or ended,
/// in user and kernel mode (`CLOCK_PROCESS_CPUTIME_ID`).
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` has the layout of `struct timespec` on 64-bit Linux, the
    // only targets the benchmark runs on (it reads `/proc` too), and the
    // call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Set-up: parse the generated spec and build its engine. Returns the CPU
/// seconds both took.
fn setup(json: &str, tr: &mut Tracer) -> Result<(ScenarioSpec, Engine, f64), String> {
    let start = process_cpu_s();
    let spec = tr.span("scenario.from_json", |_| ScenarioSpec::from_json(json))?;
    let engine = tr.span("scenario.build_engine", |_| spec.build_engine())?;
    Ok((spec, engine, process_cpu_s() - start))
}

/// What one repetition measured.
struct Rep {
    /// Wall seconds of the whole repetition, and inside `run_rounds`.
    run_s: f64,
    rounds_s: f64,
    /// Process CPU seconds of the same two windows.
    cpu_s: f64,
    cpu_rounds_s: f64,
    rounds: u64,
    sweep: ShardAccum,
    executed_rounds: u64,
    repartitions: u64,
    fingerprint: u64,
    mean_cov: f64,
    ledger_records: usize,
    fault_ratio: f64,
    series_len: usize,
    ckpt_bytes: usize,
}

/// One repetition on a freshly built `engine`, honouring the spec's
/// checkpoint knob exactly as `ScenarioSpec::finish_engine` does. Traced,
/// the last [`restorable`] checkpoint is also decoded and restored into a
/// fresh engine, which must finish to the same report.
fn run_rep(spec: &ScenarioSpec, engine: &mut Engine, tr: &mut Tracer) -> Result<Rep, String> {
    let total = spec.duration.rounds;
    let every = spec.checkpoint.as_ref().map(|c| c.every);
    let step = if tr.enabled() { 1 } else { every.unwrap_or(total).max(1) };
    let (mut rounds_s, mut cpu_rounds_s) = (0.0, 0.0);
    let mut last_ckpt: Option<(u64, String)> = None;
    let (start, cpu_start) = (Instant::now(), process_cpu_s());
    while engine.round() < total {
        let n = step.min(total - engine.round());
        let (t, cpu) = (Instant::now(), process_cpu_s());
        tr.span("sim.run_rounds", |_| {
            engine.run_rounds(n);
        });
        rounds_s += t.elapsed().as_secs_f64();
        cpu_rounds_s += process_cpu_s() - cpu;
        if let (Some(ck), Some(every)) = (&spec.checkpoint, every) {
            if engine.round().is_multiple_of(every) || engine.round() == total {
                let cp = tr.span("sim.checkpoint", |_| engine.checkpoint());
                if tr.enabled() {
                    let text = tr.span("sim.ckpt_encode", |_| cp.to_json());
                    if restorable(cp.in_flight_load) {
                        last_ckpt = Some((cp.round, text));
                    }
                }
                tr.span("scenario.write_checkpoint", |_| write_checkpoint(&cp, &ck.path))?;
            }
        }
    }
    tr.span("sim.drain", |_| {
        engine.drain(spec.duration.drain);
    });
    let report = tr.span("sim.report", |_| engine.report());
    let golden = tr.span("scenario.golden", |_| {
        let n = spec.topology.node_count();
        GoldenReport::from_run(&spec.name, spec.seed, n, &report).to_canonical_json()
    });
    let run_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_start;
    GoldenReport::check_text(&golden)?;
    if report.rounds != total {
        return Err(format!("ran {} of {total} rounds", report.rounds));
    }
    let fp = fingerprint(&report);
    let ckpt_bytes = last_ckpt.as_ref().map_or(0, |(_, text)| text.len());
    if let Some((round, text)) = last_ckpt {
        let cp = tr.span("sim.ckpt_decode", |_| Checkpoint::from_json(&text))?;
        drop(text);
        let mut resumed = spec.build_engine()?;
        tr.span("sim.restore", |_| resumed.restore(&cp))?;
        resumed.run_rounds(total - round).drain(spec.duration.drain);
        if fingerprint(&resumed.report()) != fp {
            return Err("the restored checkpoint finished to a different report".into());
        }
    }
    let ledger = &report.ledger;
    let cov = report.series.points();
    Ok(Rep {
        run_s,
        rounds_s,
        cpu_s,
        cpu_rounds_s,
        rounds: total,
        sweep: engine.shard_stats(),
        executed_rounds: engine.executed_rounds(),
        repartitions: engine.repartitions(),
        fingerprint: fp,
        mean_cov: cov.iter().map(|p| p.1).sum::<f64>() / cov.len().max(1) as f64,
        ledger_records: ledger.records().len(),
        fault_ratio: ratio(ledger.fault_count() as f64, ledger.migration_count() as f64),
        series_len: cov.len(),
        ckpt_bytes,
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The smallest of `xs` (infinite for none).
fn fastest(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// Median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `/proc/self/status` field in MiB (`VmRSS`, `VmHWM`).
pub fn proc_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f`, turning an error or a panic into `None` (logged to stderr).
fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Some(v),
        Ok(Err(e)) => {
            eprintln!("perfbench: {what} failed: {e}");
            None
        }
        Err(_) => {
            eprintln!("perfbench: {what} panicked");
            None
        }
    }
}

/// One set-up plus repetition, with the set-up's CPU seconds; `None` when
/// either failed or panicked.
fn attempt(json: &str, tr: &mut Tracer) -> Option<(f64, Rep)> {
    let (spec, mut engine, setup_s) = guarded("set-up", || setup(json, tr))?;
    let rep = guarded("repetition", || run_rep(&spec, &mut engine, tr))?;
    Some((setup_s, rep))
}

/// The output check: runs the reference, then keeps only the repetitions
/// whose digest matches it (none when the reference itself failed).
/// Returns `(attempted, failed)`.
fn check(w: &Workload, reps: &mut [Option<Rep>]) -> (usize, usize) {
    let reference = guarded("reference run", || reference_fingerprint(w));
    for slot in reps.iter_mut() {
        if slot.as_ref().is_some_and(|r| Some(r.fingerprint) != reference) {
            eprintln!("perfbench: repetition output differs from the reference run");
            *slot = None;
        }
    }
    (reps.len(), reps.iter().filter(|r| r.is_none()).count())
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(w: &Workload, seconds: f64) -> Outcome {
    let json = w.spec.to_json_pretty();
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    let mut peak_mb = 0.0;
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let done = attempt(&json, &mut tr).map(|(setup_s, rep)| {
            setups.push(setup_s);
            rep
        });
        // The footprint of one set-up and repetition in a fresh process;
        // later repetitions only add what the allocator kept from earlier
        // ones, which varies from run to run.
        if reps.is_empty() {
            peak_mb = proc_mb("VmHWM");
        }
        reps.push(done);
    }
    let (attempted, failed) = check(w, &mut reps);
    let ok: Vec<&Rep> = reps.iter().flatten().collect();
    // Every set-up and every repetition of a run does the same work, so
    // the spread between them is the host's. Other tenants on the shared
    // cores slowed single repetitions by up to 1.8× for seconds at a time,
    // and medians swung with them from run to run. The timings are
    // therefore the fastest ones, and in CPU time, which leaves out the
    // time the process waited for a core: with two busy-looping processes
    // on the two cores, churn-checkpoint's fastest repetition took 78%
    // longer in wall time and 5% longer in CPU time.
    let cpu_rounds_s = fastest(ok.iter().map(|r| r.cpu_rounds_s));
    let (rounds, decisions) =
        ok.first().map_or((0.0, 0.0), |r| (r.rounds as f64, r.sweep.nodes_evaluated as f64));
    let wall_s = median(&ok.iter().map(|r| r.run_s).collect::<Vec<_>>());
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("run_cpu_s", fastest(ok.iter().map(|r| r.cpu_s)), "s"),
            ("rounds_per_cpu_s", rounds / cpu_rounds_s, "1/s"),
            ("cpu_ns_per_decision", cpu_rounds_s * 1e9 / decisions, "ns"),
            ("setup_s", fastest(setups.iter().copied()), "s"),
            ("peak_rss_mb", peak_mb, "MB"),
            ("mean_cov", median(&ok.iter().map(|r| r.mean_cov).collect::<Vec<_>>()), "ratio"),
        ],
        notes: vec![
            format!("repetitions: {attempted} ({failed} failed)"),
            format!("median repetition wall time: {wall_s:.6} s"),
        ],
    }
}

/// `decide_into` and `build_view` replayed over every node of the
/// end-of-run state (all links taken as up): one pass builds views only,
/// the other builds views and decides. Returns `(view_ns, decide_ns)` per
/// node from the median passes.
fn replay(spec: &ScenarioSpec, engine: &Engine, tr: &mut Tracer) -> (f64, f64) {
    let BalancerSpec::ParticlePlane { config, arbiter, .. } = &spec.balancer else {
        return (0.0, 0.0);
    };
    let mut balancer = ParticlePlaneBalancer::new(*config);
    if let Some(a) = arbiter {
        balancer = balancer.with_arbiter(*a);
    }
    let state = engine.state();
    let n = state.node_count();
    let weights = state.links().weights(spec.engine.weight_c);
    let links = LinkView {
        attrs: state.links().attrs(),
        weights: Some(&weights),
        weight_c: spec.engine.weight_c,
        down: None,
    };
    let heights = state.height_slice();
    let (round, time) = (engine.round(), engine.time());
    let mut scratch = ViewScratch::new();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut out = Vec::new();
    for _ in 0..REPLAY_PASSES {
        tr.span("sim.view_pass", |_| {
            for v in 0..n {
                let view =
                    build_view(&mut scratch, state, NodeId(v as u32), heights, &links, round, time);
                black_box(view.neighbors.len());
            }
        });
        tr.span("core.decide_pass", |_| {
            for v in 0..n {
                let view =
                    build_view(&mut scratch, state, NodeId(v as u32), heights, &links, round, time);
                out.clear();
                balancer.decide_into(&view, &mut rng, &mut out);
                black_box(out.len());
            }
        });
    }
    let view = median(&tr.durations_ns("sim.view_pass"));
    let both = median(&tr.durations_ns("core.decide_pass"));
    (view / n as f64, (both - view) / n as f64)
}

/// Per-round cost of a no-op `ShardPool::run_shards` at `(workers, shards)`.
fn barrier_ns(workers: usize, shards: usize, tr: &mut Tracer) -> f64 {
    let pool = ShardPool::new(workers, shards);
    let mut slots = vec![(); pool.shards()];
    for _ in 0..BARRIER_ROUNDS / 4 {
        pool.run_shards(&mut slots, &|_, _| {});
    }
    for _ in 0..BARRIER_BATCHES {
        tr.span("pool.run_shards", |_| {
            for _ in 0..BARRIER_ROUNDS {
                pool.run_shards(&mut slots, &|_, _| {});
            }
        });
    }
    median(&tr.durations_ns("pool.run_shards")) / BARRIER_ROUNDS as f64
}

/// The highest of a fixed ladder of percentiles with at least ten samples
/// beyond it: `(percentile, value)` by nearest rank.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        // Nearest rank, with a guard against `0.9 * 100 = 90.000…01`.
        let rank = ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize;
        if rank <= n && n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (100.0, v.last().copied().unwrap_or(0.0))
}

/// The traced run: per-layer metrics from spans around every layer call.
/// Traced and untraced repetitions alternate for `seconds` (at least one
/// pair), so `bench.trace_overhead` compares runs made side by side.
pub fn per_layer(w: &Workload, seconds: f64, tr: &mut Tracer) -> Outcome {
    let json = w.spec.to_json_pretty();
    let mut plain = Tracer::new(false);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut reps = Vec::new();
    let mut first: Option<Vec<Metric>> = None;
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        tr.set_run(reps.len() as u32 / 2);
        // The first traced set-up runs before anything else has touched the
        // heap, so its resident size is the workload's fixed footprint.
        let rss_before = proc_mb("VmRSS");
        let traced = guarded("set-up", || setup(&json, tr)).and_then(|(spec, mut engine, _)| {
            let rss_setup = proc_mb("VmRSS");
            let rep = guarded("repetition", || run_rep(&spec, &mut engine, tr))?;
            if first.is_none() {
                let growth = proc_mb("VmHWM") - rss_setup;
                let mut m = layer_metrics(&spec, &engine, &rep, tr);
                m.push(("proc.rss_setup_mb", rss_setup - rss_before, "MB"));
                m.push(("proc.rss_growth_mb", growth, "MB"));
                first = Some(m);
            }
            Some(rep)
        });
        if let Some(rep) = &traced {
            traced_s.push(rep.run_s);
        }
        reps.push(traced);
        let untraced = attempt(&json, &mut plain).map(|(_, rep)| rep);
        if let Some(rep) = &untraced {
            untraced_s.push(rep.run_s);
        }
        reps.push(untraced);
    }

    // The layers set-up crosses, each called once on its own.
    let spec = &w.spec;
    let k = spec.engine.shards.clamp(1, spec.topology.node_count());
    let topo = tr.span("topology.build", |_| spec.topology.build());
    tr.span("topology.partition", |_| black_box(Partition::new(&topo, k)));
    let n = topo.node_count();
    drop(topo);
    tr.span("tasking.workload", |_| black_box(spec.workload.build(n)));

    let (attempted, failed) = check(w, &mut reps);
    let mut metrics = first.unwrap_or_default();
    let rounds_us: Vec<f64> = tr.durations_ns("sim.run_rounds").iter().map(|ns| ns / 1e3).collect();
    let (tail_pct, tail_us) = tail(&rounds_us);
    let ms = |name: &str| median(&tr.durations_ns(name)) / 1e6;
    metrics.extend([
        ("sim.round_us_p50", median(&rounds_us), "us"),
        ("sim.round_us_tail", tail_us, "us"),
        ("sim.round_tail_pct", tail_pct, "%"),
        ("sim.round_samples", rounds_us.len() as f64, "count"),
        ("sim.drain_ms", ms("sim.drain"), "ms"),
        ("sim.report_ms", ms("sim.report"), "ms"),
        ("sim.ckpt_capture_ms", ms("sim.checkpoint"), "ms"),
        ("sim.ckpt_encode_ms", ms("sim.ckpt_encode"), "ms"),
        ("sim.ckpt_decode_ms", ms("sim.ckpt_decode"), "ms"),
        ("sim.restore_ms", ms("sim.restore"), "ms"),
        ("scenario.ckpt_write_ms", ms("scenario.write_checkpoint"), "ms"),
        ("scenario.golden_ms", ms("scenario.golden"), "ms"),
        ("topology.build_ms", ms("topology.build"), "ms"),
        ("topology.partition_ms", ms("topology.partition"), "ms"),
        ("tasking.workload_ms", ms("tasking.workload"), "ms"),
        ("bench.trace_overhead", median(&traced_s) / median(&untraced_s) - 1.0, "ratio"),
    ]);
    let mut notes =
        vec![format!("repetitions: {attempted} ({failed} failed), traced: {}", traced_s.len())];
    notes.push(format!("{:<28} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms"));
    for (name, count, total, own) in tr.self_times() {
        notes.push(format!(
            "{name:<28} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    Outcome { attempted, failed, metrics, notes }
}

/// The metrics read off the first traced repetition and its engine's
/// end-of-run state: sweep counters, report sizes, the kernel replay and
/// the pool barrier at the engine's K (see [`BARRIER_WORKERS`]).
fn layer_metrics(spec: &ScenarioSpec, engine: &Engine, rep: &Rep, tr: &mut Tracer) -> Vec<Metric> {
    let (view_ns, decide_ns) = replay(spec, engine, tr);
    let layout = engine.shard_layout();
    let barrier = barrier_ns(BARRIER_WORKERS.max(layout.threads), layout.shards, tr);
    let decisions = rep.sweep.nodes_evaluated as f64;
    let intents = rep.sweep.intents_emitted as f64;
    // Share of the workers' thread time inside `run_rounds` that the
    // replayed per-node view + decide cost accounts for.
    let thread_ns = rep.rounds_s * 1e9 * layout.threads as f64;
    vec![
        ("core.decide_ns", decide_ns, "ns"),
        ("sim.view_ns", view_ns, "ns"),
        ("sim.sweep_share", ratio((view_ns + decide_ns) * decisions, thread_ns), "ratio"),
        ("sim.executed_rounds", rep.executed_rounds as f64, "count"),
        ("sim.skip_ratio", rep.sweep.skip_ratio(), "ratio"),
        ("sim.decisions", decisions, "count"),
        ("sim.intents", intents, "count"),
        ("sim.intent_yield", ratio(intents, decisions), "ratio"),
        ("sim.repartitions", rep.repartitions as f64, "count"),
        ("pool.barrier_ns", barrier, "ns"),
        ("sim.ckpt_bytes", rep.ckpt_bytes as f64, "bytes"),
        ("metrics.ledger_records", rep.ledger_records as f64, "count"),
        ("metrics.fault_ratio", rep.fault_ratio, "ratio"),
        ("metrics.series_len", rep.series_len as f64, "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0));
        assert_eq!(tail(&[1.0, 2.0]).0, 100.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
