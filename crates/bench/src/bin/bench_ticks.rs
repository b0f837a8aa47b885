//! BENCH_9 — tick-throughput benchmark for the sharded tick pipeline, the
//! `K ≥ 2` round fast-forward, the pinned-worker thread scaling
//! of the decision sweep, adaptive online repartitioning, and — new in
//! BENCH_9 — the cache-conscious dense-sweep kernel and the lock-free
//! epoch barrier.
//!
//! Measures steady-state balance-round throughput (rounds/sec) and
//! per-node decision cost (ns/node-decision) for the particle-plane
//! balancer on square tori, on a quiescent redistribution workload. The
//! BENCH_4/BENCH_6 scenario set carries over unchanged (so `--baseline`
//! trajectories line up):
//!
//! * `*_seq`   — `shards = 1`: the sequential reference pipeline;
//! * `*_shard` — `shards = K` row bands: the sharded pipeline with
//!   halo-exact shard-level activity tracking;
//! * `sparse65536_{seq,event}` — the skip pair on a sparse-activity system:
//!   the skip-free `K = 1` reference against `K = 128`, which fast-forwards
//!   quiescent rounds.
//!
//! The BENCH_7 **dense thread matrix** carries over — `dense16384_t{1,2,4,8}`,
//! a 16 384-node torus with friction jitter enabled. Jitter makes the
//! policy non-quiescence-stable, so *every* shard is evaluated *every*
//! round: no skipping, no fast-forward — the rows isolate raw sweep
//! throughput, and the only variable across them is the worker-thread
//! count of the pinned shard pool. This is the honest measurement the
//! earlier benches could not make: BENCH_4/BENCH_6 headline ratios all ran
//! `threads: 1`, and BENCH_2's channel-dispatch pool lost to sequential
//! outright.
//!
//! New in BENCH_9: the **dense-kernel gate** and the **barrier figure**.
//! The structure-of-arrays rewrite of the decision sweep (flat
//! height/weight slices into branch-light feasibility kernels, the jitter
//! `exp` hoisted out of the per-task loop) is gated against an *embedded*
//! BENCH_7 baseline: `dense16384_t1` must come in at least 1.25× faster in
//! ns-per-node-decision, enforced on every host — the row runs on one
//! worker thread, so core count is no excuse. Separately, the per-round
//! overhead of the pool's lock-free sense-reversing epoch barrier is
//! measured on a no-op job (4 workers × 64 shards, the `t4` matrix shape)
//! and recorded as `barrier_ns_per_round` next to `host_parallelism`, so
//! the first ≥ 4-core run of the `t4 > t1` gate inherits a known barrier
//! cost instead of re-deriving it from scratch.
//!
//! From BENCH_8: the **adaptive repartitioning pair** —
//! `hotspot16384_{static,adaptive}`, a 16 384-node torus under a slowly
//! drifting arrival hotspot (redistribution only: `consume_rate = 0`, so
//! the per-round cost is exactly the dirty-shard sweep). Both rows run the
//! identical system and emit identical report bytes (the `lab --verify`
//! gate proves it); the only difference is the `repartition`
//! knob, which lets the adaptive row shrink its shards around the dirty
//! frontier and skip the wide quiescent ones. The enforced expectation is
//! adaptive ≥ 1.3× static rounds/sec (ADR-008).
//!
//! The JSON header records `host_parallelism` and whether the
//! thread-scaling gate was enforced, so a 1-core container can never again
//! masquerade as parallel speedup.
//!
//! ```text
//! bench_ticks [--smoke] [--enforce] [--dense] [--shards K] [--threads T]
//!             [--out PATH] [--baseline PATH] [--check PATH]
//! ```
//!
//! * `--smoke`      few iterations (CI keep-alive; numbers are meaningless)
//! * `--enforce`    exit non-zero unless the scaling expectations hold:
//!   sharded ≥ 1× sequential at 1 024 nodes, ≥ 1.5× at 16 384, the
//!   fast-forward ≥ 5× the `K = 1` reference on the sparse 65 536 pair,
//!   adaptive repartitioning
//!   ≥ 1.3× static on the hotspot pair, the dense-kernel gate
//!   (`dense16384_t1` ≥ 1.25× the embedded BENCH_7 ns-per-node-decision
//!   baseline, enforced everywhere), and — on hosts with ≥ 4 cores —
//!   `dense16384_t4` strictly faster than `dense16384_t1`. On smaller
//!   hosts the thread gate is skipped with a visible annotation
//!   (`::notice::` under GitHub Actions, a plain note elsewhere) and
//!   recorded as such in the JSON. Failures print the measured ratio, the
//!   requirement, and both raw values — never a bare pass/fail.
//! * `--dense`      run only the dense thread matrix, the barrier
//!   measurement, and the dense-kernel gate (the CI `dense-kernel` job's
//!   fast path; cross-pair expectations need rows this mode skips, so
//!   `--enforce` then gates on the dense kernel alone). The differential
//!   checks still run in their miniature form.
//! * `--shards K`   override the shard count of every `*_shard` scenario
//! * `--threads T`  override the sweep worker-thread count everywhere
//!   (including the thread matrix — useful only for debugging)
//! * `--out PATH`   where to write the JSON (default `BENCH_9.json`)
//! * `--baseline P` embed the `scenarios` of a previous output as
//!   `baseline` and compute per-scenario speedups (BENCH_8.json's names
//!   line up, continuing the trajectory)
//! * `--check PATH` parse PATH as JSON and exit (0 = parses, 1 = does
//!   not, with a missing file reported as `NOT FOUND` rather than a parse
//!   error); no benchmark is run
//!
//! The benchmark also verifies that the sequential and sharded pipelines
//! produce identical run outcomes for the same seed (`reports_identical`),
//! including multi-threaded sweeps and the jittered dense workload.

use pp_core::balancer::ParticlePlaneBalancer;
use pp_core::jitter::FrictionJitter;
use pp_core::params::PhysicsConfig;
use pp_sim::engine::{EngineBuilder, EngineConfig, RepartitionConfig, RunReport};
use pp_tasking::workload::{ArrivalProcess, Workload};
use pp_topology::graph::Topology;
use serde::{Serialize, Value};
use std::time::Instant;

const SEED: u64 = 42;
const LOAD_PER_NODE: f64 = 10.0;
/// Cores required before the `t4 > t1` thread-scaling gate is enforced.
const GATE_MIN_CORES: usize = 4;
/// The committed BENCH_7 `dense16384_t1` ns-per-node-decision on the
/// reference container (1 core, `host_parallelism: 1`), embedded so the
/// dense-kernel gate needs no baseline file: the scenario construction is
/// unchanged since BENCH_7, so the comparison is like-for-like.
const BENCH7_DENSE_T1_NS: f64 = 277.22659861246746;
/// The dense-kernel win the SoA sweep must hold: `dense16384_t1` at least
/// this many times faster (baseline ns ÷ measured ns) than BENCH_7.
const DENSE_KERNEL_REQUIRED: f64 = 1.25;

struct Scenario {
    name: &'static str,
    side: usize,
    /// Warm-up rounds before the timer starts: enough to converge past the
    /// initial migration burst, so the measured window is steady state.
    warm: u64,
    rounds: u64,
    smoke_rounds: u64,
    shards: usize,
    /// Sweep worker threads (0 = builder auto). The thread matrix pins
    /// this per row; every other scenario inherits the `--threads` flag.
    threads: usize,
    /// Friction jitter on: the policy stops being quiescence-stable, so
    /// every shard is evaluated every round — skipping disabled by
    /// construction, isolating raw sweep throughput.
    jitter: bool,
    /// Sparse-activity variant: no resident workload, `consume_rate > 0`
    /// — nothing ever happens, but the `K = 1` reference still runs every
    /// round in full.
    sparse: bool,
    /// Drifting-hotspot variant: no resident workload, no consumption, a
    /// [`ArrivalProcess::MovingHotspot`] that drifts one diagonal step per
    /// dwell — the dirty frontier stays compact while it wanders, which is
    /// the regime adaptive repartitioning exists for.
    moving: bool,
    /// Adaptive online repartitioning knob (the BENCH_8 variable).
    repartition: Option<RepartitionConfig>,
}

/// A dense redistribution scenario (the BENCH_4 set).
const fn dense(
    name: &'static str,
    side: usize,
    warm: u64,
    rounds: u64,
    smoke_rounds: u64,
    shards: usize,
) -> Scenario {
    Scenario {
        name,
        side,
        warm,
        rounds,
        smoke_rounds,
        shards,
        threads: 0,
        jitter: false,
        sparse: false,
        moving: false,
        repartition: None,
    }
}

/// A thread-matrix row: 16 384 nodes, K = 64, jitter on (skipping
/// disabled), pinned worker count.
const fn matrix(name: &'static str, threads: usize) -> Scenario {
    Scenario {
        name,
        side: 128,
        warm: 30,
        rounds: 120,
        smoke_rounds: 2,
        shards: 64,
        threads,
        jitter: true,
        sparse: false,
        moving: false,
        repartition: None,
    }
}

/// An adaptive-repartitioning row: 16 384 nodes, K = 64, a drifting
/// arrival hotspot, redistribution only. The pair differs in exactly the
/// `repartition` knob.
const fn hotspot(name: &'static str, repartition: Option<RepartitionConfig>) -> Scenario {
    Scenario {
        name,
        side: 128,
        warm: 40,
        rounds: 300,
        smoke_rounds: 2,
        shards: 64,
        threads: 0,
        jitter: false,
        sparse: false,
        moving: true,
        repartition,
    }
}

const SCENARIOS: &[Scenario] = &[
    dense("torus64_seq", 8, 200, 3000, 5, 1),
    dense("torus1024_seq", 32, 400, 300, 3, 1),
    dense("torus1024_shard", 32, 400, 3000, 3, 16),
    dense("torus16384_seq", 128, 250, 25, 2, 1),
    dense("torus16384_shard", 128, 250, 500, 2, 64),
    dense("torus65536_seq", 256, 120, 8, 1, 1),
    dense("torus65536_shard", 256, 120, 200, 1, 128),
    // The skip pair: identical sparse systems, the skip-free K = 1
    // reference against K = 128, which fast-forwards. Round counts differ
    // because the per-round costs differ by orders of magnitude;
    // rounds/sec is the comparable number.
    Scenario {
        name: "sparse65536_seq",
        side: 256,
        warm: 5,
        rounds: 400,
        smoke_rounds: 2,
        shards: 1,
        threads: 0,
        jitter: false,
        sparse: true,
        moving: false,
        repartition: None,
    },
    Scenario {
        name: "sparse65536_event",
        side: 256,
        warm: 5,
        rounds: 100_000,
        smoke_rounds: 1000,
        shards: 128,
        threads: 0,
        jitter: false,
        sparse: true,
        moving: false,
        repartition: None,
    },
    // The dense thread matrix: identical systems, identical bytes out
    // (the differential suites prove it), only the worker count varies.
    matrix("dense16384_t1", 1),
    matrix("dense16384_t2", 2),
    matrix("dense16384_t4", 4),
    matrix("dense16384_t8", 8),
    // The adaptive repartitioning pair: identical systems, identical bytes
    // out (`lab --verify` proves it), only the knob varies.
    hotspot("hotspot16384_static", None),
    hotspot("hotspot16384_adaptive", Some(RepartitionConfig { every: 16, skew_threshold: 2.0 })),
];

#[derive(Serialize)]
struct Measurement {
    name: String,
    nodes: usize,
    rounds: u64,
    shards: usize,
    threads: usize,
    rounds_per_sec: f64,
    /// Rounds in the measured window that ran rather than being
    /// fast-forwarded (every round at `K = 1`).
    executed_rounds: u64,
    /// Node decisions actually evaluated in the measured window.
    executed_decisions: u64,
    /// Wall time divided by `executed_decisions` — the real cost of one
    /// decision, comparable across `*_seq`, `*_shard` and skip-heavy rows
    /// alike. `null` when the window evaluated no decisions at all (a
    /// fully quiescent window has no per-decision cost, not a zero one).
    ns_per_node_decision: Option<f64>,
    /// Fraction of shard-ticks skipped as quiescent during the whole run
    /// (warm-up included) — 0 for the sequential reference.
    skip_ratio: f64,
    /// Adaptive repartitions applied over the whole run (warm-up included)
    /// — 0 everywhere except the `hotspot16384_adaptive` row.
    repartitions: u64,
}

#[derive(Serialize)]
struct Expectation {
    /// "candidate/reference" scenario names the ratio compares.
    pair: String,
    nodes: usize,
    reference_rps: f64,
    candidate_rps: f64,
    ratio: f64,
    required: f64,
    pass: bool,
    /// Whether `--enforce` gates on this row. The thread-scaling row is
    /// advisory on hosts with < 4 cores (recorded, never enforced).
    enforced: bool,
}

/// The BENCH_9 dense-kernel gate: the SoA decision sweep against the
/// embedded BENCH_7 AoS baseline, single-threaded, enforced on every host.
#[derive(Serialize)]
struct DenseKernelGate {
    /// Scenario the gate measures.
    scenario: String,
    /// Where the baseline number comes from.
    baseline: String,
    baseline_ns_per_node_decision: f64,
    /// `null` if the row never ran (e.g. `--smoke` evaluated no decisions).
    measured_ns_per_node_decision: Option<f64>,
    /// baseline ÷ measured — > 1 means faster than the BENCH_7 kernel.
    ratio: f64,
    required: f64,
    pass: bool,
}

fn dense_kernel_gate(scenarios: &[Measurement]) -> DenseKernelGate {
    let measured =
        scenarios.iter().find(|m| m.name == "dense16384_t1").and_then(|m| m.ns_per_node_decision);
    let ratio = measured.map(|ns| BENCH7_DENSE_T1_NS / ns).unwrap_or(0.0);
    DenseKernelGate {
        scenario: "dense16384_t1".into(),
        baseline: "BENCH_7.json dense16384_t1 (embedded)".into(),
        baseline_ns_per_node_decision: BENCH7_DENSE_T1_NS,
        measured_ns_per_node_decision: measured,
        ratio,
        required: DENSE_KERNEL_REQUIRED,
        pass: ratio >= DENSE_KERNEL_REQUIRED,
    }
}

/// Times the shard pool's barrier round-trip on a no-op job: publish, wake,
/// sweep zero work, done-barrier. Pool shape = the `t4` matrix row
/// (4 workers × 64 shards) so the figure is the one that row actually pays
/// per round on a ≥ 4-core host.
fn measure_barrier(smoke: bool) -> f64 {
    use pp_metrics::shard::BarrierSample;
    use pp_sim::pool::ShardPool;
    let pool = ShardPool::new(4, 64);
    let mut slots = vec![0u8; 64];
    let rounds: u64 = if smoke { 200 } else { 2000 };
    // Warm: spawn-time page faults and first parks out of the window.
    for _ in 0..rounds / 10 {
        pool.run_shards(&mut slots, &|_, _| {});
    }
    let mut sample = BarrierSample::new();
    let start = Instant::now();
    for _ in 0..rounds {
        pool.run_shards(&mut slots, &|_, _| {});
    }
    sample.record(rounds, start.elapsed().as_nanos() as u64);
    sample.ns_per_round().expect("rounds > 0")
}

#[derive(Serialize)]
struct Output {
    bench: String,
    mode: String,
    /// `std::thread::available_parallelism()` on the measuring host (0 =
    /// unknown). The context every ratio must be read in: threads cannot
    /// win on a 1-core container, and this field proves which kind of
    /// host produced the numbers.
    host_parallelism: usize,
    /// "enforced" | "skipped (...)": whether the `t4 > t1` thread-scaling
    /// gate was live on this host — machine-readable, so downstream
    /// tooling never mistakes a skipped gate for a passed one.
    thread_gate: String,
    /// Per-round cost of the pool's lock-free epoch barrier on a no-op job
    /// (see [`measure_barrier`]) — recorded beside `host_parallelism`
    /// because the figure is as host-shaped as the core count is.
    barrier_ns_per_round: f64,
    /// The BENCH_9 dense-kernel gate, enforced on every host.
    dense_kernel: DenseKernelGate,
    scenarios: Vec<Measurement>,
    reports_identical: bool,
    /// Adaptive-vs-static differential (miniature): repartitioning must be
    /// outcome-invisible. The full-size gate is `lab --verify`.
    repartition_identical: bool,
    expectations: Vec<Expectation>,
    baseline: Option<Vec<Measurement>>,
    speedup_rounds_per_sec: Option<Vec<(String, f64)>>,
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(0)
}

fn physics(jitter: bool) -> PhysicsConfig {
    PhysicsConfig {
        jitter: if jitter {
            // Slow decay (t_max far beyond any measured window) so the
            // per-task RNG draw — and with it the skip-disabling
            // non-stability — persists through warm-up and measurement.
            Some(FrictionJitter::new(0.3, 1.0, 1.0e9))
        } else {
            None
        },
        ..PhysicsConfig::default()
    }
}

#[allow(clippy::too_many_arguments)] // bench scenario axes, called from one table
fn engine_with(
    side: usize,
    shards: usize,
    threads: usize,
    sparse: bool,
    jitter: bool,
    moving: bool,
    repartition: Option<RepartitionConfig>,
) -> pp_sim::engine::Engine {
    let topo = Topology::torus(&[side, side]);
    let n = topo.node_count();
    let w = if sparse || moving {
        Workload::from_loads(&vec![0.0; n], 1.0)
    } else {
        Workload::uniform_random(n, LOAD_PER_NODE, SEED)
    };
    let consume_rate = if sparse { 0.5 } else { 0.0 };
    // `side + 1` = one diagonal step per dwell: the hotspot drifts instead
    // of teleporting, so the dirty frontier stays one compact wandering
    // blob — narrow shards around it pay off, wide quiescent ones skip.
    // The sparse rate keeps the blob small relative to a uniform shard:
    // that gap (nodes a static layout sweeps but an adaptive one does not)
    // is exactly what the BENCH_8 gate measures, and a heavy blob erodes
    // it by making even the adaptive layout's hot shards wide.
    let arrival = if moving {
        ArrivalProcess::MovingHotspot { rate: 1.5, size: 1.0, dwell: 10.0, stride: side as u32 + 1 }
    } else {
        ArrivalProcess::Quiescent
    };
    EngineBuilder::new(topo)
        .workload(w)
        .balancer(ParticlePlaneBalancer::new(physics(jitter)))
        .config(EngineConfig {
            shards,
            threads,
            consume_rate,
            arrival,
            repartition,
            ..Default::default()
        })
        .seed(SEED)
        .build()
}

fn measure(sc: &Scenario, smoke: bool, shards_override: usize, threads_flag: usize) -> Measurement {
    let (warm, rounds) = if smoke { (1, sc.smoke_rounds) } else { (sc.warm, sc.rounds) };
    let shards = if sc.shards > 1 && shards_override > 0 { shards_override } else { sc.shards };
    // Per-row pin beats the global flag default, but an explicit
    // `--threads` overrides everything (debugging escape hatch).
    let threads = if threads_flag > 0 { threads_flag } else { sc.threads };
    let n = sc.side * sc.side;
    let mut engine =
        engine_with(sc.side, shards, threads, sc.sparse, sc.jitter, sc.moving, sc.repartition);
    // Warm up: converge past the initial migration burst so the measured
    // window is dominated by steady-state tick cost, and warm caches/pools.
    engine.run_rounds(warm.max(1));
    engine.reserve_rounds(rounds);
    let evaluated_before = engine.shard_stats().nodes_evaluated;
    let executed_before = engine.executed_rounds();
    let start = Instant::now();
    engine.run_rounds(rounds);
    let elapsed = start.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-12);
    let evaluated = engine.shard_stats().nodes_evaluated - evaluated_before;
    let executed = engine.executed_rounds() - executed_before;
    let layout = engine.shard_layout();
    Measurement {
        name: sc.name.to_string(),
        nodes: n,
        rounds,
        shards: layout.shards,
        threads: layout.threads,
        rounds_per_sec: rounds as f64 / secs,
        executed_rounds: executed,
        executed_decisions: evaluated,
        ns_per_node_decision: if evaluated == 0 {
            None
        } else {
            Some(elapsed.as_nanos() as f64 / evaluated as f64)
        },
        skip_ratio: engine.shard_stats().skip_ratio(),
        repartitions: engine.repartitions(),
    }
}

/// Digest of everything observable about a run; byte-identical digests mean
/// identical `RunReport`s (Debug formatting of f64 is value-exact).
fn report_digest(r: &RunReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{}",
        r.series.points(),
        r.final_imbalance,
        r.ledger.migration_count(),
        r.ledger.total_load_moved(),
        r.ledger.total_weighted_traffic(),
        r.total_load,
    )
}

/// The sequential reference vs the sharded pipeline — single- and
/// multi-threaded, skip-capable and jittered (always-dense) — must be
/// outcome-identical for the same seed.
fn seq_shard_identical(smoke: bool) -> bool {
    let rounds = if smoke { 3 } else { 60 };
    let run = |shards: usize, threads: usize, jitter: bool| {
        let mut e = engine_with(32, shards, threads, false, jitter, false, None);
        e.run_rounds(rounds).drain(50.0);
        report_digest(&e.report())
    };
    let seq = run(1, 1, false);
    let dense = run(1, 1, true);
    seq == run(16, 1, false)
        && seq == run(16, 2, false)
        && seq == run(5, 3, false)
        && dense == run(16, 4, true)
        && dense == run(16, 8, true)
}

/// The adaptive pair in miniature: a repartitioning run must be
/// outcome-identical to its static twin for the same seed (and must
/// actually repartition, or the comparison verifies nothing).
fn adaptive_static_identical(smoke: bool) -> bool {
    let rounds = if smoke { 6 } else { 60 };
    let run = |rp: Option<RepartitionConfig>| {
        let mut e = engine_with(32, 16, 2, false, false, true, rp);
        e.run_rounds(rounds).drain(50.0);
        (report_digest(&e.report()), e.repartitions())
    };
    let (static_digest, _) = run(None);
    let (adaptive_digest, fired) = run(Some(RepartitionConfig { every: 2, skew_threshold: 1.5 }));
    adaptive_digest == static_digest && (smoke || fired > 0)
}

fn extract_baseline(path: &str) -> Result<Vec<Measurement>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let scenarios = v
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path} has no `scenarios` array"))?;
    let mut out = Vec::new();
    for s in scenarios {
        let field = |k: &str| s.get(k).and_then(Value::as_f64);
        out.push(Measurement {
            name: s.get("name").and_then(Value::as_str).unwrap_or("?").to_string(),
            nodes: field("nodes").unwrap_or(0.0) as usize,
            rounds: field("rounds").unwrap_or(0.0) as u64,
            shards: field("shards").unwrap_or(0.0) as usize,
            threads: field("threads").unwrap_or(0.0) as usize,
            rounds_per_sec: field("rounds_per_sec").unwrap_or(0.0),
            // Pre-BENCH_7 baselines had neither executed column.
            executed_rounds: field("executed_rounds").unwrap_or(0.0) as u64,
            executed_decisions: field("executed_decisions").unwrap_or(0.0) as u64,
            // A BENCH_6 `0.0` meant "nothing executed"; normalize to null.
            ns_per_node_decision: field("ns_per_node_decision").filter(|&x| x > 0.0),
            skip_ratio: field("skip_ratio").unwrap_or(0.0),
            // Pre-BENCH_8 baselines had no repartition column.
            repartitions: field("repartitions").unwrap_or(0.0) as u64,
        });
    }
    Ok(out)
}

/// The scaling contract: sharded ≥ sequential at 1 024 nodes, ≥ 1.5× at
/// 16 384 (the two scales BENCH_2 showed the work-stealing path *losing*),
/// the `K = 128` fast-forward ≥ 5× the skip-free `K = 1` reference on the
/// sparse-activity 65 536-node pair, 4 pinned workers strictly faster than 1 on the dense
/// (never-skipping) 16 384-node matrix (enforced only where the host
/// actually has ≥ 4 cores), and — the BENCH_8 addition — adaptive
/// repartitioning ≥ 1.3× static on the drifting-hotspot pair.
fn expectations(scenarios: &[Measurement], cores: usize) -> Vec<Expectation> {
    let rps = |name: &str| {
        scenarios.iter().find(|m| m.name == name).map(|m| m.rounds_per_sec).unwrap_or(0.0)
    };
    [
        (1024, "torus1024_seq", "torus1024_shard", 1.0, true),
        (16384, "torus16384_seq", "torus16384_shard", 1.5, true),
        (65536, "sparse65536_seq", "sparse65536_event", 5.0, true),
        (16384, "dense16384_t1", "dense16384_t4", 1.0, cores >= GATE_MIN_CORES),
        (16384, "hotspot16384_static", "hotspot16384_adaptive", 1.3, true),
    ]
    .into_iter()
    .map(|(nodes, reference, candidate, required, enforced)| {
        let (s, p) = (rps(reference), rps(candidate));
        let ratio = if s > 0.0 { p / s } else { 0.0 };
        Expectation {
            pair: format!("{candidate}/{reference}"),
            nodes,
            reference_rps: s,
            candidate_rps: p,
            ratio,
            required,
            // The thread gate is strict (threads must *win*, not tie);
            // the legacy ratios keep their ≥ semantics.
            pass: if required == 1.0 { ratio > required } else { ratio >= required },
            enforced,
        }
    })
    .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();

    if let Some(path) = opt("--check") {
        match pp_bench::check_json_file(&path) {
            Ok(()) => {
                println!("{path}: OK (valid JSON)");
                return;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let smoke = flag("--smoke");
    let enforce = flag("--enforce");
    let dense_only = flag("--dense");
    if smoke && enforce {
        // Smoke numbers are explicitly meaningless: warm-up is one round,
        // the system never quiesces, and the ratio is noise. Refuse rather
        // than gate on it.
        eprintln!("error: --enforce requires full measurement mode; drop --smoke");
        std::process::exit(2);
    }
    let shards_override: usize =
        opt("--shards").map(|s| s.parse().expect("--shards N")).unwrap_or(0);
    let threads: usize = opt("--threads").map(|s| s.parse().expect("--threads N")).unwrap_or(0);
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_9.json".to_string());
    let baseline = opt("--baseline").map(|p| match extract_baseline(&p) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    });

    let cores = host_parallelism();
    let thread_gate = if cores >= GATE_MIN_CORES {
        "enforced".to_string()
    } else {
        format!("skipped (host_parallelism {cores} < {GATE_MIN_CORES})")
    };
    let mode = if dense_only {
        "dense"
    } else if smoke {
        "smoke"
    } else {
        "full"
    };
    println!(
        "=== BENCH_9: sharded tick + fast-forward + thread-scaling + adaptive-repartition + \
         dense-kernel throughput ({mode}, {cores} cores)"
    );
    let barrier_ns = measure_barrier(smoke);
    println!("  barrier (4 workers x 64 shards, no-op job): {barrier_ns:.1} ns/round");
    let mut scenarios = Vec::new();
    for sc in SCENARIOS {
        if dense_only && !sc.name.starts_with("dense16384") {
            continue;
        }
        let m = measure(sc, smoke, shards_override, threads);
        println!(
            "  {:21} {:6} nodes  K={:<3} T={:<2} {:>12.1} rounds/s  {:>9.1} ns/node-decision  \
             skip={:.2}",
            m.name,
            m.nodes,
            m.shards,
            m.threads,
            m.rounds_per_sec,
            m.ns_per_node_decision.unwrap_or(f64::NAN),
            m.skip_ratio
        );
        scenarios.push(m);
    }

    // In --dense mode the differentials run in their miniature (smoke)
    // form: still a real byte-identity check, small enough for a fast job.
    let identical = seq_shard_identical(smoke || dense_only);
    println!("  seq/sharded reports identical: {identical}");
    assert!(identical, "sharded decision sweep diverged from sequential");

    let repart_identical = adaptive_static_identical(smoke || dense_only);
    println!("  adaptive/static reports identical: {repart_identical}");
    assert!(repart_identical, "adaptive repartitioning diverged from the static layout");

    // Cross-pair expectations need rows --dense does not run; the dense
    // mode gates on the dense-kernel ratio alone.
    let expect = if dense_only { Vec::new() } else { expectations(&scenarios, cores) };
    for e in &expect {
        println!(
            "  scaling @ {:5} nodes: {} = {:.2}x (required {:.1}x) → {}",
            e.nodes,
            e.pair,
            e.ratio,
            e.required,
            if !e.enforced {
                "skipped"
            } else if e.pass {
                "pass"
            } else {
                "FAIL"
            }
        );
    }
    if cores < GATE_MIN_CORES {
        // A skipped gate must be loud, not a silently green job — but the
        // `::notice::` annotation syntax is GitHub Actions' own; on a
        // developer terminal it is line noise, so print a plain note there.
        let msg = format!(
            "host has {cores} core(s), the dense16384 t4>t1 gate needs {GATE_MIN_CORES}; \
             ratios recorded unenforced"
        );
        if std::env::var_os("GITHUB_ACTIONS").is_some() {
            println!("::notice title=thread-scaling gate skipped::{msg}");
        } else {
            println!("note: thread-scaling gate skipped: {msg}");
        }
    }
    let dense_kernel = dense_kernel_gate(&scenarios);
    println!(
        "  dense kernel @ 16384 nodes: {} = {:.1} ns/decision vs baseline {:.1} → ratio {:.2}x \
         (required {:.2}x) → {}",
        dense_kernel.scenario,
        dense_kernel.measured_ns_per_node_decision.unwrap_or(f64::NAN),
        dense_kernel.baseline_ns_per_node_decision,
        dense_kernel.ratio,
        dense_kernel.required,
        if dense_kernel.pass { "pass" } else { "FAIL" }
    );

    let all_pass = expect.iter().filter(|e| e.enforced).all(|e| e.pass) && dense_kernel.pass;

    let speedups = baseline.as_ref().map(|base| {
        scenarios
            .iter()
            .filter_map(|m| {
                base.iter().find(|b| b.name == m.name && b.rounds_per_sec > 0.0).map(|b| {
                    let s = m.rounds_per_sec / b.rounds_per_sec;
                    println!("  speedup {:17} {s:.2}x", m.name);
                    (m.name.clone(), s)
                })
            })
            .collect::<Vec<_>>()
    });

    let output = Output {
        bench: "BENCH_9 sharded tick + fast-forward + pinned-worker thread scaling + \
                adaptive repartitioning + SoA dense kernel + lock-free epoch barrier \
                (quiescent redistribution + jittered dense matrix + drifting hotspot, \
                particle-plane)"
            .into(),
        mode: mode.into(),
        host_parallelism: cores,
        thread_gate,
        barrier_ns_per_round: barrier_ns,
        dense_kernel,
        scenarios,
        reports_identical: identical,
        repartition_identical: repart_identical,
        expectations: expect,
        baseline,
        speedup_rounds_per_sec: speedups,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialize");
    std::fs::write(&out_path, json).expect("write output");
    println!("[json artifact: {out_path}]");

    if enforce && !all_pass {
        // Satellite contract: a failed gate names its numbers — the
        // measured ratio, the requirement, and both raw values — so a CI
        // log is diagnosable without re-running the bench.
        for e in output.expectations.iter().filter(|e| e.enforced && !e.pass) {
            eprintln!(
                "error: scaling expectation {} failed: measured ratio {:.3}x < required {:.2}x \
                 (reference {:.1} rounds/s, candidate {:.1} rounds/s)",
                e.pair, e.ratio, e.required, e.reference_rps, e.candidate_rps
            );
        }
        let dk = &output.dense_kernel;
        if !dk.pass {
            eprintln!(
                "error: dense-kernel gate failed: {} measured {:.1} ns/node-decision vs \
                 baseline {:.4} ({}); ratio {:.3}x < required {:.2}x",
                dk.scenario,
                dk.measured_ns_per_node_decision.unwrap_or(f64::NAN),
                dk.baseline_ns_per_node_decision,
                dk.baseline,
                dk.ratio,
                dk.required
            );
        }
        std::process::exit(1);
    }
}
