//! The discrete-event multiprocessor engine.
//!
//! Time advances event-to-event; balance rounds fire every `tick` time
//! units. At each round the engine snapshots the height map, lets the
//! policy refresh per-round state ([`LoadBalancer::begin_round`]), collects
//! per-node decisions **shard by shard**, validates and launches the
//! migrations. In-flight loads occupy the network for `d + size/bw` time
//! units, may hit link faults (retried with the configured budget, bounced
//! back to the source when it is exhausted), and on landing may be
//! *forwarded onward* by policies with in-motion behaviour (the paper's
//! sliding object, §5.1).
//!
//! ## Sharded tick pipeline
//!
//! The topology is split once, at build time, into `K` contiguous shards
//! ([`pp_topology::partition::Partition`]). Each shard owns its decision
//! buffers, its per-node RNG streams, a reusable view scratch and a
//! mergeable [`ShardAccum`]; the decision sweep processes whole shards —
//! on the calling thread when one worker suffices, otherwise distributed
//! over a persistent [`ShardPool`] whose workers each *own* a fixed,
//! deterministic block of shards for the life of the engine (so per-shard
//! scratch, intent arenas and RNG state stay hot in one worker's cache)
//! and synchronize through one epoch barrier per round instead of
//! per-shard channel messages. Because decisions are pure functions of the
//! tick-start snapshot and every node draws from its own RNG stream, the
//! sweep's outcome is byte-identical for every `(K, threads)` choice —
//! including `K = 1`, the sequential reference.
//!
//! Each shard's intents accumulate in a shard-local arena (its *outbox*)
//! during the sweep; the commit phase drains the outboxes on the calling
//! thread after the barrier, in fixed ascending shard order — so boundary
//! effects are exchanged batched, never interleaved, and the launch order
//! is exactly the flat engine's ascending-node order.
//!
//! On top of the decomposition sits exact **shard-level activity
//! tracking**: every state mutation marks the owning shard dirty (and, for
//! boundary nodes, every shard owning one of its neighbours), and a shard
//! whose last sweep emitted nothing stays clean until someone it can
//! observe changes. When the policy opts in via
//! [`LoadBalancer::quiescence_stable`] and `K ≥ 2`, clean shards skip their
//! sweep entirely, and a round in which nothing can happen (no shard dirty,
//! no event due, no work to consume, no fault process, no churn) is
//! fast-forwarded in closed form — both provably without observable effect
//! (see `docs/adr/ADR-004-sharded-ticks.md` and
//! `docs/adr/ADR-006-event-strategy.md`). `K = 1` never skips: it is the
//! reference every skipping layout is compared against.
//!
//! Between events each node optionally consumes work (`consume_rate`),
//! completing and removing tasks, and a dynamic [`ArrivalProcess`] may
//! inject new tasks — the non-quiescent regime of §1. The consume sweep's
//! cost follows the resident work, not the domain: one test per 64-node
//! word of the occupancy bitset plus one step per consumer, and nothing at
//! all while no task is resident.

use crate::balancer::{
    build_view, GlobalView, LinkView, LoadBalancer, MigratingLoad, MigrationIntent, ViewScratch,
};
use crate::checkpoint::{Checkpoint, FlightSnap, IN_FLIGHT_DRIFT_TOLERANCE};
use crate::churn::{ChurnEvent, ChurnPlan};
use crate::events::{Event, EventQueue};
use crate::pool::ShardPool;
use crate::state::{node_bit, set_node_bit, SystemState, NODE_WORD};
use pp_metrics::imbalance::Imbalance;
use pp_metrics::ledger::{MigrationRecord, TrafficLedger};
use pp_metrics::series::TimeSeries;
use pp_metrics::shard::{load_skew, ShardAccum};
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskIdGen};
use pp_tasking::workload::{validate_trace, ArrivalProcess, TraceEvent, Workload};
use pp_topology::edgeset::EdgeBitSet;
use pp_topology::graph::{EdgeId, NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkMap};
use pp_topology::partition::{Partition, RepartitionPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The one occupied-node walk of the decision sweep: yields, in ascending
/// order, every node in `[start, end)` whose bit is set in a node bitset
/// ([`NODE_WORD`] nodes per word, as [`SystemState::occupied_words`] lays
/// it out). A shard's range need not be word-aligned after a repartition,
/// so the first and last words are masked to the range. A walk over n
/// nodes costs n/64 word loads plus O(occupied nodes).
#[derive(Debug)]
struct OccupiedWalk<'a> {
    words: &'a [u64],
    /// Index of the word `mask` came from.
    word: usize,
    /// Index of the last word the range touches.
    last: usize,
    /// First index past the range.
    end: usize,
    /// The current word's set bits not yet handed out.
    mask: u64,
}

impl<'a> OccupiedWalk<'a> {
    fn new(words: &'a [u64], start: usize, end: usize) -> Self {
        if start >= end {
            return OccupiedWalk { words, word: 0, last: 0, end, mask: 0 };
        }
        let (word, last) = (start / NODE_WORD, (end - 1) / NODE_WORD);
        let mut walk = OccupiedWalk { words, word, last, end, mask: 0 };
        walk.mask = walk.load(word) & (!0u64 << (start % NODE_WORD));
        walk
    }

    /// Word `w`, with the bits past the range's end cleared.
    #[inline]
    fn load(&self, w: usize) -> u64 {
        let tail = self.end - w * NODE_WORD;
        if tail < NODE_WORD {
            self.words[w] & ((1u64 << tail) - 1)
        } else {
            self.words[w]
        }
    }
}

impl Iterator for OccupiedWalk<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.mask == 0 {
            if self.word >= self.last {
                return None;
            }
            self.word += 1;
            self.mask = self.load(self.word);
        }
        let k = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some(self.word * NODE_WORD + k)
    }
}

/// Dynamic link fault process: at every balance tick each up link goes down
/// with probability `p_down`, each down link recovers with probability
/// `p_up`.
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    /// Probability an up link fails this round.
    pub p_down: f64,
    /// Probability a down link recovers this round.
    pub p_up: f64,
}

/// Adaptive online repartitioning of the shard decomposition: every
/// `every` rounds the engine compares the max/mean skew of the per-shard
/// sweep load accumulated since the last check against `skew_threshold`,
/// and when it is exceeded asks [`RepartitionPolicy`] for a better-skewed
/// contiguous layout. Repartitioning mutates no simulation state and draws
/// no randomness, so reports stay byte-identical to a static run — only
/// the per-round sweep cost changes (see `docs/adr/ADR-008-adaptive-
/// repartitioning.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepartitionConfig {
    /// Rounds between skew checks (a check is O(K); 0 disables checking).
    pub every: u64,
    /// Fire when max/mean per-shard load skew exceeds this (1.0 is
    /// perfectly balanced; `f64::INFINITY` measures but never fires).
    pub skew_threshold: f64,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Interval between balance rounds.
    pub tick: f64,
    /// The constant `c` in the link weight `e_{i,j}` formula.
    pub weight_c: f64,
    /// Work consumed per node per time unit (0 = quiescent redistribution).
    pub consume_rate: f64,
    /// Transfer attempts per hop before the load bounces back.
    pub max_attempts: u32,
    /// Number of spatial shards `K` the decision sweep is partitioned into
    /// (0 = auto: 1). Clamped to the node count. `K = 1` is the skip-free
    /// sequential reference: every round runs in full. `K ≥ 2` with a
    /// [`LoadBalancer::quiescence_stable`] policy skips clean shards inside
    /// a round and fast-forwards effect-free rounds in closed form
    /// (byte-identical reports either way — see
    /// `docs/adr/ADR-006-event-strategy.md`).
    pub shards: usize,
    /// Worker threads for the shard sweep (0 = auto: one per available
    /// core, capped at `K`). With 1 thread shards run inline on the
    /// calling thread — no pool, no locks.
    pub threads: usize,
    /// Dynamic link up/down process (None = all links always up).
    pub fault_model: Option<FaultModel>,
    /// Dynamic task arrivals.
    pub arrival: ArrivalProcess,
    /// Adaptive online repartitioning (None = the build-time uniform
    /// layout stays fixed for the life of the engine).
    pub repartition: Option<RepartitionConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tick: 1.0,
            weight_c: 1.0,
            consume_rate: 0.0,
            max_attempts: 3,
            shards: 0,
            threads: 0,
            fault_model: None,
            arrival: ArrivalProcess::Quiescent,
            repartition: None,
        }
    }
}

/// The resolved shard execution layout of a built engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// Number of shards `K`.
    pub shards: usize,
    /// Worker threads serving the sweep.
    pub threads: usize,
    /// Nodes with at least one neighbour in another shard.
    pub boundary_nodes: usize,
}

impl fmt::Display for ShardLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shards={} threads={} boundary={}",
            self.shards, self.threads, self.boundary_nodes
        )
    }
}

/// Per-shard execution state: everything a sweep worker touches for one
/// shard, owned by that shard so no two workers share mutable data.
struct ShardSlot {
    /// Shard-local intent arena (the shard's *outbox*): every deciding
    /// node's migration intents for the current sweep, appended in
    /// ascending node order. One allocation per shard, kept across ticks —
    /// in steady state the sweep reuses its capacity and never touches the
    /// global allocator. Drained by the commit phase after the round
    /// barrier.
    intents: Vec<MigrationIntent>,
    /// `(local node, prefix end)` into `intents`, one pair per node that
    /// emitted, in ascending node order: pair `p`'s node emitted
    /// `intents[spans[p-1].1..spans[p].1]` (with `spans[-1].1 = 0`), so the
    /// commit phase can attribute each intent to its emitting node.
    spans: Vec<(u32, u32)>,
    /// Per-owned-node RNG streams (seeded exactly as the flat engine did,
    /// so sharding never changes a node's stream).
    rngs: Vec<StdRng>,
    /// Reusable neighbour-view scratch for this shard's sweeps.
    scratch: ViewScratch,
    /// Mergeable sweep counters (merged in shard order on demand).
    accum: ShardAccum,
    /// Whether state this shard can observe (its nodes, their tasks, its
    /// incident links, its halo neighbours' heights) changed since its
    /// last sweep that emitted nothing.
    dirty: bool,
    /// Whether the current tick's sweep evaluated this shard.
    evaluated: bool,
}

#[derive(Debug, Clone, Copy)]
struct Flight {
    load: MigratingLoad,
    from: NodeId,
    to: NodeId,
    link_weight: f64,
    heat: f64,
    attempts: u32,
    bounced: bool,
}

/// Summary of a finished run. `PartialEq` compares every recorded artifact
/// (series, ledger, totals), so equality means the runs were outcome-
/// identical — used by the determinism tests comparing sequential and
/// parallel decision sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy name.
    pub balancer: String,
    /// Balance rounds executed.
    pub rounds: u64,
    /// Final simulation time.
    pub time: f64,
    /// Imbalance of the final height map.
    pub final_imbalance: Imbalance,
    /// CoV time series (sampled after every round).
    pub series: TimeSeries,
    /// Migration/traffic ledger.
    pub ledger: TrafficLedger,
    /// Total resident load at the end.
    pub total_load: f64,
    /// Load still in flight at the end.
    pub in_flight_load: f64,
    /// Tasks completed by work consumption.
    pub completed_tasks: usize,
}

impl RunReport {
    /// First round index at which the CoV dropped to ≤ `eps` and stayed
    /// there for `window` samples.
    pub fn converged_round(&self, eps: f64, window: usize) -> Option<f64> {
        self.series.converged_at(eps, window)
    }
}

/// The simulation engine. Build with [`EngineBuilder`].
pub struct Engine {
    state: SystemState,
    balancer: Box<dyn LoadBalancer>,
    config: EngineConfig,
    queue: EventQueue,
    time: f64,
    next_tick: f64,
    round: u64,
    flights: Vec<Option<Flight>>,
    free_slots: Vec<usize>,
    engine_rng: StdRng,
    ledger: TrafficLedger,
    series: TimeSeries,
    idgen: TaskIdGen,
    /// Edge-indexed set of links currently down.
    down_links: EdgeBitSet,
    /// Precomputed `e_{i,j}` per edge id for `config.weight_c`.
    link_weights: Vec<f64>,
    /// The spatial decomposition driving the sweep (fixed at build time).
    partition: Partition,
    /// Per-shard execution state, indexed by shard id.
    shards: Vec<ShardSlot>,
    /// CoV memoized across consecutive skipped rounds: `cov()` is a pure
    /// function of state, and a skipped round mutates nothing, so the
    /// cached value is bit-identical to recomputing — without paying the
    /// drift-guarded O(n) exact pass per skip on a drained-flat surface.
    /// Cleared by anything that touches state (executed rounds, drain,
    /// restore).
    skip_cov: Option<f64>,
    /// Resolved sweep worker count (1 = inline, no pool).
    threads: usize,
    /// Lazily created persistent shard pool (only when `threads > 1`).
    /// Affinity is a pure function of `(threads, K)` and both are fixed at
    /// build time, so the pool survives checkpoints and restores unchanged
    /// — the worker map is execution layout, not simulation state.
    pool: Option<ShardPool>,
    /// Rounds that ran the full pipeline rather than being fast-forwarded
    /// (diagnostic; kept out of `RunReport` like the shard counters, since
    /// skip-capable layouts execute fewer rounds than the sequential
    /// reference).
    executed_rounds: u64,
    /// Per-shard `nodes_evaluated` totals at the last repartition check —
    /// the subtraction baseline that turns the monotone accumulators into
    /// a sliding load window. Only maintained when `config.repartition`
    /// is set.
    repartition_base: Vec<u64>,
    /// Adaptive repartitions applied so far (diagnostic, like the shard
    /// counters: layout evolution is execution detail, never report data).
    repartitions: u64,
    /// Reused staging buffer for carrying per-node RNG streams across a
    /// repartition (capacity `n` after the first fire, so steady-state
    /// fires allocate nothing).
    rng_scratch: Vec<StdRng>,
    /// The join/leave schedule, sorted by `(round, node)` (empty = no
    /// churn). Static configuration like the trace — never checkpointed
    /// beyond its length fingerprint.
    churn: Vec<ChurnEvent>,
    /// Next unapplied entry of `churn`. Derivable from `round` (membership
    /// is a pure function of the plan prefix), so restores re-derive it.
    churn_next: usize,
    /// Down-node bitset in the occupancy layout ([`NODE_WORD`] nodes per
    /// word): bit set iff the node has churned out. All clear without
    /// churn.
    down_nodes: Vec<u64>,
    /// Union of `down_links` and every edge incident to a down node — the
    /// one edge set the decision views, launches and `live_edge` consult.
    /// Equals `down_links` while every node is up (always, without churn).
    masked_links: EdgeBitSet,
    /// Per-node speed multipliers on `consume_rate` (empty = homogeneous).
    speeds: Vec<f64>,
    /// Recorded arrival trace being replayed (indexed by `TraceArrival`).
    trace: Vec<TraceEvent>,
    /// Consumers already marked dirty in the current tick window, one bit
    /// per node in the occupancy layout (empty when `consume_rate` is 0).
    /// Invariant: a set bit implies the node's shard and its neighbours'
    /// shards are dirty. Only `eval_shard` clears dirty flags, so the memo
    /// is cleared at the top of `collect_decisions` and on `restore`;
    /// `apply_ranges` re-derives the flags as a superset (every node of an
    /// old dirty shard lands in a new dirty shard), which keeps the
    /// invariant.
    consume_marked: Vec<u64>,
    in_flight_load: f64,
    completed_tasks: usize,
}

impl Engine {
    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Immutable system state.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Current height map.
    pub fn heights(&self) -> Vec<f64> {
        self.state.heights()
    }

    /// Load currently in flight.
    pub fn in_flight_load(&self) -> f64 {
        self.in_flight_load
    }

    /// Total load in the system (resident + in flight).
    pub fn system_load(&self) -> f64 {
        self.state.total_load() + self.in_flight_load
    }

    /// Links currently down.
    pub fn down_link_count(&self) -> usize {
        self.down_links.count()
    }

    /// Nodes currently out of the system (left via churn, not yet rejoined).
    pub fn down_node_count(&self) -> usize {
        self.down_nodes.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether node `v` is currently part of the system.
    #[inline]
    fn node_up(&self, v: NodeId) -> bool {
        !node_bit(&self.down_nodes, v.idx())
    }

    /// The resolved shard execution layout. Boundary nodes — nodes with a
    /// neighbour in another shard — are counted from the topology and the
    /// current intervals on demand; this diagnostic is their only reader.
    pub fn shard_layout(&self) -> ShardLayout {
        let topo = &self.state.topo;
        let boundary_nodes = topo
            .nodes()
            .filter(|&v| {
                let s = self.partition.shard_of(v);
                topo.neighbors(v).iter().any(|&u| self.partition.shard_of(u) != s)
            })
            .count();
        ShardLayout { shards: self.partition.shard_count(), threads: self.threads, boundary_nodes }
    }

    /// The spatial decomposition the sweep runs over.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Sweep counters merged over all shards, in fixed shard order.
    pub fn shard_stats(&self) -> ShardAccum {
        let mut total = ShardAccum::new();
        for slot in &self.shards {
            total.merge(&slot.accum);
        }
        total
    }

    /// Rounds that ran the full pipeline (events, consumption, faults,
    /// decision sweep) instead of being fast-forwarded in closed form —
    /// every round at `K = 1`. A round that ran may still have skipped
    /// every shard's sweep (a due event woke it, but no shard was dirty).
    /// Like the shard counters this is a layout-dependent diagnostic.
    pub fn executed_rounds(&self) -> u64 {
        self.executed_rounds
    }

    /// Marks the shards that can observe node `v` (its own plus, for
    /// boundary nodes, every shard owning one of its neighbours) as needing
    /// evaluation. Called on every mutation of `v`'s tasks or height.
    /// Adjacency comes from the topology CSR plus the ownership map, so an
    /// adaptive repartition only has to refit the interval layout.
    #[inline]
    fn mark_node_dirty(&mut self, v: NodeId) {
        let s = self.partition.shard_of(v);
        self.shards[s].dirty = true;
        for &u in self.state.topo.neighbors(v) {
            let a = self.partition.shard_of(u);
            if a != s {
                self.shards[a].dirty = true;
            }
        }
    }

    /// Pre-reserves metric storage for `n` further rounds, so recording a
    /// sample during a tick never reallocates (useful for allocation-free
    /// steady-state measurement).
    pub fn reserve_rounds(&mut self, n: u64) {
        self.series.reserve(n as usize);
    }

    /// Runs `n` balance rounds (processing all intervening events) and
    /// returns the engine for chaining. The shard layout decides *how*
    /// each round runs (see [`EngineConfig::shards`]) — what it records is
    /// byte-identical either way.
    pub fn run_rounds(&mut self, n: u64) -> &mut Self {
        for _ in 0..n {
            self.run_round();
            self.maybe_repartition();
        }
        self
    }

    /// Adaptive repartitions applied so far.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// The between-rounds repartition check (a no-op without the
    /// [`RepartitionConfig`] knob): every `every` rounds, measure the
    /// per-shard sweep load accumulated since the last check and, when its
    /// max/mean skew exceeds the threshold, ask the policy for a strictly
    /// better-skewed contiguous layout. Runs at the same vantage point as
    /// [`Engine::checkpoint`] — all outboxes drained, no sweep in flight.
    fn maybe_repartition(&mut self) {
        let Some(rp) = self.config.repartition else { return };
        if rp.every == 0 || !self.round.is_multiple_of(rp.every) || self.shards.len() < 2 {
            return;
        }
        let loads: Vec<f64> = self
            .shards
            .iter()
            .zip(&self.repartition_base)
            .map(|(slot, &base)| (slot.accum.nodes_evaluated - base) as f64)
            .collect();
        // Slide the window whether or not we fire, so each check judges
        // recent activity instead of the whole run's history.
        for (base, slot) in self.repartition_base.iter_mut().zip(&self.shards) {
            *base = slot.accum.nodes_evaluated;
        }
        if load_skew(&loads) <= rp.skew_threshold {
            return;
        }
        if let Some(ranges) = RepartitionPolicy::rebalance(&self.partition, &loads) {
            self.apply_ranges(ranges);
        }
    }

    /// Swaps the shard decomposition for a new contiguous layout with the
    /// same K — the checkpoint machinery's layout-change path applied in
    /// place. Per-node RNG streams are carried over by node id (shard
    /// order is node-id order on both sides), and the carried dirty flags
    /// are what the fast-forward wakes on. The pool keeps its
    /// workers: affinity is a pure function of `(threads, K)` and K is
    /// unchanged. Nothing here mutates simulation state or draws
    /// randomness, so the run's report bytes cannot change.
    ///
    /// Activity flags are carried across the layout change at range
    /// granularity: a new shard needs evaluation iff it covers at least
    /// one node of an old *dirty* shard. Node-level quiescence is
    /// layout-independent and all outboxes are drained at this vantage
    /// point, so a new shard covering only clean old shards' nodes is
    /// provably quiescent — skipping it is exact. (Dropping to all-dirty,
    /// the checkpoint path's approach, would also be exact, but a full
    /// sweep of every shard after every repartition erases precisely the
    /// sweep savings repartitioning exists to buy.)
    fn apply_ranges(&mut self, ranges: Vec<(u32, u32)>) {
        debug_assert_eq!(ranges.len(), self.shards.len());
        let old_dirty: Vec<(u32, u32)> = (0..self.shards.len())
            .filter(|&s| self.shards[s].dirty)
            .map(|s| self.partition.range(s))
            .collect();
        // Per-node RNG streams ride along by node id through a persistent
        // scratch buffer; `append`/`extend` keep every Vec's capacity, so a
        // steady-state fire allocates nothing.
        self.rng_scratch.clear();
        for slot in &mut self.shards {
            self.rng_scratch.append(&mut slot.rngs);
        }
        self.partition.refit(ranges);
        let mut rngs = self.rng_scratch.drain(..);
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let (start, end) = self.partition.range(s);
            slot.rngs.extend(rngs.by_ref().take((end - start) as usize));
            slot.intents.clear();
            slot.spans.clear();
            slot.evaluated = false;
            slot.dirty = old_dirty.iter().any(|&(lo, hi)| lo < end && start < hi);
        }
        drop(rngs);
        for (base, slot) in self.repartition_base.iter_mut().zip(&self.shards) {
            *base = slot.accum.nodes_evaluated;
        }
        self.repartitions += 1;
    }

    /// One balance round: the full pipeline when something can happen at
    /// this round's tick (a dirty shard, a due event, decaying work, a
    /// fault process or churn) or when the layout does not skip; otherwise
    /// a closed-form fast-forward.
    ///
    /// The fast-forward is byte-exact against the full pipeline: with no
    /// event due at or before `t`, no resident work to consume, no fault
    /// process and a clean quiescence-stable policy, the full round would
    /// mutate nothing and draw no randomness — its only observable effects
    /// are the round counter, the clock, and one CoV sample, all of which
    /// the skip reproduces with the identical float operations (`cov()` is
    /// a pure read of the incremental statistics, and the clock advances by
    /// the same `max`/`+ tick` arithmetic). See
    /// `docs/adr/ADR-006-event-strategy.md`.
    fn run_round(&mut self) {
        // Draining may have carried the clock past the scheduled tick.
        let t = self.next_tick.max(self.time);
        if self.round_has_effect(t) {
            self.skip_cov = None;
            self.executed_rounds += 1;
            self.process_events_until(t);
            self.advance_time_to(t);
            self.fire_tick();
        } else {
            self.round += 1;
            self.time = self.time.max(t);
            let cov = match self.skip_cov {
                Some(c) => c,
                None => {
                    let c = self.state.cov();
                    self.skip_cov = Some(c);
                    c
                }
            };
            self.series.push(self.time, cov);
        }
        self.next_tick = self.time + self.config.tick;
    }

    /// Whether effect-free work may be skipped: clean shards inside a
    /// round ([`Engine::collect_decisions`]) and whole rounds
    /// ([`Engine::round_has_effect`]). Shard-level activity tracking only
    /// has resolution at `K ≥ 2`, so `K = 1` stays the skip-free
    /// sequential reference; and a policy without the quiescence-stable
    /// contract may mutate state or draw randomness in
    /// `begin_round`/`decide` even when clean.
    fn skipping(&self) -> bool {
        self.shards.len() >= 2 && self.balancer.quiescence_stable()
    }

    /// Whether the round at tick time `t` must run the full pipeline
    /// rather than the closed-form fast-forward.
    fn round_has_effect(&self, t: f64) -> bool {
        // The fault process draws engine RNG per edge every round.
        if !self.skipping() || self.config.fault_model.is_some() {
            return true;
        }
        // A churn event due at this round's tick mutates membership (and
        // possibly drains a queue); the fast-forward must not straddle it.
        if self.churn_next < self.churn.len() && self.churn[self.churn_next].round <= self.round + 1
        {
            return true;
        }
        // Resident work decays between rounds; the O(1) counter gates the
        // consumption sweep (n/64 word tests plus the consumers). On
        // an empty system the sweep is a no-op: `consume_work` on a
        // task-less node mutates nothing.
        if self.config.consume_rate > 0.0 && self.state.resident_tasks() > 0 {
            return true;
        }
        self.next_wake_at(t).is_some_and(|w| w <= t)
    }

    /// The earliest pending wake: the next dirty-shard sweep or the next
    /// event-queue entry (in-flight landing, dynamic arrival, trace
    /// replay), whichever comes first. `None` means nothing is ever going
    /// to happen again. On a fully quiescent system (no shard dirty) this
    /// is exactly the event queue's next time.
    pub fn next_wake(&self) -> Option<f64> {
        let t = self.next_tick.max(self.time);
        self.next_wake_at(t)
    }

    fn next_wake_at(&self, t: f64) -> Option<f64> {
        // A dirty shard must be swept at the upcoming tick; a clean one
        // sleeps until something it can observe marks it dirty.
        let sweep = self.shards.iter().any(|s| s.dirty).then_some(t);
        match (sweep, self.queue.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Runs rounds until the height CoV stays at or below `eps` for
    /// `window` consecutive rounds, or `max_rounds` have been executed.
    /// Returns the number of rounds run by this call.
    pub fn run_until_balanced(&mut self, eps: f64, window: usize, max_rounds: u64) -> u64 {
        let window = window.max(1);
        let mut streak = 0usize;
        for i in 0..max_rounds {
            self.run_rounds(1);
            let cov = self.state.cov();
            if cov <= eps {
                streak += 1;
                if streak >= window {
                    return i + 1;
                }
            } else {
                streak = 0;
            }
        }
        max_rounds
    }

    /// Processes pending events (in-flight loads, arrivals) for up to
    /// `extra_time` without firing further balance rounds — used to drain
    /// the network at the end of a run.
    pub fn drain(&mut self, extra_time: f64) -> &mut Self {
        self.skip_cov = None;
        let deadline = self.time + extra_time;
        self.process_events_until(deadline);
        // Consume work up to the next scheduled tick, but never rewind.
        let target = deadline.min(self.next_tick).max(self.time);
        self.advance_time_to(target);
        self
    }

    /// Builds the final report (cheap clone of the recorded metrics).
    pub fn report(&self) -> RunReport {
        RunReport {
            balancer: self.balancer.name().to_string(),
            rounds: self.round,
            time: self.time,
            final_imbalance: Imbalance::of(self.state.height_slice()),
            series: self.series.clone(),
            ledger: self.ledger.clone(),
            total_load: self.state.total_load(),
            in_flight_load: self.in_flight_load,
            completed_tasks: self.completed_tasks,
        }
    }

    /// Captures the complete dynamic state of the engine as a versioned
    /// [`Checkpoint`] — see the [`checkpoint`](crate::checkpoint) module
    /// docs for exactly what is (and is not) included.
    ///
    /// Must be taken *between* balance rounds (which is the only vantage
    /// point the public API exposes: after `run_rounds`/`drain` return).
    /// Restoring the snapshot into an engine freshly built from the same
    /// configuration resumes the run byte-identically, under any `(shards,
    /// threads)` layout.
    pub fn checkpoint(&self) -> Checkpoint {
        let n = self.state.node_count();
        let mut node_rngs = Vec::with_capacity(n);
        for (s, slot) in self.shards.iter().enumerate() {
            debug_assert_eq!(self.partition.range(s).0 as usize, node_rngs.len());
            node_rngs.extend(slot.rngs.iter().map(|r| r.state()));
        }
        let (queue_seq, queue) = self.queue.snapshot();
        Checkpoint {
            nodes: n,
            edges: self.state.topo.edge_count(),
            trace_len: self.trace.len(),
            balancer: self.balancer.name().to_string(),
            time: self.time,
            next_tick: self.next_tick,
            round: self.round,
            engine_rng: self.engine_rng.state(),
            node_rngs,
            node_tasks: (0..n)
                .map(|i| self.state.node(NodeId(i as u32)).tasks().to_vec())
                .collect(),
            node_heights: self.state.height_slice().to_vec(),
            stats: self.state.stat_snapshot(),
            idgen_next: self.idgen.position(),
            down_words: self.down_links.words().to_vec(),
            flights: self
                .flights
                .iter()
                .map(|f| {
                    f.map(|f| FlightSnap {
                        task: f.load.task,
                        flag: f.load.flag,
                        hops: f.load.hops,
                        source: f.load.source.0,
                        from: f.from.0,
                        to: f.to.0,
                        link_weight: f.link_weight,
                        heat: f.heat,
                        attempts: f.attempts,
                        bounced: f.bounced,
                    })
                })
                .collect(),
            free_slots: self.free_slots.clone(),
            in_flight_load: self.in_flight_load,
            completed_tasks: self.completed_tasks,
            queue_seq,
            queue,
            ledger: self.ledger.records().to_vec(),
            series: self.series.points().to_vec(),
            shard_layout_k: self.shards.len(),
            shard_dirty: self.shards.iter().map(|s| s.dirty).collect(),
            shard_accums: self.shards.iter().map(|s| s.accum).collect(),
            balancer_state: self.balancer.save_state(),
            churn_len: self.churn.len(),
        }
    }

    /// Overwrites this engine's dynamic state with a [`Checkpoint`],
    /// resuming the captured run exactly. The engine must have been built
    /// from the same configuration the checkpoint was written under; the
    /// fingerprint (node/edge counts, trace length, balancer name) is
    /// checked and a mismatch — like any structurally invalid snapshot —
    /// returns `Err` without touching the engine. Never panics on corrupt
    /// input: every index and float the snapshot carries is validated
    /// before anything is applied.
    pub fn restore(&mut self, cp: &Checkpoint) -> Result<(), String> {
        let n = self.state.node_count();
        // --- Validation phase: no engine state is touched until all of it
        // passes, so a bad checkpoint leaves the engine fully usable.
        if cp.nodes != n {
            return Err(format!("checkpoint has {} nodes, engine has {n}", cp.nodes));
        }
        if cp.edges != self.state.topo.edge_count() {
            return Err(format!(
                "checkpoint has {} edges, engine has {}",
                cp.edges,
                self.state.topo.edge_count()
            ));
        }
        if cp.trace_len != self.trace.len() {
            return Err(format!(
                "checkpoint replays a {}-record trace, engine has {} records",
                cp.trace_len,
                self.trace.len()
            ));
        }
        if cp.balancer != self.balancer.name() {
            return Err(format!(
                "checkpoint was written under balancer `{}`, engine runs `{}`",
                cp.balancer,
                self.balancer.name()
            ));
        }
        if cp.churn_len != self.churn.len() {
            return Err(format!(
                "checkpoint was written under a {}-event churn plan, engine has {} events",
                cp.churn_len,
                self.churn.len()
            ));
        }
        if cp.node_rngs.len() != n || cp.node_tasks.len() != n || cp.node_heights.len() != n {
            return Err("checkpoint per-node vectors do not match the node count".into());
        }
        // Seeding never produces the all-zero xoshiro state (it is the
        // generator's fixed point); a zeroed entry can only be a corrupted
        // snapshot, so reject it here rather than let `from_state`'s
        // defense-in-depth repair substitute a different stream silently.
        if cp.engine_rng == [0; 4] || cp.node_rngs.contains(&[0; 4]) {
            return Err("checkpoint carries an all-zero RNG state (corrupt snapshot)".into());
        }
        for (key, v) in [("time", cp.time), ("next_tick", cp.next_tick)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("checkpoint `{key}` = {v} must be finite and non-negative"));
            }
        }
        // The in-flight total is an accumulated sum, so with every load
        // landed it can read a few ulps below zero. That drift is exact
        // state and restores verbatim; anything further below is corrupt.
        let floor = -IN_FLIGHT_DRIFT_TOLERANCE * cp.stats.height_sum.abs().max(1.0);
        if !(cp.in_flight_load.is_finite() && cp.in_flight_load >= floor) {
            return Err(format!(
                "checkpoint `in_flight_load` = {} must be finite and at least {floor} \
                 (float drift below zero)",
                cp.in_flight_load
            ));
        }
        if cp.node_heights.iter().any(|h| !h.is_finite()) {
            return Err("checkpoint node heights must be finite".into());
        }
        let down_links =
            EdgeBitSet::from_words(self.state.topo.edge_count(), cp.down_words.clone())
                .map_err(|e| format!("checkpoint down-link bitset: {e}"))?;
        let queue = EventQueue::from_entries(cp.queue_seq, &cp.queue)
            .map_err(|e| format!("checkpoint event queue: {e}"))?;
        // Event payload indices: every pending load arrival must name a
        // distinct occupied flight slot (handle_arrival takes the slot), and
        // trace replays must stay inside the trace table. Temporal
        // consistency: no pending event may predate the clock (a legit
        // engine always drains events up to `time` before they can linger),
        // or the post-restore event loop would run the clock backwards.
        let mut arrival_seen = vec![false; cp.flights.len()];
        for &(et, _, event) in &cp.queue {
            if et < cp.time {
                return Err(format!("pending event at t={et} predates the clock t={}", cp.time));
            }
            match event {
                Event::LoadArrival { flight } => {
                    if flight >= cp.flights.len() || cp.flights[flight].is_none() {
                        return Err(format!("pending arrival names invalid flight slot {flight}"));
                    }
                    if std::mem::replace(&mut arrival_seen[flight], true) {
                        return Err(format!("flight slot {flight} has two pending arrivals"));
                    }
                }
                Event::TraceArrival { record } => {
                    if record >= self.trace.len() {
                        return Err(format!("pending trace arrival names invalid record {record}"));
                    }
                }
                Event::TaskArrival => {}
            }
        }
        // The inverse direction: every occupied slot must have exactly one
        // pending arrival, or the load would sit in the slab (and in
        // `in_flight_load`) forever without ever landing.
        if let Some(orphan) =
            (0..cp.flights.len()).find(|&i| cp.flights[i].is_some() && !arrival_seen[i])
        {
            return Err(format!("flight slot {orphan} is occupied but has no pending arrival"));
        }
        let mut free_seen = vec![false; cp.flights.len()];
        for &s in &cp.free_slots {
            if s >= cp.flights.len() || cp.flights[s].is_some() {
                return Err(format!("free list names non-empty flight slot {s}"));
            }
            if std::mem::replace(&mut free_seen[s], true) {
                return Err(format!("flight slot {s} listed free twice"));
            }
        }
        // And every empty slot must be on the free list, or the slab leaks
        // it and later allocations pop different slot indices than the
        // uninterrupted run — silent divergence instead of a clean error.
        if let Some(leak) =
            (0..cp.flights.len()).find(|&i| cp.flights[i].is_none() && !free_seen[i])
        {
            return Err(format!("empty flight slot {leak} is missing from the free list"));
        }
        // The per-shard activity vectors must be self-consistent with the
        // capture layout regardless of this engine's layout.
        if cp.shard_dirty.len() != cp.shard_layout_k || cp.shard_accums.len() != cp.shard_layout_k {
            return Err(format!(
                "checkpoint shard vectors do not match shard_layout_k = {}",
                cp.shard_layout_k
            ));
        }
        for f in cp.flights.iter().flatten() {
            if f.from as usize >= n || f.to as usize >= n || f.source as usize >= n {
                return Err("flight references a node out of range".into());
            }
            if !(f.flag.is_finite() && f.link_weight.is_finite() && f.heat.is_finite()) {
                return Err("flight floats must be finite".into());
            }
            if !(f.task.size.is_finite() && f.task.size > 0.0 && f.task.work.is_finite())
                || f.task.work < 0.0
            {
                return Err("flight task size/work out of range".into());
            }
        }
        // Floats that feed accumulated totals or later arithmetic: a single
        // non-finite value would restore Ok and silently poison every
        // subsequent report, so reject it here (JSON carrying `1e999`
        // parses to infinity).
        if ![
            cp.stats.height_sum,
            cp.stats.height_sq_sum,
            cp.stats.stat_peak_sum,
            cp.stats.stat_peak_sq,
        ]
        .iter()
        .all(|v| v.is_finite())
        {
            return Err("checkpoint imbalance statistics must be finite".into());
        }
        for tasks in &cp.node_tasks {
            for t in tasks {
                if !(t.size.is_finite() && t.size > 0.0 && t.work.is_finite())
                    || t.work < 0.0
                    || !t.created_at.is_finite()
                {
                    return Err("checkpoint task size/work/created_at out of range".into());
                }
            }
        }
        // A finite size can still be too large to move: a hop lands at
        // `time + (distance + size/bandwidth)·attempts`, and a non-finite
        // landing time would panic the event queue rounds later. Every
        // size is at most the total load, so bounding the total's hop over
        // the slowest link covers every resident and in-flight task.
        let total: f64 = cp.node_tasks.iter().flatten().map(|t| t.size).sum::<f64>()
            + cp.flights.iter().flatten().map(|f| f.task.size).sum::<f64>();
        let slowest_hop =
            self.state.links().attrs().iter().map(|a| a.transfer_time(total)).fold(0.0, f64::max);
        let attempts = f64::from(self.config.max_attempts.max(1));
        if !(cp.time + slowest_hop * attempts).is_finite() {
            return Err(format!(
                "checkpoint task sizes total {total}: a hop of that load would land at a \
                 non-finite time"
            ));
        }
        for rec in &cp.ledger {
            if ![rec.time, rec.size, rec.link_weight, rec.heat].iter().all(|v| v.is_finite()) {
                return Err("checkpoint ledger records must be finite".into());
            }
        }
        if cp.series.windows(2).any(|w| w[1].0 < w[0].0)
            || cp.series.iter().any(|&(t, v)| !t.is_finite() || !v.is_finite())
        {
            return Err("checkpoint series must be finite with non-decreasing times".into());
        }
        // A legit capture's last sample was pushed at (or before) the
        // clock; a later one would make the next tick's push violate the
        // series' time-order assertion — reject it here instead of
        // panicking there.
        if let Some(&(last, _)) = cp.series.last() {
            if last > cp.time {
                return Err(format!(
                    "checkpoint series runs to t={last}, beyond the clock t={}",
                    cp.time
                ));
            }
        }
        // --- Balancer state next: it only touches the policy, and a
        // failure here still leaves the engine's own state untouched.
        if let Some(state) = &cp.balancer_state {
            self.balancer
                .load_state(state, n)
                .map_err(|e| format!("balancer `{}` state: {e}", self.balancer.name()))?;
        }
        // --- Apply phase (infallible from here on).
        for i in 0..n {
            let v = NodeId(i as u32);
            self.state.restore_node(v, cp.node_tasks[i].clone(), cp.node_heights[i]);
        }
        self.state.restore_stats(cp.stats);
        self.engine_rng = StdRng::from_state(cp.engine_rng);
        // Vector lengths were validated against shard_layout_k above, so
        // the K comparison decides whether the flags carry over — unless
        // adaptive repartitioning is on, where equal K no longer implies
        // equal ranges (the writer may have been mid-adaptation), so the
        // flags are meaningless and the conservative all-dirty path is the
        // only sound one.
        let same_layout =
            cp.shard_layout_k == self.shards.len() && self.config.repartition.is_none();
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let (start, end) = self.partition.range(s);
            for (k, i) in (start..end).enumerate() {
                slot.rngs[k] = StdRng::from_state(cp.node_rngs[i as usize]);
            }
            slot.intents.clear();
            slot.spans.clear();
            slot.evaluated = false;
            // Same layout: resume the activity tracking exactly. Different
            // layout: conservatively mark everything dirty — report-exact
            // either way (evaluating a clean shard of a quiescence-stable
            // policy emits nothing and draws nothing; ADR-004), only the
            // diagnostic skip counters differ.
            if same_layout {
                slot.dirty = cp.shard_dirty[s];
                slot.accum = cp.shard_accums[s];
            } else {
                slot.dirty = true;
                slot.accum = ShardAccum::new();
            }
        }
        // The memoized skip CoV belongs to the abandoned timeline, and so
        // do the repartition load window and the consume memo (the restored
        // flags need not back its bits).
        self.skip_cov = None;
        self.consume_marked.fill(0);
        for (base, slot) in self.repartition_base.iter_mut().zip(&self.shards) {
            *base = slot.accum.nodes_evaluated;
        }
        self.queue = queue;
        self.flights = cp
            .flights
            .iter()
            .map(|f| {
                f.as_ref().map(|f| Flight {
                    load: MigratingLoad {
                        task: f.task,
                        flag: f.flag,
                        hops: f.hops,
                        source: NodeId(f.source),
                    },
                    from: NodeId(f.from),
                    to: NodeId(f.to),
                    link_weight: f.link_weight,
                    heat: f.heat,
                    attempts: f.attempts,
                    bounced: f.bounced,
                })
            })
            .collect();
        self.free_slots = cp.free_slots.clone();
        self.in_flight_load = cp.in_flight_load;
        self.completed_tasks = cp.completed_tasks;
        self.idgen = TaskIdGen::starting_at(cp.idgen_next);
        self.down_links = down_links;
        // Membership is a pure function of the plan prefix applied so far,
        // so it is re-derived rather than stored: replay every event with
        // round ≤ the restored round (flags only — the drains those events
        // performed are already baked into the restored node queues), then
        // rebuild the mask as down links ∪ edges incident to down nodes.
        self.down_nodes.fill(0);
        let mut next = 0;
        while next < self.churn.len() && self.churn[next].round <= cp.round {
            let ev = self.churn[next];
            set_node_bit(&mut self.down_nodes, ev.node as usize, ev.leave);
            next += 1;
        }
        self.churn_next = next;
        self.masked_links = self.down_links.clone();
        for i in 0..n {
            let v = NodeId(i as u32);
            if self.node_up(v) {
                continue;
            }
            for &u in self.state.topo.neighbors(v) {
                let e = self.state.topo.edge_index(v, u).expect("CSR neighbour edge");
                self.masked_links.insert(e);
            }
        }
        // Rebuild the ledger and series by replaying the identical record
        // sequence, so the running totals reproduce the captured
        // accumulation bit-for-bit.
        self.ledger = TrafficLedger::new();
        for rec in &cp.ledger {
            self.ledger.record(*rec);
        }
        self.series = TimeSeries::new();
        for &(t, v) in &cp.series {
            self.series.push(t, v);
        }
        self.time = cp.time;
        self.next_tick = cp.next_tick;
        self.round = cp.round;
        Ok(())
    }

    fn process_events_until(&mut self, t: f64) {
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let (et, event) = self.queue.pop().expect("peeked");
            self.advance_time_to(et);
            match event {
                Event::LoadArrival { flight } => self.handle_arrival(flight),
                Event::TaskArrival => self.handle_task_arrival(),
                Event::TraceArrival { record } => self.handle_trace_arrival(record),
            }
        }
    }

    /// Advances the clock to `t`, consuming work on every up node that
    /// holds any (scaled by the node's speed multiplier when heterogeneous
    /// speeds are set).
    ///
    /// Consuming on an empty node is a no-op (nothing completes, nothing is
    /// used, nothing is marked dirty), so the sweep is skipped outright
    /// while no task is resident, and otherwise runs word by word over the
    /// occupancy bitset: `occupied & !down` picks a word's consumers (a
    /// churned-out node's frozen tasks wait for it to rejoin), and
    /// [`SystemState::consume_word`] steps them in ascending id order,
    /// exactly as a node-by-node `consume_work` scan would. Then, once per
    /// word, the consumers not yet in the memo mark their shards dirty.
    fn advance_time_to(&mut self, t: f64) {
        let dt = t - self.time;
        debug_assert!(dt >= -1e-9, "time went backwards: {} -> {}", self.time, t);
        if dt > 0.0 && self.config.consume_rate > 0.0 && self.state.resident_tasks() > 0 {
            let amount = dt * self.config.consume_rate;
            for w in 0..self.down_nodes.len() {
                let live = self.state.occupied_words()[w] & !self.down_nodes[w];
                if live == 0 {
                    continue;
                }
                let (stepped, done) = self.state.consume_word(w, live, amount, &self.speeds);
                self.completed_tasks += done;
                // Marking is idempotent until the next sweep clears the
                // flags, so each consumer marks once per window.
                let mut fresh = stepped & !self.consume_marked[w];
                self.consume_marked[w] |= fresh;
                while fresh != 0 {
                    let k = fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    self.mark_node_dirty(NodeId((w * NODE_WORD + k) as u32));
                }
            }
        }
        self.time = self.time.max(t);
    }

    fn fire_tick(&mut self) {
        self.round += 1;
        self.apply_churn();
        self.update_faults();

        let global = GlobalView {
            topo: &self.state.topo,
            heights: self.state.height_slice(),
            round: self.round,
            time: self.time,
        };
        self.balancer.begin_round(&global);

        self.collect_decisions();
        // Commit phase — the batched halo exchange: drain the evaluated
        // shards' outboxes in fixed shard order. Shards are contiguous
        // ascending id ranges, so this is exactly the flat engine's
        // ascending-node launch order, and every cross-shard (halo) effect
        // lands here, after the barrier, never mid-sweep. Skipped shards
        // hold no intents (their outboxes were drained the last time they
        // were evaluated). Arenas are swapped out so `launch` may mutate
        // state while we drain them; they (and their capacity) come back
        // after.
        for s in 0..self.shards.len() {
            if !self.shards[s].evaluated || self.shards[s].intents.is_empty() {
                continue;
            }
            let (start, _) = self.partition.range(s);
            let intents = std::mem::take(&mut self.shards[s].intents);
            let spans = std::mem::take(&mut self.shards[s].spans);
            let mut next = 0usize;
            for &(k, end) in &spans {
                let node = NodeId(start + k);
                for &intent in &intents[next..end as usize] {
                    self.launch(node, intent);
                }
                next = end as usize;
            }
            let slot = &mut self.shards[s];
            slot.intents = intents;
            slot.intents.clear();
            slot.spans = spans;
            slot.spans.clear();
        }
        self.series.push(self.time, self.state.cov());
    }

    /// Applies every churn event scheduled at or before the current round,
    /// in plan order. Runs at the very top of the tick — before the fault
    /// process and the decision sweep — and draws no randomness, so churned
    /// runs stay byte-identical across every `(shards, threads)` layout and
    /// both simulation strategies.
    fn apply_churn(&mut self) {
        while self.churn_next < self.churn.len() && self.churn[self.churn_next].round <= self.round
        {
            let ev = self.churn[self.churn_next];
            self.churn_next += 1;
            let v = NodeId(ev.node);
            if ev.leave {
                self.node_leave(v);
            } else {
                self.node_join(v);
            }
        }
    }

    /// Takes node `v` out of the system: masks its incident edges and
    /// drains its resident tasks round-robin over the up neighbours
    /// reachable across non-faulted links (ascending node order — the CSR
    /// order every other sweep uses). With no live receiver (every
    /// neighbour down or every incident link faulted) the tasks freeze in
    /// place until the node rejoins; they are not consumed meanwhile.
    fn node_leave(&mut self, v: NodeId) {
        set_node_bit(&mut self.down_nodes, v.idx(), true);
        let mut receivers: Vec<NodeId> = Vec::new();
        for &u in self.state.topo.neighbors(v) {
            let e = self.state.topo.edge_index(v, u).expect("CSR neighbour edge exists");
            self.masked_links.insert(e);
            if self.node_up(u) && !self.down_links.contains(e) {
                receivers.push(u);
            }
        }
        self.mark_node_dirty(v);
        if receivers.is_empty() {
            return;
        }
        let ids: Vec<_> = self.state.node(v).tasks().iter().map(|t| t.id).collect();
        for (i, id) in ids.into_iter().enumerate() {
            let task = self.state.remove_task(v, id).expect("drained task is resident");
            self.state.add_task(receivers[i % receivers.len()], task);
        }
        for &u in &receivers {
            self.mark_node_dirty(u);
        }
    }

    /// Brings node `v` back cold: unmasks its incident edges (except those
    /// whose other endpoint is still down, and those the fault process
    /// holds down) and wakes the shards that can observe it.
    fn node_join(&mut self, v: NodeId) {
        set_node_bit(&mut self.down_nodes, v.idx(), false);
        let unmask: Vec<EdgeId> = self
            .state
            .topo
            .neighbors(v)
            .iter()
            .filter(|&&u| self.node_up(u))
            .map(|&u| self.state.topo.edge_index(v, u).expect("CSR neighbour edge exists"))
            .filter(|&e| !self.down_links.contains(e))
            .collect();
        for e in unmask {
            self.masked_links.remove(e);
        }
        self.mark_node_dirty(v);
    }

    fn update_faults(&mut self) {
        let Some(fm) = self.config.fault_model else { return };
        for e in 0..self.state.topo.edge_count() as u32 {
            let e = EdgeId(e);
            let flipped = if self.down_links.contains(e) {
                let up = self.engine_rng.gen_bool(fm.p_up);
                if up {
                    self.down_links.remove(e);
                    // The mask lifts only if neither endpoint is down.
                    let (u, v) = self.state.topo.edge_endpoints(e);
                    if self.node_up(u) && self.node_up(v) {
                        self.masked_links.remove(e);
                    }
                }
                up
            } else {
                let down = self.engine_rng.gen_bool(fm.p_down);
                if down {
                    self.down_links.insert(e);
                    self.masked_links.insert(e);
                }
                down
            };
            if flipped {
                // A link flip changes only its two endpoints' views.
                let (u, v) = self.state.topo.edge_endpoints(e);
                let su = self.partition.shard_of(u);
                let sv = self.partition.shard_of(v);
                self.shards[su].dirty = true;
                self.shards[sv].dirty = true;
            }
        }
    }

    /// The live edge between `u` and `v`, if the edge exists, its link is
    /// up, and neither endpoint has churned out.
    fn live_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.state.topo.edge_index(u, v).filter(|&e| !self.masked_links.contains(e))
    }

    /// Fills each shard's decision buffers with its nodes' migration
    /// intents for this tick. Decisions are pure functions of the
    /// tick-start height snapshot (nothing mutates state until the launch
    /// phase) and every node draws from its own RNG stream, so evaluating
    /// shards inline, across the worker pool, or skipping provably
    /// quiescent ones yields identical results.
    fn collect_decisions(&mut self) {
        let round = self.round;
        let time = self.time;
        // `eval_shard` is about to clear dirty flags, so the consume memo's
        // invariant no longer holds for what it recorded.
        self.consume_marked.fill(0);
        let skip_ok = self.skipping();
        let mut pending = 0usize;
        for slot in &mut self.shards {
            slot.evaluated = slot.dirty || !skip_ok;
            if slot.evaluated {
                pending += 1;
            } else {
                slot.accum.record_skipped();
            }
        }
        if pending == 0 {
            return;
        }

        let blocked = &self.masked_links;
        let state = &self.state;
        let heights = state.height_slice();
        let links = LinkView {
            attrs: state.links().attrs(),
            weights: Some(&self.link_weights),
            weight_c: self.config.weight_c,
            down: if blocked.none_set() { None } else { Some(blocked) },
        };
        let balancer = &*self.balancer;
        let partition = &self.partition;

        if self.threads > 1 && pending > 1 {
            let threads = self.threads;
            let k = self.shards.len();
            let pool = self.pool.get_or_insert_with(|| ShardPool::new(threads, k));
            // Every shard runs on the worker that owns it — same worker
            // every round, so the slot's arena, scratch and RNG cache lines
            // never migrate between cores. The pool hands each worker
            // disjoint `&mut ShardSlot`s; no locks, no per-shard messages,
            // one barrier wake per round. Skipped shards cost their owner
            // one flag read.
            pool.run_shards(&mut self.shards, &|s, slot| {
                if !slot.evaluated {
                    return;
                }
                let (start, end) = partition.range(s);
                // Pull the halo's height words onto this core before the
                // decision loop: neighbouring shards' workers dirtied them
                // last round, and streaming them in one batch beats
                // faulting them in one cache miss at a time mid-decision.
                // Pooled path only — with a single worker every line is
                // already local and the touch would be pure overhead.
                prefetch_halo(state, heights, start, end);
                eval_shard(slot, start, end, state, heights, &links, balancer, round, time);
            });
        } else {
            for s in 0..self.shards.len() {
                if !self.shards[s].evaluated {
                    continue;
                }
                let (start, end) = self.partition.range(s);
                eval_shard(
                    &mut self.shards[s],
                    start,
                    end,
                    state,
                    heights,
                    &links,
                    balancer,
                    round,
                    time,
                );
            }
        }
    }

    /// Validates and launches one migration from `from`.
    fn launch(&mut self, from: NodeId, intent: MigrationIntent) {
        // Destination must be a live neighbour.
        let Some(edge) = self.live_edge(from, intent.to) else {
            return;
        };
        // Task must still be resident (a node might double-propose).
        let Some(task) = self.state.remove_task(from, intent.task) else {
            return;
        };
        self.mark_node_dirty(from);
        let load = MigratingLoad { task, flag: intent.flag, hops: 0, source: from };
        self.launch_load(from, intent.to, edge, load, intent.heat);
    }

    fn launch_load(
        &mut self,
        from: NodeId,
        to: NodeId,
        edge: EdgeId,
        mut load: MigratingLoad,
        heat: f64,
    ) {
        let attrs = self.state.links().get(edge);
        let duration = attrs.transfer_time(load.task.size);
        // Attempts until first success are geometric in the per-try success
        // probability; sample the count directly with one uniform draw
        // instead of one Bernoulli draw per retry, then cap at the budget.
        // `G = 1 + ⌊ln(1−U)/ln(1−p)⌋`; the transfer bounces iff G exceeds
        // the budget.
        let p_ok = attrs.success_probability(duration).max(1e-12);
        let budget = self.config.max_attempts.max(1);
        let (attempts, bounced) = if p_ok >= 1.0 {
            (1, false)
        } else {
            let u: f64 = self.engine_rng.gen_range(0.0..1.0);
            let g = 1.0 + ((1.0 - u).ln() / (1.0 - p_ok).ln()).floor();
            if g > budget as f64 {
                (budget, true)
            } else {
                (g as u32, false)
            }
        };
        let (dest, bounced) = if bounced { (from, true) } else { (to, false) };
        load.hops += 1;
        let flight = Flight {
            load,
            from,
            to: dest,
            link_weight: self.link_weights[edge.idx()],
            heat,
            attempts,
            bounced,
        };
        self.in_flight_load += load.task.size;
        let slot = if let Some(s) = self.free_slots.pop() {
            self.flights[s] = Some(flight);
            s
        } else {
            self.flights.push(Some(flight));
            self.flights.len() - 1
        };
        self.queue
            .push(self.time + duration * attempts as f64, Event::LoadArrival { flight: slot });
    }

    fn handle_arrival(&mut self, slot: usize) {
        let flight = self.flights[slot].take().expect("dangling flight");
        self.free_slots.push(slot);
        self.in_flight_load -= flight.load.task.size;

        self.ledger.record(MigrationRecord {
            time: self.time,
            from: flight.from.0,
            to: flight.to.0,
            size: flight.load.task.size,
            link_weight: flight.link_weight,
            heat: flight.heat,
            faulted: flight.attempts > 1 || flight.bounced,
        });

        if flight.bounced {
            // The transfer failed for good; the load stays at its source
            // (or, if the source churned out mid-flight, the nearest live
            // node standing in for it).
            let dest = self.deposit_node(flight.to);
            self.state.add_task(dest, flight.load.task);
            self.mark_node_dirty(dest);
            return;
        }

        // A landing node that churned out mid-flight cannot decide (its
        // RNG stream must not advance for a node that is not there): the
        // load deposits at the nearest live node instead.
        if !self.node_up(flight.to) {
            let dest = self.deposit_node(flight.to);
            self.state.add_task(dest, flight.load.task);
            self.mark_node_dirty(dest);
            return;
        }

        // In-motion decision: may the load keep sliding (§5.1)? The view
        // is built into the landing shard's scratch and the draw comes from
        // the landing node's own RNG stream, exactly as the flat engine
        // did.
        let blocked = &self.masked_links;
        let links = LinkView {
            attrs: self.state.links().attrs(),
            weights: Some(&self.link_weights),
            weight_c: self.config.weight_c,
            down: if blocked.none_set() { None } else { Some(blocked) },
        };
        let s = self.partition.shard_of(flight.to);
        let local = (flight.to.0 - self.partition.range(s).0) as usize;
        let slot = &mut self.shards[s];
        let view = build_view(
            &mut slot.scratch,
            &self.state,
            flight.to,
            self.state.height_slice(),
            &links,
            self.round,
            self.time,
        );
        let onward = self.balancer.on_arrival(&view, &flight.load, &mut slot.rngs[local]);
        match onward {
            Some(intent) => match self.live_edge(flight.to, intent.to) {
                Some(edge) => {
                    let mut load = flight.load;
                    load.flag = intent.flag;
                    self.launch_load(flight.to, intent.to, edge, load, intent.heat);
                }
                None => {
                    self.state.add_task(flight.to, flight.load.task);
                    self.mark_node_dirty(flight.to);
                }
            },
            None => {
                self.state.add_task(flight.to, flight.load.task);
                self.mark_node_dirty(flight.to);
            }
        }
    }

    fn handle_task_arrival(&mut self) {
        let n = self.state.node_count();
        if let Some((next, size)) = self.config.arrival.next_after(self.time, &mut self.engine_rng)
        {
            // Current arrival: the process picks the target (uniform for
            // all processes except the moving hotspot).
            let node = NodeId(self.config.arrival.target_node(self.time, n, &mut self.engine_rng));
            // A down target redirects to the next live node cyclically —
            // the draw itself is unchanged, so the engine stream position
            // stays a pure function of time, never of membership.
            let node = if self.node_up(node) { node } else { self.next_up_node(node) };
            let task = Task::new(self.idgen.next_id(), size, node.0).created_at(self.time);
            self.state.add_task(node, task);
            self.mark_node_dirty(node);
            self.queue.push(next, Event::TaskArrival);
        }
    }

    fn handle_trace_arrival(&mut self, record: usize) {
        let ev = self.trace[record];
        let node = NodeId(ev.node);
        let node = if self.node_up(node) { node } else { self.next_up_node(node) };
        let task = Task::new(self.idgen.next_id(), ev.size, node.0).created_at(self.time);
        self.state.add_task(node, task);
        self.mark_node_dirty(node);
    }

    /// Where a load addressed at `v` is deposited: `v` itself when up,
    /// otherwise `v`'s first up neighbour (ascending — the node the load is
    /// physically closest to), otherwise the next up node cyclically.
    fn deposit_node(&self, v: NodeId) -> NodeId {
        if self.node_up(v) {
            return v;
        }
        if let Some(&u) = self.state.topo.neighbors(v).iter().find(|&&u| self.node_up(u)) {
            return u;
        }
        self.next_up_node(v)
    }

    /// The first up node after `v` in cyclic node-id order. The churn plan
    /// never empties the system, so this always finds one.
    fn next_up_node(&self, v: NodeId) -> NodeId {
        let n = self.state.node_count() as u32;
        for step in 1..=n {
            let u = NodeId((v.0 + step) % n);
            if self.node_up(u) {
                return u;
            }
        }
        v
    }
}

/// Touches the height words of one shard's halo — neighbours of its nodes
/// owned by *other* shards — so the decision sweep reads warm lines instead
/// of pulling each cross-shard height over the interconnect mid-loop. The
/// reads feed a `black_box`ed sum so the touch cannot be optimised away;
/// the value itself is discarded, so this cannot affect what is computed.
#[inline]
fn prefetch_halo(state: &SystemState, heights: &[f64], start: u32, end: u32) {
    let mut touched = 0.0f64;
    for v in start..end {
        for &j in state.topo.neighbors(NodeId(v)) {
            let j = j.0;
            if j < start || j >= end {
                touched += heights[j as usize];
            }
        }
    }
    std::hint::black_box(touched);
}

/// Sweeps one shard: evaluates `decide` for every owned node that holds a
/// task into the shard's decision buffers, using the shard's scratch and
/// per-node RNGs. Shared by the inline and pooled paths, so both are
/// trivially identical.
///
/// An empty node is never asked: an intent moves one of the deciding
/// node's own tasks, and the [`LoadBalancer`] contract has a policy draw
/// nothing from its RNG when `view.tasks` is empty, so skipping the view
/// build and the call changes no intent and no RNG stream (ADR-004 §3).
/// The shard's counters still record every owned node as evaluated.
#[allow(clippy::too_many_arguments)] // one hot call site, flat args beat a context struct
fn eval_shard(
    slot: &mut ShardSlot,
    start: u32,
    end: u32,
    state: &SystemState,
    heights: &[f64],
    links: &LinkView<'_>,
    balancer: &dyn LoadBalancer,
    round: u64,
    time: f64,
) {
    slot.intents.clear();
    slot.spans.clear();
    for i in OccupiedWalk::new(state.occupied_words(), start as usize, end as usize) {
        let (node, k) = (NodeId(i as u32), i - start as usize);
        let view = build_view(&mut slot.scratch, state, node, heights, links, round, time);
        let before = slot.intents.len();
        balancer.decide_into(&view, &mut slot.rngs[k], &mut slot.intents);
        if slot.intents.len() > before {
            slot.spans.push((k as u32, slot.intents.len() as u32));
        }
    }
    let intents = slot.intents.len() as u64;
    slot.accum.record_evaluated((end - start) as u64, intents);
    // An all-empty sweep leaves the shard clean: for a quiescence-stable
    // policy it stays skippable until a mutation it can observe re-marks
    // it. (When the policy is not quiescence-stable `dirty` is ignored —
    // every shard is evaluated every tick.)
    slot.dirty = intents > 0;
}

/// Builder for [`Engine`].
pub struct EngineBuilder {
    topo: Topology,
    links: Option<LinkMap>,
    workload: Option<Workload>,
    task_graph: TaskGraph,
    resources: ResourceMatrix,
    balancer: Option<Box<dyn LoadBalancer>>,
    config: EngineConfig,
    speeds: Vec<f64>,
    trace: Vec<TraceEvent>,
    churn: ChurnPlan,
    seed: u64,
}

impl EngineBuilder {
    /// Starts a builder for the given topology.
    pub fn new(topo: Topology) -> Self {
        EngineBuilder {
            topo,
            links: None,
            workload: None,
            task_graph: TaskGraph::new(),
            resources: ResourceMatrix::none(),
            balancer: None,
            config: EngineConfig::default(),
            speeds: Vec::new(),
            trace: Vec::new(),
            churn: ChurnPlan::default(),
            seed: 0,
        }
    }

    /// Sets link attributes (default: uniform unit links).
    pub fn links(mut self, links: LinkMap) -> Self {
        self.links = Some(links);
        self
    }

    /// Sets the initial workload (default: empty system).
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = Some(w);
        self
    }

    /// Sets the task dependency graph.
    pub fn task_graph(mut self, g: TaskGraph) -> Self {
        self.task_graph = g;
        self
    }

    /// Sets the resource matrix.
    pub fn resources(mut self, r: ResourceMatrix) -> Self {
        self.resources = r;
        self
    }

    /// Sets the balancing policy (required).
    pub fn balancer<B: LoadBalancer + 'static>(mut self, b: B) -> Self {
        self.balancer = Some(Box::new(b));
        self
    }

    /// Sets the boxed balancing policy.
    pub fn balancer_boxed(mut self, b: Box<dyn LoadBalancer>) -> Self {
        self.balancer = Some(b);
        self
    }

    /// Sets the engine configuration.
    pub fn config(mut self, c: EngineConfig) -> Self {
        self.config = c;
        self
    }

    /// Sets per-node speed multipliers on `consume_rate` — heterogeneous
    /// processors where some nodes retire work faster than others. An empty
    /// vector (the default) means homogeneous unit speed.
    pub fn node_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.speeds = speeds;
        self
    }

    /// Schedules a recorded arrival trace for replay: every record becomes
    /// one arrival event at its absolute time, on its node, with its size.
    /// Composes with the dynamic [`ArrivalProcess`] (both inject tasks).
    pub fn arrival_trace(mut self, trace: Vec<TraceEvent>) -> Self {
        self.trace = trace;
        self
    }

    /// Schedules a node join/leave plan (default: no churn). The plan was
    /// drawn from its own seeded RNG at construction, so attaching it
    /// perturbs no engine stream.
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = plan;
        self
    }

    /// Sets the master seed for all randomness.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Builds the engine.
    ///
    /// # Panics
    /// Panics if no balancer was provided, the workload size does not match
    /// the topology, the speed vector has the wrong length or non-positive
    /// entries, or the arrival trace fails validation.
    pub fn build(self) -> Engine {
        let balancer = self.balancer.expect("a balancer is required");
        if !self.speeds.is_empty() {
            assert_eq!(
                self.speeds.len(),
                self.topo.node_count(),
                "speed vector length must match the topology"
            );
            assert!(
                self.speeds.iter().all(|&s| s.is_finite() && s > 0.0),
                "node speeds must be finite and positive"
            );
        }
        validate_trace(&self.trace, self.topo.node_count()).expect("invalid arrival trace");
        self.churn.validate(self.topo.node_count()).expect("invalid churn plan");
        let links =
            self.links.unwrap_or_else(|| LinkMap::uniform(&self.topo, LinkAttrs::default()));
        let mut state = SystemState::new(self.topo, links, self.task_graph, self.resources);
        let mut idgen = TaskIdGen::new();
        if let Some(w) = self.workload {
            assert_eq!(
                w.tasks.len(),
                state.node_count(),
                "workload node count must match the topology"
            );
            idgen = w.idgen.clone();
            for (i, tasks) in w.tasks.into_iter().enumerate() {
                for t in tasks {
                    state.add_task(NodeId(i as u32), t);
                }
            }
        }
        let n = state.node_count();
        let link_weights = state.links().weights(self.config.weight_c);
        let edge_count = state.topo.edge_count();
        let mix = |i: u64| -> u64 {
            // SplitMix64-style mixing for independent per-node streams.
            let mut z = self.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let engine_rng = StdRng::seed_from_u64(mix(0));
        // Resolve the shard layout: explicit `shards` wins; auto is 1, the
        // sequential reference.
        let avail = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let k = self.config.shards.clamp(1, n.max(1));
        let partition = Partition::new(&state.topo, k);
        let k = partition.shard_count();
        let threads =
            if self.config.threads == 0 { avail.min(k) } else { self.config.threads.min(k) }.max(1);
        // Per-node RNG seeds depend only on the node id, never the layout,
        // so every (K, threads) choice sees identical streams.
        let shards = (0..k)
            .map(|s| {
                let (start, end) = partition.range(s);
                ShardSlot {
                    intents: Vec::new(),
                    spans: Vec::with_capacity((end - start) as usize),
                    rngs: (start..end).map(|i| StdRng::seed_from_u64(mix(i as u64 + 1))).collect(),
                    scratch: ViewScratch::new(),
                    accum: ShardAccum::new(),
                    dirty: true,
                    evaluated: false,
                }
            })
            .collect();
        let mut engine = Engine {
            state,
            balancer,
            config: self.config,
            queue: EventQueue::new(),
            time: 0.0,
            next_tick: self.config.tick,
            round: 0,
            flights: Vec::new(),
            free_slots: Vec::new(),
            engine_rng,
            ledger: TrafficLedger::new(),
            series: TimeSeries::new(),
            idgen,
            down_links: EdgeBitSet::new(edge_count),
            link_weights,
            partition,
            shards,
            skip_cov: None,
            threads,
            pool: None,
            executed_rounds: 0,
            repartition_base: vec![0; k],
            repartitions: 0,
            rng_scratch: Vec::new(),
            down_nodes: vec![0; n.div_ceil(NODE_WORD)],
            masked_links: EdgeBitSet::new(edge_count),
            churn: self.churn.into_events(),
            churn_next: 0,
            speeds: self.speeds,
            trace: self.trace,
            consume_marked: if self.config.consume_rate > 0.0 {
                vec![0; n.div_ceil(NODE_WORD)]
            } else {
                Vec::new()
            },
            in_flight_load: 0.0,
            completed_tasks: 0,
        };
        engine.series.push(0.0, engine.state.cov());
        if !matches!(engine.config.arrival, ArrivalProcess::Quiescent) {
            engine.queue.push(0.0, Event::TaskArrival);
        }
        for (record, ev) in engine.trace.iter().enumerate() {
            engine.queue.push(ev.time, Event::TraceArrival { record });
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{NodeView, NullBalancer};
    use pp_tasking::task::TaskId;

    /// Moves one unit-size task to the lowest neighbour whenever the height
    /// difference exceeds 1 — a minimal working policy for engine tests.
    struct GreedyOne;
    impl LoadBalancer for GreedyOne {
        fn name(&self) -> &str {
            "greedy-one"
        }
        fn decide(&self, view: &NodeView<'_>, _rng: &mut StdRng) -> Vec<MigrationIntent> {
            let Some(task) = view.tasks.first() else { return Vec::new() };
            let h = view.nbr_heights;
            let Some(k) = (0..h.len()).min_by(|&a, &b| h[a].total_cmp(&h[b])) else {
                return Vec::new();
            };
            if view.height - h[k] > 1.0 {
                vec![MigrationIntent { task: task.id, to: view.neighbors[k], flag: 0.0, heat: 0.0 }]
            } else {
                Vec::new()
            }
        }
    }

    fn quiet_engine(balancer: impl LoadBalancer + 'static) -> Engine {
        let topo = Topology::ring(4);
        let workload = Workload::hotspot(4, 0, 8.0);
        EngineBuilder::new(topo).workload(workload).balancer(balancer).seed(1).build()
    }

    #[test]
    fn null_balancer_changes_nothing() {
        let mut e = quiet_engine(NullBalancer);
        let before = e.heights();
        e.run_rounds(10);
        assert_eq!(e.heights(), before);
        assert_eq!(e.report().ledger.migration_count(), 0);
        assert_eq!(e.round(), 10);
    }

    #[test]
    fn greedy_policy_spreads_hotspot() {
        let mut e = quiet_engine(GreedyOne);
        e.run_rounds(60);
        e.drain(10.0);
        let h = e.heights();
        let im = Imbalance::of(&h);
        assert!(im.spread <= 2.0, "heights {h:?}");
        // Load is conserved (quiescent system).
        assert!((e.system_load() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn load_conservation_with_in_flight() {
        let mut e = quiet_engine(GreedyOne);
        // After every round, resident + in-flight must equal the initial 8.
        for _ in 0..20 {
            e.run_rounds(1);
            assert!((e.system_load() - 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let topo = Topology::torus(&[4, 4]);
            let w = Workload::uniform_random(16, 10.0, 3);
            let mut e = EngineBuilder::new(topo).workload(w).balancer(GreedyOne).seed(seed).build();
            e.run_rounds(30);
            e.heights()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn series_records_initial_and_per_round() {
        let mut e = quiet_engine(NullBalancer);
        e.run_rounds(5);
        let r = e.report();
        assert_eq!(r.series.len(), 6); // t=0 plus 5 rounds
        assert_eq!(r.rounds, 5);
    }

    #[test]
    fn work_consumption_completes_tasks() {
        let topo = Topology::ring(4);
        let w = Workload::from_loads(&[4.0, 0.0, 0.0, 0.0], 1.0);
        let mut e = EngineBuilder::new(topo)
            .workload(w)
            .balancer(NullBalancer)
            .config(EngineConfig { consume_rate: 1.0, ..Default::default() })
            .seed(0)
            .build();
        e.run_rounds(2);
        // 2 time units × rate 1 consumed 2 units of work on node 0.
        let r = e.report();
        assert_eq!(r.completed_tasks, 2);
        assert!((e.heights()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_arrivals_inject_load() {
        let topo = Topology::ring(4);
        let mut e = EngineBuilder::new(topo)
            .balancer(NullBalancer)
            .config(EngineConfig {
                arrival: ArrivalProcess::Poisson { rate: 5.0, size_min: 1.0, size_max: 1.0 },
                ..Default::default()
            })
            .seed(7)
            .build();
        e.run_rounds(20);
        assert!(e.state().total_load() > 0.0);
        assert!(e.state().total_tasks() > 10);
    }

    #[test]
    fn fault_model_takes_links_down_and_up() {
        let topo = Topology::torus(&[4, 4]);
        let mut e = EngineBuilder::new(topo)
            .balancer(NullBalancer)
            .config(EngineConfig {
                fault_model: Some(FaultModel { p_down: 0.5, p_up: 0.1 }),
                ..Default::default()
            })
            .seed(3)
            .build();
        e.run_rounds(5);
        assert!(e.down_link_count() > 0, "expected some links down");
        // With p_up = 1.0 everything recovers.
        let mut e2 = EngineBuilder::new(Topology::torus(&[4, 4]))
            .balancer(NullBalancer)
            .config(EngineConfig {
                fault_model: Some(FaultModel { p_down: 0.0, p_up: 1.0 }),
                ..Default::default()
            })
            .seed(3)
            .build();
        e2.run_rounds(5);
        assert_eq!(e2.down_link_count(), 0);
    }

    #[test]
    fn faulty_links_bounce_loads_back() {
        // fault_prob near 1: every transfer fails all attempts and bounces.
        let topo = Topology::ring(4);
        let links = LinkMap::uniform(
            &topo,
            LinkAttrs { bandwidth: 1.0, distance: 1.0, fault_prob: 0.999_999 },
        );
        let w = Workload::hotspot(4, 0, 8.0);
        let mut e =
            EngineBuilder::new(topo).links(links).workload(w).balancer(GreedyOne).seed(2).build();
        e.run_rounds(10);
        e.drain(20.0);
        // All load is back (or still) at node 0; every record is a fault.
        assert!((e.heights()[0] - 8.0).abs() < 1e-9, "{:?}", e.heights());
        let r = e.report();
        assert!(r.ledger.migration_count() > 0);
        assert_eq!(r.ledger.fault_count(), r.ledger.migration_count());
    }

    #[test]
    fn sharded_sweep_matches_sequential() {
        let build = |shards: usize, threads: usize| {
            let topo = Topology::torus(&[8, 8]);
            let w = Workload::uniform_random(64, 10.0, 11);
            let mut e = EngineBuilder::new(topo)
                .workload(w)
                .balancer(GreedyOne)
                .config(EngineConfig { shards, threads, ..Default::default() })
                .seed(9)
                .build();
            e.run_rounds(25);
            e.drain(10.0);
            (e.heights(), e.report())
        };
        let (h_seq, r_seq) = build(1, 1);
        for (k, t) in [(2, 1), (5, 1), (8, 2), (64, 3)] {
            let (h, r) = build(k, t);
            assert_eq!(h_seq, h, "K={k} threads={t}");
            // Not just final heights: every recorded artifact (CoV series,
            // migration ledger, totals) must be byte-identical.
            assert_eq!(r_seq, r, "K={k} threads={t}");
        }
    }

    #[test]
    fn sharded_sweep_deterministic_with_faults_and_arrivals() {
        // The full event mix — fault process, Poisson arrivals, work
        // consumption — must still be identical for every layout, because
        // all engine RNG draws happen outside the decision sweep.
        let build = |shards: usize, threads: usize| {
            let topo = Topology::torus(&[8, 8]);
            let w = Workload::uniform_random(64, 6.0, 3);
            let mut e = EngineBuilder::new(topo)
                .workload(w)
                .balancer(GreedyOne)
                .config(EngineConfig {
                    shards,
                    threads,
                    consume_rate: 0.2,
                    fault_model: Some(FaultModel { p_down: 0.05, p_up: 0.5 }),
                    arrival: ArrivalProcess::Poisson { rate: 2.0, size_min: 0.5, size_max: 1.5 },
                    ..Default::default()
                })
                .seed(17)
                .build();
            e.run_rounds(40);
            e.drain(20.0);
            e.report()
        };
        let seq = build(1, 1);
        for (k, t) in [(3, 1), (7, 2), (16, 4)] {
            assert_eq!(seq, build(k, t), "K={k} threads={t}");
        }
    }

    #[test]
    fn shard_layout_resolution() {
        let engine = |shards, threads| {
            EngineBuilder::new(Topology::torus(&[4, 4]))
                .balancer(NullBalancer)
                .config(EngineConfig { shards, threads, ..Default::default() })
                .build()
        };
        // Auto: one shard, one thread — the sequential reference.
        let e = engine(0, 0);
        assert_eq!(e.shard_layout().shards, 1);
        assert_eq!(e.shard_layout().boundary_nodes, 0);
        // Explicit K with explicit threads; threads cap at K.
        let e = engine(4, 8);
        assert_eq!(e.shard_layout().shards, 4);
        assert_eq!(e.shard_layout().threads, 4);
        // K clamps to the node count.
        let e = engine(99, 1);
        assert_eq!(e.shard_layout().shards, 16);
        assert_eq!(format!("{}", engine(2, 1).shard_layout()), "shards=2 threads=1 boundary=16");
    }

    #[test]
    fn quiescent_shards_are_skipped_for_stable_policies() {
        // NullBalancer is quiescence-stable and never emits: after the
        // first evaluated tick every shard goes clean, and with nothing
        // due the 9 later rounds fast-forward without reaching the sweep.
        let mut e = EngineBuilder::new(Topology::torus(&[4, 4]))
            .workload(Workload::hotspot(16, 0, 8.0))
            .balancer(NullBalancer)
            .config(EngineConfig { shards: 4, ..Default::default() })
            .seed(1)
            .build();
        e.run_rounds(10);
        let stats = e.shard_stats();
        assert_eq!(stats.ticks_evaluated, 4, "only the first tick evaluates");
        assert_eq!(stats.ticks_skipped, 0, "no later round reaches the sweep");
        assert_eq!(stats.nodes_evaluated, 16);
        assert_eq!(e.executed_rounds(), 1);
        // The skip changes nothing observable.
        assert_eq!(e.round(), 10);
        assert_eq!(e.report().series.len(), 11);
    }

    #[test]
    fn greedy_policy_is_not_skipped() {
        // GreedyOne keeps the default quiescence_stable = false, so every
        // shard is evaluated every tick even once converged.
        let mut e = EngineBuilder::new(Topology::torus(&[4, 4]))
            .workload(Workload::hotspot(16, 0, 8.0))
            .balancer(GreedyOne)
            .config(EngineConfig { shards: 4, ..Default::default() })
            .seed(1)
            .build();
        e.run_rounds(10);
        let stats = e.shard_stats();
        assert_eq!(stats.ticks_skipped, 0);
        assert_eq!(stats.ticks_evaluated, 40);
        assert_eq!(stats.nodes_evaluated, 160);
    }

    #[test]
    fn arrivals_wake_sleeping_shards() {
        // A quiescence-stable policy sleeps until a trace arrival touches a
        // node, which must wake (at least) the owning shard.
        use pp_tasking::workload::TraceEvent;
        let mut e = EngineBuilder::new(Topology::ring(8))
            .balancer(NullBalancer)
            .config(EngineConfig { shards: 4, ..Default::default() })
            .arrival_trace(vec![TraceEvent { time: 4.5, node: 5, size: 2.0 }])
            .seed(0)
            .build();
        e.run_rounds(10);
        let stats = e.shard_stats();
        // Tick 1 evaluates all 4 shards; the arrival before tick 5 wakes
        // node 5's shard (and its halo-adjacent neighbours) exactly once.
        assert!(stats.ticks_evaluated > 4, "arrival must re-evaluate a shard");
        assert!(stats.ticks_skipped > 0, "untouched shards keep sleeping");
        assert_eq!(e.heights()[5], 2.0);
    }

    #[test]
    fn report_fields_consistent() {
        let mut e = quiet_engine(GreedyOne);
        e.run_rounds(10);
        e.drain(10.0);
        let r = e.report();
        assert_eq!(r.balancer, "greedy-one");
        assert_eq!(r.rounds, 10);
        assert!(r.final_imbalance.mean > 0.0);
        assert_eq!(r.in_flight_load, 0.0);
        assert!((r.total_load - 8.0).abs() < 1e-9);
    }

    #[test]
    fn mid_run_report_leaves_the_run_unchanged() {
        // A report shares the ledger's record list; the next hop copies it
        // first, so the earlier report keeps its records and the finished
        // run matches one that was never interrupted.
        let mut straight = busy_engine(1, 1);
        straight.run_rounds(24);
        straight.drain(20.0);

        let mut e = busy_engine(1, 1);
        e.run_rounds(9);
        let mid = e.report();
        let mid_records = mid.ledger.records().to_vec();
        e.run_rounds(15);
        e.drain(20.0);
        assert_eq!(mid.ledger.records(), &mid_records[..]);
        let end = e.report();
        assert!(end.ledger.migration_count() > mid.ledger.migration_count());
        assert_eq!(end, straight.report());
    }

    #[test]
    #[should_panic(expected = "workload node count")]
    fn mismatched_workload_rejected() {
        let topo = Topology::ring(4);
        let w = Workload::hotspot(5, 0, 1.0);
        let _ = EngineBuilder::new(topo).workload(w).balancer(NullBalancer).build();
    }

    #[test]
    fn heterogeneous_speeds_scale_consumption() {
        // Node 0 runs at 2x, node 2 at 0.5x; equal initial loads drain
        // proportionally to speed.
        let topo = Topology::ring(4);
        let w = Workload::from_loads(&[8.0, 8.0, 8.0, 8.0], 1.0);
        let mut e = EngineBuilder::new(topo)
            .workload(w)
            .balancer(NullBalancer)
            .config(EngineConfig { consume_rate: 1.0, ..Default::default() })
            .node_speeds(vec![2.0, 1.0, 0.5, 1.0])
            .seed(0)
            .build();
        e.run_rounds(4);
        let h = e.heights();
        assert!((h[0] - 0.0).abs() < 1e-9, "{h:?}"); // 8 − 4·2 = 0
        assert!((h[1] - 4.0).abs() < 1e-9, "{h:?}"); // 8 − 4·1
        assert!((h[2] - 6.0).abs() < 1e-9, "{h:?}"); // 8 − 4·0.5
    }

    #[test]
    #[should_panic(expected = "speed vector length")]
    fn wrong_speed_length_rejected() {
        let _ = EngineBuilder::new(Topology::ring(4))
            .balancer(NullBalancer)
            .node_speeds(vec![1.0, 1.0])
            .build();
    }

    #[test]
    fn trace_replay_injects_exact_arrivals() {
        use pp_tasking::workload::TraceEvent;
        let topo = Topology::ring(4);
        let trace = vec![
            TraceEvent { time: 0.5, node: 1, size: 2.0 },
            TraceEvent { time: 1.5, node: 3, size: 1.0 },
            TraceEvent { time: 7.0, node: 1, size: 4.0 },
        ];
        let mut e =
            EngineBuilder::new(topo).balancer(NullBalancer).arrival_trace(trace).seed(0).build();
        e.run_rounds(2);
        // After t=2 only the first two records have landed.
        assert_eq!(e.heights(), vec![0.0, 2.0, 0.0, 1.0]);
        e.run_rounds(5);
        assert_eq!(e.heights(), vec![0.0, 6.0, 0.0, 1.0]);
        assert_eq!(e.state().total_tasks(), 3);
    }

    #[test]
    fn trace_replay_is_deterministic() {
        use pp_tasking::workload::{record_trace, ArrivalProcess};
        let p = ArrivalProcess::MovingHotspot { rate: 2.0, size: 1.0, dwell: 3.0, stride: 5 };
        let trace = record_trace(&p, 16, 30.0, 4);
        let run = || {
            let mut e = EngineBuilder::new(Topology::torus(&[4, 4]))
                .balancer(GreedyOne)
                .arrival_trace(trace.clone())
                .seed(2)
                .build();
            e.run_rounds(40);
            e.drain(20.0);
            e.report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn trace_with_bad_node_rejected() {
        use pp_tasking::workload::TraceEvent;
        let _ = EngineBuilder::new(Topology::ring(4))
            .balancer(NullBalancer)
            .arrival_trace(vec![TraceEvent { time: 0.0, node: 9, size: 1.0 }])
            .build();
    }

    #[test]
    fn moving_hotspot_arrivals_land_on_schedule() {
        use pp_tasking::workload::ArrivalProcess;
        // With the null balancer every arrival stays where it lands; dwell
        // longer than the run keeps the target at node 0's epoch-0 slot.
        let mut e = EngineBuilder::new(Topology::ring(8))
            .balancer(NullBalancer)
            .config(EngineConfig {
                arrival: ArrivalProcess::MovingHotspot {
                    rate: 5.0,
                    size: 1.0,
                    dwell: 1000.0,
                    stride: 3,
                },
                ..Default::default()
            })
            .seed(5)
            .build();
        e.run_rounds(20);
        let h = e.heights();
        let elsewhere: f64 = h.iter().enumerate().filter(|&(i, _)| i != 0).map(|(_, &x)| x).sum();
        assert!(h[0] > 0.0, "hotspot node got nothing: {h:?}");
        assert_eq!(elsewhere, 0.0, "arrivals leaked off the hotspot: {h:?}");
    }

    /// The full-event-mix engine used by the checkpoint tests: faults,
    /// Poisson arrivals, consumption, a replay trace — every dynamic-state
    /// source at once.
    fn busy_engine(shards: usize, threads: usize) -> Engine {
        use pp_tasking::workload::TraceEvent;
        let topo = Topology::torus(&[8, 8]);
        let w = Workload::uniform_random(64, 6.0, 3);
        EngineBuilder::new(topo)
            .workload(w)
            .balancer(GreedyOne)
            .config(EngineConfig {
                shards,
                threads,
                consume_rate: 0.2,
                fault_model: Some(FaultModel { p_down: 0.05, p_up: 0.5 }),
                arrival: ArrivalProcess::Poisson { rate: 2.0, size_min: 0.5, size_max: 1.5 },
                ..Default::default()
            })
            .arrival_trace(vec![
                TraceEvent { time: 3.5, node: 11, size: 2.0 },
                TraceEvent { time: 14.5, node: 40, size: 1.0 },
            ])
            .seed(17)
            .build()
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_straight_run() {
        let mut straight = busy_engine(1, 1);
        straight.run_rounds(24);
        straight.drain(20.0);

        let mut first = busy_engine(1, 1);
        first.run_rounds(9);
        let cp = first.checkpoint();
        // Through the serialized form, so the JSON round-trip is on the
        // tested path, not just the in-memory struct.
        let cp = Checkpoint::from_json(&cp.to_json()).expect("round trip");
        let mut resumed = busy_engine(1, 1);
        resumed.restore(&cp).expect("restore");
        resumed.run_rounds(15);
        resumed.drain(20.0);

        assert_eq!(resumed.report(), straight.report());
        assert_eq!(resumed.heights(), straight.heights());
        assert_eq!(resumed.round(), straight.round());
        assert_eq!(resumed.down_link_count(), straight.down_link_count());
    }

    #[test]
    fn checkpoint_crosses_shard_layouts_exactly() {
        // Write under one layout, resume under others: per-node RNG streams
        // and the rest of the dynamic state are layout-independent, so
        // every combination must land on the same report.
        let mut straight = busy_engine(1, 1);
        straight.run_rounds(20);
        let want = straight.report();

        let mut writer = busy_engine(4, 2);
        writer.run_rounds(8);
        let cp = Checkpoint::from_json(&writer.checkpoint().to_json()).expect("round trip");
        for (k, t) in [(1, 1), (3, 1), (16, 4)] {
            let mut resumed = busy_engine(k, t);
            resumed.restore(&cp).expect("restore");
            resumed.run_rounds(12);
            assert_eq!(resumed.report(), want, "resume under K={k} threads={t}");
        }
    }

    #[test]
    fn checkpoint_preserves_quiescence_skip_state_on_same_layout() {
        // A quiescence-stable policy asleep at capture time stays asleep
        // after a same-layout restore (the dirty flags ride along).
        let build = || {
            EngineBuilder::new(Topology::torus(&[4, 4]))
                .workload(Workload::hotspot(16, 0, 8.0))
                .balancer(NullBalancer)
                .config(EngineConfig { shards: 4, ..Default::default() })
                .seed(1)
                .build()
        };
        let mut e = build();
        e.run_rounds(4);
        let cp = e.checkpoint();
        let mut r = build();
        r.restore(&cp).expect("restore");
        r.run_rounds(6);
        e.run_rounds(6);
        assert_eq!(r.shard_stats(), e.shard_stats());
        assert_eq!(r.shard_stats().ticks_evaluated, 4, "no re-evaluation after restore");
    }

    #[test]
    fn restore_accepts_in_flight_drift_below_zero_verbatim() {
        // Once every load has landed the accumulated in-flight total can
        // read a few ulps below zero. Such a checkpoint is correct state:
        // it must restore, keep the value bit-for-bit (later `+=`/`-=`
        // start from it), and finish exactly like the straight run.
        let mut straight = busy_engine(1, 1);
        straight.run_rounds(9);
        straight.drain(20.0);
        assert!(straight.flights.iter().all(Option::is_none), "slab must be empty");
        straight.in_flight_load = -2.2e-12;
        let cp = Checkpoint::from_json(&straight.checkpoint().to_json()).expect("round trip");
        let mut resumed = busy_engine(1, 1);
        resumed.restore(&cp).expect("drift within tolerance restores");
        assert_eq!(resumed.in_flight_load.to_bits(), (-2.2e-12f64).to_bits());
        for e in [&mut straight, &mut resumed] {
            e.run_rounds(15);
            e.drain(20.0);
        }
        assert_eq!(resumed.report(), straight.report());
        // Real negative load, and non-finite totals, stay corrupt.
        for bad_total in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = cp.clone();
            bad.in_flight_load = bad_total;
            let err = busy_engine(1, 1).restore(&bad).unwrap_err();
            assert!(err.contains("in_flight_load"), "{bad_total}: {err}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_fingerprints() {
        let mut e = busy_engine(1, 1);
        e.run_rounds(5);
        let cp = e.checkpoint();
        // Wrong topology size.
        let mut other = quiet_engine(GreedyOne);
        assert!(other.restore(&cp).unwrap_err().contains("nodes"));
        // Wrong balancer (same topology and trace, so only the name trips).
        use pp_tasking::workload::TraceEvent;
        let mut wrong_policy = EngineBuilder::new(Topology::torus(&[8, 8]))
            .workload(Workload::uniform_random(64, 6.0, 3))
            .balancer(NullBalancer)
            .arrival_trace(vec![
                TraceEvent { time: 3.5, node: 11, size: 2.0 },
                TraceEvent { time: 14.5, node: 40, size: 1.0 },
            ])
            .build();
        assert!(wrong_policy.restore(&cp).unwrap_err().contains("balancer"));
        // Wrong trace length.
        let mut no_trace = EngineBuilder::new(Topology::torus(&[8, 8]))
            .workload(Workload::uniform_random(64, 6.0, 3))
            .balancer(GreedyOne)
            .build();
        assert!(no_trace.restore(&cp).unwrap_err().contains("trace"));
    }

    #[test]
    fn restore_rejects_corrupt_snapshots_without_panicking() {
        let mut e = busy_engine(1, 1);
        e.run_rounds(6);
        let good = e.checkpoint();
        let mut fresh = busy_engine(1, 1);

        let mut bad = good.clone();
        bad.node_heights[3] = f64::NAN;
        assert!(fresh.restore(&bad).is_err());

        let mut bad = good.clone();
        bad.queue.push((1.0, bad.queue_seq + 7, Event::TaskArrival));
        assert!(fresh.restore(&bad).is_err(), "seq above counter");

        let mut bad = good.clone();
        bad.queue.push((5.0, bad.queue_seq - 1, Event::LoadArrival { flight: 999 }));
        assert!(fresh.restore(&bad).is_err(), "dangling flight slot");

        let mut bad = good.clone();
        bad.free_slots.push(usize::MAX);
        assert!(fresh.restore(&bad).is_err(), "free slot out of range");

        let mut bad = good.clone();
        bad.down_words.push(0);
        assert!(fresh.restore(&bad).is_err(), "bitset word count");

        let mut bad = good.clone();
        bad.series.push((0.0, 0.0)); // time regresses
        assert!(fresh.restore(&bad).is_err(), "series time order");

        // Non-finite floats anywhere in the accumulated state: a JSON
        // `1e999` parses to infinity and must be refused, not replayed
        // into the totals.
        let mut bad = good.clone();
        bad.stats.height_sq_sum = f64::INFINITY;
        assert!(fresh.restore(&bad).is_err(), "non-finite stats");

        let mut bad = good.clone();
        bad.node_rngs[7] = [0; 4];
        assert!(fresh.restore(&bad).is_err(), "zeroed RNG state");

        let mut bad = good.clone();
        assert!(!bad.ledger.is_empty(), "busy engine must have migrated");
        bad.ledger[0].heat = f64::INFINITY;
        assert!(fresh.restore(&bad).is_err(), "non-finite ledger record");

        let mut bad = good.clone();
        bad.series[1].1 = f64::NAN;
        assert!(fresh.restore(&bad).is_err(), "non-finite series value");

        let mut bad = good.clone();
        let i = bad.node_tasks.iter().position(|t| !t.is_empty()).expect("resident tasks exist");
        bad.node_tasks[i][0].work = -1.0;
        assert!(fresh.restore(&bad).is_err(), "negative task work");

        // Temporal corruption that is finite and internally ordered but
        // inconsistent with the clock: both would panic post-restore
        // (series push order, event-loop time regression) if accepted.
        let mut bad = good.clone();
        let k = bad.series.len() - 1;
        bad.series[k].0 = bad.time + 100.0;
        assert!(fresh.restore(&bad).is_err(), "series beyond the clock");

        let mut bad = good.clone();
        bad.queue_seq += 1; // fresh unused seq so only the time check trips
        bad.queue.insert(0, (0.0, bad.queue_seq - 1, Event::TaskArrival));
        assert!(fresh.restore(&bad).is_err(), "event before the clock");

        // An occupied slot whose arrival event is missing would leak the
        // load (and its in-flight mass) forever.
        let mut bad = good.clone();
        if let Some(at) =
            bad.queue.iter().position(|&(_, _, e)| matches!(e, Event::LoadArrival { .. }))
        {
            bad.queue.remove(at);
            assert!(fresh.restore(&bad).is_err(), "orphaned in-flight load");
        }

        // An empty slot missing from the free list would shift every later
        // slab allocation off the straight run's slot sequence.
        let mut bad = good.clone();
        if let Some(&s) = bad.free_slots.first() {
            bad.free_slots.retain(|&x| x != s);
            assert!(fresh.restore(&bad).is_err(), "leaked free slot");
        }

        // Shard vectors inconsistent with the recorded capture layout are
        // corruption, not a layout change.
        let mut bad = good.clone();
        bad.shard_dirty.push(true);
        assert!(fresh.restore(&bad).is_err(), "shard vector length mismatch");

        // After all those rejections the engine is still fully usable and
        // accepts the good snapshot.
        fresh.restore(&good).expect("good snapshot still restores");
        assert_eq!(fresh.round(), 6);
    }

    /// [`GreedyOne`] with the quiescence-stable contract: `decide` is a
    /// pure, draw-free function of the view, so a clean shard re-emits
    /// nothing — which also makes it a legal skipper at `K ≥ 2`.
    struct GreedyStable;
    impl LoadBalancer for GreedyStable {
        fn name(&self) -> &str {
            "greedy-stable"
        }
        fn decide(&self, view: &NodeView<'_>, rng: &mut StdRng) -> Vec<MigrationIntent> {
            GreedyOne.decide(view, rng)
        }
        fn quiescence_stable(&self) -> bool {
            true
        }
    }

    /// Fast-forward workhorse: a stable policy over a draining workload
    /// with consumption and a replay trace, so runs go quiescent, get
    /// woken by an arrival, and go quiescent again.
    fn stable_engine(shards: usize, threads: usize) -> Engine {
        use pp_tasking::workload::TraceEvent;
        let topo = Topology::torus(&[8, 8]);
        let w = Workload::uniform_random(64, 6.0, 3);
        EngineBuilder::new(topo)
            .workload(w)
            .balancer(GreedyStable)
            .config(EngineConfig { shards, threads, consume_rate: 0.5, ..Default::default() })
            .arrival_trace(vec![
                TraceEvent { time: 3.5, node: 11, size: 2.0 },
                TraceEvent { time: 30.5, node: 40, size: 1.0 },
            ])
            .seed(17)
            .build()
    }

    #[test]
    fn fast_forward_matches_the_sequential_reference_byte_for_byte() {
        let mut seq = stable_engine(1, 1);
        seq.run_rounds(60);
        seq.drain(20.0);
        let want = seq.report();
        for (k, t) in [(2, 1), (3, 1), (4, 2), (16, 4)] {
            let mut e = stable_engine(k, t);
            e.run_rounds(60);
            e.drain(20.0);
            assert_eq!(e.report(), want, "K={k} threads={t}");
            assert_eq!(e.heights(), seq.heights(), "K={k} threads={t}");
        }
    }

    #[test]
    fn sharded_engine_actually_fast_forwards() {
        // Same run as above, but check the diagnostic counters: once the
        // load drains the K=4 engine stops running rounds at all, while
        // the K=1 reference runs and sweeps every single round.
        let mut seq = stable_engine(1, 1);
        seq.run_rounds(60);
        let mut e = stable_engine(4, 1);
        e.run_rounds(60);
        assert_eq!(seq.shard_stats().ticks_evaluated, 60);
        assert_eq!(seq.executed_rounds(), 60);
        let executed = e.executed_rounds();
        assert!(executed < 55, "expected fast-forwarded rounds, executed {executed}");
        let s = e.shard_stats();
        assert_eq!(s.ticks_evaluated + s.ticks_skipped, 4 * executed, "one sweep per round run");
        assert_eq!(e.report(), seq.report());
    }

    #[test]
    fn drained_system_stops_sweeping_entirely() {
        // A system that fully drains (no migrations, pure consumption):
        // once empty the K=2 engine's counters freeze — the cost of the
        // remaining rounds tracks activity, not `nodes × rounds`.
        let build = |shards| {
            EngineBuilder::new(Topology::torus(&[4, 4]))
                .workload(Workload::from_loads(&[4.0; 16], 1.0))
                .balancer(NullBalancer)
                .config(EngineConfig { consume_rate: 1.0, shards, ..Default::default() })
                .seed(0)
                .build()
        };
        let mut ev = build(2);
        ev.run_rounds(50);
        let executed = ev.executed_rounds();
        let evaluated = ev.shard_stats().ticks_evaluated;
        assert!(executed <= 6, "drain takes ~4 rounds, saw {executed} rounds run");
        ev.run_rounds(100);
        assert_eq!(ev.executed_rounds(), executed, "drained tail must fast-forward");
        assert_eq!(ev.shard_stats().ticks_evaluated, evaluated, "drained tail must not sweep");
        assert_eq!(ev.round(), 150);
        assert_eq!(ev.report().series.len(), 151, "every skipped round still samples the CoV");
        assert_eq!(ev.next_wake(), None);

        let mut seq = build(1);
        seq.run_rounds(150);
        assert_eq!(seq.executed_rounds(), 150, "K = 1 never fast-forwards");
        assert_eq!(ev.report(), seq.report());
    }

    #[test]
    fn occupied_walk_yields_every_set_bit_of_any_range_in_order() {
        // Ranges start and end on, just before and just after word edges,
        // as a repartitioned shard's may.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 63, 64, 65, 128, 130, 200] {
            for trial in 0..6 {
                let words: Vec<u64> = (0..len.div_ceil(NODE_WORD))
                    .map(|w| match trial {
                        0 => 0,
                        1 => !0,
                        _ if w % 2 == 1 => 0, // every other word left empty
                        _ => next() & next(),
                    })
                    .collect();
                let set = |i: usize| node_bit(&words, i);
                let edges = [0, 1, 62, 63, 64, 65, 127, 128, 129, 199, len];
                for &start in edges.iter().filter(|&&a| a <= len) {
                    for &end in edges.iter().filter(|&&b| b >= start && b <= len) {
                        let want: Vec<usize> = (start..end).filter(|&i| set(i)).collect();
                        let got: Vec<usize> = OccupiedWalk::new(&words, start, end).collect();
                        assert_eq!(got, want, "len {len}, trial {trial}, [{start}, {end})");
                    }
                }
            }
        }
    }

    #[test]
    fn consume_memo_is_cleared_by_every_sweep_and_by_restore() {
        // One long task on node 5 keeps consuming without completing, under
        // a policy that never emits: its shard is swept clean every round
        // and must be re-dirtied by the next window's consumption.
        let build = |shards| {
            let mut loads = [0.0; 64];
            loads[5] = 8.0;
            EngineBuilder::new(Topology::torus(&[8, 8]))
                .workload(Workload::from_loads(&loads, 8.0))
                .balancer(NullBalancer)
                .config(EngineConfig { consume_rate: 0.25, shards, ..Default::default() })
                .seed(3)
                .build()
        };
        let mut ev = build(4);
        let s = ev.partition.shard_of(NodeId(5));
        ev.run_rounds(2);
        assert!(ev.shards.iter().all(|slot| !slot.dirty), "zero intents leave every shard clean");
        assert!(ev.consume_marked.iter().all(|&w| w == 0), "the sweep clears the memo");
        let cp = ev.checkpoint();

        // The next window: consuming on node 5 must mark its shard again.
        let t = ev.time + 0.5;
        ev.advance_time_to(t);
        assert!(ev.shards[s].dirty, "consumption after a clean sweep re-dirties the shard");
        assert_eq!(ev.consume_marked[0], 1 << 5);

        // A restore between windows drops the memo with the timeline, so
        // the first consumption after it marks the (restored clean) shard.
        ev.restore(&cp).unwrap();
        assert!(ev.consume_marked.iter().all(|&w| w == 0), "restore clears the memo");
        assert!(!ev.shards[s].dirty);
        let swept = ev.shards[s].accum.ticks_evaluated;
        ev.run_rounds(1);
        assert_eq!(ev.shards[s].accum.ticks_evaluated, swept + 1, "the consumer's shard ran");

        ev.run_rounds(37);
        ev.drain(5.0);
        let mut seq = build(1);
        seq.run_rounds(40);
        seq.drain(5.0);
        assert_eq!(format!("{:?}", ev.report()), format!("{:?}", seq.report()));
        assert_eq!(ev.heights(), seq.heights());
    }

    #[test]
    fn full_mix_runs_every_round() {
        // Faults + a non-stable policy: nothing is skippable, so the K=4
        // engine must run every round, like the K=1 reference.
        let build = |shards| {
            let mut e = EngineBuilder::new(Topology::torus(&[8, 8]))
                .workload(Workload::uniform_random(64, 6.0, 3))
                .balancer(GreedyOne)
                .config(EngineConfig {
                    consume_rate: 0.2,
                    fault_model: Some(FaultModel { p_down: 0.05, p_up: 0.5 }),
                    arrival: ArrivalProcess::Poisson { rate: 2.0, size_min: 0.5, size_max: 1.5 },
                    shards,
                    ..Default::default()
                })
                .seed(17)
                .build();
            e.run_rounds(40);
            assert_eq!(e.executed_rounds(), 40, "K={shards}");
            e.drain(20.0);
            e.report()
        };
        assert_eq!(build(1), build(4));
    }

    #[test]
    fn next_wake_of_quiescent_system_is_the_queue_time() {
        use pp_tasking::workload::TraceEvent;
        let mut e = EngineBuilder::new(Topology::ring(8))
            .balancer(NullBalancer)
            .config(EngineConfig { shards: 2, ..Default::default() })
            .arrival_trace(vec![TraceEvent { time: 7.3, node: 5, size: 2.0 }])
            .seed(0)
            .build();
        e.run_rounds(2);
        // Both shards went clean on round 1; the only pending wake is the
        // trace arrival, exactly as queued.
        assert_eq!(e.next_wake(), Some(7.3));
        assert_eq!(e.next_wake(), e.queue.peek_time());
        // Still quiescent right before the arrival: the wake stays the
        // queued event, earlier than the upcoming tick at t = 8.
        e.run_rounds(5);
        assert_eq!(e.next_wake(), Some(7.3));
        // Rounds 2–7 were fast-forwarded; only round 1 ran in full.
        assert_eq!((e.executed_rounds(), e.round()), (1, 7));
        // Round 8 lands the arrival and re-sweeps its shard clean; with
        // the queue empty, nothing is ever going to wake the system.
        e.run_rounds(1);
        assert_eq!(e.next_wake(), None);
        assert_eq!((e.executed_rounds(), e.round()), (2, 8));
        assert_eq!(e.state.total_load(), 2.0, "the arrival landed in round 8");

        // A dirty shard, by contrast, wakes at the upcoming tick: a
        // greedy-stable policy mid-spread keeps emitting, so its shard
        // stays dirty between rounds.
        let mut busy = EngineBuilder::new(Topology::ring(8))
            .workload(Workload::hotspot(8, 0, 16.0))
            .balancer(GreedyStable)
            .config(EngineConfig { shards: 2, ..Default::default() })
            .seed(1)
            .build();
        busy.run_rounds(1);
        let tick = busy.next_tick;
        assert_eq!(busy.next_wake(), Some(tick.min(busy.queue.peek_time().unwrap())));
    }

    #[test]
    fn checkpoint_crosses_between_sequential_and_sharded_exactly() {
        // Capture under the K=1 reference, resume under a fast-forwarding
        // K=4 layout — and the reverse — must both land on the straight
        // runs' (identical) reports.
        let straight = |(k, t)| {
            let mut e = stable_engine(k, t);
            e.run_rounds(50);
            e.drain(20.0);
            e.report()
        };
        let want = straight((1, 1));
        assert_eq!(want, straight((4, 2)));

        for (write, resume) in [((1, 1), (4, 2)), ((4, 2), (1, 1))] {
            let mut first = stable_engine(write.0, write.1);
            first.run_rounds(20);
            let cp = Checkpoint::from_json(&first.checkpoint().to_json()).expect("round trip");
            let mut resumed = stable_engine(resume.0, resume.1);
            resumed.restore(&cp).expect("restore");
            resumed.run_rounds(30);
            resumed.drain(20.0);
            assert_eq!(resumed.report(), want, "{write:?} -> {resume:?}");
        }
    }

    /// A moving-hotspot engine: arrivals concentrate on one walking node,
    /// so per-shard sweep load is persistently skewed — the regime
    /// adaptive repartitioning exists for.
    fn hotspot_engine(
        shards: usize,
        threads: usize,
        repartition: Option<RepartitionConfig>,
    ) -> Engine {
        EngineBuilder::new(Topology::torus(&[8, 8]))
            .balancer(GreedyStable)
            .config(EngineConfig {
                shards,
                threads,
                repartition,
                arrival: ArrivalProcess::MovingHotspot {
                    rate: 6.0,
                    size: 1.0,
                    dwell: 8.0,
                    stride: 13,
                },
                ..Default::default()
            })
            .seed(23)
            .build()
    }

    const ADAPTIVE: RepartitionConfig = RepartitionConfig { every: 4, skew_threshold: 1.5 };

    #[test]
    fn adaptive_repartition_fires_and_keeps_report_bytes() {
        let mut adaptive = hotspot_engine(8, 1, Some(ADAPTIVE));
        adaptive.run_rounds(60);
        adaptive.drain(20.0);
        assert!(adaptive.repartitions() > 0, "skewed hotspot load must trigger repartitioning");
        // K is invariant under adaptation (only the cut points move), which
        // is what lets the pinned pool keep its workers.
        assert_eq!(adaptive.partition().shard_count(), 8);

        let mut statik = hotspot_engine(8, 1, None);
        statik.run_rounds(60);
        statik.drain(20.0);
        // Repartitioning mutates no simulation state and draws no RNG:
        // every recorded artifact is identical to the static run's.
        assert_eq!(adaptive.report(), statik.report());
        assert_eq!(adaptive.heights(), statik.heights());
    }

    #[test]
    fn adaptive_repartition_infinite_threshold_never_fires() {
        // `pp-lab --verify`'s frozen knob: check every round,
        // fire never. Must be byte-identical to static *and* apply zero
        // repartitions.
        let knob = RepartitionConfig { every: 1, skew_threshold: f64::INFINITY };
        let mut measured = hotspot_engine(8, 1, Some(knob));
        measured.run_rounds(40);
        measured.drain(10.0);
        assert_eq!(measured.repartitions(), 0);

        let mut statik = hotspot_engine(8, 1, None);
        statik.run_rounds(40);
        statik.drain(10.0);
        assert_eq!(measured.report(), statik.report());
    }

    #[test]
    fn adaptive_repartition_crosses_layouts() {
        let run = |k, t| {
            let mut e = hotspot_engine(k, t, Some(ADAPTIVE));
            e.run_rounds(50);
            e.drain(20.0);
            e.report()
        };
        let want = run(1, 1);
        for (k, t) in [(4, 1), (8, 2), (16, 4)] {
            assert_eq!(want, run(k, t), "K={k} T={t}");
        }
    }

    #[test]
    fn checkpoint_crosses_adaptive_repartitioning() {
        // Capture mid-run from an engine that has already repartitioned,
        // resume under a different (shards, threads) execution layout with
        // the knob still on: the report must land on the straight run's
        // exact bytes.
        let mut straight = hotspot_engine(8, 1, Some(ADAPTIVE));
        straight.run_rounds(60);
        straight.drain(20.0);
        let want = straight.report();

        let mut writer = hotspot_engine(8, 1, Some(ADAPTIVE));
        writer.run_rounds(25);
        assert!(writer.repartitions() > 0, "capture must happen after an adaptation");
        let cp = Checkpoint::from_json(&writer.checkpoint().to_json()).expect("round trip");
        for (k, t) in [(8, 1), (4, 2), (16, 4)] {
            let mut resumed = hotspot_engine(k, t, Some(ADAPTIVE));
            resumed.restore(&cp).expect("restore");
            resumed.run_rounds(35);
            resumed.drain(20.0);
            assert_eq!(resumed.report(), want, "adaptive resume under K={k} threads={t}");
        }
    }

    #[test]
    fn run_until_balanced_stops_early() {
        let mut e = quiet_engine(GreedyOne);
        let rounds = e.run_until_balanced(0.5, 3, 500);
        assert!(rounds < 500, "should converge before the cap: {rounds}");
        let im = Imbalance::of(&e.heights());
        assert!(im.cov <= 0.5, "cov {}", im.cov);
    }

    #[test]
    fn run_until_balanced_respects_cap() {
        // The null balancer never improves a hotspot: the cap is hit.
        let mut e = quiet_engine(NullBalancer);
        let rounds = e.run_until_balanced(0.1, 3, 20);
        assert_eq!(rounds, 20);
        assert_eq!(e.round(), 20);
    }

    use crate::churn::{ChurnEvent, ChurnPlan};

    #[test]
    fn leaving_node_drains_round_robin_to_live_neighbours() {
        // Ring of 4, all load on node 0; node 0 leaves at round 2. Its
        // tasks must split round-robin over neighbours 1 and 3 (ascending
        // order), and the node must be dark afterwards.
        let plan = ChurnPlan::new(vec![ChurnEvent { round: 2, node: 0, leave: true }]);
        let mut e = EngineBuilder::new(Topology::ring(4))
            .workload(Workload::from_loads(&[8.0, 0.0, 0.0, 0.0], 1.0))
            .balancer(NullBalancer)
            .churn(plan)
            .seed(1)
            .build();
        e.run_rounds(1);
        assert_eq!(e.down_node_count(), 0);
        assert_eq!(e.heights()[0], 8.0);
        e.run_rounds(1);
        assert_eq!(e.down_node_count(), 1);
        let h = e.heights();
        assert_eq!(h[0], 0.0, "leaver drained: {h:?}");
        assert_eq!(h[1], 4.0, "{h:?}");
        assert_eq!(h[3], 4.0, "{h:?}");
        assert!((e.system_load() - 8.0).abs() < 1e-9, "drain conserves load");
    }

    #[test]
    fn isolated_leaver_freezes_tasks_until_rejoin() {
        // Ring of 4: nodes 1 and 3 leave first, so when node 0 leaves it
        // has no live receiver — its tasks freeze in place, are not
        // consumed, and thaw when it rejoins.
        let ev = |round, node, leave| ChurnEvent { round, node, leave };
        let plan =
            ChurnPlan::new(vec![ev(1, 1, true), ev(1, 3, true), ev(2, 0, true), ev(5, 0, false)]);
        let mut e = EngineBuilder::new(Topology::ring(4))
            .workload(Workload::from_loads(&[4.0, 0.0, 0.0, 0.0], 1.0))
            .balancer(NullBalancer)
            .config(EngineConfig { consume_rate: 1.0, ..Default::default() })
            .churn(plan)
            .seed(0)
            .build();
        e.run_rounds(4);
        // Two units consumed before the leave takes effect at the round-2
        // tick (the interval [1, 2) is consumed before the tick fires);
        // frozen since.
        assert_eq!(e.down_node_count(), 3);
        assert!((e.heights()[0] - 2.0).abs() < 1e-9, "{:?}", e.heights());
        e.run_rounds(3);
        // Rejoined at round 5: consumption resumed.
        assert_eq!(e.down_node_count(), 2);
        assert!(e.heights()[0] < 2.0, "{:?}", e.heights());
    }

    #[test]
    fn consume_sweep_covers_the_partial_final_chunk_and_skips_down_nodes() {
        // 8×9 torus: 72 nodes, so the sweep's last chunk holds 8. Work sits
        // on both sides of the first chunk boundary (63, 64) and at both
        // ends (0, 71). Node 71's neighbours leave at round 1 and node 71
        // at round 2, so its tasks freeze; neighbour 63 rejoins at round 3
        // and takes a trace arrival at t = 3.5.
        let build = |shards, threads| {
            let mut loads = [0.0; 72];
            loads[0] = 8.0;
            loads[64] = 8.0;
            loads[71] = 4.0;
            let ev = |round, node, leave| ChurnEvent { round, node, leave };
            let plan = ChurnPlan::new(vec![
                ev(1, 8, true),
                ev(1, 62, true),
                ev(1, 63, true),
                ev(1, 70, true),
                ev(2, 71, true),
                ev(3, 63, false),
            ]);
            EngineBuilder::new(Topology::torus(&[8, 9]))
                .workload(Workload::from_loads(&loads, 1.0))
                .balancer(NullBalancer)
                .config(EngineConfig { consume_rate: 1.0, shards, threads, ..Default::default() })
                .churn(plan)
                .arrival_trace(vec![TraceEvent { time: 3.5, node: 63, size: 2.0 }])
                .seed(0)
                .build()
        };
        let mut e = build(1, 1);
        let mut nbrs = e.state().topo.neighbors(NodeId(71)).to_vec();
        nbrs.sort();
        assert_eq!(nbrs, [NodeId(8), NodeId(62), NodeId(63), NodeId(70)]);
        e.run_rounds(5);
        // By t = 5: nodes 0 and 64 ran five unit tasks each; node 71 ran two
        // before it froze; node 63 is 1.5 into its 2-unit arrival.
        let h = e.heights();
        assert_eq!((h[0], h[63], h[64], h[71]), (3.0, 2.0, 3.0, 2.0), "{h:?}");
        assert_eq!(e.state().node(NodeId(63)).tasks()[0].work, 0.5);
        assert_eq!(e.report().completed_tasks, 12);
        assert_eq!(e.state().total_load(), 10.0);
        e.run_rounds(3);
        assert_eq!(e.heights()[71], 2.0, "frozen tasks are not consumed");
        assert_eq!(e.state().node(NodeId(71)).task_count(), 2);
        assert_eq!(e.heights()[0], 0.0);

        let want = format!("{:?}", e.report());
        let mut sharded = build(4, 2);
        sharded.run_rounds(8);
        assert_eq!(format!("{:?}", sharded.report()), want, "K=4 threads=2");
        assert_eq!(sharded.heights(), e.heights());
    }

    /// The node-by-node consume scan the word kernel replaces, kept as its
    /// reference: every occupied up node in ascending id order through
    /// [`SystemState::consume_work`], marking each consumer's shards dirty
    /// once per window through the memo.
    fn reference_advance_time_to(e: &mut Engine, t: f64) {
        let dt = t - e.time;
        if dt > 0.0 && e.config.consume_rate > 0.0 && e.state.resident_tasks() > 0 {
            let amount = dt * e.config.consume_rate;
            for i in 0..e.state.node_count() {
                let v = NodeId(i as u32);
                if e.state.node(v).task_count() == 0 || !e.node_up(v) {
                    continue;
                }
                let scaled = if e.speeds.is_empty() { amount } else { amount * e.speeds[i] };
                if scaled > 0.0 {
                    let (done, used) = e.state.consume_work(v, scaled);
                    e.completed_tasks += done;
                    let (word, bit) = (i / NODE_WORD, 1u64 << (i % NODE_WORD));
                    if (done > 0 || used > 0.0) && e.consume_marked[word] & bit == 0 {
                        e.consume_marked[word] |= bit;
                        e.mark_node_dirty(v);
                    }
                }
            }
        }
        e.time = e.time.max(t);
    }

    #[test]
    fn consume_kernel_matches_the_node_by_node_reference_scan() {
        // 8×9 torus: 72 nodes, so the last word holds 8. Tasks mix zero
        // work, work that a step eats exactly, and long work; three nodes
        // are down (one in the partial word), two carry a negative restored
        // height, one -0.0, and one speed is so small its step rounds to 0.
        let build = |speeds: Vec<f64>| {
            let mut e = EngineBuilder::new(Topology::torus(&[8, 9]))
                .balancer(NullBalancer)
                .config(EngineConfig { consume_rate: 1.0, shards: 4, ..Default::default() })
                .node_speeds(speeds)
                .seed(0)
                .build();
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let mut id = 0u64;
            for i in 0..72u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                for k in 0..(x % 5) {
                    let work = [0.0, 0.25, 0.5, 0.75, 1.0, 1.3, 3.0][((x >> (8 * k)) % 7) as usize];
                    id += 1;
                    e.state
                        .add_task(NodeId(i), Task::new(TaskId(id), 0.5 + work, 0).with_work(work));
                }
            }
            for (v, h) in [(9, -1e-9), (65, -0.75), (66, -0.0)] {
                let v = NodeId(v);
                let tasks = vec![Task::new(TaskId(1000 + v.0 as u64), 1.0, 0).with_work(2.0)];
                e.state.restore_node(v, tasks, h);
            }
            for v in [5, 64, 71] {
                set_node_bit(&mut e.down_nodes, v, true);
            }
            e
        };
        let bits = |e: &Engine| {
            let s = e.state.stat_snapshot();
            let stats =
                [s.height_sum, s.height_sq_sum, s.stat_peak_sum, s.stat_peak_sq].map(f64::to_bits);
            let tasks: Vec<(u64, u64)> = (0..72)
                .flat_map(|v| {
                    e.state.node(NodeId(v)).tasks().iter().map(|t| (t.id.0, t.work.to_bits()))
                })
                .collect();
            let heights: Vec<u64> = e.state.height_slice().iter().map(|h| h.to_bits()).collect();
            let dirty: Vec<bool> = e.shards.iter().map(|slot| slot.dirty).collect();
            (stats, s.stat_ops, tasks, heights, dirty, e.completed_tasks, e.consume_marked.clone())
        };
        // The least subnormal speed: a step below 0.5 rounds to zero.
        let tiny = f64::from_bits(1);
        let hetero = (0..72).map(|i| [1.0, 0.5, 2.0, tiny, 1.5, 0.25][i % 6]).collect();
        for speeds in [Vec::new(), hetero] {
            let (mut kernel, mut reference) = (build(speeds.clone()), build(speeds));
            assert_eq!(bits(&kernel), bits(&reference));
            let mut t = 0.0;
            for (step, dt) in
                [0.5, 0.25, 0.125, 0.0, 0.5, 1.0, 0.375, 2.0, 4.0].into_iter().enumerate()
            {
                if step % 2 == 0 {
                    // What a decision sweep leaves behind: clean shards and
                    // a cleared memo.
                    for e in [&mut kernel, &mut reference] {
                        e.shards.iter_mut().for_each(|slot| slot.dirty = false);
                        e.consume_marked.fill(0);
                    }
                }
                t += dt;
                kernel.advance_time_to(t);
                reference_advance_time_to(&mut reference, t);
                assert_eq!(bits(&kernel), bits(&reference), "step {step}, t = {t}");
                assert_eq!(kernel.state.occupied_words(), reference.state.occupied_words());
            }
            assert!(kernel.completed_tasks > 0);
            assert_eq!(kernel.state.resident_tasks(), kernel.state.total_tasks());
        }
    }

    #[test]
    fn decision_sweep_launches_from_chunk_edge_nodes_and_counts_the_whole_shard() {
        // Ring of 300 in two shards: each shard's length is not a multiple
        // of 64, and each holds work at local indices 0, 63, 64 and its
        // last node — both sides of the first chunk boundary and both ends
        // of the partial final chunk. Every occupied node has exactly one
        // occupied ring neighbour, so greedy emits one intent per node.
        let topo = Topology::ring(300);
        let ranges: Vec<(u32, u32)> = {
            let p = Partition::new(&topo, 2);
            (0..p.shard_count()).map(|s| p.range(s)).collect()
        };
        assert_eq!(ranges.len(), 2);
        let mut occupied = Vec::new();
        for &(start, end) in &ranges {
            let len = end - start;
            assert!(len > 65 && len % 64 != 0, "shard length {len}");
            occupied.extend([start, start + 63, start + 64, end - 1]);
        }
        let mut loads = vec![0.0; 300];
        for &v in &occupied {
            loads[v as usize] = 4.0;
        }
        let mut e = EngineBuilder::new(topo)
            .workload(Workload::from_loads(&loads, 1.0))
            .balancer(GreedyOne)
            .config(EngineConfig { shards: 2, threads: 1, ..Default::default() })
            .seed(0)
            .build();
        e.run_rounds(1);
        e.drain(10.0);

        let mut from: Vec<u32> = e.report().ledger.records().iter().map(|r| r.from).collect();
        for r in e.report().ledger.records() {
            assert_eq!(
                loads[r.to as usize], 0.0,
                "hop {} -> {} lands on an empty node",
                r.from, r.to
            );
            assert!(r.from.abs_diff(r.to) == 1 || r.from.abs_diff(r.to) == 299, "{r:?}");
        }
        from.sort_unstable();
        assert_eq!(from, occupied, "one launch from each emitting node");
        for (slot, &(start, end)) in e.shards.iter().zip(&ranges) {
            assert_eq!(slot.accum.nodes_evaluated, u64::from(end - start), "the whole shard");
            assert_eq!(slot.accum.ticks_evaluated, 1);
        }
    }

    #[test]
    fn launches_at_down_nodes_are_refused() {
        // Node 1 (the greedy hotspot's only low neighbour on a path-like
        // ring segment) leaves before the hotspot can push to it; the
        // masked edge must refuse the launch instead of teleporting load
        // onto a dark node.
        let plan = ChurnPlan::new(vec![ChurnEvent { round: 1, node: 1, leave: true }]);
        let mut e = EngineBuilder::new(Topology::ring(4))
            .workload(Workload::hotspot(4, 0, 8.0))
            .balancer(GreedyOne)
            .churn(plan)
            .seed(2)
            .build();
        e.run_rounds(10);
        e.drain(10.0);
        assert_eq!(e.heights()[1], 0.0, "down node must stay empty: {:?}", e.heights());
        assert!((e.system_load() - 8.0).abs() < 1e-9);
    }

    fn churny_engine(shards: usize, threads: usize) -> Engine {
        use pp_tasking::workload::TraceEvent;
        let topo = Topology::torus(&[8, 8]);
        let w = Workload::uniform_random(64, 6.0, 3);
        EngineBuilder::new(topo)
            .workload(w)
            .balancer(GreedyStable)
            .config(EngineConfig { shards, threads, consume_rate: 0.3, ..Default::default() })
            .arrival_trace(vec![
                TraceEvent { time: 3.5, node: 11, size: 2.0 },
                TraceEvent { time: 30.5, node: 40, size: 1.0 },
            ])
            .churn(ChurnPlan::markov(64, 40, 0.02, 0.25, 77))
            .seed(17)
            .build()
    }

    #[test]
    fn churned_run_is_identical_across_layouts() {
        let mut seq = churny_engine(1, 1);
        seq.run_rounds(45);
        seq.drain(20.0);
        let want = seq.report();
        for (k, t) in [(4, 1), (4, 2), (8, 2), (16, 4)] {
            let mut e = churny_engine(k, t);
            e.run_rounds(45);
            e.drain(20.0);
            assert_eq!(e.report(), want, "K={k} threads={t}");
            assert_eq!(e.heights(), seq.heights(), "K={k} threads={t}");
        }
    }

    #[test]
    fn checkpoint_resume_crosses_churn_exactly() {
        let mut straight = churny_engine(1, 1);
        straight.run_rounds(40);
        straight.drain(20.0);
        let want = straight.report();

        let mut writer = churny_engine(4, 2);
        writer.run_rounds(15);
        assert!(writer.down_node_count() > 0, "capture should land mid-churn");
        let cp = Checkpoint::from_json(&writer.checkpoint().to_json()).expect("round trip");
        for (k, t) in [(1, 1), (8, 4)] {
            let mut resumed = churny_engine(k, t);
            resumed.restore(&cp).expect("restore");
            assert_eq!(resumed.down_node_count(), writer.down_node_count());
            // The rebuilt bitsets match the per-node truth at every node:
            // membership replayed from the plan, occupancy from the tasks.
            let mut down = [false; 64];
            for ev in writer.churn.iter().filter(|ev| ev.round <= writer.round) {
                down[ev.node as usize] = ev.leave;
            }
            for (i, &d) in down.iter().enumerate() {
                let v = NodeId(i as u32);
                assert_eq!(resumed.node_up(v), !d, "down bit of node {i} (K={k})");
                let occupied = node_bit(resumed.state.occupied_words(), i);
                assert_eq!(occupied, resumed.state.node(v).task_count() != 0, "node {i}");
            }
            assert_eq!(resumed.down_nodes, writer.down_nodes);
            resumed.run_rounds(25);
            resumed.drain(20.0);
            assert_eq!(resumed.report(), want, "churned resume under K={k} threads={t}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_churn_plans() {
        let mut writer = churny_engine(1, 1);
        writer.run_rounds(10);
        let cp = writer.checkpoint();
        // An engine without the plan must refuse the churned checkpoint.
        let mut plain = stable_engine(1, 1);
        let err = plain.restore(&cp).unwrap_err();
        assert!(err.contains("churn"), "{err}");
    }

    #[test]
    fn path_topology_runs_a_full_balance_cycle() {
        // Tree { arity: 1 } is a path — the degenerate-but-legal shape that
        // pairs with the hypercube dim-0 rejection: arity 1 must keep
        // building and balancing end to end.
        let spec = pp_topology::spec::TopologySpec::Tree { arity: 1, depth: 7 };
        spec.validate().expect("arity-1 trees (paths) stay valid");
        let topo = spec.build();
        assert_eq!(topo.node_count(), 8);
        let mut e = EngineBuilder::new(topo)
            .workload(Workload::hotspot(8, 0, 16.0))
            .balancer(GreedyOne)
            .seed(3)
            .build();
        e.run_rounds(200);
        e.drain(20.0);
        let im = Imbalance::of(&e.heights());
        assert!(im.cov < 0.8, "path diffusion must make progress: {:?}", e.heights());
        assert!((e.system_load() - 16.0).abs() < 1e-9);
    }
}
