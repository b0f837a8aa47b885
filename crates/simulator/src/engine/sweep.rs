//! The decide phase. The topology is split into `K` contiguous shards,
//! each owning its outbox, per-node RNG streams, view scratch and
//! counters; the sweep runs whole shards inline or on a persistent
//! [`ShardPool`] (one epoch barrier per round). Decisions are pure
//! functions of the tick-start snapshot and every node draws from its own
//! stream, so the outcome is byte-identical for every `(K, threads)`.
//!
//! [`Sweep`] is the only writer of the **dirty flags** and the **consume
//! memo**: every mutation a shard can observe marks it dirty, and a memo
//! bit implies its node's shards are dirty (only [`eval_shard`] clears a
//! flag, so every sweep and every restore clears the memo).

use super::{EngineConfig, ShardLayout};
use crate::balancer::{build_view, LinkView, LoadBalancer, MigrationIntent, ViewScratch};
use crate::checkpoint::Checkpoint;
use crate::pool::ShardPool;
use crate::state::{SystemState, NODE_WORD};
use pp_metrics::shard::ShardAccum;
use pp_topology::graph::{NodeId, Topology};
use pp_topology::partition::Partition;
use rand::rngs::StdRng;

/// The one occupied-node walk of the decision sweep: yields, in ascending
/// order, every node in `[start, end)` whose bit is set in a node bitset
/// ([`NODE_WORD`] nodes per word, as [`SystemState::occupied_words`] lays
/// it out). A shard's range need not be word-aligned (`n/K` rarely is a
/// multiple of 64), so the first and last words are masked to the range.
/// A walk over n nodes costs n/64 word loads plus O(occupied nodes).
#[derive(Debug)]
pub(super) struct OccupiedWalk<'a> {
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
    pub(super) fn new(words: &'a [u64], start: usize, end: usize) -> Self {
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

/// Per-shard execution state: everything a sweep worker touches for one
/// shard, owned by that shard so no two workers share mutable data.
pub(super) struct ShardSlot {
    /// The shard's *outbox*: its nodes' intents for the current sweep, in
    /// ascending node order. Its capacity is kept across ticks, so the
    /// steady-state sweep never touches the global allocator.
    intents: Vec<MigrationIntent>,
    /// `(local node, prefix end)` into `intents`, one pair per node that
    /// emitted, in ascending node order: pair `p`'s node emitted
    /// `intents[spans[p-1].1..spans[p].1]` (with `spans[-1].1 = 0`).
    spans: Vec<(u32, u32)>,
    /// Per-owned-node RNG streams (seeded by node id only).
    rngs: Vec<StdRng>,
    /// Reusable neighbour-view scratch for this shard's sweeps.
    scratch: ViewScratch,
    /// Mergeable sweep counters (merged in shard order on demand).
    pub(super) accum: ShardAccum,
    /// Whether state this shard can observe (its nodes' tasks, incident
    /// links, halo heights) changed since its last sweep that emitted
    /// nothing.
    pub(super) dirty: bool,
    /// Whether the current tick's sweep evaluated this shard.
    evaluated: bool,
}

/// The decide phase's state: layout, slots, pool, dirty flags and memo.
pub(super) struct Sweep {
    /// The spatial decomposition driving the sweep.
    pub(super) partition: Partition,
    /// Per-shard execution state, indexed by shard id.
    pub(super) shards: Vec<ShardSlot>,
    /// Resolved sweep worker count (1 = inline, no pool).
    threads: usize,
    /// Lazily created persistent pool (only when `threads > 1`); its
    /// affinity depends on `(threads, K)` alone, so it survives restores.
    pool: Option<ShardPool>,
    /// Consumers already marked dirty in the current tick window, one bit
    /// per node in the occupancy layout (empty when `consume_rate` is 0).
    pub(super) consume_marked: Vec<u64>,
}

impl Sweep {
    /// Resolves the layout (`shards` 0 = 1, the sequential reference;
    /// `threads` 0 = one per core, capped at `K`) and seeds node `i`'s
    /// stream with `node_rng(i)`, the same under every layout.
    pub(super) fn new(topo: &Topology, c: &EngineConfig, node_rng: impl Fn(u64) -> StdRng) -> Self {
        let n = topo.node_count();
        let partition = Partition::new(topo, c.shards.clamp(1, n.max(1)));
        let k = partition.shard_count();
        let avail = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let threads = if c.threads == 0 { avail.min(k) } else { c.threads.min(k) }.max(1);
        let shards = (0..k)
            .map(|s| {
                let (start, end) = partition.range(s);
                ShardSlot {
                    intents: Vec::new(),
                    spans: Vec::with_capacity((end - start) as usize),
                    rngs: (start..end).map(|i| node_rng(u64::from(i))).collect(),
                    scratch: ViewScratch::new(),
                    accum: ShardAccum::new(),
                    dirty: true,
                    evaluated: false,
                }
            })
            .collect();
        let memo = if c.consume_rate > 0.0 { n.div_ceil(NODE_WORD) } else { 0 };
        let consume_marked = vec![0; memo];
        Sweep { partition, shards, threads, pool: None, consume_marked }
    }

    /// Whether clean shards and effect-free rounds may be skipped: only at
    /// `K ≥ 2` (`K = 1` is the skip-free reference) and only for a
    /// quiescence-stable policy.
    #[inline]
    pub(super) fn skipping(&self, balancer: &dyn LoadBalancer) -> bool {
        self.shards.len() >= 2 && balancer.quiescence_stable()
    }

    /// Whether some shard must be swept at the upcoming tick.
    #[inline]
    pub(super) fn any_dirty(&self) -> bool {
        self.shards.iter().any(|s| s.dirty)
    }

    /// Marks the shards that can observe node `v` (its own and its
    /// neighbours') dirty. Called on every mutation of `v`'s tasks.
    #[inline]
    pub(super) fn mark_node_dirty(&mut self, topo: &Topology, v: NodeId) {
        let s = self.partition.shard_of(v);
        self.shards[s].dirty = true;
        for &u in topo.neighbors(v) {
            let a = self.partition.shard_of(u);
            if a != s {
                self.shards[a].dirty = true;
            }
        }
    }

    /// A link flip changes only its two endpoints' views.
    pub(super) fn mark_link_dirty(&mut self, u: NodeId, v: NodeId) {
        for x in [u, v] {
            let s = self.partition.shard_of(x);
            self.shards[s].dirty = true;
        }
    }

    /// Marks the shards of the nodes in word `w`'s `stepped` bits not yet
    /// in the memo: marking is idempotent until the next sweep clears the
    /// flags, so each consumer marks once per window.
    #[inline]
    pub(super) fn mark_consumers(&mut self, topo: &Topology, w: usize, stepped: u64) {
        let mut fresh = stepped & !self.consume_marked[w];
        self.consume_marked[w] |= fresh;
        while fresh != 0 {
            let k = fresh.trailing_zeros() as usize;
            fresh &= fresh - 1;
            self.mark_node_dirty(topo, NodeId((w * NODE_WORD + k) as u32));
        }
    }

    /// The view scratch of `v`'s shard and `v`'s own RNG stream.
    pub(super) fn node_stream(&mut self, v: NodeId) -> (&mut ViewScratch, &mut StdRng) {
        let s = self.partition.shard_of(v);
        let local = (v.0 - self.partition.range(s).0) as usize;
        let slot = &mut self.shards[s];
        (&mut slot.scratch, &mut slot.rngs[local])
    }

    /// Fills each shard's outbox with its nodes' intents for this tick:
    /// inline, across the pool, or skipping provably quiescent shards, all
    /// with identical results.
    pub(super) fn collect_decisions(
        &mut self,
        state: &SystemState,
        links: &LinkView<'_>,
        balancer: &dyn LoadBalancer,
        round: u64,
        time: f64,
    ) {
        // `eval_shard` is about to clear dirty flags, so the consume memo's
        // invariant no longer holds for what it recorded.
        self.consume_marked.fill(0);
        let skip_ok = self.skipping(balancer);
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
        let heights = state.height_slice();
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
                eval_shard(slot, start, end, state, heights, links, balancer, round, time);
            });
        } else {
            for (s, slot) in self.shards.iter_mut().enumerate() {
                if !slot.evaluated {
                    continue;
                }
                let (start, end) = partition.range(s);
                eval_shard(slot, start, end, state, heights, links, balancer, round, time);
            }
        }
    }

    /// The commit phase: hands every evaluated shard's intents to `launch`
    /// in shard order — ascending node order, since shards are contiguous
    /// — so every cross-shard effect lands after the barrier. The arenas
    /// are swapped out while `launch` marks shards dirty, then returned.
    pub(super) fn commit(&mut self, mut launch: impl FnMut(&mut Sweep, NodeId, MigrationIntent)) {
        for s in 0..self.shards.len() {
            let slot = &mut self.shards[s];
            if !slot.evaluated || slot.intents.is_empty() {
                continue;
            }
            let mut intents = std::mem::take(&mut slot.intents);
            let mut spans = std::mem::take(&mut slot.spans);
            let start = self.partition.range(s).0;
            let mut next = 0usize;
            for &(k, end) in &spans {
                for &intent in &intents[next..end as usize] {
                    launch(self, NodeId(start + k), intent);
                }
                next = end as usize;
            }
            intents.clear();
            spans.clear();
            let slot = &mut self.shards[s];
            (slot.intents, slot.spans) = (intents, spans);
        }
    }

    /// Sweep counters merged over all shards, in fixed shard order.
    pub(super) fn stats(&self) -> ShardAccum {
        let mut total = ShardAccum::new();
        for slot in &self.shards {
            total.merge(&slot.accum);
        }
        total
    }

    /// The resolved layout, boundary nodes counted on demand.
    pub(super) fn layout(&self, topo: &Topology) -> ShardLayout {
        let p = &self.partition;
        let boundary_nodes = topo
            .nodes()
            .filter(|&v| topo.neighbors(v).iter().any(|&u| p.shard_of(u) != p.shard_of(v)))
            .count();
        ShardLayout { shards: p.shard_count(), threads: self.threads, boundary_nodes }
    }

    /// Writes the node streams (by node id) and the per-shard counters.
    pub(super) fn capture(&self, cp: &mut Checkpoint) {
        cp.node_rngs = Vec::with_capacity(cp.nodes);
        for slot in &self.shards {
            cp.node_rngs.extend(slot.rngs.iter().map(|r| r.state()));
        }
        cp.shard_layout_k = self.shards.len();
        cp.shard_accums = self.shards.iter().map(|s| s.accum).collect();
    }

    /// Refuses a missing or all-zero node stream (seeding never yields
    /// the generator's zero fixed point) and shard counters that disagree
    /// with the capture layout.
    pub(super) fn check(&self, cp: &Checkpoint) -> Result<(), String> {
        let k = cp.shard_layout_k;
        if cp.node_rngs.len() != cp.nodes || cp.node_rngs.contains(&[0; 4]) {
            return Err("checkpoint needs one non-zero RNG state per node".into());
        }
        if cp.shard_accums.len() != k {
            return Err(format!("checkpoint shard counters do not match shard_layout_k = {k}"));
        }
        Ok(())
    }

    /// Applies a checked checkpoint: the node streams by node id, empty
    /// outboxes, and every shard dirty. Dirty-all is report-exact
    /// (ADR-004): a sweep that finds nothing to do emits nothing and
    /// re-cleans its shard, so a checkpoint carries no dirty flags. The
    /// shard counters resume on the same K and restart otherwise.
    pub(super) fn restore(&mut self, cp: &Checkpoint) {
        let same = cp.shard_layout_k == self.shards.len();
        let mut rngs = cp.node_rngs.iter().map(|&s| StdRng::from_state(s));
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let (start, end) = self.partition.range(s);
            slot.rngs.clear();
            slot.rngs.extend(rngs.by_ref().take((end - start) as usize));
            slot.intents.clear();
            slot.spans.clear();
            slot.evaluated = false;
            slot.dirty = true;
            slot.accum = if same { cp.shard_accums[s] } else { ShardAccum::new() };
        }
        self.consume_marked.fill(0);
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

/// Sweeps one shard: evaluates `decide_into` for every owned node that
/// holds a task into the shard's outbox, using the shard's scratch and
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
