//! Versioned, byte-stable engine checkpoints.
//!
//! A [`Checkpoint`] captures the **complete dynamic state** of an
//! [`Engine`](crate::engine::Engine) between two balance rounds: the system
//! state (per-node task lists and accumulated heights, plus the incremental
//! `(n, Σh, Σh²)` imbalance statistics restored *verbatim* so float drift
//! history is preserved), the event queue with its sequence counter, the
//! in-flight load slab and its free list, every RNG stream (the engine's
//! own and the per-node decision streams, which are layout-independent),
//! the dynamic link-fault bitset, the task-id generator position, the
//! recorded metrics (CoV series and traffic ledger), per-shard activity
//! flags, and opaque balancer-internal state via
//! [`LoadBalancer::save_state`](crate::balancer::LoadBalancer::save_state).
//!
//! What it deliberately does **not** capture is the static configuration —
//! topology, link attributes, balancer construction, node speeds, the
//! replay trace, engine knobs. A restore always targets an engine freshly
//! built from the same spec; the checkpoint carries a fingerprint (node
//! count, edge count, trace length, balancer name) so a mismatched restore
//! fails loudly instead of corrupting silently.
//!
//! **Execution layout is not state.** The worker count and the shard pool's
//! shard→worker affinity map are deliberately excluded from both the
//! capture and the fingerprint: a checkpoint written at `threads = 8` must
//! restore into a `threads = 1` engine (and vice versa) with byte-identical
//! continuation, because affinity only decides *where* a shard's sweep
//! runs, never what it computes. Only `shard_layout_k` (the spatial K) is
//! recorded, and then only to decide whether the activity flags carry over
//! or everything conservatively re-marks dirty.
//!
//! ## Exactness
//!
//! The invariant (enforced by `tests/checkpoint_resume_prop.rs` and the
//! `pp-lab --verify` CI gate) is that *checkpoint → JSON → parse →
//! restore → continue* is byte-identical to never having stopped, for every
//! `(shards, threads)` layout. Three properties make this hold:
//!
//! 1. every `f64` round-trips bit-exactly through the vendored JSON writer
//!    (`{:?}` shortest-round-trip rendering) and parser (correctly rounded
//!    `str::parse::<f64>`);
//! 2. accumulated values (node heights, `Σh`/`Σh²`, in-flight load, ledger
//!    totals) are restored from their captured values — or rebuilt by
//!    replaying the identical addition sequence — never recomputed by a
//!    different summation order;
//! 3. RNG streams are captured as raw xoshiro256++ state words and resume
//!    mid-stream.
//!
//! ## Versioning
//!
//! The JSON carries a leading `"version"` field, checked before anything
//! else is parsed; unknown versions are rejected with an error (never a
//! panic — checkpoint bytes are untrusted input, and corrupt or truncated
//! files must fail cleanly too). See
//! `docs/adr/ADR-005-checkpoint-resume.md`.

use crate::events::Event;
use crate::state::StatSnapshot;
use pp_metrics::ledger::MigrationRecord;
use pp_metrics::shard::ShardAccum;
use pp_tasking::task::{Task, TaskId};
use serde::{Deserialize, Value};
use serde_json::{Hole, Line, Writer};
use std::io;
use std::sync::Arc;

/// The current checkpoint format version. Bump on any incompatible change
/// to the serialized shape and teach [`Checkpoint::from_json`] to either
/// migrate or reject the older versions explicitly.
pub const CHECKPOINT_VERSION: u32 = 1;

/// How far below zero [`Engine::restore`](crate::engine::Engine::restore)
/// accepts a checkpoint's accumulated `in_flight_load`, relative to its
/// resident load `Σh` (floored at 1). Adding and subtracting the same task
/// sizes leaves the total a few ulps off zero once every load has landed:
/// about −2e-12 on 4,096-node churn runs. A relative 1e-9 sits orders of
/// magnitude above that drift and still rejects a missing task's worth.
pub const IN_FLIGHT_DRIFT_TOLERANCE: f64 = 1e-9;

/// One in-flight load, captured slot-exactly from the engine's flight slab
/// (pending [`Event::LoadArrival`] entries reference slots by index, so the
/// slab layout itself is part of the dynamic state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightSnap {
    /// The migrating task.
    pub task: Task,
    /// The balancer's energy flag `h*` riding on the load.
    pub flag: f64,
    /// Hops completed so far.
    pub hops: u32,
    /// Node that originally emitted the migration.
    pub source: u32,
    /// Hop source node.
    pub from: u32,
    /// Hop destination node (the source again for bounced transfers).
    pub to: u32,
    /// Link weight `e_{i,j}` of the hop.
    pub link_weight: f64,
    /// Heat charged for the hop.
    pub heat: f64,
    /// Transfer attempts consumed.
    pub attempts: u32,
    /// Whether the transfer exhausted its attempt budget and bounced.
    pub bounced: bool,
}

/// A complete dynamic-state snapshot of a running engine. Build with
/// [`Engine::checkpoint`](crate::engine::Engine::checkpoint), persist with
/// [`Checkpoint::write_json`] (or [`Checkpoint::to_json`] for the text),
/// and apply to a freshly built engine with
/// [`Engine::restore`](crate::engine::Engine::restore).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint: node count of the engine that wrote the checkpoint.
    pub nodes: usize,
    /// Fingerprint: edge count.
    pub edges: usize,
    /// Fingerprint: replay-trace length.
    pub trace_len: usize,
    /// Fingerprint: balancer display name.
    pub balancer: String,
    /// Simulation clock.
    pub time: f64,
    /// Absolute time of the next scheduled balance round.
    pub next_tick: f64,
    /// Balance rounds executed.
    pub round: u64,
    /// The engine's own RNG stream (faults, transfer attempts, arrivals).
    pub engine_rng: [u64; 4],
    /// Per-node decision RNG streams, indexed by node id — deliberately
    /// *not* grouped by shard, so a checkpoint written under one `(shards,
    /// threads)` layout restores exactly under any other.
    pub node_rngs: Vec<[u64; 4]>,
    /// Resident tasks per node, in queue order.
    pub node_tasks: Vec<Vec<Task>>,
    /// Accumulated node heights, captured verbatim (they may differ from
    /// `Σ size` in the last ulp — that drift is part of the exact state).
    pub node_heights: Vec<f64>,
    /// The incremental imbalance statistics, verbatim.
    pub stats: StatSnapshot,
    /// Task-id generator position.
    pub idgen_next: u64,
    /// Backing words of the down-link bitset.
    pub down_words: Vec<u64>,
    /// The in-flight load slab, slot-exact (`None` = free slot).
    pub flights: Vec<Option<FlightSnap>>,
    /// The slab free list, in pop order.
    pub free_slots: Vec<usize>,
    /// Total load in flight (accumulated value, verbatim).
    pub in_flight_load: f64,
    /// Tasks completed by work consumption.
    pub completed_tasks: usize,
    /// Event-queue sequence counter.
    pub queue_seq: u64,
    /// Pending events as `(time, seq, event)` in pop order.
    pub queue: Vec<(f64, u64, Event)>,
    /// Every migration record so far (totals are rebuilt by replaying the
    /// identical addition sequence). Capture shares the engine's own list;
    /// an engine that records again while this checkpoint is alive copies
    /// the list first.
    pub ledger: Arc<Vec<MigrationRecord>>,
    /// The CoV time series recorded so far.
    pub series: Vec<(f64, f64)>,
    /// Shard count `K` the activity flags below were captured under. A
    /// restore into a different `K` discards them (all shards dirty), which
    /// is report-exact: evaluating a clean shard of a quiescence-stable
    /// policy emits nothing and draws nothing (ADR-004's skip-safety
    /// argument, run in reverse).
    pub shard_layout_k: usize,
    /// Per-shard dirty flags under `shard_layout_k`.
    pub shard_dirty: Vec<bool>,
    /// Per-shard sweep accumulators under `shard_layout_k`.
    pub shard_accums: Vec<ShardAccum>,
    /// Opaque balancer-internal state from
    /// [`LoadBalancer::save_state`](crate::balancer::LoadBalancer::save_state).
    pub balancer_state: Option<Value>,
    /// Fingerprint: length of the engine's churn plan (0 = no churn).
    /// Membership itself is a pure function of the plan prefix at the
    /// restored round, so only the plan length is captured — and omitted
    /// from the JSON entirely when zero, keeping churn-free checkpoint
    /// fixtures byte-identical to the pre-churn format.
    pub churn_len: usize,
}

impl Checkpoint {
    /// The canonical byte-stable rendering: pretty JSON plus a trailing
    /// newline (same convention as golden reports, so committed fixtures
    /// diff cleanly). Same engine state ⇒ identical bytes. These are the
    /// bytes [`Checkpoint::write_json`] streams.
    pub fn to_json(&self) -> String {
        let mut buf = Vec::with_capacity(self.size_hint());
        self.write_json(&mut buf).expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("the JSON writer emits UTF-8")
    }

    /// A little over the rendering's length, from the per-item sizes of a
    /// 4,096-node churn checkpoint (a ledger record takes about 187 bytes,
    /// a node's RNG quad, height and task list about 140), so `to_json`
    /// fills its buffer without regrowing it.
    fn size_hint(&self) -> usize {
        let tasks: usize = self.node_tasks.iter().map(Vec::len).sum();
        let flying = self.flights.iter().flatten().count();
        let words = self.free_slots.len() + self.down_words.len() + self.shard_dirty.len();
        4096 + 200 * self.ledger.len()
            + 160 * self.node_rngs.len()
            + 140 * tasks
            + 16 * self.flights.len()
            + 380 * flying
            + 100 * self.queue.len()
            + 64 * self.series.len()
            + 24 * words
            + 160 * self.shard_accums.len()
    }

    /// Streams the canonical rendering (see [`Checkpoint::to_json`]) into
    /// `out` straight from the engine state: no intermediate JSON tree and
    /// no whole-document buffer, so writing a checkpoint costs memory
    /// independent of its size. Fails only when `out` does.
    ///
    /// The many fixed-shape items (RNG quads, tasks, flights and ledger
    /// records) render from a [`Layout`](serde_json::Layout) the writer
    /// derives once per shape at that shape's depth, so each costs its
    /// values' digits plus one copy of the text between them.
    pub fn write_json(&self, out: impl io::Write) -> io::Result<()> {
        let mut w = Writer::pretty(out);
        w.begin_object()?;
        w.field("version", CHECKPOINT_VERSION)?;
        w.field("nodes", self.nodes)?;
        w.field("edges", self.edges)?;
        w.field("trace_len", self.trace_len)?;
        w.field("balancer", self.balancer.as_str())?;
        w.field("time", self.time)?;
        w.field("next_tick", self.next_tick)?;
        w.field("round", self.round)?;
        w.key("engine_rng")?;
        w.scalars(self.engine_rng)?;
        w.key("node_rngs")?;
        w.begin_array()?;
        let mut quad = w.layout(|w| w.scalars([Hole; 4]));
        for words in &self.node_rngs {
            w.record(&mut quad, |l| {
                l.value(words[0]).value(words[1]).value(words[2]).value(words[3]);
            })?;
        }
        w.end_array()?;
        w.key("node_tasks")?;
        w.begin_array()?;
        // Tasks sit one level inside their node's list.
        let mut task = None;
        for list in &self.node_tasks {
            w.begin_array()?;
            for t in list {
                let task = task.get_or_insert_with(|| w.layout(task_shape));
                w.record(task, |l| fill_task(l, t))?;
            }
            w.end_array()?;
        }
        w.end_array()?;
        w.key("node_heights")?;
        w.scalars(&self.node_heights)?;
        let s = &self.stats;
        w.key("stats")?;
        w.begin_object()?;
        w.field("height_sum", s.height_sum)?;
        w.field("height_sq_sum", s.height_sq_sum)?;
        w.field("stat_ops", s.stat_ops)?;
        w.field("stat_peak_sum", s.stat_peak_sum)?;
        w.field("stat_peak_sq", s.stat_peak_sq)?;
        w.end_object()?;
        w.field("idgen_next", self.idgen_next)?;
        w.key("down_words")?;
        w.scalars(&self.down_words)?;
        w.key("flights")?;
        w.begin_array()?;
        let mut flight = w.layout(|w| {
            w.begin_object()?;
            w.key("task")?;
            task_shape(w)?;
            for key in ["flag", "hops", "source", "from", "to", "link_weight", "heat"] {
                w.field(key, Hole)?;
            }
            w.field("attempts", Hole)?;
            w.field("bounced", Hole)?;
            w.end_object()
        });
        for f in &self.flights {
            match f {
                Some(f) => w.record(&mut flight, |l| {
                    fill_task(l, &f.task);
                    l.value(f.flag).value(f.hops).value(f.source).value(f.from).value(f.to);
                    l.value(f.link_weight).value(f.heat).value(f.attempts).value(f.bounced);
                })?,
                None => w.value(&Value::Null)?,
            }
        }
        w.end_array()?;
        w.key("free_slots")?;
        w.scalars(&self.free_slots)?;
        w.field("in_flight_load", self.in_flight_load)?;
        w.field("completed_tasks", self.completed_tasks)?;
        w.field("queue_seq", self.queue_seq)?;
        w.key("queue")?;
        w.begin_array()?;
        for (time, seq, event) in &self.queue {
            w.begin_array()?;
            w.scalar(time)?;
            w.scalar(seq)?;
            write_event(&mut w, event)?;
            w.end_array()?;
        }
        w.end_array()?;
        w.key("ledger")?;
        w.begin_array()?;
        let mut record = w.layout(|w| {
            w.begin_object()?;
            for key in ["time", "from", "to", "size", "link_weight", "heat", "faulted"] {
                w.field(key, Hole)?;
            }
            w.end_object()
        });
        for r in self.ledger.iter() {
            w.record(&mut record, |l| {
                l.value(r.time).value(r.from).value(r.to).value(r.size);
                l.value(r.link_weight).value(r.heat).value(r.faulted);
            })?;
        }
        w.end_array()?;
        w.key("series")?;
        w.begin_array()?;
        for &(t, cov) in &self.series {
            w.scalars([t, cov])?;
        }
        w.end_array()?;
        w.field("shard_layout_k", self.shard_layout_k)?;
        w.key("shard_dirty")?;
        w.scalars(&self.shard_dirty)?;
        w.key("shard_accums")?;
        w.begin_array()?;
        for a in &self.shard_accums {
            w.begin_object()?;
            w.field("ticks_evaluated", a.ticks_evaluated)?;
            w.field("ticks_skipped", a.ticks_skipped)?;
            w.field("nodes_evaluated", a.nodes_evaluated)?;
            w.field("intents_emitted", a.intents_emitted)?;
            w.end_object()?;
        }
        w.end_array()?;
        w.key("balancer_state")?;
        w.value(self.balancer_state.as_ref().unwrap_or(&Value::Null))?;
        // Omitted (not null) when zero: churn-free checkpoints keep the
        // exact pre-churn byte layout, so committed fixtures never churn.
        if self.churn_len > 0 {
            w.field("churn_len", self.churn_len)?;
        }
        w.end_object()?;
        let mut out = w.into_inner();
        out.write_all(b"\n")?;
        out.flush()
    }

    /// Parses a checkpoint from JSON text. Returns `Err` — never panics —
    /// on malformed JSON, a missing or unsupported `version`, or any
    /// missing/ill-typed field (truncated and bit-flipped files land here).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("checkpoint: {e}"))?;
        Self::from_value(&v).map_err(|e| format!("checkpoint: {e}"))
    }
}

/// Events serialize as `{"kind": ..., "idx": ...}`.
fn write_event<W: io::Write>(w: &mut Writer<W>, e: &Event) -> io::Result<()> {
    let (kind, idx) = match *e {
        Event::LoadArrival { flight } => ("load", flight),
        Event::TaskArrival => ("task", 0),
        Event::TraceArrival { record } => ("trace", record),
    };
    w.begin_object()?;
    w.field("kind", kind)?;
    w.field("idx", idx)?;
    w.end_object()
}

/// A task's shape: its values in [`fill_task`]'s order.
fn task_shape(w: &mut Writer<Vec<u8>>) -> io::Result<()> {
    w.begin_object()?;
    for key in ["id", "size", "work", "created_at", "origin"] {
        w.field(key, Hole)?;
    }
    w.end_object()
}

fn fill_task(l: &mut Line, t: &Task) {
    l.value(t.id.0).value(t.size).value(t.work).value(t.created_at).value(t.origin);
}

fn task_from_value(v: &Value) -> Result<Task, String> {
    let size: f64 = v.field("size")?;
    let work: f64 = v.field("work")?;
    let created_at: f64 = v.field("created_at")?;
    if !(size.is_finite() && size > 0.0) {
        return Err(format!("task size {size} must be finite and positive"));
    }
    if !(work.is_finite() && work >= 0.0) {
        return Err(format!("task work {work} must be finite and non-negative"));
    }
    if !created_at.is_finite() {
        return Err("task created_at must be finite".into());
    }
    Ok(Task { id: TaskId(v.field("id")?), size, work, created_at, origin: v.field("origin")? })
}

fn record_from_value(v: &Value) -> Result<MigrationRecord, String> {
    Ok(MigrationRecord {
        time: v.field("time")?,
        from: v.field("from")?,
        to: v.field("to")?,
        size: v.field("size")?,
        link_weight: v.field("link_weight")?,
        heat: v.field("heat")?,
        faulted: v.field("faulted")?,
    })
}

fn accum_from_value(v: &Value) -> Result<ShardAccum, String> {
    Ok(ShardAccum {
        ticks_evaluated: v.field("ticks_evaluated")?,
        ticks_skipped: v.field("ticks_skipped")?,
        nodes_evaluated: v.field("nodes_evaluated")?,
        intents_emitted: v.field("intents_emitted")?,
    })
}

fn event_from_value(v: &Value) -> Result<Event, String> {
    let kind: String = v.field("kind")?;
    match kind.as_str() {
        "load" => Ok(Event::LoadArrival { flight: v.field("idx")? }),
        "task" => Ok(Event::TaskArrival),
        "trace" => Ok(Event::TraceArrival { record: v.field("idx")? }),
        other => Err(format!("unknown event kind `{other}`")),
    }
}

impl Deserialize for StatSnapshot {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(StatSnapshot {
            height_sum: v.field("height_sum")?,
            height_sq_sum: v.field("height_sq_sum")?,
            stat_ops: v.field("stat_ops")?,
            stat_peak_sum: v.field("stat_peak_sum")?,
            stat_peak_sq: v.field("stat_peak_sq")?,
        })
    }
}

impl Deserialize for FlightSnap {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(FlightSnap {
            task: task_from_value(v.get("task").ok_or("flight missing `task`")?)
                .map_err(|e| format!("flight task: {e}"))?,
            flag: v.field("flag")?,
            hops: v.field("hops")?,
            source: v.field("source")?,
            from: v.field("from")?,
            to: v.field("to")?,
            link_weight: v.field("link_weight")?,
            heat: v.field("heat")?,
            attempts: v.field("attempts")?,
            bounced: v.field("bounced")?,
        })
    }
}

impl Deserialize for Checkpoint {
    fn from_value(v: &Value) -> Result<Self, String> {
        // Version gate FIRST: a future-format file must fail on the version,
        // not on whichever field happened to change shape.
        let version: u32 = v.field("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads version \
                 {CHECKPOINT_VERSION})"
            ));
        }
        let list = |key: &str| -> Result<&[Value], String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("field `{key}`: expected array"))
        };
        let node_tasks = list("node_tasks")?
            .iter()
            .map(|lv| {
                lv.as_array()
                    .ok_or_else(|| "node_tasks entry: expected array".to_string())?
                    .iter()
                    .map(task_from_value)
                    .collect::<Result<Vec<Task>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        let flights = list("flights")?
            .iter()
            .map(|fv| match fv {
                Value::Null => Ok(None),
                other => FlightSnap::from_value(other).map(Some),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let queue = list("queue")?
            .iter()
            .map(|ev| {
                let items =
                    ev.as_array().ok_or_else(|| "queue entry: expected array".to_string())?;
                if items.len() != 3 {
                    return Err(format!("queue entry: expected 3 items, got {}", items.len()));
                }
                Ok((
                    f64::from_value(&items[0]).map_err(|e| format!("queue time: {e}"))?,
                    u64::from_value(&items[1]).map_err(|e| format!("queue seq: {e}"))?,
                    event_from_value(&items[2])?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ledger =
            list("ledger")?.iter().map(record_from_value).collect::<Result<Vec<_>, String>>()?;
        let ledger = Arc::new(ledger);
        let shard_accums = list("shard_accums")?
            .iter()
            .map(accum_from_value)
            .collect::<Result<Vec<_>, String>>()?;
        let rng_words = |val: &Value| -> Result<[u64; 4], String> {
            let words = Vec::<u64>::from_value(val)?;
            <[u64; 4]>::try_from(words)
                .map_err(|w| format!("RNG state needs 4 words, got {}", w.len()))
        };
        Ok(Checkpoint {
            nodes: v.field("nodes")?,
            edges: v.field("edges")?,
            trace_len: v.field("trace_len")?,
            balancer: v.field("balancer")?,
            time: v.field("time")?,
            next_tick: v.field("next_tick")?,
            round: v.field("round")?,
            engine_rng: rng_words(v.get("engine_rng").ok_or("missing field `engine_rng`")?)
                .map_err(|e| format!("field `engine_rng`: {e}"))?,
            node_rngs: list("node_rngs")?
                .iter()
                .map(&rng_words)
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| format!("field `node_rngs`: {e}"))?,
            node_tasks,
            node_heights: v.field("node_heights")?,
            stats: v.field("stats")?,
            idgen_next: v.field("idgen_next")?,
            down_words: v.field("down_words")?,
            flights,
            free_slots: v.field("free_slots")?,
            in_flight_load: v.field("in_flight_load")?,
            completed_tasks: v.field("completed_tasks")?,
            queue_seq: v.field("queue_seq")?,
            queue,
            ledger,
            series: v.field("series")?,
            shard_layout_k: v.field("shard_layout_k")?,
            shard_dirty: v.field("shard_dirty")?,
            shard_accums,
            balancer_state: v.field_nullable("balancer_state")?,
            churn_len: v.field_opt("churn_len")?.unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint() -> Checkpoint {
        Checkpoint {
            nodes: 2,
            edges: 1,
            trace_len: 1,
            balancer: "null".into(),
            time: 3.5,
            next_tick: 4.0,
            round: 3,
            engine_rng: [1, 2, 3, 4],
            node_rngs: vec![[5, 6, 7, 8], [9, 10, 11, 12]],
            node_tasks: vec![
                vec![Task { id: TaskId(0), size: 1.5, work: 0.25, created_at: 0.0, origin: 0 }],
                vec![],
            ],
            node_heights: vec![1.5, 0.0],
            stats: StatSnapshot {
                height_sum: 1.5,
                height_sq_sum: 2.25,
                stat_ops: 7,
                stat_peak_sum: 3.0,
                stat_peak_sq: 9.0,
            },
            idgen_next: 1,
            down_words: vec![1],
            flights: vec![
                None,
                Some(FlightSnap {
                    task: Task { id: TaskId(9), size: 0.5, work: 0.5, created_at: 1.0, origin: 1 },
                    flag: 2.5,
                    hops: 1,
                    source: 1,
                    from: 1,
                    to: 0,
                    link_weight: 1.0,
                    heat: 0.5,
                    attempts: 2,
                    bounced: false,
                }),
            ],
            free_slots: vec![0],
            in_flight_load: 0.5,
            completed_tasks: 4,
            queue_seq: 6,
            queue: vec![(3.75, 4, Event::LoadArrival { flight: 1 }), (4.5, 5, Event::TaskArrival)],
            ledger: Arc::new(vec![MigrationRecord {
                time: 2.0,
                from: 0,
                to: 1,
                size: 0.5,
                link_weight: 1.0,
                heat: 0.5,
                faulted: true,
            }]),
            series: vec![(0.0, 1.0), (1.0, 0.5)],
            shard_layout_k: 2,
            shard_dirty: vec![true, false],
            shard_accums: vec![ShardAccum::new(), ShardAccum::new()],
            balancer_state: Some(Value::Object(vec![(
                "current_class".to_string(),
                Value::UInt(1),
            )])),
            churn_len: 0,
        }
    }

    #[test]
    fn churn_len_round_trips_and_is_omitted_when_zero() {
        let plain = tiny_checkpoint();
        assert!(!plain.to_json().contains("churn_len"), "zero churn must not serialize");
        let mut churned = tiny_checkpoint();
        churned.churn_len = 7;
        let text = churned.to_json();
        assert!(text.contains("\"churn_len\": 7"));
        let back = Checkpoint::from_json(&text).expect("round trip");
        assert_eq!(back, churned);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn explicit_null_is_refused_except_for_a_stateless_balancer() {
        let churned = Checkpoint { churn_len: 7, ..tiny_checkpoint() };
        let text = churned.to_json().replacen("\"churn_len\": 7", "\"churn_len\": null", 1);
        let err = Checkpoint::from_json(&text).unwrap_err();
        assert!(err.contains("field `churn_len`: null"), "{err}");
        let stateless = Checkpoint { balancer_state: None, ..tiny_checkpoint() };
        let text = stateless.to_json();
        assert!(text.contains("\"balancer_state\": null"));
        assert_eq!(Checkpoint::from_json(&text), Ok(stateless));
    }

    #[test]
    fn json_round_trip_is_exact_and_byte_stable() {
        let cp = tiny_checkpoint();
        let text = cp.to_json();
        let back = Checkpoint::from_json(&text).expect("round trip");
        assert_eq!(back, cp);
        assert_eq!(back.to_json(), text, "re-serialization must be byte-identical");
    }

    #[test]
    fn streamed_bytes_keep_the_renderers_canonical_layout() {
        // `write_json` bypasses the `Value` tree, so pin it to the one
        // renderer: re-rendering the parsed text must reproduce it byte for
        // byte, across the shapes the committed fixture does not cover. The
        // fixed-shape items (quads, tasks, flights, ledger records) render
        // from layouts, so every number kernel path and
        // the largest integers go through them here.
        let mut empty = tiny_checkpoint();
        empty.node_tasks = vec![vec![], vec![]];
        empty.flights = vec![None, None];
        empty.free_slots = vec![0, 1];
        empty.queue = vec![];
        empty.ledger = Arc::default();
        // Integral, Ryu, negative zero, subnormal and ≥ 1e16 floats.
        let odd = [3.0, -7.0, 0.1 + 0.2, -0.0, 5e-324, f64::MIN_POSITIVE / 8.0, 1e16, 2.5e300];
        let positive = [3.0, 0.1 + 0.2, 5e-324, 9_007_199_254_740_994.0, 1e16, 2.5e300];
        let task = |i: usize| Task {
            id: TaskId(u64::MAX - i as u64),
            size: positive[i % positive.len()],
            work: positive[(i + 1) % positive.len()],
            created_at: odd[i % odd.len()],
            origin: u32::MAX,
        };
        let mut records = tiny_checkpoint();
        records.engine_rng = [u64::MAX; 4];
        records.node_rngs = vec![[u64::MAX; 4], [0, 1, u64::MAX, u64::MAX - 1]];
        records.node_tasks = vec![(0..positive.len()).map(task).collect(), vec![task(9)]];
        records.flights = odd
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                Some(FlightSnap {
                    task: task(i),
                    flag: x,
                    hops: u32::MAX,
                    source: i as u32,
                    from: u32::MAX,
                    to: 0,
                    link_weight: -x,
                    heat: x,
                    attempts: u32::MAX,
                    bounced: i % 2 == 0,
                })
            })
            .chain([None])
            .collect();
        records.queue = odd
            .iter()
            .zip(
                [Event::LoadArrival { flight: 1 }, Event::TraceArrival { record: 0 }]
                    .iter()
                    .cycle(),
            )
            .map(|(&x, &e)| (x.abs(), u64::MAX, e))
            .collect();
        records.ledger = Arc::new(
            odd.iter()
                .enumerate()
                .map(|(i, &x)| MigrationRecord {
                    time: x,
                    from: i as u32,
                    to: u32::MAX,
                    size: -x,
                    link_weight: x,
                    heat: odd[(i + 3) % odd.len()],
                    faulted: i % 3 != 1,
                })
                .collect(),
        );
        let mut floats = tiny_checkpoint();
        floats.node_heights = vec![-0.0, f64::MIN_POSITIVE / 8.0];
        floats.in_flight_load = 1.0 + f64::EPSILON;
        floats.series.push((2.0, -0.0));
        let mut nested = tiny_checkpoint();
        nested.balancer_state = Some(Value::Object(vec![
            ("pressure".to_string(), Value::Array(vec![Value::Float(0.5), Value::Int(-3)])),
            (
                "inner".to_string(),
                Value::Object(vec![
                    ("empty_list".to_string(), Value::Array(vec![])),
                    ("empty_map".to_string(), Value::Object(vec![])),
                    ("label".to_string(), Value::Str("a\"b\n\u{1}µ".into())),
                    ("flag".to_string(), Value::Bool(true)),
                    ("none".to_string(), Value::Null),
                ]),
            ),
        ]));
        let mut stateless = tiny_checkpoint();
        stateless.balancer_state = None;
        let variants = [
            ("tiny", tiny_checkpoint()),
            ("empty", empty),
            ("records", records),
            ("floats", floats),
            ("nested", nested),
            ("stateless", stateless),
        ];
        for (name, base) in variants {
            for churn_len in [0, 7] {
                let cp = Checkpoint { churn_len, ..base.clone() };
                let text = cp.to_json();
                let tree = serde_json::from_str(&text).expect("streamed text parses");
                let rendered = serde_json::to_string_pretty(&tree).expect("renders") + "\n";
                assert_eq!(rendered, text, "{name}, churn_len {churn_len}");
                assert_eq!(Checkpoint::from_json(&text).expect("lifts"), cp, "{name}");
            }
        }
    }

    #[test]
    fn version_gate_rejects_future_formats() {
        let text = tiny_checkpoint().to_json();
        let future = text.replacen("\"version\": 1", "\"version\": 99", 1);
        let err = Checkpoint::from_json(&future).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        let missing = text.replacen("\"version\": 1,", "", 1);
        assert!(Checkpoint::from_json(&missing).is_err());
    }

    #[test]
    fn truncated_and_corrupt_bytes_error_cleanly() {
        let text = tiny_checkpoint().to_json();
        for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 2] {
            assert!(Checkpoint::from_json(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Checkpoint::from_json("not json at all").is_err());
        // A field with the wrong shape.
        let bad = text.replacen("\"queue_seq\": 6", "\"queue_seq\": \"six\"", 1);
        assert!(Checkpoint::from_json(&bad).is_err());
        // Non-finite floats render as null and must fail to lift.
        let nullified = text.replacen("\"in_flight_load\": 0.5", "\"in_flight_load\": null", 1);
        assert!(Checkpoint::from_json(&nullified).is_err());
    }

    #[test]
    fn unknown_event_kinds_rejected() {
        let text = tiny_checkpoint().to_json();
        let bad = text.replacen("\"kind\": \"task\"", "\"kind\": \"balance-tick\"", 1);
        assert!(Checkpoint::from_json(&bad).unwrap_err().contains("event kind"));
    }

    #[test]
    fn task_shape_validated() {
        let text = tiny_checkpoint().to_json();
        let bad = text.replacen("\"size\": 1.5", "\"size\": -1.5", 1);
        assert!(Checkpoint::from_json(&bad).is_err());
    }

    #[test]
    fn extreme_floats_survive_the_round_trip_bit_exactly() {
        let mut cp = tiny_checkpoint();
        // Values chosen to stress shortest-round-trip float printing:
        // drift-scale subnormal-ish magnitudes, ulp-separated pairs, and
        // negative zero.
        cp.stats.height_sum = 6.123233995736766e-17;
        cp.stats.height_sq_sum = -0.0;
        cp.node_heights = vec![0.1 + 0.2, f64::MIN_POSITIVE];
        cp.in_flight_load = 1.0 + f64::EPSILON;
        let back = Checkpoint::from_json(&cp.to_json()).expect("round trip");
        assert_eq!(back.stats.height_sum.to_bits(), cp.stats.height_sum.to_bits());
        assert_eq!(back.stats.height_sq_sum.to_bits(), cp.stats.height_sq_sum.to_bits());
        for (a, b) in back.node_heights.iter().zip(&cp.node_heights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.in_flight_load.to_bits(), cp.in_flight_load.to_bits());
    }
}
