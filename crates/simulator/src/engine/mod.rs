//! The discrete-event multiprocessor engine.
//!
//! Time advances event-to-event; balance rounds fire every `tick` time
//! units. A round is the paper's fixed sequence (§5.1): nodes decide, loads
//! launch, land and may slide on. Each phase is one module whose struct
//! owns what the phase writes and keeps its invariant:
//!
//! | Phase | Module | Owns | Keeps |
//! |---|---|---|---|
//! | churn and faults | `membership` | churn plan and cursor, down nodes and links, the link mask, link weights | mask = down links ∪ edges at down nodes |
//! | decide | `sweep` | partition, shard slots (outboxes, node RNGs, counters), pool, dirty flags, consume memo | a clean shard re-emits nothing; a memo bit implies dirty shards |
//! | commit and events | `flights` | event queue, flight slab and free list, in-flight total, ledger, arrivals | free list = empty slots; one pending arrival per occupied slot |
//! | consume | `consume` | nothing; steps resident work | a consumer marks its shards once per sweep window |
//! | bookkeeping | `bookkeeping` | CoV series and skip memo, counters | one sample per round; memo = `cov()` of unchanged state |
//!
//! This module is the one round driver, and `builder` holds the
//! configuration and [`EngineBuilder`]. A round runs in full when something
//! can happen at its tick — the events due before it, each preceded by
//! consumption, then churn, faults, `begin_round`, the sweep, the commit
//! and a CoV sample — and is fast-forwarded in closed form otherwise. The
//! shard layout is the uniform split of [`Partition::new`], fixed for the
//! engine's lifetime. Only `K ≥ 2` with a
//! [`LoadBalancer::quiescence_stable`] policy skips (clean shards, quiet
//! rounds), provably without observable effect (ADR-004, ADR-006); `K = 1`
//! is the skip-free reference. Checkpoint capture and [`Engine::restore`]
//! go part by part.

mod bookkeeping;
mod builder;
mod consume;
mod flights;
mod membership;
mod sweep;

pub use builder::{EngineBuilder, EngineConfig, FaultModel};

use crate::balancer::{GlobalView, LoadBalancer};
use crate::checkpoint::Checkpoint;
use crate::state::SystemState;
use bookkeeping::Bookkeeping;
use flights::{Env, Flights};
use membership::Membership;
use pp_metrics::imbalance::Imbalance;
use pp_metrics::ledger::TrafficLedger;
use pp_metrics::series::TimeSeries;
use pp_metrics::shard::ShardAccum;
use pp_topology::graph::NodeId;
use pp_topology::partition::Partition;
use rand::rngs::StdRng;
use std::fmt;
use sweep::Sweep;

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
    time: f64,
    /// Absolute time of the next balance round.
    next_tick: f64,
    round: u64,
    /// The engine's own stream: faults, transfer attempts, arrivals.
    engine_rng: StdRng,
    /// Per-node speed multipliers on `consume_rate` (empty = homogeneous).
    speeds: Vec<f64>,
    membership: Membership,
    sweep: Sweep,
    flights: Flights,
    books: Bookkeeping,
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
        self.flights.in_flight_load
    }

    /// Total load in the system (resident + in flight).
    pub fn system_load(&self) -> f64 {
        self.state.total_load() + self.flights.in_flight_load
    }

    /// Links currently down.
    pub fn down_link_count(&self) -> usize {
        self.membership.down_link_count()
    }

    /// Nodes currently out of the system (left via churn, not yet rejoined).
    pub fn down_node_count(&self) -> usize {
        self.membership.down_node_count()
    }

    /// The resolved shard execution layout. Boundary nodes — nodes with a
    /// neighbour in another shard — are counted from the topology and the
    /// current intervals on demand; this diagnostic is their only reader.
    pub fn shard_layout(&self) -> ShardLayout {
        self.sweep.layout(&self.state.topo)
    }

    /// The spatial decomposition the sweep runs over.
    pub fn partition(&self) -> &Partition {
        &self.sweep.partition
    }

    /// Sweep counters merged over all shards, in fixed shard order.
    pub fn shard_stats(&self) -> ShardAccum {
        self.sweep.stats()
    }

    /// Rounds that ran the full pipeline (events, consumption, faults,
    /// decision sweep) instead of being fast-forwarded in closed form —
    /// every round at `K = 1`. A round that ran may still have skipped
    /// every shard's sweep (a due event woke it, but no shard was dirty).
    /// Like the shard counters this is a layout-dependent diagnostic.
    pub fn executed_rounds(&self) -> u64 {
        self.books.executed_rounds
    }

    /// Pre-reserves metric storage for `n` further rounds, so recording a
    /// sample during a tick never reallocates (useful for allocation-free
    /// steady-state measurement).
    pub fn reserve_rounds(&mut self, n: u64) {
        self.books.series.reserve(n as usize);
    }

    /// Runs `n` balance rounds (processing all intervening events) and
    /// returns the engine for chaining. The shard layout decides *how*
    /// each round runs (see [`EngineConfig::shards`]) — what it records is
    /// byte-identical either way.
    pub fn run_rounds(&mut self, n: u64) -> &mut Self {
        for _ in 0..n {
            self.run_round();
        }
        self
    }

    /// Always 0: the shard layout never changes after build. Kept because
    /// benchmark harnesses still read it.
    pub fn repartitions(&self) -> u64 {
        0
    }

    /// One balance round: the full pipeline when something can happen at
    /// this round's tick, otherwise a closed-form fast-forward.
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
            self.books.invalidate();
            self.books.executed_rounds += 1;
            self.process_events_until(t);
            self.advance_time_to(t);
            self.fire_tick();
        } else {
            self.round += 1;
            self.time = self.time.max(t);
            self.books.sample_skipped(self.time, &self.state);
        }
        self.next_tick = self.time + self.config.tick;
    }

    /// Whether the round at tick time `t` must run the full pipeline
    /// rather than the closed-form fast-forward.
    fn round_has_effect(&self, t: f64) -> bool {
        // The fault process draws engine RNG per edge every round.
        if !self.sweep.skipping(&*self.balancer) || self.config.fault_model.is_some() {
            return true;
        }
        // A churn event due at this round's tick mutates membership (and
        // possibly drains a queue); the fast-forward must not straddle it.
        if self.membership.churn_due(self.round + 1) {
            return true;
        }
        // Resident work decays between rounds; the O(1) counter gates the
        // consumption sweep. On an empty system the sweep is a no-op.
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
        let sweep = self.sweep.any_dirty().then_some(t);
        match (sweep, self.flights.queue.peek_time()) {
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
        self.books.invalidate();
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
            series: self.books.series.clone(),
            ledger: self.flights.ledger.clone(),
            total_load: self.state.total_load(),
            in_flight_load: self.flights.in_flight_load,
            completed_tasks: self.books.completed_tasks,
        }
    }

    /// Captures the complete dynamic state of the engine as a versioned
    /// [`Checkpoint`] — see the [`checkpoint`](crate::checkpoint) module
    /// docs for exactly what is (and is not) included. Each part writes
    /// the fields it owns.
    ///
    /// Must be taken *between* balance rounds (which is the only vantage
    /// point the public API exposes: after `run_rounds`/`drain` return).
    /// Restoring the snapshot into an engine freshly built from the same
    /// configuration resumes the run byte-identically, under any `(shards,
    /// threads)` layout.
    pub fn checkpoint(&self) -> Checkpoint {
        let n = self.state.node_count();
        let mut cp = Checkpoint {
            nodes: n,
            edges: self.state.topo.edge_count(),
            balancer: self.balancer.name().to_string(),
            time: self.time,
            next_tick: self.next_tick,
            round: self.round,
            engine_rng: self.engine_rng.state(),
            node_tasks: (0..n)
                .map(|i| self.state.node(NodeId(i as u32)).tasks().to_vec())
                .collect(),
            node_heights: self.state.height_slice().to_vec(),
            stats: self.state.stat_snapshot(),
            balancer_state: self.balancer.save_state(),
            ..Checkpoint::default()
        };
        self.membership.capture(&mut cp);
        self.sweep.capture(&mut cp);
        self.flights.capture(&mut cp);
        self.books.capture(&mut cp);
        cp
    }

    /// Overwrites this engine's dynamic state with a [`Checkpoint`],
    /// resuming the captured run exactly. The engine must have been built
    /// from the same configuration the checkpoint was written under; the
    /// fingerprint (node/edge counts, trace length, churn plan length,
    /// balancer name) is checked and a mismatch — like any structurally
    /// invalid snapshot — returns `Err` without touching the engine. Never
    /// panics on corrupt input: every part validates the fields it owns and
    /// builds its restored value first, and nothing is assigned until every
    /// part has passed.
    pub fn restore(&mut self, cp: &Checkpoint) -> Result<(), String> {
        let n = self.state.node_count();
        for (what, theirs, ours) in
            [("nodes", cp.nodes, n), ("edges", cp.edges, self.state.topo.edge_count())]
        {
            if theirs != ours {
                return Err(format!("checkpoint has {theirs} {what}, engine has {ours}"));
            }
        }
        if cp.balancer != self.balancer.name() {
            return Err(format!(
                "checkpoint was written under balancer `{}`, engine runs `{}`",
                cp.balancer,
                self.balancer.name()
            ));
        }
        if cp.node_tasks.len() != n || cp.node_heights.len() != n {
            return Err("checkpoint per-node vectors do not match the node count".into());
        }
        // A zeroed state is the generator's fixed point, never seeded:
        // reject it rather than let `from_state` repair it silently.
        if cp.engine_rng == [0; 4] {
            return Err("checkpoint carries an all-zero RNG state (corrupt snapshot)".into());
        }
        for (key, v) in [("time", cp.time), ("next_tick", cp.next_tick)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("checkpoint `{key}` = {v} must be finite and non-negative"));
            }
        }
        if cp.node_heights.iter().any(|h| !h.is_finite()) {
            return Err("checkpoint node heights must be finite".into());
        }
        // Floats that feed accumulated totals or later arithmetic: a single
        // non-finite value would restore Ok and silently poison every
        // subsequent report (JSON carrying `1e999` parses to infinity).
        let s = cp.stats;
        if ![s.height_sum, s.height_sq_sum, s.stat_peak_sum, s.stat_peak_sq]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err("checkpoint imbalance statistics must be finite".into());
        }
        for t in cp.node_tasks.iter().flatten() {
            if !(t.size.is_finite() && t.size > 0.0 && t.work.is_finite())
                || t.work < 0.0
                || !t.created_at.is_finite()
            {
                return Err("checkpoint task size/work/created_at out of range".into());
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
        let membership = self.membership.restored(cp, &self.state.topo)?;
        let flights = self.flights.restored(cp)?;
        self.sweep.check(cp)?;
        let books = self.books.restored(cp)?;
        // The balancer last: it only touches the policy, and a failure
        // here still leaves the engine's own state untouched.
        if let Some(state) = &cp.balancer_state {
            self.balancer
                .load_state(state, n)
                .map_err(|e| format!("balancer `{}` state: {e}", self.balancer.name()))?;
        }
        // --- Apply phase (infallible from here on).
        for (i, tasks) in cp.node_tasks.iter().enumerate() {
            self.state.restore_node(NodeId(i as u32), tasks.clone(), cp.node_heights[i]);
        }
        self.state.restore_stats(cp.stats);
        self.engine_rng = StdRng::from_state(cp.engine_rng);
        self.sweep.restore(cp);
        (self.membership, self.flights, self.books) = (membership, flights, books);
        (self.time, self.next_tick, self.round) = (cp.time, cp.next_tick, cp.round);
        Ok(())
    }

    /// The flight phase's part, the sweep, and the rest it touches.
    fn flight_env(&mut self) -> (&mut Flights, &mut Sweep, Env<'_>) {
        let Engine { state, balancer, config, engine_rng, membership, sweep, flights, .. } = self;
        let (balancer, time, round) = (&**balancer, self.time, self.round);
        (flights, sweep, Env { state, membership, balancer, engine_rng, config, time, round })
    }

    /// Handles every event due at or before `t`, consuming work up to each.
    fn process_events_until(&mut self, t: f64) {
        while let Some((et, event)) = self.flights.pop_due(t) {
            self.advance_time_to(et);
            let (flights, sweep, mut env) = self.flight_env();
            flights.handle(event, sweep, &mut env);
        }
    }

    /// The tick: churn and faults, the policy's per-round refresh, the
    /// decision sweep, the commit, and the round's CoV sample.
    fn fire_tick(&mut self) {
        self.round += 1;
        self.membership.apply_churn(self.round, &mut self.state, &mut self.sweep);
        if let Some(fm) = self.config.fault_model {
            let topo = &self.state.topo;
            self.membership.update_faults(fm, &mut self.engine_rng, topo, &mut self.sweep);
        }
        let global = GlobalView {
            topo: &self.state.topo,
            heights: self.state.height_slice(),
            round: self.round,
            time: self.time,
        };
        self.balancer.begin_round(&global);
        let links = self.membership.links(&self.state);
        self.sweep.collect_decisions(&self.state, &links, &*self.balancer, self.round, self.time);
        let (flights, sweep, mut env) = self.flight_env();
        sweep.commit(|sweep, from, intent| flights.launch(from, intent, sweep, &mut env));
        self.books.sample(self.time, &self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::sweep::OccupiedWalk;
    use super::*;
    use crate::balancer::{MigrationIntent, NodeView, NullBalancer};
    use crate::events::Event;
    use crate::state::{node_bit, NODE_WORD};
    use pp_tasking::task::{Task, TaskId};
    use pp_tasking::workload::{ArrivalProcess, TraceEvent, Workload};
    use pp_topology::graph::Topology;
    use pp_topology::links::{LinkAttrs, LinkMap};

    /// Moves one unit-size task to the lowest neighbour whenever the height
    /// difference exceeds 1 — a minimal working policy for engine tests.
    struct GreedyOne;
    impl LoadBalancer for GreedyOne {
        fn name(&self) -> &str {
            "greedy-one"
        }
        fn decide_into(
            &self,
            view: &NodeView<'_>,
            _rng: &mut StdRng,
            out: &mut Vec<MigrationIntent>,
        ) {
            let Some(task) = view.tasks.first() else { return };
            let h = view.nbr_heights;
            let Some(k) = (0..h.len()).min_by(|&a, &b| h[a].total_cmp(&h[b])) else { return };
            if view.height - h[k] > 1.0 {
                out.push(MigrationIntent {
                    task: task.id,
                    to: view.neighbors[k],
                    flag: 0.0,
                    heat: 0.0,
                });
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
    fn ledger_digest_catches_a_hop_that_no_total_reads() {
        // The ledger keeps no records, yet a run whose hops differ only in
        // a field no running total reads (the node a hop left from) must
        // not report as equal: the digest covers every record's bits.
        let mut straight = busy_engine(1, 1);
        straight.run_rounds(24);
        straight.drain(20.0);
        let mut writer = busy_engine(1, 1);
        writer.run_rounds(6);
        let mut cp = writer.checkpoint();
        let f = cp.flights.iter_mut().flatten().next().expect("a load in flight");
        f.from = (f.from + 1) % 64;
        let mut resumed = busy_engine(1, 1);
        resumed.restore(&cp).expect("still a valid node");
        resumed.run_rounds(18);
        resumed.drain(20.0);
        let (want, got) = (straight.report(), resumed.report());
        let totals = |r: &RunReport| {
            let l = &r.ledger;
            (l.migration_count(), l.fault_count(), l.total_load_moved(), l.total_heat())
        };
        assert_eq!(totals(&got), totals(&want));
        assert_eq!((&got.series, got.time), (&want.series, want.time));
        assert_ne!(got.ledger.digest(), want.ledger.digest());
        assert_ne!(got, want, "report equality must see the changed hop");
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
        // A quiescence-stable policy asleep at capture time is asleep again
        // one sweep after a same-layout restore: the shard counters ride
        // along, and restore marks every shard dirty, so each is evaluated
        // once, emits nothing and goes clean.
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
        let (rs, es) = (r.shard_stats(), e.shard_stats());
        assert_eq!(es.ticks_evaluated, 4, "the straight run never wakes");
        assert_eq!(rs.ticks_evaluated, 8, "one re-evaluation of each shard after restore");
        assert_eq!(rs.ticks_skipped, es.ticks_skipped);
        assert_eq!(r.report(), e.report());
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
        assert!(straight.flights.slab.iter().all(Option::is_none), "slab must be empty");
        straight.flights.in_flight_load = -2.2e-12;
        let cp = Checkpoint::from_json(&straight.checkpoint().to_json()).expect("round trip");
        let mut resumed = busy_engine(1, 1);
        resumed.restore(&cp).expect("drift within tolerance restores");
        assert_eq!(resumed.in_flight_load().to_bits(), (-2.2e-12f64).to_bits());
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

        assert!(good.ledger.count > 0, "busy engine must have migrated");
        let mut bad = good.clone();
        bad.ledger.heat = f64::INFINITY;
        assert!(fresh.restore(&bad).is_err(), "non-finite ledger total");
        let mut bad = good.clone();
        bad.ledger.faults = bad.ledger.count + 1;
        assert!(fresh.restore(&bad).is_err(), "more ledger faults than hops");
        let mut bad = good.clone();
        bad.ledger.m2_traffic = -1.0;
        assert!(fresh.restore(&bad).is_err(), "negative ledger second moment");

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

        // Shard counters inconsistent with the recorded capture layout are
        // corruption, not a layout change.
        let mut bad = good.clone();
        bad.shard_accums.push(ShardAccum::new());
        assert!(fresh.restore(&bad).is_err(), "shard counter length mismatch");

        // After all those rejections the engine is still fully usable and
        // accepts the good snapshot.
        fresh.restore(&good).expect("good snapshot still restores");
        assert_eq!(fresh.round(), 6);
    }

    /// [`GreedyOne`] with the quiescence-stable contract: `decide_into` is
    /// a pure, draw-free function of the view, so a clean shard re-emits
    /// nothing — which also makes it a legal skipper at `K ≥ 2`.
    struct GreedyStable;
    impl LoadBalancer for GreedyStable {
        fn name(&self) -> &str {
            "greedy-stable"
        }
        fn decide_into(
            &self,
            view: &NodeView<'_>,
            rng: &mut StdRng,
            out: &mut Vec<MigrationIntent>,
        ) {
            GreedyOne.decide_into(view, rng, out);
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
        // as a shard's range may.
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
        let s = ev.partition().shard_of(NodeId(5));
        ev.run_rounds(2);
        assert!(!ev.sweep.any_dirty(), "zero intents leave every shard clean");
        assert!(ev.sweep.consume_marked.iter().all(|&w| w == 0), "the sweep clears the memo");
        let cp = ev.checkpoint();

        // The next window: consuming on node 5 must mark its shard again.
        let t = ev.time + 0.5;
        ev.advance_time_to(t);
        assert!(ev.sweep.shards[s].dirty, "consumption after a clean sweep re-dirties the shard");
        assert_eq!(ev.sweep.consume_marked[0], 1 << 5);

        // A restore between windows drops the memo with the timeline and
        // marks every shard dirty, so the consumer's shard runs next round.
        ev.restore(&cp).unwrap();
        assert!(ev.sweep.consume_marked.iter().all(|&w| w == 0), "restore clears the memo");
        assert!(ev.sweep.shards.iter().all(|slot| slot.dirty), "restore marks every shard");
        let swept = ev.sweep.shards[s].accum.ticks_evaluated;
        ev.run_rounds(1);
        assert_eq!(ev.sweep.shards[s].accum.ticks_evaluated, swept + 1, "the consumer's shard ran");

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
        assert_eq!(e.next_wake(), e.flights.queue.peek_time());
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
        assert_eq!(busy.next_wake(), Some(tick.min(busy.flights.queue.peek_time().unwrap())));
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

    #[test]
    fn restore_sweeps_every_shard_whatever_the_engines_own_flags() {
        // A checkpoint carries no dirty flags, so restore must mark every
        // shard dirty, not keep the flags of the engine it lands in. A
        // hotspot drains over 12-unit links, so no landing re-marks its
        // shard for rounds after the capture: restored into an engine whose
        // flags read all clean, a restore that kept them would skip it.
        let build = || {
            let topo = Topology::torus(&[8, 8]);
            let slow = LinkAttrs { distance: 12.0, ..LinkAttrs::default() };
            EngineBuilder::new(topo.clone())
                .links(LinkMap::uniform(&topo, slow))
                .workload(Workload::hotspot(64, 27, 24.0))
                .balancer(GreedyStable)
                .config(EngineConfig { shards: 4, threads: 1, ..Default::default() })
                .seed(5)
                .build()
        };
        let mut straight = build();
        straight.run_rounds(40);
        straight.drain(40.0);
        let mut writer = build();
        writer.run_rounds(6);
        assert!(writer.sweep.shards.iter().any(|s| s.dirty), "the capture must be busy");
        let cp = writer.checkpoint();
        let mut resumed = build();
        resumed.sweep.shards.iter_mut().for_each(|s| s.dirty = false);
        resumed.restore(&cp).expect("restore");
        assert!(resumed.sweep.shards.iter().all(|s| s.dirty));
        resumed.run_rounds(34);
        resumed.drain(40.0);
        assert_eq!(resumed.report(), straight.report());
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
                if e.state.node(v).task_count() == 0 || !e.membership.node_up(v) {
                    continue;
                }
                let scaled = if e.speeds.is_empty() { amount } else { amount * e.speeds[i] };
                if scaled > 0.0 {
                    let (done, used) = e.state.consume_work(v, scaled);
                    e.books.completed_tasks += done;
                    let (word, bit) = (i / NODE_WORD, 1u64 << (i % NODE_WORD));
                    if (done > 0 || used > 0.0) && e.sweep.consume_marked[word] & bit == 0 {
                        e.sweep.consume_marked[word] |= bit;
                        e.sweep.mark_node_dirty(&e.state.topo, v);
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
                e.membership.set_down_bit(v);
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
            let dirty: Vec<bool> = e.sweep.shards.iter().map(|slot| slot.dirty).collect();
            let memo = e.sweep.consume_marked.clone();
            (stats, s.stat_ops, tasks, heights, dirty, e.books.completed_tasks, memo)
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
                        e.sweep.shards.iter_mut().for_each(|slot| slot.dirty = false);
                        e.sweep.consume_marked.fill(0);
                    }
                }
                t += dt;
                kernel.advance_time_to(t);
                reference_advance_time_to(&mut reference, t);
                assert_eq!(bits(&kernel), bits(&reference), "step {step}, t = {t}");
                assert_eq!(kernel.state.occupied_words(), reference.state.occupied_words());
            }
            assert!(kernel.books.completed_tasks > 0);
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
        // Every launch is still in flight after the round.
        e.run_rounds(1);

        let flights: Vec<_> = e.flights.slab.iter().flatten().collect();
        let mut from: Vec<u32> = flights.iter().map(|f| f.from).collect();
        for r in flights {
            assert_eq!(
                loads[r.to as usize], 0.0,
                "hop {} -> {} lands on an empty node",
                r.from, r.to
            );
            assert!(r.from.abs_diff(r.to) == 1 || r.from.abs_diff(r.to) == 299, "{r:?}");
        }
        from.sort_unstable();
        assert_eq!(from, occupied, "one launch from each emitting node");
        for (slot, &(start, end)) in e.sweep.shards.iter().zip(&ranges) {
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
            for ev in writer.membership.churn.iter().filter(|ev| ev.round <= writer.round) {
                down[ev.node as usize] = ev.leave;
            }
            for (i, &d) in down.iter().enumerate() {
                let v = NodeId(i as u32);
                assert_eq!(resumed.membership.node_up(v), !d, "down bit of node {i} (K={k})");
                let occupied = node_bit(resumed.state.occupied_words(), i);
                assert_eq!(occupied, resumed.state.node(v).task_count() != 0, "node {i}");
            }
            assert_eq!(resumed.membership.down_words(), writer.membership.down_words());
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
