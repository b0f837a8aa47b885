//! The commit-and-events phase. A launched load occupies its link for
//! `d + size/bw` per attempt, bounces back to its source once the attempt
//! budget is spent, and on landing may slide onward (§5.1).
//!
//! [`Flights`] is the only writer of the **flight slab**, its free list and
//! the **in-flight total**: the free list holds exactly the empty slots,
//! every occupied slot has exactly one pending arrival, and the total is
//! the accumulated sum of the slab's task sizes.

use super::membership::Membership;
use super::sweep::Sweep;
use super::EngineConfig;
use crate::balancer::{build_view, LoadBalancer, MigratingLoad, MigrationIntent};
use crate::checkpoint::{Checkpoint, FlightSnap, IN_FLIGHT_DRIFT_TOLERANCE};
use crate::events::{Event, EventQueue};
use crate::state::SystemState;
use pp_metrics::ledger::{MigrationRecord, TrafficLedger};
use pp_tasking::task::{Task, TaskIdGen};
use pp_tasking::workload::TraceEvent;
use pp_topology::graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// The rest of the engine as the flight phase sees it (the sweep travels
/// beside it, so the commit phase can lend it while draining).
pub(super) struct Env<'a> {
    pub(super) state: &'a mut SystemState,
    pub(super) membership: &'a Membership,
    pub(super) balancer: &'a dyn LoadBalancer,
    pub(super) engine_rng: &'a mut StdRng,
    pub(super) config: &'a EngineConfig,
    pub(super) time: f64,
    pub(super) round: u64,
}

/// Loads in flight, pending events, the ledger and the arrival sources.
pub(super) struct Flights {
    pub(super) queue: EventQueue,
    /// In-flight loads by slot (`None` = free), in checkpoint form.
    pub(super) slab: Vec<Option<FlightSnap>>,
    free_slots: Vec<usize>,
    pub(super) in_flight_load: f64,
    pub(super) ledger: TrafficLedger,
    idgen: TaskIdGen,
    /// The arrival trace being replayed.
    trace: Vec<TraceEvent>,
}

impl Flights {
    /// An empty slab; the first dynamic arrival and the trace are queued.
    pub(super) fn new(idgen: TaskIdGen, trace: Vec<TraceEvent>, arrivals: bool) -> Self {
        let mut queue = EventQueue::new();
        if arrivals {
            queue.push(0.0, Event::TaskArrival);
        }
        for (record, ev) in trace.iter().enumerate() {
            queue.push(ev.time, Event::TraceArrival { record });
        }
        let (slab, free_slots, ledger) = (Vec::new(), Vec::new(), TrafficLedger::new());
        Flights { queue, slab, free_slots, in_flight_load: 0.0, ledger, idgen, trace }
    }

    /// Pops the next event if it is due at or before `t`.
    #[inline]
    pub(super) fn pop_due(&mut self, t: f64) -> Option<(f64, Event)> {
        if self.queue.peek_time()? > t {
            return None;
        }
        self.queue.pop()
    }

    /// Handles one popped event at the current clock.
    pub(super) fn handle(&mut self, event: Event, sweep: &mut Sweep, env: &mut Env<'_>) {
        match event {
            Event::LoadArrival { flight } => self.land(flight, sweep, env),
            Event::TaskArrival => {
                let arrival = env.config.arrival;
                let Some((next, size)) = arrival.next_after(env.time, env.engine_rng) else {
                    return;
                };
                // Current arrival: the process picks the target (uniform
                // for all processes except the moving hotspot).
                let node =
                    NodeId(arrival.target_node(env.time, env.state.node_count(), env.engine_rng));
                self.arrive(node, size, sweep, env);
                self.queue.push(next, Event::TaskArrival);
            }
            Event::TraceArrival { record } => {
                let ev = self.trace[record];
                self.arrive(NodeId(ev.node), ev.size, sweep, env);
            }
        }
    }

    /// A new task of `size` arriving at `node`. A down target redirects to
    /// the next live node cyclically — the draw itself is unchanged, so
    /// the engine stream position stays a pure function of time, never of
    /// membership.
    fn arrive(&mut self, node: NodeId, size: f64, sweep: &mut Sweep, env: &mut Env<'_>) {
        let node = env.membership.next_up_node(&env.state.topo, node);
        let task = Task::new(self.idgen.next_id(), size, node.0).created_at(env.time);
        deposit(node, task, sweep, env);
    }

    /// Validates and launches one migration from `from`.
    pub(super) fn launch(
        &mut self,
        from: NodeId,
        intent: MigrationIntent,
        sweep: &mut Sweep,
        env: &mut Env<'_>,
    ) {
        // Destination must be a live neighbour.
        let Some(edge) = env.membership.live_edge(&env.state.topo, from, intent.to) else {
            return;
        };
        // Task must still be resident (a node might double-propose).
        let Some(task) = env.state.remove_task(from, intent.task) else {
            return;
        };
        sweep.mark_node_dirty(&env.state.topo, from);
        let load = MigratingLoad { task, flag: intent.flag, hops: 0, source: from };
        self.launch_load(from, intent.to, edge, load, intent.heat, env);
    }

    fn launch_load(
        &mut self,
        from: NodeId,
        to: NodeId,
        edge: EdgeId,
        load: MigratingLoad,
        heat: f64,
        env: &mut Env<'_>,
    ) {
        let attrs = env.state.links().get(edge);
        let duration = attrs.transfer_time(load.task.size);
        // Attempts until first success are geometric in the per-try success
        // probability; sample the count directly with one uniform draw
        // instead of one Bernoulli draw per retry, then cap at the budget.
        // `G = 1 + ⌊ln(1−U)/ln(1−p)⌋`; the transfer bounces iff G exceeds
        // the budget.
        let p_ok = attrs.success_probability(duration).max(1e-12);
        let budget = env.config.max_attempts.max(1);
        let (attempts, bounced) = if p_ok >= 1.0 {
            (1, false)
        } else {
            let u: f64 = env.engine_rng.gen_range(0.0..1.0);
            let g = 1.0 + ((1.0 - u).ln() / (1.0 - p_ok).ln()).floor();
            if g > budget as f64 {
                (budget, true)
            } else {
                (g as u32, false)
            }
        };
        let (dest, bounced) = if bounced { (from, true) } else { (to, false) };
        let flight = FlightSnap {
            task: load.task,
            flag: load.flag,
            hops: load.hops + 1,
            source: load.source.0,
            from: from.0,
            to: dest.0,
            link_weight: env.membership.weights[edge.idx()],
            heat,
            attempts,
            bounced,
        };
        self.in_flight_load += load.task.size;
        let slot = if let Some(s) = self.free_slots.pop() {
            self.slab[s] = Some(flight);
            s
        } else {
            self.slab.push(Some(flight));
            self.slab.len() - 1
        };
        self.queue.push(env.time + duration * attempts as f64, Event::LoadArrival { flight: slot });
    }

    /// Lands the load in `slot`: records the hop, then slides it onward or
    /// deposits it.
    fn land(&mut self, slot: usize, sweep: &mut Sweep, env: &mut Env<'_>) {
        let f = self.slab[slot].take().expect("dangling flight");
        self.free_slots.push(slot);
        self.in_flight_load -= f.task.size;
        self.ledger.record(MigrationRecord {
            time: env.time,
            from: f.from,
            to: f.to,
            size: f.task.size,
            link_weight: f.link_weight,
            heat: f.heat,
            faulted: f.attempts > 1 || f.bounced,
        });
        let to = NodeId(f.to);
        let load =
            MigratingLoad { task: f.task, flag: f.flag, hops: f.hops, source: NodeId(f.source) };
        // A bounced load failed for good and stays at its source. A landing
        // node that churned out mid-flight cannot decide (its RNG stream
        // must not advance for a node that is not there). Either way the
        // load deposits at the nearest live node.
        if !f.bounced && env.membership.node_up(to) {
            // In-motion decision (§5.1), from the landing node's own stream.
            let links = env.membership.links(env.state);
            let (scratch, rng) = sweep.node_stream(to);
            let heights = env.state.height_slice();
            let view = build_view(scratch, env.state, to, heights, &links, env.round, env.time);
            let onward = env.balancer.on_arrival(&view, &load, rng);
            if let Some(intent) = onward {
                if let Some(edge) = env.membership.live_edge(&env.state.topo, to, intent.to) {
                    let load = MigratingLoad { flag: intent.flag, ..load };
                    return self.launch_load(to, intent.to, edge, load, intent.heat, env);
                }
            }
        }
        let dest = env.membership.deposit_node(&env.state.topo, to);
        deposit(dest, load.task, sweep, env);
    }

    /// Writes the slab, queue, ledger and arrival sources.
    pub(super) fn capture(&self, cp: &mut Checkpoint) {
        cp.trace_len = self.trace.len();
        cp.idgen_next = self.idgen.position();
        cp.flights = self.slab.clone();
        cp.free_slots = self.free_slots.clone();
        cp.in_flight_load = self.in_flight_load;
        (cp.queue_seq, cp.queue) = self.queue.snapshot();
        cp.ledger = self.ledger.state();
    }

    /// The flight phase at a checkpoint, once the trace fingerprint, the
    /// slab invariants, the pending events and the ledger state pass.
    pub(super) fn restored(&self, cp: &Checkpoint) -> Result<Self, String> {
        if cp.trace_len != self.trace.len() {
            return Err(format!(
                "checkpoint replays a {}-record trace, engine has {} records",
                cp.trace_len,
                self.trace.len()
            ));
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
        let queue = EventQueue::from_entries(cp.queue_seq, &cp.queue)
            .map_err(|e| format!("checkpoint event queue: {e}"))?;
        // Event payload indices: every pending load arrival must name a
        // distinct occupied flight slot (landing takes the slot), and
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
        let n = cp.nodes;
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
        let ledger = TrafficLedger::from_state(cp.ledger).map_err(|e| format!("checkpoint {e}"))?;
        Ok(Flights {
            queue,
            slab: cp.flights.clone(),
            free_slots: cp.free_slots.clone(),
            in_flight_load: cp.in_flight_load,
            ledger,
            idgen: TaskIdGen::starting_at(cp.idgen_next),
            trace: self.trace.clone(),
        })
    }
}

/// Places `task` on `node` and wakes the shards that can observe it.
fn deposit(node: NodeId, task: Task, sweep: &mut Sweep, env: &mut Env<'_>) {
    env.state.add_task(node, task);
    sweep.mark_node_dirty(&env.state.topo, node);
}
