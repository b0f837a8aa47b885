//! Engine configuration and construction.

use super::bookkeeping::Bookkeeping;
use super::flights::Flights;
use super::membership::Membership;
use super::sweep::Sweep;
use super::Engine;
use crate::balancer::LoadBalancer;
use crate::churn::ChurnPlan;
use crate::state::SystemState;
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::TaskIdGen;
use pp_tasking::workload::{validate_trace, ArrivalProcess, TraceEvent, Workload};
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkMap};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// (0 = auto: 1): contiguous node-id bands within ±1 node of each
    /// other, fixed for the engine's lifetime. Clamped to the node count.
    /// `K = 1` is the skip-free sequential reference: every round runs in
    /// full. `K ≥ 2` with a [`LoadBalancer::quiescence_stable`] policy
    /// skips clean shards inside a round and fast-forwards effect-free
    /// rounds in closed form (byte-identical reports either way — see
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
        }
    }
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
        let mix = |i: u64| -> u64 {
            // SplitMix64-style mixing for independent per-node streams.
            let mut z = self.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let c = self.config;
        let sweep = Sweep::new(&state.topo, &c, |i| StdRng::seed_from_u64(mix(i + 1)));
        let arrivals = !matches!(c.arrival, ArrivalProcess::Quiescent);
        Engine {
            membership: Membership::new(&state, self.churn, c.weight_c),
            flights: Flights::new(idgen, self.trace, arrivals),
            books: Bookkeeping::new(state.cov()),
            sweep,
            state,
            balancer,
            config: c,
            time: 0.0,
            next_tick: c.tick,
            round: 0,
            engine_rng: StdRng::seed_from_u64(mix(0)),
            speeds: self.speeds,
        }
    }
}
