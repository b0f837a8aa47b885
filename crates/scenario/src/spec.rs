//! The declarative scenario schema: every knob of an experiment —
//! topology, link attributes, initial workload, task-graph/resource
//! affinities, balancing policy, dynamic arrivals, fault plan, node
//! speeds, engine configuration and duration — as plain data that can be
//! validated, serialized to JSON, diffed and replayed. See
//! `docs/adr/ADR-003-scenario-subsystem.md` for the design discussion.

use pp_core::arbiter::Arbiter;
use pp_core::balancer::ParticlePlaneBalancer;
use pp_core::baselines::{
    CwnBalancer, DiffusionBalancer, DimensionExchangeBalancer, GradientModelBalancer,
    RandomNeighborBalancer, SenderInitiatedBalancer,
};
use pp_core::params::PhysicsConfig;
use pp_sim::balancer::{LoadBalancer, NullBalancer};
use pp_sim::checkpoint::Checkpoint;
use pp_sim::churn::ChurnPlan;
use pp_sim::engine::{Engine, EngineBuilder, EngineConfig, FaultModel, RunReport};
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::TaskId;
use pp_tasking::workload::{validate_trace, ArrivalProcess, TraceEvent, Workload};
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkMap};
use pp_topology::spec::TopologySpec;

/// Per-link attribute selection.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkSpec {
    /// Every link shares the same attributes.
    Uniform {
        /// Bandwidth (load units per time unit).
        bandwidth: f64,
        /// Physical length / base latency.
        distance: f64,
        /// Per-time-unit fault probability in `[0, 1)`.
        fault_prob: f64,
    },
    /// Links fast enough that transfers land within the tick — the
    /// synchronous assumption of the classical convergence analyses.
    Instant,
    /// Heterogeneous seeded random attributes.
    Random {
        /// Attribute seed.
        seed: u64,
        /// Bandwidth range `[min, max]`.
        bw: (f64, f64),
        /// Distance range `[min, max]`.
        d: (f64, f64),
        /// Fault probability upper bound.
        f_max: f64,
    },
}

/// The attributes of [`LinkSpec::Instant`] links.
const INSTANT_LINK: LinkAttrs = LinkAttrs { bandwidth: 1e9, distance: 1e-9, fault_prob: 0.0 };

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::Uniform { bandwidth: 1.0, distance: 1.0, fault_prob: 0.0 }
    }
}

impl LinkSpec {
    /// Parameter-range check (no topology needed).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LinkSpec::Uniform { bandwidth, distance, fault_prob } => {
                LinkAttrs { bandwidth, distance, fault_prob }.validate()
            }
            LinkSpec::Instant => Ok(()),
            LinkSpec::Random { bw, d, f_max, .. } => {
                if !(bw.0 > 0.0 && bw.1 >= bw.0) {
                    return Err(format!("bad bandwidth range {bw:?}"));
                }
                if !(d.0 > 0.0 && d.1 >= d.0) {
                    return Err(format!("bad distance range {d:?}"));
                }
                if !(0.0..1.0).contains(&f_max) {
                    return Err(format!("fault bound {f_max} not in [0, 1)"));
                }
                Ok(())
            }
        }
    }

    /// The `(bandwidth, distance)` ranges every built link falls in.
    fn ranges(&self) -> ((f64, f64), (f64, f64)) {
        match *self {
            LinkSpec::Uniform { bandwidth, distance, .. } => {
                ((bandwidth, bandwidth), (distance, distance))
            }
            LinkSpec::Instant => (
                (INSTANT_LINK.bandwidth, INSTANT_LINK.bandwidth),
                (INSTANT_LINK.distance, INSTANT_LINK.distance),
            ),
            LinkSpec::Random { bw, d, .. } => (bw, d),
        }
    }

    /// Builds the link map for `topo`.
    pub fn build(&self, topo: &Topology) -> LinkMap {
        match *self {
            LinkSpec::Uniform { bandwidth, distance, fault_prob } => {
                LinkMap::uniform(topo, LinkAttrs { bandwidth, distance, fault_prob })
            }
            LinkSpec::Instant => LinkMap::uniform(topo, INSTANT_LINK),
            LinkSpec::Random { seed, bw, d, f_max } => LinkMap::random(topo, seed, bw, d, f_max),
        }
    }
}

/// Initial placement of load onto nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// No initial load (dynamic-arrival scenarios).
    Empty,
    /// All load on one node.
    Hotspot {
        /// The hot node.
        node: usize,
        /// Total load.
        total: f64,
        /// Task granularity.
        task_size: f64,
    },
    /// Several equal hotspots.
    MultiHotspot {
        /// The hot nodes.
        nodes: Vec<usize>,
        /// Total load split evenly among them.
        total: f64,
    },
    /// Independent uniform loads in `[0, max_per_node]`.
    UniformRandom {
        /// Per-node maximum.
        max_per_node: f64,
        /// Placement seed.
        seed: u64,
    },
    /// A fraction of nodes get `high`, the rest `low`.
    Bimodal {
        /// Fraction of high nodes in `[0, 1]`.
        fraction: f64,
        /// High load.
        high: f64,
        /// Low load.
        low: f64,
        /// Shuffle seed.
        seed: u64,
    },
    /// Node `i` gets `i · step`.
    Ramp {
        /// Per-node increment.
        step: f64,
    },
    /// Zipf-distributed task sizes dealt onto random nodes.
    Zipf {
        /// Number of tasks.
        count: usize,
        /// Largest task size.
        base: f64,
        /// Power-law skew.
        skew: f64,
        /// Placement seed.
        seed: u64,
    },
    /// Explicit per-node load quantities.
    Loads {
        /// `loads[i]` goes to node `i` (length must match the topology).
        loads: Vec<f64>,
        /// Task granularity.
        task_size: f64,
    },
    /// Explicit `(node, size)` task records (initial-placement replay).
    Trace {
        /// The records, in order.
        records: Vec<(usize, f64)>,
    },
}

/// The most tasks a valid [`WorkloadSpec`] may place initially, as bounded
/// in closed form from its parameters: one task per node of the largest
/// valid topology ([`pp_topology::spec::MAX_NODES`]).
pub const MAX_INITIAL_TASKS: usize = 1 << 24;

/// The most arrivals a valid [`ScenarioSpec`] may expect over its horizon
/// (`rounds · tick + drain`): the arrival process schedules each arrival
/// from the last, so the count is the work (and the task memory) a run
/// commits to.
pub const MAX_ARRIVALS: usize = 1 << 24;

/// The most node-rounds a valid churn plan may span: the plan draws every
/// node's transition every round at build time, and may record one event
/// per draw.
pub const MAX_CHURN_STEPS: u64 = 1 << 24;

/// `x` is a finite, non-negative load quantity.
fn is_quantity(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// `x` is a finite, positive size.
fn is_size(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

impl WorkloadSpec {
    /// Parameter check against a node count. Beyond the ranges, it bounds
    /// the placement in closed form before anything is allocated: at most
    /// [`MAX_INITIAL_TASKS`] tasks, and a total load whose square (the
    /// imbalance statistics sum `h²`) is finite.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        self.validate_params(n)?;
        let (tasks, load) = self.bounds(n);
        if !(tasks.is_finite() && tasks <= MAX_INITIAL_TASKS as f64) {
            return Err(format!(
                "up to {tasks:e} initial tasks exceeds the cap of {MAX_INITIAL_TASKS}"
            ));
        }
        if !(load * load).is_finite() {
            return Err(format!("total initial load {load:e} is too large to measure"));
        }
        Ok(())
    }

    /// Closed-form upper bounds `(tasks, total load)` on the placement
    /// [`WorkloadSpec::build`] makes for `n` nodes. Each node's quantity `q`
    /// splits into at most `q / task_size + 1` tasks.
    fn bounds(&self, n: usize) -> (f64, f64) {
        let nodes = n as f64;
        match self {
            WorkloadSpec::Empty => (0.0, 0.0),
            WorkloadSpec::Hotspot { total, task_size, .. } => (total / task_size + 1.0, *total),
            WorkloadSpec::MultiHotspot { nodes: hot, total } => (total + hot.len() as f64, *total),
            WorkloadSpec::UniformRandom { max_per_node, .. } => {
                (nodes * (max_per_node + 1.0), nodes * max_per_node)
            }
            WorkloadSpec::Bimodal { high, low, .. } => {
                let top = high.max(*low);
                (nodes * (top + 1.0), nodes * top)
            }
            WorkloadSpec::Ramp { step } => {
                let load = step * nodes * (nodes - 1.0).max(0.0) / 2.0;
                (load + nodes, load)
            }
            WorkloadSpec::Zipf { count, base, .. } => (*count as f64, *count as f64 * base),
            WorkloadSpec::Loads { loads, task_size } => {
                let load: f64 = loads.iter().sum();
                (load / task_size + nodes, load)
            }
            WorkloadSpec::Trace { records } => {
                (records.len() as f64, records.iter().map(|&(_, s)| s).sum())
            }
        }
    }

    /// The per-variant parameter ranges.
    fn validate_params(&self, n: usize) -> Result<(), String> {
        match self {
            WorkloadSpec::Empty => Ok(()),
            WorkloadSpec::Hotspot { node, total, task_size } => {
                if *node >= n {
                    return Err(format!("hot node {node} out of range (n={n})"));
                }
                if !is_quantity(*total) || !is_size(*task_size) {
                    return Err(
                        "hotspot total must be finite and ≥ 0, task size finite and > 0".into()
                    );
                }
                Ok(())
            }
            WorkloadSpec::MultiHotspot { nodes, total } => {
                if nodes.is_empty() {
                    return Err("multi-hotspot needs at least one node".into());
                }
                if let Some(&bad) = nodes.iter().find(|&&v| v >= n) {
                    return Err(format!("hot node {bad} out of range (n={n})"));
                }
                if !is_quantity(*total) {
                    return Err("total load must be finite and ≥ 0".into());
                }
                Ok(())
            }
            WorkloadSpec::UniformRandom { max_per_node, .. } => {
                if !is_size(*max_per_node) {
                    return Err("max_per_node must be finite and > 0".into());
                }
                Ok(())
            }
            WorkloadSpec::Bimodal { fraction, high, low, .. } => {
                if !(0.0..=1.0).contains(fraction) {
                    return Err(format!("fraction {fraction} not in [0, 1]"));
                }
                if !is_quantity(*high) || !is_quantity(*low) {
                    return Err("bimodal loads must be finite and ≥ 0".into());
                }
                Ok(())
            }
            WorkloadSpec::Ramp { step } => {
                if !is_quantity(*step) {
                    return Err("ramp step must be finite and ≥ 0".into());
                }
                Ok(())
            }
            WorkloadSpec::Zipf { count, base, skew, .. } => {
                if *count == 0 || !is_size(*base) || !is_quantity(*skew) {
                    return Err("zipf needs count > 0, finite base > 0, finite skew ≥ 0".into());
                }
                // The smallest task, rank `count`, must keep a positive size.
                if !is_size(base / (*count as f64).powf(*skew)) {
                    return Err(format!(
                        "zipf task sizes underflow to 0 (base {base}, skew {skew})"
                    ));
                }
                Ok(())
            }
            WorkloadSpec::Loads { loads, task_size } => {
                if loads.len() != n {
                    return Err(format!("loads length {} ≠ node count {n}", loads.len()));
                }
                if !loads.iter().all(|&l| is_quantity(l)) {
                    return Err("loads must be finite and ≥ 0".into());
                }
                if !is_size(*task_size) {
                    return Err("task size must be finite and > 0".into());
                }
                Ok(())
            }
            WorkloadSpec::Trace { records } => {
                if let Some(&(bad, _)) = records.iter().find(|&&(v, _)| v >= n) {
                    return Err(format!("trace node {bad} out of range (n={n})"));
                }
                if !records.iter().all(|&(_, s)| is_size(s)) {
                    return Err("trace sizes must be finite and > 0".into());
                }
                Ok(())
            }
        }
    }

    /// Builds the workload for `n` nodes.
    pub fn build(&self, n: usize) -> Workload {
        match self {
            WorkloadSpec::Empty => Workload::from_loads(&vec![0.0; n], 1.0),
            WorkloadSpec::Hotspot { node, total, task_size } => {
                Workload::hotspot_sized(n, *node, *total, *task_size)
            }
            WorkloadSpec::MultiHotspot { nodes, total } => {
                Workload::multi_hotspot(n, nodes, *total)
            }
            WorkloadSpec::UniformRandom { max_per_node, seed } => {
                Workload::uniform_random(n, *max_per_node, *seed)
            }
            WorkloadSpec::Bimodal { fraction, high, low, seed } => {
                Workload::bimodal(n, *fraction, *high, *low, *seed)
            }
            WorkloadSpec::Ramp { step } => Workload::ramp(n, *step),
            WorkloadSpec::Zipf { count, base, skew, seed } => {
                Workload::zipf(n, *count, *base, *skew, *seed)
            }
            WorkloadSpec::Loads { loads, task_size } => Workload::from_loads(loads, *task_size),
            WorkloadSpec::Trace { records } => Workload::from_trace(n, records),
        }
    }

    /// Short label for tables (`hotspot`, `bimodal`, …).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadSpec::Empty => "empty",
            WorkloadSpec::Hotspot { .. } => "hotspot",
            WorkloadSpec::MultiHotspot { .. } => "multi-hotspot",
            WorkloadSpec::UniformRandom { .. } => "uniform-random",
            WorkloadSpec::Bimodal { .. } => "bimodal",
            WorkloadSpec::Ramp { .. } => "ramp",
            WorkloadSpec::Zipf { .. } => "zipf",
            WorkloadSpec::Loads { .. } => "loads",
            WorkloadSpec::Trace { .. } => "trace",
        }
    }
}

/// Task dependency structure.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TaskGraphSpec {
    /// No dependencies.
    #[default]
    None,
    /// The first `count` task ids (0..count) form a chain of the given
    /// weight — the pipeline-stage pattern.
    Chain {
        /// Number of chained tasks.
        count: u64,
        /// Dependency weight between consecutive tasks.
        weight: f64,
    },
}

impl TaskGraphSpec {
    /// Builds the task graph.
    pub fn build(&self) -> TaskGraph {
        match *self {
            TaskGraphSpec::None => TaskGraph::new(),
            TaskGraphSpec::Chain { count, weight } => {
                let ids: Vec<TaskId> = (0..count).map(TaskId).collect();
                TaskGraph::chain(&ids, weight)
            }
        }
    }

    /// Parameter check.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TaskGraphSpec::None => Ok(()),
            TaskGraphSpec::Chain { count, weight } => {
                if count > MAX_INITIAL_TASKS as u64 {
                    return Err(format!(
                        "chain of {count} tasks exceeds the cap of {MAX_INITIAL_TASKS}"
                    ));
                }
                if weight < 0.0 {
                    return Err("chain weight must be ≥ 0".into());
                }
                Ok(())
            }
        }
    }
}

/// Task-to-node resource affinities.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ResourceSpec {
    /// No resource pins.
    #[default]
    None,
    /// The first `count` task ids are pinned to `node` with the given
    /// affinity strength.
    PinFirst {
        /// Number of pinned tasks (ids 0..count).
        count: u64,
        /// The node they are pinned to.
        node: usize,
        /// Affinity strength added to `µ_s` away from the node.
        strength: f64,
    },
}

impl ResourceSpec {
    /// Builds the resource matrix.
    pub fn build(&self) -> ResourceMatrix {
        match *self {
            ResourceSpec::None => ResourceMatrix::none(),
            ResourceSpec::PinFirst { count, node, strength } => {
                let mut res = ResourceMatrix::none();
                for id in 0..count {
                    res.set(TaskId(id), NodeId(node as u32), strength);
                }
                res
            }
        }
    }

    /// Parameter check against a node count.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        match *self {
            ResourceSpec::None => Ok(()),
            ResourceSpec::PinFirst { count, node, strength } => {
                if count > MAX_INITIAL_TASKS as u64 {
                    return Err(format!(
                        "{count} pinned tasks exceeds the cap of {MAX_INITIAL_TASKS}"
                    ));
                }
                if node >= n {
                    return Err(format!("pin node {node} out of range (n={n})"));
                }
                if strength < 0.0 {
                    return Err("pin strength must be ≥ 0".into());
                }
                Ok(())
            }
        }
    }
}

/// Balancing policy selection. Policies that need the topology (diffusion's
/// optimal α, dimension exchange's edge coloring) get it at build time.
#[derive(Debug, Clone, PartialEq)]
pub enum BalancerSpec {
    /// The paper's particle-plane balancer.
    ParticlePlane {
        /// Physical constants.
        config: PhysicsConfig,
        /// Link-choice policy (None = the default annealed stochastic).
        arbiter: Option<Arbiter>,
        /// Display-name override.
        name: Option<String>,
    },
    /// Cybenko diffusion.
    Diffusion {
        /// Diffusion parameter choice.
        alpha: DiffusionAlpha,
    },
    /// Cybenko dimension exchange over an edge coloring.
    DimensionExchange,
    /// Lin–Keller gradient model.
    GradientModel {
        /// Low-water mark.
        low: f64,
        /// High-water mark.
        high: f64,
    },
    /// Shu–Kale contracting within a neighborhood.
    Cwn {
        /// Imbalance threshold.
        threshold: f64,
    },
    /// Random-neighbor strawman.
    RandomNeighbor {
        /// Imbalance threshold.
        threshold: f64,
    },
    /// Eager et al. sender-initiated threshold policy.
    SenderInitiated {
        /// Send threshold.
        t_high: f64,
        /// Accept threshold.
        t_accept: f64,
        /// Probe count.
        probes: usize,
    },
    /// Do nothing (control runs).
    Null,
}

/// How the diffusion parameter is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiffusionAlpha {
    /// Xu–Lau optimal `2/(λ₂+λ_max)`.
    Optimal,
    /// The always-stable `1/(deg_max+1)`.
    Safe,
    /// A fixed value.
    Fixed(f64),
}

impl Default for BalancerSpec {
    fn default() -> Self {
        BalancerSpec::ParticlePlane { config: PhysicsConfig::default(), arbiter: None, name: None }
    }
}

impl BalancerSpec {
    /// Parameter check.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            BalancerSpec::ParticlePlane { config, arbiter, .. } => {
                config.validate()?;
                if let Some(a) = arbiter {
                    a.validate()?;
                }
                Ok(())
            }
            BalancerSpec::Diffusion { alpha: DiffusionAlpha::Fixed(a) } => {
                if !(*a > 0.0 && *a <= 1.0) {
                    return Err(format!("diffusion α {a} not in (0, 1]"));
                }
                Ok(())
            }
            BalancerSpec::Diffusion { .. } | BalancerSpec::DimensionExchange => Ok(()),
            BalancerSpec::GradientModel { low, high } => {
                // Negated so NaN thresholds fail validation too.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(high > low) {
                    return Err(format!("gradient-model low {low} must be < high {high}"));
                }
                Ok(())
            }
            BalancerSpec::Cwn { threshold } | BalancerSpec::RandomNeighbor { threshold } => {
                if *threshold < 0.0 {
                    return Err("threshold must be ≥ 0".into());
                }
                Ok(())
            }
            BalancerSpec::SenderInitiated { t_high, t_accept, probes } => {
                // Negated so NaN thresholds fail validation too.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(t_high >= t_accept) {
                    return Err(format!("t_high {t_high} must be ≥ t_accept {t_accept}"));
                }
                if *probes == 0 {
                    return Err("need at least one probe".into());
                }
                Ok(())
            }
            BalancerSpec::Null => Ok(()),
        }
    }

    /// Builds the policy for `topo`.
    pub fn build(&self, topo: &Topology) -> Box<dyn LoadBalancer> {
        match self {
            BalancerSpec::ParticlePlane { config, arbiter, name } => {
                let mut b = ParticlePlaneBalancer::new(*config);
                if let Some(a) = arbiter {
                    b = b.with_arbiter(*a);
                }
                if let Some(n) = name {
                    b = b.named(n);
                }
                Box::new(b)
            }
            BalancerSpec::Diffusion { alpha } => Box::new(match alpha {
                DiffusionAlpha::Optimal => DiffusionBalancer::optimal(topo),
                DiffusionAlpha::Safe => DiffusionBalancer::safe(topo),
                DiffusionAlpha::Fixed(a) => DiffusionBalancer::new(*a),
            }),
            BalancerSpec::DimensionExchange => Box::new(DimensionExchangeBalancer::new(topo)),
            BalancerSpec::GradientModel { low, high } => {
                Box::new(GradientModelBalancer::new(*low, *high))
            }
            BalancerSpec::Cwn { threshold } => Box::new(CwnBalancer::new(*threshold)),
            BalancerSpec::RandomNeighbor { threshold } => {
                Box::new(RandomNeighborBalancer::new(*threshold))
            }
            BalancerSpec::SenderInitiated { t_high, t_accept, probes } => {
                Box::new(SenderInitiatedBalancer::new(*t_high, *t_accept, *probes))
            }
            BalancerSpec::Null => Box::new(NullBalancer),
        }
    }
}

/// Dynamic arrivals: either a stochastic process or a recorded trace
/// replayed record-for-record (or both are absent for quiescent runs).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ArrivalSpec {
    /// No arrivals.
    #[default]
    Quiescent,
    /// Homogeneous Poisson arrivals (uniform target node).
    Poisson {
        /// Arrivals per time unit.
        rate: f64,
        /// Minimum task size.
        size_min: f64,
        /// Maximum task size.
        size_max: f64,
    },
    /// ON/OFF bursts.
    Bursty {
        /// In-burst rate.
        rate: f64,
        /// Burst duration.
        burst_len: f64,
        /// Quiet duration.
        quiet_len: f64,
        /// Task size.
        size: f64,
    },
    /// Sine-wave diurnal load.
    Diurnal {
        /// Mean rate over a period.
        base_rate: f64,
        /// Relative swing in `[0, 1]`.
        amplitude: f64,
        /// Cycle length.
        period: f64,
        /// Minimum task size.
        size_min: f64,
        /// Maximum task size.
        size_max: f64,
    },
    /// Adversarial moving hotspot.
    MovingHotspot {
        /// Arrival rate.
        rate: f64,
        /// Task size.
        size: f64,
        /// Dwell time per node.
        dwell: f64,
        /// Node stride between dwells.
        stride: u32,
    },
    /// Replay a recorded `(time, node, size)` trace.
    Replay {
        /// The records.
        events: Vec<(f64, u32, f64)>,
    },
}

impl ArrivalSpec {
    /// Parameter check against a node count.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        match self {
            ArrivalSpec::Quiescent => Ok(()),
            ArrivalSpec::Poisson { rate, size_min, size_max } => {
                if !(*rate > 0.0 && *size_min > 0.0 && size_max >= size_min) {
                    return Err("poisson needs rate > 0 and 0 < size_min ≤ size_max".into());
                }
                Ok(())
            }
            ArrivalSpec::Bursty { rate, burst_len, quiet_len, size } => {
                if !(*rate > 0.0 && *burst_len > 0.0 && *quiet_len >= 0.0 && *size > 0.0) {
                    return Err("bursty needs rate, burst_len, size > 0 and quiet_len ≥ 0".into());
                }
                Ok(())
            }
            ArrivalSpec::Diurnal { base_rate, amplitude, period, size_min, size_max } => {
                if !(*base_rate > 0.0 && *period > 0.0) {
                    return Err("diurnal needs base_rate and period > 0".into());
                }
                if !(0.0..=1.0).contains(amplitude) {
                    return Err(format!("diurnal amplitude {amplitude} not in [0, 1]"));
                }
                if !(*size_min > 0.0 && size_max >= size_min) {
                    return Err("diurnal needs 0 < size_min ≤ size_max".into());
                }
                Ok(())
            }
            ArrivalSpec::MovingHotspot { rate, size, dwell, .. } => {
                if !(*rate > 0.0 && *size > 0.0 && *dwell > 0.0) {
                    return Err("moving hotspot needs rate, size, dwell > 0".into());
                }
                Ok(())
            }
            ArrivalSpec::Replay { events } => {
                let trace: Vec<TraceEvent> = events
                    .iter()
                    .map(|&(time, node, size)| TraceEvent { time, node, size })
                    .collect();
                validate_trace(&trace, n)
            }
        }
    }

    /// Closed-form upper bounds `(arrivals, largest size)` over `horizon`
    /// time units: a process's expected count at its peak rate (for the
    /// diurnal process, also the thinning loop's candidate count), or the
    /// trace's length.
    fn bounds(&self, horizon: f64) -> (f64, f64) {
        match *self {
            ArrivalSpec::Quiescent => (0.0, 0.0),
            ArrivalSpec::Poisson { rate, size_max, .. } => (rate * horizon, size_max),
            ArrivalSpec::Bursty { rate, size, .. } => (rate * horizon, size),
            ArrivalSpec::Diurnal { base_rate, amplitude, size_max, .. } => {
                (base_rate * (1.0 + amplitude) * horizon, size_max)
            }
            ArrivalSpec::MovingHotspot { rate, size, .. } => (rate * horizon, size),
            ArrivalSpec::Replay { ref events } => {
                (events.len() as f64, events.iter().map(|e| e.2).fold(0.0, f64::max))
            }
        }
    }

    /// The `(process, trace)` pair the engine builder consumes: replay
    /// scenarios yield a trace and a quiescent process, everything else a
    /// process and an empty trace.
    pub fn build(&self) -> (ArrivalProcess, Vec<TraceEvent>) {
        match self {
            ArrivalSpec::Quiescent => (ArrivalProcess::Quiescent, Vec::new()),
            ArrivalSpec::Poisson { rate, size_min, size_max } => (
                ArrivalProcess::Poisson { rate: *rate, size_min: *size_min, size_max: *size_max },
                Vec::new(),
            ),
            ArrivalSpec::Bursty { rate, burst_len, quiet_len, size } => (
                ArrivalProcess::Bursty {
                    rate: *rate,
                    burst_len: *burst_len,
                    quiet_len: *quiet_len,
                    size: *size,
                },
                Vec::new(),
            ),
            ArrivalSpec::Diurnal { base_rate, amplitude, period, size_min, size_max } => (
                ArrivalProcess::Diurnal {
                    base_rate: *base_rate,
                    amplitude: *amplitude,
                    period: *period,
                    size_min: *size_min,
                    size_max: *size_max,
                },
                Vec::new(),
            ),
            ArrivalSpec::MovingHotspot { rate, size, dwell, stride } => (
                ArrivalProcess::MovingHotspot {
                    rate: *rate,
                    size: *size,
                    dwell: *dwell,
                    stride: *stride,
                },
                Vec::new(),
            ),
            ArrivalSpec::Replay { events } => (
                ArrivalProcess::Quiescent,
                events.iter().map(|&(time, node, size)| TraceEvent { time, node, size }).collect(),
            ),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalSpec::Quiescent => "quiescent",
            ArrivalSpec::Poisson { .. } => "poisson",
            ArrivalSpec::Bursty { .. } => "bursty",
            ArrivalSpec::Diurnal { .. } => "diurnal",
            ArrivalSpec::MovingHotspot { .. } => "moving-hotspot",
            ArrivalSpec::Replay { .. } => "trace-replay",
        }
    }
}

/// Per-node speed multipliers on the work-consumption rate.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SpeedSpec {
    /// Homogeneous unit speed.
    #[default]
    Uniform,
    /// A seeded-random fraction of nodes run fast, the rest slow.
    TwoTier {
        /// Fraction of fast nodes in `[0, 1]`.
        fast_fraction: f64,
        /// Fast-node multiplier.
        fast: f64,
        /// Slow-node multiplier.
        slow: f64,
        /// Assignment seed.
        seed: u64,
    },
    /// Speeds ramp linearly from `min` (node 0) to `max` (node n−1).
    LinearRamp {
        /// Slowest multiplier.
        min: f64,
        /// Fastest multiplier.
        max: f64,
    },
}

impl SpeedSpec {
    /// Parameter check.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SpeedSpec::Uniform => Ok(()),
            SpeedSpec::TwoTier { fast_fraction, fast, slow, .. } => {
                if !(0.0..=1.0).contains(&fast_fraction) {
                    return Err(format!("fast fraction {fast_fraction} not in [0, 1]"));
                }
                if !(fast > 0.0 && slow > 0.0) {
                    return Err("speed multipliers must be > 0".into());
                }
                Ok(())
            }
            SpeedSpec::LinearRamp { min, max } => {
                if !(min > 0.0 && max >= min) {
                    return Err(format!("bad speed ramp [{min}, {max}]"));
                }
                Ok(())
            }
        }
    }

    /// Builds the speed vector for `n` nodes (empty = homogeneous, the
    /// engine's fast path).
    pub fn build(&self, n: usize) -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        match *self {
            SpeedSpec::Uniform => Vec::new(),
            SpeedSpec::TwoTier { fast_fraction, fast, slow, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut idx: Vec<usize> = (0..n).collect();
                // Fisher–Yates, matching the bimodal workload shuffle.
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    idx.swap(i, j);
                }
                let cut = (n as f64 * fast_fraction).round() as usize;
                let mut speeds = vec![slow; n];
                for &i in idx.iter().take(cut) {
                    speeds[i] = fast;
                }
                speeds
            }
            SpeedSpec::LinearRamp { min, max } => {
                if n == 1 {
                    return vec![min];
                }
                (0..n).map(|i| min + (max - min) * i as f64 / (n - 1) as f64).collect()
            }
        }
    }
}

/// The dynamic link up/down plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlanSpec {
    /// Markov up/down process applied to every link each round.
    pub model: Option<(f64, f64)>,
}

impl FaultPlanSpec {
    /// Parameter check.
    pub fn validate(&self) -> Result<(), String> {
        if let Some((p_down, p_up)) = self.model {
            if !(0.0..=1.0).contains(&p_down) || !(0.0..=1.0).contains(&p_up) {
                return Err(format!("fault probabilities ({p_down}, {p_up}) not in [0, 1]"));
            }
        }
        Ok(())
    }

    /// The engine's fault model.
    pub fn build(&self) -> Option<FaultModel> {
        self.model.map(|(p_down, p_up)| FaultModel { p_down, p_up })
    }
}

/// The node join/leave plan — membership churn, as opposed to the link
/// up/down process of [`FaultPlanSpec`]. The schedule is precomputed from
/// its own seed at engine-build time (see `pp_sim::churn`), so a churned
/// scenario stays byte-identical across `(shards, threads)` layouts and
/// checkpoint/resume splits exactly like an unchurned one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ChurnSpec {
    /// Static membership (the default; omitted from JSON).
    #[default]
    None,
    /// Two-state Markov churn: each round every up node leaves with
    /// probability `leave` and every down node rejoins with probability
    /// `join`, over the scenario's full round budget.
    Markov {
        /// Per-round leave probability in `[0, 1]`.
        leave: f64,
        /// Per-round rejoin probability in `[0, 1]`.
        join: f64,
        /// Schedule seed (independent of the master seed).
        seed: u64,
    },
}

impl ChurnSpec {
    /// Parameter check.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ChurnSpec::None => Ok(()),
            ChurnSpec::Markov { leave, join, .. } => {
                for (name, p) in [("leave", leave), ("join", join)] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("churn {name} probability {p} not in [0, 1]"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Builds the churn plan for an `n`-node system over `rounds` rounds.
    pub fn build(&self, n: usize, rounds: u64) -> ChurnPlan {
        match *self {
            ChurnSpec::None => ChurnPlan::default(),
            ChurnSpec::Markov { leave, join, seed } => {
                ChurnPlan::markov(n, rounds, leave, join, seed)
            }
        }
    }
}

/// Engine knobs lifted straight into [`EngineConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineKnobs {
    /// Interval between balance rounds.
    pub tick: f64,
    /// Link-weight constant `c`.
    pub weight_c: f64,
    /// Work consumed per node per time unit.
    pub consume_rate: f64,
    /// Transfer attempts per hop.
    pub max_attempts: u32,
    /// Shard count `K` for the sharded tick pipeline (0 = auto; clamped to
    /// the node count at build). `K = 1` is the skip-free sequential
    /// reference; `K ≥ 2` with a quiescence-stable balancer skips clean
    /// shards and fast-forwards effect-free rounds (byte-identical reports
    /// either way).
    pub shards: usize,
    /// Sweep worker threads (0 = auto: one per core, capped at `K`).
    pub threads: usize,
}

impl Default for EngineKnobs {
    fn default() -> Self {
        let d = EngineConfig::default();
        EngineKnobs {
            tick: d.tick,
            weight_c: d.weight_c,
            consume_rate: d.consume_rate,
            max_attempts: d.max_attempts,
            shards: d.shards,
            threads: d.threads,
        }
    }
}

impl EngineKnobs {
    /// Parameter check.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.tick > 0.0 && self.tick.is_finite()) {
            return Err(format!("tick {} must be finite and > 0", self.tick));
        }
        // Negated so a NaN weight constant fails validation too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.weight_c > 0.0) {
            return Err("weight_c must be > 0".into());
        }
        if self.consume_rate < 0.0 {
            return Err("consume_rate must be ≥ 0".into());
        }
        if self.max_attempts == 0 {
            return Err("need at least one transfer attempt".into());
        }
        Ok(())
    }
}

/// Periodic checkpointing during [`ScenarioSpec::run`]: every `every`
/// balance rounds the engine state is captured and written (overwriting) to
/// `path` as versioned checkpoint JSON — the standard enabler for
/// long-horizon runs that must survive interruption. Checkpoint capture is
/// read-only, so a checkpointed run's report is byte-identical to the same
/// run without the knob.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Balance rounds between checkpoints (> 0).
    pub every: u64,
    /// File the latest checkpoint is written to (parent directories are
    /// created as needed).
    pub path: String,
}

impl CheckpointSpec {
    /// Parameter check.
    pub fn validate(&self) -> Result<(), String> {
        if self.every == 0 {
            return Err("checkpoint interval must be > 0 rounds".into());
        }
        if self.path.is_empty() {
            return Err("checkpoint path must not be empty".into());
        }
        Ok(())
    }
}

/// How long the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationSpec {
    /// Balance rounds to execute.
    pub rounds: u64,
    /// Extra drain time after the last round (lets in-flight loads land).
    pub drain: f64,
}

impl Default for DurationSpec {
    fn default() -> Self {
        DurationSpec { rounds: 200, drain: 100.0 }
    }
}

/// Writes a checkpoint to `path` (creating parent directories) in the
/// canonical byte-stable JSON rendering. Used by [`ScenarioSpec::run`] for
/// the `checkpoint` knob and by `pp-lab --checkpoint-every`.
///
/// The write is atomic-by-rename: the bytes go to a `.tmp` sibling first
/// and replace `path` only once fully written, so a crash or full disk
/// mid-write can never destroy the previous good checkpoint — losing the
/// last restart point to an interruption is the exact failure checkpoints
/// exist to survive. The JSON streams through a 64 KiB buffered writer
/// straight from the checkpoint, never held whole in memory: the buffer
/// keeps the number of `write` calls, and with them the kernel's per-call
/// cost, small beside the cost of formatting the bytes (the default 8 KiB
/// buffer makes eight times as many). The file is fsynced
/// before the rename and, on Unix, its directory after it, so once this
/// returns `Ok` a power loss keeps the new checkpoint. If writing or the
/// rename fails, the `.tmp` sibling is removed and `path` keeps its
/// previous contents; if only the directory sync fails, the error is
/// returned with the new checkpoint already in place.
pub fn write_checkpoint(cp: &Checkpoint, path: &str) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let written = write_synced(cp, &tmp).and_then(|()| {
        std::fs::rename(&tmp, path).map_err(|e| format!("cannot move {tmp:?} over {path:?}: {e}"))
    });
    if written.is_err() {
        // Best effort: the sibling may never have been created.
        let _ = std::fs::remove_file(&tmp);
    }
    written.and_then(|()| sync_parent(path))
}

/// Fsyncs the directory holding `path`: the rename lives in the directory
/// entry, and without this a power loss can leave the entry pointing at
/// the previous checkpoint.
#[cfg(unix)]
fn sync_parent(path: &std::path::Path) -> Result<(), String> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("cannot sync directory {dir:?}: {e}"))
}

/// Directories cannot be opened for syncing here; the rename stands as is.
#[cfg(not(unix))]
fn sync_parent(_: &std::path::Path) -> Result<(), String> {
    Ok(())
}

/// The block size [`write_checkpoint`] hands the kernel. A 9.4 MB churn
/// checkpoint takes about 143 `write` calls at 64 KiB against 1,144 at the
/// default 8 KiB, and writing it cost 1.7–3.2 ms of CPU against 6.6–7.6
/// ms on a 2-core x86-64 host. 256 KiB saved about 0.4 ms more, under 1%
/// of a checkpointing run.
const CHECKPOINT_WRITE_BUF: usize = 64 * 1024;

/// Streams `cp` into a new file at `tmp` and fsyncs it: without the sync a
/// power loss can journal the rename ahead of the data blocks and leave a
/// zero-length file at the target (process crashes and full disks are
/// covered by the rename alone).
fn write_synced(cp: &Checkpoint, tmp: &std::path::Path) -> Result<(), String> {
    let f = std::fs::File::create(tmp).map_err(|e| format!("cannot create {tmp:?}: {e}"))?;
    let mut out = std::io::BufWriter::with_capacity(CHECKPOINT_WRITE_BUF, f);
    cp.write_json(&mut out).map_err(|e| format!("cannot write {tmp:?}: {e}"))?;
    // `into_inner` flushes and reports a failed flush; dropping the writer
    // would swallow it.
    let f = out.into_inner().map_err(|e| format!("cannot write {tmp:?}: {}", e.error()))?;
    f.sync_all().map_err(|e| format!("cannot sync {tmp:?}: {e}"))
}

/// A complete, self-contained experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry key (kebab-case) and display name.
    pub name: String,
    /// One-line description of what the scenario exercises.
    pub description: String,
    /// Network topology.
    pub topology: TopologySpec,
    /// Link attributes.
    pub links: LinkSpec,
    /// Initial load placement.
    pub workload: WorkloadSpec,
    /// Task dependency structure.
    pub task_graph: TaskGraphSpec,
    /// Resource pins.
    pub resources: ResourceSpec,
    /// Balancing policy.
    pub balancer: BalancerSpec,
    /// Dynamic arrivals.
    pub arrival: ArrivalSpec,
    /// Link up/down plan.
    pub faults: FaultPlanSpec,
    /// Node join/leave plan.
    pub churn: ChurnSpec,
    /// Node speed multipliers.
    pub speeds: SpeedSpec,
    /// Engine configuration.
    pub engine: EngineKnobs,
    /// Run length.
    pub duration: DurationSpec,
    /// Periodic checkpointing during the run (`None` = off).
    pub checkpoint: Option<CheckpointSpec>,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".to_string(),
            description: String::new(),
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            links: LinkSpec::default(),
            workload: WorkloadSpec::Empty,
            task_graph: TaskGraphSpec::None,
            resources: ResourceSpec::None,
            balancer: BalancerSpec::default(),
            arrival: ArrivalSpec::Quiescent,
            faults: FaultPlanSpec::default(),
            churn: ChurnSpec::None,
            speeds: SpeedSpec::Uniform,
            engine: EngineKnobs::default(),
            duration: DurationSpec::default(),
            checkpoint: None,
            seed: 42,
        }
    }
}

impl ScenarioSpec {
    /// Validates every component and their cross-references.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario needs a name".into());
        }
        let wrap = |part: &str, e: String| format!("scenario `{}`: {part}: {e}", self.name);
        self.topology.validate().map_err(|e| wrap("topology", e))?;
        let n = self.topology.node_count();
        self.links.validate().map_err(|e| wrap("links", e))?;
        self.workload.validate(n).map_err(|e| wrap("workload", e))?;
        self.task_graph.validate().map_err(|e| wrap("task_graph", e))?;
        self.resources.validate(n).map_err(|e| wrap("resources", e))?;
        self.balancer.validate().map_err(|e| wrap("balancer", e))?;
        self.arrival.validate(n).map_err(|e| wrap("arrival", e))?;
        self.faults.validate().map_err(|e| wrap("faults", e))?;
        self.churn.validate().map_err(|e| wrap("churn", e))?;
        self.speeds.validate().map_err(|e| wrap("speeds", e))?;
        self.engine.validate().map_err(|e| wrap("engine", e))?;
        if let Some(ck) = &self.checkpoint {
            ck.validate().map_err(|e| wrap("checkpoint", e))?;
        }
        self.validate_run(n).map_err(|e| wrap("run", e))
    }

    /// Bounds what the components only produce together, in closed form
    /// and before anything is allocated: the time horizon, the arrivals
    /// and churn steps over it, and the load's worst hop and slope.
    fn validate_run(&self, n: usize) -> Result<(), String> {
        let DurationSpec { rounds, drain } = self.duration;
        if !is_quantity(drain) {
            return Err(format!("drain {drain} must be finite and ≥ 0"));
        }
        let horizon = rounds as f64 * self.engine.tick + drain;
        if !horizon.is_finite() {
            return Err(format!("{rounds} rounds of tick {} overflow the clock", self.engine.tick));
        }
        let (arrivals, arrival_size) = self.arrival.bounds(horizon);
        if arrivals > MAX_ARRIVALS as f64 {
            return Err(format!(
                "{arrivals:e} expected arrivals over t={horizon} exceed the cap of {MAX_ARRIVALS}"
            ));
        }
        if let ChurnSpec::Markov { .. } = self.churn {
            if (n as u64).checked_mul(rounds).is_none_or(|steps| steps > MAX_CHURN_STEPS) {
                return Err(format!(
                    "churn over {n} nodes × {rounds} rounds exceeds the cap of {MAX_CHURN_STEPS} \
                     node-rounds"
                ));
            }
        }
        // Every task, and so every hop's size and every height difference,
        // is at most the whole load.
        let load = self.workload.bounds(n).1 + arrivals * arrival_size;
        if !(load * load).is_finite() {
            return Err(format!("total load {load:e} is too large to measure"));
        }
        let ((bw_min, bw_max), (d_min, d_max)) = self.links.ranges();
        let slowest_hop = (d_max + load / bw_min) * f64::from(self.engine.max_attempts);
        if !(horizon + slowest_hop).is_finite() {
            return Err(format!("a hop of load {load:e} would land at a non-finite time"));
        }
        // The steepest slope, twice the load over the lightest link weight
        // `d/bw` (faults only add weight), with room for the arbiter's
        // spread between two such slopes.
        if !(4.0 * load / (d_min / bw_max)).is_finite() {
            return Err(format!(
                "link weight {:e} is too light for load {load:e}: slopes would overflow",
                d_min / bw_max
            ));
        }
        Ok(())
    }

    /// Builds a ready-to-run engine from the spec (validating first).
    pub fn build_engine(&self) -> Result<Engine, String> {
        self.validate()?;
        let topo = self.topology.build();
        let n = topo.node_count();
        let links = self.links.build(&topo);
        let workload = self.workload.build(n);
        let (arrival, trace) = self.arrival.build();
        let config = EngineConfig {
            tick: self.engine.tick,
            weight_c: self.engine.weight_c,
            consume_rate: self.engine.consume_rate,
            max_attempts: self.engine.max_attempts,
            shards: self.engine.shards,
            threads: self.engine.threads,
            fault_model: self.faults.build(),
            arrival,
        };
        let balancer = self.balancer.build(&topo);
        Ok(EngineBuilder::new(topo)
            .links(links)
            .workload(workload)
            .task_graph(self.task_graph.build())
            .resources(self.resources.build())
            .balancer_boxed(balancer)
            .config(config)
            .node_speeds(self.speeds.build(n))
            .arrival_trace(trace)
            .churn(self.churn.build(n, self.duration.rounds))
            .seed(self.seed)
            .build())
    }

    /// Runs the scenario to completion: `duration.rounds` balance rounds
    /// followed by a `duration.drain` network drain. With the `checkpoint`
    /// knob set, a checkpoint is written every `every` rounds (and once
    /// more after the final round) — capture is read-only, so the returned
    /// report is identical to an uncheckpointed run.
    pub fn run(&self) -> Result<RunReport, String> {
        let mut engine = self.build_engine()?;
        self.finish_engine(&mut engine)?;
        Ok(engine.report())
    }

    /// Resumes the scenario from a [`Checkpoint`] taken by a previous run
    /// of the *same* spec: builds a fresh engine, restores the snapshot,
    /// runs the remaining `duration.rounds − checkpoint.round` rounds and
    /// the drain. The result is byte-identical to the uninterrupted run.
    /// With the `checkpoint` knob set, the resumed run keeps writing
    /// checkpoints, so a twice-interrupted run resumes twice.
    pub fn run_from_checkpoint(&self, cp: &Checkpoint) -> Result<RunReport, String> {
        let mut engine = self.build_engine()?;
        engine.restore(cp)?;
        self.finish_engine(&mut engine)?;
        Ok(engine.report())
    }

    /// Drives an already-built (possibly just-restored) engine from its
    /// current round to the spec's full duration and drains it, honoring
    /// the `checkpoint` knob. The single implementation of the
    /// interval-write loop — `run`, `run_from_checkpoint` and `pp-lab`'s
    /// checkpoint/resume paths all funnel through here, so the CLI and
    /// library can never checkpoint differently.
    pub fn finish_engine(&self, engine: &mut Engine) -> Result<(), String> {
        match &self.checkpoint {
            None => {
                engine.run_rounds(self.duration.rounds.saturating_sub(engine.round()));
            }
            Some(ck) => {
                while engine.round() < self.duration.rounds {
                    let chunk = ck.every.min(self.duration.rounds - engine.round());
                    engine.run_rounds(chunk);
                    write_checkpoint(&engine.checkpoint(), &ck.path)?;
                }
            }
        }
        engine.drain(self.duration.drain);
        Ok(())
    }

    /// A copy scaled down for CI smoke runs: at most `rounds` rounds and
    /// `drain` drain time, everything else untouched.
    pub fn smoke(&self, rounds: u64, drain: f64) -> ScenarioSpec {
        let mut s = self.clone();
        s.duration.rounds = s.duration.rounds.min(rounds);
        s.duration.drain = s.duration.drain.min(drain);
        s
    }

    /// Reads a checkpoint file written by a run of this spec (see
    /// [`CheckpointSpec`] and `pp-lab --resume-from`).
    pub fn read_checkpoint(path: &str) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Checkpoint::from_json(&text)
    }

    /// One-line summary for `pp-lab --list`.
    pub fn summary(&self) -> String {
        format!(
            "{:28} {:14} workload={:14} arrival={:14} n={:5} rounds={}",
            self.name,
            self.topology.label(),
            self.workload.label(),
            self.arrival.label(),
            self.topology.node_count(),
            self.duration.rounds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Matrix};
    use crate::registry;
    use crate::report::GoldenReport;
    use serde::Value;

    /// A small full-event-mix spec (faults + diurnal arrivals + speeds) for
    /// the checkpoint tests.
    fn busy_spec() -> ScenarioSpec {
        let mut s = registry::by_name("diurnal-wave").expect("registered").smoke(8, 20.0);
        s.faults = FaultPlanSpec { model: Some((0.05, 0.5)) };
        s.speeds = SpeedSpec::TwoTier { fast_fraction: 0.25, fast: 2.0, slow: 0.75, seed: 4 };
        s
    }

    #[test]
    fn split_runs_match_straight_runs() {
        // Splits at 1, 4 and 8 of 8 rounds, each half resumed under the
        // next layout (K = 1 → 3 → 5 → 1, 1 and 2 threads), so splits cross
        // from K = 1 to K ≥ 2 and back.
        let m = Matrix {
            layouts: vec![(1, 1), (3, 1), (5, 2)],
            splits: vec![Some(1), Some(4), Some(8)],
        };
        assert_eq!(differential::check(&busy_spec(), &m), Ok(9));
    }

    #[test]
    fn retired_parallel_decide_key_is_ignored() {
        // Spec files written while the `parallel_decide` alias, the
        // `strategy` knob or the `repartition` knob existed still parse, to
        // the same spec and the same report bytes (at K = 1 and at K ≥ 2).
        let bytes = |s: &ScenarioSpec| {
            let report = s.run().expect("runs");
            GoldenReport::from_run(&s.name, s.seed, s.topology.node_count(), &report)
                .to_canonical_json()
        };
        let mut sharded = busy_spec();
        sharded.engine.shards = 3;
        for spec in [busy_spec(), sharded] {
            let text = spec.to_json_pretty();
            let want = bytes(&spec);
            for key in [
                "\"parallel_decide\": true",
                "\"strategy\": \"tick\"",
                "\"strategy\": \"event\"",
                "\"repartition\": {\"every\": 8, \"skew_threshold\": 2.0}",
            ] {
                let name = key.split(':').next().unwrap();
                assert!(!text.contains(name));
                let legacy = text.replace("\"shards\":", &format!("{key},\n    \"shards\":"));
                assert!(legacy.contains(key));
                let parsed = ScenarioSpec::from_json(&legacy).expect("the retired key is ignored");
                assert_eq!(parsed, spec, "{key}");
                assert_eq!(bytes(&parsed), want, "{key}");
            }
        }
    }

    #[test]
    fn checkpoint_knob_writes_resumable_files_without_changing_the_run() {
        let path = std::env::temp_dir()
            .join(format!("pp-spec-knob-{}.ckpt.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut spec = busy_spec();
        spec.checkpoint = Some(CheckpointSpec { every: 3, path: path.clone() });
        let checkpointed = spec.run().expect("checkpointed run");
        spec.checkpoint = None;
        let plain = spec.run().expect("plain run");
        assert_eq!(checkpointed, plain, "checkpoint capture must be read-only");
        // The last written checkpoint sits at the final round; resuming
        // from it re-runs only the drain and lands on the same report.
        let cp = ScenarioSpec::read_checkpoint(&path).expect("file parses");
        assert_eq!(cp.round, spec.duration.rounds);
        // The streamed file holds exactly the canonical rendering, and the
        // atomic-rename sibling is gone.
        assert_eq!(std::fs::read_to_string(&path).expect("file reads"), cp.to_json());
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let resumed = spec.run_from_checkpoint(&cp).expect("resume");
        assert_eq!(resumed, plain);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_checkpoint_failures_return_err_and_leave_no_tmp() {
        let mut engine = busy_spec().build_engine().expect("engine");
        engine.run_rounds(2);
        let cp = engine.checkpoint();
        let dir = std::env::temp_dir().join(format!("pp-spec-unwritable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // A directory as the target: the `.tmp` sibling is written and
        // synced, then the rename over the directory fails.
        let target = dir.to_string_lossy().into_owned();
        assert!(write_checkpoint(&cp, &target).is_err());
        assert!(!std::path::Path::new(&format!("{target}.tmp")).exists());
        // A regular file where a parent directory must go: creation fails.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"x").expect("blocker file");
        let nested = blocker.join("ckpt.json").to_string_lossy().into_owned();
        assert!(write_checkpoint(&cp, &nested).is_err());
        // A writable target succeeds with the canonical bytes.
        let ok = dir.join("ok.ckpt.json").to_string_lossy().into_owned();
        write_checkpoint(&cp, &ok).expect("writable target");
        assert_eq!(std::fs::read_to_string(&ok).expect("reads"), cp.to_json());
        assert!(!std::path::Path::new(&format!("{ok}.tmp")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_mid_run_checkpoint_file() {
        let path = std::env::temp_dir()
            .join(format!("pp-spec-mid-{}.ckpt.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        // Write checkpoints every 3 rounds but only run 6 of the 8: emulate
        // an interrupted run by truncating the duration for the first pass.
        let mut first = busy_spec();
        first.duration.rounds = 6;
        first.checkpoint = Some(CheckpointSpec { every: 3, path: path.clone() });
        let _ = first.run().expect("interrupted run");
        let cp = ScenarioSpec::read_checkpoint(&path).expect("file parses");
        assert_eq!(cp.round, 6);
        // Resume under the full spec: must equal the uninterrupted run.
        let full = busy_spec();
        let resumed = full.run_from_checkpoint(&cp).expect("resume");
        assert_eq!(resumed, full.run().expect("straight"));
        let _ = std::fs::remove_file(&path);
    }

    /// `text` with the value at the object-key `path` replaced by `null`.
    fn null_at(text: &str, path: &[&str]) -> String {
        let mut doc = serde_json::from_str(text).expect("spec JSON parses");
        let mut at = &mut doc;
        for key in path {
            let Value::Object(entries) = at else { panic!("{path:?}: not an object") };
            at = &mut entries.iter_mut().find(|(k, _)| k == key).expect("key present").1;
        }
        *at = Value::Null;
        serde_json::to_string_pretty(&doc).expect("renders")
    }

    #[test]
    fn explicit_null_is_refused_where_the_writer_never_writes_one() {
        let text =
            registry::by_name("torus1k-resume-midfault").expect("registered").to_json_pretty();
        // A top-level `"seed": null` once ran on the default seed, 42.
        let err = ScenarioSpec::from_json(&null_at(&text, &["seed"])).unwrap_err();
        assert!(err.contains("field `seed`: null"), "{err}");
        for path in [
            &["engine"][..],
            &["links"],
            &["faults"],
            &["engine", "shards"],
            &["duration", "rounds"],
            &["balancer", "config"],
            &["balancer", "config", "g"],
        ] {
            let err = ScenarioSpec::from_json(&null_at(&text, path)).unwrap_err();
            assert!(err.contains(&format!("field `{}`: null", path[path.len() - 1])), "{err}");
        }
        // `lab --spec` writes these as `null` when unset; they still parse.
        for path in [
            &["balancer", "arbiter"][..],
            &["balancer", "name"],
            &["balancer", "config", "jitter"],
            &["faults", "model"],
        ] {
            assert!(ScenarioSpec::from_json(&null_at(&text, path)).is_ok(), "{path:?}");
        }
    }

    #[test]
    fn churn_knob_round_trips_and_stays_canonical() {
        // The static-membership default must be *omitted*: every spec
        // written before the churn knob existed stays canonical.
        let spec = busy_spec();
        assert_eq!(spec.churn, ChurnSpec::None);
        let text = spec.to_json_pretty();
        assert!(!text.contains("churn"), "default churn must be omitted");
        assert_eq!(ScenarioSpec::from_json(&text).expect("parses"), spec);

        let mut churned = spec;
        churned.churn = ChurnSpec::Markov { leave: 0.02, join: 0.3, seed: 7 };
        let text = churned.to_json_pretty();
        assert!(text.contains("\"churn\""), "got: {text}");
        let back = ScenarioSpec::from_json(&text).expect("parses");
        assert_eq!(back, churned);
        assert_eq!(back.to_json_pretty(), text, "re-serialization is stable");

        // Out-of-range probabilities fail validation with a churn-scoped
        // message, and the unknown-kind path rejects.
        churned.churn = ChurnSpec::Markov { leave: 1.5, join: 0.3, seed: 7 };
        assert!(churned.validate().unwrap_err().contains("churn"));
        let bad = text.replace("\"markov\"", "\"flapping\"");
        assert!(ScenarioSpec::from_json(&bad).unwrap_err().contains("unknown churn kind"));
    }

    #[test]
    fn smoke_caps_rounds_and_drain() {
        let mut spec = busy_spec();
        spec.duration.rounds = 5000;
        spec.duration.drain = 100.0;
        let small = spec.smoke(3, 10.0);
        assert_eq!((small.duration.rounds, small.duration.drain), (3, 10.0));
        // Shorter horizons stay as they are.
        let small = spec.smoke(8000, 200.0);
        assert_eq!((small.duration.rounds, small.duration.drain), (5000, 100.0));
    }

    #[test]
    fn checkpoint_spec_validation() {
        let mut spec = busy_spec();
        spec.checkpoint = Some(CheckpointSpec { every: 0, path: "x.json".into() });
        assert!(spec.validate().unwrap_err().contains("interval"));
        spec.checkpoint = Some(CheckpointSpec { every: 5, path: String::new() });
        assert!(spec.validate().unwrap_err().contains("path"));
        spec.checkpoint = Some(CheckpointSpec { every: 5, path: "x.json".into() });
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn run_bounds_reject_what_would_overflow_hang_or_exhaust_memory() {
        // 64 nodes, 8 rounds of tick 1 plus a drain of 2: horizon 10.
        let base = ScenarioSpec {
            name: "bounds".into(),
            workload: WorkloadSpec::Hotspot { node: 0, total: 64.0, task_size: 1.0 },
            duration: DurationSpec { rounds: 8, drain: 2.0 },
            ..ScenarioSpec::default()
        };
        let with = |edit: &Edit<'_>| {
            let mut s = base.clone();
            edit(&mut s);
            s.validate()
        };
        let poisson = |rate| ArrivalSpec::Poisson { rate, size_min: 1.0, size_max: 2.0 };
        let uniform =
            |bandwidth, distance| LinkSpec::Uniform { bandwidth, distance, fault_prob: 0.0 };
        let churn = ChurnSpec::Markov { leave: 0.1, join: 0.5, seed: 3 };
        let cap = MAX_INITIAL_TASKS as u64;
        type Edit<'a> = dyn Fn(&mut ScenarioSpec) + 'a;
        let rejected: [(&Edit<'_>, &str); 9] = [
            (&|s| s.engine.tick = 1e308, "overflow the clock"),
            (&|s| s.duration.drain = -1.0, "drain"),
            (&|s| s.arrival = poisson(MAX_ARRIVALS as f64 / 10.0 * 1.01), "expected arrivals"),
            (&|s| s.task_graph = TaskGraphSpec::Chain { count: cap + 1, weight: 1.0 }, "chain"),
            (
                &|s| {
                    s.resources = ResourceSpec::PinFirst { count: cap + 1, node: 0, strength: 1.0 }
                },
                "pinned",
            ),
            (
                &|s| {
                    s.churn = churn;
                    s.duration.rounds = MAX_CHURN_STEPS / 64 + 1;
                },
                "churn",
            ),
            (&|s| s.links = uniform(1e308, 1.0), "too light"),
            (&|s| s.links = uniform(1e-307, 1.0), "non-finite time"),
            (
                &|s| {
                    s.arrival = ArrivalSpec::Bursty {
                        rate: 1.0,
                        burst_len: 1.0,
                        quiet_len: 0.0,
                        size: 1e200,
                    }
                },
                "too large",
            ),
        ];
        for (edit, want) in rejected {
            let err = with(edit).expect_err(want);
            assert!(err.contains(want), "expected `{want}`, got: {err}");
        }
        // At each cap, and over a link fast but not too light, the spec is
        // valid.
        let accepted: [&Edit<'_>; 5] = [
            &|s| s.arrival = poisson(MAX_ARRIVALS as f64 / 10.0),
            &|s| s.task_graph = TaskGraphSpec::Chain { count: cap, weight: 1.0 },
            &|s| s.resources = ResourceSpec::PinFirst { count: cap, node: 0, strength: 1.0 },
            &|s| {
                s.churn = churn;
                s.duration.rounds = MAX_CHURN_STEPS / 64;
            },
            &|s| s.links = uniform(1e300, 1.0),
        ];
        for edit in accepted {
            assert_eq!(with(edit), Ok(()));
        }
    }

    #[test]
    fn checkpoint_directory_sync_accepts_a_bare_file_name() {
        // A path with no directory part lives in the working directory.
        assert_eq!(sync_parent(std::path::Path::new("no-such-checkpoint.json")), Ok(()));
        assert!(sync_parent(std::path::Path::new("/no/such/dir/ckpt.json")).is_err());
    }

    /// Every copy of `v` with one numeric leaf replaced by `huge`, labelled
    /// by its path; `kind` tags and seeds (any `u64` is a valid seed) are
    /// left alone.
    fn numeric_mutants(v: &serde::Value, huge: &serde::Value) -> Vec<(String, serde::Value)> {
        use serde::Value;
        match v {
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => vec![(String::new(), huge.clone())],
            Value::Array(items) => (0..items.len())
                .flat_map(|i| {
                    numeric_mutants(&items[i], huge).into_iter().map(move |(path, m)| {
                        let mut copy = items.clone();
                        copy[i] = m;
                        (format!("[{i}]{path}"), Value::Array(copy))
                    })
                })
                .collect(),
            Value::Object(fields) => (0..fields.len())
                .filter(|&i| fields[i].0 != "kind" && fields[i].0 != "seed")
                .flat_map(|i| {
                    numeric_mutants(&fields[i].1, huge).into_iter().map(move |(path, m)| {
                        let mut copy = fields.clone();
                        copy[i].1 = m;
                        (format!(".{}{path}", fields[i].0), Value::Object(copy))
                    })
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn oversized_workload_and_topology_fields_are_rejected_never_panic() {
        use serde::{Serialize, Value};
        let workloads = [
            WorkloadSpec::Hotspot { node: 0, total: 8.0, task_size: 1.0 },
            WorkloadSpec::MultiHotspot { nodes: vec![0, 5], total: 8.0 },
            WorkloadSpec::UniformRandom { max_per_node: 4.0, seed: 1 },
            WorkloadSpec::Bimodal { fraction: 0.25, high: 6.0, low: 1.0, seed: 1 },
            WorkloadSpec::Ramp { step: 0.5 },
            WorkloadSpec::Zipf { count: 20, base: 4.0, skew: 1.0, seed: 1 },
            WorkloadSpec::Loads { loads: vec![1.0; 16], task_size: 1.0 },
            WorkloadSpec::Trace { records: vec![(0, 1.0), (3, 2.0)] },
        ];
        let topologies = [
            TopologySpec::Mesh { dims: vec![4, 4] },
            TopologySpec::Torus { dims: vec![4, 4] },
            TopologySpec::Hypercube { dim: 4 },
            TopologySpec::Ring { n: 16 },
            TopologySpec::Star { n: 16 },
            TopologySpec::Complete { n: 16 },
            TopologySpec::Tree { arity: 2, depth: 3 },
            TopologySpec::Random { n: 16, p: 0.2, seed: 1 },
            TopologySpec::ScaleFree { n: 16, m: 2, seed: 1 },
            TopologySpec::Geometric { n: 16, radius: 0.4, seed: 1 },
        ];
        // Values that are simply a coarse granularity, one big task or a
        // radius past the unit square: the spec is valid, and it must build
        // and run.
        let legitimate = [
            ("geometric", ".radius"),
            ("hotspot", ".task_size"),
            ("loads", ".task_size"),
            ("zipf", ".base=4294967296"),
            ("trace", ".records[0][1]=4294967296"),
            ("trace", ".records[1][1]=4294967296"),
        ];
        let base = |topology: TopologySpec, workload: WorkloadSpec| {
            let mut spec = ScenarioSpec {
                name: "oversized".into(),
                topology,
                workload,
                ..ScenarioSpec::default()
            };
            spec.duration = DurationSpec { rounds: 3, drain: 1.0 };
            assert!(spec.validate().is_ok(), "{spec:?}");
            spec.to_value()
        };
        let set = |spec: &Value, key: &str, part: Value| match spec {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), if k == key { part.clone() } else { v.clone() }))
                    .collect(),
            ),
            _ => unreachable!("a spec renders as an object"),
        };
        let mut checked = 0;
        for huge in [Value::Float(1e308), Value::UInt(4_294_967_296)] {
            let cases = workloads
                .iter()
                .map(|w| ("workload", base(TopologySpec::Torus { dims: vec![4, 4] }, w.clone())))
                .chain(
                    topologies.iter().map(|t| ("topology", base(t.clone(), workloads[0].clone()))),
                );
            for (key, spec) in cases {
                let part = spec.get(key).expect("rendered part").clone();
                let kind = match part.get("kind") {
                    Some(Value::Str(k)) => k.clone(),
                    _ => unreachable!("tagged"),
                };
                for (path, mutated) in numeric_mutants(&part, &huge) {
                    let text = serde_json::to_string(&set(&spec, key, mutated)).expect("renders");
                    let label =
                        format!("{key} {kind}{path}={}", serde_json::to_string(&huge).unwrap());
                    let result =
                        ScenarioSpec::from_json(&text).and_then(|s| s.validate().map(|()| s));
                    checked += 1;
                    let ok = legitimate
                        .iter()
                        .any(|&(k, p)| k == kind && label.contains(&format!("{k}{p}")));
                    match result {
                        Err(_) if !ok => {}
                        Ok(spec) if ok => {
                            spec.run().unwrap_or_else(|e| panic!("{label}: {e}"));
                        }
                        other => panic!(
                            "{label}: expected {}, got {other:?}",
                            if ok { "a valid spec" } else { "Err" }
                        ),
                    }
                }
            }
        }
        assert!(checked > 40, "only {checked} mutations");
    }
}
