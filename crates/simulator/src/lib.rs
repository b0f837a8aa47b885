//! # pp-sim — the discrete-event multiprocessor simulator
//!
//! Every experiment in this reproduction runs on this substrate: a network
//! of processing nodes ([`state::SystemState`]) whose loads are rearranged
//! by a pluggable [`balancer::LoadBalancer`] policy, driven by the
//! [`engine::Engine`] event loop. The engine models what the paper says
//! real systems have and prior work ignored (§1, §4.2): per-link bandwidth,
//! distance and fault probability; task dependency and resource matrices;
//! dynamic task arrival and completion; and multi-hop in-motion migration.
//!
//! [`parallel::par_map`] fans independent simulations out over threads for
//! parameter sweeps.

// `deny` rather than `forbid`: the shard pool (`pool`) contains two
// documented lifetime/aliasing erasures behind a module-level `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod checkpoint;
pub mod churn;
pub mod engine;
pub mod events;
pub mod parallel;
pub mod pool;
pub mod state;
pub mod strategy;

/// One-stop imports.
pub mod prelude {
    pub use crate::balancer::{
        build_view, GlobalView, LinkView, LoadBalancer, MigratingLoad, MigrationIntent, NodeView,
        NullBalancer, ViewScratch,
    };
    pub use crate::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
    pub use crate::churn::{ChurnEvent, ChurnPlan};
    pub use crate::engine::{
        Engine, EngineBuilder, EngineConfig, FaultModel, RepartitionConfig, RunReport, ShardLayout,
    };
    pub use crate::parallel::par_map;
    pub use crate::pool::ShardPool;
    pub use crate::state::{NodeState, SystemState};
    pub use crate::strategy::{SimulationStrategy, WakeHeap};
}
