//! # pp-scenario — declarative experiment scenarios
//!
//! The ROADMAP's "as many scenarios as you can imagine" demands that an
//! experiment setup be *data*, not wiring: one [`spec::ScenarioSpec`]
//! names a topology, link attributes, initial workload, task affinities,
//! balancing policy, arrival process (Poisson, bursty ON/OFF, diurnal
//! sine-wave, adversarial moving hotspot, recorded-trace replay), fault
//! plan, node speeds, engine knobs and duration. Specs validate, build
//! engines, run to [`pp_sim::engine::RunReport`]s, and round-trip through
//! JSON via the vendored `serde`/`serde_json`, so the same scenario is
//! runnable from the `pp-lab` CLI, unit tests, Criterion benches and CI.
//!
//! * [`spec`] — the schema and the engine construction;
//! * [`registry`] — named, validated scenarios (`pp-lab --list`);
//! * [`report::GoldenReport`] — deterministic byte-stable run reports,
//!   used by the CI scenario matrix and the committed `golden/` files;
//! * [`differential`] — the one invariance harness (`pp-lab --verify`):
//!   report bytes must not depend on the `(shards, threads)` layout
//!   (and with it on skipping), resume split or repartitioning;
//! * [`stats`] — the statistical comparison harness (`pp-lab stats`):
//!   scenario sets × balancer panel × seeds, reduced to Student-t CIs
//!   and pairwise Welch verdicts in a byte-stable [`stats::StatsReport`].
//!
//! ```
//! use pp_scenario::registry;
//!
//! let spec = registry::by_name("hotspot-torus").unwrap().smoke(5, 20.0);
//! let report = spec.run().unwrap();
//! assert_eq!(report.rounds, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod json;
pub mod registry;
pub mod report;
pub mod spec;
pub mod stats;

/// One-stop imports.
pub mod prelude {
    pub use crate::registry::{by_name, names, registry};
    pub use crate::report::GoldenReport;
    pub use crate::spec::{
        ArrivalSpec, BalancerSpec, ChurnSpec, DiffusionAlpha, DurationSpec, EngineKnobs,
        FaultPlanSpec, LinkSpec, ResourceSpec, ScenarioSpec, SpeedSpec, TaskGraphSpec,
        WorkloadSpec,
    };
    pub use crate::stats::{run_stats, StatsReport};
}
