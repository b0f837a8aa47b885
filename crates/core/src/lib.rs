//! # pp-core — the particle & plane load balancer
//!
//! The primary contribution of Imani & Sarbazi-Azad (IPPS 2006), built on
//! the `pp-sim` substrate:
//!
//! * [`params`] — §4.2's dictionary from load-balancing primitives to the
//!   physical constants (`µ_s`, `µ_k`, `tan β`, `e_{i,j}`);
//! * [`energy`] — §5.1's potential-height flag `h*` and per-hop heat `E_h`;
//! * [`feasibility`] — Eq. 1's movement criterion and the in-motion energy
//!   rule (Theorem 1 with `r = e_{i,j}`);
//! * [`arbiter`] — §5.2's annealed stochastic link chooser;
//! * [`balancer::ParticlePlaneBalancer`] — the algorithm itself;
//! * [`baselines`] — diffusion, dimension exchange, GM, CWN, random and
//!   sender-initiated threshold policies for the comparison experiments.
//!
//! ```
//! use pp_core::prelude::*;
//! use pp_sim::prelude::*;
//! use pp_tasking::prelude::*;
//! use pp_topology::prelude::*;
//!
//! let topo = Topology::torus(&[4, 4]);
//! let w = Workload::hotspot(16, 0, 32.0);
//! let mut engine = EngineBuilder::new(topo)
//!     .workload(w)
//!     .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
//!     .seed(7)
//!     .build();
//! engine.run_rounds(50).drain(50.0);
//! let report = engine.report();
//! assert!(report.final_imbalance.cov < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod balancer;
pub mod baselines;
pub mod energy;
pub mod feasibility;
pub mod jitter;
pub mod params;

/// One-stop imports.
pub mod prelude {
    pub use crate::arbiter::Arbiter;
    pub use crate::balancer::ParticlePlaneBalancer;
    pub use crate::baselines::{
        CwnBalancer, DiffusionBalancer, DimensionExchangeBalancer, GradientModelBalancer,
        RandomNeighborBalancer, SenderInitiatedBalancer,
    };
    pub use crate::energy::{can_climb, flag_decrement, hop_heat, updated_flag};
    pub use crate::feasibility::{max_hops_bound, movement_threshold};
    pub use crate::jitter::FrictionJitter;
    pub use crate::params::{gradient, kinetic_friction, static_friction, PhysicsConfig};
}
