//! # pp-topology — interconnection networks for the particle & plane model
//!
//! §4.1 of the paper maps the multiprocessor's interconnection network
//! `G(V, E)` onto the ground plane (the `M₂` embedding) and carries per-link
//! bandwidth/distance/fault matrices (`BW`, `D`, `F`, §4.2) from which the
//! link weight `e_{i,j}` is derived. This crate provides:
//!
//! * [`graph::Topology`] — the network graph with the standard families
//!   (mesh, torus, hypercube, ring, star, tree, complete, random);
//! * [`embedding::embed`] — the `M₂` ground-plane embedding;
//! * [`links::LinkMap`] — the attribute matrices as one edge-indexed table,
//!   and the `e_{i,j}` weight;
//! * [`partition::Partition`] — deterministic contiguous sharding with
//!   interior/boundary classification and halo maps, the domain
//!   decomposition under `pp-sim`'s sharded tick pipeline;
//! * [`spectral`] — Laplacian eigenvalue estimation for the optimal
//!   diffusion parameter of the Xu–Lau baseline;
//! * [`coloring::EdgeColoring`] — matchings for dimension exchange.
//!
//! ```
//! use pp_topology::prelude::*;
//!
//! let topo = Topology::torus(&[4, 4]);
//! assert_eq!(topo.node_count(), 16);
//! let links = LinkMap::uniform(&topo, LinkAttrs::default());
//! // Link tables are indexed by edge id; a node pair resolves to its id.
//! let e = topo.edge_index(NodeId(0), NodeId(1)).unwrap();
//! assert!((links.get(e).weight(1.0) - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod edgeset;
pub mod embedding;
pub mod generators;
pub mod graph;
pub mod links;
pub mod partition;
pub mod paths;
pub mod spec;
pub mod spectral;

/// One-stop imports.
pub mod prelude {
    pub use crate::coloring::EdgeColoring;
    pub use crate::edgeset::EdgeBitSet;
    pub use crate::embedding::{embed, Point2};
    pub use crate::graph::{EdgeId, NodeId, Topology, TopologyKind};
    pub use crate::links::{LinkAttrs, LinkMap};
    pub use crate::partition::{HaloEdge, Partition};
    pub use crate::paths::{dijkstra, mean_path_weight, reachable_within, weighted_diameter};
    pub use crate::spec::TopologySpec;
    pub use crate::spectral::{optimal_diffusion_alpha, safe_diffusion_alpha};
}
