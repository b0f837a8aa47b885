//! Constructors for the standard multiprocessor interconnection topologies
//! the load-balancing literature evaluates on (mesh, torus, hypercube, …).

use crate::graph::{Topology, TopologyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl Topology {
    /// k-ary n-dimensional mesh: nodes at integer coordinates, links between
    /// coordinate neighbours, no wraparound. `dims` gives the extent per
    /// dimension, e.g. `&[8, 8]` for an 8×8 mesh.
    pub fn mesh(dims: &[usize]) -> Topology {
        Self::grid(dims, false, TopologyKind::Mesh(dims.to_vec()))
    }

    /// k-ary n-dimensional torus: a mesh with wraparound links.
    pub fn torus(dims: &[usize]) -> Topology {
        Self::grid(dims, true, TopologyKind::Torus(dims.to_vec()))
    }

    /// Emits each undirected grid link once by stride arithmetic. In
    /// row-major order an axis with stride `s` and extent `k` cuts the
    /// nodes into blocks of `s·k`; inside a block it links `u` to `u + s`,
    /// and with `wrap` the block's first `s` nodes to its last `s` (an
    /// extent-2 wraparound would duplicate the mesh link, so it only
    /// exists from extent 3).
    fn grid(dims: &[usize], wrap: bool, kind: TopologyKind) -> Topology {
        assert!(!dims.is_empty(), "need at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "dimensions must be ≥ 1");
        let n: usize = dims.iter().product();
        let mut edges = Vec::with_capacity(n * dims.len());
        let mut stride = 1;
        for &extent in dims.iter().rev() {
            let block = stride * extent;
            // Coordinate `k - 1` of a block starts `span` nodes after its
            // coordinate 0.
            let span = block - stride;
            for base in (0..n).step_by(block) {
                edges.extend((base..base + span).map(|u| (u as u32, (u + stride) as u32)));
                if wrap && extent > 2 {
                    edges.extend((base..base + stride).map(|u| (u as u32, (u + span) as u32)));
                }
            }
            stride = block;
        }
        Topology::build(kind, n, &edges)
    }

    /// n-dimensional hypercube with `2^dim` nodes; node `u` links to `u ^ (1<<b)`.
    pub fn hypercube(dim: usize) -> Topology {
        assert!(dim <= 20, "hypercube dimension unreasonably large");
        let n = 1u32 << dim;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| {
                (0..dim).filter(move |&b| u & (1 << b) == 0).map(move |b| (u, u | 1 << b))
            })
            .collect();
        Topology::build(TopologyKind::Hypercube(dim), n as usize, &edges)
    }

    /// Simple cycle of `n ≥ 3` nodes.
    pub fn ring(n: usize) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Topology::build(TopologyKind::Ring, n, &edges)
    }

    /// Star: node 0 is the hub, all others are leaves.
    pub fn star(n: usize) -> Topology {
        assert!(n >= 2, "a star needs at least 2 nodes");
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        Topology::build(TopologyKind::Star, n, &edges)
    }

    /// Complete graph on `n` nodes.
    pub fn complete(n: usize) -> Topology {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        Topology::build(TopologyKind::Complete, n, &edges)
    }

    /// Balanced tree: root 0, each internal node has `arity` children, down
    /// to the given `depth` (depth 0 = a single root).
    pub fn tree(arity: usize, depth: usize) -> Topology {
        assert!(arity >= 1, "arity must be ≥ 1");
        let mut edges = Vec::new();
        let mut level: Vec<u32> = vec![0];
        let mut next_id = 1u32;
        for _ in 0..depth {
            let mut next_level = Vec::new();
            for &parent in &level {
                for _ in 0..arity {
                    edges.push((parent, next_id));
                    next_level.push(next_id);
                    next_id += 1;
                }
            }
            level = next_level;
        }
        Topology::build(TopologyKind::Tree(arity), next_id as usize, &edges)
    }

    /// Connected random graph: a random spanning tree (guaranteeing
    /// connectivity) plus each remaining pair linked with probability `p`.
    /// Deterministic for a given `seed`.
    pub fn random(n: usize, p: f64, seed: u64) -> Topology {
        assert!(n >= 2, "need at least 2 nodes");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        // Random spanning tree: attach each node to a random earlier node.
        for v in 1..n as u32 {
            let u = rng.gen_range(0..v);
            edges.push((u, v));
        }
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        Topology::build(TopologyKind::Random, n, &edges)
    }

    /// Barabási–Albert preferential-attachment scale-free graph: a
    /// complete seed clique on `m + 1` nodes, then each new node attaches
    /// to `m` distinct existing nodes chosen degree-proportionally (by
    /// uniform sampling from the running edge-endpoint list, the classic
    /// BA construction). Connected by construction and deterministic for
    /// a given `seed`.
    pub fn scale_free(n: usize, m: usize, seed: u64) -> Topology {
        assert!(m >= 1, "attachment count m must be ≥ 1");
        assert!(n > m, "need more than m nodes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        // Every edge contributes both endpoints; sampling uniformly from
        // this list is sampling nodes with probability ∝ degree.
        let mut endpoints: Vec<u32> = Vec::new();
        let m0 = m + 1;
        for u in 0..m0.min(n) as u32 {
            for v in (u + 1)..m0.min(n) as u32 {
                edges.push((u, v));
                endpoints.push(u);
                endpoints.push(v);
            }
        }
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        for v in m0 as u32..n as u32 {
            targets.clear();
            while targets.len() < m {
                let u = endpoints[rng.gen_range(0..endpoints.len())];
                if !targets.contains(&u) {
                    targets.push(u);
                }
            }
            for &u in targets.iter() {
                edges.push((u, v));
                endpoints.push(u);
                endpoints.push(v);
            }
        }
        Topology::build(TopologyKind::ScaleFree(m), n, &edges)
    }

    /// Random geometric graph: `n` seeded points uniform in the unit
    /// square, every pair within Euclidean distance `radius` linked, then
    /// deterministically augmented to connectivity (while more than one
    /// component remains, the globally closest inter-component node pair
    /// — ties broken by node id — gains an edge). Deterministic for a
    /// given `seed` and always connected.
    pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Topology {
        assert!(n >= 2, "need at least 2 nodes");
        assert!(radius > 0.0 && radius.is_finite(), "radius must be finite and > 0");
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> =
            (0..n).map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))).collect();
        let d2 = |u: usize, v: usize| {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            dx * dx + dy * dy
        };
        let r2 = radius * radius;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if d2(u, v) <= r2 {
                    edges.push((u as u32, v as u32));
                }
            }
        }
        // Union-find over the radius edges, then stitch components
        // together along shortest inter-component hops.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut components = n;
        for &(u, v) in &edges {
            let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
            if ru != rv {
                parent[ru] = rv;
                components -= 1;
            }
        }
        while components > 1 {
            let mut best: Option<(f64, usize, usize)> = None;
            for u in 0..n {
                for v in (u + 1)..n {
                    if find(&mut parent, u) == find(&mut parent, v) {
                        continue;
                    }
                    let d = d2(u, v);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, u, v));
                    }
                }
            }
            let (_, u, v) = best.expect("components > 1 implies a cross pair");
            edges.push((u as u32, v as u32));
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            parent[ru] = rv;
            components -= 1;
        }
        Topology::build(TopologyKind::Geometric, n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    #[test]
    fn mesh_2d_structure() {
        let t = Topology::mesh(&[3, 3]);
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.edge_count(), 12);
        // Corner has 2 neighbours, centre has 4.
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.degree(NodeId(4)), 4);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn torus_2d_is_regular() {
        let t = Topology::torus(&[4, 4]);
        assert_eq!(t.node_count(), 16);
        for v in t.nodes() {
            assert_eq!(t.degree(v), 4);
        }
        assert_eq!(t.edge_count(), 32);
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn torus_extent_two_does_not_double_edges() {
        // 2-extent wraparound would duplicate the mesh link; ensure we do not
        // create parallel edges.
        let t = Topology::torus(&[2, 2]);
        assert_eq!(t.edge_count(), 4); // a 4-cycle
        for v in t.nodes() {
            assert_eq!(t.degree(v), 2);
        }
    }

    #[test]
    fn mesh_1d_is_a_path() {
        let t = Topology::mesh(&[5]);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn torus_1d_is_a_ring() {
        let t = Topology::torus(&[5]);
        assert_eq!(t.edge_count(), 5);
        assert_eq!(t.diameter(), Some(2));
    }

    #[test]
    fn hypercube_structure() {
        let t = Topology::hypercube(4);
        assert_eq!(t.node_count(), 16);
        for v in t.nodes() {
            assert_eq!(t.degree(v), 4);
        }
        assert_eq!(t.edge_count(), 32);
        assert_eq!(t.diameter(), Some(4));
        // Neighbours differ in exactly one bit.
        for u in t.nodes() {
            for &v in t.neighbors(u) {
                assert_eq!((u.0 ^ v.0).count_ones(), 1);
            }
        }
    }

    #[test]
    fn ring_and_star_and_complete() {
        let r = Topology::ring(6);
        assert_eq!(r.edge_count(), 6);
        assert_eq!(r.diameter(), Some(3));

        let s = Topology::star(5);
        assert_eq!(s.degree(NodeId(0)), 4);
        assert_eq!(s.diameter(), Some(2));

        let c = Topology::complete(5);
        assert_eq!(c.edge_count(), 10);
        assert_eq!(c.diameter(), Some(1));
    }

    #[test]
    fn tree_structure() {
        let t = Topology::tree(2, 3);
        assert_eq!(t.node_count(), 15); // 1+2+4+8
        assert_eq!(t.edge_count(), 14);
        assert!(t.is_connected());
        assert_eq!(t.degree(NodeId(0)), 2);
    }

    #[test]
    fn tree_depth_zero_is_single_node() {
        let t = Topology::tree(3, 0);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    fn random_graph_is_connected_and_deterministic() {
        let a = Topology::random(32, 0.05, 7);
        let b = Topology::random(32, 0.05, 7);
        assert!(a.is_connected());
        assert_eq!(a.edges(), b.edges());
        let c = Topology::random(32, 0.05, 8);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn mesh_3d_node_degrees() {
        let t = Topology::mesh(&[3, 3, 3]);
        assert_eq!(t.node_count(), 27);
        // Centre of the cube has 6 neighbours.
        let center = NodeId(13);
        assert_eq!(t.degree(center), 6);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        let _ = Topology::ring(2);
    }

    #[test]
    fn scale_free_structure_and_determinism() {
        let a = Topology::scale_free(64, 2, 11);
        assert_eq!(a.node_count(), 64);
        assert!(a.is_connected());
        // Seed clique on 3 nodes (3 edges) + 2 per later node, minus any
        // collapsed duplicates — but BA never duplicates (targets are
        // distinct and the new node is fresh), so the count is exact.
        assert_eq!(a.edge_count(), 3 + 2 * (64 - 3));
        let b = Topology::scale_free(64, 2, 11);
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.edges(), Topology::scale_free(64, 2, 12).edges());
        assert_eq!(*a.kind(), TopologyKind::ScaleFree(2));
        // Preferential attachment grows hubs: some node must exceed the
        // regular-graph degree.
        let max_deg = a.nodes().map(|v| a.degree(v)).max().unwrap();
        assert!(max_deg > 4, "expected a hub, max degree {max_deg}");
    }

    #[test]
    fn random_geometric_connected_and_deterministic() {
        // Small radius forces the augmentation path to fire.
        for radius in [0.05, 0.2, 2.0] {
            let t = Topology::random_geometric(48, radius, 5);
            assert_eq!(t.node_count(), 48);
            assert!(t.is_connected(), "radius {radius}");
        }
        let a = Topology::random_geometric(48, 0.2, 5);
        let b = Topology::random_geometric(48, 0.2, 5);
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.edges(), Topology::random_geometric(48, 0.2, 6).edges());
        assert_eq!(*a.kind(), TopologyKind::Geometric);
        // radius ≥ √2 covers the unit square: complete graph.
        let full = Topology::random_geometric(10, 2.0, 1);
        assert_eq!(full.edge_count(), 45);
    }
}
