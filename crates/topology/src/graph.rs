//! The interconnection network graph `G(V, E)` (§4.2).
//!
//! Nodes are processors, edges are physical links. The graph is undirected
//! and stored in CSR (compressed sparse row) form: one flat `targets` array
//! holding every node's sorted neighbour list back to back, with an
//! `offsets` table slicing it per node. Each directed slot also carries the
//! *stable edge id* of its undirected edge, so edge-indexed side tables
//! (link attributes, precomputed weights, up/down bitsets) can be addressed
//! without hashing. Topology constructors live in [`crate::generators`].

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a processing node (index into the topology's node array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize` for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an undirected edge: a dense index in `0..edge_count()`,
/// assigned in `(u, v)` order with `u < v` and stable for the lifetime of
/// the topology. Used to address edge-indexed side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The index as `usize` for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What family a topology belongs to; carried for display and for
/// family-specific algorithm parameters (e.g. hypercube dimension exchange).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyKind {
    /// k-ary n-dimensional mesh (no wraparound).
    Mesh(Vec<usize>),
    /// k-ary n-dimensional torus (wraparound).
    Torus(Vec<usize>),
    /// n-dimensional hypercube (2ⁿ nodes).
    Hypercube(usize),
    /// Simple cycle.
    Ring,
    /// One hub connected to all leaves.
    Star,
    /// Complete graph.
    Complete,
    /// Balanced tree with the given arity.
    Tree(usize),
    /// Connected Erdős–Rényi-style random graph.
    Random,
    /// Barabási–Albert preferential-attachment scale-free graph (each new
    /// node attaches to `m` existing nodes).
    ScaleFree(usize),
    /// Random geometric graph (unit-square points linked within a radius,
    /// augmented to connectivity).
    Geometric,
    /// Built from an explicit edge list.
    Custom,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Mesh(d) => write!(f, "mesh{d:?}"),
            TopologyKind::Torus(d) => write!(f, "torus{d:?}"),
            TopologyKind::Hypercube(n) => write!(f, "hypercube({n})"),
            TopologyKind::Ring => write!(f, "ring"),
            TopologyKind::Star => write!(f, "star"),
            TopologyKind::Complete => write!(f, "complete"),
            TopologyKind::Tree(a) => write!(f, "tree(arity {a})"),
            TopologyKind::Random => write!(f, "random"),
            TopologyKind::ScaleFree(m) => write!(f, "scale-free(m {m})"),
            TopologyKind::Geometric => write!(f, "geometric"),
            TopologyKind::Custom => write!(f, "custom"),
        }
    }
}

/// An undirected interconnection network in CSR form.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    /// Per-node slice bounds into `targets`/`slot_edges` (`n + 1` entries).
    offsets: Vec<u32>,
    /// Flattened sorted neighbour lists.
    targets: Vec<NodeId>,
    /// Stable edge id of each directed slot (parallel to `targets`).
    slot_edges: Vec<EdgeId>,
    /// Endpoints `(u, v)` with `u < v`, indexed by edge id.
    edge_list: Vec<(NodeId, NodeId)>,
}

impl Topology {
    /// Builds from an explicit edge list over `n` nodes. Self-loops and
    /// duplicate edges (in either direction) are dropped.
    ///
    /// # Panics
    /// Panics if an endpoint is `≥ n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Topology::build(TopologyKind::Custom, n, edges)
    }

    /// The one CSR constructor, by counting sort: count each node's slots,
    /// prefix-sum the counts into offsets, scatter both directions of every
    /// edge, then sort, dedup and compact each node's slice in place. Edge
    /// ids are assigned in `(u, v)`, `u < v` order. Every node's lower
    /// neighbours sit at the front of its sorted slice in the order their
    /// edges receive ids, so one cursor per node files each back slot
    /// without a search.
    pub(crate) fn build(kind: TopologyKind, n: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); offsets[n] as usize];
        for &(u, v) in edges {
            if u != v {
                targets[cursor[u as usize] as usize] = NodeId(v);
                cursor[u as usize] += 1;
                targets[cursor[v as usize] as usize] = NodeId(u);
                cursor[v as usize] += 1;
            }
        }
        // Sort, dedup and compact: the write head never passes the read
        // head, so each slice moves down in place.
        let (mut lo, mut len) = (0, 0);
        for u in 0..n {
            let hi = offsets[u + 1] as usize;
            targets[lo..hi].sort_unstable();
            let start = len;
            offsets[u] = start as u32;
            for i in lo..hi {
                if len == start || targets[len - 1] != targets[i] {
                    targets[len] = targets[i];
                    len += 1;
                }
            }
            lo = hi;
        }
        offsets[n] = len as u32;
        targets.truncate(len);
        let mut slot_edges = vec![EdgeId(0); len];
        let mut edge_list = Vec::with_capacity(len / 2);
        cursor.copy_from_slice(&offsets[..n]);
        for u in 0..n {
            for slot in offsets[u] as usize..offsets[u + 1] as usize {
                let v = targets[slot];
                if (u as u32) < v.0 {
                    let e = EdgeId(edge_list.len() as u32);
                    edge_list.push((NodeId(u as u32), v));
                    slot_edges[slot] = e;
                    slot_edges[cursor[v.idx()] as usize] = e;
                    cursor[v.idx()] += 1;
                }
            }
        }
        Topology { kind, offsets, targets, slot_edges, edge_list }
    }

    /// The topology family.
    pub fn kind(&self) -> &TopologyKind {
        &self.kind
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_list.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The CSR slice bounds of `v`.
    #[inline]
    fn span(&self, v: NodeId) -> (usize, usize) {
        (self.offsets[v.idx()] as usize, self.offsets[v.idx() + 1] as usize)
    }

    /// Neighbours of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = self.span(v);
        &self.targets[lo..hi]
    }

    /// Edge ids of `v`'s links, parallel to [`Topology::neighbors`]: the
    /// `k`-th entry is the undirected edge id of the link to the `k`-th
    /// neighbour.
    #[inline]
    pub fn neighbor_edge_ids(&self, v: NodeId) -> &[EdgeId] {
        let (lo, hi) = self.span(v);
        &self.slot_edges[lo..hi]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        let (lo, hi) = self.span(v);
        hi - lo
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether `u` and `v` share an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The stable id of the `(u, v)` edge, if it exists. O(log deg) — no
    /// hashing.
    #[inline]
    pub fn edge_index(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (lo, _) = self.span(u);
        self.neighbors(u).binary_search(&v).ok().map(|pos| self.slot_edges[lo + pos])
    }

    /// Endpoints `(u, v)` of an edge, with `u < v`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edge_list[e.idx()]
    }

    /// All undirected edges as `(u, v)` with `u < v`, indexed by edge id.
    /// Borrowed view — no allocation.
    pub fn edge_slice(&self) -> &[(NodeId, NodeId)] {
        &self.edge_list
    }

    /// All undirected edges as `(u, v)` with `u < v` (owned copy; prefer
    /// [`Topology::edge_slice`] on hot paths).
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        self.edge_list.clone()
    }

    /// BFS hop distances from `from`; unreachable nodes get `usize::MAX`.
    pub fn bfs_distances(&self, from: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        let mut q = VecDeque::new();
        dist[from.idx()] = 0;
        q.push_back(from);
        while let Some(u) = q.pop_front() {
            let du = dist[u.idx()];
            for &v in self.neighbors(u) {
                if dist[v.idx()] == usize::MAX {
                    dist[v.idx()] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected (empty graphs count as connected).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        self.bfs_distances(NodeId(0)).iter().all(|&d| d != usize::MAX)
    }

    /// The diameter (max over all pairs of hop distance); `None` when
    /// disconnected or empty.
    pub fn diameter(&self) -> Option<usize> {
        if self.node_count() == 0 {
            return None;
        }
        let mut best = 0;
        for u in self.nodes() {
            let d = self.bfs_distances(u);
            let m = *d.iter().max().unwrap();
            if m == usize::MAX {
                return None;
            }
            best = best.max(m);
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_symmetric_adjacency() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 2);
        assert!(t.has_edge(NodeId(0), NodeId(1)));
        assert!(t.has_edge(NodeId(1), NodeId(0)));
        assert!(!t.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn duplicate_and_self_edges_are_dropped() {
        let t = Topology::from_edges(2, &[(0, 1), (1, 0), (0, 0)]);
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.degree(NodeId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = Topology::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn bfs_distances_on_path() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.bfs_distances(NodeId(0)), vec![0, 1, 2, 3]);
        assert_eq!(t.diameter(), Some(3));
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!t.is_connected());
        assert_eq!(t.diameter(), None);
        assert_eq!(t.bfs_distances(NodeId(0))[2], usize::MAX);
    }

    #[test]
    fn edges_listed_once_each() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let e = t.edges();
        assert_eq!(e.len(), 3);
        for (u, v) in e {
            assert!(u < v);
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(7).to_string(), "v7");
        assert_eq!(TopologyKind::Hypercube(3).to_string(), "hypercube(3)");
        assert_eq!(TopologyKind::Mesh(vec![4, 4]).to_string(), "mesh[4, 4]");
    }

    #[test]
    fn empty_graph_is_connected() {
        let t = Topology::from_edges(0, &[]);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), None);
    }

    #[test]
    fn edge_ids_are_dense_and_stable() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        // Ids cover 0..edge_count, assigned in (u, v) u < v order.
        for (i, &(u, v)) in t.edge_slice().iter().enumerate() {
            assert!(u < v);
            assert_eq!(t.edge_index(u, v), Some(EdgeId(i as u32)));
            assert_eq!(t.edge_index(v, u), Some(EdgeId(i as u32)), "symmetric lookup");
            assert_eq!(t.edge_endpoints(EdgeId(i as u32)), (u, v));
        }
        assert_eq!(t.edge_slice().len(), t.edge_count());
        assert_eq!(t.edge_index(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn neighbor_edge_ids_parallel_to_neighbors() {
        let t = Topology::from_edges(5, &[(0, 1), (0, 2), (0, 4), (1, 2), (3, 4)]);
        for u in t.nodes() {
            let nbrs = t.neighbors(u);
            let eids = t.neighbor_edge_ids(u);
            assert_eq!(nbrs.len(), eids.len());
            for (&v, &e) in nbrs.iter().zip(eids) {
                assert_eq!(t.edge_index(u, v), Some(e));
                let (a, b) = t.edge_endpoints(e);
                assert!((a, b) == (u.min(v), u.max(v)));
            }
        }
    }

    #[test]
    fn edges_matches_edge_slice() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(t.edges(), t.edge_slice().to_vec());
    }
}
