//! Deterministic spatial partitioning of a [`Topology`] into `K`
//! contiguous shards — the domain decomposition under the sharded tick
//! pipeline in `pp-sim` (see `docs/adr/ADR-004-sharded-ticks.md`).
//!
//! Node ids of every generated family are spatially coherent (meshes and
//! tori are row-major, hypercubes Gray-code-adjacent), so splitting the id
//! range `0..n` into `K` contiguous, balanced intervals yields shards whose
//! cross-shard surface is small: on a `d`-dimensional torus a shard is a
//! band of consecutive rows and only its first and last row touch other
//! shards. A [`Partition`] is just that interval split plus the node →
//! shard map; a 1-D take on the rectilinear partitioners of Saule et al.
//! (arXiv:1104.2566). Which shards can observe a node — its own and those
//! owning a neighbour — the engine derives from the topology and
//! [`Partition::shard_of`]. The layout is fixed for the engine's lifetime.
//!
//! The split is a pure function of `(node count, K)`: no RNG, no
//! tie-breaking — two calls always produce the identical layout, which the
//! sharded engine's determinism argument relies on.

use crate::graph::{NodeId, Topology};

/// A deterministic split of a topology's nodes into `K` contiguous shards.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shard `s` owns nodes `ranges[s].0 .. ranges[s].1`.
    ranges: Vec<(u32, u32)>,
    /// Node id → owning shard.
    node_shard: Vec<u32>,
}

impl Partition {
    /// Splits `topo` into `k` shards (clamped to `1..=node_count`, so every
    /// shard is non-empty). Shard sizes differ by at most one: the first
    /// `n % k` shards get `⌈n/k⌉` nodes, the rest `⌊n/k⌋`.
    pub fn new(topo: &Topology, k: usize) -> Self {
        let n = topo.node_count();
        let k = k.clamp(1, n.max(1));
        let (base, extra) = (n / k, n % k);
        let mut ranges = Vec::with_capacity(k);
        let mut node_shard = vec![0; n];
        let mut start = 0u32;
        for s in 0..k {
            let end = start + (base + usize::from(s < extra)) as u32;
            node_shard[start as usize..end as usize].fill(s as u32);
            ranges.push((start, end));
            start = end;
        }
        debug_assert_eq!(start as usize, n, "ranges must cover every node");
        Partition { ranges, node_shard }
    }

    /// Number of shards `K`.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The `[start, end)` node-id range owned by shard `s`.
    #[inline]
    pub fn range(&self, s: usize) -> (u32, u32) {
        self.ranges[s]
    }

    /// Number of nodes in shard `s`.
    pub fn len(&self, s: usize) -> usize {
        let (lo, hi) = self.ranges[s];
        (hi - lo) as usize
    }

    /// Whether the partition is over an empty topology.
    pub fn is_empty(&self) -> bool {
        self.node_shard.is_empty()
    }

    /// The shard owning node `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.node_shard[v.idx()] as usize
    }

    /// All shard ranges, ascending and gap-free: shard `s` owns
    /// `ranges()[s].0 .. ranges()[s].1`.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_every_node() {
        let topo = Topology::torus(&[4, 4]);
        let p = Partition::new(&topo, 1);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.range(0), (0, 16));
        assert!(topo.nodes().all(|v| p.shard_of(v) == 0));
    }

    #[test]
    fn balanced_contiguous_ranges() {
        let topo = Topology::ring(10);
        let p = Partition::new(&topo, 3);
        assert_eq!(p.range(0), (0, 4)); // 10 = 4 + 3 + 3
        assert_eq!(p.range(1), (4, 7));
        assert_eq!(p.range(2), (7, 10));
        for s in 0..3 {
            let (lo, hi) = p.range(s);
            for v in lo..hi {
                assert_eq!(p.shard_of(NodeId(v)), s);
            }
        }
    }

    #[test]
    fn k_clamps_to_node_count() {
        let topo = Topology::ring(4);
        let p = Partition::new(&topo, 99);
        assert_eq!(p.shard_count(), 4);
        for s in 0..4 {
            assert_eq!(p.len(s), 1);
        }
        let p0 = Partition::new(&topo, 0);
        assert_eq!(p0.shard_count(), 1);
    }

    #[test]
    fn empty_topology_partition() {
        let topo = Topology::from_edges(0, &[]);
        let p = Partition::new(&topo, 4);
        assert_eq!(p.shard_count(), 1);
        assert!(p.is_empty());
        assert_eq!(p.range(0), (0, 0));
    }
}
