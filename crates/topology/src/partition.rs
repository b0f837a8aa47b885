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
//! [`Partition::shard_of`], so re-splitting the intervals mid-run
//! ([`Partition::refit`]) touches nothing else.
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

/// The uniform `±1`-balanced contiguous split of `0..n` into `k` intervals
/// (`k` clamped to `1..=n.max(1)`): the first `n % k` intervals get
/// `⌈n/k⌉` nodes, the rest `⌊n/k⌋`. This is the layout [`Partition::new`]
/// builds and the zero-information fallback of [`RepartitionPolicy`].
pub fn uniform_ranges(n: usize, k: usize) -> Vec<(u32, u32)> {
    let k = k.clamp(1, n.max(1));
    let (base, extra) = (n / k, n % k);
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0u32;
    for s in 0..k {
        let len = base + usize::from(s < extra);
        let end = start + len as u32;
        ranges.push((start, end));
        start = end;
    }
    debug_assert_eq!(start as usize, n, "ranges must cover every node");
    ranges
}

impl Partition {
    /// Splits `topo` into `k` shards (clamped to `1..=node_count`, so every
    /// shard is non-empty). Shard sizes differ by at most one: the first
    /// `n % k` shards get `⌈n/k⌉` nodes, the rest `⌊n/k⌋`.
    pub fn new(topo: &Topology, k: usize) -> Self {
        Partition::from_ranges(topo, uniform_ranges(topo.node_count(), k))
    }

    /// Builds the partition for an explicit contiguous interval layout.
    /// `ranges` must be ascending, gap-free, cover exactly `0..node_count`,
    /// and (unless the topology is empty) contain no empty shard — the same
    /// invariants [`uniform_ranges`] and [`RepartitionPolicy`] guarantee.
    pub fn from_ranges(topo: &Topology, ranges: Vec<(u32, u32)>) -> Self {
        let mut p = Partition { ranges: Vec::new(), node_shard: vec![0; topo.node_count()] };
        p.assign(ranges);
        p
    }

    /// Swaps in a new interval layout with the same shard count — the
    /// adaptive engine's repartition path. `ranges` must satisfy the same
    /// invariants as in [`Partition::from_ranges`].
    pub fn refit(&mut self, ranges: Vec<(u32, u32)>) {
        assert_eq!(ranges.len(), self.ranges.len(), "refit keeps the shard count");
        self.assign(ranges);
    }

    /// Checks `ranges` and points every node at its shard.
    fn assign(&mut self, ranges: Vec<(u32, u32)>) {
        let n = self.node_shard.len();
        assert!(!ranges.is_empty(), "a partition needs at least one shard");
        assert_eq!(ranges[0].0, 0, "ranges must start at node 0");
        assert_eq!(ranges[ranges.len() - 1].1 as usize, n, "ranges must end at node count");
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            assert!(lo < hi || n == 0, "shard {s} is empty");
            assert!(s == 0 || ranges[s - 1].1 == lo, "shard {s} leaves a gap");
            self.node_shard[lo as usize..hi as usize].fill(s as u32);
        }
        self.ranges = ranges;
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

/// Deterministic online repartitioning: given the measured per-shard load
/// of the current layout, compute a new contiguous interval layout whose
/// per-shard load is (approximately) equalized — a 1-D weighted prefix-sum
/// split in the spirit of the rectangular partitioners of Saule et al.
/// (arXiv:1104.2566) and the runtime repartitioners surveyed by Eibl &
/// Rüde (arXiv:1808.00829), specialized to the engine's contiguous node-id
/// bands.
///
/// The policy is a pure function — no RNG, no tie-breaking, no state — so
/// an adaptive engine repartitions identically on every `(shards, threads)`
/// execution layout; that is what keeps adaptive runs byte-identical
/// across layouts and across checkpoint/resume.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepartitionPolicy;

impl RepartitionPolicy {
    /// Splits `0..weights.len()` into `k` contiguous intervals whose weight
    /// sums are as equal as the prefix-sum quantile cut allows. Every
    /// interval is non-empty (`k` is clamped to `1..=n.max(1)`); interval
    /// `i` ends at the first prefix `P[j] ≥ W·i/k`, clamped so the
    /// remaining intervals still fit. Non-finite or negative weights count
    /// as zero; an all-zero vector falls back to [`uniform_ranges`].
    pub fn split_weights(weights: &[f64], k: usize) -> Vec<(u32, u32)> {
        let n = weights.len();
        let k = k.clamp(1, n.max(1));
        // Left-to-right prefix sums: deterministic fp association.
        let mut prefix = Vec::with_capacity(n + 1);
        let mut acc = 0.0f64;
        prefix.push(acc);
        for &w in weights {
            acc += if w.is_finite() && w > 0.0 { w } else { 0.0 };
            prefix.push(acc);
        }
        let total = acc;
        if total <= 0.0 {
            return uniform_ranges(n, k);
        }
        let mut ranges = Vec::with_capacity(k);
        let mut start = 0usize;
        for i in 1..k {
            let target = total * i as f64 / k as f64;
            let cut = prefix.partition_point(|&p| p < target);
            // Keep this shard and all remaining shards non-empty.
            let cut = cut.clamp(start + 1, n - (k - i));
            ranges.push((start as u32, cut as u32));
            start = cut;
        }
        ranges.push((start as u32, n as u32));
        ranges
    }

    /// Max/mean weight skew of a layout under per-node `weights` (1.0 is
    /// perfectly balanced; 0.0 when the total weight is zero).
    pub fn range_skew(ranges: &[(u32, u32)], weights: &[f64]) -> f64 {
        let sum_in = |&(lo, hi): &(u32, u32)| -> f64 {
            weights[lo as usize..hi as usize]
                .iter()
                .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
                .sum()
        };
        let loads: Vec<f64> = ranges.iter().map(sum_in).collect();
        let total: f64 = loads.iter().sum();
        if total <= 0.0 || loads.is_empty() {
            return 0.0;
        }
        let mean = total / loads.len() as f64;
        loads.iter().fold(0.0f64, |m, &l| m.max(l)) / mean
    }

    /// Proposes a rebalanced layout for `old` given its measured per-shard
    /// loads (one entry per shard, e.g. nodes evaluated since the last
    /// check). Each shard's load is spread uniformly over its nodes,
    /// making the per-node weight piecewise constant over the old shards —
    /// so the whole computation (blend, quantile cut, skew comparison)
    /// runs on the `k` segments directly in O(k), never materializing a
    /// per-node weight vector. The cuts are the same prefix-sum quantiles
    /// [`Self::split_weights`] computes, evaluated in closed form per
    /// segment. Returns `None` — keep the current layout — when the loads
    /// carry no information (all zero) or when the candidate does not
    /// improve the skew by at least 10% under those same weights, so a
    /// proposal is never worse than the layout it replaces and measurement
    /// jitter alone never churns the layout.
    pub fn rebalance(old: &Partition, shard_loads: &[f64]) -> Option<Vec<(u32, u32)>> {
        let k = old.shard_count();
        assert_eq!(shard_loads.len(), k, "one load entry per shard");
        let n = old.node_shard.len();
        let clean = |l: f64| if l.is_finite() && l > 0.0 { l } else { 0.0 };
        let total_load: f64 = shard_loads.iter().map(|&l| clean(l)).sum();
        if n == 0 || total_load <= 0.0 {
            return None;
        }
        // Cut on a 50/50 blend of measured load and uniform mass. Pure
        // load-equalization hands the quiescent region a handful of
        // enormous shards, and the moment the active frontier leaks one
        // node into such a shard the whole thing is swept — the uniform
        // floor caps any shard's width at ~2n/k while still shrinking hot
        // shards toward their measured load share.
        let floor = total_load / n as f64;
        let seg_w: Vec<f64> =
            (0..k).map(|s| clean(shard_loads[s]) / old.len(s) as f64 + floor).collect();
        // Piecewise-linear prefix mass over the segments.
        let mut seg_prefix = Vec::with_capacity(k + 1);
        let mut acc = 0.0f64;
        seg_prefix.push(acc);
        for (s, &w) in seg_w.iter().enumerate() {
            acc += w * old.len(s) as f64;
            seg_prefix.push(acc);
        }
        let total = acc;
        // Interval `i` ends at the first node whose prefix mass reaches
        // `total·i/k`, clamped non-empty — split_weights' quantile cut,
        // located by walking the segments instead of a per-node prefix.
        let mut candidate = Vec::with_capacity(k);
        let mut start = 0usize;
        let mut seg = 0usize;
        for i in 1..k {
            let target = total * i as f64 / k as f64;
            while seg + 1 < k && seg_prefix[seg + 1] < target {
                seg += 1;
            }
            let (lo, hi) = old.range(seg);
            let within = if seg_w[seg] > 0.0 {
                ((target - seg_prefix[seg]) / seg_w[seg]).ceil().max(0.0) as usize
            } else {
                0
            };
            let cut = (lo as usize + within.min((hi - lo) as usize)).clamp(start + 1, n - (k - i));
            candidate.push((start as u32, cut as u32));
            start = cut;
        }
        candidate.push((start as u32, n as u32));
        if candidate == old.ranges {
            return None;
        }
        // Hysteresis: measured loads jitter from round to round, and the
        // prefix cut amplifies a one-node wobble into a layout change. A
        // layout swap is not free (RNG reshuffle, a full sweep of the
        // carried-over activity), so only adopt cuts that beat the
        // incumbent by a clear margin. Skews share the mean `total/k`, so
        // comparing the max per-interval masses is the same comparison.
        let old_max = (0..k).fold(0.0f64, |m, s| m.max(seg_w[s] * old.len(s) as f64));
        let mut new_max = 0.0f64;
        let mut s = 0usize;
        for &(lo, hi) in &candidate {
            let mut mass = 0.0f64;
            let mut pos = lo;
            while pos < hi {
                while old.ranges[s].1 <= pos {
                    s += 1;
                }
                let end = old.ranges[s].1.min(hi);
                mass += f64::from(end - pos) * seg_w[s];
                pos = end;
            }
            new_max = new_max.max(mass);
        }
        (new_max < 0.9 * old_max).then_some(candidate)
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

    #[test]
    fn from_ranges_matches_new_for_uniform_layout() {
        let topo = Topology::torus(&[6, 6]);
        let a = Partition::new(&topo, 5);
        let b = Partition::from_ranges(&topo, uniform_ranges(36, 5));
        assert_eq!(a.ranges, b.ranges);
        assert_eq!(a.node_shard, b.node_shard);
    }

    #[test]
    fn refit_moves_ownership_like_a_fresh_build() {
        // 4×4 torus re-split 12 / 2 / 2: ownership must track the explicit
        // ranges, exactly as a partition built from them would.
        let topo = Topology::torus(&[4, 4]);
        let skewed = vec![(0, 12), (12, 14), (14, 16)];
        let mut p = Partition::new(&topo, 3);
        p.refit(skewed.clone());
        let q = Partition::from_ranges(&topo, skewed);
        assert_eq!(p.len(0), 12);
        assert_eq!(p.shard_of(NodeId(13)), 1);
        assert_eq!((p.ranges, p.node_shard), (q.ranges, q.node_shard));
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn from_ranges_rejects_gaps() {
        let topo = Topology::ring(8);
        Partition::from_ranges(&topo, vec![(0, 3), (4, 8)]);
    }

    #[test]
    #[should_panic(expected = "keeps the shard count")]
    fn refit_rejects_a_new_shard_count() {
        let mut p = Partition::new(&Topology::ring(8), 2);
        p.refit(vec![(0, 3), (3, 5), (5, 8)]);
    }

    #[test]
    fn split_weights_equalizes_a_hotspot() {
        // All weight in the first quarter: the cut must concentrate shards
        // there instead of splitting uniformly.
        let mut w = vec![0.0; 16];
        for x in &mut w[0..4] {
            *x = 1.0;
        }
        let r = RepartitionPolicy::split_weights(&w, 4);
        assert_eq!(r, vec![(0, 1), (1, 2), (2, 3), (3, 16)]);
        // Exact cover, ascending, non-empty.
        assert_eq!(r[0].0, 0);
        assert_eq!(r[r.len() - 1].1, 16);
    }

    #[test]
    fn split_weights_zero_total_is_uniform() {
        let w = vec![0.0; 10];
        assert_eq!(RepartitionPolicy::split_weights(&w, 3), uniform_ranges(10, 3));
        // Negative / non-finite weights count as zero.
        let w = vec![-1.0, f64::NAN, f64::INFINITY, -0.5];
        assert_eq!(RepartitionPolicy::split_weights(&w, 2), uniform_ranges(4, 2));
    }

    #[test]
    fn split_weights_uniform_input_is_uniform_output() {
        let w = vec![2.5; 12];
        assert_eq!(RepartitionPolicy::split_weights(&w, 4), uniform_ranges(12, 4));
    }

    #[test]
    fn rebalance_improves_skew_or_declines() {
        let topo = Topology::torus(&[8, 8]);
        let p = Partition::new(&topo, 4);
        // Hot first shard: rebalance must shrink it.
        let loads = [80.0, 1.0, 1.0, 1.0];
        let ranges = RepartitionPolicy::rebalance(&p, &loads).expect("skewed load repartitions");
        assert!(ranges[0].1 - ranges[0].0 < 16, "hot shard shrinks: {ranges:?}");
        let weights: Vec<f64> = (0..64).map(|v| if v < 16 { 5.0 } else { 1.0 / 16.0 }).collect();
        assert!(
            RepartitionPolicy::range_skew(&ranges, &weights)
                < RepartitionPolicy::range_skew(p.ranges(), &weights)
        );
        // Balanced load: no proposal.
        assert_eq!(RepartitionPolicy::rebalance(&p, &[3.0, 3.0, 3.0, 3.0]), None);
        // Zero load: no proposal.
        assert_eq!(RepartitionPolicy::rebalance(&p, &[0.0; 4]), None);
    }

    #[test]
    fn rebalance_is_deterministic() {
        let topo = Topology::torus(&[16, 16]);
        let p = Partition::new(&topo, 8);
        let loads: Vec<f64> = (0..8).map(|s| ((s * 37) % 11) as f64 + 0.25).collect();
        let a = RepartitionPolicy::rebalance(&p, &loads);
        let b = RepartitionPolicy::rebalance(&p, &loads);
        assert_eq!(a, b);
    }
}
