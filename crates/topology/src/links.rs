//! Link attribute matrices `BW`, `D`, `F` and the paper's link weight
//! `e_{i,j}` (§4.2).
//!
//! Every link has a bandwidth, a physical length and a fault probability per
//! time unit; all three are configuration constants of the system. The
//! effective link weight used by the balancer is
//!
//! ```text
//! e_{i,j} = (d_{i,j} / bw_{i,j}) / (1 − f_{i,j})^{d_{i,j}/(c·bw_{i,j})}
//! ```
//!
//! which realises the paper's three proportionalities: `e ∝ d`,
//! `e ∝ 1/bw`, and `e ∝ 1/(1−f)^{d/(c·bw)}` (the longer a transfer holds the
//! link, the more likely it is to hit a fault, hence the heavier the link).

use crate::embedding::Point2;
use crate::graph::{EdgeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attributes of one physical link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAttrs {
    /// Bandwidth (load units per time unit), `> 0`.
    pub bandwidth: f64,
    /// Physical length / base latency, `> 0`.
    pub distance: f64,
    /// Probability of a fault per time unit, in `[0, 1)`.
    pub fault_prob: f64,
}

impl Default for LinkAttrs {
    fn default() -> Self {
        LinkAttrs { bandwidth: 1.0, distance: 1.0, fault_prob: 0.0 }
    }
}

impl LinkAttrs {
    /// Validates the attribute ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !self.bandwidth.is_finite() || self.bandwidth <= 0.0 {
            return Err(format!("bandwidth must be > 0, got {}", self.bandwidth));
        }
        if !self.distance.is_finite() || self.distance <= 0.0 {
            return Err(format!("distance must be > 0, got {}", self.distance));
        }
        if !(0.0..1.0).contains(&self.fault_prob) {
            return Err(format!("fault_prob must be in [0,1), got {}", self.fault_prob));
        }
        Ok(())
    }

    /// The paper's link weight `e_{i,j}` (see module docs). `c` is the
    /// configuration constant scaling the fault exposure; larger `c` means
    /// faults weigh less.
    ///
    /// A fault-free link skips the `powf` and returns `d / bw`: the divisor
    /// `pow(1, y)` is exactly 1 for every `y` (IEEE 754), so the shortcut is
    /// exact.
    pub fn weight(&self, c: f64) -> f64 {
        assert!(c > 0.0, "link weight constant c must be positive");
        let base = self.distance / self.bandwidth;
        if self.fault_prob == 0.0 {
            return base;
        }
        let exposure = self.distance / (c * self.bandwidth);
        base / (1.0 - self.fault_prob).powf(exposure)
    }

    /// Nominal transfer time for a load of `size` over this link (latency
    /// plus serialisation), ignoring faults.
    pub fn transfer_time(&self, size: f64) -> f64 {
        self.distance + size / self.bandwidth
    }

    /// Probability that a transfer occupying the link for `duration` time
    /// units completes without a fault: `(1 − f)^duration`. A fault-free
    /// link skips the `powf`: `pow(1, y) = 1` for every `y` (IEEE 754), so
    /// the shortcut is exact.
    pub fn success_probability(&self, duration: f64) -> f64 {
        if self.fault_prob == 0.0 {
            return 1.0;
        }
        (1.0 - self.fault_prob).powf(duration.max(0.0))
    }
}

/// Per-link attributes for a topology (the `BW`, `D`, `F` matrices of
/// §4.2), stored as one flat array indexed by the topology's stable
/// [`EdgeId`]s: no hashing, and the engine reads it as is. Resolve a node
/// pair with [`Topology::edge_index`].
#[derive(Debug, Clone)]
pub struct LinkMap {
    attrs: Vec<LinkAttrs>,
}

impl LinkMap {
    /// All links of `topo` share the same attributes.
    pub fn uniform(topo: &Topology, attrs: LinkAttrs) -> Self {
        attrs.validate().expect("invalid link attributes");
        LinkMap { attrs: vec![attrs; topo.edge_count()] }
    }

    /// Distances derived from an embedding (Euclidean length of each link),
    /// uniform bandwidth, no faults.
    pub fn from_embedding(topo: &Topology, points: &[Point2], bandwidth: f64) -> Self {
        let attrs = topo
            .edge_slice()
            .iter()
            .map(|&(u, v)| {
                let d = points[u.idx()].distance(&points[v.idx()]).max(1e-9);
                LinkAttrs { bandwidth, distance: d, fault_prob: 0.0 }
            })
            .collect();
        LinkMap { attrs }
    }

    /// Heterogeneous random attributes (seeded): bandwidth in
    /// `[bw_min, bw_max]`, distance in `[d_min, d_max]`, fault probability in
    /// `[0, f_max]`. Draws edge by edge in edge-id order.
    pub fn random(
        topo: &Topology,
        seed: u64,
        bw_range: (f64, f64),
        d_range: (f64, f64),
        f_max: f64,
    ) -> Self {
        assert!(bw_range.0 > 0.0 && bw_range.1 >= bw_range.0);
        assert!(d_range.0 > 0.0 && d_range.1 >= d_range.0);
        assert!((0.0..1.0).contains(&f_max));
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs = (0..topo.edge_count())
            .map(|_| LinkAttrs {
                bandwidth: rng.gen_range(bw_range.0..=bw_range.1),
                distance: rng.gen_range(d_range.0..=d_range.1),
                fault_prob: if f_max > 0.0 { rng.gen_range(0.0..f_max) } else { 0.0 },
            })
            .collect();
        LinkMap { attrs }
    }

    /// Attributes of the edge, by id.
    #[inline]
    pub fn get(&self, e: EdgeId) -> LinkAttrs {
        self.attrs[e.idx()]
    }

    /// Overwrites the attributes of the edge.
    pub fn set(&mut self, e: EdgeId, attrs: LinkAttrs) {
        attrs.validate().expect("invalid link attributes");
        self.attrs[e.idx()] = attrs;
    }

    /// The whole edge-indexed attribute slice.
    #[inline]
    pub fn attrs(&self) -> &[LinkAttrs] {
        &self.attrs
    }

    /// The paper's `e_{i,j}` weight of every edge for the configuration
    /// constant `c`, by edge id — computed once at engine build instead of
    /// once per neighbour per node per tick.
    pub fn weights(&self, c: f64) -> Vec<f64> {
        self.attrs.iter().map(|a| a.weight(c)).collect()
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    #[test]
    fn default_attrs_weight_is_one() {
        let a = LinkAttrs::default();
        assert_eq!(a.weight(1.0), 1.0);
    }

    #[test]
    fn weight_proportional_to_distance() {
        let a = LinkAttrs { distance: 2.0, ..Default::default() };
        let b = LinkAttrs { distance: 4.0, ..Default::default() };
        assert!((b.weight(1.0) / a.weight(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weight_inverse_in_bandwidth() {
        let a = LinkAttrs { bandwidth: 1.0, ..Default::default() };
        let b = LinkAttrs { bandwidth: 2.0, ..Default::default() };
        assert!(b.weight(1.0) < a.weight(1.0));
    }

    #[test]
    fn faulty_links_weigh_more() {
        let clean = LinkAttrs::default();
        let faulty = LinkAttrs { fault_prob: 0.3, ..Default::default() };
        assert!(faulty.weight(1.0) > clean.weight(1.0));
        // And the penalty grows with fault probability.
        let worse = LinkAttrs { fault_prob: 0.6, ..Default::default() };
        assert!(worse.weight(1.0) > faulty.weight(1.0));
    }

    #[test]
    fn fault_penalty_scales_with_exposure() {
        // A slower link (more exposure time) suffers more from the same f.
        let fast = LinkAttrs { bandwidth: 10.0, fault_prob: 0.2, ..Default::default() };
        let slow = LinkAttrs { bandwidth: 0.1, fault_prob: 0.2, ..Default::default() };
        let ratio_fast = fast.weight(1.0) / (fast.distance / fast.bandwidth);
        let ratio_slow = slow.weight(1.0) / (slow.distance / slow.bandwidth);
        assert!(ratio_slow > ratio_fast);
    }

    #[test]
    fn transfer_time_and_success_probability() {
        let a = LinkAttrs { bandwidth: 2.0, distance: 3.0, fault_prob: 0.1 };
        assert_eq!(a.transfer_time(4.0), 5.0);
        let p = a.success_probability(2.0);
        assert!((p - 0.81).abs() < 1e-12);
        assert_eq!(a.success_probability(0.0), 1.0);
    }

    #[test]
    fn success_probability_shortcut_is_exact() {
        // Fault-free: exactly 1.0 however long the link is held.
        let clean = LinkAttrs::default();
        for d in [0.0, 0.5, 1e300] {
            assert_eq!(clean.success_probability(d).to_bits(), 1.0f64.to_bits(), "d = {d}");
        }
        // Faulty: bit for bit the `powf` formula.
        for f in [1e-9, 0.05, 0.3, 0.999] {
            let a = LinkAttrs { fault_prob: f, ..Default::default() };
            for d in [0.0, 0.5, 1.0, 2.75, 1e3, 1e300] {
                let want = (1.0 - f).powf(f64::max(d, 0.0));
                assert_eq!(a.success_probability(d).to_bits(), want.to_bits(), "f = {f}, d = {d}");
            }
        }
        // The weight's shortcut: bit for bit the full formula on every
        // link, fault-free or not.
        let formula = |a: &LinkAttrs, c: f64| {
            let exposure = a.distance / (c * a.bandwidth);
            (a.distance / a.bandwidth) / (1.0 - a.fault_prob).powf(exposure)
        };
        for f in [0.0, 1e-9, 0.05, 0.3, 0.999] {
            for (bandwidth, distance) in [(1.0, 1.0), (0.1, 5.0), (3.0, 1e-9), (1e9, 1e-9)] {
                let a = LinkAttrs { bandwidth, distance, fault_prob: f };
                for c in [1e-6, 0.5, 1.0, 7.25] {
                    let want = formula(&a, c);
                    assert_eq!(a.weight(c).to_bits(), want.to_bits(), "{a:?}, c = {c}");
                }
            }
        }
    }

    /// `(u, v, bandwidth, distance, fault_prob)` per edge of
    /// `LinkMap::random(&torus([2, 3]), 5, (0.5, 2.0), (1.0, 3.0), 0.1)`,
    /// as the map drew them when it was keyed by node pair: the draws run
    /// in edge-id order, so scenarios keep their link attributes.
    const RANDOM_TORUS_2X3: [(u32, u32, f64, f64, f64); 9] = [
        (0, 1, 0.9380343073107011, 2.2228788281620506, 0.009796325663560502),
        (0, 2, 0.5879168033643831, 2.054112853719169, 0.07032057560901199),
        (0, 3, 1.189574044960734, 1.13598191511777, 0.08829595844113519),
        (1, 2, 1.7800755077999926, 2.813140797974344, 0.0888268517706753),
        (1, 4, 1.8994339859299911, 1.8775456689685242, 0.05997242434017228),
        (2, 5, 1.9721802159317638, 2.4709956047187056, 0.06624552136139428),
        (3, 4, 0.6278612693711765, 2.084544898318094, 0.046749533457545414),
        (3, 5, 0.8585212315356987, 2.381580429646375, 0.046853375570307734),
        (4, 5, 0.6053933540981802, 2.32409036259083, 0.04781481251078643),
    ];

    #[test]
    fn random_map_values_are_pinned() {
        let t = Topology::torus(&[2, 3]);
        let m = LinkMap::random(&t, 5, (0.5, 2.0), (1.0, 3.0), 0.1);
        assert_eq!(m.len(), RANDOM_TORUS_2X3.len());
        for (i, &(u, v, bandwidth, distance, fault_prob)) in RANDOM_TORUS_2X3.iter().enumerate() {
            assert_eq!(t.edge_endpoints(EdgeId(i as u32)), (NodeId(u), NodeId(v)));
            assert_eq!(m.get(EdgeId(i as u32)), LinkAttrs { bandwidth, distance, fault_prob });
        }
    }

    #[test]
    fn uniform_map_covers_all_edges() {
        let t = Topology::mesh(&[3, 3]);
        let m = LinkMap::uniform(&t, LinkAttrs::default());
        assert_eq!(m.len(), t.edge_count());
        assert!(m.attrs().iter().all(|&a| a == LinkAttrs::default()));
    }

    #[test]
    fn map_set_is_per_edge() {
        let t = Topology::ring(4);
        let mut m = LinkMap::uniform(&t, LinkAttrs::default());
        let e = t.edge_index(NodeId(1), NodeId(0)).unwrap();
        m.set(e, LinkAttrs { bandwidth: 9.0, ..Default::default() });
        assert_eq!(m.get(t.edge_index(NodeId(0), NodeId(1)).unwrap()).bandwidth, 9.0);
        let others = (0..m.len() as u32).map(EdgeId).filter(|&f| f != e);
        assert!(others.into_iter().all(|f| m.get(f) == LinkAttrs::default()));
    }

    #[test]
    #[should_panic(expected = "invalid link attributes")]
    fn set_rejects_invalid_attrs() {
        let t = Topology::ring(3);
        let mut m = LinkMap::uniform(&t, LinkAttrs::default());
        m.set(EdgeId(0), LinkAttrs { fault_prob: 1.0, ..Default::default() });
    }

    #[test]
    fn embedding_distances_used() {
        let t = Topology::mesh(&[2, 2]);
        let pts = crate::embedding::embed(&t);
        let m = LinkMap::from_embedding(&t, &pts, 1.0);
        assert_eq!(m.len(), t.edge_count());
        for a in m.attrs() {
            assert!((a.distance - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_map_is_deterministic() {
        let t = Topology::hypercube(3);
        let a = LinkMap::random(&t, 5, (0.5, 2.0), (1.0, 3.0), 0.1);
        let b = LinkMap::random(&t, 5, (0.5, 2.0), (1.0, 3.0), 0.1);
        assert_eq!(a.attrs(), b.attrs());
    }

    #[test]
    #[should_panic(expected = "invalid link attributes")]
    fn invalid_attrs_rejected() {
        let t = Topology::ring(3);
        let _ = LinkMap::uniform(&t, LinkAttrs { bandwidth: 0.0, distance: 1.0, fault_prob: 0.0 });
    }

    #[test]
    fn weights_are_per_edge_attr_weights() {
        let t = Topology::torus(&[3, 3]);
        let m = LinkMap::random(&t, 11, (0.5, 2.0), (1.0, 3.0), 0.2);
        let weights = m.weights(2.0);
        assert_eq!(weights.len(), t.edge_count());
        for (w, a) in weights.iter().zip(m.attrs()) {
            assert_eq!(w.to_bits(), a.weight(2.0).to_bits());
        }
    }

    #[test]
    fn validate_catches_bad_fault_prob() {
        let a = LinkAttrs { fault_prob: 1.0, ..Default::default() };
        assert!(a.validate().is_err());
        let b = LinkAttrs { fault_prob: -0.1, ..Default::default() };
        assert!(b.validate().is_err());
    }
}
