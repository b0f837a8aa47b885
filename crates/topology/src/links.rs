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
use crate::graph::{EdgeId, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

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
    pub fn weight(&self, c: f64) -> f64 {
        assert!(c > 0.0, "link weight constant c must be positive");
        let base = self.distance / self.bandwidth;
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

/// Symmetric per-link attribute storage for a topology (the `BW`, `D`, `F`
/// matrices of §4.2, stored sparsely).
#[derive(Debug, Clone)]
pub struct LinkMap {
    attrs: HashMap<(u32, u32), LinkAttrs>,
}

fn key(u: NodeId, v: NodeId) -> (u32, u32) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

impl LinkMap {
    /// All links of `topo` share the same attributes.
    pub fn uniform(topo: &Topology, attrs: LinkAttrs) -> Self {
        attrs.validate().expect("invalid link attributes");
        let map = topo.edges().into_iter().map(|(u, v)| (key(u, v), attrs)).collect();
        LinkMap { attrs: map }
    }

    /// Distances derived from an embedding (Euclidean length of each link),
    /// uniform bandwidth, no faults.
    pub fn from_embedding(topo: &Topology, points: &[Point2], bandwidth: f64) -> Self {
        let mut attrs = HashMap::new();
        for (u, v) in topo.edges() {
            let d = points[u.idx()].distance(&points[v.idx()]).max(1e-9);
            attrs.insert(key(u, v), LinkAttrs { bandwidth, distance: d, fault_prob: 0.0 });
        }
        LinkMap { attrs }
    }

    /// Heterogeneous random attributes (seeded): bandwidth in
    /// `[bw_min, bw_max]`, distance in `[d_min, d_max]`, fault probability in
    /// `[0, f_max]`.
    #[allow(clippy::too_many_arguments)]
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
        let mut attrs = HashMap::new();
        for (u, v) in topo.edges() {
            attrs.insert(
                key(u, v),
                LinkAttrs {
                    bandwidth: rng.gen_range(bw_range.0..=bw_range.1),
                    distance: rng.gen_range(d_range.0..=d_range.1),
                    fault_prob: if f_max > 0.0 { rng.gen_range(0.0..f_max) } else { 0.0 },
                },
            );
        }
        LinkMap { attrs }
    }

    /// Attributes of the `(u, v)` link, if it exists.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<&LinkAttrs> {
        self.attrs.get(&key(u, v))
    }

    /// Mutable attributes of the `(u, v)` link (e.g. to inject a fault).
    pub fn get_mut(&mut self, u: NodeId, v: NodeId) -> Option<&mut LinkAttrs> {
        self.attrs.get_mut(&key(u, v))
    }

    /// Overwrites the attributes of the `(u, v)` link.
    pub fn set(&mut self, u: NodeId, v: NodeId, attrs: LinkAttrs) {
        attrs.validate().expect("invalid link attributes");
        self.attrs.insert(key(u, v), attrs);
    }

    /// The paper's `e_{i,j}` weight for the `(u, v)` link.
    pub fn weight(&self, u: NodeId, v: NodeId, c: f64) -> Option<f64> {
        self.get(u, v).map(|a| a.weight(c))
    }

    /// Number of links with attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

/// Edge-id-indexed link attributes: the hot-path view of a [`LinkMap`],
/// flattened over a topology's stable edge ids so the per-tick loops address
/// link attributes and precomputed weights by array index instead of hashing
/// `(u, v)` pairs.
#[derive(Debug, Clone)]
pub struct LinkTable {
    attrs: Vec<LinkAttrs>,
}

impl LinkTable {
    /// Flattens `map` over `topo`'s edge ids.
    ///
    /// # Panics
    /// Panics if any edge of `topo` is missing from `map`.
    pub fn new(topo: &Topology, map: &LinkMap) -> Self {
        let attrs = topo
            .edge_slice()
            .iter()
            .map(|&(u, v)| *map.get(u, v).expect("link attributes missing for an edge"))
            .collect();
        LinkTable { attrs }
    }

    /// Attributes of the edge, by id.
    #[inline]
    pub fn get(&self, e: EdgeId) -> LinkAttrs {
        self.attrs[e.idx()]
    }

    /// The whole edge-indexed attribute slice.
    #[inline]
    pub fn attrs(&self) -> &[LinkAttrs] {
        &self.attrs
    }

    /// Precomputes the paper's `e_{i,j}` weight for every edge with the
    /// configuration constant `c` — one `powf` per edge at build time
    /// instead of one per neighbour per node per tick.
    pub fn weights(&self, c: f64) -> Vec<f64> {
        self.attrs.iter().map(|a| a.weight(c)).collect()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn uniform_map_covers_all_edges() {
        let t = Topology::mesh(&[3, 3]);
        let m = LinkMap::uniform(&t, LinkAttrs::default());
        assert_eq!(m.len(), t.edge_count());
        for (u, v) in t.edges() {
            assert!(m.get(u, v).is_some());
            assert!(m.get(v, u).is_some()); // symmetric access
        }
    }

    #[test]
    fn map_set_and_get_mut() {
        let t = Topology::ring(4);
        let mut m = LinkMap::uniform(&t, LinkAttrs::default());
        m.set(NodeId(0), NodeId(1), LinkAttrs { bandwidth: 9.0, ..Default::default() });
        assert_eq!(m.get(NodeId(1), NodeId(0)).unwrap().bandwidth, 9.0);
        m.get_mut(NodeId(0), NodeId(1)).unwrap().fault_prob = 0.5;
        assert_eq!(m.get(NodeId(0), NodeId(1)).unwrap().fault_prob, 0.5);
    }

    #[test]
    fn embedding_distances_used() {
        let t = Topology::mesh(&[2, 2]);
        let pts = crate::embedding::embed(&t);
        let m = LinkMap::from_embedding(&t, &pts, 1.0);
        for (u, v) in t.edges() {
            assert!((m.get(u, v).unwrap().distance - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_map_is_deterministic() {
        let t = Topology::hypercube(3);
        let a = LinkMap::random(&t, 5, (0.5, 2.0), (1.0, 3.0), 0.1);
        let b = LinkMap::random(&t, 5, (0.5, 2.0), (1.0, 3.0), 0.1);
        for (u, v) in t.edges() {
            assert_eq!(a.get(u, v), b.get(u, v));
        }
    }

    #[test]
    #[should_panic(expected = "invalid link attributes")]
    fn invalid_attrs_rejected() {
        let t = Topology::ring(3);
        let _ = LinkMap::uniform(&t, LinkAttrs { bandwidth: 0.0, distance: 1.0, fault_prob: 0.0 });
    }

    #[test]
    fn link_table_matches_map() {
        let t = Topology::torus(&[3, 3]);
        let m = LinkMap::random(&t, 11, (0.5, 2.0), (1.0, 3.0), 0.2);
        let table = LinkTable::new(&t, &m);
        assert_eq!(table.len(), t.edge_count());
        let weights = table.weights(2.0);
        for (i, &(u, v)) in t.edge_slice().iter().enumerate() {
            let e = t.edge_index(u, v).unwrap();
            assert_eq!(table.get(e), *m.get(u, v).unwrap());
            assert_eq!(weights[i], m.get(u, v).unwrap().weight(2.0));
        }
    }

    #[test]
    #[should_panic(expected = "link attributes missing")]
    fn link_table_rejects_partial_map() {
        let t = Topology::ring(4);
        let partial = LinkMap::uniform(&Topology::ring(3), LinkAttrs::default());
        let _ = LinkTable::new(&t, &partial);
    }

    #[test]
    fn validate_catches_bad_fault_prob() {
        let a = LinkAttrs { fault_prob: 1.0, ..Default::default() };
        assert!(a.validate().is_err());
        let b = LinkAttrs { fault_prob: -0.1, ..Default::default() };
        assert!(b.validate().is_err());
    }
}
