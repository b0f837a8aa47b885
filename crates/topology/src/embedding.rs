//! The `M₂` mapping of §4.1: assign each network node a point in the 2-D
//! plane. Together with per-node load it yields the paper's `M₃` mapping to
//! a 3-D surface (the "yard" of the physical model).
//!
//! Meshes/tori embed on their natural grid; hypercubes use Gray-code
//! coordinates (each node's index split into two halves, Gray-decoded per
//! axis); rings embed on a circle; everything else falls back to BFS shells.

use crate::graph::{NodeId, Topology, TopologyKind};

/// A point of the ground plane (kept as a plain pair so this crate stays
/// independent of the physics crate's vector types).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Gray code of `i`.
fn gray(i: usize) -> usize {
    i ^ (i >> 1)
}

/// Computes the `M₂` embedding: one ground-plane point per node.
pub fn embed(topo: &Topology) -> Vec<Point2> {
    let n = topo.node_count();
    match topo.kind() {
        TopologyKind::Mesh(dims) | TopologyKind::Torus(dims) if dims.len() <= 2 => (0..n)
            .map(|i| {
                // Row-major coordinates; a 1-D grid lies on the x axis.
                let cols = dims.get(1).copied().unwrap_or(1);
                Point2::new((i / cols) as f64, (i % cols) as f64)
            })
            .collect(),
        TopologyKind::Hypercube(dim) => {
            // Split the address bits into two halves; Gray-decode each half
            // so adjacent nodes stay close on the plane.
            let hi_bits = dim / 2;
            let lo_bits = dim - hi_bits;
            (0..n)
                .map(|i| {
                    let lo = i & ((1 << lo_bits) - 1);
                    let hi = i >> lo_bits;
                    Point2::new(gray(lo) as f64, gray(hi) as f64)
                })
                .collect()
        }
        TopologyKind::Ring => (0..n)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                let r = n as f64 / (2.0 * std::f64::consts::PI);
                Point2::new(r * a.cos(), r * a.sin())
            })
            .collect(),
        _ => bfs_shell_embedding(topo),
    }
}

/// Fallback layout: node 0 at the origin, BFS shells on concentric circles.
fn bfs_shell_embedding(topo: &Topology) -> Vec<Point2> {
    let n = topo.node_count();
    if n == 0 {
        return Vec::new();
    }
    let dist = topo.bfs_distances(NodeId(0));
    let max_d = dist.iter().copied().filter(|&d| d != usize::MAX).max().unwrap_or(0);
    let mut per_shell: Vec<Vec<usize>> = vec![Vec::new(); max_d + 2];
    for (i, &d) in dist.iter().enumerate() {
        let shell = if d == usize::MAX { max_d + 1 } else { d };
        per_shell[shell].push(i);
    }
    let mut pts = vec![Point2::default(); n];
    for (shell, members) in per_shell.iter().enumerate() {
        let count = members.len().max(1) as f64;
        for (k, &node) in members.iter().enumerate() {
            let a = 2.0 * std::f64::consts::PI * k as f64 / count;
            let r = shell as f64;
            pts[node] = Point2::new(r * a.cos(), r * a.sin());
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_embedding_is_the_grid() {
        let t = Topology::mesh(&[3, 2]);
        let e = embed(&t);
        assert_eq!(e.len(), 6);
        // Node index = x*2 + y for dims [3,2].
        assert_eq!(e[0], Point2::new(0.0, 0.0));
        assert_eq!(e[1], Point2::new(0.0, 1.0));
        assert_eq!(e[2], Point2::new(1.0, 0.0));
        assert_eq!(e[5], Point2::new(2.0, 1.0));
    }

    #[test]
    fn mesh_neighbours_are_unit_distance() {
        let t = Topology::mesh(&[4, 4]);
        let e = embed(&t);
        for (u, v) in t.edges() {
            assert!((e[u.idx()].distance(&e[v.idx()]) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hypercube_embedding_distinct_points() {
        let t = Topology::hypercube(4);
        let e = embed(&t);
        for i in 0..e.len() {
            for j in (i + 1)..e.len() {
                assert!(e[i].distance(&e[j]) > 1e-9, "nodes {i} and {j} collide at {:?}", e[i]);
            }
        }
    }

    #[test]
    fn hypercube_gray_neighbours_close() {
        // Gray-coded halves keep (many) neighbours at distance 1 on the grid;
        // all neighbours stay within the half-grid span.
        let t = Topology::hypercube(4);
        let e = embed(&t);
        for (u, v) in t.edges() {
            assert!(e[u.idx()].distance(&e[v.idx()]) <= 3.0);
        }
    }

    #[test]
    fn ring_embedding_on_circle() {
        let t = Topology::ring(8);
        let e = embed(&t);
        let r = 8.0 / (2.0 * std::f64::consts::PI);
        for p in &e {
            assert!(((p.x * p.x + p.y * p.y).sqrt() - r).abs() < 1e-9);
        }
        // Adjacent ring nodes are closer than opposite ones.
        assert!(e[0].distance(&e[1]) < e[0].distance(&e[4]));
    }

    #[test]
    fn fallback_embedding_distinct_for_random() {
        let t = Topology::random(20, 0.1, 3);
        let e = embed(&t);
        assert_eq!(e.len(), 20);
        for i in 0..e.len() {
            for j in (i + 1)..e.len() {
                assert!(e[i].distance(&e[j]) > 1e-9, "{i} vs {j}");
            }
        }
    }

    #[test]
    fn point_distance() {
        assert_eq!(Point2::new(0.0, 0.0).distance(&Point2::new(3.0, 4.0)), 5.0);
    }
}
