//! Weighted shortest paths over the link-weight matrix: the network-side
//! counterpart of the physical model's "shortest escape path" (Theorem 1's
//! `r_{c,p}` measured in accumulated `e_{i,j}` instead of metres).
//!
//! Used by the experiments to relate a load's energy budget to the set of
//! nodes it can still reach (`reachable_within`), and for topology
//! statistics (weighted diameter, mean path weight).

use crate::graph::{NodeId, Topology};
use crate::links::LinkMap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; ties by node id for determinism.
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from `from` over `e_{i,j}` link weights (with constant `c`).
/// Unreachable nodes get `f64::INFINITY`.
pub fn dijkstra(topo: &Topology, links: &LinkMap, c: f64, from: NodeId) -> Vec<f64> {
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[from.idx()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: from });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.idx()] {
            continue;
        }
        done[u.idx()] = true;
        for (&v, &e) in topo.neighbors(u).iter().zip(topo.neighbor_edge_ids(u)) {
            let nd = d + links.get(e).weight(c);
            if nd < dist[v.idx()] {
                dist[v.idx()] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    dist
}

/// Nodes whose weighted distance from `from` is at most `budget` — the set
/// a load with flag headroom `budget/µ_k` could possibly reach (discrete
/// Corollary 3).
pub fn reachable_within(
    topo: &Topology,
    links: &LinkMap,
    c: f64,
    from: NodeId,
    budget: f64,
) -> Vec<NodeId> {
    dijkstra(topo, links, c, from)
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d <= budget)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// Weighted diameter: the largest finite pairwise distance; `None` when the
/// graph is disconnected or empty.
pub fn weighted_diameter(topo: &Topology, links: &LinkMap, c: f64) -> Option<f64> {
    let mut best: f64 = 0.0;
    if topo.node_count() == 0 {
        return None;
    }
    for u in topo.nodes() {
        let d = dijkstra(topo, links, c, u);
        for x in d {
            if x.is_infinite() {
                return None;
            }
            best = best.max(x);
        }
    }
    Some(best)
}

/// Mean weighted distance over all ordered pairs (excluding self-pairs);
/// `None` when disconnected or fewer than 2 nodes.
pub fn mean_path_weight(topo: &Topology, links: &LinkMap, c: f64) -> Option<f64> {
    let n = topo.node_count();
    if n < 2 {
        return None;
    }
    let mut sum = 0.0;
    for u in topo.nodes() {
        for (i, d) in dijkstra(topo, links, c, u).into_iter().enumerate() {
            if i as u32 != u.0 {
                if d.is_infinite() {
                    return None;
                }
                sum += d;
            }
        }
    }
    Some(sum / (n * (n - 1)) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkAttrs;

    fn unit_links(topo: &Topology) -> LinkMap {
        LinkMap::uniform(topo, LinkAttrs::default())
    }

    #[test]
    fn dijkstra_matches_bfs_on_unit_links() {
        let topo = Topology::torus(&[4, 4]);
        let links = unit_links(&topo);
        let d = dijkstra(&topo, &links, 1.0, NodeId(0));
        let bfs = topo.bfs_distances(NodeId(0));
        for (a, b) in d.iter().zip(bfs) {
            assert!((a - b as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn heavier_link_is_bypassed() {
        // Triangle 0-1-2 where the direct 0→2 link is very heavy: the
        // two-hop route wins.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut links = unit_links(&topo);
        let heavy = topo.edge_index(NodeId(0), NodeId(2)).unwrap();
        links.set(heavy, LinkAttrs { bandwidth: 0.1, distance: 5.0, fault_prob: 0.0 });
        let d = dijkstra(&topo, &links, 1.0, NodeId(0));
        assert!((d[2] - 2.0).abs() < 1e-12, "route should go via node 1: {}", d[2]);
    }

    #[test]
    fn reachable_within_budget() {
        let topo = Topology::mesh(&[5]);
        let links = unit_links(&topo);
        let r = reachable_within(&topo, &links, 1.0, NodeId(0), 2.0);
        assert_eq!(r, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let all = reachable_within(&topo, &links, 1.0, NodeId(0), 10.0);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn weighted_diameter_of_ring() {
        let topo = Topology::ring(6);
        let links = unit_links(&topo);
        assert_eq!(weighted_diameter(&topo, &links, 1.0), Some(3.0));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let topo = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        let links = unit_links(&topo);
        assert_eq!(weighted_diameter(&topo, &links, 1.0), None);
        assert_eq!(mean_path_weight(&topo, &links, 1.0), None);
    }

    #[test]
    fn mean_path_weight_of_complete_graph_is_one() {
        let topo = Topology::complete(5);
        let links = unit_links(&topo);
        assert!((mean_path_weight(&topo, &links, 1.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faulty_links_lengthen_paths() {
        let topo = Topology::ring(8);
        let clean = unit_links(&topo);
        let faulty =
            LinkMap::uniform(&topo, LinkAttrs { bandwidth: 1.0, distance: 1.0, fault_prob: 0.3 });
        let d_clean = weighted_diameter(&topo, &clean, 1.0).unwrap();
        let d_faulty = weighted_diameter(&topo, &faulty, 1.0).unwrap();
        assert!(d_faulty > d_clean);
    }
}
