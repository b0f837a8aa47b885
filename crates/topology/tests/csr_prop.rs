//! The counting-sort CSR constructor against a `BTreeSet` adjacency
//! reference: for any edge list (duplicates, self-loops and both directions
//! included) and for every grid and hypercube generator, the CSR offsets,
//! neighbour lists, slot edge ids and edge list match what sorted sets
//! give.

use pp_topology::graph::{EdgeId, NodeId, Topology};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Asserts that `t` is the simple undirected graph on `n` nodes spanned by
/// `edges`, with edge ids in `(u, v)`, `u < v` order.
fn assert_matches_reference(t: &Topology, n: usize, edges: &[(u32, u32)]) {
    let mut adj = vec![BTreeSet::new(); n];
    for &(u, v) in edges {
        if u != v {
            adj[u as usize].insert(v);
            adj[v as usize].insert(u);
        }
    }
    let mut ids = BTreeMap::new();
    for (u, list) in adj.iter().enumerate() {
        for &v in list.range(u as u32 + 1..) {
            ids.insert((u as u32, v), EdgeId(ids.len() as u32));
        }
    }
    assert_eq!(t.node_count(), n);
    assert_eq!(t.edge_count(), ids.len());
    let want_edges: Vec<(NodeId, NodeId)> =
        ids.keys().map(|&(u, v)| (NodeId(u), NodeId(v))).collect();
    assert_eq!(t.edge_slice(), &want_edges[..]);
    // The offsets are the running degree sums, so equal slices node by node
    // mean equal offsets.
    for (u, list) in adj.iter().enumerate() {
        let node = NodeId(u as u32);
        let want: Vec<NodeId> = list.iter().map(|&v| NodeId(v)).collect();
        assert_eq!(t.neighbors(node), &want[..], "neighbours of {node}");
        let want_ids: Vec<EdgeId> =
            list.iter().map(|&v| ids[&(v.min(u as u32), v.max(u as u32))]).collect();
        assert_eq!(t.neighbor_edge_ids(node), &want_ids[..], "edge ids of {node}");
    }
}

/// Grid links by coordinates: each node links to its `+1` neighbour on
/// every axis, and with `wrap` the last coordinate wraps to 0 from extent 3.
fn grid_reference(dims: &[usize], wrap: bool) -> Vec<(u32, u32)> {
    let n: usize = dims.iter().product();
    let index = |c: &[usize]| c.iter().zip(dims).fold(0, |i, (c, d)| i * d + c) as u32;
    let mut edges = Vec::new();
    for u in 0..n {
        let mut coords = vec![0; dims.len()];
        let mut rest = u;
        for axis in (0..dims.len()).rev() {
            coords[axis] = rest % dims[axis];
            rest /= dims[axis];
        }
        for (axis, &extent) in dims.iter().enumerate() {
            let mut next = coords.clone();
            if coords[axis] + 1 < extent {
                next[axis] += 1;
            } else if wrap && extent > 2 {
                next[axis] = 0;
            } else {
                continue;
            }
            edges.push((u as u32, index(&next)));
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_edges_matches_btreeset_reference(
        n in 1usize..40,
        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        // Fold endpoints into range; small n makes duplicates, reversed
        // pairs and self-loops common.
        let edges: Vec<(u32, u32)> = raw.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
        let t = Topology::from_edges(n, &edges);
        assert_matches_reference(&t, n, &edges);
        // Every edge doubled and reversed builds the same graph.
        let doubled: Vec<(u32, u32)> =
            edges.iter().flat_map(|&(u, v)| [(v, u), (u, v)]).collect();
        let d = Topology::from_edges(n, &doubled);
        prop_assert_eq!(d.edge_slice(), t.edge_slice());
    }
}

#[test]
fn grids_match_the_coordinate_reference() {
    let mut shapes: Vec<Vec<usize>> = vec![vec![1], vec![2], vec![3], vec![5]];
    for a in 1..=3 {
        for b in 1..=3 {
            shapes.push(vec![a, b]);
        }
    }
    shapes.extend([vec![3, 2, 3], vec![2, 1, 4], vec![4, 3, 5]]);
    for dims in &shapes {
        let n = dims.iter().product();
        assert_matches_reference(&Topology::mesh(dims), n, &grid_reference(dims, false));
        assert_matches_reference(&Topology::torus(dims), n, &grid_reference(dims, true));
    }
}

#[test]
fn hypercubes_match_the_bit_flip_reference() {
    for dim in 0..=4 {
        let n = 1usize << dim;
        let edges: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|u| (0..dim).map(move |b| (u, u ^ (1 << b)))).collect();
        assert_matches_reference(&Topology::hypercube(dim), n, &edges);
    }
}
