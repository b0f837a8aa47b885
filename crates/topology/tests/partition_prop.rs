//! Property tests for the shard partitioner: for *any* topology and any
//! requested shard count, every node lands in exactly one shard, shard
//! sizes stay within ±1 of balanced, and the whole layout is a
//! deterministic function of (topology, K).

use pp_topology::graph::{NodeId, Topology};
use pp_topology::partition::Partition;
use proptest::prelude::*;

/// One family of test topologies per selector, sized by `n`.
fn build_topology(family: u8, n: usize, seed: u64) -> Topology {
    match family % 4 {
        0 => Topology::ring(n.max(3)),
        1 => Topology::torus(&[n.clamp(2, 12), 3]),
        2 => Topology::random(n.max(2), 0.2, seed),
        _ => {
            // A path with a few random chords: irregular degrees.
            let n = n.max(2);
            let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            let mut x = seed | 1;
            for _ in 0..n / 3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = (x >> 33) as u32 % n as u32;
                let b = (x >> 13) as u32 % n as u32;
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            Topology::from_edges(n, &edges)
        }
    }
}

fn check_partition(topo: &Topology, k: usize) {
    let p = Partition::new(topo, k);
    let n = topo.node_count();
    let k_eff = p.shard_count();
    prop_assert_eq!(k_eff, k.clamp(1, n.max(1)));

    // 1. Every node is in exactly one shard, ranges tile 0..n.
    let mut covered = 0usize;
    let mut next = 0u32;
    for s in 0..k_eff {
        let (lo, hi) = p.range(s);
        prop_assert_eq!(lo, next, "ranges must be contiguous");
        prop_assert!(hi >= lo);
        next = hi;
        covered += (hi - lo) as usize;
        for v in lo..hi {
            prop_assert_eq!(p.shard_of(NodeId(v)), s);
        }
    }
    prop_assert_eq!(covered, n);

    // 2. Balanced within ±1.
    if n > 0 {
        let sizes: Vec<usize> = (0..k_eff).map(|s| p.len(s)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "sizes {sizes:?} not within ±1");
    }

    // 3. Deterministic: a second build is identical in every observable.
    let q = Partition::new(topo, k);
    prop_assert_eq!(p.ranges(), q.ranges());
    for v in topo.nodes() {
        prop_assert_eq!(p.shard_of(v), q.shard_of(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_invariants_hold(
        family in 0u8..4,
        n in 2usize..48,
        k in 1usize..60,
        seed in 0u64..1000,
    ) {
        let topo = build_topology(family, n, seed);
        check_partition(&topo, k);
    }

    #[test]
    fn torus_partitions_stay_banded(side in 2usize..10, k in 1usize..12) {
        // On a row-major torus every shard is a band of consecutive rows
        // (plus a partial row).
        let topo = Topology::torus(&[side, side]);
        check_partition(&topo, k);
        let p = Partition::new(&topo, k);
        for s in 0..p.shard_count() {
            let (lo, hi) = p.range(s);
            for v in lo..hi {
                let row = v as usize / side;
                let first_row = lo as usize / side;
                let last_row = (hi as usize - 1) / side;
                prop_assert!((first_row..=last_row).contains(&row));
            }
        }
    }
}
