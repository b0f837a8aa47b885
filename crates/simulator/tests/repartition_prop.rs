//! Property suite for adaptive online repartitioning (ADR-008), in two
//! layers:
//!
//! 1. **Policy properties** — for arbitrary load vectors,
//!    [`RepartitionPolicy`] must always produce a well-formed layout
//!    (exact cover of `0..n`, contiguous, no empty shard), must be a pure
//!    function of its inputs, and must never propose a layout that is
//!    worse-skewed than the one it replaces under the very weights it cut
//!    on.
//! 2. **Engine properties** — a mid-run repartition must be invisible in
//!    the report bytes: across execution layouts, across the tick/event
//!    strategies, and across a checkpoint/resume chain that interleaves
//!    with the repartition schedule.

use pp_sim::prelude::*;
use pp_tasking::workload::{ArrivalProcess, Workload};
use pp_topology::graph::Topology;
use pp_topology::partition::{Partition, RepartitionPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// Quiescence-stable greedy diffusion: moves one task toward the lowest
/// neighbour past a unit height gap. Deterministic per node view, so
/// shard-level skipping is live — exactly the regime repartitioning
/// optimizes — while staying independent of the policy crates.
struct GreedyDiffusion;

impl LoadBalancer for GreedyDiffusion {
    fn name(&self) -> &str {
        "greedy-diffusion"
    }

    fn decide(&self, view: &NodeView<'_>, _rng: &mut StdRng) -> Vec<MigrationIntent> {
        let Some(task) = view.tasks.first() else { return Vec::new() };
        let h = view.nbr_heights;
        let Some(k) = (0..h.len()).min_by(|&a, &b| h[a].total_cmp(&h[b])) else {
            return Vec::new();
        };
        if view.height - h[k] > 1.0 {
            vec![MigrationIntent { task: task.id, to: view.neighbors[k], flag: 0.0, heat: 0.0 }]
        } else {
            Vec::new()
        }
    }

    fn quiescence_stable(&self) -> bool {
        true
    }
}

/// Checks the structural invariants every proposed layout must satisfy:
/// starts at 0, ends at `n`, gap-free, and (for `n > 0`) no empty shard.
fn assert_well_formed(ranges: &[(u32, u32)], n: usize, k: usize) {
    assert_eq!(ranges.len(), k);
    assert_eq!(ranges[0].0, 0);
    assert_eq!(ranges[ranges.len() - 1].1 as usize, n);
    for (s, &(lo, hi)) in ranges.iter().enumerate() {
        assert!(lo < hi || n == 0, "shard {s} empty in {ranges:?}");
        if s > 0 {
            assert_eq!(ranges[s - 1].1, lo, "gap before shard {s}");
        }
    }
}

/// The per-node weight vector `rebalance` cuts on, reconstructed the
/// straightforward O(n) way: each shard's load spread uniformly over its
/// nodes, blended 50/50 with uniform mass (see the policy docs).
fn blended_weights(old: &Partition, loads: &[f64]) -> Vec<f64> {
    let n: usize = (0..old.shard_count()).map(|s| old.len(s)).sum();
    let clean = |l: f64| if l.is_finite() && l > 0.0 { l } else { 0.0 };
    let total: f64 = loads.iter().map(|&l| clean(l)).sum();
    let floor = total / n as f64;
    let mut w = vec![0.0f64; n];
    for (s, &load) in loads.iter().enumerate().take(old.shard_count()) {
        let (lo, hi) = old.range(s);
        let per_node = clean(load) / (hi - lo) as f64;
        for x in &mut w[lo as usize..hi as usize] {
            *x = per_node + floor;
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `split_weights` on arbitrary weights (including zero, negative and
    /// non-finite entries, which count as zero) always exactly covers
    /// `0..n` with `k` contiguous non-empty intervals, and twice the same
    /// input gives twice the same cut.
    #[test]
    fn split_weights_is_a_well_formed_pure_cut(
        weights in prop::collection::vec(-1.0f64..50.0, 1..=160),
        k in 1usize..=12,
    ) {
        let n = weights.len();
        let k = k.min(n);
        let a = RepartitionPolicy::split_weights(&weights, k);
        assert_well_formed(&a, n, k);
        let b = RepartitionPolicy::split_weights(&weights, k);
        prop_assert_eq!(a, b, "cut must be deterministic");
    }

    /// `rebalance` on arbitrary per-shard loads either declines or
    /// proposes a well-formed layout that (a) differs from the incumbent,
    /// (b) is reproducible, and (c) strictly improves the max/mean skew
    /// under the blended weights it cut on — the "never worse" guarantee
    /// the engine's fire path relies on.
    #[test]
    fn rebalance_never_proposes_a_worse_layout(
        n in 8usize..=96,
        k in 2usize..=8,
        seed_loads in prop::collection::vec(0.0f64..100.0, 8),
    ) {
        let topo = Topology::ring(n);
        let k = k.min(n);
        let old = Partition::new(&topo, k);
        let loads: Vec<f64> = (0..k).map(|s| seed_loads[s % seed_loads.len()]).collect();
        let Some(candidate) = RepartitionPolicy::rebalance(&old, &loads) else { return };
        assert_well_formed(&candidate, n, k);
        prop_assert_ne!(&candidate[..], old.ranges(), "a proposal must change the layout");
        prop_assert_eq!(
            Some(&candidate[..]),
            RepartitionPolicy::rebalance(&old, &loads).as_deref(),
            "rebalance must be deterministic"
        );
        let w = blended_weights(&old, &loads);
        let old_skew = RepartitionPolicy::range_skew(old.ranges(), &w);
        let new_skew = RepartitionPolicy::range_skew(&candidate, &w);
        // The policy compares piecewise-aggregated masses; summing the
        // expanded per-node weights associates differently, so allow
        // float-association slack on top of the 10% hysteresis margin.
        prop_assert!(
            new_skew <= old_skew * 0.9 * (1.0 + 1e-9) + 1e-9,
            "proposal skew {} vs incumbent {} (loads {:?})",
            new_skew, old_skew, loads
        );
    }
}

/// A 16×16 torus under a drifting hotspot — small enough for a prop-style
/// matrix sweep, busy enough that the adaptive knob actually fires.
fn hotspot_engine(
    shards: usize,
    threads: usize,
    strategy: SimulationStrategy,
    repartition: Option<RepartitionConfig>,
) -> Engine {
    let topo = Topology::torus(&[16, 16]);
    let n = topo.node_count();
    EngineBuilder::new(topo)
        .workload(Workload::from_loads(&vec![0.0; n], 1.0))
        .balancer(GreedyDiffusion)
        .config(EngineConfig {
            shards,
            threads,
            consume_rate: 0.0,
            arrival: ArrivalProcess::MovingHotspot { rate: 2.0, size: 1.0, dwell: 6.0, stride: 17 },
            repartition,
            strategy,
            ..Default::default()
        })
        .seed(99)
        .build()
}

const ADAPTIVE: Option<RepartitionConfig> =
    Some(RepartitionConfig { every: 2, skew_threshold: 1.2 });

#[test]
fn adaptive_reports_match_static_across_layouts_and_strategies() {
    for strategy in [SimulationStrategy::Tick, SimulationStrategy::Event] {
        let want = {
            let mut e = hotspot_engine(1, 1, strategy, None);
            e.run_rounds(60);
            e.report()
        };
        let mut fired_somewhere = false;
        for (k, t) in [(4usize, 1usize), (8, 2), (16, 4)] {
            let mut e = hotspot_engine(k, t, strategy, ADAPTIVE);
            e.run_rounds(60);
            fired_somewhere |= e.repartitions() > 0;
            assert_eq!(e.report(), want, "adaptive K={k} T={t} {strategy:?} diverged");
        }
        assert!(fired_somewhere, "{strategy:?}: the adaptive knob never fired");
    }
}

#[test]
fn checkpoint_resume_interleaves_with_repartitions_exactly() {
    // The run crosses a checkpoint boundary twice, each leg far enough to
    // repartition again after the restore, and the resumed engines change
    // both strategy and execution layout. Every chain must land on the
    // straight-through bytes.
    for strategy in [SimulationStrategy::Tick, SimulationStrategy::Event] {
        let want = {
            let mut e = hotspot_engine(8, 1, strategy, ADAPTIVE);
            e.run_rounds(60);
            assert!(e.repartitions() > 0, "straight run must repartition");
            e.report()
        };
        let mut a = hotspot_engine(8, 2, strategy, ADAPTIVE);
        a.run_rounds(25);
        let cp = Checkpoint::from_json(&a.checkpoint().to_json()).expect("round trip");
        let other = match strategy {
            SimulationStrategy::Tick => SimulationStrategy::Event,
            SimulationStrategy::Event => SimulationStrategy::Tick,
        };
        let mut b = hotspot_engine(8, 4, other, ADAPTIVE);
        b.restore(&cp).expect("restore leg 1");
        b.run_rounds(20);
        let cp = Checkpoint::from_json(&b.checkpoint().to_json()).expect("round trip");
        let mut c = hotspot_engine(8, 1, strategy, ADAPTIVE);
        c.restore(&cp).expect("restore leg 2");
        c.run_rounds(15);
        assert_eq!(c.report(), want, "{strategy:?}: chained resume diverged");
    }
}
