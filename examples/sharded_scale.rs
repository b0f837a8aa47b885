//! Sharded tick pipeline at scale: run the same 4 096-node redistribution
//! sequentially (one shard) and sharded (32 row bands), prove the outcomes
//! are byte-identical, and show where the sharded engine's speed comes
//! from — after convergence, clean shards skip their decision sweeps
//! entirely (exact shard-level activity tracking: a change can only reach
//! its own shard and the shards owning a neighbour).
//!
//! Run with: `cargo run --release --example sharded_scale`

use particle_plane::prelude::*;
use std::time::Instant;

const SIDE: usize = 64;
const WARM_ROUNDS: u64 = 300;
const MEASURED_ROUNDS: u64 = 500;

fn engine(shards: usize) -> Engine {
    let topo = Topology::torus(&[SIDE, SIDE]);
    let n = topo.node_count();
    EngineBuilder::new(topo)
        .workload(Workload::uniform_random(n, 10.0, 7))
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .config(EngineConfig { shards, ..Default::default() })
        .seed(7)
        .build()
}

fn main() {
    println!("{SIDE}x{SIDE} torus ({} nodes), uniform-random redistribution\n", SIDE * SIDE);

    let mut results = Vec::new();
    for shards in [1usize, 32] {
        let mut e = engine(shards);
        let layout = e.shard_layout();
        e.run_rounds(WARM_ROUNDS); // converge past the migration burst
        let start = Instant::now();
        e.run_rounds(MEASURED_ROUNDS);
        let secs = start.elapsed().as_secs_f64().max(1e-12);
        e.drain(50.0);
        let stats = e.shard_stats();
        println!(
            "{layout}: {:>10.0} rounds/s steady-state, skip ratio {:.2}",
            MEASURED_ROUNDS as f64 / secs,
            stats.skip_ratio()
        );
        results.push(e.report());
    }

    let (seq, sharded) = (&results[0], &results[1]);
    assert_eq!(seq, sharded, "sharded run must be byte-identical to sequential");
    println!(
        "\noutcomes byte-identical: cov={:.4}, {} migration hops, {:.1} load moved",
        seq.final_imbalance.cov,
        seq.ledger.migration_count(),
        seq.ledger.total_load_moved()
    );

    // The partition itself is inspectable: contiguous row bands, and the
    // boundary nodes whose changes other shards can observe (what makes
    // skipping clean shards provably safe).
    let e = engine(32);
    let (p, layout) = (e.partition(), e.shard_layout());
    let (lo, hi) = p.range(0);
    println!(
        "partition: {} shards of {} nodes; shard 0 owns v{lo}..v{hi}; {} boundary nodes in all",
        p.shard_count(),
        p.len(0),
        layout.boundary_nodes
    );
}
