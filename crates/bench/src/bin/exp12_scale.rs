//! E12 — scalability: network sizes from 16 to 1024 nodes on square tori;
//! rounds-to-balance, wall time per round, and traffic per node. Sizes run
//! concurrently through the `par_map` sweep runner; each size is the same
//! [`ScenarioSpec`] with a different torus extent.

use pp_bench::{banner, dump_json, initial_cov};
use pp_metrics::summary::{fmt, TextTable};
use pp_scenario::spec::{DurationSpec, ScenarioSpec, WorkloadSpec};
use pp_sim::parallel::par_map;
use pp_topology::spec::TopologySpec;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    nodes: usize,
    initial_cov: f64,
    final_cov: f64,
    rounds_to_05: Option<f64>,
    wall_ms_per_round: f64,
    traffic_per_node: f64,
}

fn main() {
    banner("E12", "scalability sweep", "implied by the multiprocessor setting");
    let sides = vec![4usize, 8, 12, 16, 24, 32];
    let rounds = 500u64;

    let rows: Vec<Row> = par_map(sides, 0, |side| {
        let spec = ScenarioSpec {
            name: format!("e12-torus-{side}x{side}"),
            topology: TopologySpec::Torus { dims: vec![side, side] },
            // Same per-node mean everywhere: bimodal 25% hot.
            workload: WorkloadSpec::Bimodal { fraction: 0.25, high: 8.0, low: 1.0, seed: 7 },
            duration: DurationSpec { rounds, drain: 1000.0 },
            seed: 13,
            ..ScenarioSpec::default()
        };
        let n = spec.topology.node_count();
        let init = initial_cov(&spec.workload.build(n));
        let start = Instant::now();
        let r = spec.run().expect("valid scenario");
        let wall = start.elapsed().as_secs_f64() * 1000.0;
        Row {
            nodes: n,
            initial_cov: init,
            final_cov: r.final_imbalance.cov,
            rounds_to_05: r.converged_round(0.5, 3),
            wall_ms_per_round: wall / rounds as f64,
            traffic_per_node: r.ledger.total_weighted_traffic() / n as f64,
        }
    });

    let mut table = TextTable::new(vec![
        "nodes",
        "CoV₀",
        "CoV final",
        "t(CoV≤0.5)",
        "ms/round",
        "traffic/node",
    ]);
    for r in &rows {
        table.row(vec![
            r.nodes.to_string(),
            fmt(r.initial_cov, 2),
            fmt(r.final_cov, 3),
            r.rounds_to_05.map(|t| fmt(t, 0)).unwrap_or_else(|| "-".into()),
            fmt(r.wall_ms_per_round, 3),
            fmt(r.traffic_per_node, 1),
        ]);
    }
    println!("{}", table.render());

    // Shape: the scheme is local, so per-node traffic and balance quality
    // stay roughly flat as the network grows (bimodal workloads have no
    // global gradient to collapse).
    for r in &rows {
        assert!(r.final_cov < 0.7 * r.initial_cov, "n={}: {}", r.nodes, r.final_cov);
    }
    let t_small = rows.first().unwrap().traffic_per_node;
    let t_large = rows.last().unwrap().traffic_per_node;
    assert!(
        t_large < 4.0 * t_small + 10.0,
        "per-node traffic should not blow up with size: {t_small} -> {t_large}"
    );
    println!("\nLocal scheme: per-node cost stays flat while the network grows 64×.");
    dump_json("exp12_scale", &rows);
}
