//! The §6 tuning story: the framework is configured for a concrete system
//! by "fine-tuning the configuration parameters". This example sweeps the
//! friction scale over a heterogeneous cluster (zipf task sizes, random
//! link attributes) with the `par_map` sweep runner and prints the
//! balance-versus-traffic frontier that the operator picks from. The
//! cluster is one declarative scenario; the sweep rewrites only the
//! balancer's `mu_s_base`.
//!
//! Run with: `cargo run --release --example tuning_sweep`

use particle_plane::prelude::*;
use particle_plane::sim::parallel::par_map;

struct Point {
    mu_base: f64,
    final_cov: f64,
    traffic: f64,
    hops: usize,
}

fn main() {
    let sweep: Vec<f64> = vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let points: Vec<Point> = par_map(sweep, 0, |mu_base| {
        // Many small heavy-tailed tasks: sizes in [0.125, 1], mean node
        // height ≈ 2.9 — atomic sizes stay below the −2l threshold scale so
        // friction, not granularity, is the knob under test.
        let spec = ScenarioSpec {
            name: format!("tuning-mu{mu_base}"),
            topology: TopologySpec::Torus { dims: vec![8, 8] },
            links: LinkSpec::Random { seed: 21, bw: (0.5, 2.0), d: (0.5, 2.0), f_max: 0.02 },
            workload: WorkloadSpec::Zipf { count: 1024, base: 1.0, skew: 0.3, seed: 21 },
            balancer: BalancerSpec::ParticlePlane {
                config: PhysicsConfig { mu_s_base: mu_base, ..PhysicsConfig::default() },
                arbiter: None,
                name: None,
            },
            duration: DurationSpec { rounds: 300, drain: 500.0 },
            seed: 21,
            ..ScenarioSpec::default()
        };
        let r = spec.run().expect("valid scenario");
        Point {
            mu_base,
            final_cov: r.final_imbalance.cov,
            traffic: r.ledger.total_weighted_traffic(),
            hops: r.ledger.migration_count(),
        }
    });

    let mut table = TextTable::new(vec!["µ_s base", "final CoV", "traffic", "hops"]);
    for p in &points {
        table.row(vec![
            fmt(p.mu_base, 2),
            fmt(p.final_cov, 3),
            fmt(p.traffic, 0),
            p.hops.to_string(),
        ]);
    }
    println!("8×8 torus, 256 zipf tasks, heterogeneous faulty links:\n");
    println!("{}", table.render());
    println!("Low friction buys balance with traffic; high friction buys quiet with");
    println!("imbalance — the µ knob is the paper's stability/quality dial.");

    // The frontier must be monotone in the expected directions at its ends.
    let first = points.first().unwrap();
    let last = points.last().unwrap();
    assert!(last.traffic < first.traffic, "more friction ⇒ less traffic");
    assert!(last.final_cov > first.final_cov, "more friction ⇒ worse balance");
}
