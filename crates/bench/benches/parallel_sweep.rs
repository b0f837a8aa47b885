//! The parallel sweep runner `par_map` (E12 substrate): wall-clock scaling of
//! `par_map` over independent simulations, 1 thread vs all cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_bench::run_once;
use pp_core::balancer::ParticlePlaneBalancer;
use pp_core::params::PhysicsConfig;
use pp_sim::engine::EngineConfig;
use pp_sim::parallel::par_map;
use pp_tasking::workload::Workload;
use pp_topology::graph::Topology;

fn sweep(threads: usize) -> f64 {
    let seeds: Vec<u64> = (0..16).collect();
    let results = par_map(seeds, threads, |seed| {
        let topo = Topology::torus(&[8, 8]);
        let w = Workload::hotspot(64, (seed % 64) as usize, 96.0);
        run_once(
            topo,
            None,
            w,
            Box::new(ParticlePlaneBalancer::new(PhysicsConfig::default())),
            EngineConfig::default(),
            60,
            seed,
        )
        .final_imbalance
        .cov
    });
    results.iter().sum()
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_sweep_16_sims");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    for threads in [1usize, 0] {
        let label = if threads == 1 { "1-thread" } else { "all-cores" };
        group.bench_function(BenchmarkId::from_parameter(label), |b| b.iter(|| sweep(threads)));
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
