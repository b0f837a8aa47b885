//! The benchmark's workloads: registry scenarios grown or re-shaped to the
//! sizes the benchmark measures, with every seed derived from the one
//! workload seed the command line passes. The engine sees only the
//! generated [`ScenarioSpec`] (as JSON text, parsed during set-up).
//!
//! Runs are short (0.15–0.4 s a repetition on a 2-core host, set-up
//! aside), so one measuring window holds dozens of repetitions and the
//! fastest of them misses the stretches in which other tenants slow the
//! host (see `measure::end_to_end`).

use pp_core::jitter::FrictionJitter;
use pp_core::params::PhysicsConfig;
use pp_scenario::registry;
use pp_scenario::spec::{
    ArrivalSpec, BalancerSpec, CheckpointSpec, ChurnSpec, ScenarioSpec, WorkloadSpec,
};
use pp_topology::spec::TopologySpec;

/// Sweep worker threads every workload pins (never 0/auto, so a larger host
/// runs the same workload). One, not two: on a 2-core host two workers plus
/// the calling thread left no core free, and run-to-run spread rose from
/// 6–7% to 21–27% (see README.md). The reference runs use two.
pub const WORKERS: usize = 1;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["dense-sweep", "drifting-hotspot", "churn-checkpoint", "event-skip"];

/// Full size, or the miniature the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Same shapes, a few rounds on a small graph.
    Mini,
}

/// How a run's output is checked: against a reference run of the same spec
/// and seed that took a different path to the same report.
#[derive(Debug, Clone, Copy)]
pub enum Reference {
    /// A straight run under another `(shards, threads)` layout.
    Layout { shards: usize, threads: usize },
    /// A run split at round `at`, checkpointed to JSON, parsed and resumed
    /// in a fresh engine, under another `(shards, threads)` layout.
    SplitResume { at: u64, shards: usize, threads: usize },
}

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The workload's name.
    pub name: &'static str,
    /// The generated scenario.
    pub spec: ScenarioSpec,
    /// The output check's reference run.
    pub reference: Reference,
}

/// SplitMix64 finaliser: decorrelates sub-seeds drawn from one seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn registered(name: &str) -> ScenarioSpec {
    registry::by_name(name).unwrap_or_else(|| panic!("registry entry `{name}` is missing"))
}

/// Generates workload `name` from `seed`. `ckpt_dir` is where a
/// checkpointing workload writes its restart file.
pub fn generate(name: &str, seed: u64, scale: Scale, ckpt_dir: &str) -> Option<Workload> {
    let full = scale == Scale::Full;
    let master = mix(seed, 1);
    let load_seed = mix(seed, 2);
    let churn_seed = mix(seed, 3);
    let (name, mut spec, reference) = match name {
        // Every node decides every round: friction jitter draws per task per
        // round, so the policy is never quiescence-stable and no shard skips.
        // 64×64, not 256×256: on a host whose caches and memory bandwidth
        // other tenants share, the 65,536-node sweep's run time swung 2.2×
        // between runs where the 4,096-node sweep's swung 1.14×. 300
        // rounds take ~0.15 s.
        "dense-sweep" => {
            let side = if full { 64 } else { 32 };
            let mut s = registered("torus16k-sharded");
            s.topology = TopologySpec::Torus { dims: vec![side, side] };
            s.workload = WorkloadSpec::UniformRandom { max_per_node: 8.0, seed: load_seed };
            s.balancer = BalancerSpec::ParticlePlane {
                config: PhysicsConfig {
                    jitter: Some(FrictionJitter::new(0.3, 1.0, 1e9)),
                    ..PhysicsConfig::default()
                },
                arbiter: None,
                name: None,
            };
            s.engine.shards = if full { 16 } else { 8 };
            s.duration.rounds = if full { 300 } else { 4 };
            ("dense-sweep", s, Reference::Layout { shards: 64, threads: 2 })
        }
        // Per-round overhead: most shards quiescent, adaptive repartitioning
        // firing, and the ledger growing without bound. 250 rounds take
        // ~0.15 s and peak near 46 MB; at 3,000 rounds the ledger reached
        // 545 MB and the runs swung with the host's memory traffic.
        "drifting-hotspot" => {
            let mut s = registered("hotspot16k-adaptive");
            if !full {
                s.topology = TopologySpec::Torus { dims: vec![32, 32] };
                s.engine.shards = 8;
            }
            s.duration.rounds = if full { 250 } else { 40 };
            ("drifting-hotspot", s, Reference::Layout { shards: 32, threads: 2 })
        }
        // Write-heavy: churn, link and transfer faults, arrivals and the
        // consume sweep every round, and a checkpoint every 20 rounds: three
        // 9 MB checkpoints in 60 rounds, ~0.35 s.
        "churn-checkpoint" => {
            let side = if full { 64 } else { 16 };
            let mut s = registered("churn-faults");
            s.topology = TopologySpec::Torus { dims: vec![side, side] };
            if let WorkloadSpec::Bimodal { seed, .. } = &mut s.workload {
                *seed = load_seed;
            }
            if let ChurnSpec::Markov { seed, .. } = &mut s.churn {
                *seed = churn_seed;
            }
            s.arrival = ArrivalSpec::Poisson { rate: 40.0, size_min: 0.5, size_max: 1.5 };
            s.engine.consume_rate = 0.15;
            s.engine.shards = if full { 16 } else { 4 };
            s.duration.rounds = if full { 60 } else { 20 };
            let every = if full { 20 } else { 5 };
            s.checkpoint = Some(CheckpointSpec {
                every,
                path: format!("{ckpt_dir}/churn-checkpoint-{}.ckpt.json", std::process::id()),
            });
            let at = s.duration.rounds / 2;
            ("churn-checkpoint", s, Reference::SplitResume { at, shards: 8, threads: 2 })
        }
        // The event strategy's fast-forward over a long horizon. Not the
        // registry's 1,048,576 nodes: that 323 MB run spread 28.5% between
        // ten seeds while other tenants loaded the host, where the
        // 4,096-node sweep run minutes earlier spread 1.5%. 65,536 nodes
        // keep its 50,000 rounds. K=64, not the registry's 4,096-node
        // shards: the hotspot's spread wakes whole shards, so ten seeds'
        // decision counts spread 9.5% (IQR ÷ median) at K=16 and 3.2% at
        // K=64.
        "event-skip" => {
            let mut s = registered("torus1m-event");
            let side = if full { 256 } else { 64 };
            s.topology = TopologySpec::Torus { dims: vec![side, side] };
            s.engine.shards = if full { 64 } else { 16 };
            if !full {
                s.duration.rounds = 2000;
            }
            // The seed moves the hotspot by whole shard bands and along its
            // row (the second of its band), so every seed sees the same
            // shard pattern. The registry's 64 tasks stay (drawing 63, 64
            // or 65 tasks split the seeds into classes with different CoV
            // series and run times).
            let n = s.topology.node_count() as u64;
            let (k, side) = (s.engine.shards as u64, (n as f64).sqrt() as u64);
            if let WorkloadSpec::Hotspot { node, .. } = &mut s.workload {
                let band = load_seed % k;
                let col = (load_seed >> 16) % side;
                *node = (band * (n / k) + side + col) as usize;
            }
            ("event-skip", s, Reference::Layout { shards: 16, threads: 2 })
        }
        _ => return None,
    };
    spec.name = name.to_string();
    spec.description = format!("perfbench workload `{name}`, seed {seed}");
    spec.engine.threads = WORKERS;
    spec.seed = master;
    Some(Workload { name, spec, reference })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_validates_at_both_scales() {
        for scale in [Scale::Full, Scale::Mini] {
            for name in NAMES {
                let w = generate(name, 7, scale, "ckpt").expect("known workload");
                w.spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(w.spec.engine.threads, WORKERS);
            }
        }
        assert!(generate("no-such-workload", 7, Scale::Full, "ckpt").is_none());
    }

    #[test]
    fn seeds_derive_from_the_workload_seed() {
        let a = generate("churn-checkpoint", 1, Scale::Full, "ckpt").unwrap().spec;
        let b = generate("churn-checkpoint", 1, Scale::Full, "ckpt").unwrap().spec;
        let c = generate("churn-checkpoint", 2, Scale::Full, "ckpt").unwrap().spec;
        assert_eq!(a, b);
        assert_ne!(a.seed, c.seed);
        assert_ne!(a.churn, c.churn);
        assert_ne!(a.workload, c.workload);
    }
}
