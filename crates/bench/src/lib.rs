//! # pp-bench — the experiment harness
//!
//! [`paper`] re-measures the paper's results as checked claims
//! (`cargo run --release -p pp-bench --bin lab -- paper`); the `lab`
//! binary also runs the scenario registry, and `bench_ticks` times the
//! sharded sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

use pp_sim::balancer::LoadBalancer;
use pp_sim::engine::{Engine, EngineBuilder, EngineConfig, RunReport};
use pp_tasking::workload::Workload;
use pp_topology::graph::Topology;
use pp_topology::links::LinkMap;

/// Builds and runs one simulation to completion (rounds + drain) and
/// returns the report.
pub fn run_once(
    topo: Topology,
    links: Option<LinkMap>,
    workload: Workload,
    balancer: Box<dyn LoadBalancer>,
    config: EngineConfig,
    rounds: u64,
    seed: u64,
) -> RunReport {
    let mut builder = EngineBuilder::new(topo)
        .workload(workload)
        .balancer_boxed(balancer)
        .config(config)
        .seed(seed);
    if let Some(l) = links {
        builder = builder.links(l);
    }
    let mut engine: Engine = builder.build();
    engine.run_rounds(rounds).drain(1000.0);
    engine.report()
}

/// Why a JSON artifact check failed: the file is absent/unreadable, or it
/// exists but does not parse. The distinction matters for CI diagnostics —
/// a parse error on a missing file sends people hunting for corruption
/// that is not there.
#[derive(Debug)]
pub enum CheckError {
    /// The path does not exist.
    NotFound(String),
    /// The path exists but cannot be read.
    Unreadable(String),
    /// The contents are not valid JSON.
    Invalid(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotFound(e) => write!(f, "NOT FOUND ({e})"),
            CheckError::Unreadable(e) => write!(f, "UNREADABLE ({e})"),
            CheckError::Invalid(e) => write!(f, "INVALID: {e}"),
        }
    }
}

/// Reads an artifact file, classifying the failure as missing vs
/// unreadable (the distinction [`CheckError`] exists for).
pub fn read_artifact(path: &str) -> Result<String, CheckError> {
    std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckError::NotFound(e.to_string())
        } else {
            CheckError::Unreadable(e.to_string())
        }
    })
}

/// Checks that `path` exists and parses as JSON, distinguishing a missing
/// file from a corrupt one.
pub fn check_json_file(path: &str) -> Result<(), CheckError> {
    let text = read_artifact(path)?;
    serde_json::from_str(&text).map(|_| ()).map_err(|e| CheckError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::balancer::ParticlePlaneBalancer;
    use pp_core::params::PhysicsConfig;

    #[test]
    fn run_once_produces_report() {
        let topo = Topology::torus(&[4, 4]);
        let w = Workload::hotspot(16, 0, 32.0);
        let r = run_once(
            topo,
            None,
            w,
            Box::new(ParticlePlaneBalancer::new(PhysicsConfig::default())),
            EngineConfig::default(),
            50,
            1,
        );
        assert_eq!(r.rounds, 50);
        assert!(r.final_imbalance.cov.is_finite());
    }

    #[test]
    fn check_json_file_distinguishes_failure_modes() {
        let dir = std::env::temp_dir().join("pp-bench-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("no-such-file.json");
        let _ = std::fs::remove_file(&missing);
        match check_json_file(missing.to_str().unwrap()) {
            Err(CheckError::NotFound(_)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }

        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{ not json").unwrap();
        match check_json_file(corrupt.to_str().unwrap()) {
            Err(CheckError::Invalid(e)) => assert!(e.contains("parse error"), "{e}"),
            other => panic!("expected Invalid, got {other:?}"),
        }

        let good = dir.join("good.json");
        std::fs::write(&good, r#"{"a": [1, 2.5], "b": null}"#).unwrap();
        assert!(check_json_file(good.to_str().unwrap()).is_ok());
    }
}
