//! The golden report: a deterministic, byte-stable JSON rendering of a
//! scenario run. Two runs of the same spec must produce byte-identical
//! golden reports (floats render value-exactly via the vendored writer),
//! which is what the CI scenario matrix asserts; a pinned subset is
//! committed under `golden/` and diffed on every push.

use pp_sim::engine::RunReport;
use serde_json::Writer;
use std::io;

/// Everything observable about a finished run, flattened for JSON. Field
/// order is fixed — the report is compared byte-for-byte. `shard_layout` is
/// *omitted* (not `null`) when the scenario does not request explicit
/// sharding, keeping default-layout goldens byte-identical to those emitted
/// before the field existed.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenReport {
    /// Scenario name.
    pub scenario: String,
    /// Policy display name.
    pub balancer: String,
    /// Master seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Balance rounds executed.
    pub rounds: u64,
    /// Final simulation time.
    pub time: f64,
    /// Final coefficient of variation of the height map.
    pub final_cov: f64,
    /// Final mean height.
    pub final_mean: f64,
    /// Final max−min height spread.
    pub final_spread: f64,
    /// Migration hops recorded.
    pub migrations: usize,
    /// Total load moved across links.
    pub load_moved: f64,
    /// Σ size·e_{i,j} over all hops.
    pub weighted_traffic: f64,
    /// Σ E_h billed by the energy model.
    pub heat: f64,
    /// Hops that hit at least one link fault.
    pub hop_faults: usize,
    /// Resident load at the end.
    pub total_load: f64,
    /// Load still in flight at the end.
    pub in_flight_load: f64,
    /// Tasks completed by work consumption.
    pub completed_tasks: usize,
    /// The shard layout, when the scenario requests explicit sharding
    /// (`engine.shards ≥ 2`): `"shards=K boundary=B"`. `None` (and absent
    /// from the JSON) otherwise. Machine-independent: derived from the
    /// spec's shard count and the topology, never from the core count.
    pub shard_layout: Option<String>,
    /// The full CoV time series, `(time, cov)` per sample.
    pub cov_series: Vec<(f64, f64)>,
}

impl GoldenReport {
    /// Flattens a [`RunReport`].
    pub fn from_run(scenario: &str, seed: u64, nodes: usize, r: &RunReport) -> GoldenReport {
        GoldenReport {
            scenario: scenario.to_string(),
            balancer: r.balancer.clone(),
            seed,
            nodes,
            rounds: r.rounds,
            time: r.time,
            final_cov: r.final_imbalance.cov,
            final_mean: r.final_imbalance.mean,
            final_spread: r.final_imbalance.spread,
            migrations: r.ledger.migration_count(),
            load_moved: r.ledger.total_load_moved(),
            weighted_traffic: r.ledger.total_weighted_traffic(),
            heat: r.ledger.total_heat(),
            hop_faults: r.ledger.fault_count(),
            total_load: r.total_load,
            in_flight_load: r.in_flight_load,
            completed_tasks: r.completed_tasks,
            shard_layout: None,
            cov_series: r.series.points().to_vec(),
        }
    }

    /// Attaches shard-layout metadata (`"shards=K boundary=B"`). Only
    /// called for scenarios whose spec requests `engine.shards ≥ 2`.
    pub fn with_shard_layout(mut self, layout: String) -> GoldenReport {
        self.shard_layout = Some(layout);
        self
    }

    /// The canonical byte-stable rendering (pretty JSON + trailing
    /// newline, so committed files diff cleanly), streamed field by field
    /// through the JSON writer without building a value tree.
    pub fn to_canonical_json(&self) -> String {
        // A pretty series point takes about 60 bytes.
        let mut w = Writer::pretty(Vec::with_capacity(1024 + 64 * self.cov_series.len()));
        self.write(&mut w).expect("writing to a Vec cannot fail");
        let mut bytes = w.into_inner();
        bytes.push(b'\n');
        String::from_utf8(bytes).expect("the writer emits UTF-8")
    }

    fn write<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.begin_object()?;
        w.field("scenario", self.scenario.as_str())?;
        w.field("balancer", self.balancer.as_str())?;
        w.field("seed", self.seed)?;
        w.field("nodes", self.nodes)?;
        w.field("rounds", self.rounds)?;
        w.field("time", self.time)?;
        w.field("final_cov", self.final_cov)?;
        w.field("final_mean", self.final_mean)?;
        w.field("final_spread", self.final_spread)?;
        w.field("migrations", self.migrations)?;
        w.field("load_moved", self.load_moved)?;
        w.field("weighted_traffic", self.weighted_traffic)?;
        w.field("heat", self.heat)?;
        w.field("hop_faults", self.hop_faults)?;
        w.field("total_load", self.total_load)?;
        w.field("in_flight_load", self.in_flight_load)?;
        w.field("completed_tasks", self.completed_tasks)?;
        if let Some(layout) = &self.shard_layout {
            w.field("shard_layout", layout.as_str())?;
        }
        w.key("cov_series")?;
        w.begin_array()?;
        for &(time, cov) in &self.cov_series {
            w.scalars([time, cov])?;
        }
        w.end_array()?;
        w.end_object()
    }

    /// Checks that `text` parses as a golden report: valid JSON carrying
    /// every required field with the right shape. Returns the scenario
    /// name.
    pub fn check_text(text: &str) -> Result<String, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let name: String = v.field("scenario")?;
        for key in
            ["balancer", "rounds", "time", "final_cov", "migrations", "total_load", "cov_series"]
        {
            if v.get(key).is_none() {
                return Err(format!("missing field `{key}`"));
            }
        }
        let _: Vec<(f64, f64)> = v.field("cov_series")?;
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn golden_report_is_byte_deterministic() {
        let spec = registry::by_name("hotspot-torus").expect("registered").smoke(5, 20.0);
        let a = spec.run().expect("run");
        let b = spec.run().expect("run");
        let ga = GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), &a);
        let gb = GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), &b);
        assert_eq!(ga, gb);
        assert_eq!(ga.to_canonical_json(), gb.to_canonical_json());
    }

    #[test]
    fn shard_layout_field_omitted_unless_set() {
        let spec = registry::by_name("hotspot-torus").expect("registered").smoke(3, 10.0);
        let r = spec.run().expect("run");
        let plain = GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), &r);
        assert!(!plain.to_canonical_json().contains("shard_layout"));
        let tagged = plain.clone().with_shard_layout("shards=4 boundary=32".into());
        let text = tagged.to_canonical_json();
        assert!(text.contains("\"shard_layout\": \"shards=4 boundary=32\""));
        // Metadata rides along without disturbing the checker.
        assert_eq!(GoldenReport::check_text(&text).expect("checks"), "hotspot-torus");
    }

    #[test]
    fn streamed_json_matches_the_value_tree_rendering() {
        use serde::{Serialize, Value};
        let tree = |g: &GoldenReport| {
            let mut entries = vec![
                ("scenario".to_string(), g.scenario.to_value()),
                ("balancer".to_string(), g.balancer.to_value()),
                ("seed".to_string(), g.seed.to_value()),
                ("nodes".to_string(), g.nodes.to_value()),
                ("rounds".to_string(), g.rounds.to_value()),
                ("time".to_string(), g.time.to_value()),
                ("final_cov".to_string(), g.final_cov.to_value()),
                ("final_mean".to_string(), g.final_mean.to_value()),
                ("final_spread".to_string(), g.final_spread.to_value()),
                ("migrations".to_string(), g.migrations.to_value()),
                ("load_moved".to_string(), g.load_moved.to_value()),
                ("weighted_traffic".to_string(), g.weighted_traffic.to_value()),
                ("heat".to_string(), g.heat.to_value()),
                ("hop_faults".to_string(), g.hop_faults.to_value()),
                ("total_load".to_string(), g.total_load.to_value()),
                ("in_flight_load".to_string(), g.in_flight_load.to_value()),
                ("completed_tasks".to_string(), g.completed_tasks.to_value()),
            ];
            if let Some(layout) = &g.shard_layout {
                entries.push(("shard_layout".to_string(), layout.to_value()));
            }
            entries.push(("cov_series".to_string(), g.cov_series.to_value()));
            serde_json::to_string_pretty(&Value::Object(entries)).unwrap() + "\n"
        };
        let spec = registry::by_name("hotspot-torus").expect("registered").smoke(4, 10.0);
        let r = spec.run().expect("run");
        let mut g = GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), &r);
        g.final_spread = f64::NAN;
        g.scenario = "quote \" and tab \t".into();
        assert_eq!(g.to_canonical_json(), tree(&g));
        let tagged = g.clone().with_shard_layout("shards=2 boundary=8".into());
        assert_eq!(tagged.to_canonical_json(), tree(&tagged));
        g.cov_series.clear();
        assert_eq!(g.to_canonical_json(), tree(&g));
    }

    #[test]
    fn canonical_json_round_checks() {
        let spec = registry::by_name("hotspot-torus").expect("registered").smoke(3, 10.0);
        let r = spec.run().expect("run");
        let g = GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), &r);
        let text = g.to_canonical_json();
        assert_eq!(GoldenReport::check_text(&text).expect("checks"), "hotspot-torus");
        assert!(GoldenReport::check_text("{}").is_err());
        assert!(GoldenReport::check_text("not json").is_err());
    }
}
