//! The traffic ledger: every migration's cost, and the paper's *heat ≡
//! traffic* analogy (§4.1) made measurable.
//!
//! Heat in the physical model is `E_h = g·µ_k·e_{i,j}·l` per hop; network
//! traffic is the bytes (load units) moved times the hops (link weight)
//! used. The ledger records both so experiment `exp10` can correlate them.

use std::sync::Arc;

/// One recorded migration hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// Simulation time the hop completed.
    pub time: f64,
    /// Source node index.
    pub from: u32,
    /// Destination node index.
    pub to: u32,
    /// Load quantity moved (the object's mass).
    pub size: f64,
    /// Link weight `e_{i,j}` of the hop.
    pub link_weight: f64,
    /// Predicted heat `E_h = g·µ_k·e·l` charged by the balancer for this hop
    /// (0 for balancers without an energy model).
    pub heat: f64,
    /// Whether the transfer had to be retried due to a link fault.
    pub faulted: bool,
}

/// Accumulated migration/traffic statistics.
///
/// The record list is copy-on-write: cloning a ledger (as every engine
/// report does) shares it, and the next [`TrafficLedger::record`] on a
/// ledger whose list is shared copies it once before appending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficLedger {
    records: Arc<Vec<MigrationRecord>>,
    total_load_moved: f64,
    total_weighted_traffic: f64,
    total_heat: f64,
    fault_count: usize,
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// Records one migration hop.
    pub fn record(&mut self, rec: MigrationRecord) {
        self.total_load_moved += rec.size;
        self.total_weighted_traffic += rec.size * rec.link_weight;
        self.total_heat += rec.heat;
        if rec.faulted {
            self.fault_count += 1;
        }
        Arc::make_mut(&mut self.records).push(rec);
    }

    /// Number of migration hops.
    pub fn migration_count(&self) -> usize {
        self.records.len()
    }

    /// Total load quantity moved (sum of sizes; a load migrating twice
    /// counts twice — it occupied the network twice).
    pub fn total_load_moved(&self) -> f64 {
        self.total_load_moved
    }

    /// Traffic in load·weight units: `Σ size·e_{i,j}` — the measured
    /// quantity the paper equates with heat.
    pub fn total_weighted_traffic(&self) -> f64 {
        self.total_weighted_traffic
    }

    /// Total predicted heat `Σ E_h` charged by the balancer.
    pub fn total_heat(&self) -> f64 {
        self.total_heat
    }

    /// Number of hops that encountered a link fault.
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// All records, in arrival order.
    pub fn records(&self) -> &[MigrationRecord] {
        &self.records
    }

    /// Pearson correlation between per-record heat and weighted traffic;
    /// `None` if fewer than two records or zero variance. Experiment `exp10`
    /// expects this to be ≈ 1 for the particle-plane balancer.
    pub fn heat_traffic_correlation(&self) -> Option<f64> {
        let n = self.records.len();
        if n < 2 {
            return None;
        }
        let xs: Vec<f64> = self.records.iter().map(|r| r.heat).collect();
        let ys: Vec<f64> = self.records.iter().map(|r| r.size * r.link_weight).collect();
        pearson(&xs, &ys)
    }
}

/// Pearson correlation of two equal-length samples; `None` on zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "sample size mismatch");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: f64, weight: f64, heat: f64) -> MigrationRecord {
        MigrationRecord {
            time: 0.0,
            from: 0,
            to: 1,
            size,
            link_weight: weight,
            heat,
            faulted: false,
        }
    }

    #[test]
    fn empty_ledger() {
        let l = TrafficLedger::new();
        assert_eq!(l.migration_count(), 0);
        assert_eq!(l.total_load_moved(), 0.0);
        assert_eq!(l.heat_traffic_correlation(), None);
    }

    #[test]
    fn totals_accumulate() {
        let mut l = TrafficLedger::new();
        l.record(rec(2.0, 3.0, 1.0));
        l.record(rec(1.0, 1.0, 0.5));
        assert_eq!(l.migration_count(), 2);
        assert_eq!(l.total_load_moved(), 3.0);
        assert_eq!(l.total_weighted_traffic(), 7.0);
        assert_eq!(l.total_heat(), 1.5);
    }

    #[test]
    fn clone_is_unaffected_by_later_records() {
        let mut l = TrafficLedger::new();
        l.record(rec(2.0, 3.0, 1.0));
        let snap = l.clone();
        assert!(std::ptr::eq(snap.records(), l.records()), "a clone shares the records");
        l.record(MigrationRecord { faulted: true, ..rec(1.0, 1.0, 0.5) });
        // The clone keeps its one record and its totals.
        assert_eq!(snap.records(), &[rec(2.0, 3.0, 1.0)]);
        assert_eq!(snap.migration_count(), 1);
        assert_eq!((snap.total_load_moved(), snap.fault_count()), (2.0, 0));
        // The original carries on with both.
        assert_eq!(l.migration_count(), 2);
        assert_eq!(l.records()[..1], snap.records()[..]);
        assert_eq!((l.total_load_moved(), l.fault_count()), (3.0, 1));
        assert_ne!(l, snap);
    }

    #[test]
    fn fault_counting() {
        let mut l = TrafficLedger::new();
        l.record(MigrationRecord { faulted: true, ..rec(1.0, 1.0, 0.0) });
        l.record(rec(1.0, 1.0, 0.0));
        assert_eq!(l.fault_count(), 1);
    }

    #[test]
    fn perfect_correlation_when_heat_proportional() {
        let mut l = TrafficLedger::new();
        // heat = 0.1·size·weight for every record ⇒ correlation 1.
        for (s, w) in [(1.0, 1.0), (2.0, 1.5), (0.5, 3.0), (4.0, 0.25)] {
            l.record(rec(s, w, 0.1 * s * w));
        }
        let c = l.heat_traffic_correlation().unwrap();
        assert!((c - 1.0).abs() < 1e-12, "correlation {c}");
    }

    #[test]
    fn anticorrelation_detected() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_gives_none() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&xs, &ys), None);
    }
}
