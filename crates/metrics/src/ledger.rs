//! The traffic ledger: every migration's cost, and the paper's *heat ≡
//! traffic* analogy (§4.1) made measurable.
//!
//! Heat in the physical model is `E_h = g·µ_k·e_{i,j}·l` per hop; network
//! traffic is the bytes (load units) moved times the hops (link weight)
//! used. The ledger folds both into running state so claim E10 of `lab
//! paper` can correlate them.
//!
//! The ledger is O(1) in the hops recorded: running totals, a hop count,
//! an order-sensitive digest of every record's bits (so two runs whose
//! hops differ anywhere have different ledgers), and Welford co-moments of
//! heat against weighted traffic (so the correlation needs no history).
//! Its [`LedgerState`] is what a checkpoint stores.

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

/// Everything a [`TrafficLedger`] holds, field by field: the values a
/// checkpoint stores and restores verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerState {
    /// Hops recorded.
    pub count: usize,
    /// Hops that encountered a link fault.
    pub faults: usize,
    /// `Σ size`.
    pub load_moved: f64,
    /// `Σ size·e_{i,j}`.
    pub weighted_traffic: f64,
    /// `Σ E_h`.
    pub heat: f64,
    /// Order-sensitive digest of every record's fields, by their bits.
    pub digest: u64,
    /// Running mean of the per-hop heat.
    pub mean_heat: f64,
    /// Running mean of the per-hop weighted traffic `size·e_{i,j}`.
    pub mean_traffic: f64,
    /// Sum of squared deviations of the heat from its mean.
    pub m2_heat: f64,
    /// Sum of squared deviations of the traffic from its mean.
    pub m2_traffic: f64,
    /// Sum of the products of the heat's and the traffic's deviations.
    pub co_moment: f64,
}

/// Accumulated migration/traffic statistics, constant-size whatever the
/// number of hops recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficLedger {
    s: LedgerState,
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// A ledger resumed from a stored state. Refuses (never panics on) a
    /// state no sequence of records produces: a non-finite value, more
    /// faults than hops, or a negative second moment.
    pub fn from_state(s: LedgerState) -> Result<Self, String> {
        let floats = [
            s.load_moved,
            s.weighted_traffic,
            s.heat,
            s.mean_heat,
            s.mean_traffic,
            s.m2_heat,
            s.m2_traffic,
            s.co_moment,
        ];
        if !floats.iter().all(|v| v.is_finite()) {
            return Err("ledger values must be finite".into());
        }
        if s.faults > s.count {
            return Err(format!("ledger counts {} faults in {} hops", s.faults, s.count));
        }
        if s.m2_heat < 0.0 || s.m2_traffic < 0.0 {
            return Err("ledger second moments must be non-negative".into());
        }
        Ok(TrafficLedger { s })
    }

    /// The complete state, for a checkpoint.
    pub fn state(&self) -> LedgerState {
        self.s
    }

    /// Records one migration hop.
    pub fn record(&mut self, rec: MigrationRecord) {
        let s = &mut self.s;
        let traffic = rec.size * rec.link_weight;
        s.count += 1;
        s.load_moved += rec.size;
        s.weighted_traffic += traffic;
        s.heat += rec.heat;
        if rec.faulted {
            s.faults += 1;
        }
        let words = [
            rec.time.to_bits(),
            u64::from(rec.from) << 32 | u64::from(rec.to),
            rec.size.to_bits(),
            rec.link_weight.to_bits(),
            rec.heat.to_bits(),
            u64::from(rec.faulted),
        ];
        s.digest = words.into_iter().fold(s.digest, digest_word);
        // Welford's update of the means and co-moments.
        let n = s.count as f64;
        let dx = rec.heat - s.mean_heat;
        s.mean_heat += dx / n;
        let dy = traffic - s.mean_traffic;
        s.mean_traffic += dy / n;
        s.m2_heat += dx * (rec.heat - s.mean_heat);
        s.m2_traffic += dy * (traffic - s.mean_traffic);
        s.co_moment += dx * (traffic - s.mean_traffic);
    }

    /// Number of migration hops.
    pub fn migration_count(&self) -> usize {
        self.s.count
    }

    /// Total load quantity moved (sum of sizes; a load migrating twice
    /// counts twice — it occupied the network twice).
    pub fn total_load_moved(&self) -> f64 {
        self.s.load_moved
    }

    /// Traffic in load·weight units: `Σ size·e_{i,j}` — the measured
    /// quantity the paper equates with heat.
    pub fn total_weighted_traffic(&self) -> f64 {
        self.s.weighted_traffic
    }

    /// Total predicted heat `Σ E_h` charged by the balancer.
    pub fn total_heat(&self) -> f64 {
        self.s.heat
    }

    /// Number of hops that encountered a link fault.
    pub fn fault_count(&self) -> usize {
        self.s.faults
    }

    /// The order-sensitive digest of every record so far: equal ledgers
    /// recorded the same hops in the same order (up to a 64-bit
    /// collision).
    pub fn digest(&self) -> u64 {
        self.s.digest
    }

    /// The per-hop records. The ledger keeps none, so this is always
    /// empty; [`TrafficLedger::digest`] identifies the sequence instead.
    /// Kept for callers written against the record list.
    pub fn records(&self) -> &[MigrationRecord] {
        &[]
    }

    /// Pearson correlation between per-record heat and weighted traffic;
    /// `None` if fewer than two records or zero variance. Claim E10 of `lab
    /// paper` expects this to be ≈ 1 for the particle-plane balancer.
    pub fn heat_traffic_correlation(&self) -> Option<f64> {
        let s = &self.s;
        if s.count < 2 || s.m2_heat <= 0.0 || s.m2_traffic <= 0.0 {
            return None;
        }
        Some(s.co_moment / (s.m2_heat * s.m2_traffic).sqrt())
    }
}

/// Folds one 64-bit word into a running digest: the splitmix64 finaliser
/// over the state and the word, so the result depends on every bit and on
/// the order the words arrive in.
pub fn digest_word(h: u64, word: u64) -> u64 {
    let mut z = (h ^ word).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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

    /// A seeded stream of uniform draws in `[0, 1)` (splitmix64).
    fn uniforms(seed: u64) -> impl Iterator<Item = f64> {
        let mut state = seed;
        std::iter::from_fn(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            Some((digest_word(state, 0) >> 11) as f64 / (1u64 << 53) as f64)
        })
    }

    #[test]
    fn empty_ledger() {
        let l = TrafficLedger::new();
        assert_eq!(l.migration_count(), 0);
        assert_eq!(l.total_load_moved(), 0.0);
        assert_eq!(l.heat_traffic_correlation(), None);
        assert!(l.records().is_empty());
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
        assert!(l.records().is_empty(), "the ledger keeps no records");
    }

    #[test]
    fn digest_tells_apart_any_changed_field_and_the_order() {
        let base = [rec(2.0, 3.0, 1.0), rec(1.0, 1.0, 0.5), rec(0.5, 2.0, 0.25)];
        let ledger = |recs: &[MigrationRecord]| {
            let mut l = TrafficLedger::new();
            recs.iter().for_each(|&r| l.record(r));
            l
        };
        let reference = ledger(&base);
        assert_eq!(ledger(&base), reference, "the same records give the same ledger");
        let mut swapped = base;
        swapped.swap(0, 2);
        let swapped = ledger(&swapped);
        // The totals of a reordered sequence can agree; the digest cannot.
        assert_eq!(swapped.migration_count(), reference.migration_count());
        assert_ne!(swapped.digest(), reference.digest());
        let edits: [fn(&mut MigrationRecord); 7] = [
            |r| r.time = 1.0,
            |r| r.from = 7,
            |r| r.to = 7,
            |r| r.size = f64::from_bits(r.size.to_bits() + 1),
            |r| r.link_weight = 4.0,
            |r| r.heat = -0.0,
            |r| r.faulted = true,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut changed = base;
            edit(&mut changed[1]);
            let l = ledger(&changed);
            assert_ne!(l.digest(), reference.digest(), "edit {i}");
            assert_ne!(l, reference, "edit {i}");
        }
    }

    #[test]
    fn state_round_trips_and_inconsistent_states_are_refused() {
        let mut l = TrafficLedger::new();
        l.record(rec(2.0, 3.0, 1.0));
        l.record(MigrationRecord { faulted: true, ..rec(1.0, 1.0, 0.5) });
        let s = l.state();
        assert_eq!(TrafficLedger::from_state(s), Ok(l.clone()));
        let bad: [(&str, LedgerState); 5] = [
            ("faults > count", LedgerState { faults: 3, ..s }),
            ("negative m2_heat", LedgerState { m2_heat: -1e-300, ..s }),
            ("negative m2_traffic", LedgerState { m2_traffic: -1.0, ..s }),
            ("infinite heat", LedgerState { heat: f64::INFINITY, ..s }),
            ("NaN co-moment", LedgerState { co_moment: f64::NAN, ..s }),
        ];
        for (what, state) in bad {
            assert!(TrafficLedger::from_state(state).is_err(), "{what}");
        }
        // A resumed ledger carries on exactly as the original does.
        let mut resumed = TrafficLedger::from_state(s).expect("valid");
        l.record(rec(0.5, 2.0, 0.25));
        resumed.record(rec(0.5, 2.0, 0.25));
        assert_eq!(resumed, l);
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
    fn welford_correlation_matches_the_two_pass_pearson() {
        for seed in 0..16 {
            let mut u = uniforms(seed);
            let mut l = TrafficLedger::new();
            let (mut xs, mut ys) = (vec![], vec![]);
            let n = 2 + (u.next().unwrap() * 500.0) as usize;
            for _ in 0..n {
                let (size, weight) = (0.1 + 10.0 * u.next().unwrap(), 0.5 + u.next().unwrap());
                // Heat partly follows the traffic, partly noise.
                let heat = 0.3 * size * weight + 2.0 * u.next().unwrap();
                l.record(rec(size, weight, heat));
                xs.push(heat);
                ys.push(size * weight);
            }
            let two_pass = pearson(&xs, &ys).expect("variance present");
            let welford = l.heat_traffic_correlation().expect("variance present");
            let rel = ((welford - two_pass) / two_pass).abs();
            assert!(rel < 1e-12, "seed {seed}, n {n}: {welford} against {two_pass}");
        }
    }

    #[test]
    fn zero_variance_on_either_side_gives_none() {
        // Constant heat: no variance on the heat side.
        let mut l = TrafficLedger::new();
        for (s, w) in [(1.0, 1.0), (2.0, 1.5), (0.5, 3.0)] {
            l.record(rec(s, w, 0.7));
        }
        assert_eq!(l.heat_traffic_correlation(), None);
        // Constant traffic: none on the traffic side.
        let mut l = TrafficLedger::new();
        for h in [0.1, 0.2, 0.3] {
            l.record(rec(2.0, 1.5, h));
        }
        assert_eq!(l.heat_traffic_correlation(), None);
        // One record is not enough.
        let mut l = TrafficLedger::new();
        l.record(rec(2.0, 1.5, 0.1));
        assert_eq!(l.heat_traffic_correlation(), None);
    }

    #[test]
    fn anticorrelation_detected() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
        let mut l = TrafficLedger::new();
        for (x, y) in xs.iter().zip(ys) {
            l.record(rec(y, 1.0, *x));
        }
        assert!((l.heat_traffic_correlation().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_gives_none() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&xs, &ys), None);
    }
}
