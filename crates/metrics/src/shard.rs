//! Per-shard decision-sweep accounting for the sharded tick pipeline.
//!
//! Each shard of the engine owns one [`ShardAccum`] and feeds it during its
//! own decision sweep with no synchronization; after the sweep the engine
//! merges the shard accumulators **in fixed shard order** into one
//! system-wide view. The counters are diagnostics only — they are kept out
//! of `RunReport`, whose byte-identity between sequential and sharded runs
//! is the pipeline's correctness contract (a K-shard run evaluates and
//! skips different shard counts than a 1-shard run, so these numbers are
//! layout-dependent by design).

/// Additive counters for one shard's (or, after merging, the whole
/// system's) decision sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardAccum {
    /// Ticks in which the shard was evaluated (its nodes' `decide` ran).
    pub ticks_evaluated: u64,
    /// Ticks in which the shard was skipped as quiescent.
    pub ticks_skipped: u64,
    /// Total node decisions evaluated: every node of the shard on each
    /// evaluated tick, including the empty ones the sweep never asks (an
    /// empty node has nothing to decide, so it counts as decided).
    pub nodes_evaluated: u64,
    /// Total migration intents emitted.
    pub intents_emitted: u64,
}

impl ShardAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        ShardAccum::default()
    }

    /// Records one evaluated tick covering `nodes` decisions that emitted
    /// `intents` migration intents.
    pub fn record_evaluated(&mut self, nodes: u64, intents: u64) {
        self.ticks_evaluated += 1;
        self.nodes_evaluated += nodes;
        self.intents_emitted += intents;
    }

    /// Records one tick in which the shard was skipped as quiescent.
    pub fn record_skipped(&mut self) {
        self.ticks_skipped += 1;
    }

    /// Folds another accumulator into this one. Addition is commutative,
    /// but callers merge in fixed shard order anyway so any future
    /// order-sensitive field keeps a defined meaning.
    pub fn merge(&mut self, other: &ShardAccum) {
        self.ticks_evaluated += other.ticks_evaluated;
        self.ticks_skipped += other.ticks_skipped;
        self.nodes_evaluated += other.nodes_evaluated;
        self.intents_emitted += other.intents_emitted;
    }

    /// Fraction of shard-ticks skipped as quiescent (0 when nothing ran).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.ticks_evaluated + self.ticks_skipped;
        if total == 0 {
            return 0.0;
        }
        self.ticks_skipped as f64 / total as f64
    }
}

/// Accumulated wall-clock samples of the shard pool's per-round barrier
/// overhead: a caller times batches of no-op `run_shards` rounds (publish +
/// wake + done-barrier with zero work inside) and records them here.
/// Additive like [`ShardAccum`], so samples from repeated batches — or from
/// pools of different shapes, if the caller wants an aggregate — merge into
/// one ns-per-round figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierSample {
    /// Barrier round-trips timed.
    pub rounds: u64,
    /// Total wall-clock nanoseconds across those rounds.
    pub total_ns: u64,
}

impl BarrierSample {
    /// An empty sample.
    pub fn new() -> Self {
        BarrierSample::default()
    }

    /// Records a batch of `rounds` no-op barrier round-trips that took
    /// `total_ns` nanoseconds of wall clock together.
    pub fn record(&mut self, rounds: u64, total_ns: u64) {
        self.rounds += rounds;
        self.total_ns += total_ns;
    }

    /// Folds another sample into this one.
    pub fn merge(&mut self, other: &BarrierSample) {
        self.rounds += other.rounds;
        self.total_ns += other.total_ns;
    }

    /// Mean nanoseconds per barrier round-trip (`None` until something was
    /// recorded — an unmeasured barrier has no cost figure, not a zero one).
    pub fn ns_per_round(&self) -> Option<f64> {
        if self.rounds == 0 {
            return None;
        }
        Some(self.total_ns as f64 / self.rounds as f64)
    }
}

/// Max/mean skew of a per-shard load vector: `1.0` is perfectly balanced,
/// `k` is "all load in one of `k` shards". Returns `0.0` for an empty
/// vector or a non-positive total, where no skew is defined — callers
/// comparing against a threshold ≥ 1 then correctly see "not skewed".
/// Non-finite entries count as zero so a poisoned counter can never
/// trigger (or suppress) a repartition nondeterministically.
pub fn load_skew(loads: &[f64]) -> f64 {
    let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
    let total: f64 = loads.iter().map(|&w| clean(w)).sum();
    if loads.is_empty() || total <= 0.0 {
        return 0.0;
    }
    let mean = total / loads.len() as f64;
    loads.iter().fold(0.0f64, |m, &w| m.max(clean(w))) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut a = ShardAccum::new();
        a.record_evaluated(16, 3);
        a.record_evaluated(16, 0);
        a.record_skipped();
        assert_eq!(a.ticks_evaluated, 2);
        assert_eq!(a.ticks_skipped, 1);
        assert_eq!(a.nodes_evaluated, 32);
        assert_eq!(a.intents_emitted, 3);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ShardAccum::new();
        a.record_evaluated(8, 1);
        let mut b = ShardAccum::new();
        b.record_evaluated(4, 2);
        b.record_skipped();
        a.merge(&b);
        assert_eq!(
            a,
            ShardAccum {
                ticks_evaluated: 2,
                ticks_skipped: 1,
                nodes_evaluated: 12,
                intents_emitted: 3,
            }
        );
    }

    #[test]
    fn merge_order_independent_for_sums() {
        let parts = [
            ShardAccum {
                ticks_evaluated: 1,
                ticks_skipped: 2,
                nodes_evaluated: 3,
                intents_emitted: 4,
            },
            ShardAccum {
                ticks_evaluated: 5,
                ticks_skipped: 0,
                nodes_evaluated: 7,
                intents_emitted: 0,
            },
            ShardAccum {
                ticks_evaluated: 0,
                ticks_skipped: 9,
                nodes_evaluated: 0,
                intents_emitted: 1,
            },
        ];
        let mut fwd = ShardAccum::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = ShardAccum::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn barrier_sample_accumulates_and_averages() {
        let mut s = BarrierSample::new();
        assert_eq!(s.ns_per_round(), None);
        s.record(100, 50_000);
        s.record(100, 30_000);
        assert_eq!(s.rounds, 200);
        assert_eq!(s.ns_per_round(), Some(400.0));
        let mut other = BarrierSample::new();
        other.record(200, 160_000);
        s.merge(&other);
        assert_eq!(s.ns_per_round(), Some(600.0));
    }

    #[test]
    fn load_skew_basics() {
        assert_eq!(load_skew(&[]), 0.0);
        assert_eq!(load_skew(&[0.0, 0.0]), 0.0);
        assert_eq!(load_skew(&[4.0, 4.0, 4.0, 4.0]), 1.0);
        // All load in one of four shards: skew = k.
        assert_eq!(load_skew(&[12.0, 0.0, 0.0, 0.0]), 4.0);
        // max 6, mean 3 → 2.
        assert_eq!(load_skew(&[6.0, 2.0, 2.0, 2.0]), 2.0);
    }

    #[test]
    fn load_skew_ignores_poisoned_entries() {
        assert_eq!(load_skew(&[f64::NAN, f64::INFINITY, -3.0]), 0.0);
        assert_eq!(load_skew(&[f64::NAN, 5.0]), 2.0);
    }

    #[test]
    fn skip_ratio_bounds() {
        let mut a = ShardAccum::new();
        assert_eq!(a.skip_ratio(), 0.0);
        a.record_skipped();
        assert_eq!(a.skip_ratio(), 1.0);
        a.record_evaluated(1, 0);
        assert_eq!(a.skip_ratio(), 0.5);
    }
}
