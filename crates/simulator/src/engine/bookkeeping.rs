//! The bookkeeping phase: the CoV series (one sample at `t = 0` and one
//! per round) and its skip memo, which equals `cov()` of the unchanged
//! state; the repartition check and its load window; and the counters.

use super::sweep::Sweep;
use super::EngineConfig;
use crate::checkpoint::Checkpoint;
use crate::state::SystemState;
use pp_metrics::series::TimeSeries;
use pp_metrics::shard::load_skew;
use pp_topology::partition::RepartitionPolicy;

/// The recorded series, the repartition window and the counters.
#[derive(Clone, Default)]
pub(super) struct Bookkeeping {
    /// CoV time series (sampled after every round).
    pub(super) series: TimeSeries,
    /// CoV memoized across fast-forwarded rounds, which mutate nothing:
    /// bit-identical to recomputing, without the O(n) drift-guarded pass.
    skip_cov: Option<f64>,
    /// Rounds that ran rather than being fast-forwarded (diagnostic).
    pub(super) executed_rounds: u64,
    /// Tasks completed by work consumption.
    pub(super) completed_tasks: usize,
    /// Per-shard `nodes_evaluated` at the last check or restore: the base
    /// that turns the monotone counters into a sliding load window.
    repartition_base: Vec<u64>,
    /// Adaptive repartitions applied so far (diagnostic).
    pub(super) repartitions: u64,
}

impl Bookkeeping {
    /// A series holding the initial sample `cov0`, over `k` shards.
    pub(super) fn new(k: usize, cov0: f64) -> Self {
        let mut books = Bookkeeping { repartition_base: vec![0; k], ..Default::default() };
        books.series.push(0.0, cov0);
        books
    }

    /// Drops the skip memo: the state may change.
    #[inline]
    pub(super) fn invalidate(&mut self) {
        self.skip_cov = None;
    }

    /// The sample of a round that ran.
    #[inline]
    pub(super) fn sample(&mut self, time: f64, state: &SystemState) {
        self.series.push(time, state.cov());
    }

    /// The sample of a fast-forwarded round, from the memo.
    #[inline]
    pub(super) fn sample_skipped(&mut self, time: f64, state: &SystemState) {
        let cov = *self.skip_cov.get_or_insert_with(|| state.cov());
        self.series.push(time, cov);
    }

    /// The between-rounds repartition check: every `every` rounds, when
    /// the max/mean skew of the sweep load since the last check exceeds
    /// the threshold, ask for a better-skewed contiguous layout.
    #[inline]
    pub(super) fn maybe_repartition(&mut self, c: &EngineConfig, round: u64, sweep: &mut Sweep) {
        let Some(rp) = c.repartition else { return };
        if rp.every == 0 || !round.is_multiple_of(rp.every) || sweep.shards.len() < 2 {
            return;
        }
        let loads: Vec<f64> =
            sweep.evaluated().zip(&self.repartition_base).map(|(e, &b)| (e - b) as f64).collect();
        // Slide the window whether or not we fire, so each check judges
        // recent activity instead of the whole run's history. A refit moves
        // no accumulator, so the new base holds across it.
        self.rebase(sweep);
        if load_skew(&loads) <= rp.skew_threshold {
            return;
        }
        if let Some(ranges) = RepartitionPolicy::rebalance(&sweep.partition, &loads) {
            sweep.refit(ranges);
            self.repartitions += 1;
        }
    }

    /// Restarts the repartition window at the shards' current totals.
    pub(super) fn rebase(&mut self, sweep: &Sweep) {
        for (base, e) in self.repartition_base.iter_mut().zip(sweep.evaluated()) {
            *base = e;
        }
    }

    pub(super) fn capture(&self, cp: &mut Checkpoint) {
        cp.series = self.series.points().to_vec();
        cp.completed_tasks = self.completed_tasks;
    }

    /// The books at a checkpoint. The series must be finite, in time
    /// order, and end at or before the clock (or the next push would
    /// break that order); the window is rebased once the sweep is restored.
    pub(super) fn restored(&self, cp: &Checkpoint) -> Result<Self, String> {
        if cp.series.windows(2).any(|w| w[1].0 < w[0].0)
            || cp.series.iter().any(|&(t, v)| !t.is_finite() || !v.is_finite())
        {
            return Err("checkpoint series must be finite with non-decreasing times".into());
        }
        if let Some(&(last, _)) = cp.series.last() {
            if last > cp.time {
                return Err(format!(
                    "checkpoint series runs to t={last}, beyond the clock t={}",
                    cp.time
                ));
            }
        }
        let mut series = TimeSeries::new();
        for &(t, v) in &cp.series {
            series.push(t, v);
        }
        let completed_tasks = cp.completed_tasks;
        Ok(Bookkeeping { series, skip_cov: None, completed_tasks, ..self.clone() })
    }
}
