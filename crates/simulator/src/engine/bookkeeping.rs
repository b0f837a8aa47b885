//! The bookkeeping phase: the CoV series (one sample at `t = 0` and one
//! per round) and its skip memo, which equals `cov()` of the unchanged
//! state; and the counters.

use crate::checkpoint::Checkpoint;
use crate::state::SystemState;
use pp_metrics::series::TimeSeries;

/// The recorded series and the counters.
#[derive(Default)]
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
}

impl Bookkeeping {
    /// A series holding the initial sample `cov0`.
    pub(super) fn new(cov0: f64) -> Self {
        let mut books = Bookkeeping::default();
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

    pub(super) fn capture(&self, cp: &mut Checkpoint) {
        cp.series = self.series.points().to_vec();
        cp.completed_tasks = self.completed_tasks;
    }

    /// The books at a checkpoint. The series must be finite, in time
    /// order, and end at or before the clock (or the next push would
    /// break that order).
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
        let (executed_rounds, completed_tasks) = (self.executed_rounds, cp.completed_tasks);
        Ok(Bookkeeping { series, skip_cov: None, executed_rounds, completed_tasks })
    }
}
