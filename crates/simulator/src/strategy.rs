//! Simulation strategies: how the engine advances time between rounds.
//!
//! [`SimulationStrategy::Tick`] is the round-by-round reference: every
//! balance round runs the full pipeline (event drain, consumption sweep,
//! fault process, decision sweep), whatever the system is doing.
//! [`SimulationStrategy::Event`] keeps the identical round *grid* — one
//! CoV sample per round, the same `next_tick = time + tick` clock
//! arithmetic — but fast-forwards a round in closed form when nothing can
//! happen at its tick: no shard dirty, no event due, no work to consume,
//! no fault process, no churn event, and a [`quiescence_stable`] policy.
//! The sweep wake is the upcoming tick iff any shard's dirty flag is set;
//! the flags are the only per-shard wake state, so checkpoint restore and
//! repartitioning have nothing extra to clear.
//! Between wakes heights are constant (consumption is the only decay and
//! it is gated on resident work), so the incremental `(n, Σh, Σh²)`
//! statistics — and therefore the CoV sample — are already exact without
//! touching a node.
//!
//! Why the grid is kept: the repo's correctness story is byte-identical
//! [`RunReport`](crate::engine::RunReport)s, and the report's series
//! records one sample per round. Jumping the clock straight to the next
//! wake would drop the samples in between; fast-forwarding round by round
//! costs O(K) flag tests per skipped round and reproduces the Tick
//! engine's float history bit-for-bit (see
//! `docs/adr/ADR-006-event-strategy.md` for the full argument).
//!
//! Strategies compose orthogonally with the pinned shard workers
//! ([`crate::pool::ShardPool`]): the strategy decides *whether* a round's
//! sweep runs at all, affinity decides *where* each shard of an executed
//! sweep runs, and neither choice reaches the computed bytes. A skipped
//! round never wakes the pool (the fast-forward runs on the calling
//! thread).
//!
//! [`quiescence_stable`]: crate::balancer::LoadBalancer::quiescence_stable

use std::fmt;
use std::str::FromStr;

/// How the engine advances simulated time between balance rounds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimulationStrategy {
    /// Execute every balance round — the sequential reference oracle the
    /// differential suite diffs against.
    #[default]
    Tick,
    /// Skip provably effect-free rounds in closed form; cost tracks
    /// activity instead of `nodes × rounds`.
    Event,
}

impl SimulationStrategy {
    /// Canonical lower-case name (`"tick"` / `"event"`), the form used by
    /// scenario JSON and the `--strategy` CLI flag.
    pub fn as_str(self) -> &'static str {
        match self {
            SimulationStrategy::Tick => "tick",
            SimulationStrategy::Event => "event",
        }
    }
}

impl fmt::Display for SimulationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SimulationStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tick" => Ok(SimulationStrategy::Tick),
            "event" => Ok(SimulationStrategy::Event),
            other => Err(format!("unknown simulation strategy `{other}` (tick|event)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_default_and_names() {
        assert_eq!(SimulationStrategy::default(), SimulationStrategy::Tick);
        assert_eq!(SimulationStrategy::Tick.as_str(), "tick");
        assert_eq!(SimulationStrategy::Event.to_string(), "event");
    }

    #[test]
    fn strategy_parses_round_trip() {
        for s in [SimulationStrategy::Tick, SimulationStrategy::Event] {
            assert_eq!(s.as_str().parse::<SimulationStrategy>().unwrap(), s);
        }
        assert!("Event".parse::<SimulationStrategy>().is_err(), "names are case-sensitive");
        assert!("".parse::<SimulationStrategy>().is_err());
    }
}
