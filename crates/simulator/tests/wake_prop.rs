//! The round fast-forward's wake condition, checked end to end on a
//! `K = 2` engine (the `K = 1` reference never fast-forwards): a fully
//! quiescent engine's `next_wake()` is exactly the event queue's next
//! entry time — the closed-form skip's wake condition.

use pp_sim::prelude::*;
use pp_tasking::workload::{TraceEvent, Workload};
use pp_topology::graph::Topology;

/// A quiescent system's next wake is the event queue's next entry, exactly:
/// build a null-balanced two-shard engine whose only future is a recorded
/// arrival trace, run it clean, and compare `next_wake()` to the known
/// times. The quiet rounds between arrivals must really be fast-forwarded,
/// and each arrival must still land in the round that covers its time.
#[test]
fn quiescent_next_wake_equals_queue_time_exactly() {
    let trace = vec![
        TraceEvent { time: 5.25, node: 2, size: 1.0 },
        TraceEvent { time: 11.75, node: 6, size: 2.0 },
    ];
    let mut engine = EngineBuilder::new(Topology::ring(8))
        .workload(Workload::from_loads(&[0.0; 8], 1.0))
        .balancer(NullBalancer)
        .config(EngineConfig { shards: 2, consume_rate: 1.0, ..Default::default() })
        .arrival_trace(trace)
        .seed(3)
        .build();
    // Round 1 sweeps the initially-dirty shards; afterwards the system is
    // clean and the only pending wakes are the two trace arrivals.
    engine.run_rounds(2);
    assert_eq!(engine.next_wake(), Some(5.25));
    engine.run_rounds(4);
    assert_eq!(engine.round(), 6);
    // Only round 1 and round 6 ran the full pipeline: rounds 2–5 were
    // fast-forwarded, and the first quiet round to reach 5.25 woke.
    assert_eq!(engine.executed_rounds(), 2);
    // First arrival landed (round 6 covers (5, 6]); its work drains, then
    // the second arrival is the only future.
    engine.run_rounds(3);
    assert_eq!(engine.next_wake(), Some(11.75));
    engine.run_rounds(40);
    assert_eq!(engine.next_wake(), None, "fully drained system has no future");
    assert!(engine.executed_rounds() < engine.round(), "quiet rounds fast-forward");
}
