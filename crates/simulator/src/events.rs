//! The discrete-event queue: time-stamped events popped in one total
//! `(time, seq)` order, ties broken FIFO by insertion sequence.
//!
//! The queue has two parts. Landings that arrive in time order (the common
//! case: every launch lands `now + d` later, and on uniform links `d` is one
//! constant) append to a FIFO *lane*, so a hop costs O(1) instead of a heap
//! sift. Every other event, and any landing that would land before the
//! lane's tail, goes to a binary heap. Both parts are sorted by the same
//! `(time, seq)` order — the lane because `seq` only grows — so popping the
//! earlier of the two heads yields exactly the sequence one heap would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Kinds of simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A synchronous balance round fires.
    BalanceTick,
    /// An in-flight load lands (slab index into the engine's flight table).
    LoadArrival {
        /// Index into the engine's in-flight slab.
        flight: usize,
    },
    /// The dynamic arrival process injects a new task.
    TaskArrival,
    /// A recorded trace replays one arrival (index into the engine's trace
    /// table; the record carries node and size).
    TraceArrival {
        /// Index into the engine's replay trace.
        record: usize,
    },
}

#[derive(Debug)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: the heap is a max-heap, we want the earliest first; ties
        // break by insertion sequence for determinism.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// In-order landings. Invariant: sorted by `(time, seq)` and holding
    /// only `LoadArrival`s.
    lane: VecDeque<Entry>,
    /// Everything else.
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at absolute `time`.
    ///
    /// # Panics
    /// Panics unless `time` is finite and non-negative: `NaN` and `±∞` would
    /// wedge or starve the queue's total order, and the simulation clock
    /// never runs before t = 0, so a negative event time is always a caller
    /// bug. (Checkpoint restore validates before pushing and reports a
    /// `Result` instead — see [`EventQueue::from_entries`].)
    pub fn push(&mut self, time: f64, event: Event) {
        assert!(valid_time(time), "event time must be finite and non-negative, got {time}");
        let seq = self.seq;
        self.seq += 1;
        self.insert(Entry { time, seq, event });
    }

    /// Files an entry. Callers guarantee its `seq` tops the lane tail's
    /// (`push` hands out growing `seq`s, `from_entries` feeds pop order), so
    /// a landing at or after the tail's time keeps the lane sorted and
    /// appends to it; anything else goes to the heap.
    fn insert(&mut self, entry: Entry) {
        let in_order = match self.lane.back() {
            Some(tail) => entry.time.total_cmp(&tail.time) != Ordering::Less,
            None => true,
        };
        if in_order && matches!(entry.event, Event::LoadArrival { .. }) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Whether the earliest pending entry is the lane's head. `Entry`'s
    /// order is reversed (the heap is a max-heap), so the earlier of two
    /// entries compares greater.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l > h,
            (l, _) => l.is_some(),
        }
    }

    /// Pops the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let e = if self.lane_first() { self.lane.pop_front() } else { self.heap.pop() };
        e.map(|e| (e.time, e.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        let e = if self.lane_first() { self.lane.front() } else { self.heap.peek() };
        e.map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Deterministic snapshot of every pending entry as `(time, seq, event)`
    /// triples sorted in pop order, plus the sequence counter — the
    /// checkpointable representation of the queue. Pop order is a total
    /// order (ties break by the unique `seq`), so rebuilding a heap from
    /// this list via [`EventQueue::from_entries`] reproduces exactly the
    /// same pop sequence whatever the original lane/heap split and heap
    /// layout were.
    pub fn snapshot(&self) -> (u64, Vec<(f64, u64, Event)>) {
        let mut entries: Vec<(f64, u64, Event)> =
            self.lane.iter().chain(self.heap.iter()).map(|e| (e.time, e.seq, e.event)).collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        (self.seq, entries)
    }

    /// Rebuilds a queue from a [`EventQueue::snapshot`]. Unlike
    /// [`EventQueue::push`] this validates instead of panicking, because the
    /// entries may come from an untrusted checkpoint file: every time must
    /// be finite and non-negative, entry sequence numbers must be unique and
    /// below the restored counter (so future pushes cannot collide and break
    /// the total order), and the list must be strictly `(time, seq)`-sorted
    /// — i.e. in pop order, the only order [`EventQueue::snapshot`] emits.
    /// A reordered snapshot is corruption and is rejected rather than
    /// silently re-sorted: same-time entries that swapped their `seq` order
    /// would otherwise restore to a *different* FIFO than the file claims
    /// to carry, and no later check would ever notice.
    pub fn from_entries(seq: u64, entries: &[(f64, u64, Event)]) -> Result<EventQueue, String> {
        let mut queue = EventQueue { seq, ..EventQueue::default() };
        let mut seen: Vec<u64> = Vec::with_capacity(entries.len());
        for pair in entries.windows(2) {
            let (t0, s0, _) = pair[0];
            let (t1, s1, _) = pair[1];
            if t0.total_cmp(&t1).then_with(|| s0.cmp(&s1)) != Ordering::Less {
                return Err(format!(
                    "snapshot entries not in pop order: ({t0}, seq {s0}) precedes ({t1}, seq {s1})"
                ));
            }
        }
        for &(time, s, event) in entries {
            if !valid_time(time) {
                return Err(format!("event time {time} must be finite and non-negative"));
            }
            if s >= seq {
                return Err(format!("event seq {s} not below the restored counter {seq}"));
            }
            seen.push(s);
            // Entries come in pop order, so each one's `seq` tops the
            // lane's on a time tie and `insert` keeps the lane sorted.
            queue.insert(Entry { time, seq: s, event });
        }
        // Pop order is strict on (time, seq), but a seq may still repeat
        // across *different* times — catch that separately.
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate event sequence numbers in snapshot".into());
        }
        Ok(queue)
    }
}

/// The queue's time-validity rule, shared by the panicking [`EventQueue::push`]
/// and the error-returning [`EventQueue::from_entries`].
#[inline]
fn valid_time(time: f64) -> bool {
    time.is_finite() && time >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::BalanceTick);
        q.push(1.0, Event::TaskArrival);
        q.push(2.0, Event::LoadArrival { flight: 0 });
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::LoadArrival { flight: 1 });
        q.push(1.0, Event::LoadArrival { flight: 2 });
        q.push(1.0, Event::LoadArrival { flight: 3 });
        let order: Vec<usize> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                Event::LoadArrival { flight } => flight,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(5.0, Event::BalanceTick);
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, Event::BalanceTick);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_positive_infinity_time() {
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, Event::BalanceTick);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_infinity_time() {
        let mut q = EventQueue::new();
        q.push(f64::NEG_INFINITY, Event::BalanceTick);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_time() {
        let mut q = EventQueue::new();
        q.push(-1e-9, Event::BalanceTick);
    }

    #[test]
    fn accepts_time_boundaries() {
        // The full accepted edge of the time domain: zero (including the
        // negative-zero bit pattern), subnormals, and f64::MAX.
        let mut q = EventQueue::new();
        q.push(0.0, Event::BalanceTick);
        q.push(-0.0, Event::BalanceTick);
        q.push(f64::MIN_POSITIVE / 2.0, Event::BalanceTick);
        q.push(f64::MAX, Event::BalanceTick);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(0.0));
    }

    #[test]
    fn snapshot_restores_exact_pop_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::TaskArrival);
        q.push(1.0, Event::LoadArrival { flight: 7 });
        q.push(1.0, Event::LoadArrival { flight: 9 });
        q.push(2.0, Event::TraceArrival { record: 4 });
        let _ = q.pop(); // consume one so the snapshot is mid-stream
        let (seq, entries) = q.snapshot();
        assert_eq!(seq, 4);
        assert_eq!(entries.len(), 3);
        let mut r = EventQueue::from_entries(seq, &entries).expect("valid snapshot");
        while let Some(expect) = q.pop() {
            assert_eq!(r.pop(), Some(expect));
        }
        assert!(r.pop().is_none());
        // The restored counter continues where the original left off.
        r.push(0.5, Event::BalanceTick);
        let (seq2, entries2) = r.snapshot();
        assert_eq!(seq2, 5);
        assert_eq!(entries2[0].1, 4);
    }

    #[test]
    fn snapshot_orders_same_time_entries_by_seq() {
        // Regression: snapshot ordering used to be exercised only with
        // distinct times, where `total_cmp` alone decides. With every entry
        // at one time the tie-break carries the whole order, and it must be
        // insertion (seq) order — the queue's FIFO discipline.
        let mut q = EventQueue::new();
        for flight in 0..6 {
            q.push(2.5, Event::LoadArrival { flight });
        }
        let (seq, entries) = q.snapshot();
        assert_eq!(seq, 6);
        let seqs: Vec<u64> = entries.iter().map(|&(_, s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        // And the restored queue pops the identical FIFO.
        let mut r = EventQueue::from_entries(seq, &entries).expect("valid snapshot");
        for want in 0..6 {
            assert_eq!(r.pop(), Some((2.5, Event::LoadArrival { flight: want })));
        }
    }

    /// Reference model: every pending entry in a `Vec`, popped by a linear
    /// scan for the least `(time, seq)`.
    #[derive(Clone, Default)]
    struct Reference {
        seq: u64,
        entries: Vec<(f64, u64, Event)>,
    }

    impl Reference {
        fn push(&mut self, time: f64, event: Event) {
            self.entries.push((time, self.seq, event));
            self.seq += 1;
        }

        fn sorted(&self) -> Vec<(f64, u64, Event)> {
            let mut v = self.entries.clone();
            v.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            v
        }

        fn pop(&mut self) -> Option<(f64, Event)> {
            let first = self.sorted().first().map(|&(_, s, _)| s)?;
            let at = self.entries.iter().position(|&(_, s, _)| s == first).unwrap();
            let (t, _, e) = self.entries.remove(at);
            Some((t, e))
        }

        fn peek_time(&self) -> Option<f64> {
            self.sorted().first().map(|&(t, _, _)| t)
        }
    }

    fn assert_same(q: &EventQueue, r: &Reference, ctx: &str) {
        assert_eq!(q.len(), r.entries.len(), "{ctx}: len");
        assert_eq!(q.is_empty(), r.entries.is_empty(), "{ctx}: is_empty");
        assert_eq!(q.peek_time().map(f64::to_bits), r.peek_time().map(f64::to_bits), "{ctx}");
    }

    #[test]
    fn lane_and_heap_pop_like_one_sorted_list() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The clock follows the pops, as in the engine. Landings mostly
        // use one duration (in order, often tied), sometimes a shorter or
        // longer one (out of order); task and trace arrivals land ahead of
        // and behind the lane's tail.
        let mut both_parts = 0;
        for seed in 0..40u64 {
            let mut g = StdRng::seed_from_u64(seed);
            let (mut q, mut r) = (EventQueue::new(), Reference::default());
            let mut now = 0.0f64;
            for step in 0..600 {
                let ctx = format!("seed {seed} step {step}");
                if g.gen_bool(0.55) {
                    let (d, event) = match g.gen_range(0..10u32) {
                        0..=5 => (1.0, Event::LoadArrival { flight: step }),
                        6 => (
                            [0.0, 0.25, 2.5][g.gen_range(0..3usize)],
                            Event::LoadArrival { flight: step },
                        ),
                        7 | 8 => ([0.0, 0.5, 1.0, 3.0][g.gen_range(0..4usize)], Event::TaskArrival),
                        _ => (g.gen_range(0.0..4.0), Event::TraceArrival { record: step }),
                    };
                    q.push(now + d, event);
                    r.push(now + d, event);
                } else {
                    let got = q.pop();
                    assert_eq!(got, r.pop(), "{ctx}: pop");
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                assert_same(&q, &r, &ctx);
                if step % 25 == 0 {
                    both_parts += (!q.lane.is_empty() && !q.heap.is_empty()) as usize;
                    let (seq, entries) = q.snapshot();
                    assert_eq!((seq, &entries), (r.seq, &r.sorted()), "{ctx}: snapshot");
                    // The restored queue pops the same sequence and keeps
                    // numbering where the original left off.
                    let mut restored = EventQueue::from_entries(seq, &entries).expect("valid");
                    let mut reference = r.clone();
                    restored.push(now + 1.0, Event::LoadArrival { flight: usize::MAX });
                    reference.push(now + 1.0, Event::LoadArrival { flight: usize::MAX });
                    while let Some(want) = reference.pop() {
                        assert_eq!(restored.pop(), Some(want), "{ctx}: restored pop");
                    }
                    assert!(restored.is_empty(), "{ctx}");
                }
            }
        }
        assert!(both_parts > 100, "lane and heap rarely both held entries: {both_parts}");
    }

    #[test]
    fn uniform_landings_never_touch_the_heap() {
        // Every landing scheduled `now + d` with one `d` goes to the lane,
        // ties included, even with a task arrival pending in the heap.
        let mut q = EventQueue::new();
        q.push(2.0, Event::TaskArrival);
        let mut now = 0.0;
        for flight in 0..100 {
            q.push(now + 1.5, Event::LoadArrival { flight });
            q.push(now + 1.5, Event::LoadArrival { flight: flight + 1000 });
            if flight % 2 == 1 {
                now = q.pop().unwrap().0;
            }
            assert!(q.heap.iter().all(|e| e.event == Event::TaskArrival), "flight {flight}");
        }
    }

    #[test]
    fn negative_zero_landing_sorts_before_zero() {
        // The lane compares with `total_cmp`, the heap's order, so a -0.0
        // landing behind a 0.0 tail is out of order and goes to the heap.
        let mut q = EventQueue::new();
        q.push(0.0, Event::LoadArrival { flight: 0 });
        q.push(-0.0, Event::LoadArrival { flight: 1 });
        assert_eq!((q.lane.len(), q.heap.len()), (1, 1));
        assert_eq!(
            q.pop().map(|(t, e)| (t.to_bits(), e)),
            Some(((-0.0f64).to_bits(), Event::LoadArrival { flight: 1 }))
        );
        assert_eq!(q.pop(), Some((0.0, Event::LoadArrival { flight: 0 })));
    }

    #[test]
    fn from_entries_rejects_out_of_order_entries() {
        let ev = Event::TaskArrival;
        // Times out of order.
        let err = EventQueue::from_entries(5, &[(2.0, 0, ev), (1.0, 1, ev)]).unwrap_err();
        assert!(err.contains("pop order"), "{err}");
        // Same time, seq swapped: used to be silently re-sorted into a
        // different FIFO than the snapshot claims to carry.
        let err = EventQueue::from_entries(5, &[(1.0, 3, ev), (1.0, 2, ev)]).unwrap_err();
        assert!(err.contains("pop order"), "{err}");
        // Equal (time, seq) pairs are also not strictly increasing.
        assert!(EventQueue::from_entries(5, &[(1.0, 2, ev), (1.0, 2, ev)]).is_err());
        // The properly ordered forms all pass.
        assert!(EventQueue::from_entries(5, &[(1.0, 2, ev), (1.0, 3, ev)]).is_ok());
        assert!(EventQueue::from_entries(5, &[(1.0, 3, ev), (2.0, 2, ev)]).is_ok());
    }

    #[test]
    fn from_entries_rejects_bad_snapshots() {
        let ev = Event::TaskArrival;
        // Non-finite / negative times error instead of panicking.
        assert!(EventQueue::from_entries(1, &[(f64::NAN, 0, ev)]).is_err());
        assert!(EventQueue::from_entries(1, &[(f64::INFINITY, 0, ev)]).is_err());
        assert!(EventQueue::from_entries(1, &[(-1.0, 0, ev)]).is_err());
        // Seq at/above the counter, or duplicated.
        assert!(EventQueue::from_entries(1, &[(0.0, 1, ev)]).is_err());
        assert!(EventQueue::from_entries(3, &[(0.0, 1, ev), (1.0, 1, ev)]).is_err());
        // A well-formed snapshot passes.
        assert!(EventQueue::from_entries(3, &[(0.0, 1, ev), (1.0, 2, ev)]).is_ok());
    }
}
