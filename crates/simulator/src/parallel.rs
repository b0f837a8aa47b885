//! A parallel sweep runner: fan a set of independent experiment
//! configurations out over worker threads and collect results in input
//! order.
//!
//! Workers claim indices off one shared atomic cursor. Each index has a
//! `Mutex` cell for its item and one for its result, and only the worker
//! that claimed the index locks them, so no lock is ever contended: one
//! `fetch_add` and two uncontended locks per item, and no raw pointers. The
//! failure list is locked only on the panic path.
//!
//! This is the harness the benchmark binaries use to evaluate parameter
//! grids; each simulation is single-threaded and deterministic, parallelism
//! is across configurations, so results are identical regardless of thread
//! count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Logs the `available_parallelism()` failure once per process: the
/// degraded single-thread fallback should be visible, not a silent 4×
/// overcommit on a host that could not even report its core count.
fn warn_parallelism_unknown() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!("par_map: available_parallelism() failed; threads=0 falls back to 1 worker");
    });
}

/// Inputs shorter than this run inline even when more threads were
/// requested: spawning a thread scope costs on the order of 100 µs, which
/// dominates tiny parameter grids (the `threads == n == 2` shape) — and a
/// sweep that small finishes within the same order of magnitude
/// sequentially even when each item is a whole simulation.
const SPAWN_THRESHOLD: usize = 4;

/// Maps `f` over `items` using up to `threads` worker threads, preserving
/// input order in the result.
///
/// `threads = 0` means "use available parallelism" — and when the host
/// cannot report it, the fallback is 1 (logged once), never a fabricated
/// core count. Inputs shorter than [`SPAWN_THRESHOLD`] are mapped inline
/// without spawning.
///
/// # Panics
/// If `f` panics on any item, the panic is re-raised on the caller with
/// the failing item indices in the message (all items still drain first,
/// so no worker is left holding unclaimed work).
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or_else(|_| {
            warn_parallelism_unknown();
            1
        })
    } else {
        threads
    }
    .min(n);
    if threads <= 1 || n < SPAWN_THRESHOLD {
        return items.into_iter().map(f).collect();
    }

    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Failure indices; cold path only — locked iff an item panicked.
    let failed = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for _ in 0..threads {
            let (items, results, cursor, failed, f) = (&items, &results, &cursor, &failed, &f);
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // This thread won index `i`, so it alone takes the item.
                let item = items[i].lock().expect("item cell").take().expect("item claimed once");
                // Catch per item: one poisoned configuration must not kill
                // the worker (stranding the cursor's remaining range) or
                // surface as an indexless scope panic.
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => *results[i].lock().expect("result cell") = Some(r),
                    Err(_) => failed.lock().expect("failure list").push(i),
                }
            });
        }
    });

    let mut failed = failed.into_inner().expect("failure list");
    if !failed.is_empty() {
        failed.sort_unstable();
        panic!("par_map: f panicked on item(s) {failed:?} of {n}");
    }
    results
        .into_iter()
        .map(|r| r.into_inner().expect("result cell").expect("worker delivered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(items, 8, |x| x * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn single_thread_path() {
        let out = par_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn tiny_inputs_run_inline_on_the_caller_thread() {
        // Below SPAWN_THRESHOLD no worker scope is spawned, so every item
        // is mapped on the calling thread even with threads > 1.
        let caller = std::thread::current().id();
        let out = par_map(vec![10, 20, 30], 8, |x| {
            assert_eq!(std::thread::current().id(), caller, "tiny input spawned a worker");
            x + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn threshold_boundary_still_processes_everything() {
        let at = par_map((0..SPAWN_THRESHOLD).collect::<Vec<_>>(), 4, |x| x * 3);
        assert_eq!(at, (0..SPAWN_THRESHOLD).map(|x| x * 3).collect::<Vec<_>>());
        let below = par_map((0..SPAWN_THRESHOLD - 1).collect::<Vec<_>>(), 4, |x| x * 3);
        assert_eq!(below, (0..SPAWN_THRESHOLD - 1).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_means_auto() {
        let out = par_map(vec![5; 64], 0, |x| x);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = par_map((0..500).collect::<Vec<_>>(), 4, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn worker_panic_reports_failing_item_indices() {
        let caught = std::panic::catch_unwind(|| {
            par_map((0..100).collect::<Vec<i32>>(), 4, |x| {
                if x == 41 || x == 17 {
                    panic!("bad item");
                }
                x
            })
        });
        let msg = *caught.expect_err("must propagate").downcast::<String>().expect("message");
        assert!(msg.contains("[17, 41]"), "panic names the failing items: {msg}");
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let f = |x: u64| x.wrapping_mul(0x9E3779B97F4A7C15) >> 7;
        let a = par_map((0..256).collect::<Vec<_>>(), 1, f);
        let b = par_map((0..256).collect::<Vec<_>>(), 7, f);
        assert_eq!(a, b);
    }

    #[test]
    fn owned_buffers_drop_cleanly_through_the_raw_handoff() {
        // Heap-owning items and results: every item must be moved out
        // exactly once (no double drop, no leak) even when some panic.
        let items: Vec<String> = (0..64).map(|i| format!("item-{i}")).collect();
        let out = par_map(items, 4, |s| s + "!");
        assert_eq!(out.len(), 64);
        assert_eq!(out[9], "item-9!");
        let caught = std::panic::catch_unwind(|| {
            par_map((0..64).map(|i| format!("{i}")).collect::<Vec<_>>(), 4, |s| {
                if s == "13" {
                    panic!("boom");
                }
                s
            })
        });
        let msg = *caught.expect_err("must propagate").downcast::<String>().expect("message");
        assert!(msg.contains("[13]"), "{msg}");
    }
}
