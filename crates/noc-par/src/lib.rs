//! `noc-par` — deterministic fork-join parallelism for the NoC mapping
//! stack.
//!
//! The container this workspace builds in has no crates.io access, so
//! `rayon` is unavailable; this crate hand-rolls the small subset the
//! stack needs: [`join`] and an indexed [`par_map`] whose results are
//! always reduced **in input order**, so output is bit-identical
//! regardless of thread count.
//!
//! # Execution model
//!
//! Parallel regions execute on a **lazily initialised persistent pool**
//! (`pool.rs`): worker threads are spawned once per process (on the first
//! region that wants them), parked between regions, and re-used by every
//! later region — entering a region costs a queue push and a condvar
//! notify, not a thread spawn/join pair. The calling thread always
//! participates in its own region's work; pool workers are pure
//! acceleration, and a region whose helpers are all busy simply runs
//! everything on the caller (work-conserving, deadlock-free).
//!
//! Within a region, tasks are dealt into per-worker deques in contiguous
//! index blocks; a worker pops from the front of its own deque and, when
//! empty, **steals from the back** of its neighbours' deques.
//! [`pool_threads_spawned`] exposes the pool's lifetime thread count so
//! tests can prove regions re-use workers instead of spawning.
//!
//! # Determinism contract
//!
//! * [`par_map`] writes each result into the slot of its input index and
//!   returns the slots in input order — the *schedule* is racy, the
//!   *reduction* is not.
//! * [`try_par_map`] reports the error of the **smallest failing index**,
//!   matching what a sequential left-to-right loop would return.
//! * With an effective thread count of 1 every primitive degenerates to
//!   plain sequential execution on the calling thread (no threads are
//!   spawned at all).
//! * Work counts ([`noc_obs::count`]) follow the work to the caller: a
//!   pool worker runs its share under [`noc_obs::measure`], and the
//!   region [`noc_obs::absorb`]s every helper's counts on the calling
//!   thread before it returns. Work done inline is counted there
//!   directly, so a width-1 region adds nothing per item.
//!
//! Callers remain responsible for making each *task* a pure function of
//! its inputs (per-task RNG seeds derived from `(base_seed, index)`, no
//! shared accumulators with order-sensitive arithmetic).
//!
//! # Choosing the thread count
//!
//! Resolution order, first match wins:
//!
//! 1. an active [`with_threads`] override on the calling thread (regions
//!    propagate it to their workers, so nesting inherits it),
//! 2. the `NOC_PAR_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pool::run_region;
pub use pool::RegionStats;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "NOC_PAR_THREADS";

/// Total OS threads the persistent pool has spawned in this process so
/// far. Workers are never torn down, so two identical-width regions in
/// sequence leave this unchanged — the regression tests use exactly that
/// property to prove pool re-use.
pub fn pool_threads_spawned() -> usize {
    pool::Pool::global().threads_spawned()
}

thread_local! {
    /// Per-thread override installed by [`with_threads`] (and propagated
    /// into region workers).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };

    /// Pool involvement of the most recent region completed on this
    /// thread; see [`last_region_stats`].
    static LAST_REGION_STATS: Cell<RegionStats> = const { Cell::new(RegionStats::ZERO) };
}

/// Pool involvement of the most recent [`par_map`] or [`join`] call
/// that completed on the calling thread. A region that ran sequentially
/// (width 1, single item) reports [`RegionStats::ZERO`].
pub fn last_region_stats() -> RegionStats {
    LAST_REGION_STATS.with(Cell::get)
}

/// Publishes a region's stats: thread-local for [`last_region_stats`],
/// and as schedule-class span attributes (dropped from ops-mode traces —
/// claims and queue waits are racy by nature).
fn record_region(span: &noc_obs::Span, stats: RegionStats) {
    span.sched_attr("tickets_claimed", stats.tickets_claimed);
    span.sched_attr("queue_wait_us", stats.queue_wait_ns / 1_000);
    LAST_REGION_STATS.with(|c| c.set(stats));
}

/// Runs `f` with the effective thread count pinned to `max(threads, 1)`
/// on this thread (and any parallel regions it enters, transitively).
///
/// This is the race-free alternative to mutating [`THREADS_ENV`] from
/// tests: overrides are thread-local, so concurrently running tests
/// cannot observe each other's setting.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let previous = THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1))));
    // Restore on unwind too, so a panicking test doesn't poison later
    // tests running on the same thread.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(previous);
    f()
}

/// The effective worker count for parallel regions entered from this
/// thread: [`with_threads`] override, else [`THREADS_ENV`], else
/// available parallelism (min 1). A value of 1 means sequential
/// execution.
pub fn current_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Work-stealing deques for one region: `pop_own` takes from the front
/// of the worker's own deque, `steal` from the back of the first
/// non-empty victim (scanning right from the thief).
struct TaskQueues<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
}

impl<T> TaskQueues<T> {
    /// Deals `items` into `workers` deques in contiguous blocks, so that
    /// under zero stealing each worker handles a cache-friendly index
    /// range.
    fn deal(items: Vec<T>, workers: usize) -> Self {
        let n = items.len();
        let per = n.div_ceil(workers);
        let mut queues: Vec<Mutex<VecDeque<T>>> = Vec::with_capacity(workers);
        let mut iter = items.into_iter();
        for _ in 0..workers {
            queues.push(Mutex::new(iter.by_ref().take(per).collect()));
        }
        TaskQueues { queues }
    }

    fn pop_own(&self, worker: usize) -> Option<T> {
        self.queues[worker].lock().unwrap().pop_front()
    }

    fn steal(&self, thief: usize) -> Option<T> {
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (thief + offset) % n;
            if let Some(task) = self.queues[victim].lock().unwrap().pop_back() {
                return Some(task);
            }
        }
        None
    }

    fn next_task(&self, worker: usize) -> Option<T> {
        self.pop_own(worker).or_else(|| self.steal(worker))
    }
}

/// Runs `f(index, item)` over all items and returns the results **in
/// input order**, regardless of thread count or schedule.
///
/// With an effective thread count of 1 (or fewer than 2 items) the map
/// runs inline on the calling thread. Worker panics are propagated to
/// the caller (first worker in spawn order wins).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    // Workers inherit the caller's *configured* width, not the
    // item-count clamp below — a 2-item region at 8 threads must not
    // throttle nested regions inside those 2 tasks down to 2.
    let configured = current_threads();
    let threads = configured.min(n);
    // One trace lane per *item* (not per worker): lane `i` holds item
    // `i`'s spans regardless of which thread ran it, so the merged tree
    // is schedule-independent. Both execution paths below run every item
    // through `tasks.run`, keeping the sequential and parallel traces
    // structurally identical.
    let span = noc_obs::span("par_map");
    span.attr("items", n);
    let tasks = noc_obs::task_set(n);
    if threads <= 1 {
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, t)| tasks.run(i, || f(i, t)))
            .collect();
        record_region(&span, RegionStats::ZERO);
        return out;
    }

    let queues = TaskQueues::deal(items.into_iter().enumerate().collect(), threads);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots_mutex = Mutex::new(&mut slots);

    let worker_loop = |worker: usize| {
        with_threads(configured, || {
            let mut local: Vec<(usize, R)> = Vec::new();
            while let Some((index, item)) = queues.next_task(worker) {
                local.push((index, tasks.run(index, || f(index, item))));
            }
            let mut slots = slots_mutex.lock().unwrap();
            for (index, result) in local {
                slots[index] = Some(result);
            }
        })
    };
    // Helpers draw distinct deque slots 1..threads; the caller is slot 0.
    // A cancelled ticket simply never draws — its deque is drained by
    // stealing. Each helper hands its work counts back to the caller.
    let next_slot = AtomicUsize::new(1);
    let helper_counts = Mutex::new(Vec::new());
    let helper = || {
        let ((), counts) =
            noc_obs::measure(|| worker_loop(next_slot.fetch_add(1, Ordering::Relaxed)));
        helper_counts.lock().unwrap().push(counts);
    };
    let stats = run_region(threads - 1, &helper, || worker_loop(0));
    for counts in helper_counts.into_inner().unwrap() {
        noc_obs::absorb(&counts);
    }
    record_region(&span, stats);
    drop(slots_mutex);

    slots
        .into_iter()
        .map(|slot| slot.expect("every index executed exactly once"))
        .collect()
}

/// Fallible [`par_map`]: `Ok` with all results in input order, or the
/// `Err` of the **smallest failing index** — exactly the error a
/// sequential left-to-right loop would have returned first.
///
/// All tasks run to completion even when one fails (no cancellation);
/// failed runs are expected to be cheap in this workspace because the
/// mapper aborts a whole attempt on the first unroutable pair.
pub fn try_par_map<T, R, E, F>(items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(usize, T) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for result in par_map(items, f) {
        out.push(result?);
    }
    Ok(out)
}

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// `a` always runs on the calling thread; with an effective thread count
/// of 1, `a` then `b` run sequentially. With more threads, `b` is
/// offered to the persistent pool — and reclaimed by the caller (run
/// inline after `a`) if no worker picked it up, so a busy pool degrades
/// to sequential execution instead of blocking.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
{
    let threads = current_threads();
    // Lane 0 is `a`, lane 1 is `b`, on every execution path (sequential,
    // helper-run, reclaimed), so the trace never depends on who ran `b`.
    let span = noc_obs::span("join");
    let tasks = noc_obs::task_set(2);
    if threads <= 1 {
        let ra = tasks.run(0, a);
        let rb = tasks.run(1, b);
        record_region(&span, RegionStats::ZERO);
        return (ra, rb);
    }
    let b_cell: Mutex<Option<B>> = Mutex::new(Some(b));
    let rb_slot: Mutex<Option<std::thread::Result<(RB, noc_obs::Counts)>>> = Mutex::new(None);
    let helper = || {
        let taken = b_cell.lock().unwrap().take();
        if let Some(b) = taken {
            let result = catch_unwind(AssertUnwindSafe(|| {
                noc_obs::measure(|| tasks.run(1, || with_threads(threads, b)))
            }));
            *rb_slot.lock().unwrap() = Some(result);
        }
    };
    let mut ra = None;
    let stats = run_region(1, &helper, || ra = Some(tasks.run(0, a)));
    record_region(&span, stats);
    let ra = ra.expect("caller closure ran");
    // After the region, the helper either ran to completion (slot set)
    // or its ticket was cancelled (b still in the cell).
    let rb = match rb_slot.into_inner().unwrap() {
        Some(Ok((rb, counts))) => {
            noc_obs::absorb(&counts);
            rb
        }
        Some(Err(payload)) => resume_unwind(payload),
        None => {
            let b = b_cell
                .into_inner()
                .unwrap()
                .expect("ticket cancelled implies b untaken");
            tasks.run(1, b)
        }
    };
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || {
                par_map((0..100).collect::<Vec<u64>>(), |i, x| {
                    assert_eq!(i as u64, x);
                    x * x
                })
            });
            let want: Vec<u64> = (0..100).map(|x| x * x).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert_eq!(par_map(empty, |_, x: u32| x), Vec::<u32>::new());
        assert_eq!(
            with_threads(8, || par_map(vec![7], |_, x: u32| x + 1)),
            vec![8]
        );
    }

    #[test]
    fn try_par_map_reports_smallest_failing_index() {
        for threads in [1, 2, 8] {
            let err = with_threads(threads, || {
                try_par_map((0..64).collect::<Vec<usize>>(), |_, x| {
                    if x % 7 == 3 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                })
            })
            .unwrap_err();
            assert_eq!(err, 3, "threads = {threads}");
        }
    }

    #[test]
    fn try_par_map_ok_round_trips() {
        let got: Result<Vec<i32>, ()> =
            with_threads(4, || try_par_map(vec![1, 2, 3], |_, x| Ok(x * 10)));
        assert_eq!(got.unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 4] {
            let (a, b) = with_threads(threads, || join(|| 6 * 7, || "ok"));
            assert_eq!((a, b), (42, "ok"));
        }
    }

    #[test]
    fn with_threads_propagates_into_workers() {
        // Nested regions inside workers must see the caller's override.
        let seen = with_threads(3, || par_map(vec![(); 3], |_, ()| current_threads()));
        assert_eq!(seen, vec![3, 3, 3]);
    }

    #[test]
    fn item_count_clamp_does_not_throttle_nested_regions() {
        // A 2-item region at 8 configured threads spawns 2 workers, but
        // nested regions inside those tasks still get the full width.
        let seen = with_threads(8, || par_map(vec![(), ()], |_, ()| current_threads()));
        assert_eq!(seen, vec![8, 8]);
    }

    #[test]
    fn sequential_fallback_spawns_nothing() {
        // With one thread the closure runs on the calling thread, so a
        // non-Sync-unfriendly pattern like a thread-local is observable.
        thread_local! {
            static MARK: Cell<u32> = const { Cell::new(0) };
        }
        MARK.with(|m| m.set(17));
        let seen = with_threads(1, || par_map(vec![(), ()], |_, ()| MARK.with(Cell::get)));
        assert_eq!(seen, vec![17, 17]);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // A mildly stateful per-task computation (seeded by index) must
        // reduce identically at every width.
        let run = |threads: usize| {
            with_threads(threads, || {
                par_map((0..257).collect::<Vec<u64>>(), |i, seed| {
                    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
                    for _ in 0..100 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                    x
                })
            })
        };
        let baseline = run(1);
        for threads in [2, 3, 8, 16] {
            assert_eq!(run(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn pool_workers_are_reused_across_regions() {
        // Warm the pool to this test binary's widest region — 16, used
        // by `deterministic_across_thread_counts`, which may run
        // concurrently — then prove that running more regions spawns
        // nothing new: after warm-up no test in this process can grow
        // the pool, so the count is stable.
        let _ = with_threads(16, || par_map((0..64).collect::<Vec<u64>>(), |_, x| x));
        let run = || with_threads(8, || par_map((0..64).collect::<Vec<u64>>(), |_, x| x * 2));
        let expected: Vec<u64> = (0..64).map(|x| x * 2).collect();
        assert_eq!(run(), expected);
        let warmed = pool_threads_spawned();
        assert!(warmed >= 1, "a 16-wide region must have enlisted the pool");
        for _ in 0..32 {
            assert_eq!(run(), expected);
        }
        assert_eq!(
            pool_threads_spawned(),
            warmed,
            "sequential regions must re-use pooled workers, not spawn"
        );
    }

    #[test]
    fn caller_absorbs_work_when_pool_is_saturated() {
        // Deeply nested regions: inner regions find every pool worker
        // busy with the outer region, so their tickets are cancelled and
        // the calling task does all the work itself — results unchanged.
        let got = with_threads(4, || {
            par_map((0..8).collect::<Vec<u64>>(), |_, outer| {
                let inner = par_map((0..8).collect::<Vec<u64>>(), |_, x| x + outer);
                inner.iter().sum::<u64>()
            })
        });
        let want: Vec<u64> = (0..8)
            .map(|outer| (0..8).map(|x| x + outer).sum())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn join_reclaims_cancelled_second_closure() {
        // Saturate the pool from inside a region, then join: even when
        // no helper is free, both closures must run exactly once.
        let count = AtomicUsize::new(0);
        let (a, b) = with_threads(4, || {
            join(
                || {
                    count.fetch_add(1, Ordering::SeqCst);
                    1
                },
                || {
                    count.fetch_add(1, Ordering::SeqCst);
                    2
                },
            )
        });
        assert_eq!((a, b), (1, 2));
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn width1_region_reports_zero_pool_involvement() {
        let got = with_threads(1, || par_map(vec![1, 2, 3], |_, x: u32| x * 2));
        assert_eq!(got, vec![2, 4, 6]);
        assert_eq!(
            last_region_stats(),
            RegionStats::ZERO,
            "a sequential region must not touch the pool"
        );
        let _ = with_threads(1, || join(|| 1, || 2));
        assert_eq!(last_region_stats(), RegionStats::ZERO);
    }

    #[test]
    fn region_stats_account_for_every_ticket() {
        let _ = with_threads(4, || {
            par_map((0..64).collect::<Vec<u64>>(), |_, x| x.wrapping_mul(3))
        });
        let stats = last_region_stats();
        assert_eq!(stats.tickets_submitted, 3, "width 4 enqueues 3 tickets");
        assert_eq!(
            stats.tickets_claimed + stats.tickets_cancelled,
            stats.tickets_submitted,
            "every ticket is either claimed or cancelled"
        );
        if stats.tickets_claimed == 0 {
            assert_eq!(stats.queue_wait_ns, 0, "no claim, no queue wait");
        }
    }

    // The only test in this binary that installs the (process-global)
    // noc-obs collector: concurrent tests never record (their threads
    // hold no cursor), so they cannot disturb this trace.
    #[test]
    fn op_clock_region_trace_is_identical_at_any_width() {
        let run = |threads: usize| {
            assert!(noc_obs::install(noc_obs::TraceMode::Ops));
            with_threads(threads, || {
                par_map((0..8).collect::<Vec<u64>>(), |i, _| {
                    let sp = noc_obs::span("task");
                    sp.attr("index", i);
                    noc_obs::count(noc_obs::Counter::SimCycles, 1 + i as u64);
                })
            });
            noc_obs::finish().unwrap().render_text()
        };
        let baseline = run(1);
        assert!(baseline.contains("par_map #1"), "got:\n{baseline}");
        assert!(baseline.contains("items=8"));
        for threads in [2, 4] {
            assert_eq!(run(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn pool_work_counts_reach_the_caller() {
        use noc_obs::{count, counts, Counter};
        let counted = |threads: usize| {
            let before = counts()[Counter::DijkstraPops];
            with_threads(threads, || {
                par_map((0..64).collect::<Vec<u64>>(), |_, x| {
                    count(Counter::DijkstraPops, x);
                    let (_, ()) = join(|| (), || count(Counter::DijkstraPops, 1));
                })
            });
            counts()[Counter::DijkstraPops] - before
        };
        let want = (0..64).sum::<u64>() + 64;
        for threads in [1, 2, 4] {
            assert_eq!(counted(threads), want, "threads = {threads}");
        }
    }

    #[test]
    fn panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(vec![0, 1, 2, 3], |_, x| {
                    if x == 2 {
                        panic!("boom");
                    }
                    x
                })
            })
        });
        assert!(result.is_err());
    }
}
