//! The persistent work-stealing pool behind the fork-join primitives.
//!
//! Before this module existed every parallel region spawned (and joined)
//! its own team of scoped threads. Regions in this workspace are coarse,
//! but the mapper, annealer and suite runners enter thousands of them per
//! design sweep, and on hot paths the spawn/join pair dominated the
//! per-region overhead. The pool amortises that cost: worker threads are
//! spawned **lazily, once per process**, parked on a condvar between
//! regions, and re-used by every subsequent region.
//!
//! # How a region runs
//!
//! A region (one `par_map` or `join` call) wanting `w` workers
//! enqueues `w - 1` *tickets* — claims on helper participation — and then
//! runs its own share of the work on the calling thread. A pool worker
//! that pops a ticket runs the region's worker closure to completion.
//! When the caller finishes its share it **cancels** every ticket of its
//! region that is still unclaimed (their work has already been absorbed
//! by the work-stealing deques) and blocks only for the claimed ones.
//! Helpers are therefore pure acceleration: with a busy pool the caller
//! simply does all the work itself — work-conserving, never blocking on
//! an unavailable worker, and trivially deadlock-free (a waiting
//! submitter never claims tickets, so wait-for edges only point at
//! workers actively finishing a closure).
//!
//! # Why the one `unsafe` block is sound
//!
//! Pool workers are `'static` threads, but region closures borrow the
//! caller's stack. The lifetime is erased when a ticket is enqueued; the
//! borrow is protected by the region protocol above, enforced by a drop
//! guard ([`run_region`]): **no path returns (or unwinds) past the
//! borrowed closure while a ticket referencing it is unclaimed or
//! running.** This is exactly the argument `std::thread::scope` makes,
//! minus the thread spawn.

#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Pool involvement of one completed parallel region, as reported by
/// [`crate::last_region_stats`]. A region that ran sequentially (width
/// 1, or a single-item map) never touches the pool and reports all
/// zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Helper tickets enqueued for the region (`width - 1`).
    pub tickets_submitted: usize,
    /// Tickets a pool worker actually picked up.
    pub tickets_claimed: usize,
    /// Tickets cancelled unclaimed when the caller finished first.
    pub tickets_cancelled: usize,
    /// Total time claimed tickets spent queued before a worker picked
    /// them up, summed across helpers.
    pub queue_wait_ns: u64,
}

impl RegionStats {
    /// The all-zero value (`const`, unlike `Default::default()`).
    pub const ZERO: RegionStats = RegionStats {
        tickets_submitted: 0,
        tickets_claimed: 0,
        tickets_cancelled: 0,
        queue_wait_ns: 0,
    };
}

/// Hard cap on pool threads: far above any sane `NOC_PAR_THREADS`, low
/// enough that a typo cannot exhaust process limits.
const MAX_POOL_WORKERS: usize = 256;

/// Shared state of one region: how many claimed tickets have finished,
/// and the first panic any helper produced.
struct RegionState {
    finished: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Queue wait of claimed tickets, accumulated at claim time — every
    /// claim happens before the corresponding finish, so the sum is
    /// complete once the region's claimed tickets are awaited.
    queue_wait_ns: AtomicU64,
}

impl RegionState {
    fn new() -> Self {
        RegionState {
            finished: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
            queue_wait_ns: AtomicU64::new(0),
        }
    }

    fn finish_one(&self) {
        let mut finished = self.finished.lock().unwrap();
        *finished += 1;
        self.done.notify_all();
    }

    fn wait_finished(&self, expected: usize) {
        let mut finished = self.finished.lock().unwrap();
        while *finished < expected {
            finished = self.done.wait(finished).unwrap();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().unwrap().take()
    }
}

/// One helper-participation claim on a region. `work` points at the
/// region's worker closure on the submitting thread's stack; see the
/// module docs for why the erased lifetime is sound.
struct Ticket {
    work: *const (dyn Fn() + Sync),
    region: Arc<RegionState>,
    region_id: u64,
    enqueued: Instant,
}

// SAFETY: `work` is only dereferenced while the submitting region is
// blocked in `run_region` (tickets are cancelled or awaited before it
// returns), so sending the pointer to a pool worker cannot outlive the
// closure it points at. `region` is an `Arc` and `region_id` is plain
// data.
unsafe impl Send for Ticket {}

struct Inner {
    queue: VecDeque<Ticket>,
    workers: usize,
}

/// The process-global worker pool.
pub(crate) struct Pool {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    next_region: AtomicU64,
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    pub(crate) fn global() -> &'static Pool {
        POOL.get_or_init(|| Pool {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                workers: 0,
            }),
            work_ready: Condvar::new(),
            next_region: AtomicU64::new(0),
            spawned: AtomicUsize::new(0),
        })
    }

    /// Total OS threads this pool has ever spawned (they are never torn
    /// down, so this is also the current worker count). Exposed for the
    /// pool-reuse regression tests.
    pub(crate) fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Enqueues `helpers` tickets for `work`, growing the worker team if
    /// the pool is smaller than the region wants (capped). Returns the
    /// region id used to cancel unclaimed tickets later.
    fn submit(
        &'static self,
        helpers: usize,
        work: *const (dyn Fn() + Sync),
        region: &Arc<RegionState>,
    ) -> u64 {
        let region_id = self.next_region.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        let want = helpers.min(MAX_POOL_WORKERS);
        while inner.workers < want {
            inner.workers += 1;
            self.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name("noc-par-worker".into())
                .spawn(move || self.worker_main())
                .expect("cannot spawn noc-par pool worker");
        }
        let enqueued = Instant::now();
        for _ in 0..helpers {
            inner.queue.push_back(Ticket {
                work,
                region: Arc::clone(region),
                region_id,
                enqueued,
            });
        }
        drop(inner);
        self.work_ready.notify_all();
        region_id
    }

    /// Removes every still-unclaimed ticket of `region_id`, returning how
    /// many were cancelled.
    fn cancel(&self, region_id: u64) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let before = inner.queue.len();
        inner.queue.retain(|t| t.region_id != region_id);
        before - inner.queue.len()
    }

    fn worker_main(&'static self) {
        loop {
            let ticket = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if let Some(t) = inner.queue.pop_front() {
                        break t;
                    }
                    inner = self.work_ready.wait(inner).unwrap();
                }
            };
            let region = Arc::clone(&ticket.region);
            region.queue_wait_ns.fetch_add(
                ticket.enqueued.elapsed().as_nanos() as u64,
                Ordering::Relaxed,
            );
            let result = {
                // SAFETY: the ticket was claimed (removed from the
                // queue), so the submitting region waits for
                // `finish_one` below before releasing the borrow.
                let work = unsafe { &*ticket.work };
                catch_unwind(AssertUnwindSafe(work))
            };
            drop(ticket);
            if let Err(payload) = result {
                region.record_panic(payload);
            }
            region.finish_one();
        }
    }
}

/// Cancels unclaimed tickets and waits out claimed ones — including when
/// the caller's own share of the work unwinds, which is what keeps the
/// lifetime erasure sound on the panic path.
struct RegionGuard<'a> {
    pool: &'static Pool,
    region: &'a RegionState,
    region_id: u64,
    submitted: usize,
    cancelled: &'a Cell<usize>,
}

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        let cancelled = self.pool.cancel(self.region_id);
        self.cancelled.set(cancelled);
        self.region.wait_finished(self.submitted - cancelled);
    }
}

/// Runs one parallel region: `caller` executes on the current thread
/// while up to `helpers` pool workers run `work` (once each). Returns
/// the region's pool involvement after every claimed helper finished;
/// re-raises the first helper panic.
pub(crate) fn run_region(
    helpers: usize,
    work: &(dyn Fn() + Sync),
    caller: impl FnOnce(),
) -> RegionStats {
    if helpers == 0 {
        caller();
        return RegionStats::ZERO;
    }
    let pool = Pool::global();
    let region = Arc::new(RegionState::new());
    // SAFETY: erasing the closure's lifetime to enqueue it; the guard
    // below guarantees no ticket survives this function (cancelled or
    // finished), on both the return and unwind paths.
    let work: *const (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
    let region_id = pool.submit(helpers, work, &region);
    let cancelled = Cell::new(0);
    let guard = RegionGuard {
        pool,
        region: &region,
        region_id,
        submitted: helpers,
        cancelled: &cancelled,
    };
    caller();
    drop(guard);
    if let Some(payload) = region.take_panic() {
        resume_unwind(payload);
    }
    let cancelled = cancelled.get();
    RegionStats {
        tickets_submitted: helpers,
        tickets_claimed: helpers - cancelled,
        tickets_cancelled: cancelled,
        queue_wait_ns: region.queue_wait_ns.load(Ordering::Relaxed),
    }
}
