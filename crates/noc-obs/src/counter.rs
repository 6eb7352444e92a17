//! The work counters: one thread-local vector per thread, one slot per
//! [`Counter`].
//!
//! Every crate that counts deterministic work calls [`count`]. The
//! vector is thread-local, so reading it ([`counts`]) sees exactly the
//! calling thread's work and nothing any other thread does. Parallel
//! regions keep that exact: `noc-par` runs each pool worker's share
//! under [`measure`] and [`absorb`]s the result into the region's
//! caller before the region returns, so after a region the caller's
//! vector holds the whole region's work at any width. A lane that runs
//! inline on the caller counts straight into the caller's vector.
//!
//! The same vector is the op clock spans are timed with: the op reading
//! is the sum of the *op counters* (see [`Counter`]).

use std::cell::Cell;
use std::ops::Index;

/// A unit of deterministic algorithmic work. Every count is a pure
/// function of the workload, so totals are identical at any `noc-par`
/// width.
///
/// The variants up to and including [`Counter::SimCycles`] are the
/// *op counters*: their sum is the op clock of ops-mode traces.
/// [`Counter::ConflictWordTests`] and [`Counter::TraceSpans`] are
/// counted but do not advance the op clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Constrained shortest-path queries (`nocmap::path::PathQuery`).
    PathQueries,
    /// Dijkstra heap pops across all path queries.
    DijkstraPops,
    /// Label-table scratch buffers allocated (`nocmap::path::PathScratch`);
    /// flat while queries climb proves the reuse convention holds.
    ScratchAllocs,
    /// Single `(pair, group)` routing attempts inside the mapper.
    GroupRoutes,
    /// Full `map_multi_usecase` runs (every group routed).
    FullMaps,
    /// Groups actually re-routed by a delta re-route
    /// (`nocmap::mapper::reroute_preset_groups`).
    GroupsRerouted,
    /// Groups a delta re-route did not route: spliced verbatim from the
    /// base solution or from its route cache.
    GroupsReused,
    /// Annealing moves proposed (self-moves excluded).
    AnnealMoves,
    /// Annealing moves accepted.
    AnnealAccepts,
    /// Per-group configs served from a `nocmap::mapper::RouteCache`
    /// instead of being re-routed.
    RouteCacheHits,
    /// Per-group configs routed and inserted into a route cache.
    RouteCacheMisses,
    /// Use-case admissions accepted, incrementally or by an online
    /// service's re-solve baseline.
    Admissions,
    /// Use-case admissions rejected (NI exhaustion or unroutable after
    /// displacement).
    Rejections,
    /// Pre-existing cores displaced onto another NI during
    /// admission-time displacement search.
    DisplacementEvictions,
    /// Non-empty request batches flushed at a reconfiguration point by
    /// the online mapping service.
    BatchFlushes,
    /// Link/NI failures injected into a running mapping.
    FaultsInjected,
    /// Heal attempts (initial auto-heals plus explicit re-heals).
    HealsAttempted,
    /// Groups re-routed by heal around failed resources.
    HealReroutes,
    /// Stranded cores re-placed off failed NIs by heal.
    HealEvictions,
    /// Simulated cycle-steps (cycles × simulated connections or links).
    SimCycles,
    /// `u64`-word operations in slot-conflict folds
    /// (`links × ⌈S/64⌉` per fold).
    ConflictWordTests,
    /// Trace spans recorded; stays 0 while no collector is installed.
    TraceSpans,
}

/// Number of counters.
const LEN: usize = Counter::TraceSpans as usize + 1;

/// Number of op counters: the prefix of [`Counter`] the op clock sums.
const OPS: usize = Counter::SimCycles as usize + 1;

thread_local! {
    static COUNTS: [Cell<u64>; LEN] = const { [const { Cell::new(0) }; LEN] };
}

/// A copy of one thread's counter vector, indexed by [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; LEN]);

impl Index<Counter> for Counts {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

/// Adds `n` units of `counter` work to the calling thread's vector.
#[inline]
pub fn count(counter: Counter, n: u64) {
    COUNTS.with(|c| {
        let cell = &c[counter as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// The calling thread's counters.
pub fn counts() -> Counts {
    COUNTS.with(|c| Counts(std::array::from_fn(|i| c[i].get())))
}

/// Runs `f` on a zeroed counter vector and returns what it counted
/// alongside its result; the calling thread's vector is restored
/// afterwards, so the work is *not* counted here. The hand-off half of
/// a lane run on another thread: [`absorb`] the result on the thread
/// the work belongs to.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let saved: [u64; LEN] = COUNTS.with(|c| std::array::from_fn(|i| c[i].replace(0)));
    let result = f();
    let counted = COUNTS.with(|c| std::array::from_fn(|i| c[i].replace(saved[i])));
    (result, Counts(counted))
}

/// Adds `counts` to the calling thread's vector.
pub fn absorb(counts: &Counts) {
    COUNTS.with(|c| {
        for (cell, n) in c.iter().zip(counts.0) {
            cell.set(cell.get().wrapping_add(n));
        }
    });
}

/// The calling thread's op clock: the sum of its op counters.
pub(crate) fn ops() -> u64 {
    COUNTS.with(|c| c[..OPS].iter().map(Cell::get).fold(0, u64::wrapping_add))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_per_thread() {
        let before = counts();
        count(Counter::PathQueries, 3);
        let other = std::thread::spawn(|| {
            count(Counter::PathQueries, 100);
            counts()[Counter::PathQueries]
        })
        .join()
        .unwrap();
        assert_eq!(other, 100, "a fresh thread starts at zero");
        assert_eq!(
            counts()[Counter::PathQueries] - before[Counter::PathQueries],
            3
        );
    }

    #[test]
    fn measure_isolates_and_absorb_hands_off() {
        count(Counter::DijkstraPops, 1);
        let before = counts();
        let ((), counted) = measure(|| count(Counter::DijkstraPops, 7));
        assert_eq!(counted[Counter::DijkstraPops], 7);
        assert_eq!(counts(), before, "measured work is not counted here");
        absorb(&counted);
        assert_eq!(
            counts()[Counter::DijkstraPops],
            before[Counter::DijkstraPops] + 7
        );
    }

    #[test]
    fn op_clock_sums_exactly_the_op_counters() {
        let before = ops();
        count(Counter::HealEvictions, 2);
        count(Counter::SimCycles, 5);
        count(Counter::ConflictWordTests, 1_000);
        count(Counter::TraceSpans, 1_000);
        assert_eq!(ops() - before, 7);
    }
}
