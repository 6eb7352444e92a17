//! Deterministic operation counters for the mapping hot paths.
//!
//! The bench trajectory (`BENCH_nocmap.json`, see `docs/PERFORMANCE.md`)
//! needs numbers that are stable across machines and thread counts —
//! wall-clock is neither. These counters are: every increment is tied to
//! a unit of *algorithmic* work (a path query, a Dijkstra settle, a
//! group re-route) that the determinism contract already guarantees is
//! identical at any `noc-par` width, so the totals are too. They double
//! as regression oracles: `tests/perf_counters.rs` asserts the annealer
//! no longer performs one full re-route per proposed move and that path
//! queries stop allocating per call.
//!
//! The counters live in one store, the thread-local vector of
//! [`noc_obs`]: hot paths in every crate call
//! [`noc_obs::count`]`(`[`Counter`]`, n)`, and [`snapshot`] reads the
//! calling thread's vector as a [`PerfSnapshot`] with one named field
//! per counter. `noc-par` hands a pool worker's counts back to the
//! region's caller before the region returns, so
//! `snapshot().since(&before)` is exactly the work the calling thread
//! asked for since `before`, at any width, whatever else runs in the
//! process.
//!
//! The same vector is the op clock trace spans are timed with; see
//! `docs/OBSERVABILITY.md`.

use noc_obs::Counter;

macro_rules! snapshot_fields {
    ($($name:ident => $counter:ident,)*) => {
        /// A copy of the calling thread's counters, one field per
        /// [`Counter`] the mapping stack reports.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct PerfSnapshot {
            $(
                #[doc = concat!("[`Counter::", stringify!($counter), "`].")]
                pub $name: u64,
            )*
        }

        /// Reads the calling thread's counters.
        pub fn snapshot() -> PerfSnapshot {
            let counts = noc_obs::counts();
            PerfSnapshot {
                $($name: counts[Counter::$counter],)*
            }
        }

        impl PerfSnapshot {
            /// The per-field difference `self - earlier`.
            #[must_use]
            pub fn since(&self, earlier: &PerfSnapshot) -> PerfSnapshot {
                PerfSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }

            /// Every field as `(name, value)`, in declaration order: the
            /// one counter list a BENCH record's op object is written
            /// from.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

snapshot_fields! {
    path_queries => PathQueries,
    dijkstra_pops => DijkstraPops,
    scratch_allocs => ScratchAllocs,
    group_routes => GroupRoutes,
    full_maps => FullMaps,
    groups_rerouted => GroupsRerouted,
    groups_reused => GroupsReused,
    anneal_moves => AnnealMoves,
    anneal_accepts => AnnealAccepts,
    route_cache_hits => RouteCacheHits,
    route_cache_misses => RouteCacheMisses,
    admissions => Admissions,
    rejections => Rejections,
    displacement_evictions => DisplacementEvictions,
    batch_flushes => BatchFlushes,
    faults_injected => FaultsInjected,
    heals_attempted => HealsAttempted,
    heal_reroutes => HealReroutes,
    heal_evictions => HealEvictions,
    conflict_word_tests => ConflictWordTests,
    trace_spans => TraceSpans,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_are_per_field() {
        let a = snapshot();
        noc_obs::count(Counter::PathQueries, 1);
        noc_obs::count(Counter::DijkstraPops, 5);
        let d = snapshot().since(&a);
        assert_eq!((d.path_queries, d.dijkstra_pops), (1, 5));
        assert_eq!(d.full_maps, 0);
    }
}
