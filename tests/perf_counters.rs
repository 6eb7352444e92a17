//! Op-counter regression tests for the allocation-free hot loops, and
//! for the counters themselves.
//!
//! The counters (`nocmap::perf`, backed by `noc-obs`) are per thread,
//! and `noc-par` hands pool workers' counts back to the region's
//! caller, so a `snapshot().since(..)` delta is exact for the calling
//! thread even while other tests in this binary map concurrently.
//!
//! What is pinned here:
//!
//! * the annealer performs **no full re-route per move** — `full_maps`
//!   rises by exactly 1 (the initial sanity pass) no matter how many
//!   moves the walk proposes;
//! * delta evaluation **skips use-case groups untouched by a move**
//!   (`groups_reused > 0` on a spec with disjoint-core use-cases);
//! * path queries run against **re-used scratch buffers** — one
//!   allocation per group per map, not one per query;
//! * the annealer **memoizes through its route cache**: moves that
//!   revisit a placement signature are hits, and every group it
//!   re-routes is a miss;
//! * all of those counts are **identical at any thread count**;
//! * deltas are **exact under concurrency**: two threads mapping at once
//!   each see exactly the solo run's delta, and work that pool workers
//!   do is counted on the caller exactly once;
//! * a delta re-route allocates slot state and path scratch only for
//!   the groups that **actually route**, not for every affected group.

use noc_multiusecase::map::anneal::{refine, AnnealConfig};
use noc_multiusecase::map::design::design_smallest_mesh;
use noc_multiusecase::map::mapper::preset_twin;
use noc_multiusecase::map::perf::{self, PerfSnapshot};
use noc_multiusecase::map::strategy::displacement_eviction_budget;
use noc_multiusecase::map::{
    admit_group, map_multi_usecase, merged_group_flows, GroupConfig, MapperOptions,
    MappingSolution, RejectReason, RouteCache,
};
use noc_multiusecase::par::{par_map, with_threads};
use noc_multiusecase::tdma::TdmaSpec;
use noc_multiusecase::topology::units::{Bandwidth, Latency};
use noc_multiusecase::topology::MeshBuilder;
use noc_multiusecase::usecase::spec::{CoreId, SocSpec, UseCaseBuilder};
use noc_multiusecase::usecase::UseCaseGroups;
use std::sync::Barrier;

/// Two use-cases over **disjoint** core sets: a swap touching only one
/// side must leave the other group's configuration spliced, not
/// re-routed.
fn disjoint_soc() -> SocSpec {
    let c = CoreId::new;
    let bw = Bandwidth::from_mbps;
    let mut soc = SocSpec::new("disjoint");
    soc.add_use_case(
        UseCaseBuilder::new("u0")
            .flow(c(0), c(1), bw(400), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c(2), c(3), bw(300), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c(1), c(2), bw(50), Latency::UNCONSTRAINED)
            .unwrap()
            .build(),
    );
    soc.add_use_case(
        UseCaseBuilder::new("u1")
            .flow(c(4), c(5), bw(400), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c(6), c(7), bw(300), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c(5), c(6), bw(50), Latency::UNCONSTRAINED)
            .unwrap()
            .build(),
    );
    soc
}

#[test]
fn hot_loops_are_delta_evaluated_and_allocation_free() {
    let soc = disjoint_soc();
    let groups = UseCaseGroups::singletons(2);
    let opts = MapperOptions::default();

    // -- Mapping: one scratch per group, not one per path query. -------
    let before = perf::snapshot();
    let initial = design_smallest_mesh(&soc, &groups, TdmaSpec::paper_default(), &opts, 64)
        .expect("tiny spec maps");
    let map_delta = perf::snapshot().since(&before);
    assert!(
        map_delta.path_queries > map_delta.scratch_allocs,
        "queries ({}) must outnumber scratch allocations ({})",
        map_delta.path_queries,
        map_delta.scratch_allocs
    );
    assert_eq!(
        map_delta.path_queries, map_delta.group_routes,
        "the smallest-mesh search retries every failed path at most once per \
         (pair, group) attempt — each routing attempt is one query here"
    );

    // -- Annealing: delta evaluation, rollback in place. ---------------
    let cfg = AnnealConfig {
        iterations: 40,
        chains: 1,
        seed: 2006,
        ..Default::default()
    };
    let run_refine = || {
        let before = perf::snapshot();
        let refined = refine(&soc, &groups, &opts, &initial, &cfg).expect("refine succeeds");
        (perf::snapshot().since(&before), refined)
    };
    let (delta, refined) = run_refine();
    assert!(refined.comm_cost() <= initial.comm_cost());
    assert_eq!(
        delta.full_maps, 1,
        "exactly one full re-route (the initial sanity pass) regardless of \
         {} proposed moves — the walk itself must never full-map",
        delta.anneal_moves
    );
    assert!(delta.anneal_moves > 0, "the walk must propose moves");
    assert_eq!(
        delta.groups_rerouted + delta.groups_reused,
        2 * delta.anneal_moves,
        "every evaluated move accounts for both groups, re-routed or spliced"
    );
    assert!(
        delta.groups_reused > 0,
        "disjoint-core use-cases: moves inside one group must splice the \
         other ({} rerouted, {} reused)",
        delta.groups_rerouted,
        delta.groups_reused
    );

    // -- Route cache: revisited signatures are spliced, not re-routed. --
    assert!(
        delta.route_cache_hits > 0,
        "a 40-iteration walk over two groups must revisit placement signatures"
    );
    assert_eq!(
        delta.groups_rerouted, delta.route_cache_misses,
        "every re-routed group is a cache miss, and every hit is spliced"
    );

    // -- Determinism: identical op counts at any thread count. ---------
    let (seq, seq_sol) = with_threads(1, run_refine);
    let (par, par_sol) = with_threads(4, run_refine);
    assert_eq!(seq_sol, par_sol, "thread count must not change the walk");
    assert_eq!(
        seq, par,
        "op counters, cache hits and misses included, must be schedule-independent"
    );
}

/// The disjoint SoC mapped onto the smallest mesh, with its counter
/// delta as seen by the calling thread.
fn design_delta(threads: usize) -> PerfSnapshot {
    let soc = disjoint_soc();
    let groups = UseCaseGroups::singletons(2);
    let before = perf::snapshot();
    with_threads(threads, || {
        design_smallest_mesh(
            &soc,
            &groups,
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
            64,
        )
        .expect("tiny spec maps")
    });
    perf::snapshot().since(&before)
}

#[test]
fn concurrent_threads_each_count_only_their_own_work() {
    let solo = design_delta(4);
    assert!(solo.path_queries > 0);
    let barrier = Barrier::new(2);
    let deltas: Vec<PerfSnapshot> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    design_delta(4)
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(
        deltas,
        [solo, solo],
        "a thread's delta must not include another thread's work"
    );
}

/// Maps the disjoint SoC once per item of a `par_map` at `threads`
/// workers. Returns the caller's counter delta and whether any item ran
/// off the calling thread.
fn par_map_delta(threads: usize) -> (PerfSnapshot, bool) {
    let caller = std::thread::current().id();
    let before = perf::snapshot();
    let off_caller = with_threads(threads, || {
        par_map((0..8).collect::<Vec<u32>>(), |_, _| {
            design_delta(1);
            std::thread::current().id() != caller
        })
    });
    (perf::snapshot().since(&before), off_caller.contains(&true))
}

#[test]
fn pool_worker_counts_reach_the_caller() {
    let (seq, seq_off_caller) = par_map_delta(1);
    assert!(!seq_off_caller, "width 1 runs every item on the caller");
    assert!(seq.full_maps >= 8, "every item maps at least once");
    // Another thread maps meanwhile; none of its work may show up here.
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            barrier.wait();
            for _ in 0..16 {
                design_delta(4);
            }
        });
        barrier.wait();
        // Every width-4 run must match; repeat until one provably ran
        // items on pool workers (a busy pool may leave all of them to
        // the caller).
        let mut exercised = false;
        for _ in 0..50 {
            let (par, off_caller) = par_map_delta(4);
            assert_eq!(par, seq, "pool work must be counted on the caller once");
            if off_caller {
                exercised = true;
                break;
            }
        }
        assert!(
            exercised,
            "no item of 50 width-4 regions ran on a pool worker"
        );
    });
}

/// A refused admission's repair attempts each fail on the admitted
/// group's own pair before any other group routes, so they must
/// allocate slot state and path scratch for that one group per attempt,
/// not for every group a displaced core makes affected.
#[test]
fn refused_admission_allocates_only_for_groups_that_route() {
    let c = CoreId::new;
    let bw = Bandwidth::from_mbps;
    let topo = MeshBuilder::new(2, 2)
        .nis_per_switch(1)
        .build()
        .unwrap()
        .into_topology();
    // Two live use-cases fill all four NIs, so every displacement move
    // evicts a core and makes its use-case's group affected.
    let mut soc = SocSpec::new("refused");
    for (name, src, dst) in [("u0", 0, 1), ("u1", 2, 3)] {
        let uc = UseCaseBuilder::new(name)
            .flow(c(src), c(dst), bw(100), Latency::UNCONSTRAINED)
            .unwrap()
            .build();
        soc.add_use_case(uc);
    }
    let options = MapperOptions::default();
    let spec = TdmaSpec::paper_default();
    let live = UseCaseGroups::singletons(2);
    let greedy = map_multi_usecase(&soc, &live, &topo, spec, &options).unwrap();
    let running = preset_twin(&options, &greedy, &merged_group_flows(&soc, &live)).unwrap();

    // The admitted use-case's largest pair (routed first) has a latency
    // bound no path meets, so every repair attempt fails on it.
    soc.add_use_case(
        UseCaseBuilder::new("u2")
            .flow(c(0), c(1), bw(1500), Latency::from_ns(2))
            .unwrap()
            .build(),
    );
    let groups = UseCaseGroups::singletons(3);
    let merged = merged_group_flows(&soc, &groups);
    let mut configs = running.group_configs().to_vec();
    configs.push(GroupConfig::new());
    let base = MappingSolution::new(
        topo.clone(),
        running.label(),
        spec,
        running.core_mapping().clone(),
        configs,
    );
    let mut cache = RouteCache::new(&merged);
    let before = perf::snapshot();
    let refused = admit_group(
        &base,
        &options,
        2,
        displacement_eviction_budget(),
        &merged,
        &mut cache,
    );
    let delta = perf::snapshot().since(&before);
    assert!(
        matches!(refused, Err(RejectReason::Unroutable(_))),
        "the admission must be refused: {refused:?}"
    );
    // Each attempt routes one group once (its failing first pair), so
    // the groups that routed are exactly the routing attempts.
    assert_eq!(
        delta.scratch_allocs, delta.group_routes,
        "one allocation per group that routed"
    );
    assert!(
        delta.groups_rerouted > delta.group_routes,
        "displaced cores must have made other groups affected ({} affected, {} routed)",
        delta.groups_rerouted,
        delta.group_routes
    );
}
