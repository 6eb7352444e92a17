//! Parallel-determinism regression tests: the whole design pipeline must
//! produce **byte-identical** output at every `noc-par` thread count.
//!
//! The contract (see `crates/noc-par`): parallel regions reduce results
//! in input order, per-unit RNG seeds are derived deterministically, and
//! order-sensitive f64 accumulation is banned from compared quantities
//! (`comm_cost` accumulates in integers). These tests run the seed-2006
//! golden pipeline of `tests/determinism.rs` at 1, 2, and 8 workers and
//! compare full solutions, analytic reports, and emitted configuration
//! artifacts byte for byte.
//!
//! Thread counts are pinned with [`noc_par::with_threads`] (a
//! thread-local override), not by mutating `NOC_PAR_THREADS`, so
//! concurrently running tests cannot race on process-global state.

use noc_multiusecase::benchgen::{BottleneckConfig, SpreadConfig};
use noc_multiusecase::map::anneal::{refine, AnnealConfig};
use noc_multiusecase::map::design::{design_smallest_mesh, FabricKind};
use noc_multiusecase::map::emit::emit_text;
use noc_multiusecase::map::remap::{refine_with_remap, RemapConfig};
use noc_multiusecase::map::report::SolutionReport;
use noc_multiusecase::map::strategy::{design_with_strategy, StrategyKind};
use noc_multiusecase::map::{MapperOptions, MappingSolution};
use noc_multiusecase::par::with_threads;
use noc_multiusecase::tdma::TdmaSpec;
use noc_multiusecase::usecase::spec::SocSpec;
use noc_multiusecase::usecase::UseCaseGroups;

const SEED: u64 = 2006;
const MAX_SWITCHES: usize = 400;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn design(soc: &SocSpec) -> MappingSolution {
    let groups = UseCaseGroups::singletons(soc.use_case_count());
    design_smallest_mesh(
        soc,
        &groups,
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        MAX_SWITCHES,
    )
    .expect("pinned-seed benchmarks are feasible")
}

/// The full pipeline artifact for one benchmark at one thread count:
/// solution + human report + emitted configuration, all byte-comparable.
fn pipeline(soc: &SocSpec) -> (MappingSolution, String, String) {
    let groups = UseCaseGroups::singletons(soc.use_case_count());
    let solution = design(soc);
    solution.verify(soc, &groups).expect("solution verifies");
    let report = format!("{}", SolutionReport::analyze(&solution));
    let artifact = emit_text(&solution, soc, &groups);
    (solution, report, artifact)
}

#[test]
fn golden_pipeline_is_identical_at_1_2_and_8_threads() {
    for soc in [
        SpreadConfig::paper(4).generate(SEED),
        BottleneckConfig::paper(4).generate(SEED),
    ] {
        let (base_sol, base_report, base_artifact) = with_threads(1, || pipeline(&soc));
        for threads in THREAD_COUNTS {
            let (sol, report, artifact) = with_threads(threads, || pipeline(&soc));
            assert_eq!(sol, base_sol, "solution differs at {threads} threads");
            assert_eq!(report, base_report, "report differs at {threads} threads");
            assert_eq!(
                artifact, base_artifact,
                "emitted artifact differs at {threads} threads"
            );
        }
    }
}

#[test]
fn multi_chain_annealing_is_identical_across_thread_counts() {
    let soc = SpreadConfig::paper(4).generate(SEED);
    let groups = UseCaseGroups::singletons(4);
    let opts = MapperOptions::default();
    let initial = design(&soc);
    let cfg = AnnealConfig {
        iterations: 40,
        chains: 4,
        seed: 9,
        ..Default::default()
    };
    let base = with_threads(1, || refine(&soc, &groups, &opts, &initial, &cfg).unwrap());
    assert!(base.comm_cost_bytes_hops() <= initial.comm_cost_bytes_hops());
    for threads in THREAD_COUNTS {
        let refined = with_threads(threads, || {
            refine(&soc, &groups, &opts, &initial, &cfg).unwrap()
        });
        assert_eq!(refined, base, "annealing differs at {threads} threads");
    }
}

#[test]
fn per_group_remapping_is_identical_across_thread_counts() {
    let soc = BottleneckConfig::paper(4).generate(SEED);
    let groups = UseCaseGroups::singletons(4);
    let opts = MapperOptions::default();
    let base_sol = design(&soc);
    let cfg = RemapConfig {
        max_moved_cores: 2,
        rounds: 1,
    };
    let base = with_threads(1, || {
        refine_with_remap(&soc, &groups, &opts, &base_sol, &cfg).unwrap()
    });
    for threads in THREAD_COUNTS {
        let remapped = with_threads(threads, || {
            refine_with_remap(&soc, &groups, &opts, &base_sol, &cfg).unwrap()
        });
        assert_eq!(remapped, base, "remapping differs at {threads} threads");
    }
}

/// The strategy portfolio extends the byte-identity contract: every
/// [`StrategyKind`] — greedy and displacement local search — must
/// produce the same [`StrategyOutcome`] (solution *and* work
/// accounting: evictions) at every worker count. The refinement searches route candidates through the shared
/// route cache, so this also pins the cache as schedule-independent.
///
/// [`StrategyOutcome`]: noc_multiusecase::map::strategy::StrategyOutcome
#[test]
fn strategy_portfolio_is_identical_across_thread_counts() {
    let soc = SpreadConfig::paper(4).generate(SEED);
    let groups = UseCaseGroups::singletons(4);
    let opts = MapperOptions::default();
    for kind in StrategyKind::ALL {
        let run = || {
            design_with_strategy(
                &soc,
                &groups,
                TdmaSpec::paper_default(),
                &opts,
                MAX_SWITCHES,
                FabricKind::Mesh,
                kind,
            )
            .expect("pinned-seed benchmarks are feasible")
        };
        let base = with_threads(1, run);
        base.solution
            .verify(&soc, &groups)
            .expect("strategy output verifies");
        for threads in THREAD_COUNTS {
            let outcome = with_threads(threads, run);
            assert_eq!(
                outcome, base,
                "strategy {kind} differs at {threads} threads"
            );
        }
    }
}

/// The persistent-pool contract: once a region as wide as any this
/// binary uses has warmed the pool, running the full design pipeline
/// again — any number of times, at any width up to the warmed one —
/// spawns **zero** new OS threads. (Concurrent tests in this binary can
/// race the warm-up itself, but none uses a wider region, so after
/// warm-up the spawn count cannot move.)
#[test]
fn pool_is_reused_across_sequential_regions() {
    let soc = SpreadConfig::paper(4).generate(SEED);
    // Warm up at this binary's widest region width.
    let warm = with_threads(8, || pipeline(&soc));
    let spawned = noc_multiusecase::par::pool_threads_spawned();
    assert!(
        spawned >= 1,
        "an 8-wide pipeline must have enlisted the pool"
    );
    for threads in [2, 4, 8, 8] {
        let again = with_threads(threads, || pipeline(&soc));
        assert_eq!(again, warm, "pooled runs stay byte-identical");
    }
    assert_eq!(
        noc_multiusecase::par::pool_threads_spawned(),
        spawned,
        "sequential regions must re-use pooled workers, not spawn new ones"
    );
}

/// The speedup claim behind the parallel subsystem, kept honest: a
/// multi-group suite must not map *slower* with extra workers, and the
/// result must match the sequential one bit for bit. The parallel run
/// pins `min(4, available cores)` workers — pinning more threads than
/// cores turns speculative work into pure overhead, which is a
/// misconfiguration, not a property worth asserting. The actual measured
/// speedup is reported by `nocmap_cli flow run runtime` (and recorded in
/// CHANGES.md); the bound here is loose, and each side is timed as the
/// fastest of three alternating runs, so that slow or noisy CI machines
/// (or the other tests of this binary running beside it) cannot flake
/// it.
#[test]
fn parallel_mapping_does_not_lose_to_sequential() {
    let soc = SpreadConfig::paper(20).generate(SEED + 20);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(4);
    let time = |threads: usize| {
        with_threads(threads, || {
            let t0 = std::time::Instant::now();
            let sol = design(&soc);
            (t0.elapsed(), sol)
        })
    };
    // Warm-up so first-touch page faults don't bias the 1-thread run.
    let _ = time(1);
    let (mut sequential, mut parallel) = (std::time::Duration::MAX, std::time::Duration::MAX);
    for _ in 0..3 {
        let (seq_time, seq_sol) = time(1);
        let (par_time, par_sol) = time(threads);
        assert_eq!(seq_sol, par_sol);
        sequential = sequential.min(seq_time);
        parallel = parallel.min(par_time);
    }
    // Loose bound: the parallel run may take at most 1.5x the sequential
    // wall-clock (on multi-core hardware it is well below 1x).
    assert!(
        parallel.as_secs_f64() <= sequential.as_secs_f64() * 1.5,
        "{threads}-thread run took {parallel:?} vs 1-thread {sequential:?}"
    );
}
