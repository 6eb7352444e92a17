//! Traffic-model regression tests: seeded bursty scenarios must be
//! byte-identical at every thread count, and the constant-rate default
//! must reproduce the pre-traffic-subsystem engine behaviour exactly
//! (golden values captured from the seed-2006 pipeline before
//! `TrafficModel` existed).

use noc_multiusecase::benchgen::{chained_chain, SpreadConfig};
use noc_multiusecase::flow::{registry, render::render, run_spec};
use noc_multiusecase::map::design::design_smallest_mesh;
use noc_multiusecase::map::MapperOptions;
use noc_multiusecase::par::with_threads;
use noc_multiusecase::sim::{
    simulate_group, simulate_mixed, BestEffortFlow, SimConfig, TrafficModel,
};
use noc_multiusecase::tdma::TdmaSpec;
use noc_multiusecase::usecase::UseCaseGroups;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The `be_burst` sweep — parallel over its points via `noc-par` — must
/// render byte-identical tables at 1, 2, and 8 workers (the acceptance
/// bar for `nocmap_cli flow run be_burst` under `NOC_PAR_THREADS`).
#[test]
fn be_burst_table_identical_across_thread_counts() {
    let spec = registry::find("be_burst").expect("be_burst is registered");
    let be_burst = || render(&run_spec(&spec).expect("be_burst runs"));
    let base = with_threads(1, be_burst);
    assert!(base.contains("mmpp-1/8"), "sweep must cover seeded bursts");
    for threads in THREAD_COUNTS {
        let table = with_threads(threads, be_burst);
        assert_eq!(table, base, "be_burst table differs at {threads} threads");
    }
}

/// A seeded random-burst mixed scenario is a pure function of
/// `(seed, flow order)`: full `MixedReport`s compare equal across
/// repeated runs at every thread count.
#[test]
fn seeded_bursty_scenario_reports_identical_across_thread_counts() {
    let run = || {
        let spec = TdmaSpec::paper_default();
        let (_, routes) = chained_chain(4, 3);
        let be: Vec<BestEffortFlow> = routes
            .iter()
            .map(|r| BestEffortFlow {
                key: (r.src, r.dst),
                path: r.path.clone(),
                inject_bandwidth: noc_multiusecase::topology::units::Bandwidth::from_mbps(300),
                traffic: TrafficModel::RandomBursts {
                    mean_on: 16,
                    mean_off: 48,
                    seed: 2006,
                },
            })
            .collect();
        simulate_mixed(&spec, &[], &be, 8192)
    };
    let base = with_threads(1, run);
    assert!(base.best_effort.values().any(|s| s.injected_words > 0));
    for threads in THREAD_COUNTS {
        assert_eq!(
            with_threads(threads, run),
            base,
            "seeded scenario differs at {threads} threads"
        );
    }
}

/// The constant-rate default reproduces the engine's pre-`TrafficModel`
/// arithmetic bit-for-bit: golden aggregates of the seed-2006 Sp-2
/// group-0 replay, captured on the engine before this subsystem landed.
#[test]
fn constant_rate_default_matches_pre_traffic_golden_report() {
    let soc = SpreadConfig::paper(2).generate(2006);
    let groups = UseCaseGroups::singletons(2);
    let sol = design_smallest_mesh(
        &soc,
        &groups,
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        400,
    )
    .expect("seed-2006 benchmark maps");
    let report = simulate_group(
        &sol,
        0,
        &SimConfig {
            cycles: 4096,
            queueing_slack_tables: 1,
        },
    );
    assert_eq!(report.contention_violations, 0);
    assert_eq!(report.latency_violations, 0);
    assert_eq!(report.flows.len(), 94);
    let (mut injected, mut delivered, mut lat_total, mut lat_max) = (0u64, 0u64, 0u64, 0u64);
    for stats in report.flows.values() {
        injected += stats.injected_words;
        delivered += stats.delivered_words;
        lat_total += stats.total_latency_cycles;
        lat_max = lat_max.max(stats.max_latency_cycles);
    }
    assert_eq!(injected, 3234, "golden injected-word count");
    assert_eq!(delivered, 3192, "golden delivered-word count");
    assert_eq!(lat_total, 84099, "golden total latency");
    assert_eq!(lat_max, 131, "golden max latency");
    let first = report
        .flows
        .iter()
        .next()
        .expect("group 0 has flows")
        .1
        .clone();
    assert_eq!(first.injected_words, 352);
    assert_eq!(first.delivered_words, 352);
    assert_eq!(first.max_latency_cycles, 12);
    assert_eq!(first.total_latency_cycles, 2420);
    assert_eq!(first.backlog_words, 0);
}

/// An explicit `TrafficModel::Constant` and the `..Default::default()`
/// model are the same source — the API contract that lets callers omit
/// the field's value everywhere.
#[test]
fn default_traffic_model_is_constant() {
    assert_eq!(TrafficModel::default(), TrafficModel::Constant);
}
