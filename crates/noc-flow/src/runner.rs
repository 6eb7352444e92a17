//! The generic experiment runner: executes any [`ExperimentSpec`]
//! through the pipeline API and returns its [`Table`].
//!
//! One executor per [`ExperimentKind`] evaluates its points through
//! [`StageConfig`]s run on a [`FlowContext`] (so traces keep a span per
//! stage), parallelizes via `noc-par` with ordered reduction, and writes
//! one row per point, so outputs are byte-identical at any thread
//! count.

use std::time::{Duration, Instant};

use noc_sim::{simulate_mixed, BestEffortFlow, Connection, TrafficModel};
use noc_tdma::TdmaSpec;
use noc_topology::units::{Bandwidth, Frequency, LinkWidth};
use noc_topology::{AreaModel, DvsModel};
use noc_usecase::spec::SocSpec;
use noc_usecase::UseCaseGroups;
use nocmap::anneal::AnnealConfig;
use nocmap::design::FabricKind;
use nocmap::dvs::{dvs_savings, parallel_min_frequency};
use nocmap::strategy::{design_with_strategy, StrategyKind};
use nocmap::{MapperOptions, MappingSolution, Placement};

use crate::config::{
    AblationVariant, BenchmarkSpec, BurstModel, ExperimentKind, ExperimentSpec, LabeledBench,
    StageConfig,
};
use crate::registry::MAX_SWITCHES;
use crate::stage::FlowContext;
use crate::table::{Cell, Column, Table};
use crate::FlowError;

/// Outcome of one ours-vs-WC comparison (a Figure 6 row, and an input
/// of the headline's mean area reduction).
#[derive(Debug, Clone)]
struct Comparison {
    label: String,
    /// Switches used by the multi-use-case method.
    ours: Option<usize>,
    /// Switches used by the worst-case baseline.
    wc: Option<usize>,
}

impl Comparison {
    /// `ours / wc`, when both methods succeeded — the y-axis of Figure 6.
    fn normalized(&self) -> Option<f64> {
        match (self.ours, self.wc) {
            (Some(a), Some(b)) if b > 0 => Some(a as f64 / b as f64),
            _ => None,
        }
    }
}

/// Runs `stages` in order on a fresh context for `soc` at the suites'
/// growth cap.
fn run_stages(
    stages: &[StageConfig],
    soc: &SocSpec,
    groups: &UseCaseGroups,
    spec: TdmaSpec,
    options: &MapperOptions,
) -> Result<FlowContext, FlowError> {
    let mut ctx = FlowContext::new(
        soc.clone(),
        groups.clone(),
        spec,
        options.clone(),
        MAX_SWITCHES,
    );
    for stage in stages {
        stage.run(&mut ctx)?;
    }
    Ok(ctx)
}

/// The map stage alone: `soc`'s greedy smallest-mesh design.
fn map_flow(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    spec: TdmaSpec,
    options: &MapperOptions,
) -> Result<FlowContext, FlowError> {
    run_stages(&[StageConfig::map()], soc, groups, spec, options)
}

fn singleton_groups(soc: &SocSpec) -> UseCaseGroups {
    UseCaseGroups::singletons(soc.use_case_count())
}

/// `f`'s result and the op counts it added on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, nocmap::perf::PerfSnapshot) {
    let before = nocmap::perf::snapshot();
    let result = f();
    (result, nocmap::perf::snapshot().since(&before))
}

/// One ours-vs-WC pair: the two design flows forked via
/// [`noc_par::join`].
fn run_pair(label: &str, bench: &BenchmarkSpec) -> Comparison {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let soc = bench.generate();
    let groups = singleton_groups(&soc);
    let (ours, wc) = noc_par::join(
        || {
            map_flow(&soc, &groups, spec, &opts)
                .ok()
                .and_then(|ctx| ctx.solution.map(|s| s.switch_count()))
        },
        || {
            run_stages(&[StageConfig::WorstCase], &soc, &groups, spec, &opts)
                .ok()
                .and_then(|ctx| ctx.wc.and_then(|r| r.ok()).map(|s| s.switch_count()))
        },
    );
    Comparison {
        label: label.to_string(),
        ours,
        wc,
    }
}

fn run_comparison(benches: &[LabeledBench]) -> Vec<Comparison> {
    noc_par::par_map(benches.to_vec(), |_, b| run_pair(&b.label, &b.bench))
}

fn comparison_table(title: &str, benches: &[LabeledBench]) -> Table {
    let mut table = Table::new(
        title,
        vec![
            Column::left("bench", "bench", 8),
            Column::right("ours", "ours", 8),
            Column::right("WC", "wc", 8),
            Column::right("ours/WC", "ours_wc", 12),
        ],
    );
    for c in run_comparison(benches) {
        let norm = c
            .normalized()
            .map_or(Cell::Missing("-"), |n| Cell::real(n, 3));
        table.push(vec![
            c.label.into(),
            Cell::count(c.ours, "fail"),
            Cell::count(c.wc, "fail"),
            norm,
        ]);
    }
    table
}

fn area_frequency_table(title: &str, bench: &BenchmarkSpec, sweep_mhz: &[u64]) -> Table {
    let soc = bench.generate();
    let groups = singleton_groups(&soc);
    let opts = MapperOptions::default();
    let area = AreaModel::cmos130();
    let mut table = Table::new(
        title,
        vec![
            Column::right("MHz", "mhz", 10),
            Column::right("switches", "switches", 10),
            Column::right("area (mm2)", "area_mm2", 12),
        ],
    );
    let rows = noc_par::par_map(sweep_mhz.to_vec(), |_, mhz| {
        let spec = TdmaSpec::paper_default().at_frequency(Frequency::from_mhz(mhz));
        let sol = map_flow(&soc, &groups, spec, &opts)
            .ok()
            .and_then(|ctx| ctx.solution);
        vec![
            mhz.into(),
            Cell::count(sol.as_ref().map(MappingSolution::switch_count), "fail"),
            sol.map_or(Cell::Missing("-"), |s| Cell::real(s.area_mm2(&area), 3)),
        ]
    });
    rows.into_iter().for_each(|row| table.push(row));
    table
}

/// Each design's DVS/DFS saving fraction and per-use-case minimum
/// frequencies (MHz).
fn run_dvs(benches: &[LabeledBench], floor_mhz: u64) -> Result<Vec<(f64, Vec<f64>)>, FlowError> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let dvs = DvsModel::cmos130();
    noc_par::try_par_map(benches.to_vec(), |_, b| {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        let ctx = map_flow(&soc, &groups, spec, &opts)?;
        let sol = ctx.solution()?;
        let report = dvs_savings(
            &soc,
            &groups,
            sol,
            &opts,
            &dvs,
            Frequency::from_mhz(floor_mhz),
        )?;
        let mhz = report
            .per_use_case
            .iter()
            .map(|(_, f)| f.as_mhz_f64())
            .collect();
        Ok((report.savings_fraction(), mhz))
    })
}

/// A fraction shown as a percentage with one decimal (`51.4%`).
fn percent(fraction: f64) -> Cell {
    Cell::Real {
        value: 100.0 * fraction,
        decimals: 1,
        unit: "%",
    }
}

fn dvs_table(title: &str, benches: &[LabeledBench], floor_mhz: u64) -> Result<Table, FlowError> {
    let mut table = Table::new(
        title,
        vec![
            Column::left("design", "design", 8),
            Column::right("savings", "savings_pct", 12),
            Column::left("per-use-case min MHz", "min_mhz", 0),
        ],
    );
    for (b, (savings, mhz)) in benches.iter().zip(run_dvs(benches, floor_mhz)?) {
        let mhz: Vec<String> = mhz.iter().map(|f| format!("{f:.0}")).collect();
        table.push(vec![
            b.label.as_str().into(),
            percent(savings),
            format!("[{}]", mhz.join(", ")).into(),
        ]);
    }
    Ok(table)
}

fn parallel_frequency_table(
    title: &str,
    bench: &BenchmarkSpec,
    parallel: &[usize],
    lo_mhz: u64,
    hi_mhz: u64,
) -> Result<Table, FlowError> {
    let soc = bench.generate();
    let groups = singleton_groups(&soc);
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let ctx = map_flow(&soc, &groups, spec, &opts)?;
    let base = ctx.solution()?;
    let mut table = Table::new(
        title,
        vec![
            Column::right("parallel", "parallel", 10),
            Column::right("min MHz", "min_mhz", 14),
        ],
    );
    let rows = noc_par::par_map(parallel.to_vec(), |_, k| {
        let f = parallel_min_frequency(
            &soc,
            k,
            base.topology(),
            spec,
            &opts,
            Frequency::from_mhz(lo_mhz),
            Frequency::from_mhz(hi_mhz),
        );
        vec![
            k.into(),
            f.map_or(Cell::Missing("infeasible"), |(f, _)| {
                Cell::real(f.as_mhz_f64(), 0)
            }),
        ]
    });
    rows.into_iter().for_each(|row| table.push(row));
    Ok(table)
}

fn verify_table(title: &str, benches: &[LabeledBench], cycles: u64) -> Result<Table, FlowError> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let rows = noc_par::try_par_map(benches.to_vec(), |_, b| {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        // Map, verify analytically, then replay every use-case on the
        // simulator — one pipeline, three stages. The reports' aggregates
        // are integer sums and an `and`, so reduction order cannot change
        // them.
        let stages = [
            StageConfig::map(),
            StageConfig::Verify,
            StageConfig::Simulate { cycles },
        ];
        let ctx = run_stages(&stages, &soc, &groups, spec, &opts)?;
        let sol = ctx.solution()?;
        let reports = &ctx.sim_reports;
        let contention: u64 = reports.iter().map(|r| r.contention_violations).sum();
        let late: u64 = reports.iter().map(|r| r.latency_violations).sum();
        let delivered = reports.iter().all(|r| r.all_flows_delivered());
        Ok::<_, FlowError>(vec![
            b.label.clone().into(),
            soc.use_case_count().into(),
            sol.connection_count().into(),
            contention.into(),
            late.into(),
            (if delivered { "yes" } else { "NO" }).into(),
        ])
    })?;
    let mut table = Table::new(
        title,
        vec![
            Column::left("design", "design", 8),
            Column::right("use-cases", "use_cases", 10),
            Column::right("connections", "connections", 12),
            Column::right("contention", "contention", 11),
            Column::right("late words", "late_words", 11),
            Column::right("delivered", "delivered", 10),
        ],
    );
    rows.into_iter().for_each(|row| table.push(row));
    Ok(table)
}

fn ablation_table(title: &str, bench: &BenchmarkSpec, variants: &[AblationVariant]) -> Table {
    let soc = bench.generate();
    let spec = TdmaSpec::paper_default();
    let paper = MapperOptions::default();
    let n = soc.use_case_count();
    let rows = noc_par::par_map(variants.to_vec(), |_, variant| {
        let (groups, opts) = match &variant {
            AblationVariant::UnsortedFlows => (
                UseCaseGroups::singletons(n),
                MapperOptions {
                    sort_by_bandwidth: false,
                    prefer_mapped: false,
                    ..paper.clone()
                },
            ),
            AblationVariant::RoundRobinPlacement => (
                UseCaseGroups::singletons(n),
                MapperOptions {
                    placement: Placement::RoundRobin,
                    ..paper.clone()
                },
            ),
            AblationVariant::SingleSharedConfig => (UseCaseGroups::single_group(n), paper.clone()),
            _ => (UseCaseGroups::singletons(n), paper.clone()),
        };
        let sol = match &variant {
            AblationVariant::WithAnnealing { iterations, chains } => {
                // Anneal on top of the paper-default base; a failed base
                // map yields no row.
                let mut ctx = map_flow(&soc, &groups, spec, &opts).ok()?;
                let stage = StageConfig::Anneal(AnnealConfig {
                    iterations: *iterations,
                    chains: *chains,
                    ..Default::default()
                });
                match stage.run(&mut ctx) {
                    Ok(()) => ctx.solution,
                    Err(_) => None,
                }
            }
            _ => map_flow(&soc, &groups, spec, &opts)
                .ok()
                .and_then(|ctx| ctx.solution),
        };
        Some(vec![
            variant.label().into(),
            Cell::count(sol.as_ref().map(MappingSolution::switch_count), "fail"),
            sol.map_or(Cell::Missing("-"), |s| Cell::real(s.comm_cost(), 0)),
        ])
    });
    let mut table = Table::new(
        title,
        vec![
            Column::left("variant", "variant", 24),
            Column::right("switches", "switches", 9),
            Column::right("comm cost", "comm_cost", 16),
        ],
    );
    rows.into_iter().flatten().for_each(|row| table.push(row));
    table
}

/// Wall-clock per benchmark for both methods, then the same design flow
/// timed at one worker and at the ambient `noc-par` thread count.
fn runtime_table(title: &str, benches: &[LabeledBench], speedup: &[LabeledBench]) -> Table {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let mut table = Table::new(
        title,
        vec![
            Column::left("bench", "bench", 8),
            Column::wall("ours", "ours_ms", 12),
            Column::wall("WC", "wc_ms", 12),
        ],
    );
    for b in benches {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        let t0 = Instant::now();
        let _ = map_flow(&soc, &groups, spec, &opts);
        let ours = t0.elapsed();
        let t1 = Instant::now();
        let _ = run_stages(&[StageConfig::WorstCase], &soc, &groups, spec, &opts);
        table.push(vec![
            b.label.as_str().into(),
            ours.into(),
            t1.elapsed().into(),
        ]);
    }
    let threads = noc_par::current_threads();
    table.section(
        format!("parallel speedup (1 thread vs {threads} threads)"),
        vec![
            Column::left("bench", "bench", 8),
            Column::wall("1 thread", "sequential_ms", 12),
            Column::wall("parallel", "parallel_ms", 12),
            Column::wall("speedup", "speedup", 9),
        ],
    );
    for b in speedup {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        let run = || {
            let t0 = Instant::now();
            let sol = map_flow(&soc, &groups, spec, &opts)
                .ok()
                .and_then(|ctx| ctx.solution);
            (t0.elapsed(), sol)
        };
        let (sequential, seq_sol) = noc_par::with_threads(1, run);
        let (parallel, par_sol) = run();
        assert_eq!(
            seq_sol, par_sol,
            "thread count must not change the solution ({})",
            b.label
        );
        let par = parallel.as_secs_f64();
        let ratio = if par <= 0.0 {
            1.0
        } else {
            sequential.as_secs_f64() / par
        };
        table.push(vec![
            b.label.as_str().into(),
            sequential.into(),
            parallel.into(),
            Cell::Real {
                value: ratio,
                decimals: 2,
                unit: "x",
            },
        ]);
    }
    table
}

/// The columns of a [`be_burst_row`].
fn be_burst_columns() -> Vec<Column> {
    vec![
        Column::left("model", "model", 10),
        Column::right("hops", "hops", 5),
        Column::right("injected", "injected", 9),
        Column::right("delivered", "delivered", 10),
        Column::right("backlog", "backlog", 8),
        Column::right("mean lat", "mean_latency_cycles", 9),
        Column::right("max lat", "max_latency_cycles", 8),
        Column::right("peak blog", "peak_backlog_words", 10),
        Column::right("max queue", "max_queue_depth", 10),
    ]
}

/// One point of the BE burstiness × hop-count sweep: `flows` chained BE
/// flows (consecutive flows overlap on `hops − 1` interior links)
/// riding the leftover capacity of a GT trunk that spans the whole
/// chain and owns half the slot table. Every flow injects `avg_mbps` on
/// average; only the burst shape varies. The row aggregates the
/// best-effort outcome over all flows.
#[allow(clippy::too_many_arguments)]
fn be_burst_row(
    label: &str,
    model: &TrafficModel,
    hops: usize,
    flows: usize,
    avg_mbps: u64,
    slots: usize,
    freq_mhz: u64,
    cycles: u64,
) -> Vec<Cell> {
    let spec = TdmaSpec::new(slots, Frequency::from_mhz(freq_mhz), LinkWidth::BITS_32);
    let (mesh, routes) = noc_benchgen::chained_chain(flows, hops);
    let trunk = noc_benchgen::route_between(&mesh, (0, 0), (0, mesh.cols() - 1));
    let base_slots: Vec<usize> = (0..spec.slots() / 2).collect();
    let bound = spec.worst_case_latency_cycles(&base_slots, trunk.path.len());
    // Half the table at a `word_bytes × freq` link: e.g. 8/16 slots of a
    // 2000 MB/s link = 1000 MB/s provisioned.
    let link_mbps = freq_mhz * u64::from(LinkWidth::BITS_32.bits() / 8);
    let gt = Connection {
        key: (trunk.src, trunk.dst),
        path: trunk.path.clone(),
        base_slots,
        inject_bandwidth: Bandwidth::from_mbps(
            link_mbps * (spec.slots() as u64 / 2) / spec.slots() as u64,
        ),
        traffic: TrafficModel::Constant,
        latency_bound_cycles: Some(bound),
    };
    let be: Vec<BestEffortFlow> = routes
        .iter()
        .map(|r| BestEffortFlow {
            key: (r.src, r.dst),
            path: r.path.clone(),
            inject_bandwidth: Bandwidth::from_mbps(avg_mbps),
            traffic: model.clone(),
        })
        .collect();
    let report = simulate_mixed(&spec, &[gt], &be, cycles);
    assert_eq!(
        report.guaranteed.contention_violations, 0,
        "the GT trunk owns its slots exclusively"
    );
    let (mut injected, mut delivered, mut backlog) = (0u64, 0u64, 0u64);
    let (mut lat_total, mut lat_max, mut peak) = (0u64, 0u64, 0u64);
    for stats in report.best_effort.values() {
        injected += stats.injected_words;
        delivered += stats.delivered_words;
        backlog += stats.backlog_words;
        lat_total += stats.total_latency_cycles;
        lat_max = lat_max.max(stats.max_latency_cycles);
        peak = peak.max(stats.peak_backlog_words);
    }
    let mean_latency = if delivered == 0 {
        0.0
    } else {
        lat_total as f64 / delivered as f64
    };
    vec![
        label.into(),
        hops.into(),
        injected.into(),
        delivered.into(),
        backlog.into(),
        Cell::real(mean_latency, 1),
        lat_max.into(),
        peak.into(),
        report.max_be_queue_depth.into(),
    ]
}

#[allow(clippy::too_many_arguments)]
fn be_burst_table(
    title: &str,
    models: &[BurstModel],
    hops: &[usize],
    flows: usize,
    avg_mbps: u64,
    slots: usize,
    freq_mhz: u64,
    cycles: u64,
) -> Table {
    let points: Vec<(BurstModel, usize)> = models
        .iter()
        .flat_map(|m| hops.iter().map(move |&h| (m.clone(), h)))
        .collect();
    let rows = noc_par::par_map(points, |_, (m, h)| {
        be_burst_row(
            &m.label, &m.model, h, flows, avg_mbps, slots, freq_mhz, cycles,
        )
    });
    let mut table = Table::new(title, be_burst_columns());
    rows.into_iter().for_each(|row| table.push(row));
    table
}

/// Maps and then anneals each benchmark, bracketing both phases with
/// op-counter snapshots. Benchmarks run sequentially because each is
/// timed; the flows inside still use `noc-par`. The op deltas are
/// identical at every thread count; the wall-clock columns are the only
/// machine-dependent cells.
fn perf_table(title: &str, benches: &[LabeledBench], iterations: u64, chains: u64) -> Table {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let mut table = Table::new(
        title,
        vec![
            Column::left("bench", "bench", 8),
            Column::right("switches", "switches", 8),
            Column::wall("map", "map_ms", 10),
            Column::wall("anneal", "anneal_ms", 10),
            Column::wall("traced", "trace_ms", 10),
            Column::right("queries", "queries", 10),
            Column::right("pops", "pops", 10),
            Column::right("rerouted", "rerouted", 10),
            Column::right("reused", "reused", 9),
            Column::right("accepts", "accepts", 9),
        ],
    );
    for b in benches {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        let t0 = Instant::now();
        let (sol, map_ops) = counted(|| {
            map_flow(&soc, &groups, spec, &opts)
                .ok()
                .and_then(|ctx| ctx.solution)
        });
        let map_wall = t0.elapsed();
        let t1 = Instant::now();
        let (annealed, anneal_ops) = counted(|| {
            sol.as_ref().and_then(|sol| {
                nocmap::anneal::refine(
                    &soc,
                    &groups,
                    &opts,
                    sol,
                    &AnnealConfig {
                        iterations: iterations as usize,
                        chains: chains as usize,
                        seed: crate::registry::SEED,
                        ..Default::default()
                    },
                )
                .ok()
            })
        });
        let anneal_wall = t1.elapsed();
        // Tracing-overhead probe: re-run the map flow with an op-mode
        // collector installed and time it (compare against `map`). The
        // re-run sits *outside* the snapshot brackets above, so the
        // per-phase op deltas are untouched by it (and record
        // trace_spans=0 — the pay-for-use proof). Skipped, reading
        // zero, when a collector is already active (double-install is
        // refused; the ambient trace covers the run).
        let trace_wall = if noc_obs::active() {
            Duration::ZERO
        } else {
            let t2 = Instant::now();
            let installed = noc_obs::install(noc_obs::TraceMode::Ops);
            let _ = map_flow(&soc, &groups, spec, &opts);
            if installed {
                let _ = noc_obs::finish();
            }
            t2.elapsed()
        };
        let switches = annealed
            .as_ref()
            .or(sol.as_ref())
            .map(MappingSolution::switch_count);
        table.push_with_ops(
            vec![
                b.label.as_str().into(),
                Cell::count(switches, "fail"),
                map_wall.into(),
                anneal_wall.into(),
                trace_wall.into(),
                (map_ops.path_queries + anneal_ops.path_queries).into(),
                (map_ops.dijkstra_pops + anneal_ops.dijkstra_pops).into(),
                anneal_ops.groups_rerouted.into(),
                anneal_ops.groups_reused.into(),
                anneal_ops.anneal_accepts.into(),
            ],
            vec![("map_ops", map_ops), ("anneal_ops", anneal_ops)],
        );
    }
    table
}

/// Maps each benchmark with every portfolio strategy, bracketing each
/// run with op-counter snapshots: the quality of the result and the
/// deterministic effort that bought it. Every cell is
/// schedule-independent (no wall-clock).
fn frontier_table(title: &str, benches: &[LabeledBench]) -> Result<Table, FlowError> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let mut table = Table::new(
        title,
        vec![
            Column::left("bench", "bench", 8),
            Column::left("strategy", "strategy", 13),
            Column::right("switches", "switches", 8),
            Column::right("cost", "cost", 14),
            Column::right("evict", "evictions", 6),
            Column::right("queries", "queries", 10),
            Column::right("pops", "pops", 12),
            Column::right("cache hit", "cache_hits", 10),
            Column::right("cache miss", "cache_misses", 10),
        ],
    );
    for b in benches {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        for kind in StrategyKind::ALL {
            let (outcome, ops) = counted(|| {
                design_with_strategy(
                    &soc,
                    &groups,
                    spec,
                    &opts,
                    MAX_SWITCHES,
                    FabricKind::Mesh,
                    kind,
                )
            });
            let outcome = outcome?;
            table.push_with_ops(
                vec![
                    b.label.as_str().into(),
                    kind.token().into(),
                    outcome.solution.switch_count().into(),
                    outcome.solution.comm_cost_bytes_hops().into(),
                    outcome.evictions.into(),
                    ops.path_queries.into(),
                    ops.dijkstra_pops.into(),
                    ops.route_cache_hits.into(),
                    ops.route_cache_misses.into(),
                ],
                vec![("ops", ops)],
            );
        }
    }
    Ok(table)
}

/// The fabrics the service study replays on: the paper's canonical
/// 4×4 mesh (16 NIs, high path diversity — displacement rarely needed)
/// and a two-switch bottleneck fabric with the same NI count, where
/// heavy use-cases conflict on the single inter-switch link and the
/// displacement path earns its keep.
const SERVICE_FABRICS: [(&str, u16, u16, u16); 2] =
    [("mesh-4x4", 4, 4, 1), ("bneck-2x1x8", 2, 1, 8)];

fn engine_config(
    rows: u16,
    cols: u16,
    nis: u16,
    batch: u64,
    budget: u64,
) -> noc_service::EngineConfig {
    noc_service::EngineConfig {
        rows,
        cols,
        nis_per_switch: nis,
        batch: batch as usize,
        budget,
        ..noc_service::EngineConfig::default()
    }
}

/// Replays the seeded trace once per fabric, bracketing each replay
/// with op-counter snapshots; every cell is schedule-independent. The
/// `routes` column counts the group routes admission paid for: each
/// admission routes its own group and the groups around a displaced
/// core, never a full map.
fn service_table(
    title: &str,
    requests: u64,
    seed: u64,
    batch: u64,
    budget: u64,
) -> Result<Table, FlowError> {
    let mut table = Table::new(
        title,
        vec![
            Column::left("fabric", "fabric", 12),
            Column::right("admitted", "admitted", 8),
            Column::right("rejected", "rejected", 8),
            Column::right("blocking", "blocking", 9),
            Column::right("displaced", "displaced", 9),
            Column::right("evict", "evictions", 6),
            Column::right("flushes", "flushes", 8),
            Column::right("routes", "routes", 8),
        ],
    );
    for (fabric, rows, cols, nis) in SERVICE_FABRICS {
        let cfg = engine_config(rows, cols, nis, batch, budget);
        let (replayed, ops) = counted(|| noc_service::replay(cfg, requests, seed));
        let s = replayed.map_err(|m| FlowError::parse(0, m))?.stats;
        table.push_with_ops(
            vec![
                fabric.into(),
                s.admitted.into(),
                s.rejected.into(),
                Cell::real(s.blocking(), 4),
                s.displaced.into(),
                s.evictions.into(),
                s.flushes.into(),
                ops.group_routes.into(),
            ],
            vec![("ops", ops)],
        );
    }
    Ok(table)
}

/// Replays the seeded fault schedule once per fabric. The `maps`
/// column is the load-bearing cell: healing re-routes groups
/// (`hreroute`) and displaces stranded cores (`hevict`), so full maps
/// stay at the admission baseline even under the fault schedule.
fn resilience_table(
    title: &str,
    requests: u64,
    seed: u64,
    batch: u64,
    budget: u64,
    faults: u64,
) -> Result<Table, FlowError> {
    let mut table = Table::new(
        title,
        vec![
            Column::left("fabric", "fabric", 12),
            Column::right("faults", "faults", 6),
            Column::right("admitted", "admitted", 8),
            Column::right("rejected", "rejected", 8),
            Column::right("blocking", "blocking", 9),
            Column::right("lfail", "links_failed", 5),
            Column::right("nfail", "nis_failed", 5),
            Column::right("degr", "degraded", 6),
            Column::right("healed", "healed", 6),
            Column::right("hreroute", "heal_reroutes", 8),
            Column::right("hevict", "heal_evictions", 6),
            Column::right("maps", "maps", 6),
        ],
    );
    for (fabric, rows, cols, nis) in SERVICE_FABRICS {
        let cfg = engine_config(rows, cols, nis, batch, budget);
        let lines = noc_service::generate_fault_trace(&cfg, requests, seed, faults)
            .map_err(|m| FlowError::parse(0, m))?;
        let (replayed, ops) = counted(|| noc_service::replay_lines(cfg, &lines));
        let s = replayed.map_err(|m| FlowError::parse(0, m))?.stats;
        table.push_with_ops(
            vec![
                fabric.into(),
                faults.into(),
                s.admitted.into(),
                s.rejected.into(),
                Cell::real(s.blocking(), 4),
                s.links_failed.into(),
                s.nis_failed.into(),
                s.degraded.into(),
                s.healed.into(),
                ops.heal_reroutes.into(),
                ops.heal_evictions.into(),
                ops.full_maps.into(),
            ],
            vec![("ops", ops)],
        );
    }
    Ok(table)
}

/// The abstract's aggregates as prose: mean NoC area reduction (switch
/// count, ours vs WC) over the comparison benchmarks where both methods
/// succeed, and mean DVS/DFS power saving over the DVS designs.
fn headline_table(
    title: &str,
    area_benches: &[LabeledBench],
    dvs_benches: &[LabeledBench],
    floor_mhz: u64,
) -> Result<Table, FlowError> {
    let reductions: Vec<f64> = run_comparison(area_benches)
        .iter()
        .filter_map(Comparison::normalized)
        .map(|n| 1.0 - n)
        .collect();
    let mean_area_reduction = if reductions.is_empty() {
        0.0
    } else {
        reductions.iter().sum::<f64>() / reductions.len() as f64
    };
    let savings = run_dvs(dvs_benches, floor_mhz)?;
    let mean_power_saving =
        savings.iter().map(|(s, _)| s).sum::<f64>() / savings.len().max(1) as f64;
    let mut table = Table::new(
        title,
        vec![
            Column::left("", "metric", 39),
            Column::right("", "mean_pct", 0),
            Column::left("", "paper", 0),
        ],
    );
    table.push(vec![
        "mean NoC area (switch) reduction vs WC:".into(),
        percent(mean_area_reduction),
        "(paper: ~80%)".into(),
    ]);
    table.push(vec![
        "mean DVS/DFS power saving:".into(),
        percent(mean_power_saving),
        "(paper: ~54%)".into(),
    ]);
    Ok(table)
}

/// Executes one experiment spec and returns its table.
///
/// # Errors
///
/// [`FlowError`] (usually a wrapped `MapError`) when a fallible
/// experiment family cannot complete — e.g. a DVS study whose design
/// has no feasible frequency. Infallible families (comparisons, area
/// sweeps, …) record per-point failures *in* their rows instead.
pub fn run_spec(spec: &ExperimentSpec) -> Result<Table, FlowError> {
    let span = noc_obs::span("experiment");
    span.attr("name", spec.name.clone());
    let title = spec.title.as_str();
    Ok(match &spec.kind {
        ExperimentKind::Comparison { benches } => comparison_table(title, benches),
        ExperimentKind::AreaFrequency { bench, sweep_mhz } => {
            area_frequency_table(title, bench, sweep_mhz)
        }
        ExperimentKind::DvsSavings { benches, floor_mhz } => dvs_table(title, benches, *floor_mhz)?,
        ExperimentKind::ParallelFrequency {
            bench,
            parallel,
            lo_mhz,
            hi_mhz,
        } => parallel_frequency_table(title, bench, parallel, *lo_mhz, *hi_mhz)?,
        ExperimentKind::VerifyDesigns { benches, cycles } => verify_table(title, benches, *cycles)?,
        ExperimentKind::Ablations { bench, variants } => ablation_table(title, bench, variants),
        ExperimentKind::Runtimes {
            benches,
            speedup_benches,
        } => runtime_table(title, benches, speedup_benches),
        ExperimentKind::BeBurst {
            models,
            hops,
            flows,
            avg_mbps,
            slots,
            freq_mhz,
            cycles,
        } => be_burst_table(
            title, models, hops, *flows, *avg_mbps, *slots, *freq_mhz, *cycles,
        ),
        ExperimentKind::Headline {
            area_benches,
            dvs_benches,
            floor_mhz,
        } => headline_table(title, area_benches, dvs_benches, *floor_mhz)?,
        ExperimentKind::Perf {
            benches,
            anneal_iterations,
            anneal_chains,
        } => perf_table(title, benches, *anneal_iterations, *anneal_chains),
        ExperimentKind::Frontier { benches } => frontier_table(title, benches)?,
        ExperimentKind::Service {
            requests,
            seed,
            batch,
            budget,
        } => service_table(title, *requests, *seed, *batch, *budget)?,
        ExperimentKind::Resilience {
            requests,
            seed,
            batch,
            budget,
            faults,
        } => resilience_table(title, *requests, *seed, *batch, *budget, *faults)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SEED;

    #[test]
    fn comparison_normalization() {
        let c = Comparison {
            label: "x".into(),
            ours: Some(4),
            wc: Some(16),
        };
        assert_eq!(c.normalized(), Some(0.25));
        let c = Comparison {
            label: "x".into(),
            ours: Some(4),
            wc: None,
        };
        assert_eq!(c.normalized(), None);
    }

    #[test]
    fn small_comparison_point_runs() {
        // Smoke-test the smallest Sp point end to end (2 use-cases).
        let comp = run_pair("2", &BenchmarkSpec::spread(2, SEED + 2));
        let ours = comp.ours.expect("multi-use-case mapping must succeed");
        assert!(ours >= 1);
        if let Some(n) = comp.normalized() {
            assert!(
                n <= 1.0 + 1e-9,
                "ours must not need more switches than WC, got {n}"
            );
        }
    }

    #[test]
    fn be_burst_point_shapes_order_by_burstiness() {
        // At one average rate, the duty-1/8 burst source must queue
        // deeper and wait longer than the smooth source on the same
        // 4-hop chain.
        let mut table = Table::new("B", be_burst_columns());
        for (label, model) in [
            ("constant", TrafficModel::Constant),
            (
                "onoff-1/8",
                TrafficModel::OnOff {
                    period: 256,
                    on: 32,
                    phase: 0,
                },
            ),
        ] {
            table.push(be_burst_row(label, &model, 4, 3, 200, 16, 500, 16_384));
        }
        let cell = |row, key| table.cell(row, key).unwrap();
        assert!(cell(0, "injected") > &Cell::Int(0));
        assert_eq!(
            cell(0, "injected"),
            cell(1, "injected"),
            "equal average rate over whole periods"
        );
        assert!(cell(1, "peak_backlog_words") > cell(0, "peak_backlog_words"));
        assert!(cell(1, "mean_latency_cycles") > cell(0, "mean_latency_cycles"));
    }
}
