//! The generic experiment runner: executes any [`ExperimentSpec`]
//! through the pipeline API.
//!
//! One executor per [`ExperimentKind`] replaces the dozen hand-wired
//! sweep functions the `noc-bench` crate used to carry; the legacy
//! entry points (`fig6a()`, …) now delegate here. Every executor
//! evaluates its points through [`crate::DesignFlow`]s (or
//! [`Stage`]s directly) and parallelizes via `noc-par` with ordered
//! reduction, so outputs are byte-identical at any thread count.

use noc_sim::{simulate_mixed, BestEffortFlow, Connection, TrafficModel};
use noc_tdma::TdmaSpec;
use noc_topology::units::{Bandwidth, Frequency, LinkWidth};
use noc_topology::{AreaModel, DvsModel};
use noc_usecase::UseCaseGroups;
use nocmap::anneal::AnnealConfig;
use nocmap::design::FabricKind;
use nocmap::dvs::{dvs_savings, parallel_min_frequency};
pub use nocmap::perf::PerfSnapshot;
use nocmap::strategy::{design_with_strategy, StrategyKind};
use nocmap::{MapperOptions, MappingSolution, Placement};

use crate::builder::{DesignFlow, FlowBuilder};
use crate::config::{
    AblationVariant, BenchmarkSpec, BurstModel, ExperimentKind, ExperimentSpec, LabeledBench,
};
use crate::registry::MAX_SWITCHES;
use crate::stage::{AnnealStage, Stage};
use crate::FlowError;

// ---------------------------------------------------------------------
// Point types (one per experiment family).
// ---------------------------------------------------------------------

/// Outcome of one ours-vs-WC comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark label (design name or use-case count).
    pub label: String,
    /// Switches used by the multi-use-case method.
    pub ours: Option<usize>,
    /// Switches used by the worst-case baseline.
    pub wc: Option<usize>,
}

impl Comparison {
    /// `ours / wc`, when both methods succeeded — the y-axis of Figure 6.
    pub fn normalized(&self) -> Option<f64> {
        match (self.ours, self.wc) {
            (Some(a), Some(b)) if b > 0 => Some(a as f64 / b as f64),
            _ => None,
        }
    }
}

/// One point of the area–frequency Pareto curve.
#[derive(Debug, Clone)]
pub struct AreaPoint {
    /// NoC clock frequency.
    pub frequency: Frequency,
    /// Switch count of the smallest valid mesh, if any.
    pub switches: Option<usize>,
    /// Total switch area (mm²) of that mesh.
    pub area_mm2: Option<f64>,
}

/// One design's DVS/DFS saving.
#[derive(Debug, Clone)]
pub struct DvsPoint {
    /// Design label.
    pub label: String,
    /// Power-saving fraction (Figure 7(b) plots this as a percentage).
    pub savings: f64,
    /// Per-use-case minimum frequencies (MHz) behind the saving.
    pub per_use_case_mhz: Vec<f64>,
}

/// One point of the parallel-use-case frequency study.
#[derive(Debug, Clone)]
pub struct ParallelPoint {
    /// Number of use-cases running in parallel.
    pub parallel: usize,
    /// Minimum NoC frequency supporting the compound mode, if feasible on
    /// the base mesh.
    pub frequency: Option<Frequency>,
}

/// Verification outcome for one design: the paper's phase-4 check
/// (analytical + simulation) over every use-case.
#[derive(Debug, Clone)]
pub struct VerifyPoint {
    /// Design label.
    pub label: String,
    /// Use-cases simulated.
    pub use_cases: usize,
    /// GT connections configured across all groups.
    pub connections: usize,
    /// Slot-contention events observed (must be 0).
    pub contention: u64,
    /// Words that exceeded their analytical latency bound (must be 0).
    pub late_words: u64,
    /// Whether every injected word was delivered or still in flight.
    pub all_delivered: bool,
}

/// Quality outcome of one ablation variant.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Variant label.
    pub label: String,
    /// Switches of the smallest feasible mesh, if any.
    pub switches: Option<usize>,
    /// Bandwidth-weighted hop cost of the solution.
    pub comm_cost: Option<f64>,
}

/// One row of the runtime study.
#[derive(Debug, Clone)]
pub struct RuntimePoint {
    /// Benchmark label.
    pub label: String,
    /// Wall-clock time of the full multi-use-case design flow.
    pub ours: std::time::Duration,
    /// Wall-clock time of the WC design flow (including failures).
    pub wc: std::time::Duration,
}

/// One row of the parallel-speedup study: the same design flow timed at
/// one worker and at the ambient `noc-par` thread count.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Benchmark label.
    pub label: String,
    /// Wall-clock with the effective thread count pinned to 1.
    pub sequential: std::time::Duration,
    /// Wall-clock at the ambient thread count.
    pub parallel: std::time::Duration,
    /// The ambient thread count the parallel run used.
    pub threads: usize,
}

impl SpeedupPoint {
    /// `sequential / parallel` — how much faster the parallel run was.
    pub fn speedup(&self) -> f64 {
        let par = self.parallel.as_secs_f64();
        if par <= 0.0 {
            1.0
        } else {
            self.sequential.as_secs_f64() / par
        }
    }
}

/// One point of the BE burstiness × hop-count sweep: a fixed traffic
/// shape and chain depth, with the aggregate best-effort outcome.
#[derive(Debug, Clone)]
pub struct BeBurstPoint {
    /// Traffic-model label (`constant`, `onoff-1/2`, …).
    pub model: String,
    /// Switch-to-switch hops of each chained BE flow.
    pub hops: usize,
    /// Words injected across all BE flows.
    pub injected: u64,
    /// Words delivered across all BE flows.
    pub delivered: u64,
    /// Words still queued or in flight when the window closed.
    pub backlog: u64,
    /// Delivery-weighted mean BE word latency in cycles.
    pub mean_latency_cycles: f64,
    /// Worst BE word latency in cycles.
    pub max_latency_cycles: u64,
    /// Deepest per-flow outstanding backlog observed at any cycle.
    pub peak_backlog_words: u64,
    /// Deepest per-link BE queue observed at any cycle.
    pub max_queue_depth: usize,
}

/// Headline aggregates the abstract quotes: mean NoC area reduction
/// (switch count, ours vs WC) and mean DVS/DFS power saving over the SoC
/// designs.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Mean `1 - ours/wc` over benchmarks where both methods succeed.
    pub mean_area_reduction: f64,
    /// Mean DVS/DFS saving over D1–D4.
    pub mean_power_saving: f64,
}

/// One row of the perf-telemetry study: wall time plus the deterministic
/// op-counter deltas of mapping and then annealing one benchmark.
///
/// The op deltas ([`PerfSnapshot`]) are identical at every `noc-par`
/// thread count (each counted operation is algorithmic work the
/// determinism contract fixes); the wall-clock fields are the only
/// machine-dependent cells, and the `BENCH_nocmap.json` schema keeps the
/// two apart (see `docs/PERFORMANCE.md`).
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Benchmark label.
    pub label: String,
    /// Switches of the smallest feasible mesh.
    pub switches: Option<usize>,
    /// Wall-clock of the smallest-mesh map flow.
    pub map_wall: std::time::Duration,
    /// Op-counter delta of the map flow.
    pub map_ops: PerfSnapshot,
    /// Wall-clock of the annealing refinement.
    pub anneal_wall: std::time::Duration,
    /// Op-counter delta of the annealing refinement.
    pub anneal_ops: PerfSnapshot,
    /// Wall-clock of the map flow re-run with an op-mode trace
    /// collector installed — compare against `map_wall` for the
    /// tracing overhead. Zero when a collector was already active
    /// (the re-run is skipped; the ambient trace covers the run).
    pub trace_wall: std::time::Duration,
}

/// One row of the strategy-portfolio frontier: one benchmark mapped by
/// one [`StrategyKind`], with the quality of the result (switches,
/// integer comm cost) and the deterministic effort that bought it
/// (op-counter delta plus the strategy's own search counters).
///
/// Unlike [`PerfPoint`] this row carries **no wall-clock**: every field
/// is identical at any `noc-par` thread count, so the rendered table is
/// goldenable and the `BENCH_nocmap.json` frontier record diffs clean
/// across worker counts.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Benchmark label.
    pub bench: String,
    /// Strategy that produced this row.
    pub strategy: StrategyKind,
    /// Switches of the produced fabric (same for every strategy — the
    /// portfolio refines placement on the greedy design's fabric).
    pub switches: usize,
    /// Bandwidth × hop integer cost of the solution.
    pub cost: u128,
    /// Evictions the displacement search spent (0 for the others).
    pub evictions: u64,
    /// Branch-and-bound nodes expanded (0 for the others).
    pub nodes: u64,
    /// Op-counter delta of the run.
    pub ops: PerfSnapshot,
}

/// One row of the online-service admission study: one seeded request
/// trace replayed in-process through the `noc-service` engine on one
/// fabric in one admission mode.
///
/// Like [`FrontierPoint`] this row carries **no wall-clock**: the
/// replay transcript is byte-identical at any `noc-par` width, and the
/// op-counter delta records only algorithmic work, so the rendered
/// table is goldenable and diffs clean across worker counts. The
/// `group_routes` / `full_maps` cells are the incremental-vs-resolve
/// contrast the `pr9` bench record pins (see `docs/SERVICE.md`).
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// Fabric label (`mesh-4x4`, `bneck-2x1x8`).
    pub fabric: String,
    /// Admission mode of this row.
    pub mode: noc_service::AdmitMode,
    /// Final cumulative engine metrics of the replay.
    pub stats: noc_service::ServiceStats,
    /// Op-counter delta of the replay.
    pub ops: PerfSnapshot,
}

/// One row of the fault-injection resilience study: one seeded trace
/// with a woven-in fault schedule ([`noc_service::generate_fault_trace`])
/// replayed in-process on one fabric in incremental mode.
///
/// The interesting cells contrast repair cost against the from-scratch
/// alternative: `heal_reroutes` counts groups re-routed around failed
/// resources, and `full_maps` must stay at the resolve-free baseline —
/// healing is incremental, never a re-solve. Degradation (`degraded` /
/// `healed`) measures how much service the fault schedule actually
/// costs on each fabric.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// Fabric label (`mesh-4x4`, `bneck-2x1x8`).
    pub fabric: String,
    /// Fault events in the schedule.
    pub faults: u64,
    /// Final cumulative engine metrics of the replay.
    pub stats: noc_service::ServiceStats,
    /// Op-counter delta of the replay.
    pub ops: PerfSnapshot,
}

/// The typed result of executing one [`ExperimentSpec`]: the spec's
/// title plus the points of its family. [`crate::render::render`]
/// turns any output into the fixed-width table both CLIs print.
#[derive(Debug, Clone)]
pub enum ExperimentOutput {
    /// Comparison table rows.
    Comparison {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<Comparison>,
    },
    /// Area–frequency sweep rows.
    AreaFrequency {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<AreaPoint>,
    },
    /// DVS/DFS savings rows.
    DvsSavings {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<DvsPoint>,
    },
    /// Parallel-use-case frequency rows.
    ParallelFrequency {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<ParallelPoint>,
    },
    /// Phase-4 verification rows.
    VerifyDesigns {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<VerifyPoint>,
    },
    /// Ablation rows.
    Ablations {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<AblationPoint>,
    },
    /// Runtime rows plus the 1-vs-N speedup rows.
    Runtimes {
        /// Table title.
        title: String,
        /// Per-benchmark wall-clock rows.
        rows: Vec<RuntimePoint>,
        /// 1-worker vs ambient-worker rows.
        speedups: Vec<SpeedupPoint>,
    },
    /// BE burstiness sweep rows.
    BeBurst {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<BeBurstPoint>,
    },
    /// Headline aggregates.
    Headline {
        /// Table title.
        title: String,
        /// The two means.
        headline: Headline,
    },
    /// Perf-telemetry rows.
    Perf {
        /// Table title.
        title: String,
        /// Rows.
        points: Vec<PerfPoint>,
    },
    /// Strategy-portfolio frontier rows.
    Frontier {
        /// Table title.
        title: String,
        /// Rows (benchmark-major, strategies in [`StrategyKind::ALL`]
        /// order).
        points: Vec<FrontierPoint>,
    },
    /// Online-service admission rows.
    Service {
        /// Table title.
        title: String,
        /// Rows (fabric-major, incremental before resolve).
        points: Vec<ServicePoint>,
    },
    /// Fault-injection resilience rows.
    Resilience {
        /// Table title.
        title: String,
        /// Rows (one per fabric, incremental mode).
        points: Vec<ResiliencePoint>,
    },
}

// ---------------------------------------------------------------------
// Executors.
// ---------------------------------------------------------------------

fn map_flow(spec: TdmaSpec, options: &MapperOptions) -> DesignFlow {
    FlowBuilder::new(spec)
        .options(options.clone())
        .max_switches(MAX_SWITCHES)
        .map()
        .build()
}

fn wc_flow(spec: TdmaSpec, options: &MapperOptions) -> DesignFlow {
    FlowBuilder::new(spec)
        .options(options.clone())
        .max_switches(MAX_SWITCHES)
        .worst_case()
        .build()
}

fn singleton_groups(soc: &noc_usecase::spec::SocSpec) -> UseCaseGroups {
    UseCaseGroups::singletons(soc.use_case_count())
}

/// One ours-vs-WC pair: the two design flows forked via
/// [`noc_par::join`], exactly as the legacy `run_pair` did.
fn run_pair(label: &str, bench: &BenchmarkSpec) -> Comparison {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let soc = bench.generate();
    let groups = singleton_groups(&soc);
    let (ours, wc) = noc_par::join(
        || {
            map_flow(spec, &opts)
                .run(&soc, &groups)
                .ok()
                .and_then(|ctx| ctx.solution.map(|s| s.switch_count()))
        },
        || {
            wc_flow(spec, &opts)
                .run(&soc, &groups)
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

fn run_area_frequency(bench: &BenchmarkSpec, sweep_mhz: &[u64]) -> Vec<AreaPoint> {
    let soc = bench.generate();
    let groups = singleton_groups(&soc);
    let opts = MapperOptions::default();
    let area = AreaModel::cmos130();
    noc_par::par_map(sweep_mhz.to_vec(), |_, mhz| {
        let f = Frequency::from_mhz(mhz);
        let sol = map_flow(TdmaSpec::paper_default().at_frequency(f), &opts)
            .run(&soc, &groups)
            .ok()
            .and_then(|ctx| ctx.solution);
        AreaPoint {
            frequency: f,
            switches: sol.as_ref().map(MappingSolution::switch_count),
            area_mm2: sol.as_ref().map(|s| s.area_mm2(&area)),
        }
    })
}

fn run_dvs(benches: &[LabeledBench], floor_mhz: u64) -> Result<Vec<DvsPoint>, FlowError> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let dvs = DvsModel::cmos130();
    noc_par::try_par_map(benches.to_vec(), |_, b| {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        let ctx = map_flow(spec, &opts).run(&soc, &groups)?;
        let sol = ctx.solution()?;
        let report = dvs_savings(
            &soc,
            &groups,
            sol,
            &opts,
            &dvs,
            Frequency::from_mhz(floor_mhz),
        )?;
        Ok(DvsPoint {
            label: b.label.clone(),
            savings: report.savings_fraction(),
            per_use_case_mhz: report
                .per_use_case
                .iter()
                .map(|(_, f)| f.as_mhz_f64())
                .collect(),
        })
    })
}

fn run_parallel_frequency(
    bench: &BenchmarkSpec,
    parallel: &[usize],
    lo_mhz: u64,
    hi_mhz: u64,
) -> Result<Vec<ParallelPoint>, FlowError> {
    let soc = bench.generate();
    let groups = singleton_groups(&soc);
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let ctx = map_flow(spec, &opts).run(&soc, &groups)?;
    let base = ctx.solution()?;
    Ok(noc_par::par_map(parallel.to_vec(), |_, k| {
        let f = parallel_min_frequency(
            &soc,
            k,
            base.topology(),
            spec,
            &opts,
            Frequency::from_mhz(lo_mhz),
            Frequency::from_mhz(hi_mhz),
        )
        .ok()
        .map(|(f, _)| f);
        ParallelPoint {
            parallel: k,
            frequency: f,
        }
    }))
}

fn run_verify(benches: &[LabeledBench], cycles: u64) -> Result<Vec<VerifyPoint>, FlowError> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    noc_par::try_par_map(benches.to_vec(), |_, b| {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        // Map, verify analytically, then replay every use-case on the
        // simulator — one pipeline, three stages. The reports' aggregates
        // are integer sums and an `and`, so reduction order cannot change
        // them.
        let flow = FlowBuilder::new(spec)
            .options(opts.clone())
            .max_switches(MAX_SWITCHES)
            .map()
            .verify()
            .simulate(cycles)
            .build();
        let ctx = flow.run(&soc, &groups)?;
        let sol = ctx.solution()?;
        let contention = ctx
            .sim_reports
            .iter()
            .map(|r| r.contention_violations)
            .sum();
        let late = ctx.sim_reports.iter().map(|r| r.latency_violations).sum();
        let delivered = ctx.sim_reports.iter().all(|r| r.all_flows_delivered());
        Ok(VerifyPoint {
            label: b.label.clone(),
            use_cases: soc.use_case_count(),
            connections: sol.connection_count(),
            contention,
            late_words: late,
            all_delivered: delivered,
        })
    })
}

fn run_ablations(bench: &BenchmarkSpec, variants: &[AblationVariant]) -> Vec<AblationPoint> {
    let soc = bench.generate();
    let spec = TdmaSpec::paper_default();
    let paper = MapperOptions::default();
    let n = soc.use_case_count();
    let points = noc_par::par_map(variants.to_vec(), |_, variant| {
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
                // map yields no row (matching the legacy behavior).
                let mut ctx = map_flow(spec, &opts).run(&soc, &groups).ok()?;
                let stage = AnnealStage(AnnealConfig {
                    iterations: *iterations,
                    chains: *chains,
                    ..Default::default()
                });
                match stage.run(&mut ctx) {
                    Ok(()) => ctx.solution,
                    Err(_) => None,
                }
            }
            _ => map_flow(spec, &opts)
                .run(&soc, &groups)
                .ok()
                .and_then(|ctx| ctx.solution),
        };
        Some(AblationPoint {
            label: variant.label().to_string(),
            switches: sol.as_ref().map(MappingSolution::switch_count),
            comm_cost: sol.as_ref().map(MappingSolution::comm_cost),
        })
    });
    points.into_iter().flatten().collect()
}

fn run_runtimes(benches: &[LabeledBench]) -> Vec<RuntimePoint> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    benches
        .iter()
        .map(|b| {
            let soc = b.bench.generate();
            let groups = singleton_groups(&soc);
            let t0 = std::time::Instant::now();
            let _ = map_flow(spec, &opts).run(&soc, &groups);
            let ours = t0.elapsed();
            let t1 = std::time::Instant::now();
            let _ = wc_flow(spec, &opts).run(&soc, &groups);
            let wc = t1.elapsed();
            RuntimePoint {
                label: b.label.clone(),
                ours,
                wc,
            }
        })
        .collect()
}

fn run_speedups(benches: &[LabeledBench]) -> Vec<SpeedupPoint> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let threads = noc_par::current_threads();
    benches
        .iter()
        .map(|b| {
            let soc = b.bench.generate();
            let groups = singleton_groups(&soc);
            let run = || {
                let t0 = std::time::Instant::now();
                let sol = map_flow(spec, &opts)
                    .run(&soc, &groups)
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
            SpeedupPoint {
                label: b.label.clone(),
                sequential,
                parallel,
                threads,
            }
        })
        .collect()
}

/// The scenario behind one [`BeBurstPoint`]: `flows` chained BE flows
/// (consecutive flows overlap on `hops − 1` interior links) riding the
/// leftover capacity of a GT trunk that spans the whole chain and owns
/// half the slot table. Every flow injects `avg_mbps` on average; only
/// the burst shape varies.
#[allow(clippy::too_many_arguments)]
fn be_burst_point(
    label: &str,
    model: &TrafficModel,
    hops: usize,
    flows: usize,
    avg_mbps: u64,
    slots: usize,
    freq_mhz: u64,
    cycles: u64,
) -> BeBurstPoint {
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
    BeBurstPoint {
        model: label.to_string(),
        hops,
        injected,
        delivered,
        backlog,
        mean_latency_cycles: if delivered == 0 {
            0.0
        } else {
            lat_total as f64 / delivered as f64
        },
        max_latency_cycles: lat_max,
        peak_backlog_words: peak,
        max_queue_depth: report.max_be_queue_depth,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_be_burst(
    models: &[BurstModel],
    hops: &[usize],
    flows: usize,
    avg_mbps: u64,
    slots: usize,
    freq_mhz: u64,
    cycles: u64,
) -> Vec<BeBurstPoint> {
    let points: Vec<(BurstModel, usize)> = models
        .iter()
        .flat_map(|m| hops.iter().map(move |&h| (m.clone(), h)))
        .collect();
    noc_par::par_map(points, |_, (m, h)| {
        be_burst_point(
            &m.label, &m.model, h, flows, avg_mbps, slots, freq_mhz, cycles,
        )
    })
}

/// Maps and then anneals each benchmark, bracketing both phases with
/// op-counter snapshots. Benchmarks run sequentially because each is
/// timed; the flows inside still use `noc-par`.
fn run_perf(benches: &[LabeledBench], iterations: u64, chains: u64) -> Vec<PerfPoint> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    benches
        .iter()
        .map(|b| {
            let soc = b.bench.generate();
            let groups = singleton_groups(&soc);
            let before = nocmap::perf::snapshot();
            let t0 = std::time::Instant::now();
            let sol = map_flow(spec, &opts)
                .run(&soc, &groups)
                .ok()
                .and_then(|ctx| ctx.solution);
            let map_wall = t0.elapsed();
            let mid = nocmap::perf::snapshot();
            let t1 = std::time::Instant::now();
            let annealed = sol.as_ref().and_then(|sol| {
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
            });
            let anneal_wall = t1.elapsed();
            let after = nocmap::perf::snapshot();
            // Tracing-overhead probe: re-run the map flow with an
            // op-mode collector installed and time it. The re-run sits
            // *outside* the snapshot brackets above, so the per-phase
            // op deltas are untouched by it (and record trace_spans=0
            // — the pay-for-use proof). Skipped when a collector is
            // already active (double-install is refused).
            let trace_wall = if noc_obs::active() {
                std::time::Duration::ZERO
            } else {
                let t2 = std::time::Instant::now();
                let installed = noc_obs::install(noc_obs::TraceMode::Ops);
                let _ = map_flow(spec, &opts).run(&soc, &groups);
                if installed {
                    let _ = noc_obs::finish();
                }
                t2.elapsed()
            };
            PerfPoint {
                label: b.label.clone(),
                switches: annealed
                    .as_ref()
                    .or(sol.as_ref())
                    .map(MappingSolution::switch_count),
                map_wall,
                map_ops: mid.since(&before),
                anneal_wall,
                anneal_ops: after.since(&mid),
                trace_wall,
            }
        })
        .collect()
}

/// Maps each benchmark with every portfolio strategy, bracketing each
/// run with op-counter snapshots; every recorded field is
/// schedule-independent.
fn run_frontier(benches: &[LabeledBench]) -> Result<Vec<FrontierPoint>, FlowError> {
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let mut points = Vec::new();
    for b in benches {
        let soc = b.bench.generate();
        let groups = singleton_groups(&soc);
        for kind in StrategyKind::ALL {
            let before = nocmap::perf::snapshot();
            let outcome = design_with_strategy(
                &soc,
                &groups,
                spec,
                &opts,
                MAX_SWITCHES,
                FabricKind::Mesh,
                kind,
            )?;
            let ops = nocmap::perf::snapshot().since(&before);
            points.push(FrontierPoint {
                bench: b.label.clone(),
                strategy: kind,
                switches: outcome.solution.switch_count(),
                cost: outcome.solution.comm_cost_bytes_hops(),
                evictions: outcome.evictions,
                nodes: outcome.nodes_expanded,
                ops,
            });
        }
    }
    Ok(points)
}

/// The fabrics the service study replays on: the paper's canonical
/// 4×4 mesh (16 NIs, high path diversity — displacement rarely needed)
/// and a two-switch bottleneck fabric with the same NI count, where
/// heavy use-cases conflict on the single inter-switch link and the
/// displacement path earns its keep.
const SERVICE_FABRICS: [(&str, u16, u16, u16); 2] =
    [("mesh-4x4", 4, 4, 1), ("bneck-2x1x8", 2, 1, 8)];

/// Replays the seeded trace once per fabric × admission mode,
/// bracketing each replay with op-counter snapshots; every recorded
/// field is schedule-independent.
fn run_service(
    requests: u64,
    seed: u64,
    batch: u64,
    budget: u64,
) -> Result<Vec<ServicePoint>, FlowError> {
    use noc_service::{replay, AdmitMode, EngineConfig};
    let mut points = Vec::new();
    for (fabric, rows, cols, nis) in SERVICE_FABRICS {
        for mode in [AdmitMode::Incremental, AdmitMode::Resolve] {
            let cfg = EngineConfig {
                rows,
                cols,
                nis_per_switch: nis,
                batch: batch as usize,
                budget,
                mode,
                ..EngineConfig::default()
            };
            let before = nocmap::perf::snapshot();
            let replayed = replay(cfg, requests, seed).map_err(|m| FlowError::parse(0, m))?;
            let ops = nocmap::perf::snapshot().since(&before);
            points.push(ServicePoint {
                fabric: fabric.to_string(),
                mode,
                stats: replayed.stats,
                ops,
            });
        }
    }
    Ok(points)
}

/// Replays the seeded fault schedule once per fabric (incremental
/// admission only — healing is defined as incremental repair),
/// bracketing each replay with op-counter snapshots, exactly like
/// [`run_service`].
fn run_resilience(
    requests: u64,
    seed: u64,
    batch: u64,
    budget: u64,
    faults: u64,
) -> Result<Vec<ResiliencePoint>, FlowError> {
    use noc_service::{generate_fault_trace, replay_lines, AdmitMode, EngineConfig};
    let mut points = Vec::new();
    for (fabric, rows, cols, nis) in SERVICE_FABRICS {
        let cfg = EngineConfig {
            rows,
            cols,
            nis_per_switch: nis,
            batch: batch as usize,
            budget,
            mode: AdmitMode::Incremental,
            ..EngineConfig::default()
        };
        let lines = generate_fault_trace(&cfg, requests, seed, faults)
            .map_err(|m| FlowError::parse(0, m))?;
        let before = nocmap::perf::snapshot();
        let replayed = replay_lines(cfg, &lines).map_err(|m| FlowError::parse(0, m))?;
        let ops = nocmap::perf::snapshot().since(&before);
        points.push(ResiliencePoint {
            fabric: fabric.to_string(),
            faults,
            stats: replayed.stats,
            ops,
        });
    }
    Ok(points)
}

fn run_headline(
    area_benches: &[LabeledBench],
    dvs_benches: &[LabeledBench],
    floor_mhz: u64,
) -> Result<Headline, FlowError> {
    let comps = run_comparison(area_benches);
    let reductions: Vec<f64> = comps
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
        savings.iter().map(|p| p.savings).sum::<f64>() / savings.len().max(1) as f64;
    Ok(Headline {
        mean_area_reduction,
        mean_power_saving,
    })
}

/// Executes one experiment spec and returns its typed output.
///
/// # Errors
///
/// [`FlowError`] (usually a wrapped `MapError`) when a fallible
/// experiment family cannot complete — e.g. a DVS study whose design
/// has no feasible frequency. Infallible families (comparisons, area
/// sweeps, …) record per-point failures *in* their points instead.
pub fn run_spec(spec: &ExperimentSpec) -> Result<ExperimentOutput, FlowError> {
    let span = noc_obs::span("experiment");
    span.attr("name", spec.name.clone());
    let title = spec.title.clone();
    Ok(match &spec.kind {
        ExperimentKind::Comparison { benches } => ExperimentOutput::Comparison {
            title,
            points: run_comparison(benches),
        },
        ExperimentKind::AreaFrequency { bench, sweep_mhz } => ExperimentOutput::AreaFrequency {
            title,
            points: run_area_frequency(bench, sweep_mhz),
        },
        ExperimentKind::DvsSavings { benches, floor_mhz } => ExperimentOutput::DvsSavings {
            title,
            points: run_dvs(benches, *floor_mhz)?,
        },
        ExperimentKind::ParallelFrequency {
            bench,
            parallel,
            lo_mhz,
            hi_mhz,
        } => ExperimentOutput::ParallelFrequency {
            title,
            points: run_parallel_frequency(bench, parallel, *lo_mhz, *hi_mhz)?,
        },
        ExperimentKind::VerifyDesigns { benches, cycles } => ExperimentOutput::VerifyDesigns {
            title,
            points: run_verify(benches, *cycles)?,
        },
        ExperimentKind::Ablations { bench, variants } => ExperimentOutput::Ablations {
            title,
            points: run_ablations(bench, variants),
        },
        ExperimentKind::Runtimes {
            benches,
            speedup_benches,
        } => ExperimentOutput::Runtimes {
            title,
            rows: run_runtimes(benches),
            speedups: run_speedups(speedup_benches),
        },
        ExperimentKind::BeBurst {
            models,
            hops,
            flows,
            avg_mbps,
            slots,
            freq_mhz,
            cycles,
        } => ExperimentOutput::BeBurst {
            title,
            points: run_be_burst(models, hops, *flows, *avg_mbps, *slots, *freq_mhz, *cycles),
        },
        ExperimentKind::Headline {
            area_benches,
            dvs_benches,
            floor_mhz,
        } => ExperimentOutput::Headline {
            title,
            headline: run_headline(area_benches, dvs_benches, *floor_mhz)?,
        },
        ExperimentKind::Perf {
            benches,
            anneal_iterations,
            anneal_chains,
        } => ExperimentOutput::Perf {
            title,
            points: run_perf(benches, *anneal_iterations, *anneal_chains),
        },
        ExperimentKind::Frontier { benches } => ExperimentOutput::Frontier {
            title,
            points: run_frontier(benches)?,
        },
        ExperimentKind::Service {
            requests,
            seed,
            batch,
            budget,
        } => ExperimentOutput::Service {
            title,
            points: run_service(*requests, *seed, *batch, *budget)?,
        },
        ExperimentKind::Resilience {
            requests,
            seed,
            batch,
            budget,
            faults,
        } => ExperimentOutput::Resilience {
            title,
            points: run_resilience(*requests, *seed, *batch, *budget, *faults)?,
        },
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
        let point = |label: &str, model: &TrafficModel| {
            be_burst_point(label, model, 4, 3, 200, 16, 500, 16_384)
        };
        let smooth = point("constant", &TrafficModel::Constant);
        let bursty = point(
            "onoff-1/8",
            &TrafficModel::OnOff {
                period: 256,
                on: 32,
                phase: 0,
            },
        );
        assert!(smooth.injected > 0 && bursty.injected > 0);
        assert_eq!(
            smooth.injected, bursty.injected,
            "equal average rate over whole periods"
        );
        assert!(bursty.peak_backlog_words > smooth.peak_backlog_words);
        assert!(bursty.mean_latency_cycles > smooth.mean_latency_cycles);
    }
}
