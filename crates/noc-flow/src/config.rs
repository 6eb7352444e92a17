//! Flow and experiment configurations as data, with a
//! line-oriented text format.
//!
//! Sweeps are **data**: an [`ExperimentSpec`] names a kind (comparison,
//! area–frequency, DVS, …) and lists its axes (benchmarks × points ×
//! traffic models); [`crate::run_spec`] executes any spec through the
//! pipeline API. A [`FlowConfig`] is the single-design analogue: the
//! stage list plus the shared knobs of one design flow, which
//! [`FlowConfig::run`] executes.
//!
//! The wire format is the hand-rolled text grammar below (the same
//! approach as `noc_usecase::textio`), which round-trips every spec
//! exactly:
//!
//! ```text
//! experiment fig6b
//! title Fig 6(b): Sp benchmarks, switch count ours vs WC
//! kind comparison
//! bench 2 spread 2 2008
//! bench 5 spread 5 2011
//! ```
//!
//! Rules: `#` starts a comment, blank lines are ignored, the first line
//! is `experiment NAME` (or `flow NAME` for a [`FlowConfig`]), and the
//! remaining lines are keyword-led, one datum per line. The `title`
//! payload is taken verbatim to the end of its line (a `#` there is
//! part of the title, not a comment); names and labels are single
//! whitespace-free tokens — a label with spaces fails to re-parse with
//! an error rather than round-tripping silently wrong.

use std::fmt::Write as _;

use noc_benchgen::{BottleneckConfig, SocDesign, SpreadConfig};
use noc_sim::TrafficModel;
use noc_usecase::spec::SocSpec;
use nocmap::anneal::AnnealConfig;
use nocmap::remap::RemapConfig;
use nocmap::strategy::StrategyKind;

use crate::FlowError;

/// A benchmark generator reference: which spec to synthesize, from
/// which seed.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchmarkSpec {
    /// One of the paper's four SoC designs (deterministic, no seed).
    Design(SocDesign),
    /// Synthetic Sp (spread) benchmark at the paper's parameters.
    Spread {
        /// Number of use-cases.
        use_cases: usize,
        /// Generator seed.
        seed: u64,
        /// Shared master pair pool (`None` = free sampling, the Sp
        /// default).
        pair_pool: Option<usize>,
        /// Fraction of pool pairs re-drawn per use-case.
        versatile_fraction: f64,
    },
    /// Synthetic Bot (bottleneck) benchmark at the paper's parameters.
    Bottleneck {
        /// Number of use-cases.
        use_cases: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl BenchmarkSpec {
    /// Plain Sp benchmark (no pool).
    pub fn spread(use_cases: usize, seed: u64) -> Self {
        BenchmarkSpec::Spread {
            use_cases,
            seed,
            pair_pool: None,
            versatile_fraction: 0.0,
        }
    }

    /// Pooled Sp benchmark (shared physical connections, as in the
    /// Figure 7(c) and speedup studies).
    pub fn pooled_spread(use_cases: usize, seed: u64, pool: usize, versatile: f64) -> Self {
        BenchmarkSpec::Spread {
            use_cases,
            seed,
            pair_pool: Some(pool),
            versatile_fraction: versatile,
        }
    }

    /// Synthesizes the communication spec.
    pub fn generate(&self) -> SocSpec {
        match *self {
            BenchmarkSpec::Design(d) => d.generate(),
            BenchmarkSpec::Spread {
                use_cases,
                seed,
                pair_pool,
                versatile_fraction,
            } => {
                let mut cfg = SpreadConfig::paper(use_cases);
                cfg.pair_pool = pair_pool;
                cfg.versatile_fraction = versatile_fraction;
                cfg.generate(seed)
            }
            BenchmarkSpec::Bottleneck { use_cases, seed } => {
                BottleneckConfig::paper(use_cases).generate(seed)
            }
        }
    }
}

/// A benchmark plus the row label it carries in rendered tables.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledBench {
    /// Row label (design name, use-case count, …).
    pub label: String,
    /// The benchmark to generate.
    pub bench: BenchmarkSpec,
}

impl LabeledBench {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, bench: BenchmarkSpec) -> Self {
        LabeledBench {
            label: label.into(),
            bench,
        }
    }
}

/// A labeled best-effort traffic shape for burst sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstModel {
    /// Row label (`constant`, `onoff-1/2`, …).
    pub label: String,
    /// The traffic source model.
    pub model: TrafficModel,
}

/// One mapper-quality ablation variant (the DESIGN.md heuristics
/// against naive baselines).
#[derive(Debug, Clone, PartialEq)]
pub enum AblationVariant {
    /// The paper's default heuristics.
    PaperDefaults,
    /// No bandwidth sorting, no prefer-mapped ordering.
    UnsortedFlows,
    /// Round-robin core placement instead of unified placement.
    RoundRobinPlacement,
    /// All use-cases merged into one shared configuration.
    SingleSharedConfig,
    /// Annealing refinement on top of the paper defaults.
    WithAnnealing {
        /// Proposed moves.
        iterations: usize,
        /// Independent chains.
        chains: usize,
    },
}

impl AblationVariant {
    /// The row label of this variant in the ablation table.
    pub fn label(&self) -> &'static str {
        match self {
            AblationVariant::PaperDefaults => "paper-defaults",
            AblationVariant::UnsortedFlows => "unsorted-flows",
            AblationVariant::RoundRobinPlacement => "round-robin-placement",
            AblationVariant::SingleSharedConfig => "single-shared-config",
            AblationVariant::WithAnnealing { .. } => "with-annealing",
        }
    }
}

/// The experiment families the generic runner knows how to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// Ours-vs-worst-case switch-count comparison over benchmarks
    /// (Figures 6(a)–(c)).
    Comparison {
        /// Rows of the comparison table.
        benches: Vec<LabeledBench>,
    },
    /// Area–frequency trade-off of one design (Figure 7(a)).
    AreaFrequency {
        /// The design under study.
        bench: BenchmarkSpec,
        /// Clock sweep in MHz.
        sweep_mhz: Vec<u64>,
    },
    /// DVS/DFS power savings per design (Figure 7(b)).
    DvsSavings {
        /// Designs under study.
        benches: Vec<LabeledBench>,
        /// Lower bound of the per-use-case frequency search.
        floor_mhz: u64,
    },
    /// Minimum frequency vs number of parallel use-cases (Figure 7(c)).
    ParallelFrequency {
        /// The design under study.
        bench: BenchmarkSpec,
        /// Parallelism degrees to evaluate.
        parallel: Vec<usize>,
        /// Frequency search range, low end (MHz).
        lo_mhz: u64,
        /// Frequency search range, high end (MHz).
        hi_mhz: u64,
    },
    /// Phase-4 verification: map, verify analytically, simulate every
    /// use-case.
    VerifyDesigns {
        /// Designs under study.
        benches: Vec<LabeledBench>,
        /// Simulated cycles per use-case.
        cycles: u64,
    },
    /// Mapper-quality ablations on one benchmark.
    Ablations {
        /// The benchmark all variants run on.
        bench: BenchmarkSpec,
        /// The variants, in table order.
        variants: Vec<AblationVariant>,
    },
    /// Wall-clock study: ours vs WC per benchmark, plus the 1-vs-N
    /// worker speedup rows.
    Runtimes {
        /// Benchmarks timed for both methods.
        benches: Vec<LabeledBench>,
        /// Benchmarks timed at 1 worker vs the ambient count.
        speedup_benches: Vec<LabeledBench>,
    },
    /// Best-effort burstiness × hop-count contention sweep.
    BeBurst {
        /// Traffic shapes (rows).
        models: Vec<BurstModel>,
        /// Chain depths (columns).
        hops: Vec<usize>,
        /// Chained BE flows per point.
        flows: usize,
        /// Average injection rate per flow (MB/s).
        avg_mbps: u64,
        /// TDMA slots of the scenario's wheel.
        slots: usize,
        /// NoC clock (MHz).
        freq_mhz: u64,
        /// Simulated cycles per point.
        cycles: u64,
    },
    /// The abstract's headline aggregates (mean area reduction, mean
    /// power saving) over a comparison set and a DVS set.
    Headline {
        /// Benchmarks of the area comparison.
        area_benches: Vec<LabeledBench>,
        /// Benchmarks of the DVS study.
        dvs_benches: Vec<LabeledBench>,
        /// Lower bound of the per-use-case frequency search.
        floor_mhz: u64,
    },
    /// Perf telemetry: map + anneal each benchmark, recording wall time
    /// and the deterministic hot-path op counters (the `BENCH_nocmap.json`
    /// trajectory; see `docs/PERFORMANCE.md`).
    Perf {
        /// Benchmarks to measure, in row order.
        benches: Vec<LabeledBench>,
        /// Annealing moves per benchmark.
        anneal_iterations: u64,
        /// Independent annealing chains per benchmark.
        anneal_chains: u64,
    },
    /// Strategy-portfolio frontier: map each benchmark with every
    /// [`StrategyKind`], recording cost quality against deterministic
    /// op totals (see `docs/STRATEGIES.md`).
    Frontier {
        /// Benchmarks to sweep, in row order.
        benches: Vec<LabeledBench>,
    },
    /// Online-service admission study: replay one seeded request trace
    /// through `noc-service` per fabric, reporting blocking probability
    /// and reconfiguration cost (see `docs/SERVICE.md`).
    Service {
        /// Requests in the generated trace.
        requests: u64,
        /// Trace seed.
        seed: u64,
        /// Mutations batched between reconfiguration points.
        batch: u64,
        /// Displacement eviction budget per admission.
        budget: u64,
    },
    /// Fault-injection resilience study: replay a seeded request trace
    /// with a woven-in fault schedule (`fault` / `heal` lines) through
    /// `noc-service` per fabric, reporting degradation and repair cost
    /// (see `docs/RESILIENCE.md`).
    Resilience {
        /// Requests in the generated trace.
        requests: u64,
        /// Trace seed (also salts the fault schedule).
        seed: u64,
        /// Mutations batched between reconfiguration points.
        batch: u64,
        /// Displacement eviction budget per admission.
        budget: u64,
        /// Fault events woven into the trace.
        faults: u64,
    },
}

/// A named, titled, executable experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Registry / CLI name (`fig6a`, `be_burst`, …).
    pub name: String,
    /// Table title printed above the rendered output.
    pub title: String,
    /// What to run.
    pub kind: ExperimentKind,
}

/// One stage of a design flow: what it does and with which settings.
/// [`StageConfig::run`] executes it on a
/// [`FlowContext`](crate::FlowContext).
#[derive(Debug, Clone, PartialEq)]
pub enum StageConfig {
    /// Smallest-mesh mapping, optionally refined by a portfolio
    /// strategy (`stage map [greedy|displacement]` in the text
    /// form; the bare `stage map` spelling is the greedy default and
    /// round-trips byte-identically).
    Map {
        /// Mapping strategy from the portfolio.
        strategy: StrategyKind,
    },
    /// Worst-case baseline.
    WorstCase,
    /// Annealing refinement (`stage anneal ITERATIONS CHAINS [SEED
    /// TEMPERATURE COOLING]`).
    Anneal(AnnealConfig),
    /// Per-group remapping refinement (`stage remap MAX_MOVED_CORES
    /// ROUNDS`).
    Remap(RemapConfig),
    /// Analytical verification.
    Verify,
    /// Cycle-level simulation of every use-case.
    Simulate {
        /// Cycles per use-case.
        cycles: u64,
    },
}

impl StageConfig {
    /// The default map stage (greedy strategy).
    pub fn map() -> Self {
        StageConfig::Map {
            strategy: StrategyKind::Greedy,
        }
    }
}

/// Declarative form of one design flow: the shared knobs plus the stage
/// list, as data. [`FlowConfig::run`] executes it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Config name (informational).
    pub name: String,
    /// TDMA slots per table.
    pub slots: usize,
    /// NoC clock in MHz.
    pub freq_mhz: u64,
    /// Topology growth cap.
    pub max_switches: usize,
    /// `noc-par` worker pin (`None` = ambient policy).
    pub threads: Option<usize>,
    /// Stages in execution order.
    pub stages: Vec<StageConfig>,
}

impl FlowConfig {
    /// The `nocmap_cli design` defaults: 128 slots at 500 MHz, 400
    /// switches max, map + verify.
    pub fn design_defaults() -> Self {
        FlowConfig {
            name: "design".to_string(),
            slots: 128,
            freq_mhz: 500,
            max_switches: 400,
            threads: None,
            stages: vec![StageConfig::map(), StageConfig::Verify],
        }
    }
}

/// A parsed spec file: either document type the text format carries.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecFile {
    /// An `experiment NAME` document.
    Experiment(ExperimentSpec),
    /// A `flow NAME` document.
    Flow(FlowConfig),
}

// ---------------------------------------------------------------------
// Text serialization.
// ---------------------------------------------------------------------

fn write_bench(out: &mut String, b: &BenchmarkSpec) {
    match b {
        BenchmarkSpec::Design(d) => {
            let _ = write!(out, "design {}", d.label().to_ascii_lowercase());
        }
        BenchmarkSpec::Spread {
            use_cases,
            seed,
            pair_pool,
            versatile_fraction,
        } => {
            let _ = write!(out, "spread {use_cases} {seed}");
            if let Some(pool) = pair_pool {
                let _ = write!(out, " pool {pool}");
            }
            if *versatile_fraction != 0.0 {
                let _ = write!(out, " versatile {versatile_fraction}");
            }
        }
        BenchmarkSpec::Bottleneck { use_cases, seed } => {
            let _ = write!(out, "bot {use_cases} {seed}");
        }
    }
}

fn write_labeled(out: &mut String, keyword: &str, benches: &[LabeledBench]) {
    for b in benches {
        let _ = write!(out, "{keyword} {} ", b.label);
        write_bench(out, &b.bench);
        out.push('\n');
    }
}

fn write_list<T: std::fmt::Display>(out: &mut String, keyword: &str, values: &[T]) {
    let _ = write!(out, "{keyword}");
    for v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

/// Serializes an [`ExperimentSpec`] to the text format.
pub fn experiment_to_text(spec: &ExperimentSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "experiment {}", spec.name);
    let _ = writeln!(out, "title {}", spec.title);
    match &spec.kind {
        ExperimentKind::Comparison { benches } => {
            let _ = writeln!(out, "kind comparison");
            write_labeled(&mut out, "bench", benches);
        }
        ExperimentKind::AreaFrequency { bench, sweep_mhz } => {
            let _ = writeln!(out, "kind area_frequency");
            out.push_str("target ");
            write_bench(&mut out, bench);
            out.push('\n');
            write_list(&mut out, "sweep_mhz", sweep_mhz);
        }
        ExperimentKind::DvsSavings { benches, floor_mhz } => {
            let _ = writeln!(out, "kind dvs");
            write_labeled(&mut out, "bench", benches);
            let _ = writeln!(out, "floor_mhz {floor_mhz}");
        }
        ExperimentKind::ParallelFrequency {
            bench,
            parallel,
            lo_mhz,
            hi_mhz,
        } => {
            let _ = writeln!(out, "kind parallel_frequency");
            out.push_str("target ");
            write_bench(&mut out, bench);
            out.push('\n');
            write_list(&mut out, "parallel", parallel);
            let _ = writeln!(out, "lo_mhz {lo_mhz}");
            let _ = writeln!(out, "hi_mhz {hi_mhz}");
        }
        ExperimentKind::VerifyDesigns { benches, cycles } => {
            let _ = writeln!(out, "kind verify");
            write_labeled(&mut out, "bench", benches);
            let _ = writeln!(out, "cycles {cycles}");
        }
        ExperimentKind::Ablations { bench, variants } => {
            let _ = writeln!(out, "kind ablations");
            out.push_str("target ");
            write_bench(&mut out, bench);
            out.push('\n');
            for v in variants {
                match v {
                    AblationVariant::WithAnnealing { iterations, chains } => {
                        let _ = writeln!(out, "variant with-annealing {iterations} {chains}");
                    }
                    other => {
                        let _ = writeln!(out, "variant {}", other.label());
                    }
                }
            }
        }
        ExperimentKind::Runtimes {
            benches,
            speedup_benches,
        } => {
            let _ = writeln!(out, "kind runtimes");
            write_labeled(&mut out, "bench", benches);
            write_labeled(&mut out, "speedup", speedup_benches);
        }
        ExperimentKind::BeBurst {
            models,
            hops,
            flows,
            avg_mbps,
            slots,
            freq_mhz,
            cycles,
        } => {
            let _ = writeln!(out, "kind be_burst");
            for m in models {
                let _ = write!(out, "model {} ", m.label);
                match &m.model {
                    TrafficModel::Constant => out.push_str("constant"),
                    TrafficModel::OnOff { period, on, phase } => {
                        let _ = write!(out, "onoff {period} {on} {phase}");
                    }
                    TrafficModel::RandomBursts {
                        mean_on,
                        mean_off,
                        seed,
                    } => {
                        let _ = write!(out, "mmpp {mean_on} {mean_off} {seed}");
                    }
                    TrafficModel::Trace(cycles) => {
                        out.push_str("trace");
                        for c in cycles {
                            let _ = write!(out, " {c}");
                        }
                    }
                }
                out.push('\n');
            }
            write_list(&mut out, "hops", hops);
            let _ = writeln!(out, "flows {flows}");
            let _ = writeln!(out, "avg_mbps {avg_mbps}");
            let _ = writeln!(out, "slots {slots}");
            let _ = writeln!(out, "freq_mhz {freq_mhz}");
            let _ = writeln!(out, "cycles {cycles}");
        }
        ExperimentKind::Headline {
            area_benches,
            dvs_benches,
            floor_mhz,
        } => {
            let _ = writeln!(out, "kind headline");
            write_labeled(&mut out, "bench", area_benches);
            write_labeled(&mut out, "dvs", dvs_benches);
            let _ = writeln!(out, "floor_mhz {floor_mhz}");
        }
        ExperimentKind::Perf {
            benches,
            anneal_iterations,
            anneal_chains,
        } => {
            let _ = writeln!(out, "kind perf");
            write_labeled(&mut out, "bench", benches);
            let _ = writeln!(out, "anneal_iterations {anneal_iterations}");
            let _ = writeln!(out, "anneal_chains {anneal_chains}");
        }
        ExperimentKind::Frontier { benches } => {
            let _ = writeln!(out, "kind frontier");
            write_labeled(&mut out, "bench", benches);
        }
        ExperimentKind::Service {
            requests,
            seed,
            batch,
            budget,
        } => {
            let _ = writeln!(out, "kind service");
            let _ = writeln!(out, "requests {requests}");
            let _ = writeln!(out, "seed {seed}");
            let _ = writeln!(out, "batch {batch}");
            let _ = writeln!(out, "budget {budget}");
        }
        ExperimentKind::Resilience {
            requests,
            seed,
            batch,
            budget,
            faults,
        } => {
            let _ = writeln!(out, "kind resilience");
            let _ = writeln!(out, "requests {requests}");
            let _ = writeln!(out, "seed {seed}");
            let _ = writeln!(out, "batch {batch}");
            let _ = writeln!(out, "budget {budget}");
            let _ = writeln!(out, "faults {faults}");
        }
    }
    out
}

/// Serializes a [`FlowConfig`] to the text format.
pub fn flow_to_text(cfg: &FlowConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "flow {}", cfg.name);
    let _ = writeln!(out, "slots {}", cfg.slots);
    let _ = writeln!(out, "freq_mhz {}", cfg.freq_mhz);
    let _ = writeln!(out, "max_switches {}", cfg.max_switches);
    if let Some(t) = cfg.threads {
        let _ = writeln!(out, "threads {t}");
    }
    for s in &cfg.stages {
        match s {
            StageConfig::Map { strategy } => {
                // Bare `stage map` for the greedy default so existing
                // specs round-trip byte-for-byte.
                match strategy {
                    StrategyKind::Greedy => {
                        let _ = writeln!(out, "stage map");
                    }
                    other => {
                        let _ = writeln!(out, "stage map {}", other.token());
                    }
                }
            }
            StageConfig::WorstCase => {
                let _ = writeln!(out, "stage worst_case");
            }
            StageConfig::Anneal(a) => {
                let _ = writeln!(
                    out,
                    "stage anneal {} {} {} {} {}",
                    a.iterations, a.chains, a.seed, a.initial_temperature, a.cooling
                );
            }
            StageConfig::Remap(r) => {
                let _ = writeln!(out, "stage remap {} {}", r.max_moved_cores, r.rounds);
            }
            StageConfig::Verify => {
                let _ = writeln!(out, "stage verify");
            }
            StageConfig::Simulate { cycles } => {
                let _ = writeln!(out, "stage simulate {cycles}");
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Text parsing.
// ---------------------------------------------------------------------

/// Meaningful lines of a spec document: `(1-based line, tokens of the
/// comment-stripped text, raw trimmed line with any comment intact)`.
/// The raw form exists for free-text payloads (`title`), which may
/// legitimately contain `#` — comment stripping only governs which
/// lines are skipped and how keyword lines tokenize.
struct Lines<'a> {
    lines: Vec<(usize, Vec<&'a str>, &'a str)>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .filter_map(|(i, raw)| {
                let no_comment = raw.split('#').next().unwrap_or("");
                let trimmed = no_comment.trim();
                if trimmed.is_empty() {
                    None
                } else {
                    Some((i + 1, trimmed.split_whitespace().collect(), raw.trim()))
                }
            })
            .collect();
        Lines { lines, pos: 0 }
    }

    fn next(&mut self) -> Option<&(usize, Vec<&'a str>, &'a str)> {
        let item = self.lines.get(self.pos);
        if item.is_some() {
            self.pos += 1;
        }
        item
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, what: &str, tok: &str) -> Result<T, FlowError> {
    tok.parse::<T>()
        .map_err(|_| FlowError::parse(line, format!("invalid {what} '{tok}'")))
}

/// Parses a benchmark reference from tokens (after the label).
fn parse_bench(line: usize, toks: &[&str]) -> Result<BenchmarkSpec, FlowError> {
    let missing = || FlowError::parse(line, "incomplete benchmark reference");
    match *toks.first().ok_or_else(missing)? {
        "design" => {
            let which = toks.get(1).ok_or_else(missing)?;
            let d = match *which {
                "d1" => SocDesign::D1,
                "d2" => SocDesign::D2,
                "d3" => SocDesign::D3,
                "d4" => SocDesign::D4,
                other => {
                    return Err(FlowError::parse(line, format!("unknown design '{other}'")));
                }
            };
            Ok(BenchmarkSpec::Design(d))
        }
        "spread" => {
            let use_cases = parse_num(line, "use-case count", toks.get(1).ok_or_else(missing)?)?;
            let seed = parse_num(line, "seed", toks.get(2).ok_or_else(missing)?)?;
            let mut pair_pool = None;
            let mut versatile_fraction = 0.0f64;
            let mut rest = &toks[3..];
            while !rest.is_empty() {
                match rest[0] {
                    "pool" => {
                        pair_pool = Some(parse_num(
                            line,
                            "pool size",
                            rest.get(1).ok_or_else(missing)?,
                        )?);
                        rest = &rest[2..];
                    }
                    "versatile" => {
                        versatile_fraction = parse_num(
                            line,
                            "versatile fraction",
                            rest.get(1).ok_or_else(missing)?,
                        )?;
                        rest = &rest[2..];
                    }
                    other => {
                        return Err(FlowError::parse(
                            line,
                            format!("unknown spread option '{other}'"),
                        ));
                    }
                }
            }
            Ok(BenchmarkSpec::Spread {
                use_cases,
                seed,
                pair_pool,
                versatile_fraction,
            })
        }
        "bot" => Ok(BenchmarkSpec::Bottleneck {
            use_cases: parse_num(line, "use-case count", toks.get(1).ok_or_else(missing)?)?,
            seed: parse_num(line, "seed", toks.get(2).ok_or_else(missing)?)?,
        }),
        other => Err(FlowError::parse(
            line,
            format!("unknown benchmark kind '{other}'"),
        )),
    }
}

fn parse_labeled(line: usize, toks: &[&str]) -> Result<LabeledBench, FlowError> {
    let label = toks
        .first()
        .ok_or_else(|| FlowError::parse(line, "missing bench label"))?;
    Ok(LabeledBench::new(*label, parse_bench(line, &toks[1..])?))
}

fn parse_list<T: std::str::FromStr>(
    line: usize,
    what: &str,
    toks: &[&str],
) -> Result<Vec<T>, FlowError> {
    toks.iter().map(|t| parse_num(line, what, t)).collect()
}

/// Parses either document type from text, dispatching on the header.
///
/// # Errors
///
/// [`FlowError::Parse`] with the offending 1-based line.
pub fn spec_from_text(text: &str) -> Result<SpecFile, FlowError> {
    let mut lines = Lines::new(text);
    let Some((line, toks, _)) = lines.next().cloned() else {
        return Err(FlowError::parse(0, "empty spec file"));
    };
    match *toks.first().expect("non-empty by construction") {
        "experiment" => {
            let name = toks
                .get(1)
                .ok_or_else(|| FlowError::parse(line, "missing experiment name"))?
                .to_string();
            experiment_body(name, &mut lines).map(SpecFile::Experiment)
        }
        "flow" => {
            let name = toks
                .get(1)
                .ok_or_else(|| FlowError::parse(line, "missing flow name"))?
                .to_string();
            flow_body(name, &mut lines).map(SpecFile::Flow)
        }
        other => Err(FlowError::parse(
            line,
            format!("expected 'experiment NAME' or 'flow NAME', got '{other}'"),
        )),
    }
}

/// Parses an [`ExperimentSpec`] from text.
///
/// # Errors
///
/// [`FlowError::Parse`]; also when the document is a `flow` config.
pub fn experiment_from_text(text: &str) -> Result<ExperimentSpec, FlowError> {
    match spec_from_text(text)? {
        SpecFile::Experiment(spec) => Ok(spec),
        SpecFile::Flow(_) => Err(FlowError::parse(
            0,
            "expected an 'experiment' document, found a 'flow' config",
        )),
    }
}

/// Parses a [`FlowConfig`] from text.
///
/// # Errors
///
/// [`FlowError::Parse`]; also when the document is an `experiment`.
pub fn flow_from_text(text: &str) -> Result<FlowConfig, FlowError> {
    match spec_from_text(text)? {
        SpecFile::Flow(cfg) => Ok(cfg),
        SpecFile::Experiment(_) => Err(FlowError::parse(
            0,
            "expected a 'flow' config, found an 'experiment' document",
        )),
    }
}

fn experiment_body(name: String, lines: &mut Lines<'_>) -> Result<ExperimentSpec, FlowError> {
    // `title` then `kind` are fixed, in order.
    let (tline, ttoks, traw) = lines
        .next()
        .ok_or_else(|| FlowError::parse(0, "missing 'title' line"))?
        .clone();
    if ttoks.first() != Some(&"title") {
        return Err(FlowError::parse(tline, "expected 'title TEXT'"));
    }
    let title = traw["title".len()..].trim().to_string();
    let (kline, ktoks, _) = lines
        .next()
        .ok_or_else(|| FlowError::parse(0, "missing 'kind' line"))?
        .clone();
    if ktoks.first() != Some(&"kind") || ktoks.len() != 2 {
        return Err(FlowError::parse(kline, "expected 'kind NAME'"));
    }
    let kind_name = ktoks[1].to_string();

    // Collect the keyword-led body lines.
    let mut benches = Vec::new();
    let mut dvs_benches = Vec::new();
    let mut speedup_benches = Vec::new();
    let mut target: Option<BenchmarkSpec> = None;
    let mut variants = Vec::new();
    let mut models = Vec::new();
    let mut sweep_mhz = Vec::new();
    let mut hops = Vec::new();
    let mut parallel = Vec::new();
    let mut scalars: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    const SCALARS: [&str; 15] = [
        "floor_mhz",
        "lo_mhz",
        "hi_mhz",
        "cycles",
        "flows",
        "avg_mbps",
        "slots",
        "freq_mhz",
        "anneal_iterations",
        "anneal_chains",
        "requests",
        "seed",
        "batch",
        "budget",
        "faults",
    ];

    while let Some((line, toks, _)) = lines.next().cloned() {
        match *toks.first().expect("non-empty by construction") {
            "bench" => benches.push(parse_labeled(line, &toks[1..])?),
            "dvs" => dvs_benches.push(parse_labeled(line, &toks[1..])?),
            "speedup" => speedup_benches.push(parse_labeled(line, &toks[1..])?),
            "target" => target = Some(parse_bench(line, &toks[1..])?),
            "sweep_mhz" => sweep_mhz = parse_list(line, "frequency", &toks[1..])?,
            "hops" => hops = parse_list(line, "hop count", &toks[1..])?,
            "parallel" => parallel = parse_list(line, "parallelism", &toks[1..])?,
            "variant" => {
                let which = toks
                    .get(1)
                    .ok_or_else(|| FlowError::parse(line, "missing variant name"))?;
                variants.push(match *which {
                    "paper-defaults" => AblationVariant::PaperDefaults,
                    "unsorted-flows" => AblationVariant::UnsortedFlows,
                    "round-robin-placement" => AblationVariant::RoundRobinPlacement,
                    "single-shared-config" => AblationVariant::SingleSharedConfig,
                    "with-annealing" => AblationVariant::WithAnnealing {
                        iterations: parse_num(line, "iterations", toks.get(2).unwrap_or(&""))?,
                        chains: parse_num(line, "chains", toks.get(3).unwrap_or(&""))?,
                    },
                    other => {
                        return Err(FlowError::parse(
                            line,
                            format!("unknown ablation variant '{other}'"),
                        ));
                    }
                });
            }
            "model" => {
                let label = toks
                    .get(1)
                    .ok_or_else(|| FlowError::parse(line, "missing model label"))?
                    .to_string();
                let shape = toks
                    .get(2)
                    .ok_or_else(|| FlowError::parse(line, "missing model shape"))?;
                let model = match *shape {
                    "constant" => TrafficModel::Constant,
                    "onoff" => TrafficModel::OnOff {
                        period: parse_num(line, "period", toks.get(3).unwrap_or(&""))?,
                        on: parse_num(line, "on window", toks.get(4).unwrap_or(&""))?,
                        phase: parse_num(line, "phase", toks.get(5).unwrap_or(&""))?,
                    },
                    "mmpp" => TrafficModel::RandomBursts {
                        mean_on: parse_num(line, "mean on", toks.get(3).unwrap_or(&""))?,
                        mean_off: parse_num(line, "mean off", toks.get(4).unwrap_or(&""))?,
                        seed: parse_num(line, "seed", toks.get(5).unwrap_or(&""))?,
                    },
                    "trace" => TrafficModel::Trace(parse_list(line, "cycle", &toks[3..])?),
                    other => {
                        return Err(FlowError::parse(
                            line,
                            format!("unknown traffic model '{other}'"),
                        ));
                    }
                };
                models.push(BurstModel { label, model });
            }
            key if SCALARS.contains(&key) => {
                let value = toks
                    .get(1)
                    .ok_or_else(|| FlowError::parse(line, format!("{key} needs a value")))?;
                let canonical = SCALARS
                    .iter()
                    .find(|s| **s == key)
                    .expect("guard checked membership");
                scalars.insert(canonical, parse_num(line, key, value)?);
            }
            other => {
                return Err(FlowError::parse(line, format!("unknown keyword '{other}'")));
            }
        }
    }

    let scalar = |key: &str, default: Option<u64>| -> Result<u64, FlowError> {
        scalars
            .get(key)
            .copied()
            .or(default)
            .ok_or_else(|| FlowError::parse(0, format!("missing '{key}' line")))
    };
    let need_target = |t: &Option<BenchmarkSpec>| -> Result<BenchmarkSpec, FlowError> {
        t.clone()
            .ok_or_else(|| FlowError::parse(0, "missing 'target' line"))
    };

    let kind = match kind_name.as_str() {
        "comparison" => ExperimentKind::Comparison { benches },
        "area_frequency" => ExperimentKind::AreaFrequency {
            bench: need_target(&target)?,
            sweep_mhz,
        },
        "dvs" => ExperimentKind::DvsSavings {
            benches,
            floor_mhz: scalar("floor_mhz", Some(10))?,
        },
        "parallel_frequency" => ExperimentKind::ParallelFrequency {
            bench: need_target(&target)?,
            parallel,
            lo_mhz: scalar("lo_mhz", Some(10))?,
            hi_mhz: scalar("hi_mhz", Some(4000))?,
        },
        "verify" => ExperimentKind::VerifyDesigns {
            benches,
            cycles: scalar("cycles", Some(4096))?,
        },
        "ablations" => ExperimentKind::Ablations {
            bench: need_target(&target)?,
            variants,
        },
        "runtimes" => ExperimentKind::Runtimes {
            benches,
            speedup_benches,
        },
        "be_burst" => ExperimentKind::BeBurst {
            models,
            hops,
            flows: scalar("flows", Some(3))? as usize,
            avg_mbps: scalar("avg_mbps", Some(200))?,
            slots: scalar("slots", Some(16))? as usize,
            freq_mhz: scalar("freq_mhz", Some(500))?,
            cycles: scalar("cycles", Some(16_384))?,
        },
        "headline" => ExperimentKind::Headline {
            area_benches: benches,
            dvs_benches,
            floor_mhz: scalar("floor_mhz", Some(10))?,
        },
        "perf" => ExperimentKind::Perf {
            benches,
            anneal_iterations: scalar("anneal_iterations", Some(60))?,
            anneal_chains: scalar("anneal_chains", Some(2))?,
        },
        "frontier" => ExperimentKind::Frontier { benches },
        "service" => ExperimentKind::Service {
            requests: scalar("requests", Some(200))?,
            seed: scalar("seed", Some(2006))?,
            batch: scalar("batch", Some(4))?,
            budget: scalar("budget", Some(6))?,
        },
        "resilience" => ExperimentKind::Resilience {
            requests: scalar("requests", Some(150))?,
            seed: scalar("seed", Some(2006))?,
            batch: scalar("batch", Some(4))?,
            budget: scalar("budget", Some(6))?,
            faults: scalar("faults", Some(5))?,
        },
        other => {
            return Err(FlowError::parse(
                kline,
                format!("unknown experiment kind '{other}'"),
            ));
        }
    };
    Ok(ExperimentSpec { name, title, kind })
}

fn flow_body(name: String, lines: &mut Lines<'_>) -> Result<FlowConfig, FlowError> {
    let mut cfg = FlowConfig {
        name,
        ..FlowConfig::design_defaults()
    };
    cfg.stages.clear();
    while let Some((line, toks, _)) = lines.next().cloned() {
        let value = |i: usize| -> Result<&str, FlowError> {
            toks.get(i)
                .copied()
                .ok_or_else(|| FlowError::parse(line, "missing value"))
        };
        match *toks.first().expect("non-empty by construction") {
            "slots" => cfg.slots = parse_num(line, "slots", value(1)?)?,
            "freq_mhz" => cfg.freq_mhz = parse_num(line, "frequency", value(1)?)?,
            "max_switches" => cfg.max_switches = parse_num(line, "switch cap", value(1)?)?,
            "threads" => cfg.threads = Some(parse_num(line, "threads", value(1)?)?),
            "stage" => {
                let stage = match value(1)? {
                    "map" => StageConfig::Map {
                        strategy: match toks.get(2) {
                            Some(tok) => StrategyKind::parse(tok).ok_or_else(|| {
                                FlowError::parse(line, format!("unknown map strategy '{tok}'"))
                            })?,
                            None => StrategyKind::Greedy,
                        },
                    },
                    "worst_case" => StageConfig::WorstCase,
                    "anneal" => {
                        let d = AnnealConfig::default();
                        StageConfig::Anneal(AnnealConfig {
                            iterations: parse_num(line, "iterations", value(2)?)?,
                            chains: parse_num(line, "chains", value(3)?)?,
                            seed: match toks.get(4) {
                                Some(t) => parse_num(line, "seed", t)?,
                                None => d.seed,
                            },
                            initial_temperature: match toks.get(5) {
                                Some(t) => parse_num(line, "temperature", t)?,
                                None => d.initial_temperature,
                            },
                            cooling: match toks.get(6) {
                                Some(t) => parse_num(line, "cooling", t)?,
                                None => d.cooling,
                            },
                        })
                    }
                    "remap" => StageConfig::Remap(RemapConfig {
                        max_moved_cores: parse_num(line, "moved cores", value(2)?)?,
                        rounds: parse_num(line, "rounds", value(3)?)?,
                    }),
                    "verify" => StageConfig::Verify,
                    "simulate" => StageConfig::Simulate {
                        cycles: parse_num(line, "cycles", value(2)?)?,
                    },
                    other => {
                        return Err(FlowError::parse(line, format!("unknown stage '{other}'")));
                    }
                };
                cfg.stages.push(stage);
            }
            other => {
                return Err(FlowError::parse(line, format!("unknown keyword '{other}'")));
            }
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_generate_matches_direct_generators() {
        assert_eq!(
            BenchmarkSpec::Design(SocDesign::D2).generate(),
            SocDesign::D2.generate()
        );
        assert_eq!(
            BenchmarkSpec::spread(3, 7).generate(),
            SpreadConfig::paper(3).generate(7)
        );
        let mut pooled = SpreadConfig::paper(3);
        pooled.pair_pool = Some(50);
        pooled.versatile_fraction = 0.3;
        assert_eq!(
            BenchmarkSpec::pooled_spread(3, 7, 50, 0.3).generate(),
            pooled.generate(7)
        );
    }

    #[test]
    fn flow_config_round_trips() {
        let cfg = FlowConfig {
            name: "full".into(),
            slots: 32,
            freq_mhz: 650,
            max_switches: 100,
            threads: Some(4),
            stages: vec![
                StageConfig::map(),
                StageConfig::WorstCase,
                StageConfig::Anneal(AnnealConfig {
                    iterations: 50,
                    chains: 2,
                    seed: 9,
                    initial_temperature: 450.5,
                    cooling: 0.93,
                }),
                StageConfig::Remap(RemapConfig {
                    max_moved_cores: 2,
                    rounds: 3,
                }),
                StageConfig::Verify,
                StageConfig::Simulate { cycles: 2048 },
            ],
        };
        let text = flow_to_text(&cfg);
        assert_eq!(flow_from_text(&text).unwrap(), cfg);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = spec_from_text("experiment x\ntitle t\nkind comparison\nbench A design d9\n")
            .unwrap_err();
        assert_eq!(err, FlowError::parse(4, "unknown design 'd9'"));
        let err = spec_from_text("banana\n").unwrap_err();
        assert!(matches!(err, FlowError::Parse { line: 1, .. }));
    }

    /// A flow has no seed of its own (`stage anneal` carries one), so a
    /// `seed` line is an unknown keyword, reported at its line.
    #[test]
    fn flow_seed_line_fails_at_its_line() {
        let err = flow_from_text("flow x\nstage map\nseed 2006\nstage verify\n").unwrap_err();
        assert_eq!(err, FlowError::parse(3, "unknown keyword 'seed'"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let cfg = flow_from_text("# header\nflow x\n\nslots 8  # eight\nstage map\n").unwrap();
        assert_eq!(cfg.slots, 8);
        assert_eq!(cfg.stages, vec![StageConfig::map()]);
    }

    #[test]
    fn map_strategy_round_trips_and_defaults_to_greedy() {
        for strategy in StrategyKind::ALL {
            let cfg = FlowConfig {
                stages: vec![StageConfig::Map { strategy }, StageConfig::Verify],
                ..FlowConfig::design_defaults()
            };
            let text = flow_to_text(&cfg);
            // The greedy default keeps the historical bare spelling.
            if strategy == StrategyKind::Greedy {
                assert!(text.contains("stage map\n"), "{text}");
            } else {
                assert!(
                    text.contains(&format!("stage map {}\n", strategy.token())),
                    "{text}"
                );
            }
            assert_eq!(flow_from_text(&text).unwrap(), cfg);
        }
        let err = flow_from_text("flow x\nstage map banana\n").unwrap_err();
        assert_eq!(err, FlowError::parse(2, "unknown map strategy 'banana'"));
    }

    #[test]
    fn service_experiment_round_trips() {
        let spec = ExperimentSpec {
            name: "service".into(),
            title: "Online admission".into(),
            kind: ExperimentKind::Service {
                requests: 200,
                seed: 2006,
                batch: 4,
                budget: 6,
            },
        };
        let text = experiment_to_text(&spec);
        assert_eq!(experiment_from_text(&text).unwrap(), spec);
        // Scalars default when omitted.
        let spec = experiment_from_text("experiment s\ntitle t\nkind service\n").unwrap();
        assert!(matches!(
            spec.kind,
            ExperimentKind::Service {
                requests: 200,
                seed: 2006,
                batch: 4,
                budget: 6,
            }
        ));
    }

    #[test]
    fn resilience_experiment_round_trips() {
        let spec = ExperimentSpec {
            name: "resilience".into(),
            title: "Fault injection".into(),
            kind: ExperimentKind::Resilience {
                requests: 150,
                seed: 2006,
                batch: 4,
                budget: 6,
                faults: 5,
            },
        };
        let text = experiment_to_text(&spec);
        assert_eq!(experiment_from_text(&text).unwrap(), spec);
        // Scalars default when omitted.
        let spec = experiment_from_text("experiment r\ntitle t\nkind resilience\n").unwrap();
        assert!(matches!(
            spec.kind,
            ExperimentKind::Resilience {
                requests: 150,
                seed: 2006,
                batch: 4,
                budget: 6,
                faults: 5,
            }
        ));
    }

    #[test]
    fn frontier_experiment_round_trips() {
        let spec = ExperimentSpec {
            name: "frontier".into(),
            title: "Strategy frontier".into(),
            kind: ExperimentKind::Frontier {
                benches: vec![LabeledBench::new("sp3", BenchmarkSpec::spread(3, 7))],
            },
        };
        let text = experiment_to_text(&spec);
        assert_eq!(experiment_from_text(&text).unwrap(), spec);
    }
}
