//! The offline workloads: `design` (the paper's smallest-mesh flow plus
//! verification) and `refine` (displacement refinement on top of it).

use std::collections::BTreeMap;
use std::time::Instant;

use noc_tdma::TdmaSpec;
use noc_usecase::{SocSpec, UseCaseGroups};
use nocmap::design::{design_smallest_mesh, FabricKind};
use nocmap::{design_with_strategy, MapperOptions, MappingSolution, StrategyKind};

use crate::clock::Clock;
use crate::gen::{self, Job};
use crate::report::{Metric, Run};
use crate::spans::{self, NoTrace, Recorder, Trace};
use crate::stats;

/// Growth limit of the smallest-mesh search (the repository's suites
/// use the same).
const MAX_SWITCHES: usize = 400;

/// Rounds over the job list in the untraced run. A job's latency is the
/// median of its runs, which are a whole round apart: the host switches
/// between speed levels, often within a run, and the median of three
/// reads the level that holds for most of them.
const ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Design,
    Refine,
}

impl Flow {
    fn mix(self) -> gen::Mix {
        match self {
            Flow::Design => gen::DESIGN_MIX,
            Flow::Refine => gen::REFINE_MIX,
        }
    }

    /// Passes for `--seconds`, sized on a 2-vCPU host so that
    /// [`ROUNDS`] rounds last about that long in the host's slower
    /// phases. Design never has fewer than 1000 jobs (p99 needs them);
    /// refine's jobs take four times as long, and p99 is not asked of
    /// it.
    fn passes(self, seconds: u64) -> usize {
        let (per_second, floor) = match self {
            Flow::Design => (8, 125),
            Flow::Refine => (3, 10),
        };
        (per_second * seconds as usize).max(floor)
    }

    /// Times the spec texts are parsed before each round; `setup_s` is
    /// the median over all rounds. Refine's set-up takes milliseconds,
    /// so it repeats more.
    fn setup_reps(self) -> usize {
        match self {
            Flow::Design => 1,
            Flow::Refine => 11,
        }
    }
}

/// Set-up: parses the spec text of every job `reps` times, one spec
/// alive at a time, and returns each rep's summed parse time, in
/// seconds of `clock`. Generating a text is the benchmark's work and is
/// not timed.
fn setup(jobs: &[Job], reps: usize, clock: &mut Clock) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            jobs.iter()
                .map(|job| {
                    let text = job.text();
                    clock.tick();
                    let t = clock.now();
                    let soc = noc_usecase::from_text(&text);
                    let secs = clock.now() - t;
                    drop(std::hint::black_box(soc));
                    secs
                })
                .sum()
        })
        .collect()
}

fn groups(soc: &SocSpec) -> UseCaseGroups {
    UseCaseGroups::singletons(soc.use_case_count())
}

fn greedy(soc: &SocSpec) -> Option<MappingSolution> {
    design_smallest_mesh(
        soc,
        &groups(soc),
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        MAX_SWITCHES,
    )
    .ok()
}

/// What one job produced.
struct Done {
    solution: MappingSolution,
    evictions: u64,
}

/// One job as a user runs it: design (and refine), then verify. `None`
/// when the flow fails or the result does not check out: a refined
/// design costlier than its greedy start, or over its eviction budget.
fn run_job<R: Trace>(
    flow: Flow,
    soc: &SocSpec,
    greedy_cost: Option<u128>,
    rec: &mut R,
    req: u64,
) -> Option<Done> {
    let g = groups(soc);
    let spec = TdmaSpec::paper_default();
    let opts = MapperOptions::default();
    let done = match flow {
        Flow::Design => Done {
            solution: rec
                .span("mapper.design", req, |_| {
                    design_smallest_mesh(soc, &g, spec, &opts, MAX_SWITCHES)
                })
                .ok()?,
            evictions: 0,
        },
        Flow::Refine => {
            let out = rec
                .span("refine.displacement", req, |_| {
                    design_with_strategy(
                        soc,
                        &g,
                        spec,
                        &opts,
                        MAX_SWITCHES,
                        FabricKind::Mesh,
                        StrategyKind::Displacement,
                    )
                })
                .ok()?;
            if out.evictions > out.eviction_budget
                || greedy_cost.is_some_and(|c| out.solution.comm_cost_bytes_hops() > c)
            {
                return None;
            }
            Done {
                solution: out.solution,
                evictions: out.evictions,
            }
        }
    };
    rec.span("verify", req, |_| done.solution.verify(soc, &g))
        .ok()?;
    Some(done)
}

/// What a pass over the job list produced.
#[derive(Default)]
struct Tally {
    /// Per job: seconds of the run's clock from the call until the
    /// verified solution (or the failed check); `None` when its spec or
    /// greedy start failed.
    secs: Vec<Option<f64>>,
    failed: u64,
    switches: u64,
    cost: u128,
    evictions: u64,
}

/// Runs every job in order. Each job's spec text is generated and
/// parsed, and refine's greedy start (which the refined design is
/// checked against) is designed, before the job's time starts.
fn pass<R: Trace>(flow: Flow, jobs: &[Job], rec: &mut R, clock: &mut Clock) -> Tally {
    let mut tally = Tally::default();
    for (i, job) in jobs.iter().enumerate() {
        let req = i as u64;
        let text = job.text();
        let Ok(soc) = rec.span("usecase.parse", req, |_| noc_usecase::from_text(&text)) else {
            tally.failed += 1;
            tally.secs.push(None);
            continue;
        };
        let start = match flow {
            Flow::Design => None,
            Flow::Refine => match rec.span("mapper.design", req, |_| greedy(&soc)) {
                Some(g) => Some(g.comm_cost_bytes_hops()),
                None => {
                    tally.failed += 1;
                    tally.secs.push(None);
                    continue;
                }
            },
        };
        clock.tick();
        let t = clock.now();
        let done = rec.span("job", req, |rec| run_job(flow, &soc, start, rec, req));
        tally.secs.push(Some(clock.now() - t));
        match done {
            Some(d) => {
                tally.switches += d.solution.switch_count() as u64;
                tally.cost += d.solution.comm_cost_bytes_hops();
                tally.evictions += d.evictions;
            }
            None => tally.failed += 1,
        }
    }
    tally
}

pub fn jobs_for(flow: Flow, seed: u64, seconds: u64) -> Vec<Job> {
    gen::jobs(flow.mix(), flow.passes(seconds), seed)
}

/// The untraced run: end-to-end metrics over [`ROUNDS`] rounds, each
/// after a set-up of its own, so that the set-up samples too are spread
/// over the run.
pub fn run(flow: Flow, seed: u64, seconds: u64) -> Run {
    let jobs = jobs_for(flow, seed, seconds);
    let mut clock = Clock::calibrated();
    let mut setup_times = Vec::new();
    let rounds: Vec<Tally> = (0..ROUNDS)
        .map(|_| {
            setup_times.extend(setup(&jobs, flow.setup_reps(), &mut clock));
            pass(flow, &jobs, &mut NoTrace, &mut clock)
        })
        .collect();
    let rss = crate::report::peak_rss_mb();
    let tally = &rounds[0];
    let mut failed: u64 = rounds.iter().map(|t| t.failed).sum();
    // The program is deterministic: every round must produce the same
    // designs.
    let mismatched = rounds[1..]
        .iter()
        .filter(|t| {
            (t.switches, t.cost, t.evictions) != (tally.switches, tally.cost, tally.evictions)
        })
        .count();
    failed += mismatched as u64;
    let secs: Vec<f64> = (0..jobs.len())
        .filter_map(|i| {
            let v: Vec<f64> = rounds.iter().filter_map(|t| t.secs[i]).collect();
            (!v.is_empty()).then(|| stats::median(&v))
        })
        .collect();
    let timed: f64 = secs.iter().sum();
    let l = stats::latency(secs);
    let mut run = Run::new((ROUNDS * jobs.len()) as u64, failed);
    run.note(clock.note());
    if mismatched > 0 {
        run.note(format!(
            "{mismatched} rounds produced other designs than the first"
        ));
    }
    run.note(format!(
        "jobs={}x{ROUNDS} samples={} beyond_p99={} highest_percentile_with_{}_beyond={:?} timed_s={timed:.3}",
        jobs.len(),
        l.samples,
        l.beyond_p99,
        stats::BEYOND,
        stats::tail_percentile(l.samples)
    ));
    run.note(format!(
        "evictions={} (cores moved by displacement)",
        tally.evictions
    ));
    run.metrics = vec![
        Metric::new("setup_s", stats::median(&setup_times), "s"),
        Metric::new("throughput_rps", l.samples as f64 / timed, "1/s"),
        Metric::new("latency_p50_ms", l.p50_ms, "ms"),
        Metric::new("latency_p99_ms", l.p99_ms, "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("switches", tally.switches as f64, "count"),
        Metric::new("comm_cost", tally.cost as f64 / 1e6, "MB/s-hops"),
    ];
    run
}

/// The traced run: per-layer metrics. A job list half the untraced
/// run's runs twice, without and with spans, so the run takes about as
/// long; counters are read around the traced pass, with nothing else
/// running in the process.
pub fn run_traced(
    flow: Flow,
    seed: u64,
    seconds: u64,
) -> (Run, Recorder, BTreeMap<&'static str, f64>) {
    let jobs = jobs_for(flow, seed, seconds.div_ceil(2));
    let mut clock = Clock::wall();
    let t = Instant::now();
    let plain = pass(flow, &jobs, &mut NoTrace, &mut clock);
    let untraced = t.elapsed().as_secs_f64();

    let mut rec = Recorder::default();
    let before = spans::counters();
    let t = Instant::now();
    let traced = pass(flow, &jobs, &mut rec, &mut clock);
    let traced_s = t.elapsed().as_secs_f64();
    let after = spans::counters();

    let mut run = Run::new(2 * jobs.len() as u64, plain.failed + traced.failed);
    run.note(format!(
        "jobs={} untraced_s={untraced:.3} traced_s={traced_s:.3}",
        jobs.len()
    ));
    let map_ms = rec.mean_ms("mapper.design");
    let mut values = spans::counter_metrics(&spans::delta(&before, &after));
    values.extend([
        ("usecase.parse_ms", rec.mean_ms("usecase.parse")),
        ("mapper.map_ms", map_ms),
        ("verify.ms", rec.mean_ms("verify")),
        // The displacement call minus the greedy call on the same SoCs.
        (
            "refine.ms",
            match flow {
                Flow::Design => 0.0,
                Flow::Refine => rec.mean_ms("refine.displacement") - map_ms,
            },
        ),
        ("refine.evictions", traced.evictions as f64),
        ("trace.overhead", traced_s / untraced),
    ]);
    (run, rec, values)
}
