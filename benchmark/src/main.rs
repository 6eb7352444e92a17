//! `nocbench`: end-to-end and per-layer benchmark of the NoC mapping
//! stack. See `NOTES.md` beside this crate.
//!
//! ```text
//! nocbench --workload <design|refine|nocd-large|nocd-small|all>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Run from the
//! repository root.

mod clock;
mod gen;
mod nocd;
mod offline;
mod report;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use offline::Flow;
use report::{Metric, Run};

const WORKLOADS: [&str; 4] = ["design", "refine", "nocd-large", "nocd-small"];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("usecase.parse_ms", "ms"),
    ("mapper.map_ms", "ms"),
    ("mapper.full_maps", "count"),
    ("path.queries", "count"),
    ("path.pops", "count"),
    ("path.pops_per_query", "ratio"),
    ("path.scratch_allocs", "count"),
    ("tdma.conflict_word_tests", "count"),
    ("verify.ms", "ms"),
    ("refine.ms", "ms"),
    ("refine.evictions", "count"),
    ("reroute.groups_rerouted", "count"),
    ("reroute.reuse_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("admit.admissions", "count"),
    ("admit.rejections", "count"),
    ("admit.evictions", "count"),
    ("admit.pops_per_admission", "ratio"),
    ("engine.flush_ms", "ms"),
    ("engine.ack_us", "us"),
    ("engine.flushes", "count"),
    ("engine.live_use_cases", "count"),
    ("heal.attempts", "count"),
    ("heal.reroutes", "count"),
    ("heal.evictions", "count"),
    ("heal.ms", "ms"),
    ("protocol.parse_us", "us"),
    ("net.rtt_us", "us"),
    ("nocd.blocking_ratio", "ratio"),
    ("nocd.evictions", "count"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let num = |k: &str| -> Result<u64, String> {
        kv.get(k)
            .ok_or_else(|| format!("--{k} is required"))?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = kv
        .get("workload")
        .cloned()
        .ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds = num("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".to_string());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace: match kv.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
    })
}

/// Fills the canonical per-layer list from `values`.
fn per_layer(values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn run_one(workload: &str, seed: u64, seconds: u64, trace: bool) -> Run {
    let flow = match workload {
        "design" => Some(Flow::Design),
        "refine" => Some(Flow::Refine),
        _ => None,
    };
    let kind = if workload == "nocd-large" {
        nocd::Kind::Large
    } else {
        nocd::Kind::Small
    };
    if !trace {
        return match flow {
            Some(f) => offline::run(f, seed, seconds),
            None => nocd::run(kind, seed, seconds),
        };
    }
    let (mut run, rec, values) = match flow {
        Some(f) => offline::run_traced(f, seed, seconds),
        None => nocd::run_traced(kind, seed, seconds),
    };
    run.metrics = per_layer(&values);
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{seed}.spans.tsv"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_tsv())) {
        Ok(()) => run.note(format!("spans written to {}", path.display())),
        Err(e) => run.note(format!("spans not written: {e}")),
    }
    run
}

fn print(run: &Run) {
    for n in &run.notes {
        println!("{n}");
    }
    for m in &run.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Runs every workload, each in a process of its own (peak RSS is per
/// process), and prints a combined result.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all = Run::default();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let Ok(out) = out.map_err(|e| eprintln!("{w}: {e}")) else {
            return ExitCode::FAILURE;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        println!("== {w}");
        print!("{text}");
        let Some(last) = text.lines().last().filter(|_| out.status.success()) else {
            eprintln!("{w} failed: {}", String::from_utf8_lossy(&out.stderr));
            return ExitCode::FAILURE;
        };
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split([',', '}']).next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        all.attempted += field("attempted");
        all.failed += field("failed");
    }
    println!("{}", all.json());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: nocbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Every workload runs single-threaded inside the mapper: width 2 on
    // a 2-vCPU host gained little and spread five times wider.
    let width = "1";
    std::env::set_var("NOC_PAR_THREADS", width);
    println!(
        "{}",
        report::provenance(&args.workload, args.seed, args.seconds, args.trace, width)
    );
    if args.workload == "all" {
        return run_all(&args);
    }
    let run = run_one(&args.workload, args.seed, args.seconds, args.trace);
    print(&run);
    println!("{}", run.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let body = text
            .split(&format!("\"{list}\": ["))
            .nth(1)
            .expect("list present");
        let body = body.split(']').next().unwrap_or("");
        let field = |entry: &str, key: &str| -> String {
            entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .and_then(|r| r.split('"').next())
                .unwrap_or("")
                .to_string()
        };
        body.split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn runs_emit_exactly_the_declared_metrics() {
        let e2e = declared("end_to_end");
        assert_eq!(e2e.len(), 7);
        for w in ["design", "nocd-small"] {
            let run = run_one(w, 3, 1, false);
            assert_eq!(emitted(&run.metrics), e2e, "{w}");
            assert_eq!(run.failed, 0, "{w}: {:?}", run.notes);
            assert!(
                run.metrics.iter().all(|m| m.value > 0.0),
                "{w}: {:?}",
                run.metrics
            );
        }
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
