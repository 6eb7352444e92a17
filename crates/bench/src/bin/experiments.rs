//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p noc-bench --bin experiments -- all
//! cargo run --release -p noc-bench --bin experiments -- fig6a fig7b
//! ```
//!
//! Every experiment is an `ExperimentSpec` in the `noc-flow` registry,
//! executed by the generic runner and printed by the shared renderer —
//! this binary only resolves names. Valid names: `fig6a`, `fig6b`,
//! `fig6c`, `fig7a`, `fig7b`, `fig7c`, `verify`, `ablation`, `runtime`,
//! `be_burst`, `headline`, `perf`, `frontier`, `service`, `all`.
//! `fig6b`/`fig6c`
//! accept the paper's prose 40-use-case extension with `fig6b+` /
//! `fig6c+`. `be_burst` sweeps best-effort traffic burstiness against
//! multi-hop chain contention (see `docs/SIMULATION.md`); `perf` prints
//! the hot-path op-counter table behind the `BENCH_nocmap.json`
//! trajectory (see `docs/PERFORMANCE.md`; it is excluded from `all`
//! because its wall-time cells are machine-dependent); `frontier`
//! prints the strategy-portfolio quality-vs-ops table (all cells
//! deterministic, see `docs/STRATEGIES.md`; excluded from `all` to
//! keep the legacy aggregate output stable); `service` prints the
//! online-admission blocking/reconfiguration-cost table (all cells
//! deterministic, see `docs/SERVICE.md`; also excluded from `all`).
//! The pipeline itself is documented in `docs/PIPELINE.md`.
//!
//! A global `--threads N` pins the `noc-par` worker count (same effect
//! as `NOC_PAR_THREADS=N`); every experiment produces identical numbers
//! at any setting, only wall-clock changes. The `runtime` experiment
//! additionally reports the measured 1-thread vs N-thread speedup.
//!
//! A global `--trace FILE [--trace-mode ops|wall]` (env fallback:
//! `NOC_TRACE` / `NOC_TRACE_MODE`) records a span trace of the run —
//! same semantics as `nocmap_cli` (see `docs/OBSERVABILITY.md`); the
//! status note goes to stderr so stdout stays byte-identical.

use noc_flow::cli::{take_threads, take_trace, write_trace};
use noc_flow::{out, outln, registry, render, run_spec};

fn run(name: &str) {
    let spec = match registry::find(name) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return;
        }
    };
    match run_spec(&spec) {
        Ok(output) => out!("{}", render::render(&output)),
        Err(e) => outln!("{name} failed: {e}"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = match take_threads(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let trace = match take_trace(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(req) = &trace {
        noc_obs::install(req.mode);
    }
    let run_all = move || {
        if args.is_empty() || args.iter().any(|a| a == "all") {
            for name in [
                "fig6a", "fig6b+", "fig6c+", "fig7a", "fig7b", "fig7c", "verify", "ablation",
                "runtime", "be_burst", "headline",
            ] {
                run(name);
            }
        } else {
            for name in &args {
                run(name);
            }
        }
    };
    match threads {
        Some(n) => noc_par::with_threads(n, run_all),
        None => run_all(),
    }
    if let Some(req) = &trace {
        if let Some(finished) = noc_obs::finish() {
            match write_trace(req, &finished) {
                // Stderr keeps stdout byte-identical with and without
                // a trace.
                Ok(()) => eprintln!(
                    "trace written to {} ({} spans)",
                    req.path,
                    finished.span_count()
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
