//! `nocmap-cli` — the design flow as a command-line tool.
//!
//! ```text
//! # generate a benchmark spec file
//! cargo run --release -p noc-bench --bin nocmap_cli -- gen d1 > d1.spec
//! cargo run --release -p noc-bench --bin nocmap_cli -- gen sp --use-cases 10 --seed 7 > sp.spec
//!
//! # run the design flow on a spec file
//! cargo run --release -p noc-bench --bin nocmap_cli -- design d1.spec --freq 500 --emit d1.cfg
//!
//! # run suites (registry names or spec files; see docs/PIPELINE.md)
//! cargo run --release -p noc-bench --bin nocmap_cli -- flow run specs/flow_be_burst.flow
//! cargo run --release -p noc-bench --bin nocmap_cli -- flow run fig6a fig7b
//! cargo run --release -p noc-bench --bin nocmap_cli -- flow run all
//!
//! # write one suite's record into the BENCH trajectory
//! cargo run --release -p noc-bench --bin nocmap_cli -- flow run frontier --json BENCH_nocmap.json --label pr8
//! ```
//!
//! Subcommands:
//!
//! * `gen {d1|d2|d3|d4|sp|bot} [--use-cases N] [--seed S]` — write a spec
//!   (text format of `noc_usecase::textio`) to stdout.
//! * `design SPEC [--freq MHZ] [--slots N] [--max-switches N] [--wc]
//!   [--anneal ITERxCHAINS] [--strategy greedy|displacement]
//!   [--emit FILE]` — run the design pipeline (map → \[anneal\] →
//!   verify, plus the worst-case baseline with `--wc`), print the
//!   analytic report, optionally emit the configuration artifact. The
//!   optional `--strategy` picks a mapping strategy from the
//!   `nocmap::strategy` portfolio (see `docs/STRATEGIES.md`).
//! * `flow run {FILE|NAME|all}... [--spec SOCFILE] [--json FILE
//!   [--label L]]` — execute experiment specs (registry names, or files
//!   in the `noc-flow` text format) in order via the generic runner and
//!   print each suite's table; `all` stands for the paper's suites
//!   (`noc_flow::registry::ALL`). A suite that fails prints
//!   `{name} failed: {error}` in place of its table, the rest still
//!   run, and the exit status is 1. A `flow NAME` config file instead
//!   runs its stage list on the SoC spec given with `--spec`. With
//!   `--json`, the one named suite's table is also written as a run
//!   record labelled L (default `local`) into the `BENCH_nocmap.json`
//!   trajectory at FILE, replacing a record with the same label (see
//!   `docs/PERFORMANCE.md`); the note saying so goes to stderr.
//!   `--label` without `--json` is a usage error.
//! * `flow list` — list the registered experiments.
//! * `flow show NAME` — print a registry entry as a spec file (the
//!   format `flow run` accepts).
//! * `serve [--port P] [--rows R] [--cols C] [--nis N] [--batch B]
//!   [--budget M] [--mode incremental|resolve] [--journal FILE]` — run
//!   the `nocd` online mapping daemon: a TCP line-protocol server
//!   admitting streaming use-case requests incrementally (see
//!   `docs/SERVICE.md`). With `--journal`, every request line is logged
//!   to FILE before it is applied and the engine is rebuilt from FILE
//!   on startup, so a restarted daemon resumes with the state it
//!   crashed with (see `docs/RESILIENCE.md`). Blocks until a client
//!   sends `shutdown`.
//! * `request --port P [--timeout-ms T] [--retries R] WORD...` — send
//!   one protocol line to a running daemon and print the framed
//!   response. `--timeout-ms` bounds the connect and each response
//!   read; `--retries` retries failed attempts with deterministic
//!   linear backoff.
//! * `replay [--requests N] [--seed S] [--rows R] [--cols C] [--nis N]
//!   [--batch B] [--budget M] [--mode incremental|resolve]
//!   [--transcript]` — the in-process deterministic replay: drive a
//!   seeded request trace through a fresh engine (no sockets), print
//!   the final admission report, and (with `--transcript`) the full
//!   request/response transcript — byte-identical at any `--threads`
//!   setting.
//!
//! All subcommands accept a global `--threads N` to pin the `noc-par`
//! worker count (equivalent to `NOC_PAR_THREADS=N`; results are
//! identical at any setting, only wall-clock changes). `design` reports
//! its wall-clock and thread count.
//!
//! All subcommands also accept a global `--trace FILE [--trace-mode
//! ops|wall]` (env fallback: `NOC_TRACE` / `NOC_TRACE_MODE`) recording
//! a span trace of the run: Chrome trace-event JSON when FILE ends in
//! `.json`, an indented text tree otherwise. The default `ops` mode
//! timestamps spans with the deterministic op clock, so the trace is
//! byte-identical at any `--threads` setting; `wall` keeps real
//! timestamps. See `docs/OBSERVABILITY.md`. The status note goes to
//! stderr, so stdout stays byte-identical with and without a trace.

use std::process::ExitCode;

use noc_benchgen::{BottleneckConfig, SocDesign, SpreadConfig};
use noc_flow::cli::{
    take_flag, take_num, take_opt, take_string, take_threads, take_trace, write_trace,
};
use noc_flow::config::{experiment_to_text, spec_from_text, FlowConfig, SpecFile, StageConfig};
use noc_flow::render::render;
use noc_flow::{out, outln, perf_json, registry, run_spec, ExperimentSpec, FlowError};
use noc_usecase::spec::SocSpec;
use noc_usecase::UseCaseGroups;
use nocmap::anneal::AnnealConfig;
use nocmap::emit::emit_text;
use nocmap::report::SolutionReport;
use nocmap::strategy::StrategyKind;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  nocmap_cli gen {{d1|d2|d3|d4|sp|bot}} [--use-cases N] [--seed S]\n  \
         nocmap_cli design SPEC [--freq MHZ] [--slots N] [--max-switches N] [--wc] \
         [--anneal ITERxCHAINS] [--strategy greedy|displacement] [--emit FILE]\n  \
         nocmap_cli flow {{run FILE|NAME|all... [--spec SOCFILE] [--json FILE [--label L]] \
         | list | show NAME}}\n  \
         nocmap_cli serve [--port P] [--rows R] [--cols C] [--nis N] [--batch B] \
         [--budget M] [--mode incremental|resolve] [--journal FILE]\n  \
         nocmap_cli request --port P [--timeout-ms T] [--retries R] WORD...\n  \
         nocmap_cli replay [--requests N] [--seed S] [--rows R] [--cols C] [--nis N] \
         [--batch B] [--budget M] [--mode incremental|resolve] [--transcript]\n  \
         (global: --threads N — pin the noc-par worker count;\n  \
          --trace FILE [--trace-mode ops|wall] — record a span trace)"
    );
    ExitCode::FAILURE
}

fn read_soc(path: &str) -> Result<SocSpec, FlowError> {
    let text = std::fs::read_to_string(path).map_err(|e| FlowError::Io {
        path: path.to_string(),
        message: format!("cannot read: {e}"),
    })?;
    noc_usecase::from_text(&text).map_err(|e| FlowError::Parse {
        line: 0,
        message: format!("{path}: {e}"),
    })
}

fn cmd_gen(mut args: Vec<String>) -> Result<(), FlowError> {
    let use_cases = take_opt(&mut args, "--use-cases")?.unwrap_or(5) as usize;
    let seed = take_opt(&mut args, "--seed")?.unwrap_or(2006);
    let which = args
        .first()
        .ok_or_else(|| FlowError::Usage("gen needs a benchmark kind".into()))?
        .as_str();
    let soc: SocSpec = match which {
        "d1" => SocDesign::D1.generate(),
        "d2" => SocDesign::D2.generate(),
        "d3" => SocDesign::D3.generate(),
        "d4" => SocDesign::D4.generate(),
        "sp" => SpreadConfig::paper(use_cases).generate(seed),
        "bot" => BottleneckConfig::paper(use_cases).generate(seed),
        other => return Err(FlowError::Usage(format!("unknown benchmark '{other}'"))),
    };
    out!("{}", noc_usecase::to_text(&soc));
    Ok(())
}

fn cmd_design(mut args: Vec<String>) -> Result<(), FlowError> {
    let freq = take_opt(&mut args, "--freq")?.unwrap_or(500);
    let slots = take_opt(&mut args, "--slots")?.unwrap_or(128) as usize;
    let max_switches = take_opt(&mut args, "--max-switches")?.unwrap_or(400) as usize;
    let compare_wc = take_flag(&mut args, "--wc");
    let anneal = take_string(&mut args, "--anneal")?;
    let strategy = match take_string(&mut args, "--strategy")? {
        Some(tok) => StrategyKind::parse(&tok).ok_or_else(|| {
            FlowError::Usage(format!(
                "invalid --strategy '{tok}' (expected greedy|displacement)"
            ))
        })?,
        None => StrategyKind::Greedy,
    };
    let emit_path = take_string(&mut args, "--emit")?;
    let spec_path = args
        .first()
        .ok_or_else(|| FlowError::Usage("design needs a spec file".into()))?;

    let soc = read_soc(spec_path)?;
    outln!(
        "loaded '{}': {} cores, {} use-cases, {} flows",
        soc.name(),
        soc.core_count(),
        soc.use_case_count(),
        soc.total_flow_count()
    );

    // The whole subcommand is one FlowConfig: map → [anneal] → verify,
    // plus the worst-case baseline when requested.
    let mut config = FlowConfig {
        name: "design".to_string(),
        slots,
        freq_mhz: freq,
        max_switches,
        ..FlowConfig::design_defaults()
    };
    config.stages = vec![StageConfig::Map { strategy }];
    if let Some(spec) = &anneal {
        let (iterations, chains) = spec
            .split_once('x')
            .and_then(|(i, c)| Some((i.parse().ok()?, c.parse().ok()?)))
            .ok_or_else(|| {
                FlowError::Usage(format!("invalid --anneal '{spec}' (expected ITERxCHAINS)"))
            })?;
        config.stages.push(StageConfig::Anneal(AnnealConfig {
            iterations,
            chains,
            ..Default::default()
        }));
    }
    config.stages.push(StageConfig::Verify);
    if compare_wc {
        config.stages.push(StageConfig::WorstCase);
    }

    let groups = UseCaseGroups::singletons(soc.use_case_count());
    let t0 = std::time::Instant::now();
    let ctx = config.run(&soc, &groups)?;
    let elapsed = t0.elapsed();
    let solution = ctx.solution()?;

    outln!(
        "designed in {elapsed:.2?} ({} noc-par worker{})",
        noc_par::current_threads(),
        if noc_par::current_threads() == 1 {
            ""
        } else {
            "s"
        }
    );
    outln!("{}", SolutionReport::analyze(solution));

    if compare_wc {
        match ctx.wc.as_ref().expect("worst-case stage ran") {
            Ok(wc) => outln!(
                "worst-case baseline: {} switches ({}x ours)",
                wc.switch_count(),
                wc.switch_count() as f64 / solution.switch_count() as f64
            ),
            Err(e) => outln!("worst-case baseline: infeasible ({e})"),
        }
    }

    if let Some(path) = emit_path {
        let artifact = emit_text(solution, &soc, &groups);
        std::fs::write(&path, &artifact).map_err(|e| FlowError::Io {
            path: path.clone(),
            message: format!("cannot write: {e}"),
        })?;
        outln!(
            "configuration artifact written to {path} ({} bytes)",
            artifact.len()
        );
    }
    Ok(())
}

/// Runs a flow config on the SoC spec at `soc_path` and prints the
/// stages it ran, the analytic report, and summaries of whatever
/// artifacts the stages produced.
fn run_config(config: &FlowConfig, soc_path: &str) -> Result<(), FlowError> {
    let soc = read_soc(soc_path)?;
    let groups = UseCaseGroups::singletons(soc.use_case_count());
    let ctx = config.run(&soc, &groups)?;
    let names: Vec<&str> = config.stages.iter().map(StageConfig::name).collect();
    outln!("flow: {}", names.join(" -> "));
    let solution = ctx.solution()?;
    outln!("{}", SolutionReport::analyze(solution));
    if let Some(wc) = &ctx.wc {
        match wc {
            Ok(wc) => outln!(
                "worst-case baseline: {} switches ({}x ours)",
                wc.switch_count(),
                wc.switch_count() as f64 / solution.switch_count() as f64
            ),
            Err(e) => outln!("worst-case baseline: infeasible ({e})"),
        }
    }
    if let Some(remapped) = &ctx.remapped {
        let moved: usize = remapped.moved.iter().map(Vec::len).sum();
        outln!("remap: {moved} core relocation(s) across groups");
    }
    if !ctx.sim_reports.is_empty() {
        let contention: u64 = ctx
            .sim_reports
            .iter()
            .map(|r| r.contention_violations)
            .sum();
        let late: u64 = ctx.sim_reports.iter().map(|r| r.latency_violations).sum();
        let delivered = ctx.sim_reports.iter().all(|r| r.all_flows_delivered());
        outln!(
            "simulated {} use-case(s): contention {contention}, late words {late}, delivered {}",
            ctx.sim_reports.len(),
            if delivered { "yes" } else { "NO" }
        );
    }
    Ok(())
}

fn cmd_flow(mut args: Vec<String>) -> Result<(), FlowError> {
    let soc_path = take_string(&mut args, "--spec")?;
    let sub = args
        .first()
        .cloned()
        .ok_or_else(|| FlowError::Usage("flow needs a subcommand (run|list|show)".into()))?;
    match sub.as_str() {
        "list" => {
            for spec in registry::registry() {
                outln!("{:<10} {}", spec.name, spec.title);
            }
            Ok(())
        }
        "show" => {
            let name = args
                .get(1)
                .ok_or_else(|| FlowError::Usage("flow show needs an experiment name".into()))?;
            out!("{}", experiment_to_text(&registry::find(name)?));
            Ok(())
        }
        "run" => {
            let json = take_string(&mut args, "--json")?;
            let label = take_string(&mut args, "--label")?;
            if label.is_some() && json.is_none() {
                return Err(FlowError::Usage(
                    "--label names a record: give --json FILE too".into(),
                ));
            }
            let label = label.unwrap_or_else(|| "local".into());
            let mut targets = Vec::new();
            for target in &args[1..] {
                match target.as_str() {
                    "all" => targets.extend(registry::ALL.map(String::from)),
                    _ => targets.push(target.clone()),
                }
            }
            if targets.is_empty() {
                return Err(FlowError::Usage(
                    "flow run needs a file or experiment name".into(),
                ));
            }
            if json.is_some() && targets.len() != 1 {
                return Err(FlowError::Usage(
                    "--json writes one suite's record: name exactly one suite".into(),
                ));
            }
            // Resolve every target before running any, so a typo in the
            // last name fails at once.
            let files = targets
                .iter()
                .map(|t| load_target(t, soc_path.is_some(), json.is_some()))
                .collect::<Result<Vec<_>, _>>()?;
            let mut first_error = None;
            for (target, file) in targets.iter().zip(files) {
                let ran = match file {
                    SpecFile::Experiment(spec) => run_suite(&spec, json.as_deref(), &label),
                    SpecFile::Flow(config) => {
                        run_config(&config, soc_path.as_deref().unwrap_or_default())
                    }
                };
                if let Err(e) = ran {
                    outln!("{target} failed: {e}");
                    first_error.get_or_insert(e);
                }
            }
            first_error.map_or(Ok(()), Err)
        }
        other => Err(FlowError::Usage(format!(
            "unknown flow subcommand '{other}'"
        ))),
    }
}

/// Resolves one `flow run` target: an existing file (noc-flow text
/// format) wins over a registry name of the same spelling, so a local
/// spec can never be shadowed by a built-in experiment. `--spec` must
/// be given exactly for `flow NAME` config documents, and `--json`
/// only records experiments.
fn load_target(target: &str, soc_given: bool, json: bool) -> Result<SpecFile, FlowError> {
    let file = if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target).map_err(|e| FlowError::Io {
            path: target.to_string(),
            message: format!("cannot read: {e}"),
        })?;
        spec_from_text(&text)?
    } else {
        SpecFile::Experiment(registry::find(target).map_err(|_| {
            FlowError::Usage(format!(
                "'{target}' is neither a spec file nor a registered experiment (see 'flow list')"
            ))
        })?)
    };
    match (&file, soc_given) {
        (SpecFile::Experiment(_), true) => Err(FlowError::Usage(
            "--spec only applies to 'flow NAME' config documents; an experiment spec \
             declares its own benchmarks"
                .into(),
        )),
        (SpecFile::Flow(_), false) => Err(FlowError::Usage(
            "running a flow config needs --spec SOCFILE (the design input)".into(),
        )),
        (SpecFile::Flow(_), true) if json => Err(FlowError::Usage(
            "--json records an experiment's table, not a flow config run".into(),
        )),
        _ => Ok(file),
    }
}

/// Runs one experiment and prints its table; with `json`, also writes
/// the table as the run record `label` into the trajectory at that
/// path, and says on stderr whether it replaced the record with that
/// label or was appended.
fn run_suite(spec: &ExperimentSpec, json: Option<&str>, label: &str) -> Result<(), FlowError> {
    let table = run_spec(spec)?;
    out!("{}", render(&table));
    let Some(path) = json else {
        return Ok(());
    };
    let suite = &spec.name;
    let record = perf_json::record(label, suite, noc_par::current_threads(), &table);
    let written =
        perf_json::append_run(std::path::Path::new(path), &record).map_err(|e| FlowError::Io {
            path: path.to_string(),
            message: format!("cannot write trajectory: {e}"),
        })?;
    eprintln!("{suite} record '{label}' {written} {path}");
    Ok(())
}

/// Consumes the shared engine-configuration options (`serve` and
/// `replay` accept the same fabric/policy knobs over
/// [`noc_service::EngineConfig::default`]).
fn take_engine_config(args: &mut Vec<String>) -> Result<noc_service::EngineConfig, FlowError> {
    let defaults = noc_service::EngineConfig::default();
    let mode = match take_string(args, "--mode")? {
        Some(tok) => noc_service::AdmitMode::parse(&tok).ok_or_else(|| {
            FlowError::Usage(format!(
                "invalid --mode '{tok}' (expected incremental|resolve)"
            ))
        })?,
        None => defaults.mode,
    };
    Ok(noc_service::EngineConfig {
        rows: take_num(args, "--rows", defaults.rows)?,
        cols: take_num(args, "--cols", defaults.cols)?,
        nis_per_switch: take_num(args, "--nis", defaults.nis_per_switch)?,
        batch: take_num(args, "--batch", defaults.batch)?,
        budget: take_num(args, "--budget", defaults.budget)?,
        mode,
        ..defaults
    })
}

fn cmd_serve(mut args: Vec<String>) -> Result<(), FlowError> {
    let port: u16 = take_num(&mut args, "--port", 0)?;
    let journal = take_string(&mut args, "--journal")?;
    let cfg = take_engine_config(&mut args)?;
    let io_err = |e: std::io::Error| FlowError::Io {
        path: format!("port {port}"),
        message: format!("daemon failed: {e}"),
    };
    let server = match &journal {
        Some(path) => {
            let server = noc_service::Server::bind_with_journal(cfg, port, path).map_err(io_err)?;
            eprintln!("nocd journaling to {path} (recovered on startup)");
            server
        }
        None => noc_service::Server::bind(cfg, port).map_err(io_err)?,
    };
    // Status on stderr so scripted stdout parsing stays clean.
    eprintln!(
        "nocd listening on 127.0.0.1:{} (send 'shutdown' to stop)",
        server.port().map_err(io_err)?
    );
    server.run().map_err(io_err)
}

fn cmd_request(mut args: Vec<String>) -> Result<(), FlowError> {
    let port: u16 = take_num(&mut args, "--port", 0)?;
    let timeout_ms: Option<u64> = take_opt(&mut args, "--timeout-ms")?;
    let retries: u32 = take_num(&mut args, "--retries", 0)?;
    if port == 0 {
        return Err(FlowError::Usage("request needs --port P".into()));
    }
    if args.is_empty() {
        return Err(FlowError::Usage(
            "request needs a protocol line (e.g. request --port P add u0 flow 0 1 200)".into(),
        ));
    }
    let line = args.join(" ");
    let policy = noc_service::RetryPolicy {
        timeout: timeout_ms.map(std::time::Duration::from_millis),
        retries,
        ..noc_service::RetryPolicy::default()
    };
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let response = noc_service::request(addr, &line, &policy).map_err(|e| FlowError::Io {
        path: format!("127.0.0.1:{port}"),
        message: format!("request failed: {e}"),
    })?;
    out!("{response}");
    Ok(())
}

fn cmd_replay(mut args: Vec<String>) -> Result<(), FlowError> {
    let requests: u64 = take_num(&mut args, "--requests", 200)?;
    let seed: u64 = take_num(&mut args, "--seed", 2006)?;
    let transcript = take_flag(&mut args, "--transcript");
    let cfg = take_engine_config(&mut args)?;
    let mode = cfg.mode;
    let replay = noc_service::replay(cfg, requests, seed).map_err(|m| FlowError::Parse {
        line: 0,
        message: m,
    })?;
    if transcript {
        out!("{}", replay.transcript);
    }
    let s = replay.stats;
    outln!(
        "replayed {requests} requests (seed {seed}, mode {}): admitted={} rejected={} \
         blocking={:.4} displaced={} evictions={} flushes={}",
        mode.token(),
        s.admitted,
        s.rejected,
        s.blocking(),
        s.displaced,
        s.evictions,
        s.flushes
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = match take_threads(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match take_trace(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    if let Some(req) = &trace {
        noc_obs::install(req.mode);
    }
    let run = || match cmd.as_str() {
        "gen" => Some(cmd_gen(args)),
        "design" => Some(cmd_design(args)),
        "flow" => Some(cmd_flow(args)),
        "serve" => Some(cmd_serve(args)),
        "request" => Some(cmd_request(args)),
        "replay" => Some(cmd_replay(args)),
        _ => None,
    };
    let result = match threads {
        Some(n) => noc_par::with_threads(n, run),
        None => run(),
    };
    if let Some(req) = &trace {
        if let Some(finished) = noc_obs::finish() {
            match write_trace(req, &finished) {
                // Status on stderr: stdout stays byte-identical with
                // and without a trace.
                Ok(()) => eprintln!(
                    "trace written to {} ({} spans)",
                    req.path,
                    finished.span_count()
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    match result {
        None => usage(),
        Some(Ok(())) => ExitCode::SUCCESS,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
