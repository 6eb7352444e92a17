//! Argument and output helpers of the `nocmap_cli` binary.
//!
//! Hand-rolled option scanning (no external argument parser in this
//! offline workspace), with tests. Every helper removes the options it
//! consumed from `args`, so whatever remains is positional. The binary
//! prints through [`out!`](crate::out) and [`outln!`](crate::outln), so
//! a reader that stops early (`nocmap_cli … | head`) ends it quietly.

use crate::FlowError;

/// Pulls `--name VALUE` out of `args`, parsing VALUE as `u64`.
///
/// # Errors
///
/// [`FlowError::Usage`] when the value is missing or not an integer.
pub fn take_opt(args: &mut Vec<String>, name: &str) -> Result<Option<u64>, FlowError> {
    match take_string(args, name)? {
        Some(value) => value
            .parse::<u64>()
            .map(Some)
            .map_err(|_| FlowError::Usage(format!("invalid {name} '{value}'"))),
        None => Ok(None),
    }
}

/// Pulls `--name VALUE` out of `args`, parsing VALUE into any integer
/// type and substituting `default` when the option is absent — the
/// typed form `nocmap_cli serve --port/--batch/--budget` uses (`u16`
/// ports, `usize` batch sizes, `u64` budgets) without per-site casts.
///
/// # Errors
///
/// [`FlowError::Usage`] when the value is missing, not an integer, or
/// out of range for `T`.
pub fn take_num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, FlowError> {
    match take_string(args, name)? {
        Some(value) => value
            .parse::<T>()
            .map_err(|_| FlowError::Usage(format!("invalid {name} '{value}'"))),
        None => Ok(default),
    }
}

/// Removes the bare flag `--name` from `args`, reporting whether it was
/// present.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == name) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Pulls `--name VALUE` out of `args` as a raw string.
///
/// # Errors
///
/// [`FlowError::Usage`] when the option is present without a value.
pub fn take_string(args: &mut Vec<String>, name: &str) -> Result<Option<String>, FlowError> {
    if let Some(pos) = args.iter().position(|a| a == name) {
        if pos + 1 >= args.len() {
            return Err(FlowError::Usage(format!("{name} needs a value")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pulls the global `--threads N` option the CLI accepts (the
/// `noc-par` worker-count pin, equivalent to `NOC_PAR_THREADS=N`).
///
/// # Errors
///
/// [`FlowError::Usage`] as for [`take_opt`].
pub fn take_threads(args: &mut Vec<String>) -> Result<Option<usize>, FlowError> {
    Ok(take_opt(args, "--threads")?.map(|n| n as usize))
}

/// A requested trace: output path plus which clock the exporters use.
///
/// Built by [`take_trace`]; the path's extension picks the exporter in
/// [`write_trace`] (`.json` → Chrome trace-event JSON, anything else →
/// the text tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRequest {
    /// Destination file.
    pub path: String,
    /// Clock mode ([`noc_obs::TraceMode::Ops`] is the deterministic
    /// default; `wall` keeps real timestamps).
    pub mode: noc_obs::TraceMode,
}

/// Pulls the global `--trace FILE [--trace-mode ops|wall]` options the
/// CLI accepts, falling back to the `NOC_TRACE` / `NOC_TRACE_MODE`
/// environment variables when the flags are absent. Returns `None`
/// when no trace was requested anywhere.
///
/// # Errors
///
/// [`FlowError::Usage`] when a value is missing, when the mode is
/// neither `ops` nor `wall`, or when `--trace-mode` is given without a
/// trace destination.
pub fn take_trace(args: &mut Vec<String>) -> Result<Option<TraceRequest>, FlowError> {
    let flag_path = take_string(args, "--trace")?;
    let flag_mode = take_string(args, "--trace-mode")?;
    let path = flag_path.or_else(|| std::env::var("NOC_TRACE").ok().filter(|s| !s.is_empty()));
    if flag_mode.is_some() && path.is_none() {
        return Err(FlowError::Usage(
            "--trace-mode needs a trace destination (--trace FILE or NOC_TRACE)".into(),
        ));
    }
    let mode_name = flag_mode.or_else(|| {
        std::env::var("NOC_TRACE_MODE")
            .ok()
            .filter(|s| !s.is_empty())
    });
    let mode = match mode_name.as_deref() {
        None | Some("ops") => noc_obs::TraceMode::Ops,
        Some("wall") => noc_obs::TraceMode::Wall,
        Some(other) => {
            return Err(FlowError::Usage(format!(
                "invalid trace mode '{other}' (expected ops|wall)"
            )))
        }
    };
    Ok(path.map(|path| TraceRequest { path, mode }))
}

/// Writes a finished trace to the requested destination: Chrome
/// trace-event JSON when the path ends in `.json`, the indented text
/// tree otherwise.
///
/// # Errors
///
/// [`FlowError::Io`] when the file cannot be written.
pub fn write_trace(request: &TraceRequest, trace: &noc_obs::Trace) -> Result<(), FlowError> {
    let rendered = if request.path.ends_with(".json") {
        trace.to_chrome_json()
    } else {
        trace.render_text()
    };
    std::fs::write(&request.path, rendered).map_err(|e| FlowError::Io {
        path: request.path.clone(),
        message: format!("cannot write trace: {e}"),
    })
}

/// Writes `args` to stdout. When the reader has closed the pipe
/// (`… | head -1`), the process exits at once with status 0 and
/// nothing on stderr; any other write error panics, as `print!` does.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`]: a closed stdout ends the process
/// quietly instead of panicking.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn take_opt_removes_pair_and_parses() {
        let mut a = args(&["design", "--freq", "650", "x.spec"]);
        assert_eq!(take_opt(&mut a, "--freq").unwrap(), Some(650));
        assert_eq!(a, args(&["design", "x.spec"]));
        // Absent option: untouched args, Ok(None).
        assert_eq!(take_opt(&mut a, "--slots").unwrap(), None);
        assert_eq!(a, args(&["design", "x.spec"]));
    }

    #[test]
    fn take_opt_rejects_missing_and_malformed_values() {
        let mut a = args(&["--freq"]);
        assert_eq!(
            take_opt(&mut a, "--freq").unwrap_err(),
            FlowError::Usage("--freq needs a value".into())
        );
        let mut a = args(&["--freq", "fast"]);
        assert_eq!(
            take_opt(&mut a, "--freq").unwrap_err(),
            FlowError::Usage("invalid --freq 'fast'".into())
        );
    }

    #[test]
    fn take_num_parses_types_and_defaults() {
        let mut a = args(&["serve", "--port", "7777", "--batch", "8"]);
        let port: u16 = take_num(&mut a, "--port", 0).unwrap();
        assert_eq!(port, 7777);
        let batch: usize = take_num(&mut a, "--batch", 4).unwrap();
        assert_eq!(batch, 8);
        // Absent option: the default, args untouched.
        let budget: u64 = take_num(&mut a, "--budget", 6).unwrap();
        assert_eq!(budget, 6);
        assert_eq!(a, args(&["serve"]));
    }

    #[test]
    fn take_num_rejects_out_of_range_and_malformed() {
        let mut a = args(&["--port", "70000"]);
        assert_eq!(
            take_num::<u16>(&mut a, "--port", 0).unwrap_err(),
            FlowError::Usage("invalid --port '70000'".into())
        );
        let mut a = args(&["--batch", "many"]);
        assert_eq!(
            take_num::<usize>(&mut a, "--batch", 4).unwrap_err(),
            FlowError::Usage("invalid --batch 'many'".into())
        );
        let mut a = args(&["--budget"]);
        assert_eq!(
            take_num::<u64>(&mut a, "--budget", 6).unwrap_err(),
            FlowError::Usage("--budget needs a value".into())
        );
    }

    #[test]
    fn take_flag_reports_and_removes() {
        let mut a = args(&["design", "--wc", "x.spec"]);
        assert!(take_flag(&mut a, "--wc"));
        assert!(!take_flag(&mut a, "--wc"));
        assert_eq!(a, args(&["design", "x.spec"]));
    }

    #[test]
    fn take_string_keeps_raw_value() {
        let mut a = args(&["--emit", "out.cfg", "rest"]);
        assert_eq!(
            take_string(&mut a, "--emit").unwrap(),
            Some("out.cfg".into())
        );
        assert_eq!(a, args(&["rest"]));
    }

    #[test]
    fn take_threads_matches_env_pin_semantics() {
        let mut a = args(&["fig6a", "--threads", "4"]);
        assert_eq!(take_threads(&mut a).unwrap(), Some(4));
        assert_eq!(a, args(&["fig6a"]));
    }

    #[test]
    fn take_trace_parses_flags_and_defaults_to_ops() {
        let mut a = args(&["flow", "--trace", "t.json", "run"]);
        let req = take_trace(&mut a).unwrap().unwrap();
        assert_eq!(req.path, "t.json");
        assert_eq!(req.mode, noc_obs::TraceMode::Ops);
        assert_eq!(a, args(&["flow", "run"]));

        let mut a = args(&["--trace", "t.txt", "--trace-mode", "wall"]);
        assert_eq!(
            take_trace(&mut a).unwrap().unwrap().mode,
            noc_obs::TraceMode::Wall
        );

        let mut a = args(&["--trace", "t", "--trace-mode", "sideways"]);
        assert!(take_trace(&mut a).is_err());
    }

    #[test]
    fn trace_mode_without_destination_is_a_usage_error() {
        // Guard: only meaningful when the env fallback is not set.
        if std::env::var("NOC_TRACE").is_ok() {
            return;
        }
        let mut a = args(&["--trace-mode", "ops"]);
        assert!(take_trace(&mut a).is_err());
    }
}
