//! End-to-end byte-identity tests for the `nocmap_cli` binary.
//!
//! The library-level golden tests (`tests/flow_goldens.rs` at the
//! workspace root) pin the renderer; these spawn the **actual
//! binary** so argument plumbing, registry lookup, `--threads`
//! handling, record writing and stdout wiring are covered too. Goldens
//! are the captures under `tests/goldens/`.

use std::path::Path;
use std::process::Command;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env_remove("NOC_PAR_THREADS")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn flow_run_matches_goldens() {
    let out = run(
        env!("CARGO_BIN_EXE_nocmap_cli"),
        &["flow", "run", "fig6a", "ablation", "be_burst"],
    );
    let expected = format!(
        "{}{}{}",
        golden("fig6a.txt"),
        golden("ablation.txt"),
        golden("be_burst.txt")
    );
    assert_eq!(out, expected);
}

#[test]
fn flow_run_is_identical_at_4_threads() {
    let out = run(
        env!("CARGO_BIN_EXE_nocmap_cli"),
        &["--threads", "4", "flow", "run", "fig6a", "be_burst"],
    );
    let expected = format!("{}{}", golden("fig6a.txt"), golden("be_burst.txt"));
    assert_eq!(out, expected);
}

/// Every name is resolved before any suite runs: a typo in the last
/// name fails at once, with nothing on stdout.
#[test]
fn flow_run_resolves_every_name_before_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_nocmap_cli"))
        .args(["flow", "run", "fig6a", "fig9z"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("'fig9z' is neither a spec file"),
        "{stderr}"
    );
}

/// `--label` names a `--json` record, so alone it is a usage error:
/// exit 1, nothing on stdout, and no suite runs.
#[test]
fn flow_run_refuses_a_label_without_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_nocmap_cli"))
        .args(["flow", "run", "fig6a", "--label", "t"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: --label names a record"), "{stderr}");
}

/// An argument a subcommand does not take is a usage error that names
/// it: exit 1 and nothing on stdout, before any work is done or any
/// port is bound. A binary still running after ten seconds (a `serve`
/// that ignored the argument and listens) is killed and fails the test.
#[test]
fn unknown_arguments_are_usage_errors() {
    use std::time::{Duration, Instant};

    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/figure2.spec");
    let spec = spec.to_str().unwrap();
    for (args, named) in [
        (vec!["replay", "--mode", "resolve"], "--mode"),
        (vec!["replay", "--reqests", "10"], "--reqests"),
        (vec!["design", spec, "--frq", "300"], "--frq"),
        (vec!["gen", "d1", "--seeed", "3"], "--seeed"),
        (vec!["serve", "--bogus", "1"], "--bogus"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_nocmap_cli"))
            .args(&args)
            .env_remove("NOC_PAR_THREADS")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("status").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{args:?} still running");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("binary exits");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed on stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected argument '{named}'")),
            "{args:?}: {stderr}"
        );
    }
}

/// A suite with no op snapshots and no wall-clock cells still writes a
/// record in the one shape, and the checker accepts it: alone, and
/// against the same record regenerated at 4 workers.
#[test]
fn flow_run_writes_a_checked_record_for_any_suite() {
    let dir = std::env::temp_dir().join(format!("noc_cli_record_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (one, four) = (dir.join("t1.json"), dir.join("t4.json"));
    let cli = env!("CARGO_BIN_EXE_nocmap_cli");
    for (threads, path) in [("1", &one), ("4", &four)] {
        let _ = std::fs::remove_file(path);
        let out = Command::new(cli)
            .args(["--threads", threads, "flow", "run", "fig6a", "--label", "t"])
            .arg("--json")
            .arg(path)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig6a.txt"));
        let note = String::from_utf8_lossy(&out.stderr);
        assert!(note.starts_with("fig6a record 't' appended to "), "{note}");
    }
    let record = std::fs::read_to_string(&one).unwrap();
    assert!(
        record.contains(
            "{\"label\":\"t\",\"suite\":\"fig6a\",\"threads\":1,\"rows\":[{\"bench\":\"D1\","
        ),
        "{record}"
    );
    let checker = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tools/check_bench_json.py");
    let checked = Command::new("python3")
        .arg(&checker)
        .args([&one, &four])
        .output()
        .expect("python3 runs the checker");
    assert!(
        checked.status.success(),
        "{}{}",
        String::from_utf8_lossy(&checked.stdout),
        String::from_utf8_lossy(&checked.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nocmap_cli_flow_run_executes_the_checked_in_spec() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/flow_be_burst.flow");
    let out = run(
        env!("CARGO_BIN_EXE_nocmap_cli"),
        &["flow", "run", spec.to_str().unwrap()],
    );
    assert_eq!(out, golden("be_burst.txt"));
    // Registry names work directly too.
    let by_name = run(env!("CARGO_BIN_EXE_nocmap_cli"), &["flow", "run", "fig6a"]);
    assert_eq!(by_name, golden("fig6a.txt"));
}

/// A `flow` document with every stage (displacement map, worst-case,
/// anneal, remap, verify, simulate) runs on the generated D1 spec and
/// prints the pinned report at 1 and 4 workers.
#[test]
fn nocmap_cli_flow_run_executes_every_stage_of_a_flow_document() {
    let cli = env!("CARGO_BIN_EXE_nocmap_cli");
    let dir = std::env::temp_dir().join(format!("noc_flow_every_stage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let soc = dir.join("d1.spec");
    std::fs::write(&soc, run(cli, &["gen", "d1"])).unwrap();
    let flow = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/flow_every_stage.flow");
    for threads in ["1", "4"] {
        let out = run(
            cli,
            &[
                "--threads",
                threads,
                "flow",
                "run",
                flow.to_str().unwrap(),
                "--spec",
                soc.to_str().unwrap(),
            ],
        );
        assert_eq!(out, golden("flow_every_stage.txt"), "--threads {threads}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nocmap_cli_flow_show_round_trips_through_flow_run() {
    // `flow show` output is itself a runnable spec file.
    let shown = run(env!("CARGO_BIN_EXE_nocmap_cli"), &["flow", "show", "fig6a"]);
    let dir = std::env::temp_dir().join("noc_flow_show_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig6a.flow");
    std::fs::write(&path, shown).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_nocmap_cli"),
        &["flow", "run", path.to_str().unwrap()],
    );
    assert_eq!(out, golden("fig6a.txt"));
}

/// A reader that stops early (`nocmap_cli … | head -1`) ends the binary
/// quietly: status 0 and nothing on stderr, not a broken-pipe panic.
/// The 2000-request transcript is larger than a pipe buffer, so the
/// binary is still writing when the reader goes away.
#[test]
fn nocmap_cli_exits_quietly_when_stdout_closes_early() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_nocmap_cli"))
        .args(["replay", "--requests", "2000", "--transcript"])
        .env_remove("NOC_PAR_THREADS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("one line");
    assert!(first.starts_with("> add "), "{first}");
    drop(stdout);
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success(), "exit {:?}", out.status);
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
