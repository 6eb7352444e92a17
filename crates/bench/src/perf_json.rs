//! `BENCH_nocmap.json` — the machine-readable perf trajectory.
//!
//! Every run of the `perf` suite can add one **run record** to a JSON
//! file at the repo root, so the committed file's history (and its
//! growing `trajectory` array) is a real perf trajectory future PRs
//! extend instead of optimising blind. One record per label: re-running
//! with an existing label replaces that record in place rather than
//! appending a duplicate. The document is emitted (and spliced) by
//! hand; the layout is fixed — two header lines, one line per run
//! record, two footer lines — which is what makes [`append_run`] a safe
//! textual splice. `docs/PERFORMANCE.md` documents the schema.
//!
//! Determinism: within a run record, every `*_ops` field and `switches`
//! is identical at any `noc-par` thread count; only the `*_ms` fields
//! are machine- and load-dependent. CI regenerates the record at 1 and
//! 4 workers and diffs the deterministic fields
//! (`tools/check_bench_json.py`).

use noc_flow::runner::{FrontierPoint, PerfPoint, PerfSnapshot, ResiliencePoint, ServicePoint};

/// Schema version of the document (bump when fields change meaning).
pub const SCHEMA_VERSION: u32 = 1;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn ops_json(ops: &PerfSnapshot) -> String {
    format!(
        "{{\"path_queries\":{},\"dijkstra_pops\":{},\"scratch_allocs\":{},\
         \"group_routes\":{},\"full_maps\":{},\"groups_rerouted\":{},\
         \"groups_reused\":{},\"anneal_moves\":{},\"anneal_accepts\":{},\
         \"route_cache_hits\":{},\"route_cache_misses\":{},\
         \"conflict_word_tests\":{},\"legacy_slot_probes\":{},\
         \"trace_spans\":{},\"admissions\":{},\"rejections\":{},\
         \"displacement_evictions\":{},\"batch_flushes\":{},\
         \"faults_injected\":{},\"heals_attempted\":{},\
         \"heal_reroutes\":{},\"heal_evictions\":{}}}",
        ops.path_queries,
        ops.dijkstra_pops,
        ops.scratch_allocs,
        ops.group_routes,
        ops.full_maps,
        ops.groups_rerouted,
        ops.groups_reused,
        ops.anneal_moves,
        ops.anneal_accepts,
        ops.route_cache_hits,
        ops.route_cache_misses,
        ops.conflict_word_tests,
        ops.legacy_slot_probes,
        ops.trace_spans,
        ops.admissions,
        ops.rejections,
        ops.displacement_evictions,
        ops.batch_flushes,
        ops.faults_injected,
        ops.heals_attempted,
        ops.heal_reroutes,
        ops.heal_evictions,
    )
}

fn ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// One run record as a single JSON line: the run label, the worker
/// count, and one suite object per [`PerfPoint`].
pub fn run_record(label: &str, threads: usize, points: &[PerfPoint]) -> String {
    let suites: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"label\":\"{}\",\"switches\":{},\"map_ms\":{},\"anneal_ms\":{},\
                 \"trace_ms\":{},\"map_ops\":{},\"anneal_ops\":{}}}",
                escape(&p.label),
                p.switches.map_or("null".to_string(), |s| s.to_string()),
                ms(p.map_wall),
                ms(p.anneal_wall),
                ms(p.trace_wall),
                ops_json(&p.map_ops),
                ops_json(&p.anneal_ops),
            )
        })
        .collect();
    format!(
        "{{\"label\":\"{}\",\"threads\":{},\"suites\":[{}]}}",
        escape(label),
        threads,
        suites.join(",")
    )
}

/// One frontier run record as a single JSON line: the run label, the
/// worker count, and one row object per [`FrontierPoint`] (strategy
/// portfolio quality vs deterministic ops — see `docs/STRATEGIES.md`).
/// Unlike [`run_record`], **every** field here is deterministic: the
/// same record regenerated at any `noc-par` worker count is
/// byte-identical, which is what CI diffs.
pub fn frontier_record(label: &str, threads: usize, points: &[FrontierPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"bench\":\"{}\",\"strategy\":\"{}\",\"switches\":{},\
                 \"cost\":{},\"evictions\":{},\"ops\":{}}}",
                escape(&p.bench),
                p.strategy.token(),
                p.switches,
                p.cost,
                p.evictions,
                ops_json(&p.ops),
            )
        })
        .collect();
    format!(
        "{{\"label\":\"{}\",\"threads\":{},\"frontier\":[{}]}}",
        escape(label),
        threads,
        rows.join(",")
    )
}

/// One service run record as a single JSON line: the run label, the
/// worker count, and one row object per [`ServicePoint`] (online
/// admission outcome + reconfiguration ops per fabric × mode — see
/// `docs/SERVICE.md`). Like [`frontier_record`], **every** field is
/// deterministic: the seeded request trace replays byte-identically at
/// any `noc-par` worker count, which is what CI diffs. The
/// incremental-vs-resolve contrast lives in the `ops` object
/// (`group_routes` / `full_maps`): resolve re-maps every live use-case
/// at each reconfiguration point, incremental routes only the admitted
/// group plus displacement-affected neighbours.
pub fn service_record(label: &str, threads: usize, points: &[ServicePoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"fabric\":\"{}\",\"mode\":\"{}\",\"admitted\":{},\
                 \"rejected\":{},\"displaced\":{},\"evictions\":{},\
                 \"flushes\":{},\"ops\":{}}}",
                escape(&p.fabric),
                p.mode.token(),
                p.stats.admitted,
                p.stats.rejected,
                p.stats.displaced,
                p.stats.evictions,
                p.stats.flushes,
                ops_json(&p.ops),
            )
        })
        .collect();
    format!(
        "{{\"label\":\"{}\",\"threads\":{},\"service\":[{}]}}",
        escape(label),
        threads,
        rows.join(",")
    )
}

/// One resilience run record as a single JSON line: the run label, the
/// worker count, and one row object per [`ResiliencePoint`]
/// (fault-injection outcome + self-healing repair ops per fabric — see
/// `docs/RESILIENCE.md`). Like [`service_record`], **every** field is
/// deterministic: the fault schedule is a pure function of
/// `(config, seed)`, so the record regenerated at any `noc-par` worker
/// count is byte-identical, which is what CI diffs. The
/// repair-is-incremental claim lives in the `ops` object
/// (`heal_reroutes` / `heal_evictions` vs `full_maps`).
pub fn resilience_record(label: &str, threads: usize, points: &[ResiliencePoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"fabric\":\"{}\",\"faults\":{},\"admitted\":{},\
                 \"rejected\":{},\"links_failed\":{},\"nis_failed\":{},\
                 \"degraded\":{},\"healed\":{},\"ops\":{}}}",
                escape(&p.fabric),
                p.faults,
                p.stats.admitted,
                p.stats.rejected,
                p.stats.links_failed,
                p.stats.nis_failed,
                p.stats.degraded,
                p.stats.healed,
                ops_json(&p.ops),
            )
        })
        .collect();
    format!(
        "{{\"label\":\"{}\",\"threads\":{},\"resilience\":[{}]}}",
        escape(label),
        threads,
        rows.join(",")
    )
}

/// The fixed document footer `append_run` splices at.
const FOOTER: &str = "\n  ]\n}";

/// Renders a whole document holding exactly the given run records.
pub fn document(records: &[String]) -> String {
    let mut out = format!("{{\n  \"schema\": {SCHEMA_VERSION},\n  \"trajectory\": [\n    ");
    out.push_str(&records.join(",\n    "));
    out.push_str(FOOTER);
    out.push('\n');
    out
}

/// The `{"label":"…"` prefix of a run-record line, up to and including
/// the label's closing quote. [`escape`] backslash-escapes every quote
/// inside a label, so the first bare `","threads":` in a record is
/// always the real field boundary — the prefix is a safe textual key
/// for label equality.
fn label_key(record: &str) -> Option<&str> {
    record.find("\",\"threads\":").map(|i| &record[..=i])
}

/// Inserts `record` (a [`run_record`] line) into the trajectory file at
/// `path`, creating the document if the file does not exist. A record
/// whose label already appears in the trajectory is **replaced in
/// place** (same position, so `trajectory[-1]` comparisons stay
/// meaningful); a new label is appended. Re-running
/// `nocmap_cli perf --label L` therefore updates L's record instead of
/// accumulating duplicates.
///
/// # Errors
///
/// I/O failures, a malformed record (no label field), or a file that is
/// not a trajectory document this module wrote (the splice markers are
/// missing).
pub fn append_run(path: &std::path::Path, record: &str) -> std::io::Result<()> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let key =
        label_key(record).ok_or_else(|| bad(format!("run record has no label field: {record}")))?;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return std::fs::write(path, document(std::slice::from_ref(&record.to_string())));
        }
        Err(e) => return Err(e),
    };
    let not_doc = || {
        bad(format!(
            "{} is not a BENCH trajectory document",
            path.display()
        ))
    };
    let open = "\"trajectory\": [\n    ";
    let start = text.find(open).ok_or_else(not_doc)? + open.len();
    let end = text.rfind(FOOTER).ok_or_else(not_doc)?;
    let mut records: Vec<String> = text[start..end]
        .split(",\n    ")
        .map(str::to_string)
        .collect();
    let marker = format!("{key},");
    match records.iter().position(|r| r.starts_with(&marker)) {
        Some(i) => records[i] = record.to_string(),
        None => records.push(record.to_string()),
    }
    std::fs::write(path, document(&records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_and_append_round_trip() {
        let dir = std::env::temp_dir().join("noc_perf_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        append_run(&path, "{\"label\":\"a\",\"threads\":1,\"suites\":[]}").unwrap();
        append_run(&path, "{\"label\":\"b\",\"threads\":4,\"suites\":[]}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"label\":").count(), 2);
        assert!(text.starts_with("{\n  \"schema\": 1,\n  \"trajectory\": [\n"));
        assert!(text.ends_with("\n  ]\n}\n"));
        // Appending keeps earlier records byte-for-byte.
        assert!(text.contains("{\"label\":\"a\",\"threads\":1,\"suites\":[]}"));
    }

    #[test]
    fn rerun_replaces_record_with_same_label() {
        let dir = std::env::temp_dir().join("noc_perf_json_replace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        append_run(&path, "{\"label\":\"a\",\"threads\":1,\"suites\":[]}").unwrap();
        append_run(&path, "{\"label\":\"b\",\"threads\":1,\"suites\":[]}").unwrap();
        append_run(&path, "{\"label\":\"a\",\"threads\":4,\"suites\":[]}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"label\":\"a\"").count(), 1, "{text}");
        // Replacement happens in place: 'a' still precedes 'b'.
        assert!(
            text.find("\"label\":\"a\",\"threads\":4").unwrap()
                < text.find("\"label\":\"b\"").unwrap()
        );
        // A label that merely *prefixes* another must not match it.
        append_run(&path, "{\"label\":\"ab\",\"threads\":1,\"suites\":[]}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"label\":").count(), 3);
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("a\tb\nc"), "a\\u0009b\\u000ac");
    }
}
