//! `BENCH_nocmap.json` — the machine-readable perf trajectory.
//!
//! `nocmap_cli flow run NAME --json FILE --label L` writes any suite's
//! [`Table`] as one **run record** into a JSON file at the repo root, so
//! the committed file's `trajectory` array is a perf history future
//! changes extend instead of optimising blind. One record per label:
//! re-running with an existing label replaces that record in place
//! rather than appending a duplicate. The document is emitted (and
//! spliced) by hand; the layout is fixed — two header lines, one line
//! per run record, two footer lines — which is what makes
//! [`append_run`] a safe textual splice. `docs/PERFORMANCE.md`
//! documents the shape.
//!
//! Every record has one shape, whatever the suite:
//! `{"label","suite","threads","rows"}`. A row holds its deterministic
//! cells under their column keys, each op-counter snapshot as an object
//! of [`PerfSnapshot::fields`], and its wall-clock cells apart under
//! `"wall"`. So a checker compares everything but `wall` across worker
//! counts and needs no per-suite knowledge (`tools/check_bench_json.py`).

use noc_obs::json_escape;
use nocmap::perf::PerfSnapshot;

use crate::table::{Cell, Column, Kind, Row, Table};

/// Shape version of the document (bump when the record shape changes).
pub const SCHEMA_VERSION: u32 = 2;

fn cell_json(cell: &Cell) -> String {
    match cell {
        Cell::Int(n) => n.to_string(),
        Cell::Real {
            value, decimals, ..
        } if value.is_finite() => format!("{value:.decimals$}"),
        Cell::Real { .. } | Cell::Missing(_) => "null".to_string(),
        Cell::Text(s) => format!("\"{}\"", json_escape(s)),
        Cell::Time(d) => format!("{:.3}", d.as_secs_f64() * 1e3),
    }
}

fn ops_json(ops: &PerfSnapshot) -> String {
    let fields: Vec<String> = ops
        .fields()
        .iter()
        .map(|(name, n)| format!("\"{name}\":{n}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn row_json(columns: &[Column], row: &Row) -> String {
    let (mut fields, mut wall) = (Vec::new(), Vec::new());
    for (column, cell) in columns.iter().zip(&row.cells) {
        let field = format!("\"{}\":{}", column.key, cell_json(cell));
        match column.kind {
            Kind::Deterministic => fields.push(field),
            Kind::Wall => wall.push(field),
        }
    }
    for (name, ops) in &row.ops {
        fields.push(format!("\"{name}\":{}", ops_json(ops)));
    }
    if !wall.is_empty() {
        fields.push(format!("\"wall\":{{{}}}", wall.join(",")));
    }
    format!("{{{}}}", fields.join(","))
}

/// One run record as a single JSON line: the run label, the suite's
/// name, the worker count, and one object per row of `table`.
pub fn record(label: &str, suite: &str, threads: usize, table: &Table) -> String {
    let rows: Vec<String> = table
        .rows()
        .map(|(columns, row)| row_json(columns, row))
        .collect();
    format!(
        "{{\"label\":\"{}\",\"suite\":\"{}\",\"threads\":{threads},\"rows\":[{}]}}",
        json_escape(label),
        json_escape(suite),
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
/// the label's closing quote. [`json_escape`] backslash-escapes every
/// quote inside a label, so the first bare `","suite":` in a record is
/// always the real field boundary — the prefix is a safe textual key
/// for label equality.
fn label_key(record: &str) -> Option<&str> {
    record.find("\",\"suite\":").map(|i| &record[..=i])
}

/// Where [`append_run`] put a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Written {
    /// At the end of the trajectory (a new label, or a new file).
    Appended,
    /// In place of the record with the same label.
    Replaced,
}

impl std::fmt::Display for Written {
    /// `appended to` / `replaced in`, to be followed by the file name.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Written::Appended => "appended to",
            Written::Replaced => "replaced in",
        })
    }
}

/// Inserts `record` (a [`record`] line) into the trajectory file at
/// `path`, creating the document if the file does not exist. A record
/// whose label already appears in the trajectory is **replaced in
/// place** (same position, so the trajectory's order is kept); a new
/// label is appended. Re-running `flow run NAME --json FILE --label L`
/// therefore updates L's record instead of accumulating duplicates.
/// Returns which of the two it did.
///
/// # Errors
///
/// I/O failures, a malformed record (no label field), or a file that is
/// not a trajectory document this module wrote (the splice markers are
/// missing).
pub fn append_run(path: &std::path::Path, record: &str) -> std::io::Result<Written> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let key =
        label_key(record).ok_or_else(|| bad(format!("run record has no label field: {record}")))?;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(path, document(std::slice::from_ref(&record.to_string())))?;
            return Ok(Written::Appended);
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
    let written = match records.iter().position(|r| r.starts_with(&marker)) {
        Some(i) => {
            records[i] = record.to_string();
            Written::Replaced
        }
        None => {
            records.push(record.to_string());
            Written::Appended
        }
    };
    std::fs::write(path, document(&records))?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(label: &str, threads: usize) -> String {
        record(label, "fig6a", threads, &Table::new("T", Vec::new()))
    }

    #[test]
    fn document_and_append_round_trip() {
        let dir = std::env::temp_dir().join("noc_perf_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        let a = append_run(&path, &line("a", 1)).unwrap();
        let b = append_run(&path, &line("b", 4)).unwrap();
        assert_eq!((a, b), (Written::Appended, Written::Appended));
        assert_eq!(a.to_string(), "appended to");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"label\":").count(), 2);
        assert!(text.starts_with("{\n  \"schema\": 2,\n  \"trajectory\": [\n"));
        assert!(text.ends_with("\n  ]\n}\n"));
        // Appending keeps earlier records byte-for-byte.
        assert!(text.contains("{\"label\":\"a\",\"suite\":\"fig6a\",\"threads\":1,\"rows\":[]}"));
    }

    #[test]
    fn rerun_replaces_record_with_same_label() {
        let dir = std::env::temp_dir().join("noc_perf_json_replace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        append_run(&path, &line("a", 1)).unwrap();
        append_run(&path, &line("b", 1)).unwrap();
        let again = append_run(&path, &line("a", 4)).unwrap();
        assert_eq!(again, Written::Replaced);
        assert_eq!(again.to_string(), "replaced in");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"label\":\"a\"").count(), 1, "{text}");
        // Replacement happens in place: 'a' still precedes 'b'.
        assert!(
            text.find("\"threads\":4").unwrap() < text.find("\"label\":\"b\"").unwrap(),
            "{text}"
        );
        // A label that merely *prefixes* another must not match it.
        let prefixed = append_run(&path, &line("ab", 1)).unwrap();
        assert_eq!(prefixed, Written::Appended);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"label\":").count(), 3);
    }

    #[test]
    fn labels_are_escaped() {
        assert!(line("a\"b\\c", 1).starts_with("{\"label\":\"a\\\"b\\\\c\",\"suite\":"));
        assert!(line("a\tb\nc", 1).starts_with("{\"label\":\"a\\u0009b\\u000ac\","));
    }

    #[test]
    fn rows_keep_wall_cells_and_snapshots_apart() {
        let mut t = Table::new(
            "T",
            vec![
                Column::left("bench", "bench", 8),
                Column::right("switches", "switches", 8),
                Column::wall("map", "map_ms", 10),
                Column::right("ratio", "ratio", 8),
            ],
        );
        let ops = PerfSnapshot {
            path_queries: 3,
            ..PerfSnapshot::default()
        };
        t.push_with_ops(
            vec![
                "D1".into(),
                Cell::count(None, "fail"),
                std::time::Duration::from_micros(1500).into(),
                Cell::real(0.25, 3),
            ],
            vec![("map_ops", ops)],
        );
        let rec = record("x", "perf", 4, &t);
        assert!(
            rec.starts_with(
                "{\"label\":\"x\",\"suite\":\"perf\",\"threads\":4,\"rows\":[{\"bench\":\"D1\",\
                 \"switches\":null,\"ratio\":0.250,\"map_ops\":{\"path_queries\":3,"
            ),
            "{rec}"
        );
        assert!(rec.ends_with(",\"wall\":{\"map_ms\":1.500}}]}"), "{rec}");
    }
}
