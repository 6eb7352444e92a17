//! Crash-consistency journal: a line-oriented request log the daemon
//! can rebuild its state from.
//!
//! The engine is a pure function of its request stream, so durability
//! needs no snapshot format: journal every request line verbatim
//! *before* handing it to the engine, and recovery is replaying the
//! journal through a fresh engine. A rebuilt engine answers `snapshot`
//! byte-identically to the one that wrote the journal (pinned by the
//! recovery test below), because both saw exactly the same line
//! sequence — including its pending (not yet flushed) tail.
//!
//! `shutdown` lines are never journaled: replaying one on recovery
//! would stop the rebuilt daemon before it served a request. Recovery
//! also skips any `shutdown` found in a hand-edited journal, for the
//! same reason.
//!
//! A crash in the middle of an append leaves a torn last line with no
//! `\n`. Its request was never applied, so recovery replays only
//! newline-terminated lines and cuts the torn tail off the file before
//! the journal reopens for appending: the next request starts a line
//! of its own instead of extending the fragment.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use crate::engine::{Engine, EngineConfig};
use crate::protocol::{parse_command, Command};

/// An append-only request journal (one request line per journal line).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { path, file })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `line` belongs in the journal: anything except
    /// `shutdown` (see the module docs). Unparsable lines *are*
    /// journaled — the engine's error response is part of its state
    /// (the `errors` counter), so recovery must replay them too.
    pub fn should_record(line: &str) -> bool {
        !matches!(parse_command(line), Ok(Some(Command::Shutdown)))
    }

    /// Appends one request line, with its `\n`, in one write before
    /// returning, so the daemon journals a request before applying it.
    ///
    /// The guarantee is crash-of-the-daemon, not crash-of-the-machine:
    /// the bytes are in the OS page cache when this returns (a `File`
    /// has no user-space buffer to flush), so a journaled request
    /// survives the daemon dying, but an OS crash or power loss can
    /// lose requests the kernel had not yet written to disk.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn record(&mut self, line: &str) -> std::io::Result<()> {
        if !Journal::should_record(line) {
            return Ok(());
        }
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.file.write_all(framed.as_bytes())
    }
}

/// Rebuilds an engine by replaying the journal at `path` (a missing
/// journal file yields a fresh engine). Responses are discarded — only
/// the resulting engine state matters — and `shutdown` lines are
/// skipped. Only newline-terminated lines are replayed; a torn last
/// line (a crash mid-append) is truncated off the file.
///
/// # Errors
///
/// A message for an invalid engine configuration, or a journal that
/// cannot be read, is not UTF-8, or cannot be truncated.
pub fn recover(cfg: EngineConfig, path: impl AsRef<Path>) -> Result<Engine, String> {
    let mut engine = Engine::new(cfg)?;
    let path = path.as_ref();
    if !path.exists() {
        return Ok(engine);
    }
    let err =
        |what: &str, e: &dyn std::fmt::Display| format!("{what} journal {}: {e}", path.display());
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| err("open", &e))?;
    let mut reader = BufReader::new(&file);
    let (mut complete, mut line) = (0u64, Vec::new());
    loop {
        line.clear();
        let read = reader
            .read_until(b'\n', &mut line)
            .map_err(|e| err("read", &e))?;
        if line.pop() != Some(b'\n') {
            if read > 0 {
                file.set_len(complete).map_err(|e| err("truncate", &e))?;
            }
            return Ok(engine);
        }
        complete += read as u64;
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        let line = std::str::from_utf8(&line).map_err(|e| err("read", &e))?;
        if Journal::should_record(line) {
            let _ = engine.submit_line(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::generate_trace;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nocd-journal-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn recovery_rebuilds_a_byte_identical_snapshot() {
        let path = temp_path("recover");
        let _ = std::fs::remove_file(&path);
        let cfg = EngineConfig::default();
        let mut live = Engine::new(cfg.clone()).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        let mut lines = generate_trace(37, 2006);
        // Interleave faults and a heal so the rebuilt state includes
        // the fault set and parked use-cases, plus a shutdown that the
        // journal must *not* record.
        lines.insert(20, "fault link 5 6".to_string());
        lines.insert(28, "fault ni 2".to_string());
        lines.insert(33, "heal".to_string());
        lines.push("shutdown".to_string());
        for line in &lines {
            journal.record(line).unwrap();
            if line != "shutdown" {
                let _ = live.submit_line(line);
            }
        }

        let mut rebuilt = recover(cfg, &path).unwrap();
        assert!(!rebuilt.is_shutdown(), "shutdown must not be journaled");
        assert_eq!(
            live.submit_line("snapshot"),
            rebuilt.submit_line("snapshot")
        );
        assert_eq!(live.submit_line("stats"), rebuilt.submit_line("stats"));
        assert_eq!(live.submit_line("health"), rebuilt.submit_line("health"));
        assert_eq!(live.stats(), rebuilt.stats());
        let _ = std::fs::remove_file(&path);
    }

    /// A crash can cut the journal at any byte. Recovery must replay
    /// exactly the complete lines, and the next recorded request must
    /// start a line of its own, so a second recovery sees the complete
    /// lines plus that request — never a fragment glued to it.
    #[test]
    fn torn_tails_are_dropped_at_every_byte_offset() {
        let (full, path) = (temp_path("torn-full"), temp_path("torn"));
        let _ = std::fs::remove_file(&full);
        let cfg = EngineConfig::default();
        let mut lines = generate_trace(6, 2006);
        lines.insert(3, "fault link 5 6".to_string());
        let mut journal = Journal::open(&full).unwrap();
        for line in &lines {
            journal.record(line).unwrap();
        }
        let text = std::fs::read_to_string(&full).unwrap();
        let next = "add u9 flow 4 5 100";
        let fed = |complete: &[&str]| {
            let mut engine = Engine::new(cfg.clone()).unwrap();
            for line in complete {
                let _ = engine.submit_line(line);
            }
            engine
        };
        let same = |a: &mut Engine, b: &mut Engine, cut: usize| {
            assert_eq!(
                a.submit_line("snapshot"),
                b.submit_line("snapshot"),
                "cut {cut}"
            );
            assert_eq!(a.stats(), b.stats(), "cut {cut}");
        };
        for cut in 0..=text.len() {
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            let complete: Vec<&str> = text[..text[..cut].rfind('\n').map_or(0, |i| i + 1)]
                .lines()
                .collect();
            same(
                &mut recover(cfg.clone(), &path).unwrap(),
                &mut fed(&complete),
                cut,
            );
            Journal::open(&path).unwrap().record(next).unwrap();
            let mut again: Vec<&str> = complete.clone();
            again.push(next);
            same(
                &mut recover(cfg.clone(), &path).unwrap(),
                &mut fed(&again),
                cut,
            );
        }
        let _ = std::fs::remove_file(&full);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_recovers_to_a_fresh_engine() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let rebuilt = recover(EngineConfig::default(), &path).unwrap();
        assert_eq!(rebuilt.use_case_count(), 0);
        assert_eq!(rebuilt.stats().requests, 0);
    }

    #[test]
    fn journal_appends_across_reopens() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("add u0 flow 0 1 100").unwrap();
        }
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("add u1 flow 2 3 100").unwrap();
            j.record("shutdown").unwrap(); // filtered
            assert_eq!(j.path(), path.as_path());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "add u0 flow 0 1 100\nadd u1 flow 2 3 100\n");
        let mut rebuilt = recover(EngineConfig::default(), &path).unwrap();
        let _ = rebuilt.submit_line("flush");
        assert_eq!(rebuilt.use_case_count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
