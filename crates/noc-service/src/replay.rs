//! In-process deterministic replay: a seeded trace through the real
//! engine, no sockets.
//!
//! Goldens and CI never depend on networking: the transcript below is
//! produced by feeding [`generate_trace`] straight into
//! [`Engine::submit_line`], appending `stats` / `snapshot` / `shutdown`
//! so the final admission report (and every queued mutation) is part of
//! the compared bytes. The socket daemon ([`crate::net`]) is a thin
//! transport over the same `submit_line`, which is what the loopback
//! test pins.

use crate::engine::{Engine, EngineConfig, ServiceStats};
use crate::trace::generate_trace;

/// A finished replay: the full request/response transcript plus the
/// engine's final metrics.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Every request line (prefixed `> `) followed by its framed
    /// response, ending with the `stats` / `snapshot` / `shutdown`
    /// epilogue — the byte-compared determinism artifact.
    pub transcript: String,
    /// Final cumulative metrics.
    pub stats: ServiceStats,
}

/// Replays `requests` seeded requests through a fresh engine.
///
/// Pure: the transcript is a function of `(cfg, requests, seed)` only —
/// byte-identical at any `noc-par` thread count.
///
/// # Errors
///
/// A message when the engine configuration is invalid.
pub fn replay(cfg: EngineConfig, requests: u64, seed: u64) -> Result<Replay, String> {
    let lines = generate_trace(requests, seed);
    replay_lines(cfg, &lines)
}

/// Replays an explicit request-line sequence through a fresh engine,
/// appending the `stats` / `snapshot` / `shutdown` epilogue. This is
/// the primitive behind [`replay`] and the resilience sweeps (which
/// weave `fault` / `heal` lines into a seeded trace via
/// [`crate::trace::generate_fault_trace`]).
///
/// # Errors
///
/// A message when the engine configuration is invalid.
pub fn replay_lines(cfg: EngineConfig, lines: &[String]) -> Result<Replay, String> {
    let mut engine = Engine::new(cfg)?;
    let mut transcript = String::new();
    let mut drive = |engine: &mut Engine, line: &str| {
        transcript.push_str("> ");
        transcript.push_str(line);
        transcript.push('\n');
        transcript.push_str(&engine.submit_line(line));
    };
    for line in lines {
        drive(&mut engine, line);
    }
    for line in ["stats", "snapshot", "shutdown"] {
        drive(&mut engine, line);
    }
    let stats = *engine.stats();
    Ok(Replay { transcript, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic_and_reports() {
        let cfg = EngineConfig::default();
        let a = replay(cfg.clone(), 40, 2006).unwrap();
        let b = replay(cfg, 40, 2006).unwrap();
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.admitted > 0, "{:?}", a.stats);
        assert!(a.transcript.ends_with("ok shutdown\n.\n"));
        assert!(a.transcript.contains("blocking="));
    }
}
