//! Seeded request-trace generation for deterministic replay.
//!
//! The generator emits a mixed `add` / `modify` / `remove` stream over
//! a shared pool of [`CORE_POOL`] cores — larger than the default
//! engine's 16 NIs, so a busy stream naturally exhausts NIs and
//! exercises admission control. Every [`FORCED_REJECT_PERIOD`]-th `add`
//! carries one flow over the link capacity of the paper's TDMA
//! operating point (2000 MB/s), forcing a deterministic capacity
//! rejection. Ids optimistically enter the live set even though the
//! engine may reject them, so the stream also produces `unknown-id`
//! error events — all deterministic under the seed.

use std::collections::BTreeMap;

use noc_topology::MeshBuilder;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::engine::EngineConfig;

/// Cores the generated use-cases draw from (> default NI count).
pub const CORE_POOL: u32 = 24;

/// Every n-th `add` carries a flow exceeding link capacity.
pub const FORCED_REJECT_PERIOD: u64 = 13;

/// Every n-th `add` is a heavy two-flow use-case (800–1200 MB/s per
/// flow) whose flows can conflict on a bottleneck link — the workload
/// that makes the engine's displacement path earn its keep.
pub const HEAVY_PERIOD: u64 = 5;

#[derive(Clone, Copy, PartialEq)]
enum AddKind {
    Normal,
    Heavy,
    OverCapacity,
}

fn flows_clause(rng: &mut SmallRng, kind: AddKind) -> String {
    let count = match kind {
        AddKind::Normal => rng.gen_range(1..=3usize),
        AddKind::Heavy => 2,
        AddKind::OverCapacity => rng.gen_range(1..=3usize),
    };
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut clauses: Vec<String> = Vec::new();
    for i in 0..count {
        let (src, dst) = loop {
            let src = rng.gen_range(0..CORE_POOL);
            let dst = rng.gen_range(0..CORE_POOL);
            if src != dst && !pairs.contains(&(src, dst)) {
                break (src, dst);
            }
        };
        pairs.push((src, dst));
        let mbps = match kind {
            AddKind::OverCapacity if i == 0 => 5000,
            AddKind::Heavy => rng.gen_range(1050..=1500u64),
            _ => rng.gen_range(50..=400u64),
        };
        let mut clause = format!("flow {src} {dst} {mbps}");
        if kind != AddKind::Heavy && rng.gen_bool(0.2) {
            let lat = rng.gen_range(20..=80u64);
            clause.push_str(&format!(" {lat}"));
        }
        clauses.push(clause);
    }
    clauses.join(" ; ")
}

/// Generates `requests` protocol lines from `seed` (pure; the same
/// arguments always produce the same trace).
pub fn generate_trace(requests: u64, seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut lines = Vec::with_capacity(requests as usize);
    let mut live: Vec<String> = Vec::new();
    let mut next_id = 0u64;
    let mut adds = 0u64;
    for _ in 0..requests {
        let roll = if live.is_empty() {
            0
        } else {
            rng.gen_range(0..10u32)
        };
        let line = match roll {
            0..=4 => {
                let id = format!("u{next_id}");
                next_id += 1;
                adds += 1;
                let kind = if adds.is_multiple_of(FORCED_REJECT_PERIOD) {
                    AddKind::OverCapacity
                } else if adds.is_multiple_of(HEAVY_PERIOD) {
                    AddKind::Heavy
                } else {
                    AddKind::Normal
                };
                let clause = flows_clause(&mut rng, kind);
                live.push(id.clone());
                format!("add {id} {clause}")
            }
            5..=6 => {
                let id = live.choose(&mut rng).expect("live non-empty").clone();
                let clause = flows_clause(&mut rng, AddKind::Normal);
                format!("modify {id} {clause}")
            }
            _ => {
                let at = rng.gen_range(0..live.len());
                let id = live.remove(at);
                format!("remove {id}")
            }
        };
        lines.push(line);
    }
    lines
}

/// Seed salt separating the fault schedule's RNG stream from the
/// request stream's, so adding faults never perturbs the base trace.
const FAULT_SEED_SALT: u64 = 0x666c_7461;

/// Generates a request trace with `faults` seeded fault events woven
/// in: [`generate_trace`]`(requests, seed)` plus, spread evenly after a
/// warm-up quarter, `fault link|ni …` lines with indices valid for
/// `cfg`'s fabric, a `heal` re-attempt between consecutive faults, and
/// a final `heal` / `health` epilogue.
///
/// Pure: the same `(cfg, requests, seed, faults)` always produce the
/// same lines, and the embedded base trace is byte-identical to
/// `generate_trace(requests, seed)` — the fault schedule draws from
/// its own salted RNG stream.
///
/// # Errors
///
/// A message when `cfg`'s mesh dimensions are invalid.
pub fn generate_fault_trace(
    cfg: &EngineConfig,
    requests: u64,
    seed: u64,
    faults: u64,
) -> Result<Vec<String>, String> {
    let topo = MeshBuilder::new(cfg.rows, cfg.cols)
        .nis_per_switch(cfg.nis_per_switch)
        .build()
        .map_err(|e| e.to_string())?
        .into_topology();
    let link_count = topo.link_count();
    let ni_count = topo.ni_count();
    let base = generate_trace(requests, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
    let last = requests.max(1) - 1;
    let warmup = requests / 4;
    let span = requests.saturating_sub(warmup).max(1);
    let stride = (span / (faults + 1)).max(1);
    // After which base-line index each extra line is emitted.
    let mut extras: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for f in 0..faults {
        let pos = (warmup + f * stride).min(last);
        let line = if rng.gen_bool(0.3) {
            format!("fault ni {}", rng.gen_range(0..ni_count))
        } else if rng.gen_bool(0.5) {
            let (a, b) = (rng.gen_range(0..link_count), rng.gen_range(0..link_count));
            format!("fault link {a} {b}")
        } else {
            format!("fault link {}", rng.gen_range(0..link_count))
        };
        extras.entry(pos).or_default().push(line);
        // A repair attempt midway to the next fault.
        extras
            .entry((pos + stride / 2).min(last))
            .or_default()
            .push("heal".to_string());
    }
    let mut lines = Vec::with_capacity(base.len() + 2 * faults as usize + 2);
    for (i, line) in base.into_iter().enumerate() {
        lines.push(line);
        if let Some(ex) = extras.remove(&(i as u64)) {
            lines.extend(ex);
        }
    }
    // Anything scheduled past an empty/short base trace still runs.
    for (_, ex) in extras {
        lines.extend(ex);
    }
    lines.push("heal".to_string());
    lines.push("health".to_string());
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_command;

    #[test]
    fn traces_are_deterministic_and_parse() {
        let a = generate_trace(200, 2006);
        let b = generate_trace(200, 2006);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for line in &a {
            assert!(parse_command(line).unwrap().is_some(), "unparsable {line}");
        }
        // A different seed gives a different stream.
        assert_ne!(a, generate_trace(200, 7));
        // The forced over-capacity adds are present.
        assert!(a.iter().any(|l| l.contains(" 5000")));
    }

    #[test]
    fn fault_traces_are_deterministic_and_embed_the_base_trace() {
        let cfg = EngineConfig::default();
        let a = generate_fault_trace(&cfg, 100, 2006, 4).unwrap();
        let b = generate_fault_trace(&cfg, 100, 2006, 4).unwrap();
        assert_eq!(a, b);
        for line in &a {
            assert!(parse_command(line).unwrap().is_some(), "unparsable {line}");
        }
        assert_eq!(a.iter().filter(|l| l.starts_with("fault ")).count(), 4);
        assert!(a.iter().filter(|l| l.as_str() == "heal").count() >= 1);
        assert_eq!(a.last().unwrap(), "health");
        // Removing the fault/heal/health weave recovers the base trace.
        let stripped: Vec<String> = a
            .iter()
            .filter(|l| !l.starts_with("fault ") && l.as_str() != "heal" && l.as_str() != "health")
            .cloned()
            .collect();
        assert_eq!(stripped, generate_trace(100, 2006));
        // Zero faults still appends the repair epilogue.
        let none = generate_fault_trace(&cfg, 10, 2006, 0).unwrap();
        assert_eq!(none.len(), 12);
    }
}
