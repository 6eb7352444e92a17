//! Best-effort (BE) traffic on top of a GT configuration.
//!
//! Æthereal offers two service classes (Rijpkema et al., DATE 2003, cited
//! as [9] by the paper): *guaranteed throughput* connections own TDMA
//! slots, while *best effort* packets are routed through whatever slots
//! are left, with router queueing and no guarantees. The mapping
//! methodology only reserves resources for GT flows; this module lets the
//! simulator answer the follow-up question an architect has: *how much BE
//! traffic still fits the leftover capacity, and at what latency?*
//!
//! Model: BE words are source-routed along a fixed path. A BE word may
//! traverse link `l` in cycle `t` only if slot `t mod S` of `l` is not
//! reserved by any GT connection (conservative: reserved-but-idle slots
//! are *not* stolen) and no other BE word crosses `l` that cycle
//! (per-link FIFO arbitration). Queues are unbounded; congestion shows up
//! as backlog and latency, not drops.

use std::collections::{BTreeMap, VecDeque};

use noc_tdma::{SlotMask, TdmaSpec};
use noc_topology::units::Bandwidth;
use noc_topology::LinkId;
use noc_usecase::spec::CoreId;

use crate::engine::Connection;
use crate::report::{FlowStats, SimReport};
use crate::traffic::TrafficModel;

/// A best-effort flow: a fixed path and an injection rate, no
/// reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestEffortFlow {
    /// Flow identity, reported in [`MixedReport::best_effort`].
    pub key: (CoreId, CoreId),
    /// Links from source NI to destination NI.
    pub path: Vec<LinkId>,
    /// Average injection rate of the traffic source.
    pub inject_bandwidth: Bandwidth,
    /// Timing of the source's word generation
    /// ([`TrafficModel::Constant`] reproduces the original smooth
    /// sources bit-for-bit). Seeded models salt their seed with the
    /// flow's index in the `best_effort` list passed to
    /// [`simulate_mixed`], offset by the GT connection count so a GT
    /// connection and a BE flow never share one burst schedule.
    pub traffic: TrafficModel,
}

/// Outcome of a mixed GT + BE simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedReport {
    /// The GT side, identical in meaning to [`SimReport`].
    pub guaranteed: SimReport,
    /// Per-BE-flow statistics.
    pub best_effort: BTreeMap<(CoreId, CoreId), FlowStats>,
    /// Deepest per-link BE queue observed (a congestion indicator).
    pub max_be_queue_depth: usize,
}

impl MixedReport {
    /// `true` when every BE flow drained everything it injected.
    pub fn best_effort_delivered(&self) -> bool {
        self.best_effort
            .values()
            .all(|s| s.delivered_words + s.backlog_words == s.injected_words)
    }
}

/// Simulates GT connections and BE flows together for `cycles` cycles.
///
/// GT behaviour is *identical* to [`crate::simulate_connections`] — BE
/// traffic can never affect it, because BE only uses slots no GT
/// connection reserved.
///
/// # Panics
///
/// Panics if any path is empty or any base slot is out of range.
pub fn simulate_mixed(
    spec: &TdmaSpec,
    guaranteed: &[Connection],
    best_effort: &[BestEffortFlow],
    cycles: u64,
) -> MixedReport {
    let span = noc_obs::span("simulate-mixed");
    span.attr("gt", guaranteed.len());
    span.attr("be", best_effort.len());
    span.attr("cycles", cycles);
    // The BE wheel below costs one cycle-step per cycle (the GT side
    // counts its own inside `simulate_connections`).
    noc_obs::count(noc_obs::Counter::SimCycles, cycles);
    let slots = spec.slots();

    // The GT side runs exactly as in the pure-GT engine.
    let gt_report = crate::engine::simulate_connections(
        spec,
        guaranteed,
        &crate::engine::SimConfig {
            cycles,
            queueing_slack_tables: 1,
        },
    );

    // Static reservation mask: (link, slot) cells owned by GT.
    let max_link = guaranteed
        .iter()
        .flat_map(|c| c.path.iter())
        .chain(best_effort.iter().flat_map(|f| f.path.iter()))
        .map(|l| l.index())
        .max()
        .unwrap_or(0);
    let mut reserved = vec![SlotMask::new(slots); max_link + 1];
    for conn in guaranteed {
        for &base in &conn.base_slots {
            assert!(base < slots, "base slot {base} out of range");
            for (i, l) in conn.path.iter().enumerate() {
                reserved[l.index()].set((base + i) % slots);
            }
        }
    }

    // BE state: one FIFO per link; words are (flow, enqueue_cycle, hop).
    struct BeState {
        source: crate::traffic::TrafficSource,
        stats: FlowStats,
    }
    let mut flows: Vec<BeState> = best_effort
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            assert!(!f.path.is_empty(), "BE flow {:?} has an empty path", f.key);
            BeState {
                source: f.traffic.source(
                    f.inject_bandwidth,
                    spec.width().bytes(),
                    spec.frequency().as_hz(),
                    // Continue the GT index space so a GT connection and
                    // a BE flow at equal list positions never derive the
                    // same per-flow seed.
                    guaranteed.len() + fi,
                ),
                stats: FlowStats::default(),
            }
        })
        .collect();
    let mut link_queues: Vec<VecDeque<(usize, u64, usize)>> = vec![VecDeque::new(); max_link + 1];
    let mut max_depth = 0usize;

    for t in 0..cycles {
        // Source injection: each flow's traffic model decides how many
        // words enter the first link's queue this cycle.
        for (fi, flow) in best_effort.iter().enumerate() {
            let st = &mut flows[fi];
            for _ in 0..st.source.words_at(t) {
                st.stats.injected_words += 1;
                link_queues[flow.path[0].index()].push_back((fi, t, 0));
            }
            st.stats.peak_backlog_words = st
                .stats
                .peak_backlog_words
                .max(st.stats.injected_words - st.stats.delivered_words);
        }
        // Link arbitration: one BE word per free (unreserved) slot cell.
        let slot = (t % slots as u64) as usize;
        // Collect moves first to avoid double-advancing a word in one
        // cycle (a word entering a queue this cycle must wait a cycle).
        let mut moves: Vec<(usize, (usize, u64, usize))> = Vec::new();
        for (li, queue) in link_queues.iter_mut().enumerate() {
            if reserved[li].test(slot) {
                continue;
            }
            if let Some(word) = queue.pop_front() {
                moves.push((li, word));
            }
        }
        for (_, (fi, enq, hop)) in moves {
            let flow = &best_effort[fi];
            if hop + 1 == flow.path.len() {
                // Delivered at the end of this cycle.
                let latency = t + 1 - enq;
                let st = &mut flows[fi].stats;
                st.delivered_words += 1;
                st.total_latency_cycles += latency;
                st.max_latency_cycles = st.max_latency_cycles.max(latency);
            } else {
                link_queues[flow.path[hop + 1].index()].push_back((fi, enq, hop + 1));
            }
        }
        max_depth = max_depth.max(link_queues.iter().map(VecDeque::len).max().unwrap_or(0));
    }

    let mut be_stats = BTreeMap::new();
    let mut injected = 0u64;
    let mut delivered = 0u64;
    for (fi, flow) in best_effort.iter().enumerate() {
        let st = &mut flows[fi].stats;
        st.backlog_words = st.injected_words - st.delivered_words;
        injected += st.injected_words;
        delivered += st.delivered_words;
        be_stats.insert(flow.key, st.clone());
    }
    span.attr("be_injected", injected);
    span.attr("be_delivered", delivered);
    MixedReport {
        guaranteed: gt_report,
        best_effort: be_stats,
        max_be_queue_depth: max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::units::{Frequency, LinkWidth};
    use noc_topology::{MeshBuilder, Topology};

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn fixture() -> (Topology, Vec<LinkId>, TdmaSpec) {
        let mesh = MeshBuilder::new(1, 2).nis_per_switch(1).build().unwrap();
        let topo = mesh.into_topology();
        let ni0 = topo.nis()[0];
        let ni1 = topo.nis()[1];
        let s0 = topo.ni_switch(ni0).unwrap();
        let s1 = topo.ni_switch(ni1).unwrap();
        let path = vec![
            topo.link_between(ni0, s0).unwrap(),
            topo.link_between(s0, s1).unwrap(),
            topo.link_between(s1, ni1).unwrap(),
        ];
        let spec = TdmaSpec::new(8, Frequency::from_mhz(500), LinkWidth::BITS_32);
        (topo, path, spec)
    }

    fn gt(path: &[LinkId], base: Vec<usize>, mbps: u64) -> Connection {
        Connection {
            key: (c(0), c(1)),
            path: path.to_vec(),
            base_slots: base,
            inject_bandwidth: Bandwidth::from_mbps(mbps),
            traffic: TrafficModel::Constant,
            latency_bound_cycles: None,
        }
    }

    fn be(path: &[LinkId], mbps: u64) -> BestEffortFlow {
        BestEffortFlow {
            key: (c(2), c(3)),
            path: path.to_vec(),
            inject_bandwidth: Bandwidth::from_mbps(mbps),
            traffic: TrafficModel::Constant,
        }
    }

    #[test]
    fn be_alone_delivers_everything() {
        let (_t, path, spec) = fixture();
        let report = simulate_mixed(&spec, &[], &[be(&path, 500)], 4096);
        assert!(report.best_effort_delivered());
        let st = &report.best_effort[&(c(2), c(3))];
        assert!(st.delivered_words > 0);
        // Only words injected in the last few cycles may still be in
        // flight when the window closes.
        assert!(st.backlog_words <= 2, "backlog {}", st.backlog_words);
    }

    #[test]
    fn be_uses_only_leftover_slots() {
        let (_t, path, spec) = fixture();
        // GT owns 6 of 8 slots; BE demand of 500 MB/s equals exactly the
        // leftover 2 slots worth — it should (just) keep up.
        let g = gt(&path, vec![0, 1, 2, 3, 4, 5], 1500);
        let report = simulate_mixed(&spec, &[g], &[be(&path, 490)], 8192);
        assert_eq!(report.guaranteed.contention_violations, 0);
        let st = &report.best_effort[&(c(2), c(3))];
        assert!(
            st.backlog_words < 32,
            "BE at leftover capacity should keep up, backlog {}",
            st.backlog_words
        );
    }

    #[test]
    fn be_starves_when_gt_owns_everything() {
        let (_t, path, spec) = fixture();
        let g = gt(&path, (0..8).collect(), 2000);
        let report = simulate_mixed(&spec, &[g], &[be(&path, 200)], 2048);
        let st = &report.best_effort[&(c(2), c(3))];
        assert_eq!(st.delivered_words, 0, "no free slot ever appears");
        assert_eq!(st.backlog_words, st.injected_words);
        assert!(st.injected_words > 0);
        assert!(report.max_be_queue_depth > 0);
    }

    #[test]
    fn gt_is_unaffected_by_be_load() {
        let (_t, path, spec) = fixture();
        let g = gt(&path, vec![0, 4], 500);
        let alone = simulate_mixed(&spec, std::slice::from_ref(&g), &[], 4096);
        let flooded = simulate_mixed(&spec, &[g], &[be(&path, 1500)], 4096);
        assert_eq!(
            alone.guaranteed, flooded.guaranteed,
            "GT must be isolated from BE"
        );
    }

    #[test]
    fn be_congestion_inflates_latency_gt_stays_bounded() {
        let (_t, path, spec) = fixture();
        // GT owns half the table (leftover BE capacity: 1000 MB/s). An
        // overloaded BE source (1200 MB/s) builds an ever-growing queue:
        // its latency explodes while the GT connection's stays at its
        // analytical bound.
        let g = gt(&path, vec![0, 2, 4, 6], 1000);
        let gt_bound = spec.worst_case_latency_cycles(&[0, 2, 4, 6], path.len());
        let report = simulate_mixed(&spec, &[g], &[be(&path, 1200)], 8192);
        let gt_stats = &report.guaranteed.flows[&(c(0), c(1))];
        let be_stats = &report.best_effort[&(c(2), c(3))];
        assert!(gt_stats.max_latency_cycles <= gt_bound + 8);
        assert!(be_stats.delivered_words > 0);
        assert!(be_stats.backlog_words > 100, "overload must queue up");
        assert!(
            be_stats.mean_latency_cycles() > 10.0 * gt_stats.mean_latency_cycles(),
            "congested BE ({}) should be far slower than GT ({})",
            be_stats.mean_latency_cycles(),
            gt_stats.mean_latency_cycles()
        );
        // And an uncongested BE flow on the same leftover capacity
        // pipelines within a table turn.
        let light = simulate_mixed(
            &spec,
            &[gt(&path, vec![0, 2, 4, 6], 1000)],
            &[be(&path, 400)],
            8192,
        );
        let light_stats = &light.best_effort[&(c(2), c(3))];
        assert!(light_stats.mean_latency_cycles() < 8.0 + path.len() as f64);
    }

    /// Same average BE rate, different shapes: a duty-cycled burst
    /// source spikes far above the leftover capacity and queues, so its
    /// latency and peak backlog dominate the smooth source's even though
    /// both fit the leftover bandwidth on average.
    #[test]
    fn bursty_be_at_same_average_rate_queues_deeper() {
        let (_t, path, spec) = fixture();
        // GT owns 6 of 8 slots; leftover = 500 MB/s. 400 MB/s average
        // fits either way.
        let g = gt(&path, vec![0, 1, 2, 3, 4, 5], 1500);
        let run = |traffic: TrafficModel| {
            let mut f = be(&path, 400);
            f.traffic = traffic;
            simulate_mixed(&spec, std::slice::from_ref(&g), &[f], 8192)
        };
        let smooth = run(TrafficModel::Constant);
        let bursty = run(TrafficModel::OnOff {
            period: 256,
            on: 32,
            phase: 0,
        });
        assert_eq!(
            smooth.guaranteed, bursty.guaranteed,
            "GT must not see BE shape"
        );
        let ss = &smooth.best_effort[&(c(2), c(3))];
        let bs = &bursty.best_effort[&(c(2), c(3))];
        assert!(bs.delivered_words > 0);
        assert!(
            bs.peak_backlog_words > 2 * ss.peak_backlog_words.max(1),
            "burst peak backlog {} vs smooth {}",
            bs.peak_backlog_words,
            ss.peak_backlog_words
        );
        assert!(
            bs.max_latency_cycles > 2 * ss.max_latency_cycles.max(1),
            "burst max latency {} vs smooth {}",
            bs.max_latency_cycles,
            ss.max_latency_cycles
        );
    }

    /// A seeded random-burst BE scenario is a pure function of
    /// `(seed, flow order)`: two runs produce identical mixed reports,
    /// and each flow gets its own schedule from the shared base seed.
    #[test]
    fn seeded_be_bursts_replay_identically_with_distinct_flows() {
        let (_t, path, spec) = fixture();
        let run = || {
            let mut f1 = be(&path, 200);
            f1.key = (c(2), c(3));
            f1.traffic = TrafficModel::RandomBursts {
                mean_on: 8,
                mean_off: 24,
                seed: 2006,
            };
            let mut f2 = f1.clone();
            f2.key = (c(4), c(5));
            simulate_mixed(&spec, &[], &[f1, f2], 8192)
        };
        let a = run();
        assert_eq!(a, run(), "seeded BE scenario must replay bit-for-bit");
        assert_ne!(
            a.best_effort[&(c(2), c(3))],
            a.best_effort[&(c(4), c(5))],
            "per-flow seeds must decorrelate the two sources"
        );
    }

    /// A GT connection and a BE flow at the same list position with the
    /// same base seed must not share one burst schedule: the BE side
    /// continues the GT index space, so the derived per-flow seeds
    /// differ.
    #[test]
    fn gt_and_be_sources_never_share_a_seed() {
        let (_t, path, spec) = fixture();
        let bursts = TrafficModel::RandomBursts {
            mean_on: 8,
            mean_off: 24,
            seed: 2006,
        };
        let mut g = gt(&path, vec![0, 1, 2, 3], 250);
        g.traffic = bursts.clone();
        let mut f = be(&path, 250);
        f.traffic = bursts;
        let report = simulate_mixed(&spec, &[g], &[f], 8192);
        let gt_stats = &report.guaranteed.flows[&(c(0), c(1))];
        let be_stats = &report.best_effort[&(c(2), c(3))];
        assert!(gt_stats.injected_words > 0 && be_stats.injected_words > 0);
        assert_ne!(
            gt_stats.injected_words, be_stats.injected_words,
            "equal-index GT and BE sources must draw decorrelated schedules"
        );
    }

    #[test]
    fn two_be_flows_share_fifo_fairly_enough() {
        let (_t, path, spec) = fixture();
        let mut f1 = be(&path, 300);
        f1.key = (c(2), c(3));
        let mut f2 = be(&path, 300);
        f2.key = (c(4), c(5));
        let report = simulate_mixed(&spec, &[], &[f1, f2], 8192);
        let s1 = &report.best_effort[&(c(2), c(3))];
        let s2 = &report.best_effort[&(c(4), c(5))];
        assert!(s1.delivered_words > 0 && s2.delivered_words > 0);
        // Combined 600 MB/s fits the 2000 MB/s link: both drain.
        assert!(report.best_effort_delivered());
    }
}
