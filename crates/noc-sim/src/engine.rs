//! The cycle-driven simulation engine.

use std::collections::VecDeque;

use noc_tdma::{SlotMask, TdmaSpec};
use noc_topology::units::Bandwidth;
use noc_topology::LinkId;
use noc_usecase::spec::{CoreId, SocSpec, UseCaseId};
use noc_usecase::UseCaseGroups;
use nocmap::MappingSolution;

use crate::report::{FlowStats, SimReport};
use crate::traffic::{TrafficModel, TrafficSource};

/// Simulation window and checking knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of NoC clock cycles to simulate.
    pub cycles: u64,
    /// Extra latency slack, in slot-table periods, tolerated on top of
    /// each connection's analytical worst case before a delivered word
    /// counts as a violation.
    ///
    /// Word latency is measured from the cycle the source *generates*
    /// the word (it enters the source queue), while the analytical bound
    /// assumes an empty queue — so the slack is exactly the tolerated
    /// source-queueing delay. With the default [`TrafficModel::Constant`]
    /// sources the queue only builds during the start-up transient, and
    /// one table period (the default) covers it.
    ///
    /// Bursty models change the picture, by design: a connection owning
    /// `k` slots per table drains a burst of `b` words in `⌈b/k⌉` table
    /// periods, so words deeper than `queueing_slack_tables × k` in a
    /// burst exceed the allowance and are counted in
    /// [`SimReport::latency_violations`]. That is the intended
    /// semantics — a GT reservation guarantees bandwidth and a per-word
    /// network bound, not absorption of arbitrarily deep bursts. Size
    /// the slack to the deepest burst a source is specified to emit
    /// (`tests` assert both directions of this convention).
    pub queueing_slack_tables: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cycles: 8192,
            queueing_slack_tables: 1,
        }
    }
}

impl SimConfig {
    /// The latency allowance in cycles that [`SimConfig::queueing_slack_tables`]
    /// grants on a table of `slots_per_table` slots.
    ///
    /// ```
    /// use noc_sim::SimConfig;
    ///
    /// assert_eq!(SimConfig::default().slack_cycles(128), 128);
    /// ```
    pub fn slack_cycles(&self, slots_per_table: usize) -> u64 {
        u64::from(self.queueing_slack_tables) * slots_per_table as u64
    }
}

/// One GT connection to simulate: a configured route plus the rate its
/// source injects at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Flow identity, reported in [`SimReport::flows`].
    pub key: (CoreId, CoreId),
    /// Links from source NI to destination NI.
    pub path: Vec<LinkId>,
    /// Reserved base slots.
    pub base_slots: Vec<usize>,
    /// Average injection rate of the traffic source.
    pub inject_bandwidth: Bandwidth,
    /// Timing of the source's word generation; the default
    /// [`TrafficModel::Constant`] reproduces the engine's original
    /// smooth sources bit-for-bit.
    pub traffic: TrafficModel,
    /// Analytical worst-case latency bound in cycles (checked against
    /// observed word latencies), if any.
    pub latency_bound_cycles: Option<u64>,
}

/// Simulates an arbitrary set of connections against `spec`'s slot
/// timing. This is the core engine; [`simulate_group`] and
/// [`simulate_use_case`] build the connection list from a mapping
/// solution.
///
/// # Panics
///
/// Panics if a connection has an empty path or a base slot out of range.
pub fn simulate_connections(
    spec: &TdmaSpec,
    connections: &[Connection],
    config: &SimConfig,
) -> SimReport {
    // One simulated cycle-step per (cycle, connection) of the main loop
    // — a deterministic function of the inputs.
    noc_obs::count(
        noc_obs::Counter::SimCycles,
        config.cycles.saturating_mul(connections.len() as u64),
    );
    let slots = spec.slots();
    let slack = config.slack_cycles(slots);

    // Per-connection state.
    struct ConnState {
        in_slot: SlotMask,     // bit-packed base-slot membership
        queue: VecDeque<u64>,  // enqueue cycle per queued word
        source: TrafficSource, // word generator (integer credit state)
        stats: FlowStats,
        bound: Option<u64>,
    }
    let mut states: Vec<ConnState> = connections
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            assert!(
                !c.path.is_empty(),
                "connection {:?} has an empty path",
                c.key
            );
            let mut in_slot = SlotMask::new(slots);
            for &s in &c.base_slots {
                assert!(s < slots, "base slot {s} out of range for {:?}", c.key);
                in_slot.set(s);
            }
            ConnState {
                in_slot,
                queue: VecDeque::new(),
                source: c.traffic.source(
                    c.inject_bandwidth,
                    spec.width().bytes(),
                    spec.frequency().as_hz(),
                    ci,
                ),
                stats: FlowStats::default(),
                bound: c.latency_bound_cycles,
            }
        })
        .collect();

    // Static claims table: (link, slot) -> connection index. The slot
    // pattern is periodic, so any contention shows up as two connections
    // claiming one (link, slot) cell.
    let max_link = connections
        .iter()
        .flat_map(|c| c.path.iter())
        .map(|l| l.index())
        .max()
        .unwrap_or(0);
    let mut claims: Vec<Vec<Option<usize>>> = vec![vec![None; slots]; max_link + 1];
    let mut contention_violations = 0u64;
    let mut latency_violations = 0u64;

    // Delivery ring buffer: arrivals[cycle % ring] = (conn, enqueue_cycle).
    let max_hops = connections.iter().map(|c| c.path.len()).max().unwrap_or(0);
    let ring = max_hops + 2;
    let mut arrivals: Vec<Vec<(usize, u64)>> = vec![Vec::new(); ring];

    for t in 0..config.cycles {
        // Deliveries first: words scheduled to arrive this cycle.
        let bucket = std::mem::take(&mut arrivals[(t as usize) % ring]);
        for (ci, enq) in bucket {
            let latency = t - enq;
            let st = &mut states[ci];
            st.stats.delivered_words += 1;
            st.stats.total_latency_cycles += latency;
            st.stats.max_latency_cycles = st.stats.max_latency_cycles.max(latency);
            if let Some(bound) = st.bound {
                if latency > bound + slack {
                    latency_violations += 1;
                }
            }
        }

        let slot = (t % slots as u64) as usize;
        for (ci, conn) in connections.iter().enumerate() {
            let st = &mut states[ci];
            // Traffic generation: the source model decides how many
            // whole words enter the queue this cycle.
            for _ in 0..st.source.words_at(t) {
                st.queue.push_back(t);
                st.stats.injected_words += 1;
            }
            st.stats.peak_backlog_words = st
                .stats
                .peak_backlog_words
                .max(st.stats.injected_words - st.stats.delivered_words);
            // Injection: one word if this cycle's slot is owned.
            if st.in_slot.test(slot) {
                if let Some(enq) = st.queue.pop_front() {
                    // Claim every (link, slot) cell of the pipeline and
                    // check for contention.
                    for (i, &l) in conn.path.iter().enumerate() {
                        let cell = &mut claims[l.index()][(slot + i) % slots];
                        match *cell {
                            None => *cell = Some(ci),
                            Some(owner) if owner == ci => {}
                            Some(_) => contention_violations += 1,
                        }
                    }
                    // Schedule delivery after the pipeline traversal.
                    let arrive = t + conn.path.len() as u64;
                    arrivals[(arrive as usize) % ring].push((ci, enq));
                }
            }
        }
    }

    let mut flows = std::collections::BTreeMap::new();
    for (ci, conn) in connections.iter().enumerate() {
        let st = &mut states[ci];
        st.stats.backlog_words = st.stats.injected_words - st.stats.delivered_words;
        flows.insert(conn.key, st.stats.clone());
    }
    SimReport {
        cycles: config.cycles,
        slots_per_table: slots,
        flows,
        contention_violations,
        latency_violations,
    }
}

fn bound_cycles(spec: &TdmaSpec, route: &nocmap::Route) -> u64 {
    spec.worst_case_latency_cycles(&route.base_slots, route.hops())
}

/// Simulates one group's full NoC configuration, each connection
/// injecting at its **provisioned** bandwidth (the group's worst same-pair
/// demand) — the heaviest load the configuration must sustain.
///
/// # Panics
///
/// Panics if `group` is out of range for the solution.
pub fn simulate_group(solution: &MappingSolution, group: usize, config: &SimConfig) -> SimReport {
    let spec = solution.spec();
    let conns: Vec<Connection> = solution
        .group_config(group)
        .iter()
        .map(|(&key, route)| Connection {
            key,
            path: route.path.clone(),
            base_slots: route.base_slots.clone(),
            inject_bandwidth: route.bandwidth,
            traffic: TrafficModel::Constant,
            latency_bound_cycles: Some(bound_cycles(&spec, route)),
        })
        .collect();
    simulate_connections(&spec, &conns, config)
}

/// Simulates one **use-case** running on its group's configuration: each
/// flow injects at the use-case's own bandwidth (which may be below the
/// provisioned maximum when a group-mate demanded more).
///
/// # Panics
///
/// Panics if the use-case index is out of range, or if the solution lacks
/// a route for one of its flows (i.e. the solution does not belong to
/// this spec — run [`MappingSolution::verify`] first).
pub fn simulate_use_case(
    solution: &MappingSolution,
    soc: &SocSpec,
    groups: &UseCaseGroups,
    use_case: usize,
    config: &SimConfig,
) -> SimReport {
    let span = noc_obs::span("simulate-use-case");
    span.attr("use_case", use_case);
    let uc_id = UseCaseId::new(use_case as u32);
    let spec = solution.spec();
    let g = groups.group_of(uc_id);
    let conns: Vec<Connection> = soc
        .use_case(uc_id)
        .flows()
        .iter()
        .map(|flow| {
            let route = solution
                .group_config(g)
                .route(flow.src(), flow.dst())
                .expect("solution must cover every flow of the spec");
            Connection {
                key: flow.endpoints(),
                path: route.path.clone(),
                base_slots: route.base_slots.clone(),
                inject_bandwidth: flow.bandwidth(),
                traffic: TrafficModel::Constant,
                latency_bound_cycles: Some(bound_cycles(&spec, route)),
            }
        })
        .collect();
    simulate_connections(&spec, &conns, config)
}

/// Replays **every** use-case of a mapped design — the sim-stage adapter
/// the design-flow pipeline (`noc-flow`'s simulate stage) and the
/// phase-4 verification sweep share.
///
/// Use-cases run in parallel via [`noc_par::par_map`] with ordered
/// reduction, so the returned `Vec` is indexed by use-case and
/// byte-identical at any thread count.
///
/// # Panics
///
/// Panics if the solution lacks a route for one of the spec's flows —
/// run [`MappingSolution::verify`] first (see [`simulate_use_case`]).
pub fn simulate_solution(
    solution: &MappingSolution,
    soc: &SocSpec,
    groups: &UseCaseGroups,
    config: &SimConfig,
) -> Vec<SimReport> {
    noc_par::par_map((0..soc.use_case_count()).collect(), |_, uc| {
        simulate_use_case(solution, soc, groups, uc, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_tdma::TdmaSpec;
    use noc_topology::units::{Frequency, Latency, LinkWidth};
    use noc_topology::MeshBuilder;
    use noc_usecase::spec::UseCaseBuilder;
    use nocmap::design::design_smallest_mesh;
    use nocmap::MapperOptions;

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn spec8() -> TdmaSpec {
        TdmaSpec::new(8, Frequency::from_mhz(500), LinkWidth::BITS_32)
    }

    /// A hand-built 3-link path on a 1x2 mesh.
    fn hand_path() -> (TdmaSpec, Vec<LinkId>) {
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
        (spec8(), path)
    }

    #[test]
    fn full_rate_connection_saturates_its_slots() {
        let (spec, path) = hand_path();
        // 2 of 8 slots at 2000 MB/s link = 500 MB/s; inject exactly that.
        let conn = Connection {
            key: (c(0), c(1)),
            path,
            base_slots: vec![0, 4],
            inject_bandwidth: Bandwidth::from_mbps(500),
            traffic: TrafficModel::Constant,
            latency_bound_cycles: Some(spec.worst_case_latency_cycles(&[0, 4], 3)),
        };
        let report = simulate_connections(&spec, &[conn], &SimConfig::default());
        assert_eq!(report.contention_violations, 0);
        assert_eq!(report.latency_violations, 0);
        let stats = &report.flows[&(c(0), c(1))];
        // 500 MB/s at 500 MHz x 4B = 0.25 words/cycle over 8192 cycles.
        assert_eq!(stats.injected_words, 8192 / 4);
        assert!(report.all_flows_delivered());
        let bw = report
            .delivered_bandwidth((c(0), c(1)), 4, 500_000_000)
            .unwrap();
        assert!(
            bw >= Bandwidth::from_mbps(495),
            "delivered {bw} should be ~500 MB/s"
        );
    }

    #[test]
    fn latency_stays_within_analytical_bound() {
        let (spec, path) = hand_path();
        let bound = spec.worst_case_latency_cycles(&[0], 3); // 8 + 3
        let conn = Connection {
            key: (c(0), c(1)),
            path,
            base_slots: vec![0],
            inject_bandwidth: Bandwidth::from_mbps(200), // below the 250 slot rate
            traffic: TrafficModel::Constant,
            latency_bound_cycles: Some(bound),
        };
        let report = simulate_connections(&spec, &[conn], &SimConfig::default());
        assert_eq!(report.latency_violations, 0);
        let stats = &report.flows[&(c(0), c(1))];
        assert!(
            stats.max_latency_cycles <= bound + 8,
            "observed {} vs bound {bound} (+8 slack)",
            stats.max_latency_cycles
        );
    }

    #[test]
    fn overlapping_reservations_detected_as_contention() {
        let (spec, path) = hand_path();
        // Two connections deliberately share base slot 0 on one path —
        // an invalid configuration the simulator must flag.
        let mk = |key| Connection {
            key,
            path: path.clone(),
            base_slots: vec![0],
            inject_bandwidth: Bandwidth::from_mbps(250),
            traffic: TrafficModel::Constant,
            latency_bound_cycles: None,
        };
        let report = simulate_connections(
            &spec,
            &[mk((c(0), c(1))), mk((c(2), c(3)))],
            &SimConfig::default(),
        );
        assert!(report.contention_violations > 0);
    }

    #[test]
    fn disjoint_slots_no_contention() {
        let (spec, path) = hand_path();
        let mk = |key, slot| Connection {
            key,
            path: path.clone(),
            base_slots: vec![slot],
            inject_bandwidth: Bandwidth::from_mbps(250),
            traffic: TrafficModel::Constant,
            latency_bound_cycles: None,
        };
        let report = simulate_connections(
            &spec,
            &[mk((c(0), c(1)), 0), mk((c(2), c(3)), 5)],
            &SimConfig::default(),
        );
        assert_eq!(report.contention_violations, 0);
        assert!(report.all_flows_delivered());
    }

    /// The queueing-slack convention under bursts, both directions: a
    /// burst deeper than `queueing_slack_tables × owned slots` words
    /// counts latency violations (the analytical bound assumes an empty
    /// source queue), while a slack sized to the burst depth absorbs it
    /// — and the constant-rate source at the same average rate never
    /// violates with the default slack.
    #[test]
    fn burst_depth_vs_queueing_slack_convention() {
        let (spec, path) = hand_path();
        let bound = spec.worst_case_latency_cycles(&[0], 3);
        // 1 of 8 slots = 250 MB/s capacity; 125 MB/s average compressed
        // into 32-cycle bursts at the 2000 MB/s link rate: each burst
        // queues 32 words that drain at one word per table turn.
        let run = |traffic: TrafficModel, slack: u32| {
            let conn = Connection {
                key: (c(0), c(1)),
                path: path.clone(),
                base_slots: vec![0],
                inject_bandwidth: Bandwidth::from_mbps(125),
                traffic,
                latency_bound_cycles: Some(bound),
            };
            simulate_connections(
                &spec,
                &[conn],
                &SimConfig {
                    cycles: 4096,
                    queueing_slack_tables: slack,
                },
            )
        };
        let bursts = TrafficModel::OnOff {
            period: 512,
            on: 32,
            phase: 0,
        };
        let tight = run(bursts.clone(), 1);
        assert_eq!(tight.contention_violations, 0);
        assert!(
            tight.latency_violations > 0,
            "a 32-word burst on a 1-slot connection must overflow one table of slack"
        );
        let stats = &tight.flows[&(c(0), c(1))];
        // 32 words arrive during the burst window while 4 table turns
        // drain one word each: the queue peaks at 28.
        assert_eq!(
            stats.peak_backlog_words, 28,
            "peak backlog should reflect the burst depth minus the drain"
        );
        // 33 tables of slack cover the full drain of a 32-word burst.
        let sized = run(bursts, 33);
        assert_eq!(sized.latency_violations, 0, "sized slack absorbs the burst");
        // The same average rate spread smoothly never queues deeper than
        // start-up: the default slack suffices.
        let smooth = run(TrafficModel::Constant, 1);
        assert_eq!(smooth.latency_violations, 0);
        assert_eq!(
            smooth.flows[&(c(0), c(1))].injected_words,
            sized.flows[&(c(0), c(1))].injected_words,
            "whole periods inject the same word count at equal average rate"
        );
    }

    #[test]
    fn seeded_bursty_connection_replays_identically() {
        let (spec, path) = hand_path();
        let run = || {
            let conn = Connection {
                key: (c(0), c(1)),
                path: path.clone(),
                base_slots: vec![0, 4],
                inject_bandwidth: Bandwidth::from_mbps(250),
                traffic: TrafficModel::RandomBursts {
                    mean_on: 16,
                    mean_off: 48,
                    seed: 2006,
                },
                latency_bound_cycles: None,
            };
            simulate_connections(&spec, &[conn], &SimConfig::default())
        };
        assert_eq!(run(), run(), "seeded burst schedule must be pure");
    }

    #[test]
    fn zero_bandwidth_source_stays_idle() {
        let (spec, path) = hand_path();
        let conn = Connection {
            key: (c(0), c(1)),
            path,
            base_slots: vec![0],
            inject_bandwidth: Bandwidth::ZERO,
            traffic: TrafficModel::Constant,
            latency_bound_cycles: None,
        };
        let report = simulate_connections(&spec, &[conn], &SimConfig::default());
        let stats = &report.flows[&(c(0), c(1))];
        assert_eq!(stats.injected_words, 0);
        assert_eq!(stats.delivered_words, 0);
        assert_eq!(stats.delivery_ratio(), 1.0);
    }

    #[test]
    fn end_to_end_mapped_solution_simulates_clean() {
        let mut soc = SocSpec::new("sim-e2e");
        soc.add_use_case(
            UseCaseBuilder::new("u0")
                .flow(
                    c(0),
                    c(1),
                    Bandwidth::from_mbps(400),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(c(1), c(2), Bandwidth::from_mbps(250), Latency::from_us(1))
                .unwrap()
                .flow(
                    c(2),
                    c(3),
                    Bandwidth::from_mbps(125),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .build(),
        );
        soc.add_use_case(
            UseCaseBuilder::new("u1")
                .flow(
                    c(0),
                    c(1),
                    Bandwidth::from_mbps(100),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(
                    c(3),
                    c(0),
                    Bandwidth::from_mbps(600),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .build(),
        );
        let groups = UseCaseGroups::singletons(2);
        let sol = design_smallest_mesh(
            &soc,
            &groups,
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
            64,
        )
        .unwrap();
        sol.verify(&soc, &groups).unwrap();
        for g in 0..2 {
            let report = simulate_group(&sol, g, &SimConfig::default());
            assert_eq!(report.contention_violations, 0, "group {g} contended");
            assert_eq!(report.latency_violations, 0, "group {g} late");
            assert!(report.all_flows_delivered(), "group {g} dropped words");
        }
        for uc in 0..2 {
            let report = simulate_use_case(&sol, &soc, &groups, uc, &SimConfig::default());
            assert_eq!(report.contention_violations, 0);
            assert_eq!(report.latency_violations, 0);
            assert!(report.all_flows_delivered());
        }
    }
}
