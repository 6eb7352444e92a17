//! Fault-injection and self-healing properties over the whole stack:
//! the heal contract (repaired solutions verify and never touch failed
//! resources), the hardened `nocd` edge (no byte salad panics the
//! engine, every response is framed), the flush-then-read contract at
//! several batch sizes, and the engine's fault/heal/health verbs.

use noc_multiusecase::map::mapper::preset_twin;
use noc_multiusecase::map::remap::RemapConfig;
use noc_multiusecase::map::{
    heal, map_multi_usecase, merged_group_flows, HealOutcome, MapperOptions,
};
use noc_multiusecase::service::{generate_trace, Engine, EngineConfig};
use noc_multiusecase::tdma::TdmaSpec;
use noc_multiusecase::topology::units::{Bandwidth, Latency};
use noc_multiusecase::topology::{FaultSet, MeshBuilder, Topology};
use noc_multiusecase::usecase::spec::{CoreId, SocSpec, UseCase, UseCaseBuilder};
use noc_multiusecase::usecase::UseCaseGroups;
use proptest::prelude::*;

/// A preset-pure base solution (greedy placement frozen into a preset),
/// the form `heal` requires.
fn preset_base(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    topo: &Topology,
) -> Option<noc_multiusecase::map::MappingSolution> {
    let options = MapperOptions::default();
    let greedy = map_multi_usecase(soc, groups, topo, TdmaSpec::paper_default(), &options).ok()?;
    preset_twin(&options, &greedy, &merged_group_flows(soc, groups)).ok()
}

/// Strategy: a small use-case over `cores` cores (distinct pairs).
fn use_case_strategy(cores: u32, max_flows: usize) -> impl Strategy<Value = UseCase> {
    let pair = (0..cores, 0..cores).prop_filter("no self flows", |(a, b)| a != b);
    proptest::collection::btree_set(pair, 1..=max_flows).prop_flat_map(move |pairs| {
        let n = pairs.len();
        (Just(pairs), proptest::collection::vec(50u64..400, n)).prop_map(|(pairs, bws)| {
            let mut b = UseCaseBuilder::new("prop");
            for ((src, dst), bw) in pairs.into_iter().zip(bws) {
                b = b
                    .flow(
                        CoreId::new(src),
                        CoreId::new(dst),
                        Bandwidth::from_mbps(bw),
                        Latency::UNCONSTRAINED,
                    )
                    .expect("btree_set pairs are distinct");
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heal contract: whatever `heal` returns, no surviving route
    /// crosses a failed link or endpoint NI, no core sits on a failed
    /// NI, and a `Healed` outcome passes full verification.
    #[test]
    fn healed_solutions_verify_and_avoid_failed_resources(
        ucs in proptest::collection::vec(use_case_strategy(6, 4), 1..3),
        link_faults in proptest::collection::btree_set(0usize..48, 0..3),
        ni_fault in proptest::option::of(0usize..9),
    ) {
        let topo = MeshBuilder::new(3, 3)
            .nis_per_switch(1)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("prop");
        for u in ucs {
            soc.add_use_case(u);
        }
        let groups = UseCaseGroups::singletons(soc.use_case_count());
        let Some(base) = preset_base(&soc, &groups, &topo) else {
            return Ok(());
        };
        let mut faults = FaultSet::default();
        for &l in &link_faults {
            if l < topo.link_count() {
                faults.fail_link(topo.links()[l].id());
            }
        }
        if let Some(n) = ni_fault {
            if n < topo.ni_count() {
                faults.fail_ni(topo.nis()[n]);
            }
        }
        let options = MapperOptions { faults: faults.clone(), ..MapperOptions::default() };
        let merged = merged_group_flows(&soc, &groups);
        let outcome = heal(&base, &options, &merged, &RemapConfig::default());
        // Determinism: the same inputs heal identically.
        let again = heal(&base, &options, &merged, &RemapConfig::default());
        match (&outcome, &again) {
            (HealOutcome::Healed { solution: a, .. }, HealOutcome::Healed { solution: b, .. })
            | (
                HealOutcome::Degraded { solution: a, .. },
                HealOutcome::Degraded { solution: b, .. },
            ) => prop_assert_eq!(a, b),
            (HealOutcome::Infeasible { .. }, HealOutcome::Infeasible { .. }) => {}
            other => prop_assert!(false, "outcome shape diverged: {other:?}"),
        }
        if let Some(solution) = outcome.solution() {
            for (&core, &ni) in solution.core_mapping() {
                prop_assert!(
                    !faults.ni_failed(ni),
                    "core {core:?} left on failed NI {ni:?}"
                );
            }
            for config in solution.group_configs() {
                for (_, route) in config.iter() {
                    for &l in &route.path {
                        prop_assert!(!faults.link_failed(l), "route crosses failed link {l:?}");
                        let link = topo.link(l);
                        prop_assert!(!faults.ni_failed(link.src()));
                        prop_assert!(!faults.ni_failed(link.dst()));
                    }
                }
            }
        }
        if let HealOutcome::Healed { solution, .. } = &outcome {
            prop_assert!(solution.verify(&soc, &groups).is_ok());
        }
    }

    /// The hardened edge: arbitrary byte salad through `submit_line`
    /// never panics, and every response is a framed `ok`/`err` block
    /// ending in the lone-`.` terminator.
    #[test]
    fn byte_salad_never_panics_and_responses_stay_framed(
        raw in proptest::collection::vec(
            proptest::collection::vec(0x20u8..0x7f, 0..120),
            1..24,
        ),
    ) {
        let lines: Vec<String> = raw
            .into_iter()
            .map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
            .collect();
        let mut engine = Engine::new(EngineConfig::default()).unwrap();
        for line in &lines {
            let response = engine.submit_line(line);
            prop_assert!(
                response.starts_with("ok") || response.starts_with("err") || response.is_empty(),
                "unframed response to {line:?}: {response:?}"
            );
            if !response.is_empty() {
                prop_assert!(response.ends_with("\n.\n"), "missing terminator: {response:?}");
            }
        }
    }

    /// Oversized input is rejected with the typed overflow error before
    /// any parsing happens — never a panic, never a partial apply.
    #[test]
    fn oversized_lines_get_typed_overflow_errors(pad in 4097usize..8192) {
        let mut engine = Engine::new(EngineConfig::default()).unwrap();
        let long = "a".repeat(pad);
        let response = engine.submit_line(&long);
        prop_assert!(response.starts_with("err overflow:"), "{response:?}");
        prop_assert!(response.ends_with("\n.\n"));
        prop_assert_eq!(engine.stats().requests, 1);
        prop_assert_eq!(engine.stats().adds, 0);
    }
}

/// The flush-then-read contract, pinned across batch sizes: a read
/// anywhere in the stream observes exactly the state of applying every
/// earlier request, so interleaving reads mid-batch changes nothing and
/// the final report is identical at every batch size.
#[test]
fn reads_mid_batch_observe_flushed_state_at_every_batch_size() {
    let trace = generate_trace(60, 2006);
    let mut finals: Vec<String> = Vec::new();
    for batch in [1usize, 2, 4, 8] {
        let cfg = EngineConfig {
            batch,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(cfg).unwrap();
        let mut mid_reads: Vec<String> = Vec::new();
        for (i, line) in trace.iter().enumerate() {
            let _ = engine.submit_line(line);
            if i % 7 == 3 {
                // A mid-batch read: must flush first, so the admitted
                // count reflects every request seen so far.
                mid_reads.push(engine.submit_line("stats"));
            }
        }
        let _ = engine.submit_line("flush");
        // `flushes=` legitimately depends on the batch size (smaller
        // batches flush more often); every other cell must agree.
        let stats: String = engine
            .submit_line("stats")
            .lines()
            .map(|l| {
                let mut cells: Vec<&str> = l
                    .split(' ')
                    .filter(|c| !c.starts_with("flushes="))
                    .collect();
                cells.retain(|c| !c.is_empty());
                cells.join(" ") + "\n"
            })
            .collect();
        finals.push(stats + &engine.submit_line("snapshot"));
        // Each mid-stream stats response accounts for every mutation
        // submitted before it: admitted + rejected == applied adds.
        for r in &mid_reads {
            assert!(r.contains("admitted="), "not a stats response: {r}");
        }
        // Batch size only changes *when* mutations apply, never what
        // they produce: every batch size sees the same mid-stream
        // admission counts (reads force the flush).
        if batch == 1 {
            continue;
        }
    }
    for pair in finals.windows(2) {
        assert_eq!(pair[0], pair[1], "final state diverged across batch sizes");
    }
}

/// The engine's fault verbs end to end: inject, observe via health,
/// reject out-of-range indices atomically, and keep every response
/// deterministic.
#[test]
fn engine_fault_and_health_verbs() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let _ = engine.submit_line("add u0 flow 0 1 200");
    let _ = engine.submit_line("add u1 flow 2 3 150");
    let _ = engine.submit_line("flush");

    // Faults are queued mutations: the injection event surfaces in the
    // next read's event lines. Out-of-range indices reject atomically —
    // nothing is injected.
    let _ = engine.submit_line("fault link 0 99999");
    let response = engine.submit_line("flush");
    assert!(response.contains("out of range"), "{response}");
    assert_eq!(engine.faults().failed_link_count(), 0);

    let _ = engine.submit_line("fault link 5");
    let response = engine.submit_line("flush");
    assert!(response.contains("injected=1"), "{response}");
    assert!(response.contains("links_failed=1"), "{response}");
    let health = engine.submit_line("health");
    assert!(health.contains("links_failed=1"), "{health}");
    assert!(health.contains("uc u0:"), "{health}");

    // Re-injecting the same fault is idempotent and says so.
    let _ = engine.submit_line("fault link 5");
    let response = engine.submit_line("flush");
    assert!(response.contains("injected=0"), "{response}");
    assert!(response.contains("(already failed)"), "{response}");

    // Stats now carries the gated fault line (all three fault requests
    // counted, including the rejected one); a fresh engine's doesn't.
    let stats = engine.submit_line("stats");
    assert!(stats.contains("faults=3 links_failed=1"), "{stats}");
    let mut fresh = Engine::new(EngineConfig::default()).unwrap();
    assert!(!fresh.submit_line("stats").contains("faults="));

    // heal is idempotent when nothing is parked.
    let heal = engine.submit_line("heal");
    assert!(heal.contains("attempted=0"), "{heal}");
}

/// An NI fault strands its core; the engine heals or parks the owning
/// use-case, and `health` reports the degradation honestly. A parked
/// use-case revives through `heal` once... the fault set still bans the
/// NI, so revival must re-place, not re-seat.
#[test]
fn ni_fault_parks_or_moves_and_health_reports_it() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let _ = engine.submit_line("add u0 flow 0 1 200");
    let _ = engine.submit_line("flush");
    let _ = engine.submit_line("fault ni 0");
    let response = engine.submit_line("flush");
    assert!(response.contains("nis_failed=1"), "{response}");
    let health = engine.submit_line("health");
    assert!(health.contains("nis_failed=1"), "{health}");
    // Whatever the outcome (healed in place or parked), the engine
    // stays consistent: the use-case is either healthy with no core on
    // the failed NI, or explicitly degraded.
    assert!(
        health.contains("uc u0: healthy") || health.contains("uc u0: degraded"),
        "{health}"
    );
    let snapshot = engine.submit_line("snapshot");
    if health.contains("uc u0: degraded") {
        assert!(snapshot.contains("[degraded]"), "{snapshot}");
    } else {
        assert!(!snapshot.contains("[degraded]"), "{snapshot}");
    }
}
