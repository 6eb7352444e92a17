//! Differential tests for the mapping-strategy portfolio
//! (`nocmap::strategy`): every strategy's output is checked against a
//! **naive shadow model** that re-derives the TDMA contract from first
//! principles — a per-slot occupancy scan over plain `Vec<bool>` tables,
//! nothing shared with the bit-packed masks or the mapper's own
//! bookkeeping — plus the portfolio's quality and budget invariants:
//!
//! * every strategy's solution passes the shadow scan (no double-booked
//!   `(link, slot)` inside a group, slot indices in range, reservations
//!   sized for the merged bandwidth, stored worst-case latencies equal to
//!   the spec's formula) **and** the real [`verify`] contract;
//! * displacement never costs more than greedy and does not change the
//!   fabric size;
//! * displacement respects its eviction budget;
//! * the route cache is an op-level optimization only: every solution
//!   the always-cached [`refine`] returns is **byte-identical** to a full,
//!   cache-free [`preset_twin`] re-route of its own placement.
//!
//! [`verify`]: noc_multiusecase::map::MappingSolution::verify
//! [`refine`]: noc_multiusecase::map::anneal::refine
//! [`preset_twin`]: noc_multiusecase::map::mapper::preset_twin

use std::collections::BTreeMap;

use noc_multiusecase::map::anneal::{refine, AnnealConfig};
use noc_multiusecase::map::design::FabricKind;
use noc_multiusecase::map::mapper::{map_multi_usecase, preset_twin, Placement};
use noc_multiusecase::map::strategy::{design_with_strategy, StrategyKind, StrategyOutcome};
use noc_multiusecase::map::{MapperOptions, MappingSolution};
use noc_multiusecase::tdma::TdmaSpec;
use noc_multiusecase::topology::units::{Bandwidth, Latency};
use noc_multiusecase::topology::{LinkId, MeshBuilder};
use noc_multiusecase::usecase::spec::{CoreId, Flow, SocSpec, UseCase, UseCaseBuilder};
use noc_multiusecase::usecase::UseCaseGroups;
use proptest::prelude::*;

/// Strategy: a use-case over `cores` cores with 1..=max_flows random
/// flows (distinct pairs, bandwidths in MB/s) — the same generator shape
/// as `tests/proptests.rs`, kept latency-unconstrained so more random
/// instances stay feasible on small fabrics.
fn use_case_strategy(cores: u32, max_flows: usize) -> impl Strategy<Value = UseCase> {
    let pair = (0..cores, 0..cores).prop_filter("no self flows", |(a, b)| a != b);
    proptest::collection::btree_set(pair, 1..=max_flows).prop_flat_map(move |pairs| {
        let n = pairs.len();
        (Just(pairs), proptest::collection::vec(1u64..800, n)).prop_map(|(pairs, bws)| {
            let mut b = UseCaseBuilder::new("prop");
            for ((src, dst), bw) in pairs.into_iter().zip(bws) {
                b.add_flow(
                    Flow::new(
                        CoreId::new(src),
                        CoreId::new(dst),
                        Bandwidth::from_mbps(bw),
                        Latency::UNCONSTRAINED,
                    )
                    .expect("strategy yields valid flows"),
                )
                .expect("btree_set pairs are distinct");
            }
            b.build()
        })
    })
}

fn soc_from(ucs: Vec<UseCase>) -> SocSpec {
    let mut soc = SocSpec::new("prop");
    for uc in ucs {
        soc.add_use_case(uc);
    }
    soc
}

/// The naive shadow model: replays every group configuration into plain
/// per-link `Vec<bool>` slot tables (slot `base + i` on the `i`-th link
/// of the path, modulo the wheel) and fails on any double booking —
/// independently of `NetworkSlots`' word-packed masks. Also re-derives
/// the per-route contract: indices in range, reservation sized for the
/// route's bandwidth, stored worst-case latency equal to the spec
/// formula.
fn shadow_scan(sol: &MappingSolution) -> Result<(), String> {
    let spec = sol.spec();
    let slots = spec.slots();
    for (g, config) in sol.group_configs().iter().enumerate() {
        let mut tables: BTreeMap<LinkId, Vec<bool>> = BTreeMap::new();
        for (&(src, dst), route) in config.iter() {
            if route.path.is_empty() {
                return Err(format!("group {g} pair {src}->{dst}: empty path"));
            }
            if route.slot_count() < spec.slots_for_bandwidth(route.bandwidth) {
                return Err(format!(
                    "group {g} pair {src}->{dst}: {} slots cannot carry {}",
                    route.slot_count(),
                    route.bandwidth
                ));
            }
            if route.worst_case_latency != spec.worst_case_latency(&route.base_slots, route.hops())
            {
                return Err(format!(
                    "group {g} pair {src}->{dst}: stored worst-case latency diverges \
                     from the spec formula"
                ));
            }
            for &base in &route.base_slots {
                if base >= slots {
                    return Err(format!(
                        "group {g} pair {src}->{dst}: base slot {base} >= S = {slots}"
                    ));
                }
                for (i, &link) in route.path.iter().enumerate() {
                    let table = tables.entry(link).or_insert_with(|| vec![false; slots]);
                    let slot = (base + i) % slots;
                    if table[slot] {
                        return Err(format!(
                            "group {g} pair {src}->{dst}: slot {slot} on {link:?} \
                             double-booked"
                        ));
                    }
                    table[slot] = true;
                }
            }
        }
    }
    Ok(())
}

fn run_strategy(soc: &SocSpec, groups: &UseCaseGroups, kind: StrategyKind) -> StrategyOutcome {
    design_with_strategy(
        soc,
        groups,
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        16,
        FabricKind::Mesh,
        kind,
    )
    .expect("feasible for greedy stays feasible for the portfolio")
}

proptest! {
    // Each case runs greedy + displacement; keep the case count modest
    // so the suite stays fast in debug CI runs.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strategy of the portfolio satisfies both the naive shadow
    /// model and the real verifier, on the same fabric, within its
    /// budget — and displacement never loses to greedy.
    #[test]
    fn portfolio_outputs_are_valid_and_ordered(
        ucs in proptest::collection::vec(use_case_strategy(5, 6), 1..3),
    ) {
        let soc = soc_from(ucs);
        let groups = UseCaseGroups::singletons(soc.use_case_count());
        // Skip instances the greedy baseline cannot map at all; the
        // refinement strategies only re-place on greedy's fabric.
        let greedy = match design_with_strategy(
            &soc,
            &groups,
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
            16,
            FabricKind::Mesh,
            StrategyKind::Greedy,
        ) {
            Ok(outcome) => outcome,
            Err(_) => return Ok(()),
        };
        let greedy_cost = greedy.solution.comm_cost_bytes_hops();
        for kind in StrategyKind::ALL {
            let outcome = run_strategy(&soc, &groups, kind);
            prop_assert!(
                shadow_scan(&outcome.solution).is_ok(),
                "{kind}: {}",
                shadow_scan(&outcome.solution).unwrap_err()
            );
            prop_assert!(outcome.solution.verify(&soc, &groups).is_ok(), "{kind} fails verify");
            prop_assert_eq!(
                outcome.solution.switch_count(),
                greedy.solution.switch_count(),
                "{} changed the fabric size", kind
            );
            prop_assert!(
                outcome.evictions <= outcome.eviction_budget || outcome.eviction_budget == 0,
                "{} blew its eviction budget ({} > {})",
                kind, outcome.evictions, outcome.eviction_budget
            );
            match kind {
                // The greedy outcome reports no refinement work at all.
                StrategyKind::Greedy => prop_assert_eq!(
                    (outcome.evictions, outcome.eviction_budget),
                    (0, 0)
                ),
                // Displacement keeps the better of greedy and its search.
                StrategyKind::Displacement => prop_assert!(
                    outcome.solution.comm_cost_bytes_hops() <= greedy_cost,
                    "displacement ({}) lost to greedy ({greedy_cost})",
                    outcome.solution.comm_cost_bytes_hops()
                ),
            }
        }
    }

    /// Strategies are pure functions of their inputs: re-running one on
    /// the same instance reproduces the outcome byte for byte.
    #[test]
    fn portfolio_is_deterministic(
        ucs in proptest::collection::vec(use_case_strategy(5, 5), 1..3),
    ) {
        let soc = soc_from(ucs);
        let groups = UseCaseGroups::singletons(soc.use_case_count());
        if design_with_strategy(
            &soc,
            &groups,
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
            16,
            FabricKind::Mesh,
            StrategyKind::Greedy,
        )
        .is_err()
        {
            return Ok(());
        }
        for kind in StrategyKind::ALL {
            let a = run_strategy(&soc, &groups, kind);
            let b = run_strategy(&soc, &groups, kind);
            prop_assert_eq!(a, b, "{} is not deterministic", kind);
        }
    }

    /// The route cache never changes results: every solution `refine`
    /// returns is either its start, kept, or byte-identical to a full
    /// preset re-route of its own placement, so no config spliced from
    /// the cache differs from a fresh route. The instances are mapped on
    /// a fixed 3×3 mesh (the smallest fabric a design picks for them is
    /// often one switch, where every placement costs the same), from the
    /// unified greedy placement and from a round-robin one that ignores
    /// affinity, so the walk has moves worth accepting.
    #[test]
    fn cached_refinement_is_byte_identical(
        ucs in proptest::collection::vec(use_case_strategy(5, 5), 1..3),
        seed in 0u64..1000,
    ) {
        let soc = soc_from(ucs);
        let groups = UseCaseGroups::singletons(soc.use_case_count());
        let opts = MapperOptions::default();
        let mesh = MeshBuilder::new(3, 3).nis_per_switch(1).build().expect("3x3 mesh");
        let cfg = AnnealConfig {
            iterations: 20,
            chains: 2,
            seed,
            ..Default::default()
        };
        for placement in [Placement::Unified, Placement::RoundRobin] {
            let start = MapperOptions {
                placement,
                ..opts.clone()
            };
            let Ok(initial) =
                map_multi_usecase(&soc, &groups, mesh.topology(), TdmaSpec::paper_default(), &start)
            else {
                continue;
            };
            let refined = refine(&soc, &groups, &opts, &initial, &cfg).expect("refine succeeds");
            if refined == initial {
                continue;
            }
            let full = preset_twin(&soc, &groups, &opts, &refined).expect("refined re-routes");
            prop_assert_eq!(refined, full);
        }
    }
}
