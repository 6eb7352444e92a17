//! The mapping-strategy portfolio: greedy and displacement local search
//! behind one selector.
//!
//! The paper's flow is greedy-plus-refinement only; production use wants
//! to trade solution quality against mapping latency per spec (the
//! classic resource-allocator ladder, modeled on the PDCCH allocator's
//! greedy / shuffle-with-displacement comparison). Every strategy here
//! starts from the same greedy design
//! ([`design_smallest_fabric`]) so the fabric size is identical across
//! the portfolio and quality differences show up purely as communication
//! cost ([`MappingSolution::comm_cost_bytes_hops`]):
//!
//! * [`StrategyKind::Greedy`] — the existing path, returned unchanged
//!   (byte- and op-identical to calling [`design_smallest_fabric`]).
//! * [`StrategyKind::Displacement`] — deterministic first-improvement
//!   local search over core re-placements: move a core to a better NI
//!   and, when the NI is occupied, **evict and re-place the blocking
//!   core** — under the move budget of [`RemapConfig`], counting each
//!   eviction. Candidates are evaluated by delta re-routes whose slot
//!   conflict probes are the `combined_occupancy` word folds. The move
//!   itself (weight order, swap, touched groups) is the one in
//!   `seat.rs` that admission, annealing and heal also make.
//!
//! A move improves only when the configs it re-routes cost less than
//! the configs they replace. Before routing a move, the search bounds
//! it: Σ bandwidth × surviving hop distance over the merged flows of
//! the groups the move touches, read from an NI × NI hop table built
//! with one BFS per NI per search (`seat::hop_bound`). No route is
//! shorter than that distance, so a move whose bound reaches the
//! replaced cost is rolled back unrouted; the gate skips only moves the
//! exact pricing would reject, and changes no outcome. The rest are
//! routed through [`reroute_preset_groups`] and its [`RouteCache`],
//! priced exactly from the delta alone (the replaced configs' cost,
//! kept per group, against the new configs' cost), and only an
//! improving move is spliced into the current solution.
//! Everything is a pure function of its inputs — no RNG, no wall clock —
//! so strategy outputs are byte-identical at any `noc-par` width
//! (`tests/parallel_determinism.rs`) and the `frontier` suite's table is
//! goldenable. The differential contract (validity via a naive per-slot
//! shadow scan, displacement ≤ greedy, eviction budgets respected) is
//! pinned by `tests/strategy_differential.rs`; see
//! `docs/STRATEGIES.md` for the full writeup.

use std::fmt;

use noc_tdma::TdmaSpec;
use noc_usecase::spec::{CoreId, SocSpec};
use noc_usecase::UseCaseGroups;

use crate::design::{design_smallest_fabric, FabricKind};
use crate::error::MapError;
use crate::mapper::{preset_twin, reroute_preset_groups, MapperOptions, RouteCache};
use crate::merge::merged_group_flows;
use crate::remap::RemapConfig;
use crate::result::{GroupConfig, MappingSolution};
use crate::seat::{
    core_weights, groups_touching, heaviest_first, hop_bound, occupant, swap, HopTable,
};

/// Which mapping strategy a flow (or the `frontier` suite) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum StrategyKind {
    /// The paper's greedy construction (plus whatever refinement stages
    /// the flow composes after it). The default — flows that do not name
    /// a strategy behave exactly as before.
    #[default]
    Greedy,
    /// Displacement local search on top of the greedy solution.
    Displacement,
}

impl StrategyKind {
    /// Every strategy, in portfolio (and frontier-table) order.
    pub const ALL: [StrategyKind; 2] = [StrategyKind::Greedy, StrategyKind::Displacement];

    /// The spec-grammar token (`stage map <token>`).
    pub fn token(self) -> &'static str {
        match self {
            StrategyKind::Greedy => "greedy",
            StrategyKind::Displacement => "displacement",
        }
    }

    /// Parses a spec-grammar token ([`Self::token`]).
    pub fn parse(token: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.token() == token)
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A solved strategy run: the solution plus the strategy's own work
/// accounting (deterministic, so the differential tests can pin budget
/// compliance and the frontier table can print it).
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The best solution the strategy found.
    pub solution: MappingSolution,
    /// Displacement only: cores evicted from an occupied NI and
    /// re-placed. Always `<=` [`Self::eviction_budget`].
    pub evictions: u64,
    /// Displacement only: the move budget in force
    /// ([`displacement_eviction_budget`]); 0 for greedy.
    pub eviction_budget: u64,
}

/// Scan cap of [`StrategyKind::Displacement`]: only the top-N cores by
/// total merged bandwidth are considered for re-placement each round
/// (moving a heavy core is where the cost is; scanning every core of a
/// big design would make the strategy's latency quadratic for tail-end
/// gains).
pub const DISPLACEMENT_SCAN_CORES: usize = 8;

/// The displacement move budget, borrowed from [`RemapConfig`]'s default
/// hill-climb semantics: at most `max_moved_cores × rounds` evictions
/// total, in at most `rounds` scan rounds.
pub fn displacement_eviction_budget() -> u64 {
    let cfg = RemapConfig::default();
    (cfg.max_moved_cores * cfg.rounds) as u64
}

/// Designs the smallest fabric greedily, then refines the mapping with
/// the selected strategy on that fabric. [`StrategyKind::Greedy`]
/// returns the greedy design unchanged (same bytes, same op counts);
/// displacement keeps its fabric and only re-places/re-routes, so
/// `switch_count` is identical across the portfolio and
/// `comm_cost_bytes_hops` is `<=` greedy's for both strategies.
///
/// # Errors
///
/// As [`design_smallest_fabric`]; the refinement phases themselves only
/// reject candidates, never fail the design.
pub fn design_with_strategy(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    spec: TdmaSpec,
    options: &MapperOptions,
    max_switches: usize,
    fabric: FabricKind,
    kind: StrategyKind,
) -> Result<StrategyOutcome, MapError> {
    let greedy = design_smallest_fabric(soc, groups, spec, options, max_switches, fabric)?;
    match kind {
        StrategyKind::Greedy => Ok(StrategyOutcome {
            solution: greedy,
            evictions: 0,
            eviction_budget: 0,
        }),
        StrategyKind::Displacement => displacement_search(soc, groups, options, greedy),
    }
}

fn displacement_search(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    options: &MapperOptions,
    greedy: MappingSolution,
) -> Result<StrategyOutcome, MapError> {
    let merged = merged_group_flows(soc, groups);
    let mut current = preset_twin(options, &greedy, &merged)?;
    let mut cache = RouteCache::new(&merged);
    let hops = HopTable::new(current.topology().degraded(&options.faults));

    let mut cores: Vec<CoreId> = current.core_mapping().keys().copied().collect();
    heaviest_first(&mut cores, &core_weights(&merged));
    cores.truncate(DISPLACEMENT_SCAN_CORES);
    let nis = current.topology().nis().to_vec();

    let rounds = RemapConfig::default().rounds;
    let budget = displacement_eviction_budget();
    let mut evictions: u64 = 0;
    let mut group_cost: Vec<u128> = current
        .group_configs()
        .iter()
        .map(GroupConfig::cost_bytes_hops)
        .collect();
    let mut mapping = current.core_mapping().clone();

    'search: for _round in 0..rounds {
        let mut improved = false;
        for &a in &cores {
            let ni_a = mapping[&a];
            for &target in &nis {
                if target == ni_a {
                    continue;
                }
                // The blocking allocation, if the target NI is occupied:
                // evict it onto the NI `a` vacates (one budgeted move).
                let evicted = occupant(&mapping, target);
                if evicted.is_some() && evictions >= budget {
                    continue;
                }
                swap(&mut mapping, a, target);
                let affected = groups_touching(&merged, |c| c == a || Some(c) == evicted);
                let replaced: u128 = group_cost
                    .iter()
                    .zip(&affected)
                    .filter(|&(_, &touched)| touched)
                    .map(|(cost, _)| cost)
                    .sum();
                // The move improves only if its re-routed configs cost
                // less than the ones they replace, and they cannot cost
                // less than the hop bound: below it, route the move.
                let may_improve = hop_bound(&hops, &merged, &affected, &mapping)
                    .is_some_and(|bound| bound < replaced);
                #[cfg(test)]
                let may_improve = may_improve || tests::ungated();
                let delta = may_improve.then(|| {
                    reroute_preset_groups(
                        current.topology(),
                        current.spec(),
                        options,
                        &mapping,
                        &affected,
                        &merged,
                        &mut cache,
                    )
                });
                if let Some(Ok(delta)) = delta {
                    let added: u128 = delta.configs.iter().map(|(_, c)| c.cost_bytes_hops()).sum();
                    if added < replaced {
                        for (g, config) in &delta.configs {
                            group_cost[*g] = config.cost_bytes_hops();
                        }
                        current.splice(delta);
                        improved = true;
                        if evicted.is_some() {
                            evictions += 1;
                        }
                        break;
                    }
                }
                swap(&mut mapping, a, ni_a);
            }
        }
        if !improved {
            break 'search;
        }
    }

    let solution = if greedy.comm_cost_bytes_hops() <= current.comm_cost_bytes_hops() {
        greedy
    } else {
        current
    };
    Ok(StrategyOutcome {
        solution,
        evictions,
        eviction_budget: budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::map_multi_usecase;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_topology::MeshBuilder;
    use noc_usecase::spec::UseCaseBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Set while a test wants every candidate move routed, bound or not.
        static UNGATED: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn ungated() -> bool {
        UNGATED.with(Cell::get)
    }

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn chatty_soc() -> SocSpec {
        let mut soc = SocSpec::new("chatty");
        soc.add_use_case(
            UseCaseBuilder::new("u")
                .flow(
                    c(0),
                    c(1),
                    Bandwidth::from_mbps(500),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(
                    c(2),
                    c(3),
                    Bandwidth::from_mbps(500),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(c(0), c(2), Bandwidth::from_mbps(5), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc
    }

    #[test]
    fn token_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.token()), Some(kind));
        }
        assert_eq!(StrategyKind::parse("annealed"), None);
        assert_eq!(StrategyKind::default(), StrategyKind::Greedy);
        assert_eq!(StrategyKind::Displacement.to_string(), "displacement");
        assert_eq!(StrategyKind::parse("bnb"), None);
    }

    #[test]
    fn greedy_outcome_is_the_plain_design() {
        let soc = chatty_soc();
        let groups = UseCaseGroups::singletons(1);
        let opts = MapperOptions::default();
        let spec = TdmaSpec::paper_default();
        let plain =
            design_smallest_fabric(&soc, &groups, spec, &opts, 64, FabricKind::Mesh).unwrap();
        let outcome = design_with_strategy(
            &soc,
            &groups,
            spec,
            &opts,
            64,
            FabricKind::Mesh,
            StrategyKind::Greedy,
        )
        .unwrap();
        assert_eq!(outcome.solution, plain);
        assert_eq!((outcome.evictions, outcome.eviction_budget), (0, 0));
    }

    #[test]
    fn portfolio_never_loses_to_greedy() {
        let soc = chatty_soc();
        let groups = UseCaseGroups::singletons(1);
        let opts = MapperOptions::default();
        let spec = TdmaSpec::paper_default();
        let greedy = design_with_strategy(
            &soc,
            &groups,
            spec,
            &opts,
            64,
            FabricKind::Mesh,
            StrategyKind::Greedy,
        )
        .unwrap();
        let outcome = design_with_strategy(
            &soc,
            &groups,
            spec,
            &opts,
            64,
            FabricKind::Mesh,
            StrategyKind::Displacement,
        )
        .unwrap();
        assert!(
            outcome.solution.comm_cost_bytes_hops() <= greedy.solution.comm_cost_bytes_hops(),
            "displacement lost to greedy"
        );
        assert_eq!(
            outcome.solution.switch_count(),
            greedy.solution.switch_count()
        );
        outcome.solution.verify(&soc, &groups).unwrap();
        assert!(outcome.evictions <= outcome.eviction_budget);
    }

    /// The hop bound only skips moves that could not improve: on random
    /// SoCs over intact and faulted meshes, with latency bounds,
    /// displacement returns the same outcome with every candidate
    /// routed, and the gate skips most of those routes.
    #[test]
    fn the_hop_bound_gate_changes_no_outcome() {
        let spec = TdmaSpec::paper_default();
        let (mut searched, mut faulted, mut improved) = (0, 0, 0);
        let (mut gated_routes, mut ungated_routes) = (0, 0);
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (rows, cols) = (rng.gen_range(2..=3u16), rng.gen_range(2..=4u16));
            let topo = MeshBuilder::new(rows, cols)
                .nis_per_switch(rng.gen_range(1..=2u16))
                .build()
                .unwrap()
                .into_topology();
            let cores = rng.gen_range(4..=topo.ni_count().min(12) as u32);
            let mut soc = SocSpec::new("random");
            let use_cases = rng.gen_range(1..=5usize);
            for u in 0..use_cases {
                let mut b = UseCaseBuilder::new(format!("u{u}"));
                let mut pairs = BTreeSet::new();
                while pairs.len() < rng.gen_range(1..=5usize) {
                    let (src, dst) = (rng.gen_range(0..cores), rng.gen_range(0..cores));
                    if src != dst && pairs.insert((src, dst)) {
                        let latency = if rng.gen_bool(0.2) {
                            Latency::from_ns(rng.gen_range(6..40u64))
                        } else {
                            Latency::UNCONSTRAINED
                        };
                        let mbps = rng.gen_range(10..900u64);
                        b = b
                            .flow(c(src), c(dst), Bandwidth::from_mbps(mbps), latency)
                            .unwrap();
                    }
                }
                soc.add_use_case(b.build());
            }
            let groups = if rng.gen_bool(0.25) {
                UseCaseGroups::single_group(use_cases)
            } else {
                UseCaseGroups::singletons(use_cases)
            };
            let mut options = MapperOptions::default();
            if rng.gen_bool(0.5) {
                for _ in 0..rng.gen_range(1..=3) {
                    let link = topo.links()[rng.gen_range(0..topo.link_count())].id();
                    options.faults.fail_link(link);
                }
                if rng.gen_bool(0.3) {
                    options
                        .faults
                        .fail_ni(topo.nis()[rng.gen_range(0..topo.ni_count())]);
                }
            }
            let Ok(greedy) = map_multi_usecase(&soc, &groups, &topo, spec, &options) else {
                continue;
            };
            let search = |ungated: bool| {
                UNGATED.with(|u| u.set(ungated));
                let before = crate::perf::snapshot();
                let outcome = displacement_search(&soc, &groups, &options, greedy.clone());
                UNGATED.with(|u| u.set(false));
                (
                    outcome,
                    crate::perf::snapshot().since(&before).groups_rerouted,
                )
            };
            let (gated, routed) = search(false);
            let (ungated, routed_ungated) = search(true);
            assert_eq!(gated, ungated, "seed {seed}: the gate changed the outcome");
            let cost = gated.as_ref().map(|o| o.solution.comm_cost_bytes_hops());
            improved += usize::from(cost.is_ok_and(|cost| cost < greedy.comm_cost_bytes_hops()));
            assert!(routed <= routed_ungated, "seed {seed}");
            gated_routes += routed;
            ungated_routes += routed_ungated;
            searched += 1;
            faulted += usize::from(!options.faults.is_empty());
        }
        assert!(
            searched >= 40 && faulted >= 16 && improved >= 10,
            "{searched} searched, {faulted} faulted, {improved} improved"
        );
        assert!(
            gated_routes * 2 < ungated_routes,
            "the gate skipped little: {gated_routes} of {ungated_routes} group re-routes"
        );
    }
}
