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
//! Candidate placements are routed through [`reroute_preset_groups`]
//! and its [`RouteCache`], so a group whose placement
//! signature was already routed is taken from the cache
//! (`route_cache_hits` in [`crate::perf`]) instead of re-routed. A move
//! is priced exactly from the delta alone (the current cost, minus the
//! replaced configs' cost, plus the new configs' cost), and only an
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
use crate::result::MappingSolution;
use crate::seat::{core_weights, groups_touching, heaviest_first, occupant, swap};

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
    let rerouted = preset_twin(soc, groups, options, &greedy)?;
    let mut cache = RouteCache::new(&merged);
    cache.seed(&rerouted);

    let mut cores: Vec<CoreId> = rerouted.core_mapping().keys().copied().collect();
    heaviest_first(&mut cores, &core_weights(&merged));
    cores.truncate(DISPLACEMENT_SCAN_CORES);
    let nis = rerouted.topology().nis().to_vec();

    let rounds = RemapConfig::default().rounds;
    let budget = displacement_eviction_budget();
    let mut evictions: u64 = 0;
    let mut current = rerouted;
    let mut cost = current.comm_cost_bytes_hops();
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
                let delta = reroute_preset_groups(
                    soc,
                    groups,
                    current.topology(),
                    current.spec(),
                    options,
                    &mapping,
                    &affected,
                    &merged,
                    &mut cache,
                );
                // The move's exact cost: the current cost with the
                // re-routed groups' configs replaced.
                let priced = delta.map(|delta| {
                    let replaced: u128 = delta
                        .configs
                        .iter()
                        .map(|(g, _)| current.group_config(*g).cost_bytes_hops())
                        .sum();
                    let added: u128 = delta.configs.iter().map(|(_, c)| c.cost_bytes_hops()).sum();
                    (cost - replaced + added, delta)
                });
                match priced {
                    Ok((moved_cost, delta)) if moved_cost < cost => {
                        current.splice(delta);
                        cost = moved_cost;
                        improved = true;
                        if evicted.is_some() {
                            evictions += 1;
                        }
                        break;
                    }
                    _ => {
                        swap(&mut mapping, a, ni_a);
                    }
                }
            }
        }
        if !improved {
            break 'search;
        }
    }

    let solution = if greedy.comm_cost_bytes_hops() <= cost {
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
    use noc_topology::units::{Bandwidth, Latency};
    use noc_usecase::spec::UseCaseBuilder;

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
}
