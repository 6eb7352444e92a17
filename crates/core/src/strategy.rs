//! The mapping-strategy portfolio: greedy, displacement local search,
//! and bounded branch-and-bound behind one selector.
//!
//! The paper's flow is greedy-plus-refinement only; production use wants
//! to trade solution quality against mapping latency per spec (the
//! classic resource-allocator ladder, modeled on the PDCCH allocator's
//! greedy / shuffle-with-displacement / exhaustive-search comparison). Every
//! strategy here starts from the same greedy design
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
//!   conflict probes are the `combined_occupancy` word folds of PR 6.
//! * [`StrategyKind::BranchAndBound`] — depth-first search over core →
//!   NI assignments that prunes on an admissible lower bound (each
//!   merged pair costs at least `bandwidth × shortest NI distance`) and
//!   stops after a deterministic node budget, keeping the greedy
//!   solution as the starting incumbent — so its cost can never exceed
//!   greedy's.
//!
//! All three share the [`RouteCache`]: candidate placements are routed
//! through [`reroute_preset_groups`], so a group whose placement
//! signature was already routed is spliced from the cache
//! (`route_cache_hits` in [`crate::perf`]) instead of re-routed.
//! Everything is a pure function of its inputs — no RNG, no wall clock —
//! so strategy outputs are byte-identical at any `noc-par` width
//! (`tests/parallel_determinism.rs`) and the `frontier` suite's table is
//! goldenable. The differential contract (validity via a naive per-slot
//! shadow scan, branch-and-bound ≤ greedy, eviction budgets respected)
//! is pinned by `tests/strategy_differential.rs`; see
//! `docs/STRATEGIES.md` for the full writeup.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use noc_tdma::TdmaSpec;
use noc_topology::NodeId;
use noc_usecase::spec::{CoreId, SocSpec};
use noc_usecase::UseCaseGroups;

use crate::design::{design_smallest_fabric, FabricKind};
use crate::error::MapError;
use crate::mapper::{preset_twin, reroute_preset_groups, MapperOptions, RouteCache};
use crate::merge::{merged_group_flows, MergedFlow};
use crate::remap::RemapConfig;
use crate::result::MappingSolution;

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
    /// Bounded branch-and-bound seeded with the greedy incumbent.
    BranchAndBound,
}

impl StrategyKind {
    /// Every strategy, in portfolio (and frontier-table) order.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Greedy,
        StrategyKind::Displacement,
        StrategyKind::BranchAndBound,
    ];

    /// The spec-grammar token (`stage map <token>`).
    pub fn token(self) -> &'static str {
        match self {
            StrategyKind::Greedy => "greedy",
            StrategyKind::Displacement => "displacement",
            StrategyKind::BranchAndBound => "bnb",
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
    /// ([`displacement_eviction_budget`]); 0 for other strategies.
    pub eviction_budget: u64,
    /// Branch-and-bound only: search nodes expanded. Always `<=`
    /// [`BNB_NODE_BUDGET`].
    pub nodes_expanded: u64,
}

/// Deterministic node budget of [`StrategyKind::BranchAndBound`]: the
/// depth-first search stops expanding after this many core→NI assignment
/// nodes, whatever the instance size — bounded latency by construction.
pub const BNB_NODE_BUDGET: u64 = 3000;

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
/// the other strategies keep its fabric and only re-place/re-route, so
/// `switch_count` is identical across the portfolio and
/// `comm_cost_bytes_hops` is `<=` greedy's for every strategy.
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
            nodes_expanded: 0,
        }),
        StrategyKind::Displacement => displacement_search(soc, groups, options, greedy),
        StrategyKind::BranchAndBound => branch_and_bound(soc, groups, options, greedy),
    }
}

/// Total merged demand per core (bytes/s summed over every group pair it
/// appears in) — the deterministic priority both refinement strategies
/// order cores by.
fn core_weights(merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>]) -> BTreeMap<CoreId, u128> {
    let mut weights: BTreeMap<CoreId, u128> = BTreeMap::new();
    for flows in merged {
        for (&(src, dst), flow) in flows {
            let bw = flow.bandwidth.as_bytes_per_sec() as u128;
            *weights.entry(src).or_default() += bw;
            *weights.entry(dst).or_default() += bw;
        }
    }
    weights
}

fn displacement_search(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    options: &MapperOptions,
    greedy: MappingSolution,
) -> Result<StrategyOutcome, MapError> {
    let merged = merged_group_flows(soc, groups);
    let group_count = groups.group_count();
    let rerouted = preset_twin(soc, groups, options, &greedy)?;
    let mut cache = RouteCache::new(&merged);
    cache.seed(&rerouted);

    let weights = core_weights(&merged);
    let mut cores: Vec<CoreId> = rerouted.core_mapping().keys().copied().collect();
    cores.sort_by_key(|&c| (Reverse(weights.get(&c).copied().unwrap_or(0)), c));
    cores.truncate(DISPLACEMENT_SCAN_CORES);
    let nis = rerouted.topology().nis().to_vec();

    let rounds = RemapConfig::default().rounds;
    let budget = displacement_eviction_budget();
    let mut evictions: u64 = 0;
    let mut current = rerouted;
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
                let evicted = mapping
                    .iter()
                    .find(|&(_, &ni)| ni == target)
                    .map(|(&core, _)| core);
                if evicted.is_some() && evictions >= budget {
                    continue;
                }
                mapping.insert(a, target);
                if let Some(b) = evicted {
                    mapping.insert(b, ni_a);
                }
                let mut affected = vec![false; group_count];
                for (g, flows) in merged.iter().enumerate() {
                    let touches = |core: CoreId| flows.keys().any(|&(s, d)| s == core || d == core);
                    if touches(a) || evicted.is_some_and(touches) {
                        affected[g] = true;
                    }
                }
                let candidate = reroute_preset_groups(
                    soc, groups, &current, options, &mapping, &affected, &merged, &mut cache,
                );
                match candidate {
                    Ok(candidate)
                        if candidate.comm_cost_bytes_hops() < current.comm_cost_bytes_hops() =>
                    {
                        current = candidate;
                        improved = true;
                        if evicted.is_some() {
                            evictions += 1;
                        }
                        break;
                    }
                    _ => {
                        mapping.insert(a, ni_a);
                        if let Some(b) = evicted {
                            mapping.insert(b, target);
                        }
                    }
                }
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
        nodes_expanded: 0,
    })
}

/// Search state of the bounded branch-and-bound.
struct Bnb<'a> {
    soc: &'a SocSpec,
    groups: &'a UseCaseGroups,
    options: &'a MapperOptions,
    merged: &'a [BTreeMap<(CoreId, CoreId), MergedFlow>],
    /// Preset-pure splice base for leaf evaluation (all groups affected,
    /// so nothing is ever spliced from it — it only provides topology and
    /// spec).
    base: &'a MappingSolution,
    cores: &'a [CoreId],
    nis: &'a [NodeId],
    /// Every `(src, dst, bytes/s)` merged pair, once per group it costs
    /// in.
    pairs: &'a [(CoreId, CoreId, u128)],
    dist: &'a BTreeMap<(NodeId, NodeId), u128>,
    min_from: &'a BTreeMap<NodeId, u128>,
    global_min: u128,
    all_groups: Vec<bool>,
    cache: RouteCache,
    assign: BTreeMap<CoreId, NodeId>,
    used: BTreeSet<NodeId>,
    incumbent: MappingSolution,
    incumbent_cost: u128,
    nodes: u64,
}

impl Bnb<'_> {
    /// Admissible lower bound of any completion of the current partial
    /// assignment: every merged pair costs at least `bandwidth × hops` of
    /// the shortest NI-to-NI distance compatible with what is placed —
    /// the worst-case-analysis floor a routed solution can never beat
    /// (routes are link paths, so `hops >= hop_distance`).
    fn lower_bound(&self) -> u128 {
        self.pairs
            .iter()
            .map(|&(src, dst, bw)| {
                let hops = match (self.assign.get(&src), self.assign.get(&dst)) {
                    (Some(&a), Some(&b)) => self.dist.get(&(a, b)).copied().unwrap_or(0),
                    (Some(&a), None) | (None, Some(&a)) => {
                        self.min_from.get(&a).copied().unwrap_or(0)
                    }
                    (None, None) => self.global_min,
                };
                bw * hops
            })
            .sum()
    }

    /// Deterministic value ordering for core `c`: NIs scored by the bound
    /// increment against already-placed partners, so the first dives are
    /// greedy-like and tight incumbents arrive early.
    fn score(&self, c: CoreId, target: NodeId) -> u128 {
        self.pairs
            .iter()
            .filter(|&&(src, dst, _)| src == c || dst == c)
            .map(|&(src, dst, bw)| {
                let partner = if src == c { dst } else { src };
                match self.assign.get(&partner) {
                    Some(&p) => {
                        let key = if src == c { (target, p) } else { (p, target) };
                        bw * self.dist.get(&key).copied().unwrap_or(0)
                    }
                    None => bw * self.min_from.get(&target).copied().unwrap_or(0),
                }
            })
            .sum()
    }

    fn dfs(&mut self, depth: usize) {
        if depth == self.cores.len() {
            let candidate = reroute_preset_groups(
                self.soc,
                self.groups,
                self.base,
                self.options,
                &self.assign,
                &self.all_groups,
                self.merged,
                &mut self.cache,
            );
            if let Ok(candidate) = candidate {
                let cost = candidate.comm_cost_bytes_hops();
                if cost < self.incumbent_cost {
                    self.incumbent = candidate;
                    self.incumbent_cost = cost;
                }
            }
            return;
        }
        let c = self.cores[depth];
        let mut candidates: Vec<(u128, NodeId)> = self
            .nis
            .iter()
            .filter(|t| !self.used.contains(t))
            .map(|&t| (self.score(c, t), t))
            .collect();
        candidates.sort_unstable();
        for (_, target) in candidates {
            if self.nodes >= BNB_NODE_BUDGET {
                return;
            }
            self.nodes += 1;
            self.assign.insert(c, target);
            self.used.insert(target);
            if self.lower_bound() < self.incumbent_cost {
                self.dfs(depth + 1);
            }
            self.assign.remove(&c);
            self.used.remove(&target);
        }
    }
}

fn branch_and_bound(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    options: &MapperOptions,
    greedy: MappingSolution,
) -> Result<StrategyOutcome, MapError> {
    let merged = merged_group_flows(soc, groups);
    let rerouted = preset_twin(soc, groups, options, &greedy)?;
    let mut cache = RouteCache::new(&merged);
    cache.seed(&rerouted);

    let topo = rerouted.topology().clone();
    let nis = topo.nis().to_vec();
    let mut dist: BTreeMap<(NodeId, NodeId), u128> = BTreeMap::new();
    let mut min_from: BTreeMap<NodeId, u128> = BTreeMap::new();
    let mut global_min = u128::MAX;
    for &a in &nis {
        let mut best = u128::MAX;
        for &b in &nis {
            if a == b {
                continue;
            }
            let d = topo.hop_distance(a, b).unwrap_or(0) as u128;
            dist.insert((a, b), d);
            best = best.min(d);
            global_min = global_min.min(d);
        }
        min_from.insert(a, if best == u128::MAX { 0 } else { best });
    }
    if global_min == u128::MAX {
        global_min = 0;
    }

    let pairs: Vec<(CoreId, CoreId, u128)> = merged
        .iter()
        .flat_map(|flows| {
            flows
                .iter()
                .map(|(&(s, d), f)| (s, d, f.bandwidth.as_bytes_per_sec() as u128))
        })
        .collect();
    let weights = core_weights(&merged);
    let mut cores: Vec<CoreId> = rerouted.core_mapping().keys().copied().collect();
    cores.sort_by_key(|&c| (Reverse(weights.get(&c).copied().unwrap_or(0)), c));

    let (incumbent, incumbent_cost) =
        if greedy.comm_cost_bytes_hops() <= rerouted.comm_cost_bytes_hops() {
            let cost = greedy.comm_cost_bytes_hops();
            (greedy, cost)
        } else {
            let cost = rerouted.comm_cost_bytes_hops();
            (rerouted.clone(), cost)
        };

    let mut bnb = Bnb {
        soc,
        groups,
        options,
        merged: &merged,
        base: &rerouted,
        cores: &cores,
        nis: &nis,
        pairs: &pairs,
        dist: &dist,
        min_from: &min_from,
        global_min,
        all_groups: vec![true; groups.group_count()],
        cache,
        assign: BTreeMap::new(),
        used: BTreeSet::new(),
        incumbent,
        incumbent_cost,
        nodes: 0,
    };
    bnb.dfs(0);
    Ok(StrategyOutcome {
        solution: bnb.incumbent,
        evictions: 0,
        eviction_budget: 0,
        nodes_expanded: bnb.nodes,
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
        assert_eq!(StrategyKind::BranchAndBound.to_string(), "bnb");
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
        assert_eq!((outcome.evictions, outcome.nodes_expanded), (0, 0));
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
        for kind in [StrategyKind::Displacement, StrategyKind::BranchAndBound] {
            let outcome =
                design_with_strategy(&soc, &groups, spec, &opts, 64, FabricKind::Mesh, kind)
                    .unwrap();
            assert!(
                outcome.solution.comm_cost_bytes_hops() <= greedy.solution.comm_cost_bytes_hops(),
                "{kind} lost to greedy"
            );
            assert_eq!(
                outcome.solution.switch_count(),
                greedy.solution.switch_count()
            );
            outcome.solution.verify(&soc, &groups).unwrap();
            assert!(outcome.evictions <= outcome.eviction_budget || outcome.eviction_budget == 0);
            assert!(outcome.nodes_expanded <= BNB_NODE_BUDGET);
        }
    }
}
