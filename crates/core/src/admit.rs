//! Incremental use-case admission: place one new (or re-specified)
//! group into an existing mapping without re-solving from scratch.
//!
//! This is the core entry point behind the online mapping service
//! (`noc-service`, the `nocd` daemon). A batch flow maps all groups at
//! once; a long-running daemon instead receives use-cases one at a time
//! and must keep the network mapped with **bounded reconfiguration
//! cost**. [`admit_group`] does exactly that:
//!
//! 1. **Greedy fast path** — place the group's unplaced cores on free
//!    NIs (each core on the NI minimizing its merged
//!    `bandwidth × hop-distance` to already-placed partners), then
//!    route only the new group via [`reroute_preset_groups`] —
//!    every other group's configuration is spliced verbatim from the
//!    running solution, so an uncontended admission costs one group
//!    route, not a full map.
//! 2. **Displacement on conflict** — when routing fails, blocking
//!    placements are displaced and re-placed instead of re-solving: the
//!    failing flow's endpoint is moved to another NI (swapping with the
//!    occupant, who is evicted onto the vacated NI), and only the groups
//!    touching a moved core are re-routed. Each *pre-existing* core
//!    moved counts against the caller's eviction budget — the
//!    [`RemapConfig`](crate::remap::RemapConfig) move bound — so a
//!    stream of admissions can never silently degenerate into a global
//!    re-map.
//! 3. **Reject** — NI exhaustion, a flow exceeding whole-table link
//!    capacity, or budget/candidate exhaustion reject the request and
//!    leave the running solution untouched.
//!
//! Everything here is a pure function of its inputs — candidate orders
//! are sorted, no RNG, no wall clock — so admission decisions are
//! byte-identical at any `noc-par` width (the service replay goldens
//! pin this at 1/2/8 workers).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use noc_obs::{count, Counter};
use noc_topology::{DegradedView, NodeId};
use noc_usecase::spec::{CoreId, SocSpec};
use noc_usecase::UseCaseGroups;

use crate::error::MapError;
use crate::mapper::{reroute_preset_groups, MapperOptions, RouteCache};
use crate::merge::MergedFlow;
use crate::result::MappingSolution;
use crate::seat::{displacement_targets, free_nis, seat};

/// Deterministic cap on displacement repair iterations per admission
/// (each iteration routes one candidate placement). The eviction budget
/// bounds *pre-existing* cores moved; this bounds total work when the
/// repair only shuffles the new group's own (free-to-move) cores.
pub const ADMIT_REPAIR_ATTEMPTS: usize = 24;

/// A successful admission: the updated solution plus its
/// reconfiguration accounting.
#[derive(Debug, Clone)]
pub struct Admission {
    /// The running solution with the group admitted.
    pub solution: MappingSolution,
    /// Cores newly placed for this group (sorted; cores the group shares
    /// with already-admitted use-cases are not re-placed and not listed).
    pub placed: Vec<CoreId>,
    /// Pre-existing cores displaced onto a different NI (sorted). The
    /// admission's reconfiguration cost is `moved.len()`.
    pub moved: Vec<CoreId>,
    /// `moved.len()` as the budgeted eviction count — always `<=` the
    /// budget passed to [`admit_group`].
    pub evictions: u64,
}

/// Why an admission was rejected. The running solution is untouched.
#[derive(Debug, Clone)]
pub enum RejectReason {
    /// More unplaced cores than free NIs — no placement exists.
    NisExhausted {
        /// Unplaced cores the group needs to seat.
        needed: usize,
        /// Free NIs available.
        free: usize,
    },
    /// No feasible routing found within the eviction budget and repair
    /// attempt cap; carries the last mapper error seen.
    Unroutable(MapError),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::NisExhausted { needed, free } => {
                write!(f, "nis-exhausted needed={needed} free={free}")
            }
            RejectReason::Unroutable(e) => write!(f, "unroutable: {e}"),
        }
    }
}

/// Total merged demand per core of one group (bytes/s over every pair it
/// touches) — the deterministic weight ordering displacement uses.
fn group_core_weights(flows: &BTreeMap<(CoreId, CoreId), MergedFlow>) -> BTreeMap<CoreId, u128> {
    let mut weights: BTreeMap<CoreId, u128> = BTreeMap::new();
    for (&(src, dst), flow) in flows {
        let bw = flow.bandwidth.as_bytes_per_sec() as u128;
        *weights.entry(src).or_default() += bw;
        *weights.entry(dst).or_default() += bw;
    }
    weights
}

/// The groups (other than `group`) whose merged traffic touches any core
/// in `relocated` — exactly the set a candidate placement must re-route.
fn affected_groups(
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    group: usize,
    relocated: &BTreeSet<CoreId>,
) -> Vec<bool> {
    merged
        .iter()
        .enumerate()
        .map(|(g, flows)| {
            g == group
                || flows
                    .keys()
                    .any(|&(s, d)| relocated.contains(&s) || relocated.contains(&d))
        })
        .collect()
}

/// Admits group `group` into the running solution `base`.
///
/// `base` must carry one (preset-pure) config per group of `groups`,
/// with a placeholder (e.g. empty) config at index `group` — the
/// admitted group is always re-routed, so the placeholder is never
/// spliced. `base.core_mapping()` must place every core of every *other*
/// group; cores of the admitted group that already appear there (shared
/// with admitted use-cases, or a modify keeping its placement) are kept,
/// the rest are placed greedily. `merged` must be
/// `merged_group_flows(soc, groups)` and `cache` a [`RouteCache`] built
/// for the same partition — hits from earlier admissions are spliced
/// instead of re-routed.
///
/// `budget` bounds the pre-existing cores the displacement repair may
/// move; the returned [`Admission::evictions`] never exceeds it.
///
/// Increments the `admissions` / `rejections` /
/// `displacement_evictions` counters in [`crate::perf`].
///
/// # Errors
///
/// [`RejectReason`] when no feasible admission exists within the budget;
/// `base` and the caller's running state are unaffected.
///
/// # Panics
///
/// When `group` is out of range, or `base`/`merged`/`cache` disagree
/// with `groups` on the group count (as
/// [`reroute_preset_groups`]).
#[allow(clippy::too_many_arguments)]
pub fn admit_group(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    base: &MappingSolution,
    options: &MapperOptions,
    group: usize,
    budget: u64,
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    cache: &mut RouteCache,
) -> Result<Admission, RejectReason> {
    assert!(group < groups.group_count(), "admitted group in range");
    let topo = base.topology();
    let flows = &merged[group];
    let weights = group_core_weights(flows);
    let group_cores: BTreeSet<CoreId> = flows.keys().flat_map(|&(s, d)| [s, d]).collect();

    // Unplaced cores, heaviest first (deterministic tie-break on id).
    let mut new_cores: Vec<CoreId> = group_cores
        .iter()
        .copied()
        .filter(|c| !base.core_mapping().contains_key(c))
        .collect();
    new_cores.sort_by_key(|&c| (Reverse(weights.get(&c).copied().unwrap_or(0)), c));

    // Failed NIs are never placement targets, and partner distances are
    // measured over the surviving links only (with an empty fault set
    // both reduce to the plain topology).
    let degraded = topo.degraded(&options.faults);
    let mut free = free_nis(degraded, base.core_mapping());
    if new_cores.len() > free.len() {
        count(Counter::Rejections, 1);
        return Err(RejectReason::NisExhausted {
            needed: new_cores.len(),
            free: free.len(),
        });
    }

    // Greedy fast path: seat each unplaced core on the free NI minimizing
    // its merged bandwidth × hop-distance to already-placed partners
    // (first free NI when no partner is placed yet — `nis()` order).
    let mut placement = base.core_mapping().clone();
    for &core in &new_cores {
        seat(
            degraded,
            &merged[group..=group],
            &mut placement,
            &mut free,
            core,
        );
    }

    let route = |placement: &BTreeMap<CoreId, NodeId>,
                 relocated: &BTreeSet<CoreId>,
                 cache: &mut RouteCache| {
        let affected = affected_groups(merged, group, relocated);
        reroute_preset_groups(
            soc, groups, base, options, placement, &affected, merged, cache,
        )
    };

    // Displacement repair: on an unroutable pair, move one of its cores
    // to another NI (swapping with the occupant, evicted onto the
    // vacated NI) and retry. Moves are kept across iterations — the
    // repair displaces its way out of a conflict rather than restarting
    // — and every accepted sequence stays within the eviction budget.
    let mut relocated: BTreeSet<CoreId> = new_cores.iter().copied().collect();
    let mut tried: BTreeSet<(CoreId, NodeId)> = BTreeSet::new();
    let mut last_err = None;
    for _ in 0..ADMIT_REPAIR_ATTEMPTS {
        match route(&placement, &relocated, cache) {
            Ok(solution) => {
                let moved: Vec<CoreId> = relocated
                    .iter()
                    .copied()
                    .filter(|c| {
                        base.core_mapping()
                            .get(c)
                            .is_some_and(|&ni| placement[c] != ni)
                    })
                    .collect();
                let evictions = moved.len() as u64;
                count(Counter::Admissions, 1);
                count(Counter::DisplacementEvictions, evictions);
                return Ok(Admission {
                    solution,
                    placed: {
                        let mut placed = new_cores.clone();
                        placed.sort();
                        placed
                    },
                    moved,
                    evictions,
                });
            }
            Err(e @ MapError::Unroutable { .. }) => {
                let (src, dst) = match e {
                    MapError::Unroutable { src, dst, .. } => (src, dst),
                    _ => unreachable!(),
                };
                last_err = Some(e);
                // Move the blocked flow's heavier endpoint first; only
                // cores of the admitted group are candidate movers.
                let mut movers: Vec<CoreId> = [src, dst]
                    .into_iter()
                    .filter(|c| group_cores.contains(c))
                    .collect();
                movers.sort_by_key(|&c| (Reverse(weights.get(&c).copied().unwrap_or(0)), c));
                let Some(step) = displacement_step(
                    degraded, base, &placement, &relocated, &tried, &movers, budget,
                ) else {
                    break;
                };
                let (mover, target) = step;
                tried.insert((mover, target));
                let vacated = placement[&mover];
                if let Some(occupant) = placement
                    .iter()
                    .find(|&(_, &ni)| ni == target)
                    .map(|(&c, _)| c)
                {
                    placement.insert(occupant, vacated);
                    relocated.insert(occupant);
                }
                placement.insert(mover, target);
                relocated.insert(mover);
            }
            Err(e) => {
                // Capacity/size errors: no placement change can help.
                last_err = Some(e);
                break;
            }
        }
    }
    count(Counter::Rejections, 1);
    Err(RejectReason::Unroutable(
        last_err.expect("repair loop only exits through a recorded error"),
    ))
}

/// Picks the next untried `(mover, target NI)` displacement within the
/// eviction budget: movers in the given order, targets by (surviving)
/// hop distance from the mover's current NI (nearer re-seats first),
/// then NI index. Failed NIs are never targets.
#[allow(clippy::too_many_arguments)]
fn displacement_step(
    view: DegradedView<'_>,
    base: &MappingSolution,
    placement: &BTreeMap<CoreId, NodeId>,
    relocated: &BTreeSet<CoreId>,
    tried: &BTreeSet<(CoreId, NodeId)>,
    movers: &[CoreId],
    budget: u64,
) -> Option<(CoreId, NodeId)> {
    let ni_of_core = |ni: NodeId| placement.iter().find(|&(_, &n)| n == ni).map(|(&c, _)| c);
    // Evictions already spent: pre-existing cores whose NI has changed.
    let spent = relocated
        .iter()
        .filter(|c| {
            base.core_mapping()
                .get(c)
                .is_some_and(|&ni| placement[*c] != ni)
        })
        .count() as u64;
    for &mover in movers {
        for target in displacement_targets(view, placement[&mover]) {
            if tried.contains(&(mover, target)) {
                continue;
            }
            // Cost of this step: the mover (if pre-existing and not yet
            // displaced) plus the evicted occupant (same rule).
            let mut cost = 0u64;
            for c in [Some(mover), ni_of_core(target)].into_iter().flatten() {
                let pre_existing = base.core_mapping().contains_key(&c);
                let already_counted = pre_existing
                    && relocated.contains(&c)
                    && base.core_mapping()[&c] != placement[&c];
                if pre_existing && !already_counted {
                    cost += 1;
                }
            }
            if spent + cost <= budget {
                return Some((mover, target));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map_multi_usecase, preset_twin, Placement};
    use crate::merge::merged_group_flows;
    use crate::result::GroupConfig;
    use crate::strategy::displacement_eviction_budget;
    use noc_tdma::TdmaSpec;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_topology::{FaultSet, MeshBuilder};
    use noc_usecase::spec::UseCaseBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn uc(name: &str, flows: &[(u32, u32, u64)]) -> noc_usecase::spec::UseCase {
        let mut b = UseCaseBuilder::new(name);
        for &(s, d, bw) in flows {
            b = b
                .flow(c(s), c(d), Bandwidth::from_mbps(bw), Latency::UNCONSTRAINED)
                .unwrap();
        }
        b.build()
    }

    /// Maps `soc` fully (preset-pure), then returns the pieces an
    /// admission of one more use-case needs.
    fn running_state(
        soc: &SocSpec,
        topo: &noc_topology::Topology,
    ) -> (MappingSolution, MapperOptions) {
        let groups = UseCaseGroups::singletons(soc.use_case_count());
        let options = MapperOptions::default();
        let greedy =
            map_multi_usecase(soc, &groups, topo, TdmaSpec::paper_default(), &options).unwrap();
        let preset = preset_twin(soc, &groups, &options, &greedy).unwrap();
        (preset, options)
    }

    /// Extends a preset-pure base solution with a placeholder config for
    /// the group being admitted.
    fn with_placeholder(base: &MappingSolution) -> MappingSolution {
        let mut configs = base.group_configs().to_vec();
        configs.push(GroupConfig::new());
        MappingSolution::new(
            base.topology().clone(),
            base.label(),
            base.spec(),
            base.core_mapping().clone(),
            configs,
        )
    }

    #[test]
    fn greedy_fast_path_admits_without_moving_existing_cores() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("svc");
        soc.add_use_case(uc("u0", &[(0, 1, 200)]));
        let (base, options) = running_state(&soc, &topo);

        soc.add_use_case(uc("u1", &[(2, 3, 100)]));
        let groups = UseCaseGroups::singletons(2);
        let merged = merged_group_flows(&soc, &groups);
        let mut cache = RouteCache::new(&merged);
        let base = with_placeholder(&base);
        let adm = admit_group(&soc, &groups, &base, &options, 1, 6, &merged, &mut cache).unwrap();
        assert_eq!(adm.placed, vec![c(2), c(3)]);
        assert!(adm.moved.is_empty());
        assert_eq!(adm.evictions, 0);
        // Existing cores kept their NIs.
        for (core, ni) in base.core_mapping() {
            assert_eq!(adm.solution.core_mapping()[core], *ni);
        }
        adm.solution.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn exhausted_nis_reject_without_touching_state() {
        let topo = MeshBuilder::new(1, 1)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("svc");
        soc.add_use_case(uc("u0", &[(0, 1, 100)]));
        let (base, options) = running_state(&soc, &topo);

        soc.add_use_case(uc("u1", &[(2, 3, 100)]));
        let groups = UseCaseGroups::singletons(2);
        let merged = merged_group_flows(&soc, &groups);
        let mut cache = RouteCache::new(&merged);
        let base = with_placeholder(&base);
        let err =
            admit_group(&soc, &groups, &base, &options, 1, 6, &merged, &mut cache).unwrap_err();
        match err {
            RejectReason::NisExhausted { needed, free } => {
                assert_eq!((needed, free), (2, 0));
            }
            other => panic!("expected NI exhaustion, got {other}"),
        }
    }

    #[test]
    fn over_capacity_flow_rejects_via_unroutable() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(1)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("svc");
        soc.add_use_case(uc("u0", &[(0, 1, 100)]));
        let (base, options) = running_state(&soc, &topo);

        // paper_default link capacity is 2000 MB/s; 5000 cannot fit.
        soc.add_use_case(uc("u1", &[(2, 3, 5000)]));
        let groups = UseCaseGroups::singletons(2);
        let merged = merged_group_flows(&soc, &groups);
        let mut cache = RouteCache::new(&merged);
        let base = with_placeholder(&base);
        let err =
            admit_group(&soc, &groups, &base, &options, 1, 6, &merged, &mut cache).unwrap_err();
        assert!(
            matches!(
                err,
                RejectReason::Unroutable(MapError::FlowExceedsLinkCapacity { .. })
            ),
            "expected capacity rejection, got {err}"
        );
    }

    #[test]
    fn shared_core_admission_routes_against_existing_placement() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("svc");
        soc.add_use_case(uc("u0", &[(0, 1, 300)]));
        let (base, options) = running_state(&soc, &topo);

        // The new use-case reuses core 0, already placed by u0.
        soc.add_use_case(uc("u1", &[(0, 4, 150)]));
        let groups = UseCaseGroups::singletons(2);
        let merged = merged_group_flows(&soc, &groups);
        let mut cache = RouteCache::new(&merged);
        let base = with_placeholder(&base);
        let adm = admit_group(&soc, &groups, &base, &options, 1, 6, &merged, &mut cache).unwrap();
        // Only the genuinely new core is placed.
        assert_eq!(adm.placed, vec![c(4)]);
        assert_eq!(
            adm.solution.core_mapping()[&c(0)],
            base.core_mapping()[&c(0)]
        );
        adm.solution.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn evictions_never_exceed_the_budget() {
        // Saturate a tiny torus so the admitted group must displace, then
        // pin that a zero budget rejects while a positive one may admit.
        let topo = MeshBuilder::new(2, 1)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("svc");
        // Three heavy pairs nearly fill both links.
        soc.add_use_case(uc("u0", &[(0, 1, 1800)]));
        soc.add_use_case(uc("u1", &[(2, 3, 1800)]));
        let (base, options) = running_state(&soc, &topo);

        soc.add_use_case(uc("u2", &[(0, 2, 1800)]));
        let groups = UseCaseGroups::singletons(3);
        let merged = merged_group_flows(&soc, &groups);
        let base = with_placeholder(&base);
        for budget in [0u64, 6] {
            let mut cache = RouteCache::new(&merged);
            match admit_group(
                &soc, &groups, &base, &options, 2, budget, &merged, &mut cache,
            ) {
                Ok(adm) => {
                    assert!(adm.evictions <= budget, "budget overrun: {}", adm.evictions);
                    adm.solution.verify(&soc, &groups).unwrap();
                }
                Err(RejectReason::Unroutable(_)) => {}
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
    }

    #[test]
    fn displacement_relocates_a_blocking_core_within_budget() {
        // Two switches, three NIs each. Pre-existing cores occupy all of
        // switch A plus one NI on switch B, so the two new cores of the
        // admitted group must land on switch B — but its heavy flows
        // target cores 0 and 1 on switch A, overcommitting the single
        // B->A link (2 x 1100 MB/s > 2000 MB/s). The only fix is to
        // relocate one destination core to switch B, which displacement
        // finds within the budget; a zero budget must reject.
        let topo = MeshBuilder::new(2, 1)
            .nis_per_switch(3)
            .build()
            .unwrap()
            .into_topology();
        let nis = topo.nis();
        // Partition NIs by switch: `a` holds nis[0]'s co-located NIs
        // (same-switch NIs are two hops apart), `b` the rest.
        let (a, b): (Vec<_>, Vec<_>) = nis
            .iter()
            .copied()
            .partition(|&n| topo.hop_distance(nis[0], n) <= Some(2));
        assert_eq!((a.len(), b.len()), (3, 3));

        let mut soc = SocSpec::new("svc");
        soc.add_use_case(uc("u0", &[(0, 1, 100)]));
        soc.add_use_case(uc("u1", &[(5, 6, 100)]));
        let crafted = BTreeMap::from([(c(0), a[0]), (c(1), a[1]), (c(5), a[2]), (c(6), b[0])]);
        let groups2 = UseCaseGroups::singletons(2);
        let options = MapperOptions::default();
        let base = map_multi_usecase(
            &soc,
            &groups2,
            &topo,
            TdmaSpec::paper_default(),
            &MapperOptions {
                placement: Placement::Preset(crafted),
                ..options.clone()
            },
        )
        .unwrap();

        soc.add_use_case(uc("u2", &[(2, 0, 1100), (3, 1, 1100)]));
        let groups = UseCaseGroups::singletons(3);
        let merged = merged_group_flows(&soc, &groups);
        let base = with_placeholder(&base);

        let mut cache = RouteCache::new(&merged);
        let rejected = admit_group(&soc, &groups, &base, &options, 2, 0, &merged, &mut cache);
        assert!(
            matches!(rejected, Err(RejectReason::Unroutable(_))),
            "zero budget must reject: {rejected:?}"
        );

        let mut cache = RouteCache::new(&merged);
        let budget = displacement_eviction_budget();
        let adm = admit_group(
            &soc, &groups, &base, &options, 2, budget, &merged, &mut cache,
        )
        .expect("displacement should rescue the admission");
        assert!(!adm.moved.is_empty(), "no core was displaced");
        assert!((1..=budget).contains(&adm.evictions), "{}", adm.evictions);
        adm.solution.verify(&soc, &groups).unwrap();
    }

    /// `displacement_step` orders targets from one BFS per mover; the
    /// order must equal sorting by the per-pair surviving hop distance,
    /// failed and unreachable NIs included.
    #[test]
    fn displacement_targets_follow_per_pair_hop_distances() {
        for seed in 0..40 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let topo = MeshBuilder::new(rng.gen_range(1..=4u16), rng.gen_range(1..=4u16))
                .nis_per_switch(rng.gen_range(1..=2u16))
                .build()
                .unwrap()
                .into_topology();
            let mut faults = FaultSet::new();
            for _ in 0..rng.gen_range(0..=8usize) {
                faults.fail_link(topo.links()[rng.gen_range(0..topo.link_count())].id());
            }
            for _ in 0..rng.gen_range(0..=2usize) {
                faults.fail_ni(topo.nis()[rng.gen_range(0..topo.ni_count())]);
            }
            let view = topo.degraded(&faults);
            for &from in topo.nis() {
                let mut expected: Vec<NodeId> = topo
                    .nis()
                    .iter()
                    .copied()
                    .filter(|&ni| ni != from && !faults.ni_failed(ni))
                    .collect();
                expected.sort_by_key(|&ni| (view.hop_distance(from, ni).unwrap_or(usize::MAX), ni));
                assert_eq!(
                    displacement_targets(view, from),
                    expected,
                    "seed {seed}, mover on {from}"
                );
            }
        }
    }
}
