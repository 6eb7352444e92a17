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
//!    every other group keeps its configuration in the running
//!    solution, so an uncontended admission costs one group route, not
//!    a full map.
//! 2. **Displacement on conflict** — when routing fails, blocking
//!    placements are displaced and re-placed instead of re-solving: the
//!    failing flow's endpoint is moved to another NI (swapping with the
//!    occupant, who is evicted onto the vacated NI), and only the groups
//!    touching a moved core are re-routed. Each *pre-existing* core
//!    moved counts against the caller's eviction budget — the
//!    [`RemapConfig`](crate::remap::RemapConfig) move bound — so a
//!    stream of admissions can never silently degenerate into a global
//!    re-map.
//! 3. **Reject** — NI exhaustion, a core whose flows cannot share its
//!    NI link (the NI-link certificate, checked before any search), a
//!    flow exceeding whole-table link capacity, or budget/candidate
//!    exhaustion reject the request and leave the running solution
//!    untouched.
//!
//! Everything here is a pure function of its inputs — candidate orders
//! are sorted, no RNG, no wall clock — so admission decisions are
//! byte-identical at any `noc-par` width (the service replay goldens
//! pin this at 1/2/8 workers).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use noc_obs::{count, Counter};
use noc_tdma::TdmaSpec;
use noc_topology::{DegradedView, NodeId, Topology};
use noc_usecase::spec::{CoreId, SocSpec};
use noc_usecase::UseCaseGroups;

use crate::error::MapError;
use crate::mapper::{reroute_preset_groups, MapperOptions, RouteCache};
use crate::merge::MergedFlow;
use crate::result::{MappingSolution, SolutionDelta};
use crate::seat::{
    core_weights, displacement_targets, free_nis, groups_touching, heaviest_first, occupant, seat,
    swap,
};

/// Deterministic cap on displacement repair iterations per admission
/// (each iteration routes one candidate placement). The eviction budget
/// bounds *pre-existing* cores moved; this bounds total work when the
/// repair only shuffles the new group's own (free-to-move) cores.
pub const ADMIT_REPAIR_ATTEMPTS: usize = 24;

/// A successful admission: what changed in the running solution, plus
/// its reconfiguration accounting.
#[derive(Debug, Clone)]
pub struct Admission {
    /// The placement with the group admitted, and the configs of the
    /// admitted group and of every group re-routed around a moved core.
    /// [`MappingSolution::splice`] it into the `base` passed to
    /// [`admit_group`]; every other group keeps its config there.
    pub delta: SolutionDelta,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// More unplaced cores than free NIs — no placement exists.
    NisExhausted {
        /// Unplaced cores the group needs to seat.
        needed: usize,
        /// Free NIs available.
        free: usize,
    },
    /// The slots one core's flows need out of it (or into it) exceed
    /// one slot table, so they cannot share its NI link wherever the
    /// core is placed.
    NiLinkOversubscribed {
        /// The first such core, in `CoreId` order.
        core: CoreId,
        /// The overloaded side of its NI link (sending is checked first).
        direction: NiDirection,
        /// Slots the core's flows need on that side, summed.
        needed: usize,
        /// Slots in one table.
        available: usize,
    },
    /// No feasible routing found within the eviction budget and repair
    /// attempt cap; carries the last mapper error seen.
    Unroutable(MapError),
}

/// A side of a core's NI link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NiDirection {
    /// The flows out of the core.
    Send,
    /// The flows into the core.
    Receive,
}

impl fmt::Display for NiDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NiDirection::Send => "send",
            NiDirection::Receive => "receive",
        })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::NisExhausted { needed, free } => {
                write!(f, "nis-exhausted needed={needed} free={free}")
            }
            RejectReason::NiLinkOversubscribed {
                core,
                direction,
                needed,
                available,
            } => write!(
                f,
                "ni-link-oversubscribed {core} {direction} needed={needed} available={available}"
            ),
            RejectReason::Unroutable(e) => write!(f, "unroutable: {e}"),
        }
    }
}

/// Admits group `group` into the running solution `base`, returning
/// the change as an [`Admission::delta`] to splice into `base`.
///
/// `base` must carry one (preset-pure) config per group of `groups`,
/// with a placeholder (e.g. empty) config at index `group` — the
/// admitted group is always re-routed, so the delta always replaces the
/// placeholder. `base.core_mapping()` must place every core of every
/// *other* group; cores of the admitted group that already appear there
/// (shared with admitted use-cases, or a modify keeping its placement)
/// are kept, the rest are placed greedily. `merged` must be
/// `merged_group_flows(soc, groups)` and `cache` a [`RouteCache`] built
/// for the same partition — hits from earlier admissions are reused
/// instead of re-routed.
///
/// Before seating or routing anything, the admitted group's flows pass
/// the NI-link certificate: the slots one core's flows need out of it,
/// and separately into it, must fit one slot table
/// ([`RejectReason::NiLinkOversubscribed`] otherwise). Every flow
/// crosses both of its cores' NI links in the group's own tables,
/// wherever the cores are placed, so no repair could admit such a group.
/// A group with a single flow larger than a table skips the certificate
/// and is refused by the mapper's capacity check instead.
///
/// `budget` bounds the pre-existing cores the displacement repair may
/// move; the returned [`Admission::evictions`] never exceeds it.
///
/// Besides the admitted group, the delta re-routes every group whose
/// traffic touches a relocated core, except a group whose config in
/// `base` is empty: such a group (the service's parked use-cases) is
/// not serviced, so it is never re-routed and its unplaced cores are
/// never seated.
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
    let weights = core_weights(&merged[group..=group]);
    let group_cores: BTreeSet<CoreId> = merged[group].keys().flat_map(|&(s, d)| [s, d]).collect();

    // Unplaced cores, heaviest first (deterministic tie-break on id).
    let mut new_cores: Vec<CoreId> = group_cores
        .iter()
        .copied()
        .filter(|c| !base.core_mapping().contains_key(c))
        .collect();
    heaviest_first(&mut new_cores, &weights);

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
    if let Some(overload) = ni_link_overload(topo, base.spec(), &merged[group]) {
        count(Counter::Rejections, 1);
        return Err(overload);
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

    // The admitted group, and every serviced group touching a relocated
    // core: a group with an empty config in `base` stays unrouted.
    let route = |placement: &BTreeMap<CoreId, NodeId>,
                 relocated: &BTreeSet<CoreId>,
                 cache: &mut RouteCache| {
        let mut affected = groups_touching(merged, |c| relocated.contains(&c));
        for (touched, config) in affected.iter_mut().zip(base.group_configs()) {
            *touched &= !config.is_empty();
        }
        affected[group] = true;
        reroute_preset_groups(
            soc,
            groups,
            topo,
            base.spec(),
            options,
            placement,
            &affected,
            merged,
            cache,
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
            Ok(delta) => {
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
                    delta,
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
                heaviest_first(&mut movers, &weights);
                let Some((mover, target)) = displacement_step(
                    degraded, base, &placement, &relocated, &tried, &movers, budget,
                ) else {
                    break;
                };
                tried.insert((mover, target));
                relocated.extend(swap(&mut placement, mover, target));
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

/// The NI-link certificate of [`admit_group`]: the first core of
/// `flows`, in `CoreId` order, whose flows need more slots out of it
/// (checked first) or into it than one table holds. `None` when every
/// core fits, when a single flow exceeds a table on its own (the
/// mapper's capacity check reports that), or when some NI of `topo` has
/// more than one link either way, so a core's traffic could split.
fn ni_link_overload(
    topo: &Topology,
    spec: TdmaSpec,
    flows: &BTreeMap<(CoreId, CoreId), MergedFlow>,
) -> Option<RejectReason> {
    let available = spec.slots();
    let mut needed: BTreeMap<CoreId, [usize; 2]> = BTreeMap::new();
    for (&(src, dst), f) in flows {
        let slots = spec.slots_for_bandwidth(f.bandwidth);
        if slots > available {
            return None;
        }
        needed.entry(src).or_default()[0] += slots;
        needed.entry(dst).or_default()[1] += slots;
    }
    let (core, direction, needed) = needed.into_iter().find_map(|(core, [out, into])| {
        if out > available {
            Some((core, NiDirection::Send, out))
        } else if into > available {
            Some((core, NiDirection::Receive, into))
        } else {
            None
        }
    })?;
    let single_link = |ni: &NodeId| topo.outgoing(*ni).len() == 1 && topo.incoming(*ni).len() == 1;
    topo.nis()
        .iter()
        .all(single_link)
        .then_some(RejectReason::NiLinkOversubscribed {
            core,
            direction,
            needed,
            available,
        })
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
            for c in [Some(mover), occupant(placement, target)]
                .into_iter()
                .flatten()
            {
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

    /// The running solution after `adm`: its delta spliced into `base`.
    fn spliced(base: &MappingSolution, adm: &Admission) -> MappingSolution {
        let mut solution = base.clone();
        solution.splice(adm.delta.clone());
        solution
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
        let solution = spliced(&base, &adm);
        for (core, ni) in base.core_mapping() {
            assert_eq!(solution.core_mapping()[core], *ni);
        }
        solution.verify(&soc, &groups).unwrap();
    }

    /// A parked group (an empty config in `base`) that shares the core
    /// the admission seats is left out of the delta: it gets no routes,
    /// and its other, unseated core stays unseated.
    #[test]
    fn parked_groups_sharing_a_relocated_core_are_not_rerouted() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("svc");
        soc.add_use_case(uc("u0", &[(0, 1, 200)]));
        let (base, options) = running_state(&soc, &topo);

        // u1 is parked: no config, cores 2 and 3 unseated.
        soc.add_use_case(uc("u1", &[(2, 3, 100)]));
        soc.add_use_case(uc("u2", &[(2, 0, 100)]));
        let groups = UseCaseGroups::singletons(3);
        let merged = merged_group_flows(&soc, &groups);
        let mut cache = RouteCache::new(&merged);
        let base = with_placeholder(&with_placeholder(&base));
        let adm = admit_group(&soc, &groups, &base, &options, 2, 6, &merged, &mut cache).unwrap();
        assert_eq!(adm.placed, vec![c(2)]);
        let routed: Vec<usize> = adm.delta.configs.iter().map(|&(g, _)| g).collect();
        assert_eq!(routed, vec![2]);
        assert!(!adm.delta.placement.contains_key(&c(3)));
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
        let solution = spliced(&base, &adm);
        assert_eq!(solution.core_mapping()[&c(0)], base.core_mapping()[&c(0)]);
        solution.verify(&soc, &groups).unwrap();
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
                    spliced(&base, &adm).verify(&soc, &groups).unwrap();
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
        spliced(&base, &adm).verify(&soc, &groups).unwrap();
    }

    /// The certificate's boundary, on both sides of a core's NI link:
    /// two flows filling one table exactly pass, one slot more is
    /// refused, and a flow larger than a table on its own is left to
    /// the mapper's capacity check.
    #[test]
    fn ni_link_certificate_refuses_one_slot_past_a_table() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let spec = TdmaSpec::paper_default();
        let slots = |mbps| spec.slots_for_bandwidth(Bandwidth::from_mbps(mbps));
        // 1000 MB/s is exactly half a table; 1001 MB/s takes one slot more.
        assert_eq!(
            (2 * slots(1000), slots(1001)),
            (spec.slots(), slots(1000) + 1)
        );
        let flows = |list: &[(u32, u32, u64)]| {
            let mut soc = SocSpec::new("cert");
            soc.add_use_case(uc("u", list));
            merged_group_flows(&soc, &UseCaseGroups::singletons(1)).remove(0)
        };
        let check = |list: &[(u32, u32, u64)]| ni_link_overload(&topo, spec, &flows(list));
        let refused = |core, direction| {
            Some(RejectReason::NiLinkOversubscribed {
                core: c(core),
                direction,
                needed: spec.slots() + 1,
                available: spec.slots(),
            })
        };

        assert_eq!(check(&[(0, 1, 1000), (0, 2, 1000)]), None);
        assert_eq!(check(&[(1, 0, 1000), (2, 0, 1000)]), None);
        let send = check(&[(0, 1, 1000), (0, 2, 1001)]);
        assert_eq!(send, refused(0, NiDirection::Send));
        assert_eq!(
            send.unwrap().to_string(),
            "ni-link-oversubscribed core0 send needed=129 available=128"
        );
        assert_eq!(
            check(&[(1, 3, 1001), (2, 3, 1000)]),
            refused(3, NiDirection::Receive)
        );
        // The first core in id order is reported, sending side first.
        assert_eq!(
            check(&[(0, 1, 1001), (2, 1, 1000), (1, 2, 1001), (1, 3, 1000)]),
            refused(1, NiDirection::Send)
        );
        assert_eq!(check(&[(0, 1, 1000), (0, 2, 1001), (0, 3, 5000)]), None);

        // Through `admit_group`: refused before any search, counted.
        let mut soc = SocSpec::new("svc");
        soc.add_use_case(uc("u0", &[(4, 5, 100)]));
        let (base, options) = running_state(&soc, &topo);
        soc.add_use_case(uc("u1", &[(0, 1, 1000), (0, 2, 1001)]));
        let groups = UseCaseGroups::singletons(2);
        let merged = merged_group_flows(&soc, &groups);
        let mut cache = RouteCache::new(&merged);
        let base = with_placeholder(&base);
        let before = crate::perf::snapshot();
        let err =
            admit_group(&soc, &groups, &base, &options, 1, 6, &merged, &mut cache).unwrap_err();
        let spent = crate::perf::snapshot().since(&before);
        assert_eq!(Some(err), refused(0, NiDirection::Send));
        assert_eq!((spent.rejections, spent.path_queries), (1, 0));
    }

    /// Soundness of the certificate: a group it refuses cannot be mapped
    /// on its own under any injective placement, with latency bounds
    /// and link faults or without.
    #[test]
    fn certificate_refusals_fail_under_every_placement() {
        let spec = TdmaSpec::paper_default();
        let (mut refused, mut mapped) = (0, 0);
        for seed in 0..160 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let topo = MeshBuilder::new(rng.gen_range(1..=3u16), rng.gen_range(1..=3u16))
                .nis_per_switch(rng.gen_range(1..=2u16))
                .build()
                .unwrap()
                .into_topology();
            let cores = topo.ni_count().min(6) as u32;
            if cores < 2 {
                continue;
            }
            let mut b = UseCaseBuilder::new("g");
            let mut pairs = BTreeSet::new();
            let wanted = rng
                .gen_range(1..=5usize)
                .min((cores * (cores - 1)) as usize);
            while pairs.len() < wanted {
                // Few sources, so that some core's flows add up.
                let (src, dst) = (rng.gen_range(0..cores.min(3)), rng.gen_range(0..cores));
                if src != dst && pairs.insert((src, dst)) {
                    let latency = if rng.gen_bool(0.2) {
                        Latency::from_ns(rng.gen_range(20..200u64))
                    } else {
                        Latency::UNCONSTRAINED
                    };
                    let mbps = rng.gen_range(100..=2000u64);
                    b = b
                        .flow(c(src), c(dst), Bandwidth::from_mbps(mbps), latency)
                        .unwrap();
                }
            }
            let mut soc = SocSpec::new("cert");
            soc.add_use_case(b.build());
            let groups = UseCaseGroups::singletons(1);
            let merged = merged_group_flows(&soc, &groups);
            let mut options = MapperOptions::default();
            if rng.gen_bool(0.3) {
                let link = topo.links()[rng.gen_range(0..topo.link_count())].id();
                options.faults.fail_link(link);
            }
            let verdict = ni_link_overload(&topo, spec, &merged[0]);
            for _ in 0..6 {
                let mut nis = topo.nis().to_vec();
                let placement: BTreeMap<CoreId, NodeId> = soc
                    .cores()
                    .into_iter()
                    .map(|core| (core, nis.swap_remove(rng.gen_range(0..nis.len()))))
                    .collect();
                let preset = MapperOptions {
                    placement: Placement::Preset(placement),
                    ..options.clone()
                };
                let result = map_multi_usecase(&soc, &groups, &topo, spec, &preset);
                if let Some(reason) = &verdict {
                    assert!(
                        result.is_err(),
                        "seed {seed}: {reason}, yet a placement maps"
                    );
                } else {
                    mapped += result.is_ok() as u32;
                }
            }
            refused += verdict.is_some() as u32;
        }
        assert!(refused >= 30, "only {refused} groups refused");
        assert!(
            mapped >= 100,
            "only {mapped} placements of passing groups mapped"
        );
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
