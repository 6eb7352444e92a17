//! Self-healing remap: repair a running mapping around failed links
//! and NIs without re-solving from scratch.
//!
//! The paper's configurations are computed once and reused across
//! use-cases; a deployed NoC additionally has to survive the hardware
//! under it failing. [`heal`] is the repair entry point behind the
//! online service's `fault` verb: given a verified solution and the
//! fault set carried in `MapperOptions::faults`, it
//!
//! 1. **re-places stranded cores** — cores seated on failed NIs are
//!    moved to free surviving NIs (each to the NI minimizing its merged
//!    `bandwidth × surviving-hop-distance` to placed partners), up to
//!    the [`RemapConfig`] move budget;
//! 2. **re-routes only the affected groups** — groups whose configured
//!    routes cross a failed resource, or whose traffic touches a moved
//!    core, go through [`reroute_preset_groups`], whose delta is spliced
//!    into a copy of the base; every other group keeps its
//!    configuration, so a heal costs a few group routes, never a full
//!    map;
//! 3. **degrades instead of failing** — a group that cannot be
//!    re-routed (or whose core cannot be re-seated within budget) is
//!    torn down to an empty configuration and reported in
//!    [`HealOutcome::Degraded`], leaving every other group serviced.
//!
//! Everything is a pure function of its inputs (sorted candidate
//! orders, no RNG, no wall clock), so heal decisions are byte-identical
//! at any `noc-par` width — the `resilience` suite goldens pin this.

use std::collections::BTreeSet;

use noc_obs::{count, Counter};
use noc_usecase::spec::{CoreId, SocSpec};
use noc_usecase::UseCaseGroups;

use crate::error::MapError;
use crate::mapper::{reroute_preset_groups, MapperOptions, RouteCache};
use crate::merge::merged_group_flows;
use crate::remap::RemapConfig;
use crate::result::{GroupConfig, MappingSolution};
use crate::seat::{free_nis, groups_touching, seat};

/// The result of a [`heal`] pass. `Healed` and `Degraded` both carry a
/// usable solution; `Degraded` additionally names the groups whose
/// configurations were torn down (their use-cases stay admitted but
/// unserviced until a later heal or re-admission revives them).
#[derive(Debug, Clone)]
pub enum HealOutcome {
    /// Every group is serviced on the degraded topology.
    Healed {
        /// The repaired solution (no route crosses a failed resource).
        solution: MappingSolution,
        /// Groups re-routed around the faults.
        rerouted: u64,
        /// Stranded cores re-seated on surviving NIs (sorted).
        moved: Vec<CoreId>,
    },
    /// The repair completed, but some groups could not be serviced.
    Degraded {
        /// The repaired solution; degraded groups have empty configs
        /// and their stranded cores are unplaced.
        solution: MappingSolution,
        /// Groups torn down (ascending).
        groups: Vec<usize>,
        /// Groups re-routed around the faults.
        rerouted: u64,
        /// Stranded cores re-seated on surviving NIs (sorted).
        moved: Vec<CoreId>,
    },
    /// No repaired solution exists at all (malformed inputs or a
    /// capacity error no placement change can fix).
    Infeasible {
        /// The unrecoverable mapper error.
        error: MapError,
    },
}

impl HealOutcome {
    /// The repaired solution, when one exists.
    pub fn solution(&self) -> Option<&MappingSolution> {
        match self {
            HealOutcome::Healed { solution, .. } | HealOutcome::Degraded { solution, .. } => {
                Some(solution)
            }
            HealOutcome::Infeasible { .. } => None,
        }
    }

    /// `true` when every group is serviced.
    pub fn is_healed(&self) -> bool {
        matches!(self, HealOutcome::Healed { .. })
    }
}

/// Repairs `base` around the faults in `options.faults`.
///
/// `base` must be preset-pure (produced by the mapper or an earlier
/// heal/admission) for `groups`, and `remap.max_moved_cores` bounds how
/// many stranded cores may be re-seated. With an empty fault set the
/// base solution is returned unchanged as `Healed`.
///
/// Only groups with a non-empty config in `base` are re-routed: a group
/// whose config is empty (a use-case the service parked) keeps it, even
/// when it touches a moved core.
///
/// Increments the `heals_attempted` / `heal_reroutes` /
/// `heal_evictions` counters in [`crate::perf`].
pub fn heal(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    base: &MappingSolution,
    options: &MapperOptions,
    remap: &RemapConfig,
) -> HealOutcome {
    count(Counter::HealsAttempted, 1);
    let topo = base.topology();
    let faults = &options.faults;
    if faults.is_empty() {
        return HealOutcome::Healed {
            solution: base.clone(),
            rerouted: 0,
            moved: Vec::new(),
        };
    }
    let merged = merged_group_flows(soc, groups);
    let banned = faults.banned_links(topo);
    let degraded_view = topo.degraded(faults);

    // Phase 1: displacement re-placement of stranded cores. Iteration
    // is in core order (BTreeMap), the target is the free surviving NI
    // minimizing merged bandwidth × surviving-hop-distance to placed
    // partners — all deterministic.
    let mut placement = base.core_mapping().clone();
    let stranded: Vec<CoreId> = placement
        .iter()
        .filter(|&(_, &ni)| faults.ni_failed(ni))
        .map(|(&c, _)| c)
        .collect();
    let mut moved: Vec<CoreId> = Vec::new();
    let mut free = free_nis(degraded_view, &placement);
    for &core in &stranded {
        if moved.len() >= remap.max_moved_cores || free.is_empty() {
            placement.remove(&core);
            continue;
        }
        seat(degraded_view, &merged, &mut placement, &mut free, core);
        moved.push(core);
    }

    // Groups with an unplaced flow endpoint are degraded outright:
    // cores that could not be re-seated above (removed from the
    // placement), and cores that were already unplaced in the base —
    // e.g. a use-case parked by an earlier degrade and not yet
    // re-admitted. Neither can be routed.
    let mut degraded_groups: BTreeSet<usize> = merged
        .iter()
        .enumerate()
        .filter(|(_, flows)| {
            flows
                .keys()
                .any(|&(s, d)| !placement.contains_key(&s) || !placement.contains_key(&d))
        })
        .map(|(g, _)| g)
        .collect();

    // Phase 2: delta re-route of the serviced groups the faults
    // actually touch: those touching a moved core or crossing a failed
    // resource. A group with an empty base config stays unrouted.
    let touched = groups_touching(&merged, |c| moved.contains(&c));
    let mut active: Vec<bool> = (0..merged.len())
        .map(|g| {
            !degraded_groups.contains(&g)
                && !base.group_configs()[g].is_empty()
                && (touched[g]
                    || base.group_configs()[g]
                        .iter()
                        .any(|(_, route)| route.path.iter().any(|l| banned.contains(l))))
        })
        .collect();

    let mut solution = base.clone();
    if active.iter().any(|&a| a) {
        // An unroutable group degrades just that group; the retry loop
        // is deterministic because `try_par_map` reports the
        // smallest-index error, and bounded by the group count. The
        // cache keeps groups routed in an earlier iteration from being
        // re-routed in the next.
        let mut cache = RouteCache::new(&merged);
        loop {
            match reroute_preset_groups(
                soc,
                groups,
                topo,
                base.spec(),
                options,
                &placement,
                &active,
                &merged,
                &mut cache,
            ) {
                Ok(delta) => {
                    solution.splice(delta);
                    break;
                }
                Err(MapError::Unroutable { group, .. }) if active[group] => {
                    active[group] = false;
                    degraded_groups.insert(group);
                }
                Err(error) => return HealOutcome::Infeasible { error },
            }
        }
    } else {
        *solution.core_mapping_mut() = placement;
    }
    let rerouted = active.iter().filter(|&&a| a).count() as u64;
    count(Counter::HealReroutes, rerouted);
    count(Counter::HealEvictions, moved.len() as u64);

    if degraded_groups.is_empty() {
        return HealOutcome::Healed {
            solution,
            rerouted,
            moved,
        };
    }
    // Tear degraded groups down to empty configs so no surviving route
    // references a failed resource.
    for &g in &degraded_groups {
        solution.group_configs_mut()[g] = GroupConfig::new();
    }
    HealOutcome::Degraded {
        solution,
        groups: degraded_groups.into_iter().collect(),
        rerouted,
        moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map_multi_usecase, preset_twin};
    use noc_tdma::TdmaSpec;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_topology::{FaultSet, MeshBuilder, Topology};
    use noc_usecase::spec::UseCaseBuilder;

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

    /// A preset-pure base solution on the given topology.
    fn preset_base(
        soc: &SocSpec,
        groups: &UseCaseGroups,
        topo: &Topology,
    ) -> (MappingSolution, MapperOptions) {
        let options = MapperOptions::default();
        let greedy =
            map_multi_usecase(soc, groups, topo, TdmaSpec::paper_default(), &options).unwrap();
        let preset = preset_twin(soc, groups, &options, &greedy).unwrap();
        (preset, options)
    }

    #[test]
    fn empty_fault_set_returns_base_unchanged() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(1)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("h");
        soc.add_use_case(uc("u0", &[(0, 1, 200)]));
        let groups = UseCaseGroups::singletons(1);
        let (base, options) = preset_base(&soc, &groups, &topo);
        match heal(&soc, &groups, &base, &options, &RemapConfig::default()) {
            HealOutcome::Healed {
                solution,
                rerouted,
                moved,
            } => {
                assert_eq!(solution, base);
                assert_eq!(rerouted, 0);
                assert!(moved.is_empty());
            }
            other => panic!("expected healed, got {other:?}"),
        }
    }

    /// A parked group (an empty base config) whose cores are all seated
    /// and include a stranded one stays out of the re-route: its config
    /// stays empty and only the serviced group is re-routed.
    #[test]
    fn parked_groups_sharing_a_moved_core_are_not_rerouted() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("h");
        soc.add_use_case(uc("u0", &[(0, 1, 200)]));
        soc.add_use_case(uc("u1", &[(1, 0, 100)]));
        let groups = UseCaseGroups::singletons(2);
        let (mut base, options) = preset_base(&soc, &groups, &topo);
        base.group_configs_mut()[1] = GroupConfig::new();

        let mut faults = FaultSet::default();
        faults.fail_ni(base.core_mapping()[&c(0)]);
        let options = MapperOptions { faults, ..options };
        match heal(&soc, &groups, &base, &options, &RemapConfig::default()) {
            HealOutcome::Healed {
                solution,
                rerouted,
                moved,
            } => {
                assert_eq!(moved, vec![c(0)]);
                assert_eq!(rerouted, 1);
                assert!(solution.group_configs()[1].is_empty());
                assert!(!solution.group_configs()[0].is_empty());
            }
            other => panic!("expected healed, got {other:?}"),
        }
    }

    #[test]
    fn failed_link_reroutes_only_crossing_groups() {
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(1)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("h");
        soc.add_use_case(uc("u0", &[(0, 1, 200)]));
        soc.add_use_case(uc("u1", &[(2, 3, 150)]));
        let groups = UseCaseGroups::singletons(2);
        let (base, options) = preset_base(&soc, &groups, &topo);

        // Fail a switch-to-switch link of u0's route (the NI attach
        // links have no alternative); u1's config must be untouched.
        let failed = base.group_configs()[0]
            .route(c(0), c(1))
            .unwrap()
            .path
            .iter()
            .copied()
            .find(|&l| {
                let link = topo.link(l);
                topo.node(link.src()).is_switch() && topo.node(link.dst()).is_switch()
            })
            .expect("route crosses switches");
        let mut faults = FaultSet::default();
        faults.fail_link(failed);
        let options = MapperOptions { faults, ..options };
        match heal(&soc, &groups, &base, &options, &RemapConfig::default()) {
            HealOutcome::Healed {
                solution,
                rerouted,
                moved,
            } => {
                assert_eq!(rerouted, 1);
                assert!(moved.is_empty());
                solution.verify(&soc, &groups).unwrap();
                // The failed link is gone from every route.
                for config in solution.group_configs() {
                    for (_, route) in config.iter() {
                        assert!(!route.path.contains(&failed));
                    }
                }
                // u1's config spliced verbatim.
                assert_eq!(solution.group_configs()[1], base.group_configs()[1]);
            }
            other => panic!("expected healed, got {other:?}"),
        }
    }

    #[test]
    fn stranded_core_is_moved_within_budget_and_degraded_without() {
        // 2x2 mesh with 2 NIs per switch: 4 cores leave free NIs to
        // re-seat a stranded core.
        let topo = MeshBuilder::new(2, 2)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("h");
        soc.add_use_case(uc("u0", &[(0, 1, 200)]));
        soc.add_use_case(uc("u1", &[(2, 3, 150)]));
        let groups = UseCaseGroups::singletons(2);
        let (base, options) = preset_base(&soc, &groups, &topo);

        let victim_ni = base.ni_of(c(0)).unwrap();
        let mut faults = FaultSet::default();
        faults.fail_ni(victim_ni);
        let options = MapperOptions { faults, ..options };

        // Budget 0: the stranded core cannot move; only its groups die.
        let zero = RemapConfig {
            max_moved_cores: 0,
            ..Default::default()
        };
        match heal(&soc, &groups, &base, &options, &zero) {
            HealOutcome::Degraded {
                solution,
                groups: dead,
                moved,
                ..
            } => {
                assert_eq!(dead, vec![0]);
                assert!(moved.is_empty());
                assert!(solution.group_configs()[0].is_empty());
                assert!(solution.ni_of(c(0)).is_none());
                // u1 still fully serviced.
                assert_eq!(solution.group_configs()[1], base.group_configs()[1]);
            }
            other => panic!("expected degraded, got {other:?}"),
        }

        // With budget: the core is re-seated and everything heals.
        match heal(&soc, &groups, &base, &options, &RemapConfig::default()) {
            HealOutcome::Healed {
                solution, moved, ..
            } => {
                assert_eq!(moved, vec![c(0)]);
                let new_ni = solution.ni_of(c(0)).unwrap();
                assert_ne!(new_ni, victim_ni);
                assert!(!options.faults.ni_failed(new_ni));
                solution.verify(&soc, &groups).unwrap();
            }
            other => panic!("expected healed, got {other:?}"),
        }
    }

    #[test]
    fn unroutable_group_degrades_instead_of_failing_the_heal() {
        // 1x2 mesh: exactly one link each way between the switches. Two
        // light groups survive a failed inter-switch link only if heal
        // degrades per group rather than failing outright: after the
        // failure there is no s0 -> s1 path at all.
        let topo = MeshBuilder::new(1, 2)
            .nis_per_switch(1)
            .build()
            .unwrap()
            .into_topology();
        let mut soc = SocSpec::new("h");
        soc.add_use_case(uc("u0", &[(0, 1, 100)]));
        let groups = UseCaseGroups::singletons(1);
        let (base, options) = preset_base(&soc, &groups, &topo);

        // Fail every link the configured route uses *and* its reverse
        // companions, so no alternative s->d path survives.
        let mut faults = FaultSet::default();
        for (_, route) in base.group_configs()[0].iter() {
            for &l in &route.path {
                faults.fail_link(l);
                let link = topo.link(l);
                if let Some(rev) = topo.link_between(link.dst(), link.src()) {
                    faults.fail_link(rev);
                }
            }
        }
        let options = MapperOptions { faults, ..options };
        match heal(&soc, &groups, &base, &options, &RemapConfig::default()) {
            HealOutcome::Degraded {
                solution,
                groups: dead,
                ..
            } => {
                assert_eq!(dead, vec![0]);
                assert!(solution.group_configs()[0].is_empty());
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }
}
