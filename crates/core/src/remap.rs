//! Limited per-group mapping reconfiguration — the paper's stated
//! extension.
//!
//! The baseline methodology pins every core to one NI across all
//! use-cases, because fully per-use-case placements would need each core
//! wired to several NIs. The paper notes the middle ground: "The methods
//! presented in this paper can be easily extended to support even limited
//! re-configuration of the mapping across the different use-cases"
//! (Section 3), and lists mapping reconfiguration as future work.
//!
//! This module implements that extension: starting from a shared base
//! placement, each group may relocate up to `max_moved_cores` cores to
//! NIs that better suit *its* traffic (physically: those cores are wired
//! to a second NI port). A greedy hill-climb proposes each core of the
//! group on each NI with the displacement move the other placement
//! searches share (a swap with the NI's occupant), prices it by
//! re-routing the group with the candidate placement fixed through a
//! [`RouteCache`], and keeps improvements.
//!
//! Each group's search only reads the shared base solution and writes
//! its own slot state, so the groups are refined **in parallel** (via
//! [`noc_par`]); results are reduced in group order, making the outcome
//! independent of the thread count.

use std::collections::BTreeMap;

use noc_topology::NodeId;
use noc_usecase::spec::{CoreId, SocSpec};
use noc_usecase::UseCaseGroups;

use crate::error::MapError;
use crate::mapper::{preset_twin, reroute_preset_groups, MapperOptions, RouteCache};
use crate::merge::merged_group_flows;
use crate::result::MappingSolution;
use crate::seat::swap;

/// Parameters of the per-group remapping search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapConfig {
    /// Maximum cores a group may place differently from the base mapping
    /// (each such core needs an extra physical NI connection).
    pub max_moved_cores: usize,
    /// Hill-climb rounds per group (each round scans all single moves).
    pub rounds: usize,
}

impl Default for RemapConfig {
    fn default() -> Self {
        RemapConfig {
            max_moved_cores: 2,
            rounds: 3,
        }
    }
}

/// Per-group placement refinements of a base design.
#[derive(Debug, Clone, PartialEq)]
pub struct RemappedDesign {
    /// One refined solution per group (same topology and spec; only the
    /// group's own traffic is routed in it).
    pub per_group: Vec<MappingSolution>,
    /// Cores each group placed differently from the base.
    pub moved: Vec<Vec<CoreId>>,
}

/// The spec containing only one group's use-cases (with a matching
/// single-group partition), so a per-group solution can be produced and
/// verified independently.
fn group_spec(soc: &SocSpec, groups: &UseCaseGroups, g: usize) -> (SocSpec, UseCaseGroups) {
    let mut sub = SocSpec::new(format!("{}-group{g}", soc.name()));
    for &uc in groups.members(g) {
        sub.add_use_case(soc.use_case(uc).clone());
    }
    let n = sub.use_case_count();
    (sub, UseCaseGroups::single_group(n))
}

fn moved_cores(
    base: &BTreeMap<CoreId, NodeId>,
    candidate: &BTreeMap<CoreId, NodeId>,
) -> Vec<CoreId> {
    candidate
        .iter()
        .filter(|(core, ni)| base.get(core) != Some(ni))
        .map(|(&core, _)| core)
        .collect()
}

/// Refines `base` by letting every group move up to
/// [`RemapConfig::max_moved_cores`] cores, greedily minimizing the
/// group's bandwidth-weighted hop cost.
///
/// Per round, each core of the group (in core order) is tried on each
/// NI (in topology order), swapping with the NI's occupant; a move is
/// kept when the group re-routed under it costs less than before.
///
/// # Errors
///
/// Propagates mapper errors from the initial per-group re-route on the
/// base placement (candidate moves that fail to route are simply
/// rejected).
pub fn refine_with_remap(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    options: &MapperOptions,
    base: &MappingSolution,
    config: &RemapConfig,
) -> Result<RemappedDesign, MapError> {
    let nis = base.topology().nis();

    let refine_group = |g: usize| -> Result<(MappingSolution, Vec<CoreId>), MapError> {
        let span = noc_obs::span("remap-group");
        span.attr("group", g);
        let (sub_soc, sub_groups) = group_spec(soc, groups, g);
        let merged = merged_group_flows(&sub_soc, &sub_groups);
        let mut cache = RouteCache::new(&merged);

        // Start: the base placement, re-routed for this group only.
        let mut current = preset_twin(options, base, &merged)?;
        let mut cost = current.comm_cost_bytes_hops();
        let mut mapping = base.core_mapping().clone();

        for _ in 0..config.rounds {
            let mut improved = false;
            for core in sub_soc.cores() {
                for &target in nis {
                    let from = mapping[&core];
                    if target == from {
                        continue;
                    }
                    swap(&mut mapping, core, target);
                    if moved_cores(base.core_mapping(), &mapping).len() <= config.max_moved_cores {
                        let delta = reroute_preset_groups(
                            current.topology(),
                            current.spec(),
                            options,
                            &mapping,
                            &[true],
                            &merged,
                            &mut cache,
                        );
                        if let Ok(delta) = delta {
                            let moved_cost = delta.configs[0].1.cost_bytes_hops();
                            if moved_cost < cost {
                                cost = moved_cost;
                                current.splice(delta);
                                improved = true;
                                continue;
                            }
                        }
                    }
                    swap(&mut mapping, core, from);
                }
            }
            if !improved {
                break;
            }
        }

        Ok((current, moved_cores(base.core_mapping(), &mapping)))
    };

    // One independent hill-climb per group, reduced in group order.
    let refined =
        noc_par::try_par_map((0..groups.group_count()).collect(), |_, g| refine_group(g))?;
    let (per_group, moved) = refined.into_iter().unzip();
    Ok(RemappedDesign { per_group, moved })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::design_smallest_mesh;
    use crate::mapper::map_multi_usecase;
    use noc_tdma::TdmaSpec;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_topology::MeshBuilder;
    use noc_usecase::spec::UseCaseBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    /// Two use-cases with *conflicting* affinity: u0 wants (0,1) and
    /// (2,3) together; u1 wants (0,2) and (1,3) together. One shared
    /// placement cannot please both — per-group remapping can.
    fn conflicted_soc() -> SocSpec {
        let mut soc = SocSpec::new("conflict");
        soc.add_use_case(
            UseCaseBuilder::new("u0")
                .flow(
                    c(0),
                    c(1),
                    Bandwidth::from_mbps(600),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(
                    c(2),
                    c(3),
                    Bandwidth::from_mbps(600),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .build(),
        );
        soc.add_use_case(
            UseCaseBuilder::new("u1")
                .flow(
                    c(0),
                    c(2),
                    Bandwidth::from_mbps(600),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(
                    c(1),
                    c(3),
                    Bandwidth::from_mbps(600),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .build(),
        );
        soc
    }

    fn setup() -> (SocSpec, UseCaseGroups, MappingSolution, MapperOptions) {
        let soc = conflicted_soc();
        let groups = UseCaseGroups::singletons(2);
        let opts = MapperOptions::default();
        let base =
            design_smallest_mesh(&soc, &groups, TdmaSpec::paper_default(), &opts, 16).unwrap();
        (soc, groups, base, opts)
    }

    #[test]
    fn remap_respects_move_budget() {
        let (soc, groups, base, opts) = setup();
        for budget in [0usize, 1, 2, 4] {
            let cfg = RemapConfig {
                max_moved_cores: budget,
                rounds: 2,
            };
            let design = refine_with_remap(&soc, &groups, &opts, &base, &cfg).unwrap();
            for m in &design.moved {
                assert!(m.len() <= budget, "moved {m:?} exceeds budget {budget}");
            }
        }
    }

    #[test]
    fn zero_budget_keeps_base_placement() {
        let (soc, groups, base, opts) = setup();
        let cfg = RemapConfig {
            max_moved_cores: 0,
            rounds: 2,
        };
        let design = refine_with_remap(&soc, &groups, &opts, &base, &cfg).unwrap();
        for (g, sol) in design.per_group.iter().enumerate() {
            assert!(design.moved[g].is_empty());
            assert_eq!(sol.core_mapping(), base.core_mapping());
        }
    }

    /// Each group's base placement re-routed for that group alone: the
    /// cost the hill-climb starts from.
    fn base_costs(
        soc: &SocSpec,
        groups: &UseCaseGroups,
        opts: &MapperOptions,
        base: &MappingSolution,
    ) -> Vec<u128> {
        (0..groups.group_count())
            .map(|g| {
                let (sub, subg) = group_spec(soc, groups, g);
                let twin = preset_twin(opts, base, &merged_group_flows(&sub, &subg)).unwrap();
                twin.comm_cost_bytes_hops()
            })
            .collect()
    }

    /// A random SoC of up to ten cores mapped on a random small mesh,
    /// without faults; `None` when the mapper finds no mapping.
    fn random_design(
        seed: u64,
    ) -> Option<(SocSpec, UseCaseGroups, MappingSolution, MapperOptions)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = MeshBuilder::new(rng.gen_range(2..=3u16), rng.gen_range(2..=3u16))
            .nis_per_switch(rng.gen_range(1..=2u16))
            .build()
            .unwrap()
            .into_topology();
        let cores = rng.gen_range(4..=topo.ni_count().min(10) as u32);
        let mut soc = SocSpec::new("random");
        let use_cases = rng.gen_range(1..=4usize);
        for u in 0..use_cases {
            let mut b = UseCaseBuilder::new(format!("u{u}"));
            let mut pairs = BTreeSet::new();
            while pairs.len() < rng.gen_range(1..=5usize) {
                let (src, dst) = (rng.gen_range(0..cores), rng.gen_range(0..cores));
                if src != dst && pairs.insert((src, dst)) {
                    let mbps = rng.gen_range(10..900u64);
                    b = b
                        .flow(
                            c(src),
                            c(dst),
                            Bandwidth::from_mbps(mbps),
                            Latency::UNCONSTRAINED,
                        )
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
        let opts = MapperOptions::default();
        let base =
            map_multi_usecase(&soc, &groups, &topo, TdmaSpec::paper_default(), &opts).ok()?;
        Some((soc, groups, base, opts))
    }

    /// On the conflicted SoC and on random small SoCs, every per-group
    /// solution verifies on its sub-spec, moves at most the budget from
    /// the base, costs no more than the base re-routed for its group,
    /// and equals a fresh `preset_twin` of its own placement: the
    /// configs the climb spliced from cached re-routes are the ones a
    /// full re-route gives.
    #[test]
    fn remap_never_hurts_and_verifies() {
        let cases = std::iter::once(Some(setup())).chain((0..32).map(random_design));
        let (mut checked, mut moved) = (0, 0);
        for (i, (soc, groups, base, opts)) in cases.flatten().enumerate() {
            let cfg = RemapConfig {
                max_moved_cores: 1 + i % 2,
                rounds: 2,
            };
            let design = refine_with_remap(&soc, &groups, &opts, &base, &cfg).unwrap();
            let base_costs = base_costs(&soc, &groups, &opts, &base);
            for (g, sol) in design.per_group.iter().enumerate() {
                let (sub, subg) = group_spec(&soc, &groups, g);
                sol.verify(&sub, &subg).expect("per-group solution valid");
                let m = &design.moved[g];
                assert!(m.len() <= cfg.max_moved_cores, "case {i} group {g}: {m:?}");
                assert_eq!(*m, moved_cores(base.core_mapping(), sol.core_mapping()));
                assert!(
                    sol.comm_cost_bytes_hops() <= base_costs[g],
                    "case {i} group {g}: {} vs base {}",
                    sol.comm_cost_bytes_hops(),
                    base_costs[g]
                );
                let fresh = preset_twin(&opts, sol, &merged_group_flows(&sub, &subg)).unwrap();
                assert_eq!(*sol, fresh, "case {i} group {g}: spliced configs");
                moved += m.len();
            }
            checked += 1;
        }
        assert!(checked > 16, "only {checked} cases mapped");
        assert!(moved > 0, "no group moved a core");
    }

    #[test]
    fn conflicting_affinities_benefit_from_remap() {
        // With enough budget, at least one group should find a cheaper
        // placement than the shared compromise (unless the base is
        // already simultaneously optimal for both, which the conflicting
        // affinities make unlikely on a multi-switch mesh).
        let (soc, groups, base, opts) = setup();
        if base.switch_count() < 2 {
            // Single switch: all placements equal, nothing to improve.
            return;
        }
        let cfg = RemapConfig {
            max_moved_cores: 4,
            rounds: 4,
        };
        let before: u128 = base_costs(&soc, &groups, &opts, &base).iter().sum();
        let design = refine_with_remap(&soc, &groups, &opts, &base, &cfg).unwrap();
        let after: u128 = design
            .per_group
            .iter()
            .map(MappingSolution::comm_cost_bytes_hops)
            .sum();
        assert!(
            after <= before,
            "remapping must not lose: {after} vs {before}"
        );
    }
}
