//! Mapping solutions: core placement plus one NoC configuration per
//! use-case group.

use std::collections::BTreeMap;

use noc_tdma::TdmaSpec;
use noc_topology::units::{Bandwidth, Latency};
use noc_topology::{AreaModel, LinkId, NodeId, Topology};
use noc_usecase::spec::{CoreId, SocSpec, UseCaseId};
use noc_usecase::UseCaseGroups;

use crate::verify::{self, VerifyError};

/// One configured GT connection: the path and TDMA reservation serving a
/// `(src, dst)` core pair inside one group's NoC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Links from the source core's NI to the destination core's NI.
    pub path: Vec<LinkId>,
    /// Reserved base slots (slot `s + i` is held on the `i`-th link).
    pub base_slots: Vec<usize>,
    /// Bandwidth the reservation is sized for (the group's largest
    /// same-pair flow).
    pub bandwidth: Bandwidth,
    /// Worst-case latency of the connection as configured.
    pub worst_case_latency: Latency,
}

impl Route {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.path.len()
    }

    /// Number of reserved base slots.
    pub fn slot_count(&self) -> usize {
        self.base_slots.len()
    }
}

/// The NoC configuration of one use-case group: a route per communicating
/// core pair. Loaded into the NIs/switches whenever the SoC switches into
/// a use-case of this group.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupConfig {
    routes: BTreeMap<(CoreId, CoreId), Route>,
}

impl GroupConfig {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        GroupConfig::default()
    }

    /// Adds (or replaces) the route for a pair.
    pub fn insert(&mut self, src: CoreId, dst: CoreId, route: Route) -> Option<Route> {
        self.routes.insert((src, dst), route)
    }

    /// The route serving `(src, dst)`, if configured.
    pub fn route(&self, src: CoreId, dst: CoreId) -> Option<&Route> {
        self.routes.get(&(src, dst))
    }

    /// All `(pair, route)` entries, sorted by pair.
    pub fn iter(&self) -> impl Iterator<Item = (&(CoreId, CoreId), &Route)> {
        self.routes.iter()
    }

    /// Number of configured connections.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no connection is configured.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// `Σ bandwidth × hops` over the configured routes, in exact
    /// bytes/s·hops (see [`MappingSolution::comm_cost_bytes_hops`]).
    pub fn cost_bytes_hops(&self) -> u128 {
        self.routes
            .values()
            .map(|r| r.bandwidth.as_bytes_per_sec() as u128 * r.hops() as u128)
            .sum()
    }
}

/// What a delta re-route ([`crate::reroute_preset_groups`]) computed:
/// the placement it ran on, and the configs of the groups it routed or
/// took from its cache. Every other group keeps its config;
/// [`MappingSolution::splice`] writes the delta into the solution the
/// re-route was made against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionDelta {
    /// The full core → NI placement of the re-route.
    pub placement: BTreeMap<CoreId, NodeId>,
    /// `(group, config)` per re-routed group, by ascending group.
    pub configs: Vec<(usize, GroupConfig)>,
}

/// A complete multi-use-case mapping: the outcome of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingSolution {
    topology: Topology,
    label: String,
    spec: TdmaSpec,
    core_to_ni: BTreeMap<CoreId, NodeId>,
    group_configs: Vec<GroupConfig>,
}

impl MappingSolution {
    /// Assembles a solution (used by the mapper; most users obtain
    /// solutions from [`crate::map_multi_usecase`] or
    /// [`crate::design::design_smallest_mesh`]).
    pub fn new(
        topology: Topology,
        label: impl Into<String>,
        spec: TdmaSpec,
        core_to_ni: BTreeMap<CoreId, NodeId>,
        group_configs: Vec<GroupConfig>,
    ) -> Self {
        MappingSolution {
            topology,
            label: label.into(),
            spec,
            core_to_ni,
            group_configs,
        }
    }

    /// The topology the solution is mapped onto (a mesh in the paper's
    /// evaluation, but any strongly-connected NoC graph works).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Human-readable topology label (`"2x3"` for meshes, caller-chosen
    /// for custom fabrics).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Renames the topology label (used by the design flow to stamp mesh
    /// dimensions).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// The TDMA parameters the solution was configured for.
    pub fn spec(&self) -> TdmaSpec {
        self.spec
    }

    /// Number of switches used — the paper's primary quality metric.
    pub fn switch_count(&self) -> usize {
        self.topology.switch_count()
    }

    /// The NI hosting `core`, if mapped.
    pub fn ni_of(&self, core: CoreId) -> Option<NodeId> {
        self.core_to_ni.get(&core).copied()
    }

    /// The full core → NI assignment.
    pub fn core_mapping(&self) -> &BTreeMap<CoreId, NodeId> {
        &self.core_to_ni
    }

    /// The core → NI assignment, for a caller that edits a running
    /// solution in place (the online service unseats a departing
    /// use-case's cores).
    pub fn core_mapping_mut(&mut self) -> &mut BTreeMap<CoreId, NodeId> {
        &mut self.core_to_ni
    }

    /// Per-group NoC configurations, indexed by group id.
    pub fn group_configs(&self) -> &[GroupConfig] {
        &self.group_configs
    }

    /// The per-group configurations, for a caller that inserts or
    /// removes a group's config wherever it inserts or removes the
    /// group itself (the online service, one group per use-case).
    pub fn group_configs_mut(&mut self) -> &mut Vec<GroupConfig> {
        &mut self.group_configs
    }

    /// The configuration of one group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn group_config(&self, group: usize) -> &GroupConfig {
        &self.group_configs[group]
    }

    /// The route serving use-case `uc`'s flow `(src, dst)` under the
    /// partition `groups`.
    pub fn route_for(
        &self,
        groups: &UseCaseGroups,
        uc: UseCaseId,
        src: CoreId,
        dst: CoreId,
    ) -> Option<&Route> {
        self.group_configs
            .get(groups.group_of(uc))
            .and_then(|cfg| cfg.route(src, dst))
    }

    /// Total switch area under `model` at the configured frequency.
    pub fn area_mm2(&self, model: &AreaModel) -> f64 {
        model.topology_area_mm2(&self.topology, self.spec.frequency())
    }

    /// Total configured connections over all groups.
    pub fn connection_count(&self) -> usize {
        self.group_configs.iter().map(GroupConfig::len).sum()
    }

    /// Mean hop count over all configured routes (0 for empty solutions).
    pub fn mean_hops(&self) -> f64 {
        let (sum, n) = self
            .group_configs
            .iter()
            .flat_map(|g| g.iter())
            .fold((0usize, 0usize), |(s, n), (_, r)| (s + r.hops(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Communication-cost proxy used by the annealing refinement and the
    /// ablation benches: `Σ bandwidth × hops` over all routes, in
    /// MB/s·hops. Lower is better (shorter paths for bigger flows ⇒ lower
    /// power, per Section 5's sorting rationale).
    ///
    /// Accumulated exactly in integer bytes/s·hops and converted to MB/s
    /// once at the end, so the value cannot depend on summation order —
    /// parallel or re-ordered evaluation yields bit-identical costs (see
    /// `tests/determinism.rs` and `tests/parallel_determinism.rs`).
    pub fn comm_cost(&self) -> f64 {
        self.comm_cost_bytes_hops() as f64 / 1e6
    }

    /// The exact integer form of [`Self::comm_cost`]: `Σ bandwidth ×
    /// hops` in bytes/s·hops. Order-insensitive by construction; prefer
    /// this for equality comparisons between solutions.
    pub fn comm_cost_bytes_hops(&self) -> u128 {
        self.group_configs
            .iter()
            .map(GroupConfig::cost_bytes_hops)
            .sum()
    }

    /// Writes `delta` into this solution in place: its placement
    /// replaces the core → NI assignment, and each of its configs
    /// replaces that group's config. Every other group's config stays.
    ///
    /// # Panics
    ///
    /// When a config's group is out of range.
    pub fn splice(&mut self, delta: SolutionDelta) {
        self.core_to_ni = delta.placement;
        for (group, config) in delta.configs {
            self.group_configs[group] = config;
        }
    }

    /// Re-validates the whole solution against the spec and partition.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found; see [`crate::verify`] for
    /// the full list of checks.
    pub fn verify(&self, soc: &SocSpec, groups: &UseCaseGroups) -> Result<(), VerifyError> {
        verify::verify_solution(self, soc, groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_config_crud() {
        let mut cfg = GroupConfig::new();
        assert!(cfg.is_empty());
        let route = Route {
            path: vec![],
            base_slots: vec![0],
            bandwidth: Bandwidth::from_mbps(10),
            worst_case_latency: Latency::from_ns(100),
        };
        assert!(cfg
            .insert(CoreId::new(0), CoreId::new(1), route.clone())
            .is_none());
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.route(CoreId::new(0), CoreId::new(1)), Some(&route));
        assert!(cfg.route(CoreId::new(1), CoreId::new(0)).is_none());
        let replaced = cfg.insert(CoreId::new(0), CoreId::new(1), route.clone());
        assert_eq!(replaced, Some(route));
    }

    #[test]
    fn route_stats() {
        let r = Route {
            path: vec![],
            base_slots: vec![0, 4, 8],
            bandwidth: Bandwidth::from_mbps(10),
            worst_case_latency: Latency::from_ns(100),
        };
        assert_eq!(r.hops(), 0);
        assert_eq!(r.slot_count(), 3);
    }
}
