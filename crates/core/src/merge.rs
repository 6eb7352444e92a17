//! Per-group flow merging.
//!
//! Use-cases in one switching-graph group share a single NoC
//! configuration, so a `(src, dst)` pair that appears in several members
//! is configured once, sized for the member with the largest bandwidth
//! and bounded by the member with the tightest latency (Section 5: "the
//! path and slot reservation are chosen for the flow that has the maximum
//! bandwidth value across the different use-cases in the group").
//!
//! Note the relationship to the worst-case baseline: merging over a
//! *group* is a scoped version of what the WC method of [ASPDAC'06] does
//! over *all* use-cases — [`crate::wc`] reuses this module with a
//! single-group partition.

use std::collections::BTreeMap;

use noc_topology::units::{Bandwidth, Latency};
use noc_usecase::spec::{CoreId, SocSpec, UseCase};
use noc_usecase::UseCaseGroups;

/// The merged constraint of one `(src, dst)` pair within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedFlow {
    /// Largest bandwidth any group member requires on this pair.
    pub bandwidth: Bandwidth,
    /// Tightest latency bound any group member imposes on this pair.
    pub latency: Latency,
}

/// Merged pair constraints for every group: `result[g]` maps each
/// `(src, dst)` pair used by group `g` to its sizing constraint.
///
/// ```
/// use noc_topology::units::{Bandwidth, Latency};
/// use noc_usecase::{spec::{CoreId, SocSpec, UseCaseBuilder}, UseCaseGroups};
/// use nocmap::merged_group_flows;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut soc = SocSpec::new("s");
/// let c = |i| CoreId::new(i);
/// soc.add_use_case(UseCaseBuilder::new("a")
///     .flow(c(0), c(1), Bandwidth::from_mbps(100), Latency::from_us(4))?.build());
/// soc.add_use_case(UseCaseBuilder::new("b")
///     .flow(c(0), c(1), Bandwidth::from_mbps(250), Latency::from_us(9))?.build());
///
/// // Same group: the pair is sized max(100, 250), bounded min(4us, 9us).
/// let merged = merged_group_flows(&soc, &UseCaseGroups::single_group(2));
/// let f = &merged[0][&(c(0), c(1))];
/// assert_eq!(f.bandwidth, Bandwidth::from_mbps(250));
/// assert_eq!(f.latency, Latency::from_us(4));
///
/// // Separate groups: each keeps its own constraint.
/// let split = merged_group_flows(&soc, &UseCaseGroups::singletons(2));
/// assert_eq!(split[0][&(c(0), c(1))].bandwidth, Bandwidth::from_mbps(100));
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if the partition does not cover exactly the spec's use-cases.
pub fn merged_group_flows(
    soc: &SocSpec,
    groups: &UseCaseGroups,
) -> Vec<BTreeMap<(CoreId, CoreId), MergedFlow>> {
    assert_eq!(
        groups.use_case_count(),
        soc.use_case_count(),
        "group partition must cover the spec's use-cases"
    );
    groups
        .groups()
        .iter()
        .map(|members| merged_flows(members.iter().map(|&uc| soc.use_case(uc))))
        .collect()
}

/// Merged pair constraints of one group given its member use-cases —
/// one entry of [`merged_group_flows`].
pub fn merged_flows<'a>(
    members: impl IntoIterator<Item = &'a UseCase>,
) -> BTreeMap<(CoreId, CoreId), MergedFlow> {
    let mut merged: BTreeMap<(CoreId, CoreId), MergedFlow> = BTreeMap::new();
    for flow in members.into_iter().flat_map(UseCase::flows) {
        let entry = merged.entry(flow.endpoints()).or_insert(MergedFlow {
            bandwidth: Bandwidth::ZERO,
            latency: Latency::UNCONSTRAINED,
        });
        entry.bandwidth = entry.bandwidth.max(flow.bandwidth());
        entry.latency = entry.latency.min(flow.latency());
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_usecase::spec::UseCaseBuilder;

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn bw(m: u64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    fn sample_soc() -> SocSpec {
        let mut soc = SocSpec::new("s");
        soc.add_use_case(
            UseCaseBuilder::new("u0")
                .flow(c(0), c(1), bw(100), Latency::from_us(4))
                .unwrap()
                .flow(c(1), c(2), bw(50), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc.add_use_case(
            UseCaseBuilder::new("u1")
                .flow(c(0), c(1), bw(250), Latency::from_us(9))
                .unwrap()
                .flow(c(2), c(3), bw(75), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc
    }

    #[test]
    fn singletons_keep_per_use_case_constraints() {
        let soc = sample_soc();
        let merged = merged_group_flows(&soc, &UseCaseGroups::singletons(2));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].len(), 2);
        assert_eq!(merged[1].len(), 2);
        assert_eq!(merged[0][&(c(0), c(1))].bandwidth, bw(100));
        assert_eq!(merged[1][&(c(0), c(1))].bandwidth, bw(250));
    }

    #[test]
    fn single_group_takes_worst_case() {
        let soc = sample_soc();
        let merged = merged_group_flows(&soc, &UseCaseGroups::single_group(2));
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].len(), 3);
        let f01 = merged[0][&(c(0), c(1))];
        assert_eq!(f01.bandwidth, bw(250));
        assert_eq!(f01.latency, Latency::from_us(4));
        // Pair unique to one member carries over unchanged.
        assert_eq!(merged[0][&(c(2), c(3))].bandwidth, bw(75));
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn mismatched_partition_panics() {
        let soc = sample_soc();
        let _ = merged_group_flows(&soc, &UseCaseGroups::singletons(3));
    }

    #[test]
    fn empty_spec_yields_empty_groups() {
        let soc = SocSpec::new("empty");
        let merged = merged_group_flows(&soc, &UseCaseGroups::singletons(0));
        assert!(merged.is_empty());
    }
}
