//! Where a core may go: the seating rule that admission's greedy fast
//! path and heal's re-placement of stranded cores share, and the target
//! order of admission's displacement repair.

use std::collections::{BTreeMap, BTreeSet};

use noc_topology::{DegradedView, NodeId};
use noc_usecase::spec::CoreId;

use crate::merge::MergedFlow;

/// The surviving NIs no core of `placement` occupies, in topology order.
pub(crate) fn free_nis(
    view: DegradedView<'_>,
    placement: &BTreeMap<CoreId, NodeId>,
) -> Vec<NodeId> {
    let occupied: BTreeSet<NodeId> = placement.values().copied().collect();
    let mut free = view.usable_nis();
    free.retain(|ni| !occupied.contains(ni));
    free
}

/// Seats `core` on the NI of `free` with the lowest sum of bandwidth ×
/// surviving hop distance to the partners `placement` already seats,
/// over every flow of `flows` the core takes part in. An unreachable
/// partner counts as `usize::MAX` hops and the sum saturates; ties go to
/// the earliest NI in `free`. The NI moves from `free` into `placement`.
///
/// # Panics
///
/// When `free` is empty.
pub(crate) fn seat(
    view: DegradedView<'_>,
    flows: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    placement: &mut BTreeMap<CoreId, NodeId>,
    free: &mut Vec<NodeId>,
    core: CoreId,
) {
    let cost = |ni: NodeId| {
        let mut cost: u128 = 0;
        for (&(s, d), flow) in flows.iter().flatten() {
            let partner = if s == core {
                d
            } else if d == core {
                s
            } else {
                continue;
            };
            if let Some(&pni) = placement.get(&partner) {
                let hops = view.hop_distance(ni, pni).unwrap_or(usize::MAX) as u128;
                let bw = flow.bandwidth.as_bytes_per_sec() as u128;
                cost = cost.saturating_add(bw.saturating_mul(hops));
            }
        }
        cost
    };
    let (i, _) = free
        .iter()
        .enumerate()
        .min_by_key(|&(_, &ni)| cost(ni))
        .expect("a free NI to seat on");
    placement.insert(core, free.remove(i));
}

/// Where displacement may re-seat a core now on `from`: every surviving
/// NI but `from`, nearest first over surviving links (unreachable ones
/// last), then by NI index. One BFS from `from` gives every distance.
pub(crate) fn displacement_targets(view: DegradedView<'_>, from: NodeId) -> Vec<NodeId> {
    let dist = view.hop_distances_from(from);
    let mut targets = view.usable_nis();
    targets.retain(|&ni| ni != from);
    targets.sort_by_key(|&ni| (dist[ni.index()].unwrap_or(usize::MAX), ni));
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_topology::{FaultSet, MeshBuilder};

    fn flow(bytes_per_sec: u64) -> MergedFlow {
        MergedFlow {
            bandwidth: Bandwidth::from_bytes_per_sec(bytes_per_sec),
            latency: Latency::UNCONSTRAINED,
        }
    }

    /// A core goes next to its heaviest placed partner, the earliest NI
    /// wins a tie, and flows near `u64::MAX` B/s towards unreachable
    /// partners saturate the cost instead of overflowing it.
    #[test]
    fn seats_near_placed_partners_and_saturates() {
        let topo = MeshBuilder::new(1, 3)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let nis = topo.nis().to_vec();
        let (near_last, near_first) = (nis[5], nis[0]);
        let c = CoreId::new;
        let no_faults = FaultSet::new();
        let view = topo.degraded(&no_faults);
        let flows = [
            BTreeMap::from([((c(0), c(1)), flow(10))]),
            BTreeMap::from([((c(2), c(0)), flow(1000))]),
        ];
        let mut placement = BTreeMap::from([(c(1), near_first), (c(2), near_last)]);
        let mut free = free_nis(view, &placement);
        assert_eq!(free, nis[1..5]);
        seat(view, &flows, &mut placement, &mut free, c(0));
        assert_eq!(topo.hop_distance(placement[&c(0)], near_last), Some(2));
        assert_eq!(free.len(), 3);

        // Both partners unreachable from every free NI: each costs
        // `usize::MAX` hops, so every NI ties and the first one wins.
        let mut faults = FaultSet::new();
        for &ni in &[near_first, near_last] {
            for &l in topo.outgoing(ni).iter().chain(topo.incoming(ni)) {
                faults.fail_link(l);
            }
        }
        let view = topo.degraded(&faults);
        let heavy = [BTreeMap::from([
            ((c(3), c(1)), flow(u64::MAX)),
            ((c(2), c(3)), flow(u64::MAX - 1)),
        ])];
        let first = free[0];
        seat(view, &heavy, &mut placement, &mut free, c(3));
        assert_eq!(placement[&c(3)], first);
    }
}
