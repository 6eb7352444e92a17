//! Where a core may go, and the one displacement move. Admission's
//! greedy fast path and heal's re-placement of stranded cores share the
//! seating rule; admission's repair, the displacement strategy,
//! annealing and heal share the move: cores ordered heaviest first by
//! merged demand, a swap with the target NI's occupant (the inverse
//! swap is the rollback), and the scan for the groups a move must
//! re-route. (`remap::refine_with_remap` keeps a hill-climb of its own
//! over per-group sub-specs.)

use std::cmp::Reverse;
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

/// Total merged demand per core: bytes/s summed over every pair of
/// `merged` the core takes part in, once per group map the pair is in.
pub(crate) fn core_weights(
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
) -> BTreeMap<CoreId, u128> {
    let mut weights: BTreeMap<CoreId, u128> = BTreeMap::new();
    for (&(src, dst), flow) in merged.iter().flatten() {
        let bw = flow.bandwidth.as_bytes_per_sec() as u128;
        *weights.entry(src).or_default() += bw;
        *weights.entry(dst).or_default() += bw;
    }
    weights
}

/// Sorts `cores` heaviest first under `weights` (a core without a
/// weight weighs 0), ties by core id.
pub(crate) fn heaviest_first(cores: &mut [CoreId], weights: &BTreeMap<CoreId, u128>) {
    cores.sort_by_key(|&c| (Reverse(weights.get(&c).copied().unwrap_or(0)), c));
}

/// The core `placement` seats on `ni`, if any.
pub(crate) fn occupant(placement: &BTreeMap<CoreId, NodeId>, ni: NodeId) -> Option<CoreId> {
    placement
        .iter()
        .find(|&(_, &seat)| seat == ni)
        .map(|(&core, _)| core)
}

/// Moves the placed `core` onto `target`, a different NI, and the core
/// seated there, if any, onto the NI `core` vacates; returns that
/// evicted core. Swapping `core` back onto the NI it left is the exact
/// inverse, so a rejected move rolls back with a second `swap`.
pub(crate) fn swap(
    placement: &mut BTreeMap<CoreId, NodeId>,
    core: CoreId,
    target: NodeId,
) -> Option<CoreId> {
    let evicted = occupant(placement, target);
    let from = placement
        .insert(core, target)
        .expect("only a placed core moves");
    if let Some(evicted) = evicted {
        placement.insert(evicted, from);
    }
    evicted
}

/// For each group of `merged`, whether any of its flows has an endpoint
/// `moved` selects: the groups a placement move must re-route.
pub(crate) fn groups_touching(
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    moved: impl Fn(CoreId) -> bool,
) -> Vec<bool> {
    merged
        .iter()
        .map(|flows| flows.keys().any(|&(s, d)| moved(s) || moved(d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_topology::{FaultSet, MeshBuilder};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    /// A swap keeps the placement injective and moves exactly the mover
    /// and the target's occupant; swapping the mover back onto the NI it
    /// left restores the placement exactly, for free and occupied
    /// targets alike.
    #[test]
    fn swap_is_undone_by_its_inverse_swap() {
        let mut occupied_targets = 0;
        let mut free_targets = 0;
        for seed in 0..60 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let topo = MeshBuilder::new(rng.gen_range(1..=3u16), rng.gen_range(1..=3u16))
                .nis_per_switch(rng.gen_range(1..=3u16))
                .build()
                .unwrap()
                .into_topology();
            let mut nis = topo.nis().to_vec();
            if nis.len() < 2 {
                continue;
            }
            nis.shuffle(&mut rng);
            let cores = rng.gen_range(1..=nis.len());
            let mut placement: BTreeMap<CoreId, NodeId> = (0..cores)
                .map(|i| (CoreId::new(rng.gen_range(0..4u32) + 4 * i as u32), nis[i]))
                .collect();
            let injective =
                |p: &BTreeMap<CoreId, NodeId>| p.values().collect::<BTreeSet<_>>().len() == p.len();
            for _ in 0..20 {
                let keys: Vec<CoreId> = placement.keys().copied().collect();
                let core = keys[rng.gen_range(0..keys.len())];
                let from = placement[&core];
                let target = loop {
                    let ni = nis[rng.gen_range(0..nis.len())];
                    if ni != from {
                        break ni;
                    }
                };
                let before = placement.clone();
                let seated = occupant(&placement, target);
                let evicted = swap(&mut placement, core, target);
                assert_eq!(evicted, seated, "seed {seed}");
                assert!(injective(&placement), "seed {seed}");
                assert_eq!(placement[&core], target);
                match evicted {
                    Some(e) => {
                        occupied_targets += 1;
                        assert_eq!(placement[&e], from);
                    }
                    None => free_targets += 1,
                }
                let moved = placement.iter().filter(|&(c, ni)| before[c] != *ni).count();
                assert_eq!(moved, 1 + usize::from(evicted.is_some()));
                assert_eq!(swap(&mut placement, core, from), evicted, "seed {seed}");
                assert_eq!(placement, before, "seed {seed}: the inverse swap");
                // Keep some moves so later swaps start from new placements.
                if rng.gen_bool(0.5) {
                    swap(&mut placement, core, target);
                    assert!(injective(&placement), "seed {seed}");
                }
            }
        }
        assert!(occupied_targets > 100 && free_targets > 100);
    }

    /// `groups_touching` marks exactly the groups whose core set meets
    /// the moved cores, on random merged flows.
    #[test]
    fn groups_touching_matches_each_groups_core_set() {
        let c = CoreId::new;
        let (mut touched, mut untouched) = (0, 0);
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cores = rng.gen_range(2..=12u32);
            let merged: Vec<BTreeMap<(CoreId, CoreId), MergedFlow>> = (0..rng.gen_range(0..=6))
                .map(|_| {
                    (0..rng.gen_range(0..=5))
                        .map(|_| {
                            let s = rng.gen_range(0..cores);
                            let d = (s + rng.gen_range(1..cores)) % cores;
                            ((c(s), c(d)), flow(rng.gen_range(1..1000)))
                        })
                        .collect()
                })
                .collect();
            let moved: BTreeSet<CoreId> = (0..rng.gen_range(0..=3))
                .map(|_| c(rng.gen_range(0..cores)))
                .collect();
            let got = groups_touching(&merged, |core| moved.contains(&core));
            assert_eq!(got.len(), merged.len());
            for (g, flows) in merged.iter().enumerate() {
                let group_cores: BTreeSet<CoreId> =
                    flows.keys().flat_map(|&(s, d)| [s, d]).collect();
                let expected = !group_cores.is_disjoint(&moved);
                assert_eq!(got[g], expected, "seed {seed}, group {g}");
                if expected {
                    touched += 1;
                } else {
                    untouched += 1;
                }
            }
        }
        assert!(touched > 50 && untouched > 50);
    }
}
