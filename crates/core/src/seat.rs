//! Where a core may go, and the one displacement move. Admission's
//! greedy fast path and heal's re-placement of stranded cores share the
//! seating rule; admission's repair, the displacement strategy,
//! annealing, per-group remapping and heal share the move: cores
//! ordered heaviest first by merged demand, a swap with the target NI's
//! occupant (the inverse swap is the rollback), and the scan for the
//! groups a move must re-route. The displacement strategy also reads a
//! move's lower cost bound here, from a table of surviving NI-to-NI hop
//! distances, before it routes the move.

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
/// over every flow of `flows` the core takes part in. Each distance runs
/// in its flow's direction, from the candidate NI to a receiving partner
/// and from a sending partner to the candidate: links are directed, so
/// under a fault an NI may reach a partner it cannot hear. An
/// unreachable partner counts as `usize::MAX` hops and the sum
/// saturates; ties go to the earliest NI in `free`. The NI moves from
/// `free` into `placement`.
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
            let hops = if s == core {
                placement.get(&d).map(|&pni| view.hop_distance(ni, pni))
            } else if d == core {
                placement.get(&s).map(|&pni| view.hop_distance(pni, ni))
            } else {
                continue;
            };
            if let Some(hops) = hops {
                let hops = hops.unwrap_or(usize::MAX) as u128;
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

/// Surviving hop distances between every two NIs: one BFS per NI,
/// built once and read for many moves.
pub(crate) struct HopTable {
    /// Per node id, the distances from that NI; empty for a switch.
    rows: Vec<Vec<Option<usize>>>,
}

impl HopTable {
    /// One BFS over `view`'s surviving links from each NI.
    pub(crate) fn new(view: DegradedView<'_>) -> Self {
        let topo = view.topology();
        let mut rows = vec![Vec::new(); topo.node_count()];
        for &ni in topo.nis() {
            rows[ni.index()] = view.hop_distances_from(ni);
        }
        HopTable { rows }
    }

    /// As [`DegradedView::hop_distance`] between two NIs, `None` on error.
    pub(crate) fn get(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.rows[from.index()][to.index()]
    }
}

/// A lower bound on what routing the groups `affected` marks costs
/// under `placement`: Σ bandwidth × surviving hop distance over their
/// merged flows, in bytes/s·hops. A route never has fewer links than
/// the hop distance between its NIs over the links the mapper may use,
/// so no routing of those groups costs less than the bound. `None` when
/// some pair's NIs are not joined: those groups cannot route.
///
/// # Panics
///
/// When `placement` leaves a core of an affected group unseated.
pub(crate) fn hop_bound(
    hops: &HopTable,
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    affected: &[bool],
    placement: &BTreeMap<CoreId, NodeId>,
) -> Option<u128> {
    let mut bound: u128 = 0;
    for (flows, _) in merged.iter().zip(affected).filter(|&(_, &a)| a) {
        for (&(s, d), flow) in flows {
            let hops = hops.get(placement[&s], placement[&d])? as u128;
            bound += flow.bandwidth.as_bytes_per_sec() as u128 * hops;
        }
    }
    Some(bound)
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

    /// A receiver is priced by the distance from its sender to it: with
    /// the links into the sender's neighbour NI failed, that NI can still
    /// send to the sender in two hops, but cannot hear it, so the
    /// receiver goes to the nearest NI that can.
    #[test]
    fn seats_a_receiver_where_its_sender_reaches_it() {
        let topo = MeshBuilder::new(1, 3)
            .nis_per_switch(2)
            .build()
            .unwrap()
            .into_topology();
        let nis = topo.nis().to_vec();
        let c = CoreId::new;
        let mut faults = FaultSet::new();
        for &l in topo.incoming(nis[1]) {
            faults.fail_link(l);
        }
        let view = topo.degraded(&faults);
        assert_eq!(view.hop_distance(nis[1], nis[0]), Ok(2));
        assert!(view.hop_distance(nis[0], nis[1]).is_err());
        let flows = [BTreeMap::from([((c(0), c(1)), flow(100))])];
        let mut placement = BTreeMap::from([(c(0), nis[0])]);
        let mut free = free_nis(view, &placement);
        assert_eq!(free[0], nis[1]);
        seat(view, &flows, &mut placement, &mut free, c(1));
        assert_eq!(placement[&c(1)], nis[2]);
        assert_eq!(view.hop_distance(nis[0], nis[2]), Ok(3));
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

    /// No config `reroute_preset_groups` returns, routed or taken from
    /// its cache, costs less than its group's hop bound under the
    /// placement, on random meshes with latency bounds and random link
    /// and NI faults; a group with a pair whose NIs are not joined does
    /// not route.
    #[test]
    fn no_routed_config_costs_less_than_its_hop_bound() {
        use crate::mapper::{reroute_preset_groups, MapperOptions, RouteCache};
        use crate::merge::merged_group_flows;
        use noc_tdma::TdmaSpec;
        use noc_usecase::spec::{SocSpec, UseCaseBuilder};
        use noc_usecase::UseCaseGroups;

        let c = CoreId::new;
        let spec = TdmaSpec::paper_default();
        let (mut checked, mut tight, mut unjoined) = (0, 0, 0);
        let before = crate::perf::snapshot();
        for seed in 0..192 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let topo = MeshBuilder::new(rng.gen_range(1..=3u16), rng.gen_range(2..=3u16))
                .nis_per_switch(rng.gen_range(1..=3u16))
                .build()
                .unwrap()
                .into_topology();
            let cores = rng.gen_range(2..=topo.ni_count().min(12) as u32);
            let use_cases = rng.gen_range(1..=4usize);
            let mut soc = SocSpec::new("bounded");
            for u in 0..use_cases {
                let mut b = UseCaseBuilder::new(format!("u{u}"));
                let mut pairs = BTreeSet::new();
                while pairs.len() < rng.gen_range(1..=6usize) {
                    let (src, dst) = (rng.gen_range(0..cores), rng.gen_range(0..cores));
                    if src != dst && pairs.insert((src, dst)) {
                        let latency = if rng.gen_bool(0.3) {
                            Latency::from_ns(rng.gen_range(4..40u64))
                        } else {
                            Latency::UNCONSTRAINED
                        };
                        let bandwidth = Bandwidth::from_mbps(rng.gen_range(10..1500u64));
                        b = b.flow(c(src), c(dst), bandwidth, latency).unwrap();
                    }
                }
                soc.add_use_case(b.build());
            }
            let groups = if rng.gen_bool(0.25) {
                UseCaseGroups::single_group(use_cases)
            } else {
                UseCaseGroups::singletons(use_cases)
            };
            let merged = merged_group_flows(&soc, &groups);
            let mut options = MapperOptions::default();
            for _ in 0..rng.gen_range(0..=4) {
                options
                    .faults
                    .fail_link(topo.links()[rng.gen_range(0..topo.link_count())].id());
            }
            if rng.gen_bool(0.2) {
                options
                    .faults
                    .fail_ni(topo.nis()[rng.gen_range(0..topo.ni_count())]);
            }
            let hops = HopTable::new(topo.degraded(&options.faults));
            let mut nis = topo.nis().to_vec();
            nis.shuffle(&mut rng);
            let mut placement: BTreeMap<CoreId, NodeId> =
                soc.cores().into_iter().zip(nis).collect();
            let mut cache = RouteCache::new(&merged);
            for step in 0..8 {
                // Odd steps keep the placement, so the cache hits.
                let core = CoreId::new(rng.gen_range(0..cores));
                let target = topo.nis()[rng.gen_range(0..topo.ni_count())];
                if step % 2 == 0 && placement.get(&core).is_some_and(|&ni| ni != target) {
                    swap(&mut placement, core, target);
                }
                let affected: Vec<bool> = (0..merged.len()).map(|_| rng.gen_bool(0.7)).collect();
                let bound = |g: usize| {
                    let only: Vec<bool> = (0..merged.len()).map(|h| h == g).collect();
                    hop_bound(&hops, &merged, &only, &placement)
                };
                let unjoined_group = (0..merged.len()).any(|g| affected[g] && bound(g).is_none());
                let delta = reroute_preset_groups(
                    &topo, spec, &options, &placement, &affected, &merged, &mut cache,
                );
                let Ok(delta) = delta else {
                    unjoined += usize::from(unjoined_group);
                    continue;
                };
                assert!(
                    !unjoined_group,
                    "seed {seed} step {step}: an unjoined pair routed"
                );
                for (g, config) in &delta.configs {
                    let bound = bound(*g).expect("a routed group's pairs are joined");
                    assert!(
                        config.cost_bytes_hops() >= bound,
                        "seed {seed} step {step}: group {g} costs less than its bound"
                    );
                    tight += usize::from(config.cost_bytes_hops() == bound);
                    checked += 1;
                }
            }
        }
        let hits = crate::perf::snapshot().since(&before).route_cache_hits;
        // Most configs meet their bound; a few detour round loaded links.
        assert!(
            checked >= 400 && tight >= 100 && tight < checked,
            "{checked} checked, {tight} tight"
        );
        assert!(
            unjoined >= 20 && hits >= 50,
            "{unjoined} unjoined, {hits} hits"
        );
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
