//! Least-cost constrained path search (step 4 of Algorithm 2).
//!
//! The cost of a path combines hop count and link load — "path cost is a
//! combination of hop delay and residual bandwidth/slots" (Section 5,
//! citing the single-use-case objective of Hansson et al., ISSS 2005).
//! Each link costs a fixed hop price plus a congestion penalty that grows
//! with the fraction of its slot table already reserved **in the use-case
//! (group) being routed**, steering large flows onto short, lightly-loaded
//! routes.
//!
//! The search is a Dijkstra run over the NoC graph where:
//!
//! * links with fewer free slots than the flow needs are unusable,
//! * NIs never appear in the interior of a path (they are sources and
//!   targets only),
//! * paths longer than a latency-derived hop budget are pruned,
//! * sources may be a set (an unmapped core can enter at any free NI) and
//!   targets may be a predicate (an unmapped core may land on any free NI).

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

use noc_obs::{count, Counter};
use noc_tdma::NetworkSlots;
use noc_topology::{LinkId, NodeId, Topology};

/// Fixed-point cost of traversing one unloaded link (1 hop = 1000 millis).
pub const HOP_COST_MILLIS: u64 = 1000;

/// A path found by [`PathQuery::shortest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundPath {
    /// Links from source NI to target NI, in traversal order.
    pub links: Vec<LinkId>,
    /// The NI the path starts at.
    pub src_ni: NodeId,
    /// The NI the path ends at.
    pub dst_ni: NodeId,
    /// Total fixed-point cost.
    pub cost_millis: u64,
}

impl FoundPath {
    /// Number of links (hops) in the path.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Where a search may end.
#[derive(Debug, Clone, Copy)]
pub enum Target<'a> {
    /// The flow's destination core is already mapped to this NI.
    Ni(NodeId),
    /// The destination core is unmapped: any NI with `occupied[ni] ==
    /// false` is acceptable.
    AnyFreeNi {
        /// Occupancy flags indexed by node id.
        occupied: &'a [bool],
    },
}

/// A Dijkstra label: one of up to two origin-distinct shortest-path
/// records a node keeps. `pred` is the incoming link and the label slot
/// of the predecessor node it extends.
#[derive(Debug, Clone, Copy)]
struct Label {
    origin: NodeId,
    pred: Option<(LinkId, u8)>,
}

/// Heap entries: `(dist, node index, origin, hops, pred)`.
type Entry = (u64, usize, NodeId, u32, Option<(LinkId, u8)>);

/// Caller-held scratch for [`PathQuery::shortest`]: the Dijkstra label
/// table and the priority queue, re-used across queries so the hot
/// mapping loops stop allocating `O(nodes)` per path search.
///
/// Label validity is tracked by a per-query epoch stamp: starting a query
/// bumps the epoch instead of clearing the table, so reuse costs O(1)
/// regardless of topology size. The mapper holds one scratch per
/// use-case group (inside the group's routing state, so parallel group
/// routing never shares a buffer); standalone callers can just
/// `PathScratch::new()` once and keep it across queries.
#[derive(Debug)]
pub struct PathScratch {
    labels: Vec<[Option<Label>; 2]>,
    stamps: Vec<u64>,
    epoch: u64,
    heap: BinaryHeap<Reverse<Entry>>,
}

impl PathScratch {
    /// An empty scratch; buffers grow to the queried topology's size on
    /// first use and are retained afterwards.
    pub fn new() -> Self {
        count(Counter::ScratchAllocs, 1);
        PathScratch {
            labels: Vec::new(),
            stamps: Vec::new(),
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Starts a new query over `nodes` nodes: bumps the epoch (lazily
    /// invalidating every stored label) and clears the heap.
    fn begin(&mut self, nodes: usize) {
        if self.labels.len() < nodes {
            self.labels.resize(nodes, [None, None]);
            self.stamps.resize(nodes, 0);
        }
        self.epoch += 1;
        self.heap.clear();
    }

    /// The labels of `node` as of this query ( `[None, None]` when the
    /// slot was last written by an earlier query).
    fn labels(&self, node: usize) -> [Option<Label>; 2] {
        if self.stamps[node] == self.epoch {
            self.labels[node]
        } else {
            [None, None]
        }
    }

    fn labels_mut(&mut self, node: usize) -> &mut [Option<Label>; 2] {
        if self.stamps[node] != self.epoch {
            self.labels[node] = [None, None];
            self.stamps[node] = self.epoch;
        }
        &mut self.labels[node]
    }
}

impl Default for PathScratch {
    fn default() -> Self {
        PathScratch::new()
    }
}

/// One constrained shortest-path query.
#[derive(Debug)]
pub struct PathQuery<'a> {
    topo: &'a Topology,
    state: &'a NetworkSlots,
    needed_slots: usize,
    max_hops: usize,
    load_penalty_millis: u64,
    banned: &'a BTreeSet<LinkId>,
}

impl<'a> PathQuery<'a> {
    /// Builds a query against one group's slot state.
    ///
    /// `needed_slots` is the flow's slot demand (links with fewer free
    /// slots are unusable), `max_hops` the inclusive hop budget derived
    /// from the flow's latency bound, `load_penalty_millis` the congestion
    /// weight (the penalty of a fully-loaded link, in thousandths of a
    /// hop), and `banned` a set of links excluded from this attempt (used
    /// by the slot-allocation retry loop).
    pub fn new(
        topo: &'a Topology,
        state: &'a NetworkSlots,
        needed_slots: usize,
        max_hops: usize,
        load_penalty_millis: u64,
        banned: &'a BTreeSet<LinkId>,
    ) -> Self {
        PathQuery {
            topo,
            state,
            needed_slots,
            max_hops,
            load_penalty_millis,
            banned,
        }
    }

    fn link_usable(&self, l: LinkId) -> bool {
        !self.banned.contains(&l) && self.state.free_slot_count(l) >= self.needed_slots
    }

    fn link_cost(&self, l: LinkId) -> u64 {
        let s = self.state.slots_per_table();
        let used = (s - self.state.free_slot_count(l)) as u64;
        HOP_COST_MILLIS + self.load_penalty_millis * used / s as u64
    }

    /// [`PathQuery::shortest_with`] against a throwaway scratch buffer.
    ///
    /// Convenience for one-off queries and tests; the hot loops hold a
    /// [`PathScratch`] and call [`PathQuery::shortest_with`] so repeated
    /// searches stop allocating.
    pub fn shortest(&self, sources: &[NodeId], target: Target<'_>) -> Option<FoundPath> {
        self.shortest_with(&mut PathScratch::new(), sources, target)
    }

    /// Runs Dijkstra from `sources` (NIs, cost 0 each) to the cheapest
    /// acceptable target, using (and retaining) `scratch`'s buffers.
    /// Returns `None` when no feasible path exists within the hop budget.
    ///
    /// When both endpoints of a flow are unmapped, every free NI is both a
    /// potential source and a potential target. A plain Dijkstra cannot
    /// handle that (all targets start at distance 0), so each node keeps
    /// up to **two** best labels with *distinct origin NIs*: a target NI
    /// is then reachable via whichever of its labels descends from a
    /// different NI.
    pub fn shortest_with(
        &self,
        scratch: &mut PathScratch,
        sources: &[NodeId],
        target: Target<'_>,
    ) -> Option<FoundPath> {
        count(Counter::PathQueries, 1);
        let n = self.topo.node_count();
        scratch.begin(n);
        let mut pops: u64 = 0;

        for &s in sources {
            debug_assert!(self.topo.node(s).is_ni(), "sources must be NIs");
            scratch.heap.push(Reverse((0, s.index(), s, 0, None)));
        }

        let is_target = |node: NodeId, origin: NodeId| -> bool {
            if node == origin {
                return false; // a source cannot double as its own target
            }
            match target {
                Target::Ni(t) => node == t,
                Target::AnyFreeNi { occupied } => {
                    self.topo.node(node).is_ni() && !occupied[node.index()]
                }
            }
        };

        while let Some(Reverse((d, u_idx, origin, hop, pred))) = scratch.heap.pop() {
            pops += 1;
            // Settle into one of the node's two origin-distinct slots.
            let slot = {
                let ls = scratch.labels_mut(u_idx);
                match (&ls[0], &ls[1]) {
                    (None, _) => {
                        ls[0] = Some(Label { origin, pred });
                        0u8
                    }
                    (Some(l0), None) if l0.origin != origin => {
                        ls[1] = Some(Label { origin, pred });
                        1u8
                    }
                    _ => continue, // dominated: same origin or both slots set
                }
            };
            let u = self.topo.nodes()[u_idx].id();
            if is_target(u, origin) {
                // Labels settle in cost order: the first acceptable target
                // label is optimal.
                count(Counter::DijkstraPops, pops);
                return Some(self.reconstruct(u, slot, d, scratch));
            }
            // NIs are endpoints only: never expand out of an NI unless it
            // is a source of this label (hop count 0).
            if self.topo.node(u).is_ni() && hop != 0 {
                continue;
            }
            if hop as usize >= self.max_hops {
                continue;
            }
            for &l in self.topo.outgoing(u) {
                if !self.link_usable(l) {
                    continue;
                }
                let v = self.topo.link(l).dst();
                // Interior NIs are not allowed: an NI may only be entered
                // if it can terminate a path from this origin.
                if self.topo.node(v).is_ni() && !is_target(v, origin) {
                    continue;
                }
                // Skip if v already holds a better-or-equal label of this
                // origin, or two labels of other origins.
                let dominated = match scratch.labels(v.index()) {
                    [Some(l0), _] if l0.origin == origin => true,
                    [_, Some(_)] => true,
                    _ => false,
                };
                if dominated {
                    continue;
                }
                scratch.heap.push(Reverse((
                    d + self.link_cost(l),
                    v.index(),
                    origin,
                    hop + 1,
                    Some((l, slot)),
                )));
            }
        }
        count(Counter::DijkstraPops, pops);
        None
    }

    fn reconstruct(
        &self,
        dst: NodeId,
        dst_slot: u8,
        cost: u64,
        scratch: &PathScratch,
    ) -> FoundPath {
        let mut links = Vec::new();
        let mut node = dst;
        let mut slot = dst_slot;
        while let Some((l, pred_slot)) = scratch.labels(node.index())[slot as usize]
            .as_ref()
            .and_then(|lb| lb.pred)
        {
            links.push(l);
            node = self.topo.link(l).src();
            slot = pred_slot;
        }
        links.reverse();
        FoundPath {
            links,
            src_ni: node,
            dst_ni: dst,
            cost_millis: cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_tdma::{ConnId, TdmaSpec};
    use noc_topology::units::{Frequency, LinkWidth};
    use noc_topology::MeshBuilder;

    fn spec() -> TdmaSpec {
        TdmaSpec::new(8, Frequency::from_mhz(500), LinkWidth::BITS_32)
    }

    /// 2x2 mesh, 1 NI per switch.
    fn mesh2x2() -> (Topology, Vec<NodeId>) {
        let mesh = MeshBuilder::new(2, 2).nis_per_switch(1).build().unwrap();
        let topo = mesh.into_topology();
        let nis = topo.nis().to_vec();
        (topo, nis)
    }

    #[test]
    fn direct_route_between_mapped_nis() {
        let (topo, nis) = mesh2x2();
        let state = NetworkSlots::new(&topo, &spec());
        let banned = BTreeSet::new();
        let q = PathQuery::new(&topo, &state, 1, 100, 500, &banned);
        let p = q.shortest(&[nis[0]], Target::Ni(nis[3])).unwrap();
        // ni0 -> sw0 -> (sw1|sw2) -> sw3 -> ni3: 4 links.
        assert_eq!(p.hops(), 4);
        assert_eq!(p.src_ni, nis[0]);
        assert_eq!(p.dst_ni, nis[3]);
        // Path is contiguous.
        for w in p.links.windows(2) {
            assert_eq!(topo.link(w[0]).dst(), topo.link(w[1]).src());
        }
    }

    #[test]
    fn avoids_loaded_links() {
        let (topo, nis) = mesh2x2();
        let mut state = NetworkSlots::new(&topo, &spec());
        // Load the sw0 -> sw1 link heavily (6 of 8 slots).
        let sw0 = topo.ni_switch(nis[0]).unwrap();
        let sw1 = topo.ni_switch(nis[1]).unwrap();
        let l01 = topo.link_between(sw0, sw1).unwrap();
        state
            .reserve(&[l01], &[0, 1, 2, 3, 4, 5], ConnId::new(42))
            .unwrap();
        let banned = BTreeSet::new();
        let q = PathQuery::new(&topo, &state, 1, 100, 2000, &banned);
        let p = q.shortest(&[nis[0]], Target::Ni(nis[1])).unwrap();
        // The loaded direct link costs 1000 + 2000*6/8 = 2500; the detour
        // via sw2/sw3 costs 3 unloaded hops = 3000... direct still wins at
        // equal hop counts, so check the chosen route's cost accounting
        // instead of the route itself.
        assert_eq!(p.links.len(), 3);
        assert_eq!(p.cost_millis, 1000 + 2500 + 1000);
        // Saturate the link completely: now it is unusable and the detour
        // must be taken.
        state.reserve(&[l01], &[6, 7], ConnId::new(43)).unwrap();
        let q = PathQuery::new(&topo, &state, 1, 100, 2000, &banned);
        let p = q.shortest(&[nis[0]], Target::Ni(nis[1])).unwrap();
        assert_eq!(p.hops(), 5, "must detour around the full link");
        assert!(!p.links.contains(&l01));
    }

    #[test]
    fn capacity_filter_blocks_paths() {
        let (topo, nis) = mesh2x2();
        let state = NetworkSlots::new(&topo, &spec());
        let banned = BTreeSet::new();
        // Demand more slots than any link has.
        let q = PathQuery::new(&topo, &state, 9, 100, 500, &banned);
        assert!(q.shortest(&[nis[0]], Target::Ni(nis[3])).is_none());
    }

    #[test]
    fn hop_budget_prunes() {
        let (topo, nis) = mesh2x2();
        let state = NetworkSlots::new(&topo, &spec());
        let banned = BTreeSet::new();
        // ni0 -> ni3 needs 4 hops; a budget of 3 makes it unreachable.
        let q = PathQuery::new(&topo, &state, 1, 3, 500, &banned);
        assert!(q.shortest(&[nis[0]], Target::Ni(nis[3])).is_none());
        let q = PathQuery::new(&topo, &state, 1, 4, 500, &banned);
        assert!(q.shortest(&[nis[0]], Target::Ni(nis[3])).is_some());
    }

    #[test]
    fn banned_links_are_avoided() {
        let (topo, nis) = mesh2x2();
        let state = NetworkSlots::new(&topo, &spec());
        let sw0 = topo.ni_switch(nis[0]).unwrap();
        let sw1 = topo.ni_switch(nis[1]).unwrap();
        let mut banned = BTreeSet::new();
        banned.insert(topo.link_between(sw0, sw1).unwrap());
        let q = PathQuery::new(&topo, &state, 1, 100, 500, &banned);
        let p = q.shortest(&[nis[0]], Target::Ni(nis[1])).unwrap();
        assert_eq!(p.hops(), 5, "banned direct link forces the detour");
    }

    #[test]
    fn any_free_ni_picks_nearest() {
        let (topo, nis) = mesh2x2();
        let state = NetworkSlots::new(&topo, &spec());
        let banned = BTreeSet::new();
        let mut occupied = vec![false; topo.node_count()];
        occupied[nis[0].index()] = true;
        // Source is ni0 (occupied by the src core itself); nearest free NI
        // is one mesh hop away (ni1 or ni2).
        let q = PathQuery::new(&topo, &state, 1, 100, 500, &banned);
        let p = q
            .shortest(
                &[nis[0]],
                Target::AnyFreeNi {
                    occupied: &occupied,
                },
            )
            .unwrap();
        assert_eq!(p.hops(), 3);
        assert!(p.dst_ni == nis[1] || p.dst_ni == nis[2]);
    }

    #[test]
    fn source_never_doubles_as_target() {
        let (topo, nis) = mesh2x2();
        let state = NetworkSlots::new(&topo, &spec());
        let banned = BTreeSet::new();
        let occupied = vec![false; topo.node_count()];
        // All NIs free, source ni0 free too: the target must still be a
        // different NI.
        let q = PathQuery::new(&topo, &state, 1, 100, 500, &banned);
        let p = q
            .shortest(
                &[nis[0]],
                Target::AnyFreeNi {
                    occupied: &occupied,
                },
            )
            .unwrap();
        assert_ne!(p.dst_ni, nis[0]);
        assert!(p.hops() >= 2);
    }

    #[test]
    fn multi_source_uses_cheapest_entry() {
        let (topo, nis) = mesh2x2();
        let state = NetworkSlots::new(&topo, &spec());
        let banned = BTreeSet::new();
        // Sources ni0 and ni2; target ni3. ni2 is closer (same column).
        let q = PathQuery::new(&topo, &state, 1, 100, 500, &banned);
        let p = q.shortest(&[nis[0], nis[2]], Target::Ni(nis[3])).unwrap();
        assert_eq!(p.src_ni, nis[2]);
        assert_eq!(p.hops(), 3);
    }

    #[test]
    fn no_interior_nis() {
        // 1x3 mesh: a path from ni0 to ni2 passes sw1 which has ni1 — the
        // path must not dip into ni1.
        let mesh = MeshBuilder::new(1, 3).nis_per_switch(1).build().unwrap();
        let topo = mesh.into_topology();
        let nis = topo.nis().to_vec();
        let state = NetworkSlots::new(&topo, &spec());
        let banned = BTreeSet::new();
        let q = PathQuery::new(&topo, &state, 1, 100, 500, &banned);
        let p = q.shortest(&[nis[0]], Target::Ni(nis[2])).unwrap();
        for &l in &p.links {
            let mid = topo.link(l).dst();
            if mid != p.dst_ni {
                assert!(!topo.node(mid).is_ni(), "interior node {mid} is an NI");
            }
        }
    }
}
