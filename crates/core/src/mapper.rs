//! Algorithm 2: unified mapping, path selection and slot allocation for
//! multiple use-cases.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use noc_obs::{count, Counter};
use noc_tdma::{ConnId, NetworkSlots, SlotPolicy, TdmaSpec};
use noc_topology::units::{Bandwidth, Latency};
use noc_topology::{FaultSet, LinkId, NodeId, Topology};
use noc_usecase::spec::{CoreId, SocSpec};
use noc_usecase::UseCaseGroups;

use crate::error::MapError;
use crate::merge::{merged_group_flows, MergedFlow};
use crate::path::{PathQuery, PathScratch, Target};
use crate::result::{GroupConfig, MappingSolution, Route, SolutionDelta};

/// How cores are placed onto NIs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Placement {
    /// The paper's unified scheme: a core is placed on an NI at the end of
    /// the least-cost path chosen for its first (largest) flow.
    #[default]
    Unified,
    /// Decoupled baseline for the ablation benches: cores are assigned to
    /// NIs round-robin *before* any routing happens; routing then has no
    /// say in placement.
    RoundRobin,
}

/// Slot-selection policy of every GT reservation.
const SLOT_POLICY: SlotPolicy = SlotPolicy::Spread;

/// Congestion weight of the path cost, in thousandths of a hop for a
/// fully-loaded link.
const LOAD_PENALTY_MILLIS: u64 = 500;

/// How many times path selection is retried (banning the bottleneck
/// link) when contention-free slot allocation fails on the chosen path.
const PATH_RETRIES: usize = 4;

/// Tunable knobs of the mapping heuristic. [`MapperOptions::default`] is
/// the paper's configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapperOptions {
    /// Process pairs in decreasing order of bandwidth (step 2 of
    /// Algorithm 2). Disabling this is the `ablation_order` baseline.
    pub sort_by_bandwidth: bool,
    /// Prefer pairs whose endpoints are already mapped (step 3).
    pub prefer_mapped: bool,
    /// Core-placement scheme.
    pub placement: Placement,
    /// Failed links / NIs the mapper must route around (empty by
    /// default). Failed links (and links incident to failed NIs) are
    /// banned from every path search; failed NIs are never offered as
    /// placement targets, and a preset placement
    /// ([`reroute_preset_groups`]) with a core on one is a typed
    /// [`MapError::NiFailed`]. The `heal` entry point drives this.
    pub faults: FaultSet,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            sort_by_bandwidth: true,
            prefer_mapped: true,
            placement: Placement::Unified,
            faults: FaultSet::default(),
        }
    }
}

/// One `(src, dst)` pair with its per-group merged constraints, ordered
/// so the group with the largest bandwidth is routed (and thus placed)
/// first.
#[derive(Debug)]
struct PairTask {
    src: CoreId,
    dst: CoreId,
    /// `(group, merged constraint)` sorted by decreasing bandwidth.
    demands: Vec<(usize, MergedFlow)>,
    max_bw: Bandwidth,
}

/// Routing state private to one use-case group: its slot table ("each
/// use-case maintains separate data structures", scoped to groups since
/// group members share one configuration) plus its connection-id
/// sequence and its path-search scratch buffer. All are per group so
/// that different groups can be routed in parallel without shared
/// mutable state whose contents would depend on cross-group scheduling.
///
/// The slot state is mask-backed (`noc_tdma::SlotMask`): per-link
/// occupancy is one bit per slot, so the conflict probes inside
/// `route_in_group`'s k-growth loop are rotated-word folds rather than
/// per-slot scans. A group's state is allocated when the group first
/// routes, so a run that fails early, or a filtered run, pays the
/// `O(links × slots)` table only for the groups that actually routed.
struct GroupState {
    slots: NetworkSlots,
    conn_seq: u32,
    scratch: PathScratch,
}

impl GroupState {
    fn new(topo: &Topology, spec: &TdmaSpec) -> Self {
        GroupState {
            slots: NetworkSlots::new(topo, spec),
            conn_seq: 0,
            scratch: PathScratch::new(),
        }
    }
}

/// Mutable mapping state shared across the run. Core placement is only
/// ever mutated between parallel regions (by the sequential task loop),
/// while each group's [`GroupState`] sits behind its own lock so a
/// pair's demands in *different* groups can be routed concurrently.
struct MapState<'a> {
    topo: &'a Topology,
    spec: TdmaSpec,
    /// `None` until the group first routes.
    group_states: Vec<Mutex<Option<GroupState>>>,
    core_to_ni: BTreeMap<CoreId, NodeId>,
    /// Occupancy flags indexed by node id (only NI entries are used).
    /// Failed NIs are pre-marked occupied so no placement lands on one.
    ni_occupied: Vec<bool>,
    /// All usable NI ids, cached.
    free_nis: Vec<NodeId>,
    /// Links unusable under `options.faults`, pre-expanded once (failed
    /// links plus links incident to failed NIs); every path search
    /// starts from this ban set.
    banned_base: BTreeSet<LinkId>,
}

impl<'a> MapState<'a> {
    fn place(&mut self, core: CoreId, ni: NodeId) {
        debug_assert!(!self.ni_occupied[ni.index()], "NI {ni} double-booked");
        self.core_to_ni.insert(core, ni);
        self.ni_occupied[ni.index()] = true;
        self.free_nis.retain(|&n| n != ni);
    }

    fn max_hops_for(&self, latency: Latency) -> usize {
        let bound = self.topo.node_count();
        if latency.is_unconstrained() {
            return bound;
        }
        // Worst-case GT latency is (gap + hops) cycles with gap >= 1, so a
        // path is only admissible when hops <= lat_cycles - 1.
        let lat_cycles = (latency.as_ns() as u128 * self.spec.frequency().as_hz() as u128
            / 1_000_000_000u128) as usize;
        lat_cycles.saturating_sub(1).min(bound)
    }

    /// Path and slot search for `(src, dst)` inside `gs`, one group's
    /// private routing state (step 4 of Algorithm 2). Placement is read
    /// but never written: on success the NIs at the ends of the chosen
    /// path are returned so the (sequential) caller can commit any
    /// placements. Taking `&self` plus one group's state keeps this
    /// callable from parallel workers — different groups share nothing
    /// but read-only context. Without `reserve`, a route that nothing
    /// routes after in `gs` leaves the slots it found free.
    fn route_in_group(
        &self,
        group: usize,
        gs: &mut GroupState,
        src: CoreId,
        dst: CoreId,
        demand: MergedFlow,
        reserve: bool,
    ) -> Result<(Route, NodeId, NodeId), MapError> {
        count(Counter::GroupRoutes, 1);
        let needed = self.spec.slots_for_bandwidth(demand.bandwidth);
        debug_assert!(needed >= 1);
        let max_hops = self.max_hops_for(demand.latency);
        let topo = self.topo;
        let mut banned: BTreeSet<LinkId> = self.banned_base.clone();

        for _attempt in 0..=PATH_RETRIES {
            let query = PathQuery::new(
                topo,
                &gs.slots,
                needed,
                max_hops,
                LOAD_PENALTY_MILLIS,
                &banned,
            );
            let src_ni = self.core_to_ni.get(&src).copied();
            let dst_ni = self.core_to_ni.get(&dst).copied();
            // Borrow the source set instead of cloning the free-NI list
            // per attempt — this runs once per (pair, group, retry).
            let src_buf;
            let sources: &[NodeId] = match src_ni {
                Some(ni) => {
                    src_buf = [ni];
                    &src_buf
                }
                None => &self.free_nis,
            };
            if sources.is_empty() {
                break;
            }
            let target = match dst_ni {
                Some(ni) => Target::Ni(ni),
                None => Target::AnyFreeNi {
                    occupied: &self.ni_occupied,
                },
            };
            let Some(found) = query.shortest_with(&mut gs.scratch, sources, target) else {
                break;
            };

            // Contention-free slot allocation, growing the reservation
            // until the worst-case latency bound is met.
            let mut alloc = None;
            let mut k = needed;
            while k <= self.spec.slots() {
                match gs.slots.find_base_slots(&found.links, k, SLOT_POLICY) {
                    None => break,
                    Some(slots) => {
                        let wc = self.spec.worst_case_latency(&slots, found.hops());
                        if demand.latency.is_unconstrained() || wc <= demand.latency {
                            alloc = Some((slots, wc));
                            break;
                        }
                        k += 1;
                    }
                }
            }

            match alloc {
                Some((slots, wc)) => {
                    // Commit the reservation; the conn id comes from the
                    // group's own sequence, so it is independent of how
                    // routing interleaves across groups.
                    if reserve {
                        let conn = ConnId::from_usecase_flow(group as u32, gs.conn_seq);
                        gs.conn_seq += 1;
                        gs.slots
                            .reserve(&found.links, &slots, conn)
                            .expect("slots were found free");
                    }
                    let route = Route {
                        path: found.links,
                        base_slots: slots,
                        bandwidth: demand.bandwidth,
                        worst_case_latency: wc,
                    };
                    return Ok((route, found.src_ni, found.dst_ni));
                }
                None => {
                    // Ban the path's bottleneck link and search again.
                    let bottleneck = found
                        .links
                        .iter()
                        .copied()
                        .min_by_key(|&l| gs.slots.free_slot_count(l))
                        .expect("paths are non-empty");
                    if !banned.insert(bottleneck) {
                        break; // no progress to be made
                    }
                }
            }
        }
        Err(MapError::Unroutable { src, dst, group })
    }

    /// Routes `(src, dst)` in `group`'s state, placing unmapped endpoints
    /// on the NIs at the ends of the chosen path (step 4 of Algorithm 2).
    fn route_pair(
        &mut self,
        group: usize,
        src: CoreId,
        dst: CoreId,
        demand: MergedFlow,
    ) -> Result<Route, MapError> {
        let (route, src_ni, dst_ni) = {
            let mut gs = self.group_states[group].lock().expect("no poisoned groups");
            let gs = gs.get_or_insert_with(|| GroupState::new(self.topo, &self.spec));
            self.route_in_group(group, gs, src, dst, demand, true)?
        };
        if !self.core_to_ni.contains_key(&src) {
            self.place(src, src_ni);
        }
        if !self.core_to_ni.contains_key(&dst) {
            self.place(dst, dst_ni);
        }
        Ok(route)
    }

    /// Whether every switch reaches every other over switch-to-switch
    /// links not banned up front.
    fn switches_joined(&self) -> bool {
        let topo = self.topo;
        let Some(&first) = topo.switches().first() else {
            return true;
        };
        let usable = |l: LinkId| {
            let link = topo.link(l);
            !self.banned_base.contains(&l)
                && !topo.node(link.src()).is_ni()
                && !topo.node(link.dst()).is_ni()
        };
        // Forwards over outgoing links, then backwards over incoming ones.
        [false, true].into_iter().all(|backwards| {
            let mut seen = vec![false; topo.node_count()];
            seen[first.index()] = true;
            let (mut stack, mut count) = (vec![first], 1);
            while let Some(n) = stack.pop() {
                let links = if backwards {
                    topo.incoming(n)
                } else {
                    topo.outgoing(n)
                };
                for &l in links.iter().filter(|&&l| usable(l)) {
                    let link = topo.link(l);
                    let m = if backwards { link.src() } else { link.dst() };
                    if !seen[m.index()] {
                        seen[m.index()] = true;
                        count += 1;
                        stack.push(m);
                    }
                }
            }
            count == topo.switch_count()
        })
    }

    /// Fails a filtered run early when one of its pairs is doomed: its
    /// source NI has no surviving outgoing link or its destination NI no
    /// surviving incoming one, so routing it fails whatever its group
    /// has reserved. The placement pass then fails at the first doomed
    /// pair it picks, or at an earlier pair whose route fails. A group's
    /// earlier pairs are its first routes, on empty slot tables, so
    /// whether they all succeed depends on their NIs and demands alone.
    /// A group is not routed when `proven` holds its earlier pairs, or
    /// when that is one pair without a latency bound whose source NI
    /// sends to a switch and whose destination NI hears from one while
    /// the switches stay joined (an empty table has room for any flow
    /// a link carries). The other groups are routed, in pick order, so
    /// the error is the one the full pass returns. Every route sequence
    /// that succeeds here joins `proven`.
    ///
    /// `queue` must hold every task; it is emptied when a pair is doomed.
    /// Returns `Ok`, having routed nothing and left `queue` alone, when no
    /// pair is doomed or a pair has an unplaced core (the pass places it,
    /// which changes the pick order).
    fn fail_fast(
        &self,
        tasks: &[PairTask],
        queue: &mut PairQueue,
        is_active: impl Fn(usize) -> bool,
        proven: &mut ProvenRoutes,
    ) -> Result<(), MapError> {
        let topo = self.topo;
        // Per node: banned outgoing and incoming links.
        let mut cut = vec![(0usize, 0usize); topo.node_count()];
        for &l in &self.banned_base {
            let link = topo.link(l);
            cut[link.src().index()].0 += 1;
            cut[link.dst().index()].1 += 1;
        }
        let mute = |ni: NodeId| cut[ni.index()].0 == topo.outgoing(ni).len();
        let deaf = |ni: NodeId| cut[ni.index()].1 == topo.incoming(ni).len();
        let placed = |core: &CoreId| self.core_to_ni.contains_key(core);
        if !topo.nis().iter().any(|&ni| mute(ni) || deaf(ni))
            || !tasks.iter().all(|t| placed(&t.src) && placed(&t.dst))
        {
            return Ok(());
        }
        let doomed =
            |task: &PairTask| mute(self.core_to_ni[&task.src]) || deaf(self.core_to_ni[&task.dst]);
        let active_task = |task: &&PairTask| is_active(task.demands[0].0);
        if !tasks.iter().filter(active_task).any(doomed) {
            return Ok(());
        }
        let mut earlier = Vec::new();
        let doomed = std::iter::from_fn(|| queue.pop())
            .map(|i| &tasks[i])
            .filter(active_task)
            .find(|task| {
                let doomed = doomed(task);
                if !doomed {
                    earlier.push(*task);
                }
                doomed
            })
            .expect("a doomed pair is picked");
        #[cfg(test)]
        tests::count_fail_fast();
        let steps: Vec<RouteStep> = earlier
            .iter()
            .map(|task| {
                let demand = task.demands[0].1;
                let ni = |core| self.core_to_ni[&core];
                (ni(task.src), ni(task.dst), demand.bandwidth, demand.latency)
            })
            .collect();
        let mut starts: BTreeMap<usize, Vec<RouteStep>> = BTreeMap::new();
        for (task, &step) in earlier.iter().zip(&steps) {
            starts.entry(task.demands[0].0).or_default().push(step);
        }
        let mut joined = None;
        let to_switch = |l: &&LinkId, end: fn(&noc_topology::Link) -> NodeId| {
            !self.banned_base.contains(l) && !topo.node(end(topo.link(**l))).is_ni()
        };
        let sends = |ni: NodeId| topo.outgoing(ni).iter().any(|l| to_switch(&l, |k| k.dst()));
        let hears = |ni: NodeId| topo.incoming(ni).iter().any(|l| to_switch(&l, |k| k.src()));
        starts.retain(|_, start| {
            let lone_route = match start.as_slice() {
                &[(src, dst, bandwidth, latency)] => {
                    latency.is_unconstrained()
                        && self.spec.slots_for_bandwidth(bandwidth) >= 1
                        && sends(src)
                        && hears(dst)
                        && *joined.get_or_insert_with(|| self.switches_joined())
                }
                _ => false,
            };
            !lone_route && !proven.contains(start)
        });
        #[cfg(test)]
        tests::count_proven(starts.len(), &earlier);
        let mut routed: BTreeMap<usize, Vec<RouteStep>> = BTreeMap::new();
        for (task, step) in earlier.into_iter().zip(steps) {
            let (g0, d0) = task.demands[0];
            let Some(start) = starts.get(&g0) else {
                continue;
            };
            let done = routed.entry(g0).or_default();
            // The group's last route here is never built upon.
            let reserve = done.len() + 1 < start.len();
            {
                let mut gs = self.group_states[g0].lock().expect("no poisoned groups");
                let gs = gs.get_or_insert_with(|| GroupState::new(self.topo, &self.spec));
                self.route_in_group(g0, gs, task.src, task.dst, d0, reserve)?;
            }
            done.push(step);
            remember(proven, done);
        }
        Err(MapError::Unroutable {
            src: doomed.src,
            dst: doomed.dst,
            group: doomed.demands[0].0,
        })
    }
}

/// One route of a group, as what decides whether it succeeds on slot
/// tables that hold nothing but the group's earlier routes: the source
/// and destination NIs and the demand.
type RouteStep = (NodeId, NodeId, Bandwidth, Latency);

/// Route sequences known to succeed as a group's first routes, on empty
/// slot tables, under one topology, TDMA spec and set of mapper options
/// (the lifetime of a [`RouteCache`], which keeps them).
type ProvenRoutes = BTreeSet<Vec<RouteStep>>;

/// Proven route sequences a [`RouteCache`] keeps before it starts over,
/// so that a long-lived cache under faults stays small.
const PROVEN_ROUTES_KEPT: usize = 4096;

/// Adds `start` to `proven`, first forgetting everything once it holds
/// [`PROVEN_ROUTES_KEPT`] sequences.
fn remember(proven: &mut ProvenRoutes, start: &[RouteStep]) {
    if proven.len() >= PROVEN_ROUTES_KEPT {
        proven.clear();
    }
    if !proven.contains(start) {
        proven.insert(start.to_vec());
    }
}

/// The pending pairs of step 3 in Algorithm 2's pick order: with
/// `prefer_mapped`, most endpoints already placed first, then largest
/// bandwidth, then task index; without it, task order. A pending task
/// sits in the ordered set of its level (placed endpoints, 0 to 2) and
/// moves up a level when one of its cores is placed, so a pick costs
/// `O(log T)` rather than a scan over every pending pair.
struct PairQueue {
    levels: [BTreeSet<(Reverse<Bandwidth>, usize)>; 3],
    /// Per task: its current level and its key inside that level.
    slot: Vec<(usize, Reverse<Bandwidth>)>,
    /// Tasks by endpoint core (empty without `prefer_mapped`: nothing
    /// ever moves up).
    by_core: BTreeMap<CoreId, Vec<usize>>,
}

impl PairQueue {
    fn new(tasks: &[PairTask], prefer_mapped: bool, placed: &BTreeMap<CoreId, NodeId>) -> Self {
        let mut queue = PairQueue {
            levels: Default::default(),
            slot: Vec::with_capacity(tasks.len()),
            by_core: BTreeMap::new(),
        };
        for (i, t) in tasks.iter().enumerate() {
            // Without `prefer_mapped` every task shares level 0 and one
            // bandwidth key, which leaves the task index as the order.
            let (level, key) = if prefer_mapped {
                queue.by_core.entry(t.src).or_default().push(i);
                queue.by_core.entry(t.dst).or_default().push(i);
                let level =
                    placed.contains_key(&t.src) as usize + placed.contains_key(&t.dst) as usize;
                (level, Reverse(t.max_bw))
            } else {
                (0, Reverse(Bandwidth::ZERO))
            };
            queue.levels[level].insert((key, i));
            queue.slot.push((level, key));
        }
        queue
    }

    /// Takes the next pair to route.
    fn pop(&mut self) -> Option<usize> {
        let (_, i) = self.levels.iter_mut().rev().find_map(BTreeSet::pop_first)?;
        Some(i)
    }

    /// Records that `core` was just placed: its pending pairs move up a
    /// level.
    fn placed(&mut self, core: CoreId) {
        for &i in self.by_core.get(&core).into_iter().flatten() {
            let (level, key) = self.slot[i];
            if self.levels[level].remove(&(key, i)) {
                self.levels[level + 1].insert((key, i));
                self.slot[i].0 = level + 1;
            }
        }
    }
}

/// What [`run_mapping`] routes, and how it places cores.
enum MapMode<'a> {
    /// Every group routes, and each core is placed at the end of the
    /// path chosen for its first (largest) flow.
    Unified,
    /// Cores start on `placement` (any core it leaves out is placed as
    /// in a unified run), and only the `active` groups route. Under
    /// faults, with `proven` (a [`RouteCache`]'s), a run that a cut-off
    /// NI dooms fails fast, skipping the route sequences `proven` holds.
    Preset {
        placement: &'a BTreeMap<CoreId, NodeId>,
        active: &'a [bool],
        proven: Option<&'a mut ProvenRoutes>,
    },
}

/// What [`run_mapping`] returns: the placement, and per group its config
/// (`None` for a group the run skipped).
type RunOutcome = (BTreeMap<CoreId, NodeId>, Vec<Option<GroupConfig>>);

/// One group's `(src, dst, demand)` routing work for the group pass.
type GroupDemands = Vec<(CoreId, CoreId, MergedFlow)>;

/// The mapping engine behind [`map_multi_usecase`],
/// [`reroute_preset_groups`] and [`preset_twin`]: routes the groups of
/// `merged` that `mode` selects and returns the placement plus
/// per-group configs (`None` for skipped groups).
///
/// A filtered run is only sound over a **full preset placement**: each
/// group's configuration is then a pure function of its own cores'
/// placements and of every group's demand on its pairs — its slot state
/// and connection-id sequence are private, and the other groups' demands
/// only fix the pair order and which of the group's pairs it routes in
/// the placement pass (those it has the largest demand on) rather than
/// in the group pass. So skipping an unaffected group and splicing its
/// previous config back in is byte-identical to re-routing it, and a
/// filtered run needs tasks only for the pairs its active groups route,
/// though it still reads every group's demand on them. Its work follows
/// the active groups: capacity is checked on them alone, and a group's
/// slot table and path scratch are allocated when it first routes.
fn run_mapping(
    topo: &Topology,
    spec: TdmaSpec,
    options: &MapperOptions,
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    mode: MapMode<'_>,
) -> Result<RunOutcome, MapError> {
    let (preset, active, proven) = match mode {
        MapMode::Unified => (None, None, None),
        MapMode::Preset {
            placement,
            active,
            proven,
        } => (Some(placement), Some(active), proven),
    };
    let group_count = merged.len();

    let is_active = |g: usize| active.is_none_or(|a| a[g]);
    // Assemble one task per pair an active group routes, carrying every
    // group's demand on it: the largest demand, whatever its group,
    // fixes the pair's place in the order and which group routes it in
    // the placement pass. Pairs only skipped groups use would never
    // route, so a filtered run leaves them out.
    let mut by_pair: BTreeMap<(CoreId, CoreId), Vec<(usize, MergedFlow)>> = BTreeMap::new();
    for (g, flows) in merged.iter().enumerate() {
        if !is_active(g) {
            continue;
        }
        for (&(src, dst), f) in flows {
            // Upfront capacity sanity: a merged flow larger than a whole
            // link is unroutable at any size.
            let needed = spec.slots_for_bandwidth(f.bandwidth);
            if needed > spec.slots() {
                return Err(MapError::FlowExceedsLinkCapacity {
                    src,
                    dst,
                    needed,
                    available: spec.slots(),
                });
            }
            by_pair.entry((src, dst)).or_default();
        }
    }
    for (g, flows) in merged.iter().enumerate() {
        for (pair, &f) in flows {
            if let Some(demands) = by_pair.get_mut(pair) {
                demands.push((g, f));
            }
        }
    }
    let mut tasks: Vec<PairTask> = by_pair
        .into_iter()
        .map(|((src, dst), mut demands)| {
            demands.sort_by(|a, b| b.1.bandwidth.cmp(&a.1.bandwidth).then(a.0.cmp(&b.0)));
            let max_bw = demands[0].1.bandwidth;
            PairTask {
                src,
                dst,
                demands,
                max_bw,
            }
        })
        .collect();
    if options.sort_by_bandwidth {
        tasks.sort_by(|a, b| {
            b.max_bw
                .cmp(&a.max_bw)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
    }

    // Failed NIs are taken out of play up front: marked occupied (so
    // `Target::AnyFreeNi` skips them) and dropped from the free list.
    let mut ni_occupied = vec![false; topo.node_count()];
    let mut free_nis = Vec::with_capacity(topo.ni_count());
    for &ni in topo.nis() {
        if options.faults.ni_failed(ni) {
            ni_occupied[ni.index()] = true;
        } else {
            free_nis.push(ni);
        }
    }
    let banned_base = if options.faults.is_empty() {
        BTreeSet::new()
    } else {
        options.faults.banned_links(topo)
    };
    let mut state = MapState {
        topo,
        spec,
        group_states: (0..group_count).map(|_| Mutex::new(None)).collect(),
        core_to_ni: BTreeMap::new(),
        ni_occupied,
        free_nis,
        banned_base,
    };

    if let Some(assignment) = preset {
        for (&core, &ni) in assignment {
            if options.faults.ni_failed(ni) {
                return Err(MapError::NiFailed { core, ni });
            }
            if !topo.node(ni).is_ni() || state.ni_occupied[ni.index()] {
                return Err(MapError::TooManyCores {
                    cores: assignment.len(),
                    nis: topo.ni_count(),
                });
            }
            state.place(core, ni);
        }
    }

    let mut configs: Vec<Option<GroupConfig>> = (0..group_count)
        .map(|g| is_active(g).then(GroupConfig::new))
        .collect();
    // Demands deferred to the parallel per-group pass, in placement-pass
    // processing order (each group's routing order must not depend on
    // scheduling).
    let mut deferred: Vec<GroupDemands> = vec![Vec::new(); group_count];
    let mut queue = PairQueue::new(&tasks, options.prefer_mapped, &state.core_to_ni);
    #[cfg(test)]
    let mut reference = tests::QuadraticPicks::new(&tasks, options.prefer_mapped);
    // Faults can doom a filtered run from the start (a pair whose NI
    // lost its links); a cached run is failed then without routing the
    // pairs before the doomed one that it knows to succeed.
    #[cfg(test)]
    let proven = proven.filter(|_| !tests::full_pass_only());
    if let Some(proven) = proven {
        if !options.faults.is_empty() {
            state.fail_fast(&tasks, &mut queue, is_active, proven)?;
        }
    }
    loop {
        // Step 3: take the largest-bandwidth pending pair, preferring
        // pairs with already-mapped endpoints.
        let next = queue.pop();
        #[cfg(test)]
        reference.check(next, &state.core_to_ni);
        let Some(idx) = next else { break };
        let task = &tasks[idx];

        // Step 4 (placement pass): route the pair in its largest-demand
        // group, placing unmapped endpoint cores on the NIs at the ends
        // of the chosen path. The same pair's demands in *other* groups
        // don't influence placement — they are deferred to the parallel
        // per-group pass below. A filtered run only ever skips routing
        // work: placement is already complete (full preset), so skipped
        // groups cannot change what the active ones observe.
        let (&(g0, d0), rest) = task.demands.split_first().expect("tasks have >= 1 demand");
        if is_active(g0) {
            let unplaced = [task.src, task.dst].map(|c| !state.core_to_ni.contains_key(&c));
            let route = state.route_pair(g0, task.src, task.dst, d0)?;
            configs[g0]
                .as_mut()
                .expect("active groups have configs")
                .insert(task.src, task.dst, route);
            for (core, was_unplaced) in [task.src, task.dst].into_iter().zip(unplaced) {
                if was_unplaced {
                    queue.placed(core);
                }
            }
        }
        for &(g, demand) in rest {
            if is_active(g) {
                deferred[g].push((task.src, task.dst, demand));
            }
        }
    }

    // Steps 5-6 (group pass): with every core placed, each group's
    // remaining demands touch only that group's own slot state, so the
    // groups are routed **in parallel** — one coarse task per group, in
    // the placement pass's processing order within each group. Ordered
    // reduction (and `try_par_map`'s smallest-index error rule) makes
    // the outcome independent of the thread count.
    let state_ref = &state;
    let group_work: Vec<(usize, GroupDemands)> = deferred
        .into_iter()
        .enumerate()
        .filter(|(_, demands)| !demands.is_empty())
        .collect();
    let routed = noc_par::try_par_map(group_work, |_, (g, demands)| {
        let span = noc_obs::span("route-group");
        span.attr("group", g);
        span.attr("demands", demands.len());
        let mut gs = state_ref.group_states[g]
            .lock()
            .expect("no poisoned groups");
        let gs = gs.get_or_insert_with(|| GroupState::new(state_ref.topo, &state_ref.spec));
        let mut routes = Vec::with_capacity(demands.len());
        for (src, dst, demand) in demands {
            let (route, _, _) = state_ref.route_in_group(g, gs, src, dst, demand, true)?;
            routes.push((src, dst, route));
        }
        Ok::<_, MapError>((g, routes))
    })?;
    for (g, routes) in routed {
        let config = configs[g].as_mut().expect("active groups have configs");
        for (src, dst, route) in routes {
            config.insert(src, dst, route);
        }
    }

    Ok((state.core_to_ni, configs))
}

/// Runs Algorithm 2 on a fixed mesh.
///
/// `groups` is the partition produced by phase 2 (Algorithm 1); use
/// [`UseCaseGroups::singletons`] when every use-case may be freely
/// reconfigured and [`UseCaseGroups::single_group`] to forbid
/// reconfiguration entirely. This is the one entry point that takes a
/// spec and its partition, and the one that validates them.
///
/// # Errors
///
/// * [`MapError::EmptySpec`] / [`MapError::GroupMismatch`] /
///   [`MapError::TooManyCores`] on malformed inputs,
/// * [`MapError::FlowExceedsLinkCapacity`] when a single merged flow
///   cannot fit a slot table at this frequency (growing the mesh will not
///   help),
/// * [`MapError::Unroutable`] when the heuristic finds no feasible
///   path/slots for some pair — the caller should try a larger mesh.
pub fn map_multi_usecase(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    topo: &Topology,
    spec: TdmaSpec,
    options: &MapperOptions,
) -> Result<MappingSolution, MapError> {
    count(Counter::FullMaps, 1);
    // Validate before merging: `merged_group_flows` panics on a
    // mismatched partition, while this entry point reports it.
    if groups.use_case_count() != soc.use_case_count() {
        return Err(MapError::GroupMismatch {
            spec_use_cases: soc.use_case_count(),
            group_use_cases: groups.use_case_count(),
        });
    }
    if soc.total_flow_count() == 0 {
        return Err(MapError::EmptySpec);
    }
    let cores = soc.cores();
    if cores.len() > topo.ni_count() {
        return Err(MapError::TooManyCores {
            cores: cores.len(),
            nis: topo.ni_count(),
        });
    }
    let merged = merged_group_flows(soc, groups);
    match options.placement {
        Placement::Unified => map_every_group(topo, spec, options, &merged, None),
        // Round-robin presets the cores on the surviving NIs, in
        // topology order, before anything routes.
        Placement::RoundRobin => {
            let faults = &options.faults;
            let surviving = topo.nis().iter().filter(|&&ni| !faults.ni_failed(ni));
            let placement = cores.into_iter().zip(surviving.copied()).collect();
            map_every_group(topo, spec, options, &merged, Some(&placement))
        }
    }
}

/// Routes every group of `merged`, from `preset` when one is given, and
/// returns the full solution.
fn map_every_group(
    topo: &Topology,
    spec: TdmaSpec,
    options: &MapperOptions,
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    preset: Option<&BTreeMap<CoreId, NodeId>>,
) -> Result<MappingSolution, MapError> {
    let active = vec![true; merged.len()];
    let mode = match preset {
        None => MapMode::Unified,
        Some(placement) => MapMode::Preset {
            placement,
            active: &active,
            proven: None,
        },
    };
    let (core_to_ni, configs) = run_mapping(topo, spec, options, merged, mode)?;
    Ok(MappingSolution::new(
        topo.clone(),
        format!("{}sw", topo.switch_count()),
        spec,
        core_to_ni,
        configs
            .into_iter()
            .map(|c| c.expect("unfiltered runs route every group"))
            .collect(),
    ))
}

/// Delta re-route for placement moves: re-routes only the groups of
/// `merged` marked in `affected` under `placement` (which must place
/// **every** core of an affected group, as annealing moves do) on `topo`
/// at `spec`, and returns what it computed as a [`SolutionDelta`]: the
/// placement plus the configs of the affected groups. An affected group
/// whose placement signature `cache` holds is taken from the cache
/// (`route_cache_hits`) instead of being re-routed; a re-routed group is
/// cached under its signature (`route_cache_misses`).
///
/// Spliced ([`MappingSolution::splice`]) into a solution whose configs
/// equal a full preset re-route of its own placement ([`preset_twin`]),
/// the delta gives exactly what [`preset_twin`] gives on the new
/// placement, because, with placement fixed up front, each group's
/// configuration is a pure function of its own cores' NIs and of the
/// demands on its pairs: pair processing order is
/// placement-independent, slot state and connection ids are
/// group-private, and unmapped-endpoint logic never fires. The
/// annealer leans on this to evaluate a two-core swap by re-routing only
/// the groups whose traffic touches either core. Any solution spliced
/// from such a delta, or made by [`preset_twin`], is again a valid
/// splice base.
///
/// `options.placement` is ignored; the borrowed `placement` wins.
/// `merged` holds every group's merged flows (`merged_group_flows(soc,
/// groups)`), precomputed by the caller — the annealer hoists it out of
/// its walk so a proposed move does not re-merge every flow of every
/// group. `cache` must have been built for the same `merged`, topology,
/// TDMA spec and options; callers keep one across calls, so a move that
/// revisits a placement reuses what an earlier call routed.
///
/// Under faults, a call one of whose pairs has an NI that cannot send or
/// cannot receive over any surviving link fails with the error the full
/// pass returns, routing only the earlier pairs it cannot show to
/// succeed.
///
/// # Errors
///
/// As [`map_multi_usecase`] on the affected groups, less its input
/// checks; a `placement` with two cores on one NI, or a core on a
/// failed NI, is [`MapError::TooManyCores`] / [`MapError::NiFailed`].
///
/// # Panics
///
/// When `affected.len() != merged.len()`, or when `cache` was built for
/// a different group count.
pub fn reroute_preset_groups(
    topo: &Topology,
    spec: TdmaSpec,
    options: &MapperOptions,
    placement: &BTreeMap<CoreId, NodeId>,
    affected: &[bool],
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
    cache: &mut RouteCache,
) -> Result<SolutionDelta, MapError> {
    assert_eq!(affected.len(), merged.len(), "one affected flag per group");
    assert_eq!(
        cache.groups.len(),
        merged.len(),
        "cache built for these groups"
    );
    // Split the affected set into cache hits (taken below) and the
    // groups to route, whose configs are cached after the run.
    let mut to_route = vec![false; affected.len()];
    let mut hits: Vec<(usize, Vec<NodeId>)> = Vec::new();
    let mut misses: Vec<(usize, Vec<NodeId>)> = Vec::new();
    for (g, _) in affected.iter().enumerate().filter(|&(_, &a)| a) {
        match cache.groups[g].signature(placement) {
            Some(sig) if cache.groups[g].configs.contains_key(&sig) => hits.push((g, sig)),
            Some(sig) => {
                to_route[g] = true;
                misses.push((g, sig));
            }
            // A group with an unplaced core is routed, never cached.
            None => to_route[g] = true,
        }
    }
    let rerouted = to_route.iter().filter(|&&r| r).count() as u64;
    count(Counter::RouteCacheHits, hits.len() as u64);
    count(Counter::RouteCacheMisses, misses.len() as u64);
    count(Counter::GroupsRerouted, rerouted);
    count(Counter::GroupsReused, affected.len() as u64 - rerouted);
    let mode = MapMode::Preset {
        placement,
        active: &to_route,
        proven: Some(&mut cache.proven),
    };
    let (placement, mut configs) = run_mapping(topo, spec, options, merged, mode)?;
    for (g, sig) in misses {
        let config = configs[g].clone().expect("routed groups have configs");
        cache.groups[g].configs.insert(sig, config);
    }
    for (g, sig) in hits {
        configs[g] = Some(cache.groups[g].configs[&sig].clone());
    }
    Ok(SolutionDelta {
        placement,
        configs: configs
            .into_iter()
            .enumerate()
            .filter_map(|(g, c)| c.map(|c| (g, c)))
            .collect(),
    })
}

/// The preset-pure twin of `solution`: the same placement with every
/// group of `merged` re-routed on the same topology and TDMA spec. Only
/// such a solution may take a [`reroute_preset_groups`] delta
/// ([`MappingSolution::splice`]) or seed a [`RouteCache`]; a unified
/// map's configs come from its placement pass and may differ. Counts
/// one `full_maps`.
///
/// # Errors
///
/// As [`reroute_preset_groups`] with every group affected.
pub fn preset_twin(
    options: &MapperOptions,
    solution: &MappingSolution,
    merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>],
) -> Result<MappingSolution, MapError> {
    count(Counter::FullMaps, 1);
    let placement = Some(solution.core_mapping());
    map_every_group(
        solution.topology(),
        solution.spec(),
        options,
        merged,
        placement,
    )
}

/// Memoizes per-group configurations by **placement signature** — the
/// route cache every [`reroute_preset_groups`] call reads and fills.
///
/// Soundness rests on the invariant documented on
/// [`reroute_preset_groups`]: with placement fixed up front, each group's
/// configuration is a pure function of its own cores' NIs and of the
/// demands on its pairs. The cache key for group `g` is the NI
/// assignment of exactly the cores appearing in `merged[g]`, in sorted
/// core order; topology, TDMA spec, mapper options and the merged flows
/// must stay fixed for the cache's lifetime, which is why search
/// strategies own one cache per (chain, search) rather than sharing a
/// global one — per-unit caches also keep the hit/miss counters
/// schedule-independent.
///
/// The cache holds one [`CachedGroup`] row per group, in group order. A
/// caller that edits its partition one group at a time — the online
/// service, whose groups are its admitted use-cases — keeps one cache
/// alive across edits by inserting and removing rows through
/// [`Self::groups_mut`] wherever it inserts and removes groups. Its
/// cached configs stay valid routings, but once a group sharing a pair
/// comes or goes they may differ from what a fresh route would give.
///
/// Under faults the cache also keeps the route sequences it has seen
/// succeed as a group's first routes, so that a re-route doomed by a
/// cut-off NI fails without routing them again.
#[derive(Debug, Clone)]
pub struct RouteCache {
    groups: Vec<CachedGroup>,
    /// Route sequences seen to succeed as a group's first routes; under
    /// faults they let a doomed re-route fail without routing them again.
    proven: ProvenRoutes,
}

/// One group's row of a [`RouteCache`]: the cores the group's
/// configuration depends on and every config routed for it, by
/// placement signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedGroup {
    /// The sorted cores of the group's merged flows.
    cores: Vec<CoreId>,
    /// Placement signature (the cores' NIs) → routed config.
    configs: BTreeMap<Vec<NodeId>, GroupConfig>,
}

impl CachedGroup {
    /// An empty row for a group with merged flows `flows`.
    pub fn new(flows: &BTreeMap<(CoreId, CoreId), MergedFlow>) -> Self {
        let cores: BTreeSet<CoreId> = flows.keys().flat_map(|&(s, d)| [s, d]).collect();
        CachedGroup {
            cores: cores.into_iter().collect(),
            configs: BTreeMap::new(),
        }
    }

    /// The sorted cores a signature assigns NIs to.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Cached `(signature, config)` entries, by signature.
    pub fn iter(&self) -> impl Iterator<Item = (&[NodeId], &GroupConfig)> {
        self.configs
            .iter()
            .map(|(sig, config)| (sig.as_slice(), config))
    }

    /// Adds `newer`'s configs under the signatures this row lacks; where
    /// both hold one, this row's config stays.
    pub fn keep_over(&mut self, newer: CachedGroup) {
        for (sig, config) in newer.configs {
            self.configs.entry(sig).or_insert(config);
        }
    }

    /// The group's signature under `placement`: its cores' NIs in
    /// sorted core order. `None` when a core is unplaced (never cached).
    fn signature(&self, placement: &BTreeMap<CoreId, NodeId>) -> Option<Vec<NodeId>> {
        self.cores
            .iter()
            .map(|c| placement.get(c).copied())
            .collect()
    }
}

impl RouteCache {
    /// Creates an empty cache for the given merged per-group flows
    /// (`merged_group_flows(soc, groups)`).
    pub fn new(merged: &[BTreeMap<(CoreId, CoreId), MergedFlow>]) -> Self {
        RouteCache {
            groups: merged.iter().map(CachedGroup::new).collect(),
            proven: ProvenRoutes::new(),
        }
    }

    /// Seeds the cache with `solution`'s per-group configs under its own
    /// placement (the solution must be preset-pure, i.e. produced by a
    /// full preset re-route — see [`preset_twin`]).
    pub fn seed(&mut self, solution: &MappingSolution) {
        for (row, config) in self.groups.iter_mut().zip(solution.group_configs()) {
            if let Some(sig) = row.signature(solution.core_mapping()) {
                row.configs.entry(sig).or_insert_with(|| config.clone());
            }
        }
    }

    /// The per-group rows, in group order.
    pub fn groups(&self) -> &[CachedGroup] {
        &self.groups
    }

    /// The per-group rows, for a caller that inserts or removes a row
    /// wherever it inserts or removes a group of its partition.
    pub fn groups_mut(&mut self) -> &mut Vec<CachedGroup> {
        &mut self.groups
    }

    /// Forgets every cached config, and every route sequence seen to
    /// succeed, and keeps the rows — for when the fabric the configs
    /// were routed on has changed.
    pub fn clear(&mut self) {
        for row in &mut self.groups {
            row.configs.clear();
        }
        self.proven.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Mesh, MeshBuilder};
    use noc_usecase::spec::UseCaseBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Step-3 picks this thread has checked against the reference.
        static CHECKED_PICKS: Cell<u64> = const { Cell::new(0) };
        /// Runs this thread failed through `MapState::fail_fast`.
        static FAILED_FAST: Cell<u64> = const { Cell::new(0) };
        /// Groups those runs left unrouted as proven.
        static LEFT_PROVEN: Cell<u64> = const { Cell::new(0) };
        /// Set while a test wants every run to take the full pass.
        static FULL_PASS_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn count_fail_fast() {
        FAILED_FAST.with(|c| c.set(c.get() + 1));
    }

    /// Counts the groups among `earlier` a fail-fast run did not route,
    /// given that it routes `routed` of them.
    pub(super) fn count_proven(routed: usize, earlier: &[&PairTask]) {
        let groups: BTreeSet<usize> = earlier.iter().map(|t| t.demands[0].0).collect();
        LEFT_PROVEN.with(|c| c.set(c.get() + (groups.len() - routed) as u64));
    }

    pub(super) fn full_pass_only() -> bool {
        FULL_PASS_ONLY.with(Cell::get)
    }

    /// The quadratic step-3 scan [`PairQueue`] replaced: every pick
    /// rescans all pending pairs for the largest `(placed endpoints,
    /// bandwidth)` key, first index on ties. Every mapping a unit test
    /// runs checks its queue's picks, including the final `None`,
    /// against it.
    pub(super) struct QuadraticPicks<'t> {
        tasks: &'t [PairTask],
        prefer_mapped: bool,
        done: Vec<bool>,
    }

    impl<'t> QuadraticPicks<'t> {
        pub(super) fn new(tasks: &'t [PairTask], prefer_mapped: bool) -> Self {
            QuadraticPicks {
                tasks,
                prefer_mapped,
                done: vec![false; tasks.len()],
            }
        }

        pub(super) fn check(&mut self, picked: Option<usize>, mapped: &BTreeMap<CoreId, NodeId>) {
            let mut best: Option<(usize, (u8, Bandwidth))> = None;
            for (i, t) in self.tasks.iter().enumerate() {
                if self.done[i] {
                    continue;
                }
                if !self.prefer_mapped {
                    best = Some((i, (0, t.max_bw)));
                    break; // tasks are in processing order already
                }
                let placed = mapped.contains_key(&t.src) as u8 + mapped.contains_key(&t.dst) as u8;
                let key = (placed, t.max_bw);
                if best.is_none_or(|(_, bk)| key > bk) {
                    best = Some((i, key));
                }
            }
            let expected = best.map(|(i, _)| i);
            assert_eq!(
                picked, expected,
                "pair queue diverged from the quadratic scan"
            );
            if let Some(i) = expected {
                self.done[i] = true;
            }
            CHECKED_PICKS.with(|c| c.set(c.get() + 1));
        }
    }

    fn checked_picks() -> u64 {
        CHECKED_PICKS.with(Cell::get)
    }

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn bw(m: u64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    fn small_soc() -> SocSpec {
        // Figure 5 of the paper: two use-cases over 4 cores.
        let mut soc = SocSpec::new("figure5");
        soc.add_use_case(
            UseCaseBuilder::new("uc1")
                .flow(c(2), c(3), bw(100), Latency::UNCONSTRAINED)
                .unwrap()
                .flow(c(0), c(1), bw(10), Latency::UNCONSTRAINED)
                .unwrap()
                .flow(c(1), c(2), bw(75), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc.add_use_case(
            UseCaseBuilder::new("uc2")
                .flow(c(2), c(3), bw(42), Latency::UNCONSTRAINED)
                .unwrap()
                .flow(c(0), c(3), bw(11), Latency::UNCONSTRAINED)
                .unwrap()
                .flow(c(1), c(3), bw(52), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc
    }

    fn mesh(r: u16, co: u16, nis: u16) -> Mesh {
        MeshBuilder::new(r, co).nis_per_switch(nis).build().unwrap()
    }

    #[test]
    fn maps_figure5_example_on_2x2() {
        let soc = small_soc();
        let groups = UseCaseGroups::singletons(2);
        let m = mesh(2, 2, 1);
        let sol = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        // All four cores placed on distinct NIs.
        let nis: BTreeSet<NodeId> = soc.cores().iter().map(|&c| sol.ni_of(c).unwrap()).collect();
        assert_eq!(nis.len(), 4);
        // Both use-cases have all their flows configured.
        assert_eq!(sol.group_configs()[0].len(), 3);
        assert_eq!(sol.group_configs()[1].len(), 3);
        sol.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn single_switch_suffices_for_tiny_demand() {
        let soc = small_soc();
        let groups = UseCaseGroups::singletons(2);
        let m = mesh(1, 1, 4);
        let sol = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.switch_count(), 1);
        sol.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn shared_group_uses_identical_route() {
        let soc = small_soc();
        let groups = UseCaseGroups::single_group(2);
        let m = mesh(2, 2, 1);
        let sol = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        // One shared config; the (2,3) pair is sized for the max (100).
        assert_eq!(sol.group_configs().len(), 1);
        let r = sol.group_config(0).route(c(2), c(3)).unwrap();
        assert_eq!(r.bandwidth, bw(100));
        sol.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn separate_groups_may_take_different_paths() {
        // Two use-cases with a heavy same-pair flow each: with separate
        // states both route fine even on a small mesh; the second group's
        // state is untouched by the first's reservations.
        let mut soc = SocSpec::new("two-heavy");
        for name in ["a", "b"] {
            soc.add_use_case(
                UseCaseBuilder::new(name)
                    .flow(c(0), c(1), bw(1800), Latency::UNCONSTRAINED)
                    .unwrap()
                    .build(),
            );
        }
        let groups = UseCaseGroups::singletons(2);
        let m = mesh(1, 2, 1);
        let sol = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        sol.verify(&soc, &groups).unwrap();
        // Same pair in one *merged* group would need 2x1800 MB/s through
        // one NI link (2000 MB/s): infeasible at any mesh size.
        let err = map_multi_usecase(
            &soc,
            &UseCaseGroups::single_group(2),
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        );
        // Merged max is 1800 (same pair), which still fits; to see the WC
        // blow-up two *different* heavy pairs per use-case are needed —
        // covered in the wc module tests. Here merged must succeed too.
        assert!(err.is_ok());
    }

    #[test]
    fn latency_constraint_grows_reservation() {
        let mut soc = SocSpec::new("lat");
        soc.add_use_case(
            UseCaseBuilder::new("u")
                // 125 MB/s needs 1 of 16 slots; a 1-slot reservation has
                // worst-case gap 16 cycles = 32 ns at 500 MHz; demanding
                // < 32 ns forces extra slots.
                .flow(c(0), c(1), bw(125), Latency::from_ns(24))
                .unwrap()
                .build(),
        );
        let groups = UseCaseGroups::singletons(1);
        let m = mesh(1, 1, 2);
        let sol = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        let r = sol.group_config(0).route(c(0), c(1)).unwrap();
        assert!(r.slot_count() > 1, "latency bound must force extra slots");
        assert!(r.worst_case_latency <= Latency::from_ns(24));
        sol.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn impossible_latency_is_unroutable() {
        let mut soc = SocSpec::new("lat2");
        soc.add_use_case(
            UseCaseBuilder::new("u")
                .flow(c(0), c(1), bw(10), Latency::from_ns(2)) // 1 cycle: impossible
                .unwrap()
                .build(),
        );
        let err = map_multi_usecase(
            &soc,
            &UseCaseGroups::singletons(1),
            mesh(1, 1, 2).topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::Unroutable { .. }));
    }

    #[test]
    fn oversized_flow_reports_capacity_error() {
        let mut soc = SocSpec::new("big");
        soc.add_use_case(
            UseCaseBuilder::new("u")
                .flow(c(0), c(1), bw(2500), Latency::UNCONSTRAINED) // > 2000 MB/s link
                .unwrap()
                .build(),
        );
        let err = map_multi_usecase(
            &soc,
            &UseCaseGroups::singletons(1),
            mesh(2, 2, 1).topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::FlowExceedsLinkCapacity { .. }));
    }

    #[test]
    fn too_many_cores_rejected() {
        let soc = small_soc(); // 4 cores
        let err = map_multi_usecase(
            &soc,
            &UseCaseGroups::singletons(2),
            mesh(1, 1, 3).topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::TooManyCores { cores: 4, nis: 3 }));
    }

    #[test]
    fn empty_spec_rejected() {
        let soc = SocSpec::new("none");
        let err = map_multi_usecase(
            &soc,
            &UseCaseGroups::singletons(0),
            mesh(1, 1, 1).topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, MapError::EmptySpec);
    }

    #[test]
    fn group_mismatch_rejected() {
        let soc = small_soc();
        let err = map_multi_usecase(
            &soc,
            &UseCaseGroups::singletons(5),
            mesh(2, 2, 1).topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::GroupMismatch { .. }));
    }

    #[test]
    fn round_robin_placement_still_routes() {
        let soc = small_soc();
        let groups = UseCaseGroups::singletons(2);
        let m = mesh(2, 2, 1);
        let opts = MapperOptions {
            placement: Placement::RoundRobin,
            ..Default::default()
        };
        let sol = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &opts,
        )
        .unwrap();
        sol.verify(&soc, &groups).unwrap();
        // Round-robin: cores 0..3 land on NIs in id order.
        let nis = m.topology().nis().to_vec();
        for (i, core) in soc.cores().into_iter().enumerate() {
            assert_eq!(sol.ni_of(core), Some(nis[i]));
        }
    }

    #[test]
    fn unified_beats_round_robin_on_comm_cost() {
        // With unified placement, hot pairs are co-located; round-robin
        // ignores traffic. Compare the bandwidth-weighted hop cost.
        let soc = small_soc();
        let groups = UseCaseGroups::singletons(2);
        let m = mesh(2, 2, 1);
        let unified = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        let rr = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions {
                placement: Placement::RoundRobin,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            unified.comm_cost() <= rr.comm_cost(),
            "unified {} should not exceed round-robin {}",
            unified.comm_cost(),
            rr.comm_cost()
        );
    }

    #[test]
    fn deterministic_output() {
        let soc = small_soc();
        let groups = UseCaseGroups::singletons(2);
        let m = mesh(2, 2, 1);
        let a = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        let b = map_multi_usecase(
            &soc,
            &groups,
            m.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    /// A random SoC: `use_cases` use-cases of one to five flows over
    /// cores `0..cores`, so pairs recur across use-cases and groups.
    fn random_soc(rng: &mut SmallRng, use_cases: usize, cores: u32) -> SocSpec {
        let mut soc = SocSpec::new("random");
        for u in 0..use_cases {
            let mut b = UseCaseBuilder::new(format!("u{u}"));
            let mut pairs = BTreeSet::new();
            let flows = rng.gen_range(1..=5usize);
            while pairs.len() < flows {
                let (src, dst) = (rng.gen_range(0..cores), rng.gen_range(0..cores));
                if src != dst && pairs.insert((src, dst)) {
                    let mbps = rng.gen_range(10..600u64);
                    b = b
                        .flow(c(src), c(dst), bw(mbps), Latency::UNCONSTRAINED)
                        .unwrap();
                }
            }
            soc.add_use_case(b.build());
        }
        soc
    }

    fn random_groups(rng: &mut SmallRng, use_cases: usize) -> UseCaseGroups {
        if rng.gen_bool(0.25) {
            UseCaseGroups::single_group(use_cases)
        } else {
            UseCaseGroups::singletons(use_cases)
        }
    }

    #[test]
    fn pair_queue_picks_in_the_quadratic_scan_order() {
        let m = mesh(3, 3, 1);
        let spec = TdmaSpec::paper_default();
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let use_cases = rng.gen_range(1..=6usize);
            let soc = random_soc(&mut rng, use_cases, 8);
            let groups = random_groups(&mut rng, use_cases);
            let merged = merged_group_flows(&soc, &groups);
            let mut presets = Vec::new();
            if let Ok(sol) =
                map_multi_usecase(&soc, &groups, m.topology(), spec, &Default::default())
            {
                // A full preset (every pair starts with both endpoints
                // placed) and a partial one (pairs climb levels as the
                // remaining cores are placed).
                let full = sol.core_mapping().clone();
                let partial = full.iter().step_by(2).map(|(&c, &n)| (c, n)).collect();
                presets.extend([full, partial]);
            }
            for prefer_mapped in [true, false] {
                for sort_by_bandwidth in [true, false] {
                    for placement in [Placement::Unified, Placement::RoundRobin] {
                        let options = MapperOptions {
                            placement,
                            prefer_mapped,
                            sort_by_bandwidth,
                            ..Default::default()
                        };
                        let before = checked_picks();
                        let _ = map_multi_usecase(&soc, &groups, m.topology(), spec, &options);
                        assert!(
                            checked_picks() > before,
                            "seed {seed}: no pick was checked under {options:?}"
                        );
                    }
                    let options = MapperOptions {
                        prefer_mapped,
                        sort_by_bandwidth,
                        ..Default::default()
                    };
                    for preset in &presets {
                        let before = checked_picks();
                        let every = vec![true; merged.len()];
                        let mut cache = RouteCache::new(&merged);
                        let topo = m.topology();
                        let _ = reroute_preset_groups(
                            topo, spec, &options, preset, &every, &merged, &mut cache,
                        );
                        assert!(
                            checked_picks() > before,
                            "seed {seed}: no pick was checked on {preset:?} under {options:?}"
                        );
                    }
                }
            }
        }
    }

    /// A filtered re-route builds tasks only for the pairs its active
    /// groups route, and checks capacity and allocates slot state for
    /// those groups alone; its configs must still equal a full preset
    /// re-route's, and its picks the quadratic scan's. Several moves per
    /// instance share one cache, so that moves undoing earlier ones
    /// splice cached configs, which must equal a full re-route's too.
    #[test]
    fn filtered_reroute_matches_the_full_preset_reroute() {
        let m = mesh(3, 3, 1);
        let spec = TdmaSpec::paper_default();
        let options = MapperOptions::default();
        let (mut compared, before) = (0, crate::perf::snapshot());
        for seed in 0..24 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let use_cases = rng.gen_range(2..=7usize);
            let soc = random_soc(&mut rng, use_cases, 8);
            let groups = random_groups(&mut rng, use_cases);
            let Ok(greedy) = map_multi_usecase(&soc, &groups, m.topology(), spec, &options) else {
                continue;
            };
            let merged = merged_group_flows(&soc, &groups);
            let mut current =
                preset_twin(&options, &greedy, &merged).expect("a greedy placement re-routes");
            let mut cache = RouteCache::new(&merged);
            // Seeded as the searches seed it, or empty as `nocd` starts.
            if seed % 2 == 0 {
                cache.seed(&current);
            }
            let mut undo = None;
            for step in 0..6 {
                // Move one core to a random NI, swapping with its
                // occupant; every other step undoes the last move.
                let mut placement = current.core_mapping().clone();
                let cores: Vec<CoreId> = placement.keys().copied().collect();
                let nis = m.topology().nis();
                let (a, target) = undo.take().unwrap_or_else(|| {
                    (
                        cores[rng.gen_range(0..cores.len())],
                        nis[rng.gen_range(0..nis.len())],
                    )
                });
                let from = placement[&a];
                if let Some(b) = placement
                    .iter()
                    .find(|&(_, &ni)| ni == target)
                    .map(|(&b, _)| b)
                {
                    placement.insert(b, from);
                }
                placement.insert(a, target);
                let moved = |core: CoreId| placement[&core] != current.core_mapping()[&core];
                let affected: Vec<bool> = merged
                    .iter()
                    .map(|flows| {
                        rng.gen_bool(0.3) || flows.keys().any(|&(s, d)| moved(s) || moved(d))
                    })
                    .collect();
                let picks = checked_picks();
                let delta = reroute_preset_groups(
                    m.topology(),
                    spec,
                    &options,
                    &placement,
                    &affected,
                    &merged,
                    &mut cache,
                )
                .map(|delta| {
                    let mut spliced = current.clone();
                    spliced.splice(delta);
                    spliced
                });
                assert!(checked_picks() > picks, "seed {seed}: no pick was checked");
                let mut moved = current.clone();
                *moved.core_mapping_mut() = placement.clone();
                let full = preset_twin(&options, &moved, &merged);
                assert_eq!(
                    delta, full,
                    "seed {seed} step {step}: delta re-route diverged"
                );
                if let Ok(delta) = delta {
                    if step % 2 == 0 {
                        undo = Some((a, from));
                    }
                    current = delta;
                    compared += 1;
                }
            }
        }
        assert!(compared >= 96, "only {compared} moves compared");
        let hits = crate::perf::snapshot().since(&before).route_cache_hits;
        assert!(hits > 0, "no move spliced a cached config");
    }

    /// Under faults, a cached re-route that `MapState::fail_fast` fails
    /// early returns exactly what the full pass returns, whatever the
    /// partition, pick order, latency bounds and unplaced cores, also
    /// when it leaves groups unrouted as proven by earlier calls on the
    /// same cache.
    #[test]
    fn failing_fast_matches_the_full_pass_under_faults() {
        let m = mesh(3, 3, 1);
        let topo = m.topology();
        let spec = TdmaSpec::paper_default();
        let (mut compared, failed_before, proven_before) =
            (0, FAILED_FAST.with(Cell::get), LEFT_PROVEN.with(Cell::get));
        for seed in 0..256 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let use_cases = rng.gen_range(2..=7usize);
            let mut soc = SocSpec::new("faulted");
            for u in 0..use_cases {
                let mut b = UseCaseBuilder::new(format!("u{u}"));
                let mut pairs = BTreeSet::new();
                while pairs.len() < rng.gen_range(1..=4usize) {
                    let (src, dst) = (rng.gen_range(0..8u32), rng.gen_range(0..8u32));
                    if src != dst && pairs.insert((src, dst)) {
                        let latency = if rng.gen_bool(0.3) {
                            Latency::from_ns(rng.gen_range(4..40u64))
                        } else {
                            Latency::UNCONSTRAINED
                        };
                        b = b
                            .flow(c(src), c(dst), bw(rng.gen_range(10..1500u64)), latency)
                            .unwrap();
                    }
                }
                soc.add_use_case(b.build());
            }
            let groups = random_groups(&mut rng, use_cases);
            let merged = merged_group_flows(&soc, &groups);
            // A random placement of the cores on distinct NIs.
            let mut nis = topo.nis().to_vec();
            let mut placement: BTreeMap<CoreId, NodeId> = soc
                .cores()
                .into_iter()
                .map(|core| (core, nis.swap_remove(rng.gen_range(0..nis.len()))))
                .collect();
            let mut options = MapperOptions {
                prefer_mapped: rng.gen_bool(0.5),
                sort_by_bandwidth: rng.gen_bool(0.5),
                ..Default::default()
            };
            for _ in 0..rng.gen_range(1..=6) {
                let link = topo.links()[rng.gen_range(0..topo.link_count())].id();
                options.faults.fail_link(link);
            }
            let (mut fast_cache, mut full_cache) =
                (RouteCache::new(&merged), RouteCache::new(&merged));
            // Several re-routes on one cache: a core moves between them,
            // and now and then one is left for the pass to place.
            for step in 0..6 {
                let mut moved = placement.clone();
                let cores: Vec<CoreId> = moved.keys().copied().collect();
                if rng.gen_bool(0.5) {
                    let (a, b) = (rng.gen_range(0..cores.len()), rng.gen_range(0..cores.len()));
                    let (na, nb) = (moved[&cores[a]], moved[&cores[b]]);
                    moved.insert(cores[a], nb);
                    moved.insert(cores[b], na);
                    placement = moved.clone();
                }
                if rng.gen_bool(0.15) {
                    moved.remove(&cores[rng.gen_range(0..cores.len())]);
                }
                let affected: Vec<bool> = (0..groups.group_count())
                    .map(|_| rng.gen_bool(0.7))
                    .collect();
                let reroute = |cache: &mut RouteCache| {
                    reroute_preset_groups(topo, spec, &options, &moved, &affected, &merged, cache)
                };
                let fast = reroute(&mut fast_cache);
                FULL_PASS_ONLY.with(|f| f.set(true));
                let full = reroute(&mut full_cache);
                FULL_PASS_ONLY.with(|f| f.set(false));
                assert_eq!(fast, full, "seed {seed} step {step}: failing fast diverged");
                assert_eq!(fast_cache.groups(), full_cache.groups());
                compared += 1;
            }
        }
        assert_eq!(compared, 256 * 6);
        let failed_fast = FAILED_FAST.with(Cell::get) - failed_before;
        let left_proven = LEFT_PROVEN.with(Cell::get) - proven_before;
        assert!(failed_fast >= 256, "only {failed_fast} runs failed fast");
        assert!(left_proven >= 64, "only {left_proven} groups left proven");
    }
}
