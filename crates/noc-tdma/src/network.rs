//! Per-use-case slot state over all links of a topology.

use noc_obs::Counter;
use noc_topology::{LinkId, Topology};

use crate::error::TdmaError;
use crate::mask::SlotMask;
use crate::spec::TdmaSpec;
use crate::table::{ConnId, SlotTable};

/// How to pick base slots among the feasible candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SlotPolicy {
    /// Take the lowest-numbered candidates. Fast, but clusters slots and so
    /// produces poor worst-case latencies.
    FirstFit,
    /// Pick candidates spread evenly around the table, minimizing the
    /// largest cyclic gap and hence the worst-case header latency. This is
    /// the slot-allocation optimization of the paper's companion work
    /// (Hansson et al., ISSS 2005).
    #[default]
    Spread,
}

/// The TDMA state of every link in the NoC for **one use-case**.
///
/// Algorithm 2 keeps one `NetworkSlots` (plus implied residual bandwidth)
/// per use-case: "Each use-case maintains separate data structures that
/// represent the available bandwidth and TDMA slots in the NoC for that
/// use-case."
///
/// Slot accounting subsumes bandwidth accounting: a link with `k` free
/// slots has `k × slot_bandwidth` residual capacity.
///
/// The conflict probes (`base_slot_free`, `free_base_slots`) work on a
/// *combined occupancy*: each link's bit mask rotated right by its path
/// position and OR-ed together, so bit `s` of the result is set exactly
/// when base slot `s` collides somewhere along the path. The
/// `(s + i) % S` wraparound of the pipelined slot-advance rule is folded
/// into the rotation — a handful of `u64` word ops per link instead of a
/// modulo per probed slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSlots {
    tables: Vec<SlotTable>,
    slots_per_table: usize,
}

impl NetworkSlots {
    /// Creates all-free slot state for every link of `topo`.
    pub fn new(topo: &Topology, spec: &TdmaSpec) -> Self {
        NetworkSlots {
            tables: (0..topo.link_count())
                .map(|_| SlotTable::new(spec.slots()))
                .collect(),
            slots_per_table: spec.slots(),
        }
    }

    /// Number of links tracked.
    pub fn link_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of slots per link table.
    pub fn slots_per_table(&self) -> usize {
        self.slots_per_table
    }

    /// The slot table of one link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn table(&self, link: LinkId) -> &SlotTable {
        &self.tables[link.index()]
    }

    /// Free slots on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn free_slot_count(&self, link: LinkId) -> usize {
        self.tables[link.index()].free_count()
    }

    /// The smallest free-slot count along a path (the path's bottleneck).
    pub fn min_free_along(&self, path: &[LinkId]) -> usize {
        path.iter()
            .map(|&l| self.free_slot_count(l))
            .min()
            .unwrap_or(self.slots_per_table)
    }

    /// The mask of base slots that conflict anywhere along `path`: link
    /// `i`'s occupancy rotated by `i` (bit `s` ← bit `(s + i) % S`),
    /// OR-ed over the path. Bit `s` clear ⇔ base slot `s` is free on
    /// every link under the pipelined slot-advance rule.
    pub fn combined_occupancy(&self, path: &[LinkId]) -> SlotMask {
        let mut acc = SlotMask::new(self.slots_per_table);
        for (i, &l) in path.iter().enumerate() {
            acc.or_rotated(self.tables[l.index()].occupancy().mask(), i);
        }
        noc_obs::count(
            Counter::ConflictWordTests,
            (path.len() * acc.word_count()) as u64,
        );
        acc
    }

    /// Whether base slot `s` is free along the whole of `path` under the
    /// pipelined slot-advance rule (slot `s + i` on the `i`-th link).
    pub fn base_slot_free(&self, path: &[LinkId], s: usize) -> bool {
        !self.combined_occupancy(path).test(s)
    }

    /// All base slots that are free along `path`, ascending — the zero
    /// bits of one combined-occupancy fold.
    pub fn free_base_slots(&self, path: &[LinkId]) -> Vec<usize> {
        self.combined_occupancy(path).zeros().collect()
    }

    /// Finds `needed` base slots free along `path`, or `None` if fewer than
    /// `needed` candidates exist. `needed == 0` yields an empty reservation.
    pub fn find_base_slots(
        &self,
        path: &[LinkId],
        needed: usize,
        policy: SlotPolicy,
    ) -> Option<Vec<usize>> {
        if needed == 0 {
            return Some(Vec::new());
        }
        if needed > self.slots_per_table {
            return None;
        }
        let candidates = self.free_base_slots(path);
        if candidates.len() < needed {
            return None;
        }
        Some(match policy {
            SlotPolicy::FirstFit => candidates[..needed].to_vec(),
            SlotPolicy::Spread => {
                // Pick candidates at even strides through the (sorted)
                // candidate list — a cheap approximation of minimizing the
                // maximum cyclic gap.
                let n = candidates.len();
                let mut picked = Vec::with_capacity(needed);
                for j in 0..needed {
                    picked.push(candidates[j * n / needed]);
                }
                picked.dedup();
                // Strides can collide only if needed > n, excluded above —
                // but guard anyway by topping up from unused candidates.
                if picked.len() < needed {
                    let extra: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|c| !picked.contains(c))
                        .take(needed - picked.len())
                        .collect();
                    picked.extend(extra);
                }
                picked.sort_unstable();
                picked
            }
        })
    }

    /// Reserves `base_slots` for `conn` along `path` (slot `s + i` on the
    /// `i`-th link). The reservation is atomic: on failure nothing is
    /// changed.
    ///
    /// # Errors
    ///
    /// [`TdmaError::SlotOccupied`] if any required slot is taken,
    /// [`TdmaError::SlotOutOfRange`] for bad slot indices.
    pub fn reserve(
        &mut self,
        path: &[LinkId],
        base_slots: &[usize],
        conn: ConnId,
    ) -> Result<(), TdmaError> {
        for &s in base_slots {
            if s >= self.slots_per_table {
                return Err(TdmaError::SlotOutOfRange {
                    slot: s,
                    size: self.slots_per_table,
                });
            }
            for (i, &l) in path.iter().enumerate() {
                let idx = (s + i) % self.slots_per_table;
                if let Some(owner) = self.tables[l.index()].owner(idx) {
                    return Err(TdmaError::SlotOccupied {
                        link: l,
                        slot: idx,
                        owner,
                    });
                }
            }
        }
        for &s in base_slots {
            for (i, &l) in path.iter().enumerate() {
                let idx = (s + i) % self.slots_per_table;
                self.tables[l.index()]
                    .occupy(idx, conn)
                    .expect("checked free above");
            }
        }
        Ok(())
    }

    /// Releases a reservation made by [`NetworkSlots::reserve`] with the
    /// same arguments.
    ///
    /// # Errors
    ///
    /// [`TdmaError::NotOwner`] if any slot is not owned by `conn` (state is
    /// left unchanged in that case).
    pub fn release(
        &mut self,
        path: &[LinkId],
        base_slots: &[usize],
        conn: ConnId,
    ) -> Result<(), TdmaError> {
        for &s in base_slots {
            if s >= self.slots_per_table {
                return Err(TdmaError::SlotOutOfRange {
                    slot: s,
                    size: self.slots_per_table,
                });
            }
            for (i, &l) in path.iter().enumerate() {
                let idx = (s + i) % self.slots_per_table;
                if self.tables[l.index()].owner(idx) != Some(conn) {
                    return Err(TdmaError::NotOwner {
                        link: l,
                        slot: idx,
                        owner: self.tables[l.index()].owner(idx),
                    });
                }
            }
        }
        for &s in base_slots {
            for (i, &l) in path.iter().enumerate() {
                let idx = (s + i) % self.slots_per_table;
                self.tables[l.index()]
                    .release(idx, conn)
                    .expect("checked owner above");
            }
        }
        Ok(())
    }

    /// Frees every slot owned by `conn` anywhere in the network, returning
    /// how many slots were released. Used to undo a connection wholesale
    /// (e.g. during annealing moves).
    pub fn release_connection(&mut self, conn: ConnId) -> usize {
        let mut released = 0;
        for table in &mut self.tables {
            let owned: Vec<usize> = table
                .reservations()
                .filter(|&(_, c)| c == conn)
                .map(|(i, _)| i)
                .collect();
            for i in owned {
                table.release(i, conn).expect("listed as owner");
                released += 1;
            }
        }
        released
    }

    /// Fraction of all slots that are reserved, over the whole network.
    pub fn utilization(&self) -> f64 {
        let total = self.tables.len() * self.slots_per_table;
        if total == 0 {
            return 0.0;
        }
        let used: usize = self.tables.iter().map(|t| t.size() - t.free_count()).sum();
        used as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::units::{Frequency, LinkWidth};
    use noc_topology::MeshBuilder;

    fn setup() -> (Topology, Vec<LinkId>, TdmaSpec) {
        let mesh = MeshBuilder::new(1, 2).nis_per_switch(1).build().unwrap();
        let topo = mesh.into_topology();
        let ni0 = topo.nis()[0];
        let ni1 = topo.nis()[1];
        let s0 = topo.ni_switch(ni0).unwrap();
        let s1 = topo.ni_switch(ni1).unwrap();
        let path = vec![
            topo.link_between(ni0, s0).unwrap(),
            topo.link_between(s0, s1).unwrap(),
            topo.link_between(s1, ni1).unwrap(),
        ];
        let spec = TdmaSpec::new(8, Frequency::from_mhz(500), LinkWidth::BITS_32);
        (topo, path, spec)
    }

    #[test]
    fn pipelined_reservation_offsets_slots() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        let conn = ConnId::new(1);
        ns.reserve(&path, &[2], conn).unwrap();
        assert_eq!(ns.table(path[0]).owner(2), Some(conn));
        assert_eq!(ns.table(path[1]).owner(3), Some(conn));
        assert_eq!(ns.table(path[2]).owner(4), Some(conn));
        assert!(ns.table(path[1]).is_free(2));
    }

    #[test]
    fn wraparound_offsets() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        ns.reserve(&path, &[7], ConnId::new(1)).unwrap();
        assert_eq!(ns.table(path[1]).owner(0), Some(ConnId::new(1)));
        assert_eq!(ns.table(path[2]).owner(1), Some(ConnId::new(1)));
    }

    /// Regression for the rotate-based probe at the table boundary: a
    /// reservation near slot `S - 1` wraps onto the low slots of later
    /// links, and the combined-occupancy fold must report exactly the
    /// same conflicts as the per-slot `(s + i) % S` scan it replaced.
    #[test]
    fn probe_wraps_at_table_boundary() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        // Slot 0 taken on the *third* link only: under the slot-advance
        // rule that blocks base slot S - 2 = 6 (6 + 2 ≡ 0 mod 8).
        ns.reserve(&path[2..], &[0], ConnId::new(1)).unwrap();
        assert!(!ns.base_slot_free(&path, 6));
        assert!(ns.base_slot_free(&path, 0));
        assert_eq!(ns.free_base_slots(&path), vec![0, 1, 2, 3, 4, 5, 7]);

        // Pile on a wrap from the other side: base 7 on the full path
        // occupies slots 7, 0, 1 across the links.
        ns.reserve(&path, &[7], ConnId::new(2)).unwrap();
        let naive: Vec<usize> = (0..8)
            .filter(|&s| {
                path.iter()
                    .enumerate()
                    .all(|(i, &l)| ns.table(l).is_free((s + i) % 8))
            })
            .collect();
        assert_eq!(ns.free_base_slots(&path), naive);
    }

    #[test]
    fn conflicting_reservations_rejected_atomically() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        ns.reserve(&path, &[0, 1], ConnId::new(1)).unwrap();
        // Base slot 1 collides on every link; 5 is fine. Failure must not
        // leave slot 5 reserved.
        let err = ns.reserve(&path, &[5, 1], ConnId::new(2)).unwrap_err();
        assert!(matches!(err, TdmaError::SlotOccupied { .. }));
        assert!(ns.base_slot_free(&path, 5));
        ns.reserve(&path, &[5], ConnId::new(2)).unwrap();
    }

    #[test]
    fn find_base_slots_excludes_taken() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        ns.reserve(&path, &[0, 3], ConnId::new(1)).unwrap();
        let free = ns.free_base_slots(&path);
        assert_eq!(free, vec![1, 2, 4, 5, 6, 7]);
        assert_eq!(
            ns.find_base_slots(&path, 6, SlotPolicy::FirstFit)
                .unwrap()
                .len(),
            6
        );
        assert!(ns.find_base_slots(&path, 7, SlotPolicy::FirstFit).is_none());
    }

    #[test]
    fn spread_policy_spaces_slots() {
        let (topo, path, spec) = setup();
        let ns = NetworkSlots::new(&topo, &spec);
        let picked = ns.find_base_slots(&path, 2, SlotPolicy::Spread).unwrap();
        assert_eq!(
            picked,
            vec![0, 4],
            "2 of 8 free slots should sit half a table apart"
        );
        let ff = ns.find_base_slots(&path, 2, SlotPolicy::FirstFit).unwrap();
        assert_eq!(ff, vec![0, 1]);
        // Spread yields a strictly better worst-case latency here.
        assert!(
            spec.worst_case_latency_cycles(&picked, path.len())
                < spec.worst_case_latency_cycles(&ff, path.len())
        );
    }

    #[test]
    fn zero_needed_is_empty() {
        let (topo, path, spec) = setup();
        let ns = NetworkSlots::new(&topo, &spec);
        assert_eq!(
            ns.find_base_slots(&path, 0, SlotPolicy::Spread),
            Some(vec![])
        );
        assert!(ns.find_base_slots(&path, 9, SlotPolicy::Spread).is_none());
    }

    #[test]
    fn release_restores_state() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        let before = ns.clone();
        ns.reserve(&path, &[1, 5], ConnId::new(1)).unwrap();
        assert_ne!(ns, before);
        ns.release(&path, &[1, 5], ConnId::new(1)).unwrap();
        assert_eq!(ns, before);
    }

    #[test]
    fn release_checks_ownership() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        ns.reserve(&path, &[1], ConnId::new(1)).unwrap();
        let err = ns.release(&path, &[1], ConnId::new(2)).unwrap_err();
        assert!(matches!(err, TdmaError::NotOwner { .. }));
        // State unchanged: still owned by conn 1.
        assert_eq!(ns.table(path[0]).owner(1), Some(ConnId::new(1)));
    }

    #[test]
    fn release_connection_sweeps_everything() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        ns.reserve(&path, &[0, 2, 4], ConnId::new(9)).unwrap();
        ns.reserve(&path[..1], &[6], ConnId::new(5)).unwrap();
        let released = ns.release_connection(ConnId::new(9));
        assert_eq!(released, 9); // 3 base slots x 3 links
        assert_eq!(ns.table(path[0]).free_count(), 7); // only conn 5 remains
        assert_eq!(ns.release_connection(ConnId::new(9)), 0);
    }

    #[test]
    fn utilization_tracks_usage() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        assert_eq!(ns.utilization(), 0.0);
        ns.reserve(&path, &[0], ConnId::new(1)).unwrap();
        let total = (topo.link_count() * 8) as f64;
        assert!((ns.utilization() - 3.0 / total).abs() < 1e-12);
    }

    #[test]
    fn min_free_along_is_bottleneck() {
        let (topo, path, spec) = setup();
        let mut ns = NetworkSlots::new(&topo, &spec);
        ns.reserve(&path[1..2], &[0, 1, 2], ConnId::new(1)).unwrap();
        assert_eq!(ns.min_free_along(&path), 5);
        assert_eq!(ns.min_free_along(&[]), 8);
    }

    #[test]
    fn fold_counters_advance() {
        let (topo, path, spec) = setup();
        let ns = NetworkSlots::new(&topo, &spec);
        let ((), counted) = noc_obs::measure(|| {
            let _ = ns.free_base_slots(&path);
        });
        // 3 links, 8 slots: one word each.
        assert_eq!(counted[Counter::ConflictWordTests], 3);
    }
}
