//! A single link's TDMA slot table.

use std::fmt;

use crate::mask::OccupancyMask;

/// Identifier of a GT connection, chosen by the caller (the mapper packs a
/// use-case index and flow index into one id). Slot tables record the owner
/// of every reserved slot so configurations can be audited and released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u64);

impl ConnId {
    /// Creates a connection id from a raw value.
    pub const fn new(raw: u64) -> Self {
        ConnId(raw)
    }

    /// Packs a (use-case, flow) pair into a connection id.
    pub const fn from_usecase_flow(usecase: u32, flow: u32) -> Self {
        ConnId(((usecase as u64) << 32) | flow as u64)
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The use-case half of an id created by [`ConnId::from_usecase_flow`].
    pub const fn usecase(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The flow half of an id created by [`ConnId::from_usecase_flow`].
    pub const fn flow(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}:{}", self.usecase(), self.flow())
    }
}

/// Why a [`SlotTable`] mutation was refused.
///
/// The table's contract: **mutators** ([`SlotTable::occupy`],
/// [`SlotTable::release`]) report *every* failure — including an
/// out-of-range index — through this type and never panic; **read-only
/// accessors** ([`SlotTable::is_free`], [`SlotTable::owner`]) panic on
/// out-of-range indices, uniformly documented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotError {
    /// The slot index does not exist in a table of `size` slots.
    OutOfRange {
        /// The offending index.
        slot: usize,
        /// The table size.
        size: usize,
    },
    /// The slot is already reserved by `owner`.
    Occupied {
        /// Current owner of the slot.
        owner: ConnId,
    },
    /// The slot is not owned by the releasing connection.
    NotOwner {
        /// Actual owner, or `None` if the slot is free.
        owner: Option<ConnId>,
    },
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::OutOfRange { slot, size } => {
                write!(f, "slot {slot} out of range for table of {size} slots")
            }
            SlotError::Occupied { owner } => write!(f, "slot already owned by {owner}"),
            SlotError::NotOwner { owner: Some(c) } => write!(f, "slot owned by {c}, not caller"),
            SlotError::NotOwner { owner: None } => write!(f, "slot is free, nothing to release"),
        }
    }
}

impl std::error::Error for SlotError {}

/// One link's slot table: `S` slots, each free or owned by a connection.
///
/// Occupancy lives in a bit-packed [`OccupancyMask`] (one bit per slot,
/// popcount for [`SlotTable::free_count`], word-wise merges for the
/// network-level conflict probes); connection *ownership* lives in a
/// slot-sorted side index consulted only by the cold audit paths
/// ([`SlotTable::owner`], [`SlotTable::reservations`], release checks).
/// Cloning a table — the parallel mapper clones per-group slot state
/// wholesale — therefore copies `S` bits plus the live reservations
/// instead of `S` `Option<ConnId>` words.
///
/// ```
/// use noc_tdma::{ConnId, SlotTable};
///
/// let mut t = SlotTable::new(8);
/// assert_eq!(t.free_count(), 8);
/// t.occupy(3, ConnId::new(1)).unwrap();
/// assert!(!t.is_free(3));
/// assert_eq!(t.owner(3), Some(ConnId::new(1)));
/// t.release(3, ConnId::new(1)).unwrap();
/// assert_eq!(t.free_count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable {
    occupancy: OccupancyMask,
    /// `(slot, owner)` pairs sorted by slot — the side index backing
    /// [`SlotTable::owner`] and [`SlotTable::reservations`].
    owners: Vec<(usize, ConnId)>,
}

impl SlotTable {
    /// Creates an all-free table of `size` slots.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "slot table must have at least one slot");
        SlotTable {
            occupancy: OccupancyMask::new(size),
            owners: Vec::new(),
        }
    }

    /// Number of slots.
    pub fn size(&self) -> usize {
        self.occupancy.size()
    }

    /// Number of free slots (a popcount over the occupancy words).
    pub fn free_count(&self) -> usize {
        self.occupancy.free_count()
    }

    /// The bit-packed occupancy of this table (set bit = reserved slot),
    /// for word-wise conflict merges at the network level.
    pub fn occupancy(&self) -> &OccupancyMask {
        &self.occupancy
    }

    /// Returns `true` if slot `index` is free.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_free(&self, index: usize) -> bool {
        !self.occupancy.is_occupied(index)
    }

    /// The owner of slot `index`, if reserved.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn owner(&self, index: usize) -> Option<ConnId> {
        assert!(
            index < self.size(),
            "slot {index} out of range ({})",
            self.size()
        );
        self.owners
            .binary_search_by_key(&index, |&(s, _)| s)
            .ok()
            .map(|i| self.owners[i].1)
    }

    /// Marks slot `index` as owned by `conn`.
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] if `index` does not exist,
    /// [`SlotError::Occupied`] if the slot is already reserved.
    pub fn occupy(&mut self, index: usize, conn: ConnId) -> Result<(), SlotError> {
        if index >= self.size() {
            return Err(SlotError::OutOfRange {
                slot: index,
                size: self.size(),
            });
        }
        match self.owners.binary_search_by_key(&index, |&(s, _)| s) {
            Ok(i) => Err(SlotError::Occupied {
                owner: self.owners[i].1,
            }),
            Err(i) => {
                self.occupancy.occupy(index);
                self.owners.insert(i, (index, conn));
                Ok(())
            }
        }
    }

    /// Frees slot `index`, checking it is owned by `conn`.
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] if `index` does not exist,
    /// [`SlotError::NotOwner`] when the slot is free or owned by another
    /// connection (carrying the actual owner, if any).
    pub fn release(&mut self, index: usize, conn: ConnId) -> Result<(), SlotError> {
        if index >= self.size() {
            return Err(SlotError::OutOfRange {
                slot: index,
                size: self.size(),
            });
        }
        match self.owners.binary_search_by_key(&index, |&(s, _)| s) {
            Ok(i) if self.owners[i].1 == conn => {
                self.occupancy.release(index);
                self.owners.remove(i);
                Ok(())
            }
            Ok(i) => Err(SlotError::NotOwner {
                owner: Some(self.owners[i].1),
            }),
            Err(_) => Err(SlotError::NotOwner { owner: None }),
        }
    }

    /// Iterates over `(slot_index, owner)` pairs of reserved slots, in
    /// ascending slot order.
    pub fn reservations(&self) -> impl Iterator<Item = (usize, ConnId)> + '_ {
        self.owners.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_id_packing_roundtrips() {
        let c = ConnId::from_usecase_flow(7, 42);
        assert_eq!(c.usecase(), 7);
        assert_eq!(c.flow(), 42);
        assert_eq!(format!("{c}"), "c7:42");
        assert_eq!(ConnId::new(c.raw()), c);
    }

    #[test]
    fn occupy_and_release() {
        let mut t = SlotTable::new(4);
        let a = ConnId::new(1);
        let b = ConnId::new(2);
        t.occupy(0, a).unwrap();
        t.occupy(1, b).unwrap();
        assert_eq!(t.free_count(), 2);
        assert_eq!(t.occupy(0, b), Err(SlotError::Occupied { owner: a }));
        assert_eq!(t.release(0, b), Err(SlotError::NotOwner { owner: Some(a) }));
        assert_eq!(t.release(2, a), Err(SlotError::NotOwner { owner: None }));
        t.release(0, a).unwrap();
        assert_eq!(t.free_count(), 3);
        assert!(t.is_free(0));
    }

    #[test]
    fn mutators_report_out_of_range_as_errors() {
        let mut t = SlotTable::new(4);
        let a = ConnId::new(1);
        assert_eq!(
            t.occupy(4, a),
            Err(SlotError::OutOfRange { slot: 4, size: 4 })
        );
        assert_eq!(
            t.release(9, a),
            Err(SlotError::OutOfRange { slot: 9, size: 4 })
        );
        // The failed mutations changed nothing.
        assert_eq!(t.free_count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_panics_out_of_range() {
        let t = SlotTable::new(4);
        let _ = t.owner(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn is_free_panics_out_of_range() {
        let t = SlotTable::new(4);
        let _ = t.is_free(4);
    }

    #[test]
    fn reservations_iterator() {
        let mut t = SlotTable::new(8);
        t.occupy(5, ConnId::new(9)).unwrap();
        t.occupy(2, ConnId::new(3)).unwrap();
        let res: Vec<_> = t.reservations().collect();
        assert_eq!(res, vec![(2, ConnId::new(3)), (5, ConnId::new(9))]);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_rejected() {
        let _ = SlotTable::new(0);
    }

    #[test]
    fn free_count_invariant_under_churn() {
        let mut t = SlotTable::new(16);
        for i in 0..16 {
            t.occupy(i, ConnId::new(i as u64)).unwrap();
        }
        assert_eq!(t.free_count(), 0);
        for i in (0..16).step_by(2) {
            t.release(i, ConnId::new(i as u64)).unwrap();
        }
        assert_eq!(t.free_count(), 8);
        assert_eq!(t.reservations().count(), 8);
    }

    #[test]
    fn occupancy_mask_mirrors_table() {
        let mut t = SlotTable::new(70);
        t.occupy(0, ConnId::new(1)).unwrap();
        t.occupy(69, ConnId::new(2)).unwrap();
        assert_eq!(t.occupancy().mask().ones().collect::<Vec<_>>(), vec![0, 69]);
        assert_eq!(t.occupancy().free_count(), 68);
    }
}
