//! Bit-packed slot masks — the word-at-a-time core of the TDMA layer.
//!
//! Modeled on the `BoundedBitset` idea of PDCCH shuffling allocators:
//! a slot table's occupancy is a fixed-size bitset of `S` bits packed
//! into `⌈S/64⌉` machine words, so the questions the mapper's inner
//! loop asks — *is this slot taken? how many are free? which base
//! slots are free along this whole path?* — become single-word AND/OR
//! tests, popcounts, and rotate-by-offset merges instead of per-slot
//! scans with a modulo per probe.
//!
//! Two types:
//!
//! * [`SlotMask`] — the general fixed-size bitset (`len` bits over
//!   `u64` words) with the rotate-by-offset OR that folds a path's
//!   per-link tables into one conflict mask,
//! * [`OccupancyMask`] — a [`SlotMask`] carrying the occupied-slot
//!   invariant of one link's table (set bit = reserved slot).
//!
//! Connection *ownership* deliberately lives outside these types (a
//! side index in [`crate::SlotTable`]): masks answer the hot yes/no
//! conflict questions, the side index answers the cold who-owns-it
//! audits, and per-group cloned state shrinks from `S × Option<ConnId>`
//! words to `S` bits plus the live reservations.

/// A fixed-size bitset of `len` bits packed into `u64` words.
///
/// Bit indices run `0..len`. All operations stay within `len` bits;
/// the unused high bits of the last word are kept zero, so popcounts
/// and word-wise merges never see garbage.
///
/// ```
/// use noc_tdma::SlotMask;
///
/// let mut m = SlotMask::new(128);
/// m.set(0);
/// m.set(127);
/// assert!(m.test(127) && !m.test(64));
/// assert_eq!(m.count_ones(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotMask {
    words: Vec<u64>,
    len: usize,
}

impl SlotMask {
    /// An all-zero mask of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "a slot mask needs at least one bit");
        SlotMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the mask has zero bits — never, by construction, but
    /// conventional alongside [`SlotMask::len`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing `u64` words (`⌈len/64⌉`).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Whether bit `index` is set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn test(&self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} out of range ({})", self.len);
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) {
        assert!(index < self.len, "bit {index} out of range ({})", self.len);
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Clears bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn clear(&mut self, index: usize) {
        assert!(index < self.len, "bit {index} out of range ({})", self.len);
        self.words[index / 64] &= !(1u64 << (index % 64));
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits (one popcount per word).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when any bit of `self & other` is set — the single-pass
    /// word-wise conflict test.
    ///
    /// # Panics
    ///
    /// Panics if the masks differ in length.
    pub fn intersects(&self, other: &SlotMask) -> bool {
        assert_eq!(self.len, other.len, "mask length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// `self |= other`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics if the masks differ in length.
    pub fn or_assign(&mut self, other: &SlotMask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Reads `n <= 64` bits starting at bit `start` (no wraparound:
    /// `start + n` must stay within `len`), packed into the low bits of
    /// the returned word.
    fn range_bits(&self, start: usize, n: usize) -> u64 {
        debug_assert!(n <= 64 && start + n <= self.len);
        if n == 0 {
            return 0;
        }
        let w = start / 64;
        let b = start % 64;
        let mut v = self.words[w] >> b;
        if b + n > 64 {
            v |= self.words[w + 1] << (64 - b);
        }
        if n < 64 {
            v &= (1u64 << n) - 1;
        }
        v
    }

    /// `self |= rotate(src, offset)` where bit `i` of the rotation is
    /// bit `(i + offset) % len` of `src` — the pipelined slot-advance
    /// merge: OR-ing link `i`'s occupancy rotated by `i` over a path
    /// yields the mask of *base* slots that conflict anywhere along it,
    /// with the `(s + i) % S` wraparound folded into a handful of word
    /// reads instead of a modulo per probed slot.
    ///
    /// # Panics
    ///
    /// Panics if the masks differ in length.
    pub fn or_rotated(&mut self, src: &SlotMask, offset: usize) {
        assert_eq!(self.len, src.len, "mask length mismatch");
        let len = self.len;
        let k = offset % len;
        if k == 0 {
            return self.or_assign(src);
        }
        let mut bit = 0usize;
        for j in 0..self.words.len() {
            // Destination word j holds bits [bit, bit + n); its source
            // window starts at (bit + k) % len and may wrap the ring's
            // end at most once (n <= len).
            let n = (len - bit).min(64);
            let p = (bit + k) % len;
            let first = n.min(len - p);
            let mut v = src.range_bits(p, first);
            if first < n {
                v |= src.range_bits(0, n - first) << first;
            }
            self.words[j] |= v;
            bit += n;
        }
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter_bits(false)
    }

    /// Indices of clear bits, ascending — the free-candidate scan, one
    /// `trailing_zeros` chase per word instead of a per-slot probe.
    pub fn zeros(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter_bits(true)
    }

    fn iter_bits(&self, invert: bool) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words.iter().enumerate().flat_map(move |(j, &w)| {
            let mut w = if invert { !w } else { w };
            // Mask off the unused tail of the last word.
            if (j + 1) * 64 > len {
                w &= (1u64 << (len % 64)) - 1;
            }
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(j * 64 + b)
            })
        })
    }
}

/// The occupied-slot bits of one link's slot table: set bit = reserved.
///
/// A thin wrapper over [`SlotMask`] keeping the table-side invariants
/// (occupy only free slots, release only taken ones) `debug_assert`ed
/// in one place, with the underlying mask exposed for the word-wise
/// path merges of `NetworkSlots`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OccupancyMask {
    mask: SlotMask,
}

impl OccupancyMask {
    /// An all-free occupancy of `size` slots.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        OccupancyMask {
            mask: SlotMask::new(size),
        }
    }

    /// Number of slots tracked.
    pub fn size(&self) -> usize {
        self.mask.len()
    }

    /// Whether slot `index` is reserved.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_occupied(&self, index: usize) -> bool {
        self.mask.test(index)
    }

    /// Number of free slots (`size − popcount`).
    pub fn free_count(&self) -> usize {
        self.mask.len() - self.mask.count_ones()
    }

    /// Marks slot `index` reserved.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range; `debug_assert`s the slot was
    /// free (callers check ownership through the table's side index).
    pub fn occupy(&mut self, index: usize) {
        debug_assert!(!self.mask.test(index), "slot {index} double-occupied");
        self.mask.set(index);
    }

    /// Marks slot `index` free again.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range; `debug_assert`s the slot was
    /// reserved.
    pub fn release(&mut self, index: usize) {
        debug_assert!(self.mask.test(index), "slot {index} released while free");
        self.mask.clear(index);
    }

    /// The raw bit mask, for word-wise merges.
    pub fn mask(&self) -> &SlotMask {
        &self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear_roundtrip() {
        let mut m = SlotMask::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!m.test(i));
            m.set(i);
            assert!(m.test(i));
        }
        assert_eq!(m.count_ones(), 8);
        m.clear(64);
        assert!(!m.test(64));
        assert_eq!(m.count_ones(), 7);
        m.clear_all();
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn ones_and_zeros_scan_in_order() {
        let mut m = SlotMask::new(70);
        for i in [3, 64, 69] {
            m.set(i);
        }
        assert_eq!(m.ones().collect::<Vec<_>>(), vec![3, 64, 69]);
        let zeros: Vec<usize> = m.zeros().collect();
        assert_eq!(zeros.len(), 67);
        assert_eq!(zeros[0], 0);
        assert!(!zeros.contains(&64));
        assert_eq!(*zeros.last().unwrap(), 68);
    }

    #[test]
    fn intersects_and_or_assign() {
        let mut a = SlotMask::new(128);
        let mut b = SlotMask::new(128);
        a.set(5);
        b.set(100);
        assert!(!a.intersects(&b));
        b.set(5);
        assert!(a.intersects(&b));
        a.or_assign(&b);
        assert!(a.test(100));
        assert_eq!(a.count_ones(), 2);
    }

    /// `or_rotated` against the naive per-bit modulo definition, across
    /// word-aligned, sub-word and ragged lengths.
    #[test]
    fn rotation_matches_modulo_definition() {
        for &len in &[3usize, 8, 16, 63, 64, 65, 100, 128, 130, 192] {
            let mut src = SlotMask::new(len);
            // A deterministic scatter of bits.
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..len {
                x = x.wrapping_mul(0xd129_8a2e_0370_7345).wrapping_add(1);
                if x & 3 == 0 {
                    src.set(i);
                }
            }
            for k in [0, 1, 2, len / 2, len.saturating_sub(1), len, len + 3] {
                let mut rot = SlotMask::new(len);
                rot.or_rotated(&src, k);
                for i in 0..len {
                    assert_eq!(
                        rot.test(i),
                        src.test((i + k) % len),
                        "len={len} k={k} bit={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn or_rotated_accumulates() {
        let mut a = SlotMask::new(8);
        let mut b = SlotMask::new(8);
        a.set(7); // slot 7 occupied on link with offset 1: base slot 6
        b.set(0); // slot 0 occupied on link with offset 2: base slot 6
        let mut acc = SlotMask::new(8);
        acc.or_rotated(&a, 1);
        acc.or_rotated(&b, 2);
        assert!(acc.test(6));
        assert_eq!(acc.count_ones(), 1);
    }

    #[test]
    fn occupancy_tracks_free_count() {
        let mut o = OccupancyMask::new(16);
        assert_eq!(o.free_count(), 16);
        o.occupy(3);
        o.occupy(15);
        assert!(o.is_occupied(3) && !o.is_occupied(4));
        assert_eq!(o.free_count(), 14);
        o.release(3);
        assert_eq!(o.free_count(), 15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_test_panics() {
        let m = SlotMask::new(8);
        let _ = m.test(8);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_length_rejected() {
        let _ = SlotMask::new(0);
    }
}
