//! Global TDMA parameters of a NoC instance.

use noc_topology::units::{Bandwidth, Frequency, Latency, LinkWidth};

/// The TDMA configuration shared by every link of a NoC: table size, clock
/// frequency and link width.
///
/// A slot lasts one clock cycle and carries one link word, so a single slot
/// of an `S`-slot table is worth `capacity / S` bandwidth.
///
/// ```
/// use noc_topology::units::{Bandwidth, Frequency, LinkWidth};
/// use noc_tdma::TdmaSpec;
///
/// let spec = TdmaSpec::new(16, Frequency::from_mhz(500), LinkWidth::BITS_32);
/// assert_eq!(spec.link_capacity(), Bandwidth::from_mbps(2000));
/// assert_eq!(spec.slot_bandwidth(), Bandwidth::from_mbps(125));
/// assert_eq!(spec.slots_for_bandwidth(Bandwidth::from_mbps(200)), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TdmaSpec {
    slots: usize,
    frequency: Frequency,
    width: LinkWidth,
}

impl TdmaSpec {
    /// Creates a TDMA spec.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `frequency` is zero.
    pub fn new(slots: usize, frequency: Frequency, width: LinkWidth) -> Self {
        assert!(slots > 0, "slot table must have at least one slot");
        assert!(!frequency.is_zero(), "TDMA frequency must be non-zero");
        TdmaSpec {
            slots,
            frequency,
            width,
        }
    }

    /// The paper's evaluation setup: 500 MHz, 32-bit links, 128-slot
    /// tables. Æthereal slot tables range up to 256 entries; 128 gives a
    /// 15.6 MB/s slot granularity, fine enough that an NI link can carry
    /// the several dozen flows a shared-memory hub sees per use-case.
    pub fn paper_default() -> Self {
        TdmaSpec::new(128, Frequency::from_mhz(500), LinkWidth::BITS_32)
    }

    /// Returns a copy of this spec at a different clock frequency (the
    /// frequency sweeps of Figures 7(a) and 7(c)).
    #[must_use]
    pub fn at_frequency(self, frequency: Frequency) -> Self {
        TdmaSpec::new(self.slots, frequency, self.width)
    }

    /// Number of slots per table.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// NoC clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Link data width.
    pub fn width(&self) -> LinkWidth {
        self.width
    }

    /// Raw link capacity (`frequency × width`).
    pub fn link_capacity(&self) -> Bandwidth {
        self.width.capacity(self.frequency)
    }

    /// Bandwidth of a single slot (`capacity / slots`).
    pub fn slot_bandwidth(&self) -> Bandwidth {
        self.link_capacity().div(self.slots as u64)
    }

    /// Minimum number of slots whose combined bandwidth covers `bw`
    /// (`ceil(bw / slot_bandwidth)`); zero for a zero-bandwidth flow.
    pub fn slots_for_bandwidth(&self, bw: Bandwidth) -> usize {
        if bw.is_zero() {
            return 0;
        }
        let slot_bw = self.slot_bandwidth().as_bytes_per_sec();
        assert!(slot_bw > 0, "slot bandwidth underflowed to zero");
        bw.as_bytes_per_sec().div_ceil(slot_bw) as usize
    }

    /// Duration of `cycles` clock cycles as a latency.
    pub fn cycles_to_latency(&self, cycles: u64) -> Latency {
        // ceil(cycles * 1e9 / f) in ns.
        let ns = (cycles as u128 * 1_000_000_000u128).div_ceil(self.frequency.as_hz() as u128);
        Latency::from_ns(ns as u64)
    }

    /// Worst-case GT latency (in cycles) for a connection with reserved
    /// base slots `base_slots` over a path of `hops` links: the packet
    /// waits at most the largest cyclic gap between consecutive reserved
    /// slots, then pipelines one link per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `base_slots` is empty or contains a slot `>= slots()`.
    pub fn worst_case_latency_cycles(&self, base_slots: &[usize], hops: usize) -> u64 {
        assert!(
            !base_slots.is_empty(),
            "a GT connection needs at least one slot"
        );
        let mut sorted: Vec<usize> = base_slots.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &s in &sorted {
            assert!(
                s < self.slots,
                "slot index {s} out of range (S = {})",
                self.slots
            );
        }
        let mut max_gap = 0usize;
        for (i, &s) in sorted.iter().enumerate() {
            let next = sorted[(i + 1) % sorted.len()];
            let gap = if i + 1 == sorted.len() {
                next + self.slots - s
            } else {
                next - s
            };
            max_gap = max_gap.max(gap);
        }
        // Wait for the next owned slot (≤ max_gap - 1 cycles after arrival,
        // bounded by max_gap) then traverse `hops` links, one per cycle.
        max_gap as u64 + hops as u64
    }

    /// Worst-case GT latency as wall-clock time.
    pub fn worst_case_latency(&self, base_slots: &[usize], hops: usize) -> Latency {
        self.cycles_to_latency(self.worst_case_latency_cycles(base_slots, hops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TdmaSpec {
        TdmaSpec::new(16, Frequency::from_mhz(500), LinkWidth::BITS_32)
    }

    #[test]
    fn capacities() {
        let s = spec();
        assert_eq!(s.link_capacity(), Bandwidth::from_mbps(2000));
        assert_eq!(s.slot_bandwidth(), Bandwidth::from_mbps(125));
    }

    #[test]
    fn slots_for_bandwidth_rounds_up() {
        let s = spec();
        assert_eq!(s.slots_for_bandwidth(Bandwidth::ZERO), 0);
        assert_eq!(s.slots_for_bandwidth(Bandwidth::from_mbps(1)), 1);
        assert_eq!(s.slots_for_bandwidth(Bandwidth::from_mbps(125)), 1);
        assert_eq!(
            s.slots_for_bandwidth(Bandwidth::from_bytes_per_sec(125_000_001)),
            2
        );
        assert_eq!(s.slots_for_bandwidth(Bandwidth::from_mbps(2000)), 16);
        // Over-capacity demand needs more slots than exist; caller rejects.
        assert_eq!(s.slots_for_bandwidth(Bandwidth::from_mbps(2100)), 17);
    }

    #[test]
    fn at_frequency_rescales() {
        let s = spec().at_frequency(Frequency::from_ghz(1));
        assert_eq!(s.link_capacity(), Bandwidth::from_mbps(4000));
        assert_eq!(s.slots(), 16);
    }

    #[test]
    fn worst_case_latency_single_slot() {
        let s = spec();
        // One slot: max gap is the whole table.
        assert_eq!(s.worst_case_latency_cycles(&[0], 3), 16 + 3);
    }

    #[test]
    fn worst_case_latency_spread_slots() {
        let s = spec();
        // Evenly spread 4 slots: max gap 4.
        assert_eq!(s.worst_case_latency_cycles(&[0, 4, 8, 12], 2), 4 + 2);
        // Clustered 4 slots: max gap 13 (from 3 around to 0).
        assert_eq!(s.worst_case_latency_cycles(&[0, 1, 2, 3], 2), 13 + 2);
    }

    #[test]
    fn worst_case_latency_wraparound_gap() {
        let s = spec();
        // Slots 14 and 15: gap 15 -> 14 wraps: 14 + 16 - 15 = 15.
        assert_eq!(s.worst_case_latency_cycles(&[14, 15], 1), 15 + 1);
    }

    #[test]
    fn cycles_to_latency_rounds_up() {
        let s = spec(); // 2 ns period
        assert_eq!(s.cycles_to_latency(10), Latency::from_ns(20));
        let s3 = TdmaSpec::new(16, Frequency::from_hz(3), LinkWidth::BITS_32);
        // 1 cycle at 3 Hz = 333333333.33 ns, rounded up.
        assert_eq!(s3.cycles_to_latency(1), Latency::from_ns(333_333_334));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_table_rejected() {
        let _ = TdmaSpec::new(0, Frequency::from_mhz(500), LinkWidth::BITS_32);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn latency_needs_a_slot() {
        let _ = spec().worst_case_latency_cycles(&[], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn latency_rejects_out_of_range_slot() {
        let _ = spec().worst_case_latency_cycles(&[16], 1);
    }
}
