//! Strongly-typed physical quantities used throughout the workspace.
//!
//! The paper specifies traffic in MB/s, link widths in bits, frequencies in
//! MHz and latency constraints in (micro/nano)seconds. Newtypes keep these
//! from being confused ([C-NEWTYPE]) and give every quantity an unambiguous
//! base unit:
//!
//! * [`Bandwidth`] — bytes per second (`u64`),
//! * [`Frequency`] — hertz (`u64`),
//! * [`Latency`] — nanoseconds (`u64`),
//! * [`LinkWidth`] — bits (`u32`).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A bandwidth quantity, stored in bytes per second.
///
/// The paper quotes flow bandwidths in MB/s (decimal megabytes); use
/// [`Bandwidth::from_mbps`] for those.
///
/// ```
/// use noc_topology::units::Bandwidth;
///
/// let hd_stream = Bandwidth::from_mbps(200);
/// assert_eq!(hd_stream.as_bytes_per_sec(), 200_000_000);
/// assert_eq!(format!("{hd_stream}"), "200 MB/s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// The zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth from raw bytes per second.
    pub const fn from_bytes_per_sec(bytes: u64) -> Self {
        Bandwidth(bytes)
    }

    /// Creates a bandwidth from decimal megabytes per second, the unit used
    /// throughout the paper's use-case specifications.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Creates a bandwidth from a fractional MB/s value, rounding to the
    /// nearest byte per second. Negative values saturate to zero.
    pub fn from_mbps_f64(mbps: f64) -> Self {
        if mbps <= 0.0 {
            Bandwidth(0)
        } else {
            Bandwidth((mbps * 1e6).round() as u64)
        }
    }

    /// Returns the bandwidth in bytes per second.
    pub const fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Returns the bandwidth in decimal MB/s as a float (for reporting).
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if this is the zero bandwidth.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: residual capacity never underflows.
    pub const fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, rhs: Bandwidth) -> Option<Bandwidth> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Bandwidth(v)),
            None => None,
        }
    }

    /// Divides this bandwidth into `parts` equal shares (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub const fn div(self, parts: u64) -> Bandwidth {
        Bandwidth(self.0 / parts)
    }

    /// Multiplies the bandwidth by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, factor: u64) -> Bandwidth {
        Bandwidth(self.0.saturating_mul(factor))
    }

    /// Returns the fraction `self / total` as a float in `[0, +inf)`.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn fraction_of(self, total: Bandwidth) -> f64 {
        assert!(!total.is_zero(), "fraction_of: total bandwidth is zero");
        self.0 as f64 / total.0 as f64
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1_000_000 == 0 {
            write!(f, "{} MB/s", self.0 / 1_000_000)
        } else {
            write!(f, "{:.3} MB/s", self.as_mbps_f64())
        }
    }
}

/// A clock frequency, stored in hertz.
///
/// ```
/// use noc_topology::units::Frequency;
///
/// let f = Frequency::from_mhz(500);
/// assert_eq!(f.as_hz(), 500_000_000);
/// assert_eq!(format!("{f}"), "500 MHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u64);

impl Frequency {
    /// The zero frequency (useful as a lower bound in sweeps).
    pub const ZERO: Frequency = Frequency(0);

    /// Creates a frequency from hertz.
    pub const fn from_hz(hz: u64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Frequency(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    pub const fn from_ghz(ghz: u64) -> Self {
        Frequency(ghz * 1_000_000_000)
    }

    /// Returns the frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in MHz as a float (for reporting).
    pub fn as_mhz_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the clock period in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    pub fn period_ns(self) -> f64 {
        assert!(self.0 != 0, "period of zero frequency");
        1e9 / self.0 as f64
    }

    /// Returns `true` if this is the zero frequency.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: Frequency) -> f64 {
        assert!(other.0 != 0, "ratio with zero frequency");
        self.0 as f64 / other.0 as f64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1_000_000 == 0 {
            write!(f, "{} MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

/// A latency quantity, stored in nanoseconds.
///
/// Flow latency *constraints* are upper bounds: a flow's worst-case packet
/// delay must not exceed its [`Latency`].
///
/// ```
/// use noc_topology::units::Latency;
///
/// let deadline = Latency::from_us(1);
/// assert_eq!(deadline.as_ns(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Latency(u64);

impl Latency {
    /// Zero latency (unsatisfiable as a constraint except on-core).
    pub const ZERO: Latency = Latency(0);

    /// A latency so large it never constrains anything.
    pub const UNCONSTRAINED: Latency = Latency(u64::MAX);

    /// Creates a latency from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Latency(ns)
    }

    /// Creates a latency from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Latency(us * 1_000)
    }

    /// Creates a latency from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Latency(ms * 1_000_000)
    }

    /// Returns the latency in nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns `true` if this latency never constrains a flow.
    pub const fn is_unconstrained(self) -> bool {
        self.0 == u64::MAX
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unconstrained() {
            write!(f, "unconstrained")
        } else if self.0 % 1_000_000 == 0 && self.0 > 0 {
            write!(f, "{} ms", self.0 / 1_000_000)
        } else if self.0 % 1_000 == 0 && self.0 > 0 {
            write!(f, "{} us", self.0 / 1_000)
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

/// A link data width in bits.
///
/// The paper fixes links to 32 bits for the switch-count comparison
/// (Section 6.2); [`LinkWidth::BITS_32`] is that default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkWidth(u32);

impl LinkWidth {
    /// The 32-bit link width used in the paper's evaluation.
    pub const BITS_32: LinkWidth = LinkWidth(32);

    /// A 64-bit link width, for wider-datapath exploration.
    pub const BITS_64: LinkWidth = LinkWidth(64);

    /// Creates a link width from a bit count.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or not a multiple of 8 (links carry whole
    /// bytes per cycle).
    pub fn from_bits(bits: u32) -> Self {
        assert!(
            bits > 0 && bits % 8 == 0,
            "link width must be a positive multiple of 8 bits"
        );
        LinkWidth(bits)
    }

    /// Returns the width in bits.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Returns the width in bytes.
    pub const fn bytes(self) -> u32 {
        self.0 / 8
    }

    /// Raw link capacity at clock `freq`: one word of [`Self::bytes`] bytes
    /// per cycle.
    ///
    /// ```
    /// use noc_topology::units::{Frequency, LinkWidth};
    ///
    /// let cap = LinkWidth::BITS_32.capacity(Frequency::from_mhz(500));
    /// assert_eq!(cap.as_mbps_f64(), 2000.0);
    /// ```
    pub fn capacity(self, freq: Frequency) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(freq.as_hz().saturating_mul(self.bytes() as u64))
    }
}

impl Default for LinkWidth {
    fn default() -> Self {
        LinkWidth::BITS_32
    }
}

impl fmt::Display for LinkWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_constructors_agree() {
        assert_eq!(
            Bandwidth::from_mbps(50),
            Bandwidth::from_bytes_per_sec(50_000_000)
        );
        assert_eq!(Bandwidth::from_mbps_f64(50.0), Bandwidth::from_mbps(50));
        assert_eq!(Bandwidth::from_mbps_f64(-3.0), Bandwidth::ZERO);
    }

    #[test]
    fn bandwidth_arithmetic() {
        let a = Bandwidth::from_mbps(100);
        let b = Bandwidth::from_mbps(30);
        assert_eq!(a + b, Bandwidth::from_mbps(130));
        assert_eq!(a - b, Bandwidth::from_mbps(70));
        assert_eq!(b.saturating_sub(a), Bandwidth::ZERO);
        assert_eq!(a.div(4), Bandwidth::from_mbps(25));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn bandwidth_sum_and_ordering() {
        let flows = [
            Bandwidth::from_mbps(50),
            Bandwidth::from_mbps(150),
            Bandwidth::from_mbps(100),
        ];
        let total: Bandwidth = flows.iter().copied().sum();
        assert_eq!(total, Bandwidth::from_mbps(300));
        assert!(flows[1] > flows[2] && flows[2] > flows[0]);
    }

    #[test]
    fn bandwidth_fraction() {
        let part = Bandwidth::from_mbps(500);
        let total = Bandwidth::from_mbps(2000);
        assert!((part.fraction_of(total) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "total bandwidth is zero")]
    fn bandwidth_fraction_of_zero_panics() {
        let _ = Bandwidth::from_mbps(1).fraction_of(Bandwidth::ZERO);
    }

    #[test]
    fn frequency_units() {
        assert_eq!(Frequency::from_mhz(500).as_hz(), 500_000_000);
        assert_eq!(Frequency::from_ghz(2), Frequency::from_mhz(2000));
        assert!((Frequency::from_mhz(500).period_ns() - 2.0).abs() < 1e-12);
        assert!((Frequency::from_ghz(1).ratio(Frequency::from_mhz(500)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_units_and_display() {
        assert_eq!(Latency::from_us(3).as_ns(), 3_000);
        assert_eq!(Latency::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(format!("{}", Latency::from_ns(7)), "7 ns");
        assert_eq!(format!("{}", Latency::from_us(7)), "7 us");
        assert_eq!(format!("{}", Latency::from_ms(7)), "7 ms");
        assert_eq!(format!("{}", Latency::UNCONSTRAINED), "unconstrained");
        assert!(Latency::UNCONSTRAINED.is_unconstrained());
        assert!(!Latency::from_ns(1).is_unconstrained());
    }

    #[test]
    fn link_capacity_matches_paper_setup() {
        // Section 6.2 fixes 500 MHz / 32-bit links: 2 GB/s raw capacity.
        let cap = LinkWidth::BITS_32.capacity(Frequency::from_mhz(500));
        assert_eq!(cap, Bandwidth::from_mbps(2000));
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn link_width_rejects_non_byte_widths() {
        let _ = LinkWidth::from_bits(12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bandwidth::from_mbps(200)), "200 MB/s");
        assert_eq!(
            format!("{}", Bandwidth::from_bytes_per_sec(1_500_000)),
            "1.500 MB/s"
        );
        assert_eq!(format!("{}", Frequency::from_mhz(500)), "500 MHz");
        assert_eq!(format!("{}", Frequency::from_hz(1234)), "1234 Hz");
        assert_eq!(format!("{}", LinkWidth::BITS_32), "32 bits");
    }
}
