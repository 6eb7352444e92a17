//! NoC power model and dynamic voltage/frequency scaling (DVS/DFS).
//!
//! Section 6.4 of the paper scales the NoC frequency (and voltage) during
//! use-case switching to match each use-case's communication needs, using a
//! "conservative model for voltage scaling, where … the square of the
//! voltage scales linearly with the frequency" (citing Rabaey et al.).
//!
//! Dynamic CMOS power is `P = C_eff · f · V²`. Under the paper's rule
//! `V² ∝ f`, power at a scaled frequency `f` relative to the maximum
//! design frequency `f_max` is
//!
//! ```text
//! P(f) / P(f_max) = (f / f_max)²
//! ```
//!
//! which is exactly what [`DvsModel::relative_power`] computes. The
//! absolute model in [`PowerModel`] exists so reports can also quote mW
//! figures; all paper comparisons (Figure 7(b)) are relative.

use crate::graph::Topology;
use crate::units::Frequency;

/// An operating point: a frequency and its (derived) supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency.
    pub frequency: Frequency,
    /// Supply voltage in volts.
    pub voltage: f64,
}

/// The paper's conservative DVS rule: `V² ∝ f`, anchored at a nominal
/// (frequency, voltage) pair.
///
/// ```
/// use noc_topology::{DvsModel, units::Frequency};
///
/// let dvs = DvsModel::nominal(Frequency::from_mhz(500), 1.2);
/// let op = dvs.operating_point(Frequency::from_mhz(125));
/// // V² scales by 1/4, so V scales by 1/2.
/// assert!((op.voltage - 0.6).abs() < 1e-12);
/// // Power scales by (f/f0)² = 1/16.
/// assert!((dvs.relative_power(Frequency::from_mhz(125), Frequency::from_mhz(500)) - 1.0 / 16.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsModel {
    nominal_freq: Frequency,
    nominal_voltage: f64,
    /// Lowest voltage the process supports; scaling clamps here.
    min_voltage: f64,
}

impl DvsModel {
    /// Creates a DVS model anchored at (`nominal_freq`, `nominal_voltage`).
    ///
    /// # Panics
    ///
    /// Panics if the nominal frequency is zero or the voltage non-positive.
    pub fn nominal(nominal_freq: Frequency, nominal_voltage: f64) -> Self {
        assert!(
            !nominal_freq.is_zero(),
            "nominal frequency must be non-zero"
        );
        assert!(nominal_voltage > 0.0, "nominal voltage must be positive");
        DvsModel {
            nominal_freq,
            nominal_voltage,
            min_voltage: 0.0,
        }
    }

    /// The default 0.13 µm anchor: 1.2 V at 500 MHz with a 0.6 V floor.
    pub fn cmos130() -> Self {
        DvsModel {
            nominal_freq: Frequency::from_mhz(500),
            nominal_voltage: 1.2,
            min_voltage: 0.6,
        }
    }

    /// Sets the minimum supply voltage the regulator can reach.
    #[must_use]
    pub fn with_min_voltage(mut self, volts: f64) -> Self {
        self.min_voltage = volts.max(0.0);
        self
    }

    /// Voltage (and frequency) for running at `freq` under `V² ∝ f`.
    pub fn operating_point(&self, freq: Frequency) -> OperatingPoint {
        let scale = freq.as_hz() as f64 / self.nominal_freq.as_hz() as f64;
        let voltage = (self.nominal_voltage * self.nominal_voltage * scale)
            .sqrt()
            .max(self.min_voltage);
        OperatingPoint {
            frequency: freq,
            voltage,
        }
    }

    /// Power at `freq` relative to power at `reference`: `(f/f_ref)²`
    /// (until the voltage floor bites, after which it decays only linearly).
    ///
    /// # Panics
    ///
    /// Panics if `reference` is zero.
    pub fn relative_power(&self, freq: Frequency, reference: Frequency) -> f64 {
        assert!(!reference.is_zero(), "reference frequency must be non-zero");
        let p = self.absolute_factor(freq);
        let p_ref = self.absolute_factor(reference);
        p / p_ref
    }

    /// `f · V(f)²` up to a constant — the dynamic-power proportionality.
    fn absolute_factor(&self, freq: Frequency) -> f64 {
        let v = self.operating_point(freq).voltage;
        freq.as_hz() as f64 * v * v
    }
}

impl Default for DvsModel {
    fn default() -> Self {
        DvsModel::cmos130()
    }
}

/// Absolute dynamic-power model for a NoC instance.
///
/// `P = Σ_switches c_sw(ports) · f · V² + links · c_link · f · V²`, with
/// coefficients loosely calibrated so a 2×2 mesh at 500 MHz / 1.2 V draws
/// on the order of tens of mW — consistent with published Æthereal figures.
/// Only *relative* numbers are used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Switch capacitance coefficient, mW per (GHz · V² · port).
    pub switch_mw_per_ghz_v2_port: f64,
    /// Link capacitance coefficient, mW per (GHz · V² · link).
    pub link_mw_per_ghz_v2: f64,
    /// DVS rule used to derive voltages from frequencies.
    pub dvs: DvsModel,
}

impl PowerModel {
    /// Default 0.13 µm calibration.
    pub fn cmos130() -> Self {
        PowerModel {
            switch_mw_per_ghz_v2_port: 2.0,
            link_mw_per_ghz_v2: 0.8,
            dvs: DvsModel::cmos130(),
        }
    }

    /// Dynamic power (mW) of `topo` clocked at `freq`.
    pub fn power_mw(&self, topo: &Topology, freq: Frequency) -> f64 {
        let op = self.dvs.operating_point(freq);
        let f_ghz = freq.as_hz() as f64 / 1e9;
        let v2 = op.voltage * op.voltage;
        let switch_ports: usize = topo.switches().iter().map(|&s| topo.switch_ports(s)).sum();
        let p_sw = self.switch_mw_per_ghz_v2_port * switch_ports as f64 * f_ghz * v2;
        let p_link = self.link_mw_per_ghz_v2 * topo.link_count() as f64 * f_ghz * v2;
        p_sw + p_link
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::cmos130()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshBuilder;

    #[test]
    fn voltage_scales_as_sqrt_of_frequency() {
        let dvs = DvsModel::nominal(Frequency::from_mhz(500), 1.2);
        let half = dvs.operating_point(Frequency::from_mhz(250)).voltage;
        assert!((half - 1.2 / 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn relative_power_is_quadratic_above_floor() {
        let dvs = DvsModel::nominal(Frequency::from_mhz(500), 1.2);
        let r = dvs.relative_power(Frequency::from_mhz(250), Frequency::from_mhz(500));
        assert!((r - 0.25).abs() < 1e-9);
        let r = dvs.relative_power(Frequency::from_mhz(500), Frequency::from_mhz(500));
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_floor_limits_scaling() {
        let dvs = DvsModel::cmos130(); // floor 0.6 V
        let op = dvs.operating_point(Frequency::from_mhz(10));
        assert!(
            (op.voltage - 0.6).abs() < 1e-12,
            "voltage clamps at the floor"
        );
        // Below the floor, power decays linearly (f · V_min²), not quadratically.
        let r10 = dvs.relative_power(Frequency::from_mhz(10), Frequency::from_mhz(500));
        let r20 = dvs.relative_power(Frequency::from_mhz(20), Frequency::from_mhz(500));
        assert!((r20 / r10 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn power_model_scales_with_topology_and_frequency() {
        let pm = PowerModel::cmos130();
        let small = MeshBuilder::new(2, 2).nis_per_switch(2).build().unwrap();
        let large = MeshBuilder::new(4, 4).nis_per_switch(2).build().unwrap();
        let f = Frequency::from_mhz(500);
        assert!(pm.power_mw(large.topology(), f) > pm.power_mw(small.topology(), f));
        assert!(
            pm.power_mw(small.topology(), Frequency::from_ghz(1))
                > pm.power_mw(small.topology(), f)
        );
        let p = pm.power_mw(small.topology(), f);
        assert!(
            p > 1.0 && p < 1000.0,
            "2x2 mesh should draw O(10-100) mW, got {p}"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_nominal_rejected() {
        let _ = DvsModel::nominal(Frequency::ZERO, 1.2);
    }
}
