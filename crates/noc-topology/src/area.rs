//! Switch area model.
//!
//! The paper obtains switch areas "from layouts with back-annotated
//! worst-case timing in 0.13 µm technology" (Section 6.3) and takes NoC
//! area to be the sum of switch areas (NI area is counted as core area).
//! Those layouts are not public, so this module substitutes an analytic
//! model with the same structure as published Æthereal router breakdowns:
//!
//! * a quadratic crossbar term in the port count,
//! * a linear per-port term (buffers, slot-table column, arbitration),
//! * a fixed control overhead,
//! * a frequency derating factor — meeting a faster clock costs area
//!   (wider gates, deeper pipelining), modelled linearly in `f`.
//!
//! The default calibration puts a 5-port switch at 500 MHz at ≈ 0.175 mm²,
//! in line with the DATE'03 Æthereal GT–BE router report, which is the
//! router family the paper targets.

use crate::graph::Topology;
use crate::units::Frequency;

/// Analytic switch area model (mm², 0.13 µm).
///
/// ```
/// use noc_topology::{AreaModel, units::Frequency};
///
/// let model = AreaModel::cmos130();
/// let a = model.switch_area_mm2(5, Frequency::from_mhz(500));
/// assert!((a - 0.175).abs() < 0.02, "5-port @ 500 MHz should be ~0.175 mm², got {a}");
/// // Faster clocks cost area.
/// assert!(model.switch_area_mm2(5, Frequency::from_ghz(2)) > a);
/// // More ports cost area superlinearly.
/// assert!(model.switch_area_mm2(10, Frequency::from_mhz(500)) > 2.0 * a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Fixed control overhead per switch (mm²).
    pub base_mm2: f64,
    /// Per-port buffer/arbiter cost (mm²/port).
    pub per_port_mm2: f64,
    /// Crossbar cost (mm²/port²).
    pub per_port_sq_mm2: f64,
    /// Frequency at which the base calibration holds.
    pub ref_freq: Frequency,
    /// Fractional area increase per GHz above/below `ref_freq`.
    pub freq_slope_per_ghz: f64,
}

impl AreaModel {
    /// The default 0.13 µm calibration used throughout the reproduction.
    pub fn cmos130() -> Self {
        AreaModel {
            base_mm2: 0.020,
            per_port_mm2: 0.016,
            per_port_sq_mm2: 0.003,
            ref_freq: Frequency::from_mhz(500),
            freq_slope_per_ghz: 0.2,
        }
    }

    /// Area of one switch with `ports` ports synthesized for clock `freq`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn switch_area_mm2(&self, ports: usize, freq: Frequency) -> f64 {
        assert!(ports > 0, "a switch must have at least one port");
        let p = ports as f64;
        let structural = self.base_mm2 + self.per_port_mm2 * p + self.per_port_sq_mm2 * p * p;
        let delta_ghz = (freq.as_hz() as f64 - self.ref_freq.as_hz() as f64) / 1e9;
        // Derating never drops below 60% of the reference-area figure: even a
        // slow clock needs the full crossbar wiring.
        let derate = (1.0 + self.freq_slope_per_ghz * delta_ghz).max(0.6);
        structural * derate
    }

    /// Total NoC area: the sum of all switch areas (NI area is attributed
    /// to the cores, as in the paper).
    pub fn topology_area_mm2(&self, topo: &Topology, freq: Frequency) -> f64 {
        topo.switches()
            .iter()
            .map(|&s| self.switch_area_mm2(topo.switch_ports(s), freq))
            .sum()
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::cmos130()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshBuilder;

    #[test]
    fn calibration_point() {
        let m = AreaModel::cmos130();
        let a = m.switch_area_mm2(5, Frequency::from_mhz(500));
        assert!((a - 0.175).abs() < 0.02, "got {a}");
    }

    #[test]
    fn area_monotone_in_ports_and_frequency() {
        let m = AreaModel::cmos130();
        let f = Frequency::from_mhz(500);
        let mut prev = 0.0;
        for ports in 1..=16 {
            let a = m.switch_area_mm2(ports, f);
            assert!(a > prev);
            prev = a;
        }
        let mut prev = 0.0;
        for mhz in [100u64, 300, 500, 800, 1200, 2000] {
            let a = m.switch_area_mm2(5, Frequency::from_mhz(mhz));
            assert!(a >= prev, "area should not shrink with frequency");
            prev = a;
        }
    }

    #[test]
    fn derate_floor_applies_at_very_low_frequency() {
        let m = AreaModel::cmos130();
        let slow = m.switch_area_mm2(5, Frequency::from_mhz(1));
        let ref_a = m.switch_area_mm2(5, m.ref_freq);
        assert!(slow >= 0.6 * ref_a / (1.0), "floor should hold");
        assert!(slow < ref_a);
    }

    #[test]
    fn topology_area_sums_switches() {
        let m = AreaModel::cmos130();
        let f = Frequency::from_mhz(500);
        let mesh = MeshBuilder::new(2, 2).nis_per_switch(1).build().unwrap();
        let t = mesh.topology();
        // Every switch in a 2x2 with 1 NI has 2 mesh neighbours + 1 NI = 3 ports.
        let expected = 4.0 * m.switch_area_mm2(3, f);
        assert!((m.topology_area_mm2(t, f) - expected).abs() < 1e-12);
    }

    #[test]
    fn bigger_mesh_has_more_area() {
        let m = AreaModel::cmos130();
        let f = Frequency::from_mhz(500);
        let small = MeshBuilder::new(2, 2).nis_per_switch(2).build().unwrap();
        let large = MeshBuilder::new(4, 4).nis_per_switch(2).build().unwrap();
        assert!(
            m.topology_area_mm2(large.topology(), f) > m.topology_area_mm2(small.topology(), f)
        );
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = AreaModel::cmos130().switch_area_mm2(0, Frequency::from_mhz(500));
    }
}
