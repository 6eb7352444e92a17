//! Clustered traffic classes.
//!
//! "Most of the video processing architectures have traffic flows that
//! have bandwidth/latency values that fall in to few (around 3-4)
//! clusters. As an example, the HD video streams have traffic flows with
//! bandwidth requirements of few hundred MB/s, the SD video streams have
//! few MB/s bandwidth needs, the audio streams have low bandwidth needs
//! and the control streams have low bandwidth needs, but are latency
//! critical." — Section 6.1.

use noc_topology::units::{Bandwidth, Latency};
use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;

/// One cluster of traffic constraints: a nominal bandwidth with a small
/// relative deviation, a latency bound, and a selection weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficClass {
    /// Human-readable cluster name.
    pub name: String,
    /// Cluster-center bandwidth.
    pub nominal: Bandwidth,
    /// Relative deviation within the cluster (e.g. `0.2` for ±20 %).
    pub deviation: f64,
    /// Latency bound applied to flows of this class.
    pub latency: Latency,
    /// Relative frequency of this class among generated flows.
    pub weight: f64,
}

impl TrafficClass {
    /// Creates a traffic class.
    ///
    /// # Panics
    ///
    /// Panics if `deviation` is not in `[0, 1)` or `weight` is not
    /// positive and finite.
    pub fn new(
        name: impl Into<String>,
        nominal: Bandwidth,
        deviation: f64,
        latency: Latency,
        weight: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&deviation),
            "deviation must be in [0, 1)"
        );
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive and finite"
        );
        TrafficClass {
            name: name.into(),
            nominal,
            deviation,
            latency,
            weight,
        }
    }

    /// Samples a bandwidth from this cluster: uniform within
    /// `nominal × (1 ± deviation)`, never below 1 MB/s.
    pub fn sample_bandwidth<R: Rng + ?Sized>(&self, rng: &mut R) -> Bandwidth {
        let nominal = self.nominal.as_mbps_f64();
        let lo = nominal * (1.0 - self.deviation);
        let hi = nominal * (1.0 + self.deviation);
        let v = if hi > lo {
            rng.gen_range(lo..=hi)
        } else {
            nominal
        };
        Bandwidth::from_mbps_f64(v.max(1.0))
    }
}

/// A weighted set of traffic classes to draw flows from.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMix {
    classes: Vec<TrafficClass>,
}

impl TrafficMix {
    /// Creates a mix from classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn new(classes: Vec<TrafficClass>) -> Self {
        assert!(
            !classes.is_empty(),
            "a traffic mix needs at least one class"
        );
        TrafficMix { classes }
    }

    /// The 4-cluster video-processing mix of Section 6.1: "the HD video
    /// streams have traffic flows with bandwidth requirements of few
    /// hundred MB/s, the SD video streams have few MB/s bandwidth needs,
    /// the audio streams have low bandwidth needs and the control streams
    /// have low bandwidth needs, but are latency critical".
    pub fn video_soc() -> Self {
        TrafficMix::new(vec![
            TrafficClass::new(
                "hd-video",
                Bandwidth::from_mbps(200),
                0.25,
                Latency::UNCONSTRAINED,
                0.4,
            ),
            TrafficClass::new(
                "sd-video",
                Bandwidth::from_mbps(12),
                0.40,
                Latency::UNCONSTRAINED,
                4.0,
            ),
            TrafficClass::new(
                "audio",
                Bandwidth::from_mbps(3),
                0.50,
                Latency::UNCONSTRAINED,
                2.5,
            ),
            TrafficClass::new(
                "control",
                Bandwidth::from_mbps(2),
                0.50,
                Latency::from_us(10),
                3.0,
            ),
        ])
    }

    /// The TV-processor streaming mix: the same four clusters, but video
    /// streams are a much larger share of the flows — a TV pipeline is
    /// mostly picture data moving between processing stages and local
    /// memories (used by the D3/D4 designs).
    pub fn tv_streaming() -> Self {
        TrafficMix::new(vec![
            TrafficClass::new(
                "hd-video",
                Bandwidth::from_mbps(200),
                0.25,
                Latency::UNCONSTRAINED,
                0.8,
            ),
            TrafficClass::new(
                "sd-video",
                Bandwidth::from_mbps(30),
                0.40,
                Latency::UNCONSTRAINED,
                4.0,
            ),
            TrafficClass::new(
                "audio",
                Bandwidth::from_mbps(3),
                0.50,
                Latency::UNCONSTRAINED,
                2.0,
            ),
            TrafficClass::new(
                "control",
                Bandwidth::from_mbps(2),
                0.50,
                Latency::from_us(10),
                2.0,
            ),
        ])
    }

    /// A lighter mix for hub-bound flows: the hub link is a single NI
    /// link, so individual hub flows must stay small for designs with many
    /// use-cases to remain routable (matches the shared-memory traffic of
    /// the set-top designs, which is many small transactions).
    pub fn memory_hub() -> Self {
        TrafficMix::new(vec![
            TrafficClass::new(
                "dma-burst",
                Bandwidth::from_mbps(64),
                0.30,
                Latency::UNCONSTRAINED,
                2.0,
            ),
            TrafficClass::new(
                "mem-read",
                Bandwidth::from_mbps(24),
                0.40,
                Latency::UNCONSTRAINED,
                4.0,
            ),
            TrafficClass::new(
                "mem-ctrl",
                Bandwidth::from_mbps(3),
                0.50,
                Latency::from_us(10),
                3.0,
            ),
        ])
    }

    /// The classes of this mix.
    pub fn classes(&self) -> &[TrafficClass] {
        &self.classes
    }

    /// Samples a class according to the weights.
    pub fn sample_class<R: Rng + ?Sized>(&self, rng: &mut R) -> &TrafficClass {
        let dist = WeightedIndex::new(self.classes.iter().map(|c| c.weight))
            .expect("weights validated positive");
        &self.classes[dist.sample(rng)]
    }

    /// Samples a `(bandwidth, latency)` pair: a class, then a bandwidth
    /// within its cluster.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Bandwidth, Latency) {
        let class = self.sample_class(rng);
        (class.sample_bandwidth(rng), class.latency)
    }

    /// The largest bandwidth any class can produce (for capacity checks).
    pub fn max_bandwidth(&self) -> Bandwidth {
        self.classes
            .iter()
            .map(|c| Bandwidth::from_mbps_f64(c.nominal.as_mbps_f64() * (1.0 + c.deviation)))
            .max()
            .unwrap_or(Bandwidth::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_bandwidth_stays_in_cluster() {
        let class = TrafficClass::new(
            "hd",
            Bandwidth::from_mbps(200),
            0.2,
            Latency::UNCONSTRAINED,
            1.0,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..500 {
            let bw = class.sample_bandwidth(&mut rng).as_mbps_f64();
            assert!((160.0..=240.0).contains(&bw), "bw {bw} outside cluster");
        }
    }

    #[test]
    fn zero_deviation_is_exact() {
        let class = TrafficClass::new(
            "fix",
            Bandwidth::from_mbps(30),
            0.0,
            Latency::UNCONSTRAINED,
            1.0,
        );
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(class.sample_bandwidth(&mut rng), Bandwidth::from_mbps(30));
    }

    #[test]
    fn mix_samples_all_classes_eventually() {
        let mix = TrafficMix::video_soc();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            seen.insert(mix.sample_class(&mut rng).name.clone());
        }
        assert_eq!(seen.len(), mix.classes().len());
    }

    #[test]
    fn control_class_is_latency_critical() {
        let mix = TrafficMix::video_soc();
        let control = mix.classes().iter().find(|c| c.name == "control").unwrap();
        assert!(!control.latency.is_unconstrained());
        let hd = mix.classes().iter().find(|c| c.name == "hd-video").unwrap();
        assert!(hd.latency.is_unconstrained());
        assert!(hd.nominal > control.nominal);
    }

    #[test]
    fn max_bandwidth_covers_samples() {
        let mix = TrafficMix::video_soc();
        let cap = mix.max_bandwidth();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..1000 {
            let (bw, _) = mix.sample(&mut rng);
            assert!(bw <= cap);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mix = TrafficMix::video_soc();
        let seq_a: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..50).map(|_| mix.sample(&mut rng)).collect()
        };
        let seq_b: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..50).map(|_| mix.sample(&mut rng)).collect()
        };
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    #[should_panic(expected = "deviation")]
    fn invalid_deviation_rejected() {
        let _ = TrafficClass::new(
            "bad",
            Bandwidth::from_mbps(1),
            1.5,
            Latency::UNCONSTRAINED,
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_rejected() {
        let _ = TrafficMix::new(vec![]);
    }
}
