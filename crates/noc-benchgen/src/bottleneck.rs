//! Bottleneck-communication (Bot) synthetic benchmarks.
//!
//! "Bottleneck communication benchmarks (Bot), where there are one or more
//! bottleneck vertices to which most of the communication takes place.
//! These benchmarks characterize designs using shared memory/external
//! devices such as the set-top box example." — Section 6.1.

use noc_usecase::spec::{CoreId, SocSpec, UseCaseBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clusters::TrafficMix;
use crate::pairs::sample_pairs;

/// Configuration of a Bot benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckConfig {
    /// Number of SoC cores.
    pub cores: u32,
    /// Number of use-cases to generate.
    pub use_cases: usize,
    /// Inclusive range of flow counts per use-case.
    pub flows_per_use_case: (usize, usize),
    /// How many of the first cores act as bottleneck hubs.
    pub hubs: u32,
    /// Fraction of flows that touch a hub.
    pub hub_fraction: f64,
    /// Traffic clusters for hub-bound flows (kept light: a hub's NI link
    /// carries them all).
    pub hub_mix: TrafficMix,
    /// Traffic clusters for the remaining spread flows.
    pub side_mix: TrafficMix,
    /// When `Some(n)`, all use-cases draw their pairs from one master
    /// pool of `n` pairs (stable physical connections, as in the D1/D2
    /// SoC designs); `None` samples pairs freely per use-case.
    pub pair_pool: Option<usize>,
    /// Fraction of pool pairs whose traffic class is re-drawn per
    /// use-case (versatile connections). Only meaningful with a pool.
    pub versatile_fraction: f64,
}

impl BottleneckConfig {
    /// The paper's synthetic setup: 20 cores, 60–100 flows per use-case,
    /// two shared-memory hubs attracting ~70 % of flows ("one or more
    /// bottleneck vertices to which most of the communication takes
    /// place"). Two hubs are needed because one hub of a 20-core SoC can
    /// touch at most 38 distinct pairs — fewer than a use-case's flows.
    pub fn paper(use_cases: usize) -> Self {
        BottleneckConfig {
            cores: 20,
            use_cases,
            flows_per_use_case: (60, 100),
            hubs: 2,
            hub_fraction: 0.7,
            hub_mix: TrafficMix::memory_hub(),
            side_mix: TrafficMix::video_soc(),
            pair_pool: None,
            versatile_fraction: 0.0,
        }
    }

    /// Ids of the hub cores.
    pub fn hub_cores(&self) -> Vec<CoreId> {
        (0..self.hubs).map(CoreId::new).collect()
    }

    /// Generates the benchmark deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (see [`SpreadConfig::generate`]
    /// for the analogous conditions, plus `hubs` must be in
    /// `1..cores` and `hub_fraction` in `[0, 1]`).
    ///
    /// [`SpreadConfig::generate`]: crate::SpreadConfig::generate
    pub fn generate(&self, seed: u64) -> SocSpec {
        assert!(
            self.cores >= 2,
            "bottleneck benchmark needs at least 2 cores"
        );
        assert!(
            self.use_cases > 0,
            "bottleneck benchmark needs at least one use-case"
        );
        assert!(
            self.hubs >= 1 && self.hubs < self.cores,
            "hub count must be in 1..cores"
        );
        assert!(
            (0.0..=1.0).contains(&self.hub_fraction),
            "hub fraction must be in [0, 1]"
        );
        let (lo, hi) = self.flows_per_use_case;
        assert!(lo > 0 && lo <= hi, "invalid flow range {lo}..={hi}");

        let hubs = self.hub_cores();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB07);
        let pool = self.pair_pool.map(|n| {
            crate::pairs::PairPool::master(
                &mut rng,
                self.cores,
                n,
                &hubs,
                self.hub_fraction,
                &self.hub_mix,
                &self.side_mix,
                self.versatile_fraction,
            )
        });
        let mut soc = SocSpec::new(format!("bot-{}uc", self.use_cases));
        for u in 0..self.use_cases {
            let flow_count = rng.gen_range(lo..=hi);
            let mut builder = UseCaseBuilder::new(format!("bot-uc{u}"));
            match &pool {
                Some(p) => {
                    for ((src, dst), class) in p.sample(&mut rng, flow_count) {
                        let (bw, lat) = match class {
                            Some(c) => (c.sample_bandwidth(&mut rng), c.latency),
                            None => {
                                let touches_hub = hubs.contains(&src) || hubs.contains(&dst);
                                if touches_hub {
                                    self.hub_mix.sample(&mut rng)
                                } else {
                                    self.side_mix.sample(&mut rng)
                                }
                            }
                        };
                        builder
                            .add_flow(
                                noc_usecase::spec::Flow::new(src, dst, bw, lat)
                                    .expect("sampled flows are valid"),
                            )
                            .expect("pairs are distinct");
                    }
                }
                None => {
                    for (src, dst) in
                        sample_pairs(&mut rng, self.cores, flow_count, &hubs, self.hub_fraction)
                    {
                        let touches_hub = hubs.contains(&src) || hubs.contains(&dst);
                        let (bw, lat) = if touches_hub {
                            self.hub_mix.sample(&mut rng)
                        } else {
                            self.side_mix.sample(&mut rng)
                        };
                        builder
                            .add_flow(
                                noc_usecase::spec::Flow::new(src, dst, bw, lat)
                                    .expect("sampled flows are valid"),
                            )
                            .expect("pairs are distinct");
                    }
                }
            }
            soc.add_use_case(builder.build());
        }
        soc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::units::Bandwidth;

    #[test]
    fn paper_config_shape() {
        let soc = BottleneckConfig::paper(5).generate(1);
        assert_eq!(soc.use_case_count(), 5);
        for uc in soc.use_cases() {
            assert!((60..=100).contains(&uc.flow_count()));
        }
    }

    #[test]
    fn hubs_attract_most_traffic() {
        let cfg = BottleneckConfig::paper(4);
        let soc = cfg.generate(2);
        let hubs = cfg.hub_cores();
        for uc in soc.use_cases() {
            let hub_flows = uc
                .flows()
                .iter()
                .filter(|f| hubs.contains(&f.src()) || hubs.contains(&f.dst()))
                .count();
            let frac = hub_flows as f64 / uc.flow_count() as f64;
            assert!(frac > 0.5, "hubs should attract most flows, got {frac:.2}");
        }
    }

    #[test]
    fn hub_demand_fits_one_ni_link_per_use_case() {
        // A hub core's NI link at 500 MHz / 32 bits carries 2000 MB/s; the
        // generator must keep per-use-case hub demand well under that or
        // no mapping can ever exist.
        let cfg = BottleneckConfig::paper(10);
        let soc = cfg.generate(3);
        let hub = CoreId::new(0);
        for uc in soc.use_cases() {
            let incoming: Bandwidth = uc
                .flows()
                .iter()
                .filter(|f| f.dst() == hub)
                .map(|f| f.bandwidth())
                .sum();
            let outgoing: Bandwidth = uc
                .flows()
                .iter()
                .filter(|f| f.src() == hub)
                .map(|f| f.bandwidth())
                .sum();
            assert!(
                incoming < Bandwidth::from_mbps(1800),
                "hub ingress {incoming} too close to NI capacity"
            );
            assert!(
                outgoing < Bandwidth::from_mbps(1800),
                "hub egress {outgoing} too close to NI capacity"
            );
        }
    }

    #[test]
    fn deterministic() {
        let a = BottleneckConfig::paper(3).generate(11);
        let b = BottleneckConfig::paper(3).generate(11);
        assert_eq!(a, b);
    }

    #[test]
    fn multiple_hubs_supported() {
        let mut cfg = BottleneckConfig::paper(2);
        cfg.hubs = 2;
        let soc = cfg.generate(5);
        let h0 = CoreId::new(0);
        let h1 = CoreId::new(1);
        let uc = &soc.use_cases()[0];
        let touch0 = uc.flows().iter().any(|f| f.src() == h0 || f.dst() == h0);
        let touch1 = uc.flows().iter().any(|f| f.src() == h1 || f.dst() == h1);
        assert!(touch0 && touch1);
    }

    #[test]
    #[should_panic(expected = "hub count")]
    fn zero_hubs_rejected() {
        let mut cfg = BottleneckConfig::paper(2);
        cfg.hubs = 0;
        let _ = cfg.generate(1);
    }
}
