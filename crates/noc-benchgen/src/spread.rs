//! Spread-communication (Sp) synthetic benchmarks.
//!
//! "Spread communication benchmarks (Sp), where each core communicates to
//! few other cores. These benchmarks represent designs such as the TV
//! processor that has many small local memories with communication spread
//! evenly in the design." — Section 6.1.

use noc_usecase::spec::{SocSpec, UseCaseBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clusters::TrafficMix;
use crate::pairs::sample_pairs;

/// Configuration of an Sp benchmark.
///
/// The paper's setup fixes 20 cores and 60–100 flows per use-case
/// ([`SpreadConfig::paper`]); every field can be overridden for wider
/// sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadConfig {
    /// Number of SoC cores.
    pub cores: u32,
    /// Number of use-cases to generate.
    pub use_cases: usize,
    /// Inclusive range of flow counts per use-case.
    pub flows_per_use_case: (usize, usize),
    /// Traffic clusters flows are drawn from.
    pub mix: TrafficMix,
    /// When `Some(n)`, all use-cases draw their pairs from one master
    /// pool of `n` pairs (stable physical connections, as in the D3/D4
    /// SoC designs); when `None`, every use-case samples pairs freely
    /// (maximum cross-use-case variation, the synthetic Sp setting).
    pub pair_pool: Option<usize>,
    /// Fraction of pool pairs whose traffic class is re-drawn per
    /// use-case (versatile connections). Only meaningful with a pool.
    pub versatile_fraction: f64,
}

impl SpreadConfig {
    /// The paper's synthetic setup: 20 cores, 60–100 flows per use-case,
    /// the 4-cluster video mix, `use_cases` use-cases.
    pub fn paper(use_cases: usize) -> Self {
        SpreadConfig {
            cores: 20,
            use_cases,
            flows_per_use_case: (60, 100),
            mix: TrafficMix::video_soc(),
            pair_pool: None,
            versatile_fraction: 0.0,
        }
    }

    /// Generates the benchmark deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (fewer than 2 cores, zero
    /// use-cases, or an empty flow range).
    pub fn generate(&self, seed: u64) -> SocSpec {
        assert!(self.cores >= 2, "spread benchmark needs at least 2 cores");
        assert!(
            self.use_cases > 0,
            "spread benchmark needs at least one use-case"
        );
        let (lo, hi) = self.flows_per_use_case;
        assert!(lo > 0 && lo <= hi, "invalid flow range {lo}..={hi}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = self.pair_pool.map(|n| {
            crate::pairs::PairPool::master(
                &mut rng,
                self.cores,
                n,
                &[],
                0.0,
                &self.mix,
                &self.mix,
                self.versatile_fraction,
            )
        });
        let mut soc = SocSpec::new(format!("sp-{}uc", self.use_cases));
        for u in 0..self.use_cases {
            let flow_count = rng.gen_range(lo..=hi);
            let mut builder = UseCaseBuilder::new(format!("sp-uc{u}"));
            match &pool {
                Some(p) => {
                    for ((src, dst), class) in p.sample(&mut rng, flow_count) {
                        let (bw, lat) = match class {
                            Some(c) => (c.sample_bandwidth(&mut rng), c.latency),
                            None => self.mix.sample(&mut rng),
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
                    for (src, dst) in sample_pairs(&mut rng, self.cores, flow_count, &[], 0.0) {
                        let (bw, lat) = self.mix.sample(&mut rng);
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
        let soc = SpreadConfig::paper(5).generate(1);
        assert_eq!(soc.use_case_count(), 5);
        assert!(soc.core_count() <= 20);
        for uc in soc.use_cases() {
            assert!((60..=100).contains(&uc.flow_count()), "{}", uc.flow_count());
        }
    }

    #[test]
    fn deterministic() {
        let a = SpreadConfig::paper(3).generate(7);
        let b = SpreadConfig::paper(3).generate(7);
        assert_eq!(a, b);
        let c = SpreadConfig::paper(3).generate(8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn traffic_is_spread_not_hubbed() {
        let soc = SpreadConfig::paper(4).generate(2);
        // No single core should attract more than ~35% of all flows.
        let mut touch = vec![0usize; 20];
        let mut total = 0usize;
        for uc in soc.use_cases() {
            for f in uc.flows() {
                touch[f.src().index()] += 1;
                touch[f.dst().index()] += 1;
                total += 2;
            }
        }
        let max = *touch.iter().max().unwrap();
        assert!(
            (max as f64) < 0.35 * total as f64,
            "core with {max} endpoints of {total} looks like a hub"
        );
    }

    #[test]
    fn bandwidths_fall_in_known_clusters() {
        let soc = SpreadConfig::paper(2).generate(3);
        let cap = TrafficMix::video_soc().max_bandwidth();
        for uc in soc.use_cases() {
            for f in uc.flows() {
                assert!(f.bandwidth() >= Bandwidth::from_mbps(1));
                assert!(f.bandwidth() <= cap);
            }
        }
    }

    #[test]
    fn use_cases_differ_from_each_other() {
        let soc = SpreadConfig::paper(2).generate(4);
        assert_ne!(soc.use_cases()[0], soc.use_cases()[1]);
    }

    #[test]
    #[should_panic(expected = "at least one use-case")]
    fn zero_use_cases_rejected() {
        let _ = SpreadConfig::paper(0).generate(1);
    }
}
