//! The four SoC designs of the paper's evaluation (Section 6.1):
//!
//! | Design | SoC | Use-cases | Traffic shape |
//! |---|---|---|---|
//! | D1 | set-top box (Viper2-class) | 4 | external-memory hub (bottleneck) |
//! | D2 | set-top box, scaled | 20 | external-memory hub (bottleneck) |
//! | D3 | TV processor | 8 | streaming, local memories (spread) |
//! | D4 | TV processor, scaled | 20 | streaming, local memories (spread) |
//!
//! The Philips traffic specifications behind these designs are
//! proprietary; this module synthesizes structurally faithful equivalents
//! — hub-shaped for the set-top designs ("the amount of data communicated
//! to the memory is very large when compared to the rest of the design"),
//! spread for the TV designs ("a streaming architecture with local
//! memories on the chip") — with the published use-case counts and the
//! published 50–150 communicating pairs per use-case. Generation is
//! deterministic: each design has a fixed seed.

use noc_usecase::spec::SocSpec;

use crate::bottleneck::BottleneckConfig;
use crate::clusters::TrafficMix;
use crate::spread::SpreadConfig;

/// One of the paper's four SoC designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocDesign {
    /// Set-top box SoC with 4 use-cases.
    D1,
    /// Set-top box SoC scaled to 20 use-cases.
    D2,
    /// TV-processor SoC with 8 use-cases.
    D3,
    /// TV-processor SoC scaled to 20 use-cases.
    D4,
}

/// How a design's traffic is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficShape {
    /// Hub-dominated: most flows touch a shared external memory.
    Bottleneck,
    /// Streaming: flows spread evenly over local memories.
    Spread,
}

/// The published parameters of a [`SocDesign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocDesignConfig {
    /// Design label (`"D1"` … `"D4"`).
    pub label: &'static str,
    /// Human-readable description.
    pub description: &'static str,
    /// Number of SoC cores.
    pub cores: u32,
    /// Number of use-cases.
    pub use_cases: usize,
    /// Inclusive range of communicating pairs per use-case.
    pub flows_per_use_case: (usize, usize),
    /// Traffic shape.
    pub shape: TrafficShape,
    /// Size of the design's stable physical connection pool (use-cases
    /// pick subsets of these pairs — SoC wiring does not change between
    /// use-cases, only the traffic on it does).
    pub pair_pool: usize,
    /// Fixed generation seed (reproducibility).
    pub seed: u64,
}

impl SocDesign {
    /// All four designs in paper order.
    pub const ALL: [SocDesign; 4] = [SocDesign::D1, SocDesign::D2, SocDesign::D3, SocDesign::D4];

    /// The design's label (`"D1"` … `"D4"`).
    pub fn label(self) -> &'static str {
        self.config().label
    }

    /// The design's published parameters.
    pub fn config(self) -> SocDesignConfig {
        match self {
            SocDesign::D1 => SocDesignConfig {
                label: "D1",
                description: "set-top box SoC, 4 use-cases, external-memory hub",
                cores: 26,
                use_cases: 4,
                flows_per_use_case: (50, 150),
                shape: TrafficShape::Bottleneck,
                pair_pool: 220,
                seed: 0xD1,
            },
            SocDesign::D2 => SocDesignConfig {
                label: "D2",
                description: "set-top box SoC scaled to 20 use-cases",
                cores: 26,
                use_cases: 20,
                flows_per_use_case: (50, 150),
                shape: TrafficShape::Bottleneck,
                pair_pool: 220,
                seed: 0xD2,
            },
            SocDesign::D3 => SocDesignConfig {
                label: "D3",
                description: "TV-processor SoC, 8 use-cases, streaming local memories",
                cores: 25,
                use_cases: 8,
                flows_per_use_case: (50, 150),
                shape: TrafficShape::Spread,
                pair_pool: 300,
                seed: 0xD3,
            },
            SocDesign::D4 => SocDesignConfig {
                label: "D4",
                description: "TV-processor SoC scaled to 20 use-cases",
                cores: 25,
                use_cases: 20,
                flows_per_use_case: (50, 150),
                shape: TrafficShape::Spread,
                pair_pool: 300,
                seed: 0xD4,
            },
        }
    }

    /// Generates the design's use-case specification.
    pub fn generate(self) -> SocSpec {
        let cfg = self.config();
        let soc = match cfg.shape {
            TrafficShape::Bottleneck => BottleneckConfig {
                cores: cfg.cores,
                use_cases: cfg.use_cases,
                flows_per_use_case: cfg.flows_per_use_case,
                hubs: 1,
                hub_fraction: 0.65,
                hub_mix: TrafficMix::memory_hub(),
                // Set-top boxes also stream video between processing
                // stages; the non-hub side of the design is TV-like.
                side_mix: TrafficMix::tv_streaming(),
                pair_pool: Some(cfg.pair_pool),
                versatile_fraction: 0.5,
            }
            .generate(cfg.seed),
            TrafficShape::Spread => SpreadConfig {
                cores: cfg.cores,
                use_cases: cfg.use_cases,
                flows_per_use_case: cfg.flows_per_use_case,
                mix: TrafficMix::tv_streaming(),
                pair_pool: Some(cfg.pair_pool),
                versatile_fraction: 0.35,
            }
            .generate(cfg.seed),
        };
        rename(soc, cfg.label)
    }
}

fn rename(soc: SocSpec, label: &str) -> SocSpec {
    let mut renamed = SocSpec::new(label.to_ascii_lowercase());
    for uc in soc.use_cases() {
        renamed.add_use_case(uc.clone());
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_use_case_counts() {
        assert_eq!(SocDesign::D1.generate().use_case_count(), 4);
        assert_eq!(SocDesign::D2.generate().use_case_count(), 20);
        assert_eq!(SocDesign::D3.generate().use_case_count(), 8);
        assert_eq!(SocDesign::D4.generate().use_case_count(), 20);
    }

    #[test]
    fn flow_counts_in_published_range() {
        for d in SocDesign::ALL {
            let soc = d.generate();
            for uc in soc.use_cases() {
                assert!(
                    (50..=150).contains(&uc.flow_count()),
                    "{}: {} flows",
                    d.label(),
                    uc.flow_count()
                );
            }
        }
    }

    #[test]
    fn set_top_designs_are_hub_shaped() {
        // The external-memory hub must be touched by far more flows than
        // any ordinary core (it cannot exceed 50% of *flows* since a
        // 26-core hub only has 50 distinct pairs, but it dominates
        // endpoint counts).
        for d in [SocDesign::D1, SocDesign::D2] {
            let soc = d.generate();
            let cfg = d.config();
            let mut touch = vec![0usize; cfg.cores as usize];
            for uc in soc.use_cases() {
                for f in uc.flows() {
                    touch[f.src().index()] += 1;
                    touch[f.dst().index()] += 1;
                }
            }
            let hub_touch = touch[0];
            let rest_mean = touch[1..].iter().sum::<usize>() as f64 / (touch.len() - 1) as f64;
            assert!(
                hub_touch as f64 > 2.5 * rest_mean,
                "{}: hub endpoint count {hub_touch} vs mean {rest_mean:.1}",
                d.label()
            );
        }
    }

    #[test]
    fn tv_designs_are_spread() {
        for d in [SocDesign::D3, SocDesign::D4] {
            let soc = d.generate();
            let mut touch = vec![0usize; 25];
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
                (max as f64) < 0.3 * total as f64,
                "{} should not have a hub",
                d.label()
            );
        }
    }

    #[test]
    fn generation_is_reproducible() {
        assert_eq!(SocDesign::D1.generate(), SocDesign::D1.generate());
        assert_ne!(SocDesign::D1.generate(), SocDesign::D2.generate());
    }

    #[test]
    fn scaled_designs_extend_base_counts() {
        // D2/D4 are "scaled versions of the designs D1 and D3 for
        // supporting more use-cases": same cores, more use-cases.
        assert_eq!(SocDesign::D1.config().cores, SocDesign::D2.config().cores);
        assert_eq!(SocDesign::D3.config().cores, SocDesign::D4.config().cores);
        assert!(SocDesign::D2.config().use_cases > SocDesign::D1.config().use_cases);
        assert!(SocDesign::D4.config().use_cases > SocDesign::D3.config().use_cases);
    }

    #[test]
    fn labels() {
        assert_eq!(SocDesign::D1.label(), "D1");
        assert_eq!(SocDesign::ALL.map(|d| d.label()), ["D1", "D2", "D3", "D4"]);
    }
}
