//! The experiment registry: every figure and table of the paper's
//! evaluation section re-expressed as a named [`ExperimentSpec`].
//!
//! The registry is the single source of truth the CLI executes
//! (`nocmap_cli flow run <name|file>…`); adding a sweep means adding a
//! spec here (or shipping a spec file), not writing a new Rust
//! function. `fig6b`/`fig6c` have `+`-suffixed
//! variants carrying the paper's prose 40-use-case extension.

use noc_benchgen::SocDesign;
use noc_sim::TrafficModel;

use crate::config::{
    AblationVariant, BenchmarkSpec, BurstModel, ExperimentKind, ExperimentSpec, LabeledBench,
};
use crate::FlowError;

/// Growth cap used everywhere: the paper reports WC failing "even onto a
/// 20 × 20 mesh topology", so 400 switches is the search bound.
pub const MAX_SWITCHES: usize = 400;

/// Default seed for synthetic benchmarks (results are deterministic).
pub const SEED: u64 = 2006;

fn design_benches() -> Vec<LabeledBench> {
    SocDesign::ALL
        .iter()
        .map(|&d| LabeledBench::new(d.label(), BenchmarkSpec::Design(d)))
        .collect()
}

fn spread_benches(counts: &[usize]) -> Vec<LabeledBench> {
    counts
        .iter()
        .map(|&n| LabeledBench::new(format!("{n}"), BenchmarkSpec::spread(n, SEED + n as u64)))
        .collect()
}

fn bottleneck_benches(counts: &[usize]) -> Vec<LabeledBench> {
    counts
        .iter()
        .map(|&n| {
            LabeledBench::new(
                format!("{n}"),
                BenchmarkSpec::Bottleneck {
                    use_cases: n,
                    seed: SEED + n as u64,
                },
            )
        })
        .collect()
}

fn use_case_counts(extended: bool) -> Vec<usize> {
    let mut counts = vec![2usize, 5, 10, 15, 20];
    if extended {
        counts.push(40);
    }
    counts
}

fn spec(name: &str, title: &str, kind: ExperimentKind) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        title: title.to_string(),
        kind,
    }
}

/// The suites `flow run all` runs, in order: the paper's figures and
/// tables (the extended `fig6b+`/`fig6c+`), verification, ablation,
/// runtime, the BE burst sweep and the headline.
pub const ALL: [&str; 11] = [
    "fig6a", "fig6b+", "fig6c+", "fig7a", "fig7b", "fig7c", "verify", "ablation", "runtime",
    "be_burst", "headline",
];

/// Every registered experiment (`fig6b`/`fig6c` appear in both plain
/// and extended form).
pub fn registry() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    specs.push(spec(
        "fig6a",
        "Fig 6(a): SoC designs, switch count ours vs WC",
        ExperimentKind::Comparison {
            benches: design_benches(),
        },
    ));
    for (name, extended) in [("fig6b", false), ("fig6b+", true)] {
        specs.push(spec(
            name,
            "Fig 6(b): Sp benchmarks, switch count ours vs WC",
            ExperimentKind::Comparison {
                benches: spread_benches(&use_case_counts(extended)),
            },
        ));
    }
    for (name, extended) in [("fig6c", false), ("fig6c+", true)] {
        specs.push(spec(
            name,
            "Fig 6(c): Bot benchmarks, switch count ours vs WC",
            ExperimentKind::Comparison {
                benches: bottleneck_benches(&use_case_counts(extended)),
            },
        ));
    }
    specs.push(spec(
        "fig7a",
        "Fig 7(a): area-frequency trade-off, D1",
        ExperimentKind::AreaFrequency {
            bench: BenchmarkSpec::Design(SocDesign::D1),
            sweep_mhz: vec![
                100, 150, 200, 250, 300, 350, 400, 500, 650, 800, 1000, 1250, 1500, 1750, 2000,
            ],
        },
    ));
    specs.push(spec(
        "fig7b",
        "Fig 7(b): DVS/DFS power savings",
        ExperimentKind::DvsSavings {
            benches: design_benches(),
            floor_mhz: 10,
        },
    ));
    specs.push(spec(
        "fig7c",
        "Fig 7(c): frequency vs parallel use-cases (Sp, 10 UC)",
        ExperimentKind::ParallelFrequency {
            bench: BenchmarkSpec::pooled_spread(10, SEED, 150, 0.3),
            parallel: vec![1, 2, 3, 4],
            lo_mhz: 10,
            hi_mhz: 4000,
        },
    ));
    specs.push(spec(
        "verify",
        "Phase-4 verification (analytical + simulation)",
        ExperimentKind::VerifyDesigns {
            benches: design_benches(),
            cycles: 4096,
        },
    ));
    specs.push(spec(
        "ablation",
        "Ablations (Sp, 5 use-cases)",
        ExperimentKind::Ablations {
            bench: BenchmarkSpec::spread(5, 11),
            variants: vec![
                AblationVariant::PaperDefaults,
                AblationVariant::UnsortedFlows,
                AblationVariant::RoundRobinPlacement,
                AblationVariant::SingleSharedConfig,
                AblationVariant::WithAnnealing {
                    iterations: 100,
                    chains: 2,
                },
            ],
        },
    ));
    specs.push(spec(
        "runtime",
        "Runtime (paper: 'less than few minutes' per benchmark)",
        ExperimentKind::Runtimes {
            benches: design_benches()
                .into_iter()
                .chain([10usize, 20, 40].iter().map(|&n| {
                    LabeledBench::new(format!("sp{n}"), BenchmarkSpec::spread(n, SEED + n as u64))
                }))
                .collect(),
            speedup_benches: [10usize, 20, 40]
                .iter()
                .map(|&n| {
                    LabeledBench::new(
                        format!("sp{n}"),
                        BenchmarkSpec::pooled_spread(n, SEED + n as u64, 150, 0.3),
                    )
                })
                .collect(),
        },
    ));
    specs.push(spec(
        "be_burst",
        "BE burst sweep (3 chained BE flows @ 200 MB/s avg, GT trunk owns 8/16 slots)",
        ExperimentKind::BeBurst {
            models: vec![
                BurstModel {
                    label: "constant".to_string(),
                    model: TrafficModel::Constant,
                },
                BurstModel {
                    label: "onoff-1/2".to_string(),
                    model: TrafficModel::OnOff {
                        period: 64,
                        on: 32,
                        phase: 0,
                    },
                },
                BurstModel {
                    label: "onoff-1/8".to_string(),
                    model: TrafficModel::OnOff {
                        period: 256,
                        on: 32,
                        phase: 0,
                    },
                },
                BurstModel {
                    label: "mmpp-1/8".to_string(),
                    model: TrafficModel::RandomBursts {
                        mean_on: 32,
                        mean_off: 224,
                        seed: SEED,
                    },
                },
            ],
            hops: vec![2, 4, 6, 8],
            flows: 3,
            avg_mbps: 200,
            slots: 16,
            freq_mhz: 500,
            cycles: 16_384,
        },
    ));
    specs.push(spec(
        "headline",
        "Headline numbers (abstract)",
        ExperimentKind::Headline {
            area_benches: design_benches(),
            dvs_benches: design_benches(),
            floor_mhz: 10,
        },
    ));
    specs.push(spec(
        "perf",
        "Perf telemetry: map + anneal op counters and wall time",
        ExperimentKind::Perf {
            benches: design_benches()
                .into_iter()
                .chain([
                    LabeledBench::new("sp10", BenchmarkSpec::spread(10, SEED + 10)),
                    LabeledBench::new(
                        "bot10",
                        BenchmarkSpec::Bottleneck {
                            use_cases: 10,
                            seed: SEED + 10,
                        },
                    ),
                ])
                .collect(),
            anneal_iterations: 60,
            anneal_chains: 2,
        },
    ));
    specs.push(spec(
        "frontier",
        "Strategy portfolio: quality vs deterministic ops per strategy",
        ExperimentKind::Frontier {
            benches: design_benches()
                .into_iter()
                .chain([
                    LabeledBench::new("sp10", BenchmarkSpec::spread(10, SEED + 10)),
                    LabeledBench::new(
                        "bot10",
                        BenchmarkSpec::Bottleneck {
                            use_cases: 10,
                            seed: SEED + 10,
                        },
                    ),
                ])
                .collect(),
        },
    ));
    specs.push(spec(
        "service",
        "Online admission: blocking and reconfiguration cost",
        ExperimentKind::Service {
            requests: 200,
            seed: SEED,
            batch: 4,
            budget: 6,
        },
    ));
    specs.push(spec(
        "resilience",
        "Fault injection and self-healing: service degradation and incremental repair cost",
        ExperimentKind::Resilience {
            requests: 150,
            seed: SEED,
            batch: 4,
            budget: 6,
            faults: 5,
        },
    ));
    specs
}

/// Looks up one registered experiment by name.
///
/// # Errors
///
/// [`FlowError::UnknownExperiment`] when nothing is registered under
/// `name`.
pub fn find(name: &str) -> Result<ExperimentSpec, FlowError> {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| FlowError::UnknownExperiment(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let specs = registry();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate registry names");
        for name in names {
            assert_eq!(find(name).unwrap().name, name);
        }
        assert_eq!(
            find("fig9z").unwrap_err(),
            FlowError::UnknownExperiment("fig9z".into())
        );
    }

    #[test]
    fn extended_variants_add_the_40_use_case_point() {
        let plain = find("fig6b").unwrap();
        let ext = find("fig6b+").unwrap();
        let count = |s: &ExperimentSpec| match &s.kind {
            ExperimentKind::Comparison { benches } => benches.len(),
            _ => panic!("fig6b is a comparison"),
        };
        assert_eq!(count(&plain) + 1, count(&ext));
    }
}
