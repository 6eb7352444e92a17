//! Text round-trip coverage for [`FlowConfig`] and every registered
//! [`ExperimentSpec`].
//!
//! The wire format is the crate's line-oriented text grammar; these
//! tests prove it is lossless for every spec the project actually
//! ships, plus edge cases (traces, pooled benchmarks, option-less
//! stages).

use noc_flow::config::{
    experiment_from_text, experiment_to_text, flow_from_text, flow_to_text, spec_from_text,
    SpecFile,
};
use noc_flow::{
    registry, BenchmarkSpec, BurstModel, ExperimentKind, ExperimentSpec, FlowConfig, FlowError,
    StageConfig,
};
use noc_sim::TrafficModel;
use noc_topology::units::{Bandwidth, Latency};
use noc_usecase::spec::{CoreId, SocSpec, UseCaseBuilder};
use noc_usecase::UseCaseGroups;
use nocmap::anneal::AnnealConfig;
use nocmap::remap::RemapConfig;

#[test]
fn every_registry_entry_round_trips() {
    for spec in registry::registry() {
        let text = experiment_to_text(&spec);
        let parsed = experiment_from_text(&text)
            .unwrap_or_else(|e| panic!("{} does not re-parse: {e}\n{text}", spec.name));
        assert_eq!(parsed, spec, "{} round-trip changed the spec", spec.name);
    }
}

#[test]
fn dispatching_parser_distinguishes_documents() {
    let exp = experiment_to_text(&registry::find("fig6a").unwrap());
    assert!(matches!(
        spec_from_text(&exp).unwrap(),
        SpecFile::Experiment(_)
    ));
    let flow = flow_to_text(&FlowConfig::design_defaults());
    assert!(matches!(spec_from_text(&flow).unwrap(), SpecFile::Flow(_)));
    // Cross-type requests fail with a Parse error, not a panic.
    assert!(matches!(
        experiment_from_text(&flow),
        Err(FlowError::Parse { .. })
    ));
    assert!(matches!(flow_from_text(&exp), Err(FlowError::Parse { .. })));
}

#[test]
fn title_with_hash_round_trips_verbatim() {
    // `#` opens comments everywhere except the free-text title payload.
    let mut spec = registry::find("fig6a").unwrap();
    spec.title = "Sweep #2 (50% duty)".to_string();
    let text = experiment_to_text(&spec);
    assert_eq!(experiment_from_text(&text).unwrap(), spec);
    // A label with whitespace cannot tokenize back: it must fail loudly,
    // never round-trip to a silently different spec.
    let broken = text.replace("bench D1 ", "bench my label ");
    assert!(experiment_from_text(&broken).is_err());
}

#[test]
fn trace_and_pooled_benchmark_round_trip() {
    let spec = ExperimentSpec {
        name: "custom".to_string(),
        title: "A custom sweep with every exotic field".to_string(),
        kind: ExperimentKind::BeBurst {
            models: vec![
                BurstModel {
                    label: "trace".to_string(),
                    model: TrafficModel::Trace(vec![0, 3, 3, 9, 200]),
                },
                BurstModel {
                    label: "mmpp".to_string(),
                    model: TrafficModel::RandomBursts {
                        mean_on: 5,
                        mean_off: 11,
                        seed: 77,
                    },
                },
            ],
            hops: vec![2, 3],
            flows: 2,
            avg_mbps: 125,
            slots: 8,
            freq_mhz: 650,
            cycles: 4096,
        },
    };
    assert_eq!(
        experiment_from_text(&experiment_to_text(&spec)).unwrap(),
        spec
    );

    let pooled = ExperimentSpec {
        name: "pooled".to_string(),
        title: "Pooled spread".to_string(),
        kind: ExperimentKind::ParallelFrequency {
            bench: BenchmarkSpec::pooled_spread(10, 2006, 150, 0.3),
            parallel: vec![1, 2, 3, 4],
            lo_mhz: 10,
            hi_mhz: 4000,
        },
    };
    assert_eq!(
        experiment_from_text(&experiment_to_text(&pooled)).unwrap(),
        pooled
    );
}

#[test]
fn flow_config_round_trips_with_and_without_threads() {
    for threads in [None, Some(4)] {
        let cfg = FlowConfig {
            name: "rt".to_string(),
            slots: 64,
            freq_mhz: 500,
            max_switches: 200,
            threads,
            stages: vec![
                StageConfig::map(),
                StageConfig::Anneal(AnnealConfig {
                    iterations: 30,
                    chains: 3,
                    seed: 5,
                    initial_temperature: 500.0,
                    cooling: 0.97,
                }),
                StageConfig::WorstCase,
                StageConfig::Remap(RemapConfig {
                    max_moved_cores: 1,
                    rounds: 2,
                }),
                StageConfig::Verify,
                StageConfig::Simulate { cycles: 1024 },
            ],
        };
        assert_eq!(flow_from_text(&flow_to_text(&cfg)).unwrap(), cfg);
    }
}

/// Running a config runs its stage list and nothing else: the stages'
/// artifacts are set, and the remap stage's, absent from the list, is
/// not.
#[test]
fn built_flow_matches_its_stage_list() {
    let cfg = FlowConfig {
        stages: vec![
            StageConfig::map(),
            StageConfig::WorstCase,
            StageConfig::Verify,
            StageConfig::Simulate { cycles: 256 },
        ],
        ..FlowConfig::design_defaults()
    };
    let names: Vec<_> = cfg.stages.iter().map(StageConfig::name).collect();
    assert_eq!(names, ["map", "worst-case", "verify", "simulate"]);
    let mut soc = SocSpec::new("pair");
    soc.add_use_case(
        UseCaseBuilder::new("u0")
            .flow(
                CoreId::new(0),
                CoreId::new(1),
                Bandwidth::from_mbps(100),
                Latency::UNCONSTRAINED,
            )
            .unwrap()
            .build(),
    );
    let ctx = cfg.run(&soc, &UseCaseGroups::singletons(1)).unwrap();
    assert!(ctx.solution.is_some());
    assert!(ctx.wc.is_some_and(|wc| wc.is_ok()));
    assert!(ctx.remapped.is_none());
    assert_eq!(ctx.sim_reports.len(), 1);
}
