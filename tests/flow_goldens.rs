//! Byte-identity regression tests for the `noc-flow` redesign.
//!
//! The files under `tests/goldens/` were captured from the
//! **pre-redesign** `experiments` binary (free-function sweeps, commit
//! b2743ce) at seed 2006. Every registry-driven suite must render the
//! exact same bytes through the new pipeline API, at 1 and at 4
//! `noc-par` workers — the acceptance bar of the `noc-flow` PR and the
//! determinism contract in one test.
//!
//! The `runtime` entry is excluded: its cells are wall-clock durations.

use noc_multiusecase::flow::{registry, render, run_spec};
use noc_multiusecase::par::with_threads;

/// `(registry name, golden file)` for every deterministic suite.
/// `frontier`, `service` and `resilience` post-date the redesign:
/// their goldens were captured from the PR-8 strategy portfolio, the
/// PR-9 online admission service, and the PR-10 fault-injection study
/// (every cell deterministic, no wall-clock).
const GOLDENS: [(&str, &str); 15] = [
    ("fig6a", include_str!("goldens/fig6a.txt")),
    ("fig6b", include_str!("goldens/fig6b.txt")),
    ("fig6b+", include_str!("goldens/fig6bx.txt")),
    ("fig6c", include_str!("goldens/fig6c.txt")),
    ("fig6c+", include_str!("goldens/fig6cx.txt")),
    ("fig7a", include_str!("goldens/fig7a.txt")),
    ("fig7b", include_str!("goldens/fig7b.txt")),
    ("fig7c", include_str!("goldens/fig7c.txt")),
    ("verify", include_str!("goldens/verify.txt")),
    ("ablation", include_str!("goldens/ablation.txt")),
    ("be_burst", include_str!("goldens/be_burst.txt")),
    ("headline", include_str!("goldens/headline.txt")),
    ("frontier", include_str!("goldens/frontier.txt")),
    ("service", include_str!("goldens/service.txt")),
    ("resilience", include_str!("goldens/resilience.txt")),
];

/// What `nocmap_cli flow run` prints for one name: the rendering on
/// success, the `{name} failed: {e}` line on failure.
fn render_as_cli(name: &str) -> String {
    let spec = registry::find(name).expect("golden suites are registered");
    match run_spec(&spec) {
        Ok(output) => render::render(&output),
        Err(e) => format!("{name} failed: {e}\n"),
    }
}

#[test]
fn every_registry_suite_matches_the_pre_redesign_golden() {
    for (name, golden) in GOLDENS {
        let rendered = with_threads(1, || render_as_cli(name));
        assert_eq!(
            rendered, golden,
            "suite '{name}' diverged from its pre-redesign golden at 1 worker"
        );
    }
}

#[test]
fn every_registry_suite_is_identical_at_4_workers() {
    for (name, golden) in GOLDENS {
        let rendered = with_threads(4, || render_as_cli(name));
        assert_eq!(
            rendered, golden,
            "suite '{name}' diverged from its pre-redesign golden at 4 workers"
        );
    }
}

#[test]
fn checked_in_spec_file_matches_the_registry() {
    // The CI example (`nocmap_cli flow run specs/flow_be_burst.flow`)
    // must execute exactly the registered be_burst experiment: pin the
    // checked-in file to the registry entry so neither drifts.
    use noc_multiusecase::flow::config::{experiment_from_text, experiment_to_text};
    let text = include_str!("../specs/flow_be_burst.flow");
    let parsed = experiment_from_text(text).expect("checked-in spec parses");
    let registered = registry::find("be_burst").unwrap();
    assert_eq!(parsed, registered, "specs/flow_be_burst.flow drifted");
    assert_eq!(
        experiment_to_text(&registered),
        text,
        "round-trip text of the registry entry drifted from the file"
    );
}
