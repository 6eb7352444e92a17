//! Fixed-width table renderers shared by both CLIs.
//!
//! One renderer per [`ExperimentOutput`] family, returning the exact
//! bytes the pre-redesign `experiments` binary printed — the workspace
//! golden tests (`tests/flow_goldens.rs`) diff these renderings against
//! captured pre-redesign outputs, so do not change a space here without
//! re-pinning the goldens.

use std::fmt::Write as _;

use crate::runner::{
    AblationPoint, AreaPoint, BeBurstPoint, Comparison, DvsPoint, ExperimentOutput, FrontierPoint,
    Headline, ParallelPoint, PerfPoint, ResiliencePoint, RuntimePoint, ServicePoint, SpeedupPoint,
    VerifyPoint,
};

/// Renders a comparison table (Figures 6(a)–(c)).
pub fn render_comparisons(title: &str, comps: &[Comparison]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>12}",
        "bench", "ours", "WC", "ours/WC"
    );
    for c in comps {
        let fmt = |v: Option<usize>| v.map_or("fail".to_string(), |n| n.to_string());
        let norm = c
            .normalized()
            .map_or("-".to_string(), |n| format!("{n:.3}"));
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>12}",
            c.label,
            fmt(c.ours),
            fmt(c.wc),
            norm
        );
    }
    out
}

fn render_area(title: &str, points: &[AreaPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(out, "{:>10} {:>10} {:>12}", "MHz", "switches", "area (mm2)");
    for p in points {
        let s = p.switches.map_or("fail".into(), |n: usize| n.to_string());
        let a = p.area_mm2.map_or("-".into(), |a| format!("{a:.3}"));
        let _ = writeln!(out, "{:>10} {:>10} {:>12}", p.frequency.as_mhz_f64(), s, a);
    }
    out
}

fn render_dvs(title: &str, points: &[DvsPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:>12} per-use-case min MHz",
        "design", "savings"
    );
    for p in points {
        let mhz: Vec<String> = p
            .per_use_case_mhz
            .iter()
            .map(|f| format!("{f:.0}"))
            .collect();
        let _ = writeln!(
            out,
            "{:<8} {:>11.1}% [{}]",
            p.label,
            100.0 * p.savings,
            mhz.join(", ")
        );
    }
    out
}

fn render_parallel(title: &str, points: &[ParallelPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(out, "{:>10} {:>14}", "parallel", "min MHz");
    for p in points {
        let f = p
            .frequency
            .map_or("infeasible".into(), |f| format!("{:.0}", f.as_mhz_f64()));
        let _ = writeln!(out, "{:>10} {:>14}", p.parallel, f);
    }
    out
}

fn render_verify(title: &str, points: &[VerifyPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>12} {:>11} {:>11} {:>10}",
        "design", "use-cases", "connections", "contention", "late words", "delivered"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>12} {:>11} {:>11} {:>10}",
            p.label,
            p.use_cases,
            p.connections,
            p.contention,
            p.late_words,
            if p.all_delivered { "yes" } else { "NO" }
        );
    }
    out
}

fn render_ablations(title: &str, points: &[AblationPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>16}",
        "variant", "switches", "comm cost"
    );
    for p in points {
        let s = p.switches.map_or("fail".into(), |n| n.to_string());
        let cc = p.comm_cost.map_or("-".into(), |v| format!("{v:.0}"));
        let _ = writeln!(out, "{:<24} {:>9} {:>16}", p.label, s, cc);
    }
    out
}

fn render_runtimes(title: &str, rows: &[RuntimePoint], speedups: &[SpeedupPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(out, "{:<8} {:>12} {:>12}", "bench", "ours", "WC");
    for r in rows {
        let _ = writeln!(out, "{:<8} {:>12?} {:>12?}", r.label, r.ours, r.wc);
    }
    let threads = speedups.first().map_or(1, |s| s.threads);
    let _ = writeln!(
        out,
        "\n-- parallel speedup (1 thread vs {threads} threads) --"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>9}",
        "bench", "1 thread", "parallel", "speedup"
    );
    for s in speedups {
        let _ = writeln!(
            out,
            "{:<8} {:>12?} {:>12?} {:>8.2}x",
            s.label,
            s.sequential,
            s.parallel,
            s.speedup()
        );
    }
    out
}

/// Renders the BE burst sweep as the fixed-width table both CLIs print.
pub fn render_be_burst(title: &str, points: &[BeBurstPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>9} {:>10} {:>8} {:>9} {:>8} {:>10} {:>10}",
        "model",
        "hops",
        "injected",
        "delivered",
        "backlog",
        "mean lat",
        "max lat",
        "peak blog",
        "max queue"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>9} {:>10} {:>8} {:>9.1} {:>8} {:>10} {:>10}",
            p.model,
            p.hops,
            p.injected,
            p.delivered,
            p.backlog,
            p.mean_latency_cycles,
            p.max_latency_cycles,
            p.peak_backlog_words,
            p.max_queue_depth
        );
    }
    out
}

/// Renders the perf-telemetry table. Wall-clock cells are
/// machine-dependent (`traced` is the map flow re-timed with an
/// op-mode trace collector installed — compare against `map` for the
/// tracing overhead); every other column is a deterministic op count
/// (identical at any thread count).
pub fn render_perf(title: &str, points: &[PerfPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "bench",
        "switches",
        "map",
        "anneal",
        "traced",
        "queries",
        "pops",
        "rerouted",
        "reused",
        "accepts"
    );
    for p in points {
        let s = p.switches.map_or("fail".into(), |n: usize| n.to_string());
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10?} {:>10?} {:>10?} {:>10} {:>10} {:>10} {:>9} {:>9}",
            p.label,
            s,
            p.map_wall,
            p.anneal_wall,
            p.trace_wall,
            p.map_ops.path_queries + p.anneal_ops.path_queries,
            p.map_ops.dijkstra_pops + p.anneal_ops.dijkstra_pops,
            p.anneal_ops.groups_rerouted,
            p.anneal_ops.groups_reused,
            p.anneal_ops.anneal_accepts
        );
    }
    out
}

/// Renders the strategy-portfolio frontier table. Every cell is
/// schedule-independent — quality columns plus deterministic op
/// counters, no wall-clock — so the rendering is pinned as a golden
/// and compared across `noc-par` worker counts.
pub fn render_frontier(title: &str, points: &[FrontierPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:<13} {:>8} {:>14} {:>6} {:>10} {:>12} {:>10} {:>10}",
        "bench",
        "strategy",
        "switches",
        "cost",
        "evict",
        "queries",
        "pops",
        "cache hit",
        "cache miss"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<8} {:<13} {:>8} {:>14} {:>6} {:>10} {:>12} {:>10} {:>10}",
            p.bench,
            p.strategy.token(),
            p.switches,
            p.cost,
            p.evictions,
            p.ops.path_queries,
            p.ops.dijkstra_pops,
            p.ops.route_cache_hits,
            p.ops.route_cache_misses,
        );
    }
    out
}

/// Renders the online-service admission table. Every cell is
/// schedule-independent — engine metrics of a deterministic replay
/// plus op counters, no wall-clock — so the rendering is pinned as a
/// golden and compared across `noc-par` worker counts. The
/// `routes`/`maps` columns are the incremental-vs-resolve contrast:
/// incremental admissions cost one group route each, the resolve
/// baseline a full map per applied mutation.
pub fn render_service(title: &str, points: &[ServicePoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>8} {:>8} {:>9} {:>9} {:>6} {:>8} {:>8} {:>6}",
        "fabric",
        "mode",
        "admitted",
        "rejected",
        "blocking",
        "displaced",
        "evict",
        "flushes",
        "routes",
        "maps"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>8} {:>8} {:>9.4} {:>9} {:>6} {:>8} {:>8} {:>6}",
            p.fabric,
            p.mode.token(),
            p.stats.admitted,
            p.stats.rejected,
            p.stats.blocking(),
            p.stats.displaced,
            p.stats.evictions,
            p.stats.flushes,
            p.ops.group_routes,
            p.ops.full_maps,
        );
    }
    out
}

/// Renders the fault-injection resilience table. The `maps` column is
/// the load-bearing cell: healing is incremental repair
/// (`hreroute` group re-routes, `hevict` displacements), so full maps
/// stay at the admission baseline even under the fault schedule.
pub fn render_resilience(title: &str, points: &[ResiliencePoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>8} {:>8} {:>9} {:>5} {:>5} {:>6} {:>6} {:>8} {:>6} {:>6}",
        "fabric",
        "faults",
        "admitted",
        "rejected",
        "blocking",
        "lfail",
        "nfail",
        "degr",
        "healed",
        "hreroute",
        "hevict",
        "maps"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>8} {:>8} {:>9.4} {:>5} {:>5} {:>6} {:>6} {:>8} {:>6} {:>6}",
            p.fabric,
            p.faults,
            p.stats.admitted,
            p.stats.rejected,
            p.stats.blocking(),
            p.stats.links_failed,
            p.stats.nis_failed,
            p.stats.degraded,
            p.stats.healed,
            p.ops.heal_reroutes,
            p.ops.heal_evictions,
            p.ops.full_maps,
        );
    }
    out
}

fn render_headline(title: &str, h: &Headline) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "mean NoC area (switch) reduction vs WC: {:.1}% (paper: ~80%)",
        100.0 * h.mean_area_reduction
    );
    let _ = writeln!(
        out,
        "mean DVS/DFS power saving:              {:.1}% (paper: ~54%)",
        100.0 * h.mean_power_saving
    );
    out
}

/// Renders any experiment output as the table the CLIs print.
pub fn render(output: &ExperimentOutput) -> String {
    match output {
        ExperimentOutput::Comparison { title, points } => render_comparisons(title, points),
        ExperimentOutput::AreaFrequency { title, points } => render_area(title, points),
        ExperimentOutput::DvsSavings { title, points } => render_dvs(title, points),
        ExperimentOutput::ParallelFrequency { title, points } => render_parallel(title, points),
        ExperimentOutput::VerifyDesigns { title, points } => render_verify(title, points),
        ExperimentOutput::Ablations { title, points } => render_ablations(title, points),
        ExperimentOutput::Runtimes {
            title,
            rows,
            speedups,
        } => render_runtimes(title, rows, speedups),
        ExperimentOutput::BeBurst { title, points } => render_be_burst(title, points),
        ExperimentOutput::Headline { title, headline } => render_headline(title, headline),
        ExperimentOutput::Perf { title, points } => render_perf(title, points),
        ExperimentOutput::Frontier { title, points } => render_frontier(title, points),
        ExperimentOutput::Service { title, points } => render_service(title, points),
        ExperimentOutput::Resilience { title, points } => render_resilience(title, points),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_table_shape() {
        let table = render_comparisons(
            "T",
            &[
                Comparison {
                    label: "D1".into(),
                    ours: Some(4),
                    wc: Some(16),
                },
                Comparison {
                    label: "D2".into(),
                    ours: None,
                    wc: Some(4),
                },
            ],
        );
        assert!(table.starts_with("\n== T ==\n"));
        assert!(table.contains("D1              4       16        0.250"));
        assert!(table.contains("fail"));
        assert!(table.ends_with('\n'));
    }

    #[test]
    fn be_burst_table_lists_models() {
        let p = BeBurstPoint {
            model: "constant".into(),
            hops: 2,
            injected: 10,
            delivered: 9,
            backlog: 1,
            mean_latency_cycles: 6.5,
            max_latency_cycles: 12,
            peak_backlog_words: 2,
            max_queue_depth: 2,
        };
        let table = render_be_burst("B", &[p]);
        assert!(table.contains("constant"));
        assert!(table.contains("6.5"));
    }
}
