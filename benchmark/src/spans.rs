//! The traced run's recorder: spans taken in this crate around each call
//! into the program, plus `nocmap::perf` counters read by name at the
//! same boundaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::ratio;

/// One timed call. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The job or request line the span belongs to.
    pub req: u64,
}

/// Spans kept in memory, written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// Where a workload's calls are timed: one body of code serves the
/// untraced run ([`NoTrace`]) and the traced run ([`Recorder`]).
pub trait Trace {
    /// Whether spans are kept; calls made only to be timed (the
    /// benchmark's own `parse_command`) are skipped when not.
    const ON: bool;

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// become its children.
    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T;

    /// Renames the span recorded last (for a call classified by its
    /// result).
    fn relabel_last(&mut self, name: &'static str);
}

/// The untraced run: spans cost nothing.
pub struct NoTrace;

impl Trace for NoTrace {
    const ON: bool = false;

    fn span<T>(&mut self, _: &'static str, _: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }

    fn relabel_last(&mut self, _: &'static str) {}
}

impl Trace for Recorder {
    const ON: bool = true;

    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    fn relabel_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part of its interval that its
    /// children cover, in nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Per span name: call count and summed self time in nanoseconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        out
    }

    /// Mean self time of the spans named `name`, in milliseconds (0
    /// when there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.by_name().get(name) {
            Some(&(n, t)) if n > 0 => t as f64 / n as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// The spans as tab-separated text, one per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{t}",
                s.req, s.name, s.start, s.end
            );
        }
        out
    }
}

/// Every `nocmap::perf` counter by name, read from the snapshot's
/// `Debug` form so that renamed or dropped counters cost a metric, not
/// the build.
pub fn counters() -> BTreeMap<String, u64> {
    parse_counters(&format!("{:?}", nocmap::perf::snapshot()))
}

fn parse_counters(debug: &str) -> BTreeMap<String, u64> {
    let body = debug
        .split_once('{')
        .and_then(|(_, rest)| rest.rsplit_once('}'))
        .map_or("", |(body, _)| body);
    body.split(',')
        .filter_map(|field| {
            let (name, value) = field.split_once(':')?;
            Some((name.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// The per-layer metrics that come from counter deltas. A counter the
/// program no longer has reads 0.
pub fn counter_metrics(d: &BTreeMap<String, u64>) -> BTreeMap<&'static str, f64> {
    let get = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    let (pops, queries) = (get("dijkstra_pops"), get("path_queries"));
    let (rerouted, reused) = (get("groups_rerouted"), get("groups_reused"));
    let (hits, misses) = (get("route_cache_hits"), get("route_cache_misses"));
    let (admitted, rejected) = (get("admissions"), get("rejections"));
    BTreeMap::from([
        ("mapper.full_maps", get("full_maps")),
        ("path.queries", queries),
        ("path.pops", pops),
        ("path.pops_per_query", ratio(pops, queries)),
        ("path.scratch_allocs", get("scratch_allocs")),
        ("tdma.conflict_word_tests", get("conflict_word_tests")),
        ("reroute.groups_rerouted", rerouted),
        ("reroute.reuse_ratio", ratio(reused, reused + rerouted)),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        ("admit.admissions", admitted),
        ("admit.rejections", rejected),
        ("admit.evictions", get("displacement_evictions")),
        ("admit.pops_per_admission", ratio(pops, admitted + rejected)),
        ("engine.flushes", get("batch_flushes")),
        ("heal.attempts", get("heals_attempted")),
        ("heal.reroutes", get("heal_reroutes")),
        ("heal.evictions", get("heal_evictions")),
    ])
}

/// `after - before` per counter present in both.
pub fn delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .filter_map(|(k, &a)| Some((k.clone(), a.saturating_sub(*before.get(k)?))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::default();
        let root = r.push(span("job", 0, 100, None));
        let a = r.push(span("map", 10, 40, Some(root)));
        r.push(span("path", 15, 25, Some(a)));
        r.push(span("path", 20, 30, Some(a))); // overlaps its sibling
        r.push(span("verify", 35, 60, Some(root))); // overlaps `map`
        r.push(span("late", 90, 120, Some(root))); // runs past its parent
        assert_eq!(r.self_times(), vec![100 - 50 - 10, 30 - 15, 10, 10, 25, 30]);
        let by = r.by_name();
        assert_eq!(by["path"], (2, 20));
        assert_eq!(by["job"], (1, 40));
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut r = Recorder::default();
        r.span("outer", 7, |r| r.span("inner", 7, |_| ()));
        let s = r.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(r.to_tsv().lines().count() == 3);
    }

    #[test]
    fn counters_parse_from_debug_form() {
        let c = parse_counters("PerfSnapshot { path_queries: 3, dijkstra_pops: 12, junk: x }");
        assert_eq!(c.len(), 2);
        assert_eq!(c["dijkstra_pops"], 12);
        let d = delta(
            &c,
            &parse_counters("PerfSnapshot { path_queries: 5, dijkstra_pops: 12 }"),
        );
        assert_eq!((d["path_queries"], d["dijkstra_pops"]), (2, 0));
        // The live snapshot names the counters the metrics read.
        assert!(counters().contains_key("path_queries"));
    }
}
