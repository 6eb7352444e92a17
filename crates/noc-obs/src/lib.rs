//! `noc-obs` — deterministic work counters and span tracing for the
//! NoC mapping stack.
//!
//! Two layers share one store:
//!
//! * **Counters** ([`count`], [`Counter`], [`counts`]): one thread-local
//!   vector of deterministic work counts (path queries, Dijkstra pops,
//!   slot-word tests, simulated cycles, …). `nocmap::perf` reads it as
//!   its `PerfSnapshot`; `noc-par` hands a pool worker's counts back to
//!   the region's caller, so a thread's counters are exact for the work
//!   it asked for, whatever else runs in the process.
//! * **Spans** ([`span`], [`install`], [`finish`]): scoped spans with
//!   parent/child structure, typed attributes, and two cost fields per
//!   span — wall-clock nanoseconds (for humans) and an **op-clock**
//!   delta (for goldens). The op clock is the sum of the op counters
//!   (see [`Counter`]), so in [`TraceMode::Ops`] a trace is a pure
//!   function of the workload: byte-identical at any `noc-par` thread
//!   count, golden-testable like every other output of this workspace.
//!
//! # Span model
//!
//! * A [`Span`] guard records a `Begin`/`End` event pair into the
//!   calling thread's buffer; nesting follows scope nesting.
//! * [`Span::attr`] attaches a deterministic attribute; schedule-class
//!   attributes ([`Span::sched_attr`]: queue waits, ticket counts, …)
//!   are kept out of [`TraceMode::Ops`] exports.
//! * A parallel region records a [`TaskSet`] marker; each task runs
//!   under [`TaskSet::run`]`(index, …)`, which gives it a private lane
//!   buffer. At [`finish`] lanes are spliced under the span that was
//!   open at the marker, **in index order** — the tree's shape depends
//!   on the work, never on the schedule.
//! * Span ids are assigned at finalize time by a preorder walk of the
//!   merged tree, so they are stable too.
//!
//! # Determinism of the op clock
//!
//! [`TaskSet::run`] records each lane's op-clock delta. A lane run on
//! another thread must have its counts handed back to the region's
//! caller ([`measure`] there, [`absorb`] here) before the enclosing span
//! closes — `noc-par` does this for every region. A span's total is then
//! its op-clock delta, whichever thread ran its lanes, and its self cost
//! is that total minus its children's and lanes' work. In
//! [`TraceMode::Ops`] wall fields are not even sampled (they export as
//! zero), which is what makes the whole artifact byte-stable.
//!
//! # Pay-for-use
//!
//! Counting is one thread-local add. With no collector [`install`]ed,
//! [`span`] costs one thread-local probe and never allocates — hot
//! loops keep their allocation-free guarantee, and the
//! [`Counter::TraceSpans`] count stays zero.
//!
//! `docs/OBSERVABILITY.md` documents the model, the exporters, and the
//! determinism contract in full.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod record;
mod trace;

pub use counter::{absorb, count, counts, measure, Counter, Counts};
pub use record::{active, finish, install, recording, span, task_set, AttrValue, Span, TaskSet};
pub use trace::{json_escape, Attr, SpanNode, Trace};

/// Export/determinism mode a collector is installed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Deterministic mode: span costs are op-clock deltas, wall fields
    /// are zero, schedule-class attributes are dropped. Traces are
    /// byte-identical at any thread count.
    Ops,
    /// Human mode: real wall-clock timestamps and lane ids, plus the
    /// schedule-class attributes. Not byte-stable across runs.
    Wall,
}

/// FNV-1a over `bytes` — the workspace's stable 64-bit digest (config
/// digests in stage spans, nothing cryptographic).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The collector is process-global; tests that install one take this
    /// lock so `cargo test`'s parallel scheduling cannot interleave two
    /// collectors.
    static COLLECTOR_LOCK: Mutex<()> = Mutex::new(());

    fn collector_test() -> MutexGuard<'static, ()> {
        COLLECTOR_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// `n` units of op-counted work.
    fn work(n: u64) {
        count(Counter::SimCycles, n);
    }

    fn spans_counted() -> u64 {
        counts()[Counter::TraceSpans]
    }

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"map"), fnv1a(b"map"));
        assert_ne!(fnv1a(b"map"), fnv1a(b"anneal"));
    }

    #[test]
    fn tracing_is_inert_without_a_collector() {
        let _guard = collector_test();
        let spans_before = spans_counted();
        let s = span("never-recorded");
        s.attr("k", 1u64);
        work(1_000_000);
        drop(s);
        let ts = task_set(2);
        assert_eq!(ts.run(0, || 7), 7);
        assert!(!recording());
        assert_eq!(spans_counted(), spans_before, "no collector, no spans");
    }

    #[test]
    fn spans_nest_and_ids_are_preorder() {
        let _guard = collector_test();
        assert!(install(TraceMode::Ops));
        assert!(!install(TraceMode::Ops), "second install must refuse");
        {
            let a = span("a");
            a.attr("kind", "outer");
            {
                let _b = span("b");
                work(5);
            }
            {
                let _c = span("c");
                work(2);
            }
        }
        let trace = finish().expect("collector was installed");
        assert!(finish().is_none(), "finish is one-shot");
        assert_eq!(trace.roots.len(), 1);
        let a = &trace.roots[0];
        assert_eq!((a.name, a.id, a.ops_self, a.ops_total), ("a", 1, 0, 7));
        assert_eq!(a.children.len(), 2);
        assert_eq!(
            (a.children[0].id, a.children[0].ops_total),
            (2, 5),
            "preorder ids"
        );
        assert_eq!((a.children[1].id, a.children[1].ops_total), (3, 2));
        assert_eq!(a.wall_end_ns, 0, "ops mode records no wall clock");
    }

    #[test]
    fn lanes_merge_in_index_order_regardless_of_execution_order() {
        let _guard = collector_test();
        assert!(install(TraceMode::Ops));
        {
            let _region = span("region");
            let ts = task_set(2);
            // Execute lane 1 before lane 0: the tree must not care.
            ts.run(1, || {
                let _s = span("second");
                work(20);
            });
            ts.run(0, || {
                let _s = span("first");
                work(10);
            });
        }
        let trace = finish().unwrap();
        let region = &trace.roots[0];
        let names: Vec<&str> = region.children.iter().map(|c| c.name).collect();
        assert_eq!(names, ["first", "second"], "lanes splice by index");
        assert_eq!(region.ops_total, 30);
        assert_eq!(region.ops_self, 0, "lane work never leaks into self");
    }

    #[test]
    fn inline_lane_work_counts_toward_total_not_parent_self() {
        let _guard = collector_test();
        assert!(install(TraceMode::Ops));
        {
            let _p = span("parent");
            work(5);
            let ts = task_set(1);
            ts.run(0, || work(100)); // inline lane, like a width-1 region
            work(3);
        }
        let trace = finish().unwrap();
        let p = &trace.roots[0];
        assert_eq!(p.ops_self, 8, "parent self excludes inline lane work");
        assert_eq!(p.ops_total, 108, "…but the total includes it");
    }

    #[test]
    fn lanes_recorded_on_other_threads_merge_identically() {
        let _guard = collector_test();
        assert!(install(TraceMode::Ops));
        {
            let _region = span("region");
            let ts = task_set(2);
            std::thread::scope(|s| {
                let worker = s.spawn(|| {
                    let ((), counted) = measure(|| {
                        ts.run(1, || {
                            let sp = span("worker-lane");
                            sp.attr("lane", 1u64);
                            work(40);
                        });
                    });
                    counted
                });
                ts.run(0, || {
                    let _sp = span("caller-lane");
                    work(4);
                });
                // The lane protocol: off-thread lane work is handed back
                // to the caller before the enclosing span closes.
                absorb(&worker.join().unwrap());
            });
        }
        let trace = finish().unwrap();
        let region = &trace.roots[0];
        let names: Vec<&str> = region.children.iter().map(|c| c.name).collect();
        assert_eq!(names, ["caller-lane", "worker-lane"]);
        assert_eq!((region.ops_total, region.ops_self), (44, 0));
    }

    #[test]
    fn text_and_chrome_exports_are_deterministic() {
        let _guard = collector_test();
        let run = || {
            assert!(install(TraceMode::Ops));
            {
                let r = span("region");
                r.attr("items", 2u64);
                r.sched_attr("queue_wait_us", 999u64);
                let ts = task_set(2);
                for lane in [1usize, 0] {
                    ts.run(lane, || {
                        let s = span("task");
                        s.attr("index", lane as u64);
                        work(10 * (lane as u64 + 1));
                    });
                }
            }
            let trace = finish().unwrap();
            (trace.render_text(), trace.to_chrome_json())
        };
        let (text_a, json_a) = run();
        let (text_b, json_b) = run();
        assert_eq!(text_a, text_b);
        assert_eq!(json_a, json_b);
        assert!(
            !text_a.contains("queue_wait_us"),
            "ops mode drops schedule-class attrs:\n{text_a}"
        );
        assert!(text_a.contains("region #1 ops=30 self=0 items=2"));
        assert_eq!(json_a.matches("\"ph\":\"B\"").count(), 3);
        assert_eq!(json_a.matches("\"ph\":\"E\"").count(), 3);
        let parsed: Vec<&str> = json_a.lines().collect();
        assert_eq!(parsed.first(), Some(&"["));
        assert_eq!(parsed.last(), Some(&"]"));
    }

    #[test]
    fn trace_spans_counts_recorded_spans() {
        let _guard = collector_test();
        let before = spans_counted();
        assert!(install(TraceMode::Ops));
        {
            let _a = span("a");
            let _b = span("b");
        }
        let _ = finish();
        assert_eq!(spans_counted() - before, 2);
    }
}
