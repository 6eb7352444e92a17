//! Finalized traces: tree construction from raw buffers, the text tree
//! renderer, and the Chrome trace-event JSON writer.

use crate::record::{AttrValue, Event};
use crate::TraceMode;

/// One attribute of a finalized span.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Attribute key.
    pub key: &'static str,
    /// Attribute value.
    pub value: AttrValue,
    /// Schedule-class: dropped from ops-mode exports.
    pub schedule: bool,
}

/// One span of a finalized trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Stable id: preorder position in the merged tree, starting at 1.
    pub id: u64,
    /// Span name.
    pub name: &'static str,
    /// Attributes in recording order.
    pub attrs: Vec<Attr>,
    /// Op-clock work inside this span excluding all child spans.
    pub ops_self: u64,
    /// Op-clock work inside this span including all child spans (lane
    /// children too).
    pub ops_total: u64,
    /// Wall reading at entry, ns since collector install (0 in ops mode).
    pub wall_begin_ns: u64,
    /// Wall reading at exit, ns since collector install (0 in ops mode).
    pub wall_end_ns: u64,
    /// The buffer this span was recorded into, numbered in merge order
    /// (root buffer 0). The Chrome exporter maps this to `tid` in wall
    /// mode so parallel lanes render as parallel tracks.
    pub lane: u32,
    /// Child spans: inline children and spliced lanes, in deterministic
    /// order.
    pub children: Vec<SpanNode>,
}

/// A finalized trace: the merged span forest plus the mode it was
/// recorded under.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Mode the collector was installed with (drives the exporters).
    pub mode: TraceMode,
    /// Top-level spans in recording order.
    pub roots: Vec<SpanNode>,
}

/// An in-progress node while parsing one buffer.
struct OpenSpan {
    name: &'static str,
    begin_wall: u64,
    begin_ops: u64,
    attrs: Vec<Attr>,
    children: Vec<SpanNode>,
    /// Work inside this span that belongs to its children: the totals
    /// of inline child spans plus the op-clock deltas of the lanes
    /// spliced under it (lane spans and lane work outside any span).
    covered: u64,
}

/// Lane buffers by task-set id: slot `i` of a set holds lane `i`'s
/// events and op-clock delta, or `None` if the lane never committed.
pub(crate) type LaneMap = Vec<Vec<Option<(Vec<Event>, u64)>>>;

/// Parses one buffer into a span forest, recursing into lane buffers at
/// their `Tasks` markers. `next_lane` numbers buffers in encounter
/// order, which is deterministic because the tree shape is.
///
/// A span's total is its op-clock delta: by the time it closes, its
/// lanes' work has been handed back to the recording thread, so the
/// delta covers inline and lane work alike.
fn build_buffer(
    events: Vec<Event>,
    lanes: &mut LaneMap,
    next_lane: &mut u32,
    my_lane: u32,
) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<OpenSpan> = Vec::new();
    let attach = |stack: &mut Vec<OpenSpan>, roots: &mut Vec<SpanNode>, node: SpanNode| match stack
        .last_mut()
    {
        Some(parent) => {
            parent.covered += node.ops_total;
            parent.children.push(node);
        }
        None => roots.push(node),
    };
    for event in events {
        match event {
            Event::Begin { name, wall_ns, ops } => stack.push(OpenSpan {
                name,
                begin_wall: wall_ns,
                begin_ops: ops,
                attrs: Vec::new(),
                children: Vec::new(),
                covered: 0,
            }),
            Event::Attr {
                key,
                value,
                schedule,
            } => {
                if let Some(open) = stack.last_mut() {
                    open.attrs.push(Attr {
                        key,
                        value,
                        schedule,
                    });
                }
            }
            Event::End { wall_ns, ops } => {
                let open = stack.pop().expect("span events are balanced per buffer");
                let ops_total = ops.wrapping_sub(open.begin_ops);
                let node = SpanNode {
                    id: 0,
                    name: open.name,
                    attrs: open.attrs,
                    ops_self: ops_total.saturating_sub(open.covered),
                    ops_total,
                    wall_begin_ns: open.begin_wall,
                    wall_end_ns: wall_ns,
                    lane: my_lane,
                    children: open.children,
                };
                attach(&mut stack, &mut roots, node);
            }
            Event::Tasks { id } => {
                let set = lanes.get_mut(id).map(std::mem::take).unwrap_or_default();
                for slot in set {
                    let lane_no = *next_lane;
                    *next_lane += 1;
                    let Some((lane_events, lane_ops)) = slot else {
                        continue;
                    };
                    let nodes = build_buffer(lane_events, lanes, next_lane, lane_no);
                    match stack.last_mut() {
                        Some(open) => {
                            open.children.extend(nodes);
                            open.covered += lane_ops;
                        }
                        None => roots.extend(nodes),
                    }
                }
            }
        }
    }
    // An unwound recording can leave spans open; close them at the
    // buffer boundary so a partial trace still finalizes.
    while let Some(open) = stack.pop() {
        let node = SpanNode {
            id: 0,
            name: open.name,
            attrs: open.attrs,
            ops_self: 0,
            ops_total: open.covered,
            wall_begin_ns: open.begin_wall,
            wall_end_ns: open.begin_wall,
            lane: my_lane,
            children: open.children,
        };
        attach(&mut stack, &mut roots, node);
    }
    roots
}

fn assign_ids(nodes: &mut [SpanNode], next: &mut u64) {
    for node in nodes {
        *next += 1;
        node.id = *next;
        assign_ids(&mut node.children, next);
    }
}

/// Builds a [`Trace`] out of the raw buffers: parse the root buffer
/// (recursing into lane buffers at their `Tasks` markers — a marker
/// always precedes the enclosing `End` event in its buffer, so every
/// lane subtree is in place before its parent's totals are computed),
/// then assign preorder ids.
pub(crate) fn finalize(mode: TraceMode, root_events: Vec<Event>, mut lanes: LaneMap) -> Trace {
    let mut next_lane: u32 = 1;
    let mut roots = build_buffer(root_events, &mut lanes, &mut next_lane, 0);
    let mut next_id = 0;
    assign_ids(&mut roots, &mut next_id);
    Trace { mode, roots }
}

impl Trace {
    /// Number of spans in the trace.
    pub fn span_count(&self) -> u64 {
        fn count(nodes: &[SpanNode]) -> u64 {
            nodes.iter().map(|n| 1 + count(&n.children)).sum()
        }
        count(&self.roots)
    }

    /// Renders the indented text tree. In [`TraceMode::Ops`] the output
    /// is byte-identical at any thread count (op costs and deterministic
    /// attributes only); [`TraceMode::Wall`] adds wall durations and
    /// schedule-class attributes.
    pub fn render_text(&self) -> String {
        let mode = match self.mode {
            TraceMode::Ops => "ops",
            TraceMode::Wall => "wall",
        };
        let mut out = format!("# noc-obs trace (mode: {mode})\n");
        fn render(out: &mut String, nodes: &[SpanNode], depth: usize, wall: bool) {
            for node in nodes {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!(
                    "{} #{} ops={} self={}",
                    node.name, node.id, node.ops_total, node.ops_self
                ));
                if wall {
                    let dur_us = node.wall_end_ns.saturating_sub(node.wall_begin_ns) / 1_000;
                    out.push_str(&format!(" wall_us={dur_us} lane={}", node.lane));
                }
                for attr in &node.attrs {
                    if attr.schedule && !wall {
                        continue;
                    }
                    out.push_str(&format!(" {}={}", attr.key, attr.value));
                }
                out.push('\n');
                render(out, &node.children, depth + 1, wall);
            }
        }
        render(
            &mut out,
            &self.roots,
            0,
            matches!(self.mode, TraceMode::Wall),
        );
        out
    }

    /// Renders Chrome trace-event JSON (an array of `B`/`E` duration
    /// events), loadable in Perfetto or `chrome://tracing`.
    ///
    /// * [`TraceMode::Ops`]: timestamps are **op-clock units** laid out
    ///   sequentially (children packed after their parent's begin), all
    ///   on `tid` 0 — a deterministic, byte-identical artifact.
    /// * [`TraceMode::Wall`]: timestamps are real microseconds since
    ///   install and `tid` is the recording lane, so parallel lanes
    ///   render as parallel tracks.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        match self.mode {
            TraceMode::Ops => {
                fn emit(events: &mut Vec<String>, node: &SpanNode, t0: u64) {
                    events.push(chrome_event(node, "B", 0, &t0.to_string(), true));
                    let mut t = t0;
                    for child in &node.children {
                        emit(events, child, t);
                        t += child.ops_total;
                    }
                    let end = t0 + node.ops_total;
                    events.push(chrome_end(node, 0, &end.to_string()));
                }
                let mut t = 0;
                for root in &self.roots {
                    emit(&mut events, root, t);
                    t += root.ops_total;
                }
            }
            TraceMode::Wall => {
                fn emit(events: &mut Vec<String>, node: &SpanNode) {
                    events.push(chrome_event(
                        node,
                        "B",
                        node.lane,
                        &us(node.wall_begin_ns),
                        false,
                    ));
                    for child in &node.children {
                        emit(events, child);
                    }
                    events.push(chrome_end(node, node.lane, &us(node.wall_end_ns)));
                }
                for root in &self.roots {
                    emit(&mut events, root);
                }
            }
        }
        let mut out = String::from("[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]\n");
        out
    }
}

/// Nanoseconds → microseconds with three decimals (Chrome's `ts` unit),
/// via integer math so the text is deterministic for a given input.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// `s` escaped for use inside a JSON string literal: quotes and
/// backslashes get a backslash, control characters a `\uXXXX` escape.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn chrome_event(node: &SpanNode, ph: &str, tid: u32, ts: &str, ops_mode: bool) -> String {
    let mut args = format!(
        "\"span\":{},\"ops_total\":{},\"ops_self\":{}",
        node.id, node.ops_total, node.ops_self
    );
    for attr in &node.attrs {
        if attr.schedule && ops_mode {
            continue;
        }
        let value = match &attr.value {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::F64(v) => format!("{v:?}"),
            AttrValue::Str(v) => format!("\"{}\"", json_escape(v)),
        };
        args.push_str(&format!(",\"{}\":{}", json_escape(attr.key), value));
    }
    format!(
        "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}",
        json_escape(node.name)
    )
}

fn chrome_end(node: &SpanNode, tid: u32, ts: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}",
        json_escape(node.name)
    )
}
