//! Spans: the guards instrumentation sites open, the records a trace
//! keeps, and the canonical forest those records export as.
//!
//! [`span`] / [`span_with`] / [`stage`] open a [`SpanGuard`] with
//! monotonic timing, a dense thread id and parent linkage via a
//! thread-local stack. A finished span is recorded only into the
//! [`TraceContext`](crate::TraceContext) entered on its thread; with no
//! trace entered, a plain span is an empty guard. A [`stage`] span also
//! feeds its duration into the installed
//! [`Collector`](crate::Collector)'s latency histogram of the same name.
//!
//! Spans finish in scheduling order, so the raw record is
//! nondeterministic. Canonicalization restores determinism:
//!
//! * roots carrying a `datalog` attribute (batch jobs) are ordered by
//!   `(datalog, name, slot)` — the same key the batch engine merges
//!   reports by;
//! * other roots (coordinator-side setup like the good-machine
//!   simulation) keep their mutual start order, ahead of the jobs;
//! * children of one span run sequentially on one thread, so start
//!   order is already deterministic.
//!
//! Timings, thread ids and start offsets remain scheduling-dependent;
//! [`forest_json`]'s redaction mode omits them, and
//! `tests/tests/obs_determinism.rs` asserts the redacted JSON is
//! byte-identical at 1 and 8 workers.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::collector::{self, Inner};
use crate::json;
use crate::metrics::Stability;
use crate::trace::{self, TraceInner};

/// Small dense per-thread ids (worker threads of one process), assigned
/// on first use.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Process-global span id counter. Ids are handed out in start order, so
/// they also order siblings (which run sequentially on one thread); only
/// *relative* order matters downstream, so a global counter preserves
/// every canonicalization guarantee.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
    /// Ids of the spans currently open on this thread, innermost last —
    /// the parent linkage of new spans.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|c| match c.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(Some(id));
            id
        }
    })
}

/// Most attributes a span keeps: a batch job's identity (datalog, slot).
const MAX_ATTRS: usize = 2;

/// A span's attributes, held inline, so opening and recording a span
/// allocates nothing. With a heap `Vec` here, the daemon's request
/// throughput on a small design fell by about a tenth once every job span
/// carried attributes. An empty key marks an unused slot.
#[derive(Debug, Clone, Copy)]
struct Attrs([(&'static str, u64); MAX_ATTRS]);

impl Attrs {
    /// The first [`MAX_ATTRS`] of `attrs` that have a key.
    fn new(attrs: &[(&'static str, u64)]) -> Self {
        let mut items = [("", 0); MAX_ATTRS];
        let keyed = attrs.iter().filter(|(key, _)| !key.is_empty());
        for (item, attr) in items.iter_mut().zip(keyed) {
            *item = *attr;
        }
        Attrs(items)
    }

    fn as_slice(&self) -> &[(&'static str, u64)] {
        let len = self.0.iter().take_while(|(key, _)| !key.is_empty()).count();
        &self.0[..len]
    }
}

/// One finished span as recorded, before canonicalization.
#[derive(Debug, Clone)]
pub(crate) struct RawSpan {
    id: u64,
    parent: Option<NonZeroU64>,
    name: &'static str,
    attrs: Attrs,
    thread: u64,
    start_us: u64,
    duration_us: u64,
}

/// An open span; finishing (dropping) it records the span into the
/// trace entered when it opened and, for [`stage`] spans, a latency
/// histogram sample into the installed collector. `None` inside when
/// neither is there — the whole guard is then a no-op.
#[derive(Debug)]
pub struct SpanGuard(Option<OpenSpan>);

#[derive(Debug)]
struct OpenSpan {
    trace: Option<Arc<TraceInner>>,
    /// The collector a stage span's duration goes to.
    histogram: Option<Arc<Inner>>,
    id: u64,
    parent: Option<NonZeroU64>,
    name: &'static str,
    attrs: Attrs,
    start: Instant,
}

fn open_span(name: &'static str, attrs: &[(&'static str, u64)], stage: bool) -> SpanGuard {
    // The disabled fast path: a relaxed load (two for a stage), no
    // further work.
    let trace = trace::current();
    let histogram = if stage { collector::active() } else { None };
    if trace.is_none() && histogram.is_none() {
        return SpanGuard(None);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().and_then(NonZeroU64::new);
        s.push(id);
        parent
    });
    SpanGuard(Some(OpenSpan {
        trace,
        histogram,
        id,
        parent,
        name,
        attrs: Attrs::new(attrs),
        start: Instant::now(),
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let duration_us = open.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Defensive: only unwind our own frame (guards drop LIFO in
            // well-formed code, but a leaked guard must not corrupt the
            // stack for unrelated spans).
            if s.last() == Some(&open.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.truncate(pos);
            }
        });
        if let Some(trace) = open.trace {
            trace.record_span(RawSpan {
                id: open.id,
                parent: open.parent,
                name: open.name,
                attrs: open.attrs,
                thread: thread_id(),
                start_us: trace.offset_us(open.start),
                duration_us,
            });
        }
        if let Some(collector) = open.histogram {
            collector.observe_us(open.name, duration_us, Stability::Stable);
        }
    }
}

/// Builds a finished root-level span record for work measured outside
/// the guard machinery — e.g. the frame decode that *produces* a
/// request's trace id, which necessarily completes before the trace
/// exists.
pub(crate) fn external_raw_span(name: &'static str, start_us: u64, duration_us: u64) -> RawSpan {
    RawSpan {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: None,
        name,
        attrs: Attrs::new(&[]),
        thread: thread_id(),
        start_us,
        duration_us,
    }
}

/// Opens a span named `name` as a child of the thread's innermost open
/// span. One atomic load when no trace is entered anywhere.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, &[], false)
}

/// [`span`] with structured attributes (e.g. the datalog index and
/// suspect slot of a batch job). A span keeps the first two that have a
/// non-empty key; any further attribute is dropped.
pub fn span_with(name: &'static str, attrs: &[(&'static str, u64)]) -> SpanGuard {
    open_span(name, attrs, false)
}

/// A *stage* span: like [`span`], and additionally records the span
/// duration into the installed collector's latency histogram of the
/// same name on close — the per-stage latency metric of the diagnosis
/// flow.
pub fn stage(name: &'static str) -> SpanGuard {
    open_span(name, &[], true)
}

/// One span in the canonical forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span name (a static site label, e.g. `flow.intra_cell`).
    pub name: &'static str,
    /// Structured attributes recorded at open time.
    pub attrs: Vec<(&'static str, u64)>,
    /// Dense per-process id of the recording thread.
    pub thread: u64,
    /// Start offset from trace creation (µs).
    pub start_us: u64,
    /// Wall-clock duration (µs).
    pub duration_us: u64,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Total spans in this subtree including itself.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }
}

fn build_node(raw: &RawSpan, children_of: &BTreeMap<u64, Vec<&RawSpan>>) -> SpanNode {
    let mut children: Vec<&RawSpan> = children_of.get(&raw.id).cloned().unwrap_or_default();
    children.sort_by_key(|c| c.id);
    SpanNode {
        name: raw.name,
        attrs: raw.attrs.as_slice().to_vec(),
        thread: raw.thread,
        start_us: raw.start_us,
        duration_us: raw.duration_us,
        children: children
            .into_iter()
            .map(|c| build_node(c, children_of))
            .collect(),
    }
}

pub(crate) fn build_forest(raws: &[RawSpan]) -> Vec<SpanNode> {
    let ids: std::collections::BTreeSet<u64> = raws.iter().map(|r| r.id).collect();
    let mut children_of: BTreeMap<u64, Vec<&RawSpan>> = BTreeMap::new();
    let mut roots: Vec<&RawSpan> = Vec::new();
    for raw in raws {
        match raw.parent {
            // A parent that never finished (open guard at export time)
            // is treated as absent: the child is promoted to a root.
            Some(p) if ids.contains(&p.get()) => children_of.entry(p.get()).or_default().push(raw),
            _ => roots.push(raw),
        }
    }
    // Canonical root order: setup roots (no datalog attribute) first in
    // start order, then job roots by (datalog, name, slot).
    let mut keyed: Vec<(RootKey, SpanNode)> = roots
        .into_iter()
        .map(|r| {
            let node = build_node(r, &children_of);
            (root_key(&node, r.id), node)
        })
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, n)| n).collect()
}

type RootKey = (u8, u64, &'static str, u64, u64);

fn root_key(node: &SpanNode, id: u64) -> RootKey {
    match node.attr("datalog") {
        // Setup roots run sequentially on the coordinator: their mutual
        // id order is deterministic even though absolute values are not.
        None => (0, 0, node.name, 0, id),
        Some(datalog) => (1, datalog, node.name, node.attr("slot").unwrap_or(0), 0),
    }
}

fn node_json(out: &mut String, node: &SpanNode, redact: bool, indent: usize) {
    let pad = "  ".repeat(indent);
    out.push_str(&pad);
    out.push_str("{ \"name\": ");
    json::write_string(out, node.name);
    if !node.attrs.is_empty() {
        out.push_str(", \"attrs\": {");
        for (i, (k, v)) in node.attrs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            } else {
                out.push(' ');
            }
            json::write_string(out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str(" }");
    }
    if !redact {
        out.push_str(&format!(
            ", \"thread\": {}, \"start_us\": {}, \"duration_us\": {}",
            node.thread, node.start_us, node.duration_us
        ));
    }
    if node.children.is_empty() {
        out.push_str(" }");
    } else {
        out.push_str(", \"children\": [\n");
        for (i, child) in node.children.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            node_json(out, child, redact, indent + 1);
        }
        out.push('\n');
        out.push_str(&pad);
        out.push_str("] }");
    }
}

/// Serializes a canonical forest as `{"trace": [...]}`. With `redact`,
/// thread ids, start offsets and durations are omitted so the output is
/// byte-identical for any scheduling of the same input.
pub fn forest_json(forest: &[SpanNode], redact: bool) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{ \"trace\": [\n");
    for (i, node) in forest.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        node_json(&mut out, node, redact, 1);
    }
    out.push_str("\n] }\n");
    out
}
