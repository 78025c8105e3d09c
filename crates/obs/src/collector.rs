//! The collector: a process-global, installable sink for spans and
//! metrics.
//!
//! Instrumentation sites call the free functions ([`counter`],
//! [`gauge_set`], [`observe_us`], [`span`], [`stage`], …). When no
//! collector is installed and no trace is entered they cost **two
//! relaxed atomic loads** and return immediately — the overhead budget
//! of the hot CPT/ranking paths, enforced by
//! `disabled_span_site_costs_almost_nothing`. When a [`Collector`] is
//! installed (see [`Collector::install`]) the calls record into it from
//! any thread; when the thread has additionally entered a per-request
//! [`TraceContext`](crate::TraceContext), finished spans are *also*
//! recorded into that trace.
//!
//! The active collector is process-global state: installing from two
//! threads at once stacks (last install wins until its guard drops,
//! which restores the previous collector). The batch engine installs a
//! collector around one run; concurrent runs therefore share whichever
//! collector was installed last — acceptable for a diagnosis CLI, and
//! documented here rather than hidden. Tests that need isolation from
//! concurrently running instrumented code use
//! [`Collector::install_local`], which scopes recording to the calling
//! thread.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, Stability};
use crate::span::{build_forest, SpanNode};

/// Count of live installs (global + thread-local, process-wide). The
/// disabled fast path is exactly one relaxed load of this.
static INSTALLS: AtomicUsize = AtomicUsize::new(0);
static ACTIVE: RwLock<Option<Arc<Inner>>> = RwLock::new(None);
/// Small dense per-thread ids (worker threads of one process), assigned
/// on first use.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Process-global span id counter, shared by the collector and
/// per-request traces so one open span can record into both with
/// consistent parent linkage. Ids are handed out in start order, so they
/// also order siblings (which run sequentially on one thread); only
/// *relative* order matters downstream, so a global counter preserves
/// every canonicalization guarantee.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
    /// Ids of the spans currently open on this thread, innermost last —
    /// the parent linkage of new spans.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// A thread-scoped collector installed by
    /// [`Collector::install_local`]; shadows the global one on this
    /// thread. Used by unit tests that must not observe (or pollute)
    /// concurrently running instrumented code on other threads.
    static LOCAL: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };
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

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Most attributes a span keeps: a batch job's identity (datalog, slot).
const MAX_ATTRS: usize = 2;

/// A span's attributes, held inline, so opening and recording a span
/// allocates nothing. With a heap `Vec` here, the daemon's request
/// throughput on a small design fell by about a tenth once every job span
/// carried attributes. An empty key marks an unused slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attrs([(&'static str, u64); MAX_ATTRS]);

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

    pub(crate) fn as_slice(&self) -> &[(&'static str, u64)] {
        let len = self.0.iter().take_while(|(key, _)| !key.is_empty()).count();
        &self.0[..len]
    }
}

/// One finished span as recorded, before canonicalization.
#[derive(Debug, Clone)]
pub(crate) struct RawSpan {
    pub(crate) id: u64,
    pub(crate) parent: Option<NonZeroU64>,
    pub(crate) name: &'static str,
    pub(crate) attrs: Attrs,
    pub(crate) thread: u64,
    pub(crate) start_us: u64,
    pub(crate) duration_us: u64,
}

#[derive(Debug, Default)]
struct MetricsStore {
    counters: std::collections::BTreeMap<&'static str, (u64, Stability)>,
    gauges: std::collections::BTreeMap<&'static str, (u64, Stability)>,
    histograms: std::collections::BTreeMap<&'static str, HistogramSnapshot>,
}

#[derive(Debug)]
pub(crate) struct Inner {
    epoch: Instant,
    metrics: Mutex<MetricsStore>,
    spans: Mutex<Vec<RawSpan>>,
    /// Whether finished spans are kept for [`Collector::span_forest`].
    keep_spans: bool,
}

impl Inner {
    fn counter(&self, name: &'static str, delta: u64, stability: Stability) {
        let mut m = lock(&self.metrics);
        let entry = m.counters.entry(name).or_insert((0, stability));
        entry.0 += delta;
        entry.1 = entry.1.merge(stability);
    }

    fn gauge_set(&self, name: &'static str, value: u64, stability: Stability) {
        let mut m = lock(&self.metrics);
        let entry = m.gauges.entry(name).or_insert((value, stability));
        entry.0 = value;
        entry.1 = entry.1.merge(stability);
    }

    fn observe_us(&self, name: &'static str, us: u64, count_stability: Stability) {
        let mut m = lock(&self.metrics);
        m.histograms
            .entry(name)
            .or_insert_with(|| HistogramSnapshot::new(count_stability))
            .record(us);
    }
}

fn active() -> Option<Arc<Inner>> {
    if INSTALLS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    if let Some(local) = LOCAL.with(|l| l.borrow().clone()) {
        return Some(local);
    }
    match ACTIVE.read() {
        Ok(g) => g.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

/// Whether any collector is currently installed (globally or
/// thread-locally anywhere in the process). Instrumentation sites do
/// not need to call this — every recording function checks it first —
/// but callers can use it to skip building expensive labels.
pub fn enabled() -> bool {
    INSTALLS.load(Ordering::Relaxed) > 0
}

/// Adds `delta` to the named counter (no-op when disabled).
pub fn counter(name: &'static str, delta: u64, stability: Stability) {
    if let Some(inner) = active() {
        inner.counter(name, delta, stability);
    }
}

/// Sets the named gauge (last write wins; no-op when disabled).
pub fn gauge_set(name: &'static str, value: u64, stability: Stability) {
    if let Some(inner) = active() {
        inner.gauge_set(name, value, stability);
    }
}

/// Records one sample (µs) into the named histogram (no-op when
/// disabled). The histogram's *count* is declared scheduling-stable; use
/// [`observe_us_unstable`] when even the sample count varies with the
/// worker count.
pub fn observe_us(name: &'static str, us: u64) {
    if let Some(inner) = active() {
        inner.observe_us(name, us, Stability::Stable);
    }
}

/// [`observe_us`] for histograms whose sample count is itself
/// scheduling-dependent (e.g. one sample per worker thread).
pub fn observe_us_unstable(name: &'static str, us: u64) {
    if let Some(inner) = active() {
        inner.observe_us(name, us, Stability::Timing);
    }
}

/// An open span; finishing (dropping) it records the span and,
/// for [`stage`] spans, a latency histogram sample. `None` inside when
/// the collector is disabled — the whole guard is then a no-op.
#[derive(Debug)]
pub struct SpanGuard(Option<OpenSpan>);

#[derive(Debug)]
struct OpenSpan {
    inner: Option<Arc<Inner>>,
    trace: Option<Arc<crate::trace::TraceInner>>,
    id: u64,
    parent: Option<NonZeroU64>,
    name: &'static str,
    attrs: Attrs,
    start: Instant,
    /// Start offset relative to the *collector's* epoch (the trace sink
    /// recomputes its own offset from `start`).
    start_us: u64,
    record_histogram: bool,
}

fn open_span(
    name: &'static str,
    attrs: &[(&'static str, u64)],
    record_histogram: bool,
) -> SpanGuard {
    // The disabled fast path: two relaxed loads, no further work.
    if INSTALLS.load(Ordering::Relaxed) == 0 && !crate::trace::any_entered() {
        return SpanGuard(None);
    }
    let inner = active();
    let trace = crate::trace::current();
    if inner.is_none() && trace.is_none() {
        return SpanGuard(None);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().and_then(NonZeroU64::new);
        s.push(id);
        parent
    });
    let start = Instant::now();
    SpanGuard(Some(OpenSpan {
        start_us: inner
            .as_ref()
            .map(|i| start.duration_since(i.epoch).as_micros() as u64)
            .unwrap_or(0),
        inner,
        trace,
        id,
        parent,
        name,
        attrs: Attrs::new(attrs),
        start,
        record_histogram,
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
        let raw = RawSpan {
            id: open.id,
            parent: open.parent,
            name: open.name,
            attrs: open.attrs,
            thread: thread_id(),
            start_us: open.start_us,
            duration_us,
        };
        if let Some(trace) = open.trace {
            trace.record_span(raw.clone(), open.start);
        }
        if let Some(inner) = open.inner {
            if open.record_histogram {
                inner.observe_us(open.name, duration_us, Stability::Stable);
            }
            if inner.keep_spans {
                lock(&inner.spans).push(raw);
            }
        }
    }
}

/// Builds a finished root-level span record for work measured outside
/// the guard machinery — e.g. the frame decode that *produces* a
/// request's trace id, which necessarily completes before the trace
/// exists. Only the trace sink injects these.
pub(crate) fn external_raw_span(name: &'static str, duration_us: u64) -> RawSpan {
    RawSpan {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: None,
        name,
        attrs: Attrs::new(&[]),
        thread: thread_id(),
        start_us: 0,
        duration_us,
    }
}

/// Opens a span named `name` as a child of the thread's innermost open
/// span. One atomic load when disabled.
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
/// duration into the latency histogram of the same name on close — the
/// per-stage latency metric of the diagnosis flow.
pub fn stage(name: &'static str) -> SpanGuard {
    open_span(name, &[], true)
}

/// A handle to one run's recorded observability data. Create one, pass
/// it to an instrumented driver (or [`install`](Collector::install) it
/// around arbitrary code), then export with
/// [`snapshot`](Collector::snapshot) /
/// [`span_forest`](Collector::span_forest) /
/// [`trace_json`](Collector::trace_json).
#[derive(Debug, Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// A fresh, empty collector (not yet installed).
    pub fn new() -> Self {
        Collector::with_spans(true)
    }

    /// A collector that records metrics (counters, gauges, stage
    /// histograms) but drops finished spans, so its memory stays bounded
    /// in a long-running process that never reads the span forest.
    /// [`span_forest`](Collector::span_forest) is always empty.
    pub fn metrics_only() -> Self {
        Collector::with_spans(false)
    }

    fn with_spans(keep_spans: bool) -> Self {
        Collector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                metrics: Mutex::default(),
                spans: Mutex::default(),
                keep_spans,
            }),
        }
    }

    /// Makes this collector the process-global recording target until
    /// the returned guard drops (which restores the previously installed
    /// collector, if any).
    #[must_use = "recording stops when the guard drops"]
    pub fn install(&self) -> InstallGuard {
        let prev = {
            let mut slot = match ACTIVE.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.replace(Arc::clone(&self.inner))
        };
        INSTALLS.fetch_add(1, Ordering::Relaxed);
        InstallGuard { prev }
    }

    /// Makes this collector the recording target for the **current
    /// thread only** until the returned guard drops. A thread-local
    /// install shadows any global one on this thread and is invisible to
    /// other threads — the isolation unit tests need to count metrics
    /// deterministically while sibling tests run instrumented code
    /// concurrently.
    #[must_use = "recording stops when the guard drops"]
    pub fn install_local(&self) -> LocalInstallGuard {
        let prev = LOCAL.with(|l| l.borrow_mut().replace(Arc::clone(&self.inner)));
        INSTALLS.fetch_add(1, Ordering::Relaxed);
        LocalInstallGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// An immutable capture of every metric recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = lock(&self.inner.metrics);
        MetricsSnapshot {
            counters: m.counters.clone(),
            gauges: m.gauges.clone(),
            histograms: m.histograms.clone(),
        }
    }

    /// The finished spans as a canonical forest: roots ordered by their
    /// job identity (`datalog`/`slot` attributes) rather than completion
    /// order, children by start order — reproducible at any worker
    /// count.
    pub fn span_forest(&self) -> Vec<SpanNode> {
        build_forest(&lock(&self.inner.spans))
    }

    /// The span forest as JSON. With `redact`, timing- and
    /// scheduling-dependent fields (thread, start, duration) are
    /// omitted, leaving the structurally deterministic tree.
    pub fn trace_json(&self, redact: bool) -> String {
        crate::span::forest_json(&self.span_forest(), redact)
    }
}

/// Uninstalls the collector on drop, restoring the previous one.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<Arc<Inner>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        {
            let mut slot = match ACTIVE.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *slot = self.prev.take();
        }
        INSTALLS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Uninstalls a thread-local collector on drop, restoring the thread's
/// previous one. `!Send`: must drop on the installing thread.
#[derive(Debug)]
pub struct LocalInstallGuard {
    prev: Option<Arc<Inner>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for LocalInstallGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
        INSTALLS.fetch_sub(1, Ordering::Relaxed);
    }
}
