//! The collector: a process-global, installable store of metrics —
//! counters, gauges and latency histograms.
//!
//! Instrumentation sites call the free functions ([`counter`],
//! [`gauge_set`], [`observe_us`], …). When no collector is installed
//! they cost **one relaxed atomic load** and return immediately — the
//! overhead budget of the hot CPT/ranking paths, enforced by
//! `disabled_span_site_costs_almost_nothing`. When a [`Collector`] is
//! installed (see [`Collector::install`]) the calls record into it from
//! any thread. Spans are not kept here: a finished span goes to the
//! [`TraceContext`](crate::TraceContext) entered on its thread, and a
//! [`stage`](crate::stage) span only adds its duration to the
//! collector's histogram of the same name.
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

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, Stability};

/// Count of live installs (global + thread-local, process-wide). The
/// disabled fast path is exactly one relaxed load of this.
static INSTALLS: AtomicUsize = AtomicUsize::new(0);
static ACTIVE: RwLock<Option<Arc<Inner>>> = RwLock::new(None);

thread_local! {
    /// A thread-scoped collector installed by
    /// [`Collector::install_local`]; shadows the global one on this
    /// thread. Used by unit tests that must not observe (or pollute)
    /// concurrently running instrumented code on other threads.
    static LOCAL: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Debug, Default)]
struct MetricsStore {
    counters: std::collections::BTreeMap<&'static str, (u64, Stability)>,
    gauges: std::collections::BTreeMap<&'static str, (u64, Stability)>,
    histograms: std::collections::BTreeMap<&'static str, HistogramSnapshot>,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    metrics: Mutex<MetricsStore>,
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

    pub(crate) fn observe_us(&self, name: &'static str, us: u64, count_stability: Stability) {
        let mut m = lock(&self.metrics);
        m.histograms
            .entry(name)
            .or_insert_with(|| HistogramSnapshot::new(count_stability))
            .record(us);
    }
}

/// The collector this thread records into, if any is installed.
pub(crate) fn active() -> Option<Arc<Inner>> {
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

/// A handle to one run's metrics. Create one,
/// [`install`](Collector::install) it around instrumented code, then
/// export with [`snapshot`](Collector::snapshot).
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl Collector {
    /// A fresh, empty collector (not yet installed).
    pub fn new() -> Self {
        Collector::default()
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
