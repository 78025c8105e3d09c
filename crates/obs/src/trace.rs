//! Per-request traces: the one place finished spans are kept.
//!
//! The server mints (or accepts from the client) a 64-bit trace id per
//! wire request and creates a [`TraceContext`]; `icdiag run --trace-out`
//! creates one around its batch. Every thread that does work for the
//! request — the connection thread around frame decode and response
//! encode, each engine worker inside the request's jobs —
//! [`enter`](TraceContext::enter)s the context for the duration of that
//! work. While entered, every span opened by [`span`](crate::span) /
//! [`stage`](crate::stage) is recorded into the trace, so one request's
//! full span forest (frame decode → engine job → flow stages) can be
//! serialized as a single structured event-log record. A span opened
//! with no trace entered is not kept anywhere.
//!
//! Timestamped point events (retries, degradations, per-device
//! progress) attach to the trace via [`TraceContext::event`].
//!
//! Cost model: the disabled instrumentation fast path is one relaxed
//! atomic load of the entered-trace count (plus one of the collector
//! installs for a stage span); entering a trace is a thread-local swap.
//! Contexts are `Send + Sync` and cheap to clone (an `Arc`).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::span::{build_forest, external_raw_span, RawSpan, SpanNode};

/// Count of entered trace guards process-wide; the disabled fast path
/// in the span sites loads this once, relaxed.
static ENTERED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The trace the current thread is doing work for, if any.
    static CURRENT: RefCell<Option<Arc<TraceInner>>> = const { RefCell::new(None) };
}

/// The trace the calling thread has entered, if any: one relaxed load
/// when no trace is entered anywhere.
pub(crate) fn current() -> Option<Arc<TraceInner>> {
    if ENTERED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One timestamped point event on a trace (a retry, a degradation, a
/// per-device completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the trace was created.
    pub at_us: u64,
    /// A static site label, e.g. `retry.panic`.
    pub kind: &'static str,
    /// Free-form detail, kept short (one line).
    pub detail: String,
}

#[derive(Debug)]
pub(crate) struct TraceInner {
    trace_id: u64,
    epoch: Instant,
    spans: Mutex<Vec<RawSpan>>,
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceInner {
    /// Microseconds from the trace's creation to `start` (zero for an
    /// earlier `start`).
    pub(crate) fn offset_us(&self, start: Instant) -> u64 {
        start.duration_since(self.epoch).as_micros() as u64
    }

    pub(crate) fn record_span(&self, raw: RawSpan) {
        lock(&self.spans).push(raw);
    }

    fn event(&self, kind: &'static str, detail: String) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        lock(&self.events).push(TraceEvent {
            at_us,
            kind,
            detail,
        });
    }
}

/// A handle to one request's trace. Clone it into every closure that
/// does work for the request and [`enter`](TraceContext::enter) it on
/// the executing thread.
#[derive(Debug, Clone)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl TraceContext {
    /// A fresh trace with the given wire trace id.
    pub fn new(trace_id: u64) -> Self {
        TraceContext {
            inner: Arc::new(TraceInner {
                trace_id,
                epoch: Instant::now(),
                spans: Mutex::default(),
                events: Mutex::default(),
            }),
        }
    }

    /// The trace the calling thread has entered, if any — the innermost
    /// one while [`enter`](TraceContext::enter)s nest. A coordinator
    /// reads it to hand the caller's trace to the jobs it runs on other
    /// threads.
    pub fn current() -> Option<TraceContext> {
        current().map(|inner| TraceContext { inner })
    }

    /// The 64-bit wire trace id.
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// Makes this trace the current one for the calling thread until
    /// the guard drops (restoring whatever was current before). Spans
    /// opened while entered are recorded into the trace.
    #[must_use = "the trace detaches when the guard drops"]
    pub fn enter(&self) -> TraceGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.inner)));
        ENTERED.fetch_add(1, Ordering::Relaxed);
        TraceGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// Records a timestamped point event on the trace.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) {
        self.inner.event(kind, detail.into());
    }

    /// Records an already-measured root span into the trace — for work
    /// that finishes before the trace can exist, like the frame decode
    /// that produced the trace id. A `start` earlier than the trace's
    /// creation clamps to offset zero.
    pub fn record_span_external(
        &self,
        name: &'static str,
        start: Instant,
        duration: std::time::Duration,
    ) {
        let start_us = self.inner.offset_us(start);
        let raw = external_raw_span(name, start_us, duration.as_micros() as u64);
        self.inner.record_span(raw);
    }

    /// The recorded point events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.inner.events).clone()
    }

    /// The finished spans as a canonical forest: roots ordered by their
    /// job identity (`datalog`/`slot` attributes) rather than completion
    /// order, children by start order — reproducible at any worker
    /// count.
    pub fn span_forest(&self) -> Vec<SpanNode> {
        build_forest(&lock(&self.inner.spans))
    }
}

/// Detaches the trace from the thread on drop, restoring the previous
/// one. `!Send`: must drop on the entering thread.
#[derive(Debug)]
pub struct TraceGuard {
    prev: Option<Arc<TraceInner>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        ENTERED.fetch_sub(1, Ordering::Relaxed);
    }
}

static NEXT_MINT: AtomicU64 = AtomicU64::new(0);

/// Mints a process-unique, non-zero trace id for requests that did not
/// supply one: a counter whose high bits are scrambled with a SplitMix64
/// finalizer so ids from different processes rarely collide visually.
pub fn mint_trace_id() -> u64 {
    let n = NEXT_MINT.fetch_add(1, Ordering::Relaxed);
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z | 1 // never zero: zero means "no trace id" on the wire
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn events_record_in_order_with_timestamps() {
        let trace = TraceContext::new(7);
        trace.event("first", "a");
        trace.event("second", "b");
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "first");
        assert_eq!(events[1].kind, "second");
        assert!(events[0].at_us <= events[1].at_us);
    }

    #[test]
    fn external_spans_land_as_roots_with_clamped_start() {
        let trace = TraceContext::new(9);
        // Started "before" the trace existed: offset clamps to zero.
        let early = Instant::now() - std::time::Duration::from_millis(50);
        trace.record_span_external("t.decode", early, std::time::Duration::from_micros(123));
        let forest = trace.span_forest();
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].name, "t.decode");
        assert_eq!(forest[0].start_us, 0);
        assert_eq!(forest[0].duration_us, 123);
    }

    #[test]
    fn current_is_the_innermost_entered_trace() {
        assert!(TraceContext::current().is_none(), "nothing entered yet");
        let outer = TraceContext::new(1);
        let inner = TraceContext::new(2);
        {
            let _a = outer.enter();
            assert_eq!(TraceContext::current().map(|t| t.trace_id()), Some(1));
            {
                let _b = inner.enter();
                assert_eq!(TraceContext::current().map(|t| t.trace_id()), Some(2));
                // The handle shares the entered trace: events land in it.
                if let Some(current) = TraceContext::current() {
                    current.event("via-current", "x");
                }
            }
            assert_eq!(TraceContext::current().map(|t| t.trace_id()), Some(1));
        }
        assert!(TraceContext::current().is_none(), "every guard dropped");
        assert_eq!(inner.events().len(), 1);
        assert!(outer.events().is_empty());
    }

    #[test]
    fn enter_nests_and_restores() {
        let outer = TraceContext::new(1);
        let inner = TraceContext::new(2);
        let _a = outer.enter();
        {
            let _b = inner.enter();
            drop(crate::span("e.inner_wins"));
        }
        drop(crate::span("e.outer_restored"));
        let names =
            |t: &TraceContext| -> Vec<&str> { t.span_forest().iter().map(|n| n.name).collect() };
        assert_eq!(names(&inner), ["e.inner_wins"]);
        assert_eq!(names(&outer), ["e.outer_restored"]);
    }
}
