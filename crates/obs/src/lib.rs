//! `icd-obs` — std-only observability for the diagnosis pipeline.
//!
//! The diagnosis stack (datalog sanitation → inter-cell diagnosis →
//! per-suspect intra-cell CPT analysis, parallelized by `icd-engine`) is
//! a multi-stage, multi-threaded system; this crate is the measurement
//! layer that makes it attributable:
//!
//! * **Spans** — [`span`] / [`stage`] open a [`SpanGuard`] with
//!   monotonic timing, a dense thread id and parent linkage via a
//!   thread-local stack; [`Collector::span_forest`] canonicalizes the
//!   finished spans into a forest ordered by job identity (datalog
//!   index, suspect slot), so traces are reproducible at any worker
//!   count.
//! * **Metrics** — [`counter`], [`gauge_set`] and latency histograms
//!   with fixed log₂ buckets ([`observe_us`]); every value carries a
//!   [`Stability`] class so [`MetricsSnapshot::redacted`] can strip the
//!   scheduling-dependent parts for byte-identical comparison.
//! * **A process-global collector** — instrumentation sites are free
//!   functions costing **two relaxed atomic loads** when no
//!   [`Collector`] is installed and no trace is entered, so the hot
//!   CPT/ranking paths can stay instrumented always.
//! * **Per-request traces** — a [`TraceContext`] entered on every
//!   thread serving one wire request records that request's span forest
//!   and point events ([`trace_event`]) independently of the
//!   process-global stream, for structured per-request logging.
//! * **Rolling windows** — [`WindowedHistogram`] keeps a ring of time
//!   slices so a live endpoint can report p50/p95/p99
//!   ([`HistogramSnapshot::percentile_us`]) over recent traffic.
//! * **Export** — [`MetricsSnapshot::to_json`], a human `Display`
//!   summary table, span-tree JSON with a redaction mode, a rotating
//!   JSONL [`EventLog`], and a minimal [`json`] parser for offline
//!   validation tooling.
//!
//! ```
//! use icd_obs::Collector;
//!
//! let collector = Collector::new();
//! {
//!     let _active = collector.install();
//!     let _outer = icd_obs::stage("example.outer");
//!     let _inner = icd_obs::span("example.inner");
//!     icd_obs::counter("example.count", 2, icd_obs::Stability::Stable);
//! }
//! let snapshot = collector.snapshot();
//! assert_eq!(snapshot.counters["example.count"].0, 2);
//! let forest = collector.span_forest();
//! assert_eq!(forest[0].children[0].name, "example.inner");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]

mod collector;
mod eventlog;
pub mod json;
mod metrics;
mod span;
mod trace;
mod window;

pub use collector::{
    counter, enabled, gauge_set, observe_us, observe_us_unstable, span, span_with, stage,
    Collector, InstallGuard, LocalInstallGuard, SpanGuard,
};
pub use eventlog::{EventLog, DEFAULT_MAX_BYTES};
pub use metrics::{
    bucket_index, bucket_lower_bound_us, HistogramSnapshot, MetricsSnapshot, Stability, BUCKETS,
};
pub use span::{forest_json, SpanNode};
pub use trace::{mint_trace_id, trace_event, TraceContext, TraceEvent, TraceGuard};
pub use window::WindowedHistogram;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Instant;

    /// The collector is process-global; tests that install (or measure
    /// the disabled path) serialize on this.
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        match GLOBAL.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _serial = serial();
        let collector = Collector::new();
        // Not installed: everything is a no-op.
        counter("t.counter", 5, Stability::Stable);
        observe_us("t.hist", 10);
        drop(span("t.span"));
        let snap = collector.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(collector.span_forest().is_empty());
        assert!(!enabled());
    }

    #[test]
    fn install_guard_scopes_recording_and_nests() {
        let _serial = serial();
        let outer = Collector::new();
        let inner = Collector::new();
        {
            let _a = outer.install();
            counter("t.scope", 1, Stability::Stable);
            {
                let _b = inner.install();
                counter("t.scope", 10, Stability::Stable);
            }
            // Outer collector restored.
            counter("t.scope", 100, Stability::Stable);
        }
        counter("t.scope", 1000, Stability::Stable); // nothing installed
        assert_eq!(outer.snapshot().counters["t.scope"].0, 101);
        assert_eq!(inner.snapshot().counters["t.scope"].0, 10);
        assert!(!enabled());
    }

    #[test]
    fn spans_nest_by_thread_local_stack_and_cross_threads() {
        let _serial = serial();
        let collector = Collector::new();
        {
            let _active = collector.install();
            let _root = span_with("t.root", &[("datalog", 3)]);
            {
                let _child = stage("t.child");
                let _grandchild = span("t.grandchild");
            }
            let handle = std::thread::spawn(|| {
                // Fresh thread: empty stack, so this is a root.
                drop(span_with("t.other_root", &[("datalog", 1), ("slot", 2)]));
            });
            handle.join().unwrap();
        }
        let forest = collector.span_forest();
        assert_eq!(forest.len(), 2);
        // Job roots sort by datalog index, not completion order.
        assert_eq!(forest[0].name, "t.other_root");
        assert_eq!(forest[1].name, "t.root");
        assert_eq!(forest[1].children.len(), 1);
        assert_eq!(forest[1].children[0].name, "t.child");
        assert_eq!(forest[1].children[0].children[0].name, "t.grandchild");
        assert_eq!(forest[1].size(), 3);
        // The stage span recorded its latency histogram.
        assert_eq!(collector.snapshot().histograms["t.child"].count, 1);
    }

    #[test]
    fn a_span_keeps_its_first_two_keyed_attributes() {
        let _serial = serial();
        let collector = Collector::new();
        {
            let _active = collector.install();
            let attrs = [("", 7), ("datalog", 4), ("slot", 1), ("extra", 9)];
            drop(span_with("t.job", &attrs));
        }
        let forest = collector.span_forest();
        assert_eq!(forest[0].attrs, vec![("datalog", 4), ("slot", 1)]);
    }

    #[test]
    fn metrics_only_collector_keeps_histograms_but_no_spans() {
        let _serial = serial();
        let collector = Collector::metrics_only();
        {
            let _active = collector.install();
            for _ in 0..3 {
                let _root = span_with("t.request", &[("datalog", 0)]);
                let _stage = stage("t.stage");
                counter("t.requests", 1, Stability::Stable);
            }
        }
        assert!(collector.span_forest().is_empty());
        let snap = collector.snapshot();
        assert_eq!(snap.histograms["t.stage"].count, 3);
        assert_eq!(snap.counters["t.requests"].0, 3);
    }

    #[test]
    fn install_local_scopes_recording_to_the_calling_thread() {
        let _serial = serial();
        let local = Collector::new();
        let global = Collector::new();
        {
            let _g = global.install();
            let _l = local.install_local();
            // This thread records into the local collector…
            counter("t.local", 1, Stability::Stable);
            // …while other threads still see the global one.
            std::thread::spawn(|| counter("t.local", 10, Stability::Stable))
                .join()
                .unwrap();
        }
        assert_eq!(local.snapshot().counters["t.local"].0, 1);
        assert_eq!(global.snapshot().counters["t.local"].0, 10);
        assert!(!enabled());
    }

    #[test]
    fn entered_traces_capture_spans_alongside_the_collector() {
        let _serial = serial();
        let collector = Collector::new();
        let trace = TraceContext::new(0xabc);
        {
            let _active = collector.install();
            let _entered = trace.enter();
            let _root = span("t.request");
            drop(stage("t.stage"));
        }
        let in_trace = trace.span_forest();
        assert_eq!(in_trace.len(), 1);
        assert_eq!(in_trace[0].name, "t.request");
        assert_eq!(in_trace[0].children[0].name, "t.stage");
        let in_collector = collector.span_forest();
        assert_eq!(in_collector.len(), 1);
        assert_eq!(in_collector[0].children[0].name, "t.stage");
        // Stage histograms stay a collector concern.
        assert_eq!(collector.snapshot().histograms["t.stage"].count, 1);
    }

    #[test]
    fn traces_record_spans_even_without_a_collector() {
        let _serial = serial();
        assert!(!enabled());
        let trace = TraceContext::new(1);
        {
            let _entered = trace.enter();
            drop(span("t.orphan"));
        }
        drop(span("t.after"));
        let forest = trace.span_forest();
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].name, "t.orphan");
    }

    #[test]
    fn trace_json_redaction_hides_timing_fields() {
        let _serial = serial();
        let collector = Collector::new();
        {
            let _active = collector.install();
            let _s = span_with("t.json", &[("datalog", 0)]);
        }
        let full = collector.trace_json(false);
        let redacted = collector.trace_json(true);
        assert!(full.contains("\"duration_us\""));
        assert!(full.contains("\"thread\""));
        assert!(!redacted.contains("\"duration_us\""));
        assert!(!redacted.contains("\"thread\""));
        assert!(redacted.contains("\"datalog\": 0"));
        // Both are valid JSON.
        json::parse(&full).expect("full trace parses");
        json::parse(&redacted).expect("redacted trace parses");
    }

    /// The disabled-overhead contract: an instrumented call site with no
    /// collector installed must cost no more than an atomic load and a
    /// branch. The bound is deliberately generous (debug builds, noisy
    /// CI): what it rules out is accidental locking, allocation or
    /// syscalls on the disabled path.
    #[test]
    fn disabled_span_site_costs_almost_nothing() {
        let _serial = serial();
        assert!(!enabled());
        let iterations: u64 = 200_000;

        // Baseline: the bare work.
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..iterations {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        let baseline = t0.elapsed();
        std::hint::black_box(acc);

        // Instrumented: the same work under a (disabled) stage span plus
        // a counter site — the shape of the hot CPT/ranking paths.
        let t1 = Instant::now();
        let mut acc = 0u64;
        for i in 0..iterations {
            let _s = stage("t.overhead");
            counter("t.overhead.count", 1, Stability::Stable);
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        let instrumented = t1.elapsed();
        std::hint::black_box(acc);

        let extra = instrumented.saturating_sub(baseline);
        let per_call_ns = extra.as_nanos() as f64 / iterations as f64;
        assert!(
            per_call_ns < 1_000.0,
            "disabled instrumentation costs {per_call_ns:.1} ns/site \
             (baseline {baseline:?}, instrumented {instrumented:?})"
        );
    }
}
