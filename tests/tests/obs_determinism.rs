//! Observability determinism, asserted end to end: the *redacted*
//! exports of an observed batch run — the canonical span tree without
//! timings and the metrics snapshot without timing-class values — are
//! byte-identical at 1 and 8 workers.
//!
//! The unredacted exports legitimately differ (latencies, thread ids,
//! queue high-water, cache hit/miss splits); the redaction contract is what
//! makes observed runs comparable across machines and worker counts.
//!
//! An observed run installs a collector (metrics) and enters a trace
//! (spans) around the batch; the engine hands the trace to every job.
//! The collector is process global, so the tests in this binary
//! serialize on a local lock (other integration test files are separate
//! processes and cannot interfere).

use std::sync::{Arc, Mutex, MutexGuard};

use icd_engine::flow::ExperimentContext;
use icd_engine::{synthesize_batch, BatchConfig, BatchEngine, Collector, EngineConfig};
use icd_faultsim::Datalog;
use icd_obs::TraceContext;

static OBSERVED: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    match OBSERVED.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Circuit A with a synthesized batch plus one all-pass device, the same
/// fixture shape as `engine_determinism.rs`.
fn batch_fixture() -> (Arc<ExperimentContext>, Vec<Datalog>) {
    let ctx = ExperimentContext::circuit_a().expect("circuit A builds");
    let mut batch = synthesize_batch(&ctx, &BatchConfig::new(5, 0xd1a6)).expect("synthesizes");
    assert!(batch.len() >= 3, "fixture needs several failing devices");
    batch.push(Datalog {
        circuit_name: ctx.circuit.name().to_owned(),
        num_patterns: ctx.patterns.len(),
        entries: vec![],
    });
    (ctx.into_shared(), batch)
}

/// One observed run: (redacted trace JSON, redacted metrics JSON).
fn observed_run(
    workers: usize,
    ctx: &Arc<ExperimentContext>,
    batch: &[Datalog],
) -> (String, String) {
    let engine = BatchEngine::new(EngineConfig::with_workers(workers));
    let collector = Collector::new();
    let trace = TraceContext::new(1);
    let report = {
        let _recording = collector.install();
        let _entered = trace.enter();
        engine.diagnose_batch(ctx, batch, &Default::default())
    }
    .expect("batch runs");
    assert_eq!(report.outcomes.len(), batch.len());
    (
        icd_obs::forest_json(&trace.span_forest(), true),
        collector.snapshot().redacted().to_json(),
    )
}

#[test]
fn redacted_trace_and_metrics_are_byte_identical_across_worker_counts() {
    let _serial = serial();
    let (ctx, batch) = batch_fixture();
    let (trace_one, metrics_one) = observed_run(1, &ctx, &batch);
    let (trace_eight, metrics_eight) = observed_run(8, &ctx, &batch);
    assert_eq!(
        trace_one, trace_eight,
        "redacted span trees diverge between 1 and 8 workers"
    );
    assert_eq!(
        metrics_one, metrics_eight,
        "redacted metrics snapshots diverge between 1 and 8 workers"
    );
    // Sanity: the redacted exports still carry the structure.
    assert!(trace_one.contains("\"batch.suspect\""));
    assert!(trace_one.contains("\"flow.intra_cell\""));
    assert!(metrics_one.contains("\"batch.suspect_jobs\""));
    assert!(metrics_one.contains("\"cache.cpt.lookups\""));
}

#[test]
fn eventsim_counters_are_present_and_scheduling_stable() {
    let _serial = serial();
    let (ctx, batch) = batch_fixture();

    let eventsim_counters = |workers: usize| -> Vec<(String, u64)> {
        let engine = BatchEngine::new(EngineConfig::with_workers(workers));
        let collector = Collector::new();
        let report = {
            let _recording = collector.install();
            engine.diagnose_batch(&ctx, batch.as_slice(), &Default::default())
        }
        .expect("batch runs");
        assert_eq!(report.outcomes.len(), batch.len());
        let snap = collector.snapshot();
        snap.counters
            .iter()
            .filter(|(name, _)| name.starts_with("eventsim."))
            .map(|(name, v)| (name.to_string(), v.0))
            .collect()
    };

    let one = eventsim_counters(1);
    let eight = eventsim_counters(8);
    // The event-driven simulator runs on the diagnosis path and its
    // counters are per-datalog sums, so they must be byte-identical no
    // matter how the scheduler interleaves the jobs.
    assert!(
        one.iter()
            .any(|(name, v)| name == "eventsim.gates_evaluated" && *v > 0),
        "the event-driven path should evaluate gates during diagnosis: {one:?}"
    );
    assert_eq!(
        one, eight,
        "eventsim counters diverge between 1 and 8 workers"
    );
}

#[test]
fn observed_run_records_job_spans_and_stage_histograms() {
    let _serial = serial();
    let (ctx, batch) = batch_fixture();
    let engine = BatchEngine::new(EngineConfig::with_workers(4));
    let collector = Collector::new();
    let trace = TraceContext::new(1);
    let report = {
        let _recording = collector.install();
        let _entered = trace.enter();
        engine.diagnose_batch(&ctx, &batch, &Default::default())
    }
    .expect("batch runs");

    // One front span per datalog, one suspect span per suspect job —
    // the span forest mirrors the merge identity space.
    let forest = trace.span_forest();
    let fronts = forest.iter().filter(|n| n.name == "batch.front").count();
    let suspects = forest.iter().filter(|n| n.name == "batch.suspect").count();
    assert_eq!(fronts, batch.len());
    assert_eq!(suspects, report.stats.suspect_jobs);

    let snap = collector.snapshot();
    assert_eq!(snap.counters["batch.datalogs"].0, batch.len() as u64);
    assert_eq!(
        snap.counters["batch.suspect_jobs"].0,
        report.stats.suspect_jobs as u64
    );
    // Every job executed exactly once: fronts + suspects.
    assert_eq!(
        snap.counters["pool.jobs_executed"].0,
        (batch.len() + report.stats.suspect_jobs) as u64
    );
    assert_eq!(snap.gauges["pool.workers"].0, 4);
    // Per-stage latency histograms carry one sample per invocation.
    assert_eq!(snap.histograms["flow.sanitize"].count, batch.len() as u64);
    assert_eq!(
        snap.histograms["flow.analyze_suspect"].count,
        report.stats.suspect_jobs as u64
    );
    // Cache lookup totals in the snapshot agree with the engine's own
    // stats (the hit/miss split may differ between observers, the total
    // cannot).
    let table = report.stats.table_cache;
    assert_eq!(
        snap.counters["cache.table.lookups"].0,
        (table.hits + table.misses) as u64
    );
}

#[test]
fn unobserved_runs_record_nothing() {
    let _serial = serial();
    let (ctx, batch) = batch_fixture();
    let engine = BatchEngine::new(EngineConfig::with_workers(2));
    let bystander = Collector::new();
    let bystander_trace = TraceContext::new(1);
    // No collector attached and no trace entered: instrumentation stays
    // disabled end to end, and an uninstalled collector and an unentered
    // trace see nothing.
    let report = engine
        .diagnose_batch(&ctx, &batch, &Default::default())
        .expect("batch runs");
    assert_eq!(report.outcomes.len(), batch.len());
    assert!(bystander.snapshot().counters.is_empty());
    assert!(bystander_trace.span_forest().is_empty());
}
