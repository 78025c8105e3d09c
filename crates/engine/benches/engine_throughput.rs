//! Batch-engine throughput: 1 worker vs N workers over one batch of
//! failing devices on a scaled-down circuit B.
//!
//! Besides the criterion display, the worker sweep writes the
//! machine-readable `BENCH_engine.json` at the workspace root:
//! wall-clock seconds, patterns/s, suspect-jobs/s and speedup vs one
//! worker, plus the host's core count (speedup saturates at the physical
//! parallelism — a single-core CI container reports ~1.0×, by design not
//! a failure). Each sweep point is the fastest of [`PASSES`] timed
//! passes (each on a cold cache), with the stage figures of that pass:
//! one pass alone spread about 2× between runs on a 2-vCPU host.
//!
//! Results are only comparable across equally-parallel hosts, so a run
//! on a *narrower* machine refuses to overwrite an existing
//! `BENCH_engine.json` recorded on a wider one (a laptop run must not
//! clobber the reference numbers from a 16-core box). Set
//! `ICD_BENCH_FORCE=1` to overwrite anyway.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use icd_core::AnalysisCache;
use icd_engine::flow::ExperimentContext;
use icd_engine::{synthesize_batch, BatchConfig, BatchEngine, Collector, EngineConfig};
use icd_faultsim::Datalog;
use icd_netlist::generator;

const DIVISOR: usize = 400;
const PATTERNS: usize = 64;
const DATALOGS: usize = 8;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Timed passes per sweep point; the fastest one is recorded.
const PASSES: usize = 5;

fn build_input() -> (Arc<ExperimentContext>, Vec<Datalog>) {
    let ctx = ExperimentContext::from_preset(&generator::circuit_b(), DIVISOR, PATTERNS)
        .expect("circuit B builds at bench scale");
    let batch =
        synthesize_batch(&ctx, &BatchConfig::new(DATALOGS, 0xbe7c4)).expect("batch synthesizes");
    assert!(!batch.is_empty(), "bench needs failing devices");
    (ctx.into_shared(), batch)
}

struct SweepPoint {
    workers: usize,
    seconds: f64,
    patterns_per_s: f64,
    suspects_per_s: f64,
    /// (stage name, calls, cumulative CPU seconds over all calls, max
    /// single-call seconds), from the run's `flow.*`/`batch.*` latency
    /// histograms. Stage calls run concurrently across workers, so the
    /// cumulative figure is CPU attribution, not wall time — at 8
    /// workers it can exceed the batch's wall seconds several-fold.
    /// An earlier format wrote it as `"seconds"`, which read as wall
    /// time and looked like a regression as workers grew; it is now
    /// `"cpu_seconds"`, with `"max_call_s"` as the scheduling-free
    /// single-call bound.
    stages: Vec<(&'static str, u64, f64, f64)>,
}

fn sweep(ctx: &Arc<ExperimentContext>, batch: &[Datalog]) -> Vec<SweepPoint> {
    WORKER_SWEEP
        .iter()
        .map(|&workers| {
            let engine = BatchEngine::new(EngineConfig::with_workers(workers));
            // Warm-up run, then the timed + observed passes.
            let _ = engine
                .diagnose_batch(ctx, batch, &Arc::new(AnalysisCache::new()))
                .expect("batch runs");
            let (seconds, report, collector) = (0..PASSES)
                .map(|_| {
                    let collector = Collector::new();
                    let _recording = collector.install();
                    let t0 = Instant::now();
                    let report = engine
                        .diagnose_batch(ctx, batch, &Arc::new(AnalysisCache::new()))
                        .expect("batch runs");
                    let seconds = t0.elapsed().as_secs_f64().max(1e-9);
                    (seconds, report, collector)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one pass");
            let applied = (batch.len() * ctx.patterns.len()) as f64;
            let stages = collector
                .snapshot()
                .histograms
                .iter()
                .filter(|(name, _)| name.starts_with("flow.") || name.starts_with("batch."))
                .map(|(name, h)| (*name, h.count, h.sum_us as f64 / 1e6, h.max_us as f64 / 1e6))
                .collect();
            SweepPoint {
                workers,
                seconds,
                patterns_per_s: applied / seconds,
                suspects_per_s: report.stats.suspect_jobs as f64 / seconds,
                stages,
            }
        })
        .collect()
}

/// Whether overwriting the results at `path` would replace numbers from
/// a host wider than `cores` of parallelism. Unreadable or malformed
/// existing files never block (there is nothing trustworthy to protect).
fn would_clobber_wider_host(path: &str, cores: usize) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let root = icd_obs::json::parse(&text).ok()?;
    let recorded = root
        .get("host_cores")
        .or_else(|| root.get("cores"))
        .and_then(icd_obs::json::Value::as_u64)?;
    (recorded > cores as u64).then_some(recorded)
}

fn write_json(points: &[SweepPoint]) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let base = points.first().map(|p| p.seconds).unwrap_or(1.0);
    let results: Vec<String> = points
        .iter()
        .map(|p| {
            let stages: Vec<String> = p
                .stages
                .iter()
                .map(|(name, calls, cpu_secs, max_call_s)| {
                    format!(
                        "\"{name}\": {{ \"calls\": {calls}, \"cpu_seconds\": {cpu_secs:.6}, \
                         \"max_call_s\": {max_call_s:.6} }}"
                    )
                })
                .collect();
            format!(
                "    {{ \"workers\": {}, \"seconds\": {:.6}, \"patterns_per_s\": {:.1}, \
                 \"suspects_per_s\": {:.2}, \"speedup\": {:.3},\n      \"stages\": {{ {} }} }}",
                p.workers,
                p.seconds,
                p.patterns_per_s,
                p.suspects_per_s,
                base / p.seconds,
                stages.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"circuit\": \"B/{DIVISOR}\",\n  \
         \"patterns\": {PATTERNS},\n  \"datalogs\": {DATALOGS},\n  \"host_cores\": {cores},\n  \
         \"single_core\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        cores == 1,
        results.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let force = std::env::var("ICD_BENCH_FORCE").is_ok_and(|v| v == "1");
    if let Some(recorded) = would_clobber_wider_host(path, cores) {
        if !force {
            eprintln!(
                "not overwriting {path}: existing results are from a {recorded}-core host, \
                 this one has {cores} (set ICD_BENCH_FORCE=1 to overwrite)"
            );
            print!("{json}");
            return;
        }
        eprintln!(
            "ICD_BENCH_FORCE=1: overwriting {recorded}-core results in {path} \
             from a {cores}-core host"
        );
    }
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
}

fn bench_engine(c: &mut Criterion) {
    let (ctx, batch) = build_input();

    // The machine-readable sweep first: the fastest of PASSES timed runs
    // per worker count.
    let points = sweep(&ctx, &batch);
    write_json(&points);

    // Criterion display: batch latency at each worker count.
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));
    for workers in WORKER_SWEEP {
        let engine = BatchEngine::new(EngineConfig::with_workers(workers));
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &(&ctx, &batch),
            |b, (ctx, batch)| {
                b.iter(|| {
                    engine
                        .diagnose_batch(ctx, batch, &Arc::new(AnalysisCache::new()))
                        .expect("batch runs")
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_engine
}
criterion_main!(benches);
