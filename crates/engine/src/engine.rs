//! The batch-diagnosis job graph: one front-end job per datalog, one
//! analysis job per (datalog × suspected gate), deterministic merging.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use icd_core::{AnalysisCache, CacheStats};
use icd_faultsim::Datalog;
use icd_intercell::IntercellDiagnosis;
use icd_netlist::GateId;

use crate::flow::{
    analyze_suspect, select_suspects, ExperimentContext, FlowError, FlowReport, FlowStage,
    GateAnalysis, SkippedGate,
};
use crate::pool::WorkerPool;

/// Engine sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Jobs that may wait in the pool before submissions block
    /// (backpressure bound).
    pub queue_capacity: usize,
}

impl EngineConfig {
    /// A configuration with `workers` threads and a proportional queue
    /// bound.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        EngineConfig {
            workers,
            queue_capacity: (workers * 4).max(16),
        }
    }

    /// Reads `ICD_WORKERS` (the CI/test override), falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let workers = std::env::var("ICD_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        EngineConfig::with_workers(workers)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::from_env()
    }
}

/// Why a whole datalog produced no [`FlowReport`].
#[derive(Debug)]
pub enum JobError {
    /// A whole-datalog stage failed structurally (e.g. inter-cell
    /// diagnosis rejected the datalog).
    Flow(FlowError),
    /// The front-end job panicked; the payload is the panic message.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Flow(e) => write!(f, "datalog stage failed: {e}"),
            JobError::Panicked(msg) => write!(f, "datalog job panicked: {msg}"),
        }
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JobError::Flow(e) => Some(e),
            JobError::Panicked(_) => None,
        }
    }
}

/// One datalog's merged result, at its input position.
pub struct BatchOutcome {
    /// Index of the datalog in the submitted batch.
    pub index: usize,
    /// The merged staged-flow report, or the whole-datalog failure.
    pub report: Result<FlowReport, JobError>,
    /// Cumulative worker time spent in this datalog's front and suspect
    /// jobs (µs). Jobs run concurrently, so this is CPU-style busy time,
    /// not wall latency — and it is scheduling-dependent, so it must
    /// never leak into a serialized report (volume reports stay
    /// byte-identical at any worker count).
    pub busy_us: u64,
}

/// `busy_us` is deliberately absent: the `Debug` rendering IS the
/// determinism contract (tests compare it byte-for-byte across worker
/// counts), and busy time is scheduling noise.
impl fmt::Debug for BatchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchOutcome")
            .field("index", &self.index)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// Engine-level counters of one batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Datalogs in the batch.
    pub datalogs: usize,
    /// Per-suspect jobs executed.
    pub suspect_jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the batch (including the shared good-machine
    /// simulation).
    pub elapsed: Duration,
    /// Truth-table cache counters (shared across all jobs).
    pub table_cache: CacheStats,
    /// Critical-path-trace cache counters.
    pub cpt_cache: CacheStats,
}

/// The merged result of a batch run: one outcome per input datalog, in
/// input order regardless of scheduling.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-datalog outcomes, ordered by input index.
    pub outcomes: Vec<BatchOutcome>,
    /// Run counters.
    pub stats: BatchStats,
}

impl BatchReport {
    /// The successfully merged reports, in input order.
    pub fn reports(&self) -> impl Iterator<Item = (usize, &FlowReport)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.report.as_ref().ok().map(|r| (o.index, r)))
    }

    /// Datalogs that failed as a whole, in input order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &JobError)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.report.as_ref().err().map(|e| (o.index, e)))
    }
}

/// Immutable per-datalog artifacts shared by that datalog's suspect jobs.
pub(crate) struct FrontShared {
    pub(crate) datalog: Datalog,
    pub(crate) inter: IntercellDiagnosis,
}

/// What the front-end stage of one datalog produced.
pub(crate) enum FrontOutput {
    /// The report is already complete (test escape, or failing patterns
    /// without any analyzable suspect).
    Done(Box<FlowReport>),
    /// Suspects to fan out.
    Work {
        sanitize: icd_faultsim::SanitizeLog,
        failing_patterns: usize,
        unexplained: Vec<usize>,
        shared: Arc<FrontShared>,
        suspects: Vec<GateId>,
    },
}

enum Message {
    Front {
        index: usize,
        output: Result<FrontOutput, JobError>,
        busy_us: u64,
    },
    Suspect {
        index: usize,
        slot: usize,
        result: Box<Result<GateAnalysis, (FlowStage, FlowError)>>,
        busy_us: u64,
    },
}

/// In-flight merge state of one datalog.
pub(crate) struct Pending {
    pub(crate) sanitize: icd_faultsim::SanitizeLog,
    pub(crate) failing_patterns: usize,
    pub(crate) unexplained: Vec<usize>,
    pub(crate) suspects: Vec<GateId>,
    pub(crate) slots: Vec<Option<Result<GateAnalysis, (FlowStage, FlowError)>>>,
    pub(crate) filled: usize,
}

impl Pending {
    /// Merges the filled slots in suspect order — the exact order the
    /// sequential staged flow records analyses and skips, so the merged
    /// report is byte-identical to the single-threaded one.
    pub(crate) fn merge(self) -> FlowReport {
        let mut analyses = Vec::new();
        let mut skipped = Vec::new();
        for (gate, slot) in self.suspects.into_iter().zip(self.slots) {
            match slot {
                Some(Ok(analysis)) => analyses.push(analysis),
                Some(Err((stage, error))) => skipped.push(SkippedGate { gate, stage, error }),
                // Unreachable by construction (merge runs only when every
                // slot is filled); degrade rather than panic.
                None => skipped.push(SkippedGate {
                    gate,
                    stage: FlowStage::Worker,
                    error: FlowError::Panicked("suspect job result missing".to_owned()),
                }),
            }
        }
        FlowReport {
            failing_patterns: self.failing_patterns,
            sanitize: self.sanitize,
            analyses,
            skipped,
            unexplained: self.unexplained,
        }
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The front half of the staged flow for one datalog: sanitation, escape
/// check, inter-cell diagnosis, suspect selection. Runs on a worker.
pub(crate) fn front_stage(
    ctx: &ExperimentContext,
    good: &icd_faultsim::BitValues,
    datalog: &Datalog,
) -> Result<FrontOutput, JobError> {
    let (datalog, sanitize) = {
        let _s = icd_obs::stage("flow.sanitize");
        datalog.sanitize(ctx.circuit.outputs().len())
    };
    let escaped = {
        let _s = icd_obs::stage("flow.escape_check");
        datalog.all_pass()
    };
    if escaped {
        return Ok(FrontOutput::Done(Box::new(FlowReport {
            failing_patterns: 0,
            sanitize,
            analyses: Vec::new(),
            skipped: Vec::new(),
            unexplained: Vec::new(),
        })));
    }
    let inter = {
        let _s = icd_obs::stage("flow.intercell");
        icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, &datalog, good)
            .map_err(|e| JobError::Flow(FlowError::Intercell(e)))?
    };
    let suspects = select_suspects(&inter);
    if suspects.is_empty() {
        return Ok(FrontOutput::Done(Box::new(FlowReport {
            failing_patterns: datalog.entries.len(),
            sanitize,
            analyses: Vec::new(),
            skipped: Vec::new(),
            unexplained: inter.unexplained,
        })));
    }
    Ok(FrontOutput::Work {
        sanitize,
        failing_patterns: datalog.entries.len(),
        unexplained: inter.unexplained.clone(),
        shared: Arc::new(FrontShared { datalog, inter }),
        suspects,
    })
}

/// The parallel batch-diagnosis engine.
///
/// Wraps the staged flow of [`crate::flow`] in a job graph executed on a
/// [`WorkerPool`]: per datalog a front-end job (sanitize → escape check →
/// inter-cell diagnosis → suspect selection), then per suspected gate an
/// independent analysis job sharing the `Arc`-held context, good-machine
/// simulation and [`AnalysisCache`]. Results merge deterministically —
/// the produced [`FlowReport`]s are identical (including their `Debug`
/// rendering) for any worker count, because job outputs are placed by
/// (datalog index, suspect slot), never by completion order.
#[derive(Debug)]
pub struct BatchEngine {
    config: EngineConfig,
}

impl BatchEngine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        BatchEngine { config }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Diagnoses a batch of datalogs against one shared context.
    ///
    /// `cache` is strictly transparent (identical reports warm or cold):
    /// pass a fresh one for a self-contained batch, or carry one —
    /// possibly preloaded from an on-disk snapshot — across many batches
    /// of the same design to skip the per-cell-type truth-table
    /// derivations. The reported [`BatchStats`] and `cache.*` counters
    /// cover the cache's whole lifetime, not just this batch.
    ///
    /// To observe a run, install an [`icd_obs::Collector`] around the
    /// call: every job then executes under a span carrying its merge
    /// identity (`batch.front` with a `datalog` attribute,
    /// `batch.suspect` with `datalog` and `slot`), and the run's cache,
    /// set-cover and pool health counters are recorded before the pool
    /// is joined.
    ///
    /// # Errors
    ///
    /// Returns an error only when the batch-wide good-machine simulation
    /// fails (nothing can be diagnosed without it); every per-datalog and
    /// per-suspect failure is contained in the returned outcomes.
    pub fn diagnose_batch(
        &self,
        ctx: &Arc<ExperimentContext>,
        datalogs: &[Datalog],
        cache: &Arc<AnalysisCache>,
    ) -> Result<BatchReport, FlowError> {
        let t0 = Instant::now();
        let good = {
            let _s = icd_obs::stage("batch.good_simulate");
            Arc::new(icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)?)
        };
        let cache = Arc::clone(cache);
        let pool = WorkerPool::new(self.config.workers, self.config.queue_capacity);
        // Results flow back over one mpsc channel; the coordinator keeps
        // the master sender so `recv` can never observe an early close
        // while jobs are outstanding.
        let (tx, rx) = mpsc::channel::<Message>();

        for (index, datalog) in datalogs.iter().enumerate() {
            let ctx = Arc::clone(ctx);
            let good = Arc::clone(&good);
            let job_tx = tx.clone();
            let datalog = datalog.clone();
            pool.submit(Box::new(move || {
                let job_t0 = Instant::now();
                let _span = icd_obs::span_with("batch.front", &[("datalog", index as u64)]);
                let output =
                    match catch_unwind(AssertUnwindSafe(|| front_stage(&ctx, &good, &datalog))) {
                        Ok(r) => r,
                        Err(p) => Err(JobError::Panicked(panic_message(p))),
                    };
                let _ = job_tx.send(Message::Front {
                    index,
                    output,
                    busy_us: job_t0.elapsed().as_micros() as u64,
                });
            }));
        }

        let mut outcomes: Vec<Option<Result<FlowReport, JobError>>> =
            (0..datalogs.len()).map(|_| None).collect();
        let mut pending: Vec<Option<Pending>> = (0..datalogs.len()).map(|_| None).collect();
        let mut remaining = datalogs.len();
        let mut suspect_jobs = 0usize;
        let mut device_busy_us: Vec<u64> = vec![0; datalogs.len()];

        while remaining > 0 {
            let Ok(msg) = rx.recv() else {
                // Unreachable (the master sender lives in this scope);
                // degrade instead of hanging if it ever happens.
                break;
            };
            match msg {
                Message::Front {
                    index,
                    output,
                    busy_us,
                } => {
                    device_busy_us[index] += busy_us;
                    match output {
                        Ok(FrontOutput::Done(report)) => {
                            outcomes[index] = Some(Ok(*report));
                            remaining -= 1;
                        }
                        Ok(FrontOutput::Work {
                            sanitize,
                            failing_patterns,
                            unexplained,
                            shared,
                            suspects,
                        }) => {
                            pending[index] = Some(Pending {
                                sanitize,
                                failing_patterns,
                                unexplained,
                                suspects: suspects.clone(),
                                slots: (0..suspects.len()).map(|_| None).collect(),
                                filled: 0,
                            });
                            // Largest fanout cones first: the most expensive
                            // per-suspect resimulations start earliest, so no
                            // big cone straggles at the tail of the pool.
                            // Results merge by original slot, so the report is
                            // independent of submission order (the sort is
                            // stable, keeping the schedule deterministic too).
                            let mut order: Vec<usize> = (0..suspects.len()).collect();
                            order.sort_by_key(|&s| {
                                std::cmp::Reverse(ctx.circuit.cone_size(suspects[s]))
                            });
                            for slot in order {
                                let gate = suspects[slot];
                                suspect_jobs += 1;
                                let ctx = Arc::clone(ctx);
                                let good = Arc::clone(&good);
                                let cache = Arc::clone(&cache);
                                let shared = Arc::clone(&shared);
                                let job_tx = tx.clone();
                                pool.submit(Box::new(move || {
                                    let job_t0 = Instant::now();
                                    let _span = icd_obs::span_with(
                                        "batch.suspect",
                                        &[("datalog", index as u64), ("slot", slot as u64)],
                                    );
                                    let result = catch_unwind(AssertUnwindSafe(|| {
                                        analyze_suspect(
                                            &ctx,
                                            &shared.datalog,
                                            &shared.inter,
                                            &good,
                                            gate,
                                            Some(&cache),
                                        )
                                    }))
                                    .unwrap_or_else(|p| {
                                        Err((
                                            FlowStage::Worker,
                                            FlowError::Panicked(panic_message(p)),
                                        ))
                                    });
                                    let _ = job_tx.send(Message::Suspect {
                                        index,
                                        slot,
                                        result: Box::new(result),
                                        busy_us: job_t0.elapsed().as_micros() as u64,
                                    });
                                }));
                            }
                        }
                        Err(e) => {
                            outcomes[index] = Some(Err(e));
                            remaining -= 1;
                        }
                    }
                }
                Message::Suspect {
                    index,
                    slot,
                    result,
                    busy_us,
                } => {
                    device_busy_us[index] += busy_us;
                    let done = if let Some(p) = pending[index].as_mut() {
                        if p.slots[slot].is_none() {
                            p.filled += 1;
                        }
                        p.slots[slot] = Some(*result);
                        p.filled == p.slots.len()
                    } else {
                        false
                    };
                    if done {
                        if let Some(p) = pending[index].take() {
                            outcomes[index] = Some(Ok(p.merge()));
                            remaining -= 1;
                        }
                    }
                }
            }
        }
        drop(tx);

        // Join the workers first so the pool counters are final, then
        // export this run's metrics into the installed collector.
        let workers = pool.workers();
        let pool_metrics = pool.into_metrics();
        if icd_obs::enabled() {
            use icd_obs::Stability::{Stable, Timing};
            icd_obs::counter("batch.datalogs", datalogs.len() as u64, Stable);
            icd_obs::counter("batch.suspect_jobs", suspect_jobs as u64, Stable);
            cache.observe();
            icd_obs::counter("pool.jobs_executed", pool_metrics.jobs_executed, Stable);
            icd_obs::counter(
                "pool.panics_contained",
                pool_metrics.panics_contained,
                Stable,
            );
            icd_obs::counter(
                "pool.busy_us",
                pool_metrics.busy_us.iter().sum::<u64>(),
                Timing,
            );
            icd_obs::counter(
                "pool.idle_us",
                pool_metrics.idle_us.iter().sum::<u64>(),
                Timing,
            );
            icd_obs::gauge_set(
                "pool.queue_high_water",
                pool_metrics.queue_high_water,
                Timing,
            );
            icd_obs::gauge_set("pool.workers", workers as u64, Timing);
        }

        let merged = outcomes
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| BatchOutcome {
                index,
                report: outcome.unwrap_or_else(|| {
                    Err(JobError::Panicked("datalog result missing".to_owned()))
                }),
                busy_us: device_busy_us[index],
            })
            .collect();
        Ok(BatchReport {
            outcomes: merged,
            stats: BatchStats {
                datalogs: datalogs.len(),
                suspect_jobs,
                workers,
                elapsed: t0.elapsed(),
                table_cache: cache.table_stats(),
                cpt_cache: cache.cpt_stats(),
            },
        })
    }
}
