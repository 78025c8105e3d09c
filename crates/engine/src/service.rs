//! A long-lived streaming diagnosis service over one [`WorkerPool`].
//!
//! [`BatchEngine`](crate::BatchEngine) is batch-shaped: it builds a pool,
//! runs one directory's worth of datalogs, joins the pool. A daemon has
//! the opposite lifecycle — the pool, the good-machine simulation and the
//! analysis cache live for the whole process while requests come and go.
//! [`DiagnosisService`] is that long-lived form:
//!
//! * **shared artifacts once** — the [`ExperimentContext`], the
//!   good-machine simulation and the [`AnalysisCache`] are computed at
//!   construction and `Arc`-shared by every request;
//! * **streaming** — [`DiagnosisService::diagnose_streamed`] emits a
//!   [`StreamEvent`] when the front stage resolves the suspect list and
//!   one per completed per-suspect analysis, so a network server can
//!   push first results before the full report is merged;
//! * **cooperative cancellation** — the request's [`CancelToken`]
//!   (deadline or explicit) is checked at every job boundary; cancelled
//!   work surfaces as [`FlowError::Cancelled`] and never poisons the
//!   pool;
//! * **bounded admission** — job submission uses
//!   [`WorkerPool::try_submit`] with a bounded wait, surfacing
//!   [`ServiceError::Busy`] to the caller instead of blocking a
//!   connection thread behind an unbounded queue. The caller owns the
//!   retry policy.
//!
//! The merged [`FlowReport`] is byte-identical (including `Debug`
//! rendering) to what the sequential staged flow and the batch engine
//! produce for the same datalog — same front stage, same per-suspect
//! pipeline, same slot-ordered merge.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use icd_core::AnalysisCache;
use icd_faultsim::Datalog;
use icd_netlist::GateId;

use crate::cancel::CancelToken;
use crate::engine::{front_stage, panic_message, FrontOutput, JobError, Pending};
use crate::flow::{
    analyze_suspect, ExperimentContext, FlowError, FlowReport, FlowStage, GateAnalysis,
};
use crate::pool::WorkerPool;

/// Why a streamed request produced no report.
#[derive(Debug)]
pub enum ServiceError {
    /// The worker pool's queue stayed full for the whole bounded wait
    /// (or the pool is shutting down). Transient: the caller may retry
    /// with backoff or degrade the response.
    Busy,
    /// The request ran and failed as a whole (front-stage flow error or
    /// contained panic).
    Job(JobError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy => write!(f, "diagnosis queue is full"),
            ServiceError::Job(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Busy => None,
            ServiceError::Job(e) => Some(e),
        }
    }
}

/// Incremental progress of one streamed request.
#[derive(Debug)]
pub enum StreamEvent<'a> {
    /// The front stage finished: these suspects fan out for analysis,
    /// in inter-cell rank order (slot order of the final report).
    Suspects(&'a [GateId]),
    /// One suspect's analysis completed (events arrive in completion
    /// order; the final report is still merged in slot order).
    SuspectDone {
        /// The suspect's slot in the final report.
        slot: usize,
        /// The analyzed gate.
        gate: GateId,
        /// Whether the analysis succeeded (a failure becomes a
        /// [`SkippedGate`](crate::flow::SkippedGate) in the report).
        ok: bool,
    },
}

/// One message of a streamed request's internal result channel.
enum StreamMessage {
    Front(Box<Result<FrontOutput, JobError>>),
    Suspect {
        slot: usize,
        result: Box<Result<GateAnalysis, (FlowStage, FlowError)>>,
    },
}

/// The long-lived diagnosis executor of the server: one pool, one good
/// simulation, one cache, many concurrent streamed requests.
pub struct DiagnosisService {
    ctx: Arc<ExperimentContext>,
    good: Arc<icd_faultsim::BitValues>,
    cache: Arc<AnalysisCache>,
    pool: Arc<WorkerPool>,
    submit_wait: Duration,
    /// Fault-injection seam: runs at the start of every front/suspect
    /// job, *inside* the panic net. A hook that panics emulates a
    /// worker dying mid-job — the chaos harness's handle on the pool.
    job_hook: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl fmt::Debug for DiagnosisService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiagnosisService")
            .field("workers", &self.pool.workers())
            .field("submit_wait", &self.submit_wait)
            .finish_non_exhaustive()
    }
}

impl DiagnosisService {
    /// Builds the service: runs the shared good-machine simulation once
    /// and spawns the worker pool (`workers` threads, `queue_capacity`
    /// waiting jobs, `submit_wait` bounded wait per submission).
    ///
    /// # Errors
    ///
    /// Returns an error when the good-machine simulation fails — nothing
    /// can be served without it.
    pub fn new(
        ctx: Arc<ExperimentContext>,
        workers: usize,
        queue_capacity: usize,
        submit_wait: Duration,
    ) -> Result<Self, FlowError> {
        let good = Arc::new(icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)?);
        let pool = Arc::new(WorkerPool::new(workers, queue_capacity));
        Ok(DiagnosisService {
            ctx,
            good,
            cache: Arc::new(AnalysisCache::new()),
            pool,
            submit_wait,
            job_hook: None,
        })
    }

    /// Installs a hook that runs at the start of every front/suspect job,
    /// inside the worker's panic containment. This is the fault-injection
    /// seam of the chaos harness: a hook that panics at a seeded rate
    /// exercises exactly the contain-retry-degrade path a real worker
    /// bug would. Production servers leave it unset.
    #[must_use]
    pub fn with_job_hook(mut self, hook: Arc<dyn Fn() + Send + Sync>) -> Self {
        self.job_hook = Some(hook);
        self
    }

    /// The shared experiment context requests are diagnosed against.
    pub fn context(&self) -> &Arc<ExperimentContext> {
        &self.ctx
    }

    /// The underlying pool (for drain/health introspection).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Jobs queued or running right now.
    pub fn pending_jobs(&self) -> usize {
        self.pool.pending_jobs()
    }

    /// Waits until no job is queued or running (the drain step of a
    /// graceful shutdown). Returns whether the pool went idle in time.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.pool.wait_idle(timeout)
    }

    /// Diagnoses one datalog, streaming progress through `on_event`.
    ///
    /// Runs on the calling thread as the request's coordinator: the
    /// front job and every per-suspect job execute on the pool, results
    /// stream back over an internal channel, and the merged report is
    /// identical to the batch engine's for the same datalog. The token
    /// is checked at every job boundary; a request cancelled mid-fanout
    /// gets its already-finished analyses plus `Cancelled` skips for the
    /// rest — a *degraded partial* report, not an error.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] when the front job cannot be admitted
    /// within the bounded wait (transient — retry or degrade);
    /// [`ServiceError::Job`] when the request fails as a whole
    /// (front-stage flow error, contained panic, or cancellation before
    /// the front stage ran).
    pub fn diagnose_streamed(
        &self,
        datalog: &Datalog,
        token: &CancelToken,
        on_event: &mut dyn FnMut(StreamEvent<'_>),
    ) -> Result<FlowReport, ServiceError> {
        self.diagnose_streamed_traced(datalog, token, None, on_event)
    }

    /// [`diagnose_streamed`](Self::diagnose_streamed) with an optional
    /// per-request trace: every front/suspect job *enters* the trace on
    /// its worker thread, so the request's `service.front` /
    /// `service.suspect` spans — and the `flow.*` stage spans nested
    /// inside them — land in the trace's span forest even though they
    /// execute on pool threads the caller never sees.
    pub fn diagnose_streamed_traced(
        &self,
        datalog: &Datalog,
        token: &CancelToken,
        trace: Option<&icd_obs::TraceContext>,
        on_event: &mut dyn FnMut(StreamEvent<'_>),
    ) -> Result<FlowReport, ServiceError> {
        if token.is_cancelled() {
            return Err(ServiceError::Job(JobError::Flow(FlowError::Cancelled)));
        }
        let (tx, rx) = mpsc::channel::<StreamMessage>();

        // Front job.
        {
            let ctx = Arc::clone(&self.ctx);
            let good = Arc::clone(&self.good);
            let datalog = datalog.clone();
            let token = token.clone();
            let job_tx = tx.clone();
            let hook = self.job_hook.clone();
            let trace = trace.cloned();
            let job = Box::new(move || {
                let _trace = trace.as_ref().map(icd_obs::TraceContext::enter);
                let _span = icd_obs::stage("service.front");
                let output = if token.is_cancelled() {
                    Err(JobError::Flow(FlowError::Cancelled))
                } else {
                    match catch_unwind(AssertUnwindSafe(|| {
                        if let Some(hook) = &hook {
                            hook();
                        }
                        front_stage(&ctx, &good, &datalog)
                    })) {
                        Ok(r) => r,
                        Err(p) => Err(JobError::Panicked(panic_message(p))),
                    }
                };
                let _ = job_tx.send(StreamMessage::Front(Box::new(output)));
            });
            if self.pool.try_submit(job, self.submit_wait).is_err() {
                return Err(ServiceError::Busy);
            }
        }

        let front = loop {
            match rx.recv() {
                Ok(StreamMessage::Front(output)) => break *output,
                Ok(StreamMessage::Suspect { .. }) => continue, // unreachable: none submitted yet
                Err(_) => {
                    // Unreachable (we hold the master sender); degrade.
                    return Err(ServiceError::Job(JobError::Panicked(
                        "front job result missing".to_owned(),
                    )));
                }
            }
        };
        let (sanitize, failing_patterns, unexplained, shared, suspects) = match front {
            Ok(FrontOutput::Done(report)) => return Ok(*report),
            Ok(FrontOutput::Work {
                sanitize,
                failing_patterns,
                unexplained,
                shared,
                suspects,
            }) => (sanitize, failing_patterns, unexplained, shared, suspects),
            Err(e) => return Err(ServiceError::Job(e)),
        };
        on_event(StreamEvent::Suspects(&suspects));

        let mut pending = Pending {
            sanitize,
            failing_patterns,
            unexplained,
            suspects: suspects.clone(),
            slots: (0..suspects.len()).map(|_| None).collect(),
            filled: 0,
        };

        // Fan the suspect jobs out, largest cones first (same schedule as
        // the batch engine). Admission is bounded: when the pool refuses
        // a job within the wait — saturation or shutdown — or the token
        // cancels, the remaining slots become Cancelled skips and the
        // report degrades instead of blocking the connection thread.
        let mut order: Vec<usize> = (0..suspects.len()).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(self.ctx.circuit.cone_size(suspects[s])));
        for slot in order {
            let gate = suspects[slot];
            if token.is_cancelled() {
                pending.slots[slot] = Some(Err((FlowStage::Worker, FlowError::Cancelled)));
                pending.filled += 1;
                continue;
            }
            let ctx = Arc::clone(&self.ctx);
            let good = Arc::clone(&self.good);
            let cache = Arc::clone(&self.cache);
            let shared = Arc::clone(&shared);
            let token_job = token.clone();
            let job_tx = tx.clone();
            let hook = self.job_hook.clone();
            let trace_job = trace.cloned();
            let job = Box::new(move || {
                let _trace = trace_job.as_ref().map(icd_obs::TraceContext::enter);
                let _span = icd_obs::stage("service.suspect");
                let result = if token_job.is_cancelled() {
                    Err((FlowStage::Worker, FlowError::Cancelled))
                } else {
                    catch_unwind(AssertUnwindSafe(|| {
                        if let Some(hook) = &hook {
                            hook();
                        }
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
                        Err((FlowStage::Worker, FlowError::Panicked(panic_message(p))))
                    })
                };
                let _ = job_tx.send(StreamMessage::Suspect {
                    slot,
                    result: Box::new(result),
                });
            });
            if self.pool.try_submit(job, self.submit_wait).is_err() {
                pending.slots[slot] = Some(Err((FlowStage::Worker, FlowError::Cancelled)));
                pending.filled += 1;
            }
        }
        drop(tx);

        while pending.filled < pending.slots.len() {
            let Ok(msg) = rx.recv() else {
                // Every sender dropped with slots unfilled — a submitted
                // job was lost (pool shut down mid-request). Degrade the
                // missing slots to Cancelled instead of hanging.
                for slot in pending.slots.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(Err((FlowStage::Worker, FlowError::Cancelled)));
                    pending.filled += 1;
                }
                break;
            };
            let StreamMessage::Suspect { slot, result } = msg else {
                continue;
            };
            if pending.slots[slot].is_none() {
                pending.filled += 1;
                on_event(StreamEvent::SuspectDone {
                    slot,
                    gate: pending.suspects[slot],
                    ok: result.is_ok(),
                });
                pending.slots[slot] = Some(*result);
            }
        }
        Ok(pending.merge())
    }
}

/// Renders one [`FlowReport`] as the canonical single-line summary shown
/// by `icdiag run` and streamed back by the diagnosis server. Keeping the
/// rendering in one place is what makes "server response ≡ `icdiag run`
/// output" a byte-level contract the chaos soak test can assert.
pub fn summarize_report(ctx: &ExperimentContext, report: &FlowReport) -> String {
    if report.is_escape() {
        return "PASS (test escape)".to_owned();
    }
    let top = report
        .best()
        .map(|a| {
            format!(
                "g{}:{} ({} candidates)",
                a.gate.index(),
                ctx.circuit.gate_type(a.gate).name(),
                a.ranked.candidates.len()
            )
        })
        .unwrap_or_else(|| "none".to_owned());
    format!(
        "{} failing patterns, {} analyzed, {} skipped, {} unexplained, top suspect {top}{}",
        report.failing_patterns,
        report.analyses.len(),
        report.skipped.len(),
        report.unexplained.len(),
        if report.is_degraded() {
            " [degraded]"
        } else {
            ""
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_batch, BatchConfig, BatchEngine, EngineConfig};
    use icd_netlist::generator;

    fn service_fixture() -> (DiagnosisService, Vec<Datalog>) {
        let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 4, 16)
            .expect("scaled circuit A builds")
            .into_shared();
        let batch = synthesize_batch(&ctx, &BatchConfig::new(4, 0x5eed)).expect("batch");
        assert!(!batch.is_empty());
        let service =
            DiagnosisService::new(ctx, 2, 16, Duration::from_secs(5)).expect("service builds");
        (service, batch)
    }

    #[test]
    fn streamed_report_matches_the_batch_engine_byte_for_byte() {
        let (service, batch) = service_fixture();
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let reference = engine
            .diagnose_batch(service.context(), &batch, &Default::default())
            .expect("batch runs");
        for (i, datalog) in batch.iter().enumerate() {
            let mut suspects_seen = 0usize;
            let mut done_seen = 0usize;
            let streamed = service
                .diagnose_streamed(datalog, &CancelToken::new(), &mut |ev| match ev {
                    StreamEvent::Suspects(s) => suspects_seen = s.len(),
                    StreamEvent::SuspectDone { .. } => done_seen += 1,
                })
                .expect("streamed run succeeds");
            let reference_report = reference.outcomes[i].report.as_ref().expect("reference ok");
            assert_eq!(
                format!("{streamed:?}"),
                format!("{reference_report:?}"),
                "datalog {i} diverged"
            );
            assert_eq!(done_seen, suspects_seen, "one completion event per suspect");
            assert_eq!(
                summarize_report(service.context(), &streamed),
                summarize_report(service.context(), reference_report)
            );
        }
    }

    #[test]
    fn cancelled_token_rejects_before_any_work() {
        let (service, batch) = service_fixture();
        let token = CancelToken::new();
        token.cancel();
        let err = service
            .diagnose_streamed(&batch[0], &token, &mut |_| {})
            .expect_err("cancelled request must not run");
        assert!(matches!(
            err,
            ServiceError::Job(JobError::Flow(FlowError::Cancelled))
        ));
    }

    #[test]
    fn expired_deadline_degrades_suspects_to_cancelled_skips() {
        let (service, batch) = service_fixture();
        // A deadline that expires somewhere between the front stage and
        // the fanout: cancel the token from the Suspects callback, which
        // fires exactly at that boundary.
        let token = CancelToken::new();
        let token_in_cb = token.clone();
        let report = service
            .diagnose_streamed(&batch[0], &token, &mut |ev| {
                if matches!(ev, StreamEvent::Suspects(_)) {
                    token_in_cb.cancel();
                }
            })
            .expect("boundary cancellation degrades, not errors");
        assert!(
            report
                .skipped
                .iter()
                .all(|s| matches!(s.error, FlowError::Cancelled)),
            "skips carry Cancelled: {:?}",
            report.skipped
        );
        assert!(
            !report.skipped.is_empty(),
            "at least one suspect was cancelled at the boundary"
        );
        assert!(report.is_degraded());
        // The pool survives: a fresh request still works.
        let fresh = service
            .diagnose_streamed(&batch[0], &CancelToken::new(), &mut |_| {})
            .expect("pool not poisoned");
        assert!(fresh
            .skipped
            .iter()
            .all(|s| !matches!(s.error, FlowError::Cancelled)));
    }
}
