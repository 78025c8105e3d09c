//! A long-lived streaming diagnosis service over one [`WorkerPool`].
//!
//! [`BatchEngine`](crate::BatchEngine) is batch-shaped: it builds a pool,
//! runs one directory's worth of datalogs, joins the pool. A daemon has
//! the opposite lifecycle — the pool, the good-machine simulation and the
//! analysis cache live for the whole process while requests come and go.
//! [`DiagnosisService`] is that long-lived form. Each request runs the
//! job graph the batch engine runs, as its one-datalog case, with four
//! values of its own:
//!
//! * **bounded admission** — a job waits at most `submit_wait` for queue
//!   space. A refused front job is [`JobError::Busy`]; a refused suspect
//!   job becomes a `Cancelled` skip. Connection threads never block
//!   behind an unbounded queue, and the caller owns the retry policy;
//! * **cooperative cancellation** — the request's [`CancelToken`]
//!   (deadline or explicit) is checked at every job boundary; cancelled
//!   work surfaces as [`FlowError::Cancelled`] and never poisons the
//!   pool;
//! * **streaming** — [`DiagnosisService::diagnose_streamed`] emits a
//!   [`StreamEvent`] when the front stage resolves the suspect list and
//!   one per completed per-suspect analysis, so a network server can
//!   push first results before the full report is merged;
//! * **a job hook** — the chaos harness's fault-injection seam
//!   ([`DiagnosisService::with_job_hook`]).
//!
//! A request's jobs also enter the trace the calling thread has entered,
//! so their spans land in the request's trace. The merged [`FlowReport`]
//! is byte-identical (including `Debug` rendering) to what the
//! sequential staged flow and the batch engine produce for the same
//! datalog.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use icd_core::AnalysisCache;
use icd_faultsim::Datalog;
use icd_netlist::GateId;

use crate::cancel::CancelToken;
use crate::engine::JobError;
use crate::flow::{ExperimentContext, FlowError, FlowReport};
use crate::graph::{Admission, Graph, JobHook};
use crate::pool::WorkerPool;

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

/// The long-lived diagnosis executor of the server: one pool, one good
/// simulation, one cache, many concurrent streamed requests.
pub struct DiagnosisService {
    ctx: Arc<ExperimentContext>,
    good: Arc<icd_faultsim::BitValues>,
    cache: Arc<AnalysisCache>,
    pool: WorkerPool,
    submit_wait: Duration,
    /// Fault-injection seam: runs at the start of every front/suspect
    /// job, *inside* the panic net. A hook that panics emulates a
    /// worker dying mid-job — the chaos harness's handle on the pool.
    job_hook: Option<JobHook>,
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
        Ok(DiagnosisService {
            ctx,
            good,
            cache: Arc::new(AnalysisCache::new()),
            pool: WorkerPool::new(workers, queue_capacity),
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
    /// stream back as they finish, and the merged report is identical to
    /// the batch engine's for the same datalog. The token is checked at
    /// every job boundary; a request cancelled mid-fanout gets its
    /// already-finished analyses plus `Cancelled` skips for the rest — a
    /// *degraded partial* report, not an error. When the calling thread
    /// has entered an [`icd_obs::TraceContext`], every job enters it on
    /// its worker, so the request's `batch.front` / `batch.suspect`
    /// spans and the `flow.*` stage spans inside them land in that
    /// trace.
    ///
    /// # Errors
    ///
    /// [`JobError::Busy`] when the front job cannot be admitted within
    /// the bounded wait (transient — retry or degrade); otherwise the
    /// request failed as a whole: a front-stage flow error, a contained
    /// panic, or cancellation before the front stage ran
    /// ([`FlowError::Cancelled`]).
    pub fn diagnose_streamed(
        &self,
        datalog: &Datalog,
        token: &CancelToken,
        on_event: &mut dyn FnMut(StreamEvent<'_>),
    ) -> Result<FlowReport, JobError> {
        let graph = Graph {
            ctx: Arc::clone(&self.ctx),
            good: Arc::clone(&self.good),
            cache: Arc::clone(&self.cache),
            admission: Admission::Wait(self.submit_wait),
            token: token.clone(),
            hook: self.job_hook.clone(),
        };
        let datalogs = std::slice::from_ref(datalog);
        let (mut outcomes, _) = graph.run(&self.pool, datalogs, &mut |_, event| on_event(event));
        match outcomes.pop() {
            Some(outcome) => outcome.report,
            None => Err(JobError::Panicked("datalog result missing".to_owned())),
        }
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
        assert!(matches!(err, JobError::Flow(FlowError::Cancelled)));
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
