//! The diagnosis job graph and its one coordinator.
//!
//! Per datalog a *front* job (sanitize → escape check → inter-cell
//! diagnosis → suspect selection), then per suspected gate an
//! independent *analysis* job; results merge by (datalog, slot), never
//! by completion order. [`BatchEngine`](crate::BatchEngine) and
//! [`DiagnosisService`](crate::DiagnosisService) both run this graph and
//! differ only in the values they pass: how jobs are admitted to the
//! pool, the cancel token, the job hook and the event callback. The
//! trace the caller has entered is read from the calling thread and
//! entered by every job on its worker, so a request's spans land in its
//! trace wherever they run.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use icd_core::AnalysisCache;
use icd_faultsim::{BitValues, Datalog, SanitizeLog};
use icd_intercell::IntercellDiagnosis;
use icd_netlist::GateId;
use icd_obs::TraceContext;

use crate::cancel::CancelToken;
use crate::engine::{BatchOutcome, JobError};
use crate::flow::{
    analyze_suspect, select_suspects, ExperimentContext, FlowError, FlowReport, FlowStage,
    GateAnalysis, SkippedGate,
};
use crate::pool::{Job, WorkerPool};
use crate::service::StreamEvent;

/// Code run at the start of every job, inside its panic net.
pub(crate) type JobHook = Arc<dyn Fn() + Send + Sync>;

/// How the coordinator hands jobs to the pool.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Admission {
    /// Wait for queue space as long as it takes, like
    /// [`WorkerPool::submit`].
    Block,
    /// Wait at most this long, like [`WorkerPool::try_submit`]. A refused
    /// front job fails its datalog with [`JobError::Busy`]; a refused
    /// suspect job becomes a `Cancelled` skip.
    Wait(Duration),
}

/// One run of the job graph: the shared artifacts every job reads and
/// the values that set the two callers apart.
pub(crate) struct Graph {
    pub(crate) ctx: Arc<ExperimentContext>,
    pub(crate) good: Arc<BitValues>,
    pub(crate) cache: Arc<AnalysisCache>,
    pub(crate) admission: Admission,
    /// Checked before each job is submitted and again when it starts;
    /// a cancelled job surfaces [`FlowError::Cancelled`] without running.
    pub(crate) token: CancelToken,
    pub(crate) hook: Option<JobHook>,
}

/// Immutable per-datalog artifacts shared by that datalog's suspect jobs.
struct FrontShared {
    datalog: Datalog,
    inter: IntercellDiagnosis,
}

/// A finished job's result, on its way back to the coordinator.
enum Finished {
    Front {
        index: usize,
        output: Result<(Pending, Option<Arc<FrontShared>>), JobError>,
        busy_us: u64,
    },
    Suspect {
        index: usize,
        slot: usize,
        result: Box<Result<GateAnalysis, (FlowStage, FlowError)>>,
        busy_us: u64,
    },
}

/// In-flight merge state of one datalog: one slot per suspect, filled as
/// the suspect's analysis job reports.
struct Pending {
    sanitize: SanitizeLog,
    failing_patterns: usize,
    unexplained: Vec<usize>,
    suspects: Vec<GateId>,
    slots: Vec<Option<Result<GateAnalysis, (FlowStage, FlowError)>>>,
}

impl Pending {
    fn new(
        sanitize: SanitizeLog,
        failing_patterns: usize,
        unexplained: Vec<usize>,
        suspects: Vec<GateId>,
    ) -> Self {
        Pending {
            sanitize,
            failing_patterns,
            unexplained,
            slots: (0..suspects.len()).map(|_| None).collect(),
            suspects,
        }
    }

    /// Fills `slot` unless it is filled already; returns whether it was
    /// empty.
    fn fill(&mut self, slot: usize, result: Result<GateAnalysis, (FlowStage, FlowError)>) -> bool {
        let empty = self.slots[slot].is_none();
        if empty {
            self.slots[slot] = Some(result);
        }
        empty
    }

    fn is_complete(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }

    /// Merges the slots in suspect order — the exact order the sequential
    /// staged flow records analyses and skips, so the merged report is
    /// byte-identical to the single-threaded one. A slot whose job never
    /// reported (it was lost) merges as a `Cancelled` skip.
    fn merge(self) -> FlowReport {
        let mut analyses = Vec::new();
        let mut skipped = Vec::new();
        for (gate, slot) in self.suspects.into_iter().zip(self.slots) {
            match slot.unwrap_or(Err((FlowStage::Worker, FlowError::Cancelled))) {
                Ok(analysis) => analyses.push(analysis),
                Err((stage, error)) => skipped.push(SkippedGate { gate, stage, error }),
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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The front half of the staged flow for one datalog: sanitation, escape
/// check, inter-cell diagnosis, suspect selection. Runs on a worker and
/// returns the datalog's merge state, one empty slot per suspect, with
/// what the suspect jobs share — `None` when there is nothing to fan out
/// (a test escape, or failing patterns without an analyzable suspect).
fn front_stage(
    ctx: &ExperimentContext,
    good: &BitValues,
    datalog: &Datalog,
) -> Result<(Pending, Option<Arc<FrontShared>>), JobError> {
    let (datalog, sanitize) = {
        let _s = icd_obs::stage("flow.sanitize");
        datalog.sanitize(ctx.circuit.outputs().len())
    };
    let escaped = {
        let _s = icd_obs::stage("flow.escape_check");
        datalog.all_pass()
    };
    if escaped {
        return Ok((Pending::new(sanitize, 0, Vec::new(), Vec::new()), None));
    }
    let inter = {
        let _s = icd_obs::stage("flow.intercell");
        icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, &datalog, good)
            .map_err(|e| JobError::Flow(FlowError::Intercell(e)))?
    };
    let suspects = select_suspects(&inter);
    let failing_patterns = datalog.entries.len();
    let pending = Pending::new(
        sanitize,
        failing_patterns,
        inter.unexplained.clone(),
        suspects,
    );
    let shared = (!pending.suspects.is_empty()).then(|| Arc::new(FrontShared { datalog, inter }));
    Ok((pending, shared))
}

/// Makes one run's jobs: each holds the run's graph, the caller's trace
/// and a sender of the result channel.
#[derive(Clone)]
struct Jobs {
    graph: Arc<Graph>,
    trace: Option<TraceContext>,
    tx: mpsc::Sender<Finished>,
}

impl Jobs {
    /// Runs `work` the way every job runs: inside the caller's trace and
    /// the job's span, not at all once the token is cancelled (`None`),
    /// after the hook, with a panic contained as its message.
    fn guarded<T>(
        &self,
        span: &'static str,
        attrs: &[(&'static str, u64)],
        work: impl FnOnce(&Graph) -> T,
    ) -> Option<Result<T, String>> {
        let _trace = self.trace.as_ref().map(TraceContext::enter);
        let _span = icd_obs::span_with(span, attrs);
        let g = &*self.graph;
        if g.token.is_cancelled() {
            return None;
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &g.hook {
                hook();
            }
            work(g)
        }));
        Some(run.map_err(panic_message))
    }

    /// The front job of datalog `index`. Its span closes before the
    /// result is sent, so a coordinator that has the result also has
    /// the span in its trace.
    fn front(&self, index: usize, datalog: Datalog) -> Job {
        let jobs = self.clone();
        Box::new(move || {
            let t0 = Instant::now();
            let attrs = [("datalog", index as u64)];
            let output = match jobs.guarded("batch.front", &attrs, |g| {
                front_stage(&g.ctx, &g.good, &datalog)
            }) {
                Some(Ok(output)) => output,
                Some(Err(message)) => Err(JobError::Panicked(message)),
                None => Err(JobError::Flow(FlowError::Cancelled)),
            };
            let _ = jobs.tx.send(Finished::Front {
                index,
                output,
                busy_us: t0.elapsed().as_micros() as u64,
            });
        })
    }

    /// The analysis job of `gate`, slot `slot` of datalog `index`.
    fn suspect(&self, index: usize, slot: usize, gate: GateId, shared: Arc<FrontShared>) -> Job {
        let jobs = self.clone();
        Box::new(move || {
            let t0 = Instant::now();
            let attrs = [("datalog", index as u64), ("slot", slot as u64)];
            let result = match jobs.guarded("batch.suspect", &attrs, |g| {
                let (datalog, inter) = (&shared.datalog, &shared.inter);
                analyze_suspect(&g.ctx, datalog, inter, &g.good, gate, Some(&g.cache))
            }) {
                Some(Ok(result)) => result,
                Some(Err(message)) => Err((FlowStage::Worker, FlowError::Panicked(message))),
                None => Err((FlowStage::Worker, FlowError::Cancelled)),
            };
            let _ = jobs.tx.send(Finished::Suspect {
                index,
                slot,
                result: Box::new(result),
                busy_us: t0.elapsed().as_micros() as u64,
            });
        })
    }
}

impl Graph {
    fn admit(&self, pool: &WorkerPool, job: Job) -> bool {
        match self.admission {
            Admission::Block => {
                pool.submit(job);
                true
            }
            Admission::Wait(wait) => pool.try_submit(job, wait).is_ok(),
        }
    }

    /// Submits the suspect jobs of datalog `index`, largest fanout cone
    /// first, and fills the slot of each one refused, cancelled or left
    /// without a sender with a `Cancelled` skip. Returns how many jobs the
    /// pool accepted.
    fn fan_out(
        &self,
        pool: &WorkerPool,
        jobs: Option<&Jobs>,
        index: usize,
        shared: &Arc<FrontShared>,
        p: &mut Pending,
    ) -> usize {
        // The most expensive per-suspect resimulations start earliest, so
        // no big cone straggles at the tail of the pool. Results merge by
        // slot, so the report does not depend on this order (the sort is
        // stable, keeping the schedule deterministic too).
        let mut order: Vec<usize> = (0..p.suspects.len()).collect();
        order.sort_by_key(|&s| Reverse(self.ctx.circuit.cone_size(p.suspects[s])));
        let mut admitted = 0;
        for slot in order {
            let job = jobs
                .filter(|_| !self.token.is_cancelled())
                .map(|jobs| jobs.suspect(index, slot, p.suspects[slot], Arc::clone(shared)));
            if job.is_some_and(|job| self.admit(pool, job)) {
                admitted += 1;
            } else {
                p.fill(slot, Err((FlowStage::Worker, FlowError::Cancelled)));
            }
        }
        admitted
    }

    /// Runs the graph over `datalogs` on `pool`, calling `on_event` with
    /// the datalog's index as its suspects resolve and its analyses
    /// finish. Returns one outcome per datalog, in input order, and the
    /// number of suspect jobs the pool accepted.
    ///
    /// Runs on the calling thread, which must not be one of `pool`'s
    /// workers (a coordinator waiting on its own pool deadlocks).
    pub(crate) fn run(
        self,
        pool: &WorkerPool,
        datalogs: &[Datalog],
        on_event: &mut dyn FnMut(usize, StreamEvent<'_>),
    ) -> (Vec<BatchOutcome>, usize) {
        let n = datalogs.len();
        let graph = Arc::new(self);
        let (tx, rx) = mpsc::channel::<Finished>();
        let jobs = Jobs {
            graph: Arc::clone(&graph),
            trace: TraceContext::current(),
            tx,
        };
        let mut outcomes: Vec<Option<Result<FlowReport, JobError>>> =
            (0..n).map(|_| None).collect();
        let mut pending: Vec<Option<Pending>> = (0..n).map(|_| None).collect();
        let mut busy_us = vec![0u64; n];
        let mut open = n;
        let mut fronts = 0usize;
        let mut suspect_jobs = 0usize;

        for (index, datalog) in datalogs.iter().enumerate() {
            let refused = if graph.token.is_cancelled() {
                JobError::Flow(FlowError::Cancelled)
            } else if graph.admit(pool, jobs.front(index, datalog.clone())) {
                fronts += 1;
                continue;
            } else {
                JobError::Busy
            };
            outcomes[index] = Some(Err(refused));
            open -= 1;
        }

        // The coordinator holds a sender only while front jobs are
        // outstanding (their results fan out into more jobs). After the
        // last one reports it lets go, so a lost job shows up as a closed
        // channel instead of a hang.
        let mut jobs = Some(jobs);
        while open > 0 {
            if fronts == 0 {
                jobs = None;
            }
            let Ok(finished) = rx.recv() else {
                // Every sender dropped with slots unfilled: a submitted
                // job was lost. Its slot merges as a Cancelled skip.
                for (outcome, p) in outcomes.iter_mut().zip(&mut pending) {
                    if let Some(p) = p.take() {
                        *outcome = Some(Ok(p.merge()));
                    }
                }
                break;
            };
            let index = match finished {
                Finished::Front {
                    index,
                    output,
                    busy_us: us,
                } => {
                    fronts -= 1;
                    busy_us[index] += us;
                    match output {
                        Ok((mut p, shared)) => {
                            if let Some(shared) = shared {
                                on_event(index, StreamEvent::Suspects(&p.suspects));
                                suspect_jobs +=
                                    graph.fan_out(pool, jobs.as_ref(), index, &shared, &mut p);
                            }
                            pending[index] = Some(p);
                        }
                        Err(e) => {
                            outcomes[index] = Some(Err(e));
                            open -= 1;
                        }
                    }
                    index
                }
                Finished::Suspect {
                    index,
                    slot,
                    result,
                    busy_us: us,
                } => {
                    busy_us[index] += us;
                    if let Some(p) = pending[index].as_mut() {
                        let (gate, ok) = (p.suspects[slot], result.is_ok());
                        if p.fill(slot, *result) {
                            on_event(index, StreamEvent::SuspectDone { slot, gate, ok });
                        }
                    }
                    index
                }
            };
            if pending[index].as_ref().is_some_and(Pending::is_complete) {
                outcomes[index] = pending[index].take().map(|p| Ok(p.merge()));
                open -= 1;
            }
        }

        let outcomes = outcomes
            .into_iter()
            .zip(busy_us)
            .enumerate()
            .map(|(index, (report, busy_us))| BatchOutcome {
                index,
                report: report.unwrap_or_else(|| {
                    Err(JobError::Panicked("datalog result missing".to_owned()))
                }),
                busy_us,
            })
            .collect();
        (outcomes, suspect_jobs)
    }
}
