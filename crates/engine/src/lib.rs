//! The per-datalog diagnosis flow and a parallel batch-diagnosis engine
//! over it.
//!
//! [`flow`] is the paper's Fig. 2 for one datalog: sanitize, inter-cell
//! diagnosis, then local pattern extraction, intra-cell CPT and ranking
//! for each suspected gate, with per-suspect failures recorded in a
//! [`FlowReport`] instead of aborting it.
//!
//! The paper's volume-diagnosis setting is inherently batch-shaped: one
//! design, one test set, thousands of failing-device datalogs. This crate
//! turns the staged flow into a job graph and executes it on a std-only
//! thread pool with one bounded FIFO queue (the build environment has no
//! registry access, so no `rayon`):
//!
//! * **job graph** — per datalog a *front* job (sanitize → test-escape
//!   check → inter-cell diagnosis → suspect selection), then per
//!   (datalog × suspected gate) an independent *analysis* job, run by one
//!   coordinator that both entry points share;
//! * **shared immutable artifacts** — the [`ExperimentContext`] (circuit,
//!   transistor-level cell library, pattern set) and the batch-wide
//!   good-machine simulation are computed once and `Arc`-shared by every
//!   job;
//! * **shared-artifact caching** — an [`icd_core::AnalysisCache`] shares
//!   per-cell-type truth tables and critical-path traces across jobs; the
//!   cache is transparent (identical results with and without);
//! * **panic isolation** — every job runs under `catch_unwind`; a
//!   poisoned suspect becomes a structured [`SkippedGate`] in its
//!   datalog's report, a poisoned front job becomes a
//!   [`JobError::Panicked`] outcome, and the rest of the batch is
//!   untouched;
//! * **deterministic merging** — results are placed by (datalog index,
//!   suspect slot), so the merged [`BatchReport`] is byte-identical for
//!   any worker count and any scheduling order;
//! * **a long-lived streaming form** — [`DiagnosisService`] keeps one
//!   pool, good simulation and cache alive across many requests and runs
//!   each as the one-datalog case of the same job graph, with a bounded
//!   admission wait ([`JobError::Busy`]), a cooperative [`CancelToken`]
//!   checked at job boundaries (cancelled work surfaces as
//!   [`FlowError::Cancelled`] and never poisons the pool), a
//!   fault-injection hook and streamed [`StreamEvent`]s — the execution
//!   core of the `icd-server` daemon;
//! * **observability** — with an [`icd_obs`] [`Collector`] installed
//!   around [`BatchEngine::diagnose_batch`], the run records per-stage
//!   latency histograms, cache/set-cover counters and pool health (queue
//!   high-water, per-worker busy/idle); with an [`icd_obs::TraceContext`]
//!   entered around it, every job enters that trace and runs under a
//!   span keyed by its merge identity. The span forest and the redacted
//!   metrics snapshot are byte-identical at any worker count.
//!
//! ```
//! use std::sync::Arc;
//!
//! use icd_core::AnalysisCache;
//! use icd_engine::{BatchEngine, EngineConfig, ExperimentContext};
//! use icd_netlist::generator;
//!
//! let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 1, 25)
//!     .unwrap()
//!     .into_shared();
//! // An all-pass datalog: the batch engine reports a clean test escape.
//! let escape = icd_faultsim::Datalog {
//!     circuit_name: ctx.circuit.name().to_owned(),
//!     num_patterns: ctx.patterns.len(),
//!     entries: vec![],
//! };
//! let engine = BatchEngine::new(EngineConfig::with_workers(2));
//! let cache = Arc::new(AnalysisCache::new());
//! let batch = engine.diagnose_batch(&ctx, &[escape], &cache).unwrap();
//! assert!(batch.outcomes[0].report.as_ref().unwrap().is_escape());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]

mod batch;
mod cancel;
mod engine;
pub mod flow;
mod graph;
mod pool;
mod service;

pub use batch::{defect_pool, synthesize_batch, BatchConfig};
pub use cancel::CancelToken;
pub use engine::{BatchEngine, BatchOutcome, BatchReport, BatchStats, EngineConfig, JobError};
pub use pool::{Job, PoolMetrics, WorkerPool};
pub use service::{summarize_report, DiagnosisService, StreamEvent};

// Convenience re-exports: everything a caller needs to build a batch.
pub use flow::{ExperimentContext, FlowError, FlowReport, FlowStage, SkippedGate};
pub use icd_obs::{Collector, MetricsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;

    // The engine's whole design rests on the shared artifacts being
    // usable from worker threads.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_artifacts_are_send_and_sync() {
        assert_send_sync::<ExperimentContext>();
        assert_send_sync::<icd_core::AnalysisCache>();
        assert_send_sync::<icd_faultsim::BitValues>();
        assert_send_sync::<icd_faultsim::Datalog>();
        assert_send_sync::<icd_intercell::IntercellDiagnosis>();
        assert_send_sync::<BatchEngine>();
        assert_send_sync::<WorkerPool>();
    }

    #[test]
    fn config_from_env_respects_icd_workers_format() {
        // Only the pure parsing path: with_workers clamps to >= 1.
        assert_eq!(EngineConfig::with_workers(0).workers, 1);
        assert_eq!(EngineConfig::with_workers(8).workers, 8);
        assert!(EngineConfig::with_workers(1).queue_capacity >= 16);
    }
}
