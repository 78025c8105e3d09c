//! A fault-tolerant streaming diagnosis daemon over the batch engine.
//!
//! The paper's deployment shape is a tester farm feeding datalogs to a
//! diagnosis box continuously — not a one-shot CLI run. This crate is
//! that box, std-only (the build environment has no async runtime):
//!
//! * **wire protocol** ([`frame`]) — versioned length-framed messages
//!   with crc32 payload integrity; every malformed input is a typed
//!   [`ProtocolError`], split into frame-bounded (connection survives)
//!   and desynchronizing (connection closes) severities. One reader,
//!   [`frame::read_frame`], serves the daemon and the [`Client`];
//! * **daemon** ([`server`]) — thread-per-connection TCP server feeding
//!   one shared [`DiagnosisService`](icd_engine::DiagnosisService);
//!   `Request` and `Volume` frames share one handler, and a request that
//!   produces no report fails with one typed cause (deadline, busy,
//!   internal, client gone); per-request deadlines and per-connection
//!   idle budgets ride a cooperative
//!   [`CancelToken`](icd_engine::CancelToken), checked at job boundaries
//!   so cancellation never poisons the pool;
//! * **graceful degradation** — queue-full admission and contained
//!   worker panics retry with capped exponential backoff + seeded
//!   jitter ([`retry`]); when the budget runs out, a partial report
//!   ships as [`ResponseStatus::Degraded`] (the wire twin of `icdiag`'s
//!   exit code 3) rather than an error;
//! * **graceful shutdown** — drain on signal: refuse new connections,
//!   finish in-flight requests within a bounded deadline, then
//!   hard-cancel the rest through one parent token;
//! * **chaos harness** ([`chaos`]) — seeded injection of worker panics,
//!   frame corruption, mid-frame disconnects, slow-loris writes and
//!   stalled sockets, so a soak test can prove the daemon never crashes
//!   and clean responses stay byte-identical to `icdiag run`;
//! * **live telemetry** ([`stats`], the `Stats` wire frame) — per-request
//!   trace ids threaded from frame decode through the engine's flow
//!   stages into a rotating JSONL event log, rolling-window latency
//!   percentiles snapshotted without pausing service, and a
//!   bench-baseline regression gate ([`benchdiff`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]

pub mod benchdiff;
pub mod chaos;
pub mod client;
pub mod frame;
pub mod retry;
pub mod server;
pub mod stats;

pub use benchdiff::{BenchDiff, Direction, MetricDelta};
pub use chaos::{ChaosClient, ChaosPanics, ClientFault};
pub use client::{Client, ClientError, Response};
pub use frame::{ErrorCode, Frame, FrameType, ProtocolError, ResponseStatus};
pub use retry::BackoffConfig;
pub use server::{DrainOutcome, Server, ServerConfig, ServerHandle};
pub use stats::{LiveStats, RequestKind, RequestOutcome};
