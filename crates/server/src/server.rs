//! The diagnosis daemon: accept loop, connection state machine, retry
//! and drain policy.
//!
//! One OS thread per connection (std-only — no async runtime exists in
//! this build environment), all of them feeding one shared
//! [`DiagnosisService`] whose worker pool bounds the actual diagnosis
//! concurrency. The per-connection thread is the request's *coordinator*:
//! it parses frames, owns the retry loop, and streams progress frames
//! back — workers never block on sockets and sockets never block
//! workers.
//!
//! A connection walks a small state machine:
//!
//! ```text
//!        ┌────────────── Goodbye (drain reached us) ◄──┐
//!        ▼                                             │
//! Idle ──read frame──► Serving ──response written──► Idle
//!   │                     │
//!   │ idle timeout        │ desynchronizing ProtocolError,
//!   │ clean EOF           │ stalled mid-frame, or I/O failure
//!   ▼                     ▼
//! Closed ◄── Error frame + close
//! ```
//!
//! Frame-bounded protocol errors (bad crc, unknown type) answer with an
//! `Error` frame and return to `Idle` — one corrupt frame does not cost
//! the connection, and nothing any client sends can cost the daemon.

use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use icd_engine::{
    summarize_report, CancelToken, DiagnosisService, ExperimentContext, FlowError, FlowReport,
    JobError, StreamEvent,
};
use icd_faultsim::NoiseRng;
use icd_obs::{EventLog, TraceContext};

use crate::chaos::ChaosPanics;
use crate::frame::{self, ErrorCode, Frame, FrameError, FrameType, ResponseStatus, HEADER_LEN};
use crate::retry::BackoffConfig;
use crate::stats::{LiveStats, RequestKind, RequestOutcome};

/// All server counters are scheduling-stable per-run sums.
fn count(name: &'static str, delta: u64) {
    icd_obs::counter(name, delta, icd_obs::Stability::Stable);
}

/// Seed of the per-connection backoff jitter streams.
const JITTER_SEED: u64 = 0x01cd_5eed;

/// Everything tunable about one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the shared diagnosis pool.
    pub workers: usize,
    /// Bounded job queue capacity behind those workers.
    pub queue_capacity: usize,
    /// How long one admission attempt may wait for queue space before
    /// it counts as a `Busy` transient (the retry loop sits above this).
    pub submit_wait: Duration,
    /// Retry schedule for transient failures (queue-full, worker panic).
    pub backoff: BackoffConfig,
    /// Deadline applied when a request carries `deadline_ms = 0`.
    pub default_deadline: Duration,
    /// A connection with no complete frame for this long is closed.
    pub idle_timeout: Duration,
    /// How long [`Server::run`] waits for in-flight requests at
    /// shutdown before hard-cancelling what remains.
    pub drain_deadline: Duration,
    /// Optional seeded worker-panic injection (the chaos harness).
    pub chaos_panics: Option<ChaosPanics>,
    /// Optional rotating JSONL event log: one structured record per
    /// completed `Request`/`Volume` frame (trace id, outcome, timings,
    /// span forest, point events).
    pub event_log: Option<Arc<EventLog>>,
    /// Requests slower than this are flagged `"slow": true` in their
    /// event-log record and counted under `server.requests_slow`.
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            submit_wait: Duration::from_millis(100),
            backoff: BackoffConfig::default(),
            default_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(10),
            chaos_panics: None,
            event_log: None,
            slow_threshold: Duration::from_secs(1),
        }
    }
}

/// Shared mutable server state (accept loop, handles, connections).
struct ServerState {
    draining: AtomicBool,
    drain_token: CancelToken,
    active_requests: AtomicUsize,
    connection_seq: AtomicUsize,
    stats: LiveStats,
}

/// A clonable remote control for a running server: signal shutdown from
/// another thread (or from the connection that received a `Shutdown`
/// frame) and watch the drain flag.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to drain and exit: new connections are refused,
    /// in-flight requests finish (until the drain deadline), then
    /// [`Server::run`] returns. Idempotent.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::Acquire)
    }
}

/// How a finished [`Server::run`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every in-flight request completed within the drain deadline.
    Clean,
    /// The deadline expired; remaining requests were hard-cancelled via
    /// the drain token (they surface `Cancelled`, the pool stays sane).
    Forced,
}

/// The daemon: a bound listener plus the shared diagnosis service.
pub struct Server {
    listener: TcpListener,
    service: Arc<DiagnosisService>,
    config: Arc<ServerConfig>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and builds the shared
    /// diagnosis service (good-machine simulation runs here, once).
    ///
    /// # Errors
    ///
    /// I/O errors from binding; flow errors from the good simulation
    /// are surfaced as [`io::ErrorKind::InvalidInput`].
    pub fn bind(
        addr: &str,
        ctx: Arc<ExperimentContext>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut service = DiagnosisService::new(
            ctx,
            config.workers,
            config.queue_capacity,
            config.submit_wait,
        )
        .map_err(|e| io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        if let Some(chaos) = &config.chaos_panics {
            service = service.with_job_hook(chaos.hook());
        }
        Ok(Server {
            listener,
            service: Arc::new(service),
            config: Arc::new(config),
            state: Arc::new(ServerState {
                draining: AtomicBool::new(false),
                drain_token: CancelToken::new(),
                active_requests: AtomicUsize::new(0),
                connection_seq: AtomicUsize::new(0),
                stats: LiveStats::new(),
            }),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the OS's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control for this server.
    ///
    /// # Errors
    ///
    /// Propagates the OS's `local_addr` failure.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            state: Arc::clone(&self.state),
            addr: self.local_addr()?,
        })
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] (or a
    /// client `Shutdown` frame), then drains and returns how.
    ///
    /// # Errors
    ///
    /// Only a fatal `accept` failure (not per-connection errors, which
    /// are contained and counted).
    pub fn run(self) -> io::Result<DrainOutcome> {
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.state.draining.load(Ordering::Acquire) {
                count("server.connections_refused", 1);
                refuse_draining(stream);
                break;
            }
            count("server.connections_accepted", 1);
            let seq = self.state.connection_seq.fetch_add(1, Ordering::Relaxed);
            let conn = Connection {
                service: Arc::clone(&self.service),
                config: Arc::clone(&self.config),
                state: Arc::clone(&self.state),
                jitter: NoiseRng::new(JITTER_SEED ^ (seq as u64).wrapping_mul(0x9e37)),
            };
            let handle = thread::Builder::new()
                .name(format!("icd-conn-{seq}"))
                .spawn(move || conn.serve(stream))?;
            connections.push(handle);
            // Reap finished connection threads so the vec stays bounded.
            connections.retain(|h| !h.is_finished());
        }

        // Drain: wait for in-flight requests, then hard-cancel leftovers.
        let deadline = Instant::now() + self.config.drain_deadline;
        let mut outcome = DrainOutcome::Clean;
        while self.state.active_requests.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                outcome = DrainOutcome::Forced;
                self.state.drain_token.cancel();
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Pool settles (bounded even when forced: cancelled jobs are
        // skipped at their boundary checks, running ones finish).
        let settle = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(200));
        self.service.wait_idle(settle);
        // Connection threads exit on their own (their sockets poll the
        // drain flag at least every poll interval).
        for h in connections {
            let _ = h.join();
        }
        match outcome {
            DrainOutcome::Clean => count("server.drain_clean", 1),
            DrainOutcome::Forced => count("server.drain_forced", 1),
        }
        Ok(outcome)
    }
}

/// Tells a client arriving mid-drain why it is being turned away.
fn refuse_draining(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = frame::write_frame(
        &mut stream,
        &error_frame(0, ErrorCode::Draining, "server is draining"),
    );
}

fn error_frame(request_id: u64, code: ErrorCode, message: &str) -> Frame {
    let mut payload = Vec::with_capacity(1 + message.len());
    payload.push(code as u8);
    payload.extend_from_slice(message.as_bytes());
    Frame {
        frame_type: FrameType::Error,
        request_id,
        trace_id: None,
        payload,
    }
}

/// Interval at which blocked reads wake to check the drain flag and the
/// idle budget. Bounds how stale a drain signal can go unnoticed.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Why a [`PolledReader`] stopped a frame read on its own.
#[derive(Clone, Copy)]
enum Stop {
    /// The drain flag was up and no byte of the frame had arrived.
    Draining,
    /// The idle budget ran out before the frame was complete.
    TimedOut,
}

/// The connection's socket as a [`Read`] for [`frame::read_frame`]. A
/// blocked read wakes every [`POLL_INTERVAL`] to check the drain flag
/// and the idle budget; when either ends the read, the reason is kept in
/// `stop` and the read fails with an I/O error. Drain interrupts only
/// between frames: a frame that has started arriving is an in-flight
/// request and must not be lost.
struct PolledReader<'a> {
    stream: &'a TcpStream,
    draining: &'a AtomicBool,
    started: Instant,
    idle_timeout: Duration,
    /// Bytes of this frame read so far.
    read: usize,
    /// When the header's last byte arrived: the start of the request's
    /// `server.decode` span.
    header_done: Option<Instant>,
    stop: Option<Stop>,
}

impl<'a> PolledReader<'a> {
    fn new(stream: &'a TcpStream, draining: &'a AtomicBool, idle_timeout: Duration) -> Self {
        PolledReader {
            stream,
            draining,
            started: Instant::now(),
            idle_timeout,
            read: 0,
            header_done: None,
            stop: None,
        }
    }
}

impl Read for PolledReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.read == 0 && self.draining.load(Ordering::Acquire) {
                self.stop = Some(Stop::Draining);
            } else if self.started.elapsed() > self.idle_timeout {
                self.stop = Some(Stop::TimedOut);
            }
            if self.stop.is_some() {
                return Err(ErrorKind::TimedOut.into());
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    if self.read < HEADER_LEN && self.read + n >= HEADER_LEN {
                        self.header_done = Some(Instant::now());
                    }
                    self.read += n;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Why a diagnosis produced no report.
enum Failure {
    /// The request's token was cancelled (deadline or forced drain); the
    /// message says at which point.
    Deadline(&'static str),
    /// The queue stayed full through this many retries.
    Busy(u32),
    /// The request failed as a whole: a front-stage error, or worker
    /// panics that survived every retry.
    Internal(String),
    /// A streamed frame could not be written: the client is gone.
    ClientGone,
}

impl Failure {
    fn code(&self) -> ErrorCode {
        match self {
            Failure::Deadline(_) => ErrorCode::DeadlineExceeded,
            Failure::Busy(_) => ErrorCode::Busy,
            Failure::Internal(_) | Failure::ClientGone => ErrorCode::Internal,
        }
    }

    fn message(&self) -> String {
        match self {
            Failure::Deadline(message) => (*message).to_owned(),
            Failure::Busy(retries) => format!("queue stayed full through {retries} retries"),
            Failure::Internal(message) => message.clone(),
            Failure::ClientGone => "client connection lost mid-stream".to_owned(),
        }
    }
}

/// A failed attempt the retry loop may try again.
enum Transient {
    /// The report came back with panicked suspect slots; once the retry
    /// budget is spent it ships as the degraded answer.
    PanickedSlots(FlowReport),
    /// The front job panicked.
    FrontPanic,
    /// Admission found the queue full.
    QueueFull,
}

struct Connection {
    service: Arc<DiagnosisService>,
    config: Arc<ServerConfig>,
    state: Arc<ServerState>,
    jitter: NoiseRng,
}

impl Connection {
    fn serve(mut self, mut stream: TcpStream) {
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
            || stream
                .set_write_timeout(Some(self.config.idle_timeout))
                .is_err()
            || stream.set_nodelay(true).is_err()
        {
            return;
        }
        loop {
            let mut reader =
                PolledReader::new(&stream, &self.state.draining, self.config.idle_timeout);
            let read = frame::read_frame(&mut reader, frame::DEFAULT_MAX_PAYLOAD);
            let (stop, mid_frame, header_done) = (reader.stop, reader.read > 0, reader.header_done);
            let f = match read {
                Ok(Some(f)) => f,
                Ok(None) => return,
                Err(FrameError::Protocol(p)) => {
                    count("server.frames_bad", 1);
                    let ok = frame::write_frame(
                        &mut stream,
                        &error_frame(0, ErrorCode::Protocol, &p.to_string()),
                    )
                    .is_ok();
                    // Frame-bounded errors leave the stream in sync;
                    // anything else must desynchronize-close.
                    if !p.is_frame_bounded() || !ok {
                        return;
                    }
                    continue;
                }
                Err(FrameError::Io(_)) => {
                    match stop {
                        Some(Stop::Draining) => {
                            let _ = frame::write_frame(
                                &mut stream,
                                &Frame::bare(FrameType::Goodbye, 0),
                            );
                        }
                        Some(Stop::TimedOut) if mid_frame => {
                            count("server.stalled_clients", 1);
                            let _ = frame::write_frame(
                                &mut stream,
                                &error_frame(
                                    0,
                                    ErrorCode::Protocol,
                                    "frame not completed within the idle budget",
                                ),
                            );
                        }
                        Some(Stop::TimedOut) => count("server.idle_timeouts", 1),
                        // The socket failed outright: nothing useful can
                        // be written back.
                        None => {}
                    }
                    return;
                }
            };
            // Header complete to frame validated: the `server.decode` span.
            let decode_start = header_done.unwrap_or_else(Instant::now);
            let decode = (decode_start, decode_start.elapsed());
            count("server.frames_rx", 1);
            let keep = match f.frame_type {
                FrameType::Ping => {
                    let t0 = Instant::now();
                    let ok = frame::write_frame(
                        &mut stream,
                        &Frame::bare(FrameType::Pong, f.request_id),
                    )
                    .is_ok();
                    if ok {
                        self.state
                            .stats
                            .record_ping(t0.elapsed().as_micros() as u64);
                    }
                    ok
                }
                FrameType::Stats => {
                    // Served regardless of drain state: an operator
                    // watching a drain is the moment stats matter most.
                    // The snapshot reads atomics and clones histograms —
                    // service never pauses.
                    count("server.stats_requests", 1);
                    let json = self.state.stats.snapshot_json(
                        self.service.pending_jobs(),
                        self.state.active_requests.load(Ordering::Acquire),
                        self.state.draining.load(Ordering::Acquire),
                    );
                    count("server.frames_tx", 1);
                    let reply = Frame {
                        frame_type: FrameType::StatsReport,
                        request_id: f.request_id,
                        trace_id: f.trace_id,
                        payload: json.into_bytes(),
                    };
                    frame::write_frame(&mut stream, &reply).is_ok()
                }
                FrameType::Shutdown => {
                    count("server.shutdown_requested", 1);
                    let _ = frame::write_frame(
                        &mut stream,
                        &Frame::bare(FrameType::Goodbye, f.request_id),
                    );
                    self.state.draining.store(true, Ordering::Release);
                    // Wake the accept loop the same way a handle would.
                    if let Ok(addr) = stream.local_addr() {
                        let _ = TcpStream::connect(addr);
                    }
                    false
                }
                FrameType::Request | FrameType::Volume => {
                    self.handle_diagnosis(&mut stream, &f, decode)
                }
                // A client sending server-side frames is out of protocol;
                // frame-bounded, answer and continue.
                _ => {
                    count("server.frames_bad", 1);
                    frame::write_frame(
                        &mut stream,
                        &error_frame(
                            f.request_id,
                            ErrorCode::Protocol,
                            "unexpected server-to-client frame type",
                        ),
                    )
                    .is_ok()
                }
            };
            if !keep {
                return;
            }
        }
    }

    /// Serves one `Request` or `Volume` frame inside its telemetry: the
    /// trace (adopting the client's trace id, or minting one) with the
    /// measured `server.decode` span as its first root, the per-kind
    /// counter and root span, the live stats and the event-log record.
    /// The root span and the recorded latency end when the answer is
    /// ready; writing it comes after. Returns whether the connection
    /// should keep serving.
    fn handle_diagnosis(
        &mut self,
        stream: &mut TcpStream,
        request: &Frame,
        (decode_start, decode): (Instant, Duration),
    ) -> bool {
        let t0 = Instant::now();
        let (kind, counter, root) = if request.frame_type == FrameType::Volume {
            (
                RequestKind::Volume,
                "server.volume_requests",
                "server.volume",
            )
        } else {
            (
                RequestKind::Request,
                "server.requests_received",
                "server.request",
            )
        };
        count(counter, 1);
        count("server.requests_total", 1);
        let trace = TraceContext::new(request.trace_id.unwrap_or_else(icd_obs::mint_trace_id));
        trace.record_span_external("server.decode", decode_start, decode);
        let (answer, outcome) = {
            let _entered = trace.enter();
            let _root = icd_obs::span(root);
            match kind {
                RequestKind::Volume => self.run_volume(stream, request, &trace),
                _ => self.run_request(stream, request, &trace),
            }
        };
        // The request is recorded before its answer goes out, so a client
        // holding the answer finds it in the next Stats frame.
        let latency_us = t0.elapsed().as_micros() as u64;
        self.state.stats.record_request(kind, outcome, latency_us);
        let keep = frame::write_frame(stream, &answer).is_ok();
        self.log_request(&trace, request.request_id, kind, outcome, latency_us);
        keep
    }

    /// Counts a slow request and, when an event log is configured,
    /// writes the request's structured JSONL record.
    fn log_request(
        &self,
        trace: &TraceContext,
        request_id: u64,
        kind: RequestKind,
        outcome: RequestOutcome,
        latency_us: u64,
    ) {
        let slow = latency_us >= self.config.slow_threshold.as_micros() as u64;
        if slow {
            count("server.requests_slow", 1);
        }
        let Some(log) = &self.config.event_log else {
            return;
        };
        let kind_label = match kind {
            RequestKind::Request => "request",
            RequestKind::Volume => "volume",
            RequestKind::Ping => "ping",
        };
        let outcome_label = match outcome {
            RequestOutcome::Clean => "clean",
            RequestOutcome::Degraded => "degraded",
            RequestOutcome::Failed => "failed",
            RequestOutcome::Rejected => "rejected",
        };
        let mut line = String::with_capacity(1024);
        line.push_str(&format!(
            "{{\"trace_id\":\"{:#018x}\",\"request_id\":{},\"kind\":\"{}\",\"outcome\":\"{}\",\"latency_us\":{},\"slow\":{},\"events\":[",
            trace.trace_id(),
            request_id,
            kind_label,
            outcome_label,
            latency_us,
            slow,
        ));
        for (i, ev) in trace.events().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{{\"at_us\":{},\"kind\":", ev.at_us));
            icd_obs::json::write_string(&mut line, ev.kind);
            line.push_str(",\"detail\":");
            icd_obs::json::write_string(&mut line, &ev.detail);
            line.push('}');
        }
        line.push_str("],\"spans\":");
        line.push_str(icd_obs::forest_json(&trace.span_forest(), false).trim_end());
        line.push('}');
        if log.write_line(&line).is_err() {
            count("server.event_log_errors", 1);
        }
    }

    /// The request's cancellation token: its own deadline (the server
    /// default for `deadline_ms = 0`), hung off the drain token so a
    /// forced drain cancels every in-flight request with one call.
    fn request_token(&self, deadline_ms: u32) -> CancelToken {
        let deadline = if deadline_ms == 0 {
            self.config.default_deadline
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        };
        self.state.drain_token.child_with_deadline(Some(deadline))
    }

    /// The body of one diagnosis request: parse, retry loop, stream.
    /// Returns the answer frame and the request's outcome.
    fn run_request(
        &mut self,
        stream: &mut TcpStream,
        request: &Frame,
        trace: &TraceContext,
    ) -> (Frame, RequestOutcome) {
        let id = request.request_id;
        let Some((deadline_ms, text)) = frame::parse_request_payload(&request.payload) else {
            return bad_payload(id, trace, "request payload too short or not UTF-8");
        };
        let datalog = match icd_faultsim::datalog_text::parse(text) {
            Ok(d) => d,
            Err(e) => return bad_payload(id, trace, &e.to_string()),
        };
        let token = self.request_token(deadline_ms);

        self.state.active_requests.fetch_add(1, Ordering::AcqRel);
        let result = self.diagnose_with_retry(stream, id, trace, &datalog, &token);
        self.state.active_requests.fetch_sub(1, Ordering::AcqRel);

        match result {
            Ok(report) => {
                let degraded = report
                    .is_degraded()
                    .then(|| "report shipped with skipped work".to_owned());
                let summary = summarize_report(self.service.context(), &report);
                respond(id, trace, degraded, &summary)
            }
            Err(failure) => {
                let (counter, outcome) = match failure {
                    Failure::Deadline(_) => {
                        ("server.requests_deadline_exceeded", RequestOutcome::Failed)
                    }
                    Failure::Busy(_) => ("server.requests_rejected_busy", RequestOutcome::Rejected),
                    Failure::Internal(_) | Failure::ClientGone => {
                        ("server.requests_failed", RequestOutcome::Failed)
                    }
                };
                count(counter, 1);
                (fail(id, trace, &failure), outcome)
            }
        }
    }

    /// The body of one volume request: parse the corpus, diagnose every
    /// device under one deadline token, aggregate into the canonical
    /// volume-report JSON. Returns the answer frame and the outcome.
    ///
    /// Per-device behaviour mirrors `icdiag volume`: unparseable datalog
    /// texts are skipped (counted, reflected in the report's coverage),
    /// per-device diagnosis failures degrade the report instead of
    /// failing the request. Only an unusable payload, an expired
    /// deadline or a vanished client fails the whole request.
    /// Progress/Suspects frames are streamed per device under the volume
    /// request id; clients collect until the final Report frame.
    fn run_volume(
        &mut self,
        stream: &mut TcpStream,
        request: &Frame,
        trace: &TraceContext,
    ) -> (Frame, RequestOutcome) {
        let id = request.request_id;
        let Some((deadline_ms, devices)) = frame::parse_volume_payload(&request.payload) else {
            return bad_payload(
                id,
                trace,
                "volume payload malformed (length fields or UTF-8)",
            );
        };
        let mut skipped = 0usize;
        let mut parsed: Vec<(String, icd_faultsim::Datalog)> = Vec::with_capacity(devices.len());
        for (name, text) in devices {
            match icd_faultsim::datalog_text::parse(&text) {
                Ok(d) => parsed.push((name, d)),
                Err(_) => {
                    count("server.volume_devices_skipped", 1);
                    skipped += 1;
                }
            }
        }
        count("server.volume_devices", parsed.len() as u64);
        let token = self.request_token(deadline_ms);

        self.state.active_requests.fetch_add(1, Ordering::AcqRel);
        let mut reports: Vec<(String, FlowReport)> = Vec::new();
        let mut failed = 0usize;
        let mut fatal = None;
        for (i, (name, datalog)) in parsed.iter().enumerate() {
            // A device that streams nothing never writes to the socket,
            // so a hang-up is looked for before every further device.
            if i > 0 && hung_up(stream) {
                fatal = Some(Failure::ClientGone);
                break;
            }
            let device_t0 = Instant::now();
            let result = self.diagnose_with_retry(stream, id, trace, datalog, &token);
            trace.event(
                "volume.device",
                format!(
                    "name={name} wall_us={} ok={}",
                    device_t0.elapsed().as_micros(),
                    u8::from(result.is_ok()),
                ),
            );
            match result {
                Ok(report) => reports.push((name.clone(), report)),
                // The shared deadline is spent, or nobody is listening:
                // nothing after this device can complete either.
                Err(failure @ (Failure::Deadline(_) | Failure::ClientGone)) => {
                    fatal = Some(failure);
                    break;
                }
                Err(_) => failed += 1,
            }
        }
        self.state.active_requests.fetch_sub(1, Ordering::AcqRel);

        if let Some(failure) = fatal {
            count("server.requests_failed", 1);
            return (fail(id, trace, &failure), RequestOutcome::Failed);
        }
        let ctx = self.service.context();
        let named: Vec<(String, &FlowReport)> =
            reports.iter().map(|(n, r)| (n.clone(), r)).collect();
        let volume_report = icd_volume::assemble_report(
            ctx,
            ctx.circuit.content_hash(),
            &named,
            failed,
            skipped,
            &icd_volume::AggregationConfig::default(),
        );
        // Degraded mirrors `icdiag volume` exit code 3: part of the
        // failing population never made it into the aggregate.
        let degraded = (volume_report.devices_failed > 0 || volume_report.devices_skipped > 0)
            .then(|| {
                format!(
                    "devices failed={} skipped={}",
                    volume_report.devices_failed, volume_report.devices_skipped
                )
            });
        respond(id, trace, degraded, &volume_report.to_json())
    }

    /// The transient-failure retry loop around one streamed diagnosis.
    ///
    /// Retried (with capped exponential backoff + jitter): queue-full
    /// admission ([`JobError::Busy`]), whole-request worker panics,
    /// and reports whose only blemish is panicked suspect slots (the
    /// report of the successful retry is byte-identical to a clean run).
    /// Not retried: flow errors, expired deadlines, cancellation —
    /// permanent by construction.
    fn diagnose_with_retry(
        &mut self,
        stream: &mut TcpStream,
        id: u64,
        trace: &TraceContext,
        datalog: &icd_faultsim::Datalog,
        token: &CancelToken,
    ) -> Result<FlowReport, Failure> {
        let trace_id = Some(trace.trace_id());
        let mut attempt = 0u32;
        loop {
            if token.is_cancelled() {
                return Err(Failure::Deadline("request cancelled before completion"));
            }
            // Stream progress frames as they happen; a retried attempt
            // re-emits (last write wins on the client side).
            let mut client_gone = false;
            let mut on_event = |ev: StreamEvent<'_>| {
                let (frame_type, body) = match ev {
                    StreamEvent::Suspects(gates) => (
                        FrameType::Suspects,
                        gates
                            .iter()
                            .map(|g| g.index().to_string())
                            .collect::<Vec<_>>()
                            .join(" "),
                    ),
                    StreamEvent::SuspectDone { slot, gate, ok } => (
                        FrameType::Progress,
                        format!("slot={slot} gate={} ok={}", gate.index(), u8::from(ok)),
                    ),
                };
                let frame = Frame {
                    frame_type,
                    request_id: id,
                    trace_id,
                    payload: body.into_bytes(),
                };
                count("server.frames_tx", 1);
                if frame::write_frame(stream, &frame).is_err() {
                    client_gone = true;
                }
            };
            // The request's trace is entered on this thread, so the
            // service's jobs enter it on their workers too.
            let outcome = self
                .service
                .diagnose_streamed(datalog, token, &mut on_event);
            if client_gone {
                // Nobody is listening; cancel our own work and stop.
                token.cancel();
                return Err(Failure::ClientGone);
            }
            let transient = match outcome {
                Ok(report)
                    if token.is_cancelled()
                        || !report
                            .skipped
                            .iter()
                            .any(|s| matches!(s.error, FlowError::Panicked(_))) =>
                {
                    return Ok(report);
                }
                Ok(report) => Transient::PanickedSlots(report),
                Err(JobError::Busy) => Transient::QueueFull,
                Err(JobError::Panicked(_)) => Transient::FrontPanic,
                Err(JobError::Flow(FlowError::Cancelled)) => {
                    return Err(Failure::Deadline(
                        "deadline expired before the front stage ran",
                    ));
                }
                Err(e) => return Err(Failure::Internal(e.to_string())),
            };
            let Some(delay) = self.config.backoff.delay(attempt, &mut self.jitter) else {
                // The budget is spent. Panicked slots ship as a degraded
                // partial report (graceful degradation, not an error).
                return match transient {
                    Transient::PanickedSlots(report) => {
                        trace.event(
                            "degraded",
                            "panicked suspect slots survived the retry budget",
                        );
                        Ok(report)
                    }
                    Transient::FrontPanic => Err(Failure::Internal(format!(
                        "worker panic survived {attempt} retries"
                    ))),
                    Transient::QueueFull => Err(Failure::Busy(attempt)),
                };
            };
            let (counter, event, what) = match transient {
                Transient::PanickedSlots(_) => (
                    "server.retries_panic",
                    "retry.panic",
                    "panicked suspect slots",
                ),
                Transient::FrontPanic => ("server.retries_panic", "retry.panic", "front panic"),
                Transient::QueueFull => ("server.retries_busy", "retry.busy", "queue full"),
            };
            count(counter, 1);
            trace.event(event, format!("{what}, attempt={attempt}"));
            thread::sleep(delay);
            attempt += 1;
        }
    }
}

/// Whether the client has hung up, looked at without blocking: a
/// one-byte peek in non-blocking mode sees end of stream or a socket
/// error. A pipelined byte, or nothing to read yet, means the client is
/// still there. A socket that cannot leave blocking mode is not looked
/// at; one that cannot return to it counts as gone, since the
/// connection could not go on reading it.
fn hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut byte = [0u8; 1];
    let gone = match stream.peek(&mut byte) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
    };
    stream.set_nonblocking(false).is_err() || gone
}

/// An `Error` answer carrying the request's trace id, with `event`
/// recorded on the trace.
fn error_answer(
    id: u64,
    trace: &TraceContext,
    event: &'static str,
    code: ErrorCode,
    message: &str,
) -> Frame {
    trace.event(event, message);
    error_frame(id, code, message).with_trace_id(Some(trace.trace_id()))
}

/// The answer to a payload that is not a usable request: a typed
/// `BadPayload` error, counted as a failed request.
fn bad_payload(id: u64, trace: &TraceContext, message: &str) -> (Frame, RequestOutcome) {
    count("server.requests_bad_payload", 1);
    let answer = error_answer(
        id,
        trace,
        "error.bad_payload",
        ErrorCode::BadPayload,
        message,
    );
    (answer, RequestOutcome::Failed)
}

/// The answer to a diagnosis that produced no report.
fn fail(id: u64, trace: &TraceContext, failure: &Failure) -> Frame {
    error_answer(id, trace, "error", failure.code(), &failure.message())
}

/// The final `Report` answer. `degraded` is the trace event's detail
/// when the answer is partial.
fn respond(
    id: u64,
    trace: &TraceContext,
    degraded: Option<String>,
    summary: &str,
) -> (Frame, RequestOutcome) {
    let (status, outcome) = match degraded {
        Some(detail) => {
            count("server.requests_degraded", 1);
            trace.event("degraded", detail);
            (ResponseStatus::Degraded, RequestOutcome::Degraded)
        }
        None => {
            count("server.requests_ok", 1);
            (ResponseStatus::Ok, RequestOutcome::Clean)
        }
    };
    let mut payload = Vec::with_capacity(1 + summary.len());
    payload.push(status as u8);
    payload.extend_from_slice(summary.as_bytes());
    count("server.frames_tx", 1);
    let answer = Frame {
        frame_type: FrameType::Report,
        request_id: id,
        trace_id: Some(trace.trace_id()),
        payload,
    };
    (answer, outcome)
}

#[cfg(test)]
mod tests {
    //! Failure paths that need a deterministic pool: one worker whose
    //! jobs wait at a gate until the test opens it.

    use std::collections::BTreeMap;
    use std::io::Write;
    use std::net::Shutdown;
    use std::path::{Path, PathBuf};
    use std::sync::{mpsc, Mutex, PoisonError};
    use std::time::{SystemTime, UNIX_EPOCH};

    use icd_engine::{synthesize_batch, BatchConfig};
    use icd_faultsim::{datalog_text, Datalog};
    use icd_netlist::generator;
    use icd_obs::json::Value;

    use super::*;
    use crate::client::{Client, ClientError, Response};

    const IO_TIMEOUT: Duration = Duration::from_secs(30);

    /// A running one-worker daemon. Every job first reports on `entered`,
    /// then waits at the gate until `open_gate` drops its sender.
    struct Gated {
        addr: SocketAddr,
        handle: ServerHandle,
        service: Arc<DiagnosisService>,
        join: thread::JoinHandle<io::Result<DrainOutcome>>,
        entered: mpsc::Receiver<()>,
        open: Option<mpsc::Sender<()>>,
        /// Failing device logs of the served design, as datalog text.
        texts: Vec<String>,
    }

    impl Gated {
        fn start(config: ServerConfig) -> Gated {
            let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 4, 16)
                .expect("scaled circuit A builds")
                .into_shared();
            let texts: Vec<String> = synthesize_batch(&ctx, &BatchConfig::new(4, 0x5eed))
                .expect("batch synthesizes")
                .iter()
                .filter(|d| !d.all_pass())
                .map(datalog_text::write)
                .collect();
            assert!(texts.len() >= 2, "need two failing devices");
            let (entered_tx, entered) = mpsc::channel();
            let (open, open_rx) = mpsc::channel::<()>();
            let gate = Mutex::new((entered_tx, open_rx));
            let hook = Arc::new(move || {
                let gate = gate.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = gate.0.send(());
                let _ = gate.1.recv();
            });
            let service = DiagnosisService::new(ctx, 1, config.queue_capacity, config.submit_wait)
                .expect("service builds")
                .with_job_hook(hook);
            let server = Server {
                listener: TcpListener::bind("127.0.0.1:0").expect("binds loopback"),
                service: Arc::new(service),
                config: Arc::new(config),
                state: Arc::new(ServerState {
                    draining: AtomicBool::new(false),
                    drain_token: CancelToken::new(),
                    active_requests: AtomicUsize::new(0),
                    connection_seq: AtomicUsize::new(0),
                    stats: LiveStats::new(),
                }),
            };
            let addr = server.local_addr().expect("local addr");
            let handle = server.handle().expect("handle");
            let service = Arc::clone(&server.service);
            let join = thread::spawn(move || server.run());
            Gated {
                addr,
                handle,
                service,
                join,
                entered,
                open: Some(open),
                texts,
            }
        }

        /// Submits `texts[i]` from a client thread of its own.
        fn submit_in_background(
            &self,
            i: usize,
            deadline_ms: u32,
        ) -> thread::JoinHandle<Result<Response, ClientError>> {
            let addr = self.addr;
            let text = self.texts[i].clone();
            thread::spawn(move || {
                Client::connect(addr, IO_TIMEOUT)
                    .map_err(ClientError::from)?
                    .submit(&text, deadline_ms)
            })
        }

        fn wait_entered(&self) {
            self.entered
                .recv_timeout(IO_TIMEOUT)
                .expect("a job reached the gate");
        }

        /// Polls until `n` jobs are queued or running.
        fn wait_pending(&self, n: usize) {
            let deadline = Instant::now() + IO_TIMEOUT;
            while self.service.pending_jobs() < n {
                assert!(Instant::now() < deadline, "never saw {n} pending jobs");
                thread::sleep(Duration::from_millis(1));
            }
        }

        fn open_gate(&mut self) {
            self.open = None;
        }

        /// The Stats frame's `requests` counters, polled until at least
        /// `total` requests are recorded.
        fn requests(&self, total: u64) -> BTreeMap<String, u64> {
            let mut client = Client::connect(self.addr, IO_TIMEOUT).expect("connects");
            let deadline = Instant::now() + IO_TIMEOUT;
            loop {
                let json = client.stats().expect("stats answered");
                let snapshot = icd_obs::json::parse(&json).expect("stats JSON");
                let requests: BTreeMap<String, u64> = snapshot
                    .get("requests")
                    .and_then(|r| r.as_object())
                    .expect("requests object")
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_u64().expect("integer counter")))
                    .collect();
                if requests["total"] >= total || Instant::now() >= deadline {
                    return requests;
                }
                thread::sleep(Duration::from_millis(1));
            }
        }

        fn finish(mut self) {
            self.open_gate();
            self.handle.shutdown();
            let outcome = self.join.join().expect("server thread").expect("run");
            assert_eq!(outcome, DrainOutcome::Clean);
        }
    }

    fn assert_partition(requests: &BTreeMap<String, u64>) {
        assert_eq!(
            requests["total"],
            requests["clean"] + requests["degraded"] + requests["failed"] + requests["rejected"],
            "{requests:?}"
        );
    }

    #[test]
    fn a_full_queue_is_answered_busy_and_counted_rejected() {
        let mut daemon = Gated::start(ServerConfig {
            queue_capacity: 1,
            submit_wait: Duration::from_millis(20),
            backoff: BackoffConfig {
                max_retries: 1,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(1),
            },
            ..ServerConfig::default()
        });
        // One request holds the worker at the gate, a second fills the
        // only queue slot.
        let first = daemon.submit_in_background(0, 0);
        daemon.wait_entered();
        let second = daemon.submit_in_background(1, 0);
        daemon.wait_pending(2);

        let mut client = Client::connect(daemon.addr, IO_TIMEOUT).expect("connects");
        match client.submit(&daemon.texts[0], 0) {
            Err(ClientError::Server {
                code: Some(ErrorCode::Busy),
                message,
            }) => assert_eq!(message, "queue stayed full through 1 retries"),
            other => panic!("expected a Busy error, got {other:?}"),
        }
        let during = daemon.requests(1);
        assert_eq!((during["total"], during["rejected"]), (1, 1), "{during:?}");

        daemon.open_gate();
        first.join().expect("first client").expect("first answered");
        second
            .join()
            .expect("second client")
            .expect("second answered");
        let after = daemon.requests(3);
        assert_eq!((after["total"], after["rejected"]), (3, 1), "{after:?}");
        assert_partition(&after);
        daemon.finish();
    }

    #[test]
    fn a_deadline_that_expires_in_the_queue_fails_before_the_front_stage() {
        let mut daemon = Gated::start(ServerConfig::default());
        let first = daemon.submit_in_background(0, 0);
        daemon.wait_entered();
        let late = daemon.submit_in_background(1, 50);
        daemon.wait_pending(2);
        // The 50 ms deadline passes while the front job waits its turn.
        thread::sleep(Duration::from_millis(100));
        daemon.open_gate();

        match late.join().expect("late client") {
            Err(ClientError::Server {
                code: Some(ErrorCode::DeadlineExceeded),
                message,
            }) => assert_eq!(message, "deadline expired before the front stage ran"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        first.join().expect("first client").expect("first answered");
        let after = daemon.requests(2);
        assert_eq!((after["total"], after["failed"]), (2, 1), "{after:?}");
        assert_partition(&after);
        daemon.finish();
    }

    #[test]
    fn a_payload_cut_short_reports_the_bytes_that_arrived() {
        let mut daemon = Gated::start(ServerConfig::default());
        daemon.open_gate();
        let request = Frame {
            frame_type: FrameType::Request,
            request_id: 3,
            trace_id: None,
            payload: frame::request_payload(0, &daemon.texts[0]),
        };
        let bytes = frame::encode(&request);
        let mut stream = TcpStream::connect(daemon.addr).expect("connects");
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .expect("read timeout");
        stream
            .write_all(&bytes[..HEADER_LEN + 10])
            .expect("writes part of a frame");
        stream.shutdown(Shutdown::Write).expect("half-closes");
        let answer = frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
            .expect("error frame decodes")
            .expect("an answer");
        assert_eq!(answer.frame_type, FrameType::Error);
        assert_eq!(answer.payload[0], ErrorCode::Protocol as u8);
        let expected = format!(
            "stream truncated reading payload: needed {} bytes, got 10",
            bytes.len() - HEADER_LEN
        );
        assert_eq!(String::from_utf8_lossy(&answer.payload[1..]), expected);
        daemon.finish();
    }

    /// A fresh event-log file in the temp dir, unique to this process and
    /// `tag`.
    fn temp_event_log(tag: &str) -> (PathBuf, Arc<EventLog>) {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = std::env::temp_dir().join(format!(
            "icd-server-{tag}-{}-{nanos}.jsonl",
            std::process::id()
        ));
        let log = EventLog::open(&path, icd_obs::DEFAULT_MAX_BYTES).expect("log opens");
        (path, Arc::new(log))
    }

    fn text(e: &Value, key: &str) -> Option<String> {
        e.get(key).and_then(|v| v.as_str()).map(str::to_owned)
    }

    /// The first record of `kind` in the event log at `path`, polled
    /// until it has been written.
    fn logged_record(path: &Path, kind: &str) -> Value {
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            let log = std::fs::read_to_string(path).unwrap_or_default();
            // A record still being written does not parse yet.
            let record = log
                .lines()
                .filter_map(|line| icd_obs::json::parse(line).ok())
                .find(|r| text(r, "kind").as_deref() == Some(kind));
            if let Some(record) = record {
                return record;
            }
            assert!(
                Instant::now() < deadline,
                "no {kind} record in the event log"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Sends `lot` as one `Volume` frame on a raw socket.
    fn send_volume(addr: SocketAddr, lot: &[(String, String)]) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let volume = Frame {
            frame_type: FrameType::Volume,
            request_id: 1,
            trace_id: None,
            payload: frame::volume_request_payload(0, lot),
        };
        frame::write_frame(&mut stream, &volume).expect("sends the lot");
        stream
    }

    /// The record's `volume.device` event count, after checking it failed
    /// because the client went away.
    fn assert_client_gone(record: &Value) -> usize {
        let events = record
            .get("events")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(text(record, "outcome").as_deref(), Some("failed"));
        assert!(events.iter().any(|e| {
            text(e, "kind").as_deref() == Some("error")
                && text(e, "detail").as_deref() == Some("client connection lost mid-stream")
        }));
        events
            .iter()
            .filter(|e| text(e, "kind").as_deref() == Some("volume.device"))
            .count()
    }

    #[test]
    fn a_volume_client_that_disconnects_mid_stream_stops_the_lot() {
        let (log_path, event_log) = temp_event_log("disconnect");
        let mut daemon = Gated::start(ServerConfig {
            event_log: Some(event_log),
            ..ServerConfig::default()
        });
        let lot: Vec<(String, String)> = (0..8)
            .map(|i| {
                let text = daemon.texts[i % daemon.texts.len()].clone();
                (format!("device-{i:03}.log"), text)
            })
            .collect();
        let stream = send_volume(daemon.addr, &lot);
        // The first device's front job is at the gate: hang up, then let
        // the daemon stream into the closed socket.
        daemon.wait_entered();
        drop(stream);
        daemon.open_gate();

        let mut client = Client::connect(daemon.addr, IO_TIMEOUT).expect("connects");
        client.ping().expect("the daemon keeps serving");
        client
            .submit(&daemon.texts[0], 0)
            .expect("a fresh request is served");
        let devices = assert_client_gone(&logged_record(&log_path, "volume"));
        assert!(devices < lot.len(), "the lot ran to the end: {devices}");

        let after = daemon.requests(2);
        assert_eq!((after["total"], after["failed"]), (2, 1), "{after:?}");
        assert_eq!(after["volume"], 1);
        assert_partition(&after);
        daemon.finish();
        let _ = std::fs::remove_file(&log_path);
    }

    #[test]
    fn a_volume_lot_that_streams_nothing_stops_when_its_client_hangs_up() {
        let (log_path, event_log) = temp_event_log("silent");
        let mut daemon = Gated::start(ServerConfig {
            event_log: Some(event_log),
            ..ServerConfig::default()
        });
        let ctx = daemon.service.context();
        let all_pass = datalog_text::write(&Datalog {
            circuit_name: ctx.circuit.name().to_owned(),
            num_patterns: ctx.patterns.len(),
            entries: Vec::new(),
        });
        let lot: Vec<(String, String)> = (0..8)
            .map(|i| (format!("device-{i:03}.log"), all_pass.clone()))
            .collect();
        let stream = send_volume(daemon.addr, &lot);
        // Test escapes stream no frame, so no failed write can notice the
        // hang-up: device 0 finishes, and device 1 must not start.
        daemon.wait_entered();
        drop(stream);
        daemon.open_gate();

        let devices = assert_client_gone(&logged_record(&log_path, "volume"));
        assert_eq!(devices, 1, "only device 0 ran");
        daemon.finish();
        let _ = std::fs::remove_file(&log_path);
    }

    #[test]
    fn job_spans_from_the_workers_reach_the_request_record() {
        let (log_path, event_log) = temp_event_log("handoff");
        let mut daemon = Gated::start(ServerConfig {
            event_log: Some(event_log),
            ..ServerConfig::default()
        });
        daemon.open_gate();
        let mut client = Client::connect(daemon.addr, IO_TIMEOUT).expect("connects");
        let response = client.submit(&daemon.texts[0], 0).expect("answered");
        assert!(!response.suspects.is_empty(), "a failing device fans out");

        let record = logged_record(&log_path, "request");
        let roots = record
            .get("spans")
            .and_then(|s| s.get("trace"))
            .and_then(|t| t.as_array())
            .expect("span forest");
        let attr = |node: &Value, key: &str| {
            node.get("attrs")
                .and_then(|a| a.get(key))
                .and_then(|v| v.as_u64())
        };
        let has_child = |node: &Value, name: &str| {
            node.get("children")
                .and_then(|c| c.as_array())
                .is_some_and(|c| c.iter().any(|n| text(n, "name").as_deref() == Some(name)))
        };
        let named = |name: &str| -> Vec<&Value> {
            roots
                .iter()
                .filter(|n| text(n, "name").as_deref() == Some(name))
                .collect()
        };

        let fronts = named("batch.front");
        assert_eq!(fronts.len(), 1, "one front job: {roots:?}");
        assert_eq!(attr(fronts[0], "datalog"), Some(0));
        assert!(has_child(fronts[0], "flow.intercell"), "{:?}", fronts[0]);

        let suspects = named("batch.suspect");
        let mut slots: Vec<u64> = suspects
            .iter()
            .map(|n| {
                assert_eq!(attr(n, "datalog"), Some(0));
                assert!(has_child(n, "flow.analyze_suspect"), "{n:?}");
                attr(n, "slot").expect("slot attribute")
            })
            .collect();
        slots.sort_unstable();
        let expected: Vec<u64> = (0..response.suspects.len() as u64).collect();
        assert_eq!(slots, expected, "one suspect job per streamed gate");
        daemon.finish();
        let _ = std::fs::remove_file(&log_path);
    }
}
