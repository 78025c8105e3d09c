//! The diagnosis daemon's protocol contract, end to end over loopback:
//!
//! 1. **byte-identity** — a clean `submit` returns the exact summary
//!    line `icdiag run` prints for the same datalog (shared rendering
//!    through `icd_engine::summarize_report`), plus sane streamed
//!    suspects/progress events, on a connection reused across requests;
//! 2. **protocol robustness** — corrupted payloads are frame-bounded
//!    (the connection answers an error and keeps serving), bad magic
//!    and oversized claims desynchronize (error then close), malformed
//!    datalogs are typed `BadPayload` errors, and none of it kills the
//!    daemon;
//! 3. **graceful shutdown** — in-flight requests complete through a
//!    drain, the accept loop refuses late arrivals, and `run` returns
//!    `Clean` within its deadline;
//! 4. **bounded daemon telemetry** — a datalog whose header claims more
//!    patterns than the design applies is one typed error with no panic
//!    retries, and the serve collector keeps the stage histograms.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use icd_engine::flow::ExperimentContext;
use icd_engine::{summarize_report, synthesize_batch, BatchConfig, BatchEngine, EngineConfig};
use icd_faultsim::{datalog_text, Datalog};
use icd_netlist::generator;
use icd_obs::Collector;
use icd_server::frame::{self, Frame, FrameType};
use icd_server::{
    Client, ClientError, DrainOutcome, ErrorCode, ResponseStatus, Server, ServerConfig,
};

/// Shared fixture: a scaled context, a synthesized batch, its datalog
/// texts and the reference summaries a 1-worker batch engine produces.
#[allow(clippy::type_complexity)]
fn fixture() -> (
    Arc<ExperimentContext>,
    Vec<Datalog>,
    Vec<String>,
    Vec<String>,
) {
    let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 4, 16)
        .expect("scaled circuit A builds")
        .into_shared();
    let batch = synthesize_batch(&ctx, &BatchConfig::new(4, 0x5eed)).expect("batch synthesizes");
    assert!(!batch.is_empty());
    let texts: Vec<String> = batch.iter().map(datalog_text::write).collect();
    let engine = BatchEngine::new(EngineConfig::with_workers(1));
    let reference = engine
        .diagnose_batch(&ctx, &batch, &Default::default())
        .expect("reference batch runs");
    let summaries: Vec<String> = reference
        .outcomes
        .iter()
        .map(|o| summarize_report(&ctx, o.report.as_ref().expect("reference report")))
        .collect();
    (ctx, batch, texts, summaries)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 32,
        idle_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// Starts a server and returns its address plus the running thread.
fn start(
    ctx: Arc<ExperimentContext>,
    config: ServerConfig,
) -> (
    SocketAddr,
    icd_server::ServerHandle,
    thread::JoinHandle<DrainOutcome>,
) {
    let server = Server::bind("127.0.0.1:0", ctx, config).expect("binds loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let join = thread::spawn(move || server.run().expect("run returns"));
    (addr, handle, join)
}

#[test]
fn clean_submissions_match_icdiag_run_byte_for_byte() {
    let (ctx, _batch, texts, summaries) = fixture();
    let (addr, handle, join) = start(Arc::clone(&ctx), quick_config());

    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connects");
    client.ping().expect("pong");
    // One connection, every datalog in sequence: the state machine
    // returns to Idle after each response.
    for (i, text) in texts.iter().enumerate() {
        let response = client.submit(text, 0).expect("submission answered");
        assert_eq!(
            response.summary, summaries[i],
            "datalog {i} summary diverged"
        );
        if response.status == ResponseStatus::Ok {
            assert!(!response.summary.contains("[degraded]"));
        }
        // Streamed events are consistent with the final report: one
        // progress entry per suspect, slots unique.
        let mut slots: Vec<usize> = response.progress.iter().map(|p| p.0).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(
            slots.len(),
            response.progress.len(),
            "duplicate progress slots"
        );
        assert_eq!(response.progress.len(), response.suspects.len());
    }

    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
}

#[test]
fn corrupt_payload_is_answered_and_the_connection_keeps_serving() {
    let (ctx, _batch, texts, summaries) = fixture();
    let (addr, handle, join) = start(Arc::clone(&ctx), quick_config());

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // A request whose payload byte is flipped after encoding: the crc
    // check must catch it, answer, and stay in sync.
    let good = Frame {
        frame_type: FrameType::Request,
        request_id: 7,
        trace_id: None,
        payload: frame::request_payload(0, &texts[0]),
    };
    let mut bytes = frame::encode(&good);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x55;
    stream.write_all(&bytes).expect("writes corrupt frame");
    let answer = frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
        .expect("error frame decodes")
        .expect("not EOF");
    assert_eq!(answer.frame_type, FrameType::Error);
    assert_eq!(answer.payload.first(), Some(&(ErrorCode::Protocol as u8)));

    // Same socket, valid frame: the daemon still serves it.
    stream
        .write_all(&frame::encode(&good))
        .expect("writes valid frame");
    let report = loop {
        let f = frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
            .expect("frame decodes")
            .expect("not EOF");
        if f.frame_type == FrameType::Report {
            break f;
        }
        assert!(
            matches!(f.frame_type, FrameType::Suspects | FrameType::Progress),
            "unexpected {:?}",
            f.frame_type
        );
    };
    assert_eq!(report.request_id, 7);
    let summary = String::from_utf8_lossy(&report.payload[1..]).into_owned();
    assert_eq!(summary, summaries[0]);

    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
}

#[test]
fn bad_magic_and_oversized_claims_close_after_a_typed_error() {
    let (ctx, _batch, texts, _summaries) = fixture();
    let (addr, handle, join) = start(Arc::clone(&ctx), quick_config());

    // Bad magic: error frame, then EOF (desynchronized → closed).
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut bytes = frame::encode(&Frame::bare(FrameType::Ping, 1));
    bytes[0] = b'Z';
    stream.write_all(&bytes).expect("writes");
    let answer = frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
        .expect("decodes")
        .expect("not EOF");
    assert_eq!(answer.frame_type, FrameType::Error);
    assert!(
        frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
            .expect("clean close")
            .is_none(),
        "connection must close after a desynchronizing error"
    );

    // Oversized length claim: rejected before the payload is read.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut bytes = frame::encode(&Frame {
        frame_type: FrameType::Request,
        request_id: 2,
        trace_id: None,
        payload: frame::request_payload(0, &texts[0]),
    });
    // Rewrite the length field to an absurd claim.
    bytes[16..20].copy_from_slice(&(u32::MAX).to_le_bytes());
    stream.write_all(&bytes).expect("writes");
    let answer = frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
        .expect("decodes")
        .expect("not EOF");
    assert_eq!(answer.frame_type, FrameType::Error);
    // The server closes with our bogus payload bytes still unread, so
    // the close may surface as a reset instead of a clean FIN — either
    // way the connection is gone.
    match frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD) {
        Ok(None) | Err(_) => {}
        Ok(Some(f)) => panic!("connection must close after an oversized claim, got {f:?}"),
    }

    // The daemon survived both.
    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connects");
    client.ping().expect("daemon alive");

    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
}

#[test]
fn unparseable_datalogs_are_typed_bad_payload_errors() {
    let (ctx, _batch, texts, summaries) = fixture();
    let (addr, handle, join) = start(Arc::clone(&ctx), quick_config());

    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connects");
    let err = client
        .submit("this is not a datalog\n", 0)
        .expect_err("must fail");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, Some(ErrorCode::BadPayload)),
        other => panic!("expected a server error, got {other:?}"),
    }
    // Typed, frame-bounded: the same connection still serves.
    let response = client
        .submit(&texts[0], 0)
        .expect("clean request still works");
    assert_eq!(response.summary, summaries[0]);

    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
}

#[test]
fn shutdown_drains_in_flight_requests_within_the_deadline() {
    let (ctx, _batch, texts, summaries) = fixture();
    let (addr, handle, join) = start(Arc::clone(&ctx), quick_config());

    // Launch in-flight work, then immediately drain.
    let texts = Arc::new(texts);
    let summaries = Arc::new(summaries);
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let texts = Arc::clone(&texts);
            let summaries = Arc::clone(&summaries);
            thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connects");
                let idx = i % texts.len();
                let response = client.submit(&texts[idx], 0).expect("in-flight completes");
                assert_eq!(
                    response.summary, summaries[idx],
                    "drained request {i} diverged"
                );
            })
        })
        .collect();
    // Give the submissions time to be read off their sockets.
    thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    handle.shutdown();
    for c in clients {
        c.join().expect("no in-flight clean request may be lost");
    }
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
    assert!(
        started.elapsed() < Duration::from_secs(5) + Duration::from_secs(3),
        "drain overran its deadline: {:?}",
        started.elapsed()
    );

    // A shutdown requested twice is harmless.
    handle.shutdown();
}

#[test]
fn client_shutdown_frame_drains_the_daemon() {
    let (ctx, _batch, texts, summaries) = fixture();
    let (addr, _handle, join) = start(Arc::clone(&ctx), quick_config());

    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connects");
    let response = client.submit(&texts[0], 0).expect("request served");
    assert_eq!(response.summary, summaries[0]);
    client.shutdown_server().expect("shutdown acknowledged");
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
}

/// Tests that install a process-global collector hold this, so one
/// test's install can neither shadow nor restore over another's. The
/// other tests here install nothing; their daemons' counters may land in
/// an installed collector, which is why the assertions are lower bounds
/// or counts no clean request can raise (panic retries).
fn global_collector() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn oversized_pattern_header_is_one_typed_error_without_panic_retries() {
    let _serial = global_collector();
    let (ctx, batch, texts, summaries) = fixture();
    let collector = Collector::new();
    let _active = collector.install();
    let (addr, handle, join) = start(Arc::clone(&ctx), quick_config());

    // A parseable log of a failing device whose header claims more
    // patterns than the design applies.
    let mut oversized = batch
        .iter()
        .find(|d| !d.all_pass())
        .expect("some device fails")
        .clone();
    oversized.num_patterns = ctx.patterns.len() + 175;
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let request = Frame {
        frame_type: FrameType::Request,
        request_id: 9,
        trace_id: None,
        payload: frame::request_payload(0, &datalog_text::write(&oversized)),
    };
    stream
        .write_all(&frame::encode(&request))
        .expect("writes request");
    let answer = frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
        .expect("error frame decodes")
        .expect("not EOF");
    assert_eq!(answer.frame_type, FrameType::Error);
    assert_eq!(answer.request_id, 9);
    assert_eq!(answer.payload.first(), Some(&(ErrorCode::Internal as u8)));
    let message = String::from_utf8_lossy(&answer.payload[1..]).into_owned();
    assert!(message.contains("patterns"), "untyped message: {message}");
    // Exactly one frame answered the request: the next round trip on the
    // same connection reads its own Pong.
    let ping = Frame {
        frame_type: FrameType::Ping,
        request_id: 10,
        trace_id: None,
        payload: Vec::new(),
    };
    stream
        .write_all(&frame::encode(&ping))
        .expect("writes ping");
    let pong = frame::read_frame(&mut stream, frame::DEFAULT_MAX_PAYLOAD)
        .expect("pong decodes")
        .expect("not EOF");
    assert_eq!(pong.request_id, 10);
    assert_eq!(pong.frame_type, FrameType::Pong);

    // The daemon keeps serving clean requests.
    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connects");
    let response = client.submit(&texts[0], 0).expect("clean request served");
    assert_eq!(response.summary, summaries[0]);

    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
    let retries = collector
        .snapshot()
        .counters
        .get("server.retries_panic")
        .map_or(0, |c| c.0);
    assert_eq!(retries, 0, "the front stage panicked and was retried");
}

#[test]
fn serve_collector_keeps_stage_histograms() {
    let _serial = global_collector();
    let (ctx, _batch, texts, summaries) = fixture();
    // What `icdiag serve` installs.
    let collector = Collector::new();
    let _active = collector.install();
    let (addr, handle, join) = start(Arc::clone(&ctx), quick_config());

    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connects");
    for (text, summary) in texts.iter().zip(&summaries) {
        let response = client.submit(text, 0).expect("request served");
        assert_eq!(&response.summary, summary);
    }
    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);

    let snap = collector.snapshot();
    let sanitized = snap.histograms.get("flow.sanitize").map_or(0, |h| h.count);
    assert!(
        sanitized >= texts.len() as u64,
        "flow.sanitize histogram holds {sanitized} samples for {} requests",
        texts.len()
    );
    assert!(snap
        .histograms
        .keys()
        .any(|k| k.starts_with("flow.intercell")));
}
