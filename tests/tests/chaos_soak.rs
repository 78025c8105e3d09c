//! Chaos soak: the daemon survives a seeded storm of protocol abuse and
//! injected worker panics while clean requests stay byte-identical.
//!
//! The storm mixes, across concurrent client threads, well over 100
//! requests of five kinds:
//!
//! * **clean** submissions — must come back `Ok` with the exact summary
//!   a 1-worker batch engine produces for the same datalog (the server
//!   retries injected panics under its backoff budget until the report
//!   is pristine);
//! * **corrupted** frames (random byte flips) — any typed answer or a
//!   closed connection is acceptable, a dead daemon is not;
//! * **truncate-and-drop** connections (close mid-frame);
//! * **slow-loris** writes (valid request, trickled bytes) — still
//!   answered byte-identically;
//! * **stalled** sockets (half a header, then silence) — reaped by the
//!   idle budget.
//!
//! Afterwards a graceful drain must complete `Clean` within its
//! deadline with zero lost in-flight clean jobs, and the daemon's own
//! counters must show the chaos actually exercised the retry and
//! protocol-error paths.
//!
//! The storm doubles as the live-telemetry coherence check: a `Stats`
//! frame answered *mid-storm* must parse with monotone latency
//! percentiles; once the storm is quiescent the outcome counters must
//! partition exactly (`total == clean + degraded + failed + rejected`);
//! and the total must carry across the drain unchanged except for the
//! tracked in-flight jobs.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use icd_engine::flow::ExperimentContext;
use icd_engine::{
    summarize_report, synthesize_batch, BatchConfig, BatchEngine, Collector, EngineConfig,
};
use icd_faultsim::{datalog_text, NoiseRng};
use icd_netlist::generator;
use icd_server::frame::{self, FrameType};
use icd_server::{
    BackoffConfig, ChaosClient, ChaosPanics, Client, ClientFault, DrainOutcome, ResponseStatus,
    Server, ServerConfig,
};

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 30;

struct Fixture {
    ctx: Arc<ExperimentContext>,
    texts: Vec<String>,
    summaries: Vec<String>,
    degraded: Vec<bool>,
}

fn fixture() -> Fixture {
    let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 4, 16)
        .expect("scaled circuit A builds")
        .into_shared();
    let batch = synthesize_batch(&ctx, &BatchConfig::new(5, 0xc4a05)).expect("batch synthesizes");
    assert!(batch.len() >= 2, "need a few distinct devices");
    let texts: Vec<String> = batch.iter().map(datalog_text::write).collect();
    let engine = BatchEngine::new(EngineConfig::with_workers(1));
    let reference = engine
        .diagnose_batch(&ctx, &batch, &Default::default())
        .expect("reference batch runs");
    let mut summaries = Vec::new();
    let mut degraded = Vec::new();
    for outcome in &reference.outcomes {
        let report = outcome.report.as_ref().expect("reference report");
        summaries.push(summarize_report(&ctx, report));
        degraded.push(report.is_degraded());
    }
    Fixture {
        ctx,
        texts,
        summaries,
        degraded,
    }
}

fn soak_config() -> ServerConfig {
    ServerConfig {
        workers: 3,
        queue_capacity: 16,
        submit_wait: Duration::from_millis(200),
        // A deep budget with short delays: at the injected panic rate,
        // the chance a clean request exhausts 12 retries is ~1e-6.
        backoff: BackoffConfig {
            max_retries: 12,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
        },
        default_deadline: Duration::from_secs(20),
        idle_timeout: Duration::from_millis(1500),
        drain_deadline: Duration::from_secs(5),
        chaos_panics: Some(ChaosPanics {
            rate: 0.08,
            seed: 0xc4a0_5eed,
        }),
        ..ServerConfig::default()
    }
}

/// Fetches and parses one live `Stats` snapshot over the wire.
fn stats_snapshot(addr: SocketAddr) -> icd_obs::json::Value {
    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("stats connect");
    let json = client.stats().expect("stats answered");
    icd_obs::json::parse(&json).expect("stats snapshot is valid JSON")
}

/// The `requests` counters of a parsed snapshot, by byte-stable name.
fn request_counter(snapshot: &icd_obs::json::Value, name: &str) -> u64 {
    snapshot
        .get("requests")
        .and_then(|r| r.get(name))
        .and_then(icd_obs::json::Value::as_u64)
        .unwrap_or_else(|| panic!("snapshot lacks requests.{name}"))
}

/// Reads response frames off a raw stream until a terminal frame, EOF,
/// error or timeout; returns the Report summary if one arrived. Used
/// for the faults whose outcome is intentionally unspecified — the only
/// hard requirement is that the daemon answers *something* or closes.
fn drain_response(stream: &mut std::net::TcpStream) -> Option<(ResponseStatus, String)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    loop {
        match frame::read_frame(stream, frame::DEFAULT_MAX_PAYLOAD) {
            Ok(Some(f)) if f.frame_type == FrameType::Report => {
                let status = ResponseStatus::from_u8(*f.payload.first()?)?;
                let summary = String::from_utf8_lossy(&f.payload[1..]).into_owned();
                return Some((status, summary));
            }
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => return None,
        }
    }
}

#[test]
fn daemon_survives_a_chaos_storm_and_drains_clean() {
    let fx = fixture();
    let collector = Collector::new();
    let _guard = collector.install();

    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&fx.ctx), soak_config()).expect("binds loopback");
    let addr: SocketAddr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let server_thread = thread::spawn(move || server.run().expect("run returns"));

    // --- Phase 1: the storm. -------------------------------------------
    let texts = Arc::new(fx.texts.clone());
    let summaries = Arc::new(fx.summaries.clone());
    let degraded = Arc::new(fx.degraded.clone());
    let workers: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let texts = Arc::clone(&texts);
            let summaries = Arc::clone(&summaries);
            let degraded = Arc::clone(&degraded);
            thread::spawn(move || {
                let mut rng = NoiseRng::new(0x50a1_u64.wrapping_add(t as u64 * 0x9e37));
                let mut chaos =
                    ChaosClient::new(addr, 0xabad_1dea ^ t as u64).expect("chaos client");
                // Stalled sockets must stay open until the server reaps
                // them, so park them here for the thread's lifetime.
                let mut parked = Vec::new();
                let mut clean_served = 0usize;
                for i in 0..REQUESTS_PER_THREAD {
                    let idx = rng.below(texts.len());
                    let roll = rng.below(100);
                    if roll < 60 {
                        // Clean request: the hard byte-identity contract.
                        let mut client =
                            Client::connect(addr, Duration::from_secs(30)).expect("clean connect");
                        let response = client
                            .submit(&texts[idx], 0)
                            .expect("clean request answered");
                        assert_eq!(
                            response.summary, summaries[idx],
                            "thread {t} request {i}: summary diverged"
                        );
                        let expected_status = if degraded[idx] {
                            ResponseStatus::Degraded
                        } else {
                            ResponseStatus::Ok
                        };
                        assert_eq!(response.status, expected_status);
                        clean_served += 1;
                    } else if roll < 75 {
                        let stream = chaos
                            .send_faulty_request(&texts[idx], ClientFault::CorruptBytes)
                            .expect("corrupt connect");
                        if let Some(mut s) = stream {
                            let _ = drain_response(&mut s);
                        }
                    } else if roll < 85 {
                        let _ = chaos
                            .send_faulty_request(&texts[idx], ClientFault::TruncateAndDrop)
                            .expect("truncate connect");
                    } else if roll < 95 {
                        // Slow but valid: still the byte-identity contract.
                        let stream = chaos
                            .send_faulty_request(
                                &texts[idx],
                                ClientFault::SlowLoris { delay_ms: 2 },
                            )
                            .expect("slow-loris connect");
                        let mut stream = stream.expect("slow-loris write completes");
                        let (status, summary) =
                            drain_response(&mut stream).expect("slow-loris answered");
                        assert_eq!(
                            summary, summaries[idx],
                            "thread {t} request {i}: slow-loris summary diverged"
                        );
                        let expected_status = if degraded[idx] {
                            ResponseStatus::Degraded
                        } else {
                            ResponseStatus::Ok
                        };
                        assert_eq!(status, expected_status);
                        clean_served += 1;
                    } else {
                        let stream = chaos
                            .send_faulty_request(&texts[idx], ClientFault::Stall)
                            .expect("stall connect");
                        if let Some(s) = stream {
                            parked.push(s);
                        }
                    }
                }
                clean_served
            })
        })
        .collect();
    // Mid-storm telemetry: the daemon must answer a Stats frame while
    // the storm is in full swing, with parseable JSON and monotone
    // latency percentiles. (Totals may momentarily run ahead of their
    // outcome partition here; exact equality is asserted once the storm
    // is quiescent.)
    thread::sleep(Duration::from_millis(50));
    let mid = stats_snapshot(addr);
    for kind in ["request", "volume", "ping"] {
        let window = mid
            .get("latency")
            .and_then(|l| l.get(kind))
            .and_then(|k| k.get("window"))
            .unwrap_or_else(|| panic!("mid-storm snapshot lacks latency.{kind}.window"));
        let pct = |name: &str| window.get(name).and_then(icd_obs::json::Value::as_u64);
        if let (Some(p50), Some(p95), Some(p99)) = (pct("p50_us"), pct("p95_us"), pct("p99_us")) {
            assert!(
                p50 <= p95 && p95 <= p99,
                "mid-storm {kind} percentiles must be monotone: {p50} {p95} {p99}"
            );
        }
    }

    let clean_served: usize = workers
        .into_iter()
        .map(|w| w.join().expect("storm thread"))
        .sum();
    assert!(
        clean_served >= CLIENT_THREADS * REQUESTS_PER_THREAD / 2,
        "the storm must include a meaningful clean load, served {clean_served}"
    );

    // The daemon is still healthy after the storm.
    let mut probe = Client::connect(addr, Duration::from_secs(10)).expect("post-storm connect");
    probe.ping().expect("post-storm pong");
    drop(probe);

    // Quiescent telemetry: with the storm joined and nothing in flight,
    // the outcome counters must partition the total exactly, and the
    // window histograms must have actually sampled the storm.
    let pre_drain = stats_snapshot(addr);
    let pre_drain_total = request_counter(&pre_drain, "total");
    assert_eq!(
        pre_drain_total,
        request_counter(&pre_drain, "clean")
            + request_counter(&pre_drain, "degraded")
            + request_counter(&pre_drain, "failed")
            + request_counter(&pre_drain, "rejected"),
        "outcome counters must partition requests.total"
    );
    assert!(
        pre_drain_total >= clean_served as u64,
        "requests.total {pre_drain_total} must cover the {clean_served} clean submissions"
    );
    let request_window_count = pre_drain
        .get("latency")
        .and_then(|l| l.get("request"))
        .and_then(|r| r.get("window"))
        .and_then(|w| w.get("count"))
        .and_then(icd_obs::json::Value::as_u64)
        .expect("request window count");
    assert!(
        request_window_count > 0,
        "the 60s latency window must have sampled the storm"
    );

    // --- Phase 2: drain with in-flight clean jobs. ---------------------
    let in_flight: Vec<_> = (0..3)
        .map(|i| {
            let texts = Arc::clone(&texts);
            let summaries = Arc::clone(&summaries);
            thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Duration::from_secs(30)).expect("in-flight connect");
                let idx = i % texts.len();
                let response = client.submit(&texts[idx], 0).expect("in-flight answered");
                assert_eq!(response.summary, summaries[idx], "in-flight {i} diverged");
            })
        })
        .collect();
    // Let the submissions reach the server before the drain begins.
    thread::sleep(Duration::from_millis(100));
    let drain_started = Instant::now();
    handle.shutdown();
    for c in in_flight {
        c.join().expect("zero lost in-flight clean jobs");
    }
    let outcome = server_thread.join().expect("server thread");
    assert_eq!(
        outcome,
        DrainOutcome::Clean,
        "drain must not need force-cancellation"
    );
    assert!(
        drain_started.elapsed() < Duration::from_secs(10),
        "drain overran: {:?}",
        drain_started.elapsed()
    );

    // --- The chaos actually happened. ----------------------------------
    let snapshot = collector.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    assert!(counter("server.requests_received") >= clean_served as u64 + 3);
    assert!(
        counter("server.retries_panic") > 0,
        "panic injection at 8% over {clean_served}+ requests must trigger retries"
    );
    assert!(
        counter("server.frames_bad") > 0,
        "corrupted frames must register as protocol errors"
    );
    assert_eq!(counter("server.drain_clean"), 1);
    assert_eq!(counter("server.drain_forced"), 0);

    // Telemetry totals carry across the drain: the post-drain process
    // counter equals the quiescent wire snapshot plus exactly the three
    // tracked in-flight jobs — nothing lost, nothing double-counted.
    assert_eq!(
        counter("server.requests_total"),
        pre_drain_total + 3,
        "drain must account for exactly the three in-flight jobs"
    );
}
