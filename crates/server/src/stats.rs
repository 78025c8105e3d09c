//! Live server stats: the data behind the `Stats` wire frame.
//!
//! One [`LiveStats`] lives in the shared server state. The request path
//! touches it twice per request — one atomic increment per outcome
//! counter and one brief mutex around a
//! [`WindowedHistogram`] — so snapshots
//! never pause service: a snapshot reads the atomics and clones merged
//! histograms without blocking writers for more than one record.
//!
//! The counters partition: every `Request`/`Volume` frame lands in
//! exactly one of clean/degraded/failed/rejected, and `requests_total`
//! equals their sum once the request finishes (a snapshot taken *while*
//! a request is being recorded may momentarily run ahead by the
//! in-flight increment; quiescent totals are exact — the chaos soak
//! asserts this). Pings are liveness probes, not requests, and are
//! counted separately.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use icd_obs::{HistogramSnapshot, WindowedHistogram};

/// Which wire request type a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A single-datalog `Request` frame.
    Request,
    /// A multi-device `Volume` frame.
    Volume,
    /// A `Ping` frame (liveness, not diagnosis).
    Ping,
}

/// How one `Request`/`Volume` frame ended — the outcome partition of
/// `requests_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// A complete report ([`ResponseStatus::Ok`](crate::ResponseStatus)).
    Clean,
    /// A complete-but-degraded report (skipped suspects, partial volume
    /// coverage).
    Degraded,
    /// The request failed: bad payload, expired deadline, or an internal
    /// error survived every retry.
    Failed,
    /// Admission kept failing — the queue stayed full through the whole
    /// retry budget ([`ErrorCode::Busy`](crate::ErrorCode)).
    Rejected,
}

/// The rolling window the latency percentiles cover: 60 s in 6 slices,
/// so a snapshot spans between 50 s and 60 s of recent traffic.
const WINDOW: Duration = Duration::from_secs(60);
const WINDOW_SLICES: usize = 6;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Live counters and windowed latency histograms for one daemon.
#[derive(Debug)]
pub struct LiveStats {
    started: Instant,
    requests_total: AtomicU64,
    requests_clean: AtomicU64,
    requests_degraded: AtomicU64,
    requests_failed: AtomicU64,
    requests_rejected: AtomicU64,
    volume_requests: AtomicU64,
    pings_total: AtomicU64,
    latency_request: Mutex<WindowedHistogram>,
    latency_volume: Mutex<WindowedHistogram>,
    latency_ping: Mutex<WindowedHistogram>,
}

impl Default for LiveStats {
    fn default() -> Self {
        LiveStats::new()
    }
}

impl LiveStats {
    /// Fresh stats with the uptime clock starting now.
    pub fn new() -> Self {
        LiveStats {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            requests_clean: AtomicU64::new(0),
            requests_degraded: AtomicU64::new(0),
            requests_failed: AtomicU64::new(0),
            requests_rejected: AtomicU64::new(0),
            volume_requests: AtomicU64::new(0),
            pings_total: AtomicU64::new(0),
            latency_request: Mutex::new(WindowedHistogram::new(WINDOW, WINDOW_SLICES)),
            latency_volume: Mutex::new(WindowedHistogram::new(WINDOW, WINDOW_SLICES)),
            latency_ping: Mutex::new(WindowedHistogram::new(WINDOW, WINDOW_SLICES)),
        }
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn histogram(&self, kind: RequestKind) -> &Mutex<WindowedHistogram> {
        match kind {
            RequestKind::Request => &self.latency_request,
            RequestKind::Volume => &self.latency_volume,
            RequestKind::Ping => &self.latency_ping,
        }
    }

    /// Records one finished `Request`/`Volume` frame: the outcome bucket
    /// first, the total last, so a quiescent reader always sees
    /// `total == clean + degraded + failed + rejected`.
    pub fn record_request(&self, kind: RequestKind, outcome: RequestOutcome, latency_us: u64) {
        debug_assert!(kind != RequestKind::Ping, "pings use record_ping");
        match outcome {
            RequestOutcome::Clean => &self.requests_clean,
            RequestOutcome::Degraded => &self.requests_degraded,
            RequestOutcome::Failed => &self.requests_failed,
            RequestOutcome::Rejected => &self.requests_rejected,
        }
        .fetch_add(1, Ordering::Relaxed);
        if kind == RequestKind::Volume {
            self.volume_requests.fetch_add(1, Ordering::Relaxed);
        }
        self.requests_total.fetch_add(1, Ordering::Release);
        let now_us = self.now_us();
        lock(self.histogram(kind)).record_at(now_us, latency_us);
    }

    /// Records one answered ping.
    pub fn record_ping(&self, latency_us: u64) {
        self.pings_total.fetch_add(1, Ordering::Relaxed);
        let now_us = self.now_us();
        lock(&self.latency_ping).record_at(now_us, latency_us);
    }

    /// Total finished `Request`/`Volume` frames so far.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Acquire)
    }

    /// The live snapshot as JSON with byte-stable field names (the
    /// `StatsReport` payload). Queue depth, in-flight count and drain
    /// state are gauges owned by the server and passed in.
    pub fn snapshot_json(&self, queue_depth: usize, in_flight: usize, draining: bool) -> String {
        let now_us = self.now_us();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"server\": {{ \"uptime_us\": {}, \"draining\": {}, \"queue_depth\": {}, \"in_flight\": {} }},\n",
            now_us, draining, queue_depth, in_flight
        ));
        out.push_str(&format!(
            "  \"requests\": {{ \"total\": {}, \"clean\": {}, \"degraded\": {}, \"failed\": {}, \"rejected\": {}, \"volume\": {}, \"pings\": {} }},\n",
            self.requests_total.load(Ordering::Acquire),
            self.requests_clean.load(Ordering::Relaxed),
            self.requests_degraded.load(Ordering::Relaxed),
            self.requests_failed.load(Ordering::Relaxed),
            self.requests_rejected.load(Ordering::Relaxed),
            self.volume_requests.load(Ordering::Relaxed),
            self.pings_total.load(Ordering::Relaxed),
        ));
        out.push_str("  \"latency\": {\n");
        let kinds = [
            ("request", RequestKind::Request),
            ("volume", RequestKind::Volume),
            ("ping", RequestKind::Ping),
        ];
        for (i, (label, kind)) in kinds.iter().enumerate() {
            let (window, lifetime) = {
                let h = lock(self.histogram(*kind));
                (h.snapshot_at(now_us), h.lifetime().clone())
            };
            out.push_str(&format!("    \"{label}\": {{ \"window\": "));
            write_latency(&mut out, &window);
            out.push_str(", \"lifetime\": ");
            write_latency(&mut out, &lifetime);
            out.push_str(" }");
            out.push_str(if i + 1 < kinds.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn write_latency(out: &mut String, hist: &HistogramSnapshot) {
    fn pct(hist: &HistogramSnapshot, q: f64) -> String {
        match hist.percentile_us(q) {
            Some(v) => v.to_string(),
            None => "null".to_owned(),
        }
    }
    out.push_str(&format!(
        "{{ \"count\": {}, \"sum_us\": {}, \"max_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {} }}",
        hist.count,
        hist.sum_us,
        hist.max_us,
        pct(hist, 0.50),
        pct(hist, 0.95),
        pct(hist, 0.99),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_partition_by_outcome() {
        let stats = LiveStats::new();
        stats.record_request(RequestKind::Request, RequestOutcome::Clean, 100);
        stats.record_request(RequestKind::Request, RequestOutcome::Clean, 200);
        stats.record_request(RequestKind::Request, RequestOutcome::Degraded, 300);
        stats.record_request(RequestKind::Volume, RequestOutcome::Failed, 400);
        stats.record_request(RequestKind::Request, RequestOutcome::Rejected, 500);
        stats.record_ping(1);
        assert_eq!(stats.requests_total(), 5);
        let json = stats.snapshot_json(2, 1, false);
        let v = icd_obs::json::parse(&json).expect("snapshot is valid JSON");
        let requests = v.get("requests").expect("requests object");
        let field = |k: &str| requests.get(k).and_then(|x| x.as_u64()).expect("field");
        assert_eq!(
            field("total"),
            field("clean") + field("degraded") + field("failed") + field("rejected"),
        );
        assert_eq!(field("total"), 5);
        assert_eq!(field("volume"), 1);
        assert_eq!(field("pings"), 1);
        let server = v.get("server").expect("server object");
        assert_eq!(server.get("queue_depth").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(server.get("in_flight").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(
            server.get("draining").and_then(|x| x.as_bool()),
            Some(false)
        );
    }

    #[test]
    fn latency_percentiles_are_present_and_monotone() {
        let stats = LiveStats::new();
        for us in [10u64, 50, 100, 500, 1_000, 5_000, 10_000, 50_000] {
            stats.record_request(RequestKind::Request, RequestOutcome::Clean, us);
        }
        let json = stats.snapshot_json(0, 0, false);
        let v = icd_obs::json::parse(&json).expect("parses");
        let window = v
            .get("latency")
            .and_then(|l| l.get("request"))
            .and_then(|r| r.get("window"))
            .expect("window object");
        let pct = |k: &str| window.get(k).and_then(|x| x.as_u64()).expect("percentile");
        assert_eq!(window.get("count").and_then(|x| x.as_u64()), Some(8));
        assert!(pct("p50_us") <= pct("p95_us"));
        assert!(pct("p95_us") <= pct("p99_us"));
        assert!(pct("p99_us") <= pct("max_us"));
    }

    #[test]
    fn empty_histograms_report_null_percentiles() {
        let stats = LiveStats::new();
        let json = stats.snapshot_json(0, 0, true);
        let v = icd_obs::json::parse(&json).expect("parses");
        let ping = v
            .get("latency")
            .and_then(|l| l.get("ping"))
            .and_then(|p| p.get("window"))
            .expect("ping window");
        assert_eq!(ping.get("count").and_then(|x| x.as_u64()), Some(0));
        assert!(matches!(
            ping.get("p99_us"),
            Some(icd_obs::json::Value::Null)
        ));
        assert_eq!(
            v.get("server")
                .and_then(|s| s.get("draining"))
                .and_then(|d| d.as_bool()),
            Some(true)
        );
    }
}
