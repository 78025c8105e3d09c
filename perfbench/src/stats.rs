//! Summary statistics, failure accounting and the result line.

use std::fmt::Write as _;

/// The median of `values` (mean of the middle two for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The arithmetic mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A latency percentile chosen by how many samples support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when the sample allows it).
    pub percentile: u32,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile from p99 down to p51 with at least
/// [`TAIL_SUPPORT`] samples beyond it (nearest rank): p99 needs 1 000
/// samples, p98 500, and so on. When none above the median has that
/// support (fewer than 21 samples), the median is reported, labelled
/// p50. `None` for an empty sample.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let percentile = (51..=99u32)
        .rev()
        .find(|&p| n * (100 - p as usize) >= TAIL_SUPPORT * 100);
    Some(match percentile {
        Some(p) => Tail {
            percentile: p,
            value: nearest_rank(samples, f64::from(p) / 100.0),
            samples: n,
        },
        None => Tail {
            percentile: 50,
            value: median(samples)?,
            samples: n,
        },
    })
}

/// Nearest-rank quantile `q` in (0, 1] of a non-empty sample.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Attempted and failed operations. A failure is an `Error` frame, a
/// transport error or timeout, or a reply that differs from the
/// in-process reference answer; the first few are kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failures, as `device: why`.
    pub first_failures: Vec<String>,
}

/// Failures kept verbatim by a [`Tally`].
const KEPT_FAILURES: usize = 5;

impl Tally {
    /// Records one operation: `Ok` when the reply matched its reference.
    pub fn record(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.first_failures.len() < KEPT_FAILURES {
                self.first_failures.push(format!("{name}: {why}"));
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Compares a served reply with its reference, byte for byte; the error
/// names the first differing byte.
pub fn compare(served: &str, expected: &str) -> Result<(), String> {
    if served == expected {
        return Ok(());
    }
    let at = served
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(served.len().min(expected.len()));
    let clip = |s: &str| {
        s.chars()
            .skip(at.saturating_sub(20))
            .take(60)
            .collect::<String>()
    };
    Err(format!(
        "reply differs from the reference at byte {at}: got {:?}, expected {:?}",
        clip(served),
        clip(expected)
    ))
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How the value was obtained (sample count, percentile), for the
    /// human-readable table.
    pub note: String,
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its value and unit.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        icd_obs::json::write_string(&mut out, m.name);
        // `{:?}` prints an f64 with every digit needed to read it back.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, ":{{\"value\":{value:?},\"unit\":");
        icd_obs::json::write_string(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1_000));
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.percentile, 98, "999 samples leave only 9.99 beyond p99");
        assert_eq!(t.samples, 999);
    }

    #[test]
    fn smaller_samples_fall_back_to_the_highest_supported_percentile() {
        // n × (100 − p) ≥ 1 000: 800 samples support p98, 200 support p95.
        assert_eq!(tail(&ramp(800)).unwrap().percentile, 98);
        assert_eq!(tail(&ramp(200)).unwrap().percentile, 95);
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        assert_eq!(tail(&ramp(21)).unwrap().percentile, 52);
        assert_eq!(tail(&ramp(20)).unwrap().percentile, 50);
        for n in [100, 200, 800, 5_000] {
            let t = tail(&ramp(n)).unwrap();
            let beyond = ramp(n).iter().filter(|&&v| v > t.value).count();
            assert!(
                beyond >= TAIL_SUPPORT,
                "n={n}: {beyond} beyond p{}",
                t.percentile
            );
        }
    }

    #[test]
    fn tiny_samples_report_the_median_with_their_count() {
        let t = tail(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50, 2.5, 4));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn a_mismatched_reply_counts_as_failed() {
        let mut tally = Tally::default();
        tally.record(
            "device-000.log",
            compare("top suspect g5", "top suspect g5"),
        );
        tally.record(
            "device-001.log",
            compare("top suspect g7", "top suspect g5"),
        );
        tally.record("device-002.log", Err("server error (Busy)".into()));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.fail_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(tally.first_failures[0].starts_with("device-001.log: reply differs"));
        assert!(tally.first_failures[0].contains("byte 13"));
        tally.record("device-003.log", Ok(()));
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(Tally::default().fail_rate(), 0.0);
    }

    #[test]
    fn failures_kept_are_bounded() {
        let mut tally = Tally::default();
        for i in 0..20 {
            tally.record(&format!("d{i}"), Err("x".into()));
        }
        assert_eq!(tally.failed, 20);
        assert_eq!(tally.first_failures.len(), KEPT_FAILURES);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "req_p99_ms",
            "server.self_us",
            "core.cpt_hit_rate",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "req p50", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut tally = Tally::default();
        tally.record("d", Ok(()));
        let metrics = [
            Metric {
                name: "setup_s",
                value: 0.0125,
                unit: "s",
                note: String::new(),
            },
            Metric {
                name: "hit_rate",
                value: 1.0,
                unit: "ratio",
                note: String::new(),
            },
        ];
        let line = result_line(true, &tally, &metrics);
        let parsed = icd_obs::json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(parsed.get("failed").and_then(|v| v.as_u64()), Some(0));
        let m = parsed.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.0125));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert!(m.get("hit_rate").is_some());
    }
}
