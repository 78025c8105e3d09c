//! Typed metrics: counters, gauges and fixed-bucket log-scale
//! histograms, snapshotted into an immutable, exportable value.
//!
//! Every recorded value carries a [`Stability`] class so a snapshot can
//! be *redacted* into its scheduling-independent core: [`Stability::
//! Timing`] values (durations, contention counters, anything that
//! legitimately varies with the worker count or the host) are zeroed by
//! [`MetricsSnapshot::redacted`], while [`Stability::Stable`] values
//! (job counts, cache lookup totals, set-cover iterations) must be
//! byte-identical for any scheduling of the same input — the property
//! `tests/tests/obs_determinism.rs` enforces end to end.

use std::collections::BTreeMap;
use std::fmt;

use crate::json;

/// How a recorded value behaves under rescheduling of the same input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Deterministic for a given input, independent of worker count,
    /// scheduling order and host speed (e.g. jobs executed, cache
    /// *lookup* totals, set-cover iterations).
    Stable,
    /// Timing- or contention-dependent (e.g. latencies, queue high-water,
    /// cache hit/miss *splits*, which race on cold keys). Redaction
    /// zeroes these.
    Timing,
}

impl Stability {
    fn as_str(self) -> &'static str {
        match self {
            Stability::Stable => "stable",
            Stability::Timing => "timing",
        }
    }

    /// The less stable of two classes wins when a metric is recorded
    /// with inconsistent declarations.
    pub(crate) fn merge(self, other: Stability) -> Stability {
        if self == Stability::Timing || other == Stability::Timing {
            Stability::Timing
        } else {
            Stability::Stable
        }
    }
}

/// Number of histogram buckets: bucket `i < BUCKETS - 1` counts values
/// `v` (in microseconds) with `2^i <= v < 2^(i+1)` (bucket 0 also takes
/// `v = 0`); the last bucket is the overflow bucket.
pub const BUCKETS: usize = 22;

/// The inclusive lower bound (µs) of histogram bucket `i`.
pub fn bucket_lower_bound_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i.min(BUCKETS - 1)
    }
}

/// The bucket index a value (µs) falls into.
pub fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        ((63 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// One histogram's accumulated state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values (µs).
    pub sum_us: u64,
    /// Largest single recorded value (µs); always [`Stability::Timing`],
    /// zeroed by redaction like the rest of the distribution.
    pub max_us: u64,
    /// Per-bucket sample counts (see [`bucket_lower_bound_us`]).
    pub buckets: [u64; BUCKETS],
    /// Whether the *count* is scheduling-independent. The value
    /// distribution (sum, max, buckets) is always [`Stability::Timing`].
    pub count_stability: Stability,
}

impl HistogramSnapshot {
    /// A fresh, empty histogram whose sample *count* has the given
    /// stability class.
    pub fn new(count_stability: Stability) -> Self {
        HistogramSnapshot {
            count: 0,
            sum_us: 0,
            max_us: 0,
            buckets: [0; BUCKETS],
            count_stability,
        }
    }

    /// Records one sample (µs). The sum saturates rather than wrapping:
    /// a long-lived daemon must not be able to panic a histogram.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
        self.buckets[bucket_index(us)] += 1;
    }

    /// Folds another histogram into this one (bucket-wise sum, max of
    /// maxes). Used by windowed aggregation to merge time slices.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count_stability = self.count_stability.merge(other.count_stability);
    }

    /// Mean sample value in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 < q <= 1.0`) in microseconds
    /// from the log₂ buckets, `None` when the histogram is empty.
    ///
    /// The rank-`r` sample (`r = ceil(q·count)`, clamped to
    /// `[1, count]`) lives in some bucket `[lower, upper)`; the estimate
    /// interpolates linearly between `lower` and `upper − 1` by the
    /// sample's position inside that bucket, so it always falls inside
    /// the value range the bucket can actually hold (error strictly less
    /// than one bucket width). The overflow bucket has no upper bound
    /// and clamps to its lower bound; a recorded [`max_us`](Self::
    /// max_us) additionally caps every estimate. Estimates are monotone
    /// in `q` by construction.
    pub fn percentile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 || cum + in_bucket < rank {
                cum += in_bucket;
                continue;
            }
            let lower = bucket_lower_bound_us(i);
            let est = if i + 1 >= BUCKETS {
                // Overflow bucket: unbounded above, clamp to the floor.
                lower
            } else if in_bucket == 1 {
                lower
            } else {
                let upper = bucket_lower_bound_us(i + 1);
                let pos = rank - cum; // 1..=in_bucket
                lower + (upper - 1 - lower) * (pos - 1) / (in_bucket - 1)
            };
            return Some(est.min(self.max_us));
        }
        // Unreachable when buckets sum to count; be conservative for
        // hand-built histograms that violate the invariant.
        None
    }
}

/// An immutable capture of every metric a [`Collector`](crate::Collector)
/// accumulated, ordered deterministically by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, (u64, Stability)>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<&'static str, (u64, Stability)>,
    /// Latency histograms.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of a named counter, `None` when it was never recorded.
    /// Convenience for callers (CLI summaries, server health endpoints,
    /// tests) that surface a handful of counters without walking the map.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|&(v, _)| v)
    }

    /// The value of a named gauge, `None` when it was never recorded.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|&(v, _)| v)
    }

    /// The scheduling-independent core of the snapshot: every
    /// [`Stability::Timing`] counter/gauge value is zeroed, histogram
    /// distributions (sum, buckets) are zeroed, and histogram counts
    /// survive only when declared stable. The key set is untouched, so
    /// two redacted snapshots of the same input are byte-identical in
    /// JSON regardless of worker count — the contract behind
    /// `tests/tests/obs_determinism.rs`.
    pub fn redacted(&self) -> MetricsSnapshot {
        let scrub = |m: &BTreeMap<&'static str, (u64, Stability)>| {
            m.iter()
                .map(|(&k, &(v, st))| {
                    let v = if st == Stability::Timing { 0 } else { v };
                    (k, (v, st))
                })
                .collect()
        };
        MetricsSnapshot {
            counters: scrub(&self.counters),
            gauges: scrub(&self.gauges),
            histograms: self
                .histograms
                .iter()
                .map(|(&k, h)| {
                    let mut r = HistogramSnapshot::new(h.count_stability);
                    if h.count_stability == Stability::Stable {
                        r.count = h.count;
                    }
                    (k, r)
                })
                .collect(),
        }
    }

    /// Machine-readable JSON: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}` with deterministic key order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        let scalar = |out: &mut String, m: &BTreeMap<&'static str, (u64, Stability)>| {
            let mut first = true;
            for (name, (value, st)) in m {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                json::write_string(out, name);
                out.push_str(&format!(
                    ": {{ \"value\": {value}, \"stability\": \"{}\" }}",
                    st.as_str()
                ));
            }
            if !first {
                out.push_str("\n  ");
            }
        };
        scalar(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        scalar(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                ": {{ \"count\": {}, \"count_stability\": \"{}\", \"sum_us\": {}, \
                 \"max_us\": {}, \"buckets\": [{}] }}",
                h.count,
                h.count_stability.as_str(),
                h.sum_us,
                h.max_us,
                buckets.join(", ")
            ));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    /// A human summary table: counters and gauges as `name value`,
    /// histograms as `name count total mean`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max(6);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, (value, _)) in &self.counters {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, (value, _)) in &self.gauges {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(
                f,
                "histograms:\n  {:<width$}  {:>8}  {:>12}  {:>10}",
                "name", "count", "total_us", "mean_us"
            )?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "  {name:<width$}  {:>8}  {:>12}  {:>10.1}",
                    h.count,
                    h.sum_us,
                    h.mean_us()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_lower_bound_us(0), 0);
        assert_eq!(bucket_lower_bound_us(1), 2);
        assert_eq!(bucket_lower_bound_us(4), 16);
        // 0 and 1 land in the first bucket; boundary values start a new
        // bucket; everything past the last boundary lands in overflow.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Exhaustively: every bucket's lower bound maps back to itself.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound_us(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_accumulates_and_means() {
        let mut h = HistogramSnapshot::new(Stability::Stable);
        for us in [0, 1, 2, 1024] {
            h.record(us);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum_us, 1027);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[10], 1);
        assert!((h.mean_us() - 1027.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_interpolate_within_bucket_bounds() {
        let mut h = HistogramSnapshot::new(Stability::Timing);
        assert_eq!(h.percentile_us(0.5), None);
        h.record(100);
        // A single sample: every quantile is that sample's bucket floor,
        // capped by the sample itself.
        assert_eq!(h.percentile_us(0.5), Some(64));
        assert_eq!(h.percentile_us(0.99), Some(64));
        for us in [0, 10, 1000, 100_000] {
            h.record(us);
        }
        let p50 = h.percentile_us(0.50).unwrap();
        let p95 = h.percentile_us(0.95).unwrap();
        let p99 = h.percentile_us(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p99 of 5 samples is the rank-5 sample (100_000), whose bucket
        // is [65536, 131072); the estimate stays inside it.
        assert!((65_536..131_072).contains(&p99), "{p99}");
        // All samples in the overflow bucket clamp to its floor.
        let mut top = HistogramSnapshot::new(Stability::Timing);
        for _ in 0..3 {
            top.record(u64::MAX / 2);
        }
        assert_eq!(
            top.percentile_us(0.99),
            Some(bucket_lower_bound_us(BUCKETS - 1))
        );
        // All-zero samples report zero, not the bucket's upper edge.
        let mut zeros = HistogramSnapshot::new(Stability::Timing);
        for _ in 0..8 {
            zeros.record(0);
        }
        assert_eq!(zeros.percentile_us(0.99), Some(0));
    }

    #[test]
    fn merge_folds_counts_sums_and_maxes() {
        let mut a = HistogramSnapshot::new(Stability::Stable);
        a.record(10);
        let mut b = HistogramSnapshot::new(Stability::Timing);
        b.record(5000);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum_us, 5010);
        assert_eq!(a.max_us, 5000);
        assert_eq!(a.buckets.iter().sum::<u64>(), 2);
        assert_eq!(a.count_stability, Stability::Timing);
    }

    #[test]
    fn redaction_zeroes_timing_values_but_keeps_keys() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.stable", (7, Stability::Stable));
        snap.counters.insert("b.timing", (9, Stability::Timing));
        snap.gauges.insert("g", (3, Stability::Timing));
        let mut stable_h = HistogramSnapshot::new(Stability::Stable);
        stable_h.record(100);
        snap.histograms.insert("h.stable_count", stable_h);
        let mut timing_h = HistogramSnapshot::new(Stability::Timing);
        timing_h.record(100);
        snap.histograms.insert("h.timing_count", timing_h);

        let r = snap.redacted();
        assert_eq!(r.counters["a.stable"], (7, Stability::Stable));
        assert_eq!(r.counters["b.timing"], (0, Stability::Timing));
        assert_eq!(r.gauges["g"], (0, Stability::Timing));
        let h = &r.histograms["h.stable_count"];
        assert_eq!((h.count, h.sum_us, h.max_us), (1, 0, 0));
        assert_eq!(h.buckets, [0; BUCKETS]);
        assert_eq!(r.histograms["h.timing_count"].count, 0);
        // Same key set as the original.
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            r.counters.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("jobs", (42, Stability::Stable));
        snap.gauges.insert("workers", (8, Stability::Timing));
        let mut h = HistogramSnapshot::new(Stability::Stable);
        h.record(5);
        snap.histograms.insert("stage.x", h);
        let text = snap.to_json();
        let v = json::parse(&text).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("jobs"))
                .and_then(|j| j.get("value"))
                .and_then(json::Value::as_u64),
            Some(42)
        );
        assert_eq!(
            v.get("histograms")
                .and_then(|hs| hs.get("stage.x"))
                .and_then(|h| h.get("count"))
                .and_then(json::Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn display_renders_a_table() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("jobs", (42, Stability::Stable));
        let text = snap.to_string();
        assert!(text.contains("counters:"));
        assert!(text.contains("jobs"));
        assert!(text.contains("42"));
    }
}
