//! Deterministic datalog corruption: the noise model of production test.
//!
//! The paper assumes the datalog faithfully lists every failing pattern.
//! Production testers violate that in well-known ways, and a deployable
//! diagnosis engine has to keep working when they do:
//!
//! * **fail-memory truncation** — the tester stops recording after N
//!   failing patterns ([`Corruption::TruncateAfter`]);
//! * **dropped entries** — intermittent defects pass on re-test, retention
//!   faults escape at reduced voltage ([`Corruption::DropEntries`]);
//! * **spurious fails** — marginal timing, crosstalk or contactor noise
//!   add failing patterns unrelated to the defect
//!   ([`Corruption::SpuriousFails`]);
//! * **flipped observe points** — mis-mapped scan cells report the wrong
//!   failing outputs ([`Corruption::FlipOutputs`]);
//! * **log mangling** — STDF conversion duplicates or reorders records and
//!   garbles bytes ([`Corruption::DuplicateLines`],
//!   [`Corruption::ShuffleLines`], [`Corruption::GarbleBytes`]).
//!
//! [`NoiseModel`] applies a corruption sequence to a [`Datalog`]
//! (structured operations) or to its serialized text (line/byte
//! operations), deterministically from a seed, so the same model is both
//! a fault-injection rig for tests and a documented noise source for the
//! accuracy experiments (`EXPERIMENTS.md`).
//!
//! The corrupted output deliberately violates [`Datalog`]'s invariants
//! (sorted, in-range, non-duplicate entries) the same way real logs do;
//! [`Datalog::sanitize`] repairs what is repairable and reports what was
//! dropped.

use crate::{Datalog, DatalogEntry};

/// A tiny deterministic generator (SplitMix64) so the corruption harness
/// needs no RNG dependency and a `(seed, corruptions)` pair always
/// produces the same noisy datalog.
#[derive(Debug, Clone)]
pub struct NoiseRng(u64);

impl NoiseRng {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        NoiseRng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// One corruption primitive. Probabilities are per-entry (or per-line /
/// per-byte for the text operations) and clamped to `[0, 1]` on use.
#[derive(Debug, Clone, PartialEq)]
pub enum Corruption {
    /// Fail memory is full after `n` failing patterns: every later entry
    /// is silently discarded, exactly like a tester's fail buffer.
    TruncateAfter(usize),
    /// Each entry is independently dropped with probability `rate`
    /// (intermittent defect passing on some applications).
    DropEntries {
        /// Per-entry drop probability.
        rate: f64,
    },
    /// Spurious failing patterns are inserted: each *passing* pattern
    /// independently becomes a fail with probability `rate`, at a random
    /// observe point.
    SpuriousFails {
        /// Per-passing-pattern insertion probability.
        rate: f64,
    },
    /// Each recorded failing output is independently remapped to a random
    /// observe point with probability `rate` (scan-map mismatch).
    FlipOutputs {
        /// Per-observe-point remap probability.
        rate: f64,
    },
    /// Each `fail` line is duplicated with probability `rate` (STDF
    /// record replay). Text-level: visible after [`NoiseModel::apply_text`].
    DuplicateLines {
        /// Per-line duplication probability.
        rate: f64,
    },
    /// The `fail` lines are deterministically reordered (buffered chains
    /// flushing out of order). Text-level.
    ShuffleLines,
    /// Each byte is independently replaced with a random printable or
    /// control byte with probability `rate` (serial-link corruption).
    /// Text-level.
    GarbleBytes {
        /// Per-byte corruption probability.
        rate: f64,
    },
}

/// A seedable sequence of corruptions emulating one noisy tester.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// RNG seed; the same seed and corruption list reproduce the same
    /// noisy datalog.
    pub seed: u64,
    /// Corruptions, applied in order.
    pub corruptions: Vec<Corruption>,
}

impl NoiseModel {
    /// An identity model (no corruption).
    pub fn clean(seed: u64) -> Self {
        NoiseModel {
            seed,
            corruptions: Vec::new(),
        }
    }

    /// A model with one corruption.
    pub fn single(seed: u64, corruption: Corruption) -> Self {
        NoiseModel {
            seed,
            corruptions: vec![corruption],
        }
    }

    /// Applies the structured corruptions to a datalog. `num_outputs` is
    /// the circuit's observe-point count, used to draw spurious/remapped
    /// output indices. Text-level corruptions are skipped here (see
    /// [`NoiseModel::apply_text`]).
    ///
    /// The result may violate the clean-datalog invariants exactly the way
    /// real noisy logs do (duplicate patterns after spurious insertion are
    /// avoided, but flipped outputs may repeat an index); run
    /// [`Datalog::sanitize`] before diagnosis.
    pub fn apply(&self, datalog: &Datalog, num_outputs: usize) -> Datalog {
        let mut rng = NoiseRng::new(self.seed);
        let mut log = datalog.clone();
        for c in &self.corruptions {
            match *c {
                Corruption::TruncateAfter(n) => log.entries.truncate(n),
                Corruption::DropEntries { rate } => {
                    log.entries.retain(|_| !rng.chance(rate.clamp(0.0, 1.0)));
                }
                Corruption::SpuriousFails { rate } => {
                    if num_outputs == 0 {
                        continue;
                    }
                    let failing: std::collections::HashSet<usize> =
                        log.entries.iter().map(|e| e.pattern_index).collect();
                    let mut extra: Vec<DatalogEntry> = Vec::new();
                    for pattern_index in (0..log.num_patterns).filter(|t| !failing.contains(t)) {
                        if rng.chance(rate.clamp(0.0, 1.0)) {
                            extra.push(DatalogEntry {
                                pattern_index,
                                failing_outputs: vec![rng.below(num_outputs)],
                            });
                        }
                    }
                    log.entries.append(&mut extra);
                    log.entries.sort_by_key(|e| e.pattern_index);
                }
                Corruption::FlipOutputs { rate } => {
                    if num_outputs == 0 {
                        continue;
                    }
                    for e in &mut log.entries {
                        for o in &mut e.failing_outputs {
                            if rng.chance(rate.clamp(0.0, 1.0)) {
                                *o = rng.below(num_outputs);
                            }
                        }
                    }
                }
                Corruption::DuplicateLines { .. }
                | Corruption::ShuffleLines
                | Corruption::GarbleBytes { .. } => {}
            }
        }
        log
    }

    /// Applies the text-level corruptions to a serialized datalog,
    /// returning a string that may no longer parse — the input for
    /// no-panic fuzzing of [`crate::datalog_text::parse`].
    pub fn apply_text(&self, text: &str) -> String {
        let mut rng = NoiseRng::new(self.seed ^ 0x5445_5854); // "TEXT"
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        for c in &self.corruptions {
            match *c {
                Corruption::DuplicateLines { rate } => {
                    let mut out = Vec::with_capacity(lines.len() * 2);
                    for l in lines {
                        let dup = l.starts_with("fail") && rng.chance(rate.clamp(0.0, 1.0));
                        out.push(l.clone());
                        if dup {
                            out.push(l);
                        }
                    }
                    lines = out;
                }
                Corruption::ShuffleLines => {
                    // Shuffle only the fail lines among themselves so the
                    // header stays put (headers survive buffering; data
                    // records do not).
                    let idx: Vec<usize> = lines
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.starts_with("fail"))
                        .map(|(i, _)| i)
                        .collect();
                    let mut order = idx.clone();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.below(i + 1));
                    }
                    let reordered: Vec<String> = order.iter().map(|&i| lines[i].clone()).collect();
                    for (slot, line) in idx.into_iter().zip(reordered) {
                        lines[slot] = line;
                    }
                }
                Corruption::GarbleBytes { rate } => {
                    for l in &mut lines {
                        let garbled: String = l
                            .bytes()
                            .map(|b| {
                                if rng.chance(rate.clamp(0.0, 1.0)) {
                                    // Random byte in the printable + control
                                    // range; may break tokens or numbers.
                                    (rng.below(0x60) as u8 + 0x20) as char
                                } else {
                                    b as char
                                }
                            })
                            .collect();
                        *l = garbled;
                    }
                }
                _ => {}
            }
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// What [`Datalog::sanitize`] had to repair — kept alongside the cleaned
/// log so downstream consumers can report *how* degraded their input was.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizeLog {
    /// Entries whose pattern index exceeded the applied-pattern count.
    pub out_of_range_entries: usize,
    /// Duplicate entries merged into their first occurrence.
    pub merged_duplicates: usize,
    /// Entries that arrived out of application order and were re-sorted.
    pub reordered_entries: usize,
    /// Observe-point indices outside the circuit interface, dropped.
    pub dropped_outputs: usize,
    /// Entries left with no valid observe point, dropped.
    pub empty_entries: usize,
}

impl SanitizeLog {
    /// Whether the datalog was already clean.
    pub fn is_clean(&self) -> bool {
        *self == SanitizeLog::default()
    }
}

impl std::fmt::Display for SanitizeLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "datalog clean");
        }
        write!(
            f,
            "sanitized datalog: {} out-of-range, {} duplicate, {} reordered entries; \
             {} bad observe points, {} emptied entries",
            self.out_of_range_entries,
            self.merged_duplicates,
            self.reordered_entries,
            self.dropped_outputs,
            self.empty_entries
        )
    }
}

impl Datalog {
    /// Repairs a noisy datalog into one satisfying the clean invariants
    /// (entries sorted by pattern, unique, in range; observe points in
    /// `[0, num_outputs)` and deduplicated), reporting every repair.
    ///
    /// `num_outputs` bounds the observe-point indices (the circuit's
    /// output count). What cannot be repaired is dropped, never guessed:
    /// a truncated or thinned log stays truncated — that degradation is
    /// the ranking layer's job to absorb.
    #[must_use]
    pub fn sanitize(&self, num_outputs: usize) -> (Datalog, SanitizeLog) {
        let mut report = SanitizeLog::default();
        let mut entries: Vec<DatalogEntry> = Vec::with_capacity(self.entries.len());

        let mut last_index: Option<usize> = None;
        let mut sorted = true;
        for e in &self.entries {
            if e.pattern_index >= self.num_patterns {
                report.out_of_range_entries += 1;
                continue;
            }
            let mut outputs: Vec<usize> = Vec::with_capacity(e.failing_outputs.len());
            for &o in &e.failing_outputs {
                if o < num_outputs && !outputs.contains(&o) {
                    outputs.push(o);
                } else {
                    report.dropped_outputs += 1;
                }
            }
            if outputs.is_empty() {
                report.empty_entries += 1;
                continue;
            }
            if let Some(prev) = last_index {
                if e.pattern_index < prev {
                    sorted = false;
                }
            }
            last_index = Some(e.pattern_index);
            entries.push(DatalogEntry {
                pattern_index: e.pattern_index,
                failing_outputs: outputs,
            });
        }

        if !sorted {
            let moved = entries.len();
            entries.sort_by_key(|e| e.pattern_index);
            report.reordered_entries = moved;
        }

        // Merge duplicates (stable: entries are sorted by pattern now).
        let mut merged: Vec<DatalogEntry> = Vec::with_capacity(entries.len());
        for e in entries {
            match merged.last_mut() {
                Some(prev) if prev.pattern_index == e.pattern_index => {
                    report.merged_duplicates += 1;
                    for o in e.failing_outputs {
                        if !prev.failing_outputs.contains(&o) {
                            prev.failing_outputs.push(o);
                        }
                    }
                }
                _ => merged.push(e),
            }
        }

        (
            Datalog {
                circuit_name: self.circuit_name.clone(),
                num_patterns: self.num_patterns,
                entries: merged,
            },
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Datalog {
        Datalog {
            circuit_name: "A".into(),
            num_patterns: 20,
            entries: (0..10)
                .map(|i| DatalogEntry {
                    pattern_index: i * 2,
                    failing_outputs: vec![i % 3],
                })
                .collect(),
        }
    }

    #[test]
    fn truncate_after_keeps_prefix() {
        let log = sample();
        let noisy = NoiseModel::single(1, Corruption::TruncateAfter(3)).apply(&log, 4);
        assert_eq!(noisy.entries.len(), 3);
        assert_eq!(noisy.entries[..], log.entries[..3]);
    }

    #[test]
    fn drop_entries_is_seeded_and_thins() {
        let log = sample();
        let m = NoiseModel::single(7, Corruption::DropEntries { rate: 0.5 });
        let a = m.apply(&log, 4);
        let b = m.apply(&log, 4);
        assert_eq!(a, b, "same seed, same corruption");
        assert!(a.entries.len() < log.entries.len());
        let different = NoiseModel::single(8, Corruption::DropEntries { rate: 0.5 });
        assert_ne!(different.apply(&log, 4), a, "seed changes the outcome");
    }

    #[test]
    fn spurious_fails_only_hit_passing_patterns() {
        let log = sample();
        let noisy = NoiseModel::single(3, Corruption::SpuriousFails { rate: 1.0 }).apply(&log, 4);
        // Every pattern now fails, the original entries are intact.
        assert_eq!(noisy.entries.len(), log.num_patterns);
        for e in &log.entries {
            assert!(noisy.entries.contains(e));
        }
        // Sorted by pattern index.
        assert!(noisy
            .entries
            .windows(2)
            .all(|w| w[0].pattern_index < w[1].pattern_index));
    }

    #[test]
    fn flip_outputs_stays_in_range() {
        let log = sample();
        let noisy = NoiseModel::single(9, Corruption::FlipOutputs { rate: 1.0 }).apply(&log, 7);
        assert_eq!(noisy.entries.len(), log.entries.len());
        for e in &noisy.entries {
            assert!(e.failing_outputs.iter().all(|&o| o < 7));
        }
    }

    #[test]
    fn zero_outputs_is_harmless() {
        let log = sample();
        for c in [
            Corruption::SpuriousFails { rate: 1.0 },
            Corruption::FlipOutputs { rate: 1.0 },
        ] {
            let noisy = NoiseModel::single(1, c).apply(&log, 0);
            assert_eq!(noisy.entries.len(), log.entries.len());
        }
    }

    #[test]
    fn text_corruptions_round_trip_through_apply_text() {
        let log = sample();
        let text = crate::datalog_text::write(&log);
        let m = NoiseModel {
            seed: 11,
            corruptions: vec![
                Corruption::DuplicateLines { rate: 0.5 },
                Corruption::ShuffleLines,
            ],
        };
        let a = m.apply_text(&text);
        assert_eq!(a, m.apply_text(&text), "deterministic");
        assert!(a.lines().count() >= text.lines().count());
        // The header is preserved in place.
        assert!(a.starts_with("datalog A"));
    }

    #[test]
    fn garbled_text_differs_and_is_deterministic() {
        let log = sample();
        let text = crate::datalog_text::write(&log);
        let m = NoiseModel::single(5, Corruption::GarbleBytes { rate: 0.3 });
        let a = m.apply_text(&text);
        assert_eq!(a, m.apply_text(&text));
        assert_ne!(a, text);
    }

    #[test]
    fn sanitize_repairs_shuffled_duplicated_log() {
        let mut log = sample();
        // Simulate replay + reorder + a bad observe point + out-of-range.
        log.entries.swap(0, 5);
        log.entries.push(log.entries[2].clone());
        log.entries.push(DatalogEntry {
            pattern_index: 99,
            failing_outputs: vec![0],
        });
        log.entries.push(DatalogEntry {
            pattern_index: 1,
            failing_outputs: vec![50],
        });
        let (clean, report) = log.sanitize(4);
        assert!(clean
            .entries
            .windows(2)
            .all(|w| w[0].pattern_index < w[1].pattern_index));
        assert_eq!(report.out_of_range_entries, 1);
        assert_eq!(report.merged_duplicates, 1);
        assert_eq!(report.empty_entries, 1); // the bad-observe-point entry
        assert_eq!(report.dropped_outputs, 1);
        assert!(report.reordered_entries > 0);
        assert!(!report.is_clean());
        // Idempotent: sanitizing a clean log changes nothing.
        let (again, rep2) = clean.sanitize(4);
        assert_eq!(again, clean);
        assert!(rep2.is_clean());
        assert_eq!(rep2.to_string(), "datalog clean");
    }

    #[test]
    fn sanitize_merges_duplicate_outputs_across_entries() {
        let log = Datalog {
            circuit_name: "c".into(),
            num_patterns: 4,
            entries: vec![
                DatalogEntry {
                    pattern_index: 2,
                    failing_outputs: vec![1, 1, 2],
                },
                DatalogEntry {
                    pattern_index: 2,
                    failing_outputs: vec![2, 3],
                },
            ],
        };
        let (clean, report) = log.sanitize(4);
        assert_eq!(clean.entries.len(), 1);
        assert_eq!(clean.entries[0].failing_outputs, vec![1, 2, 3]);
        assert_eq!(report.merged_duplicates, 1);
        assert_eq!(report.dropped_outputs, 1);
    }

    #[test]
    fn clean_model_is_identity() {
        let log = sample();
        assert_eq!(NoiseModel::clean(42).apply(&log, 4), log);
        let text = crate::datalog_text::write(&log);
        assert_eq!(NoiseModel::clean(42).apply_text(&text), text);
    }
}
