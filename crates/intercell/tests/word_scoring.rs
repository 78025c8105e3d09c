//! Differential suite for the word-parallel inter-cell front end.
//!
//! `diagnose_with_options` traces critical paths 64 datalog entries per
//! word, and its mispredict scoring and the observability check in
//! `extract_local_patterns_with_good` read 64-lane observability masks
//! memoized on the good machine. The scalar code they replaced is kept
//! below verbatim as the reference: one `gate_cpt` per failing output
//! per entry, and one `DiffPropagator::propagate` per candidate per
//! pattern on an unpacked `Vec<Lv>` of every net. Both must return `==`
//! results over generated circuits, pattern counts on and around word
//! boundaries, single- and multi-defect datalogs, noise-corrupted and
//! mangled (duplicated, unsorted) entries, sanitized and raw, under
//! every option set — and with one good machine, so one memo, shared by
//! a whole lot in any order and by several threads at once.

#![allow(clippy::unwrap_used, clippy::panic)] // test code

use std::collections::BTreeMap;

use icd_cells::CellLibrary;
use icd_faultsim::{
    enumerate_stuck_at, good_simulate, run_test_gate_fault, BitValues, Corruption, Datalog,
    DatalogEntry, NoiseModel,
};
use icd_intercell::{
    diagnose_with_options, extract_local_patterns_with_good, DiagnoseOptions, IntercellDiagnosis,
    IntercellError, LocalPatterns,
};
use icd_logic::Pattern;
use icd_netlist::{generator, Circuit, GateId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scalar implementations, as they stood before word-parallel
/// scoring (crate-private helpers inlined).
mod scalar {
    use std::collections::HashMap;

    use icd_faultsim::{Datalog, DiffPropagator};
    use icd_intercell::{
        gate_cpt, DiagnoseOptions, GateCandidate, IntercellDiagnosis, IntercellError, LocalPattern,
        LocalPatterns,
    };
    use icd_logic::{Lv, Pattern};
    use icd_netlist::{Circuit, GateId, NetId};

    pub fn diagnose_with_options(
        circuit: &Circuit,
        patterns: &[icd_logic::Pattern],
        datalog: &Datalog,
        good: &icd_faultsim::BitValues,
        options: &DiagnoseOptions,
    ) -> Result<IntercellDiagnosis, IntercellError> {
        // Phase 1: candidates from failing-pattern critical paths.
        let mut explained: HashMap<GateId, Vec<usize>> = HashMap::new();
        let mut fail_value: HashMap<GateId, Lv> = HashMap::new();
        let mut consistent: HashMap<GateId, bool> = HashMap::new();

        for entry in &datalog.entries {
            let t = entry.pattern_index;
            if t >= patterns.len() {
                return Err(IntercellError::BadPatternIndex(t));
            }
            let base: Vec<Lv> = (0..circuit.num_nets())
                .map(|i| Lv::from(good.value(NetId::from_index(i), t)))
                .collect();
            let mut seen_this_pattern: HashMap<GateId, ()> = HashMap::new();
            for &oi in &entry.failing_outputs {
                let &start = circuit
                    .outputs()
                    .get(oi)
                    .ok_or(IntercellError::BadOutputIndex(oi))?;
                for net in gate_cpt(circuit, &base, start) {
                    if let Some(gate) = circuit.driver(net) {
                        if seen_this_pattern.insert(gate, ()).is_none() {
                            explained.entry(gate).or_default().push(t);
                            let v = base[circuit.gate_output(gate).index()];
                            match fail_value.get(&gate) {
                                None => {
                                    fail_value.insert(gate, v);
                                    consistent.insert(gate, true);
                                }
                                Some(&prev) if prev == v => {}
                                Some(_) => {
                                    consistent.insert(gate, false);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Phase 2: mispredict count against sampled passing patterns.
        let passing = datalog.passing_pattern_indices();
        let sample: Vec<usize> = passing
            .iter()
            .copied()
            .take(options.passing_sample)
            .collect();
        let mut propagator = DiffPropagator::new(circuit);
        let mut sample_bases: Vec<(usize, Vec<Lv>)> = Vec::with_capacity(sample.len());
        for &t in &sample {
            let base: Vec<Lv> = (0..circuit.num_nets())
                .map(|i| Lv::from(good.value(NetId::from_index(i), t)))
                .collect();
            sample_bases.push((t, base));
        }

        // Preliminary ranking by explained failures; only the head of the
        // list gets the (cone-bounded but non-trivial) mispredict scoring.
        let total_failing = datalog.failing_pattern_indices().len();
        let mut candidates: Vec<GateCandidate> = explained
            .into_iter()
            .map(|(gate, explained)| GateCandidate {
                gate,
                misses: total_failing.saturating_sub(explained.len()),
                explained,
                mispredicts: 0,
                consistent_static: consistent.get(&gate).copied().unwrap_or(false),
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.explained
                .len()
                .cmp(&a.explained.len())
                .then(a.gate.cmp(&b.gate))
        });
        for candidate in candidates.iter_mut().take(options.scored_candidates) {
            if !candidate.consistent_static {
                continue;
            }
            let out = circuit.gate_output(candidate.gate);
            let Some(&fail_v) = fail_value.get(&candidate.gate) else {
                // Unreachable by construction (every candidate gained an entry
                // in phase 1), but noise-hardened: a missing value only skips
                // the scoring rather than panicking the pipeline.
                continue;
            };
            // A flipped gate output can only reach the outputs in its
            // fanout-cone observability set; restrict the per-pattern output
            // scan to those positions.
            let obs_pos: Vec<usize> = circuit.observable_outputs(candidate.gate).iter().collect();
            if obs_pos.is_empty() {
                continue; // no observe point reachable: no flip can mispredict
            }
            for (_, base) in &sample_bases {
                // If the defect were the stuck-at that explains the failures,
                // a passing pattern with the same good value and an observable
                // output would have failed too.
                if base[out.index()] == fail_v {
                    let changed = propagator.propagate(circuit, base, &[(out, !fail_v)]);
                    if !changed.is_empty() {
                        candidate.mispredicts += 1;
                    }
                }
            }
        }

        let rank_key = |c: &GateCandidate| (c.explained.len(), std::cmp::Reverse(c.mispredicts));
        candidates.sort_by(|a, b| rank_key(b).cmp(&rank_key(a)).then(a.gate.cmp(&b.gate)));

        // Phase 3: greedy set cover over failing patterns. A gate only enters
        // the cover when it newly explains at least `min_cover_gain` patterns
        // and the multiplet is below its cap; what stays uncovered is reported
        // as unexplained — the graceful answer for spurious-fail noise.
        //
        // Failing patterns are assigned bit slots so coverage is plain word
        // arithmetic: each candidate's explained set becomes a bitmask once,
        // each iteration computes every gain exactly once (popcount against
        // the uncovered mask), and membership in the multiplet is a flag
        // instead of a linear scan.
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        for t in datalog.failing_pattern_indices() {
            let next = slot_of.len();
            slot_of.entry(t).or_insert(next);
        }
        let mask_words = slot_of.len().div_ceil(64).max(1);
        let mut uncovered = vec![0u64; mask_words];
        for &s in slot_of.values() {
            uncovered[s / 64] |= 1u64 << (s % 64);
        }
        let explained_masks: Vec<Vec<u64>> = candidates
            .iter()
            .map(|c| {
                let mut mask = vec![0u64; mask_words];
                for t in &c.explained {
                    if let Some(&s) = slot_of.get(t) {
                        mask[s / 64] |= 1u64 << (s % 64);
                    }
                }
                mask
            })
            .collect();

        // Cone pre-filter: a candidate whose observability set misses every
        // failing output can never cover anything. CPT-derived candidates
        // always reach the failing output they were traced from, so on a
        // clean flow nothing is filtered — the filter guards the noisy paths
        // and removes dead candidates from every cover iteration.
        let mut failing_outputs_mask = vec![0u64; circuit.cone_index().output_words()];
        for entry in &datalog.entries {
            for &oi in &entry.failing_outputs {
                // Positions were validated against `circuit.outputs()` in
                // phase 1.
                failing_outputs_mask[oi / 64] |= 1u64 << (oi % 64);
            }
        }
        let cone_ok: Vec<bool> = candidates
            .iter()
            .map(|c| {
                circuit
                    .observable_outputs(c.gate)
                    .intersects_words(&failing_outputs_mask)
            })
            .collect();
        icd_obs::counter(
            "intercell.cone_filtered",
            cone_ok.iter().filter(|ok| !**ok).count() as u64,
            icd_obs::Stability::Stable,
        );

        let min_gain = options.min_cover_gain.max(1);
        let mut selected = vec![false; candidates.len()];
        let mut multiplet = Vec::new();
        let mut cover_iterations: u64 = 0;
        while uncovered.iter().any(|&w| w != 0)
            && options
                .max_multiplet
                .is_none_or(|cap| multiplet.len() < cap)
        {
            cover_iterations += 1;
            // `>=` keeps later equal keys, matching `max_by_key`'s
            // last-maximum tie-break (keys are in fact unique: the gate id is
            // part of the key).
            type CoverKey = (usize, std::cmp::Reverse<usize>, std::cmp::Reverse<GateId>);
            let mut best: Option<(usize, CoverKey)> = None;
            for (i, c) in candidates.iter().enumerate() {
                if selected[i] || !cone_ok[i] {
                    continue;
                }
                let gain: usize = explained_masks[i]
                    .iter()
                    .zip(&uncovered)
                    .map(|(m, u)| (m & u).count_ones() as usize)
                    .sum();
                let key = (
                    gain,
                    std::cmp::Reverse(c.mispredicts),
                    std::cmp::Reverse(c.gate),
                );
                if best.as_ref().is_none_or(|(_, bk)| key >= *bk) {
                    best = Some((i, key));
                }
            }
            match best {
                Some((i, (gain, _, _))) if gain >= min_gain => {
                    for (u, m) in uncovered.iter_mut().zip(&explained_masks[i]) {
                        *u &= !m;
                    }
                    selected[i] = true;
                    multiplet.push(candidates[i].gate);
                }
                _ => break,
            }
        }
        let mut unexplained: Vec<usize> = slot_of
            .iter()
            .filter(|&(_, &s)| (uncovered[s / 64] >> (s % 64)) & 1 == 1)
            .map(|(&t, _)| t)
            .collect();
        unexplained.sort_unstable();

        // All three are pure functions of the input datalog, independent of
        // scheduling — hence scheduling-stable for the redacted snapshot.
        icd_obs::counter(
            "intercell.set_cover.iterations",
            cover_iterations,
            icd_obs::Stability::Stable,
        );
        icd_obs::counter(
            "intercell.candidates",
            candidates.len() as u64,
            icd_obs::Stability::Stable,
        );
        icd_obs::counter(
            "intercell.unexplained",
            unexplained.len() as u64,
            icd_obs::Stability::Stable,
        );

        Ok(IntercellDiagnosis {
            candidates,
            multiplet,
            unexplained,
        })
    }

    pub fn extract_local_patterns_with_good(
        circuit: &Circuit,
        patterns: &[Pattern],
        datalog: &Datalog,
        gate: GateId,
        good: &icd_faultsim::BitValues,
    ) -> Result<LocalPatterns, IntercellError> {
        let out = circuit.gate_output(gate);

        let local_at = |t: usize| -> Vec<bool> { good.gate_input_bits(circuit, gate, t) };

        // Observe points structurally reachable from the gate's output: a
        // failure elsewhere cannot have been caused by this gate. Under the
        // single-defect assumption every datalog entry fails inside the
        // suspected gate's cone anyway; with multiple simultaneous defects
        // this filter keeps the other defects' failures from polluting this
        // gate's local failing set.
        let reachable_outputs = {
            let mut in_cone = vec![false; circuit.num_nets()];
            in_cone[out.index()] = true;
            let mut stack = vec![out];
            while let Some(net) = stack.pop() {
                for &g in circuit.fanout(net) {
                    let o = circuit.gate_output(g);
                    if !in_cone[o.index()] {
                        in_cone[o.index()] = true;
                        stack.push(o);
                    }
                }
            }
            let set: std::collections::HashSet<usize> = circuit
                .outputs()
                .iter()
                .enumerate()
                .filter(|&(_, &n)| in_cone[n.index()])
                .map(|(i, _)| i)
                .collect();
            set
        };

        let mut lfp = Vec::new();
        // Failing patterns whose failures are all outside the cone behave as
        // *passing* from this gate's point of view (subject to the
        // observability check below).
        let mut locally_passing: Vec<usize> = Vec::new();
        for entry in &datalog.entries {
            let t = entry.pattern_index;
            if t >= patterns.len() {
                return Err(IntercellError::BadPatternIndex(t));
            }
            if entry
                .failing_outputs
                .iter()
                .any(|o| reachable_outputs.contains(o))
            {
                lfp.push(LocalPattern {
                    pattern_index: t,
                    inputs: local_at(t),
                    previous: local_at(t.saturating_sub(1)),
                });
            } else {
                locally_passing.push(t);
            }
        }

        let mut lpp = Vec::new();
        let mut propagator = DiffPropagator::new(circuit);
        let mut passing: Vec<usize> = datalog.passing_pattern_indices();
        passing.extend(locally_passing);
        passing.sort_unstable();
        for t in passing {
            if t >= patterns.len() {
                return Err(IntercellError::BadPatternIndex(t));
            }
            let base: Vec<Lv> = (0..circuit.num_nets())
                .map(|i| Lv::from(good.value(NetId::from_index(i), t)))
                .collect();
            let flipped = !base[out.index()];
            let changed = propagator.propagate(circuit, &base, &[(out, flipped)]);
            if !changed.is_empty() {
                lpp.push(LocalPattern {
                    pattern_index: t,
                    inputs: local_at(t),
                    previous: local_at(t.saturating_sub(1)),
                });
            }
        }

        Ok(LocalPatterns { gate, lfp, lpp })
    }
}

fn random_circuit(seed: u64, gates: usize) -> Circuit {
    let logic = CellLibrary::standard().logic_library();
    let cfg = generator::GeneratorConfig {
        name: format!("word_scoring{seed}"),
        gates,
        primary_inputs: 6,
        primary_outputs: 6,
        flip_flops: 2,
        scan_chains: 1,
        seed,
    };
    generator::generate(&cfg, &logic).expect("generates")
}

fn random_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Pattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = circuit.inputs().len();
    (0..count)
        .map(|_| Pattern::from_bits((0..w).map(|_| rng.random_bool(0.5))))
        .collect()
}

/// The datalogs of the first `defects` detected stuck-at faults from
/// `offset` on, merged per pattern (simultaneous defects in arbitrary,
/// possibly overlapping cones). All-pass when nothing is detected.
fn stuck_at_datalog(
    circuit: &Circuit,
    patterns: &[Pattern],
    offset: usize,
    defects: usize,
) -> Datalog {
    let faults = enumerate_stuck_at(circuit);
    let mut by_pattern: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let detected = (0..faults.len())
        .map(|i| &faults[(offset + i) % faults.len()])
        .map(|fault| run_test_gate_fault(circuit, patterns, fault).unwrap())
        .filter(|log| !log.all_pass())
        .take(defects);
    for log in detected {
        for e in log.entries {
            by_pattern
                .entry(e.pattern_index)
                .or_default()
                .extend(e.failing_outputs);
        }
    }
    Datalog {
        circuit_name: circuit.name().to_owned(),
        num_patterns: patterns.len(),
        entries: by_pattern
            .into_iter()
            .map(|(pattern_index, mut failing_outputs)| {
                failing_outputs.sort_unstable();
                failing_outputs.dedup();
                DatalogEntry {
                    pattern_index,
                    failing_outputs,
                }
            })
            .collect(),
    }
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (0usize..12).prop_map(Corruption::TruncateAfter),
        (0u64..=100).prop_map(|p| Corruption::DropEntries {
            rate: p as f64 / 100.0
        }),
        (0u64..=30).prop_map(|p| Corruption::SpuriousFails {
            rate: p as f64 / 100.0
        }),
        (0u64..=100).prop_map(|p| Corruption::FlipOutputs {
            rate: p as f64 / 100.0
        }),
    ]
}

/// The option sets under test: the two named presets, a capped cover,
/// and one drawn setting whose sample can span every word.
fn option_sets(passing_sample: usize, scored_candidates: usize) -> [DiagnoseOptions; 4] {
    [
        DiagnoseOptions::default(),
        DiagnoseOptions::noise_tolerant(),
        DiagnoseOptions {
            max_multiplet: Some(1),
            ..DiagnoseOptions::default()
        },
        DiagnoseOptions {
            passing_sample,
            scored_candidates,
            ..DiagnoseOptions::default()
        },
    ]
}

const PATTERN_COUNTS: [usize; 5] = [1, 63, 64, 65, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole `IntercellDiagnosis` and `LocalPatterns` results are equal to
    /// the scalar reference, raw and sanitized.
    #[test]
    fn word_scoring_matches_scalar_reference(
        circuit_seed in any::<u64>(),
        gates in 30usize..120,
        count in 0usize..PATTERN_COUNTS.len(),
        fault_offset in any::<usize>(),
        defects in 1usize..=3,
        corruptions in prop::collection::vec(arb_corruption(), 0..=2),
        noise_seed in any::<u64>(),
        duplicate in any::<bool>(),
        reverse in any::<bool>(),
        passing_sample in 0usize..=140,
        scored_candidates in 0usize..=80,
        extra_gate in any::<usize>(),
    ) {
        let circuit = random_circuit(circuit_seed, gates);
        let patterns = random_patterns(&circuit, PATTERN_COUNTS[count], circuit_seed ^ 0x5eed);
        let good = good_simulate(&circuit, &patterns).unwrap();
        let clean = stuck_at_datalog(&circuit, &patterns, fault_offset, defects);
        let num_outputs = circuit.outputs().len();
        let mut raw = NoiseModel { seed: noise_seed, corruptions }.apply(&clean, num_outputs);
        if duplicate {
            let copies: Vec<DatalogEntry> = raw.entries.iter().step_by(2).cloned().collect();
            raw.entries.extend(copies);
        }
        if reverse {
            raw.entries.reverse();
        }
        let (sanitized, _) = raw.sanitize(num_outputs);

        for datalog in [&raw, &sanitized] {
            let mut gates: Vec<GateId> = vec![GateId::from_index(extra_gate % circuit.num_gates())];
            for options in option_sets(passing_sample, scored_candidates) {
                let word = diagnose_with_options(&circuit, &patterns, datalog, &good, &options);
                let reference = scalar::diagnose_with_options(&circuit, &patterns, datalog, &good, &options);
                prop_assert_eq!(&word, &reference, "options {:?}", options);
                if let Ok(diagnosis) = word {
                    gates.extend(diagnosis.multiplet);
                    gates.extend(diagnosis.candidates.iter().take(3).map(|c| c.gate));
                }
            }
            gates.sort_unstable();
            gates.dedup();
            for gate in gates {
                prop_assert_eq!(
                    extract_local_patterns_with_good(&circuit, &patterns, datalog, gate, &good),
                    scalar::extract_local_patterns_with_good(&circuit, &patterns, datalog, gate, &good),
                    "gate {:?}", gate
                );
            }
        }
    }
}

/// Every candidate is scored against every passing pattern when the
/// sample is unbounded, so a 130-pattern set exercises three words with a
/// partial tail; the scores must still match the scalar reference.
#[test]
fn exhaustive_scoring_spans_every_word() {
    let circuit = random_circuit(0xc0ffee, 90);
    let patterns = random_patterns(&circuit, 130, 11);
    let good = good_simulate(&circuit, &patterns).unwrap();
    let options = DiagnoseOptions {
        passing_sample: usize::MAX,
        scored_candidates: usize::MAX,
        ..DiagnoseOptions::default()
    };
    let mut scored = 0;
    for offset in 0..8 {
        let datalog = stuck_at_datalog(&circuit, &patterns, offset * 7, 2);
        let word = diagnose_with_options(&circuit, &patterns, &datalog, &good, &options).unwrap();
        let reference =
            scalar::diagnose_with_options(&circuit, &patterns, &datalog, &good, &options).unwrap();
        assert_eq!(word, reference);
        scored += word.candidates.iter().map(|c| c.mispredicts).sum::<usize>();
    }
    assert!(scored > 0, "no mispredict was ever scored");
}

/// One datalog's answers: the diagnosis and the local patterns of its
/// multiplet and top candidates.
type Answers = (
    Result<IntercellDiagnosis, IntercellError>,
    Vec<Result<LocalPatterns, IntercellError>>,
);

fn answers(
    circuit: &Circuit,
    patterns: &[Pattern],
    datalog: &Datalog,
    good: &BitValues,
    options: &DiagnoseOptions,
) -> Answers {
    let diagnosis = diagnose_with_options(circuit, patterns, datalog, good, options);
    let mut gates: Vec<GateId> = Vec::new();
    if let Ok(d) = &diagnosis {
        gates.extend(&d.multiplet);
        gates.extend(d.candidates.iter().take(3).map(|c| c.gate));
    }
    gates.sort_unstable();
    gates.dedup();
    let locals = gates
        .into_iter()
        .map(|gate| extract_local_patterns_with_good(circuit, patterns, datalog, gate, good))
        .collect();
    (diagnosis, locals)
}

/// The daemon keeps one good machine, and so one observability memo, for
/// its whole life. A lot diagnosed against one shared machine — in
/// order, in reverse, and from 4 threads at once — must answer exactly
/// as a fresh machine per call does, and as the scalar reference does.
#[test]
fn a_shared_good_machine_answers_like_a_fresh_one() {
    let circuit = random_circuit(0x10_7a, 110);
    let patterns = random_patterns(&circuit, 130, 21);
    let options = DiagnoseOptions {
        passing_sample: 100,
        ..DiagnoseOptions::default()
    };
    let mut lot: Vec<Datalog> = (0..10)
        .map(|i| stuck_at_datalog(&circuit, &patterns, i * 13, 1 + i % 3))
        .collect();
    assert!(lot.iter().filter(|d| !d.all_pass()).count() >= 8);
    // Over 64 entries, duplicated and out of order: phase 1 traces more
    // than one word of entries.
    let base = lot.iter().max_by_key(|d| d.entries.len()).unwrap().clone();
    let mut long = base.clone();
    while long.entries.len() <= 64 {
        long.entries.extend(base.entries.iter().rev().cloned());
    }
    lot.push(long);

    let expected: Vec<Answers> = lot
        .iter()
        .map(|datalog| {
            let fresh = good_simulate(&circuit, &patterns).unwrap();
            let answer = answers(&circuit, &patterns, datalog, &fresh, &options);
            assert_eq!(
                answer.0,
                scalar::diagnose_with_options(&circuit, &patterns, datalog, &fresh, &options)
            );
            if let Ok(diagnosis) = &answer.0 {
                let mut gates: Vec<GateId> = diagnosis.multiplet.clone();
                gates.extend(diagnosis.candidates.iter().take(3).map(|c| c.gate));
                gates.sort_unstable();
                gates.dedup();
                for (gate, local) in gates.into_iter().zip(&answer.1) {
                    assert_eq!(
                        local,
                        &scalar::extract_local_patterns_with_good(
                            &circuit, &patterns, datalog, gate, &fresh
                        )
                    );
                }
            }
            answer
        })
        .collect();

    let forward = good_simulate(&circuit, &patterns).unwrap();
    for (datalog, want) in lot.iter().zip(&expected) {
        assert_eq!(
            &answers(&circuit, &patterns, datalog, &forward, &options),
            want
        );
    }
    // A second pass over the warm memo fills nothing.
    let collector = icd_obs::Collector::new();
    {
        let _local = collector.install_local();
        for (datalog, want) in lot.iter().zip(&expected) {
            assert_eq!(
                &answers(&circuit, &patterns, datalog, &forward, &options),
                want
            );
        }
    }
    let counters = collector.snapshot().counters;
    assert!(counters["intercell.obs_memo.lookups"].0 > 0);
    assert_eq!(counters["intercell.obs_memo.fills"].0, 0);

    let reverse = good_simulate(&circuit, &patterns).unwrap();
    for (datalog, want) in lot.iter().zip(&expected).rev() {
        assert_eq!(
            &answers(&circuit, &patterns, datalog, &reverse, &options),
            want
        );
    }

    // Each thread walks the whole lot from its own starting point, so the
    // threads race for the same entries.
    let shared = good_simulate(&circuit, &patterns).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (circuit, patterns, lot) = (&circuit, &patterns, &lot);
            let (shared, expected, options) = (&shared, &expected, &options);
            scope.spawn(move || {
                for i in 0..lot.len() {
                    let i = (i + t * 3) % lot.len();
                    assert_eq!(
                        &answers(circuit, patterns, &lot[i], shared, options),
                        &expected[i]
                    );
                }
            });
        }
    });
}
