use std::collections::HashMap;

use icd_faultsim::{good_simulate, Datalog};
use icd_netlist::{Circuit, GateId};

use crate::cpt::word_cpt;
use crate::{check_pattern_count, lane_words, IntercellError, Observability};

/// How many passing patterns are examined per candidate when counting
/// contradictions; bounds the cost on long production test sets.
const MAX_PASSING_SAMPLE: usize = 32;

/// How many top candidates (by explained failing patterns) receive the
/// passing-pattern contradiction analysis; the long tail keeps a zero
/// count. Bounds the cost on multi-million-gate circuits where a failing
/// pattern's critical paths can cross thousands of gates.
const MAX_SCORED_CANDIDATES: usize = 64;

/// One ranked inter-cell candidate, with explicit mismatch accounting.
///
/// A clean datalog lets the ranking demand a perfect match: the best
/// candidate explains *every* failing pattern and predicts *no* extra
/// failure. Noisy datalogs break both directions — truncated or dropped
/// entries make the true defect **miss** failing patterns it would have
/// explained, spurious entries make it look like it **mispredicts** — so
/// the two error directions are counted separately instead of being
/// collapsed into a single pass/fail verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCandidate {
    /// The suspected gate instance.
    pub gate: GateId,
    /// Failing patterns on whose critical paths the gate's output lies
    /// (type-1 evidence: "explains the failure").
    pub explained: Vec<usize>,
    /// Failing patterns in the datalog this candidate does **not**
    /// explain. Under a single-defect hypothesis these are evidence
    /// against the candidate; under noise (or multiple defects) a nonzero
    /// count is expected and tolerated by the ranking.
    pub misses: usize,
    /// Sampled passing patterns that contradict a single stuck-at defect
    /// at the gate output (the output was observable with the same good
    /// value as in the explained failures, yet the pattern passed) —
    /// patterns the candidate wrongly predicts as failing.
    pub mispredicts: usize,
    /// Whether the gate output held one consistent good value across all
    /// explained failing patterns (a single static culprit is plausible).
    pub consistent_static: bool,
}

impl GateCandidate {
    /// Total mismatch between the candidate's predicted and observed
    /// behaviour (misses + mispredicts). Zero means a perfect match on
    /// the sampled evidence.
    pub fn mismatches(&self) -> usize {
        self.misses + self.mispredicts
    }

    /// Ranking key: more explained failures first (equivalently, fewer
    /// misses), fewer mispredicts second. Deliberately *tolerant*: a
    /// candidate is never discarded for imperfect agreement, only
    /// demoted, so the true defect survives truncated or thinned
    /// datalogs.
    fn rank_key(&self) -> (usize, std::cmp::Reverse<usize>) {
        (self.explained.len(), std::cmp::Reverse(self.mispredicts))
    }
}

/// Tuning knobs of [`diagnose_with_options`]. [`Default`] reproduces the
/// classical (clean-datalog) behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnoseOptions {
    /// Passing patterns sampled per candidate when counting mispredicts.
    pub passing_sample: usize,
    /// Candidates (ranked by explained failures) that receive the
    /// mispredict scoring; the tail keeps a zero count.
    pub scored_candidates: usize,
    /// Minimum *newly covered* failing patterns a gate must contribute to
    /// enter the set cover. `1` is the exact classical cover; `2` or more
    /// keeps isolated spurious fails from drafting bogus gates into the
    /// multiplet — those patterns land in
    /// [`IntercellDiagnosis::unexplained`] instead, which is the honest
    /// answer for noise.
    pub min_cover_gain: usize,
    /// Hard cap on the multiplet size (`None` = unbounded). A tester
    /// datalog corrupted by heavy spurious-fail noise can otherwise
    /// inflate the cover arbitrarily.
    pub max_multiplet: Option<usize>,
}

impl Default for DiagnoseOptions {
    fn default() -> Self {
        DiagnoseOptions {
            passing_sample: MAX_PASSING_SAMPLE,
            scored_candidates: MAX_SCORED_CANDIDATES,
            min_cover_gain: 1,
            max_multiplet: None,
        }
    }
}

impl DiagnoseOptions {
    /// A profile for noisy datalogs: isolated fails cannot enter the set
    /// cover alone and the multiplet is capped, so spurious entries
    /// surface as `unexplained` rather than as phantom defects.
    pub fn noise_tolerant() -> Self {
        DiagnoseOptions {
            min_cover_gain: 2,
            max_multiplet: Some(8),
            ..DiagnoseOptions::default()
        }
    }
}

/// The result of inter-cell diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct IntercellDiagnosis {
    /// All candidates, ranked best-first.
    pub candidates: Vec<GateCandidate>,
    /// A greedy set cover of the failing patterns: the smallest (greedily)
    /// group of gates that together explain every failing pattern. For a
    /// single defect this is one gate; for multiple simultaneous defects it
    /// names one gate per defect, with no assumption about which failing
    /// pattern belongs to which defect.
    pub multiplet: Vec<GateId>,
    /// Failing patterns no candidate explains (ideally empty).
    pub unexplained: Vec<usize>,
}

impl IntercellDiagnosis {
    /// The best single suspected gate, if any candidate exists.
    pub fn best(&self) -> Option<GateId> {
        self.candidates.first().map(|c| c.gate)
    }
}

/// Effect-cause inter-cell diagnosis: produces ranked suspected gates from
/// the circuit, the applied patterns and the tester datalog.
///
/// For every failing pattern, gate-level critical path tracing (the
/// [`gate_cpt`](crate::gate_cpt) rule, run 64 datalog entries per word)
/// traces the critical nets from each failing observe point; the drivers
/// of those nets are the pattern's candidates. Candidates are then scored
/// against sampled passing patterns and a greedy set cover produces the
/// multiplet (see [`IntercellDiagnosis`]).
///
/// # Errors
///
/// Returns an error when the datalog references unknown patterns or
/// outputs, claims more patterns than were applied
/// ([`IntercellError::PatternCountExceeded`]), or the patterns are
/// malformed.
pub fn diagnose(
    circuit: &Circuit,
    patterns: &[icd_logic::Pattern],
    datalog: &Datalog,
) -> Result<IntercellDiagnosis, IntercellError> {
    let good = good_simulate(circuit, patterns)?;
    diagnose_with_good(circuit, patterns, datalog, &good)
}

/// [`diagnose`] variant reusing a precomputed good simulation — the fast
/// path when several diagnosis stages share one pattern set on a large
/// circuit.
///
/// # Errors
///
/// Same as [`diagnose`].
pub fn diagnose_with_good(
    circuit: &Circuit,
    patterns: &[icd_logic::Pattern],
    datalog: &Datalog,
    good: &icd_faultsim::BitValues,
) -> Result<IntercellDiagnosis, IntercellError> {
    diagnose_with_options(
        circuit,
        patterns,
        datalog,
        good,
        &DiagnoseOptions::default(),
    )
}

/// [`diagnose_with_good`] with explicit [`DiagnoseOptions`] — the
/// noise-tolerant entry point. Candidate ranking counts misses and
/// mispredicts separately, and the greedy set cover can require a minimum
/// marginal gain per gate so isolated spurious fails are reported as
/// unexplained instead of fabricating suspects.
///
/// # Errors
///
/// Same as [`diagnose`].
pub fn diagnose_with_options(
    circuit: &Circuit,
    patterns: &[icd_logic::Pattern],
    datalog: &Datalog,
    good: &icd_faultsim::BitValues,
    options: &DiagnoseOptions,
) -> Result<IntercellDiagnosis, IntercellError> {
    check_pattern_count(datalog, patterns)?;

    // Validate in datalog order first, so the first bad entry is the one
    // reported.
    let num_outputs = circuit.outputs().len();
    for entry in &datalog.entries {
        if entry.pattern_index >= patterns.len() {
            return Err(IntercellError::BadPatternIndex(entry.pattern_index));
        }
        if let Some(&oi) = entry.failing_outputs.iter().find(|&&oi| oi >= num_outputs) {
            return Err(IntercellError::BadOutputIndex(oi));
        }
    }

    // Phase 1: candidates from failing-pattern critical paths, traced 64
    // datalog entries per word. Per-gate state is dense, and each entry
    // credits a gate at most once, in entry order.
    let num_gates = circuit.num_gates();
    let mut explained: Vec<Vec<usize>> = vec![Vec::new(); num_gates];
    let mut fail_value = vec![false; num_gates];
    let mut consistent = vec![true; num_gates];
    word_cpt(circuit, good, &datalog.entries, |e, gate, v| {
        let g = gate.index();
        if explained[g].is_empty() {
            fail_value[g] = v;
        } else if fail_value[g] != v {
            consistent[g] = false;
        }
        explained[g].push(datalog.entries[e].pattern_index);
    });

    // Preliminary ranking by explained failures (ties stay in gate order:
    // the list is built in gate order and the sort is stable); only the
    // head of the list gets the mispredict scoring.
    let total_failing = datalog.failing_pattern_indices().len();
    let mut candidates: Vec<GateCandidate> = explained
        .into_iter()
        .enumerate()
        .filter(|(_, explained)| !explained.is_empty())
        .map(|(g, explained)| GateCandidate {
            gate: GateId::from_index(g),
            misses: total_failing.saturating_sub(explained.len()),
            explained,
            mispredicts: 0,
            consistent_static: consistent[g],
        })
        .collect();
    candidates.sort_by_key(|c| std::cmp::Reverse(c.explained.len()));

    // Phase 2: mispredicts against the sampled passing patterns, 64 per
    // word. If the defect were the stuck-at that explains the failures, a
    // sampled pattern with the same good output value whose flip reaches
    // an observe point would have failed too. Lanes never interact, so
    // the lanes that would have failed are the flipped lanes of the good
    // machine's observability memo, each verdict the per-pattern one.
    let sample = lane_words(
        good,
        datalog
            .passing_pattern_indices()
            .into_iter()
            .take(options.passing_sample),
    );
    let mut obs = Observability::new(circuit, good);
    for candidate in candidates.iter_mut().take(options.scored_candidates) {
        if !candidate.consistent_static {
            continue;
        }
        let out = circuit.gate_output(candidate.gate);
        let fail_v = fail_value[candidate.gate.index()];
        for (w, &lanes) in sample.iter().enumerate() {
            let good_out = good.word(out, w);
            let flip = lanes & if fail_v { good_out } else { !good_out };
            if flip != 0 {
                let observed = obs.lanes(candidate.gate, w)? & flip;
                candidate.mispredicts += observed.count_ones() as usize;
            }
        }
    }
    obs.observe();

    candidates.sort_by(|a, b| b.rank_key().cmp(&a.rank_key()).then(a.gate.cmp(&b.gate)));

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
            // Positions were validated against `circuit.outputs()` before
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

#[cfg(test)]
mod tests {
    use super::*;
    use icd_faultsim::{run_test, FaultyBehavior, FaultyGate};
    use icd_logic::{Pattern, TruthTable};
    use icd_netlist::{CircuitBuilder, GateType, Library};

    fn lib() -> Library {
        let mut lib = Library::new();
        lib.insert(GateType::new("INV", ["A"], TruthTable::from_fn(1, |b| !b[0])).unwrap())
            .unwrap();
        lib.insert(
            GateType::new(
                "NAND2",
                ["A", "B"],
                TruthTable::from_fn(2, |b| !(b[0] & b[1])),
            )
            .unwrap(),
        )
        .unwrap();
        lib
    }

    /// Two NAND trees feeding two outputs.
    fn circuit(lib: &Library) -> Circuit {
        let mut bld = CircuitBuilder::new("c", lib);
        let pis: Vec<_> = (0..4).map(|i| bld.add_input(&format!("a{i}"))).collect();
        let x = bld
            .add_gate("NAND2", &[pis[0], pis[1]], Some("U1"))
            .unwrap();
        let y = bld
            .add_gate("NAND2", &[pis[2], pis[3]], Some("U2"))
            .unwrap();
        let z1 = bld.add_gate("INV", &[x], Some("U3")).unwrap();
        let z2 = bld.add_gate("INV", &[y], Some("U4")).unwrap();
        bld.mark_output(z1, "z1");
        bld.mark_output(z2, "z2");
        bld.finish().unwrap()
    }

    fn all_patterns4() -> Vec<Pattern> {
        (0..16)
            .map(|i| Pattern::from_bits((0..4).map(move |k| (i >> k) & 1 == 1)))
            .collect()
    }

    #[test]
    fn single_faulty_gate_is_top_candidate() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        // U1 output stuck at 1 == faulty cell computing constant 1.
        let faulty = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let pats = all_patterns4();
        let log = run_test(&c, &pats, &faulty).unwrap();
        assert!(!log.all_pass());
        let diag = diagnose(&c, &pats, &log).unwrap();
        assert_eq!(diag.best(), Some(u1));
        assert!(diag.unexplained.is_empty());
        assert_eq!(diag.multiplet, vec![u1]);
        // The candidate is consistent: the good output is always 0 when
        // failing (stuck-at-1 excitation).
        let top = &diag.candidates[0];
        assert!(top.consistent_static);
    }

    #[test]
    fn two_simultaneous_defects_need_a_two_gate_cover() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let u2 = c.find_gate("U2").unwrap();
        let pats = all_patterns4();

        // Merge the datalogs of two independent single-gate defects: this
        // emulates two simultaneous defects in disjoint cones.
        let f1 = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let f2 = FaultyGate::new(u2, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let log1 = run_test(&c, &pats, &f1).unwrap();
        let log2 = run_test(&c, &pats, &f2).unwrap();
        let mut merged = Datalog {
            circuit_name: log1.circuit_name.clone(),
            num_patterns: pats.len(),
            entries: Vec::new(),
        };
        let mut by_t: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for e in log1.entries.iter().chain(log2.entries.iter()) {
            by_t.entry(e.pattern_index)
                .or_default()
                .extend(&e.failing_outputs);
        }
        for (t, outs) in by_t {
            merged.entries.push(icd_faultsim::DatalogEntry {
                pattern_index: t,
                failing_outputs: outs,
            });
        }

        let diag = diagnose(&c, &pats, &merged).unwrap();
        assert!(diag.unexplained.is_empty());
        assert_eq!(diag.multiplet.len(), 2);
        assert!(diag.multiplet.contains(&u1));
        assert!(diag.multiplet.contains(&u2));
    }

    #[test]
    fn empty_datalog_yields_no_candidates() {
        let lib = lib();
        let c = circuit(&lib);
        let pats = all_patterns4();
        let log = Datalog {
            circuit_name: "c".into(),
            num_patterns: pats.len(),
            entries: vec![],
        };
        let diag = diagnose(&c, &pats, &log).unwrap();
        assert!(diag.candidates.is_empty());
        assert!(diag.multiplet.is_empty());
        assert!(diag.unexplained.is_empty());
    }

    #[test]
    fn mismatch_accounting_sums_over_failing_patterns() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let faulty = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let pats = all_patterns4();
        let log = run_test(&c, &pats, &faulty).unwrap();
        let total = log.failing_pattern_indices().len();
        let diag = diagnose(&c, &pats, &log).unwrap();
        for cand in &diag.candidates {
            assert_eq!(cand.misses, total - cand.explained.len());
            assert_eq!(cand.mismatches(), cand.misses + cand.mispredicts);
        }
        // The true defect misses nothing on a clean datalog.
        assert_eq!(diag.candidates[0].misses, 0);
    }

    #[test]
    fn true_gate_survives_fail_memory_truncation() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let faulty = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let pats = all_patterns4();
        let full = run_test(&c, &pats, &faulty).unwrap();
        assert!(full.entries.len() > 1);
        // Tester fail memory truncated to a single entry.
        let noisy = icd_faultsim::NoiseModel::single(1, icd_faultsim::Corruption::TruncateAfter(1))
            .apply(&full, c.outputs().len());
        let diag = diagnose(&c, &pats, &noisy).unwrap();
        assert!(
            diag.candidates.iter().any(|cand| cand.gate == u1),
            "true gate lost under truncation"
        );
        // The surviving entry still ranks U1 at the top (it explains the
        // one recorded failure with no mispredict surplus over rivals).
        assert!(diag.multiplet.contains(&u1));
    }

    #[test]
    fn min_cover_gain_routes_spurious_fails_to_unexplained() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let faulty = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let pats = all_patterns4();
        let mut log = run_test(&c, &pats, &faulty).unwrap();
        // One spurious fail on a pattern the defect passes, on the *other*
        // cone's output, so no real candidate explains it.
        let spurious_t = log.passing_pattern_indices()[0];
        log.entries.push(icd_faultsim::DatalogEntry {
            pattern_index: spurious_t,
            failing_outputs: vec![1],
        });
        let (log, _) = log.sanitize(c.outputs().len());
        let good = good_simulate(&c, &pats).unwrap();

        // Exact cover drafts a second gate just for the spurious entry...
        let exact =
            diagnose_with_options(&c, &pats, &log, &good, &DiagnoseOptions::default()).unwrap();
        assert!(exact.multiplet.len() >= 2);
        // ...the tolerant cover reports it as unexplained instead.
        let tolerant =
            diagnose_with_options(&c, &pats, &log, &good, &DiagnoseOptions::noise_tolerant())
                .unwrap();
        assert_eq!(tolerant.multiplet, vec![u1]);
        assert_eq!(tolerant.unexplained, vec![spurious_t]);
    }

    #[test]
    fn max_multiplet_caps_the_cover() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let u2 = c.find_gate("U2").unwrap();
        let pats = all_patterns4();
        let f1 = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let f2 = FaultyGate::new(u2, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let log1 = run_test(&c, &pats, &f1).unwrap();
        let log2 = run_test(&c, &pats, &f2).unwrap();
        let mut merged = log1.clone();
        merged.entries.extend(log2.entries.iter().cloned());
        let (merged, _) = merged.sanitize(c.outputs().len());
        let good = good_simulate(&c, &pats).unwrap();
        let capped = diagnose_with_options(
            &c,
            &pats,
            &merged,
            &good,
            &DiagnoseOptions {
                max_multiplet: Some(1),
                ..DiagnoseOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.multiplet.len(), 1);
        assert!(!capped.unexplained.is_empty());
    }

    #[test]
    fn set_cover_iterations_are_counted() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let faulty = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let pats = all_patterns4();
        let log = run_test(&c, &pats, &faulty).unwrap();
        let collector = icd_obs::Collector::new();
        let diag = {
            let _active = collector.install_local();
            diagnose(&c, &pats, &log).unwrap()
        };
        // One gate covers everything: exactly one greedy iteration.
        assert_eq!(diag.multiplet, vec![u1]);
        let snap = collector.snapshot();
        assert_eq!(snap.counters["intercell.set_cover.iterations"].0, 1);
        assert_eq!(
            snap.counters["intercell.candidates"].0,
            diag.candidates.len() as u64
        );
        assert_eq!(snap.counters["intercell.unexplained"].0, 0);
    }

    /// The straightforward greedy set cover the bitmask implementation in
    /// phase 3 replaced: recompute-gain-per-comparison `max_by_key` over a
    /// `HashSet` of uncovered patterns, with `multiplet.contains` for
    /// membership. Kept as the semantic reference.
    fn reference_cover(
        candidates: &[GateCandidate],
        failing: &[usize],
        options: &DiagnoseOptions,
    ) -> (Vec<GateId>, Vec<usize>) {
        let mut uncovered: std::collections::HashSet<usize> = failing.iter().copied().collect();
        let min_gain = options.min_cover_gain.max(1);
        let mut multiplet = Vec::new();
        while !uncovered.is_empty()
            && options
                .max_multiplet
                .is_none_or(|cap| multiplet.len() < cap)
        {
            let best = candidates
                .iter()
                .filter(|c| !multiplet.contains(&c.gate))
                .max_by_key(|c| {
                    (
                        c.explained.iter().filter(|t| uncovered.contains(t)).count(),
                        std::cmp::Reverse(c.mispredicts),
                        std::cmp::Reverse(c.gate),
                    )
                });
            match best {
                Some(c)
                    if c.explained.iter().filter(|t| uncovered.contains(t)).count() >= min_gain =>
                {
                    for t in &c.explained {
                        uncovered.remove(t);
                    }
                    multiplet.push(c.gate);
                }
                _ => break,
            }
        }
        let mut unexplained: Vec<usize> = uncovered.into_iter().collect();
        unexplained.sort_unstable();
        (multiplet, unexplained)
    }

    #[test]
    fn bitmask_cover_matches_reference_implementation() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let u2 = c.find_gate("U2").unwrap();
        let pats = all_patterns4();

        // Two simultaneous defects in disjoint cones plus a spurious fail:
        // the hardest cover shape the suite exercises.
        let f1 = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let f2 = FaultyGate::new(u2, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let log1 = run_test(&c, &pats, &f1).unwrap();
        let log2 = run_test(&c, &pats, &f2).unwrap();
        let mut merged = log1.clone();
        merged.entries.extend(log2.entries.iter().cloned());
        let spurious_t = merged.passing_pattern_indices()[0];
        merged.entries.push(icd_faultsim::DatalogEntry {
            pattern_index: spurious_t,
            failing_outputs: vec![0],
        });
        let (merged, _) = merged.sanitize(c.outputs().len());
        let good = good_simulate(&c, &pats).unwrap();

        for options in [
            DiagnoseOptions::default(),
            DiagnoseOptions::noise_tolerant(),
            DiagnoseOptions {
                max_multiplet: Some(1),
                ..DiagnoseOptions::default()
            },
        ] {
            let diag = diagnose_with_options(&c, &pats, &merged, &good, &options).unwrap();
            let (multiplet, unexplained) = reference_cover(
                &diag.candidates,
                &merged.failing_pattern_indices(),
                &options,
            );
            assert_eq!(diag.multiplet, multiplet, "options {options:?}");
            assert_eq!(diag.unexplained, unexplained, "options {options:?}");
        }
    }

    #[test]
    fn oversized_pattern_header_is_a_typed_error() {
        let lib = lib();
        let c = circuit(&lib);
        let u1 = c.find_gate("U1").unwrap();
        let faulty = FaultyGate::new(u1, FaultyBehavior::Static(TruthTable::from_fn(2, |_| true)));
        let pats = all_patterns4();
        let mut log = run_test(&c, &pats, &faulty).unwrap();
        let good = good_simulate(&c, &pats).unwrap();
        // A parseable header claiming more patterns than were applied:
        // its passing indices would run past the good simulation.
        log.num_patterns = 200;
        let expected = IntercellError::PatternCountExceeded {
            claimed: 200,
            applied: 16,
        };
        assert_eq!(diagnose(&c, &pats, &log), Err(expected.clone()));
        assert_eq!(
            crate::extract_local_patterns_with_good(&c, &pats, &log, u1, &good),
            Err(expected)
        );
        // A header at or below the applied count is accepted.
        log.num_patterns = 16;
        assert!(diagnose(&c, &pats, &log).is_ok());
    }

    #[test]
    fn bad_indices_are_reported() {
        let lib = lib();
        let c = circuit(&lib);
        let pats = all_patterns4();
        let log = Datalog {
            circuit_name: "c".into(),
            num_patterns: pats.len(),
            entries: vec![icd_faultsim::DatalogEntry {
                pattern_index: 99,
                failing_outputs: vec![0],
            }],
        };
        assert!(matches!(
            diagnose(&c, &pats, &log),
            Err(IntercellError::BadPatternIndex(99))
        ));
    }
}
