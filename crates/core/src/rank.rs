//! Simulation-based candidate ranking — the resolution improvement the
//! paper leaves as future work ("how to improve the achieved diagnosis
//! resolution", §5).
//!
//! Critical path tracing over-approximates: every net on a sensitized
//! path of every failing pattern survives as a suspect, even when its
//! fault model would also have corrupted patterns that passed, or would
//! fail to corrupt some patterns that failed. Each allocated candidate is
//! a concrete, *simulatable* fault model, so the suspect list itself can
//! be validated: inject each candidate into the switch-level netlist and
//! compare its predicted pass/fail behaviour with the observed local
//! patterns.
//!
//! This is a micro-dictionary built over the *suspects only* —
//! `O(|candidates| · |patterns|)` simulations, still far below the
//! `O(n²)` of a full dictionary — and it strictly refines the report: a
//! [`RankedCandidate`] that explains every failing pattern and
//! contradicts no passing pattern is *perfect*; the perfect subset is the
//! improved resolution.

use icd_logic::{Lv, PackedEval, PackedWord};
use icd_switch::{CellNetlist, Forcing, TNetId, TransistorId};

use crate::{CoreError, DiagnosisReport, FaultCandidate, FaultModel, LocalTest, SuspectLocation};

/// One candidate with its simulated evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedCandidate {
    /// The allocated candidate.
    pub candidate: FaultCandidate,
    /// Failing local patterns the candidate's model corrupts (out of
    /// `lfp.len()`).
    pub explains_failing: usize,
    /// Passing local patterns the candidate's model would *also* corrupt
    /// — contradictions (out of `lpp.len()`).
    pub contradicts_passing: usize,
}

impl RankedCandidate {
    /// A perfect candidate explains every failure and contradicts no
    /// passing pattern.
    pub fn is_perfect(&self, num_lfp: usize) -> bool {
        self.explains_failing == num_lfp && self.contradicts_passing == 0
    }

    /// Failing patterns this candidate's model does *not* reproduce — the
    /// miss direction of the mismatch accounting (same convention as the
    /// inter-cell `GateCandidate`).
    pub fn misses(&self, num_lfp: usize) -> usize {
        num_lfp.saturating_sub(self.explains_failing)
    }

    /// Total mismatch (misses + contradicted passing patterns). A noisy
    /// local pattern set — derived from a truncated or spurious-fail
    /// datalog — makes even the true defect's model imperfect, so
    /// consumers should compare mismatch counts rather than demand zero.
    pub fn mismatches(&self, num_lfp: usize) -> usize {
        self.misses(num_lfp) + self.contradicts_passing
    }
}

/// A [`DiagnosisReport`] refined by candidate simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedDiagnosis {
    /// All candidates, best first (more failures explained, fewer
    /// contradictions, stable tie-break on the allocation order).
    pub candidates: Vec<RankedCandidate>,
    /// Number of local failing patterns the ranking was computed against.
    pub num_lfp: usize,
    /// Number of local passing patterns.
    pub num_lpp: usize,
}

impl RankedDiagnosis {
    /// The candidates whose models reproduce the observations exactly.
    pub fn perfect(&self) -> impl Iterator<Item = &RankedCandidate> {
        self.candidates
            .iter()
            .filter(|c| c.is_perfect(self.num_lfp))
    }

    /// Candidates whose total mismatch is at most `tolerance` — the
    /// noise-tolerant relaxation of [`RankedDiagnosis::perfect`]
    /// (`within_tolerance(0)` is exactly the perfect subset). Under
    /// datalog noise the true defect typically survives with a small
    /// nonzero mismatch while unrelated suspects accumulate large ones.
    pub fn within_tolerance(&self, tolerance: usize) -> impl Iterator<Item = &RankedCandidate> {
        let num_lfp = self.num_lfp;
        self.candidates
            .iter()
            .filter(move |c| c.mismatches(num_lfp) <= tolerance)
    }

    /// The improved resolution: distinct locations among perfect
    /// candidates, falling back to all candidates when none is perfect
    /// (the observed behaviour is then richer than any single allocated
    /// model — e.g. a multiple defect).
    pub fn ranked_resolution(&self) -> usize {
        let mut locations: std::collections::BTreeSet<SuspectLocation> =
            self.perfect().map(|c| c.candidate.location).collect();
        if locations.is_empty() {
            locations = self
                .candidates
                .iter()
                .map(|c| c.candidate.location)
                .collect();
        }
        locations.len()
    }
}

/// Predicted tester outcome of one candidate model on one local test.
///
/// `good_prev`/`good_cur` are the fault-free cell outputs under the
/// test's previous/current vector, precomputed once per test by
/// [`packed_good_outputs`] (they are candidate-independent), and
/// `prev_lv`/`cur_lv` are the test's vectors converted once per test by
/// the caller (they are candidate-independent too).
fn predicts_failure(
    cell: &CellNetlist,
    (good_prev, good_cur): (Lv, Lv),
    candidate: &FaultCandidate,
    prev_lv: &[Lv],
    cur_lv: &[Lv],
) -> Result<bool, CoreError> {
    let forced_static = |forcing: &Forcing| -> Result<bool, CoreError> {
        let vals = cell.solve(cur_lv, forcing)?;
        let out = vals.value(cell.output());
        let effective = if out == Lv::U {
            // A floating faulty output retains the previous faulty value,
            // approximated by the previous good value (tester semantics).
            // The previous-vector solve is only needed on this path, which
            // halves the switch-level solves for non-floating candidates.
            let prev_vals = cell.solve(prev_lv, forcing)?;
            match prev_vals.value(cell.output()) {
                Lv::U => good_prev,
                v => v,
            }
        } else {
            out
        };
        Ok(effective.conflicts_with(good_cur))
    };

    match candidate.model {
        FaultModel::StuckAt0 | FaultModel::StuckAt1 => {
            let value = Lv::from(candidate.model == FaultModel::StuckAt1);
            let forcing = stuck_forcing(cell, candidate.location, value);
            forced_static(&forcing)
        }
        FaultModel::StuckAtEither => {
            // Either polarity may explain: predict failure if both do —
            // conservative, since a single polarity will be checked by
            // its own candidate when the value was known.
            let f0 = forced_static(&stuck_forcing(cell, candidate.location, Lv::Zero))?;
            let f1 = forced_static(&stuck_forcing(cell, candidate.location, Lv::One))?;
            Ok(f0 && f1)
        }
        FaultModel::DominantBridge => {
            let SuspectLocation::Net(victim) = candidate.location else {
                return Ok(false);
            };
            let Some(aggressor) = candidate.aggressor else {
                return Ok(false);
            };
            forced_static(&Forcing::none().bridge(victim, aggressor))
        }
        FaultModel::SlowTransition => {
            let (slow_nets, slow_transistors): (Vec<TNetId>, Vec<TransistorId>) =
                match candidate.location {
                    SuspectLocation::Net(n) => (vec![n], vec![]),
                    SuspectLocation::Transistor(t) => (vec![], vec![t]),
                };
            let outcome = cell.solve_two_pattern(
                prev_lv,
                cur_lv,
                &Forcing::none(),
                &slow_nets,
                &slow_transistors,
            )?;
            let late = match outcome.capture_late.value(cell.output()) {
                Lv::U => good_prev,
                v => v,
            };
            Ok(late.conflicts_with(good_cur))
        }
    }
}

/// The fault-free `(previous, current)` cell outputs of every local test,
/// evaluated 64 tests per machine word on the shared
/// [`icd_logic::packed`] kernel.
///
/// Every test width must already be validated against the evaluator's
/// arity. For fully specified lanes the packed result is exactly the
/// table entry [`icd_logic::TruthTable::eval_bits`] would return, so the
/// ranking is byte-identical to the per-test scalar evaluation it
/// replaces.
fn packed_good_outputs(eval: &PackedEval, tests: &[LocalTest]) -> Vec<(Lv, Lv)> {
    let n = eval.inputs();
    let mut out = Vec::with_capacity(tests.len());
    let mut prev_ins: Vec<PackedWord> = Vec::with_capacity(n);
    let mut cur_ins: Vec<PackedWord> = Vec::with_capacity(n);
    let mut words = 0u64;
    for chunk in tests.chunks(64) {
        prev_ins.clear();
        cur_ins.clear();
        for pin in 0..n {
            let mut pv = 0u64;
            let mut cv = 0u64;
            for (lane, t) in chunk.iter().enumerate() {
                if t.previous[pin] {
                    pv |= 1u64 << lane;
                }
                if t.inputs[pin] {
                    cv |= 1u64 << lane;
                }
            }
            prev_ins.push(PackedWord::new(pv, !0));
            cur_ins.push(PackedWord::new(cv, !0));
        }
        let p = eval
            .eval_word(&prev_ins)
            .expect("local test width checked before packing");
        let c = eval
            .eval_word(&cur_ins)
            .expect("local test width checked before packing");
        words += 2;
        for lane in 0..chunk.len() {
            out.push((p.lane(lane), c.lane(lane)));
        }
    }
    icd_obs::counter("packed.words_simulated", words, icd_obs::Stability::Stable);
    out
}

fn stuck_forcing(cell: &CellNetlist, location: SuspectLocation, value: Lv) -> Forcing {
    match location {
        SuspectLocation::Net(n) => Forcing::none().pin(n, value),
        SuspectLocation::Transistor(t) => {
            // A stuck terminal of a transistor: model as the control stuck
            // (gate suspects) — the dominant terminal-level fault mode.
            let _ = cell;
            Forcing::none().override_gate(t, value)
        }
    }
}

/// Simulates every allocated candidate of `report` against the observed
/// local patterns and returns them ranked (see [`RankedDiagnosis`]).
///
/// # Errors
///
/// Returns switch-level errors from the candidate simulations.
pub fn rank_candidates(
    cell: &CellNetlist,
    report: &DiagnosisReport,
    lfp: &[LocalTest],
    lpp: &[LocalTest],
) -> Result<RankedDiagnosis, CoreError> {
    rank_candidates_with_cache(cell, report, lfp, lpp, None)
}

/// [`rank_candidates`] with an optional shared
/// [`AnalysisCache`](crate::AnalysisCache): the cell's good truth table
/// and its packed evaluator are fetched once per cell *type* instead of
/// being re-derived per candidate × test, and the fault-free outcome of
/// every local test is evaluated bit-parallel up front (it does not
/// depend on the candidate). The ranking is identical to the uncached
/// call.
///
/// # Errors
///
/// Same as [`rank_candidates`]; additionally reports
/// [`CoreError::WrongLocalWidth`] for a malformed local test (instead of
/// panicking inside the per-candidate evaluation).
pub fn rank_candidates_with_cache(
    cell: &CellNetlist,
    report: &DiagnosisReport,
    lfp: &[LocalTest],
    lpp: &[LocalTest],
    cache: Option<&crate::AnalysisCache>,
) -> Result<RankedDiagnosis, CoreError> {
    let packed = match cache {
        Some(c) => c.packed_eval(cell)?,
        None => std::sync::Arc::new(PackedEval::from_table(&cell.truth_table()?)),
    };
    for t in lfp.iter().chain(lpp) {
        for width in [t.previous.len(), t.inputs.len()] {
            if width != packed.inputs() {
                return Err(CoreError::WrongLocalWidth {
                    expected: packed.inputs(),
                    got: width,
                });
            }
        }
    }
    let good_lfp = packed_good_outputs(&packed, lfp);
    let good_lpp = packed_good_outputs(&packed, lpp);
    // Ternary views of the test vectors, converted once per test instead
    // of once per candidate × test.
    let to_lv = |tests: &[LocalTest]| -> Vec<(Vec<Lv>, Vec<Lv>)> {
        tests
            .iter()
            .map(|t| {
                (
                    t.previous.iter().copied().map(Lv::from).collect(),
                    t.inputs.iter().copied().map(Lv::from).collect(),
                )
            })
            .collect()
    };
    let lfp_lv = to_lv(lfp);
    let lpp_lv = to_lv(lpp);
    let mut ranked = Vec::with_capacity(report.candidates.len());
    for candidate in &report.candidates {
        let mut explains = 0usize;
        for (&g, (prev_lv, cur_lv)) in good_lfp.iter().zip(&lfp_lv) {
            if predicts_failure(cell, g, candidate, prev_lv, cur_lv)? {
                explains += 1;
            }
        }
        let mut contradicts = 0usize;
        for (&g, (prev_lv, cur_lv)) in good_lpp.iter().zip(&lpp_lv) {
            if predicts_failure(cell, g, candidate, prev_lv, cur_lv)? {
                contradicts += 1;
            }
        }
        ranked.push(RankedCandidate {
            candidate: candidate.clone(),
            explains_failing: explains,
            contradicts_passing: contradicts,
        });
    }
    ranked.sort_by(|a, b| {
        b.explains_failing
            .cmp(&a.explains_failing)
            .then(a.contradicts_passing.cmp(&b.contradicts_passing))
    });
    Ok(RankedDiagnosis {
        candidates: ranked,
        num_lfp: lfp.len(),
        num_lpp: lpp.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose;
    use icd_cells::CellLibrary;
    use icd_defects::{characterize, Defect};

    fn local_patterns_static(
        cell: &CellNetlist,
        behavior: &icd_faultsim::FaultyBehavior,
    ) -> (Vec<LocalTest>, Vec<LocalTest>) {
        let good = cell.truth_table().unwrap();
        let n = cell.num_inputs();
        let mut lfp = Vec::new();
        let mut lpp = Vec::new();
        for combo in 0..(1usize << n) {
            let bits: Vec<bool> = (0..n).map(|k| (combo >> k) & 1 == 1).collect();
            let g = good.eval_bits(&bits);
            let f = behavior.eval(&bits, &bits, g);
            if f.conflicts_with(g) {
                lfp.push(LocalTest::static_vector(bits));
            } else {
                lpp.push(LocalTest::static_vector(bits));
            }
        }
        (lfp, lpp)
    }

    #[test]
    fn ranking_never_increases_resolution() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        let ranked = rank_candidates(cell, &report, &lfp, &lpp).unwrap();
        assert!(ranked.ranked_resolution() <= report.resolution());
    }

    #[test]
    fn true_defect_model_is_perfect_and_top_ranked() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        let ranked = rank_candidates(cell, &report, &lfp, &lpp).unwrap();
        // The "A stuck-at-0" candidate must be perfect.
        let perfect: Vec<_> = ranked.perfect().collect();
        assert!(
            perfect
                .iter()
                .any(|c| c.candidate.location == SuspectLocation::Net(a)
                    && c.candidate.model == FaultModel::StuckAt0),
            "A Sa0 not perfect: {:?}",
            perfect
        );
        // And the top-ranked candidate must be perfect too.
        let top = &ranked.candidates[0];
        assert!(top.is_perfect(ranked.num_lfp));
    }

    #[test]
    fn zero_tolerance_matches_the_perfect_subset() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        let ranked = rank_candidates(cell, &report, &lfp, &lpp).unwrap();
        let perfect: Vec<_> = ranked.perfect().collect();
        let zero_tol: Vec<_> = ranked.within_tolerance(0).collect();
        assert_eq!(perfect, zero_tol);
        // Relaxing the tolerance is monotone.
        assert!(ranked.within_tolerance(2).count() >= zero_tol.len());
        // Mismatch accounting is consistent.
        for c in &ranked.candidates {
            assert_eq!(
                c.mismatches(ranked.num_lfp),
                c.misses(ranked.num_lfp) + c.contradicts_passing
            );
        }
    }

    #[test]
    fn true_defect_survives_thinned_local_patterns() {
        // Drop some local failing patterns (the cell-level shadow of
        // datalog truncation): the true model keeps a zero mismatch while
        // still being judged against the full passing set.
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        assert!(lfp.len() >= 2);
        let thinned: Vec<LocalTest> = lfp.iter().take(1).cloned().collect();
        let report = diagnose(cell, &thinned, &lpp).unwrap();
        let ranked = rank_candidates(cell, &report, &thinned, &lpp).unwrap();
        assert!(
            ranked
                .within_tolerance(0)
                .any(|c| c.candidate.location == SuspectLocation::Net(a)),
            "true defect lost under thinning: {:?}",
            ranked.candidates
        );
    }

    #[test]
    fn path_equivalents_with_contradictions_are_demoted() {
        // An input-A-to-GND short on the AOI: the output-Z stuck-at
        // explains all failures but ALSO predicts failures on passing
        // patterns (Z is always observable) — it must rank below the
        // perfect candidates.
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        let ranked = rank_candidates(cell, &report, &lfp, &lpp).unwrap();
        let z = cell.output();
        let z_candidate = ranked.candidates.iter().find(|c| {
            c.candidate.location == SuspectLocation::Net(z)
                && matches!(
                    c.candidate.model,
                    FaultModel::StuckAt0 | FaultModel::StuckAt1
                )
        });
        // Either vindication already removed the Z stuck-at (it would
        // have failed a passing pattern), or ranking demotes it below the
        // perfect top candidate.
        let top = &ranked.candidates[0];
        assert!(top.is_perfect(ranked.num_lfp));
        if let Some(zc) = z_candidate {
            assert!(zc.contradicts_passing >= top.contradicts_passing);
        }
    }

    #[test]
    fn lazy_prev_solve_matches_the_eager_reference() {
        // The previous-vector solve is skipped when the current-vector
        // output is binary; this must not change any verdict relative to
        // the original always-solve-both evaluation.
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        let packed = PackedEval::from_table(&cell.truth_table().unwrap());
        let tests: Vec<LocalTest> = lfp.iter().chain(&lpp).cloned().collect();
        let good = packed_good_outputs(&packed, &tests);
        for candidate in report
            .candidates
            .iter()
            .filter(|c| matches!(c.model, FaultModel::StuckAt0 | FaultModel::StuckAt1))
        {
            let value = Lv::from(candidate.model == FaultModel::StuckAt1);
            let forcing = stuck_forcing(cell, candidate.location, value);
            for (t, &(gp, gc)) in tests.iter().zip(&good) {
                let prev_lv: Vec<Lv> = t.previous.iter().copied().map(Lv::from).collect();
                let cur_lv: Vec<Lv> = t.inputs.iter().copied().map(Lv::from).collect();
                // Eager reference: always solve both vectors.
                let out = cell.solve(&cur_lv, &forcing).unwrap().value(cell.output());
                let prev_out = match cell.solve(&prev_lv, &forcing).unwrap().value(cell.output()) {
                    Lv::U => gp,
                    v => v,
                };
                let eager = (if out == Lv::U { prev_out } else { out }).conflicts_with(gc);
                let lazy = predicts_failure(cell, (gp, gc), candidate, &prev_lv, &cur_lv).unwrap();
                assert_eq!(lazy, eager, "candidate {candidate:?} test {t:?}");
            }
        }
    }

    #[test]
    fn malformed_local_test_is_an_error_not_a_panic() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        // A truncated vector slipped into the passing set.
        let mut bad_lpp = lpp.clone();
        bad_lpp.push(LocalTest::static_vector(vec![true]));
        let err = rank_candidates(cell, &report, &lfp, &bad_lpp);
        assert!(matches!(
            err,
            Err(CoreError::WrongLocalWidth {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn cached_and_uncached_rankings_are_identical() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        let cache = crate::AnalysisCache::new();
        let cached = rank_candidates_with_cache(cell, &report, &lfp, &lpp, Some(&cache)).unwrap();
        let uncached = rank_candidates(cell, &report, &lfp, &lpp).unwrap();
        assert_eq!(cached, uncached);
        assert_eq!(cache.packed_stats().misses, 1);
    }

    #[test]
    fn delay_candidates_are_ranked_by_two_pattern_simulation() {
        use icd_switch::Terminal;
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7NHVTX1").unwrap().netlist();
        let n0 = cell.find_transistor("N0").unwrap();
        let ch = characterize(cell, &Defect::resistive_open(n0, Terminal::Source)).unwrap();
        let behavior = ch.behavior.unwrap();
        let good = cell.truth_table().unwrap();
        let n = cell.num_inputs();
        let mut lfp = Vec::new();
        let mut lpp = Vec::new();
        for prev in 0..(1usize << n) {
            for cur in 0..(1usize << n) {
                let pb: Vec<bool> = (0..n).map(|k| (prev >> k) & 1 == 1).collect();
                let cb: Vec<bool> = (0..n).map(|k| (cur >> k) & 1 == 1).collect();
                let pg = good.eval_bits(&pb);
                let raw = behavior.eval(&pb, &cb, pg);
                let eff = if raw == Lv::U { pg } else { raw };
                if eff.conflicts_with(good.eval_bits(&cb)) {
                    lfp.push(LocalTest::two_pattern(pb, cb));
                } else {
                    lpp.push(LocalTest::two_pattern(pb, cb));
                }
            }
        }
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        assert!(report.dynamic_only);
        let ranked = rank_candidates(cell, &report, &lfp, &lpp).unwrap();
        // The true slow transistor must be a perfect candidate.
        assert!(
            ranked
                .perfect()
                .any(|c| c.candidate.location == SuspectLocation::Transistor(n0)),
            "N0 not perfect: {:?}",
            ranked.candidates
        );
        // Ranking strictly improves the resolution for this defect.
        assert!(ranked.ranked_resolution() < report.resolution());
    }
}
