use std::collections::BTreeSet;

use icd_logic::Lv;
use icd_switch::{CellNetlist, TNetId, TransistorId};

use crate::{
    delay_suspects_from, transistor_cpt, AnalysisCache, BridgeSuspectList, CoreError, CptOutcome,
    DelaySuspectList, SuspectItem, SuspectList,
};

/// One local test applied to the suspected cell: the current input vector
/// and the previous one (the launch vector of the pattern pair — required
/// for dynamic faulty behaviours, paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LocalTest {
    /// Current (capture) cell-input values, in pin order.
    pub inputs: Vec<bool>,
    /// Previous (launch) cell-input values.
    pub previous: Vec<bool>,
}

impl LocalTest {
    /// A static test: no transition (previous == current).
    pub fn static_vector(inputs: Vec<bool>) -> Self {
        LocalTest {
            previous: inputs.clone(),
            inputs,
        }
    }

    /// A two-pattern test.
    pub fn two_pattern(previous: Vec<bool>, inputs: Vec<bool>) -> Self {
        LocalTest { previous, inputs }
    }

    fn inputs_lv(&self) -> Vec<Lv> {
        self.inputs.iter().copied().map(Lv::from).collect()
    }

    fn previous_lv(&self) -> Vec<Lv> {
        self.previous.iter().copied().map(Lv::from).collect()
    }
}

/// The fault model allocated to a surviving suspect (paper §3.2.2, last
/// step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultModel {
    /// Stuck-at-0 (the suspect was traced at logic 1 in the failures).
    StuckAt0,
    /// Stuck-at-1 (the suspect was traced at logic 0 in the failures).
    StuckAt1,
    /// The traced value was unknown: either polarity explains the
    /// failures.
    StuckAtEither,
    /// Dominant bridging fault; the aggressor is recorded in the
    /// candidate.
    DominantBridge,
    /// Delay fault (slow-to-rise / slow-to-fall deliberately not
    /// distinguished).
    SlowTransition,
}

/// The physical location a candidate implicates — the unit in which the
/// paper counts resolution ("when a transistor is identified as suspect,
/// all of the three terminals of this transistor are suspected").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SuspectLocation {
    /// A cell net.
    Net(TNetId),
    /// A transistor (via one of its terminals).
    Transistor(TransistorId),
}

/// One allocated fault candidate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FaultCandidate {
    /// Where the fault would be.
    pub location: SuspectLocation,
    /// Which fault model explains the failures there.
    pub model: FaultModel,
    /// The aggressor net for dominant-bridge candidates.
    pub aggressor: Option<TNetId>,
    /// Paper-style description (`"N16 Sa1"`, `"N55-A"`, `"N2 delay"`).
    pub description: String,
}

/// The complete intra-cell diagnosis result.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// Global Suspect List after intersection and vindication.
    pub gsl: SuspectList,
    /// Global Bridging Suspect List after intersection and vindication.
    pub gbsl: BridgeSuspectList,
    /// Global Delay Suspect List after intersection (never vindicated).
    pub gdsl: DelaySuspectList,
    /// Whether `lfp ∩ lpp ≠ ∅` forced the dynamic-only verdict
    /// (Definition 3): static lists were discarded.
    pub dynamic_only: bool,
    /// Allocated fault candidates.
    pub candidates: Vec<FaultCandidate>,
}

impl DiagnosisReport {
    /// Whether no candidate survived — the defect is *outside* this cell
    /// (the paper's circuit-C verdict).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The paper's resolution metric: the number of distinct candidate
    /// locations.
    pub fn resolution(&self) -> usize {
        self.candidates
            .iter()
            .map(|c| c.location)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// The coarser net-level resolution: the number of distinct *nets* the
    /// surviving suspect lists point at (each terminal suspect counts as
    /// the net it sits on, each bridge as its victim). This is the
    /// granularity physical failure analysis navigates by, and the closest
    /// match to the candidate counts of the paper's Tables 2–5.
    pub fn net_resolution(&self, cell: &CellNetlist) -> usize {
        let mut nets = BTreeSet::new();
        for (item, _) in self.gsl.iter() {
            nets.insert(item.net(cell));
        }
        for (&(victim, _), _) in self.gbsl.iter() {
            nets.insert(victim);
        }
        for item in self.gdsl.iter() {
            nets.insert(item.net(cell));
        }
        nets.len()
    }

    /// All nets any candidate implicates (terminal candidates implicate
    /// the terminal's net; bridge candidates implicate victim and
    /// aggressor).
    pub fn suspect_nets(&self, cell: &CellNetlist) -> BTreeSet<TNetId> {
        let mut nets = BTreeSet::new();
        for c in &self.candidates {
            match c.location {
                SuspectLocation::Net(n) => {
                    nets.insert(n);
                }
                SuspectLocation::Transistor(t) => {
                    let tr = cell.transistor(t);
                    nets.insert(tr.gate);
                    nets.insert(tr.source);
                    nets.insert(tr.drain);
                }
            }
            if let Some(a) = c.aggressor {
                nets.insert(a);
            }
        }
        nets
    }

    /// All transistors any candidate implicates.
    pub fn suspect_transistors(&self) -> BTreeSet<TransistorId> {
        self.candidates
            .iter()
            .filter_map(|c| match c.location {
                SuspectLocation::Transistor(t) => Some(t),
                SuspectLocation::Net(_) => None,
            })
            .collect()
    }

    /// A printable multi-line summary using the cell's names.
    pub fn summary(&self, cell: &CellNetlist) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.is_empty() {
            let _ = writeln!(
                s,
                "no intra-cell candidate: defect is outside {}",
                cell.name()
            );
            return s;
        }
        if self.dynamic_only {
            let _ = writeln!(s, "lfp ∩ lpp ≠ ∅: dynamic faulty behaviour only");
        }
        for c in &self.candidates {
            let _ = writeln!(s, "  {}", c.description);
        }
        s
    }
}

/// Builds the bridging list of one pattern: every critical *net* of the
/// suspect list is a potential victim; every other non-rail net holding
/// the opposite value is a potential aggressor (paper eq. 2).
pub(crate) fn bridge_list_from(
    cell: &CellNetlist,
    suspects: &SuspectList,
    values: &icd_switch::NodeValues,
) -> BridgeSuspectList {
    let mut bsl = BridgeSuspectList::new();
    for (item, &victim_value) in suspects.iter() {
        let SuspectItem::Net(victim) = *item else {
            continue;
        };
        if !victim_value.is_known() {
            continue;
        }
        for aggressor in cell.nets() {
            if aggressor == victim || cell.is_rail(aggressor) {
                continue;
            }
            let av = values.value(aggressor);
            if av == !victim_value {
                bsl.insert(victim, aggressor, (victim_value, av));
            }
        }
    }
    bsl
}

fn allocate(
    cell: &CellNetlist,
    gsl: &SuspectList,
    gbsl: &BridgeSuspectList,
    gdsl: &DelaySuspectList,
) -> Vec<FaultCandidate> {
    let mut candidates = Vec::new();
    let mut seen: BTreeSet<(SuspectLocation, FaultModel, Option<TNetId>)> = BTreeSet::new();
    let mut push = |candidates: &mut Vec<FaultCandidate>,
                    location: SuspectLocation,
                    model: FaultModel,
                    aggressor: Option<TNetId>,
                    description: String| {
        if seen.insert((location, model, aggressor)) {
            candidates.push(FaultCandidate {
                location,
                model,
                aggressor,
                description,
            });
        }
    };

    for (item, &value) in gsl.iter() {
        let (model, tag) = match value {
            Lv::One => (FaultModel::StuckAt0, "Sa0"),
            Lv::Zero => (FaultModel::StuckAt1, "Sa1"),
            Lv::U => (FaultModel::StuckAtEither, "Sa0/Sa1"),
        };
        let location = match *item {
            SuspectItem::Net(n) => SuspectLocation::Net(n),
            SuspectItem::Terminal(t, _) => SuspectLocation::Transistor(t),
        };
        let description = format!("{} {tag}", item.display(cell));
        push(&mut candidates, location, model, None, description);
    }

    for (&(victim, aggressor), _) in gbsl.iter() {
        let description = format!(
            "{}-{} bridge ({} aggressor)",
            cell.net_name(victim),
            cell.net_name(aggressor),
            cell.net_name(aggressor),
        );
        push(
            &mut candidates,
            SuspectLocation::Net(victim),
            FaultModel::DominantBridge,
            Some(aggressor),
            description,
        );
    }

    for item in gdsl.iter() {
        let location = match *item {
            SuspectItem::Net(n) => SuspectLocation::Net(n),
            SuspectItem::Terminal(t, _) => SuspectLocation::Transistor(t),
        };
        let name = match *item {
            SuspectItem::Net(_) => item.display(cell),
            SuspectItem::Terminal(t, _) => cell.transistor(t).name.clone(),
        };
        push(
            &mut candidates,
            location,
            FaultModel::SlowTransition,
            None,
            format!("{name} delay"),
        );
    }

    candidates
}

/// The intra-cell diagnosis procedure of the paper's Fig. 9.
///
/// `lfp` are the local failing patterns of the suspected cell, `lpp` its
/// local passing patterns (both produced by the DUT-simulation step; see
/// the `icd-intercell` crate). Returns the surviving suspect lists with
/// allocated fault models.
///
/// # Errors
///
/// Returns [`CoreError::NoFailingPatterns`] for an empty `lfp`,
/// [`CoreError::WrongLocalWidth`] for malformed vectors, and switch-level
/// errors from the underlying simulations.
pub fn diagnose(
    cell: &CellNetlist,
    lfp: &[LocalTest],
    lpp: &[LocalTest],
) -> Result<DiagnosisReport, CoreError> {
    diagnose_with_cache(cell, lfp, lpp, None)
}

/// [`diagnose`] with an optional shared [`AnalysisCache`]: critical path
/// traces are served per (cell type, vector) instead of being re-derived
/// per suspected gate. The result is identical to the uncached call.
///
/// # Errors
///
/// Same as [`diagnose`].
pub fn diagnose_with_cache(
    cell: &CellNetlist,
    lfp: &[LocalTest],
    lpp: &[LocalTest],
    cache: Option<&AnalysisCache>,
) -> Result<DiagnosisReport, CoreError> {
    procedure(cell, lfp, lpp, cache, |_, _, _, _, _| {})
}

/// The Fig. 9 procedure behind [`diagnose_with_cache`] and
/// [`diagnose_traced`](crate::diagnose_traced). After each failing-pattern
/// intersection and each passing-pattern vindication, `on_step` sees the
/// processed test, whether it was failing, and the global lists (GSL,
/// GBSL, GDSL) as they now stand. A no-op `on_step` compiles away.
pub(crate) fn procedure<F>(
    cell: &CellNetlist,
    lfp: &[LocalTest],
    lpp: &[LocalTest],
    cache: Option<&AnalysisCache>,
    mut on_step: F,
) -> Result<DiagnosisReport, CoreError>
where
    F: FnMut(&LocalTest, bool, &SuspectList, &BridgeSuspectList, &DelaySuspectList),
{
    if lfp.is_empty() {
        return Err(CoreError::NoFailingPatterns);
    }
    let trace = |inputs: &[Lv]| -> Result<std::sync::Arc<CptOutcome>, CoreError> {
        match cache {
            Some(c) => c.cpt(cell, inputs),
            None => Ok(std::sync::Arc::new(transistor_cpt(cell, inputs)?)),
        }
    };

    // Definition 3: a local vector both failing and passing discards the
    // static models.
    let passing_vectors: BTreeSet<&[bool]> = lpp.iter().map(|t| t.inputs.as_slice()).collect();
    let dynamic_only = lfp
        .iter()
        .any(|t| passing_vectors.contains(t.inputs.as_slice()));

    // Block 1: per failing pattern, build and intersect the current lists.
    let mut lists: Option<(SuspectList, BridgeSuspectList, DelaySuspectList)> = None;
    for fp in lfp {
        let outcome = trace(&fp.inputs_lv())?;
        let csl = outcome.suspects.clone();
        let cbsl = bridge_list_from(cell, &outcome.suspects, &outcome.values);
        let cdsl = delay_suspects_from(cell, &fp.previous_lv(), &outcome)?;
        let (gsl, gbsl, gdsl) = match lists {
            None => (csl, cbsl, cdsl),
            Some((gsl, gbsl, gdsl)) => (
                gsl.intersect(&csl),
                gbsl.intersect(&cbsl),
                gdsl.intersect(&cdsl),
            ),
        };
        on_step(fp, true, &gsl, &gbsl, &gdsl);
        lists = Some((gsl, gbsl, gdsl));
    }
    // lfp was checked non-empty, so the lists were initialized; the
    // graceful fallback keeps the diagnosis path panic-free regardless.
    let Some((mut gsl, mut gbsl, gdsl)) = lists else {
        return Err(CoreError::NoFailingPatterns);
    };

    if dynamic_only {
        gsl = SuspectList::new();
        gbsl = BridgeSuspectList::new();
    } else {
        // Block 2: vindication by the passing patterns (GSL and GBSL only;
        // passing patterns cannot exonerate delay faults).
        for pp in lpp {
            let outcome = trace(&pp.inputs_lv())?;
            let bvl = bridge_list_from(cell, &outcome.suspects, &outcome.values);
            gsl = gsl.subtract(&outcome.suspects);
            gbsl = gbsl.subtract(&bvl);
            on_step(pp, false, &gsl, &gbsl, &gdsl);
        }
    }

    Ok(finish_report(cell, gsl, gbsl, gdsl, dynamic_only))
}

/// Allocates fault models and assembles the report.
fn finish_report(
    cell: &CellNetlist,
    gsl: SuspectList,
    gbsl: BridgeSuspectList,
    gdsl: DelaySuspectList,
    dynamic_only: bool,
) -> DiagnosisReport {
    let candidates = allocate(cell, &gsl, &gbsl, &gdsl);
    DiagnosisReport {
        gsl,
        gbsl,
        gdsl,
        dynamic_only,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_cells::CellLibrary;
    use icd_defects::{characterize, Defect};
    use icd_faultsim::FaultyBehavior;
    use icd_switch::Terminal;

    /// Derives exhaustive local failing/passing patterns for a static
    /// faulty behaviour at cell level (every input combo is "observable"
    /// because the cell output is observed directly).
    fn local_patterns_static(
        cell: &CellNetlist,
        behavior: &FaultyBehavior,
    ) -> (Vec<LocalTest>, Vec<LocalTest>) {
        let good = cell.truth_table().unwrap();
        let n = cell.num_inputs();
        let mut lfp = Vec::new();
        let mut lpp = Vec::new();
        for combo in 0..(1usize << n) {
            let bits: Vec<bool> = (0..n).map(|k| (combo >> k) & 1 == 1).collect();
            let good_out = good.eval_bits(&bits);
            let faulty_out = behavior.eval(&bits, &bits, good_out);
            if faulty_out.conflicts_with(good_out) {
                lfp.push(LocalTest::static_vector(bits));
            } else {
                lpp.push(LocalTest::static_vector(bits));
            }
        }
        (lfp, lpp)
    }

    #[test]
    fn stuck_short_is_located_with_correct_polarity() {
        // Silicon-case-H2 style: the input-A net hard-shorted to GND on
        // AO7SVTX1 behaves as A stuck-at-0.
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        assert!(!lfp.is_empty());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        // The defective net must be in the suspects, allocated as SA0
        // (its fault-free traced value was 1 in every failure).
        assert!(
            report
                .candidates
                .iter()
                .any(|c| c.location == SuspectLocation::Net(a) && c.model == FaultModel::StuckAt0),
            "A Sa0 not found in: {}",
            report.summary(cell)
        );
        // The paper's Table-2 equivalence: the pull-up node N16 (which
        // tracks !A) is reported as the equivalent N16 Sa1.
        let n16 = cell.find_net("N16").unwrap();
        assert!(
            report
                .candidates
                .iter()
                .any(|c| c.location == SuspectLocation::Net(n16)
                    && c.model == FaultModel::StuckAt1),
            "equivalent N16 Sa1 not found in: {}",
            report.summary(cell)
        );
    }

    #[test]
    fn bridge_defect_keeps_victim_aggressor_couple() {
        // Table-3 style: Z bridged to A (A dominates).
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let z = cell.output();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(z, a)).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        assert!(
            report.gbsl.contains(z, a),
            "Z-A couple missing: {}",
            report.summary(cell)
        );
    }

    #[test]
    fn delay_defect_yields_dynamic_only_verdict() {
        // Table-4 style: resistive open at a transistor, exercised with a
        // transition that fails and the same vector passing when stable.
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7NHVTX1").unwrap().netlist();
        let n2 = cell.find_transistor("N2").unwrap();
        let ch = characterize(cell, &Defect::resistive_open(n2, Terminal::Drain)).unwrap();
        let FaultyBehavior::Delay(table) = ch.behavior.unwrap() else {
            panic!("expected delay behaviour");
        };
        let good = cell.truth_table().unwrap();
        let n = cell.num_inputs();
        let mut lfp = Vec::new();
        let mut lpp = Vec::new();
        for prev in 0..(1usize << n) {
            for cur in 0..(1usize << n) {
                let pb: Vec<bool> = (0..n).map(|k| (prev >> k) & 1 == 1).collect();
                let cb: Vec<bool> = (0..n).map(|k| (cur >> k) & 1 == 1).collect();
                let raw = table.eval(&pb, &cb);
                // A floating late output retains the previous value
                // (charge storage) — the same semantics the gate-level
                // tester model applies.
                let late = if raw == Lv::U {
                    good.eval_bits(&pb)
                } else {
                    raw
                };
                let settled = good.eval_bits(&cb);
                if late.conflicts_with(settled) {
                    lfp.push(LocalTest::two_pattern(pb, cb));
                } else {
                    lpp.push(LocalTest::two_pattern(pb, cb));
                }
            }
        }
        assert!(!lfp.is_empty(), "delay defect never observed");
        let report = diagnose(cell, &lfp, &lpp).unwrap();
        assert!(report.dynamic_only, "same vector fails and passes");
        assert!(report.gsl.is_empty() && report.gbsl.is_empty());
        assert!(!report.gdsl.is_empty());
        // The defective transistor is implicated.
        assert!(
            report.suspect_transistors().contains(&n2)
                || report
                    .suspect_nets(cell)
                    .contains(&cell.transistor(n2).drain),
            "N2 not implicated: {}",
            report.summary(cell)
        );
    }

    #[test]
    fn inconsistent_failures_empty_the_static_lists() {
        // Failing patterns whose critical values disagree on every net
        // (e.g. claiming the inverter both stuck high and low) leave no
        // static suspect.
        let cells = CellLibrary::standard();
        let cell = cells.get("INVHVTX1").unwrap().netlist();
        let lfp = vec![
            LocalTest::static_vector(vec![false]),
            LocalTest::static_vector(vec![true]),
        ];
        let report = diagnose(cell, &lfp, &[]).unwrap();
        // A and Z are traced with opposite values in the two failures.
        assert!(report.gsl.is_empty());
    }

    #[test]
    fn no_failing_patterns_is_an_error() {
        let cells = CellLibrary::standard();
        let cell = cells.get("INVHVTX1").unwrap().netlist();
        assert!(matches!(
            diagnose(cell, &[], &[]),
            Err(CoreError::NoFailingPatterns)
        ));
    }

    #[test]
    fn vindication_shrinks_the_suspect_list() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let a = cell.find_net("A").unwrap();
        let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).unwrap();
        let (lfp, lpp) = local_patterns_static(cell, &ch.behavior.unwrap());
        let without = diagnose(cell, &lfp, &[]).unwrap();
        let with = diagnose(cell, &lfp, &lpp).unwrap();
        assert!(with.gsl.len() <= without.gsl.len());
        assert!(with.resolution() <= without.resolution());
    }

    #[test]
    fn resolution_counts_distinct_locations() {
        let cells = CellLibrary::standard();
        let cell = cells.get("INVHVTX1").unwrap().netlist();
        let lfp = vec![LocalTest::static_vector(vec![true])];
        let report = diagnose(cell, &lfp, &[]).unwrap();
        assert_eq!(
            report.resolution(),
            report
                .candidates
                .iter()
                .map(|c| c.location)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
        assert!(report.resolution() >= 1);
    }
}
