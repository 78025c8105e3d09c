use icd_faultsim::{good_simulate, Datalog};
use icd_logic::Pattern;
use icd_netlist::{Circuit, GateId};

use crate::{check_pattern_count, lane_words, IntercellError, Observability};

/// The values a suspected gate sees under one circuit pattern: the current
/// cell-input vector and the previous one (needed for dynamic faulty
/// behaviours, §3.1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalPattern {
    /// Index of the circuit pattern this local pattern was extracted from.
    pub pattern_index: usize,
    /// Cell-input values under this pattern, in pin order.
    pub inputs: Vec<bool>,
    /// Cell-input values under the previous pattern (equal to `inputs` for
    /// the first pattern of the sequence).
    pub previous: Vec<bool>,
}

/// Fig.-4 taxonomy verdict for a suspected gate's local patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectClassHint {
    /// `lfp ∩ lpp = ∅` (Definition 4): both static and dynamic faulty
    /// behaviours can be the root cause.
    StaticOrDynamic,
    /// `lfp ∩ lpp ≠ ∅` (Definition 3): the same local vector both failed
    /// and passed, so only a dynamic (delay) faulty behaviour is possible;
    /// static models are discarded.
    DynamicOnly,
}

/// The DUT-simulation result for one suspected gate: its local failing and
/// local passing patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalPatterns {
    /// The suspected gate.
    pub gate: GateId,
    /// Local failing patterns (Definition 1).
    pub lfp: Vec<LocalPattern>,
    /// Local passing patterns (Definition 2) — passing circuit patterns
    /// under which a fault effect at the gate output would have been
    /// observed.
    pub lpp: Vec<LocalPattern>,
}

impl LocalPatterns {
    /// The Fig.-4 classification: if some local input vector appears both
    /// as failing and as passing, the defect must be dynamic.
    pub fn taxonomy(&self) -> DefectClassHint {
        let failing: std::collections::HashSet<&[bool]> =
            self.lfp.iter().map(|p| p.inputs.as_slice()).collect();
        if self
            .lpp
            .iter()
            .any(|p| failing.contains(p.inputs.as_slice()))
        {
            DefectClassHint::DynamicOnly
        } else {
            DefectClassHint::StaticOrDynamic
        }
    }
}

/// The DUT-simulation step (paper §3.1): derives the local failing and
/// passing patterns of one suspected gate.
///
/// * every failing pattern of the datalog contributes its local vector to
///   `lfp` (the fault inside the gate *was* excited and observed);
/// * a passing pattern contributes to `lpp` only if a fault effect at the
///   gate's output would have propagated to at least one observe point —
///   the observability check that distinguishes "fault not sensitized"
///   from "fault effect masked".
///
/// # Errors
///
/// Returns an error when the datalog references unknown patterns, claims
/// more patterns than were applied
/// ([`IntercellError::PatternCountExceeded`]), or the patterns are
/// malformed.
pub fn extract_local_patterns(
    circuit: &Circuit,
    patterns: &[Pattern],
    datalog: &Datalog,
    gate: GateId,
) -> Result<LocalPatterns, IntercellError> {
    let good = good_simulate(circuit, patterns)?;
    extract_local_patterns_with_good(circuit, patterns, datalog, gate, &good)
}

/// [`extract_local_patterns`] variant reusing a precomputed good
/// simulation.
///
/// # Errors
///
/// Same as [`extract_local_patterns`].
pub fn extract_local_patterns_with_good(
    circuit: &Circuit,
    patterns: &[Pattern],
    datalog: &Datalog,
    gate: GateId,
    good: &icd_faultsim::BitValues,
) -> Result<LocalPatterns, IntercellError> {
    check_pattern_count(datalog, patterns)?;
    let local_at = |t: usize| LocalPattern {
        pattern_index: t,
        inputs: good.gate_input_bits(circuit, gate, t),
        previous: good.gate_input_bits(circuit, gate, t.saturating_sub(1)),
    };

    // Observe points structurally reachable from the gate's output: a
    // failure elsewhere cannot have been caused by this gate. Under the
    // single-defect assumption every datalog entry fails inside the
    // suspected gate's cone anyway; with multiple simultaneous defects
    // this filter keeps the other defects' failures from polluting this
    // gate's local failing set.
    let reachable = circuit.observable_outputs(gate);

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
        if entry.failing_outputs.iter().any(|&o| reachable.contains(o)) {
            lfp.push(local_at(t));
        } else {
            locally_passing.push(t);
        }
    }

    // Observability check, 64 passing patterns per word: a lane is
    // observed when a flip of the gate output reaches an observe point,
    // which the good machine's memo answers for all 64 lanes at once.
    let mut passing: Vec<usize> = datalog.passing_pattern_indices();
    passing.extend(locally_passing);
    passing.sort_unstable();
    let mut observed = lane_words(good, passing.iter().copied());
    let mut obs = Observability::new(circuit, good);
    for (w, lanes) in observed.iter_mut().enumerate() {
        if *lanes != 0 {
            *lanes &= obs.lanes(gate, w)?;
        }
    }
    obs.observe();
    let lpp = passing
        .into_iter()
        .filter(|&t| observed[t / 64] >> (t % 64) & 1 == 1)
        .map(local_at)
        .collect();

    Ok(LocalPatterns { gate, lfp, lpp })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_faultsim::DatalogEntry;
    use icd_logic::TruthTable;
    use icd_netlist::{CircuitBuilder, GateType, Library};

    fn lib() -> Library {
        let mut lib = Library::new();
        lib.insert(GateType::new("INV", ["A"], TruthTable::from_fn(1, |b| !b[0])).unwrap())
            .unwrap();
        lib.insert(
            GateType::new("AND2", ["A", "B"], TruthTable::from_fn(2, |b| b[0] & b[1])).unwrap(),
        )
        .unwrap();
        lib
    }

    /// z = (a & b) & c — the AND2 U1 feeds another AND2, so U1's output is
    /// observable only when c = 1.
    fn circuit(lib: &Library) -> (Circuit, GateId) {
        let mut bld = CircuitBuilder::new("c", lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let c = bld.add_input("c");
        let m = bld.add_gate("AND2", &[a, b], Some("U1")).unwrap();
        let z = bld.add_gate("AND2", &[m, c], Some("U2")).unwrap();
        bld.mark_output(z, "z");
        let circ = bld.finish().unwrap();
        let g = circ.find_gate("U1").unwrap();
        (circ, g)
    }

    #[test]
    fn lfp_comes_from_datalog_and_lpp_respects_observability() {
        let lib = lib();
        let (c, u1) = circuit(&lib);
        // Patterns: abc.
        let pats: Vec<Pattern> = ["111", "110", "011", "010"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        // Say pattern 0 failed.
        let log = Datalog {
            circuit_name: "c".into(),
            num_patterns: pats.len(),
            entries: vec![DatalogEntry {
                pattern_index: 0,
                failing_outputs: vec![0],
            }],
        };
        let local = extract_local_patterns(&c, &pats, &log, u1).unwrap();
        assert_eq!(local.lfp.len(), 1);
        assert_eq!(local.lfp[0].inputs, vec![true, true]);
        // Passing patterns: 1 (110: c=0, NOT observable), 2 (011:
        // observable), 3 (010: c=0, not observable).
        assert_eq!(local.lpp.len(), 1);
        assert_eq!(local.lpp[0].pattern_index, 2);
        assert_eq!(local.lpp[0].inputs, vec![false, true]);
        assert_eq!(local.taxonomy(), DefectClassHint::StaticOrDynamic);
    }

    #[test]
    fn previous_vector_is_the_preceding_pattern() {
        let lib = lib();
        let (c, u1) = circuit(&lib);
        let pats: Vec<Pattern> = ["011", "111"].iter().map(|s| s.parse().unwrap()).collect();
        let log = Datalog {
            circuit_name: "c".into(),
            num_patterns: pats.len(),
            entries: vec![DatalogEntry {
                pattern_index: 1,
                failing_outputs: vec![0],
            }],
        };
        let local = extract_local_patterns(&c, &pats, &log, u1).unwrap();
        assert_eq!(local.lfp[0].previous, vec![false, true]);
        assert_eq!(local.lfp[0].inputs, vec![true, true]);
    }

    #[test]
    fn same_vector_failing_and_passing_is_dynamic_only() {
        let lib = lib();
        let (c, u1) = circuit(&lib);
        // Same local vector (a=1,b=1,c=1) fails once and passes once: the
        // Definition-3 situation of a delay defect.
        let pats: Vec<Pattern> = ["011", "111", "111"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let log = Datalog {
            circuit_name: "c".into(),
            num_patterns: pats.len(),
            entries: vec![DatalogEntry {
                pattern_index: 1,
                failing_outputs: vec![0],
            }],
        };
        let local = extract_local_patterns(&c, &pats, &log, u1).unwrap();
        assert_eq!(local.taxonomy(), DefectClassHint::DynamicOnly);
    }
}
