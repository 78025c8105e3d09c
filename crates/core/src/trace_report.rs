//! Step-by-step diagnosis trace — the Fig.-9 procedure made visible.
//!
//! [`diagnose_traced`] runs the very procedure behind
//! [`diagnose`](crate::diagnose), recording how the global suspect
//! lists evolve after each failing-pattern intersection and each
//! passing-pattern vindication. The trace powers teaching output (see the
//! `cell_explorer` example) and regression tests on the procedure's
//! monotonicity.

use std::fmt;

use icd_switch::CellNetlist;

use crate::diagnose::procedure;
use crate::{CoreError, DiagnosisReport, LocalTest};

/// What one step of the procedure did to the global lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Which local pattern was processed (`inputs` as a 0/1 string).
    pub pattern: String,
    /// Whether it was a failing (intersection) or passing (vindication)
    /// step.
    pub failing: bool,
    /// GSL size after the step.
    pub gsl: usize,
    /// GBSL size after the step.
    pub gbsl: usize,
    /// GDSL size after the step.
    pub gdsl: usize,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> GSL {:>3}  GBSL {:>3}  GDSL {:>3}",
            if self.failing { "lfp" } else { "lpp" },
            self.pattern,
            self.gsl,
            self.gbsl,
            self.gdsl
        )
    }
}

/// The recorded evolution of the suspect lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiagnosisTrace {
    /// One entry per processed local pattern, in order.
    pub steps: Vec<TraceStep>,
}

impl fmt::Display for DiagnosisTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(f, "{step}")?;
        }
        Ok(())
    }
}

fn pattern_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// [`diagnose`](crate::diagnose) with a step-by-step trace of the list
/// evolution.
///
/// # Errors
///
/// Same as [`diagnose`](crate::diagnose).
pub fn diagnose_traced(
    cell: &CellNetlist,
    lfp: &[LocalTest],
    lpp: &[LocalTest],
) -> Result<(DiagnosisReport, DiagnosisTrace), CoreError> {
    let mut trace = DiagnosisTrace::default();
    let report = procedure(cell, lfp, lpp, None, |test, failing, gsl, gbsl, gdsl| {
        trace.steps.push(TraceStep {
            pattern: pattern_string(&test.inputs),
            failing,
            gsl: gsl.len(),
            gbsl: gbsl.len(),
            gdsl: gdsl.len(),
        });
    })?;
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose;
    use icd_cells::CellLibrary;

    fn lfp_lpp() -> (Vec<LocalTest>, Vec<LocalTest>) {
        let lfp = vec![
            LocalTest::static_vector(vec![true, false, false]),
            LocalTest::static_vector(vec![true, true, false]),
        ];
        let lpp = vec![
            LocalTest::static_vector(vec![false, false, false]),
            LocalTest::static_vector(vec![false, true, true]),
        ];
        (lfp, lpp)
    }

    #[test]
    fn traced_diagnosis_matches_plain_diagnosis() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let (lfp, lpp) = lfp_lpp();
        let plain = diagnose(cell, &lfp, &lpp).unwrap();
        let (traced, trace) = diagnose_traced(cell, &lfp, &lpp).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(trace.steps.len(), lfp.len() + lpp.len());
    }

    #[test]
    fn list_sizes_shrink_monotonically() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO8DHVTX1").unwrap().netlist();
        let lfp = vec![
            LocalTest::static_vector(vec![false, true, true, true]),
            LocalTest::static_vector(vec![true, true, true, true]),
        ];
        let lpp = vec![LocalTest::static_vector(vec![false, false, false, true])];
        let (_, trace) = diagnose_traced(cell, &lfp, &lpp).unwrap();
        for w in trace.steps.windows(2) {
            assert!(w[1].gsl <= w[0].gsl);
            assert!(w[1].gbsl <= w[0].gbsl);
            assert!(w[1].gdsl <= w[0].gdsl);
        }
    }

    #[test]
    fn display_is_line_per_step() {
        let cells = CellLibrary::standard();
        let cell = cells.get("INVHVTX1").unwrap().netlist();
        let (_, trace) = diagnose_traced(
            cell,
            &[LocalTest::static_vector(vec![true])],
            &[LocalTest::static_vector(vec![false])],
        )
        .unwrap();
        let text = trace.to_string();
        assert_eq!(text.lines().count(), trace.steps.len());
        assert!(text.contains("lfp 1"));
    }
}
