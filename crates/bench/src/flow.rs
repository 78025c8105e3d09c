//! The experiment front of the paper's Fig.-2 flow: defect injection,
//! fail-fast analysis and ground-truth scoring around the staged flow of
//! [`icd_engine::flow`].

use icd_core::DiagnosisReport;
use icd_defects::{GroundTruth, InjectedDefect};
use icd_faultsim::{run_test, FaultyGate};
use icd_netlist::GateId;

// The repository benchmark (`perfbench/`) imports these names by this
// path.
pub use icd_engine::flow::{
    analyze_datalog_report, pattern_set_for, select_suspects, to_local_tests, ExperimentContext,
    FlowError, FlowReport, FlowStage, GateAnalysis, SkippedGate,
};

/// Whether the intra-cell report implicates the injected defect's
/// location.
pub fn ground_truth_hit(
    cell: &icd_switch::CellNetlist,
    report: &DiagnosisReport,
    truth: &GroundTruth,
) -> bool {
    let nets = report.suspect_nets(cell);
    let transistors = report.suspect_transistors();
    truth.nets.iter().any(|n| nets.contains(n))
        || truth.transistors.iter().any(|t| transistors.contains(t))
}

/// Runs the complete Fig.-2 flow: tester emulation with the injected
/// defect, inter-cell diagnosis, then DUT simulation (local patterns) and
/// intra-cell diagnosis for each top suspected gate.
///
/// # Errors
///
/// Returns an error when the defect is unobservable or any stage fails
/// (a passing device or an empty suspect list are *results*, not
/// errors); per-gate failures are re-raised as in [`analyze_datalog`].
pub fn run_flow(
    ctx: &ExperimentContext,
    target_gate: GateId,
    injected: &InjectedDefect,
) -> Result<FlowReport, FlowError> {
    let behavior = injected
        .characterization
        .behavior
        .clone()
        .ok_or(FlowError::NotObservable)?;
    let faulty = FaultyGate::new(target_gate, behavior);
    let datalog = run_test(&ctx.circuit, &ctx.patterns, &faulty)?;
    analyze_datalog(ctx, &datalog)
}

/// The inter-cell + intra-cell back half of the flow, reusable for
/// datalogs that did not come from a cell-internal defect (the circuit-C
/// inter-cell case).
///
/// # Errors
///
/// Fails on the first per-gate error (fail-fast, classical behaviour):
/// the first recorded skip that is not [`FlowError::NoLocalFailures`] is
/// re-raised. Use [`analyze_datalog_report`] for the graceful variant.
pub fn analyze_datalog(
    ctx: &ExperimentContext,
    datalog: &icd_faultsim::Datalog,
) -> Result<FlowReport, FlowError> {
    fail_fast(analyze_datalog_report(ctx, datalog)?)
}

/// Re-raises the first recorded per-gate *error* of a report (a suspect
/// skipped merely for lacking local failing evidence is not an error).
fn fail_fast(mut report: FlowReport) -> Result<FlowReport, FlowError> {
    match report
        .skipped
        .iter()
        .position(|s| !matches!(s.error, FlowError::NoLocalFailures))
    {
        Some(first) => Err(report.skipped.swap_remove(first).error),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_defects::{sample_defects, MixConfig};

    #[test]
    fn circuit_a_flow_locates_an_injected_defect() {
        let ctx = ExperimentContext::circuit_a().unwrap();
        // Inject the first observable stuck-class defect on some AO7SVTX1
        // instance.
        let gate = ctx.instance_of("AO7SVTX1").unwrap();
        let cell = ctx.cells.get("AO7SVTX1").unwrap().netlist();
        let sample = sample_defects(cell, 8, &MixConfig::default(), 11).unwrap();
        let mut any_diagnosed = false;
        for injected in &sample {
            let outcome = run_flow(&ctx, gate, injected).unwrap();
            if outcome.is_escape() {
                continue;
            }
            if let Some(analysis) = outcome.analysis_of(gate) {
                if !analysis.report.is_empty() {
                    any_diagnosed = true;
                    // When the right gate is analyzed, the ground truth
                    // should usually be implicated; assert it for at least
                    // one run.
                    if ground_truth_hit(
                        cell,
                        &analysis.report,
                        &injected.characterization.ground_truth,
                    ) {
                        return;
                    }
                }
            }
        }
        assert!(any_diagnosed, "no defect produced a non-empty diagnosis");
        panic!("no run implicated its injected ground truth");
    }

    #[test]
    fn fail_fast_reraises_the_first_skip_that_is_an_error() {
        let skip = |gate: usize, stage, error| SkippedGate {
            gate: GateId::from_index(gate),
            stage,
            error,
        };
        let report = |skipped| FlowReport {
            failing_patterns: 3,
            sanitize: icd_faultsim::SanitizeLog::default(),
            analyses: Vec::new(),
            skipped,
            unexplained: Vec::new(),
        };

        let benign = report(vec![skip(
            1,
            FlowStage::LocalExtraction,
            FlowError::NoLocalFailures,
        )]);
        let kept = fail_fast(benign).expect("missing local failures are not an error");
        assert_eq!(kept.skipped.len(), 1);

        let poisoned = report(vec![
            skip(1, FlowStage::LocalExtraction, FlowError::NoLocalFailures),
            skip(2, FlowStage::CellLookup, FlowError::NoInstance("X".into())),
            skip(3, FlowStage::Worker, FlowError::Cancelled),
        ]);
        assert!(matches!(
            fail_fast(poisoned),
            Err(FlowError::NoInstance(name)) if name == "X"
        ));
    }
}
