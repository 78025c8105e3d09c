//! End-to-end flow tests on circuit A: inject → test → inter-cell →
//! intra-cell, one per defect behaviour class.

use icd_bench::flow::{ground_truth_hit, run_flow};
use icd_defects::{sample_defects, BehaviorClass, MixConfig};
use icd_engine::flow::ExperimentContext;

fn class_mix(class: BehaviorClass) -> MixConfig {
    MixConfig {
        stuck: f64::from(class == BehaviorClass::StuckLike),
        bridge: f64::from(class == BehaviorClass::BridgeLike),
        delay: f64::from(class == BehaviorClass::DelayLike),
        ..MixConfig::default()
    }
}

/// Injects defects of one class into one cell type until a run produces a
/// non-empty diagnosis; asserts the ground truth is implicated at least
/// once across the sampled defects.
fn assert_class_diagnosable(class: BehaviorClass, cell_name: &str) {
    let ctx = ExperimentContext::circuit_a().expect("circuit A builds");
    let gate = ctx.instance_of(cell_name).expect("instance exists");
    let cell = ctx.cells.get(cell_name).expect("library cell");
    let sample = sample_defects(cell.netlist(), 10, &class_mix(class), 99).expect("samples");
    let mut observed = 0;
    for injected in &sample {
        let outcome = run_flow(&ctx, gate, injected).expect("flow runs");
        if outcome.is_escape() {
            continue;
        }
        observed += 1;
        if let Some(analysis) = outcome.analysis_of(gate) {
            if ground_truth_hit(
                cell.netlist(),
                &analysis.report,
                &injected.characterization.ground_truth,
            ) {
                return; // diagnosed correctly
            }
        }
    }
    panic!(
        "no {class:?} defect on {cell_name} was diagnosed ({observed} observed of {})",
        sample.len()
    );
}

#[test]
fn stuck_class_defects_are_diagnosed_end_to_end() {
    assert_class_diagnosable(BehaviorClass::StuckLike, "AO7SVTX1");
}

#[test]
fn bridge_class_defects_are_diagnosed_end_to_end() {
    assert_class_diagnosable(BehaviorClass::BridgeLike, "AO6CHVTX4");
}

#[test]
fn delay_class_defects_are_diagnosed_end_to_end() {
    assert_class_diagnosable(BehaviorClass::DelayLike, "AO8DHVTX1");
}

#[test]
fn flow_is_deterministic() {
    let ctx = ExperimentContext::circuit_a().expect("circuit A builds");
    let gate = ctx.instance_of("AO7NHVTX1").expect("instance exists");
    let cell = ctx.cells.get("AO7NHVTX1").expect("library cell");
    let sample = sample_defects(cell.netlist(), 3, &MixConfig::default(), 5).expect("samples");
    for injected in &sample {
        let a = run_flow(&ctx, gate, injected).expect("flow runs");
        let b = run_flow(&ctx, gate, injected).expect("flow runs");
        assert_eq!(a.failing_patterns, b.failing_patterns);
        assert_eq!(a.analyses.len(), b.analyses.len());
        for (x, y) in a.analyses.iter().zip(b.analyses.iter()) {
            assert_eq!(x.gate, y.gate);
            assert_eq!(x.report, y.report);
        }
    }
}

#[test]
fn local_failing_patterns_match_datalog_size() {
    use icd_faultsim::{run_test, FaultyGate};
    use icd_intercell::extract_local_patterns;

    let ctx = ExperimentContext::circuit_a().expect("circuit A builds");
    let gate = ctx.instance_of("AO7SVTX1").expect("instance exists");
    let cell = ctx.cells.get("AO7SVTX1").expect("library cell");
    let sample = sample_defects(cell.netlist(), 6, &MixConfig::default(), 3).expect("samples");
    for injected in &sample {
        let Some(behavior) = injected.characterization.behavior.clone() else {
            continue;
        };
        let datalog = run_test(
            &ctx.circuit,
            &ctx.patterns,
            &FaultyGate::new(gate, behavior),
        )
        .expect("tester runs");
        let local = extract_local_patterns(&ctx.circuit, &ctx.patterns, &datalog, gate)
            .expect("extraction works");
        // Every failing pattern contributes exactly one local failing
        // pattern; local passing patterns never exceed the passing count.
        assert_eq!(local.lfp.len(), datalog.entries.len());
        assert!(local.lpp.len() <= datalog.passing_pattern_indices().len());
    }
}
