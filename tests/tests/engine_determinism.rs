//! The batch engine's two core guarantees, asserted end to end:
//!
//! 1. **Sequential equivalence** — a batch diagnosed by the engine yields
//!    exactly the staged flow's per-datalog reports;
//! 2. **Scheduling determinism** — the merged batch report is
//!    byte-identical (by `Debug` rendering) for worker counts 1, 2 and 8,
//!    including batches containing multi-defect devices and a poisoned
//!    suspect;
//! 3. **Packed/scalar equivalence** — diagnosis reports driven by the
//!    bit-parallel good machine are byte-identical to those driven by its
//!    serial scalar oracle.

use std::sync::Arc;

use icd_engine::flow::{analyze_datalog_report, ExperimentContext, FlowStage};
use icd_engine::{synthesize_batch, BatchConfig, BatchEngine, EngineConfig};
use icd_faultsim::{Datalog, FaultyBehavior, FaultyGate};
use icd_logic::{Lv, TruthTable};

/// Circuit A with a synthesized batch that mixes single- and two-defect
/// devices, plus one all-pass device (test escape).
fn batch_fixture() -> (ExperimentContext, Vec<Datalog>) {
    let ctx = ExperimentContext::circuit_a().expect("circuit A builds");
    let mut batch = synthesize_batch(&ctx, &BatchConfig::new(5, 0xd1a6)).expect("synthesizes");
    assert!(batch.len() >= 3, "fixture needs several failing devices");
    batch.push(Datalog {
        circuit_name: ctx.circuit.name().to_owned(),
        num_patterns: ctx.patterns.len(),
        entries: vec![],
    });
    (ctx, batch)
}

fn render(engine_workers: usize, ctx: &Arc<ExperimentContext>, batch: &[Datalog]) -> String {
    let engine = BatchEngine::new(EngineConfig::with_workers(engine_workers));
    let report = engine
        .diagnose_batch(ctx, batch, &Default::default())
        .expect("batch runs");
    assert_eq!(report.outcomes.len(), batch.len());
    assert_eq!(report.stats.workers, engine_workers);
    format!("{:#?}", report.outcomes)
}

#[test]
fn engine_matches_the_sequential_staged_flow() {
    let (ctx, batch) = batch_fixture();
    let sequential: Vec<String> = batch
        .iter()
        .map(|d| format!("{:#?}", analyze_datalog_report(&ctx, d).expect("flow runs")))
        .collect();

    let ctx = ctx.into_shared();
    let engine = BatchEngine::new(EngineConfig::with_workers(2));
    let parallel = engine
        .diagnose_batch(&ctx, &batch, &Default::default())
        .expect("batch runs");
    for (outcome, expected) in parallel.outcomes.iter().zip(&sequential) {
        let report = outcome.report.as_ref().expect("datalog diagnosed");
        assert_eq!(
            &format!("{report:#?}"),
            expected,
            "datalog {} diverges from the sequential flow",
            outcome.index
        );
    }
}

#[test]
fn merged_reports_are_identical_across_worker_counts() {
    let (ctx, batch) = batch_fixture();
    let ctx = ctx.into_shared();
    let one = render(1, &ctx, &batch);
    let two = render(2, &ctx, &batch);
    let eight = render(8, &ctx, &batch);
    assert_eq!(one, two, "2 workers diverge from 1");
    assert_eq!(one, eight, "8 workers diverge from 1");
}

#[test]
fn packed_and_scalar_good_machines_yield_identical_reports() {
    // Inter-cell diagnosis of the whole synthesized batch, once on the
    // packed (64-patterns-per-word) good machine and once on the serial
    // scalar oracle: the reports must be byte-identical. The pattern
    // count deliberately does not fill a whole word, so the tail-lane
    // handling is on the corpus path too.
    let (ctx, batch) = batch_fixture();
    assert!(
        !ctx.patterns.len().is_multiple_of(64),
        "fixture should exercise a partial tail word"
    );
    let packed = icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns).expect("packed sim");
    let scalar =
        icd_faultsim::good_simulate_scalar(&ctx.circuit, &ctx.patterns).expect("scalar sim");
    for (i, datalog) in batch.iter().enumerate() {
        let from_packed =
            icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, datalog, &packed)
                .expect("diagnoses");
        let from_scalar =
            icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, datalog, &scalar)
                .expect("diagnoses");
        assert_eq!(
            format!("{from_packed:#?}"),
            format!("{from_scalar:#?}"),
            "datalog {i}: packed and scalar reports diverge"
        );
    }
}

/// A deterministically corrupted copy of `table`: some entries flipped,
/// some degraded to `U`.
fn corrupted(table: &TruthTable, salt: usize) -> TruthTable {
    let entries: Vec<Lv> = table
        .entries()
        .iter()
        .enumerate()
        .map(|(i, &v)| match (i + salt) % 5 {
            0 => !v,
            1 => Lv::U,
            _ => v,
        })
        .collect();
    TruthTable::from_entries(table.inputs(), entries).expect("same shape as the good table")
}

#[test]
fn event_driven_datalogs_match_the_full_topology_walk_end_to_end() {
    // A mini corpus of multi-defect devices on circuit A: the default
    // event-driven tester and the retained full-topology oracle must
    // produce byte-identical datalogs, and those datalogs must drive the
    // staged flow to byte-identical diagnosis reports.
    let ctx = ExperimentContext::circuit_a().expect("circuit A builds");
    let order = ctx.circuit.topo_order();
    let corpus: &[&[usize]] = &[&[3], &[1, 17], &[5, 11, 23], &[0, 7]];
    for (device, picks) in corpus.iter().enumerate() {
        let faulty: Vec<FaultyGate> = picks
            .iter()
            .map(|&i| {
                let gate = order[(i * 13 + device) % order.len()];
                let table = corrupted(ctx.circuit.gate_type(gate).table(), i + device);
                FaultyGate::new(gate, FaultyBehavior::Static(table))
            })
            .collect();
        let event = icd_faultsim::run_test_multi(&ctx.circuit, &ctx.patterns, &faulty)
            .expect("event-driven tester runs");
        let full = icd_faultsim::run_test_multi_full(&ctx.circuit, &ctx.patterns, &faulty)
            .expect("full-walk tester runs");
        assert_eq!(event, full, "device {device}: datalogs diverge");

        let from_event = analyze_datalog_report(&ctx, &event).expect("flow runs");
        let from_full = analyze_datalog_report(&ctx, &full).expect("flow runs");
        assert_eq!(
            format!("{from_event:#?}"),
            format!("{from_full:#?}"),
            "device {device}: diagnosis reports diverge"
        );
    }
}

#[test]
fn poisoned_suspects_merge_deterministically() {
    // Remove a cell type from the library *after* batch synthesis: every
    // suspect of that type now fails at the cell-lookup stage. The
    // degradation must be identical for every worker count.
    let (mut ctx, batch) = batch_fixture();
    assert!(ctx.cells.remove("AO6CHVTX4"), "fixture cell exists");
    let ctx = ctx.into_shared();

    let one = render(1, &ctx, &batch);
    let eight = render(8, &ctx, &batch);
    assert_eq!(one, eight, "degraded merges diverge across worker counts");

    // The poison is visible as structured skips, never as a panic or a
    // lost datalog.
    let engine = BatchEngine::new(EngineConfig::with_workers(4));
    let report = engine
        .diagnose_batch(&ctx, &batch, &Default::default())
        .expect("batch runs");
    let skipped_lookup = report
        .reports()
        .flat_map(|(_, r)| r.skipped.iter())
        .filter(|s| s.stage == FlowStage::CellLookup)
        .count();
    assert!(
        skipped_lookup > 0,
        "expected at least one cell-lookup skip after removing the cell type"
    );
}
