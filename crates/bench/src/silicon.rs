//! The silicon case studies of §4.2: circuits H (Table 7, Fig. 11),
//! M (Fig. 12) and C (Figs. 13–14).
//!
//! On silicon the ground truth came from physical failure analysis (FIB
//! cross-sections); here the injected defect *is* the ground truth and the
//! "PFA" step is a programmatic check that the diagnosis implicated it.

use std::fmt::Write as _;
use std::time::Instant;

use icd_core::{diagnose as intra_diagnose, LocalTest};
use icd_defects::{
    build_defect_dictionary, build_fault_dictionary, characterize, dictionary_diagnose, Defect,
    GroundTruth, InjectedDefect, ObservedTest,
};
use icd_engine::flow::{ExperimentContext, FlowError};
use icd_faultsim::{run_test_gate_fault, FaultyBehavior, FaultyGate, GateFault};
use icd_logic::Lv;
use icd_netlist::generator;
use icd_switch::{Forcing, Terminal};

use crate::flow::{ground_truth_hit, run_flow};
use crate::RunScale;

/// One silicon-style case study result.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Sample name (H1, H2, H3, M, C1, C2).
    pub sample: String,
    /// What was physically injected (the "actual defect" of Table 7).
    pub actual_defect: String,
    /// The intra-cell diagnosis candidates.
    pub intra_result: String,
    /// Whether the candidates include the actual defect.
    pub pfa_confirms: bool,
}

fn case_from_flow(
    ctx: &ExperimentContext,
    sample: &str,
    cell_name: &str,
    injected: &InjectedDefect,
) -> Result<CaseStudy, FlowError> {
    let gate = ctx.instance_of(cell_name)?;
    let cell = ctx
        .cells
        .get(cell_name)
        .expect("cell exists in the standard library")
        .netlist();
    let outcome = run_flow(ctx, gate, injected)?;
    let analysis = outcome.analysis_of(gate).or_else(|| outcome.best());
    let (intra_result, pfa_confirms) = match analysis {
        None => ("device passed (escape)".to_owned(), false),
        Some(a) if a.report.is_empty() => ("empty list: defect outside the cell".to_owned(), false),
        Some(a) => (
            a.report
                .candidates
                .iter()
                .map(|c| c.description.clone())
                .collect::<Vec<_>>()
                .join("; "),
            a.gate == gate
                && ground_truth_hit(cell, &a.report, &injected.characterization.ground_truth),
        ),
    };
    Ok(CaseStudy {
        sample: sample.to_owned(),
        actual_defect: injected.defect.describe(cell),
        intra_result,
        pfa_confirms,
    })
}

/// Circuit H, sample H1: a metal bridge between input A and output Z of an
/// AOI cell (Fig. 11). Intra-cell diagnosis reports the A-aggressor bridge
/// couples.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn case_h1(ctx: &ExperimentContext) -> Result<CaseStudy, FlowError> {
    let cell = ctx.cells.get("AO7HVTX1").expect("exists").netlist();
    let z = cell.output();
    let a = cell.find_net("A").expect("input A exists");
    let defect = Defect::hard_short(z, a);
    let ch = characterize(cell, &defect)?;
    case_from_flow(
        ctx,
        "H1",
        "AO7HVTX1",
        &InjectedDefect {
            defect,
            characterization: ch,
        },
    )
}

/// Circuit H, sample H2: the internal pull-up node `Net61` shorted to GND
/// (metal-1 bridging with ground ⇒ stuck-at-0 behaviour).
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn case_h2(ctx: &ExperimentContext) -> Result<CaseStudy, FlowError> {
    let cell = ctx.cells.get("AO7HVTX1").expect("exists").netlist();
    let net61 = cell.find_net("Net61").expect("Net61 exists");
    let defect = Defect::hard_short(net61, cell.gnd());
    let ch = characterize(cell, &defect)?;
    case_from_flow(
        ctx,
        "H2",
        "AO7HVTX1",
        &InjectedDefect {
            defect,
            characterization: ch,
        },
    )
}

/// Circuit H, sample H3: a resistive metal-1 open at the source of `N0`
/// (slow-to-rise behaviour at input A of the suspected cell).
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn case_h3(ctx: &ExperimentContext) -> Result<CaseStudy, FlowError> {
    let cell = ctx.cells.get("AO7NHVTX1").expect("exists").netlist();
    let n0 = cell.find_transistor("N0").expect("N0 exists");
    let defect = Defect::resistive_open(n0, Terminal::Source);
    let ch = characterize(cell, &defect)?;
    case_from_flow(
        ctx,
        "H3",
        "AO7NHVTX1",
        &InjectedDefect {
            defect,
            characterization: ch,
        },
    )
}

/// Circuit M (Fig. 12): a *multiple* open defect — several deformed
/// contacts in one AO7HVTX1 instance. The single-defect diagnosis reports
/// equivalent opens whose locations include the real defect region.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn case_m(ctx: &ExperimentContext) -> Result<CaseStudy, FlowError> {
    let cell_name = "AO7HVTX1";
    let cell = ctx.cells.get(cell_name).expect("exists").netlist();
    // Several deformed contacts in one physical region: the whole
    // T2/T3 pull-up branch from Net61 to Z never conducts (paper Fig. 12:
    // 5 missing contacts on adjacent devices).
    let t2 = cell.find_transistor("T2").expect("T2");
    let t3 = cell.find_transistor("T3").expect("T3");
    let forcing = Forcing::none()
        .override_gate(t2, Lv::One) // pMOS stuck off
        .override_gate(t3, Lv::One); // pMOS stuck off
    let table = cell.truth_table_with(&forcing)?;
    // PFA-time leakage assumption: the output node, never pulled up with
    // its whole pull-up branch dead, leaks to ground — the floating
    // entries read as 0 on the tester.
    let table = icd_logic::TruthTable::from_entries(
        table.inputs(),
        table
            .entries()
            .iter()
            .map(|&v| if v == Lv::U { Lv::Zero } else { v })
            .collect(),
    )
    .expect("entry count unchanged");
    let behavior = FaultyBehavior::Static(table);
    let description = "multiple open (T2,T3 channel contacts)".to_owned();

    let gate = ctx.instance_of(cell_name)?;
    let faulty = FaultyGate::new(gate, behavior);
    let datalog = icd_faultsim::run_test(&ctx.circuit, &ctx.patterns, &faulty)?;
    let outcome = crate::flow::analyze_datalog(ctx, &datalog)?;
    let Some(analysis) = outcome.analysis_of(gate).or_else(|| outcome.best()) else {
        return Ok(CaseStudy {
            sample: "M".into(),
            actual_defect: description,
            intra_result: "device passed (escape)".into(),
            pfa_confirms: false,
        });
    };
    let truth = GroundTruth {
        nets: vec![cell.find_net("Net61").expect("Net61")],
        transistors: vec![t2, t3],
        description: description.clone(),
    };
    let hit = analysis.gate == gate && ground_truth_hit(cell, &analysis.report, &truth);
    Ok(CaseStudy {
        sample: "M".into(),
        actual_defect: description,
        intra_result: analysis
            .report
            .candidates
            .iter()
            .map(|c| c.description.clone())
            .collect::<Vec<_>>()
            .join("; "),
        pfa_confirms: hit,
    })
}

/// Circuit C, first case (Fig. 13): the actual defect is an *inter-cell*
/// bridge between two routing nets. The intra-cell diagnosis of the
/// suspected gate returns an **empty** list, redirecting PFA outside the
/// cell — which is the correct answer here, so `pfa_confirms` is true
/// exactly when the list is empty.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn case_c1(ctx: &ExperimentContext) -> Result<CaseStudy, FlowError> {
    // Pick two nets from different cones: an early gate output (victim)
    // and a far-away one (aggressor).
    let gates: Vec<_> = ctx.circuit.gates().collect();
    let victim = ctx.circuit.gate_output(gates[gates.len() / 3]);
    let aggressor = ctx.circuit.gate_output(gates[2 * gates.len() / 3]);
    let fault = GateFault::Bridging { victim, aggressor };
    let datalog = run_test_gate_fault(&ctx.circuit, &ctx.patterns, &fault)?;
    if datalog.all_pass() {
        return Ok(CaseStudy {
            sample: "C1".into(),
            actual_defect: "inter-cell bridge (never excited)".into(),
            intra_result: "device passed (escape)".into(),
            pfa_confirms: false,
        });
    }
    let outcome = crate::flow::analyze_datalog(ctx, &datalog)?;
    let Some(analysis) = outcome.best() else {
        return Ok(CaseStudy {
            sample: "C1".into(),
            actual_defect: "inter-cell bridge".into(),
            intra_result: "no inter-cell candidate".into(),
            pfa_confirms: false,
        });
    };
    let report = &analysis.report;
    Ok(CaseStudy {
        sample: "C1".into(),
        actual_defect: format!(
            "inter-cell bridge {}<-{}",
            ctx.circuit.net_name(victim),
            ctx.circuit.net_name(aggressor)
        ),
        intra_result: if report.is_empty() {
            "empty list: defect outside the cell".into()
        } else {
            report
                .candidates
                .iter()
                .map(|c| c.description.clone())
                .collect::<Vec<_>>()
                .join("; ")
        },
        pfa_confirms: report.is_empty(),
    })
}

/// Circuit C, second case (Fig. 14): comparison with the defect- and
/// fault-dictionary baselines on one cell. All approaches should implicate
/// the same short; the cost differs (`O(n²)` dictionary build vs two
/// simulations per pattern).
#[derive(Debug, Clone)]
pub struct DictionaryComparison {
    /// Candidate count from the effect-cause CPT diagnosis.
    pub cpt_candidates: usize,
    /// Candidate count from the defect dictionary.
    pub defect_dict_candidates: usize,
    /// Candidate count from the fault dictionary.
    pub fault_dict_candidates: usize,
    /// Entries simulated to build the defect dictionary.
    pub defect_dict_size: usize,
    /// Entries simulated to build the fault dictionary.
    pub fault_dict_size: usize,
    /// Wall-clock seconds: CPT diagnosis.
    pub cpt_seconds: f64,
    /// Wall-clock seconds: defect-dictionary build + look-up.
    pub defect_dict_seconds: f64,
    /// Wall-clock seconds: fault-dictionary build + look-up.
    pub fault_dict_seconds: f64,
    /// Whether all three implicate the injected location.
    pub all_hit: bool,
}

/// Runs the circuit-C dictionary comparison.
///
/// # Errors
///
/// Returns an error when a characterization fails.
pub fn case_c2() -> Result<DictionaryComparison, FlowError> {
    let cells = icd_cells::CellLibrary::standard();
    let cell = cells.get("AO6CHVTX4").expect("exists").netlist();
    // The actual defect: the first-stage output N125 shorted to the
    // stronger input-A routing (a dominant bridge between two nets, as in
    // Fig. 14).
    let n125 = cell.find_net("N125").expect("N125");
    let a_net = cell.find_net("A").expect("A");
    let defect = Defect::hard_short(n125, a_net);
    let ch = characterize(cell, &defect)?;
    let behavior = ch.behavior.clone().expect("observable short");

    // Cell-level observations: exhaustive two-pattern outcomes.
    let good = cell.truth_table()?;
    let n = cell.num_inputs();
    let mut observed = Vec::new();
    let mut lfp: Vec<LocalTest> = Vec::new();
    let mut lpp: Vec<LocalTest> = Vec::new();
    for prev in 0..(1usize << n) {
        for cur in 0..(1usize << n) {
            let pb: Vec<bool> = (0..n).map(|k| (prev >> k) & 1 == 1).collect();
            let cb: Vec<bool> = (0..n).map(|k| (cur >> k) & 1 == 1).collect();
            let prev_good = good.eval_bits(&pb);
            let raw = behavior.eval(&pb, &cb, prev_good);
            let eff = if raw == Lv::U { prev_good } else { raw };
            let failing = eff.conflicts_with(good.eval_bits(&cb));
            observed.push(ObservedTest {
                previous: pb.clone(),
                inputs: cb.clone(),
                failing,
            });
            if failing {
                lfp.push(LocalTest::two_pattern(pb.clone(), cb.clone()));
            } else {
                lpp.push(LocalTest::two_pattern(pb.clone(), cb.clone()));
            }
        }
    }

    // Effect-cause CPT diagnosis.
    let t0 = Instant::now();
    let report = intra_diagnose(cell, &lfp, &lpp)?;
    let cpt_seconds = t0.elapsed().as_secs_f64();

    // Defect dictionary.
    let t0 = Instant::now();
    let ddict = build_defect_dictionary(cell)?;
    let dd_hits = dictionary_diagnose(cell, &ddict, &observed);
    let defect_dict_seconds = t0.elapsed().as_secs_f64();

    // Fault dictionary.
    let t0 = Instant::now();
    let fdict = build_fault_dictionary(cell)?;
    let fd_hits = dictionary_diagnose(cell, &fdict, &observed);
    let fault_dict_seconds = t0.elapsed().as_secs_f64();

    let cpt_hit =
        report.suspect_nets(cell).contains(&n125) || report.suspect_nets(cell).contains(&a_net);
    let dd_hit = dd_hits.iter().any(|e| {
        e.characterization.ground_truth.nets.contains(&n125)
            || e.characterization.ground_truth.nets.contains(&a_net)
    });
    let fd_hit = fd_hits.iter().any(|e| {
        e.characterization.ground_truth.nets.contains(&n125)
            || e.characterization.ground_truth.nets.contains(&a_net)
    });

    Ok(DictionaryComparison {
        cpt_candidates: report.resolution(),
        defect_dict_candidates: dd_hits.len(),
        fault_dict_candidates: fd_hits.len(),
        defect_dict_size: ddict.len(),
        fault_dict_size: fdict.len(),
        cpt_seconds,
        defect_dict_seconds,
        fault_dict_seconds,
        all_hit: cpt_hit && dd_hit && fd_hit,
    })
}

/// Runs the whole Table-7 set on circuit H and formats it like the paper.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn table7(scale: RunScale) -> Result<(String, Vec<CaseStudy>), FlowError> {
    let ctx = ExperimentContext::from_preset(
        &generator::circuit_h(),
        scale.circuit_divisor,
        scale.patterns,
    )?;
    let cases = vec![case_h1(&ctx)?, case_h2(&ctx)?, case_h3(&ctx)?];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 7 - Logic diag vs intra-cell diag vs actual defect (circuit H/{}; {} patterns)",
        scale.circuit_divisor, scale.patterns
    );
    let _ = writeln!(
        out,
        "{:<7} | {:<34} | {:<60} | PFA confirms",
        "Sample", "Actual defect", "Intra-cell diagnosis"
    );
    for c in &cases {
        let _ = writeln!(
            out,
            "{:<7} | {:<34} | {:<60} | {}",
            c.sample,
            c.actual_defect,
            c.intra_result,
            if c.pfa_confirms { "yes" } else { "NO" }
        );
    }
    Ok((out, cases))
}

/// Formats the circuit-M case study.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn circuit_m_report(scale: RunScale) -> Result<(String, CaseStudy), FlowError> {
    let ctx = ExperimentContext::from_preset(
        &generator::circuit_m(),
        scale.circuit_divisor,
        scale.patterns,
    )?;
    let case = case_m(&ctx)?;
    let mut out = String::new();
    let _ = writeln!(out, "Circuit M (Fig. 12) - multiple open defect");
    let _ = writeln!(out, "actual defect : {}", case.actual_defect);
    let _ = writeln!(out, "intra-cell    : {}", case.intra_result);
    let _ = writeln!(
        out,
        "PFA check     : {} (single-defect diagnosis must still point into the defect region)",
        if case.pfa_confirms {
            "confirmed"
        } else {
            "NOT confirmed"
        }
    );
    Ok((out, case))
}

/// Formats the two circuit-C case studies.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn circuit_c_report(scale: RunScale) -> Result<String, FlowError> {
    let ctx = ExperimentContext::from_preset(
        &generator::circuit_c(),
        scale.circuit_divisor,
        scale.patterns,
    )?;
    let c1 = case_c1(&ctx)?;
    let cmp = case_c2()?;
    let mut out = String::new();
    let _ = writeln!(out, "Circuit C case 1 (Fig. 13) - inter-cell defect");
    let _ = writeln!(out, "actual defect : {}", c1.actual_defect);
    let _ = writeln!(out, "intra-cell    : {}", c1.intra_result);
    let _ = writeln!(
        out,
        "verdict       : {}",
        if c1.pfa_confirms {
            "empty suspect list redirects PFA outside the cell (correct)"
        } else {
            "unexpected non-empty list"
        }
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "Circuit C case 2 (Fig. 14) - dictionary comparison");
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>14} {:>12}",
        "approach", "candidates", "sims/entries", "seconds"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>14} {:>12.4}",
        "effect-cause CPT", cmp.cpt_candidates, "2/pattern", cmp.cpt_seconds
    );
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>14} {:>12.4}",
        "defect dictionary",
        cmp.defect_dict_candidates,
        cmp.defect_dict_size,
        cmp.defect_dict_seconds
    );
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>14} {:>12.4}",
        "fault dictionary", cmp.fault_dict_candidates, cmp.fault_dict_size, cmp.fault_dict_seconds
    );
    let _ = writeln!(
        out,
        "all approaches implicate the actual short: {}",
        if cmp.all_hit { "yes" } else { "NO" }
    );
    Ok(out)
}
