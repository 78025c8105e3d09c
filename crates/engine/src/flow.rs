//! The per-datalog diagnosis flow (the paper's Fig. 2): inter-cell
//! diagnosis, then local pattern extraction, intra-cell CPT and ranking
//! for each suspected gate.
//!
//! [`analyze_datalog_report`] runs it sequentially on the calling thread;
//! the batch engine and the diagnosis service run the same stages as
//! pool jobs ([`select_suspects`] is the job list, [`analyze_suspect`]
//! the per-suspect unit of work) and merge to the identical
//! [`FlowReport`].

use std::error::Error;
use std::fmt;

use icd_cells::CellLibrary;
use icd_core::{DiagnosisReport, LocalTest};
use icd_faultsim::FaultSimError;
use icd_intercell::{IntercellError, LocalPattern};
use icd_logic::Pattern;
use icd_netlist::{generator, Circuit, GateId, Library};

/// Errors of the diagnosis flow.
#[derive(Debug)]
pub enum FlowError {
    /// The injected defect has no observable behaviour model.
    NotObservable,
    /// The circuit contains no instance of the requested cell.
    NoInstance(String),
    /// A suspected gate has no local failing pattern — nothing for the
    /// intra-cell engine to work on. A per-gate degradation, never fatal.
    NoLocalFailures,
    /// Tester emulation failed.
    FaultSim(FaultSimError),
    /// Inter-cell diagnosis failed.
    Intercell(IntercellError),
    /// Intra-cell diagnosis failed.
    Core(icd_core::CoreError),
    /// Netlist construction failed.
    Netlist(icd_netlist::NetlistError),
    /// Defect sampling or characterization failed.
    Defect(icd_defects::DefectError),
    /// A batch-engine worker caught a panic while running this unit of
    /// work; the payload is the panic message. The job is poisoned, the
    /// worker and the rest of the batch are not.
    Panicked(String),
    /// The unit of work was cancelled cooperatively before it ran to
    /// completion — its request deadline expired or its submitter gave
    /// up (client disconnect, server drain). Cancellation is checked at
    /// job boundaries only: a job that already started runs to its end,
    /// and a cancelled job never poisons the worker pool.
    Cancelled,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NotObservable => write!(f, "defect has no observable behaviour"),
            FlowError::NoInstance(cell) => {
                write!(f, "circuit contains no instance of cell {cell:?}")
            }
            FlowError::NoLocalFailures => {
                write!(f, "suspected gate has no local failing pattern")
            }
            FlowError::FaultSim(e) => write!(f, "tester emulation failed: {e}"),
            FlowError::Intercell(e) => write!(f, "inter-cell diagnosis failed: {e}"),
            FlowError::Core(e) => write!(f, "intra-cell diagnosis failed: {e}"),
            FlowError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
            FlowError::Defect(e) => write!(f, "defect injection failed: {e}"),
            FlowError::Panicked(msg) => write!(f, "worker caught a panic: {msg}"),
            FlowError::Cancelled => write!(f, "job cancelled before completion"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::NotObservable
            | FlowError::NoInstance(_)
            | FlowError::NoLocalFailures
            | FlowError::Panicked(_)
            | FlowError::Cancelled => None,
            FlowError::FaultSim(e) => Some(e),
            FlowError::Intercell(e) => Some(e),
            FlowError::Core(e) => Some(e),
            FlowError::Netlist(e) => Some(e),
            FlowError::Defect(e) => Some(e),
        }
    }
}

impl From<FaultSimError> for FlowError {
    fn from(e: FaultSimError) -> Self {
        FlowError::FaultSim(e)
    }
}
impl From<IntercellError> for FlowError {
    fn from(e: IntercellError) -> Self {
        FlowError::Intercell(e)
    }
}
impl From<icd_core::CoreError> for FlowError {
    fn from(e: icd_core::CoreError) -> Self {
        FlowError::Core(e)
    }
}
impl From<icd_netlist::NetlistError> for FlowError {
    fn from(e: icd_netlist::NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}
impl From<icd_defects::DefectError> for FlowError {
    fn from(e: icd_defects::DefectError) -> Self {
        FlowError::Defect(e)
    }
}
impl From<icd_switch::SwitchError> for FlowError {
    fn from(e: icd_switch::SwitchError) -> Self {
        FlowError::Defect(icd_defects::DefectError::Switch(e))
    }
}

/// A circuit plus everything the diagnosis flow needs around it.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The transistor-level cell library.
    pub cells: CellLibrary,
    /// Its gate-level view.
    pub logic: Library,
    /// The device under test.
    pub circuit: Circuit,
    /// The applied test set (ordered).
    pub patterns: Vec<Pattern>,
}

impl ExperimentContext {
    /// Builds a context from a generator preset, scaled by `divisor`, with
    /// `num_patterns` test patterns.
    ///
    /// # Errors
    ///
    /// Returns an error when circuit generation fails.
    pub fn from_preset(
        config: &generator::GeneratorConfig,
        divisor: usize,
        num_patterns: usize,
    ) -> Result<Self, FlowError> {
        let cells = CellLibrary::standard();
        let logic = cells.logic_library();
        let cfg = if divisor > 1 {
            config.scaled_down(divisor)
        } else {
            config.clone()
        };
        let circuit = generator::generate(&cfg, &logic)?;
        let patterns = pattern_set_for(&circuit, num_patterns, cfg.seed ^ 0x7e57);
        Ok(ExperimentContext {
            cells,
            logic,
            circuit,
            patterns,
        })
    }

    /// The paper's circuit A at full size with its 25-pattern transition
    /// test set.
    ///
    /// # Errors
    ///
    /// Returns an error when circuit generation fails.
    pub fn circuit_a() -> Result<Self, FlowError> {
        ExperimentContext::from_preset(&generator::circuit_a(), 1, 25)
    }

    /// Moves the context behind an [`Arc`](std::sync::Arc): the batch
    /// engine's shared immutable artifact (circuit, cell library, pattern
    /// set) borrowed by every worker.
    pub fn into_shared(self) -> std::sync::Arc<Self> {
        std::sync::Arc::new(self)
    }

    /// All instances of a cell type in the circuit.
    pub fn instances_of(&self, cell_name: &str) -> Vec<GateId> {
        self.circuit
            .gates()
            .filter(|&g| self.circuit.gate_type(g).name() == cell_name)
            .collect()
    }

    /// The first instance of a cell type.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NoInstance`] when the circuit lacks the type.
    pub fn instance_of(&self, cell_name: &str) -> Result<GateId, FlowError> {
        self.instances_of(cell_name)
            .first()
            .copied()
            .ok_or_else(|| FlowError::NoInstance(cell_name.to_owned()))
    }
}

/// Generates an ordered test set sized for experiments: deterministic
/// ATPG (with PODEM top-off) on small circuits, seeded random patterns on
/// large ones — mirroring production practice.
pub fn pattern_set_for(circuit: &Circuit, count: usize, seed: u64) -> Vec<Pattern> {
    if circuit.num_gates() <= 2_000 {
        let cfg = icd_atpg::TestSetConfig {
            target_length: count,
            kind: icd_atpg::FaultKind::Transition,
            random_patterns: count,
            podem_topoff: true,
            max_faults: Some(600),
            seed,
        };
        icd_atpg::generate_test_set(circuit, &cfg)
    } else {
        icd_atpg::random_patterns(circuit, count, seed)
    }
}

/// Converts the DUT-simulation output into the intra-cell engine's input
/// type.
pub fn to_local_tests(local: &[LocalPattern]) -> Vec<LocalTest> {
    local
        .iter()
        .map(|p| LocalTest::two_pattern(p.previous.clone(), p.inputs.clone()))
        .collect()
}

/// The intra-cell analysis of one suspected gate.
#[derive(Debug, Clone)]
pub struct GateAnalysis {
    /// The analyzed gate instance.
    pub gate: GateId,
    /// Local failing pattern count.
    pub lfp: usize,
    /// Local passing pattern count.
    pub lpp: usize,
    /// The intra-cell diagnosis report.
    pub report: DiagnosisReport,
    /// The simulation-ranked refinement of the report.
    pub ranked: icd_core::RankedDiagnosis,
}

/// How many top inter-cell candidates receive an intra-cell analysis.
const MAX_ANALYZED_GATES: usize = 4;

/// The stage of the flow in which a per-gate failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// DUT simulation / local pattern extraction for a suspected gate.
    LocalExtraction,
    /// Looking the suspected gate's cell up in the transistor-level
    /// library.
    CellLookup,
    /// Intra-cell (switch-level) diagnosis.
    IntraCell,
    /// Simulation-based candidate ranking.
    Ranking,
    /// The whole per-suspect job, when a batch-engine worker had to
    /// contain a panic and could not attribute it to a finer stage.
    Worker,
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlowStage::LocalExtraction => "local pattern extraction",
            FlowStage::CellLookup => "cell lookup",
            FlowStage::IntraCell => "intra-cell diagnosis",
            FlowStage::Ranking => "candidate ranking",
            FlowStage::Worker => "worker execution",
        })
    }
}

/// One suspected gate the staged flow could not analyze, with the stage
/// and structured cause — the audit trail of a degraded diagnosis.
#[derive(Debug)]
pub struct SkippedGate {
    /// The suspected gate.
    pub gate: GateId,
    /// Where its analysis failed.
    pub stage: FlowStage,
    /// Why.
    pub error: FlowError,
}

/// The staged flow's result: every suspect that could be diagnosed plus a
/// structured record of every suspect that could not. One poisoned
/// suspect does not abort the whole diagnosis — its failure is recorded
/// in [`FlowReport::skipped`] and the flow continues.
///
/// As in the paper's flow, "the intra-cell diagnosis is executed for each
/// Suspected Gate": the inter-cell front end returns a candidate list and
/// every top candidate is analyzed.
#[derive(Debug)]
pub struct FlowReport {
    /// Failing patterns in the (sanitized) datalog.
    pub failing_patterns: usize,
    /// What datalog sanitation had to repair before diagnosis.
    pub sanitize: icd_faultsim::SanitizeLog,
    /// Intra-cell analyses, in inter-cell rank order.
    pub analyses: Vec<GateAnalysis>,
    /// Suspected gates whose analysis failed, with stage and cause.
    pub skipped: Vec<SkippedGate>,
    /// Failing patterns the inter-cell cover left unexplained.
    pub unexplained: Vec<usize>,
}

impl FlowReport {
    /// Whether the device passed every pattern (test escape).
    pub fn is_escape(&self) -> bool {
        self.failing_patterns == 0
    }

    /// The top-ranked suspected gate's analysis.
    pub fn best(&self) -> Option<&GateAnalysis> {
        self.analyses.first()
    }

    /// The analysis of a specific gate (e.g. the true defective
    /// instance), if it was among the suspects.
    pub fn analysis_of(&self, gate: GateId) -> Option<&GateAnalysis> {
        self.analyses.iter().find(|a| a.gate == gate)
    }

    /// Whether anything was lost on the way: corrupt datalog entries
    /// repaired, suspects skipped on errors, or failing patterns no
    /// candidate explains. A clean run on a clean datalog is not
    /// degraded.
    pub fn is_degraded(&self) -> bool {
        !self.sanitize.is_clean() || !self.skipped.is_empty() || !self.unexplained.is_empty()
    }
}

/// The graceful, staged flow for one datalog, run sequentially.
///
/// The datalog is sanitized first ([`icd_faultsim::Datalog::sanitize`]),
/// so corrupt-but-parseable tester output (duplicated, reordered,
/// out-of-range entries) is repaired and the repairs recorded. Each
/// suspected gate is then analyzed independently: a failure in its local
/// pattern extraction, cell lookup, intra-cell diagnosis or ranking is
/// recorded in [`FlowReport::skipped`] and the remaining suspects still
/// get their diagnosis.
///
/// This is the reference the batch engine's parallel merge must
/// reproduce byte for byte.
///
/// # Errors
///
/// Returns an error only when a whole-circuit stage fails: good-machine
/// simulation or inter-cell diagnosis.
pub fn analyze_datalog_report(
    ctx: &ExperimentContext,
    datalog: &icd_faultsim::Datalog,
) -> Result<FlowReport, FlowError> {
    let (datalog, sanitize) = {
        let _s = icd_obs::stage("flow.sanitize");
        datalog.sanitize(ctx.circuit.outputs().len())
    };
    let escaped = {
        let _s = icd_obs::stage("flow.escape_check");
        datalog.all_pass()
    };
    if escaped {
        return Ok(FlowReport {
            failing_patterns: 0,
            sanitize,
            analyses: Vec::new(),
            skipped: Vec::new(),
            unexplained: Vec::new(),
        });
    }
    // One shared good simulation for every stage.
    let good = {
        let _s = icd_obs::stage("flow.good_simulate");
        icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)?
    };
    let inter = {
        let _s = icd_obs::stage("flow.intercell");
        icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, &datalog, &good)?
    };
    let gates = select_suspects(&inter);
    let mut analyses = Vec::with_capacity(gates.len());
    let mut skipped = Vec::new();
    for gate in gates {
        match analyze_suspect(ctx, &datalog, &inter, &good, gate, None) {
            Ok(analysis) => analyses.push(analysis),
            Err((stage, error)) => skipped.push(SkippedGate { gate, stage, error }),
        }
    }
    Ok(FlowReport {
        failing_patterns: datalog.entries.len(),
        sanitize,
        analyses,
        skipped,
        unexplained: inter.unexplained,
    })
}

/// The suspected gates the flow analyzes, in deterministic priority
/// order: the multiplet first, then remaining top-ranked candidates up to
/// the analysis budget. This is the flow's job list — the batch engine
/// fans one worker job out per returned gate.
pub fn select_suspects(inter: &icd_intercell::IntercellDiagnosis) -> Vec<GateId> {
    let _s = icd_obs::stage("flow.select_suspects");
    let mut gates: Vec<GateId> = inter.multiplet.clone();
    for c in &inter.candidates {
        if gates.len() >= MAX_ANALYZED_GATES {
            break;
        }
        if !gates.contains(&c.gate) {
            gates.push(c.gate);
        }
    }
    gates
}

/// The per-suspect pipeline: local pattern extraction, cell lookup,
/// intra-cell diagnosis, ranking. Errors carry the failing stage so the
/// staged runner can record exactly where a suspect was lost.
///
/// This is the unit of work of the batch engine: it only *reads* the
/// context, datalog, inter-cell result and good simulation, so jobs for
/// different suspects can run on different threads against the same
/// `Arc`-shared artifacts. `cache`, when provided, shares per-cell-type
/// truth tables and CPT traces across suspects; results are identical
/// with and without it.
///
/// # Errors
///
/// Returns the failing [`FlowStage`] with its cause, exactly as recorded
/// in [`FlowReport::skipped`] by the staged runner.
pub fn analyze_suspect(
    ctx: &ExperimentContext,
    datalog: &icd_faultsim::Datalog,
    inter: &icd_intercell::IntercellDiagnosis,
    good: &icd_faultsim::BitValues,
    gate: GateId,
    cache: Option<&icd_core::AnalysisCache>,
) -> Result<GateAnalysis, (FlowStage, FlowError)> {
    let _suspect = icd_obs::stage("flow.analyze_suspect");
    let local = {
        let _s = icd_obs::stage("flow.local_extraction");
        // Per-gate datalog view: only the failing patterns this gate
        // *explains* (it lies on their critical paths) are local failing
        // evidence; the other defects' failures become locally passing
        // candidates, subject to the observability check. With a single
        // defect this is the identity filter.
        let explained: std::collections::HashSet<usize> = inter
            .candidates
            .iter()
            .find(|c| c.gate == gate)
            .map(|c| c.explained.iter().copied().collect())
            .unwrap_or_default();
        let gate_view = icd_faultsim::Datalog {
            circuit_name: datalog.circuit_name.clone(),
            num_patterns: datalog.num_patterns,
            entries: datalog
                .entries
                .iter()
                .filter(|e| explained.contains(&e.pattern_index))
                .cloned()
                .collect(),
        };
        icd_intercell::extract_local_patterns_with_good(
            &ctx.circuit,
            &ctx.patterns,
            &gate_view,
            gate,
            good,
        )
    }
    .map_err(|e| (FlowStage::LocalExtraction, FlowError::Intercell(e)))?;
    let lfp = to_local_tests(&local.lfp);
    let lpp = to_local_tests(&local.lpp);
    if lfp.is_empty() {
        // This candidate never saw a failing pattern.
        return Err((FlowStage::LocalExtraction, FlowError::NoLocalFailures));
    }
    let cell = ctx
        .cells
        .get(ctx.circuit.gate_type(gate).name())
        .ok_or_else(|| {
            (
                FlowStage::CellLookup,
                FlowError::NoInstance(ctx.circuit.gate_type(gate).name().into()),
            )
        })?
        .netlist();
    let report = {
        let _s = icd_obs::stage("flow.intra_cell");
        icd_core::diagnose_with_cache(cell, &lfp, &lpp, cache)
    }
    .map_err(|e| (FlowStage::IntraCell, FlowError::Core(e)))?;
    let ranked = {
        let _s = icd_obs::stage("flow.ranking");
        icd_core::rank_candidates_with_cache(cell, &report, &lfp, &lpp, cache)
    }
    .map_err(|e| (FlowStage::Ranking, FlowError::Core(e)))?;
    Ok(GateAnalysis {
        gate,
        lfp: lfp.len(),
        lpp: lpp.len(),
        report,
        ranked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_defects::{sample_defects, MixConfig};
    use icd_faultsim::{run_test, FaultyGate};

    #[test]
    fn pattern_set_sizes_are_exact() {
        let ctx = ExperimentContext::circuit_a().unwrap();
        assert_eq!(ctx.patterns.len(), 25);
        assert_eq!(ctx.circuit.num_gates(), 258);
    }

    /// Picks, for `cell_name`, the (instance, defect) pair of a small
    /// stuck-class sample that excites the most failing patterns.
    fn excited_target(
        ctx: &ExperimentContext,
        cell_name: &str,
        seed: u64,
    ) -> (GateId, icd_defects::InjectedDefect) {
        let cell = ctx.cells.get(cell_name).unwrap();
        let mix = MixConfig {
            stuck: 1.0,
            bridge: 0.0,
            delay: 0.0,
            ..MixConfig::default()
        };
        let sample = sample_defects(cell.netlist(), 8, &mix, seed).unwrap();
        ctx.instances_of(cell_name)
            .into_iter()
            .flat_map(|gate| sample.iter().map(move |inj| (gate, inj)))
            .filter_map(|(gate, inj)| {
                let behavior = inj.characterization.behavior.clone()?;
                let log = run_test(
                    &ctx.circuit,
                    &ctx.patterns,
                    &FaultyGate::new(gate, behavior),
                )
                .ok()?;
                (!log.all_pass()).then(|| (log.entries.len(), gate, inj.clone()))
            })
            .max_by_key(|&(fails, gate, _)| (fails, std::cmp::Reverse(gate)))
            .map(|(_, gate, inj)| (gate, inj))
            .expect("some sampled defect is excited")
    }

    #[test]
    fn poisoned_suspect_degrades_but_does_not_abort() {
        // Two simultaneous defects in different cell types; then the
        // library loses one of the cell types. The staged flow must still
        // diagnose the other suspect and record the skip with its stage.
        let mut ctx = ExperimentContext::circuit_a().unwrap();
        let (g1, d1) = excited_target(&ctx, "AO7SVTX1", 0x9050);
        let (g2, d2) = excited_target(&ctx, "AO6CHVTX4", 0x9051);
        let faulty = vec![
            FaultyGate::new(g1, d1.characterization.behavior.clone().unwrap()),
            FaultyGate::new(g2, d2.characterization.behavior.clone().unwrap()),
        ];
        let datalog = icd_faultsim::run_test_multi(&ctx.circuit, &ctx.patterns, &faulty).unwrap();

        // Sanity: the un-poisoned staged flow analyzes both.
        let healthy = analyze_datalog_report(&ctx, &datalog).unwrap();
        assert!(healthy.analysis_of(g1).is_some());
        assert!(healthy.analysis_of(g2).is_some());

        assert!(ctx.cells.remove("AO6CHVTX4"));
        let report = analyze_datalog_report(&ctx, &datalog).unwrap();
        assert!(
            report.analysis_of(g1).is_some(),
            "healthy suspect lost: {:?}",
            report.skipped
        );
        assert!(report.analysis_of(g2).is_none());
        let skip = report
            .skipped
            .iter()
            .find(|s| s.gate == g2)
            .expect("poisoned suspect recorded");
        assert_eq!(skip.stage, FlowStage::CellLookup);
        assert!(matches!(&skip.error, FlowError::NoInstance(name) if name == "AO6CHVTX4"));
        assert!(report.is_degraded());
    }

    #[test]
    fn noisy_datalog_is_sanitized_before_diagnosis() {
        let ctx = ExperimentContext::circuit_a().unwrap();
        let (gate, injected) = excited_target(&ctx, "AO7SVTX1", 0x5a11);
        let behavior = injected.characterization.behavior.clone().unwrap();
        let clean = run_test(
            &ctx.circuit,
            &ctx.patterns,
            &FaultyGate::new(gate, behavior),
        )
        .unwrap();

        // Corrupt the log: duplicate an entry, push one out of range and
        // reverse the order — the classic STDF-conversion mangling.
        let mut noisy = clean.clone();
        noisy.entries.push(noisy.entries[0].clone());
        noisy.entries.push(icd_faultsim::DatalogEntry {
            pattern_index: noisy.num_patterns + 7,
            failing_outputs: vec![0],
        });
        noisy.entries.reverse();

        let clean_report = analyze_datalog_report(&ctx, &clean).unwrap();
        let noisy_report = analyze_datalog_report(&ctx, &noisy).unwrap();
        assert!(!noisy_report.sanitize.is_clean());
        assert!(noisy_report.is_degraded());
        assert_eq!(
            noisy_report.failing_patterns, clean_report.failing_patterns,
            "sanitation restores the clean entry set"
        );
        assert_eq!(
            noisy_report.analysis_of(gate).is_some(),
            clean_report.analysis_of(gate).is_some()
        );
    }

    #[test]
    fn flow_report_on_all_pass_is_clean_escape() {
        let ctx = ExperimentContext::circuit_a().unwrap();
        let empty = icd_faultsim::Datalog {
            circuit_name: ctx.circuit.name().to_owned(),
            num_patterns: ctx.patterns.len(),
            entries: vec![],
        };
        let report = analyze_datalog_report(&ctx, &empty).unwrap();
        assert!(report.is_escape());
        assert!(!report.is_degraded());
        assert!(report.best().is_none());
    }
}
