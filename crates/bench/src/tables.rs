//! Regeneration of the paper's Tables 1–6.

use std::fmt::Write as _;

use icd_cells::TABLE5_CELL_NAMES;
use icd_defects::{sample_defects, BehaviorClass, MixConfig};
use icd_engine::flow::{ExperimentContext, FlowError};
use icd_netlist::generator;

use crate::flow::{ground_truth_hit, run_flow};
use crate::RunScale;

/// Table 1: circuit characteristics (A and B).
///
/// # Errors
///
/// Returns an error when circuit generation fails.
pub fn table1(scale: RunScale) -> Result<String, FlowError> {
    circuit_characteristics(
        "Table 1 - Circuit Characteristics",
        &[generator::circuit_a(), generator::circuit_b()],
        scale,
    )
}

/// Table 6: silicon circuit characteristics (H, M, C).
///
/// # Errors
///
/// Returns an error when circuit generation fails.
pub fn table6(scale: RunScale) -> Result<String, FlowError> {
    circuit_characteristics(
        "Table 6 - Circuit Characteristics (silicon)",
        &[
            generator::circuit_h(),
            generator::circuit_m(),
            generator::circuit_c(),
        ],
        scale,
    )
}

fn circuit_characteristics(
    title: &str,
    presets: &[generator::GeneratorConfig],
    scale: RunScale,
) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>11} | {:>14} {:>12}",
        "Circuit", "#Gate", "#FlipFlop", "#ScanChain", "built(#gate/d)", "divisor"
    );
    let cells = icd_cells::CellLibrary::standard();
    let logic = cells.logic_library();
    for preset in presets {
        // Paper-declared characteristics.
        let scaled = preset.scaled_down(scale.circuit_divisor);
        let built = generator::generate(&scaled, &logic)?;
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>11} | {:>14} {:>12}",
            preset.name,
            preset.gates,
            preset.flip_flops,
            preset.scan_chains,
            built.num_gates(),
            scale.circuit_divisor,
        );
    }
    let _ = writeln!(
        out,
        "(left: the paper's published characteristics; right: the synthetic\n reproduction actually built at this run's scale)"
    );
    // Shape details of the smallest preset's build, as a synthesis report
    // would show them.
    if let Some(first) = presets.first() {
        let scaled = first.scaled_down(scale.circuit_divisor);
        let built = generator::generate(&scaled, &logic)?;
        let stats = icd_netlist::CircuitStats::of(&built);
        let _ = writeln!(out, "\nshape of {}: {}", scaled.name, stats);
    }
    Ok(out)
}

/// One row of Tables 2–4.
#[derive(Debug, Clone)]
pub struct InjectionRow {
    /// Suspected gate (cell) name.
    pub cell: String,
    /// Cell input count.
    pub inputs: usize,
    /// Cell transistor count (the paper's complexity).
    pub complexity: usize,
    /// Description of the injected defect.
    pub injected: String,
    /// Diagnosis result summary (candidate descriptions).
    pub result: String,
    /// Whether the ground truth is among the candidates.
    pub hit: bool,
    /// Candidate resolution.
    pub resolution: usize,
}

/// Runs one Tables-2/3/4-style experiment: for each named cell, inject an
/// observable defect of `class` into an instance embedded in circuit A,
/// run the full flow and report the intra-cell candidates.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn injection_table(
    class: BehaviorClass,
    cell_names: &[&str],
    seed: u64,
) -> Result<Vec<InjectionRow>, FlowError> {
    let ctx = ExperimentContext::circuit_a()?;
    let mut rows = Vec::new();
    for name in cell_names {
        let cell = match ctx.cells.get(name) {
            Some(c) => c,
            None => continue,
        };
        let gate = match ctx.instance_of(name) {
            Ok(g) => g,
            Err(_) => continue,
        };
        let mix = match class {
            BehaviorClass::StuckLike => MixConfig {
                stuck: 1.0,
                bridge: 0.0,
                delay: 0.0,
                ..MixConfig::default()
            },
            BehaviorClass::BridgeLike => MixConfig {
                stuck: 0.0,
                bridge: 1.0,
                delay: 0.0,
                ..MixConfig::default()
            },
            _ => MixConfig {
                stuck: 0.0,
                bridge: 0.0,
                delay: 1.0,
                ..MixConfig::default()
            },
        };
        // Try sampled defects until one produces failures under the
        // circuit test set (an escape teaches nothing about diagnosis).
        let candidates = sample_defects(cell.netlist(), 12, &mix, seed ^ hash_name(name))?;
        let mut row = None;
        for injected in &candidates {
            let outcome = run_flow(&ctx, gate, injected)?;
            if outcome.is_escape() {
                continue;
            }
            // The paper analyzes every suspected cell; score the analysis
            // of the defective instance when the front end reported it,
            // the top-ranked one otherwise.
            let Some(analysis) = outcome.analysis_of(gate).or_else(|| outcome.best()) else {
                continue;
            };
            let hit = analysis.gate == gate
                && ground_truth_hit(
                    cell.netlist(),
                    &analysis.report,
                    &injected.characterization.ground_truth,
                );
            row = Some(InjectionRow {
                cell: (*name).to_owned(),
                inputs: cell.netlist().num_inputs(),
                complexity: cell.netlist().num_transistors(),
                injected: injected.defect.describe(cell.netlist()),
                result: analysis
                    .report
                    .candidates
                    .iter()
                    .map(|c| c.description.clone())
                    .collect::<Vec<_>>()
                    .join("; "),
                hit,
                resolution: analysis.report.resolution(),
            });
            break;
        }
        if let Some(r) = row {
            rows.push(r);
        }
    }
    Ok(rows)
}

fn hash_name(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31) ^ b as u64)
}

/// Formats Tables 2–4 rows like the paper.
pub fn format_injection_table(title: &str, rows: &[InjectionRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>10} | {:<28} | {:<60} | {:>4} {:>10}",
        "SuspectedGate", "Inputs", "Complexity", "Injected", "Results", "Hit", "Resolution"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>10} | {:<28} | {:<60} | {:>4} {:>10}",
            r.cell,
            r.inputs,
            r.complexity,
            r.injected,
            r.result,
            if r.hit { "yes" } else { "NO" },
            r.resolution,
        );
    }
    out
}

/// Table 2: defects leading to stuck-at faults.
///
/// # Errors
///
/// See [`injection_table`].
pub fn table2() -> Result<String, FlowError> {
    let rows = injection_table(
        BehaviorClass::StuckLike,
        &[
            "AO7SVTX1",
            "NR3ASVTX1",
            "AO6CHVTX4",
            "AO8DHVTX1",
            "AO5NHVTX1",
        ],
        0x7ab1e2,
    )?;
    Ok(format_injection_table(
        "Table 2 - Stuck-at-Faults Results",
        &rows,
    ))
}

/// Table 3: defects leading to bridging faults.
///
/// # Errors
///
/// See [`injection_table`].
pub fn table3() -> Result<String, FlowError> {
    let rows = injection_table(
        BehaviorClass::BridgeLike,
        &[
            "AO7SVTX1",
            "AO7NHVTX1",
            "AO6CHVTX4",
            "AO5NHVTX1",
            "AO9SVTX1",
        ],
        0x7ab1e3,
    )?;
    Ok(format_injection_table(
        "Table 3 - Bridging-Faults Results",
        &rows,
    ))
}

/// Table 4: defects leading to delay faults.
///
/// # Errors
///
/// See [`injection_table`].
pub fn table4() -> Result<String, FlowError> {
    let rows = injection_table(
        BehaviorClass::DelayLike,
        &["AO7NHVTX1", "AO8DHVTX1", "AO5NHVTX1", "AO9SVTX1"],
        0x7ab1e4,
    )?;
    Ok(format_injection_table(
        "Table 4 - Delay-Faults Results",
        &rows,
    ))
}

/// One row of the Table-5 campaign.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Cell name.
    pub cell: String,
    /// Cell input count.
    pub inputs: usize,
    /// Transistor count.
    pub complexity: usize,
    /// Diagnosis runs that produced failures.
    pub runs: usize,
    /// Runs where the injected location was implicated.
    pub hits: usize,
    /// Average location-level resolution over hit runs.
    pub avg_resolution: f64,
    /// Average net-level resolution over hit runs (the paper's
    /// granularity).
    pub avg_net_resolution: f64,
    /// Average simulation-ranked resolution over hit runs (our
    /// resolution-improvement extension).
    pub avg_ranked_resolution: f64,
    /// Test escapes (defect never observed under the test set).
    pub escapes: usize,
}

/// Table 5: the extensive random campaign — for each Table-5 cell,
/// `instances_per_cell` instances in circuit B (scaled), each injected
/// with `defects_per_instance` random defects with the paper's 30/30/40
/// behaviour mix.
///
/// # Errors
///
/// Returns an error when a stage fails structurally.
pub fn table5(scale: RunScale) -> Result<(String, Vec<CampaignRow>), FlowError> {
    let ctx = ExperimentContext::from_preset(
        &generator::circuit_b(),
        scale.circuit_divisor,
        scale.patterns,
    )?;
    let mut rows = Vec::new();
    for name in TABLE5_CELL_NAMES {
        let Some(cell) = ctx.cells.get(name) else {
            continue;
        };
        let instances = ctx.instances_of(name);
        if instances.is_empty() {
            continue;
        }
        let take = instances.len().min(scale.instances_per_cell);
        let mut runs = 0usize;
        let mut hits = 0usize;
        let mut resolutions = 0usize;
        let mut net_resolutions = 0usize;
        let mut ranked_resolutions = 0usize;
        let mut escapes = 0usize;
        for (i, &gate) in instances.iter().take(take).enumerate() {
            let sample = sample_defects(
                cell.netlist(),
                scale.defects_per_instance,
                &MixConfig::default(),
                0x5a_17 ^ hash_name(name) ^ (i as u64) << 8,
            )?;
            for injected in &sample {
                let outcome = run_flow(&ctx, gate, injected)?;
                if outcome.is_escape() {
                    escapes += 1;
                    continue;
                }
                runs += 1;
                if let Some(analysis) = outcome.analysis_of(gate) {
                    if ground_truth_hit(
                        cell.netlist(),
                        &analysis.report,
                        &injected.characterization.ground_truth,
                    ) {
                        hits += 1;
                        resolutions += analysis.report.resolution();
                        net_resolutions += analysis.report.net_resolution(cell.netlist());
                        ranked_resolutions += analysis.ranked.ranked_resolution();
                    }
                }
            }
        }
        rows.push(CampaignRow {
            cell: name.to_owned(),
            inputs: cell.netlist().num_inputs(),
            complexity: cell.netlist().num_transistors(),
            runs,
            hits,
            avg_resolution: if hits > 0 {
                resolutions as f64 / hits as f64
            } else {
                0.0
            },
            avg_net_resolution: if hits > 0 {
                net_resolutions as f64 / hits as f64
            } else {
                0.0
            },
            avg_ranked_resolution: if hits > 0 {
                ranked_resolutions as f64 / hits as f64
            } else {
                0.0
            },
            escapes,
        });
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5 - Extensive campaign (circuit B / {}; {} patterns)",
        scale.circuit_divisor, scale.patterns
    );
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>10} {:>6} {:>6} {:>8} {:>12} {:>14} {:>12}",
        "SuspectedGate",
        "Inputs",
        "Complexity",
        "Runs",
        "Hits",
        "Escapes",
        "Resolution",
        "NetResolution",
        "RankedRes"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>10} {:>6} {:>6} {:>8} {:>12.2} {:>14.2} {:>12.2}",
            r.cell,
            r.inputs,
            r.complexity,
            r.runs,
            r.hits,
            r.escapes,
            r.avg_resolution,
            r.avg_net_resolution,
            r.avg_ranked_resolution
        );
    }
    Ok((out, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_paper_numbers() {
        let s = table1(RunScale::quick()).unwrap();
        assert!(s.contains("698804"));
        assert!(s.contains("56373"));
    }

    #[test]
    fn table6_reports_paper_numbers() {
        let s = table6(RunScale::quick()).unwrap();
        assert!(s.contains("1995419"));
        assert!(s.contains("219"));
    }
}
