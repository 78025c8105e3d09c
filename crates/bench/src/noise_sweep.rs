//! The noise-tolerance accuracy experiment: how well does inter-cell
//! candidate extraction survive a corrupted tester datalog?
//!
//! Two sweeps over seeded circuit/defect combos:
//!
//! * **fail-memory truncation** — testers commonly stop logging after N
//!   failing patterns; the sweep truncates the datalog to N ∈ {1, 5, 10}
//!   entries and checks whether the true defective gate survives in the
//!   ranked candidate set and in the set-cover multiplet;
//! * **spurious fails** — 1–10 % of passing patterns flip to failing on a
//!   random observe point; the sweep compares the exact set cover against
//!   the noise-tolerant options ([`DiagnoseOptions::noise_tolerant`]),
//!   which route isolated spurious fails to `unexplained` instead of
//!   drafting phantom suspects.

use std::fmt::Write as _;

use icd_defects::MixConfig;
use icd_engine::flow::{ExperimentContext, FlowError};
use icd_faultsim::{run_test, Corruption, Datalog, FaultyGate, NoiseModel};
use icd_intercell::{diagnose_with_options, DiagnoseOptions};
use icd_netlist::{generator, GateId};

/// One seeded circuit/defect combo: a circuit, the defective gate, and the
/// clean (uncorrupted) datalog its injected defect produces.
struct Combo {
    ctx: ExperimentContext,
    gate: GateId,
    clean: Datalog,
    good: icd_faultsim::BitValues,
}

/// Per-truncation-depth retention counts.
#[derive(Debug, Clone, Copy)]
pub struct TruncationRow {
    /// Entries kept by the fail memory.
    pub keep: usize,
    /// Combos where the true gate stayed in the ranked candidate set.
    pub in_candidates: usize,
    /// Combos where the true gate stayed in the set-cover multiplet.
    pub in_multiplet: usize,
}

/// Per-spurious-rate comparison of exact vs. noise-tolerant covers.
#[derive(Debug, Clone, Copy)]
pub struct SpuriousRow {
    /// Fraction of passing patterns flipped to failing.
    pub rate: f64,
    /// Combos where the true gate stayed in the candidate set.
    pub in_candidates: usize,
    /// Total multiplet size under the exact cover, summed over combos.
    pub exact_multiplet: usize,
    /// Total multiplet size under the tolerant cover.
    pub tolerant_multiplet: usize,
    /// Failing patterns the tolerant cover declined to explain (the honest
    /// answer for isolated noise), summed over combos.
    pub tolerant_unexplained: usize,
}

/// The sweep's aggregate numbers, exposed for the acceptance test.
#[derive(Debug, Clone)]
pub struct NoiseSweepSummary {
    /// Seeded circuit/defect combos that entered the sweep.
    pub combos: usize,
    /// Truncation sweep, one row per fail-memory depth.
    pub truncation: Vec<TruncationRow>,
    /// Spurious-fail sweep, one row per rate.
    pub spurious: Vec<SpuriousRow>,
}

impl NoiseSweepSummary {
    /// The headline acceptance ratio: fraction of combos whose true gate
    /// survives in the candidate set when the fail memory keeps only 5
    /// entries.
    pub fn truncate_to_5_retention(&self) -> f64 {
        self.truncation
            .iter()
            .find(|r| r.keep == 5)
            .map_or(0.0, |r| r.in_candidates as f64 / self.combos as f64)
    }
}

/// Collects excited circuit/defect combos: `per_circuit` defective gates
/// from each of three seeded ~90-gate circuits, keeping only defects whose
/// clean datalog has at least `min_fails` failing patterns (so truncation
/// actually bites).
fn build_combos(per_circuit: usize, min_fails: usize) -> Result<Vec<Combo>, FlowError> {
    let mix = MixConfig {
        stuck: 1.0,
        bridge: 0.0,
        delay: 0.0,
        ..MixConfig::default()
    };
    let mut combos = Vec::new();
    for circuit_seed in [0xA1u64, 0xA2, 0xA3] {
        let ctx = ExperimentContext::from_preset(
            &generator::GeneratorConfig {
                name: format!("noise{circuit_seed:x}"),
                gates: 90,
                primary_inputs: 8,
                primary_outputs: 6,
                flip_flops: 4,
                scan_chains: 1,
                seed: circuit_seed,
            },
            1,
            32,
        )?;
        let mut found = 0usize;
        for gate in ctx.circuit.gates() {
            if found >= per_circuit {
                break;
            }
            let Some(cell) = ctx.cells.get(ctx.circuit.gate_type(gate).name()) else {
                continue;
            };
            let Ok(sample) = icd_defects::sample_defects(cell.netlist(), 4, &mix, 7) else {
                continue;
            };
            let excited = sample.iter().find_map(|injected| {
                let behavior = injected.characterization.behavior.clone()?;
                let log = run_test(
                    &ctx.circuit,
                    &ctx.patterns,
                    &FaultyGate::new(gate, behavior),
                )
                .ok()?;
                (log.entries.len() >= min_fails).then_some(log)
            });
            if let Some(clean) = excited {
                let good = icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)?;
                combos.push(Combo {
                    ctx: ctx.clone(),
                    gate,
                    clean,
                    good,
                });
                found += 1;
            }
        }
    }
    Ok(combos)
}

/// Runs both sweeps and returns the aggregate numbers.
///
/// # Errors
///
/// Returns an error when circuit generation or diagnosis fails
/// structurally (corruption-induced degradation is the measurement, not an
/// error).
pub fn noise_sweep() -> Result<NoiseSweepSummary, FlowError> {
    let combos = build_combos(4, 6)?;

    let mut truncation = Vec::new();
    for keep in [1usize, 5, 10] {
        let mut row = TruncationRow {
            keep,
            in_candidates: 0,
            in_multiplet: 0,
        };
        for (i, combo) in combos.iter().enumerate() {
            let noisy = NoiseModel::single(i as u64, Corruption::TruncateAfter(keep))
                .apply(&combo.clean, combo.ctx.circuit.outputs().len());
            let diag = diagnose_with_options(
                &combo.ctx.circuit,
                &combo.ctx.patterns,
                &noisy,
                &combo.good,
                &DiagnoseOptions::default(),
            )?;
            if diag.candidates.iter().any(|c| c.gate == combo.gate) {
                row.in_candidates += 1;
            }
            if diag.multiplet.contains(&combo.gate) {
                row.in_multiplet += 1;
            }
        }
        truncation.push(row);
    }

    let mut spurious = Vec::new();
    for rate in [0.01f64, 0.05, 0.10] {
        let mut row = SpuriousRow {
            rate,
            in_candidates: 0,
            exact_multiplet: 0,
            tolerant_multiplet: 0,
            tolerant_unexplained: 0,
        };
        for (i, combo) in combos.iter().enumerate() {
            let num_outputs = combo.ctx.circuit.outputs().len();
            let noisy = NoiseModel::single(0x5eed ^ i as u64, Corruption::SpuriousFails { rate })
                .apply(&combo.clean, num_outputs);
            let (noisy, _) = noisy.sanitize(num_outputs);
            let exact = diagnose_with_options(
                &combo.ctx.circuit,
                &combo.ctx.patterns,
                &noisy,
                &combo.good,
                &DiagnoseOptions::default(),
            )?;
            let tolerant = diagnose_with_options(
                &combo.ctx.circuit,
                &combo.ctx.patterns,
                &noisy,
                &combo.good,
                &DiagnoseOptions::noise_tolerant(),
            )?;
            if tolerant.candidates.iter().any(|c| c.gate == combo.gate) {
                row.in_candidates += 1;
            }
            row.exact_multiplet += exact.multiplet.len();
            row.tolerant_multiplet += tolerant.multiplet.len();
            row.tolerant_unexplained += tolerant.unexplained.len();
        }
        spurious.push(row);
    }

    Ok(NoiseSweepSummary {
        combos: combos.len(),
        truncation,
        spurious,
    })
}

/// Renders the sweep as the EXPERIMENTS.md table.
///
/// # Errors
///
/// Same as [`noise_sweep`].
pub fn noise_sweep_report() -> Result<String, FlowError> {
    let s = noise_sweep()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Noise tolerance sweep ({} seeded circuit/defect combos, stuck class, >=6 failing patterns each)",
        s.combos
    );
    let _ = writeln!(out, "\nFail-memory truncation (true gate retention):");
    let _ = writeln!(
        out,
        "{:>8} {:>15} {:>14}",
        "keep N", "in candidates", "in multiplet"
    );
    for r in &s.truncation {
        let _ = writeln!(
            out,
            "{:>8} {:>12}/{:<2} {:>11}/{:<2}",
            r.keep, r.in_candidates, s.combos, r.in_multiplet, s.combos
        );
    }
    let _ = writeln!(out, "\nSpurious fails (exact vs. noise-tolerant cover):");
    let _ = writeln!(
        out,
        "{:>8} {:>15} {:>16} {:>19} {:>22}",
        "rate", "in candidates", "exact multiplet", "tolerant multiplet", "tolerant unexplained"
    );
    for r in &s.spurious {
        let _ = writeln!(
            out,
            "{:>7}% {:>12}/{:<2} {:>16} {:>19} {:>22}",
            (r.rate * 100.0).round() as usize,
            r.in_candidates,
            s.combos,
            r.exact_multiplet,
            r.tolerant_multiplet,
            r.tolerant_unexplained
        );
    }
    let retention = s.truncate_to_5_retention();
    let _ = writeln!(
        out,
        "\ntruncate-to-5 candidate retention: {:.0}% ({} required: >=90%)",
        retention * 100.0,
        if retention >= 0.9 { "PASS" } else { "FAIL" }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance criterion: under fail-memory truncation to 5
    /// entries the true defect stays in the candidate set on >=90% of
    /// seeded combos.
    #[test]
    fn truncation_to_5_retains_the_true_defect() {
        let s = noise_sweep().unwrap();
        assert!(s.combos >= 10, "sweep too small: {} combos", s.combos);
        assert!(
            s.truncate_to_5_retention() >= 0.9,
            "retention {:.2} below 0.9: {:?}",
            s.truncate_to_5_retention(),
            s.truncation
        );
    }
}
