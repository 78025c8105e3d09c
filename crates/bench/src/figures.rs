//! Regeneration of the paper's conceptual figures: the Fig.-1 defect
//! behaviour classes, the Fig.-4 pattern taxonomy and the Figs.-6–8 CPT
//! walkthrough.

use std::fmt::Write as _;

use icd_cells::CellLibrary;
use icd_core::{diagnose as intra_diagnose, transistor_cpt, LocalTest};
use icd_defects::{characterize, classify, Defect};
use icd_engine::flow::FlowError;
use icd_logic::Lv;
use icd_switch::Terminal;

/// Fig. 1: the four example defects D1–D4 on the AO8DHVTX1 running
/// example, swept over resistance, showing how the behaviour class moves
/// through the bands (stuck / bridge / delay / benign).
///
/// # Errors
///
/// Returns an error when a characterization fails.
pub fn fig1_defect_classes() -> Result<String, FlowError> {
    let cells = CellLibrary::standard();
    let cell = cells.get("AO8DHVTX1").expect("exists").netlist();
    let net118 = cell.find_net("Net118").expect("Net118");
    let net88 = cell.find_net("Net88").expect("Net88");
    let net110 = cell.find_net("Net110").expect("Net110");
    let net106 = cell.find_net("Net106").expect("Net106");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 1 - defect modelling on AO8DHVTX1 (resistance sweep)"
    );
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>10} {:>12}",
        "defect", "R (ohm)", "class", "observable"
    );
    let gnd = cell.gnd();
    let vdd = cell.vdd();
    type DefectSweep<'a> = (&'a str, Box<dyn Fn(f64) -> Defect>);
    let defs: Vec<DefectSweep<'_>> = vec![
        (
            "D1: Net118-GND short",
            Box::new(move |r| Defect::Short {
                a: net118,
                b: gnd,
                resistance: r,
            }),
        ),
        (
            "D2: Net88-VDD short",
            Box::new(move |r| Defect::Short {
                a: net88,
                b: vdd,
                resistance: r,
            }),
        ),
        (
            "D3: Net110-Net106 short",
            Box::new(move |r| Defect::Short {
                a: net110,
                b: net106,
                resistance: r,
            }),
        ),
        (
            "D4: Net118 open",
            Box::new(move |r| Defect::OpenNet {
                net: net118,
                resistance: r,
            }),
        ),
    ];
    for (name, make) in &defs {
        for r in [50.0, 2_000.0, 200_000.0, 5e7] {
            let defect = make(r);
            let class = classify(cell, &defect)?;
            let ch = characterize(cell, &defect)?;
            let _ = writeln!(
                out,
                "{:<34} {:>12.0} {:>10} {:>12}",
                name,
                r,
                class.to_string(),
                if ch.observable { "yes" } else { "no" }
            );
        }
    }
    Ok(out)
}

/// Fig. 4: the local pattern taxonomy. A static defect keeps
/// `lfp ∩ lpp = ∅` (zones 1/2); a delay defect makes the same local vector
/// fail after a transition and pass when stable (zone 3 ⇒ Definition 3:
/// dynamic only).
///
/// # Errors
///
/// Returns an error when a characterization fails.
pub fn fig4_taxonomy() -> Result<String, FlowError> {
    let cells = CellLibrary::standard();
    let cell = cells.get("AO7NHVTX1").expect("exists").netlist();
    let good = cell.truth_table()?;
    let n = cell.num_inputs();
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 4 - failing/passing local pattern taxonomy");

    // Case 1: static defect (input A net shorted to GND).
    let a = cell.find_net("A").expect("A");
    let ch = characterize(cell, &Defect::hard_short(a, cell.gnd()))?;
    let behavior = ch.behavior.expect("observable");
    let mut lfp = Vec::new();
    let mut lpp = Vec::new();
    for combo in 0..(1usize << n) {
        let bits: Vec<bool> = (0..n).map(|k| (combo >> k) & 1 == 1).collect();
        let g = good.eval_bits(&bits);
        let f = behavior.eval(&bits, &bits, g);
        if f.conflicts_with(g) {
            lfp.push(LocalTest::static_vector(bits));
        } else {
            lpp.push(LocalTest::static_vector(bits));
        }
    }
    let report = intra_diagnose(cell, &lfp, &lpp)?;
    let _ = writeln!(
        out,
        "static defect (A-GND short):  |lfp|={} |lpp|={} -> dynamic_only={}",
        lfp.len(),
        lpp.len(),
        report.dynamic_only
    );

    // Case 2: delay defect (resistive open) exercised with two-pattern
    // tests: the same capture vector appears in both sets.
    let n0 = cell.find_transistor("N0").expect("N0");
    let ch = characterize(cell, &Defect::resistive_open(n0, Terminal::Source))?;
    let behavior = ch.behavior.expect("observable");
    let mut lfp = Vec::new();
    let mut lpp = Vec::new();
    for prev in 0..(1usize << n) {
        for cur in 0..(1usize << n) {
            let pb: Vec<bool> = (0..n).map(|k| (prev >> k) & 1 == 1).collect();
            let cb: Vec<bool> = (0..n).map(|k| (cur >> k) & 1 == 1).collect();
            let prev_good = good.eval_bits(&pb);
            let raw = behavior.eval(&pb, &cb, prev_good);
            let eff = if raw == Lv::U { prev_good } else { raw };
            if eff.conflicts_with(good.eval_bits(&cb)) {
                lfp.push(LocalTest::two_pattern(pb, cb));
            } else {
                lpp.push(LocalTest::two_pattern(pb, cb));
            }
        }
    }
    let report = intra_diagnose(cell, &lfp, &lpp)?;
    let _ = writeln!(
        out,
        "delay defect (N0S open):      |lfp|={} |lpp|={} -> dynamic_only={}",
        lfp.len(),
        lpp.len(),
        report.dynamic_only
    );
    let _ = writeln!(
        out,
        "zone 3 (lfp ∩ lpp ≠ ∅) discards the static fault models, as in Definition 3"
    );
    Ok(out)
}

/// Figs. 6–8: the CPT walkthrough on AO8DHVTX1 under the stimulus "0111".
///
/// Prints the trace in marking order with each item's fault-free value.
/// Our AO8DHVTX1 is a reconstruction (see DESIGN.md): the vocabulary
/// matches the paper (T1…T10, Net88/106/110/118) while the exact critical
/// set differs where the paper's figure is inconsistent.
///
/// # Errors
///
/// Returns an error when the switch-level evaluation fails.
pub fn fig6_walkthrough() -> Result<String, FlowError> {
    let cells = CellLibrary::standard();
    let cell = cells.get("AO8DHVTX1").expect("exists").netlist();
    let inputs = [Lv::Zero, Lv::One, Lv::One, Lv::One]; // "0111"
    let outcome = transistor_cpt(cell, &inputs)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figs. 6-8 - transistor-level CPT on AO8DHVTX1, stimulus ABCD=0111"
    );
    let _ = writeln!(
        out,
        "cell: {} transistors, {} nets; output Z = {}",
        cell.num_transistors(),
        cell.num_nets(),
        outcome.values.value(cell.output())
    );
    let _ = writeln!(out, "trace order (item = fault-free value):");
    for item in &outcome.trace {
        let value = outcome
            .suspects
            .value(item)
            .expect("traced items are suspects");
        let _ = writeln!(out, "  {:<8} = {}", item.display(cell), value);
    }
    let _ = writeln!(
        out,
        "critical list ({} items): {}",
        outcome.suspects.len(),
        outcome
            .suspects
            .iter()
            .map(|(i, _)| i.display(cell))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shows_both_taxonomy_zones() {
        let s = fig4_taxonomy().unwrap();
        assert!(s.contains("dynamic_only=false"));
        assert!(s.contains("dynamic_only=true"));
    }

    #[test]
    fn fig6_walkthrough_contains_paper_vocabulary() {
        let s = fig6_walkthrough().unwrap();
        for token in ["Net118", "Net110", "Z", "T5G"] {
            assert!(s.contains(token), "missing {token} in walkthrough:\n{s}");
        }
    }
}
