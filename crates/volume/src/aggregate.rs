//! Cross-device suspect aggregation into ranked root-cause candidates.
//!
//! Each diagnosed device contributes its suspect list; every suspect
//! votes into three bucket families of decreasing specificity — the exact
//! gate instance, its cell type, and the fanout-cone region it is
//! observed at. Votes are weighted by suspect rank (the paper's ranked
//! cover: slot 0 carries the most evidence) and by bucket specificity, so
//! a gate systematically implicated across devices outranks the broader
//! buckets it also feeds. Ties are broken by a seeded hash so the
//! ordering is total and deterministic but carries no accidental
//! structural bias.

use std::collections::HashMap;

use icd_engine::flow::{ExperimentContext, FlowReport};
use icd_netlist::ContentHash;

use crate::report::{permille, RootCause, RootCauseKind, VolumeReport};

/// Rank-1 suspect vote weight; slot `s` contributes `RANK_WEIGHT / (s+1)`.
const RANK_WEIGHT: u64 = 1000;
/// Specificity multipliers: exact gate > cell type > cone region. The
/// gate multiplier exceeds the worst-case cell-bucket pile-up from one
/// device (every suspect slot the same cell type sums to `2 × 2083` with
/// four slots), so a gate implicated at rank 1 always outranks the
/// broader buckets it feeds.
const GATE_SPECIFICITY: u64 = 8;
const CELL_SPECIFICITY: u64 = 2;
const REGION_SPECIFICITY: u64 = 1;

/// Aggregation tuning.
#[derive(Debug, Clone)]
pub struct AggregationConfig {
    /// Tie-break seed: equal-score, equal-device buckets are ordered by a
    /// seeded hash of their identity. Any fixed seed gives a total,
    /// deterministic order; changing it only permutes exact ties.
    pub seed: u64,
    /// Ranked candidates kept in the report.
    pub max_root_causes: usize,
    /// Example datalog names kept per candidate.
    pub max_examples: usize,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            seed: 0x1cd_0707,
            max_root_causes: 10,
            max_examples: 3,
        }
    }
}

/// Bucket identity. Gates and regions are keyed by stable indices (gate
/// index, observable-output index); `usize::MAX` marks the "observed
/// nowhere" region of suspects with an empty cone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Gate(usize),
    Cell(String),
    Region(usize),
}

#[derive(Debug, Default)]
struct Bucket {
    score: u64,
    devices: usize,
    last_device: Option<usize>,
    examples: Vec<String>,
}

fn tie_hash(seed: u64, key: &Key) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&seed.to_le_bytes());
    match key {
        Key::Gate(i) => {
            eat(b"g");
            eat(&(*i as u64).to_le_bytes());
        }
        Key::Cell(name) => {
            eat(b"c");
            eat(name.as_bytes());
        }
        Key::Region(i) => {
            eat(b"r");
            eat(&(*i as u64).to_le_bytes());
        }
    }
    h
}

/// A stable textual identity for the final (never expected to fire)
/// tie-break level.
fn key_text(key: &Key) -> String {
    match key {
        Key::Gate(i) => format!("gate:{i}"),
        Key::Cell(name) => format!("cell:{name}"),
        Key::Region(i) => format!("region:{i}"),
    }
}

/// Aggregates per-device suspect lists into ranked root-cause candidates.
///
/// `diagnosed` holds `(datalog name, report)` for every device whose
/// diagnosis produced suspects, in input order. The returned candidates
/// are ordered by score, then device count, then seeded hash — a total
/// order independent of iteration order and worker count.
pub fn aggregate(
    ctx: &ExperimentContext,
    diagnosed: &[(String, &FlowReport)],
    config: &AggregationConfig,
) -> Vec<RootCause> {
    let mut buckets: HashMap<Key, Bucket> = HashMap::new();
    for (device, (name, report)) in diagnosed.iter().enumerate() {
        for (slot, analysis) in report.analyses.iter().enumerate() {
            let rank_w = RANK_WEIGHT / (slot as u64 + 1);
            let gate = analysis.gate;
            let cell = ctx.circuit.gate_type(gate).name().to_owned();
            let region = ctx
                .circuit
                .observable_outputs(gate)
                .iter()
                .next()
                .unwrap_or(usize::MAX);
            let votes = [
                (Key::Gate(gate.index()), GATE_SPECIFICITY),
                (Key::Cell(cell), CELL_SPECIFICITY),
                (Key::Region(region), REGION_SPECIFICITY),
            ];
            for (key, specificity) in votes {
                let b = buckets.entry(key).or_default();
                b.score += rank_w * specificity;
                if b.last_device != Some(device) {
                    b.last_device = Some(device);
                    b.devices += 1;
                    if b.examples.len() < config.max_examples {
                        b.examples.push(name.clone());
                    }
                }
            }
        }
    }

    let mut ranked: Vec<(Key, Bucket)> = buckets.into_iter().collect();
    ranked.sort_by(|(ka, ba), (kb, bb)| {
        bb.score
            .cmp(&ba.score)
            .then(bb.devices.cmp(&ba.devices))
            .then(tie_hash(config.seed, ka).cmp(&tie_hash(config.seed, kb)))
            .then_with(|| key_text(ka).cmp(&key_text(kb)))
    });
    ranked.truncate(config.max_root_causes);

    ranked
        .into_iter()
        .map(|(key, bucket)| {
            let kind = match key {
                Key::Gate(i) => {
                    let gate = icd_netlist::GateId::from_index(i);
                    RootCauseKind::Gate {
                        name: ctx.circuit.gate_name(gate),
                        cell: ctx.circuit.gate_type(gate).name().to_owned(),
                    }
                }
                Key::Cell(cell) => RootCauseKind::CellType { cell },
                Key::Region(usize::MAX) => RootCauseKind::Region {
                    output: usize::MAX,
                    coordinate: "unobserved".to_owned(),
                },
                Key::Region(output) => RootCauseKind::Region {
                    output,
                    coordinate: ctx.circuit.tester_coordinate(output).to_string(),
                },
            };
            RootCause {
                kind,
                devices: bucket.devices,
                score: bucket.score,
                share_permille: permille(bucket.devices, diagnosed.len()),
                examples: bucket.examples,
            }
        })
        .collect()
}

/// Assembles the full [`VolumeReport`] from per-device outcomes.
///
/// `reports` holds every device whose diagnosis *succeeded* (including
/// test escapes — reports with no failing pattern), in input order;
/// `devices_failed` / `devices_skipped` count the rest. Both the CLI and
/// the server build their responses through this single function, so the
/// two renderings of the same population are byte-identical.
pub fn assemble_report(
    ctx: &ExperimentContext,
    hash: ContentHash,
    reports: &[(String, &FlowReport)],
    devices_failed: usize,
    devices_skipped: usize,
    config: &AggregationConfig,
) -> VolumeReport {
    let diagnosed: Vec<(String, &FlowReport)> = reports
        .iter()
        .filter(|(_, r)| !r.is_escape() && !r.analyses.is_empty())
        .map(|(n, r)| (n.clone(), *r))
        .collect();
    let escaped = reports.iter().filter(|(_, r)| r.is_escape()).count();
    // Diagnosable-but-empty reports (failing patterns, zero suspects)
    // count against coverage like failures: the run learned nothing.
    let empty = reports.len() - diagnosed.len() - escaped;
    let failing_population = diagnosed.len() + empty + devices_failed + devices_skipped;
    VolumeReport {
        netlist_hash: hash.to_string(),
        devices_total: reports.len() + devices_failed + devices_skipped,
        devices_diagnosed: diagnosed.len(),
        devices_escaped: escaped,
        devices_failed: devices_failed + empty,
        devices_skipped,
        coverage_permille: permille(diagnosed.len(), failing_population),
        root_causes: aggregate(ctx, &diagnosed, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_engine::flow::analyze_datalog_report;
    use icd_faultsim::{run_test_multi, FaultyGate};
    use icd_logic::Lv;
    use icd_netlist::generator;
    use std::sync::Arc;

    fn ctx() -> Arc<ExperimentContext> {
        Arc::new(ExperimentContext::from_preset(&generator::circuit_a(), 16, 12).unwrap())
    }

    fn failing_report(ctx: &ExperimentContext, seed: u64) -> (icd_netlist::GateId, FlowReport) {
        // An output-inverting static defect on a deterministic instance:
        // the flip may be masked downstream, so probe gates starting at
        // `seed` until one produces a failing datalog.
        let num_gates = ctx.circuit.num_gates();
        for offset in 0..num_gates {
            let gate = ctx
                .circuit
                .gates()
                .nth((seed as usize + offset) % num_gates)
                .unwrap();
            let good = ctx.circuit.gate_type(gate).table().clone();
            let flipped = icd_logic::TruthTable::from_fn(good.inputs(), |bits| {
                !matches!(good.eval_bits(bits), Lv::One)
            });
            let faulty = FaultyGate::new(gate, icd_faultsim::FaultyBehavior::Static(flipped));
            let datalog = run_test_multi(&ctx.circuit, &ctx.patterns, &[faulty]).unwrap();
            if datalog.all_pass() {
                continue;
            }
            let report = analyze_datalog_report(ctx, &datalog).unwrap();
            return (gate, report);
        }
        panic!("no excitable gate found");
    }

    #[test]
    fn repeated_gate_dominates_the_ranking() {
        let ctx = ctx();
        let (gate, report) = failing_report(&ctx, 3);
        let named: Vec<(String, &FlowReport)> = (0..4)
            .map(|i| (format!("device-{i:03}.log"), &report))
            .collect();
        let ranked = aggregate(&ctx, &named, &AggregationConfig::default());
        assert!(!ranked.is_empty());
        let top = &ranked[0];
        match &top.kind {
            RootCauseKind::Gate { name, .. } => {
                assert_eq!(*name, ctx.circuit.gate_name(gate));
            }
            other => panic!("expected the planted gate on top, got {other:?}"),
        }
        assert_eq!(top.devices, 4);
        assert_eq!(top.share_permille, 1000);
        assert_eq!(top.examples.len(), 3, "examples capped at max_examples");
    }

    #[test]
    fn ordering_is_input_order_independent() {
        let ctx = ctx();
        let (_, r1) = failing_report(&ctx, 1);
        let (_, r2) = failing_report(&ctx, 5);
        let fwd = vec![("a".to_owned(), &r1), ("b".to_owned(), &r2)];
        let cfg = AggregationConfig::default();
        let ranked_fwd = aggregate(&ctx, &fwd, &cfg);
        let rev = vec![("b".to_owned(), &r2), ("a".to_owned(), &r1)];
        let ranked_rev = aggregate(&ctx, &rev, &cfg);
        let kinds_fwd: Vec<_> = ranked_fwd.iter().map(|r| r.kind.clone()).collect();
        let kinds_rev: Vec<_> = ranked_rev.iter().map(|r| r.kind.clone()).collect();
        assert_eq!(kinds_fwd, kinds_rev);
        let scores_fwd: Vec<_> = ranked_fwd.iter().map(|r| r.score).collect();
        let scores_rev: Vec<_> = ranked_rev.iter().map(|r| r.score).collect();
        assert_eq!(scores_fwd, scores_rev);
    }

    #[test]
    fn assemble_report_counts_escapes_and_failures() {
        let ctx = ctx();
        let (_, failing) = failing_report(&ctx, 2);
        let clean = run_test_multi(&ctx.circuit, &ctx.patterns, &[]).unwrap();
        assert!(clean.all_pass());
        let escape = analyze_datalog_report(&ctx, &clean).unwrap();
        let reports = vec![
            ("dev-a".to_owned(), &failing),
            ("dev-b".to_owned(), &escape),
        ];
        let report = assemble_report(
            &ctx,
            ctx.circuit.content_hash(),
            &reports,
            1,
            2,
            &AggregationConfig::default(),
        );
        assert_eq!(report.devices_total, 5);
        assert_eq!(report.devices_diagnosed, 1);
        assert_eq!(report.devices_escaped, 1);
        assert_eq!(report.devices_failed, 1);
        assert_eq!(report.devices_skipped, 2);
        // 1 diagnosed of a failing population of 4 (1 + 1 failed + 2 skipped).
        assert_eq!(report.coverage_permille, 250);
        assert_eq!(report.netlist_hash, ctx.circuit.content_hash().to_string());
        assert!(!report.root_causes.is_empty());
    }
}
