//! In-process reference answers, computed before any timing, and the
//! accuracy of served answers against the corpus's ground truth.

use std::collections::BTreeMap;
use std::sync::Arc;

use icd_bench::flow::{analyze_datalog_report, ExperimentContext};
use icd_engine::summarize_report;
use icd_netlist::GateId;
use icd_server::ResponseStatus;
use icd_volume::{AggregationConfig, VolumeInput, VolumeOptions, VolumeRun};

use crate::corpus::{Corpus, Lot};
use crate::workload::WORKERS;

/// A reference answer: the status and reply bytes the daemon must send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// `Degraded` exactly when the report is.
    pub status: ResponseStatus,
    /// The reply payload: a summary line or a volume-report JSON.
    pub body: String,
}

/// The corpus's distinct datalog texts, and for every device (lot by
/// lot) the index of its text.
pub fn distinct_texts(corpus: &Corpus) -> (Vec<&str>, Vec<usize>) {
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut texts = Vec::new();
    let of_device = corpus
        .devices()
        .map(|d| {
            *index.entry(d.text.as_str()).or_insert_with(|| {
                texts.push(d.text.as_str());
                texts.len() - 1
            })
        })
        .collect();
    (texts, of_device)
}

/// `summarize_report(analyze_datalog_report(..))` for each text, on
/// [`WORKERS`] threads.
///
/// # Errors
///
/// Unparseable texts or whole-datalog flow failures.
pub fn single_answers(ctx: &ExperimentContext, texts: &[&str]) -> Result<Vec<Answer>, String> {
    let answer = |text: &str| -> Result<Answer, String> {
        let datalog = icd_faultsim::datalog_text::parse(text).map_err(|e| e.to_string())?;
        let report = analyze_datalog_report(ctx, &datalog).map_err(|e| e.to_string())?;
        Ok(Answer {
            status: if report.is_degraded() {
                ResponseStatus::Degraded
            } else {
                ResponseStatus::Ok
            },
            body: summarize_report(ctx, &report),
        })
    };
    let mut slots: Vec<Option<Result<Answer, String>>> = vec![None; texts.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    (w..texts.len())
                        .step_by(WORKERS)
                        .map(|i| (i, answer(texts[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            if let Ok(done) = worker.join() {
                for (i, a) in done {
                    slots[i] = Some(a);
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err("reference thread panicked".into())))
        .collect()
}

/// The named `(device, text)` list a lot is sent as.
pub fn lot_payload(lot: &Lot) -> Vec<(String, String)> {
    lot.devices
        .iter()
        .map(|d| (d.name.clone(), d.text.clone()))
        .collect()
}

/// The `VolumeRun` report JSON of each lot.
///
/// # Errors
///
/// Whole-batch failures of the volume run.
pub fn volume_answers(
    ctx: &Arc<ExperimentContext>,
    corpus: &Corpus,
) -> Result<Vec<Answer>, String> {
    let run = VolumeRun::new(
        Arc::clone(ctx),
        VolumeOptions {
            workers: WORKERS,
            aggregation: AggregationConfig::default(),
            cache_dir: None,
        },
    );
    corpus
        .lots
        .iter()
        .map(|lot| {
            let inputs: Vec<VolumeInput> = lot
                .devices
                .iter()
                .map(|d| VolumeInput {
                    name: d.name.clone(),
                    datalog: d.datalog.clone(),
                })
                .collect();
            let outcome = run.execute(&inputs, 0, None).map_err(|e| e.to_string())?;
            let report = outcome.report;
            Ok(Answer {
                status: if report.devices_failed > 0 || report.devices_skipped > 0 {
                    ResponseStatus::Degraded
                } else {
                    ResponseStatus::Ok
                },
                body: report.to_json(),
            })
        })
        .collect()
}

/// The top suspect of a summary line and its candidate count:
/// `... top suspect g12:NAME (7 candidates)`.
pub fn top_suspect(summary: &str) -> Option<(usize, usize)> {
    let rest = summary.split("top suspect g").nth(1)?;
    let (index, rest) = rest.split_once(':')?;
    let count = rest.split_once(" (")?.1.split_once(" candidates)")?.0;
    Some((index.parse().ok()?, count.parse().ok()?))
}

/// The rank of `gate` among a volume report's root causes (1-based); a
/// gate not listed ranks one past the end.
pub fn planted_rank_in_report(json: &str, gate: &str) -> Result<(usize, usize), String> {
    let doc = icd_obs::json::parse(json).map_err(|e| format!("volume report: {e}"))?;
    let causes = doc
        .get("root_causes")
        .and_then(|c| c.as_array())
        .ok_or("volume report has no root_causes")?;
    let rank = causes
        .iter()
        .position(|c| {
            c.get("kind").and_then(|k| k.as_str()) == Some("gate")
                && c.get("gate").and_then(|g| g.as_str()) == Some(gate)
        })
        .map_or(causes.len() + 1, |p| p + 1);
    Ok((rank, causes.len()))
}

/// Accuracy of the served answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Share of answers whose top item is an injected defect: the top
    /// suspect of a device, the top root cause of a lot.
    pub hit_rate: f64,
    /// Serve: mean candidate count of the top suspect. Volume: mean
    /// count of root causes a lot report lists.
    pub resolution: f64,
    /// Mean rank of each lot's planted gate: among the lot's reported
    /// top suspects by device count (serve), among the report's root
    /// causes (volume).
    pub planted_rank: f64,
    /// Answers scored.
    pub samples: usize,
}

/// Scores one served summary line per device (lot by lot, in corpus
/// order) against the ground truth.
pub fn score_devices(corpus: &Corpus, summaries: &[&str]) -> Accuracy {
    let mut hits = 0usize;
    let mut candidates = Vec::new();
    let mut ranks = Vec::new();
    let mut at = 0usize;
    for lot in &corpus.lots {
        let mut tops: BTreeMap<usize, usize> = BTreeMap::new();
        for device in &lot.devices {
            if let Some((gate, count)) = summaries.get(at).and_then(|s| top_suspect(s)) {
                hits += usize::from(device.injected.contains(&GateId::from_index(gate)));
                candidates.push(count as f64);
                *tops.entry(gate).or_default() += 1;
            }
            at += 1;
        }
        let mut order: Vec<(usize, usize)> = tops.into_iter().collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let planted = lot.planted_gate.index();
        ranks.push(
            order
                .iter()
                .position(|&(g, _)| g == planted)
                .map_or(order.len() + 1, |p| p + 1) as f64,
        );
    }
    Accuracy {
        hit_rate: hits as f64 / at.max(1) as f64,
        resolution: crate::stats::mean(&candidates).unwrap_or(0.0),
        planted_rank: crate::stats::mean(&ranks).unwrap_or(0.0),
        samples: at,
    }
}

/// Scores one served volume report per lot.
///
/// # Errors
///
/// Unparseable reports.
pub fn score_lots(
    ctx: &ExperimentContext,
    corpus: &Corpus,
    reports: &[&str],
) -> Result<Accuracy, String> {
    let mut ranks = Vec::new();
    let mut listed = Vec::new();
    for (lot, json) in corpus.lots.iter().zip(reports) {
        let (rank, len) = planted_rank_in_report(json, &ctx.circuit.gate_name(lot.planted_gate))?;
        ranks.push(rank as f64);
        listed.push(len as f64);
    }
    let hits = ranks.iter().filter(|&&r| r == 1.0).count();
    Ok(Accuracy {
        hit_rate: hits as f64 / ranks.len().max(1) as f64,
        resolution: crate::stats::mean(&listed).unwrap_or(0.0),
        planted_rank: crate::stats::mean(&ranks).unwrap_or(0.0),
        samples: ranks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_lines_yield_their_top_suspect() {
        let line = "9 failing patterns, 3 analyzed, 1 skipped, 0 unexplained, \
                    top suspect g117:AO7SVTX1 (12 candidates)";
        assert_eq!(top_suspect(line), Some((117, 12)));
        assert_eq!(top_suspect(&format!("{line} [degraded]")), Some((117, 12)));
        assert_eq!(top_suspect("PASS (test escape)"), None);
        assert_eq!(
            top_suspect(
                "4 failing patterns, 0 analyzed, 4 skipped, 0 unexplained, top suspect none"
            ),
            None
        );
    }

    #[test]
    fn planted_rank_reads_the_root_causes() {
        let json = r#"{"root_causes":[{"rank":1,"kind":"cell","cell":"X"},{"rank":2,"kind":"gate","gate":"g14","cell":"INV"}]}"#;
        assert_eq!(planted_rank_in_report(json, "g14").unwrap(), (2, 2));
        assert_eq!(planted_rank_in_report(json, "g15").unwrap(), (3, 2));
        assert!(planted_rank_in_report("{}", "g14").is_err());
    }
}
