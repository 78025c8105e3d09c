//! The volume-run planner: one design, many device observations, one
//! aggregated report.
//!
//! A [`VolumeRun`] fingerprints the netlist, restores any persisted
//! cache snapshot keyed by that fingerprint, fans the device datalogs
//! through the batch engine (deterministic merge — the report is
//! byte-identical at any worker count), aggregates per-device suspects
//! into ranked root-cause candidates, and writes the warmed cache back
//! out for the next batch over the same design.

use std::path::PathBuf;
use std::sync::Arc;

use icd_core::AnalysisCache;
use icd_engine::flow::{ExperimentContext, FlowError, FlowReport};
use icd_engine::{BatchEngine, EngineConfig};
use icd_faultsim::Datalog;
use icd_netlist::ContentHash;
use icd_obs::Stability;

use crate::aggregate::{assemble_report, AggregationConfig};
use crate::report::VolumeReport;
use crate::snapshot;

/// Everything tunable about one volume run.
#[derive(Debug, Clone, Default)]
pub struct VolumeOptions {
    /// Worker threads; 0 follows `ICD_WORKERS` / machine parallelism.
    pub workers: usize,
    /// Root-cause aggregation tuning.
    pub aggregation: AggregationConfig,
    /// Directory for persistent cache snapshots; `None` disables
    /// cross-batch persistence.
    pub cache_dir: Option<PathBuf>,
}

/// One named device observation.
#[derive(Debug, Clone)]
pub struct VolumeInput {
    /// Datalog name (the file name in a corpus directory).
    pub name: String,
    /// The device's tester datalog.
    pub datalog: Datalog,
}

/// Run counters, also exported as `volume.*` obs counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct VolumeRunStats {
    /// Devices whose diagnosis produced suspects.
    pub devices_diagnosed: usize,
    /// Devices with all-pass datalogs (test escapes).
    pub devices_escaped: usize,
    /// Devices whose diagnosis failed structurally.
    pub devices_failed: usize,
    /// Devices skipped before diagnosis (reported by the corpus loader).
    pub devices_skipped: usize,
    /// Truth tables restored from a persisted snapshot.
    pub snapshot_tables_loaded: usize,
    /// Truth tables persisted for the next batch.
    pub snapshot_tables_saved: usize,
    /// Truth-table cache misses over the whole run — 0 on a fully warm
    /// snapshot restore.
    pub table_misses: usize,
    /// Ranked root-cause candidates in the report.
    pub root_causes: usize,
}

/// The full outcome of [`VolumeRun::execute`].
#[derive(Debug, Clone)]
pub struct VolumeOutcome {
    /// The aggregated report.
    pub report: VolumeReport,
    /// Run counters.
    pub stats: VolumeRunStats,
    /// Per-device failures `(name, error)`, in input order.
    pub failures: Vec<(String, String)>,
    /// Per-device engine busy time `(name, busy_us)`, in input order.
    /// Timing-class: scheduling-dependent CPU attribution for operator
    /// summaries only — it must never enter the serialized report
    /// (which stays byte-identical at any worker count).
    pub device_latency: Vec<(String, u64)>,
}

/// Plans and executes volume-diagnosis runs over one design.
#[derive(Debug, Clone)]
pub struct VolumeRun {
    ctx: Arc<ExperimentContext>,
    options: VolumeOptions,
}

impl VolumeRun {
    /// A planner for `ctx` with the given options.
    pub fn new(ctx: Arc<ExperimentContext>, options: VolumeOptions) -> Self {
        VolumeRun { ctx, options }
    }

    /// The structural fingerprint of the design under diagnosis — the
    /// snapshot and aggregation key.
    pub fn netlist_hash(&self) -> ContentHash {
        self.ctx.circuit.content_hash()
    }

    /// Diagnoses every input as one workload and aggregates the result.
    ///
    /// `devices_skipped` is the number of observations the corpus loader
    /// dropped before this call (unreadable or empty datalogs); they
    /// count against coverage but are otherwise absent. Snapshot load
    /// and save failures degrade to a cold run and a lost optimization
    /// respectively — never to a run failure.
    ///
    /// # Errors
    ///
    /// Returns an error only when a whole-batch stage fails (e.g. the
    /// good-machine simulation); per-device failures are recorded in the
    /// outcome instead.
    pub fn execute(
        &self,
        inputs: &[VolumeInput],
        devices_skipped: usize,
        collector: Option<&icd_obs::Collector>,
    ) -> Result<VolumeOutcome, FlowError> {
        let hash = self.netlist_hash();
        let cache = Arc::new(AnalysisCache::new());
        let mut stats = VolumeRunStats {
            devices_skipped,
            ..VolumeRunStats::default()
        };

        if let Some(dir) = &self.options.cache_dir {
            let path = snapshot::snapshot_path(dir, hash);
            if path.exists() {
                match snapshot::load(&cache, hash, &path) {
                    Ok(n) => stats.snapshot_tables_loaded = n,
                    Err(_) => {
                        // A stale or corrupt snapshot costs a cold start,
                        // nothing else.
                        Self::observe(collector, "volume.snapshot_load_failed", 1);
                    }
                }
            }
        }

        let config = if self.options.workers > 0 {
            EngineConfig::with_workers(self.options.workers)
        } else {
            EngineConfig::from_env()
        };
        let engine = BatchEngine::new(config);
        let datalogs: Vec<Datalog> = inputs.iter().map(|i| i.datalog.clone()).collect();
        let batch = {
            let _recording = collector.map(icd_obs::Collector::install);
            engine.diagnose_batch(&self.ctx, &datalogs, &cache)?
        };

        let mut reports: Vec<(String, &FlowReport)> = Vec::new();
        let mut failures: Vec<(String, String)> = Vec::new();
        let mut device_latency: Vec<(String, u64)> = Vec::with_capacity(batch.outcomes.len());
        for outcome in &batch.outcomes {
            let name = inputs[outcome.index].name.clone();
            device_latency.push((name.clone(), outcome.busy_us));
            match &outcome.report {
                Ok(report) => reports.push((name, report)),
                Err(e) => failures.push((name, e.to_string())),
            }
        }
        let report = assemble_report(
            &self.ctx,
            hash,
            &reports,
            failures.len(),
            devices_skipped,
            &self.options.aggregation,
        );
        stats.devices_diagnosed = report.devices_diagnosed;
        stats.devices_escaped = report.devices_escaped;
        stats.devices_failed = report.devices_failed;
        stats.root_causes = report.root_causes.len();
        stats.table_misses = batch.stats.table_cache.misses;

        if let Some(dir) = &self.options.cache_dir {
            let path = snapshot::snapshot_path(dir, hash);
            match snapshot::save(&cache, hash, &path) {
                Ok(n) => stats.snapshot_tables_saved = n,
                Err(_) => Self::observe(collector, "volume.snapshot_save_failed", 1),
            }
        }

        Self::observe_stats(collector, inputs.len(), &stats);
        Ok(VolumeOutcome {
            report,
            stats,
            failures,
            device_latency,
        })
    }

    fn observe(collector: Option<&icd_obs::Collector>, name: &'static str, delta: u64) {
        if let Some(c) = collector {
            let _active = c.install_local();
            icd_obs::counter(name, delta, Stability::Stable);
        }
    }

    fn observe_stats(
        collector: Option<&icd_obs::Collector>,
        presented: usize,
        stats: &VolumeRunStats,
    ) {
        let Some(c) = collector else { return };
        let _active = c.install_local();
        let count = |name: &'static str, v: usize| {
            icd_obs::counter(name, v as u64, Stability::Stable);
        };
        count("volume.devices_total", presented + stats.devices_skipped);
        count("volume.devices_diagnosed", stats.devices_diagnosed);
        count("volume.devices_escaped", stats.devices_escaped);
        count("volume.devices_failed", stats.devices_failed);
        count("volume.devices_skipped", stats.devices_skipped);
        count(
            "volume.snapshot_tables_loaded",
            stats.snapshot_tables_loaded,
        );
        count("volume.snapshot_tables_saved", stats.snapshot_tables_saved);
        count("volume.root_causes", stats.root_causes);
        // The warm-cache payoff in one number: table derivations this
        // run. Timing-stability because two workers racing a cold cell
        // can both count a miss.
        icd_obs::counter(
            "volume.table_misses",
            stats.table_misses as u64,
            Stability::Timing,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{synthesize_population, PopulationConfig};
    use crate::report::RootCauseKind;
    use icd_netlist::generator;
    use std::path::Path;

    fn ctx() -> Arc<ExperimentContext> {
        Arc::new(ExperimentContext::from_preset(&generator::circuit_a(), 16, 12).unwrap())
    }

    fn inputs_from(
        ctx: &ExperimentContext,
        devices: usize,
        seed: u64,
    ) -> (Vec<VolumeInput>, String) {
        let population = synthesize_population(ctx, &PopulationConfig::new(devices, seed)).unwrap();
        let inputs = population
            .datalogs
            .iter()
            .enumerate()
            .map(|(i, d)| VolumeInput {
                name: format!("device-{i:03}.log"),
                datalog: d.clone(),
            })
            .collect();
        (inputs, population.planted.gate_name)
    }

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("icd-volume-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn planted_is_top(report: &VolumeReport, planted: &str) -> bool {
        matches!(
            report.root_causes.first().map(|rc| &rc.kind),
            Some(RootCauseKind::Gate { name, .. }) if name == planted
        )
    }

    #[test]
    fn planted_root_cause_ranks_first() {
        let ctx = ctx();
        let (inputs, planted) = inputs_from(&ctx, 8, 0xcafe);
        let run = VolumeRun::new(
            Arc::clone(&ctx),
            VolumeOptions {
                workers: 2,
                ..VolumeOptions::default()
            },
        );
        let outcome = run.execute(&inputs, 0, None).unwrap();
        assert!(
            planted_is_top(&outcome.report, &planted),
            "expected planted gate {planted} on top of {:?}",
            outcome.report.root_causes.first()
        );
        assert_eq!(outcome.report.devices_total, 8);
        assert!(outcome.report.devices_diagnosed > 0);
        // Per-device latency rides along in input order, one entry per
        // presented device, and diagnosed devices did measurable work.
        assert_eq!(outcome.device_latency.len(), 8);
        for (i, (name, _)) in outcome.device_latency.iter().enumerate() {
            assert_eq!(name, &inputs[i].name);
        }
        assert!(outcome.device_latency.iter().any(|(_, us)| *us > 0));
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let ctx = ctx();
        let (inputs, _) = inputs_from(&ctx, 6, 0xbeef);
        let json_at = |workers: usize| {
            let run = VolumeRun::new(
                Arc::clone(&ctx),
                VolumeOptions {
                    workers,
                    ..VolumeOptions::default()
                },
            );
            run.execute(&inputs, 0, None).unwrap().report.to_json()
        };
        let one = json_at(1);
        assert_eq!(one, json_at(3));
    }

    #[test]
    fn second_run_restores_the_snapshot_and_skips_derivations() {
        let ctx = ctx();
        let (inputs, _) = inputs_from(&ctx, 4, 0xd00d);
        let cache_dir = temp_cache("warm");
        let run = |dir: &Path| {
            let planner = VolumeRun::new(
                Arc::clone(&ctx),
                VolumeOptions {
                    workers: 1,
                    cache_dir: Some(dir.to_path_buf()),
                    ..VolumeOptions::default()
                },
            );
            planner.execute(&inputs, 0, None).unwrap()
        };
        let cold = run(&cache_dir);
        assert_eq!(cold.stats.snapshot_tables_loaded, 0);
        assert!(cold.stats.snapshot_tables_saved > 0);
        assert!(cold.stats.table_misses > 0, "cold run derives tables");

        let warm = run(&cache_dir);
        assert_eq!(
            warm.stats.snapshot_tables_loaded,
            cold.stats.snapshot_tables_saved
        );
        assert_eq!(warm.stats.table_misses, 0, "warm run derives nothing");
        // Cache temperature must not leak into the report.
        assert_eq!(cold.report.to_json(), warm.report.to_json());
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn skipped_devices_degrade_coverage_not_the_run() {
        let ctx = ctx();
        let (inputs, _) = inputs_from(&ctx, 4, 0xf00d);
        let run = VolumeRun::new(Arc::clone(&ctx), VolumeOptions::default());
        let collector = icd_obs::Collector::new();
        let outcome = run.execute(&inputs, 2, Some(&collector)).unwrap();
        assert_eq!(outcome.report.devices_skipped, 2);
        assert_eq!(outcome.report.devices_total, 6);
        assert!(outcome.report.coverage_permille < 1000);
        let snap = collector.snapshot();
        assert_eq!(snap.counters["volume.devices_skipped"].0, 2);
        assert_eq!(snap.counters["volume.devices_total"].0, 6);
    }
}
