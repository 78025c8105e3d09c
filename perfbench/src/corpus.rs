//! Seeded ground-truth corpora: lots of failing devices, each lot a
//! population around one planted systematic defect, with every device's
//! injected gates recorded so the benchmark can score the daemon's
//! answers.
//!
//! A lot is composed exactly as `icd_volume::synthesize_population`
//! composes one (same defect pool, same planted choice, same background
//! cycling; the unit tests pin the datalogs byte for byte), with the
//! planted share fixed at [`PLANTED_PERMILLE`]. That function does not
//! say which background defect each device got, so the composition is
//! repeated here with the injected gates kept. The daemon only ever sees
//! the datalog texts; the ground truth stays on the benchmark's side.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use icd_bench::flow::ExperimentContext;
use icd_defects::{sample_defects, MixConfig};
use icd_faultsim::{datalog_text, run_test_multi, Datalog, FaultyGate};
use icd_netlist::GateId;

/// Share of each lot's devices carrying the planted defect, in permille.
pub const PLANTED_PERMILLE: u32 = 250;
/// Every n-th planted device also carries a background defect.
pub const MULTI_DEFECT_EVERY: usize = 3;
/// Defect behaviours sampled per cell type (the population default).
const SAMPLES_PER_CELL: usize = 4;

/// One failing device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Datalog file name, as a tester would write it.
    pub name: String,
    /// The datalog text the daemon receives.
    pub text: String,
    /// The parsed datalog (the in-process reference's input).
    pub datalog: Datalog,
    /// Gates whose defects were injected into this device.
    pub injected: Vec<GateId>,
    /// Whether the lot's planted defect is among them.
    pub planted: bool,
}

/// One lot: a device population around one planted defect.
#[derive(Debug, Clone)]
pub struct Lot {
    /// The devices, in generation order.
    pub devices: Vec<Device>,
    /// The planted systematic defect's gate.
    pub planted_gate: GateId,
}

/// The lots a workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The lots, in generation order.
    pub lots: Vec<Lot>,
}

impl Corpus {
    /// Every device of every lot, lot by lot.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.lots.iter().flat_map(|l| l.devices.iter())
    }

    /// Total devices.
    pub fn len(&self) -> usize {
        self.lots.iter().map(|l| l.devices.len()).sum()
    }

    /// Share of devices satisfying `pred`.
    pub fn share(&self, pred: impl Fn(&Device) -> bool) -> f64 {
        self.devices().filter(|d| pred(d)).count() as f64 / self.len().max(1) as f64
    }

    /// Mean failing patterns per datalog.
    pub fn mean_failing_patterns(&self) -> f64 {
        let total: usize = self.devices().map(|d| d.datalog.entries.len()).sum();
        total as f64 / self.len().max(1) as f64
    }
}

/// The population generator's per-cell sampling seed.
fn mix_seed(seed: u64, name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// The seed of lot `lot` of a corpus generated from `seed`.
fn lot_seed(seed: u64, lot: usize) -> u64 {
    mix_seed(seed, &format!("lot-{lot}"))
}

/// Whether device `i` carries the planted defect: an even spread of
/// [`PLANTED_PERMILLE`], interleaved with background devices.
fn is_planted(i: usize) -> bool {
    let rate = u64::from(PLANTED_PERMILLE);
    ((i as u64 + 1) * rate) / 1000 != (i as u64 * rate) / 1000
}

/// The observable stuck/bridge defect pool over the circuit's cells.
fn defect_pool(ctx: &ExperimentContext, seed: u64) -> Result<Vec<FaultyGate>, String> {
    let mix = MixConfig {
        stuck: 0.6,
        bridge: 0.4,
        delay: 0.0,
        ..MixConfig::default()
    };
    let mut pool = Vec::new();
    for cell in ctx.cells.iter() {
        let instances = ctx.instances_of(cell.name());
        if instances.is_empty() {
            continue;
        }
        let sample = sample_defects(
            cell.netlist(),
            SAMPLES_PER_CELL,
            &mix,
            mix_seed(seed, cell.name()),
        )
        .map_err(|e| format!("sampling defects of {}: {e}", cell.name()))?;
        for (k, injected) in sample.into_iter().enumerate() {
            if let Some(behavior) = injected.characterization.behavior {
                pool.push(FaultyGate::new(instances[k % instances.len()], behavior));
            }
        }
    }
    Ok(pool)
}

/// Generates one lot of `devices` failing devices from `seed`; device
/// names carry `prefix`.
///
/// # Errors
///
/// Defect sampling or tester emulation failures, or a pool the test set
/// cannot excite at all.
pub fn generate_lot(
    ctx: &ExperimentContext,
    seed: u64,
    devices: usize,
    prefix: &str,
) -> Result<Lot, String> {
    let test = |faulty: &[FaultyGate]| {
        run_test_multi(&ctx.circuit, &ctx.patterns, faulty)
            .map_err(|e| format!("tester emulation: {e}"))
    };
    let pool = defect_pool(ctx, seed)?;
    let mut planted = None;
    for candidate in &pool {
        let datalog = test(std::slice::from_ref(candidate))?;
        if !datalog.all_pass() {
            planted = Some((candidate.clone(), datalog));
            break;
        }
    }
    let (plant, plant_datalog) = planted.ok_or("no pool defect is excited by the test set")?;
    let background: Vec<&FaultyGate> = pool.iter().filter(|f| f.gate != plant.gate).collect();

    let mut out = Vec::with_capacity(devices);
    let mut planted_seen = 0usize;
    for i in 0..devices {
        let mut chosen: Option<(Vec<GateId>, Datalog)> = None;
        if is_planted(i) {
            planted_seen += 1;
            let mut faulty = vec![plant.clone()];
            if !background.is_empty() && planted_seen.is_multiple_of(MULTI_DEFECT_EVERY) {
                faulty.push(background[(i * 7) % background.len()].clone());
            }
            let datalog = test(&faulty)?;
            // A background defect can mask the planted one back to
            // all-pass; the device then carries the plant alone.
            chosen = Some(if datalog.all_pass() {
                (vec![plant.gate], plant_datalog.clone())
            } else {
                (faulty.iter().map(|f| f.gate).collect(), datalog)
            });
        } else {
            for k in 0..background.len() {
                let candidate = background[(i * 13 + k) % background.len()];
                let datalog = test(std::slice::from_ref(candidate))?;
                if !datalog.all_pass() {
                    chosen = Some((vec![candidate.gate], datalog));
                    break;
                }
            }
        }
        // No excitable background defect: the device carries the plant.
        let (injected, datalog) =
            chosen.unwrap_or_else(|| (vec![plant.gate], plant_datalog.clone()));
        out.push(Device {
            name: format!("{prefix}device-{i:03}.log"),
            text: datalog_text::write(&datalog),
            planted: injected.contains(&plant.gate),
            injected,
            datalog,
        });
    }
    Ok(Lot {
        devices: out,
        planted_gate: plant.gate,
    })
}

/// Generates `lots` lots of `lot_size` devices from `seed`.
///
/// # Errors
///
/// As [`generate_lot`].
pub fn generate(
    ctx: &ExperimentContext,
    seed: u64,
    lots: usize,
    lot_size: usize,
) -> Result<Corpus, String> {
    let lots = (0..lots)
        .map(|l| generate_lot(ctx, lot_seed(seed, l), lot_size, &format!("lot{l:02}-")))
        .collect::<Result<_, _>>()?;
    Ok(Corpus { lots })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_netlist::generator;
    use icd_volume::{synthesize_population, PopulationConfig};

    #[test]
    fn lots_match_the_population_generator() {
        let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 16, 12).unwrap();
        for seed in [3u64, 0x90b] {
            let lot = generate_lot(&ctx, seed, 12, "").unwrap();
            let mut cfg = PopulationConfig::new(12, seed);
            cfg.defect_rate_permille = PLANTED_PERMILLE;
            let population = synthesize_population(&ctx, &cfg).unwrap();
            assert_eq!(lot.planted_gate, population.planted.gate);
            let ours: Vec<&Datalog> = lot.devices.iter().map(|d| &d.datalog).collect();
            let theirs: Vec<&Datalog> = population.datalogs.iter().collect();
            assert_eq!(ours, theirs);
            let planted = lot.devices.iter().filter(|d| d.planted).count();
            assert_eq!(planted, population.planted_devices);
        }
    }

    #[test]
    fn ground_truth_is_recorded_and_seeded() {
        let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 16, 12).unwrap();
        let a = generate(&ctx, 7, 2, 12).unwrap();
        let b = generate(&ctx, 7, 2, 12).unwrap();
        let c = generate(&ctx, 8, 2, 12).unwrap();
        let texts = |c: &Corpus| c.devices().map(|d| d.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        assert_eq!(a.len(), 24);
        for d in a.devices() {
            assert!(!d.datalog.all_pass());
            assert!(!d.injected.is_empty());
            assert_eq!(datalog_text::parse(&d.text).unwrap(), d.datalog);
        }
        assert!(
            a.devices().any(|d| d.injected.len() == 2),
            "multi-defect devices"
        );
    }
}
