//! Synthetic multi-device populations with a planted systematic root
//! cause — the ground-truth input for volume-diagnosis accuracy tests
//! and `icdiag gen --devices N --defect-rate R`.
//!
//! A systematic defect (a layout hotspot, a marginal via) reproduces on
//! the *same* gate across a fraction of the failing population, while
//! the rest of the population fails for unrelated random reasons. The
//! synthesizer plants exactly that: one fixed excitable defect appearing
//! on `defect_rate` permille of devices (spread evenly, not clustered),
//! background defects drawn from the rest of the pool on the others, and
//! a mix of devices carrying the planted defect *plus* a background one
//! — volume diagnosis must rank the planted gate first without any
//! assumption on how the remaining failures distribute.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use icd_defects::{sample_defects, MixConfig};
use icd_engine::flow::{ExperimentContext, FlowError};
use icd_faultsim::{run_test_multi, Datalog, FaultyGate};
use icd_netlist::GateId;

/// How a planted population is composed.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Devices to synthesize.
    pub devices: usize,
    /// Fraction of devices carrying the planted defect, in permille.
    pub defect_rate_permille: u32,
    /// Master seed; the population is a pure function of it.
    pub seed: u64,
    /// Defect samples drawn per cell type for the background pool.
    pub samples_per_cell: usize,
    /// Every n-th planted device also carries a background defect
    /// (0 = never) — the "no assumption on failing patterns" stressor.
    pub multi_defect_every: usize,
}

impl PopulationConfig {
    /// A population of `devices` devices with the default composition:
    /// three quarters carry the planted defect, every third of those
    /// also carries a background defect.
    pub fn new(devices: usize, seed: u64) -> Self {
        PopulationConfig {
            devices,
            defect_rate_permille: 750,
            seed,
            samples_per_cell: 4,
            multi_defect_every: 3,
        }
    }
}

/// The planted systematic defect — the ground truth a volume run is
/// measured against.
#[derive(Debug, Clone)]
pub struct PlantedDefect {
    /// The defective gate instance.
    pub gate: GateId,
    /// Its instance name.
    pub gate_name: String,
    /// Its cell type.
    pub cell: String,
}

/// A synthesized device population.
#[derive(Debug, Clone)]
pub struct Population {
    /// One failing datalog per device, in device order.
    pub datalogs: Vec<Datalog>,
    /// The planted systematic defect.
    pub planted: PlantedDefect,
    /// How many devices carry the planted defect.
    pub planted_devices: usize,
}

fn mix_seed(seed: u64, name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// Builds the observable defect pool over the circuit's cell population
/// (stuck/bridge classes only, like the batch synthesizer).
fn defect_pool(
    ctx: &ExperimentContext,
    config: &PopulationConfig,
) -> Result<Vec<FaultyGate>, FlowError> {
    let mix = MixConfig {
        stuck: 0.6,
        bridge: 0.4,
        delay: 0.0,
        ..MixConfig::default()
    };
    let mut pool: Vec<FaultyGate> = Vec::new();
    for cell in ctx.cells.iter() {
        let instances = ctx.instances_of(cell.name());
        if instances.is_empty() {
            continue;
        }
        let sample = sample_defects(
            cell.netlist(),
            config.samples_per_cell,
            &mix,
            mix_seed(config.seed, cell.name()),
        )?;
        for (k, injected) in sample.iter().enumerate() {
            let Some(behavior) = injected.characterization.behavior.clone() else {
                continue;
            };
            let gate = instances[k % instances.len()];
            pool.push(FaultyGate::new(gate, behavior));
        }
    }
    Ok(pool)
}

/// Whether device `i` of the population carries the planted defect under
/// `rate` permille — an even Bresenham spread, so planted devices are
/// interleaved with background ones instead of clustered at the front.
fn is_planted(i: usize, rate: u32) -> bool {
    let rate = u64::from(rate.min(1000));
    ((i as u64 + 1) * rate) / 1000 != (i as u64 * rate) / 1000
}

/// Synthesizes a population with one planted systematic root cause.
///
/// Deterministic in `(ctx, config)`. Every returned datalog fails at
/// least one pattern. The population may be shorter than
/// `config.devices` when the circuit's defect pool cannot excite enough
/// failing devices, but the planted defect itself is always excitable —
/// [`FlowError::NotObservable`] is returned when no pool candidate
/// produces a failing datalog at all.
///
/// # Errors
///
/// Returns an error when defect sampling or tester emulation fails
/// structurally, or when nothing in the pool is excitable.
pub fn synthesize_population(
    ctx: &ExperimentContext,
    config: &PopulationConfig,
) -> Result<Population, FlowError> {
    let pool = defect_pool(ctx, config)?;

    // The planted defect: the first pool candidate the test set excites.
    let mut planted: Option<(FaultyGate, Datalog)> = None;
    for candidate in &pool {
        let datalog = run_test_multi(&ctx.circuit, &ctx.patterns, std::slice::from_ref(candidate))?;
        if !datalog.all_pass() {
            planted = Some((candidate.clone(), datalog));
            break;
        }
    }
    let Some((planted_fault, planted_datalog)) = planted else {
        return Err(FlowError::NotObservable);
    };
    let background: Vec<&FaultyGate> = pool
        .iter()
        .filter(|f| f.gate != planted_fault.gate)
        .collect();

    let mut datalogs = Vec::with_capacity(config.devices);
    let mut planted_devices = 0usize;
    let mut planted_seen = 0usize;
    for i in 0..config.devices {
        if is_planted(i, config.defect_rate_permille) {
            planted_seen += 1;
            let multi = config.multi_defect_every > 0
                && !background.is_empty()
                && planted_seen.is_multiple_of(config.multi_defect_every);
            let mut faulty = vec![planted_fault.clone()];
            if multi {
                faulty.push(background[(i * 7) % background.len()].clone());
            }
            let datalog = run_test_multi(&ctx.circuit, &ctx.patterns, &faulty)?;
            // A background defect can in principle mask the planted one
            // back to all-pass; fall back to the planted defect alone so
            // the device stays in the failing population.
            if datalog.all_pass() {
                datalogs.push(planted_datalog.clone());
            } else {
                datalogs.push(datalog);
            }
            planted_devices += 1;
        } else {
            // A background-only device: first excitable candidate,
            // cycling from a device-dependent offset.
            let mut found = false;
            for k in 0..background.len() {
                let candidate = background[(i * 13 + k) % background.len()];
                let datalog =
                    run_test_multi(&ctx.circuit, &ctx.patterns, std::slice::from_ref(candidate))?;
                if !datalog.all_pass() {
                    datalogs.push(datalog);
                    found = true;
                    break;
                }
            }
            if !found {
                // No excitable background defect: keep the population at
                // full size with another planted device rather than
                // silently shrinking it.
                datalogs.push(planted_datalog.clone());
                planted_devices += 1;
            }
        }
    }

    Ok(Population {
        datalogs,
        planted: PlantedDefect {
            gate: planted_fault.gate,
            gate_name: ctx.circuit.gate_name(planted_fault.gate),
            cell: ctx.circuit.gate_type(planted_fault.gate).name().to_owned(),
        },
        planted_devices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_netlist::generator;
    use std::sync::Arc;

    fn ctx() -> Arc<ExperimentContext> {
        Arc::new(ExperimentContext::from_preset(&generator::circuit_a(), 16, 12).unwrap())
    }

    #[test]
    fn bresenham_spread_matches_rate() {
        let planted = (0..1000).filter(|&i| is_planted(i, 750)).count();
        assert_eq!(planted, 750);
        let planted = (0..8).filter(|&i| is_planted(i, 500)).count();
        assert_eq!(planted, 4);
        assert!(!is_planted(0, 500), "rate 500 alternates starting pass");
        assert!(is_planted(1, 500));
        assert_eq!((0..64).filter(|&i| is_planted(i, 0)).count(), 0);
        assert_eq!((0..64).filter(|&i| is_planted(i, 1000)).count(), 64);
    }

    #[test]
    fn population_is_deterministic_and_all_failing() {
        let ctx = ctx();
        let cfg = PopulationConfig::new(8, 0x90b);
        let a = synthesize_population(&ctx, &cfg).unwrap();
        let b = synthesize_population(&ctx, &cfg).unwrap();
        assert_eq!(a.datalogs.len(), 8);
        assert_eq!(a.planted.gate, b.planted.gate);
        assert_eq!(a.planted_devices, b.planted_devices);
        assert!(a.planted_devices >= 4, "most devices carry the plant");
        for (x, y) in a.datalogs.iter().zip(&b.datalogs) {
            assert_eq!(x, y);
            assert!(!x.all_pass());
        }
    }

    #[test]
    fn zero_rate_still_fills_the_population() {
        let ctx = ctx();
        let mut cfg = PopulationConfig::new(4, 0x5eed);
        cfg.defect_rate_permille = 0;
        let p = synthesize_population(&ctx, &cfg).unwrap();
        assert_eq!(p.datalogs.len(), 4);
        for d in &p.datalogs {
            assert!(!d.all_pass());
        }
    }
}
