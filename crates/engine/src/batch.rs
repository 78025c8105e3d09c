//! Synthetic failing-device batches — the input side of the engine's
//! benches, the determinism tests and `icdiag gen`.
//!
//! A volume-diagnosis batch is many devices failing the *same* test set
//! on the *same* design. This module builds such a batch by sampling
//! observable defects over the circuit's cell population and emulating
//! the tester per device, mixing single- and multi-defect devices with no
//! assumption on how the failing patterns distribute over the defects.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use icd_defects::{sample_defects, MixConfig};
use icd_faultsim::{run_test_multi, Datalog, FaultyGate};

use crate::flow::{ExperimentContext, FlowError};

/// How a synthesized batch is composed.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Devices in the batch.
    pub count: usize,
    /// Every n-th device carries two simultaneous defects (0 = never).
    pub multi_defect_every: usize,
    /// Defect samples drawn per cell type.
    pub samples_per_cell: usize,
    /// Master seed; every derived sample is a pure function of it.
    pub seed: u64,
}

impl BatchConfig {
    /// A batch of `count` devices with the default composition: every
    /// third device is a two-defect device.
    pub fn new(count: usize, seed: u64) -> Self {
        BatchConfig {
            count,
            multi_defect_every: 3,
            samples_per_cell: 4,
            seed,
        }
    }
}

fn mix_seed(seed: u64, name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// Synthesizes a batch of failing-device datalogs against `ctx`.
///
/// Deterministic in the configuration: the same `ctx` and [`BatchConfig`]
/// always produce the same datalogs. Every returned datalog has at least
/// one failing pattern (all-pass candidates are skipped — a test escape
/// never reaches volume diagnosis). The batch may be shorter than
/// `config.count` when the circuit's defect population cannot excite
/// enough distinct failing devices.
///
/// # Errors
///
/// Returns an error when defect sampling or tester emulation fails
/// structurally.
pub fn synthesize_batch(
    ctx: &ExperimentContext,
    config: &BatchConfig,
) -> Result<Vec<Datalog>, FlowError> {
    // The fault pool: every observable stuck/bridge-class sampled defect
    // on every instance of its cell type. Delay-class defects are left
    // out: their excitation depends on pattern pairing and would make
    // batch size vary wildly with the test set.
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
            // Spread the samples over the instance population instead of
            // piling every defect onto instance 0.
            let gate = instances[k % instances.len()];
            pool.push(FaultyGate::new(gate, behavior));
        }
    }
    if pool.is_empty() {
        return Ok(Vec::new());
    }

    let mut batch = Vec::with_capacity(config.count);
    // Excitation is not guaranteed per candidate; budget a bounded number
    // of attempts beyond the requested count.
    let attempts = config.count.saturating_mul(8).max(pool.len());
    for attempt in 0..attempts {
        if batch.len() >= config.count {
            break;
        }
        let first = pool[attempt % pool.len()].clone();
        let mut faulty = vec![first];
        let multi =
            config.multi_defect_every > 0 && (batch.len() + 1) % config.multi_defect_every == 0;
        if multi {
            // A second defect from the other end of the pool, on a
            // different gate (run_test_multi rejects duplicates).
            let second = pool
                .iter()
                .cycle()
                .skip((attempt * 7 + pool.len() / 2) % pool.len())
                .take(pool.len())
                .find(|f| f.gate != faulty[0].gate)
                .cloned();
            if let Some(second) = second {
                faulty.push(second);
            }
        }
        let datalog = run_test_multi(&ctx.circuit, &ctx.patterns, &faulty)?;
        if !datalog.all_pass() {
            batch.push(datalog);
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_netlist::generator;

    #[test]
    fn batch_is_deterministic_and_excited() {
        let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 1, 25).unwrap();
        let cfg = BatchConfig::new(6, 0xb47c);
        let a = synthesize_batch(&ctx, &cfg).unwrap();
        let b = synthesize_batch(&ctx, &cfg).unwrap();
        assert_eq!(a, b, "same seed, same batch");
        assert!(!a.is_empty());
        assert!(a.iter().all(|d| !d.all_pass()));
    }
}
