//! Capped exponential backoff with seeded jitter for transient failures.
//!
//! The daemon retries exactly two failure classes, both genuinely
//! transient: *queue-full* admission refusals ([`JobError::Busy`])
//! and *contained worker panics* (the chaos harness injects these on
//! purpose; a real one is a bug that a retry on different data layout
//! often dodges). Everything else — malformed datalogs, front-stage flow
//! errors, expired deadlines — is permanent and fails fast.
//!
//! Jitter is drawn from the same SplitMix64 generator the fault-injection
//! layer uses ([`icd_faultsim::NoiseRng`]), so a seeded soak run makes
//! reproducible backoff decisions.
//!
//! [`JobError::Busy`]: icd_engine::JobError::Busy

use std::time::Duration;

use icd_faultsim::NoiseRng;

/// Shape of one retry schedule: `base * 2^attempt`, capped, then
/// jittered down by up to half.
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// Budget of *re*-tries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Ceiling on any single delay (pre-jitter).
    pub cap: Duration,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            max_retries: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
        }
    }
}

impl BackoffConfig {
    /// The jittered delay before retry number `attempt` (0-based), or
    /// `None` once the budget is spent. The jitter subtracts up to half
    /// the capped delay so synchronized clients decorrelate.
    pub fn delay(&self, attempt: u32, rng: &mut NoiseRng) -> Option<Duration> {
        if attempt >= self.max_retries {
            return None;
        }
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.cap);
        let micros = capped.as_micros() as u64;
        let jittered = micros - rng.below((micros / 2 + 1) as usize) as u64;
        Some(Duration::from_micros(jittered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_up_to_the_cap() {
        let cfg = BackoffConfig {
            max_retries: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(50),
        };
        let mut rng = NoiseRng::new(1);
        let delays: Vec<Duration> = (0..6)
            .map(|a| cfg.delay(a, &mut rng).expect("within budget"))
            .collect();
        // Jitter subtracts at most half: every delay sits in
        // [capped/2, capped].
        for (attempt, d) in delays.iter().enumerate() {
            let capped = (cfg.base * (1 << attempt as u32)).min(cfg.cap);
            assert!(*d <= capped, "attempt {attempt}: {d:?} > {capped:?}");
            assert!(
                *d >= capped / 2,
                "attempt {attempt}: {d:?} < {:?}",
                capped / 2
            );
        }
        assert!(cfg.delay(6, &mut rng).is_none(), "budget exhausted");
    }

    #[test]
    fn zero_budget_fails_fast() {
        let cfg = BackoffConfig {
            max_retries: 0,
            ..BackoffConfig::default()
        };
        assert!(cfg.delay(0, &mut NoiseRng::new(7)).is_none());
    }

    #[test]
    fn seeded_jitter_is_reproducible() {
        let cfg = BackoffConfig::default();
        let a: Vec<_> = {
            let mut rng = NoiseRng::new(42);
            (0..4).map(|i| cfg.delay(i, &mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = NoiseRng::new(42);
            (0..4).map(|i| cfg.delay(i, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        let cfg = BackoffConfig {
            max_retries: u32::MAX,
            ..BackoffConfig::default()
        };
        let mut rng = NoiseRng::new(3);
        let d = cfg.delay(40, &mut rng).expect("within budget");
        assert!(d <= cfg.cap);
    }
}
