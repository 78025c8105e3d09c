//! Shared, thread-safe memoization of per-cell-type diagnosis artifacts.
//!
//! Intra-cell diagnosis re-derives two expensive, *defect-independent*
//! artifacts for every suspected gate: the cell's exhaustive switch-level
//! truth table and, per local vector, the critical-path-tracing outcome
//! ([`transistor_cpt`]). Both depend only on the cell **type** and the
//! applied vector — never on the gate instance — so a batch engine that
//! analyzes hundreds of suspects of a handful of cell types can populate
//! them once and share them across worker threads.
//!
//! The cache is safe to share by `&` reference (all interior mutability is
//! shard-guarded), cheap when cold (failures are returned, not cached) and
//! strictly transparent: a cached outcome is the same value the uncached
//! call would produce, so diagnosis results are byte-identical with and
//! without a cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use icd_logic::{Lv, PackedEval, TruthTable};
use icd_switch::{CellNetlist, TruthTableCache};

use crate::{transistor_cpt, CoreError, CptOutcome};

/// Number of CPT shards; keyed by (cell, vector) the key space is much
/// larger than the cell count, so use more shards than the table cache.
const CPT_SHARDS: usize = 16;

type CptShard = Mutex<HashMap<(String, Vec<Lv>), Arc<CptOutcome>>>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Counters of one cache family, for throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: usize,
    /// Lookups that had to compute.
    pub misses: usize,
}

impl CacheStats {
    /// Fraction of lookups served from memory (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe cache of per-cell-type truth tables and per-(cell,
/// vector) critical-path-tracing outcomes.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    tables: TruthTableCache,
    cpt: [CptShard; CPT_SHARDS],
    cpt_hits: AtomicUsize,
    cpt_misses: AtomicUsize,
    packed: Mutex<HashMap<String, Arc<PackedEval>>>,
    packed_hits: AtomicUsize,
    packed_misses: AtomicUsize,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// The cell's exhaustive truth table, derived once per cell type.
    ///
    /// # Errors
    ///
    /// Propagates the switch-level derivation error; failures are not
    /// cached.
    pub fn truth_table(&self, cell: &CellNetlist) -> Result<Arc<TruthTable>, CoreError> {
        Ok(self.tables.truth_table(cell)?)
    }

    /// The CPT outcome of `inputs` on `cell`, traced once per (cell type,
    /// vector) pair.
    ///
    /// # Errors
    ///
    /// Propagates [`transistor_cpt`]'s errors; failures are not cached.
    pub fn cpt(&self, cell: &CellNetlist, inputs: &[Lv]) -> Result<Arc<CptOutcome>, CoreError> {
        let mut h = DefaultHasher::new();
        cell.name().hash(&mut h);
        inputs.hash(&mut h);
        let shard = &self.cpt[(h.finish() as usize) % CPT_SHARDS];
        let key = (cell.name().to_owned(), inputs.to_vec());
        if let Some(o) = lock(shard).get(&key) {
            self.cpt_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(o));
        }
        // Trace outside the lock; a concurrent duplicate trace of the same
        // (deterministic) outcome is cheaper than serializing the shard.
        self.cpt_misses.fetch_add(1, Ordering::Relaxed);
        let outcome = Arc::new(transistor_cpt(cell, inputs)?);
        lock(shard).insert(key, Arc::clone(&outcome));
        Ok(outcome)
    }

    /// The cell's [`PackedEval`] bit-parallel evaluator, compiled once
    /// per cell type from the (also cached) exhaustive truth table.
    ///
    /// # Errors
    ///
    /// Propagates the switch-level truth-table derivation error; failures
    /// are not cached.
    pub fn packed_eval(&self, cell: &CellNetlist) -> Result<Arc<PackedEval>, CoreError> {
        let mut packed = lock(&self.packed);
        if let Some(e) = packed.get(cell.name()) {
            self.packed_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(e));
        }
        // Compile under the lock, once per cell type: concurrent cold
        // lookups then make exactly one truth-table lookup between them,
        // so `cache.table.lookups` does not depend on scheduling.
        self.packed_misses.fetch_add(1, Ordering::Relaxed);
        let table = self.truth_table(cell)?;
        let eval = Arc::new(PackedEval::from_table(&table));
        packed.insert(cell.name().to_owned(), Arc::clone(&eval));
        Ok(eval)
    }

    /// Seeds the truth-table cache with an already-derived table (a
    /// snapshot restore — see `icd-volume`'s on-disk snapshot format).
    /// Preloads count as neither hit nor miss, so a warm run whose cells
    /// were all preloaded reports zero table misses.
    pub fn preload_table(&self, name: &str, table: Arc<TruthTable>) {
        self.tables.preload(name, table);
    }

    /// Every cached `(cell name, truth table)` pair, sorted by name —
    /// what a snapshot writer persists.
    pub fn table_snapshot(&self) -> Vec<(String, Arc<TruthTable>)> {
        self.tables.snapshot()
    }

    /// Truth-table cache counters.
    pub fn table_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.tables.hits(),
            misses: self.tables.misses(),
        }
    }

    /// CPT cache counters.
    pub fn cpt_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cpt_hits.load(Ordering::Relaxed),
            misses: self.cpt_misses.load(Ordering::Relaxed),
        }
    }

    /// Packed-evaluator cache counters.
    pub fn packed_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.packed_hits.load(Ordering::Relaxed),
            misses: self.packed_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached CPT outcomes.
    pub fn cpt_len(&self) -> usize {
        self.cpt.iter().map(|s| lock(s).len()).sum()
    }

    /// Records both cache families' counters into the installed
    /// [`icd_obs`] collector (no-op when none is): truth tables as
    /// `cache.table.*` (via [`TruthTableCache::observe`]), CPT traces as
    /// `cache.cpt.*`. Lookup totals are scheduling-stable; hit/miss
    /// splits are timing-class (cold-key races).
    pub fn observe(&self) {
        self.tables.observe();
        let cpt = self.cpt_stats();
        icd_obs::counter(
            "cache.cpt.lookups",
            (cpt.hits + cpt.misses) as u64,
            icd_obs::Stability::Stable,
        );
        icd_obs::counter(
            "cache.cpt.hits",
            cpt.hits as u64,
            icd_obs::Stability::Timing,
        );
        icd_obs::counter(
            "cache.cpt.misses",
            cpt.misses as u64,
            icd_obs::Stability::Timing,
        );
        let packed = self.packed_stats();
        icd_obs::counter(
            "cache.packed.lookups",
            (packed.hits + packed.misses) as u64,
            icd_obs::Stability::Stable,
        );
        icd_obs::counter(
            "cache.packed.hits",
            packed.hits as u64,
            icd_obs::Stability::Timing,
        );
        icd_obs::counter(
            "cache.packed.misses",
            packed.misses as u64,
            icd_obs::Stability::Timing,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_cells::CellLibrary;

    #[test]
    fn cpt_cache_is_transparent() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let cache = AnalysisCache::new();
        let inputs = vec![Lv::One, Lv::Zero, Lv::Zero];
        let cached = cache.cpt(cell, &inputs).unwrap();
        let direct = transistor_cpt(cell, &inputs).unwrap();
        assert_eq!(cached.suspects, direct.suspects);
        assert_eq!(cached.trace, direct.trace);
        // Second lookup is a hit on the same allocation.
        let again = cache.cpt(cell, &inputs).unwrap();
        assert!(Arc::ptr_eq(&cached, &again));
        assert_eq!(cache.cpt_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.cpt_len(), 1);
    }

    #[test]
    fn cpt_errors_are_not_cached() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let cache = AnalysisCache::new();
        assert!(cache.cpt(cell, &[Lv::One]).is_err());
        assert_eq!(cache.cpt_len(), 0);
    }

    #[test]
    fn default_cache_serves_cpt_and_packed_lookups() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let cache = AnalysisCache::default();
        let inputs = vec![Lv::One, Lv::Zero, Lv::Zero];
        let cached = cache.cpt(cell, &inputs).unwrap();
        assert_eq!(
            cached.suspects,
            transistor_cpt(cell, &inputs).unwrap().suspects
        );
        let packed = cache.packed_eval(cell).unwrap();
        assert_eq!(
            *packed,
            PackedEval::from_table(&cell.truth_table().unwrap())
        );
        assert_eq!(cache.cpt_len(), 1);
    }

    #[test]
    fn observe_exports_hand_counted_cpt_counters() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let cache = AnalysisCache::new();
        let a = vec![Lv::One, Lv::Zero, Lv::Zero];
        let b = vec![Lv::Zero, Lv::One, Lv::One];
        // Hand-counted: misses on the two cold vectors, then 3 hits.
        cache.cpt(cell, &a).unwrap();
        cache.cpt(cell, &b).unwrap();
        for _ in 0..3 {
            cache.cpt(cell, &a).unwrap();
        }
        // One cold truth-table derivation and one hit.
        cache.truth_table(cell).unwrap();
        cache.truth_table(cell).unwrap();

        let collector = icd_obs::Collector::new();
        {
            let _active = collector.install_local();
            cache.observe();
        }
        let snap = collector.snapshot();
        assert_eq!(snap.counters["cache.cpt.lookups"].0, 5);
        assert_eq!(snap.counters["cache.cpt.hits"].0, 3);
        assert_eq!(snap.counters["cache.cpt.misses"].0, 2);
        assert_eq!(snap.counters["cache.table.lookups"].0, 2);
        assert_eq!(snap.counters["cache.table.hits"].0, 1);
        assert_eq!(snap.counters["cache.table.misses"].0, 1);
        // The lookup totals survive redaction; the splits do not.
        let redacted = snap.redacted();
        assert_eq!(redacted.counters["cache.cpt.lookups"].0, 5);
        assert_eq!(redacted.counters["cache.cpt.hits"].0, 0);
    }

    #[test]
    fn packed_eval_is_cached_and_transparent() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let cache = AnalysisCache::new();
        let eval = cache.packed_eval(cell).unwrap();
        // Same value a cold compile would produce.
        assert_eq!(*eval, PackedEval::from_table(&cell.truth_table().unwrap()));
        // Second lookup is a hit on the same allocation and does not
        // touch the truth-table cache again.
        let tables_before = cache.table_stats();
        let again = cache.packed_eval(cell).unwrap();
        assert!(Arc::ptr_eq(&eval, &again));
        assert_eq!(cache.table_stats(), tables_before);
        assert_eq!(cache.packed_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn racing_cold_packed_lookups_make_the_serial_table_lookups() {
        const THREADS: usize = 8;
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let serial = AnalysisCache::new();
        for _ in 0..THREADS {
            serial.packed_eval(cell).unwrap();
        }
        let lookups = |stats: CacheStats| stats.hits + stats.misses;
        for _ in 0..10 {
            let cache = AnalysisCache::new();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        start.wait();
                        cache.packed_eval(cell).unwrap();
                    });
                }
            });
            assert_eq!(lookups(cache.table_stats()), lookups(serial.table_stats()));
            assert_eq!(cache.packed_stats(), serial.packed_stats());
        }
    }

    #[test]
    fn preloaded_tables_serve_without_a_miss() {
        let cells = CellLibrary::standard();
        let cell = cells.get("AO7SVTX1").unwrap().netlist();
        let warm = AnalysisCache::new();
        warm.truth_table(cell).unwrap();
        let snapshot = warm.table_snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].0, "AO7SVTX1");

        let cold = AnalysisCache::new();
        for (name, table) in snapshot {
            cold.preload_table(&name, table);
        }
        let table = cold.truth_table(cell).unwrap();
        assert_eq!(*table, cell.truth_table().unwrap());
        assert_eq!(cold.table_stats(), CacheStats { hits: 1, misses: 0 });
        // The packed evaluator compiles from the preloaded table too —
        // still no table miss.
        cold.packed_eval(cell).unwrap();
        assert_eq!(cold.table_stats().misses, 0);
    }

    #[test]
    fn hit_rate_counts() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
