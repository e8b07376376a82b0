//! The LRU coordinate→cost cache (paper Fig. 13a).
//!
//! MIRAGE queries decomposition costs for the same handful of coordinate
//! classes over and over (every CNOT in a circuit shares one class), so the
//! paper adds a software lookup table in front of the polytope membership
//! scan. This is that table: keys are quantized Weyl coordinates, values are
//! costs; eviction is least-recently-used.
//!
//! Every entry is the pure decomposition cost of a class in the basis. It
//! depends only on the coverage set, never on calibration data, so an entry
//! never goes stale: a calibration swap leaves the cache warm. Per-coupler
//! prices are this class cost times the coupler's calibrated duration
//! factor, computed by the caller from a calibration snapshot
//! (`Target::gate_cost_on`), and are not cached.

use mirage_weyl::coords::WeylCoord;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Cache key: a quantized coordinate class.
type Key = (u16, u16, u16);

/// A bounded least-recently-used cache from quantized coordinates to cost.
#[derive(Debug)]
pub struct CostCache {
    capacity: usize,
    /// value, LRU clock.
    map: HashMap<Key, (f64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CostCache {
    /// Create a cache holding at most `capacity` coordinate classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> CostCache {
        assert!(capacity > 0, "cache capacity must be positive");
        CostCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a coordinate, or compute-and-insert through `f`.
    pub fn get_or_insert_with<F: FnOnce() -> f64>(&mut self, w: &WeylCoord, f: F) -> f64 {
        self.clock += 1;
        let key = w.quantized();
        if let Some(entry) = self.map.get_mut(&key) {
            entry.1 = self.clock;
            self.hits += 1;
            return entry.0;
        }
        self.misses += 1;
        let v = f();
        if self.map.len() >= self.capacity {
            self.evict_oldest();
        }
        self.map.insert(key, (v, self.clock));
        v
    }

    /// Look up without inserting.
    pub fn peek(&self, w: &WeylCoord) -> Option<f64> {
        self.map.get(&w.quantized()).map(|e| e.0)
    }

    fn evict_oldest(&mut self) {
        if let Some((&key, _)) = self.map.iter().min_by_key(|(_, (_, t))| *t) {
            self.map.remove(&key);
        }
    }

    /// Number of cached classes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe sharded wrapper over [`CostCache`].
///
/// One instance is shared by every routing trial, refinement pass, and
/// metric computation of a transpile call (and across calls, when the
/// caller reuses its `Target`), replacing the per-call caches the seed
/// constructed in each pipeline branch. Keys are spread over independently
/// locked shards so parallel layout trials don't serialize on one mutex;
/// cached coordinate costs are pure functions of the coordinate class, so
/// sharing never changes results.
#[derive(Debug)]
pub struct SharedCostCache {
    shards: Vec<Mutex<CostCache>>,
    /// Shard-lock acquisitions that found the lock already held (a
    /// `try_lock` failed and the caller had to block). Zero-cost when
    /// unread: the counter is only touched on the contended path, which
    /// already pays for a futex wait.
    contended: AtomicU64,
}

impl SharedCostCache {
    /// Upper bound on the automatically chosen shard count — beyond this,
    /// extra mutexes only add memory, not concurrency.
    pub const MAX_DEFAULT_SHARDS: usize = 64;

    /// The default shard count: one per available hardware thread (the
    /// number of routing trials that can actually contend at once), clamped
    /// to `[1, MAX_DEFAULT_SHARDS]`. Falls back to 16 when the platform
    /// cannot report its parallelism.
    pub fn default_shard_count() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(16)
            .clamp(1, Self::MAX_DEFAULT_SHARDS)
    }

    /// Create a sharded cache holding roughly `capacity` coordinate classes
    /// in total, with [`SharedCostCache::default_shard_count`] shards.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> SharedCostCache {
        SharedCostCache::with_shards(capacity, Self::default_shard_count())
    }

    /// Create a sharded cache with an explicit shard count (the contention
    /// micro-bench sweeps this; capacity-limited callers get fewer shards so
    /// a capacity-1 cache really does hold a single class — the runtime
    /// figure relies on this to emulate uncached behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `shards == 0`.
    pub fn with_shards(capacity: usize, shards: usize) -> SharedCostCache {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(shards > 0, "shard count must be positive");
        let n_shards = capacity.min(shards);
        let per_shard = capacity.div_ceil(n_shards);
        SharedCostCache {
            shards: (0..n_shards)
                .map(|_| Mutex::new(CostCache::new(per_shard)))
                .collect(),
            contended: AtomicU64::new(0),
        }
    }

    /// Acquire a shard lock, counting the acquisition as contended when a
    /// `try_lock` probe finds the lock already held. The probe is free on
    /// the uncontended fast path; the blocking fallback only runs when the
    /// caller was going to wait anyway.
    fn lock_shard<'a>(&self, shard: &'a Mutex<CostCache>) -> MutexGuard<'a, CostCache> {
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("cache shard poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }

    /// Shard-lock acquisitions since construction that had to wait for
    /// another thread.
    pub fn contention(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, w: &WeylCoord) -> &Mutex<CostCache> {
        // An inlined SplitMix64 finalizer over the packed key fields: shard
        // choice only needs a stable, well-spread index, not SipHash.
        // Shard assignment is distribution-only: every shard is an
        // equivalent cache, so values and results are unaffected.
        let (a, b, c) = w.quantized();
        let mut z = u64::from(a) | (u64::from(b) << 16) | (u64::from(c) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        &self.shards[(z % self.shards.len() as u64) as usize]
    }

    /// Look up a coordinate, or compute-and-insert through `f`.
    ///
    /// `f` runs while the shard lock is held, so concurrent queries of one
    /// class compute at most once per shard residence.
    pub fn get_or_insert_with<F: FnOnce() -> f64>(&self, w: &WeylCoord, f: F) -> f64 {
        self.lock_shard(self.shard_for(w)).get_or_insert_with(w, f)
    }

    /// Look up without inserting.
    pub fn peek(&self, w: &WeylCoord) -> Option<f64> {
        self.lock_shard(self.shard_for(w)).peek(w)
    }

    /// Total cached classes across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_shard(s).len()).sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate `(hits, misses)` counters across shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).stats())
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }

    /// Aggregate hit rate in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_math::PI_4;

    #[test]
    fn cache_hit_on_repeat() {
        let mut cache = CostCache::new(16);
        let w = WeylCoord::CNOT;
        let mut calls = 0;
        for _ in 0..5 {
            let v = cache.get_or_insert_with(&w, || {
                calls += 1;
                1.0
            });
            assert_eq!(v, 1.0);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats(), (4, 1));
    }

    #[test]
    fn nearby_coordinates_share_an_entry() {
        let mut cache = CostCache::new(16);
        let w1 = WeylCoord::canonicalize(PI_4, 0.0, 0.0);
        let w2 = WeylCoord::canonicalize(PI_4 + 1e-9, 1e-10, 0.0);
        cache.get_or_insert_with(&w1, || 2.0);
        let v = cache.get_or_insert_with(&w2, || 99.0);
        assert_eq!(v, 2.0, "quantization should merge the keys");
    }

    #[test]
    fn eviction_keeps_capacity() {
        let mut cache = CostCache::new(4);
        for i in 0..20 {
            let w = WeylCoord::canonicalize(0.01 * i as f64, 0.0, 0.0);
            cache.get_or_insert_with(&w, || i as f64);
        }
        assert!(cache.len() <= 4);
    }

    #[test]
    fn lru_evicts_oldest_not_newest() {
        let mut cache = CostCache::new(2);
        let a = WeylCoord::canonicalize(0.1, 0.0, 0.0);
        let b = WeylCoord::canonicalize(0.2, 0.0, 0.0);
        let c = WeylCoord::canonicalize(0.3, 0.0, 0.0);
        cache.get_or_insert_with(&a, || 1.0);
        cache.get_or_insert_with(&b, || 2.0);
        cache.get_or_insert_with(&a, || 1.0); // refresh a
        cache.get_or_insert_with(&c, || 3.0); // evicts b
        assert!(cache.peek(&a).is_some());
        assert!(cache.peek(&b).is_none());
        assert!(cache.peek(&c).is_some());
    }

    #[test]
    fn hit_rate_reporting() {
        let mut cache = CostCache::new(8);
        assert_eq!(cache.hit_rate(), 0.0);
        let w = WeylCoord::ISWAP;
        cache.get_or_insert_with(&w, || 1.0);
        cache.get_or_insert_with(&w, || 1.0);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert!(!cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        CostCache::new(0);
    }

    #[test]
    fn shared_cache_hits_across_threads() {
        let cache = SharedCostCache::new(64);
        let w = WeylCoord::CNOT;
        assert_eq!(cache.get_or_insert_with(&w, || 2.0), 2.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Inserted once above: every thread must observe a hit.
                    assert_eq!(cache.get_or_insert_with(&w, || 99.0), 2.0);
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 4);
        assert!((cache.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn shared_cache_spreads_over_shards() {
        let cache = SharedCostCache::with_shards(16 * 8, 16);
        assert_eq!(cache.shard_count(), 16);
        for i in 0..200 {
            let w = WeylCoord::canonicalize(0.007 * i as f64, 0.0, 0.0);
            cache.get_or_insert_with(&w, || i as f64);
        }
        // Per-shard LRU capacity bounds the total.
        assert!(cache.len() <= 16 * 8);
        assert!(cache.len() > 8, "keys should not all collapse to one shard");
    }

    #[test]
    fn shard_count_defaults_to_available_parallelism() {
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(16)
            .clamp(1, SharedCostCache::MAX_DEFAULT_SHARDS);
        assert_eq!(SharedCostCache::default_shard_count(), expected);
        // Capacity still caps the shard count; explicit counts are honored.
        assert_eq!(SharedCostCache::new(4096).shard_count(), expected.min(4096));
        assert_eq!(SharedCostCache::with_shards(4096, 2).shard_count(), 2);
        assert_eq!(SharedCostCache::with_shards(3, 64).shard_count(), 3);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        SharedCostCache::with_shards(8, 0);
    }

    #[test]
    fn shared_cache_peek() {
        let cache = SharedCostCache::new(8);
        let w = WeylCoord::ISWAP;
        assert!(cache.peek(&w).is_none());
        cache.get_or_insert_with(&w, || 1.5);
        assert_eq!(cache.peek(&w), Some(1.5));
    }

    #[test]
    fn capacity_one_holds_a_single_class() {
        // A capacity-1 shared cache collapses to one single-entry shard,
        // so every new class evicts the previous one.
        let cache = SharedCostCache::new(1);
        let a = WeylCoord::canonicalize(0.1, 0.0, 0.0);
        let b = WeylCoord::canonicalize(0.2, 0.0, 0.0);
        cache.get_or_insert_with(&a, || 1.0);
        cache.get_or_insert_with(&b, || 2.0);
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(&a).is_none(), "a must have been evicted");
        assert_eq!(cache.peek(&b), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn shared_zero_capacity_panics() {
        SharedCostCache::new(0);
    }

    #[test]
    fn contention_counter_records_blocked_acquisitions() {
        // Uncontended use never increments the counter.
        let cache = SharedCostCache::with_shards(64, 1);
        let w = WeylCoord::CNOT;
        for _ in 0..10 {
            cache.get_or_insert_with(&w, || 1.0);
        }
        assert_eq!(cache.contention(), 0, "uncontended path must stay free");
        // Forced contention: hold the only shard's lock while another
        // thread queries — its try_lock must fail and be counted.
        let guard = cache.lock_shard(&cache.shards[0]);
        std::thread::scope(|s| {
            let t = s.spawn(|| cache.get_or_insert_with(&w, || 99.0));
            while cache.contention() == 0 {
                std::thread::yield_now();
            }
            drop(guard);
            assert_eq!(t.join().expect("query thread"), 1.0);
        });
        assert!(cache.contention() >= 1);
    }
}
