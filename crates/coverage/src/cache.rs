//! The LRU coordinate→cost cache (paper Fig. 13a).
//!
//! MIRAGE queries decomposition costs for the same handful of coordinate
//! classes over and over (every CNOT in a circuit shares one class), so the
//! paper adds a software lookup table in front of the polytope membership
//! scan. This is that table: keys are quantized Weyl coordinates, values are
//! costs; eviction is least-recently-used.
//!
//! Two kinds of entries live side by side:
//!
//! * **Coordinate entries** — the pure decomposition cost of a class in the
//!   basis. These depend only on the coverage set and never go stale.
//! * **Edge entries** — the class cost *scaled by one coupler's calibrated
//!   duration factor* (`Target::gate_cost_on`). These depend on calibration
//!   data, which a long-lived serving process refreshes in place, so every
//!   edge entry is tagged with the **epoch** it was computed under. A
//!   calibration swap advances the cache's epoch
//!   ([`SharedCostCache::advance_epoch`]) and entries from older epochs are
//!   treated as misses and recomputed — a warm cache can never serve a
//!   stale per-edge cost.

use mirage_weyl::coords::WeylCoord;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Cache key: a quantized coordinate class, optionally scoped to one
/// undirected coupler. Coordinate-only entries use the sentinel
/// [`NO_EDGE`].
type Key = (u16, u16, u16, u32, u32);

/// The edge slot of coordinate-only entries.
const NO_EDGE: (u32, u32) = (u32::MAX, u32::MAX);

/// Epoch tag of entries that are valid forever (pure coordinate costs).
const EPOCH_ANY: u64 = u64::MAX;

fn key_for(w: &WeylCoord, edge: (u32, u32)) -> Key {
    let (a, b, c) = w.quantized();
    (a, b, c, edge.0, edge.1)
}

/// Normalize an undirected coupler into its key slot. Qubit indices above
/// `u32::MAX − 1` would collide with [`NO_EDGE`]; no physical device gets
/// anywhere near that, but saturate defensively.
fn edge_key(a: usize, b: usize) -> (u32, u32) {
    let clamp = |q: usize| u32::try_from(q).unwrap_or(u32::MAX - 1).min(u32::MAX - 1);
    let (a, b) = (clamp(a), clamp(b));
    (a.min(b), a.max(b))
}

/// A bounded least-recently-used cache from quantized coordinates (plain,
/// or scoped to a coupler and epoch-tagged) to cost.
#[derive(Debug)]
pub struct CostCache {
    capacity: usize,
    /// value, LRU clock, epoch tag ([`EPOCH_ANY`] for coordinate entries).
    map: HashMap<Key, (f64, u64, u64)>,
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
        self.lookup(key_for(w, NO_EDGE), EPOCH_ANY, f)
    }

    /// Look up a coordinate scoped to the coupler `(a, b)` at `epoch`, or
    /// compute-and-insert through `f`. An entry from a different epoch is a
    /// miss: its slot is recomputed and re-tagged, so calibration-dependent
    /// costs cached before a swap are never served after it.
    pub fn get_or_insert_edge_with<F: FnOnce() -> f64>(
        &mut self,
        w: &WeylCoord,
        a: usize,
        b: usize,
        epoch: u64,
        f: F,
    ) -> f64 {
        self.lookup(key_for(w, edge_key(a, b)), epoch, f)
    }

    /// Hit-path probe for an edge entry: on a current-epoch hit, count the
    /// hit, refresh the LRU clock, and return the value. A miss (absent or
    /// stale) records nothing — the caller computes the value without
    /// holding this cache and completes the miss via
    /// [`CostCache::insert_edge`].
    pub fn touch_edge(&mut self, w: &WeylCoord, a: usize, b: usize, epoch: u64) -> Option<f64> {
        self.clock += 1;
        let entry = self.map.get_mut(&key_for(w, edge_key(a, b)))?;
        if entry.2 != epoch {
            return None;
        }
        entry.1 = self.clock;
        self.hits += 1;
        Some(entry.0)
    }

    /// Complete a [`CostCache::touch_edge`] miss: count it and store the
    /// computed value under `epoch` (overwriting a stale entry in place).
    pub fn insert_edge(&mut self, w: &WeylCoord, a: usize, b: usize, epoch: u64, v: f64) {
        self.clock += 1;
        self.misses += 1;
        let key = key_for(w, edge_key(a, b));
        if let Some(entry) = self.map.get_mut(&key) {
            *entry = (v, self.clock, epoch);
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_oldest();
        }
        self.map.insert(key, (v, self.clock, epoch));
    }

    fn lookup<F: FnOnce() -> f64>(&mut self, key: Key, epoch: u64, f: F) -> f64 {
        self.clock += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            if entry.2 == epoch {
                entry.1 = self.clock;
                self.hits += 1;
                return entry.0;
            }
            // Stale epoch: recompute in place (no eviction needed).
            self.misses += 1;
            let v = f();
            *entry = (v, self.clock, epoch);
            return v;
        }
        self.misses += 1;
        let v = f();
        if self.map.len() >= self.capacity {
            self.evict_oldest();
        }
        self.map.insert(key, (v, self.clock, epoch));
        v
    }

    /// Look up without inserting.
    pub fn peek(&self, w: &WeylCoord) -> Option<f64> {
        self.map.get(&key_for(w, NO_EDGE)).map(|e| e.0)
    }

    /// Look up an edge-scoped entry without inserting; stale epochs report
    /// `None` exactly as [`CostCache::get_or_insert_edge_with`] would miss.
    pub fn peek_edge(&self, w: &WeylCoord, a: usize, b: usize, epoch: u64) -> Option<f64> {
        self.map
            .get(&key_for(w, edge_key(a, b)))
            .filter(|e| e.2 == epoch)
            .map(|e| e.0)
    }

    fn evict_oldest(&mut self) {
        if let Some((&key, _)) = self.map.iter().min_by_key(|(_, (_, t, _))| *t) {
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
/// sharing never changes results. Edge-scoped entries additionally depend
/// on calibration data and are epoch-tagged: a calibration swap calls
/// [`SharedCostCache::advance_epoch`] and every entry computed before it
/// becomes a miss (see the [module docs](self)).
#[derive(Debug)]
pub struct SharedCostCache {
    shards: Vec<Mutex<CostCache>>,
    /// Current calibration epoch; edge-scoped entries from older epochs
    /// are never served.
    epoch: AtomicU64,
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
            epoch: AtomicU64::new(0),
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
    /// another thread — the lock traffic the per-worker
    /// [`CostMemo`] exists to remove.
    pub fn contention(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// The current calibration epoch. Edge-scoped entries are only served
    /// when their tag matches this value.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advance the calibration epoch, invalidating every edge-scoped entry
    /// in place (coordinate-only entries are calibration-independent and
    /// survive). Returns the new epoch. Callers must publish the new
    /// calibration data *before* advancing, so a reader that observes the
    /// new epoch can only recompute against the new data.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: Key) -> &Mutex<CostCache> {
        // An inlined SplitMix64 finalizer over the packed key fields. The
        // router's mirror decision consults this cache twice per routed 2Q
        // gate, and shard choice only needs a stable, well-spread index —
        // the std `DefaultHasher` (SipHash-1-3 behind a heap of state
        // setup) was measurable on that path. Shard assignment is
        // distribution-only: every shard is an equivalent cache, so values
        // and results are unaffected.
        let (a, b, c, ea, eb) = key;
        let mut z = (u64::from(a) | (u64::from(b) << 16) | (u64::from(c) << 32))
            ^ u64::from(ea).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(eb)
                .rotate_left(32)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
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
        self.lock_shard(self.shard_for(key_for(w, NO_EDGE)))
            .get_or_insert_with(w, f)
    }

    /// Look up a coordinate scoped to the coupler `(a, b)` at the current
    /// epoch, or compute-and-insert through `f`. Entries tagged with an
    /// older epoch (a calibration that has since been swapped out) are
    /// recomputed, never served.
    ///
    /// Unlike [`SharedCostCache::get_or_insert_with`], `f` runs **without**
    /// the shard lock held — it is allowed to query this same cache (the
    /// coordinate-class entry its value derives from may share a shard with
    /// the edge entry). Concurrent misses of one key may compute `f` more
    /// than once; values are pure, so the duplicates agree.
    pub fn get_or_insert_edge_with<F: FnOnce() -> f64>(
        &self,
        w: &WeylCoord,
        a: usize,
        b: usize,
        f: F,
    ) -> f64 {
        // Epoch first: if a swap lands between this load and `f`, the entry
        // is tagged with the pre-swap epoch and discarded on next lookup.
        let epoch = self.epoch();
        self.get_or_insert_edge_at(w, a, b, epoch, f)
    }

    /// [`SharedCostCache::get_or_insert_edge_with`] against a
    /// caller-supplied epoch — the seeding read of a per-worker
    /// [`CostMemo`], which loads the epoch once and tags its own entry and
    /// the shared entry coherently. `epoch` must come from
    /// [`SharedCostCache::epoch`] on this same cache; a stale value is
    /// harmless (the entry is discarded on the next current-epoch lookup)
    /// but wastes the slot.
    pub fn get_or_insert_edge_at<F: FnOnce() -> f64>(
        &self,
        w: &WeylCoord,
        a: usize,
        b: usize,
        epoch: u64,
        f: F,
    ) -> f64 {
        let shard = self.shard_for(key_for(w, edge_key(a, b)));
        if let Some(v) = self.lock_shard(shard).touch_edge(w, a, b, epoch) {
            return v;
        }
        let v = f();
        self.lock_shard(shard).insert_edge(w, a, b, epoch, v);
        v
    }

    /// Look up without inserting.
    pub fn peek(&self, w: &WeylCoord) -> Option<f64> {
        self.lock_shard(self.shard_for(key_for(w, NO_EDGE))).peek(w)
    }

    /// Look up an edge-scoped entry at the current epoch without inserting.
    pub fn peek_edge(&self, w: &WeylCoord, a: usize, b: usize) -> Option<f64> {
        let epoch = self.epoch();
        self.lock_shard(self.shard_for(key_for(w, edge_key(a, b))))
            .peek_edge(w, a, b, epoch)
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

/// An unsynchronized `(coordinate class, edge) → cost` memo in front of a
/// [`SharedCostCache`] — one per routing worker, so the router's mirror
/// decision stops taking two sharded-mutex locks per routed 2Q gate.
///
/// Every entry is a value the shared cache answered (or would answer) at
/// one calibration epoch: the memo records that epoch and clears itself
/// whenever a query arrives under a newer one, so a calibration swap
/// invalidates it exactly like the epoch-tagged shared cache — a memo that
/// outlives the swap (pooled inside a `RouterScratch`) can never serve a
/// cost priced under a replaced calibration. Values are pure functions of
/// `(class, edge, calibration)`, so memoization never changes results:
/// hits return bit-identical numbers to the fall-through path.
///
/// Unlike [`CostCache`] the memo is unbounded and un-LRU'd: a worker only
/// ever sees the coordinate classes of the circuits it routes (a handful
/// per circuit), and clearing on epoch change bounds its lifetime.
#[derive(Debug, Default)]
pub struct CostMemo {
    map: HashMap<Key, f64>,
    /// The epoch every resident entry was computed under.
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl CostMemo {
    /// An empty memo (equivalent to `Default`).
    pub fn new() -> CostMemo {
        CostMemo::default()
    }

    /// Look up the cost of class `w` on coupler `(a, b)` at `epoch`, or
    /// compute-and-insert through `f` (which should read the shared
    /// cache). A query under a different epoch first drops every resident
    /// entry — they were priced under a calibration that is no longer
    /// current from this worker's point of view.
    pub fn get_or_insert_edge_with<F: FnOnce() -> f64>(
        &mut self,
        w: &WeylCoord,
        a: usize,
        b: usize,
        epoch: u64,
        f: F,
    ) -> f64 {
        self.lookup(key_for(w, edge_key(a, b)), epoch, f)
    }

    /// Look up the coupler-independent cost of class `w`, or
    /// compute-and-insert through `f` (which should read the shared
    /// cache). These values never go stale, but they share the memo's
    /// epoch rule: a query under a new epoch still clears the memo first.
    pub fn get_or_insert_with<F: FnOnce() -> f64>(
        &mut self,
        w: &WeylCoord,
        epoch: u64,
        f: F,
    ) -> f64 {
        self.lookup(key_for(w, NO_EDGE), epoch, f)
    }

    fn lookup<F: FnOnce() -> f64>(&mut self, key: Key, epoch: u64, f: F) -> f64 {
        if self.epoch != epoch {
            self.map.clear();
            self.epoch = epoch;
        }
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses += 1;
                *e.insert(f())
            }
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized (fresh, or just invalidated).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` counters since construction (epoch invalidation
    /// does not reset them).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
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
    fn edge_entries_are_keyed_per_coupler() {
        let cache = SharedCostCache::new(64);
        let w = WeylCoord::CNOT;
        // Same class, different couplers: independent entries.
        assert_eq!(cache.get_or_insert_edge_with(&w, 0, 1, || 1.0), 1.0);
        assert_eq!(cache.get_or_insert_edge_with(&w, 1, 2, || 10.0), 10.0);
        assert_eq!(cache.get_or_insert_edge_with(&w, 0, 1, || 99.0), 1.0);
        // Endpoint order is irrelevant.
        assert_eq!(cache.get_or_insert_edge_with(&w, 1, 0, || 99.0), 1.0);
        // Edge entries never alias the coordinate-only entry.
        assert!(cache.peek(&w).is_none());
        assert_eq!(cache.peek_edge(&w, 0, 1), Some(1.0));
        assert_eq!(cache.peek_edge(&w, 2, 1), Some(10.0));
    }

    #[test]
    fn advancing_the_epoch_invalidates_edge_entries_only() {
        let cache = SharedCostCache::new(64);
        let w = WeylCoord::SWAP;
        cache.get_or_insert_with(&w, || 1.5);
        cache.get_or_insert_edge_with(&w, 0, 1, || 3.0);
        assert_eq!(cache.epoch(), 0);
        assert_eq!(cache.advance_epoch(), 1);
        // The stale edge entry is a miss and recomputes with the new value;
        // the coordinate entry is calibration-independent and survives.
        assert!(cache.peek_edge(&w, 0, 1).is_none(), "stale epoch served");
        assert_eq!(cache.get_or_insert_edge_with(&w, 0, 1, || 30.0), 30.0);
        assert_eq!(cache.get_or_insert_with(&w, || 99.0), 1.5);
        // And the recomputed entry is a hit at the new epoch.
        assert_eq!(cache.get_or_insert_edge_with(&w, 0, 1, || 99.0), 30.0);
    }

    #[test]
    fn edge_miss_may_query_the_same_shard_reentrantly() {
        // The edge-entry closure derives its value from the coordinate
        // entry, which can live on the very same shard (guaranteed here by
        // using one shard). The miss path must not hold the shard lock
        // while computing.
        let cache = SharedCostCache::with_shards(64, 1);
        let w = WeylCoord::CNOT;
        let v =
            cache.get_or_insert_edge_with(&w, 0, 1, || 2.0 * cache.get_or_insert_with(&w, || 1.0));
        assert_eq!(v, 2.0);
        assert_eq!(cache.peek(&w), Some(1.0));
        assert_eq!(cache.peek_edge(&w, 0, 1), Some(2.0));
    }

    #[test]
    fn memo_hits_without_touching_the_shared_cache() {
        let shared = SharedCostCache::new(64);
        let mut memo = CostMemo::new();
        let w = WeylCoord::CNOT;
        let epoch = shared.epoch();
        let through = |memo: &mut CostMemo| {
            memo.get_or_insert_edge_with(&w, 0, 1, epoch, || {
                shared.get_or_insert_edge_at(&w, 0, 1, epoch, || 2.5)
            })
        };
        assert_eq!(through(&mut memo), 2.5);
        let shared_queries_after_seed = {
            let (h, m) = shared.stats();
            h + m
        };
        for _ in 0..10 {
            assert_eq!(through(&mut memo), 2.5);
        }
        let (h, m) = shared.stats();
        assert_eq!(
            h + m,
            shared_queries_after_seed,
            "memo hits must not query the shared cache"
        );
        assert_eq!(memo.stats(), (10, 1));
        assert_eq!(memo.len(), 1);
        assert!(!memo.is_empty());
    }

    #[test]
    fn memo_endpoint_order_and_classes_match_shared_keying() {
        let mut memo = CostMemo::new();
        let w = WeylCoord::CNOT;
        let v = WeylCoord::ISWAP;
        assert_eq!(memo.get_or_insert_edge_with(&w, 0, 1, 0, || 1.0), 1.0);
        // Endpoint order is irrelevant; distinct classes and couplers are
        // distinct entries — same normalization as the shared cache.
        assert_eq!(memo.get_or_insert_edge_with(&w, 1, 0, 0, || 99.0), 1.0);
        assert_eq!(memo.get_or_insert_edge_with(&v, 0, 1, 0, || 2.0), 2.0);
        assert_eq!(memo.get_or_insert_edge_with(&w, 1, 2, 0, || 3.0), 3.0);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn memo_epoch_change_drops_every_entry() {
        let mut memo = CostMemo::new();
        let w = WeylCoord::SWAP;
        assert_eq!(memo.get_or_insert_edge_with(&w, 0, 1, 0, || 1.5), 1.5);
        assert_eq!(memo.get_or_insert_edge_with(&w, 1, 2, 0, || 2.5), 2.5);
        assert_eq!(memo.len(), 2);
        // New epoch: both entries are stale and must recompute.
        assert_eq!(memo.get_or_insert_edge_with(&w, 0, 1, 1, || 15.0), 15.0);
        assert_eq!(memo.len(), 1, "stale entries dropped, new one resident");
        assert_eq!(memo.get_or_insert_edge_with(&w, 1, 2, 1, || 25.0), 25.0);
        // And the new-epoch entries are ordinary hits afterwards.
        assert_eq!(memo.get_or_insert_edge_with(&w, 0, 1, 1, || 99.0), 15.0);
    }

    #[test]
    fn memo_class_entries_are_separate_from_edge_entries() {
        let mut memo = CostMemo::new();
        let w = WeylCoord::SWAP;
        assert_eq!(memo.get_or_insert_with(&w, 0, || 1.5), 1.5);
        assert_eq!(memo.get_or_insert_edge_with(&w, 0, 1, 0, || 4.5), 4.5);
        assert_eq!(memo.get_or_insert_with(&w, 0, || 99.0), 1.5);
        assert_eq!(memo.stats(), (1, 2));
        // The epoch rule applies to class entries too.
        assert_eq!(memo.get_or_insert_with(&w, 1, || 2.0), 2.0);
        assert_eq!(memo.len(), 1);
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

    #[test]
    fn stale_edge_entry_recomputes_in_place_without_eviction() {
        let mut cache = CostCache::new(2);
        let w = WeylCoord::CNOT;
        let v = WeylCoord::ISWAP;
        cache.get_or_insert_edge_with(&w, 0, 1, 0, || 1.0);
        cache.get_or_insert_with(&v, || 2.0);
        assert_eq!(cache.len(), 2);
        // Epoch moves on: the stale slot is overwritten, not grown past
        // capacity, and the unrelated coordinate entry stays resident.
        assert_eq!(cache.get_or_insert_edge_with(&w, 0, 1, 1, || 5.0), 5.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.peek(&v), Some(2.0));
        assert_eq!(cache.peek_edge(&w, 0, 1, 1), Some(5.0));
        assert!(cache.peek_edge(&w, 0, 1, 0).is_none());
    }
}
