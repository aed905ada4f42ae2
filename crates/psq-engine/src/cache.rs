//! Memoised search results: the serving layer's second cache.
//!
//! The planner's [`crate::planner::PlanCache`] memoises *schedules* — shared
//! by every job with the same `(N, K, ε)` shape. This module memoises whole
//! *results*: every backend runner is a pure function of the deterministic
//! job spec (that is the engine's reproducibility contract), so a repeated
//! job — within a batch or across batches — can skip execution entirely.
//!
//! The cache key is the full deterministic input of a run:
//! `(n, k, target-key, error_target, trials, seed, backend)`. For the
//! reduced backend the target key is the job's *block index* rather than the
//! exact address — the reduced dynamics and the block sampler only see the
//! block, so any two targets in the same block produce identical results and
//! share an entry (this is the `(n, k, target-block, seed, backend)` key of
//! the design note, widened with the fields the other backends genuinely
//! depend on: state-vector and circuit measurements walk the exact per-
//! address CDF, and the classical scans' probe counts depend on the exact
//! target position, so those backends key on the full address).
//!
//! Storage is sharded: `SHARD_COUNT` independent `parking_lot::RwLock`
//! maps, picked by key hash, so concurrent workers mostly touch different
//! locks and lookups take only a read lock. Hit/miss/eviction counters are
//! surfaced through [`crate::metrics::BatchMetrics`].
//!
//! Capacity is enforced per shard with a **second-chance clock**: every
//! resident key sits in a ring, a hit flags its entry as referenced (an
//! atomic store under the read lock), and an insert into a full shard sweeps
//! the clock hand — clearing referenced flags as it passes — until it finds
//! an unreferenced victim to replace. Long-lived serving processes therefore
//! keep a warm working set instead of freezing on whatever filled the shard
//! first (the pre-eviction behaviour was to refuse inserts when full).
//! Entries never expire: a result is a pure function of its key, so a
//! cached one never goes stale, and the capacity alone bounds memory.

use crate::spec::{Backend, SearchJob, SearchResult};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of independently locked shards (power of two).
const SHARD_COUNT: usize = 16;

/// Default bound on stored results across all shards; see
/// [`ResultCache::with_capacity`].
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 1 << 16;

/// The deterministic inputs of one job execution (see module docs). Exposed
/// crate-internally so the executor can deduplicate repeats *within* one
/// batch before they reach the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    n: u64,
    k: u64,
    /// Exact target address, except on the reduced backend where it is the
    /// target's block index (coarser, safely — see module docs).
    target_key: u64,
    /// Bit pattern of the job's error target (`f64::to_bits`).
    error_bits: u64,
    trials: u32,
    seed: u64,
    backend: Backend,
    /// Bit patterns of the job's effective noise rates, `None` for the ideal
    /// dynamics — so an explicit all-zero spec shares its entry with the
    /// noiseless twin, and any non-ideal spec keys separately.
    noise: Option<[u64; 3]>,
}

impl CacheKey {
    pub(crate) fn new(job: &SearchJob, backend: Backend) -> Self {
        let target_key = match backend {
            // One entry serves every target in the block.
            Backend::Reduced => job.target / (job.n / job.k),
            // The ideal sparse dynamics are block-symmetric too (the class
            // evolution and the block sampler only see the block), but noisy
            // sparse trajectories pin exact addresses on depolarizing
            // collapses, so they key on the full address like the dense
            // trajectories do.
            Backend::Sparse if job.effective_noise().is_none() => job.target / (job.n / job.k),
            _ => job.target,
        };
        Self {
            n: job.n,
            k: job.k,
            target_key,
            error_bits: job.error_target.to_bits(),
            trials: job.trials,
            seed: job.seed,
            backend,
            noise: job.effective_noise().map(|spec| spec.key_words()),
        }
    }

    fn shard(&self) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() as usize) % SHARD_COUNT
    }
}

/// Cumulative cache statistics, exposed through batch metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResultCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
    /// Results currently stored.
    pub entries: u64,
    /// Resident results displaced by the second-chance clock to make room
    /// for new ones (zero until a shard fills).
    pub evictions: u64,
}

/// One resident result plus its second-chance referenced flag (set on hit
/// under the shard's read lock, cleared by the sweeping clock hand).
struct Entry {
    result: SearchResult,
    referenced: AtomicBool,
}

/// One lock's worth of the cache: the map plus the clock ring that orders
/// its keys for eviction. `ring` always holds exactly `map`'s key set.
struct Shard {
    map: HashMap<CacheKey, Entry>,
    ring: Vec<CacheKey>,
    hand: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
        }
    }

    /// Second-chance victim selection: advance the hand, clearing referenced
    /// flags, until an unreferenced key comes up. Terminates within two
    /// sweeps (the first pass clears every flag in the worst case).
    fn evict_one(&mut self) -> CacheKey {
        loop {
            let candidate = self.ring[self.hand];
            let entry = self
                .map
                .get(&candidate)
                .expect("ring keys are always resident");
            if entry.referenced.swap(false, Ordering::Relaxed) {
                self.hand = (self.hand + 1) % self.ring.len();
            } else {
                self.map.remove(&candidate);
                return candidate;
            }
        }
    }
}

/// Sharded memoised `deterministic job spec → SearchResult` map (see module
/// docs). Safe to share across executor workers.
pub struct ResultCache {
    shards: Vec<RwLock<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Per-shard entry bound (total capacity divided across shards).
    shard_capacity: usize,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RESULT_CACHE_CAPACITY)
    }
}

impl ResultCache {
    /// An empty cache bounded to roughly `capacity` stored results.
    ///
    /// The bound is enforced per shard: once a shard is full, each insert of
    /// a new key displaces one resident entry chosen by the second-chance
    /// clock (recently hit entries get a pass; see module docs), so a
    /// long-lived process keeps the warm part of its working set.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(Shard::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
        }
    }

    /// Looks up the result a previous execution produced for this job on
    /// `backend`. On a hit the stored result is re-stamped with the asking
    /// job's id and a zero wall time (the serving cost of a hit is the
    /// lookup itself); every deterministic field is returned exactly as the
    /// original execution produced it.
    pub fn lookup(&self, job: &SearchJob, backend: Backend) -> Option<SearchResult> {
        self.lookup_with_key(&CacheKey::new(job, backend), job.id)
    }

    /// Key-based form of [`ResultCache::lookup`] for callers (the executor)
    /// that already built the key for deduplication — avoids rebuilding and
    /// re-hashing it per call.
    pub(crate) fn lookup_with_key(&self, key: &CacheKey, job_id: u64) -> Option<SearchResult> {
        let found = {
            let shard = self.shards[key.shard()].read();
            shard.map.get(key).map(|entry| {
                // Second chance: a hit marks the entry so the next eviction
                // sweep passes over it once.
                entry.referenced.store(true, Ordering::Relaxed);
                entry.result
            })
        };
        match found {
            Some(mut result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                result.job_id = job_id;
                result.wall_time_us = 0.0;
                Some(result)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the result of executing `job` on `backend`. Inserting a new
    /// key into a full shard evicts one resident entry (second-chance
    /// clock); a racing duplicate insert is harmless because execution is
    /// deterministic.
    pub fn insert(&self, job: &SearchJob, backend: Backend, result: SearchResult) {
        self.insert_with_key(CacheKey::new(job, backend), result);
    }

    /// Key-based form of [`ResultCache::insert`] (see
    /// [`ResultCache::lookup_with_key`]).
    pub(crate) fn insert_with_key(&self, key: CacheKey, result: SearchResult) {
        let mut shard = self.shards[key.shard()].write();
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.result = result;
            return;
        }
        if shard.map.len() >= self.shard_capacity {
            let victim = shard.evict_one();
            let hand = shard.hand;
            shard.ring[hand] = key;
            shard.hand = (hand + 1) % shard.ring.len();
            self.evictions.fetch_add(1, Ordering::Relaxed);
            debug_assert!(!shard.map.contains_key(&victim));
        } else {
            shard.ring.push(key);
        }
        shard.map.insert(
            key,
            Entry {
                result,
                // New entries start unreferenced: an entry earns its pass
                // through a hit, not through mere insertion.
                referenced: AtomicBool::new(false),
            },
        );
    }

    /// Credits `count` extra hits: used by the executor when it serves
    /// in-batch repeats by copying the original's result directly (the
    /// repeat was absorbed by memoisation even though no map lookup ran).
    pub fn record_hits(&self, count: u64) {
        self.hits.fetch_add(count, Ordering::Relaxed);
    }

    /// Current statistics.
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.read().map.len() as u64).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BackendHint;

    fn result_for(job: &SearchJob, backend: Backend) -> SearchResult {
        SearchResult {
            job_id: job.id,
            backend,
            block_found: 2,
            true_block: 2,
            correct: true,
            address_found: None,
            levels: 0,
            queries: 123,
            success_estimate: 0.99,
            trials: job.trials,
            trials_correct: job.trials,
            wall_time_us: 41.5,
        }
    }

    #[test]
    fn lookup_returns_the_exact_cached_result_and_counts_hits() {
        let cache = ResultCache::default();
        let job = SearchJob::new(7, 1 << 10, 4, 100);
        assert!(cache.lookup(&job, Backend::Reduced).is_none());
        let stored = result_for(&job, Backend::Reduced);
        cache.insert(&job, Backend::Reduced, stored);

        // Same spec under a different job id: every deterministic field but
        // the echoed id must come back exactly as stored.
        let mut repeat = job;
        repeat.id = 99;
        let hit = cache.lookup(&repeat, Backend::Reduced).expect("cache hit");
        assert_eq!(hit.job_id, 99);
        assert_eq!(hit.wall_time_us, 0.0);
        let mut expected = stored;
        expected.job_id = 99;
        assert_eq!(hit.deterministic_fields(), expected.deterministic_fields());

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn distinct_specs_do_not_collide() {
        let cache = ResultCache::default();
        let job = SearchJob::new(0, 1 << 10, 4, 100);
        cache.insert(
            &job,
            Backend::StateVector,
            result_for(&job, Backend::StateVector),
        );
        // Different backend, seed, trials, error target or target address:
        // all misses.
        assert!(cache.lookup(&job, Backend::Circuit).is_none());
        assert!(cache
            .lookup(&job.with_seed(job.seed ^ 1), Backend::StateVector)
            .is_none());
        assert!(cache
            .lookup(&job.with_trials(2), Backend::StateVector)
            .is_none());
        assert!(cache
            .lookup(&job.with_error_target(0.5), Backend::StateVector)
            .is_none());
        let mut moved = job;
        moved.target = 101;
        assert!(cache.lookup(&moved, Backend::StateVector).is_none());
    }

    #[test]
    fn noise_joins_the_key_only_when_non_ideal() {
        use crate::spec::NoiseSpec;
        let cache = ResultCache::default();
        let job = SearchJob::new(0, 1 << 10, 4, 100);
        cache.insert(
            &job,
            Backend::StateVector,
            result_for(&job, Backend::StateVector),
        );
        // An explicit all-zero spec is the same dynamics: shares the entry.
        assert!(cache
            .lookup(&job.with_noise(NoiseSpec::ideal()), Backend::StateVector)
            .is_some());
        // Any non-zero rate keys separately, and distinct rates do not
        // collide with each other.
        let faulty = job.with_noise(NoiseSpec::oracle_only(0.05));
        assert!(cache.lookup(&faulty, Backend::StateVector).is_none());
        cache.insert(
            &faulty,
            Backend::StateVector,
            result_for(&faulty, Backend::StateVector),
        );
        assert!(cache.lookup(&faulty, Backend::StateVector).is_some());
        assert!(cache
            .lookup(
                &job.with_noise(NoiseSpec::oracle_only(0.1)),
                Backend::StateVector
            )
            .is_none());
        assert!(cache.lookup(&job, Backend::StateVector).is_some());
    }

    #[test]
    fn reduced_backend_shares_entries_within_a_block() {
        let cache = ResultCache::default();
        let job = SearchJob::new(0, 1 << 10, 4, 0).with_backend(BackendHint::Reduced);
        cache.insert(&job, Backend::Reduced, result_for(&job, Backend::Reduced));
        // Same block (block size 256): hit. Different block: miss.
        let mut same_block = job;
        same_block.target = 255;
        assert!(cache.lookup(&same_block, Backend::Reduced).is_some());
        let mut other_block = job;
        other_block.target = 256;
        assert!(cache.lookup(&other_block, Backend::Reduced).is_none());
        // The exact-address backends never share across addresses.
        cache.insert(
            &job,
            Backend::ClassicalDeterministic,
            result_for(&job, Backend::ClassicalDeterministic),
        );
        let mut classical_moved = job;
        classical_moved.target = 255;
        assert!(cache
            .lookup(&classical_moved, Backend::ClassicalDeterministic)
            .is_none());
    }

    #[test]
    fn sparse_entries_are_distinct_from_dense_and_block_keyed_when_ideal() {
        use crate::spec::NoiseSpec;
        let cache = ResultCache::default();
        let job = SearchJob::new(0, 1 << 10, 4, 0).with_backend(BackendHint::Sparse);
        cache.insert(&job, Backend::Sparse, result_for(&job, Backend::Sparse));
        // The backend field keeps sparse results apart from every dense
        // backend's, even though ideal sparse and reduced runs agree on all
        // deterministic fields.
        assert!(cache.lookup(&job, Backend::Reduced).is_none());
        assert!(cache.lookup(&job, Backend::StateVector).is_none());
        // Ideal sparse shares entries within a block, like reduced...
        let mut same_block = job;
        same_block.target = 255;
        assert!(cache.lookup(&same_block, Backend::Sparse).is_some());
        let mut other_block = job;
        other_block.target = 256;
        assert!(cache.lookup(&other_block, Backend::Sparse).is_none());
        // ...but noisy sparse trajectories key on the exact address.
        let noisy = job.with_noise(NoiseSpec::oracle_only(0.05));
        cache.insert(&noisy, Backend::Sparse, result_for(&noisy, Backend::Sparse));
        let mut noisy_moved = noisy;
        noisy_moved.target = 255;
        assert!(cache.lookup(&noisy_moved, Backend::Sparse).is_none());
        assert!(cache.lookup(&noisy, Backend::Sparse).is_some());
    }

    #[test]
    fn full_shards_evict_instead_of_refusing() {
        let cache = ResultCache::with_capacity(SHARD_COUNT); // one entry per shard
        let mut inserted = Vec::new();
        for target in 0..64u64 {
            let job = SearchJob::new(target, 1 << 10, 4, target);
            cache.insert(
                &job,
                Backend::StateVector,
                result_for(&job, Backend::StateVector),
            );
            inserted.push(job);
        }
        let stats = cache.stats();
        assert!(stats.entries <= SHARD_COUNT as u64);
        assert!(stats.entries > 0);
        assert_eq!(
            stats.evictions,
            64 - stats.entries,
            "every insert beyond capacity displaced a resident entry"
        );
        // Exactly `entries` of the inserted keys remain retrievable, and the
        // cache keeps serving new keys after churn (no freeze-on-full).
        let retrievable = inserted
            .iter()
            .filter(|job| cache.lookup(job, Backend::StateVector).is_some())
            .count() as u64;
        assert_eq!(retrievable, stats.entries);
        let fresh = SearchJob::new(999, 1 << 10, 4, 77);
        cache.insert(
            &fresh,
            Backend::StateVector,
            result_for(&fresh, Backend::StateVector),
        );
        assert!(cache.lookup(&fresh, Backend::StateVector).is_some());
    }

    #[test]
    fn second_chance_spares_recently_hit_entries() {
        // One shard, capacity 2 per shard: keys in the same shard compete.
        let cache = ResultCache::with_capacity(2 * SHARD_COUNT);
        // Find three jobs whose keys land in the same shard.
        let mut same_shard: Vec<SearchJob> = Vec::new();
        let want_shard =
            CacheKey::new(&SearchJob::new(0, 1 << 10, 4, 0), Backend::StateVector).shard();
        for target in 0..1024u64 {
            let job = SearchJob::new(target, 1 << 10, 4, target);
            if CacheKey::new(&job, Backend::StateVector).shard() == want_shard {
                same_shard.push(job);
                if same_shard.len() == 3 {
                    break;
                }
            }
        }
        assert_eq!(same_shard.len(), 3, "hash spreads over shards");
        let (hot, cold, newcomer) = (same_shard[0], same_shard[1], same_shard[2]);
        cache.insert(
            &hot,
            Backend::StateVector,
            result_for(&hot, Backend::StateVector),
        );
        cache.insert(
            &cold,
            Backend::StateVector,
            result_for(&cold, Backend::StateVector),
        );
        // Reference `hot` so the clock passes over it; `cold` stays
        // unreferenced and must be the victim.
        assert!(cache.lookup(&hot, Backend::StateVector).is_some());
        cache.insert(
            &newcomer,
            Backend::StateVector,
            result_for(&newcomer, Backend::StateVector),
        );
        assert!(
            cache.lookup(&hot, Backend::StateVector).is_some(),
            "recently hit entry survives the sweep"
        );
        assert!(
            cache.lookup(&cold, Backend::StateVector).is_none(),
            "unreferenced entry is the second-chance victim"
        );
        assert!(cache.lookup(&newcomer, Backend::StateVector).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_churn_preserves_ring_map_invariant() {
        // Hammer a tiny cache with updates and fresh keys; entries must
        // never exceed capacity and every surviving key must be readable.
        let cache = ResultCache::with_capacity(SHARD_COUNT * 2);
        for round in 0..8u64 {
            for target in 0..96u64 {
                let job = SearchJob::new(target, 1 << 10, 4, (round * 96 + target) % (1 << 10));
                cache.insert(
                    &job,
                    Backend::StateVector,
                    result_for(&job, Backend::StateVector),
                );
                // Touch half the keys to exercise the referenced bit.
                if target % 2 == 0 {
                    let _ = cache.lookup(&job, Backend::StateVector);
                }
            }
        }
        let stats = cache.stats();
        assert!(stats.entries <= (SHARD_COUNT * 2) as u64);
        assert!(stats.evictions > 0);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let stats = ResultCacheStats {
            hits: 5,
            misses: 2,
            entries: 2,
            evictions: 3,
        };
        let json = serde_json::to_string(&stats).expect("serialise");
        let back: ResultCacheStats = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(stats, back);
    }
}
