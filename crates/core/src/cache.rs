//! Shared memoization for autotuning evaluations.
//!
//! The autotuning loop asks the same timing questions more than once: the
//! final noiseless pick re-reads the simulated time of everything the
//! search evaluated, a repeated tune of one workload on one backend
//! re-reads the first one's, and replays and decomposed tuning reuse the
//! per-op outcomes joint tuning computed. [`EvalCache`] memoizes
//! whole-configuration times and per-op outcomes behind sharded `RwLock`
//! maps so concurrent evaluator threads stay off each other's locks, and
//! counts each layer's hits and misses for the search statistics.
//!
//! Keys carry a caller-chosen `salt` alongside the configuration id, so one
//! cache can serve several distinct keyspaces at once (e.g. per-statement
//! local ids in decomposed tuning, or per-architecture times).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

const SHARDS: usize = 16;

/// FNV-1a over the (salt, id) key, used for shard selection.
fn shard_of(salt: u64, id: u128) -> usize {
    let mut h: u64 = 0xCBF29CE484222325;
    for b in salt.to_le_bytes().into_iter().chain(id.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    (h % SHARDS as u64) as usize
}

/// Sharded concurrent memo map from `(salt, id)` to `V`.
struct ShardedMap<V> {
    shards: Vec<RwLock<HashMap<(u64, u128), V>>>,
}

impl<V: Clone> ShardedMap<V> {
    fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    // Lock poisoning only means another thread panicked mid-access; the
    // memo data itself is always consistent (whole-value inserts), so
    // recover the guard instead of propagating the panic.
    fn get(&self, salt: u64, id: u128) -> Option<V> {
        self.shards[shard_of(salt, id)]
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&(salt, id))
            .cloned()
    }

    fn insert(&self, salt: u64, id: u128, v: V) {
        self.shards[shard_of(salt, id)]
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert((salt, id), v);
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }
}

/// Outcome of mapping + validating + timing one statement op under one
/// per-op configuration choice. The strings are the exact detail messages
/// the unmemoized pipeline produces; they carry no configuration id, so one
/// entry serves every joint configuration that selects the same choice.
#[derive(Clone, Debug, PartialEq)]
pub enum OpOutcome {
    /// Simulated kernel time in seconds.
    Time(f64),
    /// The op's kernel failed to map (`MapError` display string).
    MapFault(String),
    /// The mapped kernel failed architecture validation (detail string).
    SimFault(String),
}

/// Wall-time spent in each stage of the evaluation hot path, accumulated
/// across threads. Nanosecond sums, monotone; report deltas via
/// [`HotPathSnapshot::delta`].
#[derive(Default)]
pub struct HotPathStats {
    decode_ns: AtomicU64,
    map_ns: AtomicU64,
    sim_ns: AtomicU64,
}

impl HotPathStats {
    pub fn add_decode(&self, ns: u64) {
        self.decode_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn add_map(&self, ns: u64) {
        self.map_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn add_sim(&self, ns: u64) {
        self.sim_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HotPathSnapshot {
        HotPathSnapshot {
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            map_ns: self.map_ns.load(Ordering::Relaxed),
            sim_ns: self.sim_ns.load(Ordering::Relaxed),
            predict_ns: 0,
        }
    }
}

/// Point-in-time view of [`HotPathStats`] plus the surrogate's scoring time
/// (tracked by the search driver rather than the cache).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotPathSnapshot {
    /// Time decoding flat ids into per-op configuration digits.
    pub decode_ns: u64,
    /// Time in `map_kernel` (index mapping + coverage checks).
    pub map_ns: u64,
    /// Time validating + timing mapped kernels in the GPU model.
    pub sim_ns: u64,
    /// Time scoring pool candidates with the fitted forest.
    pub predict_ns: u64,
}

impl HotPathSnapshot {
    /// Stage times elapsed since `earlier` (saturating).
    pub fn delta(&self, earlier: &HotPathSnapshot) -> HotPathSnapshot {
        HotPathSnapshot {
            decode_ns: self.decode_ns.saturating_sub(earlier.decode_ns),
            map_ns: self.map_ns.saturating_sub(earlier.map_ns),
            sim_ns: self.sim_ns.saturating_sub(earlier.sim_ns),
            predict_ns: self.predict_ns.saturating_sub(earlier.predict_ns),
        }
    }
}

/// Memo cache for whole-configuration simulated times and per-op
/// outcomes, shared across SURF batches, the final selection pass, and
/// per-statement sub-searches.
///
/// The per-op layer ([`OpOutcome`]) sits under the time layer: the joint
/// configuration space is a Cartesian product of per-op choices, so two
/// distinct whole-program configurations usually share most of their per-op
/// sub-configurations. Caching at op granularity turns whole-config misses
/// into sums of per-op hits.
pub struct EvalCache {
    times: ShardedMap<f64>,
    ops: ShardedMap<OpOutcome>,
    time_hits: AtomicUsize,
    time_misses: AtomicUsize,
    op_hits: AtomicUsize,
    op_misses: AtomicUsize,
    hot: HotPathStats,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    pub fn new() -> Self {
        EvalCache {
            times: ShardedMap::new(),
            ops: ShardedMap::new(),
            time_hits: AtomicUsize::new(0),
            time_misses: AtomicUsize::new(0),
            op_hits: AtomicUsize::new(0),
            op_misses: AtomicUsize::new(0),
            hot: HotPathStats::default(),
        }
    }

    /// Memoized simulated time of `(salt, id)`. The compute runs outside
    /// any lock, so a slow simulation never blocks unrelated lookups.
    pub fn time(&self, salt: u64, id: u128, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(t) = self.times.get(salt, id) {
            self.time_hits.fetch_add(1, Ordering::Relaxed);
            return t;
        }
        self.time_misses.fetch_add(1, Ordering::Relaxed);
        let t = compute();
        self.times.insert(salt, id, t);
        t
    }

    /// Memoized per-op outcome of `(salt, key)`. Counted separately from
    /// the whole-configuration times so the two hit rates stay comparable
    /// in the search statistics.
    pub fn op_outcome(
        &self,
        salt: u64,
        key: u128,
        compute: impl FnOnce() -> OpOutcome,
    ) -> OpOutcome {
        if let Some(o) = self.ops.get(salt, key) {
            self.op_hits.fetch_add(1, Ordering::Relaxed);
            return o;
        }
        self.op_misses.fetch_add(1, Ordering::Relaxed);
        let o = compute();
        self.ops.insert(salt, key, o.clone());
        o
    }

    /// `(hits, misses)` over whole-configuration times.
    pub fn time_stats(&self) -> (usize, usize) {
        (
            self.time_hits.load(Ordering::Relaxed),
            self.time_misses.load(Ordering::Relaxed),
        )
    }

    /// `(hits, misses)` over per-op outcomes.
    pub fn op_stats(&self) -> (usize, usize) {
        (
            self.op_hits.load(Ordering::Relaxed),
            self.op_misses.load(Ordering::Relaxed),
        )
    }

    /// Hot-path stage timers shared by every evaluator on this cache.
    pub fn hot(&self) -> &HotPathStats {
        &self.hot
    }

    /// Distinct simulated times memoized — one per simulator call made
    /// through this cache.
    pub fn times_len(&self) -> usize {
        self.times.len()
    }

    /// Distinct per-op outcomes memoized.
    pub fn ops_len(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn second_lookup_hits() {
        let cache = EvalCache::new();
        let computed = AtomicUsize::new(0);
        let f = || {
            computed.fetch_add(1, Ordering::Relaxed);
            1.5
        };
        assert_eq!(cache.time(0, 42, f), 1.5);
        assert_eq!(cache.time(0, 42, f), 1.5);
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.time_stats(), (1, 1));
    }

    #[test]
    fn salts_are_distinct_keyspaces() {
        let cache = EvalCache::new();
        assert_eq!(cache.time(1, 7, || 1.0), 1.0);
        assert_eq!(cache.time(2, 7, || 2.0), 2.0);
        assert_eq!(cache.time_stats(), (0, 2));
        assert_eq!(cache.times_len(), 2);
    }

    #[test]
    fn op_outcomes_are_a_separate_keyspace_with_separate_counters() {
        let cache = EvalCache::new();
        // Same (salt, key) as a time entry must not collide.
        cache.time(3, 9, || 1.25);
        let o = cache.op_outcome(3, 9, || OpOutcome::SimFault("too wide".into()));
        assert_eq!(o, OpOutcome::SimFault("too wide".into()));
        assert_eq!(cache.op_outcome(3, 9, || unreachable!()), o);
        assert_eq!(cache.op_stats(), (1, 1));
        assert_eq!(cache.time_stats(), (0, 1));
        assert_eq!(cache.ops_len(), 1);
        assert_eq!(cache.times_len(), 1);
    }

    #[test]
    fn hot_path_snapshot_deltas() {
        let cache = EvalCache::new();
        cache.hot().add_decode(5);
        cache.hot().add_map(7);
        let before = cache.hot().snapshot();
        cache.hot().add_map(10);
        cache.hot().add_sim(3);
        let d = cache.hot().snapshot().delta(&before);
        assert_eq!((d.decode_ns, d.map_ns, d.sim_ns), (0, 10, 3));
    }

    #[test]
    fn concurrent_readers_share_entries() {
        let cache = EvalCache::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for id in 0..100u128 {
                        cache.time(0, id, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            id as f64
                        });
                    }
                });
            }
        });
        // Every entry exists exactly once; racy duplicate computes are
        // possible but the map stays consistent.
        for id in 0..100u128 {
            assert_eq!(cache.time(0, id, || unreachable!()), id as f64);
        }
    }
}
