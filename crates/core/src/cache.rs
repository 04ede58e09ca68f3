//! Shared memoization for autotuning evaluations.
//!
//! The autotuning loop asks the same timing questions more than once: the
//! final noiseless pick re-reads the simulated time of everything the
//! search evaluated, a repeated tune of one workload on one backend
//! re-reads the first one's, and replays and decomposed tuning reuse the
//! per-op outcomes joint tuning computed. [`EvalCache`] memoizes
//! whole-configuration times and per-op outcomes behind sharded `RwLock`
//! maps so concurrent evaluator threads stay off each other's locks. It
//! counts each layer's hits and misses over every lookup, and each lookup
//! counts in its reader's own [`Traffic`] as well, so searches that share
//! one cache each report only their own traffic in their statistics.
//!
//! Keys carry a caller-chosen `salt` alongside the configuration id, so one
//! cache can serve several distinct keyspaces at once (e.g. per-statement
//! local ids in decomposed tuning, or per-architecture times).

use std::collections::hash_map::{Entry, HashMap};
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

    /// The value of `(salt, id)`, computed outside any lock when absent,
    /// and whether the lookup hit. Only the insert that adds the key
    /// misses: a thread that computed the key alongside it keeps the
    /// winner's entry (both computed the same value) and counts a hit.
    fn get_or_compute(&self, salt: u64, id: u128, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.get(salt, id) {
            return (v, true);
        }
        let v = compute();
        let mut shard = self.shards[shard_of(salt, id)]
            .write()
            .unwrap_or_else(|p| p.into_inner());
        let hit = match shard.entry((salt, id)) {
            Entry::Occupied(_) => true,
            Entry::Vacant(e) => {
                e.insert(v.clone());
                false
            }
        };
        (v, hit)
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
/// across threads. Nanosecond sums, monotone.
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

/// Memo traffic: lookups of each layer, each a hit or a miss by the rule
/// of [`EvalCache::time`], and the hot-path stage times. An [`EvalCache`]
/// keeps one over every lookup made through it; a reader keeps its own over
/// the lookups it makes.
#[derive(Default)]
pub struct Traffic {
    time_hits: AtomicUsize,
    time_misses: AtomicUsize,
    op_hits: AtomicUsize,
    op_misses: AtomicUsize,
    hot: HotPathStats,
}

impl Traffic {
    /// `(hits, misses)` over whole-configuration times.
    pub(crate) fn time_stats(&self) -> (usize, usize) {
        (
            self.time_hits.load(Ordering::Relaxed),
            self.time_misses.load(Ordering::Relaxed),
        )
    }

    /// `(hits, misses)` over per-op outcomes.
    pub(crate) fn op_stats(&self) -> (usize, usize) {
        (
            self.op_hits.load(Ordering::Relaxed),
            self.op_misses.load(Ordering::Relaxed),
        )
    }

    /// Hot-path stage timers.
    pub(crate) fn hot(&self) -> &HotPathStats {
        &self.hot
    }
}

/// Counts one lookup, `hit` or not, in `hits` or `misses`.
fn count(hit: bool, hits: &AtomicUsize, misses: &AtomicUsize) {
    if hit { hits } else { misses }.fetch_add(1, Ordering::Relaxed);
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
    traffic: Traffic,
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
            traffic: Traffic::default(),
        }
    }

    /// Memoized simulated time of `(salt, id)`, counted in the cache's
    /// traffic and in the reader's `own`. The compute runs outside any
    /// lock, so a slow simulation never blocks unrelated lookups. Only the
    /// insert that adds the key counts a miss; a thread that computed the
    /// key alongside it counts a hit. Misses therefore equal distinct keys,
    /// and a parallel search counts what a serial one does.
    pub fn time(&self, salt: u64, id: u128, own: &Traffic, compute: impl FnOnce() -> f64) -> f64 {
        let (t, hit) = self.times.get_or_compute(salt, id, compute);
        for traffic in [&self.traffic, own] {
            count(hit, &traffic.time_hits, &traffic.time_misses);
        }
        t
    }

    /// Memoized per-op outcome of `(salt, key)`, counted as
    /// [`EvalCache::time`] counts. Counted separately from the
    /// whole-configuration times so the two hit rates stay comparable in
    /// the search statistics.
    pub fn op_outcome(
        &self,
        salt: u64,
        key: u128,
        own: &Traffic,
        compute: impl FnOnce() -> OpOutcome,
    ) -> OpOutcome {
        let (o, hit) = self.ops.get_or_compute(salt, key, compute);
        for traffic in [&self.traffic, own] {
            count(hit, &traffic.op_hits, &traffic.op_misses);
        }
        o
    }

    /// Adds a reader's stage time to the cache's hot-path timers and to
    /// its `own`.
    pub(crate) fn add_hot(&self, own: &Traffic, add: impl Fn(&HotPathStats)) {
        add(&self.traffic.hot);
        add(&own.hot);
    }

    /// `(hits, misses)` over whole-configuration times.
    pub fn time_stats(&self) -> (usize, usize) {
        self.traffic.time_stats()
    }

    /// `(hits, misses)` over per-op outcomes.
    pub fn op_stats(&self) -> (usize, usize) {
        self.traffic.op_stats()
    }

    /// Hot-path stage timers shared by every evaluator on this cache.
    pub fn hot(&self) -> &HotPathStats {
        &self.traffic.hot
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
    use std::sync::Barrier;

    #[test]
    fn second_lookup_hits() {
        let (cache, own) = (EvalCache::new(), Traffic::default());
        let computed = AtomicUsize::new(0);
        let f = || {
            computed.fetch_add(1, Ordering::Relaxed);
            1.5
        };
        assert_eq!(cache.time(0, 42, &own, f), 1.5);
        assert_eq!(cache.time(0, 42, &own, f), 1.5);
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.time_stats(), (1, 1));
    }

    #[test]
    fn salts_are_distinct_keyspaces() {
        let (cache, own) = (EvalCache::new(), Traffic::default());
        assert_eq!(cache.time(1, 7, &own, || 1.0), 1.0);
        assert_eq!(cache.time(2, 7, &own, || 2.0), 2.0);
        assert_eq!(cache.time_stats(), (0, 2));
        assert_eq!(cache.times_len(), 2);
    }

    #[test]
    fn op_outcomes_are_a_separate_keyspace_with_separate_counters() {
        let (cache, own) = (EvalCache::new(), Traffic::default());
        // Same (salt, key) as a time entry must not collide.
        cache.time(3, 9, &own, || 1.25);
        let o = cache.op_outcome(3, 9, &own, || OpOutcome::SimFault("too wide".into()));
        assert_eq!(o, OpOutcome::SimFault("too wide".into()));
        assert_eq!(cache.op_outcome(3, 9, &own, || unreachable!()), o);
        assert_eq!(cache.op_stats(), (1, 1));
        assert_eq!(cache.time_stats(), (0, 1));
        assert_eq!(cache.ops_len(), 1);
        assert_eq!(cache.times_len(), 1);
    }

    #[test]
    fn readers_count_only_their_own_traffic() {
        // The cache counts every lookup and stage time; each reader counts
        // the ones it made, by the same hit-or-miss rule.
        let cache = EvalCache::new();
        let (a, b) = (Traffic::default(), Traffic::default());
        cache.time(0, 1, &a, || 1.0);
        cache.time(0, 1, &b, || unreachable!());
        cache.time(0, 2, &b, || 2.0);
        cache.op_outcome(0, 1, &a, || OpOutcome::Time(1.0));
        cache.add_hot(&a, |h| h.add_map(7));
        cache.add_hot(&b, |h| h.add_sim(3));
        assert_eq!((a.time_stats(), b.time_stats()), ((0, 1), (1, 1)));
        assert_eq!(cache.time_stats(), (1, 2));
        assert_eq!(
            (a.op_stats(), b.op_stats(), cache.op_stats()),
            ((0, 1), (0, 0), (0, 1))
        );
        let ns = |t: &HotPathStats| {
            let s = t.snapshot();
            (s.decode_ns, s.map_ns, s.sim_ns)
        };
        assert_eq!((ns(a.hot()), ns(b.hot())), ((0, 7, 0), (0, 0, 3)));
        assert_eq!(ns(cache.hot()), (0, 7, 3));
    }

    #[test]
    fn racing_computes_count_one_miss_per_key() {
        // Both threads miss the key and meet inside `compute`, so both
        // compute it; the one whose insert adds the key counts the miss,
        // the other a hit, as a serial second lookup would.
        let cache = EvalCache::new();
        let met = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let own = Traffic::default();
                    cache.time(0, 7, &own, || {
                        met.wait();
                        1.0
                    });
                    cache.op_outcome(0, 7, &own, || {
                        met.wait();
                        OpOutcome::Time(2.0)
                    });
                });
            }
        });
        assert_eq!(cache.time_stats(), (1, 1));
        assert_eq!(cache.op_stats(), (1, 1));
        assert_eq!((cache.times_len(), cache.ops_len()), (1, 1));
    }

    #[test]
    fn concurrent_readers_share_entries() {
        let (cache, own) = (EvalCache::new(), Traffic::default());
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for id in 0..100u128 {
                        cache.time(0, id, &own, || {
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
            assert_eq!(cache.time(0, id, &own, || unreachable!()), id as f64);
        }
    }
}
