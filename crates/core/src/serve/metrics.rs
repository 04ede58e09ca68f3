//! Daemon observability: lock-free counters plus request latencies.
//!
//! Every request the daemon handles bumps these; the `stats` op returns
//! a [`MetricsSnapshot`] and the transports print one on shutdown, so a
//! load run always ends with the hit/miss/coalesce story in plain text.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Shared counters for one daemon. All atomics: request handlers touch
/// them concurrently from transport threads.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests received (every op, including malformed lines).
    pub requests: AtomicUsize,
    /// Tune requests that resolved to a result (hit, miss, or coalesced).
    pub tunes: AtomicUsize,
    /// Tunes served by replaying a stored plan (zero search evaluations).
    pub store_hits: AtomicUsize,
    /// Tunes that ran SURF (store miss or no store attached).
    pub store_misses: AtomicUsize,
    /// Tune requests that joined an identical in-flight tune instead of
    /// starting their own search.
    pub coalesced: AtomicUsize,
    /// Quarantine entries carried by served results (sum over responses).
    pub quarantined: AtomicUsize,
    /// Requests answered `ok:false`.
    pub errors: AtomicUsize,
    /// Tune requests shed by admission control or shutdown drain with a
    /// typed Busy (load shedding — counted apart from `errors`).
    pub busy: AtomicUsize,
    /// Requests that returned a degraded (best-so-far) result.
    pub degraded: AtomicUsize,
    /// Per-request wall latencies in microseconds, for the percentiles.
    latencies_us: Mutex<Vec<u64>>,
}

/// Point-in-time copy of the counters, with latency percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    pub requests: usize,
    pub tunes: usize,
    pub store_hits: usize,
    pub store_misses: usize,
    pub coalesced: usize,
    pub quarantined: usize,
    pub errors: usize,
    /// Tune requests shed with a typed Busy rejection.
    pub busy: usize,
    pub degraded: usize,
    /// Corrupt store entries quarantined to `*.corrupt` sidecars (filled
    /// by [`crate::serve::Daemon::snapshot`]; 0 from a bare
    /// [`ServeMetrics::snapshot`]).
    pub store_corrupt: usize,
    /// Cold searches currently holding an admission permit (filled by
    /// the daemon snapshot).
    pub active_searches: usize,
    /// Requests currently parked in the admission wait queue (filled by
    /// the daemon snapshot).
    pub queued_searches: usize,
    /// Backends in the daemon's loaded set — built-ins plus descriptors
    /// (filled by the daemon snapshot; 0 from a bare
    /// [`ServeMetrics::snapshot`]).
    pub backends_loaded: usize,
    /// Median request latency in microseconds (0 with no samples).
    pub p50_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
}

impl ServeMetrics {
    /// Record one finished request's wall latency.
    pub fn record_latency_us(&self, us: u64) {
        let mut l = match self.latencies_us.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        l.push(us);
    }

    /// Copy out the counters and compute latency percentiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut lat = {
            let l = match self.latencies_us.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            l.clone()
        };
        lat.sort_unstable();
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            tunes: self.tunes.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            store_corrupt: 0,
            active_searches: 0,
            queued_searches: 0,
            backends_loaded: 0,
            p50_us: percentile(&lat, 50.0),
            p99_us: percentile(&lat, 99.0),
        }
    }
}

/// Nearest-rank percentile over an already-sorted sample (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl MetricsSnapshot {
    /// The `stats` response body.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("op".to_string(), Json::Str("stats".to_string())),
            ("requests".to_string(), Json::Num(self.requests as f64)),
            ("tunes".to_string(), Json::Num(self.tunes as f64)),
            ("store_hits".to_string(), Json::Num(self.store_hits as f64)),
            (
                "store_misses".to_string(),
                Json::Num(self.store_misses as f64),
            ),
            ("coalesced".to_string(), Json::Num(self.coalesced as f64)),
            (
                "quarantined".to_string(),
                Json::Num(self.quarantined as f64),
            ),
            ("errors".to_string(), Json::Num(self.errors as f64)),
            ("busy".to_string(), Json::Num(self.busy as f64)),
            ("degraded".to_string(), Json::Num(self.degraded as f64)),
            (
                "store_corrupt".to_string(),
                Json::Num(self.store_corrupt as f64),
            ),
            (
                "active_searches".to_string(),
                Json::Num(self.active_searches as f64),
            ),
            (
                "queued_searches".to_string(),
                Json::Num(self.queued_searches as f64),
            ),
            (
                "backends_loaded".to_string(),
                Json::Num(self.backends_loaded as f64),
            ),
            ("p50_us".to_string(), Json::Num(self.p50_us as f64)),
            ("p99_us".to_string(), Json::Num(self.p99_us as f64)),
        ])
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} requests, {} tunes ({} store hits, {} misses, {} coalesced)",
            self.requests, self.tunes, self.store_hits, self.store_misses, self.coalesced
        )?;
        write!(
            f,
            "serve: {} errors, {} busy, {} degraded, {} quarantined, {} corrupt quarantined; \
             latency p50 {} us, p99 {} us",
            self.errors,
            self.busy,
            self.degraded,
            self.quarantined,
            self.store_corrupt,
            self.p50_us,
            self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
    }

    #[test]
    fn snapshot_copies_counters_and_renders() {
        let m = ServeMetrics::default();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.store_hits.fetch_add(2, Ordering::Relaxed);
        m.record_latency_us(10);
        m.record_latency_us(30);
        m.record_latency_us(20);
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.store_hits, 2);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.p99_us, 30);
        let text = s.to_string();
        assert!(text.contains("2 store hits"));
        let json = s.to_json().to_string_compact();
        assert!(json.contains("\"p50_us\":20"));
    }
}
