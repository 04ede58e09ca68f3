//! Order statistics, the tail-percentile rule and the seeded input streams.

/// Nearest-rank percentile of an ascending sample (the daemon's own
/// `stats` convention); `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A tail percentile is only reported where at least this many samples lie
/// beyond it.
const MIN_BEYOND: usize = 10;

/// Whether `n` samples support reporting percentile `p` as a tail.
pub fn supports_tail(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The log line stating a tail's sample count.
pub fn describe_tail(n: usize, p: f64) -> String {
    let warn = if supports_tail(n, p) {
        ""
    } else {
        " (too few for a tail)"
    };
    format!("p{p} of {n} samples has {} beyond{warn}", beyond(n, p))
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Geometric mean of positive values, each given with how many times it
/// occurs; `NaN` for none.
pub fn geomean(weighted: impl IntoIterator<Item = (f64, usize)>) -> f64 {
    let (log_sum, n) = weighted.into_iter().fold((0.0, 0usize), |(s, n), (x, w)| {
        (s + x.ln() * w as f64, n + w)
    });
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

/// One window of a client's requests: how many it sent, and the median and
/// tail latency over them.
pub struct Window {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
}

/// Splits one client's requests into `complete` consecutive windows of
/// `window_ns` by when each was sent (requests sent after the last complete
/// window are dropped) and summarises each window that holds enough requests
/// for percentile `tail` to be a tail.
pub fn windows(
    sent_ns: &[u64],
    latency: &[f64],
    window_ns: u64,
    complete: usize,
    tail: f64,
) -> Vec<Window> {
    let mut by_window = vec![Vec::new(); complete];
    for (&at, &v) in sent_ns.iter().zip(latency) {
        if let Some(w) = by_window.get_mut((at / window_ns) as usize) {
            w.push(v);
        }
    }
    by_window
        .into_iter()
        .filter(|w| supports_tail(w.len(), tail))
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            Window {
                count: w.len(),
                p50: percentile(&w, 50.0),
                tail: percentile(&w, tail),
            }
        })
        .collect()
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones Python computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of draws: the benchmark's only source of randomness.
pub struct Stream {
    seed: u64,
    next: u64,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream { seed, next: 0 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.next += 1;
        mix(self.seed, self.next)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle driven by the stream.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(beyond(100, 90.0), 10);
        assert!(supports_tail(100, 90.0));
        assert!(!supports_tail(99, 90.0));
        // p99 needs a thousand samples.
        assert!(supports_tail(1000, 99.0));
        assert!(!supports_tail(999, 99.0));
        assert!(!supports_tail(0, 50.0));
        assert!(supports_tail(20, 50.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn geomean_weighs_each_value_by_its_count() {
        assert!((geomean([(2.0, 1), (8.0, 1)]) - 4.0).abs() < 1e-12);
        assert!((geomean([(2.0, 2), (16.0, 1)]) - 4.0).abs() < 1e-12);
        assert!(geomean([(5.0, 0)]).is_nan());
    }

    #[test]
    fn windows_split_by_send_time_and_skip_thin_ones() {
        // Window 0: 20 requests at 1..=20 ms; window 1: 5 requests, too few
        // for a p90 with ten beyond; window 2: 100 requests of 7 ms; window
        // 3 is incomplete and dropped.
        let mut sent = Vec::new();
        let mut lat = Vec::new();
        for i in 0..20u64 {
            sent.push(i);
            lat.push((i + 1) as f64);
        }
        for i in 0..5u64 {
            sent.push(100 + i);
            lat.push(1.0);
        }
        for i in 0..100u64 {
            sent.push(200 + i);
            lat.push(7.0);
        }
        sent.push(300);
        lat.push(0.5);
        let summary = |tail| {
            windows(&sent, &lat, 100, 3, tail)
                .iter()
                .map(|w| (w.count, w.p50, w.tail))
                .collect::<Vec<_>>()
        };
        assert_eq!(summary(50.0), [(20, 10.0, 10.0), (100, 7.0, 7.0)]);
        assert_eq!(summary(90.0), [(100, 7.0, 7.0)]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut s = Stream::new(seed);
            (0..64).map(|_| s.below(31)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut a: Vec<usize> = (0..124).collect();
        let mut b = a.clone();
        Stream::new(3).shuffle(&mut a);
        Stream::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<usize> = (0..124).collect();
        Stream::new(4).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
