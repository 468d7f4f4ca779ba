//! Log2-bucketed latency histograms with nearest-rank quantiles.
//!
//! Quantiles use the nearest-rank method: of `n` recorded values, the
//! `q` quantile is the one at rank `⌈q·n⌉` (1-indexed, clamped to
//! `[1, n]`) in sorted order. Here the sorted sample is the bucket
//! sequence, so a quantile resolves to the inclusive upper bound of the
//! bucket holding the rank-th recorded value — a conservative (never
//! under-reporting) estimate with ≤ 2× relative error by construction.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero, one per power-of-two decade of `u64`.
pub(crate) const NUM_BUCKETS: usize = 65;

/// Bucket index for a value: 0 holds exactly `0`; bucket `k ≥ 1` holds
/// `[2^(k-1), 2^k - 1]`, so every exact power of two opens its own bucket.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` bounds of a bucket.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        k => (1 << (k - 1), (1 << k) - 1),
    }
}

/// A lock-free log2 histogram: 65 atomic buckets plus count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value (relaxed ordering: counters, not synchronization).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: 2^64 µs of recorded latency is
        // unreachable in practice but proptest reaches it instantly.
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            })
            .ok();
    }

    /// An owned, mergeable point-in-time copy.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        for (b, out) in self.buckets.iter().zip(buckets.iter_mut()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Plain-data histogram state: what the `metrics` verb ships.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// `NUM_BUCKETS` log2 bucket counts.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Nearest-rank quantile: the value at rank `⌈q·n⌉` of the `n`
    /// recorded, 1-indexed and clamped to `[1, n]`. Returns the upper
    /// bound of the bucket containing that rank; 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let n: u64 = self.buckets.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(NUM_BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn power_of_two_boundaries() {
        // Every exact power of two opens a fresh bucket; its predecessor
        // closes the previous one.
        for k in 1..64usize {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k + 1, "2^{k}");
            assert_eq!(bucket_index(p - 1), k, "2^{k} - 1");
            let (lo, hi) = bucket_bounds(k + 1);
            assert_eq!(lo, p);
            assert!(hi >= p);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = HistogramSnapshot::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_never_under_reports() {
        let h = Histogram::default();
        for v in [3u64, 5, 9, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        // p100 covers the max recorded value.
        assert!(s.quantile(1.0) >= 1000);
        // p50 covers the median (9): rank ⌈0.5·5⌉ = 3.
        assert!(s.quantile(0.5) >= 9 && s.quantile(0.5) < 16);
    }

    proptest! {
        #[test]
        fn recorded_value_lands_in_its_bucket(v in any::<u64>()) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            prop_assert!(lo <= v && v <= hi);
        }

        #[test]
        fn quantile_upper_bounds_the_rank(v in any::<u64>(), q in 0.0f64..1.0) {
            let h = Histogram::default();
            h.record(v);
            prop_assert!(h.snapshot().quantile(q) >= v);
        }
    }
}
