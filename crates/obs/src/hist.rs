//! Fixed-bucket histograms with bounded-error quantiles.
//!
//! Buckets are powers of two: bucket `b` holds values whose bit length is
//! `b` (bucket 0 holds only the value 0), so a `u64` sample lands in one of
//! 65 buckets with a single `leading_zeros`. Count, sum, min, and max are
//! tracked exactly; quantiles are read from the bucket boundaries, which
//! bounds the error of a reported quantile `r` against the exact sample
//! quantile `e` by `e <= r <= 2e + 1` — tight enough for p50/p95/p99
//! latency reporting while keeping merge (`counts` add element-wise) and
//! memory (65 words) trivially cheap.

/// Number of buckets: one per possible `u64` bit length, plus zero.
const BUCKETS: usize = 65;

/// Bucket index for a value: its bit length (0 for the value 0).
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (`0`, `1`, `3`, `7`, …, `u64::MAX`).
///
/// # Panics
///
/// Panics if `b >= BUCKETS`.
fn bucket_upper(b: usize) -> u64 {
    assert!(b < BUCKETS, "bucket index out of range");
    if b == 0 {
        0
    } else {
        u64::MAX >> (64 - b)
    }
}

/// A mergeable power-of-two-bucket histogram (see module docs).
///
/// This is a plain value type: cloneable, comparable, and mergeable, so it
/// can live inside per-node metric bundles (`dosn_overlay::metrics::Metrics`)
/// and be aggregated across nodes without the latency-summing bug that a
/// scalar accumulator forces. For a shared, interior-mutable instrument use
/// [`crate::registry::HistHandle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` sentinel while empty.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples (bucket-merge fast path).
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (0.0..=1.0) by nearest rank over the buckets.
    ///
    /// Returns the upper bound of the bucket holding the rank-th sample,
    /// clamped into the exact observed `[min, max]`, so for the exact
    /// sample quantile `e` the reported value `r` satisfies
    /// `e <= r <= 2e + 1`. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p).round() as u64;
        // The extreme ranks are known exactly; skip the bucket walk so
        // quantile(0) == min and quantile(1) == max without rounding.
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_upper(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one: bucket counts add
    /// element-wise, count/sum add, min/max combine. This is the correct
    /// cross-node aggregation — the merged quantiles are quantiles of the
    /// union multiset, unlike summing two latency accumulators.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_upper(b), c))
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            max: self.max(),
        }
    }
}

/// Report-ready digest of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total samples.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Median (bounded error, see [`Histogram::quantile`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn exact_stats_tracked() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1060);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 265.0);
    }

    #[test]
    fn quantile_error_bound_on_known_sample() {
        let mut h = Histogram::new();
        let sample = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100];
        for v in sample {
            h.record(v);
        }
        // Exact p50 by the same nearest-rank rule is sample[round(9*0.5)]=5.
        let r = h.p50();
        assert!((5..=11).contains(&r), "p50 {r} outside [e, 2e+1]");
        // p100 is exact (clamped to max).
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_bad_p() {
        Histogram::new().quantile(-0.1);
    }

    #[test]
    fn merge_is_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 306);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 200);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(7, 5);
        for _ in 0..5 {
            b.record(7);
        }
        assert_eq!(a, b);
        a.record_n(9, 0); // no-op
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn summary_is_consistent() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }
}
