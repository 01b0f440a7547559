//! Log-bucketed histograms: fixed-size, mergeable, deterministic.
//!
//! A [`Histogram`] summarizes a stream of `u64` samples (conflict
//! counts, visited configurations, span durations in microseconds) in
//! 65 power-of-two buckets: bucket 0 holds the value 0 and bucket `i`
//! holds the half-open range `[2^(i-1), 2^i)`. The bucket layout is
//! value-dependent only, so merging two histograms is a bucket-wise
//! addition — the merged result is independent of sample interleaving,
//! which is what lets worker-thread histograms flow through
//! [`crate::Collector::adopt_report`] without breaking the determinism
//! contract.
//!
//! Quantiles are estimated from the bucket boundaries: `p50`/`p90`
//! report the inclusive upper bound of the bucket containing the
//! requested rank, clamped into the observed `[min, max]` range. The
//! estimate is coarse (a factor of two) but deterministic and cheap,
//! which is the right trade for regression gating.

use crate::json::Value;

/// Bucket count: one for zero plus one per bit of a `u64`.
pub(crate) const NUM_BUCKETS: usize = 65;

/// The bucket a value falls into: its bit length (0 for 0).
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// A mergeable log₂-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty, so `min` never needs a branch on merge.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Bucket-wise accumulation. Deterministic: `a.merge(b)` equals any
    /// interleaving of the two sample streams.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, 0 when empty.
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, 0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Quantile estimate for `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `ceil(q·count)`, clamped to
    /// the observed `[min, max]`. Returns 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= target {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (see `Histogram::quantile`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate (see `Histogram::quantile`).
    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    /// The samples this histogram has seen beyond `earlier` (which must
    /// be a prior snapshot of the same accumulator): buckets, count,
    /// and sum subtract; `min`/`max` are re-estimated from the
    /// surviving buckets' boundaries since exact extremes of a window
    /// are not recoverable from cumulative state.
    pub(crate) fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (i, out) in buckets.iter_mut().enumerate() {
            *out = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return Histogram::default();
        }
        let lowest = buckets.iter().position(|&n| n > 0).unwrap_or(0);
        let highest = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        Histogram {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min: bucket_lower_bound(lowest).max(self.min),
            max: bucket_upper_bound(highest).min(self.max),
        }
    }

    /// Compact single-line rendering for the tree/summary renderers:
    /// `n=5 p50=8 p90=32 max=37`.
    pub(crate) fn render_brief(&self) -> String {
        format!(
            "n={} p50={} p90={} max={}",
            self.count,
            self.p50(),
            self.p90(),
            self.max()
        )
    }

    /// Summary statistics as a JSON object (no raw buckets: reports and
    /// BENCH artifacts need the stable summary, not the representation).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("count".to_owned(), Value::Num(self.count as f64)),
            ("sum".to_owned(), Value::Num(self.sum as f64)),
            ("min".to_owned(), Value::Num(self.min() as f64)),
            ("max".to_owned(), Value::Num(self.max() as f64)),
            ("p50".to_owned(), Value::Num(self.p50() as f64)),
            ("p90".to_owned(), Value::Num(self.p90() as f64)),
            ("mean".to_owned(), Value::Num(self.mean())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..NUM_BUCKETS {
            assert!(bucket_lower_bound(i) <= bucket_upper_bound(i));
        }
        // Every value lands between its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(
                bucket_lower_bound(i) <= v && v <= bucket_upper_bound(i),
                "{v}"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        assert_eq!((h.p50(), h.p90()), (0, 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 37);
        assert_eq!(h.max(), 37);
        // The bucket bound (63) clamps into [min, max].
        assert_eq!(h.p50(), 37);
        assert_eq!(h.p90(), 37);
    }

    #[test]
    fn quantiles_are_monotone_and_bucket_accurate() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        let p90 = h.p90();
        assert!(p50 <= p90 && p90 <= h.max());
        // Rank 500 lives in bucket [256, 511]; rank 900 in [512, 1023],
        // clamped to the observed max.
        assert_eq!(p50, 511);
        assert_eq!(p90, 1000);
    }

    #[test]
    fn merge_is_order_independent() {
        let samples = [0u64, 1, 1, 5, 9, 100, 1 << 40];
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let (left, right) = samples.split_at(3);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &s in left {
            a.record(s);
        }
        for &s in right {
            b.record(s);
        }
        let mut merged_ab = a.clone();
        merged_ab.merge(&b);
        let mut merged_ba = b.clone();
        merged_ba.merge(&a);
        assert_eq!(merged_ab, whole);
        assert_eq!(merged_ba, whole);
    }

    #[test]
    fn diff_recovers_the_window() {
        let mut h = Histogram::new();
        h.record(4);
        h.record(16);
        let snapshot = h.clone();
        h.record(64);
        h.record(64);
        let window = h.diff(&snapshot);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum(), 128);
        assert!(window.min() >= 33 && window.max() <= 127, "{window:?}");
        assert_eq!(h.diff(&h), Histogram::default());
    }

    #[test]
    fn json_value_carries_summary_statistics() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        let v = h.to_value();
        assert_eq!(v.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("sum").and_then(Value::as_f64), Some(30.0));
        assert_eq!(v.get("mean").and_then(Value::as_f64), Some(15.0));
        assert!(v.get("p50").is_some() && v.get("p90").is_some());
    }
}
