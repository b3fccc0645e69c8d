//! Log-bucketed histograms.

use crate::json::{self, JsonWriter};

/// Power-of-two bucketed histogram: value `v` lands in bucket
/// `64 − leading_zeros(v)` (bucket 0 holds exactly `v = 0`), so bucket
/// `i ≥ 1` spans `[2^(i−1), 2^i)`. Constant memory, O(1) record, exact
/// count/sum/max plus ~2× bounded percentiles — enough for latency and
/// depth distributions without pulling in a dependency.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value.
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0.0 ≤ p ≤ 100.0`); accurate to within the 2× bucket width.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i).saturating_sub(1).min(self.max) };
            }
        }
        self.max
    }

    /// Serialize summary statistics as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`LogHistogram::to_json`] object in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("count").u64(self.count);
            w.key("sum").u64(self.sum);
            w.key("mean").fixed(self.mean(), 1);
            w.key("p50").u64(self.percentile(50.0));
            w.key("p99").u64(self.percentile(99.0));
            w.key("max").u64(self.max);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn stats_track_exactly() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        assert!(h.percentile(50.0) <= 3);
        assert_eq!(h.percentile(100.0), 100);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.to_json(), "{\"count\":0,\"sum\":0,\"mean\":0.0,\"p50\":0,\"p99\":0,\"max\":0}");
    }
}
