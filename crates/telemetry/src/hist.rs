//! A small fixed-footprint histogram for simulated-time samples.

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket absorbs
/// everything above.
const BUCKETS: usize = 64;

/// Log2-bucketed histogram of `u64` samples with exact count/sum and
/// min/max. Deterministic: two runs that record the same multiset of
/// samples produce byte-identical renderings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Reconstruct a histogram from retained moments (the lossy text
    /// form keeps only count/sum/min/max). Bucket detail is gone: all
    /// samples land in the min bucket.
    pub fn from_moments(count: u64, sum: u64, min: u64, max: u64) -> Self {
        let mut h = Histogram::new();
        if count > 0 {
            h.count = count;
            h.sum = sum;
            h.min = min;
            h.max = max;
            h.buckets[Self::bucket_of(min)] = count;
        }
        h
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [0, 1, 7, 16, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1024);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn merge_matches_recording_directly() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3, 9, 27] {
            a.record(v);
            all.record(v);
        }
        for v in [81, 243] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
