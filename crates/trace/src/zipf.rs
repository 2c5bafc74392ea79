//! Zipf-distributed rank sampling.
//!
//! The Figure 5 workload draws packets from a pool of flows whose
//! popularity is Zipf with skewness θ = 1.1 (§5.3). This module implements
//! inverse-CDF sampling over precomputed cumulative weights; construction
//! is O(n), sampling is O(log n), and everything is deterministic given
//! the caller's RNG.

use rand::Rng;

/// A sampler producing ranks `0..n` with probability ∝ `1 / (rank+1)^theta`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n` ranks with skewness `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> ZipfSampler {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(theta.is_finite() && theta >= 0.0, "invalid Zipf skewness");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank as f64) + 1.0).powf(theta);
            cumulative.push(total);
        }
        // Normalize so the last entry is exactly 1.0.
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if the sampler has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false // Construction guarantees n > 0.
    }

    /// Draw one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl ZipfSampler {
        /// The probability mass of `rank`.
        fn pmf(&self, rank: usize) -> f64 {
            let hi = self.cumulative[rank];
            let lo = if rank == 0 {
                0.0
            } else {
                self.cumulative[rank - 1]
            };
            hi - lo
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(1000, 1.1);
        let total: f64 = (0..1000).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn rank0_is_most_popular() {
        let z = ZipfSampler::new(100, 1.1);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_frequency_matches_pmf() {
        let z = ZipfSampler::new(50, 1.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut counts = vec![0u64; 50];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 5, 20] {
            let empirical = counts[r] as f64 / draws as f64;
            let expected = z.pmf(r);
            assert!(
                (empirical - expected).abs() < 0.01,
                "rank {r}: empirical {empirical} vs expected {expected}"
            );
        }
    }

    #[test]
    fn sample_is_deterministic_given_seed() {
        let z = ZipfSampler::new(1000, 1.1);
        let a: Vec<usize> = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn all_ranks_reachable_small_n() {
        let z = ZipfSampler::new(3, 1.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..10_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 1.1);
    }
}
