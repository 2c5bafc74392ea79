//! Payload generation and the BER → capacity conversion.
//!
//! The capacity estimate is the *plug-in* mutual information of the
//! empirical (sent, decoded) joint distribution, in bits per channel
//! use, times the measured raw bit-rate. This is conservative twice
//! over: the plug-in estimate uses the empirical input distribution
//! rather than the capacity-achieving one, and the binary-symmetric
//! bound `1 − H₂(BER)` it generalizes assumes the decoder throws away
//! everything but the hard bit decision. A channel reported at
//! `c` bits/sec therefore leaks *at least* `c`; a channel reported at
//! exactly 0 has a decoder whose output never varied at all.

pub use snic_types::mix::splitmix64;

/// The seeded pseudorandom payload a sender transmits: `n` bits drawn
/// from splitmix64, one per output word.
pub fn payload_bits(seed: u64, n: usize) -> Vec<bool> {
    let mut state = seed;
    (0..n).map(|_| splitmix64(&mut state) >> 63 == 1).collect()
}

/// Empirical confusion matrix of one transmission: `counts[sent][decoded]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    counts: [[u64; 2]; 2],
}

impl Confusion {
    /// Record one (sent, decoded) bit pair.
    pub fn record(&mut self, sent: bool, decoded: bool) {
        self.counts[usize::from(sent)][usize::from(decoded)] += 1;
    }

    /// Total bits recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Bits decoded to the wrong value.
    pub fn errors(&self) -> u64 {
        self.counts[0][1] + self.counts[1][0]
    }

    /// Bit-error rate.
    pub fn ber(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            n => self.errors() as f64 / n as f64,
        }
    }

    /// Plug-in mutual information I(sent; decoded) in bits per channel
    /// use, with the 0·log 0 := 0 convention.
    ///
    /// When the decoder's output is constant — the S-NIC case, where
    /// the receiver's observables are payload-independent by the
    /// engine's purity property — one marginal is degenerate, every
    /// term's log argument is exactly 1, and the result is exactly
    /// `0.0` in floating point, not merely small.
    pub fn mutual_information(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        let sent: [f64; 2] = [0, 1].map(|x| (self.counts[x][0] + self.counts[x][1]) as f64 / n);
        let dec: [f64; 2] = [0, 1].map(|y| (self.counts[0][y] + self.counts[1][y]) as f64 / n);
        let mut mi = 0.0;
        for (x, &px) in sent.iter().enumerate() {
            for (y, &py) in dec.iter().enumerate() {
                let p = self.counts[x][y] as f64 / n;
                if p > 0.0 {
                    mi += p * (p / (px * py)).log2();
                }
            }
        }
        // Finite-sample noise can leave a tiny negative residue.
        mi.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_balanced_ish() {
        let a = payload_bits(7, 256);
        let b = payload_bits(7, 256);
        assert_eq!(a, b);
        let ones = a.iter().filter(|&&x| x).count();
        assert!((64..=192).contains(&ones), "wildly unbalanced: {ones}/256");
        assert_ne!(payload_bits(8, 256), a, "seed must matter");
    }

    #[test]
    fn perfect_decode_recovers_payload_entropy() {
        let mut c = Confusion::default();
        for i in 0..32 {
            let bit = i % 2 == 0;
            c.record(bit, bit);
        }
        assert_eq!(c.errors(), 0);
        assert_eq!(c.ber(), 0.0);
        assert!((c.mutual_information() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_decoder_has_exactly_zero_information() {
        let mut c = Confusion::default();
        for &bit in &payload_bits(3, 64) {
            c.record(bit, false);
        }
        assert_eq!(c.mutual_information(), 0.0, "exactly zero, not epsilon");
        let ber = c.ber();
        assert!((0.2..=0.8).contains(&ber), "BER ≈ 0.5, got {ber}");
    }

    #[test]
    fn symmetric_noise_matches_binary_entropy_bound() {
        // 25% errors in each sent class (a uniform-input BSC) →
        // I = 1 − H₂(0.25).
        let mut c = Confusion::default();
        for i in 0..64 {
            let bit = i % 2 == 0;
            c.record(bit, if i % 8 < 2 { !bit } else { bit });
        }
        assert_eq!(c.ber(), 0.25);
        let h2 = |p: f64| -p * p.log2() - (1.0 - p) * (1.0 - p).log2();
        assert!((c.mutual_information() - (1.0 - h2(0.25))).abs() < 1e-12);
    }
}
