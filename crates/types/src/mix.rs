//! The workspace's seedable integer hashes: the splitmix64 mixer
//! (public-domain constants) and 64-bit FNV-1a, from which seeds,
//! schedules and digests across the crates derive, so their outputs are
//! pinned bit for bit by the goldens; and [`FxHasher`], the fixed-key
//! hasher of host-side tables whose iteration order nothing reads.

use std::hash::Hasher;

/// The splitmix64 increment (2^64 / φ, odd): adding it walks a u64
/// through all 2^64 states; multiplying by it spreads a small counter.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The FNV-1a 64-bit offset basis: where [`fnv1a`] starts a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The splitmix64 finalizer: a bijective avalanche of `z`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the splitmix64 generator: advance `state` and return
/// the next output word.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// FNV-1a over `bytes`, continuing from `hash` ([`FNV_OFFSET`] to start
/// afresh, a previous result to hash a sequence piecewise).
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FxHash multiplier (rustc's, after Firefox's): odd, with its set
/// bits spread across the word, so one multiply carries every input bit
/// into the high half.
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed-key, FxHash-style [`Hasher`]: each word is rotated into the
/// state and multiplied by [`FX_K`]. The state always ends on that
/// multiply, so its top bits — where hashbrown takes a bucket's 7-bit
/// tag — depend on every input word. Fast and deterministic across runs
/// and hosts, but not collision-resistant against a chosen key set: for
/// tables keyed by simulated flows, not by anything an adversary picks.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // splitmix64 from state 0: the published first outputs.
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        // FNV-1a 64: the published vectors for "" and "a"; piecewise
        // hashing equals hashing the concatenation.
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn fx_hasher_is_one_rotate_xor_multiply_per_word() {
        let hash = |f: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            f(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|_| {}), 0);
        assert_eq!(hash(&|h| h.write_u64(1)), FX_K);
        assert_eq!(
            hash(&|h| {
                h.write_u8(1);
                h.write_u32(2);
            }),
            (FX_K.rotate_left(5) ^ 2).wrapping_mul(FX_K)
        );
        // Bytes go in as little-endian words, the last one zero-padded.
        let x = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(
            hash(&|h| h.write(&x.to_le_bytes())),
            hash(&|h| h.write_u64(x))
        );
        assert_eq!(
            hash(&|h| h.write(&[7, 0, 1])),
            hash(&|h| h.write_u32(0x01_00_07))
        );
    }
}
