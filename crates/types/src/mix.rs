//! The workspace's two seedable integer hashes: the splitmix64 mixer
//! (public-domain constants) and 64-bit FNV-1a. Seeds, schedules and
//! digests across the crates derive from these, so their outputs are
//! pinned bit for bit by the goldens.

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
}
