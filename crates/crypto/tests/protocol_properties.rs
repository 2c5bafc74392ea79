//! Property tests across the crypto crate.

use proptest::prelude::*;
use rand::SeedableRng;
use snic_crypto::chacha20::ChaCha20;
use snic_crypto::dh::{DhKeyPair, DhParams};
use snic_crypto::hmac::hmac_sha256;
use snic_crypto::rsa::RsaKeyPair;
use snic_crypto::sha256::sha256;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn sha256_is_deterministic_and_sensitive(data in proptest::collection::vec(any::<u8>(), 0..500)) {
        let a = sha256(&data);
        prop_assert_eq!(a, sha256(&data));
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            prop_assert_ne!(a, sha256(&flipped));
        }
    }

    #[test]
    fn chacha_decrypts_what_it_encrypts(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let cipher = ChaCha20::new(&key, &nonce);
        let mut buf = data.clone();
        cipher.apply(counter, &mut buf);
        cipher.apply(counter, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn hmac_keys_separate(data in proptest::collection::vec(any::<u8>(), 1..200)) {
        prop_assert_ne!(hmac_sha256(b"key-a", &data), hmac_sha256(b"key-b", &data));
    }

    #[test]
    fn dh_tiny_group_always_agrees(seed in any::<u64>()) {
        let params = DhParams::tiny_test_group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = DhKeyPair::generate(&mut rng, &params);
        let b = DhKeyPair::generate(&mut rng, &params);
        prop_assert_eq!(a.shared_secret(&b.public), b.shared_secret(&a.public));
    }
}

#[test]
fn rsa_sign_verify_many_messages() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x125a);
    let key = RsaKeyPair::generate(&mut rng, 512);
    for i in 0..20u32 {
        let msg = format!("statement-{i}");
        let sig = key.sign(msg.as_bytes());
        assert!(key.public.verify(msg.as_bytes(), &sig));
        assert!(!key
            .public
            .verify(format!("statement-{}", i + 1).as_bytes(), &sig));
    }
}

/// Keys and signatures are functions of the seed alone, byte for byte:
/// the digests below were captured at the commit before `modpow` moved
/// to Montgomery form and `sign` to CRT, so any change to the RNG draw
/// order in `gen_prime` / `is_probable_prime` / `random_below`, or to
/// the value a signature takes, shows here first (every quote,
/// transcript digest and sealed image downstream depends on them).
#[test]
fn keys_and_signatures_match_the_answers_captured_before_montgomery() {
    use snic_crypto::keys::SIM_KEY_BITS;
    use snic_crypto::sha256::to_hex;
    const KNOWN: [(u64, &str, &str); 2] = [
        (
            1,
            "4848b3afc9a77ff1e53e6a834b42de58d3339120f9cfb159e5a4fd43e19dd8a3",
            "c8cc9d2e5da92d673aab298fbd4945e1847fc216bce78933e666cc53cb2d5ac1",
        ),
        (
            0x5a1c_2024,
            "a8e5918e63546eb58e2ec5536efa54a3ed67abfb07ebd37c85b5c7a0a661ae4a",
            "a89ed594ae199ba1fff7eec70e56542db5df60a9e4db4ec9bc16fb9d6bad85b4",
        ),
    ];
    for (seed, public, signature) in KNOWN {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let key = RsaKeyPair::generate(&mut rng, SIM_KEY_BITS);
        assert_eq!(
            to_hex(&sha256(&key.public.to_bytes())),
            public,
            "seed {seed}"
        );
        let sig = key.sign(b"measurement || verdict || transcript");
        assert_eq!(to_hex(&sha256(&sig.0)), signature, "seed {seed}");
    }
}
