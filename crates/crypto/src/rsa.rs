//! Textbook RSA signatures for the S-NIC key hierarchy.
//!
//! The paper's NIC signs attestation statements with an attestation key
//! whose public half is endorsed by the endorsement key, which is in turn
//! certified by the NIC vendor (Appendix A). We implement deterministic
//! RSA signatures over SHA-256 digests with a fixed PKCS#1-v1.5-style
//! prefix. Simulation-grade only; see the crate-level disclaimer.

use rand::Rng;

use crate::bigint::BigUint;
use crate::sha256::sha256;

/// Public exponent used for all generated keys.
const PUBLIC_EXPONENT: u64 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

/// An RSA signature (big-endian bytes of the signature integer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaSignature(pub Vec<u8>);

/// An RSA key pair. Besides the private exponent it keeps the factors
/// and the Chinese-remainder constants [`RsaKeyPair::sign`] works with.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half.
    pub public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    /// `d mod (p - 1)`.
    dp: BigUint,
    /// `d mod (q - 1)`.
    dq: BigUint,
    /// `q⁻¹ mod p`.
    q_inv: BigUint,
}

impl RsaKeyPair {
    /// Generate a key pair with a modulus of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 128` (too small even for tests).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> RsaKeyPair {
        assert!(bits >= 128, "RSA modulus too small");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = BigUint::gen_prime(rng, bits / 2);
            let q = BigUint::gen_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let (p1, q1) = (p.sub(&BigUint::one()), q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&p1.mul(&q1)) else {
                continue;
            };
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                q_inv: q.modinv(&p).expect("distinct primes are coprime"),
                d,
                p,
                q,
            };
        }
    }

    /// Sign `message`: pad SHA-256(message) and apply the private exponent.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is under 62 bytes, too small for the padding.
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let em = pad_digest(&sha256(message), self.public.n.bits())
            .expect("modulus too small for PKCS#1 padding");
        let m = BigUint::from_be_bytes(&em);
        debug_assert!(m < self.public.n);
        let RsaPublicKey { n, e } = &self.public;
        let mut s = self.crt_power(&m);
        // A CRT signature computed with a fault in one half is correct
        // modulo one prime and wrong modulo the other, so its difference
        // from the true signature shares exactly one factor with n
        // (Boneh–DeMillo–Lipton). Nothing leaves before it verifies.
        if s.modpow(e, n) != m {
            s = m.modpow(&self.d, n);
        }
        RsaSignature(s.to_be_bytes())
    }

    /// `m^d mod n` from its halves modulo `p` and `q` (Garner's
    /// recombination): two half-width exponentiations in place of one
    /// full-width one.
    fn crt_power(&self, m: &BigUint) -> BigUint {
        let sp = m.modpow(&self.dp, &self.p);
        let sq = m.modpow(&self.dq, &self.q);
        // h = q⁻¹ (sp - sq) mod p, with p added to keep the difference
        // non-negative.
        let h = sp
            .add(&self.p)
            .sub(&sq.rem(&self.p))
            .mulmod(&self.q_inv, &self.p);
        sq.add(&h.mul(&self.q))
    }
}

impl RsaPublicKey {
    /// Verify `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        // The key may come from the party being verified (the AK inside
        // a quote): a modulus too small to pad for verifies nothing.
        let Some(expect) = pad_digest(&sha256(message), self.n.bits()) else {
            return false;
        };
        let s = BigUint::from_be_bytes(&signature.0);
        if s >= self.n {
            return false;
        }
        // Compare as integers: `expect` starts with a zero byte.
        s.modpow(&self.e, &self.n) == BigUint::from_be_bytes(&expect)
    }

    /// Serialize for hashing/certification (modulus then exponent).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.n.to_be_bytes();
        out.push(0xff); // Separator.
        out.extend_from_slice(&self.e.to_be_bytes());
        out
    }
}

/// EMSA-PKCS1-v1_5-style padding: `00 01 FF.. 00 | prefix | digest`,
/// sized to the modulus length; `None` if the modulus is too short to
/// hold it.
fn pad_digest(digest: &[u8; 32], modulus_bits: usize) -> Option<Vec<u8>> {
    // DER prefix for SHA-256 (RFC 8017 §9.2 note 1).
    const PREFIX: [u8; 19] = [
        0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
        0x05, 0x00, 0x04, 0x20,
    ];
    let k = modulus_bits.div_ceil(8);
    let t_len = PREFIX.len() + digest.len();
    if k < t_len + 11 {
        return None;
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&PREFIX);
    em.extend_from_slice(digest);
    Some(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn test_keypair() -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        RsaKeyPair::generate(&mut rng, 512)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = test_keypair();
        let sig = kp.sign(b"attestation statement");
        assert!(kp.public.verify(b"attestation statement", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = test_keypair();
        let sig = kp.sign(b"genuine");
        assert!(!kp.public.verify(b"forged", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = test_keypair();
        let mut sig = kp.sign(b"msg");
        sig.0[0] ^= 0x80;
        assert!(!kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = test_keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let kp2 = RsaKeyPair::generate(&mut rng, 512);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_oversized_signature() {
        let kp = test_keypair();
        let huge = RsaSignature(kp.public.n.to_be_bytes());
        assert!(!kp.public.verify(b"msg", &huge));
    }

    /// The padded digest `sign` exponentiates.
    fn padded(kp: &RsaKeyPair, message: &[u8]) -> BigUint {
        let em = pad_digest(&sha256(message), kp.public.n.bits()).expect("fits");
        BigUint::from_be_bytes(&em)
    }

    #[test]
    fn crt_signature_is_the_full_exponent_signature() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc127);
        // Even and odd widths: with an odd one q is a bit longer than p.
        for bits in [512usize, 513, 600, 767, 768].into_iter().cycle().take(50) {
            let kp = RsaKeyPair::generate(&mut rng, bits);
            let m = padded(&kp, b"quote");
            let full = m.modpow(&kp.d, &kp.public.n);
            assert_eq!(kp.crt_power(&m), full, "{bits}-bit key");
            assert_eq!(kp.sign(b"quote"), RsaSignature(full.to_be_bytes()));
        }
    }

    #[test]
    fn a_faulty_crt_half_never_leaves_sign() {
        let good = test_keypair();
        let m = padded(&good, b"msg");
        for half in 0..2 {
            // The test's fault injector: one half-exponent off by one.
            let mut faulty = good.clone();
            let d_half = if half == 0 {
                &mut faulty.dp
            } else {
                &mut faulty.dq
            };
            *d_half = d_half.add(&BigUint::one());
            // Released as computed, the signature would differ from the
            // true one by a multiple of exactly one prime: gcd with n
            // factors the key.
            let (bad, want) = (faulty.crt_power(&m), good.crt_power(&m));
            let delta = if bad > want {
                bad.sub(&want)
            } else {
                want.sub(&bad)
            };
            let (still_right, now_wrong) = if half == 0 {
                (&good.q, &good.p)
            } else {
                (&good.p, &good.q)
            };
            assert!(!delta.is_zero() && delta.rem(still_right).is_zero());
            assert!(!delta.rem(now_wrong).is_zero());
            // The pre-release check catches it and recomputes.
            assert_eq!(faulty.sign(b"msg"), good.sign(b"msg"));
            assert!(good.public.verify(b"msg", &faulty.sign(b"msg")));
        }
    }

    #[test]
    fn verify_rejects_hostile_keys_without_panicking() {
        let kp = test_keypair();
        let sig = kp.sign(b"msg");
        let with = |n: BigUint, e: BigUint| RsaPublicKey { n, e };
        let e = kp.public.e.clone();
        // A modulus too short for the padding (the parent panicked here:
        // "modulus too small for PKCS#1 padding").
        let short = BigUint::from_u64(0xffff_ffff_ffff_ffc5);
        assert!(!with(short, e.clone()).verify(b"msg", &RsaSignature(vec![2])));
        assert!(!with(BigUint::zero(), e.clone()).verify(b"msg", &sig));
        assert!(!with(BigUint::one(), e.clone()).verify(b"msg", &RsaSignature(vec![])));
        // An even modulus of full size (Montgomery form cannot take it).
        let even = kp.public.n.add(&BigUint::one());
        assert!(!with(even, e.clone()).verify(b"msg", &sig));
        // A signature at or above the modulus, and a zero exponent.
        let above = RsaSignature(kp.public.n.add(&BigUint::one()).to_be_bytes());
        assert!(!kp.public.verify(b"msg", &above));
        assert!(!with(kp.public.n.clone(), BigUint::zero()).verify(b"msg", &sig));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = test_keypair();
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn padding_shape() {
        let em = pad_digest(&sha256(b"x"), 512).expect("64 bytes hold the padding");
        assert_eq!(em.len(), 64);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert!(em[2..].iter().take_while(|&&b| b == 0xff).count() >= 8);
    }
}
