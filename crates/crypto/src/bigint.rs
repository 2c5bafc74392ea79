//! Arbitrary-precision unsigned integers.
//!
//! Little-endian `u64` limbs, schoolbook multiplication, Knuth Algorithm D
//! division, windowed modular exponentiation in Montgomery form (binary
//! square-and-multiply for the even moduli Montgomery reduction cannot
//! take), Miller–Rabin primality testing, and modular inverse via the
//! extended Euclidean algorithm. Sized for the needs of [`crate::dh`]
//! (61-bit test group, 2048-bit RFC 3526 group) and [`crate::rsa`]
//! (768-bit simulated hierarchy); no constant-time hardening.

use rand::Rng;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` has no trailing (most-significant) zero limbs; zero is
/// represented by an empty limb vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> BigUint {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> BigUint {
        BigUint::from_u64(1)
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> BigUint {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = [0u8; 8];
            limb[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(limb));
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes without leading zeros (empty for 0).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.split_off(first_nonzero)
    }

    /// Parse from a hexadecimal string (no prefix, whitespace ignored).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters; used for embedded constants only.
    pub fn from_hex(s: &str) -> BigUint {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(
            clean.chars().all(|c| c.is_ascii_hexdigit()),
            "invalid hex constant"
        );
        let nibble = |c: char| c.to_digit(16).expect("validated hex digit") as u8;
        let mut bytes = Vec::with_capacity(clean.len() / 2 + 1);
        let chars: Vec<char> = clean.chars().collect();
        let mut i = 0;
        if chars.len() % 2 == 1 {
            bytes.push(nibble(chars[0]));
            i = 1;
        }
        while i < chars.len() {
            bytes.push((nibble(chars[i]) << 4) | nibble(chars[i + 1]));
            i += 2;
        }
        BigUint::from_be_bytes(&bytes)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(a) * u128::from(b) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift right by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder of `self / divisor` (Knuth Algorithm D).
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            // Fast path: single-limb divisor.
            let d = divisor.limbs[0];
            let mut rem = 0u64;
            let mut q = vec![0u64; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (u128::from(rem) << 64) | u128::from(self.limbs[i]);
                q[i] = (cur / u128::from(d)) as u64;
                rem = (cur % u128::from(d)) as u64;
            }
            let mut quot = BigUint { limbs: q };
            quot.normalize();
            return (quot, BigUint::from_u64(rem));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor
            .limbs
            .last()
            .expect("divisor is nonzero, so it has limbs")
            .leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // Extra limb for the algorithm's u[m+n] slot.
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_second = vn[n - 2];
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder,
            // clamped to B-1 (Knuth's step D3 requires the clamp before
            // the two-limb refinement).
            let numerator = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
            let mut qhat = (numerator / u128::from(v_top)).min((1u128 << 64) - 1);
            let mut rhat = numerator - qhat * u128::from(v_top);
            while rhat < (1u128 << 64)
                && qhat * u128::from(v_second) > ((rhat << 64) | u128::from(un[j + n - 2]))
            {
                qhat -= 1;
                rhat += u128::from(v_top);
            }
            // Multiply-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * u128::from(vn[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(un[j + i]) - (p as u64 as i128) + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = i128::from(un[j + n]) - carry as i128 + borrow;
            un[j + n] = sub as u64;
            borrow = sub >> 64;

            q[j] = qhat as u64;
            if borrow < 0 {
                // q̂ was one too large: add the divisor back.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u128::from(un[j + i]) + u128::from(vn[i]) + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quot = BigUint { limbs: q };
        quot.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quot, rem.shr(shift))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus`.
    pub fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// `self^exp mod modulus`: windowed exponentiation in Montgomery form
    /// for an odd modulus, binary square-and-multiply for an even one.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus == &BigUint::one() {
            return BigUint::zero();
        }
        if modulus.is_even() {
            return self.modpow_binary(exp, modulus);
        }
        let ctx = Montgomery::new(modulus);
        ctx.leave(&ctx.pow(&ctx.enter(&self.rem(modulus)), exp))
    }

    /// Left-to-right binary exponentiation with a full multiply and
    /// divide per step: what `modpow` runs for an even modulus greater
    /// than 1 (nothing on a serving path has one), and the model the
    /// Montgomery path is tested against.
    fn modpow_binary(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let base = self.rem(modulus);
        let nbits = exp.bits();
        for i in (0..nbits).rev() {
            result = result.mulmod(&result, modulus);
            if exp.bit(i) {
                result = result.mulmod(&base, modulus);
            }
        }
        result
    }

    /// Modular inverse: the `x` with `(self * x) mod modulus == 1`.
    ///
    /// Returns `None` if `gcd(self, modulus) != 1`.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        // Extended Euclid tracking only the coefficient of `self`, with an
        // explicit sign since BigUint is unsigned.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (BigUint::zero(), false); // (magnitude, negative?)
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic on magnitudes).
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return None;
        }
        let (mag, neg) = t0;
        Some(if neg {
            modulus.sub(&mag.rem(modulus)).rem(modulus)
        } else {
            mag.rem(modulus)
        })
    }

    /// Uniformly random value in `[0, bound)` using the supplied RNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below zero bound");
        let nbits = bound.bits();
        let nlimbs = nbits.div_ceil(64);
        loop {
            let mut limbs: Vec<u64> = (0..nlimbs).map(|_| rng.random()).collect();
            // Mask off bits above the bound's width to keep rejection cheap.
            let extra = nlimbs * 64 - nbits;
            if extra > 0 {
                let last = limbs.last_mut().expect("nlimbs >= 1");
                *last &= u64::MAX >> extra;
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        if self.is_zero() || self == &BigUint::one() {
            return false;
        }
        let two = BigUint::from_u64(2);
        if self == &two {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Trial division by small primes eliminates most candidates cheaply.
        for p in SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            if self == &pb {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        // Write self-1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let s = trailing_zeros(&n_minus_1);
        let d = n_minus_1.shr(s);
        let n_minus_3 = self.sub(&BigUint::from_u64(3));
        // One Montgomery context for every round; `x` stays in Montgomery
        // form, which is a bijection on [0, n), so it is compared against
        // the forms of 1 and n-1.
        let ctx = Montgomery::new(self);
        let one = ctx.enter(&BigUint::one());
        let minus_one = ctx.enter(&n_minus_1);
        let mut scratch = ctx.scratch();
        'witness: for _ in 0..rounds {
            // Random base in [2, n-2].
            let a = BigUint::random_below(rng, &n_minus_3).add(&two);
            let mut x = ctx.pow(&ctx.enter(&a), &d);
            if x == one || x == minus_one {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                ctx.square(&mut x, &mut scratch);
                if x == minus_one {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 8, "prime size too small");
        loop {
            let bound = BigUint::one().shl(bits);
            let mut candidate = BigUint::random_below(rng, &bound);
            // Force top bit (exact size) and bottom bit (odd).
            candidate = candidate.clone().add(&BigUint::one().shl(bits - 1));
            if candidate.bits() > bits {
                continue;
            }
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.is_probable_prime(rng, 16) {
                return candidate;
            }
        }
    }
}

/// Exponents longer than this use a 4-bit fixed window: its 14 table
/// multiplies are repaid once `bits / 2 - bits / 4` exceeds them. The
/// 17-bit RSA public exponent stays binary; private, Diffie–Hellman and
/// Miller–Rabin exponents are windowed.
const WINDOW_MIN_BITS: usize = 56;

/// Montgomery arithmetic modulo a fixed odd `n > 1` of `k` limbs, with
/// `R = 2^(64k)`. Residues are `k`-limb little-endian slices holding
/// `x·R mod n`, always fully reduced.
struct Montgomery<'a> {
    n: &'a [u64],
    /// `-n⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod n`: multiplying by it enters Montgomery form.
    r2: Vec<u64>,
}

impl<'a> Montgomery<'a> {
    fn new(modulus: &'a BigUint) -> Montgomery<'a> {
        let n = &modulus.limbs[..];
        debug_assert!(n[0] & 1 == 1 && modulus > &BigUint::one());
        // Newton's iteration doubles the correct low bits each round,
        // starting from the three every odd n0 gives (n0² ≡ 1 mod 8).
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let mut r2 = BigUint::one().shl(128 * n.len()).rem(modulus).limbs;
        r2.resize(n.len(), 0);
        Montgomery {
            n,
            n0_inv: inv.wrapping_neg(),
            r2,
        }
    }

    /// Working space for [`Montgomery::mul`]: `k + 2` limbs.
    fn scratch(&self) -> Vec<u64> {
        vec![0; self.n.len() + 2]
    }

    /// `t[..k] = a·b·R⁻¹ mod n` (coarsely integrated operand scanning:
    /// each limb of `b` is multiplied in and one limb of `n`-multiples
    /// reduced out, so `t` never exceeds `k + 2` limbs). `a, b < n`.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let (n, k) = (self.n, self.n.len());
        let (a, b) = (&a[..k], &b[..k]);
        t.fill(0);
        for &bi in b {
            let mut carry = 0u128;
            for j in 0..k {
                let cur = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t[k]) + carry;
            t[k] = cur as u64;
            t[k + 1] = (cur >> 64) as u64;

            let m = t[0].wrapping_mul(self.n0_inv);
            let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(n[0])) >> 64;
            for j in 1..k {
                let cur = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t[k]) + carry;
            t[k - 1] = cur as u64;
            t[k] = t[k + 1] + (cur >> 64) as u64;
        }
        // t < 2n here; one conditional subtraction fully reduces it.
        if t[k] != 0 || t[..k].iter().rev().ge(n.iter().rev()) {
            let mut borrow = false;
            for j in 0..k {
                let (d, b1) = t[j].overflowing_sub(n[j]);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                t[j] = d;
                borrow = b1 | b2;
            }
        }
    }

    /// `x = x²` in Montgomery form.
    fn square(&self, x: &mut [u64], t: &mut [u64]) {
        self.mul(x, x, t);
        x.copy_from_slice(&t[..x.len()]);
    }

    /// The Montgomery form of `x < n`.
    fn enter(&self, x: &BigUint) -> Vec<u64> {
        let mut padded = x.limbs.clone();
        padded.resize(self.n.len(), 0);
        let mut t = self.scratch();
        self.mul(&padded, &self.r2, &mut t);
        t.truncate(self.n.len());
        t
    }

    /// The value a Montgomery residue stands for.
    fn leave(&self, x: &[u64]) -> BigUint {
        let mut one = vec![0; self.n.len()];
        one[0] = 1;
        let mut t = self.scratch();
        self.mul(x, &one, &mut t);
        t.truncate(self.n.len());
        let mut out = BigUint { limbs: t };
        out.normalize();
        out
    }

    /// `base^exp`, residue in and residue out: left-to-right over
    /// fixed windows of the exponent, `w` squarings and at most one table
    /// multiply per window. The window width depends on `exp.bits()`
    /// alone.
    fn pow(&self, base: &[u64], exp: &BigUint) -> Vec<u64> {
        let k = self.n.len();
        let w = if exp.bits() > WINDOW_MIN_BITS { 4 } else { 1 };
        let mut t = self.scratch();
        // table[d] = base^d for every window digit d.
        let mut table = vec![0u64; k << w];
        table[..k].copy_from_slice(&self.enter(&BigUint::one()));
        table[k..2 * k].copy_from_slice(base);
        for d in 2..1 << w {
            let (lower, upper) = table.split_at_mut(d * k);
            self.mul(&lower[(d - 1) * k..], base, &mut t);
            upper[..k].copy_from_slice(&t[..k]);
        }
        let mut x = table[..k].to_vec();
        for i in (0..exp.bits().div_ceil(w)).rev() {
            for _ in 0..w {
                self.square(&mut x, &mut t);
            }
            // `w` divides 64, so a window never straddles two limbs.
            let digit = (exp.limbs[i * w / 64] >> (i * w % 64)) as usize & ((1 << w) - 1);
            if digit != 0 {
                self.mul(&x, &table[digit * k..(digit + 1) * k], &mut t);
                x.copy_from_slice(&t[..k]);
            }
        }
        x
    }
}

/// Count of trailing zero bits.
fn trailing_zeros(n: &BigUint) -> usize {
    assert!(!n.is_zero());
    let mut count = 0;
    for &limb in &n.limbs {
        if limb == 0 {
            count += 64;
        } else {
            count += limb.trailing_zeros() as usize;
            break;
        }
    }
    count
}

/// `a - b` on signed (magnitude, negative?) pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with like signs: compare magnitudes.
        (an, bn) if an == bn => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), an)
            } else {
                (b.0.sub(&a.0), !an)
            }
        }
        // a - (-b) = a + b, keeping a's sign; (-a) - b = -(a + b).
        (an, _) => (a.0.add(&b.0), an),
    }
}

const SMALL_PRIMES: [u64; 15] = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            core::cmp::Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        core::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                core::cmp::Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl core::fmt::Display for BigUint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let bytes = self.to_be_bytes();
        write!(f, "0x")?;
        for b in bytes {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_be_bytes(&v.to_be_bytes())
    }

    #[test]
    fn round_trip_bytes() {
        let n = BigUint::from_be_bytes(&[0x01, 0x02, 0x03]);
        assert_eq!(n.to_be_bytes(), vec![0x01, 0x02, 0x03]);
        assert_eq!(BigUint::zero().to_be_bytes(), Vec::<u8>::new());
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(BigUint::from_be_bytes(&[0, 0, 5]), BigUint::from_u64(5));
    }

    #[test]
    fn from_hex_parses() {
        assert_eq!(BigUint::from_hex("ff"), BigUint::from_u64(255));
        assert_eq!(BigUint::from_hex("1 00"), BigUint::from_u64(256));
        assert_eq!(BigUint::from_hex("abc"), BigUint::from_u64(0xabc));
    }

    #[test]
    fn bits_and_bit() {
        let n = BigUint::from_u64(0b1010);
        assert_eq!(n.bits(), 4);
        assert!(n.bit(1));
        assert!(!n.bit(0));
        assert!(!n.bit(100));
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().shl(100).bits(), 101);
    }

    #[test]
    fn modpow_small_cases() {
        // 3^5 mod 7 = 243 mod 7 = 5.
        let r = BigUint::from_u64(3).modpow(&BigUint::from_u64(5), &BigUint::from_u64(7));
        assert_eq!(r, BigUint::from_u64(5));
        // Fermat: a^(p-1) = 1 mod p.
        let p = BigUint::from_u64(1_000_000_007);
        let a = BigUint::from_u64(123_456_789);
        assert_eq!(a.modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
    }

    #[test]
    fn modinv_matches_fermat() {
        let p = BigUint::from_u64(1_000_000_007);
        let a = BigUint::from_u64(42);
        let inv = a.modinv(&p).unwrap();
        assert_eq!(a.mulmod(&inv, &p), BigUint::one());
        // No inverse when gcd != 1.
        assert!(BigUint::from_u64(6).modinv(&BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn known_primes_and_composites() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for p in [2u64, 3, 5, 101, 65_537, 1_000_000_007] {
            assert!(
                BigUint::from_u64(p).is_probable_prime(&mut rng, 16),
                "{p} is prime"
            );
        }
        for c in [1u64, 4, 100, 65_535, 1_000_000_011] {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(&mut rng, 16),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_exact_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let p = BigUint::gen_prime(&mut rng, 128);
        assert_eq!(p.bits(), 128);
        assert!(p.is_probable_prime(&mut rng, 16));
    }

    #[test]
    fn knuth_division_addback_case() {
        // Stress the rare add-back branch with a divisor of all-ones limbs.
        let u = BigUint {
            limbs: vec![0, 0, 0x8000_0000_0000_0000, u64::MAX],
        };
        let v = BigUint {
            limbs: vec![u64::MAX, u64::MAX],
        };
        let (q, r) = u.div_rem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    /// A random value of exactly `limbs` limbs.
    fn random_limbs(rng: &mut impl Rng, limbs: usize) -> BigUint {
        let mut limbs: Vec<u64> = (0..limbs).map(|_| rng.random()).collect();
        *limbs.last_mut().expect("at least one limb") |= 1 << 63;
        BigUint { limbs }
    }

    #[test]
    fn montgomery_modpow_matches_square_and_multiply() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4d6f_6e74);
        for limbs in [1usize, 2, 3, 6, 12, 13, 32] {
            for case in 0..if limbs > 13 { 2 } else { 4 } {
                let mut m = random_limbs(&mut rng, limbs);
                m.limbs[0] |= 1;
                if case == 0 {
                    m.limbs[limbs - 1] = u64::MAX;
                }
                let width = 64 * limbs;
                let all_ones = BigUint::one().shl(width).sub(&BigUint::one());
                let exps = [
                    BigUint::zero(),
                    BigUint::one(),
                    BigUint::one().shl(5),
                    BigUint::one().shl(width - 1),
                    all_ones.clone(),
                    // One bit past the binary/windowed switch on either side.
                    all_ones.shr(width - WINDOW_MIN_BITS.min(width)),
                    all_ones.shr(width - (WINDOW_MIN_BITS + 1).min(width)),
                    random_limbs(&mut rng, limbs),
                ];
                let bases = [
                    BigUint::zero(),
                    BigUint::one(),
                    m.sub(&BigUint::one()),
                    m.clone(),
                    // At least the modulus, and wider than it.
                    random_limbs(&mut rng, limbs + 1),
                    random_limbs(&mut rng, limbs).add(&m),
                ];
                for base in &bases {
                    for exp in &exps {
                        assert_eq!(
                            base.modpow(exp, &m),
                            base.modpow_binary(exp, &m),
                            "{base}^{exp} mod {m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn modpow_edge_moduli() {
        let (three, five) = (BigUint::from_u64(3), BigUint::from_u64(5));
        assert_eq!(three.modpow(&five, &BigUint::one()), BigUint::zero());
        assert_eq!(
            three.modpow(&BigUint::zero(), &BigUint::one()),
            BigUint::zero()
        );
        // The smallest odd modulus Montgomery form takes.
        assert_eq!(five.modpow(&five, &three), BigUint::from_u64(2));
        // An even modulus takes the binary path: 3^5 = 243 = 15·16 + 3.
        assert_eq!(three.modpow(&five, &BigUint::from_u64(16)), three);
        assert_eq!(
            three.modpow(&five, &BigUint::one().shl(200)),
            BigUint::from_u64(243)
        );
    }

    proptest! {
        #[test]
        fn montgomery_matches_on_random_shapes(
            base in proptest::collection::vec(any::<u64>(), 0..9),
            exp in proptest::collection::vec(any::<u64>(), 0..4),
            modulus in proptest::collection::vec(any::<u64>(), 1..7),
        ) {
            let [mut base, mut exp, mut modulus] =
                [base, exp, modulus].map(|limbs| BigUint { limbs });
            modulus.limbs[0] |= 1;
            base.normalize();
            exp.normalize();
            modulus.normalize();
            prop_assert_eq!(
                base.modpow(&exp, &modulus),
                if modulus == BigUint::one() {
                    BigUint::zero()
                } else {
                    base.modpow_binary(&exp, &modulus)
                }
            );
        }

        #[test]
        fn add_sub_inverse(a in any::<u128>(), b in any::<u128>()) {
            let (x, y) = (big(a), big(b));
            let sum = x.add(&y);
            prop_assert_eq!(sum.sub(&y), x);
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let expect = big(u128::from(a) * u128::from(b));
            prop_assert_eq!(BigUint::from_u64(a).mul(&BigUint::from_u64(b)), expect);
        }

        #[test]
        fn div_rem_reconstructs(a in any::<u128>(), b in 1u128..) {
            let (x, y) = (big(a), big(b));
            let (q, r) = x.div_rem(&y);
            prop_assert!(r < y);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }

        #[test]
        fn div_rem_matches_u128(a in any::<u128>(), b in 1u128..) {
            let (q, r) = big(a).div_rem(&big(b));
            prop_assert_eq!(q, big(a / b));
            prop_assert_eq!(r, big(a % b));
        }

        #[test]
        fn shl_shr_inverse(a in any::<u128>(), s in 0usize..200) {
            let x = big(a);
            prop_assert_eq!(x.shl(s).shr(s), x);
        }

        #[test]
        fn modpow_matches_u128(base in any::<u32>(), e in 0u32..64, m in 2u64..) {
            let mut expect: u128 = 1;
            for _ in 0..e {
                expect = expect * u128::from(base) % u128::from(m);
            }
            let got = BigUint::from_u64(u64::from(base))
                .modpow(&BigUint::from_u64(u64::from(e)), &BigUint::from_u64(m));
            prop_assert_eq!(got, big(expect));
        }

        #[test]
        fn big_division_random_multi_limb(
            a in proptest::collection::vec(any::<u64>(), 1..8),
            b in proptest::collection::vec(any::<u64>(), 1..5),
        ) {
            let mut x = BigUint { limbs: a };
            x.normalize();
            let mut y = BigUint { limbs: b };
            y.normalize();
            prop_assume!(!y.is_zero());
            let (q, r) = x.div_rem(&y);
            prop_assert!(r < y);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }
    }
}
