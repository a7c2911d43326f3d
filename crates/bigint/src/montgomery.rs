//! Montgomery multiplication: REDC-based modular products for odd moduli.
//!
//! Plain reduction divides every double-width product `a·b` by `n`.
//! Montgomery's method instead keeps operands in "Montgomery form"
//! `aR mod n` (with `R = 2^{64k}` for a `k`-limb modulus) where a product can be reduced with only shifts and single-limb
//! multiplies: the CIOS (coarsely integrated operand scanning) loop below
//! interleaves the multiply and the reduction so the double-width
//! intermediate never materializes. The price is a domain conversion on the
//! way in and out, which a long squaring chain amortizes to nothing — so
//! [`crate::ModContext`] routes exponentiation through this backend whenever
//! the modulus is odd and large enough for the conversion to pay for itself
//! (the measured E9 crossover: two limbs and up; single-limb moduli are
//! served faster by hardware division).

use crate::BigUint;

/// Per-modulus Montgomery context: the `n′ = −n⁻¹ mod 2^64` and
/// `R² mod n` precomputations plus the CIOS multiply.
///
/// ```
/// use dosn_bigint::{BigUint, MontgomeryContext};
///
/// let n = BigUint::from(1_000_003u64);
/// let ctx = MontgomeryContext::new(&n).expect("odd modulus");
/// let a = ctx.to_mont(&BigUint::from(1234u64));
/// let b = ctx.to_mont(&BigUint::from(5678u64));
/// let ab = ctx.from_mont(&ctx.mul(&a, &b));
/// assert_eq!(ab, BigUint::from(1234u64 * 5678 % 1_000_003));
/// ```
#[derive(Debug, Clone)]
pub struct MontgomeryContext {
    /// Modulus limbs, little-endian, length `k`.
    n: Vec<u64>,
    /// The modulus as a `BigUint`, for the final conditional subtract.
    modulus: BigUint,
    /// `n′ = −n⁻¹ mod 2^64`, the REDC folding constant.
    n0: u64,
    /// `R² mod n` with `R = 2^{64k}`: multiplying by this converts into
    /// Montgomery form with one `mul`.
    r2: BigUint,
    /// `R mod n`, the Montgomery form of 1.
    one: BigUint,
}

impl MontgomeryContext {
    /// Builds the context for an odd modulus `> 1`; returns `None` for even
    /// or trivial moduli (Montgomery reduction requires `gcd(n, 2^64) = 1`).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let n: Vec<u64> = modulus.limbs().to_vec();
        let k = n.len();
        // Newton's iteration for n⁻¹ mod 2^64: x ← x(2 − nx) doubles the
        // number of correct low bits each round. Odd n gives n·n ≡ 1 (mod 8),
        // so x₀ = n starts with 3 bits and five rounds reach 96 ≥ 64.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();
        let r = &(BigUint::one() << (64 * k as u64)) % modulus;
        let r2 = &(&r * &r) % modulus;
        Some(MontgomeryContext {
            n,
            modulus: modulus.clone(),
            n0,
            r2,
            one: r,
        })
    }

    /// The modulus this context reduces under.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The Montgomery form of 1 (`R mod n`).
    pub fn one_mont(&self) -> &BigUint {
        &self.one
    }

    /// Converts `x` (reduced, `< n`) into Montgomery form `xR mod n`.
    pub fn to_mont(&self, x: &BigUint) -> BigUint {
        self.mul(x, &self.r2)
    }

    /// Converts `x` out of Montgomery form (`xR⁻¹ mod n`).
    pub fn from_mont(&self, x: &BigUint) -> BigUint {
        self.mul(x, &BigUint::one())
    }

    /// Montgomery product `a·b·R⁻¹ mod n` via CIOS.
    ///
    /// Both inputs must be `< n`. When both are in Montgomery form the
    /// result is the Montgomery form of their modular product, so this is
    /// the `mul` closure handed to the generic window kernels.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.n.len();
        debug_assert!(a < &self.modulus && b < &self.modulus);
        let al = a.limbs();
        let bl = b.limbs();
        // t holds the running (k+2)-limb accumulator of the CIOS recurrence.
        let mut t = vec![0u64; k + 2];
        for i in 0..k {
            let ai = al.get(i).copied().unwrap_or(0);
            // t += ai · b
            let mut carry = 0u64;
            for (j, tj) in t.iter_mut().take(k).enumerate() {
                let bj = bl.get(j).copied().unwrap_or(0);
                let s = u128::from(*tj) + u128::from(ai) * u128::from(bj) + u128::from(carry);
                *tj = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = u128::from(t[k]) + u128::from(carry);
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // Fold out the low limb: t ← (t + m·n) / 2^64 with
            // m = t[0]·n′ mod 2^64, which zeroes t[0] by construction.
            let m = t[0].wrapping_mul(self.n0);
            let s = u128::from(t[0]) + u128::from(m) * u128::from(self.n[0]);
            let mut carry = (s >> 64) as u64;
            for j in 1..k {
                let s =
                    u128::from(t[j]) + u128::from(m) * u128::from(self.n[j]) + u128::from(carry);
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = u128::from(t[k]) + u128::from(carry);
            t[k - 1] = s as u64;
            let s = u128::from(t[k + 1]) + u128::from((s >> 64) as u64);
            t[k] = s as u64;
            debug_assert_eq!(s >> 64, 0, "CIOS accumulator overflow");
            t[k + 1] = 0;
        }
        t.truncate(k + 1);
        let result = BigUint::from_limbs(t);
        if result >= self.modulus {
            &result - &self.modulus
        } else {
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryContext::new(&b(100)).is_none());
        assert!(MontgomeryContext::new(&BigUint::one()).is_none());
        assert!(MontgomeryContext::new(&BigUint::zero()).is_none());
        assert!(MontgomeryContext::new(&b(101)).is_some());
    }

    #[test]
    fn roundtrip_and_known_product() {
        let n = b(1_000_003);
        let ctx = MontgomeryContext::new(&n).unwrap();
        for x in [0u128, 1, 2, 999_999, 1_000_002] {
            let xm = ctx.to_mont(&b(x));
            assert_eq!(ctx.from_mont(&xm), b(x), "roundtrip x={x}");
        }
        let a = ctx.to_mont(&b(123_456));
        let c = ctx.to_mont(&b(654_321));
        let prod = ctx.from_mont(&ctx.mul(&a, &c));
        assert_eq!(prod, b(123_456 * 654_321 % 1_000_003));
    }

    #[test]
    fn one_mont_is_identity_element() {
        let n = (BigUint::one() << 255) - b(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let x = ctx.to_mont(&b(0xdead_beef_cafe));
        assert_eq!(ctx.mul(&x, ctx.one_mont()), x);
        assert_eq!(ctx.from_mont(ctx.one_mont()), BigUint::one());
    }

    #[test]
    fn multi_limb_matches_plain_reduction() {
        // 2^255 − 19: a 4-limb odd prime.
        let n = (BigUint::one() << 255) - b(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let a = &(BigUint::one() << 200) % &n;
        let c = &((BigUint::one() << 254) + b(12345)) % &n;
        let am = ctx.to_mont(&a);
        let cm = ctx.to_mont(&c);
        assert_eq!(ctx.from_mont(&ctx.mul(&am, &cm)), &(&a * &c) % &n);
    }

    proptest! {
        #[test]
        fn prop_mont_mul_matches_plain(a in 0u128.., c in 0u128.., m in 1u128..(u128::MAX / 2)) {
            let n = b(2 * m + 1); // odd, >= 3
            let ctx = MontgomeryContext::new(&n).unwrap();
            let ar = &b(a) % &n;
            let cr = &b(c) % &n;
            let got = ctx.from_mont(&ctx.mul(&ctx.to_mont(&ar), &ctx.to_mont(&cr)));
            prop_assert_eq!(got, &(&ar * &cr) % &n);
        }
    }
}
