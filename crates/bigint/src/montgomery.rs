//! Montgomery multiplication: REDC-based modular products for odd moduli.
//!
//! Plain reduction divides every double-width product `a·b` by `n`.
//! Montgomery's method instead keeps operands in "Montgomery form"
//! `aR mod n` (with `R = 2^{64k}` for a `k`-limb modulus) where a product can
//! be reduced with only shifts and single-limb multiplies: the CIOS
//! (coarsely integrated operand scanning) loop below interleaves the
//! multiply and the reduction so the double-width intermediate never
//! materializes. The price is a domain conversion on the
//! way in and out, which a long squaring chain amortizes to nothing — so
//! [`crate::ModContext`] routes exponentiation through this backend whenever
//! the modulus is odd and large enough for the conversion to pay for itself
//! (the measured E9 crossover: two limbs and up; single-limb moduli are
//! served faster by hardware division).

use crate::window::Arith;
use crate::BigUint;
use std::cmp::Ordering;

/// Per-modulus Montgomery context: the `n′ = −n⁻¹ mod 2^64` and
/// `R² mod n` precomputations plus the limb kernel.
///
/// A residue is a row of exactly `k` limbs (`k` the modulus's limb count),
/// always `< n`. The kernel (`mul_into`, `sqr_into`) reads such rows and
/// writes one into memory the caller owns, so a product allocates nothing;
/// the `BigUint` methods below pad their operands into rows, run that kernel
/// once and trim the result.
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
    /// The modulus as a `BigUint`, for range checks on the way in.
    modulus: BigUint,
    /// `n′ = −n⁻¹ mod 2^64`, the REDC folding constant.
    n0: u64,
    /// `R² mod n` with `R = 2^{64k}`, as a residue row: multiplying by this
    /// converts into Montgomery form with one product.
    r2: Vec<u64>,
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
        let mut r2 = (&(&r * &r) % modulus).limbs().to_vec();
        r2.resize(k, 0);
        Some(MontgomeryContext {
            n,
            modulus: modulus.clone(),
            n0,
            r2,
        })
    }

    /// The modulus this context reduces under.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Converts `x` into Montgomery form `xR mod n`. An `x ≥ n` is reduced
    /// first.
    pub fn to_mont(&self, x: &BigUint) -> BigUint {
        self.mul_by_row(x, &self.r2)
    }

    /// Converts `x` out of Montgomery form (`xR⁻¹ mod n`). An `x ≥ n` is
    /// reduced first.
    pub fn from_mont(&self, x: &BigUint) -> BigUint {
        self.mul(x, &BigUint::one())
    }

    /// Montgomery product `a·b·R⁻¹ mod n`: pad, one kernel call, trim.
    ///
    /// When both inputs are in Montgomery form the result is the Montgomery
    /// form of their modular product. An operand `≥ n` — wider than the
    /// modulus or not — is reduced on the way in (one compare when it is
    /// already in range), so the result is always the product of the
    /// operands' residues.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let mut row = vec![0u64; self.n.len()];
        self.pad(&mut row, b);
        self.mul_by_row(a, &row)
    }

    /// `a·b·R⁻¹ mod n` for a value `a` and a residue row `b`.
    fn mul_by_row(&self, a: &BigUint, b: &[u64]) -> BigUint {
        let k = self.n.len();
        let mut buf = vec![0u64; 2 * k];
        let (out, row) = buf.split_at_mut(k);
        self.pad(row, a);
        self.mul_into(out, row, b);
        buf.truncate(k);
        BigUint::from_limbs(buf)
    }

    /// Writes `x mod n` to the zeroed row `out`.
    fn pad(&self, out: &mut [u64], x: &BigUint) {
        if x < &self.modulus {
            out[..x.limbs().len()].copy_from_slice(x.limbs());
        } else {
            let r = x % &self.modulus;
            out[..r.limbs().len()].copy_from_slice(r.limbs());
        }
    }

    /// Montgomery product of two rows into `out`. Nothing selects the
    /// instantiation but the modulus: the limb counts of the four built-in
    /// groups get the body with the length a constant (the loops unroll and
    /// the bounds checks fold away), every other modulus the same body over
    /// slices.
    pub(crate) fn mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        match self.n.len() {
            4 => cios_at::<4>(out, a, b, &self.n, self.n0),
            8 => cios_at::<8>(out, a, b, &self.n, self.n0),
            16 => cios_at::<16>(out, a, b, &self.n, self.n0),
            32 => cios_at::<32>(out, a, b, &self.n, self.n0),
            _ => cios(out, a, b, &self.n, self.n0),
        }
    }

    /// Montgomery square of a row into `out`; `t` is `2k` limbs of scratch.
    pub(crate) fn sqr_into(&self, out: &mut [u64], a: &[u64], t: &mut [u64]) {
        match self.n.len() {
            4 => sqr_at::<4>(out, a, &self.n, self.n0, t),
            8 => sqr_at::<8>(out, a, &self.n, self.n0, t),
            16 => sqr_at::<16>(out, a, &self.n, self.n0, t),
            32 => sqr_at::<32>(out, a, &self.n, self.n0, t),
            _ => sqr_redc(out, a, &self.n, self.n0, t),
        }
    }
}

impl Arith for MontgomeryContext {
    fn limbs(&self) -> usize {
        self.n.len()
    }

    fn enter(&self, out: &mut [u64], x: &BigUint, scratch: &mut [u64]) {
        let row = &mut scratch[..self.n.len()];
        row.fill(0);
        self.pad(row, x);
        self.mul_into(out, row, &self.r2);
    }

    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        self.mul_into(out, a, b);
    }

    fn sqr(&self, out: &mut [u64], a: &[u64], scratch: &mut [u64]) {
        self.sqr_into(out, a, scratch);
    }

    fn leave(&self, x: &[u64], scratch: &mut [u64]) -> BigUint {
        let k = self.n.len();
        let (one, out) = scratch[..2 * k].split_at_mut(k);
        one.fill(0);
        one[0] = 1;
        self.mul_into(out, x, one);
        BigUint::from_limbs(out.to_vec())
    }
}

fn fixed<const K: usize>(row: &[u64]) -> &[u64; K] {
    row.try_into().expect("a residue is k limbs")
}

fn fixed_mut<const K: usize>(row: &mut [u64]) -> &mut [u64; K] {
    row.try_into().expect("a residue is k limbs")
}

fn cios_at<const K: usize>(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0: u64) {
    cios(
        fixed_mut::<K>(out),
        fixed::<K>(a),
        fixed::<K>(b),
        fixed::<K>(n),
        n0,
    );
}

fn sqr_at<const K: usize>(out: &mut [u64], a: &[u64], n: &[u64], n0: u64, t: &mut [u64]) {
    sqr_redc(
        fixed_mut::<K>(out),
        fixed::<K>(a),
        fixed::<K>(n),
        n0,
        &mut t[..2 * K],
    );
}

/// `out ← a·b·R⁻¹ mod n` by CIOS: each round adds `aᵢ·b` to the running
/// value and folds its low limb out with a multiple of `n`, so the
/// double-width product never exists. The running value is `out` plus two
/// carry words; `a, b < n` in, `out < n` out.
#[inline(always)]
fn cios(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0: u64) {
    let k = n.len();
    assert!(
        out.len() == k && a.len() == k && b.len() == k,
        "a residue is k limbs"
    );
    out.fill(0);
    // Limb k of the running value; limb k+1 lives for half a round.
    let mut top = 0u64;
    for &ai in a {
        // t += ai · b
        let mut carry = 0u64;
        for j in 0..k {
            let s = u128::from(out[j]) + u128::from(ai) * u128::from(b[j]) + u128::from(carry);
            out[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = u128::from(top) + u128::from(carry);
        let (t_k, t_k1) = (s as u64, s >> 64);

        // Fold out the low limb: t ← (t + m·n) / 2^64 with
        // m = t[0]·n′ mod 2^64, which zeroes t[0] by construction.
        let m = out[0].wrapping_mul(n0);
        let s = u128::from(out[0]) + u128::from(m) * u128::from(n[0]);
        let mut carry = (s >> 64) as u64;
        for j in 1..k {
            let s = u128::from(out[j]) + u128::from(m) * u128::from(n[j]) + u128::from(carry);
            out[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = u128::from(t_k) + u128::from(carry);
        out[k - 1] = s as u64;
        let s = t_k1 + (s >> 64);
        debug_assert_eq!(s >> 64, 0, "CIOS accumulator overflow");
        top = s as u64;
    }
    sub_if_ge(out, top, n);
}

/// `out ← a²·R⁻¹ mod n`: the `k(k−1)/2` cross products once, doubled, plus
/// the `k` squares into the `2k`-limb `t`, then `k` REDC rounds over it.
#[inline(always)]
fn sqr_redc(out: &mut [u64], a: &[u64], n: &[u64], n0: u64, t: &mut [u64]) {
    let k = n.len();
    assert!(
        out.len() == k && a.len() == k && t.len() == 2 * k,
        "a residue is k limbs, its square 2k"
    );
    t.fill(0);
    for i in 0..k {
        let mut carry = 0u64;
        for j in i + 1..k {
            let s = u128::from(t[i + j]) + u128::from(a[i]) * u128::from(a[j]) + u128::from(carry);
            t[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        // Rows before this one reached limb i + k − 1 at most.
        t[i + k] = carry;
    }
    // t ← 2t + Σ aᵢ²·2^(128i), two limbs a step.
    let mut shifted_out = 0u64;
    let mut carry = 0u64;
    for i in 0..k {
        let sq = u128::from(a[i]) * u128::from(a[i]);
        let (lo, hi) = (t[2 * i], t[2 * i + 1]);
        let s = u128::from((lo << 1) | shifted_out) + u128::from(sq as u64) + u128::from(carry);
        t[2 * i] = s as u64;
        let s = u128::from((hi << 1) | (lo >> 63)) + (sq >> 64) + (s >> 64);
        t[2 * i + 1] = s as u64;
        carry = (s >> 64) as u64;
        shifted_out = hi >> 63;
    }
    debug_assert_eq!((carry, shifted_out), (0, 0), "a² fits 2k limbs");
    // Round i zeroes limb i; its carry lands on limb i + k, and what that
    // limb overflows is owed to limb i + k + 1 — the next round's landing.
    let mut top = 0u64;
    for i in 0..k {
        let m = t[i].wrapping_mul(n0);
        let mut carry = 0u64;
        for j in 0..k {
            let s = u128::from(t[i + j]) + u128::from(m) * u128::from(n[j]) + u128::from(carry);
            t[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = u128::from(t[i + k]) + u128::from(carry) + u128::from(top);
        t[i + k] = s as u64;
        top = (s >> 64) as u64;
    }
    out.copy_from_slice(&t[k..]);
    sub_if_ge(out, top, n);
}

/// The closing step of both bodies: the value `top·R + out` is below `2n`;
/// subtract `n` once if it is not below `n`.
#[inline(always)]
fn sub_if_ge(out: &mut [u64], top: u64, n: &[u64]) {
    if top == 0 && out.iter().rev().cmp(n.iter().rev()) == Ordering::Less {
        return;
    }
    let mut borrow = false;
    for (o, &nj) in out.iter_mut().zip(n) {
        let (d, b1) = o.overflowing_sub(nj);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *o = d;
        borrow = b1 || b2;
    }
    debug_assert_eq!(u64::from(borrow), top, "one subtraction reduces");
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
    fn montgomery_one_is_identity_element() {
        let n = (BigUint::one() << 255) - b(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let one = ctx.to_mont(&BigUint::one());
        assert_eq!(one, &(BigUint::one() << 256) % &n, "R mod n, R = 2^(64·4)");
        let x = ctx.to_mont(&b(0xdead_beef_cafe));
        assert_eq!(ctx.mul(&x, &one), x);
        assert_eq!(ctx.from_mont(&one), BigUint::one());
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

    #[test]
    fn sqr_into_equals_mul_into_limb_for_limb() {
        // Both sides of each fixed-size instantiation; under 2^(64k) − 59 the
        // rows near n overflow limb k and end on the subtraction.
        for k in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            let r = BigUint::one() << (64 * k as u64);
            let dense = &(&r / &b(3)) * &b(2) + b(1);
            for n in [&r - &b(59), dense] {
                let ctx = MontgomeryContext::new(&n).unwrap();
                let mut t = vec![0u64; 2 * k];
                for x in [b(0), b(1), b(2), &n - &b(1), &n - &b(2), &n / &b(3)] {
                    let mut a = vec![0u64; k];
                    ctx.pad(&mut a, &x);
                    let (mut product, mut square) = (vec![0u64; k], vec![0u64; k]);
                    ctx.mul_into(&mut product, &a, &a);
                    ctx.sqr_into(&mut square, &a, &mut t);
                    assert_eq!(square, product, "k={k} x={x:?}");
                }
            }
        }
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
