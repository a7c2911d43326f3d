//! Fixed-base precomputation: radix-2^w tables for repeated exponentiation
//! of one base.
//!
//! A Schnorr group exponentiates its generator `g` (and long-lived public
//! keys `y`) thousands of times over its lifetime. Writing the exponent in
//! radix `2^w` as `e = Σ dᵢ·2^{wi}` gives `gᵉ = ∏ g^{dᵢ·2^{wi}}`, and every
//! factor can be precomputed: `columns[i][d−1] = g^{d·2^{wi}}`. Evaluation
//! is then one multiplication per non-zero digit — no squarings at all —
//! roughly `bits/w` products versus `~1.2·bits` for sliding-window, a 4–5×
//! reduction in work. The table costs about four plain exponentiations to
//! build, so it pays off from the fifth use of the same base onward.

use crate::modular::{with_arith, ModContext};
use crate::window::{self, Acc, Arith};
use crate::BigUint;

/// Digit width. 2^4 = 16-entry columns balance table size (≈ `bits²/4` bits
/// per table) against the `bits/4` evaluation cost.
const WINDOW: u64 = 4;

/// Rows per column: one per non-zero digit.
const DIGITS: usize = (1 << WINDOW) - 1;

/// Precomputed powers of a fixed base under a fixed modulus.
///
/// ```
/// use dosn_bigint::{BigUint, ModContext};
///
/// let m = BigUint::from(1_000_003u64);
/// let ctx = ModContext::new(&m);
/// let g = BigUint::from(5u64);
/// let table = ctx.precompute(&g, 64);
/// let e = BigUint::from(123_456u64);
/// assert_eq!(table.pow(&e), g.modpow(&e, &m));
/// ```
#[derive(Debug, Clone)]
pub struct FixedBaseTable {
    ctx: ModContext,
    /// Reduced base, kept for the oversized-exponent fallback.
    base: BigUint,
    /// Row `DIGITS·i + d − 1` is `base^(d · 2^(WINDOW·i))` for `d` in `1..16`:
    /// residues of the arithmetic `ctx` exponentiates in, back to back.
    columns: Vec<u64>,
    /// Exponent bit-widths covered by the table.
    covered_bits: u64,
}

/// Builds `ncols` columns for `base`. Every row is the row before it times
/// the unit of that row's column (its first row): within a column that
/// steps the digit, and across a boundary it is `unit^15 · unit`, the next
/// column's unit.
fn build<A: Arith>(arith: &A, base: &BigUint, ncols: usize) -> Vec<u64> {
    let k = arith.limbs();
    let mut rows = vec![0u64; ncols * DIGITS * k];
    let mut scratch = vec![0u64; 2 * k];
    arith.enter(&mut rows[..k], base, &mut scratch);
    for r in 1..ncols * DIGITS {
        let (done, rest) = rows.split_at_mut(r * k);
        let unit = (r - 1) / DIGITS * DIGITS;
        arith.mul(&mut rest[..k], &done[(r - 1) * k..], &done[unit * k..][..k]);
    }
    rows
}

/// One multiplication per non-zero digit of `exp`; `None` for `exp == 0`.
fn eval<A: Arith>(arith: &A, columns: &[u64], exp: &BigUint) -> Option<BigUint> {
    let k = arith.limbs();
    let mut buf = window::workspace(arith, 0);
    let (_, mut acc) = Acc::carve(arith, &mut buf, 0);
    const PER_LIMB: usize = (64 / WINDOW) as usize;
    for (i, column) in columns.chunks_exact(DIGITS * k).enumerate() {
        let limb = exp.limbs().get(i / PER_LIMB).copied().unwrap_or(0);
        let digit = (limb >> (WINDOW as usize * (i % PER_LIMB))) as usize & DIGITS;
        if digit != 0 {
            acc.mul(&column[(digit - 1) * k..][..k]);
        }
    }
    acc.finish()
}

impl FixedBaseTable {
    /// Precomputes the table for `base`, covering exponents up to
    /// `max_exp_bits` bits (larger exponents fall back to
    /// [`ModContext::pow`]).
    pub fn new(ctx: &ModContext, base: &BigUint, max_exp_bits: u64) -> Self {
        let covered_bits = max_exp_bits.max(1);
        let ncols = covered_bits.div_ceil(WINDOW) as usize;
        FixedBaseTable {
            ctx: ctx.clone(),
            base: ctx.reduce(base),
            columns: with_arith!(ctx, |arith| build(arith, base, ncols)),
            covered_bits,
        }
    }

    /// The modulus this table reduces under.
    pub fn modulus(&self) -> &BigUint {
        self.ctx.modulus()
    }

    /// Largest exponent bit-width served from the table.
    pub fn covered_bits(&self) -> u64 {
        self.covered_bits
    }

    /// `base^exp mod m` via table lookups — one multiplication per non-zero
    /// 4-bit digit of `exp`, no squarings.
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        if self.ctx.modulus().is_one() {
            return BigUint::zero();
        }
        if exp.bits() > self.covered_bits {
            return self.ctx.pow(&self.base, exp);
        }
        with_arith!(self.ctx, |arith| eval(arith, &self.columns, exp)).unwrap_or_else(BigUint::one)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_modpow_across_exponent_sizes() {
        let m =
            BigUint::from_hex("cb6d1172bca83d5178383e45febe0e4e14912dc634a8cf8803cc0b7eff29421b")
                .unwrap();
        let ctx = ModContext::new(&m);
        let g = BigUint::from(4u64);
        let table = ctx.precompute(&g, m.bits());
        for hex in [
            "01",
            "0f",
            "10",
            "deadbeef",
            "deadbeefcafebabe0123456789abcdef",
            "cb6d1172bca83d5178383e45febe0e4e14912dc634a8cf8803cc0b7eff29421a",
        ] {
            let e = BigUint::from_hex(hex).unwrap();
            assert_eq!(table.pow(&e), g.modpow(&e, &m), "exp={hex}");
        }
    }

    #[test]
    fn zero_exponent_is_one() {
        let ctx = ModContext::new(&BigUint::from(101u64));
        let table = ctx.precompute(&BigUint::from(7u64), 32);
        assert_eq!(table.pow(&BigUint::zero()), BigUint::one());
    }

    #[test]
    fn oversized_exponent_falls_back() {
        let m = BigUint::from(1_000_003u64);
        let ctx = ModContext::new(&m);
        let g = BigUint::from(5u64);
        let table = ctx.precompute(&g, 16);
        let e = BigUint::from(u128::MAX);
        assert!(e.bits() > table.covered_bits());
        assert_eq!(table.pow(&e), g.modpow(&e, &m));
    }

    #[test]
    fn modulus_one_is_zero() {
        let ctx = ModContext::new(&BigUint::one());
        let table = ctx.precompute(&BigUint::from(3u64), 8);
        assert_eq!(table.pow(&BigUint::from(5u64)), BigUint::zero());
    }

    #[test]
    fn unreduced_base_is_reduced_first() {
        let m = BigUint::from(97u64);
        let ctx = ModContext::new(&m);
        let big_base = BigUint::from(97u64 * 5 + 3);
        let table = ctx.precompute(&big_base, 16);
        let e = BigUint::from(1234u64);
        assert_eq!(table.pow(&e), big_base.modpow(&e, &m));
    }
}
