//! Windowed exponentiation kernels shared by every reduction backend.
//!
//! A bit-at-a-time loop costs one squaring per bit plus a multiplication
//! per set bit, ~1.5 products per bit. The sliding-window form here keeps the squaring chain but batches multiplications: with a
//! width-`w` window it performs one multiplication per ~`w` bits plus a
//! `2^{w-1}`-entry odd-power table, cutting total products by ~25–30% at the
//! 512–2048-bit exponents the crypto layer uses. The kernels are generic
//! over the modular-multiplication closure so the Montgomery and division
//! backends share one implementation (and one set of tests).

use crate::BigUint;

/// Sliding-window width for an exponent of `exp_bits` bits.
///
/// Chosen so the odd-power table (`2^{w-1}` entries) amortizes: the table
/// costs `2^{w-1}` multiplications and saves roughly
/// `exp_bits · (1/2 − 1/(w+1))` of them.
pub(crate) fn window_width(exp_bits: u64) -> u32 {
    match exp_bits {
        0..=24 => 1,
        25..=80 => 3,
        81..=240 => 4,
        241..=768 => 5,
        _ => 6,
    }
}

/// Left-to-right sliding-window exponentiation: `base^exp` under `mul`.
///
/// Contract: `base` is already reduced, `exp` is non-zero, and the modulus
/// behind `mul` is greater than one (callers own those edge cases).
pub(crate) fn pow_sliding<M>(base: &BigUint, exp: &BigUint, mul: M) -> BigUint
where
    M: Fn(&BigUint, &BigUint) -> BigUint,
{
    debug_assert!(!exp.is_zero(), "pow_sliding requires a non-zero exponent");
    let nbits = exp.bits();
    let w = i64::from(window_width(nbits));

    // Odd powers base^1, base^3, …, base^(2^w − 1).
    let table_len = 1usize << (w - 1);
    let mut odd = Vec::with_capacity(table_len);
    odd.push(base.clone());
    if table_len > 1 {
        let base_sq = mul(base, base);
        for i in 1..table_len {
            odd.push(mul(&odd[i - 1], &base_sq));
        }
    }

    let mut result: Option<BigUint> = None;
    let mut i = nbits as i64 - 1;
    while i >= 0 {
        if !exp.bit(i as u64) {
            if let Some(r) = result.take() {
                result = Some(mul(&r, &r));
            }
            i -= 1;
            continue;
        }
        // Maximal window [j, i] of width ≤ w whose lowest bit is set, so the
        // gathered digit is odd and indexes the table directly.
        let mut j = (i - w + 1).max(0);
        while !exp.bit(j as u64) {
            j += 1;
        }
        let mut digit = 0u64;
        for k in (j..=i).rev() {
            digit = (digit << 1) | u64::from(exp.bit(k as u64));
        }
        let entry = &odd[((digit - 1) / 2) as usize];
        result = Some(match result.take() {
            Some(mut r) => {
                for _ in 0..(i - j + 1) {
                    r = mul(&r, &r);
                }
                mul(&r, entry)
            }
            None => entry.clone(),
        });
        i = j - 1;
    }
    result.expect("non-zero exponent has at least one set bit")
}

/// Widest product [`pow_simultaneous`] takes: its subset table has `2^n − 1`
/// entries, so past this [`pow_interleaved`] is the cheaper kernel.
pub(crate) const SIMULTANEOUS_MAX: usize = 6;

/// Simultaneous (Shamir's-trick) multi-exponentiation:
/// `∏ bases[k]^exps[k]` under `mul`, sharing one squaring chain.
///
/// Precomputes the `2^n − 1` non-empty subset products of the bases, then
/// scans all exponents' bits together: `max_bits` squarings plus at most one
/// multiplication per bit position, instead of a full squaring chain per
/// base. Returns `None` when every exponent is zero (the caller supplies the
/// reduced identity). Contract: bases are reduced, modulus > 1, and
/// `bases.len() == exps.len()` with at most [`SIMULTANEOUS_MAX`] bases.
pub(crate) fn pow_simultaneous<M>(bases: &[BigUint], exps: &[&BigUint], mul: M) -> Option<BigUint>
where
    M: Fn(&BigUint, &BigUint) -> BigUint,
{
    assert_eq!(bases.len(), exps.len(), "bases/exponents length mismatch");
    assert!(
        bases.len() <= SIMULTANEOUS_MAX,
        "subset table grows as 2^n; wider products take pow_interleaved"
    );
    let max_bits = exps.iter().map(|e| e.bits()).max().unwrap_or(0);
    if max_bits == 0 {
        return None;
    }

    // products[mask − 1] = ∏_{k ∈ mask} bases[k]
    let n = bases.len();
    let mut products: Vec<BigUint> = Vec::with_capacity((1 << n) - 1);
    for mask in 1usize..(1 << n) {
        let low = mask.trailing_zeros() as usize;
        let rest = mask & (mask - 1);
        let p = if rest == 0 {
            bases[low].clone()
        } else {
            mul(&products[rest - 1], &bases[low])
        };
        products.push(p);
    }

    let mut result: Option<BigUint> = None;
    for i in (0..max_bits).rev() {
        if let Some(r) = result.take() {
            result = Some(mul(&r, &r));
        }
        let mut mask = 0usize;
        for (k, e) in exps.iter().enumerate() {
            if e.bit(i) {
                mask |= 1 << k;
            }
        }
        if mask != 0 {
            let p = &products[mask - 1];
            result = Some(match result.take() {
                Some(r) => mul(&r, p),
                None => p.clone(),
            });
        }
    }
    result
}

/// Interleaved (Straus) multi-exponentiation for arbitrarily many bases:
/// `∏ bases[k]^exps[k]` under `mul`, sharing one squaring chain.
///
/// Where [`pow_simultaneous`] precomputes the `2^n − 1` subset products (and
/// so caps at [`SIMULTANEOUS_MAX`] bases), this variant keeps a per-base odd-power table and
/// decomposes each exponent offline into sliding-window terms
/// `digit · 2^shift`; the joint top-down pass squares once per bit position
/// of the longest exponent and multiplies each term in at its shift. Cost is
/// `max_bits` squarings shared across all bases plus roughly
/// `bits/(w+1) + 2^{w−1}` multiplications per base — the kernel behind batch
/// Schnorr verification, where dozens of 128-bit-exponent terms ride one
/// chain. Returns `None` when every exponent is zero. Contract: bases are
/// reduced, modulus > 1, `bases.len() == exps.len()`.
pub(crate) fn pow_interleaved<M>(bases: &[BigUint], exps: &[&BigUint], mul: M) -> Option<BigUint>
where
    M: Fn(&BigUint, &BigUint) -> BigUint,
{
    assert_eq!(bases.len(), exps.len(), "bases/exponents length mismatch");
    let max_bits = exps.iter().map(|e| e.bits()).max().unwrap_or(0);
    if max_bits == 0 {
        return None;
    }

    // Per-shift buckets of (base index, odd-table entry index) to multiply
    // in when the shared squaring chain reaches that bit position.
    let mut at: Vec<Vec<(usize, usize)>> = vec![Vec::new(); max_bits as usize];
    let mut odd_tables: Vec<Vec<BigUint>> = Vec::with_capacity(bases.len());
    for (k, (base, exp)) in bases.iter().zip(exps.iter()).enumerate() {
        let nbits = exp.bits();
        if nbits == 0 {
            odd_tables.push(Vec::new());
            continue;
        }
        let w = i64::from(window_width(nbits));
        // Offline sliding-window decomposition (same walk as pow_sliding).
        let mut max_digit = 0u64;
        let mut i = nbits as i64 - 1;
        while i >= 0 {
            if !exp.bit(i as u64) {
                i -= 1;
                continue;
            }
            let mut j = (i - w + 1).max(0);
            while !exp.bit(j as u64) {
                j += 1;
            }
            let mut digit = 0u64;
            for b in (j..=i).rev() {
                digit = (digit << 1) | u64::from(exp.bit(b as u64));
            }
            max_digit = max_digit.max(digit);
            at[j as usize].push((k, ((digit - 1) / 2) as usize));
            i = j - 1;
        }
        // Odd powers base^1, base^3, …, only as far as this exponent's
        // largest digit actually reaches.
        let table_len = (max_digit as usize).div_ceil(2);
        let mut odd = Vec::with_capacity(table_len);
        odd.push(base.clone());
        if table_len > 1 {
            let base_sq = mul(base, base);
            for t in 1..table_len {
                odd.push(mul(&odd[t - 1], &base_sq));
            }
        }
        odd_tables.push(odd);
    }

    let mut result: Option<BigUint> = None;
    for s in (0..max_bits as usize).rev() {
        if let Some(r) = result.take() {
            result = Some(mul(&r, &r));
        }
        for &(k, entry) in &at[s] {
            let p = &odd_tables[k][entry];
            result = Some(match result.take() {
                Some(r) => mul(&r, p),
                None => p.clone(),
            });
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modmul(m: &BigUint) -> impl Fn(&BigUint, &BigUint) -> BigUint + '_ {
        move |a, b| &(a * b) % m
    }

    fn naive_pow(base: &BigUint, exp: u64, m: &BigUint) -> BigUint {
        let mut r = &BigUint::one() % m;
        for _ in 0..exp {
            r = &(&r * base) % m;
        }
        r
    }

    #[test]
    fn sliding_matches_naive_small() {
        let m = BigUint::from(1_000_003u64);
        for base in [0u64, 1, 2, 7, 1_000_002] {
            for exp in [1u64, 2, 3, 15, 16, 17, 64, 255, 1000] {
                let b = &BigUint::from(base) % &m;
                let got = pow_sliding(&b, &BigUint::from(exp), modmul(&m));
                assert_eq!(got, naive_pow(&b, exp, &m), "base={base} exp={exp}");
            }
        }
    }

    #[test]
    fn simultaneous_matches_product_of_naive() {
        let m = BigUint::from(999_999_937u64);
        let bases = [
            &BigUint::from(2u64) % &m,
            &BigUint::from(12345u64) % &m,
            &BigUint::from(999_999_936u64) % &m,
        ];
        let exps = [77u64, 123, 3];
        let exp_refs: Vec<BigUint> = exps.iter().map(|&e| BigUint::from(e)).collect();
        let refs: Vec<&BigUint> = exp_refs.iter().collect();
        let got = pow_simultaneous(&bases, &refs, modmul(&m)).unwrap();
        let mut expect = BigUint::one();
        for (b, &e) in bases.iter().zip(exps.iter()) {
            expect = &(&expect * &naive_pow(b, e, &m)) % &m;
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_matches_product_of_naive_many_bases() {
        let m = BigUint::from(999_999_937u64);
        let mut bases = Vec::new();
        let mut exps = Vec::new();
        // 12 bases — past pow_simultaneous's 6-base cap — with a spread of
        // exponent sizes including zero.
        for k in 0..12u64 {
            bases.push(&BigUint::from(3 + 17 * k * k) % &m);
            exps.push(match k % 4 {
                0 => 0u64,
                1 => k + 1,
                2 => 0xdead + k,
                _ => 1_048_575 + k * 7,
            });
        }
        let exp_big: Vec<BigUint> = exps.iter().map(|&e| BigUint::from(e)).collect();
        let refs: Vec<&BigUint> = exp_big.iter().collect();
        let got = pow_interleaved(&bases, &refs, modmul(&m)).unwrap();
        let mut expect = BigUint::one();
        for (b, &e) in bases.iter().zip(exps.iter()) {
            expect = &(&expect * &naive_pow(b, e, &m)) % &m;
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_agrees_with_simultaneous() {
        let m = BigUint::from(1_000_003u64);
        let bases = [
            &BigUint::from(2u64) % &m,
            &BigUint::from(98765u64) % &m,
            &BigUint::from(424_242u64) % &m,
        ];
        let exp_big = [
            BigUint::from(0x1234_5678_9abc_def0u64),
            BigUint::from(7u64),
            BigUint::from(0xffff_ffffu64),
        ];
        let refs: Vec<&BigUint> = exp_big.iter().collect();
        assert_eq!(
            pow_interleaved(&bases, &refs, modmul(&m)),
            pow_simultaneous(&bases, &refs, modmul(&m))
        );
    }

    #[test]
    fn interleaved_all_zero_exponents_is_none() {
        let m = BigUint::from(97u64);
        let z = BigUint::zero();
        let bases = [BigUint::from(3u64), BigUint::from(5u64)];
        assert!(pow_interleaved(&bases, &[&z, &z], modmul(&m)).is_none());
    }

    #[test]
    fn simultaneous_all_zero_exponents_is_none() {
        let m = BigUint::from(97u64);
        let z = BigUint::zero();
        let bases = [BigUint::from(3u64)];
        assert!(pow_simultaneous(&bases, &[&z], modmul(&m)).is_none());
    }

    #[test]
    fn window_width_is_monotone() {
        let mut prev = 0;
        for bits in [1u64, 24, 25, 80, 81, 240, 241, 768, 769, 4096] {
            let w = window_width(bits);
            assert!(w >= prev, "width must not shrink with exponent size");
            prev = w;
        }
    }
}
