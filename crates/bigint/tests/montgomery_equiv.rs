//! Montgomery-vs-naive equivalence.
//!
//! The Montgomery backend (CIOS products in a shifted domain) shares no
//! code with the bit-at-a-time division reference, so agreement of the two
//! on random operands is strong evidence each is correct. Odd moduli route
//! `ModContext` through Montgomery; the suite also drives the
//! `MontgomeryContext` API directly and the interleaved
//! multi-exponentiation that batch Schnorr verification depends on.

use dosn_bigint::{BigUint, ModContext, MontgomeryContext};
use proptest::prelude::*;

/// Bit-at-a-time square-and-multiply with plain division: the reference
/// that shares nothing with the accelerated backend.
fn naive_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero());
    if m.is_one() {
        return BigUint::zero();
    }
    let mut result = BigUint::one();
    let base = base % m;
    for i in (0..exp.bits()).rev() {
        result = &(&result * &result) % m;
        if exp.bit(i) {
            result = &(&result * &base) % m;
        }
    }
    result
}

fn uint(bytes: &[u8]) -> BigUint {
    BigUint::from_bytes_be(bytes)
}

/// Forces an odd multi-limb modulus out of arbitrary bytes so the
/// `ModContext` under test always selects the Montgomery backend.
fn odd_modulus(bytes: &[u8]) -> BigUint {
    let m = (uint(bytes) << 1) + (BigUint::one() << 80) + BigUint::one();
    assert!(m.is_odd() && m.bits() > 64);
    m
}

proptest! {
    #[test]
    fn mont_naive_pow_agree(
        base_bytes in proptest::collection::vec(any::<u8>(), 0..48),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..24),
        m_bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let base = uint(&base_bytes);
        let exp = uint(&exp_bytes);
        let m = odd_modulus(&m_bytes);
        let expect = naive_modpow(&base, &exp, &m);
        prop_assert_eq!(ModContext::new(&m).pow(&base, &exp), expect, "montgomery ctx");
    }

    #[test]
    fn mont_mul_matches_plain_product(
        a_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        m_bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let m = odd_modulus(&m_bytes);
        let mont = MontgomeryContext::new(&m).expect("odd modulus");
        let a = &uint(&a_bytes) % &m;
        let b = &uint(&b_bytes) % &m;
        let expect = &(&a * &b) % &m;
        let got = mont.from_mont(&mont.mul(&mont.to_mont(&a), &mont.to_mont(&b)));
        prop_assert_eq!(got, expect, "montgomery product");
    }

    #[test]
    fn mont_domain_roundtrip_is_identity(
        x_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        m_bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let m = odd_modulus(&m_bytes);
        let mont = MontgomeryContext::new(&m).expect("odd modulus");
        let x = &uint(&x_bytes) % &m;
        prop_assert_eq!(mont.from_mont(&mont.to_mont(&x)), x);
    }

    #[test]
    fn interleaved_multi_exp_matches_naive_product(
        seeds in proptest::collection::vec((0u64.., 0u64..), 7..12),
        m_bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        // More than 6 pairs puts pow_multi on the interleaved (Straus)
        // kernel rather than the subset-product table.
        let m = odd_modulus(&m_bytes);
        let ctx = ModContext::new(&m);
        let pairs_owned: Vec<(BigUint, BigUint)> = seeds
            .iter()
            .map(|&(b, e)| (BigUint::from(b), BigUint::from(e)))
            .collect();
        let pairs: Vec<(&BigUint, &BigUint)> =
            pairs_owned.iter().map(|(b, e)| (b, e)).collect();
        let mut expect = BigUint::one();
        for (b, e) in &pairs_owned {
            expect = &(&expect * &naive_modpow(b, e, &m)) % &m;
        }
        prop_assert_eq!(ctx.pow_multi(&pairs), expect);
    }

    #[test]
    fn fixed_base_table_in_mont_domain_matches_naive(
        base_bytes in proptest::collection::vec(any::<u8>(), 0..32),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..20),
        m_bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        // Odd modulus → the table stores its columns in the Montgomery
        // domain; results must be byte-identical to the division reference.
        let m = odd_modulus(&m_bytes);
        let ctx = ModContext::new(&m);
        let base = uint(&base_bytes);
        let exp = uint(&exp_bytes);
        let table = ctx.precompute(&base, 8 * 20);
        prop_assert_eq!(table.pow(&exp), naive_modpow(&base, &exp, &m));
    }
}

#[test]
fn backends_agree_at_group_sizes() {
    // Full-width dense operands at each E9 size class, on odd moduli so
    // Montgomery engages.
    for bits in [512u64, 1024, 2048] {
        let m = &(BigUint::one() << bits) - &BigUint::from(429u64); // odd
        assert!(m.is_odd());
        let ctx = ModContext::new(&m);
        let base = &m / &BigUint::from(3u64);
        let exp = &m / &BigUint::from(7u64);
        let expect = base.modpow_plain(&exp, &m);
        assert_eq!(ctx.pow(&base, &exp), expect, "montgomery at {bits}");
    }
}
