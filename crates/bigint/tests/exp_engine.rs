//! Property tests for the exponentiation engine: every accelerated path
//! (windowed division, `ModContext`, fixed-base tables, simultaneous
//! multi-exp) must agree with an independent bit-at-a-time
//! square-and-multiply reference, including the degenerate corners (zero
//! exponent, modulus one, base ≥ modulus).

use dosn_bigint::{BigUint, ModContext};
use proptest::prelude::*;

/// Reference implementation: the pre-engine bit-at-a-time loop with plain
/// division. Deliberately re-written here (not calling library code) so the
/// windowed paths are checked against something they don't share.
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

/// A modulus of exactly `limbs` limbs and the asked parity, so a test can
/// stand on either side of `ModContext`'s choice: odd with two or more
/// limbs runs Montgomery, even or one-limb runs division.
fn shaped_modulus(limbs: usize, even: bool, bytes: &[u8]) -> BigUint {
    let top = BigUint::one() << (64 * limbs as u64 - 1);
    let m = &(&uint(bytes) % &top) + &top;
    match (m.is_even(), even) {
        (true, false) => &m + &BigUint::one(),
        (false, true) => &m - &BigUint::one(),
        _ => m,
    }
}

proptest! {
    #[test]
    fn every_entry_point_matches_division_on_both_sides_of_the_backend_choice(
        limbs in 1usize..18,
        even in any::<bool>(),
        m_bytes in proptest::collection::vec(any::<u8>(), 0..140),
        a_bytes in proptest::collection::vec(any::<u8>(), 0..160),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..160),
        e1_bytes in proptest::collection::vec(any::<u8>(), 0..12),
        e2_bytes in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let m = shaped_modulus(limbs, even, &m_bytes);
        prop_assert_eq!(m.bits(), 64 * limbs as u64);
        prop_assert_eq!(m.is_even(), even);
        let ctx = ModContext::new(&m);
        // Operands run past the modulus for small `limbs`: base ≥ modulus.
        let (a, b) = (uint(&a_bytes), uint(&b_bytes));
        let (e1, e2) = (uint(&e1_bytes), uint(&e2_bytes));

        prop_assert_eq!(ctx.reduce(&a), &a % &m, "reduce");
        prop_assert_eq!(ctx.mul(&a, &b), &(&a * &b) % &m, "mul");
        let expect = a.modpow_plain(&e1, &m);
        prop_assert_eq!(ctx.pow(&a, &e1), expect.clone(), "ctx pow");
        prop_assert_eq!(a.modpow(&e1, &m), expect.clone(), "one-shot modpow");
        prop_assert_eq!(a.modpow(&BigUint::zero(), &m), &BigUint::one() % &m, "zero exponent");
        prop_assert_eq!(ctx.precompute(&a, 8 * 12).pow(&e1), expect.clone(), "fixed-base");
        prop_assert_eq!(
            ctx.pow_multi(&[(&a, &e1), (&b, &e2)]),
            &(&expect * &b.modpow_plain(&e2, &m)) % &m,
            "pow_multi"
        );
    }

    #[test]
    fn windowed_paths_match_naive(
        base_bytes in proptest::collection::vec(any::<u8>(), 0..48),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..20),
        m_bytes in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let base = uint(&base_bytes);
        let exp = uint(&exp_bytes);
        let m = uint(&m_bytes);
        prop_assume!(!m.is_zero());
        let expect = naive_modpow(&base, &exp, &m);

        prop_assert_eq!(base.modpow_plain(&exp, &m), expect.clone(), "modpow_plain");
        prop_assert_eq!(base.modpow(&exp, &m), expect.clone(), "modpow dispatch");
        prop_assert_eq!(ModContext::new(&m).pow(&base, &exp), expect, "ctx pow");
    }

    #[test]
    fn fixed_base_matches_naive(
        base_bytes in proptest::collection::vec(any::<u8>(), 0..32),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..20),
        m_bytes in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let base = uint(&base_bytes);
        let exp = uint(&exp_bytes);
        let m = uint(&m_bytes);
        prop_assume!(!m.is_zero());
        let ctx = ModContext::new(&m);
        // Cover the exponent range; a second, deliberately small table
        // exercises the oversized-exponent fallback on the same inputs.
        let table = ctx.precompute(&base, 8 * 20);
        let narrow = ctx.precompute(&base, 8);
        let expect = naive_modpow(&base, &exp, &m);
        prop_assert_eq!(table.pow(&exp), expect.clone(), "fixed-base");
        prop_assert_eq!(narrow.pow(&exp), expect, "fixed-base fallback");
    }

    #[test]
    fn multi_exp_matches_product_of_naive(
        b1 in proptest::collection::vec(any::<u8>(), 0..24),
        e1 in proptest::collection::vec(any::<u8>(), 0..16),
        b2 in proptest::collection::vec(any::<u8>(), 0..24),
        e2 in proptest::collection::vec(any::<u8>(), 0..16),
        b3 in proptest::collection::vec(any::<u8>(), 0..24),
        e3 in proptest::collection::vec(any::<u8>(), 0..16),
        m_bytes in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let m = uint(&m_bytes);
        prop_assume!(!m.is_zero());
        let ctx = ModContext::new(&m);
        let (b1, b2, b3) = (uint(&b1), uint(&b2), uint(&b3));
        let (e1, e2, e3) = (uint(&e1), uint(&e2), uint(&e3));
        let got = ctx.pow_multi(&[(&b1, &e1), (&b2, &e2), (&b3, &e3)]);
        let expect = if m.is_one() {
            BigUint::zero()
        } else {
            let p = &naive_modpow(&b1, &e1, &m) * &naive_modpow(&b2, &e2, &m);
            &(&(&p % &m) * &naive_modpow(&b3, &e3, &m)) % &m
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn seven_pair_multi_exp_matches_product_of_naive(
        seeds in proptest::collection::vec((0u64.., 0u64..), 7..8),
        m_bytes in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        // One pair past the subset-table kernel, over any modulus (even,
        // single-limb and 1 included), so the plain-product domain runs the
        // interleaved kernel too.
        let m = uint(&m_bytes);
        prop_assume!(!m.is_zero());
        let owned: Vec<(BigUint, BigUint)> = seeds
            .iter()
            .map(|&(b, e)| (BigUint::from(b), BigUint::from(e)))
            .collect();
        let pairs: Vec<(&BigUint, &BigUint)> = owned.iter().map(|(b, e)| (b, e)).collect();
        let mut expect = &BigUint::one() % &m;
        for (b, e) in &owned {
            expect = &(&expect * &naive_modpow(b, e, &m)) % &m;
        }
        prop_assert_eq!(ModContext::new(&m).pow_multi(&pairs), expect);
    }
}

#[test]
fn degenerate_corners() {
    let m = BigUint::from(1_000_003u64);
    let ctx = ModContext::new(&m);
    let base = BigUint::from(123_456u64);
    let over = &m + &BigUint::from(42u64); // base ≥ modulus

    // Zero exponent → 1 on every path.
    let zero = BigUint::zero();
    assert_eq!(ctx.pow(&base, &zero), BigUint::one());
    assert_eq!(base.modpow_plain(&zero, &m), BigUint::one());
    assert_eq!(
        ctx.pow_multi(&[(&base, &zero), (&over, &zero)]),
        BigUint::one()
    );
    assert_eq!(ctx.pow_multi(&[]), BigUint::one());

    // Modulus one → 0 on every path (even with zero exponent).
    let one_ctx = ModContext::new(&BigUint::one());
    let e = BigUint::from(7u64);
    assert_eq!(one_ctx.pow(&base, &e), BigUint::zero());
    assert_eq!(one_ctx.pow(&base, &zero), BigUint::zero());
    assert_eq!(base.modpow_plain(&e, &BigUint::one()), BigUint::zero());
    assert_eq!(one_ctx.pow_multi(&[(&base, &e)]), BigUint::zero());

    // Base ≥ modulus reduces first.
    let e = BigUint::from(1_234_567u64);
    assert_eq!(ctx.pow(&over, &e), BigUint::from(42u64).modpow(&e, &m));
    assert_eq!(
        ctx.precompute(&over, 64).pow(&e),
        BigUint::from(42u64).modpow(&e, &m)
    );

    // Zero base with non-zero exponent.
    assert_eq!(ctx.pow(&zero, &e), BigUint::zero());
    assert_eq!(ctx.precompute(&zero, 64).pow(&e), BigUint::zero());
}

#[test]
fn engine_agrees_at_group_sizes() {
    // One deterministic large-modulus spot check per E9 size class; the
    // moduli are 2^bits − d for small d (not prime — irrelevant here).
    for (bits, delta) in [(512u64, 569u64), (1024, 105), (2048, 1157)] {
        let m = &(BigUint::one() << bits) - &BigUint::from(delta);
        let ctx = ModContext::new(&m);
        let base = BigUint::from(0xdead_beef_cafe_babeu64);
        // exp = floor(m / 3): full-width exponent with mixed bit pattern.
        let exp = &m / &BigUint::from(3u64);
        let expect = naive_modpow(&base, &exp, &m);
        assert_eq!(ctx.pow(&base, &exp), expect, "ctx pow at {bits}");
        assert_eq!(
            ctx.precompute(&base, m.bits()).pow(&exp),
            expect,
            "fixed-base at {bits}"
        );
        assert_eq!(base.modpow(&exp, &m), expect, "dispatch at {bits}");
    }
}
