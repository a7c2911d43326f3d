//! Core arithmetic: addition, subtraction, multiplication, division, shifts.
//!
//! Multiplication is schoolbook with `u128` intermediates; division is Knuth
//! TAOCP vol. 2 Algorithm D (the `divmnu` formulation from Hacker's Delight),
//! which keeps 2048-bit modular exponentiation in the low-millisecond range.

use crate::BigUint;
use std::ops::{Add, Div, Mul, Rem, Shl, Shr, Sub};

/// Schoolbook product of two limb strings (either may carry leading zeros).
pub(crate) fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &a) in a.iter().enumerate() {
        if a == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &b) in b.iter().enumerate() {
            let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = u128::from(out[k]) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    out
}

impl BigUint {
    /// Adds two values.
    pub(crate) fn add_impl(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Subtracts `other` from `self`, returning `None` on underflow.
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// let a = BigUint::from(5u64);
    /// let b = BigUint::from(9u64);
    /// assert!(a.checked_sub(&b).is_none());
    /// assert_eq!(b.checked_sub(&a), Some(BigUint::from(4u64)));
    /// ```
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
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
        Some(BigUint::from_limbs(out))
    }

    /// Limb count above which multiplication switches from schoolbook to
    /// Karatsuba (tuned empirically; 2048-bit values are 32 limbs).
    const KARATSUBA_THRESHOLD: usize = 24;

    /// Multiplication dispatch: schoolbook below the Karatsuba threshold.
    pub(crate) fn mul_impl(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.limbs.len().min(other.limbs.len()) >= Self::KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    /// Schoolbook multiplication: O(n·m) limb products.
    pub(crate) fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &other.limbs))
    }

    /// Karatsuba multiplication: splits both operands at half the smaller
    /// width and recurses with three sub-multiplications —
    /// `x·y = z2·b² + (z1 − z2 − z0)·b + z0` with
    /// `z1 = (x1+x0)(y1+y0)`, `z2 = x1·y1`, `z0 = x0·y0`.
    pub(crate) fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        // split == 0 degenerates gracefully: z0 and the middle term vanish
        // and the result is just z2 = self · other.
        let split = self.limbs.len().min(other.limbs.len()) / 2;
        let (x0, x1) = self.split_at_limb(split);
        let (y0, y1) = other.split_at_limb(split);
        let z0 = x0.mul_impl(&y0);
        let z2 = x1.mul_impl(&y1);
        let z1 = (&x0 + &x1).mul_impl(&(&y0 + &y1));
        let middle = &(&z1 - &z2) - &z0;
        let shift = 64 * split as u64;
        &(&(&z2 << (2 * shift)) + &(&middle << shift)) + &z0
    }

    /// Splits into (low `at` limbs, remaining high limbs).
    fn split_at_limb(&self, at: usize) -> (BigUint, BigUint) {
        if at >= self.limbs.len() {
            return (self.clone(), BigUint::zero());
        }
        (
            BigUint::from_limbs(self.limbs[..at].to_vec()),
            BigUint::from_limbs(self.limbs[at..].to_vec()),
        )
    }

    /// Computes quotient and remainder in a single pass.
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// let (q, r) = BigUint::from(17u64).div_rem(&BigUint::from(5u64));
    /// assert_eq!(q, BigUint::from(3u64));
    /// assert_eq!(r, BigUint::from(2u64));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &limb in self.limbs.iter().rev() {
                let cur = (rem << 64) | u128::from(limb);
                q.push((cur / u128::from(d)) as u64);
                rem = cur % u128::from(d);
            }
            q.reverse();
            return (BigUint::from_limbs(q), BigUint::from(rem as u64));
        }
        self.div_rem_knuth(divisor)
    }

    /// Knuth Algorithm D for multi-limb divisors (n >= 2).
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        let shift = divisor.limbs[n - 1].leading_zeros();

        // Normalize: vn = divisor << shift (n limbs), un = self << shift
        // (m + n + 1 limbs, extra high limb). Both live in one buffer, and
        // the remainder is written back over its front.
        let mut buf = vec![0u64; m + 2 * n + 1];
        let (un, vn) = buf.split_at_mut(m + n + 1);
        if shift == 0 {
            vn.copy_from_slice(&divisor.limbs);
        } else {
            for i in (1..n).rev() {
                vn[i] = (divisor.limbs[i] << shift) | (divisor.limbs[i - 1] >> (64 - shift));
            }
            vn[0] = divisor.limbs[0] << shift;
        }
        if shift == 0 {
            un[..m + n].copy_from_slice(&self.limbs);
        } else {
            un[m + n] = self.limbs[m + n - 1] >> (64 - shift);
            for i in (1..m + n).rev() {
                un[i] = (self.limbs[i] << shift) | (self.limbs[i - 1] >> (64 - shift));
            }
            un[0] = self.limbs[0] << shift;
        }

        let mut q = vec![0u64; m + 1];
        let v_top = u128::from(vn[n - 1]);
        let v_next = u128::from(vn[n - 2]);

        for j in (0..=m).rev() {
            let num = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
            let mut qhat = num / v_top;
            let mut rhat = num % v_top;
            while qhat >> 64 != 0 || qhat * v_next > (rhat << 64) | u128::from(un[j + n - 2]) {
                qhat -= 1;
                rhat += v_top;
                if rhat >> 64 != 0 {
                    break;
                }
            }

            // Multiply-and-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0u64;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * u128::from(vn[i]) + carry;
                carry = p >> 64;
                let (t1, b1) = un[i + j].overflowing_sub(p as u64);
                let (t2, b2) = t1.overflowing_sub(borrow);
                un[i + j] = t2;
                borrow = u64::from(b1) + u64::from(b2);
            }
            let (t1, b1) = un[j + n].overflowing_sub(carry as u64);
            let (t2, b2) = t1.overflowing_sub(borrow);
            un[j + n] = t2;

            if b1 || b2 {
                // qhat was one too large; add the divisor back.
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = u128::from(un[i + j]) + u128::from(vn[i]) + c;
                    un[i + j] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(c as u64);
            }
            q[j] = qhat as u64;
        }

        // Denormalize the remainder in place: r = un[0..n] >> shift.
        if shift != 0 {
            for i in 0..n - 1 {
                un[i] = (un[i] >> shift) | (un[i + 1] << (64 - shift));
            }
            un[n - 1] >>= shift;
        }
        buf.truncate(n);
        (BigUint::from_limbs(q), BigUint::from_limbs(buf))
    }

    /// Left shift by `bits`.
    pub(crate) fn shl_impl(&self, bits: u64) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub(crate) fn shr_impl(&self, bits: u64) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi.checked_shl(64 - bit_shift).unwrap_or(0)));
            }
        }
        BigUint::from_limbs(out)
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $impl_fn:ident) => {
        impl $trait<&BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$impl_fn(rhs)
            }
        }
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$impl_fn(&rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$impl_fn(rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$impl_fn(&rhs)
            }
        }
    };
}

binop!(Add, add, add_impl);
binop!(Mul, mul, mul_impl);

impl BigUint {
    fn sub_panicking(&self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }

    fn div_only(&self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }

    fn rem_only(&self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

binop!(Sub, sub, sub_panicking);
binop!(Div, div, div_only);
binop!(Rem, rem, rem_only);

impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: u64) -> BigUint {
        self.shl_impl(bits)
    }
}

impl Shl<u64> for BigUint {
    type Output = BigUint;
    fn shl(self, bits: u64) -> BigUint {
        self.shl_impl(bits)
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: u64) -> BigUint {
        self.shr_impl(bits)
    }
}

impl Shr<u64> for BigUint {
    type Output = BigUint;
    fn shr(self, bits: u64) -> BigUint {
        self.shr_impl(bits)
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;
    use proptest::prelude::*;

    fn b(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn add_with_carry_chain() {
        let a = b(u128::MAX);
        let one = BigUint::one();
        let sum = &a + &one;
        assert_eq!(sum.bits(), 129);
        assert_eq!(sum.to_hex(), "100000000000000000000000000000000");
    }

    #[test]
    fn sub_underflow_is_none() {
        assert!(b(3).checked_sub(&b(4)).is_none());
        assert_eq!(b(4).checked_sub(&b(4)).unwrap(), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_operator_panics_on_underflow() {
        let _ = b(1) - b(2);
    }

    #[test]
    fn mul_zero_and_identity() {
        let x = b(123456789);
        assert_eq!(&x * &BigUint::zero(), BigUint::zero());
        assert_eq!(&x * &BigUint::one(), x);
    }

    #[test]
    fn mul_large() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = b(u128::from(u64::MAX));
        let sq = &a * &a;
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = b(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn div_small_divisor() {
        let (q, r) = b(1_000_000_007).div_rem(&b(97));
        assert_eq!(q, b(1_000_000_007 / 97));
        assert_eq!(r, b(1_000_000_007 % 97));
    }

    #[test]
    fn div_multi_limb() {
        // 2^200 / (2^100 + 1)
        let a = BigUint::one() << 200;
        let d = (BigUint::one() << 100) + BigUint::one();
        let (q, r) = a.div_rem(&d);
        assert_eq!(&(&q * &d) + &r, a);
        assert!(r < d);
    }

    #[test]
    fn shifts_roundtrip() {
        let x = b(0xdead_beef_cafe_babe);
        assert_eq!((&x << 67) >> 67, x);
        assert_eq!(&x >> 200, BigUint::zero());
        assert_eq!(&x << 0, x);
        assert_eq!(BigUint::zero() << 100, BigUint::zero());
    }

    #[test]
    fn shift_exact_limb_boundary() {
        let x = b(5);
        let shifted = &x << 64;
        assert_eq!(shifted, BigUint::from(5u128 << 64));
        assert_eq!(shifted >> 64, x);
    }

    proptest! {
        #[test]
        fn prop_add_matches_u128(a in any::<u64>(), c in any::<u64>()) {
            let expect = u128::from(a) + u128::from(c);
            prop_assert_eq!(b(u128::from(a)) + b(u128::from(c)), b(expect));
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), c in any::<u64>()) {
            let expect = u128::from(a) * u128::from(c);
            prop_assert_eq!(b(u128::from(a)) * b(u128::from(c)), b(expect));
        }

        #[test]
        fn prop_sub_matches_u128(a in any::<u128>(), c in any::<u128>()) {
            let (lo, hi) = if a <= c { (a, c) } else { (c, a) };
            prop_assert_eq!(b(hi) - b(lo), b(hi - lo));
        }

        #[test]
        fn prop_div_rem_invariant(a in any::<u128>(), c in 1u128..) {
            let (q, r) = b(a).div_rem(&b(c));
            prop_assert_eq!(&(&q * &b(c)) + &r, b(a));
            prop_assert!(r < b(c));
            prop_assert_eq!(q, b(a / c));
        }

        #[test]
        fn prop_div_rem_invariant_multilimb(
            a_bytes in proptest::collection::vec(any::<u8>(), 1..64),
            d_bytes in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            let a = BigUint::from_bytes_be(&a_bytes);
            let d = BigUint::from_bytes_be(&d_bytes);
            prop_assume!(!d.is_zero());
            let (q, r) = a.div_rem(&d);
            prop_assert_eq!(&(&q * &d) + &r, a);
            prop_assert!(r < d);
        }

        #[test]
        fn prop_shift_is_mul_by_power_of_two(a in any::<u64>(), s in 0u64..70) {
            let shifted = b(u128::from(a)) << s;
            let mul = b(u128::from(a)) * (BigUint::one() << s);
            prop_assert_eq!(shifted, mul);
        }

        #[test]
        fn prop_add_commutative_multilimb(
            x in proptest::collection::vec(any::<u8>(), 0..48),
            y in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let a = BigUint::from_bytes_be(&x);
            let c = BigUint::from_bytes_be(&y);
            prop_assert_eq!(&a + &c, &c + &a);
        }

        #[test]
        fn prop_karatsuba_matches_schoolbook(
            x in proptest::collection::vec(any::<u8>(), 1..700),
            y in proptest::collection::vec(any::<u8>(), 1..700),
        ) {
            let a = BigUint::from_bytes_be(&x);
            let c = BigUint::from_bytes_be(&y);
            prop_assert_eq!(a.mul_karatsuba(&c), a.mul_schoolbook(&c));
        }

        #[test]
        fn prop_mul_distributes_multilimb(
            x in proptest::collection::vec(any::<u8>(), 0..32),
            y in proptest::collection::vec(any::<u8>(), 0..32),
            z in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let a = BigUint::from_bytes_be(&x);
            let c = BigUint::from_bytes_be(&y);
            let d = BigUint::from_bytes_be(&z);
            prop_assert_eq!(&a * &(&c + &d), &(&a * &c) + &(&a * &d));
        }
    }
}
