//! Modular arithmetic: exponentiation, inverse, GCD, and the Jacobi symbol,
//! plus [`ModContext`], the per-modulus exponentiation engine.

use crate::arith::mul_limbs;
use crate::montgomery::MontgomeryContext;
use crate::window::{self, Arith};
use crate::BigUint;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Per-modulus exponentiation context.
///
/// Built once per modulus and reused for every `reduce`/`mul`/`pow` under
/// it (every group operation in `dosn-crypto`); [`BigUint::modpow`] is the
/// one-shot form that builds a context per call.
///
/// There are two arithmetics and the modulus decides between them:
/// Montgomery (REDC) for odd moduli of 2+ limbs — the long squaring chain
/// of an exponentiation amortizes the domain conversions — and Knuth
/// division for everything else (even moduli, which REDC cannot serve, and
/// one-limb moduli, where hardware division beats the CIOS loop).
/// Single-call `reduce`/`mul` are always division (no chain to amortize a
/// Montgomery conversion against). All exponentiation is sliding-window
/// (see `crate::window`); [`ModContext::pow_multi`] evaluates products
/// `∏ bᵢ^eᵢ` over one shared squaring chain, for any number of bases.
///
/// ```
/// use dosn_bigint::{BigUint, ModContext};
///
/// let m = BigUint::from(497u64);
/// let ctx = ModContext::new(&m);
/// let base = BigUint::from(4u64);
/// let exp = BigUint::from(13u64);
/// assert_eq!(ctx.pow(&base, &exp), base.modpow(&exp, &m));
/// ```
#[derive(Debug, Clone)]
pub struct ModContext {
    modulus: BigUint,
    /// `Some` for odd moduli of 2+ limbs: exponentiation runs in the
    /// Montgomery domain (CIOS products). `None` means division-based
    /// reduction.
    pub(crate) mont: Option<MontgomeryContext>,
    /// Exponentiation counters, shared across clones so the per-group
    /// contexts cached in `dosn-crypto` aggregate into one tally. Plain
    /// atomics rather than `dosn-obs` instruments: this crate stays at the
    /// bottom of the dependency graph, and callers bridge [`ExpStats`]
    /// snapshots into their registries.
    stats: Arc<ExpCounters>,
}

#[derive(Debug, Default)]
struct ExpCounters {
    montgomery_pows: AtomicU64,
    division_pows: AtomicU64,
}

/// Snapshot of a context's exponentiation activity, by reduction backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpStats {
    /// `pow`/`pow_multi` calls run in the Montgomery (CIOS) domain.
    pub montgomery_pows: u64,
    /// `pow`/`pow_multi` calls run with division-based reduction.
    pub division_pows: u64,
}

impl ExpStats {
    /// Total exponentiations on any path.
    pub fn total(&self) -> u64 {
        self.montgomery_pows + self.division_pows
    }
}

/// The division arithmetic: residues are plain values padded to the
/// modulus's limb count, and every product is a schoolbook product and a
/// division — the hardware's at one limb, Knuth's above. It serves even and
/// one-limb moduli and is the reference ([`BigUint::modpow_plain`]) the
/// Montgomery kernel is tested against, so it stays this plain.
pub(crate) struct Division<'a>(pub(crate) &'a BigUint);

impl Division<'_> {
    fn write(out: &mut [u64], x: &BigUint) {
        out.fill(0);
        out[..x.limbs().len()].copy_from_slice(x.limbs());
    }
}

impl Arith for Division<'_> {
    fn limbs(&self) -> usize {
        self.0.limbs().len()
    }

    fn enter(&self, out: &mut [u64], x: &BigUint, _: &mut [u64]) {
        Self::write(out, &(x % self.0));
    }

    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        if let ([a], [b], [m]) = (a, b, self.0.limbs()) {
            out[0] = (u128::from(*a) * u128::from(*b) % u128::from(*m)) as u64;
        } else {
            let product = BigUint::from_limbs(mul_limbs(a, b));
            Self::write(out, &(&product % self.0));
        }
    }

    fn sqr(&self, out: &mut [u64], a: &[u64], _: &mut [u64]) {
        self.mul(out, a, a);
    }

    fn leave(&self, x: &[u64], _: &mut [u64]) -> BigUint {
        BigUint::from_limbs(x.to_vec())
    }
}

/// Evaluates `$run` with `$arith` bound to the arithmetic `$ctx`
/// exponentiates in — the one place that chooses between the Montgomery
/// kernel and division. The kernels are generic over [`Arith`], so each arm
/// is its own instantiation and nothing is dispatched per product.
macro_rules! with_arith {
    ($ctx:expr, |$arith:ident| $run:expr) => {
        match &$ctx.mont {
            Some($arith) => $run,
            None => {
                let $arith = &$crate::modular::Division($ctx.modulus());
                $run
            }
        }
    };
}
pub(crate) use with_arith;

impl ModContext {
    /// Builds the context, precomputing the Montgomery constants when the
    /// modulus is odd and two limbs or wider.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_zero(), "zero modulus");
        // Measured crossover: at one limb, hardware division beats the CIOS
        // loop plus domain conversions; from two limbs up Montgomery wins.
        let mont = if modulus.is_odd() && modulus.limbs().len() >= 2 {
            MontgomeryContext::new(modulus)
        } else {
            None
        };
        ModContext {
            modulus: modulus.clone(),
            mont,
            stats: Arc::new(ExpCounters::default()),
        }
    }

    /// The modulus this context serves.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Snapshot of how many exponentiations this context (and its clones)
    /// have run on each reduction backend.
    pub fn stats(&self) -> ExpStats {
        ExpStats {
            montgomery_pows: self.stats.montgomery_pows.load(AtomicOrdering::Relaxed),
            division_pows: self.stats.division_pows.load(AtomicOrdering::Relaxed),
        }
    }

    fn count_pow(&self) {
        let c = if self.mont.is_some() {
            &self.stats.montgomery_pows
        } else {
            &self.stats.division_pows
        };
        c.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Reduces `x` modulo the context's modulus.
    pub fn reduce(&self, x: &BigUint) -> BigUint {
        x % &self.modulus
    }

    /// Modular multiplication: `(a * b) mod m`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.reduce(&(a * b))
    }

    /// Sliding-window modular exponentiation: `base^exp mod m`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.count_pow();
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        with_arith!(self, |arith| window::pow_sliding(arith, base, exp))
    }

    /// Multi-exponentiation: `∏ bases[k]^exps[k] mod m` over one shared
    /// squaring chain, ~40% faster than evaluating the powers separately for
    /// the two-base verification products the crypto layer uses.
    ///
    /// One pair is a plain power and runs the sliding-window kernel of
    /// [`ModContext::pow`] (Schnorr verification's `y^e` beside a
    /// table-served `g^s`). Any other number runs the interleaved Straus
    /// kernel (a per-base odd-power table; batch Schnorr verification folds
    /// dozens of commitments with 128-bit coefficients).
    pub fn pow_multi(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        self.count_pow();
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        with_arith!(self, |arith| window::pow_multi(arith, pairs)).unwrap_or_else(BigUint::one)
    }

    /// Builds a fixed-base precomputation table for `base`, covering
    /// exponents up to `max_exp_bits` bits. See [`crate::FixedBaseTable`].
    pub fn precompute(&self, base: &BigUint, max_exp_bits: u64) -> crate::FixedBaseTable {
        crate::FixedBaseTable::new(self, base, max_exp_bits)
    }
}

/// Minimal signed big integer used internally by the extended Euclid loop.
#[derive(Clone, Debug)]
struct SignedBig {
    negative: bool,
    magnitude: BigUint,
}

impl SignedBig {
    fn from_uint(magnitude: BigUint) -> Self {
        SignedBig {
            negative: false,
            magnitude,
        }
    }

    fn sub(&self, other: &SignedBig) -> SignedBig {
        if self.negative != other.negative {
            // a - (-b) = a + b (keeping self's sign)
            return SignedBig {
                negative: self.negative,
                magnitude: &self.magnitude + &other.magnitude,
            };
        }
        match self.magnitude.cmp(&other.magnitude) {
            Ordering::Less => SignedBig {
                negative: !self.negative,
                magnitude: &other.magnitude - &self.magnitude,
            },
            _ => SignedBig {
                negative: self.negative && !self.magnitude.is_zero(),
                magnitude: &self.magnitude - &other.magnitude,
            },
        }
    }

    fn mul_uint(&self, other: &BigUint) -> SignedBig {
        SignedBig {
            negative: self.negative,
            magnitude: &self.magnitude * other,
        }
    }

    /// Reduces into `[0, m)`.
    fn rem_euclid(&self, m: &BigUint) -> BigUint {
        let r = &self.magnitude % m;
        if self.negative && !r.is_zero() {
            m - &r
        } else {
            r
        }
    }
}

impl BigUint {
    /// Modular exponentiation: `self^exponent mod modulus` via sliding-window
    /// square-and-multiply.
    ///
    /// One-shot convenience: a [`ModContext`] is built per call. Repeated
    /// exponentiations under one modulus should keep the context, which
    /// pays that setup once.
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// let r = BigUint::from(4u64).modpow(&BigUint::from(13u64), &BigUint::from(497u64));
    /// assert_eq!(r, BigUint::from(445u64));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        ModContext::new(modulus).pow(self, exponent)
    }

    /// Sliding-window exponentiation with division-based reduction: the
    /// reference every [`ModContext`] path is tested against, and the E9
    /// ablation baseline.
    pub fn modpow_plain(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        window::pow_sliding(&Division(modulus), self, exponent)
    }

    /// Greatest common divisor (Euclid's algorithm).
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// assert_eq!(BigUint::from(48u64).gcd(&BigUint::from(18u64)), BigUint::from(6u64));
    /// ```
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }

    /// Modular multiplicative inverse: finds `x` with `self * x == 1 (mod m)`.
    ///
    /// Returns `None` when `gcd(self, m) != 1` (no inverse exists).
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// let inv = BigUint::from(3u64).modinv(&BigUint::from(11u64)).unwrap();
    /// assert_eq!(inv, BigUint::from(4u64));
    /// assert!(BigUint::from(6u64).modinv(&BigUint::from(9u64)).is_none());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or one.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        assert!(
            !m.is_zero() && !m.is_one(),
            "modinv modulus must be at least 2"
        );
        // Extended Euclid on (m, self mod m) tracking only the Bezout
        // coefficient of self.
        let mut old_r = m.clone();
        let mut r = self % m;
        let mut old_s = SignedBig::from_uint(BigUint::zero());
        let mut s = SignedBig::from_uint(BigUint::one());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            let new_s = old_s.sub(&s.mul_uint(&q));
            old_r = std::mem::replace(&mut r, rem);
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None;
        }
        Some(old_s.rem_euclid(m))
    }

    /// The Jacobi symbol `(self / n)` for odd `n > 0`.
    ///
    /// Returns `1`, `-1`, or `0` (when `gcd(self, n) != 1`). Used by the
    /// Cocks identity-based encryption scheme in `dosn-crypto`.
    ///
    /// ```
    /// use dosn_bigint::BigUint;
    /// // 2 is a QR mod 7 (3^2 = 2), so (2/7) = 1.
    /// assert_eq!(BigUint::from(2u64).jacobi(&BigUint::from(7u64)), 1);
    /// assert_eq!(BigUint::from(3u64).jacobi(&BigUint::from(7u64)), -1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero.
    pub fn jacobi(&self, n: &BigUint) -> i32 {
        assert!(n.is_odd() && !n.is_zero(), "jacobi requires odd n > 0");
        // Signature verification pays one symbol per signature, so this is
        // the word-batched kernel; the bit-serial loop is its fallback.
        let mut g = (self % n).limbs;
        if g.is_empty() {
            return i32::from(n.is_one());
        }
        g.resize(n.limbs.len(), 0);
        jacobi_posdivsteps(n.limbs.clone(), g, jacobi_batch_cap(n.bits()))
            .unwrap_or_else(|| self.jacobi_binary(n))
    }

    /// The bit-serial Jacobi symbol `(self / n)` for odd `n > 0`: the
    /// fallback of [`BigUint::jacobi`] and the reference its kernel is
    /// tested against.
    fn jacobi_binary(&self, n: &BigUint) -> i32 {
        // Binary algorithm on raw limb buffers: after the initial reduction
        // the loop is only in-place shifts, subtractions, and compares — no
        // divisions and no allocation.
        fn trim(v: &mut Vec<u64>) {
            while v.last() == Some(&0) {
                v.pop();
            }
        }
        /// Low-endian trailing zero bits of a non-zero limb vector.
        fn trailing_zeros(v: &[u64]) -> u64 {
            for (i, &l) in v.iter().enumerate() {
                if l != 0 {
                    return i as u64 * 64 + u64::from(l.trailing_zeros());
                }
            }
            0
        }
        fn shr_in_place(v: &mut Vec<u64>, k: u64) {
            let limb_shift = ((k / 64) as usize).min(v.len());
            v.drain(..limb_shift);
            let bit_shift = k % 64;
            if bit_shift > 0 {
                let len = v.len();
                for i in 0..len {
                    let hi = if i + 1 < len {
                        v[i + 1] << (64 - bit_shift)
                    } else {
                        0
                    };
                    v[i] = (v[i] >> bit_shift) | hi;
                }
            }
            trim(v);
        }
        fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
            if a.len() != b.len() {
                return a.len().cmp(&b.len());
            }
            for i in (0..a.len()).rev() {
                if a[i] != b[i] {
                    return a[i].cmp(&b[i]);
                }
            }
            Ordering::Equal
        }
        /// `a -= b`; requires `a >= b`.
        fn sub_in_place(a: &mut Vec<u64>, b: &[u64]) {
            let mut borrow = false;
            for (i, ai) in a.iter_mut().enumerate() {
                let bi = b.get(i).copied().unwrap_or(0);
                let (d, o1) = ai.overflowing_sub(bi);
                let (d, o2) = d.overflowing_sub(u64::from(borrow));
                *ai = d;
                borrow = o1 || o2;
                if i >= b.len() && !borrow {
                    break;
                }
            }
            trim(a);
        }

        let mut a = (self % n).limbs;
        let mut m = n.limbs.clone();
        let mut t = 1i32;
        while !a.is_empty() {
            // Strip all factors of two at once: (2/m) applied tz times
            // flips the sign iff tz is odd and m ≡ ±3 (mod 8).
            let tz = trailing_zeros(&a);
            if tz > 0 {
                if tz & 1 == 1 {
                    let m8 = m[0] & 7;
                    if m8 == 3 || m8 == 5 {
                        t = -t;
                    }
                }
                shr_in_place(&mut a, tz);
            }
            // Both odd here (m is odd by invariant). Put the larger on top;
            // quadratic reciprocity pays for the swap, and the subtraction
            // is free: (a/m) = ((a − m)/m).
            if cmp_limbs(&a, &m) == Ordering::Less {
                std::mem::swap(&mut a, &mut m);
                if a[0] & 3 == 3 && m[0] & 3 == 3 {
                    t = -t;
                }
            }
            sub_in_place(&mut a, &m);
        }
        if m == [1] {
            t
        } else {
            0
        }
    }

    /// Modular multiplication convenience: `(self * other) mod m`.
    pub fn mulmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        &(self * other) % m
    }

    /// Modular addition convenience: `(self + other) mod m`.
    pub fn addmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        &(self + other) % m
    }

    /// Modular subtraction convenience: `(self - other) mod m`, wrapping.
    pub fn submod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let a = self % m;
        let b = other % m;
        if a >= b {
            &a - &b
        } else {
            &(&a + m) - &b
        }
    }
}

/// Batches [`jacobi_posdivsteps`] may run on an `n` of `bits` bits before
/// [`BigUint::jacobi`] falls back to the bit-serial loop. The scheme has no
/// proven step bound. Random inputs of 64–2048 bits took `bits / 20` batches
/// on average and never more than 3 over that (15,600 trials); this allows
/// about twice as many.
fn jacobi_batch_cap(bits: u64) -> usize {
    usize::try_from(8 + bits / 10).unwrap_or(usize::MAX)
}

/// The Jacobi symbol `(g / f)` for odd `f` and `0 < g < f`, both of one
/// limb count, by batches of 62 posdivsteps (Bernstein–Yang safegcd, in
/// the form with non-negative `f` and `g` that libsecp256k1's
/// `jacobi64_maybe_var` uses, with Hamburg's tracking of the symbol). Each
/// batch runs on the low words of `f` and `g` alone and then applies one
/// 2×2 matrix to the full limbs. `f` and `g` converge to `gcd(g, f)`, so the
/// symbol is known once `f` is 1, or is 0 once `f = g > 1`.
///
/// `None` when neither happened within `max_batches` batches.
/// Variable-time, as the bit-serial loop is.
fn jacobi_posdivsteps(mut f: Vec<u64>, mut g: Vec<u64>, max_batches: usize) -> Option<i32> {
    let mut len = f.len();
    let mut eta = -1i64;
    // Throughout, the answer is `(−1)^(jac & 1) · (g / f)`.
    let mut jac = 0u64;
    for _ in 0..max_batches {
        let t;
        (eta, t) = posdivsteps_62(eta, f[0], g[0], &mut jac);
        update_fg(&mut f[..len], &mut g[..len], t);
        if f[0] == 1 && f[1..len].iter().all(|&l| l == 0) {
            return Some(1 - 2 * (jac & 1) as i32);
        }
        if f[..len] == g[..len] {
            // f = g = gcd(g, f) > 1.
            return Some(0);
        }
        while len > 1 && f[len - 1] == 0 && g[len - 1] == 0 {
            len -= 1;
        }
    }
    None
}

/// 62 posdivsteps on the low words `f`, `g` of odd `f` and any `g`, from
/// `eta` (= −δ). Returns the new `eta` and the matrix `[u, v, q, r]` with
/// `2^62·(f', g') = (u·f + v·g, q·f + r·g)` over the full values; its
/// entries are non-negative and each row sums to at most `2^62`. Flips bit
/// 0 of `jac` whenever a step changes the sign of the symbol.
fn posdivsteps_62(mut eta: i64, mut f: u64, mut g: u64, jac: &mut u64) -> (i64, [u64; 4]) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let mut i = 62u32;
    loop {
        // Halve g by every trailing zero at once, up to the i steps left
        // (the sentinel bit stops the count there).
        let zeros = (g | (u64::MAX << i)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        i -= zeros;
        // (2 / f) = −1 iff f ≡ 3 or 5 (mod 8): one flip per odd power of 2.
        *jac ^= u64::from(zeros) & ((f >> 1) ^ (f >> 2));
        if i == 0 {
            return (eta, [u, v, q, r]);
        }
        // Both odd. Add the multiple w of f to g that clears g's low bits:
        // as many as the steps left and until the next swap allow, at most 6
        // after a swap and 4 otherwise (the inverse of f below needs them).
        let w = if eta < 0 {
            eta = -eta;
            std::mem::swap(&mut f, &mut g);
            std::mem::swap(&mut u, &mut q);
            std::mem::swap(&mut v, &mut r);
            // Reciprocity: (g / f) = −(f / g) iff both are 3 (mod 4).
            *jac ^= (f & g) >> 1;
            let limit = (eta + 1).min(i64::from(i)) as u32;
            let mask = (u64::MAX >> (64 - limit)) & 63;
            // f·(f² − 2) ≡ −1/f (mod 64).
            f.wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask
        } else {
            let limit = (eta + 1).min(i64::from(i)) as u32;
            let mask = (u64::MAX >> (64 - limit)) & 15;
            // f, or f + 8 when f ≡ 3 or 5 (mod 8), is 1/f (mod 16).
            let inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            inv.wrapping_neg().wrapping_mul(g) & mask
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q += u * w;
        r += v * w;
    }
}

/// `(f, g) ← ((u·f + v·g) / 2^62, (q·f + r·g) / 2^62)` over the full limbs,
/// with `[u, v, q, r]` from [`posdivsteps_62`]; both divisions are exact and
/// neither result outgrows the larger input.
fn update_fg(f: &mut [u64], g: &mut [u64], [u, v, q, r]: [u64; 4]) {
    let (u, v, q, r) = (u128::from(u), u128::from(v), u128::from(q), u128::from(r));
    // Running sums of the two products and their previous 64-bit limbs; each
    // output limb takes the top 2 bits of one and the low 62 of the next.
    let (mut cf, mut cg) = (0u128, 0u128);
    let (mut lf, mut lg) = (0u64, 0u64);
    for i in 0..f.len() {
        let (fi, gi) = (u128::from(f[i]), u128::from(g[i]));
        cf += u * fi + v * gi;
        cg += q * fi + r * gi;
        if i == 0 {
            debug_assert_eq!((cf as u64 | cg as u64) << 2, 0, "inexact division by 2^62");
        } else {
            f[i - 1] = (lf >> 62) | ((cf as u64) << 2);
            g[i - 1] = (lg >> 62) | ((cg as u64) << 2);
        }
        (lf, lg) = (cf as u64, cg as u64);
        cf >>= 64;
        cg >>= 64;
    }
    let top = f.len() - 1;
    f[top] = (lf >> 62) | ((cf as u64) << 2);
    g[top] = (lg >> 62) | ((cg as u64) << 2);
}

#[cfg(test)]
mod tests {
    use crate::BigUint;
    use proptest::prelude::*;

    fn b(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn exp_stats_count_by_backend_and_share_across_clones() {
        use crate::ModContext;
        // 497 is single-limb: division path (Montgomery loses to hardware
        // division below two limbs).
        let small = ModContext::new(&b(497));
        small.pow(&b(4), &b(13));
        assert_eq!(small.stats().division_pows, 1);
        assert_eq!(small.stats().montgomery_pows, 0);

        // 2^128+1 is 3 limbs and odd: Montgomery path; clones share the tally.
        let m = (BigUint::one() << 128) + BigUint::one();
        let big = ModContext::new(&m);
        let clone = big.clone();
        big.pow(&b(4), &b(13));
        clone.pow_multi(&[(&b(3), &b(5))]);
        assert_eq!(big.stats().montgomery_pows, 2);
        assert_eq!(clone.stats(), big.stats());
        assert_eq!(big.stats().total(), 2);

        // 2^128+2 is 3 limbs but even: REDC cannot serve it, division does.
        let even = ModContext::new(&((BigUint::one() << 128) + b(2)));
        even.pow(&b(3), &b(13));
        assert_eq!(even.stats().division_pows, 1);
        assert_eq!(even.stats().montgomery_pows, 0);
    }

    #[test]
    fn pow_multi_matches_separate_pows_past_subset_cap() {
        use crate::ModContext;
        let m = (BigUint::one() << 128) + BigUint::one();
        let ctx = ModContext::new(&m);
        let pairs_owned: Vec<(BigUint, BigUint)> = (0..9u64)
            .map(|k| (b(3 + 11 * u128::from(k)), b(5 + 7 * u128::from(k * k))))
            .collect();
        let pairs: Vec<(&BigUint, &BigUint)> =
            pairs_owned.iter().map(|(base, e)| (base, e)).collect();
        // Every width on both sides of the kernel choice.
        for n in 0..=pairs.len() {
            let mut expect = BigUint::one();
            for (base, e) in &pairs_owned[..n] {
                expect = ctx.mul(&expect, &ctx.pow(base, e));
            }
            assert_eq!(ctx.pow_multi(&pairs[..n]), expect, "{n} pairs");
        }
    }

    #[test]
    fn modpow_edge_cases() {
        assert_eq!(b(5).modpow(&b(0), &b(7)), BigUint::one());
        assert_eq!(b(5).modpow(&b(1), &b(7)), b(5));
        assert_eq!(b(5).modpow(&b(100), &BigUint::one()), BigUint::zero());
        assert_eq!(b(0).modpow(&b(5), &b(7)), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "modpow with zero modulus")]
    fn modpow_zero_modulus_panics() {
        let _ = b(5).modpow(&b(3), &BigUint::zero());
    }

    #[test]
    fn modpow_fermat_little() {
        // a^(p-1) = 1 mod p for prime p, gcd(a,p)=1.
        let p = b(1_000_000_007);
        for a in [2u128, 3, 65537, 999_999_999] {
            assert_eq!(b(a).modpow(&(&p - &BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn modpow_large_modulus() {
        // 2^(2^100) mod (2^127 - 1): verify against identity
        // 2^k mod (2^127-1) = 2^(k mod 127).
        let m = (BigUint::one() << 127) - BigUint::one();
        let e = BigUint::one() << 100;
        // 2^100 mod 127 = 2^100 mod 127; 100 mod 127 = 100... exponent is
        // 2^100, and 2^100 mod 127: ord(2) mod 127 = 7, 100 mod 7 = 2 -> 4.
        let expect = b(2).modpow(&b(4), &m);
        assert_eq!(b(2).modpow(&e, &m), expect);
    }

    #[test]
    fn modinv_known_values() {
        assert_eq!(b(3).modinv(&b(11)).unwrap(), b(4));
        assert_eq!(b(10).modinv(&b(17)).unwrap(), b(12));
        assert!(b(4).modinv(&b(8)).is_none());
        assert!(b(0).modinv(&b(7)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn modinv_modulus_one_panics() {
        let _ = b(3).modinv(&BigUint::one());
    }

    #[test]
    fn gcd_known() {
        assert_eq!(b(48).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(17).gcd(&b(13)), BigUint::one());
    }

    #[test]
    fn jacobi_small_table() {
        // Known table of (a/15).
        let n = b(15);
        let expect = [
            (1u128, 1),
            (2, 1),
            (3, 0),
            (4, 1),
            (5, 0),
            (6, 0),
            (7, -1),
            (8, 1),
            (11, -1),
            (13, -1),
            (14, -1),
        ];
        for (a, j) in expect {
            assert_eq!(b(a).jacobi(&n), j, "jacobi({a}/15)");
        }
    }

    #[test]
    fn jacobi_euler_criterion_on_prime() {
        // For odd prime p, (a/p) == a^((p-1)/2) mod p mapped to {0,1,-1}.
        let p = 1_000_003u128;
        let bp = b(p);
        let exp = b((p - 1) / 2);
        for a in [2u128, 3, 5, 10, 999_999, 123_456] {
            let pow = b(a).modpow(&exp, &bp);
            let expect = if pow.is_one() {
                1
            } else if pow.is_zero() {
                0
            } else {
                -1
            };
            assert_eq!(b(a).jacobi(&bp), expect, "a={a}");
        }
    }

    /// The odd number whose low `bits` bits are `limbs`' with the top one set.
    fn odd_of_bits(limbs: &[u64], bits: u64) -> BigUint {
        let len = bits.div_ceil(64) as usize;
        let mut v: Vec<u64> = limbs
            .iter()
            .copied()
            .chain(std::iter::repeat(0))
            .take(len)
            .collect();
        let top = (bits - 1) % 64;
        v[len - 1] &= u64::MAX >> (63 - top);
        v[len - 1] |= 1 << top;
        v[0] |= 1;
        BigUint::from_limbs(v)
    }

    #[test]
    fn one_batch_does_not_converge_at_2048_bits() {
        let n = odd_of_bits(&[0x9E37_79B9_7F4A_7C15; 32], 2048);
        let a = odd_of_bits(&[0xD1B5_4A32_D192_ED03; 32], 2047);
        let run = |cap| super::jacobi_posdivsteps(n.limbs.clone(), a.limbs.clone(), cap);
        assert_eq!(run(1), None);
        let want = a.jacobi_binary(&n);
        assert_eq!(run(super::jacobi_batch_cap(2048)), Some(want));
        assert_eq!(a.jacobi(&n), want);
    }

    #[test]
    fn submod_wraps() {
        assert_eq!(b(3).submod(&b(5), &b(7)), b(5));
        assert_eq!(b(5).submod(&b(3), &b(7)), b(2));
        assert_eq!(b(5).submod(&b(5), &b(7)), BigUint::zero());
    }

    proptest! {
        #[test]
        fn prop_modpow_matches_naive(base in 0u64..1000, exp in 0u64..40, m in 2u64..10_000) {
            let mut expect = 1u128;
            for _ in 0..exp {
                expect = expect * u128::from(base) % u128::from(m);
            }
            prop_assert_eq!(
                b(u128::from(base)).modpow(&b(u128::from(exp)), &b(u128::from(m))),
                b(expect)
            );
        }

        #[test]
        fn prop_modinv_is_inverse(a in 1u64.., m in 2u64..) {
            let ba = b(u128::from(a));
            let bm = b(u128::from(m));
            if let Some(inv) = ba.modinv(&bm) {
                prop_assert_eq!(ba.mulmod(&inv, &bm), BigUint::one());
                prop_assert!(inv < bm);
            } else {
                prop_assert!(!ba.gcd(&bm).is_one());
            }
        }

        #[test]
        fn prop_gcd_divides_both(a in 1u128.., c in 1u128..) {
            let g = b(a).gcd(&b(c));
            prop_assert_eq!(&b(a) % &g, BigUint::zero());
            prop_assert_eq!(&b(c) % &g, BigUint::zero());
        }

        /// The word-batched kernel converges within its cap and agrees with
        /// the bit-serial loop, on odd `n` of 2–2048 bits (mostly composite)
        /// and `a` below `n`, above it, zero, sharing a factor with it, or
        /// with `n = 1`.
        #[test]
        fn batched_jacobi_matches_the_binary_loop(
            bits in 2u64..2049,
            n_limbs in proptest::collection::vec(any::<u64>(), 32..33),
            a_limbs in proptest::collection::vec(any::<u64>(), 1..65),
            shape in 0u8..6,
            factor_bits in 2u64..64,
        ) {
            let mut n = odd_of_bits(&n_limbs, bits);
            let a_raw = BigUint::from_limbs(a_limbs);
            let a = match shape {
                0 => &a_raw % &n,
                1 => a_raw,
                2 => BigUint::zero(),
                3 => {
                    // gcd(a, n) ≥ d > 1.
                    let d = odd_of_bits(&n_limbs[31..], factor_bits.min(bits));
                    n = &d * &odd_of_bits(&n_limbs, bits.saturating_sub(factor_bits).max(2));
                    &d * &a_raw
                }
                4 => {
                    n = BigUint::one();
                    a_raw
                }
                _ => &(&n * &a_raw) + &n,
            };
            let want = a.jacobi_binary(&n);
            prop_assert_eq!(a.jacobi(&n), want);
            let g = &a % &n;
            if !g.is_zero() {
                let mut g = g.limbs;
                g.resize(n.limbs.len(), 0);
                let cap = super::jacobi_batch_cap(n.bits());
                prop_assert_eq!(super::jacobi_posdivsteps(n.limbs.clone(), g, cap), Some(want));
            }
        }

        #[test]
        fn prop_jacobi_multiplicative(a in 0u64..50_000, c in 0u64..50_000, n in 1u64..25_000) {
            let n = b(u128::from(2 * n + 1)); // odd
            let ja = b(u128::from(a)).jacobi(&n);
            let jc = b(u128::from(c)).jacobi(&n);
            let jac = b(u128::from(a) * u128::from(c)).jacobi(&n);
            prop_assert_eq!(jac, ja * jc);
        }
    }
}
