//! Schnorr groups: prime-order subgroups of `Z_p^*` for a safe prime `p`.
//!
//! Every discrete-log primitive in this crate (ElGamal, Schnorr and blind
//! Schnorr signatures, the 2HashDH OPRF, and the ZK proofs) operates over a
//! [`SchnorrGroup`]: the order-`q` subgroup of quadratic residues modulo a
//! safe prime `p = 2q + 1`, generated by `g = 4`.

use crate::error::CryptoError;
use crate::sha256::{sha256_concat, Sha256};
use dosn_bigint::{gen_safe_prime, random_below, BigUint, ExpStats, FixedBaseTable, ModContext};
use dosn_obs::{names, Counter, Registry};
use rand::RngCore;
use std::fmt;
use std::sync::{Arc, OnceLock};

mod consts;

/// A prime-order discrete-log group: the quadratic-residue subgroup of
/// `Z_p^*` for a safe prime `p = 2q + 1`, with generator `g`.
///
/// Cheap to clone (`Arc` internals); all primitives take it by value.
///
/// ```
/// use dosn_crypto::group::SchnorrGroup;
/// use dosn_crypto::chacha::SecureRng;
///
/// let group = SchnorrGroup::toy();
/// let mut rng = SecureRng::seed_from_u64(3);
/// let x = group.random_scalar(&mut rng);
/// let y = group.random_scalar(&mut rng);
/// // Exponent arithmetic commutes: (g^x)^y == (g^y)^x.
/// let a = group.pow(&group.pow_g(&x), &y);
/// let b = group.pow(&group.pow_g(&y), &x);
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SchnorrGroup {
    inner: Arc<GroupParams>,
}

struct GroupParams {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    element_len: usize,
    /// Per-group exponentiation context: the Montgomery constants for `p`
    /// are computed once here instead of on every `pow`.
    ctx: ModContext,
    /// Fixed-base table for `g` — the group's only table — built lazily on
    /// first use so group construction stays cheap.
    g_table: OnceLock<FixedBaseTable>,
    /// Exponentiations of `g` served from its table. Held as `Arc` so a
    /// later [`SchnorrGroup::register_obs`] can hand the same counter to a
    /// registry without re-routing the hot path.
    table_hits: Arc<Counter>,
    /// Exponentiations of any other base (windowed `ModContext` pows), plus
    /// the one call that builds the generator's table (an honest miss: that
    /// call pays the precompute cost).
    table_misses: Arc<Counter>,
}

// Group identity is (p, q, g); the table and counters are derived state.
impl PartialEq for GroupParams {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.q == other.q && self.g == other.g
    }
}

impl Eq for GroupParams {}

impl fmt::Debug for SchnorrGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchnorrGroup({} bits)", self.inner.p.bits())
    }
}

/// Named security levels for the precomputed groups.
///
/// All were generated with this workspace's own [`dosn_bigint::gen_safe_prime`]
/// from a fixed seed and are verified prime in the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupSize {
    /// 256-bit modulus — for unit tests only.
    Toy,
    /// 512-bit modulus — fast experimentation.
    Demo,
    /// 1024-bit modulus — legacy-strength.
    Legacy,
    /// 2048-bit modulus — contemporary strength.
    Standard,
}

impl SchnorrGroup {
    /// Constructs a group from explicit parameters, validating the safe-prime
    /// structure (`p = 2q + 1`) and that `g` generates the order-`q` subgroup.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Protocol`] when the parameters are inconsistent.
    pub fn from_parts(p: BigUint, q: BigUint, g: BigUint) -> Result<Self, CryptoError> {
        if &(&q << 1) + &BigUint::one() != p {
            return Err(CryptoError::Protocol("p != 2q + 1".into()));
        }
        if g <= BigUint::one() || g >= p {
            return Err(CryptoError::Protocol("generator out of range".into()));
        }
        let ctx = ModContext::new(&p);
        if !ctx.pow(&g, &q).is_one() {
            return Err(CryptoError::Protocol("generator order is not q".into()));
        }
        let element_len = p.bits().div_ceil(8) as usize;
        Ok(SchnorrGroup {
            inner: Arc::new(GroupParams {
                p,
                q,
                g,
                element_len,
                ctx,
                g_table: OnceLock::new(),
                table_hits: Arc::new(Counter::new()),
                table_misses: Arc::new(Counter::new()),
            }),
        })
    }

    /// Generates a fresh group with a `bits`-bit safe prime. Slow for large
    /// sizes; prefer [`SchnorrGroup::with_size`] which returns precomputed
    /// parameters.
    pub fn generate<R: RngCore + ?Sized>(bits: u64, rng: &mut R) -> Self {
        let p = gen_safe_prime(bits, rng);
        let q = &(&p - &BigUint::one()) >> 1;
        // 4 = 2^2 is always a quadratic residue; the QR subgroup has prime
        // order q, so any non-identity QR generates it.
        Self::from_parts(p, q, BigUint::from(4u64)).expect("safe prime structure")
    }

    /// Returns the precomputed group of the given [`GroupSize`].
    pub fn with_size(size: GroupSize) -> Self {
        let hex = match size {
            GroupSize::Toy => consts::P256_HEX,
            GroupSize::Demo => consts::P512_HEX,
            GroupSize::Legacy => consts::P1024_HEX,
            GroupSize::Standard => consts::P2048_HEX,
        };
        let p = BigUint::from_hex(hex).expect("valid built-in constant");
        let q = &(&p - &BigUint::one()) >> 1;
        Self::from_parts(p, q, BigUint::from(4u64)).expect("built-in group is well-formed")
    }

    /// The 256-bit test group (alias for `with_size(GroupSize::Toy)`).
    ///
    /// Constructs a fresh instance each call (hermetic table and counters —
    /// what unit tests want). Long-lived components that should pool the
    /// generator table use [`SchnorrGroup::shared`] instead.
    pub fn toy() -> Self {
        Self::with_size(GroupSize::Toy)
    }

    /// The process-wide shared instance of the given [`GroupSize`].
    ///
    /// Every caller gets a clone of one `Arc`'d group, so the generator
    /// table and the hit/miss counters are pooled across engines and
    /// threads: the first `pow_g` in the process pays the precompute,
    /// every later one hits.
    pub fn shared(size: GroupSize) -> Self {
        static SHARED: [OnceLock<SchnorrGroup>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        let slot = match size {
            GroupSize::Toy => 0,
            GroupSize::Demo => 1,
            GroupSize::Legacy => 2,
            GroupSize::Standard => 3,
        };
        SHARED[slot].get_or_init(|| Self::with_size(size)).clone()
    }

    /// The safe prime modulus `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.inner.p
    }

    /// The subgroup order `q = (p - 1) / 2`.
    pub fn order(&self) -> &BigUint {
        &self.inner.q
    }

    /// The subgroup generator `g`.
    pub fn generator(&self) -> &BigUint {
        &self.inner.g
    }

    /// Fixed serialized length of a group element in bytes.
    pub fn element_len(&self) -> usize {
        self.inner.element_len
    }

    /// Samples a uniformly random scalar in `[1, q)`.
    pub fn random_scalar<R: RngCore + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let s = random_below(&self.inner.q, rng);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Computes `base^exp mod p`: `g` from its fixed-base table, every
    /// other base through the group's [`ModContext`] (sliding window).
    ///
    /// Counter contract (shared with [`SchnorrGroup::pow_g`] and
    /// [`SchnorrGroup::multi_pow`]): every base counts exactly one hit (`g`,
    /// served from its table) or one miss (any other base, or the one call
    /// that pays for building the generator's table).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if *base == self.inner.g {
            return self.pow_g(exp);
        }
        self.inner.table_misses.inc();
        self.inner.ctx.pow(base, exp)
    }

    /// Computes `g^exp mod p` from the generator's fixed-base table.
    ///
    /// The call that lazily builds the table counts as a miss (it pays the
    /// precompute cost); every later call is a hit.
    pub fn pow_g(&self, exp: &BigUint) -> BigUint {
        if self.inner.g_table.get().is_some() {
            self.inner.table_hits.inc();
        } else {
            self.inner.table_misses.inc();
        }
        self.inner
            .g_table
            .get_or_init(|| {
                self.inner
                    .ctx
                    .precompute(&self.inner.g, self.inner.p.bits())
            })
            .pow(exp)
    }

    /// Computes `∏ baseᵢ^expᵢ mod p`.
    ///
    /// Each occurrence of `g` is a [`SchnorrGroup::pow_g`]; the other bases
    /// each count one miss and share one squaring chain in a single
    /// [`ModContext::pow_multi`] — however many there are, which is the
    /// shape batch Schnorr verification produces. This is the fast path for
    /// verification products like `g^s · y^e`.
    pub fn multi_pow(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        let (of_g, rest): (Vec<_>, Vec<_>) = pairs
            .iter()
            .copied()
            .partition(|&(base, _)| *base == self.inner.g);
        let from_table = of_g.iter().map(|&(_, exp)| self.pow_g(exp));
        let windowed = (!rest.is_empty()).then(|| {
            self.inner.table_misses.add(rest.len() as u64);
            self.inner.ctx.pow_multi(&rest)
        });
        from_table
            .chain(windowed)
            .reduce(|a, v| self.mul(&a, &v))
            .unwrap_or_else(BigUint::one)
    }

    /// Multiplies two elements mod `p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mulmod(b, &self.inner.p)
    }

    /// Inverts a scalar mod `q`.
    ///
    /// Returns `None` for the zero scalar.
    pub fn invert_scalar(&self, a: &BigUint) -> Option<BigUint> {
        a.modinv(&self.inner.q)
    }

    /// Returns `true` when `el` lies in the order-`q` subgroup (and is not 0).
    pub fn contains(&self, el: &BigUint) -> bool {
        !el.is_zero() && *el < self.inner.p && self.pow(el, &self.inner.q).is_one()
    }

    /// Hashes arbitrary byte segments to a scalar in `[0, q)`.
    ///
    /// Uses SHA-256 in counter mode to gather enough output, then reduces.
    /// The sampled width exceeds `q`'s width by at least 16 bytes (matching
    /// [`SchnorrGroup::hash_to_element`]), so the reduction bias is at most
    /// `2^{-128}` regardless of group size. For `q` of 128 bits or more this
    /// is the historical 2× oversampling, so existing derivations are
    /// unchanged; it only widens the sample for small (test-sized) groups,
    /// where 2× alone would not clear the 16-byte margin.
    pub fn hash_to_scalar(&self, parts: &[&[u8]]) -> BigUint {
        let qb = (self.inner.q.bits() as usize).div_ceil(8);
        let need = qb + qb.max(16);
        let mut bytes = Vec::with_capacity(need + 32);
        let mut counter = 0u32;
        while bytes.len() < need {
            let mut h = Sha256::new();
            h.update(b"dosn.group.h2s");
            h.update(&counter.to_be_bytes());
            for p in parts {
                h.update(&(p.len() as u64).to_be_bytes());
                h.update(p);
            }
            bytes.extend_from_slice(&h.finalize());
            counter += 1;
        }
        &BigUint::from_bytes_be(&bytes) % &self.inner.q
    }

    /// Hashes arbitrary bytes to a group element (a quadratic residue).
    ///
    /// Computes `H(x)^2 mod p`, retrying on the degenerate values `0`/`1`.
    pub fn hash_to_element(&self, data: &[u8]) -> BigUint {
        let mut counter = 0u32;
        loop {
            let need = self.inner.element_len + 16;
            let mut bytes = Vec::with_capacity(need + 32);
            let mut block = 0u32;
            while bytes.len() < need {
                bytes.extend_from_slice(&sha256_concat(&[
                    b"dosn.group.h2e",
                    &counter.to_be_bytes(),
                    &block.to_be_bytes(),
                    data,
                ]));
                block += 1;
            }
            let x = &BigUint::from_bytes_be(&bytes) % &self.inner.p;
            let el = x.mulmod(&x, &self.inner.p);
            if !el.is_zero() && !el.is_one() {
                return el;
            }
            counter += 1;
        }
    }

    /// Serializes an element to fixed-width big-endian bytes.
    pub fn element_bytes(&self, el: &BigUint) -> Vec<u8> {
        el.to_fixed_bytes_be(self.inner.element_len)
    }

    /// `(table_hits, table_misses)` across this group and its clones:
    /// exponentiations of `g` served from its fixed-base table, and
    /// windowed exponentiations of every other base (see
    /// [`SchnorrGroup::pow`] for the exact contract).
    pub fn pow_cache_stats(&self) -> (u64, u64) {
        (self.inner.table_hits.get(), self.inner.table_misses.get())
    }

    /// Exponentiation backend tally of the group's [`ModContext`]
    /// (Montgomery vs division path), covering the table-miss fallbacks.
    pub fn exp_stats(&self) -> ExpStats {
        self.inner.ctx.stats()
    }

    /// Registers the group's table counters in `reg` under
    /// [`names::CRYPTO_GROUP_TABLE_HIT`] / [`names::CRYPTO_GROUP_TABLE_MISS`],
    /// and publishes the current [`ModContext`] backend tallies as
    /// [`names::BIGINT_POW_MONTGOMERY`] / [`names::BIGINT_POW_DIVISION`].
    ///
    /// The hit/miss counters are shared by reference — future
    /// increments are visible through the registry without re-registering.
    /// The bigint tallies are snapshots; call again before exporting to
    /// refresh them.
    pub fn register_obs(&self, reg: &Registry) {
        reg.register_counter(
            names::CRYPTO_GROUP_TABLE_HIT,
            Arc::clone(&self.inner.table_hits),
        );
        reg.register_counter(
            names::CRYPTO_GROUP_TABLE_MISS,
            Arc::clone(&self.inner.table_misses),
        );
        let exp = self.exp_stats();
        reg.set_gauge(names::BIGINT_POW_MONTGOMERY, exp.montgomery_pows as f64);
        reg.set_gauge(names::BIGINT_POW_DIVISION, exp.division_pows as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::SecureRng;

    fn rng() -> SecureRng {
        SecureRng::seed_from_u64(5)
    }

    #[test]
    fn builtin_groups_are_safe_primes() {
        let mut r = rng();
        for size in [GroupSize::Toy, GroupSize::Demo] {
            let g = SchnorrGroup::with_size(size);
            assert!(g.modulus().is_probable_prime(16, &mut r));
            assert!(g.order().is_probable_prime(16, &mut r));
            assert_eq!(
                &(g.order() << 1) + &BigUint::one(),
                *g.modulus(),
                "{size:?}"
            );
        }
    }

    #[test]
    #[ignore = "slow: validates the 1024/2048-bit built-in groups"]
    fn large_builtin_groups_are_safe_primes() {
        let mut r = rng();
        for size in [GroupSize::Legacy, GroupSize::Standard] {
            let g = SchnorrGroup::with_size(size);
            assert!(g.modulus().is_probable_prime(12, &mut r));
            assert!(g.order().is_probable_prime(12, &mut r));
        }
    }

    #[test]
    fn generator_has_order_q() {
        let g = SchnorrGroup::toy();
        assert!(g.pow_g(g.order()).is_one());
        assert!(!g.pow_g(&BigUint::one()).is_one());
    }

    #[test]
    fn from_parts_rejects_bad_params() {
        let g = SchnorrGroup::toy();
        // Wrong q.
        assert!(SchnorrGroup::from_parts(
            g.modulus().clone(),
            g.order() - &BigUint::one(),
            g.generator().clone()
        )
        .is_err());
        // Generator 1 is degenerate.
        assert!(
            SchnorrGroup::from_parts(g.modulus().clone(), g.order().clone(), BigUint::one())
                .is_err()
        );
    }

    #[test]
    fn generate_small_group_roundtrip() {
        let mut r = rng();
        let g = SchnorrGroup::generate(64, &mut r);
        let x = g.random_scalar(&mut r);
        let el = g.pow_g(&x);
        assert!(g.contains(&el));
    }

    #[test]
    fn random_scalar_in_range() {
        let g = SchnorrGroup::toy();
        let mut r = rng();
        for _ in 0..50 {
            let s = g.random_scalar(&mut r);
            assert!(!s.is_zero() && s < *g.order());
        }
    }

    #[test]
    fn contains_accepts_subgroup_rejects_outside() {
        let g = SchnorrGroup::toy();
        let mut r = rng();
        let x = g.random_scalar(&mut r);
        assert!(g.contains(&g.pow_g(&x)));
        assert!(!g.contains(&BigUint::zero()));
        assert!(!g.contains(g.modulus()));
        // A quadratic non-residue is not in the subgroup: for a safe prime,
        // -1 = p-1 is a non-residue.
        let minus_one = g.modulus() - &BigUint::one();
        assert!(!g.contains(&minus_one));
    }

    #[test]
    fn invert_scalar() {
        let g = SchnorrGroup::toy();
        let mut r = rng();
        let x = g.random_scalar(&mut r);
        let inv = g.invert_scalar(&x).unwrap();
        assert!(g.pow(&g.pow_g(&x), &inv).eq(&g.pow_g(&BigUint::one())));
        assert!(g.invert_scalar(&BigUint::zero()).is_none());
    }

    #[test]
    fn hash_to_element_lands_in_subgroup() {
        let g = SchnorrGroup::toy();
        for input in [b"alice".as_slice(), b"bob", b"", b"#hashtag"] {
            let el = g.hash_to_element(input);
            assert!(g.contains(&el), "input {input:?}");
        }
        assert_ne!(g.hash_to_element(b"a"), g.hash_to_element(b"b"));
        assert_eq!(g.hash_to_element(b"a"), g.hash_to_element(b"a"));
    }

    #[test]
    fn hash_to_scalar_in_range_and_deterministic() {
        let g = SchnorrGroup::toy();
        let s1 = g.hash_to_scalar(&[b"ctx", b"msg"]);
        let s2 = g.hash_to_scalar(&[b"ctx", b"msg"]);
        assert_eq!(s1, s2);
        assert!(s1 < *g.order());
        // Framing: ("ab","c") != ("a","bc").
        assert_ne!(
            g.hash_to_scalar(&[b"ab", b"c"]),
            g.hash_to_scalar(&[b"a", b"bc"])
        );
    }

    #[test]
    fn hash_to_scalar_pinned_vector() {
        // Regression pin: the scalar derivation (domain tag, counter-mode
        // framing, sample width) must not drift — deterministic key
        // derivations across the workspace depend on it. Expected value
        // computed independently with CPython's hashlib.
        let g = SchnorrGroup::toy();
        let s = g.hash_to_scalar(&[b"pin", b"vector"]);
        assert_eq!(
            s.to_fixed_bytes_be(32),
            BigUint::from_hex("215555b8f59130911df4860c647323843aff784ca43e893256298157c89ad472")
                .unwrap()
                .to_fixed_bytes_be(32)
        );
    }

    #[test]
    fn hash_to_scalar_oversamples_small_groups() {
        // The modulo-bias fix: the sampled width must exceed q's width by at
        // least 16 bytes even when q itself is shorter than 16 bytes.
        // Replicate the derivation for a 64-bit group and check both the
        // width rule and the reduced value.
        let mut r = rng();
        let g = SchnorrGroup::generate(64, &mut r);
        let qb = (g.order().bits() as usize).div_ceil(8);
        assert!(qb <= 8, "test group should have a short order");
        let need = qb + 16; // qb + max(qb, 16) with qb < 16
        let parts: [&[u8]; 2] = [b"ctx", b"msg"];
        let mut bytes = Vec::new();
        let mut counter = 0u32;
        while bytes.len() < need {
            let mut h = Sha256::new();
            h.update(b"dosn.group.h2s");
            h.update(&counter.to_be_bytes());
            for p in parts {
                h.update(&(p.len() as u64).to_be_bytes());
                h.update(p);
            }
            bytes.extend_from_slice(&h.finalize());
            counter += 1;
        }
        let expect = &BigUint::from_bytes_be(&bytes) % g.order();
        assert_eq!(g.hash_to_scalar(&parts), expect);
        // The sample itself must cover ≥ qb + 16 bytes of hash output.
        assert!(bytes.len() >= qb + 16);
    }

    #[test]
    fn multi_pow_matches_separate_pows() {
        let g = SchnorrGroup::toy();
        let mut r = rng();
        let y = g.pow_g(&g.random_scalar(&mut r));
        let z = g.hash_to_element(b"third base");
        let (s, e, t) = (
            g.random_scalar(&mut r),
            g.random_scalar(&mut r),
            g.random_scalar(&mut r),
        );
        let expect = g.mul(&g.mul(&g.pow_g(&s), &g.pow(&y, &e)), &g.pow(&z, &t));
        assert_eq!(
            g.multi_pow(&[(g.generator(), &s), (&y, &e), (&z, &t)]),
            expect
        );
        // Degenerate shapes.
        assert!(g.multi_pow(&[]).is_one());
        assert!(g
            .multi_pow(&[(&y, &BigUint::zero()), (&z, &BigUint::zero())])
            .is_one());
    }

    #[test]
    fn element_bytes_fixed_width() {
        let g = SchnorrGroup::toy();
        let one = g.element_bytes(&BigUint::one());
        assert_eq!(one.len(), g.element_len());
        assert_eq!(one[one.len() - 1], 1);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let g = SchnorrGroup::toy();
        let g2 = g.clone();
        assert_eq!(g, g2);
    }

    #[test]
    fn generator_hits_and_every_other_base_misses() {
        let g = SchnorrGroup::toy();
        let mut r = rng();
        let x = g.random_scalar(&mut r);
        let y = g.hash_to_element(b"some public key");
        let z = g.hash_to_element(b"another one");
        let pows0 = g.exp_stats().total();
        let moved = |f: &dyn Fn()| {
            let (h0, m0) = g.pow_cache_stats();
            f();
            let (h1, m1) = g.pow_cache_stats();
            (h1 - h0, m1 - m0)
        };

        // The call that builds the generator's table is the only `g` miss.
        assert_eq!(moved(&|| drop(g.pow_g(&x))), (0, 1));
        assert_eq!(moved(&|| drop(g.pow_g(&x))), (1, 0));
        assert_eq!(moved(&|| drop(g.pow(g.generator(), &x))), (1, 0));
        // Any other base misses, however often it is used.
        for _ in 0..6 {
            assert_eq!(moved(&|| drop(g.pow(&y, &x))), (0, 1));
        }
        // multi_pow: one event per base — no more, no less — wherever `g`
        // stands and whether or not a base repeats.
        let pairs = [(&y, &x), (g.generator(), &x), (&z, &x), (&y, &x)];
        assert_eq!(moved(&|| drop(g.multi_pow(&pairs))), (1, 3));
        assert_eq!(moved(&|| drop(g.multi_pow(&pairs[1..2]))), (1, 0));
        assert_eq!(moved(&|| drop(g.multi_pow(&pairs[2..]))), (0, 2));
        assert_eq!(moved(&|| drop(g.multi_pow(&[]))), (0, 0));

        // Clones share the counters; each miss above ran on the ModContext
        // (a multi_pow's misses share one run), the hits never touched it.
        assert_eq!(g.clone().pow_cache_stats(), g.pow_cache_stats());
        assert_eq!(g.exp_stats().total() - pows0, 6 + 2);
    }

    #[test]
    fn key_construction_costs_one_generator_pow_and_nothing_else() {
        // A hostile stream of fresh keys (Cachet mints one per post) must not
        // grow any per-group state or buy any precomputation: each key is one
        // table-served g^x.
        use crate::elgamal::ElGamalKeyPair;
        use crate::schnorr::SigningKey;
        let g = SchnorrGroup::toy();
        let mut r = rng();
        g.pow_g(&BigUint::one()); // the generator table exists from here on
        let (h0, m0) = g.pow_cache_stats();
        let pows0 = g.exp_stats().total();
        for _ in 0..5_000 {
            SigningKey::generate(g.clone(), &mut r);
            ElGamalKeyPair::generate(g.clone(), &mut r);
        }
        assert_eq!(g.pow_cache_stats(), (h0 + 10_000, m0));
        assert_eq!(g.exp_stats().total(), pows0);
    }

    #[test]
    fn shared_groups_pool_one_instance() {
        let a = SchnorrGroup::shared(GroupSize::Toy);
        let b = SchnorrGroup::shared(GroupSize::Toy);
        assert!(Arc::ptr_eq(&a.inner, &b.inner), "same Arc, shared table");
        // toy() stays hermetic: a fresh allocation every call.
        assert!(!Arc::ptr_eq(&a.inner, &SchnorrGroup::toy().inner));
        assert_eq!(a, SchnorrGroup::toy(), "same parameters either way");
    }

    #[test]
    fn register_obs_shares_live_counters() {
        use dosn_obs::{names, Registry};
        let g = SchnorrGroup::toy();
        let reg = Registry::new();
        g.register_obs(&reg);
        g.pow_g(&BigUint::one()); // first call builds the g table (a miss)
        let before = reg.counter(names::CRYPTO_GROUP_TABLE_HIT).get();
        g.pow_g(&BigUint::one());
        assert_eq!(
            reg.counter(names::CRYPTO_GROUP_TABLE_HIT).get(),
            before + 1,
            "registry must see increments made after registration"
        );
    }

    proptest::proptest! {
        #[test]
        fn multi_pow_is_the_product_of_independent_pows(
            picks in proptest::collection::vec((0u8..3, 0u64.., 0u64..), 0..13),
        ) {
            // 0..=12 bases on both sides of the ≤6 / >6 kernel choice, `g`
            // wherever the draw puts it, zero exponents included.
            let g = SchnorrGroup::toy();
            let owned: Vec<(BigUint, BigUint)> = picks
                .iter()
                .map(|&(kind, b, e)| {
                    let base = match kind {
                        0 => g.generator().clone(),
                        _ => g.hash_to_element(&b.to_be_bytes()),
                    };
                    let exp = match e % 5 {
                        0 => BigUint::zero(),
                        _ => g.hash_to_scalar(&[&e.to_be_bytes()]),
                    };
                    (base, exp)
                })
                .collect();
            let pairs: Vec<(&BigUint, &BigUint)> = owned.iter().map(|(b, e)| (b, e)).collect();
            let expect = owned
                .iter()
                .fold(BigUint::one(), |acc, (b, e)| g.mul(&acc, &g.pow(b, e)));
            proptest::prop_assert_eq!(g.multi_pow(&pairs), expect);
        }
    }
}
