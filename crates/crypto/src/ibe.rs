//! Cocks identity-based encryption (survey §III-E).
//!
//! In an IBE scheme any string — a username, an e-mail address — is a public
//! key, and a trusted **Private Key Generator (PKG)** issues the matching
//! secret keys. The survey highlights this for DOSNs because senders need no
//! key exchange before encrypting to a friend.
//!
//! This is Clifford Cocks' quadratic-residuosity scheme (2001), which —
//! unlike the pairing-based schemes — is implementable from scratch on plain
//! modular arithmetic:
//!
//! * **Setup**: a Blum integer `n = p·q` with `p ≡ q ≡ 3 (mod 4)`; the PKG
//!   keeps `(p, q)`.
//! * **Identity hash**: `a = H(id)` with Jacobi symbol `(a/n) = +1`.
//! * **Extract**: `r = a^((n + 5 − p − q)/8) mod n`, giving `r² ≡ ±a (mod n)`.
//! * **Encrypt (per bit, encoded ±1)**: pick random `t` with `(t/n) = m`,
//!   send `c = t + a·t⁻¹` (and a second value for the `−a` branch).
//! * **Decrypt**: `m = ((c + 2r)/n)`.
//!
//! Cocks encrypts bit-by-bit (two `Z_n` elements per bit), so real payloads
//! go through [`CocksPublicParams::encrypt_hybrid`]: Cocks-encrypt a 128-bit
//! seed, derive a symmetric key, seal the payload.

use crate::aead::SymmetricKey;
use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::sha256::sha256_concat;
use dosn_bigint::{gen_prime, random_below, BigUint, ModContext};
use std::sync::Arc;

/// Which square-root branch an identity key holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    /// `r² ≡ a (mod n)`.
    Plus,
    /// `r² ≡ −a (mod n)`.
    Minus,
}

/// The trusted third party that generates identity secret keys.
///
/// ```
/// use dosn_crypto::{ibe::CocksPkg, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(9);
/// let pkg = CocksPkg::setup(512, &mut rng);
/// let params = pkg.public_params();
///
/// // Anyone encrypts to "bob@dosn" with only the public parameters.
/// let ct = params.encrypt_hybrid(b"bob@dosn", b"hello bob", &mut rng);
///
/// // Bob obtains his key from the PKG and decrypts.
/// let bob_key = pkg.extract(b"bob@dosn");
/// assert_eq!(bob_key.decrypt_hybrid(&ct)?, b"hello bob");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct CocksPkg {
    p: BigUint,
    q: BigUint,
    params: CocksPublicParams,
}

impl std::fmt::Debug for CocksPkg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CocksPkg(n = {} bits)", self.params.modulus_bits())
    }
}

/// The public parameters: the Blum modulus `n`.
#[derive(Clone, PartialEq, Eq)]
pub struct CocksPublicParams {
    inner: Arc<ParamsInner>,
}

struct ParamsInner {
    n: BigUint,
    element_len: usize,
    /// Exponentiation context for `n`, shared by extract and the per-bit
    /// encrypt/decrypt loops.
    ctx: ModContext,
}

// Parameter identity is the modulus; the context is derived state.
impl PartialEq for ParamsInner {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for ParamsInner {}

impl std::fmt::Debug for CocksPublicParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CocksPublicParams(n = {} bits)", self.modulus_bits())
    }
}

/// An identity's secret key: the square root `r` and its branch.
#[derive(Clone)]
pub struct IdentityKey {
    params: CocksPublicParams,
    identity: Vec<u8>,
    r: BigUint,
    branch: Branch,
}

impl std::fmt::Debug for IdentityKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IdentityKey({:?})",
            String::from_utf8_lossy(&self.identity)
        )
    }
}

/// Ciphertext of a bit string: per bit, one value for each branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CocksCiphertext {
    identity: Vec<u8>,
    /// Per plaintext bit: (c_plus, c_minus).
    bits: Vec<(BigUint, BigUint)>,
}

/// Hybrid ciphertext: a Cocks-encrypted seed plus a sealed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridIbeCiphertext {
    seed_ct: CocksCiphertext,
    sealed: Vec<u8>,
}

/// Seed length for hybrid encryption (128-bit).
const SEED_LEN: usize = 16;

impl CocksPkg {
    /// Generates a PKG with a `bits`-bit Blum modulus.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64`.
    pub fn setup(bits: u64, rng: &mut SecureRng) -> Self {
        assert!(bits >= 64, "modulus too small to be meaningful");
        let half = bits / 2;
        let p = gen_blum_prime(half, rng);
        let q = loop {
            let c = gen_blum_prime(bits - half, rng);
            if c != p {
                break c;
            }
        };
        let n = &p * &q;
        let element_len = n.bits().div_ceil(8) as usize;
        let ctx = ModContext::new(&n);
        CocksPkg {
            p,
            q,
            params: CocksPublicParams {
                inner: Arc::new(ParamsInner {
                    n,
                    element_len,
                    ctx,
                }),
            },
        }
    }

    /// The public parameters to publish.
    pub fn public_params(&self) -> CocksPublicParams {
        self.params.clone()
    }

    /// Extracts the secret key for `identity`.
    pub fn extract(&self, identity: &[u8]) -> IdentityKey {
        let n = &self.params.inner.n;
        let a = self.params.hash_identity(identity);
        // r = a^((n + 5 - p - q) / 8) mod n
        let exp = &(&(n + &BigUint::from(5u64)) - &self.p) - &self.q;
        debug_assert!((&exp % &BigUint::from(8u64)).is_zero());
        let exp = &exp >> 3;
        let ctx = &self.params.inner.ctx;
        let r = ctx.pow(&a, &exp);
        let r_sq = ctx.mul(&r, &r);
        let branch = if r_sq == a {
            Branch::Plus
        } else {
            debug_assert_eq!(r_sq, n - &(&a % n), "r^2 must be ±a");
            Branch::Minus
        };
        IdentityKey {
            params: self.params.clone(),
            identity: identity.to_vec(),
            r,
            branch,
        }
    }
}

impl CocksPublicParams {
    /// The modulus bit length.
    pub fn modulus_bits(&self) -> u64 {
        self.inner.n.bits()
    }

    /// Serialized size of one `Z_n` element in bytes.
    pub fn element_len(&self) -> usize {
        self.inner.element_len
    }

    /// Hashes an identity string to `a` with Jacobi symbol `(a/n) = +1`.
    fn hash_identity(&self, identity: &[u8]) -> BigUint {
        let n = &self.inner.n;
        let mut counter = 0u32;
        loop {
            let need = self.inner.element_len + 8;
            let mut bytes = Vec::with_capacity(need + 32);
            let mut block = 0u32;
            while bytes.len() < need {
                bytes.extend_from_slice(&sha256_concat(&[
                    b"dosn.cocks.h2id",
                    &counter.to_be_bytes(),
                    &block.to_be_bytes(),
                    identity,
                ]));
                block += 1;
            }
            let a = &BigUint::from_bytes_be(&bytes) % n;
            if !a.is_zero() && a.jacobi(n) == 1 {
                return a;
            }
            counter += 1;
        }
    }

    /// Encrypts raw bytes bit-by-bit to `identity`.
    ///
    /// Every bit costs two `Z_n` elements; keep `data` short (this is meant
    /// for key seeds). Use [`CocksPublicParams::encrypt_hybrid`] for payloads.
    pub fn encrypt_bytes(
        &self,
        identity: &[u8],
        data: &[u8],
        rng: &mut SecureRng,
    ) -> CocksCiphertext {
        let a = self.hash_identity(identity);
        let n = &self.inner.n;
        let ctx = &self.inner.ctx;
        let neg_a = n - &(&a % n);
        let mut bits = Vec::with_capacity(data.len() * 8);
        for byte in data {
            for bit_idx in (0..8).rev() {
                let bit = (byte >> bit_idx) & 1;
                // Encode bit 0 -> +1, bit 1 -> -1.
                let m = if bit == 0 { 1 } else { -1 };
                let c_plus = encrypt_branch(ctx, &a, m, false, rng);
                let c_minus = encrypt_branch(ctx, &neg_a, m, true, rng);
                bits.push((c_plus, c_minus));
            }
        }
        CocksCiphertext {
            identity: identity.to_vec(),
            bits,
        }
    }

    /// Hybrid encryption: Cocks-encrypts a fresh 128-bit seed to `identity`,
    /// then seals `plaintext` under a key derived from the seed.
    pub fn encrypt_hybrid(
        &self,
        identity: &[u8],
        plaintext: &[u8],
        rng: &mut SecureRng,
    ) -> HybridIbeCiphertext {
        let mut seed = [0u8; SEED_LEN];
        rand::RngCore::fill_bytes(rng, &mut seed);
        let seed_ct = self.encrypt_bytes(identity, &seed, rng);
        let dek = SymmetricKey::derive(&seed, b"dosn.cocks.dem");
        let sealed = dek.seal(plaintext, identity, rng);
        HybridIbeCiphertext { seed_ct, sealed }
    }

    /// Ciphertext size in bytes for a `data_len`-byte bit-encryption.
    pub fn ciphertext_size(&self, data_len: usize) -> usize {
        data_len * 8 * 2 * self.inner.element_len
    }
}

/// Encrypts one ±1-encoded bit on one branch.
///
/// For the plus branch (`value = a`): `c = t + a·t⁻¹`.
/// For the minus branch (`value = -a`, passed already negated):
/// `c = t + (−a)·t⁻¹`, i.e. `t − a·t⁻¹`.
fn encrypt_branch(
    ctx: &ModContext,
    value: &BigUint,
    m: i32,
    _is_minus: bool,
    rng: &mut SecureRng,
) -> BigUint {
    let n = ctx.modulus();
    loop {
        let t = random_below(n, rng);
        if t.is_zero() {
            continue;
        }
        if t.jacobi(n) != m {
            continue;
        }
        let Some(t_inv) = t.modinv(n) else {
            // gcd(t, n) > 1 would factor n; astronomically unlikely.
            continue;
        };
        return t.addmod(&ctx.mul(value, &t_inv), n);
    }
}

impl IdentityKey {
    /// The identity this key belongs to.
    pub fn identity(&self) -> &[u8] {
        &self.identity
    }

    /// Decrypts a bit-level ciphertext addressed to this identity.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::NotARecipient`] when the ciphertext names a
    /// different identity, and [`CryptoError::Malformed`] when a decrypted
    /// Jacobi symbol is `0` (corrupted ciphertext).
    pub fn decrypt_bytes(&self, ct: &CocksCiphertext) -> Result<Vec<u8>, CryptoError> {
        if ct.identity != self.identity {
            return Err(CryptoError::NotARecipient);
        }
        let n = &self.params.inner.n;
        let two_r = self.r.addmod(&self.r, n);
        let mut out = Vec::with_capacity(ct.bits.len() / 8);
        let mut cur = 0u8;
        for (i, (c_plus, c_minus)) in ct.bits.iter().enumerate() {
            let c = match self.branch {
                Branch::Plus => c_plus,
                Branch::Minus => c_minus,
            };
            let m = c.addmod(&two_r, n).jacobi(n);
            let bit = match m {
                1 => 0u8,
                -1 => 1u8,
                _ => {
                    return Err(CryptoError::Malformed(
                        "ciphertext element shares a factor with n".into(),
                    ))
                }
            };
            cur = (cur << 1) | bit;
            if i % 8 == 7 {
                out.push(cur);
                cur = 0;
            }
        }
        if !ct.bits.len().is_multiple_of(8) {
            return Err(CryptoError::Malformed(
                "bit count not a whole number of bytes".into(),
            ));
        }
        Ok(out)
    }

    /// Decrypts a hybrid ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError::NotARecipient`] /
    /// [`CryptoError::AuthenticationFailed`] from the layers involved.
    pub fn decrypt_hybrid(&self, ct: &HybridIbeCiphertext) -> Result<Vec<u8>, CryptoError> {
        let seed = self.decrypt_bytes(&ct.seed_ct)?;
        let dek = SymmetricKey::derive(&seed, b"dosn.cocks.dem");
        dek.open(&ct.sealed, &self.identity)
    }
}

/// Generates a prime `≡ 3 (mod 4)`.
fn gen_blum_prime(bits: u64, rng: &mut SecureRng) -> BigUint {
    loop {
        let p = gen_prime(bits, rng);
        if p.low_u64() & 3 == 3 {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A shared small PKG so the (slow) setup runs once per test binary.
    fn pkg() -> &'static CocksPkg {
        static PKG: OnceLock<CocksPkg> = OnceLock::new();
        PKG.get_or_init(|| {
            let mut rng = SecureRng::seed_from_u64(1001);
            CocksPkg::setup(256, &mut rng)
        })
    }

    #[test]
    fn bit_level_roundtrip() {
        let mut rng = SecureRng::seed_from_u64(2);
        let params = pkg().public_params();
        let key = pkg().extract(b"alice");
        for data in [&[0u8][..], &[0xff], &[0x5a, 0xa5], b"k!"] {
            let ct = params.encrypt_bytes(b"alice", data, &mut rng);
            assert_eq!(key.decrypt_bytes(&ct).unwrap(), data);
        }
    }

    #[test]
    fn hybrid_roundtrip() {
        let mut rng = SecureRng::seed_from_u64(3);
        let params = pkg().public_params();
        let ct = params.encrypt_hybrid(b"bob", b"a longer message payload goes here", &mut rng);
        let key = pkg().extract(b"bob");
        assert_eq!(
            key.decrypt_hybrid(&ct).unwrap(),
            b"a longer message payload goes here"
        );
    }

    #[test]
    fn wrong_identity_rejected() {
        let mut rng = SecureRng::seed_from_u64(4);
        let params = pkg().public_params();
        let ct = params.encrypt_hybrid(b"bob", b"for bob", &mut rng);
        let eve = pkg().extract(b"eve");
        assert_eq!(
            eve.decrypt_hybrid(&ct).unwrap_err(),
            CryptoError::NotARecipient
        );
    }

    #[test]
    fn both_branches_occur_across_identities() {
        // The extract branch depends on whether H(id) is a QR; across many
        // identities both cases must appear (probability 2^-20 otherwise).
        let mut plus = 0;
        let mut minus = 0;
        for i in 0..20 {
            let key = pkg().extract(format!("user-{i}").as_bytes());
            match key.branch {
                Branch::Plus => plus += 1,
                Branch::Minus => minus += 1,
            }
        }
        assert!(plus > 0 && minus > 0, "plus={plus} minus={minus}");
    }

    #[test]
    fn extract_key_squares_to_identity_hash() {
        let params = pkg().public_params();
        let n = &params.inner.n;
        for id in [b"x".as_slice(), b"y", b"someone@example.org"] {
            let key = pkg().extract(id);
            let a = params.hash_identity(id);
            let r_sq = key.r.mulmod(&key.r, n);
            match key.branch {
                Branch::Plus => assert_eq!(r_sq, a),
                Branch::Minus => assert_eq!(r_sq, n - &a),
            }
        }
    }

    #[test]
    fn identity_hash_has_jacobi_one() {
        let params = pkg().public_params();
        let n = &params.inner.n;
        for id in ["a", "b", "carol", "dave"] {
            assert_eq!(params.hash_identity(id.as_bytes()).jacobi(n), 1);
        }
    }

    #[test]
    fn tampered_hybrid_payload_rejected() {
        let mut rng = SecureRng::seed_from_u64(5);
        let params = pkg().public_params();
        let mut ct = params.encrypt_hybrid(b"bob", b"payload", &mut rng);
        let len = ct.sealed.len();
        ct.sealed[len - 1] ^= 1;
        let key = pkg().extract(b"bob");
        assert!(key.decrypt_hybrid(&ct).is_err());
    }

    #[test]
    fn ciphertext_size_matches_prediction() {
        let mut rng = SecureRng::seed_from_u64(6);
        let params = pkg().public_params();
        let ct = params.encrypt_bytes(b"alice", &[0u8; 4], &mut rng);
        assert_eq!(ct.bits.len(), 32);
        assert_eq!(params.ciphertext_size(4), 32 * 2 * params.element_len());
    }

    #[test]
    fn setup_produces_blum_modulus() {
        let p = &pkg().p;
        let q = &pkg().q;
        assert_eq!(p.low_u64() & 3, 3);
        assert_eq!(q.low_u64() & 3, 3);
        assert_eq!(p * q, pkg().params.inner.n);
    }
}
