//! Schnorr digital signatures (survey §IV).
//!
//! The survey's data-integrity section builds everything on digital
//! signatures over hashed messages; this module provides that primitive.
//! Signing hashes the message (hash-then-sign, as §IV describes) and applies
//! the Fiat–Shamir-transformed Schnorr identification protocol.

use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::group::SchnorrGroup;
use dosn_bigint::BigUint;

/// A Schnorr signing key pair.
///
/// ```
/// use dosn_crypto::{schnorr::SigningKey, group::SchnorrGroup, chacha::SecureRng};
///
/// let mut rng = SecureRng::seed_from_u64(4);
/// let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
/// let sig = key.sign(b"come to my party on friday", &mut rng);
/// assert!(key.verifying_key().verify(b"come to my party on friday", &sig).is_ok());
/// assert!(key.verifying_key().verify(b"party is cancelled", &sig).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct SigningKey {
    group: SchnorrGroup,
    x: BigUint,
    vk: VerifyingKey,
}

/// The public verification key `y = g^x`.
#[derive(Clone, PartialEq, Eq)]
pub struct VerifyingKey {
    group: SchnorrGroup,
    y: BigUint,
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VerifyingKey({})",
            &self.y.to_hex()[..16.min(self.y.to_hex().len())]
        )
    }
}

/// A Schnorr signature `(r, s)`: the commitment `r = g^k` and the response
/// `s = k - x e (mod q)`, with the challenge `e = H(y ‖ r ‖ m)` recomputed
/// by the verifier.
///
/// The commitment form (rather than the `(e, s)` challenge form) is what
/// makes batch verification possible: a random-linear-combination check
/// needs each `rᵢ` explicitly, whereas the challenge form forces the
/// verifier to reconstruct every `rᵢ = g^{sᵢ}·y^{eᵢ}` individually — the
/// exact cost batching exists to amortize. See [`crate::batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    r: BigUint,
    s: BigUint,
}

impl SigningKey {
    /// Generates a fresh key pair in `group`.
    pub fn generate(group: SchnorrGroup, rng: &mut SecureRng) -> Self {
        let x = group.random_scalar(rng);
        Self::from_scalar(group, x)
    }

    /// Builds a key pair from an existing secret scalar (used by the PKG in
    /// the identity-based layer and by per-post relation keys).
    pub fn from_scalar(group: SchnorrGroup, x: BigUint) -> Self {
        let y = group.pow_g(&x);
        SigningKey {
            vk: VerifyingKey {
                group: group.clone(),
                y,
            },
            group,
            x,
        }
    }

    /// Deterministically derives a key pair from seed bytes.
    pub fn from_seed(group: SchnorrGroup, seed: &[u8]) -> Self {
        let x = group.hash_to_scalar(&[b"dosn.schnorr.keygen", seed]);
        let x = if x.is_zero() { BigUint::one() } else { x };
        Self::from_scalar(group, x)
    }

    /// Signs `message` (hash-then-sign).
    pub fn sign(&self, message: &[u8], rng: &mut SecureRng) -> Signature {
        let k = self.group.random_scalar(rng);
        let r = self.group.pow_g(&k);
        let e = self.challenge(&r, message);
        // s = k - x*e mod q
        let xe = self.x.mulmod(&e, self.group.order());
        let s = k.submod(&xe, self.group.order());
        Signature { r, s }
    }

    /// The verification key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.vk
    }

    /// The group of this key.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The secret exponent (crate-internal: used by the blind-signature and
    /// identity-based layers).
    pub(crate) fn secret_scalar(&self) -> &BigUint {
        &self.x
    }

    /// Exports the secret scalar as fixed-width big-endian bytes, for
    /// wrapping under another key (e.g. the per-post comment keys of the
    /// Cachet data-relation design). Handle with care: this *is* the key.
    pub fn secret_scalar_bytes(&self) -> Vec<u8> {
        let w = (self.group.order().bits() as usize).div_ceil(8);
        self.x.to_fixed_bytes_be(w)
    }

    fn challenge(&self, r: &BigUint, message: &[u8]) -> BigUint {
        self.vk.challenge(r, message)
    }
}

impl VerifyingKey {
    /// The public element `y = g^x`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// The group of this key.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Verifies `signature` over `message`: accepts iff
    /// `g^s · y^e = ±r (mod p)` for `e = H(y ‖ r ‖ m)` (cofactored
    /// verification, the rule [`crate::batch`] checks too).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        if !self.signature_well_formed(signature) {
            return Err(CryptoError::InvalidSignature);
        }
        let e = self.challenge(&signature.r, message);
        self.check_equation(signature, &e)
    }

    /// Crate-internal: the verification equation for a precomputed
    /// challenge `e`, shared with batch verification. Valid iff
    /// `g^s · y^e ∈ {r, p − r}` (one simultaneous multi-exp): `r` is judged
    /// in the signed quadratic residues `Z_p^* / {±1}`, a group of prime
    /// order `q`, which is what lets the combined check compare its sides
    /// up to sign with no per-signature Jacobi screen (DESIGN.md, "Batch
    /// signature verification").
    pub(crate) fn check_equation(
        &self,
        signature: &Signature,
        e: &BigUint,
    ) -> Result<(), CryptoError> {
        let lhs = self
            .group
            .multi_pow(&[(self.group.generator(), &signature.s), (&self.y, e)]);
        if equal_up_to_sign(&self.group, &lhs, &signature.r) {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// Crate-internal structural checks shared with batch verification:
    /// `s` below `q` and `r` in `[1, p)`; no subgroup test, since the
    /// equation judges `r` up to sign.
    pub(crate) fn signature_well_formed(&self, signature: &Signature) -> bool {
        signature.s < *self.group.order()
            && !signature.r.is_zero()
            && signature.r < *self.group.modulus()
    }

    /// Crate-internal: the Fiat–Shamir challenge, exposed so the blind
    /// signature protocol and the batch verifier compute the identical
    /// value.
    pub(crate) fn challenge_scalar(&self, r: &BigUint, message: &[u8]) -> BigUint {
        self.challenge(r, message)
    }

    fn challenge(&self, r: &BigUint, message: &[u8]) -> BigUint {
        self.group.hash_to_scalar(&[
            b"dosn.schnorr.sign",
            &self.group.element_bytes(&self.y),
            &self.group.element_bytes(r),
            message,
        ])
    }
}

/// Whether `x = ±r (mod p)` for `x, r` in `[1, p)`. In `Z_p`,
/// `x² = r² ⇔ x = ±r`, so this is the squared comparison at the cost of
/// one comparison, plus one addition when the first fails.
pub(crate) fn equal_up_to_sign(group: &SchnorrGroup, x: &BigUint, r: &BigUint) -> bool {
    x == r || &(x + r) == group.modulus()
}

impl Signature {
    /// Crate-internal constructor used by the blind-signature protocol.
    pub(crate) fn from_parts(r: BigUint, s: BigUint) -> Self {
        Signature { r, s }
    }

    /// Crate-internal accessor for the commitment element `r = g^k`.
    pub(crate) fn commitment(&self) -> &BigUint {
        &self.r
    }

    /// Crate-internal accessor for the response scalar.
    pub(crate) fn s_scalar(&self) -> &BigUint {
        &self.s
    }

    /// Serialized size in bytes: one group element plus one scalar.
    pub fn size_bytes(&self, group: &SchnorrGroup) -> usize {
        group.element_len() + (group.order().bits() as usize).div_ceil(8)
    }

    /// Serializes as `r || s`: the commitment at the group's element width,
    /// the response at its scalar width.
    pub fn to_bytes(&self, group: &SchnorrGroup) -> Vec<u8> {
        let w = (group.order().bits() as usize).div_ceil(8);
        let mut out = group.element_bytes(&self.r);
        out.extend_from_slice(&self.s.to_fixed_bytes_be(w));
        out
    }

    /// Parses the output of [`Signature::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on bad length.
    pub fn from_bytes(group: &SchnorrGroup, bytes: &[u8]) -> Result<Self, CryptoError> {
        let el = group.element_len();
        let w = (group.order().bits() as usize).div_ceil(8);
        if bytes.len() != el + w {
            return Err(CryptoError::Malformed("bad signature length".into()));
        }
        Ok(Signature {
            r: BigUint::from_bytes_be(&bytes[..el]),
            s: BigUint::from_bytes_be(&bytes[el..]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SigningKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(33);
        let key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        (key, rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (key, mut rng) = setup();
        for msg in [b"".as_slice(), b"a", b"a longer message with content"] {
            let sig = key.sign(msg, &mut rng);
            key.verifying_key().verify(msg, &sig).unwrap();
        }
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let (key, mut rng) = setup();
        let sig = key.sign(b"original", &mut rng);
        assert_eq!(
            key.verifying_key().verify(b"forged", &sig).unwrap_err(),
            CryptoError::InvalidSignature
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let (key, mut rng) = setup();
        let other = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        let sig = key.sign(b"msg", &mut rng);
        assert!(other.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_out_of_range_components() {
        let (key, mut rng) = setup();
        let sig = key.sign(b"msg", &mut rng);
        // Response scalar at or above q.
        let bad_s = Signature {
            r: sig.r.clone(),
            s: key.group().order().clone(),
        };
        assert!(key.verifying_key().verify(b"msg", &bad_s).is_err());
        // Commitment of zero, at p, or above it.
        for bad_r in [
            BigUint::zero(),
            key.group().modulus().clone(),
            key.group().modulus() + &sig.r,
        ] {
            let bad = Signature {
                r: bad_r,
                s: sig.s.clone(),
            };
            assert!(key.verifying_key().verify(b"msg", &bad).is_err());
        }
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let (key, mut rng) = setup();
        let sig = key.sign(b"serialize me", &mut rng);
        let bytes = sig.to_bytes(key.group());
        assert_eq!(bytes.len(), sig.size_bytes(key.group()));
        let parsed = Signature::from_bytes(key.group(), &bytes).unwrap();
        assert_eq!(parsed, sig);
        key.verifying_key()
            .verify(b"serialize me", &parsed)
            .unwrap();
        assert!(Signature::from_bytes(key.group(), &bytes[1..]).is_err());
    }

    #[test]
    fn from_seed_is_deterministic() {
        let g = SchnorrGroup::toy();
        let k1 = SigningKey::from_seed(g.clone(), b"alice-device-1");
        let k2 = SigningKey::from_seed(g.clone(), b"alice-device-1");
        let k3 = SigningKey::from_seed(g, b"alice-device-2");
        assert_eq!(k1.verifying_key(), k2.verifying_key());
        assert_ne!(k1.verifying_key(), k3.verifying_key());
    }

    #[test]
    fn signatures_are_randomized_but_both_verify() {
        let (key, mut rng) = setup();
        let s1 = key.sign(b"m", &mut rng);
        let s2 = key.sign(b"m", &mut rng);
        assert_ne!(s1, s2);
        key.verifying_key().verify(b"m", &s1).unwrap();
        key.verifying_key().verify(b"m", &s2).unwrap();
    }

    #[test]
    fn cross_signature_message_swap_fails() {
        let (key, mut rng) = setup();
        let s1 = key.sign(b"message one", &mut rng);
        let s2 = key.sign(b"message two", &mut rng);
        assert!(key.verifying_key().verify(b"message two", &s1).is_err());
        assert!(key.verifying_key().verify(b"message one", &s2).is_err());
    }
}
