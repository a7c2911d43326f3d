//! ElGamal public-key encryption over a [`SchnorrGroup`] (survey §III-C).
//!
//! Two layers, of which the second is public:
//!
//! * raw element encryption (`encrypt_element`) — the textbook CPA-secure
//!   scheme on group elements; and
//! * hybrid byte encryption ([`ElGamalPublicKey::encrypt`]) — a KEM/DEM
//!   construction that ElGamal-encrypts a random group element, derives a
//!   [`SymmetricKey`] from it, and seals the payload with authenticated
//!   symmetric encryption. This is what Flybynight- and PeerSoN-style
//!   systems (paper §III-C) use for friend-directed content.

use crate::aead::SymmetricKey;
use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::group::SchnorrGroup;
use dosn_bigint::BigUint;

/// An ElGamal key pair over a Schnorr group.
#[derive(Clone, Debug)]
pub struct ElGamalKeyPair {
    public: ElGamalPublicKey,
    secret: ElGamalSecretKey,
}

/// The public half: `y = g^x`.
#[derive(Clone, PartialEq, Eq)]
pub struct ElGamalPublicKey {
    group: SchnorrGroup,
    y: BigUint,
}

/// The secret exponent `x`.
#[derive(Clone)]
pub struct ElGamalSecretKey {
    group: SchnorrGroup,
    x: BigUint,
}

impl std::fmt::Debug for ElGamalPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ElGamalPublicKey({})", self.y.to_hex())
    }
}

impl std::fmt::Debug for ElGamalSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ElGamalSecretKey(..)")
    }
}

/// A ciphertext on a single group element: `(c1, c2) = (g^r, m * y^r)`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ElementCiphertext {
    c1: BigUint,
    c2: BigUint,
}

/// A hybrid ciphertext over arbitrary bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridCiphertext {
    kem: ElementCiphertext,
    sealed: Vec<u8>,
}

impl ElGamalKeyPair {
    /// Generates a key pair in `group`.
    ///
    /// ```
    /// use dosn_crypto::{elgamal::ElGamalKeyPair, group::SchnorrGroup, chacha::SecureRng};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = SecureRng::seed_from_u64(2);
    /// let kp = ElGamalKeyPair::generate(SchnorrGroup::toy(), &mut rng);
    /// let ct = kp.public().encrypt(b"for your eyes only", &mut rng);
    /// assert_eq!(kp.secret().decrypt(&ct)?, b"for your eyes only");
    /// # Ok(())
    /// # }
    /// ```
    pub fn generate(group: SchnorrGroup, rng: &mut SecureRng) -> Self {
        let x = group.random_scalar(rng);
        let y = group.pow_g(&x);
        ElGamalKeyPair {
            public: ElGamalPublicKey {
                group: group.clone(),
                y,
            },
            secret: ElGamalSecretKey { group, x },
        }
    }

    /// The public key.
    pub fn public(&self) -> &ElGamalPublicKey {
        &self.public
    }

    /// The secret key.
    pub fn secret(&self) -> &ElGamalSecretKey {
        &self.secret
    }
}

impl ElGamalPublicKey {
    /// The group this key lives in.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The public element `y = g^x`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// Textbook ElGamal on a group element.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `m` is not a group element.
    fn encrypt_element(&self, m: &BigUint, rng: &mut SecureRng) -> ElementCiphertext {
        debug_assert!(self.group.contains(m), "message must be a group element");
        let r = self.group.random_scalar(rng);
        ElementCiphertext {
            c1: self.group.pow_g(&r),
            c2: self.group.mul(m, &self.group.pow(&self.y, &r)),
        }
    }

    /// Hybrid (KEM/DEM) encryption of arbitrary bytes.
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut SecureRng) -> HybridCiphertext {
        // KEM: encapsulate a random group element, derive the DEM key from it.
        let k = self.group.random_scalar(rng);
        let shared = self.group.pow_g(&k);
        let kem = self.encrypt_element(&shared, rng);
        let dek = SymmetricKey::derive(&self.group.element_bytes(&shared), b"dosn.elgamal.dem");
        let sealed = dek.seal(plaintext, b"", rng);
        HybridCiphertext { kem, sealed }
    }
}

impl ElGamalSecretKey {
    /// Decrypts a textbook element ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Protocol`] when either ciphertext component is
    /// not an element of the order-`q` subgroup. Decrypting unvalidated
    /// components would silently produce garbage (and, for small-subgroup
    /// `c1`, leak bits of `x` to an active attacker).
    fn decrypt_element(&self, ct: &ElementCiphertext) -> Result<BigUint, CryptoError> {
        if !self.group.contains(&ct.c1) || !self.group.contains(&ct.c2) {
            return Err(CryptoError::Protocol(
                "elgamal ciphertext component is not a group element".into(),
            ));
        }
        // c1 has order q, so c1^{-x} = c1^{q-x}: one multi-exponentiation
        // replaces the extended-Euclid inverse.
        let neg_x = self.group.order() - &self.x;
        Ok(self.group.mul(&ct.c2, &self.group.pow(&ct.c1, &neg_x)))
    }

    /// Decrypts a hybrid ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Protocol`] on malformed KEM components and
    /// [`CryptoError::AuthenticationFailed`] when the ciphertext was
    /// produced for a different key or has been tampered with.
    pub fn decrypt(&self, ct: &HybridCiphertext) -> Result<Vec<u8>, CryptoError> {
        let shared = self.decrypt_element(&ct.kem)?;
        let dek = SymmetricKey::derive(&self.group.element_bytes(&shared), b"dosn.elgamal.dem");
        dek.open(&ct.sealed, b"")
    }

    /// The public key corresponding to this secret.
    pub fn public(&self) -> ElGamalPublicKey {
        let y = self.group.pow_g(&self.x);
        ElGamalPublicKey {
            group: self.group.clone(),
            y,
        }
    }
}

impl HybridCiphertext {
    /// Total ciphertext size in bytes (both KEM elements plus sealed body).
    pub fn size_bytes(&self, group: &SchnorrGroup) -> usize {
        group.element_len() * 2 + self.sealed.len()
    }

    /// Serializes to length-prefixed bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let c1 = self.kem.c1.to_bytes_be();
        let c2 = self.kem.c2.to_bytes_be();
        let mut out = Vec::with_capacity(8 + c1.len() + 8 + c2.len() + self.sealed.len());
        out.extend_from_slice(&(c1.len() as u32).to_be_bytes());
        out.extend_from_slice(&c1);
        out.extend_from_slice(&(c2.len() as u32).to_be_bytes());
        out.extend_from_slice(&c2);
        out.extend_from_slice(&self.sealed);
        out
    }

    /// Parses the output of [`HybridCiphertext::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let take_len = |bytes: &[u8], at: usize| -> Result<usize, CryptoError> {
            bytes
                .get(at..at + 4)
                .map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")) as usize)
                .ok_or_else(|| CryptoError::Malformed("truncated hybrid ciphertext".into()))
        };
        let c1_len = take_len(bytes, 0)?;
        let c1_end = 4 + c1_len;
        let c1 = bytes
            .get(4..c1_end)
            .ok_or_else(|| CryptoError::Malformed("truncated c1".into()))?;
        let c2_len = take_len(bytes, c1_end)?;
        let c2_start = c1_end + 4;
        let c2_end = c2_start + c2_len;
        let c2 = bytes
            .get(c2_start..c2_end)
            .ok_or_else(|| CryptoError::Malformed("truncated c2".into()))?;
        Ok(HybridCiphertext {
            kem: ElementCiphertext {
                c1: BigUint::from_bytes_be(c1),
                c2: BigUint::from_bytes_be(c2),
            },
            sealed: bytes[c2_end..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::SchnorrGroup;

    fn setup() -> (ElGamalKeyPair, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(21);
        let kp = ElGamalKeyPair::generate(SchnorrGroup::toy(), &mut rng);
        (kp, rng)
    }

    #[test]
    fn element_roundtrip() {
        let (kp, mut rng) = setup();
        let g = kp.public().group().clone();
        for _ in 0..5 {
            let m = g.pow_g(&g.random_scalar(&mut rng));
            let ct = kp.public().encrypt_element(&m, &mut rng);
            assert_eq!(kp.secret().decrypt_element(&ct).unwrap(), m);
        }
    }

    #[test]
    fn element_encryption_is_randomized() {
        let (kp, mut rng) = setup();
        let g = kp.public().group().clone();
        let m = g.pow_g(&g.random_scalar(&mut rng));
        let c1 = kp.public().encrypt_element(&m, &mut rng);
        let c2 = kp.public().encrypt_element(&m, &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn hybrid_roundtrip_various_sizes() {
        let (kp, mut rng) = setup();
        for len in [0usize, 1, 100, 5000] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = kp.public().encrypt(&pt, &mut rng);
            assert_eq!(kp.secret().decrypt(&ct).unwrap(), pt);
        }
    }

    #[test]
    fn wrong_key_fails_authentication() {
        let (kp1, mut rng) = setup();
        let kp2 = ElGamalKeyPair::generate(SchnorrGroup::toy(), &mut rng);
        let ct = kp1.public().encrypt(b"secret", &mut rng);
        assert!(kp2.secret().decrypt(&ct).is_err());
    }

    #[test]
    fn tampered_body_fails() {
        let (kp, mut rng) = setup();
        let mut ct = kp.public().encrypt(b"secret", &mut rng);
        let n = ct.sealed.len();
        ct.sealed[n / 2] ^= 1;
        assert!(kp.secret().decrypt(&ct).is_err());
    }

    #[test]
    fn secret_derives_matching_public() {
        let (kp, _) = setup();
        assert_eq!(kp.secret().public(), *kp.public());
    }

    #[test]
    fn multiplicative_homomorphism() {
        // Textbook ElGamal is multiplicatively homomorphic — the property
        // NOYB-style information substitution can exploit for index swaps.
        let (kp, mut rng) = setup();
        let g = kp.public().group().clone();
        let m1 = g.pow_g(&g.random_scalar(&mut rng));
        let m2 = g.pow_g(&g.random_scalar(&mut rng));
        let c1 = kp.public().encrypt_element(&m1, &mut rng);
        let c2 = kp.public().encrypt_element(&m2, &mut rng);
        let prod = ElementCiphertext {
            c1: g.mul(&c1.c1, &c2.c1),
            c2: g.mul(&c1.c2, &c2.c2),
        };
        assert_eq!(kp.secret().decrypt_element(&prod).unwrap(), g.mul(&m1, &m2));
    }

    #[test]
    fn tampered_element_ciphertext_rejected() {
        // Components outside the order-q subgroup must error, not decrypt
        // to garbage: zero, values ≥ p, and quadratic non-residues (for a
        // safe prime, p-1 = -1 is a non-residue).
        let (kp, mut rng) = setup();
        let g = kp.public().group().clone();
        let m = g.pow_g(&g.random_scalar(&mut rng));
        let good = kp.public().encrypt_element(&m, &mut rng);
        let non_residue = g.modulus() - &BigUint::one();
        for (c1, c2) in [
            (BigUint::zero(), good.c2.clone()),
            (good.c1.clone(), BigUint::zero()),
            (g.modulus().clone(), good.c2.clone()),
            (non_residue.clone(), good.c2.clone()),
            (good.c1.clone(), non_residue),
        ] {
            let bad = ElementCiphertext { c1, c2 };
            assert!(
                kp.secret().decrypt_element(&bad).is_err(),
                "tampered component accepted"
            );
        }
        // The hybrid path surfaces the same rejection.
        let mut hybrid = kp.public().encrypt(b"payload", &mut rng);
        hybrid.kem.c1 = g.modulus() - &BigUint::one();
        assert!(kp.secret().decrypt(&hybrid).is_err());
    }

    #[test]
    fn hybrid_bytes_roundtrip() {
        let (kp, mut rng) = setup();
        let ct = kp.public().encrypt(b"wire format", &mut rng);
        let bytes = ct.to_bytes();
        let parsed = HybridCiphertext::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, ct);
        assert_eq!(kp.secret().decrypt(&parsed).unwrap(), b"wire format");
        assert!(HybridCiphertext::from_bytes(&bytes[..3]).is_err());
        assert!(HybridCiphertext::from_bytes(&[]).is_err());
    }

    #[test]
    fn ciphertext_size_accounting() {
        let (kp, mut rng) = setup();
        let ct = kp.public().encrypt(&[0u8; 100], &mut rng);
        let g = kp.public().group();
        assert_eq!(
            ct.size_bytes(g),
            g.element_len() * 2 + 100 + crate::aead::SymmetricKey::overhead()
        );
    }
}
