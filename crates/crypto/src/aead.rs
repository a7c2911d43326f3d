//! Authenticated symmetric encryption: ChaCha20 + HMAC-SHA256
//! (encrypt-then-MAC).
//!
//! This is the "symmetric key encryption" building block of the survey's
//! §III-B. As the paper notes, symmetric encryption alone provides no
//! integrity; this construction therefore always carries a MAC, and the
//! higher integrity layers (§IV) add signatures on top.

use crate::chacha::{chacha20_xor, SecureRng, NONCE_LEN};
use crate::error::CryptoError;
use crate::hmac::{hkdf, verify_tag, HmacSha256};

const TAG_LEN: usize = 32;

/// A 256-bit symmetric key with authenticated encryption operations.
///
/// ```
/// use dosn_crypto::aead::SymmetricKey;
/// use dosn_crypto::chacha::SecureRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(1);
/// let key = SymmetricKey::generate(&mut rng);
/// let ct = key.seal(b"my plans", b"post:42", &mut rng);
/// assert_eq!(key.open(&ct, b"post:42")?, b"my plans");
/// assert!(key.open(&ct, b"post:43").is_err()); // wrong associated data
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SymmetricKey {
    enc_key: [u8; 32],
    mac_key: [u8; 32],
}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("SymmetricKey(..)")
    }
}

impl SymmetricKey {
    /// Derives independent encryption and MAC subkeys from 32 bytes of key
    /// material.
    pub fn from_bytes(material: &[u8; 32]) -> Self {
        let okm = hkdf(b"dosn.aead.v1", material, b"enc|mac", 64);
        let mut enc_key = [0u8; 32];
        let mut mac_key = [0u8; 32];
        enc_key.copy_from_slice(&okm[..32]);
        mac_key.copy_from_slice(&okm[32..]);
        SymmetricKey { enc_key, mac_key }
    }

    /// Derives a key from arbitrary-length key material (e.g. an OPRF output
    /// or a blind-signature-derived secret, per Hummingbird §III-F / §V-A).
    pub fn derive(material: &[u8], context: &[u8]) -> Self {
        let okm = hkdf(b"dosn.aead.derive.v1", material, context, 32);
        let mut m = [0u8; 32];
        m.copy_from_slice(&okm);
        Self::from_bytes(&m)
    }

    /// Generates a random key.
    pub fn generate(rng: &mut SecureRng) -> Self {
        Self::from_bytes(&rng.gen_key())
    }

    /// Encrypts and authenticates `plaintext`, binding `associated_data`
    /// (which is authenticated but not encrypted).
    pub fn seal(&self, plaintext: &[u8], associated_data: &[u8], rng: &mut SecureRng) -> Vec<u8> {
        let nonce = rng.gen_nonce();
        let mut body = plaintext.to_vec();
        chacha20_xor(&self.enc_key, &nonce, 1, &mut body);
        let mut out = Vec::with_capacity(NONCE_LEN + body.len() + TAG_LEN);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(&body);
        let tag = self.tag(&out, associated_data);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts a ciphertext produced by [`SymmetricKey::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] if the ciphertext is too short and
    /// [`CryptoError::AuthenticationFailed`] if the tag does not verify
    /// (wrong key, wrong associated data, or tampering).
    pub fn open(&self, ciphertext: &[u8], associated_data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < NONCE_LEN + TAG_LEN {
            return Err(CryptoError::Malformed("ciphertext too short".into()));
        }
        let (head, tag) = ciphertext.split_at(ciphertext.len() - TAG_LEN);
        let expect = self.tag(head, associated_data);
        if !verify_tag(&expect, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let (nonce_bytes, body) = head.split_at(NONCE_LEN);
        let nonce: [u8; NONCE_LEN] = nonce_bytes.try_into().expect("split length");
        let mut plain = body.to_vec();
        chacha20_xor(&self.enc_key, &nonce, 1, &mut plain);
        Ok(plain)
    }

    /// Ciphertext expansion in bytes (nonce + tag).
    pub const fn overhead() -> usize {
        NONCE_LEN + TAG_LEN
    }

    fn tag(&self, head: &[u8], associated_data: &[u8]) -> [u8; TAG_LEN] {
        // MAC over len(ad) || ad || head for unambiguous framing.
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&(associated_data.len() as u64).to_be_bytes());
        mac.update(associated_data);
        mac.update(head);
        mac.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SecureRng {
        SecureRng::seed_from_u64(11)
    }

    #[test]
    fn roundtrip_various_sizes() {
        let mut r = rng();
        let key = SymmetricKey::generate(&mut r);
        for len in [0usize, 1, 64, 1000, 65536] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let ct = key.seal(&pt, b"ad", &mut r);
            assert_eq!(ct.len(), len + SymmetricKey::overhead());
            assert_eq!(key.open(&ct, b"ad").unwrap(), pt);
        }
    }

    #[test]
    fn wrong_key_fails() {
        let mut r = rng();
        let k1 = SymmetricKey::generate(&mut r);
        let k2 = SymmetricKey::generate(&mut r);
        let ct = k1.seal(b"secret", b"", &mut r);
        assert_eq!(
            k2.open(&ct, b"").unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn tampering_detected_at_every_byte() {
        let mut r = rng();
        let key = SymmetricKey::generate(&mut r);
        let ct = key.seal(b"integrity matters", b"ctx", &mut r);
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 0x01;
            assert!(key.open(&bad, b"ctx").is_err(), "flip at {i} undetected");
        }
    }

    #[test]
    fn associated_data_is_bound() {
        let mut r = rng();
        let key = SymmetricKey::generate(&mut r);
        let ct = key.seal(b"msg", b"owner=alice", &mut r);
        assert!(key.open(&ct, b"owner=alice").is_ok());
        assert!(key.open(&ct, b"owner=eve").is_err());
    }

    #[test]
    fn ad_framing_is_unambiguous() {
        // (ad="ab", head starts "c...") must not collide with (ad="abc", ...).
        let mut r = rng();
        let key = SymmetricKey::generate(&mut r);
        let ct = key.seal(b"payload", b"ab", &mut r);
        assert!(key.open(&ct, b"abc").is_err());
    }

    #[test]
    fn truncated_ciphertext_is_malformed() {
        let mut r = rng();
        let key = SymmetricKey::generate(&mut r);
        let err = key.open(&[0u8; 10], b"").unwrap_err();
        assert!(matches!(err, CryptoError::Malformed(_)));
    }

    #[test]
    fn nonces_differ_between_seals() {
        let mut r = rng();
        let key = SymmetricKey::generate(&mut r);
        let c1 = key.seal(b"same message", b"", &mut r);
        let c2 = key.seal(b"same message", b"", &mut r);
        assert_ne!(c1, c2, "sealing must be randomized");
    }

    #[test]
    fn derive_is_deterministic_and_context_separated() {
        let a = SymmetricKey::derive(b"shared material", b"ctx1");
        let b = SymmetricKey::derive(b"shared material", b"ctx1");
        let c = SymmetricKey::derive(b"shared material", b"ctx2");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn debug_never_leaks_key() {
        let key = SymmetricKey::from_bytes(&[42u8; 32]);
        assert_eq!(format!("{key:?}"), "SymmetricKey(..)");
    }
}
