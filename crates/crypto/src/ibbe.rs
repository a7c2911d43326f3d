//! Identity-based broadcast encryption (survey §III-E).
//!
//! IBBE lets a broadcaster encrypt to a *list of identity strings*; each
//! listed identity decrypts with the key it obtained from the PKG. The
//! survey's key point: IBBE "addresses individual recipients instead of the
//! whole group", so *removing a recipient has no extra cost* — subsequent
//! broadcasts simply omit them, with no re-keying of other members (contrast
//! with ABE revocation, §III-D).
//!
//! **Substitution note (see DESIGN.md):** the cited constant-size-ciphertext
//! scheme (Delerablée 2007) requires bilinear pairings. This implementation
//! wraps the from-scratch [Cocks IBE](crate::ibe) as a per-recipient KEM:
//! the DEK seed is IBE-encrypted to every listed identity, giving `O(n)`
//! ciphertext size but *identical join/leave cost semantics*, which is the
//! property the survey's comparison relies on.

use crate::aead::SymmetricKey;
use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::ibe::{CocksCiphertext, CocksPublicParams, IdentityKey};

/// Seed length carried in the per-recipient KEM.
const SEED_LEN: usize = 16;

/// A broadcast ciphertext: one KEM entry per listed identity plus one sealed
/// payload.
#[derive(Clone, Debug)]
pub struct BroadcastCiphertext {
    entries: Vec<(String, CocksCiphertext)>,
    sealed: Vec<u8>,
}

/// Broadcast encryption operations over Cocks public parameters.
///
/// ```
/// use dosn_crypto::{ibe::CocksPkg, ibbe::IbbeBroadcaster, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(10);
/// let pkg = CocksPkg::setup(256, &mut rng);
/// let broadcaster = IbbeBroadcaster::new(pkg.public_params());
///
/// let ct = broadcaster.encrypt(&["alice".into(), "bob".into()], b"group news", &mut rng);
/// let alice = pkg.extract(b"alice");
/// assert_eq!(IbbeBroadcaster::decrypt(&alice, &ct)?, b"group news");
///
/// // Carol is not listed: decryption fails.
/// let carol = pkg.extract(b"carol");
/// assert!(IbbeBroadcaster::decrypt(&carol, &ct).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IbbeBroadcaster {
    params: CocksPublicParams,
}

impl IbbeBroadcaster {
    /// Creates a broadcaster over the PKG's public parameters.
    pub fn new(params: CocksPublicParams) -> Self {
        IbbeBroadcaster { params }
    }

    /// The underlying public parameters.
    pub fn params(&self) -> &CocksPublicParams {
        &self.params
    }

    /// Encrypts `plaintext` so that exactly the listed `recipients` can read
    /// it.
    pub fn encrypt(
        &self,
        recipients: &[String],
        plaintext: &[u8],
        rng: &mut SecureRng,
    ) -> BroadcastCiphertext {
        let mut seed = [0u8; SEED_LEN];
        rand::RngCore::fill_bytes(rng, &mut seed);
        let entries = recipients
            .iter()
            .map(|id| {
                (
                    id.clone(),
                    self.params.encrypt_bytes(id.as_bytes(), &seed, rng),
                )
            })
            .collect();
        let dek = SymmetricKey::derive(&seed, b"dosn.ibbe.dem");
        let sealed = dek.seal(plaintext, b"dosn.ibbe", rng);
        BroadcastCiphertext { entries, sealed }
    }

    /// Decrypts as `key`'s identity.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::NotARecipient`] when the identity is not
    /// listed, or an authentication error for corrupted payloads.
    pub fn decrypt(key: &IdentityKey, ct: &BroadcastCiphertext) -> Result<Vec<u8>, CryptoError> {
        let seed = Self::recover_seed(key, ct)?;
        let dek = SymmetricKey::derive(&seed, b"dosn.ibbe.dem");
        dek.open(&ct.sealed, b"dosn.ibbe")
    }

    fn recover_seed(key: &IdentityKey, ct: &BroadcastCiphertext) -> Result<Vec<u8>, CryptoError> {
        let id = String::from_utf8_lossy(key.identity()).into_owned();
        let entry = ct
            .entries
            .iter()
            .find(|(rid, _)| *rid == id)
            .ok_or(CryptoError::NotARecipient)?;
        key.decrypt_bytes(&entry.1)
    }
}

impl BroadcastCiphertext {
    /// The identities currently able to decrypt.
    pub fn recipients(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(id, _)| id.as_str())
    }

    /// Number of KEM entries.
    pub fn recipient_count(&self) -> usize {
        self.entries.len()
    }

    /// Approximate wire size in bytes.
    pub fn size_bytes(&self, params: &CocksPublicParams) -> usize {
        self.entries.len() * params.ciphertext_size(SEED_LEN) + self.sealed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibe::CocksPkg;
    use std::sync::OnceLock;

    fn pkg() -> &'static CocksPkg {
        static PKG: OnceLock<CocksPkg> = OnceLock::new();
        PKG.get_or_init(|| {
            let mut rng = SecureRng::seed_from_u64(4242);
            CocksPkg::setup(256, &mut rng)
        })
    }

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_listed_recipients_decrypt() {
        let mut rng = SecureRng::seed_from_u64(1);
        let b = IbbeBroadcaster::new(pkg().public_params());
        let ct = b.encrypt(&ids(&["alice", "bob", "carol"]), b"hello all", &mut rng);
        for name in ["alice", "bob", "carol"] {
            let key = pkg().extract(name.as_bytes());
            assert_eq!(IbbeBroadcaster::decrypt(&key, &ct).unwrap(), b"hello all");
        }
    }

    #[test]
    fn unlisted_identity_rejected() {
        let mut rng = SecureRng::seed_from_u64(2);
        let b = IbbeBroadcaster::new(pkg().public_params());
        let ct = b.encrypt(&ids(&["alice"]), b"private", &mut rng);
        let eve = pkg().extract(b"eve");
        assert_eq!(
            IbbeBroadcaster::decrypt(&eve, &ct).unwrap_err(),
            CryptoError::NotARecipient
        );
    }

    #[test]
    fn ciphertext_grows_linearly_with_recipients() {
        let mut rng = SecureRng::seed_from_u64(5);
        let params = pkg().public_params();
        let b = IbbeBroadcaster::new(params.clone());
        let one = b.encrypt(&ids(&["a"]), b"x", &mut rng);
        let three = b.encrypt(&ids(&["a", "b", "c"]), b"x", &mut rng);
        let per = params.ciphertext_size(16);
        assert_eq!(three.size_bytes(&params) - one.size_bytes(&params), 2 * per);
    }

    #[test]
    fn recipients_iterator_lists_ids() {
        let mut rng = SecureRng::seed_from_u64(6);
        let b = IbbeBroadcaster::new(pkg().public_params());
        let ct = b.encrypt(&ids(&["x", "y"]), b"m", &mut rng);
        let got: Vec<&str> = ct.recipients().collect();
        assert_eq!(got, vec!["x", "y"]);
    }
}
