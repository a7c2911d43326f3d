//! Key distribution: a PKI-style directory plus an out-of-band exchange log
//! (survey §IV-A).
//!
//! The survey notes that digital signatures solve owner/content integrity
//! only "assuming the public key distribution problem is solved", and lists
//! the deployed answers: out-of-band exchange such as a physical meeting
//! (PeerSoN, Frientegrity) or e-mail transfer (Vis-à-Vis). [`KeyDirectory`]
//! models both: every binding records *how* it was learned, so higher layers
//! (and experiments) can reason about trust provenance.

use crate::error::CryptoError;
use crate::schnorr::VerifyingKey;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How a key binding was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyProvenance {
    /// Exchanged at a physical meeting (strongest, survey §IV-A).
    OutOfBand,
    /// Transferred via e-mail or another side channel.
    SideChannel,
    /// Learned from a directory service (weakest; trusts the directory).
    Directory,
    /// Vouched for by an already-trusted friend (web-of-trust style).
    FriendIntroduction,
}

/// The key material bound to one identity.
#[derive(Clone, Debug)]
pub struct KeyBinding {
    /// Signature verification key.
    pub verifying: VerifyingKey,
    /// How the binding was learned.
    pub provenance: KeyProvenance,
}

/// A thread-safe identity → key directory.
///
/// Cheap to clone (shared interior); the overlay layer hands clones to every
/// simulated node.
///
/// ```
/// use dosn_crypto::{keys::{KeyDirectory, KeyProvenance}, schnorr::SigningKey,
///                   group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(15);
/// let directory = KeyDirectory::new();
/// let alice = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
/// directory.register("alice", alice.verifying_key().clone(), KeyProvenance::OutOfBand);
/// let binding = directory.lookup("alice")?;
/// assert_eq!(binding.provenance, KeyProvenance::OutOfBand);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct KeyDirectory {
    inner: Arc<RwLock<HashMap<String, KeyBinding>>>,
}

impl fmt::Debug for KeyDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyDirectory({} identities)", self.read().len())
    }
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bindings, shared. Every write is one map operation that cannot
    /// leave the map half-changed, so a poisoned lock is recovered.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, KeyBinding>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The bindings, exclusively (see [`KeyDirectory::read`]).
    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, KeyBinding>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or replaces) the binding for `identity`.
    pub fn register(&self, identity: &str, verifying: VerifyingKey, provenance: KeyProvenance) {
        self.write().insert(
            identity.to_owned(),
            KeyBinding {
                verifying,
                provenance,
            },
        );
    }

    /// Looks up the binding for `identity`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownKey`] when the identity is unknown.
    pub fn lookup(&self, identity: &str) -> Result<KeyBinding, CryptoError> {
        self.read()
            .get(identity)
            .cloned()
            .ok_or_else(|| CryptoError::UnknownKey(identity.to_owned()))
    }

    /// The verification key for `identity`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownKey`] when the identity is unknown.
    pub fn verifying_key(&self, identity: &str) -> Result<VerifyingKey, CryptoError> {
        Ok(self.lookup(identity)?.verifying)
    }

    /// Removes a binding; returns whether it existed.
    pub fn remove(&self, identity: &str) -> bool {
        self.write().remove(identity).is_some()
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Identities learned with at least the given provenance strength
    /// (ordering: `Directory < FriendIntroduction < SideChannel < OutOfBand`).
    pub fn identities_with_min_provenance(&self, min: KeyProvenance) -> Vec<String> {
        fn rank(p: KeyProvenance) -> u8 {
            match p {
                KeyProvenance::Directory => 0,
                KeyProvenance::FriendIntroduction => 1,
                KeyProvenance::SideChannel => 2,
                KeyProvenance::OutOfBand => 3,
            }
        }
        let mut out: Vec<String> = self
            .read()
            .iter()
            .filter(|(_, b)| rank(b.provenance) >= rank(min))
            .map(|(id, _)| id.clone())
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::SecureRng;
    use crate::group::SchnorrGroup;
    use crate::schnorr::SigningKey;

    fn setup() -> (KeyDirectory, SecureRng) {
        (KeyDirectory::new(), SecureRng::seed_from_u64(91))
    }

    #[test]
    fn register_and_lookup() {
        let (dir, mut rng) = setup();
        let sk = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        dir.register(
            "alice",
            sk.verifying_key().clone(),
            KeyProvenance::OutOfBand,
        );
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.verifying_key("alice").unwrap(), *sk.verifying_key());
    }

    #[test]
    fn unknown_identity_errors() {
        let (dir, _) = setup();
        assert!(matches!(
            dir.lookup("ghost").unwrap_err(),
            CryptoError::UnknownKey(_)
        ));
    }

    #[test]
    fn remove_and_empty() {
        let (dir, mut rng) = setup();
        assert!(dir.is_empty());
        let sk = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        dir.register("x", sk.verifying_key().clone(), KeyProvenance::Directory);
        assert!(dir.remove("x"));
        assert!(!dir.remove("x"));
        assert!(dir.is_empty());
    }

    #[test]
    fn provenance_filtering() {
        let (dir, mut rng) = setup();
        let g = SchnorrGroup::toy();
        for (name, prov) in [
            ("meet", KeyProvenance::OutOfBand),
            ("mail", KeyProvenance::SideChannel),
            ("dir", KeyProvenance::Directory),
            ("intro", KeyProvenance::FriendIntroduction),
        ] {
            let sk = SigningKey::generate(g.clone(), &mut rng);
            dir.register(name, sk.verifying_key().clone(), prov);
        }
        assert_eq!(
            dir.identities_with_min_provenance(KeyProvenance::SideChannel),
            vec!["mail".to_string(), "meet".to_string()]
        );
        assert_eq!(
            dir.identities_with_min_provenance(KeyProvenance::Directory)
                .len(),
            4
        );
    }

    #[test]
    fn clone_shares_state() {
        let (dir, mut rng) = setup();
        let dir2 = dir.clone();
        let sk = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        dir.register("a", sk.verifying_key().clone(), KeyProvenance::Directory);
        assert_eq!(dir2.len(), 1);
    }
}
