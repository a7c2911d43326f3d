//! User identities and their key material.
//!
//! Every DOSN user owns a signing key pair (data integrity, survey §IV).
//! Its verifying key is registered in a [`KeyDirectory`], standing in for
//! the out-of-band exchange that §IV-A notes signature schemes presuppose.
//! Confidentiality keys (§III) are not part of an identity: each privacy
//! scheme issues and holds its own, per group or per recipient (see
//! `crate::privacy`).

use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::schnorr::SigningKey;
use std::fmt;

/// A user identifier (username-style string).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub String);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for UserId {
    fn from(s: &str) -> Self {
        UserId(s.to_owned())
    }
}

impl From<String> for UserId {
    fn from(s: String) -> Self {
        UserId(s)
    }
}

/// Lets maps keyed by `UserId` be probed with a plain `&str` (the derived
/// `Ord`/`Hash` are the inner string's).
impl std::borrow::Borrow<str> for UserId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl UserId {
    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The identifier as bytes (for hashing onto overlay rings).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

/// A user's complete local key material.
///
/// ```
/// use dosn_core::identity::Identity;
/// use dosn_crypto::{group::SchnorrGroup, chacha::SecureRng, keys::KeyDirectory};
///
/// let mut rng = SecureRng::seed_from_u64(20);
/// let directory = KeyDirectory::new();
/// let alice = Identity::create("alice", SchnorrGroup::toy(), &directory, &mut rng);
/// assert_eq!(alice.id().as_str(), "alice");
/// assert!(directory.verifying_key("alice").is_ok());
/// ```
pub struct Identity {
    id: UserId,
    signing: SigningKey,
}

impl fmt::Debug for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Identity({})", self.id)
    }
}

impl Identity {
    /// Creates a new identity in `group` and registers its verifying key in
    /// `directory` (as if exchanged out of band — the survey's strongest
    /// distribution assumption).
    pub fn create(
        id: impl Into<UserId>,
        group: SchnorrGroup,
        directory: &KeyDirectory,
        rng: &mut SecureRng,
    ) -> Self {
        let id = id.into();
        let signing = SigningKey::generate(group, rng);
        directory.register(id.as_str(), signing.verifying_key().clone());
        Identity { id, signing }
    }

    /// The user id.
    pub fn id(&self) -> &UserId {
        &self.id
    }

    /// The signing key (never leaves the user's device).
    pub fn signing(&self) -> &SigningKey {
        &self.signing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_registers_the_verifying_key() {
        let mut rng = SecureRng::seed_from_u64(1);
        let dir = KeyDirectory::new();
        let alice = Identity::create("alice", SchnorrGroup::toy(), &dir, &mut rng);
        let key = dir.verifying_key("alice").unwrap();
        assert_eq!(key, *alice.signing().verifying_key());
    }

    #[test]
    fn identities_have_distinct_keys() {
        let mut rng = SecureRng::seed_from_u64(3);
        let dir = KeyDirectory::new();
        let a = Identity::create("a", SchnorrGroup::toy(), &dir, &mut rng);
        let b = Identity::create("b", SchnorrGroup::toy(), &dir, &mut rng);
        assert_ne!(a.signing().verifying_key(), b.signing().verifying_key());
    }

    #[test]
    fn user_id_conversions() {
        let id: UserId = "carol".into();
        assert_eq!(id.as_str(), "carol");
        assert_eq!(id.as_bytes(), b"carol");
        assert_eq!(id.to_string(), "carol");
        let id2: UserId = String::from("carol").into();
        assert_eq!(id, id2);
    }
}
