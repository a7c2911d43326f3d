//! Data privacy and access-control management (survey §III).
//!
//! "Data privacy protection is defined as the way users can fully control
//! their data and manage its accessibility." The survey classifies six
//! solution families; each has a module here:
//!
//! | §III | Scheme | Module / type |
//! |---|---|---|
//! | A | Information substitution (NOYB, VPSN) | [`substitution`] |
//! | B | Symmetric key encryption | [`SymmetricGroupScheme`] |
//! | C | Public key encryption (Flybynight, PeerSoN) | [`PkeGroupScheme`] |
//! | D | Attribute-based encryption (Persona, Cachet) | [`AbeGroupScheme`] |
//! | E | Identity-based broadcast encryption | [`IbbeGroupScheme`] |
//! | F | Hybrid encryption (Hummingbird OPRF keys) | [`hummingbird`] |
//!
//! The four group-oriented schemes implement the object-safe
//! [`AccessScheme`] trait, so experiments E1/E2 can sweep them uniformly:
//! create a group, encrypt posts, join/revoke members, and compare the cost
//! profiles the survey describes qualitatively (symmetric revocation pays
//! re-keying + history re-encryption; IBBE removal is free; ABE re-keying is
//! expensive; PKE ciphertexts grow linearly with the audience).

pub mod abe_scheme;
pub mod hummingbird;
pub mod ibbe_scheme;
pub mod pke;
pub mod resharing;
mod roster;
pub mod substitution;
pub mod symmetric;

pub use abe_scheme::AbeGroupScheme;
pub use hummingbird::{HummingbirdPublisher, HummingbirdSubscriber};
pub use ibbe_scheme::IbbeGroupScheme;
pub use pke::PkeGroupScheme;
pub use resharing::ResharingTracer;
pub use substitution::{SubstitutionDictionary, SubstitutionVault};
pub use symmetric::SymmetricGroupScheme;

use crate::error::DosnError;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a group within one scheme instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub String);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for GroupId {
    fn from(s: &str) -> Self {
        GroupId(s.to_owned())
    }
}

/// Looks `group` up in a scheme's group table, or [`DosnError::UnknownGroup`].
fn find<'a, T>(groups: &'a BTreeMap<GroupId, T>, group: &GroupId) -> Result<&'a T, DosnError> {
    groups
        .get(group)
        .ok_or_else(|| DosnError::UnknownGroup(group.to_string()))
}

/// [`find`], mutably.
fn find_mut<'a, T>(
    groups: &'a mut BTreeMap<GroupId, T>,
    group: &GroupId,
) -> Result<&'a mut T, DosnError> {
    groups
        .get_mut(group)
        .ok_or_else(|| DosnError::UnknownGroup(group.to_string()))
}

/// The refusal every scheme gives a sealed body another scheme produced.
fn foreign_body() -> DosnError {
    DosnError::IntegrityViolation("ciphertext from another scheme".into())
}

/// An encrypted post, tagged with the scheme that produced it.
#[derive(Debug, Clone)]
pub struct SealedPost {
    /// Name of the producing scheme (for experiment reporting).
    pub scheme: &'static str,
    /// Group the post was encrypted for.
    pub group: GroupId,
    /// Epoch (key generation) at encryption time.
    pub epoch: u64,
    pub(crate) body: SealedBody,
}

impl SealedPost {
    /// Total ciphertext size in bytes (key material + payload).
    pub fn size_bytes(&self) -> usize {
        self.body.size_bytes()
    }
}

#[derive(Debug, Clone)]
pub(crate) enum SealedBody {
    /// One symmetric blob.
    Symmetric(Vec<u8>),
    /// Per-recipient wrapped DEK + shared payload.
    PerRecipient {
        wrapped: Vec<(String, Vec<u8>)>,
        payload: Vec<u8>,
    },
    /// ABE ciphertext.
    Abe(dosn_crypto::abe::AbeCiphertext),
    /// IBBE broadcast ciphertext.
    Ibbe {
        ct: dosn_crypto::ibbe::BroadcastCiphertext,
        element_len: usize,
    },
}

impl SealedBody {
    fn size_bytes(&self) -> usize {
        match self {
            SealedBody::Symmetric(b) => b.len(),
            SealedBody::PerRecipient { wrapped, payload } => {
                wrapped
                    .iter()
                    .map(|(id, w)| id.len() + w.len())
                    .sum::<usize>()
                    + payload.len()
            }
            SealedBody::Abe(ct) => ct.size_bytes(),
            SealedBody::Ibbe { ct, element_len } => {
                // 16-byte seed, 2 elements per bit.
                ct.recipient_count() * 16 * 8 * 2 * element_len + 64
            }
        }
    }
}

/// Cost report for a membership change (experiment E2's unit of measure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipCost {
    /// Key-distribution messages that must be sent.
    pub key_messages: u64,
    /// Members who need fresh key material.
    pub rekeyed_members: u64,
    /// Stored posts that must be re-encrypted to lock the change in for
    /// history (0 when the scheme's forward behavior suffices).
    pub posts_to_reencrypt: u64,
}

/// A group-oriented access-control scheme (survey §III-B/C/D/E).
///
/// Object-safe: experiment harnesses iterate `Vec<Box<dyn AccessScheme>>`.
/// `Send + Sync` are supertraits so that an engine, which owns every
/// user's `Box<dyn AccessScheme>`, stays `Send` and can be handed to
/// another thread whole, and so that a scheme can be shared by reference
/// (decryption takes `&self`); every scheme in this crate is plain owned
/// data with no interior mutability.
pub trait AccessScheme: Send + Sync {
    /// Short scheme name for reports ("symmetric", "pke", "cp-abe", "ibbe").
    fn name(&self) -> &'static str;

    /// Creates a group containing `members`.
    ///
    /// # Errors
    ///
    /// Scheme-specific; e.g. key-directory misses.
    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError>;

    /// Encrypts `plaintext` for the group's *current* membership.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownGroup`] and scheme-specific failures.
    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError>;

    /// Decrypts `post` as `member`, enforcing the membership that held at
    /// the post's epoch.
    ///
    /// # Errors
    ///
    /// [`DosnError::NotAuthorized`] for non-members (or members revoked
    /// before the post's epoch), plus scheme-specific failures.
    fn decrypt_as(
        &self,
        group: &GroupId,
        member: &str,
        post: &SealedPost,
    ) -> Result<Vec<u8>, DosnError>;

    /// Adds `member`; returns what the addition cost.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownGroup`].
    fn add_member(&mut self, group: &GroupId, member: &str) -> Result<MembershipCost, DosnError>;

    /// Revokes `member`; returns what the revocation cost. Posts encrypted
    /// at earlier epochs remain readable by the revoked member ("if someone
    /// already decrypted the data and kept a copy, we cannot revoke that" —
    /// §III-B); `posts_to_reencrypt` counts the history that must be
    /// re-encrypted to lock them out of stored copies.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownGroup`] / [`DosnError::UnknownUser`].
    fn revoke_member(&mut self, group: &GroupId, member: &str)
        -> Result<MembershipCost, DosnError>;

    /// Current members of `group`.
    fn members(&self, group: &GroupId) -> Vec<String>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use dosn_crypto::chacha::SecureRng;

    /// Builds one instance of every AccessScheme implementation for the
    /// cross-scheme conformance tests below.
    fn all_schemes() -> Vec<Box<dyn AccessScheme>> {
        let mut rng = SecureRng::seed_from_u64(505);
        vec![
            Box::new(SymmetricGroupScheme::new([1u8; 32])),
            Box::new(PkeGroupScheme::with_fresh_identities(
                &["alice", "bob", "carol", "dave"],
                &mut rng,
            )),
            Box::new(AbeGroupScheme::new([2u8; 32])),
            Box::new(IbbeGroupScheme::with_test_pkg()),
        ]
    }

    #[test]
    fn conformance_members_can_decrypt() {
        for mut scheme in all_schemes() {
            let g = scheme
                .create_group(&["alice".into(), "bob".into()])
                .unwrap();
            let post = scheme.encrypt(&g, b"hello group").unwrap();
            for m in ["alice", "bob"] {
                assert_eq!(
                    scheme.decrypt_as(&g, m, &post).unwrap(),
                    b"hello group",
                    "{} / {}",
                    scheme.name(),
                    m
                );
            }
            assert!(
                scheme.decrypt_as(&g, "carol", &post).is_err(),
                "{}: outsider must fail",
                scheme.name()
            );
        }
    }

    #[test]
    fn conformance_revocation_blocks_future_posts() {
        for mut scheme in all_schemes() {
            let g = scheme
                .create_group(&["alice".into(), "bob".into()])
                .unwrap();
            let old = scheme.encrypt(&g, b"old").unwrap();
            scheme.revoke_member(&g, "bob").unwrap();
            let new = scheme.encrypt(&g, b"new").unwrap();
            assert!(
                scheme.decrypt_as(&g, "bob", &new).is_err(),
                "{}: revoked member must not read new posts",
                scheme.name()
            );
            assert_eq!(
                scheme.decrypt_as(&g, "alice", &new).unwrap(),
                b"new",
                "{}: remaining member unaffected",
                scheme.name()
            );
            // Old posts remain readable by the revoked member (the survey's
            // fundamental limitation).
            assert_eq!(
                scheme.decrypt_as(&g, "bob", &old).unwrap(),
                b"old",
                "{}: old posts stay readable",
                scheme.name()
            );
        }
    }

    #[test]
    fn conformance_addition_grants_future_posts() {
        for mut scheme in all_schemes() {
            let g = scheme.create_group(&["alice".into()]).unwrap();
            scheme.add_member(&g, "dave").unwrap();
            let post = scheme.encrypt(&g, b"for dave too").unwrap();
            assert_eq!(
                scheme.decrypt_as(&g, "dave", &post).unwrap(),
                b"for dave too",
                "{}",
                scheme.name()
            );
            let members = scheme.members(&g);
            assert!(members.contains(&"dave".to_string()));
        }
    }

    #[test]
    fn conformance_unknown_group_errors() {
        for mut scheme in all_schemes() {
            let ghost = GroupId::from("ghost");
            assert!(scheme.encrypt(&ghost, b"x").is_err(), "{}", scheme.name());
            assert!(scheme.add_member(&ghost, "x").is_err(), "{}", scheme.name());
            assert!(
                scheme.revoke_member(&ghost, "x").is_err(),
                "{}",
                scheme.name()
            );
        }
    }

    use super::abe_scheme::AbeGroupScheme;
    use super::pke::PkeGroupScheme;
    use super::symmetric::SymmetricGroupScheme;
    use crate::privacy::ibbe_scheme::IbbeGroupScheme;
}
