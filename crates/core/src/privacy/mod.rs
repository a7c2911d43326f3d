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
use crate::integrity::envelope::Cursor;
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

/// The wire tag of a [`SealedBody::Symmetric`] body.
const TAG_SYMMETRIC: u8 = 0x01;
/// The wire tag of a [`SealedBody::PerRecipient`] body.
const TAG_PER_RECIPIENT: u8 = 0x02;

/// A scheme's ciphertext. Symmetric and per-recipient bodies have a byte
/// form ([`SealedBody::to_wire`]), so they can live in an overlay that only
/// moves blobs; ABE and IBBE ciphertexts are structured algebra without one
/// in this reproduction.
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

    /// The storage form of the body: `0x01 | ciphertext` for symmetric
    /// blobs, `0x02 | n(4) | n × (id_len(2) | id | wrap_len(4) | wrap) |
    /// payload` for per-recipient envelopes (all integers big-endian).
    /// `scheme` names the producing scheme in the refusal.
    ///
    /// # Errors
    ///
    /// [`DosnError::MalformedEnvelope`] for ABE and IBBE bodies, which have
    /// no wire form, and for a recipient id longer than `u16::MAX` bytes.
    pub(crate) fn to_wire(&self, scheme: &str) -> Result<Vec<u8>, DosnError> {
        match self {
            SealedBody::Symmetric(ct) => {
                let mut out = Vec::with_capacity(1 + ct.len());
                out.push(TAG_SYMMETRIC);
                out.extend_from_slice(ct);
                Ok(out)
            }
            SealedBody::PerRecipient { wrapped, payload } => {
                let mut out = vec![TAG_PER_RECIPIENT];
                out.extend_from_slice(&(wrapped.len() as u32).to_be_bytes());
                for (id, wrap) in wrapped {
                    let id_bytes = id.as_bytes();
                    if id_bytes.len() > u16::MAX as usize {
                        return Err(DosnError::MalformedEnvelope(format!(
                            "recipient id of {} bytes does not fit the wire form",
                            id_bytes.len()
                        )));
                    }
                    out.extend_from_slice(&(id_bytes.len() as u16).to_be_bytes());
                    out.extend_from_slice(id_bytes);
                    out.extend_from_slice(&(wrap.len() as u32).to_be_bytes());
                    out.extend_from_slice(wrap);
                }
                out.extend_from_slice(payload);
                Ok(out)
            }
            SealedBody::Abe(_) | SealedBody::Ibbe { .. } => {
                Err(DosnError::MalformedEnvelope(format!(
                    "{scheme} ciphertexts have no storage wire codec; \
                     use a symmetric or pke scheme for stored walls"
                )))
            }
        }
    }

    /// Inverts [`SealedBody::to_wire`], validating every length against the
    /// remaining input so arbitrary bytes yield an error, never a panic.
    ///
    /// # Errors
    ///
    /// [`DosnError::MalformedEnvelope`].
    pub(crate) fn from_wire(bytes: &[u8]) -> Result<SealedBody, DosnError> {
        let malformed = |what: &str| DosnError::MalformedEnvelope(format!("sealed body: {what}"));
        let (&tag, rest) = bytes.split_first().ok_or_else(|| malformed("empty"))?;
        match tag {
            TAG_SYMMETRIC => Ok(SealedBody::Symmetric(rest.to_vec())),
            TAG_PER_RECIPIENT => {
                let mut c = Cursor(rest);
                let count = c
                    .u32()
                    .ok_or_else(|| malformed("truncated recipient count"))?;
                // Each recipient takes at least 6 bytes or fails, so a
                // hostile count ends where the record does.
                let mut wrapped = Vec::new();
                for _ in 0..count {
                    let id = c
                        .array()
                        .and_then(|len| c.take(u16::from_be_bytes(len) as usize));
                    let id = id.ok_or_else(|| malformed("recipient id exceeds record"))?;
                    let id = String::from_utf8(id.to_vec())
                        .map_err(|_| malformed("recipient id is not utf-8"))?;
                    let wrap = c
                        .field()
                        .ok_or_else(|| malformed("wrapped key exceeds record"))?;
                    wrapped.push((id, wrap.to_vec()));
                }
                Ok(SealedBody::PerRecipient {
                    wrapped,
                    payload: c.0.to_vec(),
                })
            }
            other => Err(malformed(&format!("unknown tag {other:#04x}"))),
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
    /// [`DosnError::UnknownGroup`]; [`DosnError::UnknownUser`] for a name
    /// never in the group; [`DosnError::InvalidArgument`] for a member
    /// already revoked.
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

    #[test]
    fn conformance_bodies_roundtrip_through_the_wire_or_are_refused() {
        for mut scheme in all_schemes() {
            let g = scheme
                .create_group(&["alice".into(), "bob".into()])
                .unwrap();
            let post = scheme.encrypt(&g, b"stored post").unwrap();
            let wire = post.body.to_wire(scheme.name());
            let tag = match scheme.name() {
                "symmetric" => TAG_SYMMETRIC,
                "pke" => TAG_PER_RECIPIENT,
                // ABE and IBBE bodies have no wire form: a typed refusal.
                _ => {
                    assert!(matches!(wire, Err(DosnError::MalformedEnvelope(_))));
                    continue;
                }
            };
            let wire = wire.unwrap();
            assert_eq!(wire[0], tag, "{}", scheme.name());
            let body = SealedBody::from_wire(&wire).unwrap();
            let stored = SealedPost { body, ..post };
            for reader in ["alice", "bob"] {
                assert_eq!(
                    scheme.decrypt_as(&g, reader, &stored).unwrap(),
                    b"stored post"
                );
            }
            assert!(scheme.decrypt_as(&g, "carol", &stored).is_err());
        }
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use proptest::prelude::*;

    fn is_malformed<T>(result: &Result<T, DosnError>) -> bool {
        matches!(result, Err(DosnError::MalformedEnvelope(_)))
    }

    /// A per-recipient body's wire form, and where its recipient list ends.
    fn per_recipient(wrapped: &[(String, Vec<u8>)], payload: &[u8]) -> (Vec<u8>, usize) {
        let body = SealedBody::PerRecipient {
            wrapped: wrapped.to_vec(),
            payload: payload.to_vec(),
        };
        let wire = body.to_wire("pke").unwrap();
        let list_end = wire.len() - payload.len();
        (wire, list_end)
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        for bad in [
            &b""[..],
            &[0xFF, 1, 2, 3][..],
            &[TAG_PER_RECIPIENT][..],
            &[TAG_PER_RECIPIENT, 0, 0, 0, 9][..], // 9 recipients, no data
            &[TAG_PER_RECIPIENT, 0, 0, 0, 1, 0, 200][..], // id overruns
            // A hostile count claiming u32::MAX recipients must fail on the
            // first truncated record, not loop or allocate.
            &[TAG_PER_RECIPIENT, 0xFF, 0xFF, 0xFF, 0xFF][..],
            // Truncation exactly at the wrap-length field.
            &[TAG_PER_RECIPIENT, 0, 0, 0, 1, 0, 1, b'a', 0, 0][..],
            // Wrap length overruns the record.
            &[TAG_PER_RECIPIENT, 0, 0, 0, 1, 0, 1, b'a', 0, 0, 0, 9][..],
        ] {
            assert!(is_malformed(&SealedBody::from_wire(bad)));
        }
    }

    #[test]
    fn encoder_refuses_a_recipient_id_over_u16_max_bytes() {
        let id = |len: usize| vec![("a".repeat(len), vec![7])];
        let (wire, _) = per_recipient(&id(u16::MAX as usize), &[]);
        assert!(SealedBody::from_wire(&wire).is_ok());
        let body = SealedBody::PerRecipient {
            wrapped: id(u16::MAX as usize + 1),
            payload: vec![],
        };
        assert!(is_malformed(&body.to_wire("pke")));
    }

    /// Ids of arbitrary scalar values, one- to four-byte UTF-8 alike (and
    /// empty); a surrogate draws the replacement character.
    fn id() -> impl Strategy<Value = String> {
        let scalar = prop_oneof![0u32..0x80, 0x80u32..0x800, 0x800u32..0x11_0000];
        proptest::collection::vec(scalar, 0..6).prop_map(|scalars| {
            scalars
                .into_iter()
                .map(|s| char::from_u32(s).unwrap_or(char::REPLACEMENT_CHARACTER))
                .collect()
        })
    }

    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..max)
    }

    fn recipients() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
        proptest::collection::vec((id(), bytes(40)), 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn symmetric_and_per_recipient_bodies_roundtrip(
            ct in bytes(64),
            wrapped in recipients(),
            payload in bytes(64),
        ) {
            let wire = SealedBody::Symmetric(ct.clone()).to_wire("symmetric").unwrap();
            let back = SealedBody::from_wire(&wire);
            prop_assert!(matches!(&back, Ok(SealedBody::Symmetric(b)) if *b == ct), "{back:?}");
            let (wire, _) = per_recipient(&wrapped, &payload);
            let back = SealedBody::from_wire(&wire);
            prop_assert!(
                matches!(&back, Ok(SealedBody::PerRecipient { wrapped: w, payload: p })
                    if *w == wrapped && *p == payload),
                "{back:?}"
            );
        }

        #[test]
        fn a_cut_inside_the_recipient_list_or_a_u32_max_count_is_malformed(
            wrapped in recipients(),
            payload in bytes(16),
        ) {
            let (mut wire, list_end) = per_recipient(&wrapped, &payload);
            for cut in 0..list_end {
                prop_assert!(is_malformed(&SealedBody::from_wire(&wire[..cut])), "cut {cut}");
            }
            // From the end of the list on, a cut only shortens the payload.
            for cut in list_end..=wire.len() {
                let back = SealedBody::from_wire(&wire[..cut]);
                prop_assert!(
                    matches!(&back, Ok(SealedBody::PerRecipient { wrapped: w, .. }) if *w == wrapped),
                    "cut {cut}: {back:?}"
                );
            }
            // A count of u32::MAX ends where the record does: each claimed
            // recipient takes at least 6 bytes or fails.
            wire[1..5].copy_from_slice(&u32::MAX.to_be_bytes());
            prop_assert!(is_malformed(&SealedBody::from_wire(&wire)));
        }

        #[test]
        fn a_recipient_id_that_is_not_utf8_is_rejected(
            (head, tail) in (id(), id()),
            wrap in bytes(8),
        ) {
            // 0xFF starts no UTF-8 sequence, wherever it sits.
            let (mut wire, _) = per_recipient(&[(format!("{head}X{tail}"), wrap)], &[]);
            wire[7 + head.len()] = 0xFF;
            let back = SealedBody::from_wire(&wire);
            prop_assert!(
                matches!(&back, Err(DosnError::MalformedEnvelope(m)) if m.contains("utf-8")),
                "{back:?}"
            );
        }
    }
}
