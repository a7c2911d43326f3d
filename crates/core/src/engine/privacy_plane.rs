//! The privacy plane: any [`AccessScheme`] behind one sealing interface.
//!
//! The survey's §III families (symmetric groups, per-recipient PKE, ABE,
//! IBBE) share the object-safe [`AccessScheme`] trait; [`PrivacyPlane`]
//! wraps one as a trait object and adds the piece the storage layer needs:
//! a byte-oriented wire form of the sealed body, so ciphertexts can live in
//! an overlay that only moves blobs. Symmetric and per-recipient bodies
//! have a codec (tags `0x01`/`0x02`); ABE and IBBE ciphertexts are
//! structured algebra without a byte serialization in this reproduction,
//! so sealing them for storage reports a typed
//! [`DosnError::MalformedEnvelope`] instead of panicking.

use crate::error::DosnError;
use crate::integrity::envelope::Cursor;
use crate::privacy::{
    AccessScheme, GroupId, MembershipCost, SealedBody, SealedPost, SymmetricGroupScheme,
};

const TAG_SYMMETRIC: u8 = 0x01;
const TAG_PER_RECIPIENT: u8 = 0x02;

/// An [`AccessScheme`] trait object plus the sealed-body wire codec: the
/// engine's pluggable access-control layer.
pub struct PrivacyPlane {
    scheme: Box<dyn AccessScheme>,
}

impl std::fmt::Debug for PrivacyPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrivacyPlane({})", self.scheme.name())
    }
}

impl PrivacyPlane {
    /// Wraps any access scheme.
    pub fn new(scheme: Box<dyn AccessScheme>) -> Self {
        PrivacyPlane { scheme }
    }

    /// The engine's default: a symmetric friends-group scheme (§III-B).
    pub fn symmetric(master: [u8; 32]) -> Self {
        PrivacyPlane::new(Box::new(SymmetricGroupScheme::new(master)))
    }

    /// The wrapped scheme's report name.
    pub fn name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Creates a group containing `members`.
    ///
    /// # Errors
    ///
    /// Scheme-specific (see [`AccessScheme::create_group`]).
    pub fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        self.scheme.create_group(members)
    }

    /// Adds a member (see [`AccessScheme::add_member`]).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownGroup`] and scheme-specific failures.
    pub fn add_member(
        &mut self,
        group: &GroupId,
        member: &str,
    ) -> Result<MembershipCost, DosnError> {
        self.scheme.add_member(group, member)
    }

    /// Revokes a member (see [`AccessScheme::revoke_member`]).
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownGroup`] / [`DosnError::UnknownUser`].
    pub fn revoke_member(
        &mut self,
        group: &GroupId,
        member: &str,
    ) -> Result<MembershipCost, DosnError> {
        self.scheme.revoke_member(group, member)
    }

    /// Current members of `group`.
    pub fn members(&self, group: &GroupId) -> Vec<String> {
        self.scheme.members(group)
    }

    /// Whether `user` is currently a member of `group`.
    pub fn is_member(&self, group: &GroupId, user: &str) -> bool {
        self.scheme.members(group).iter().any(|m| m == user)
    }

    /// Encrypts `plaintext` for the group and serializes the sealed body
    /// for storage, returning `(wire bytes, epoch)`.
    ///
    /// # Errors
    ///
    /// Scheme encryption failures, and [`DosnError::MalformedEnvelope`]
    /// when the scheme's ciphertexts have no wire codec (ABE, IBBE).
    pub fn seal(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<(Vec<u8>, u64), DosnError> {
        let sealed = self.scheme.encrypt(group, plaintext)?;
        let wire = encode_sealed_body(self.scheme.name(), &sealed.body)?;
        Ok((wire, sealed.epoch))
    }

    /// Decodes a stored sealed body and decrypts it as `member`, enforcing
    /// the membership that held at `epoch`.
    ///
    /// # Errors
    ///
    /// [`DosnError::MalformedEnvelope`] for undecodable bytes,
    /// [`DosnError::NotAuthorized`] for non-members, plus scheme failures.
    pub fn unseal(
        &self,
        group: &GroupId,
        member: &str,
        epoch: u64,
        wire: &[u8],
    ) -> Result<Vec<u8>, DosnError> {
        let body = decode_sealed_body(wire)?;
        let post = SealedPost {
            scheme: self.scheme.name(),
            group: group.clone(),
            epoch,
            body,
        };
        self.scheme.decrypt_as(group, member, &post)
    }
}

/// Serializes a sealed body: `0x01 | ciphertext` for symmetric blobs,
/// `0x02 | n(4) | n × (id_len(2) | id | wrap_len(4) | wrap) | payload` for
/// per-recipient envelopes (all integers big-endian).
///
/// # Errors
///
/// [`DosnError::MalformedEnvelope`] for bodies with no wire form.
pub(crate) fn encode_sealed_body(
    scheme: &'static str,
    body: &SealedBody,
) -> Result<Vec<u8>, DosnError> {
    match body {
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
        SealedBody::Abe(_) | SealedBody::Ibbe { .. } => Err(DosnError::MalformedEnvelope(format!(
            "{scheme} ciphertexts have no storage wire codec; \
             use a symmetric or pke privacy plane for stored walls"
        ))),
    }
}

/// Inverts [`encode_sealed_body`], validating every length against the
/// remaining input so arbitrary bytes yield an error, never a panic.
///
/// # Errors
///
/// [`DosnError::MalformedEnvelope`].
pub(crate) fn decode_sealed_body(bytes: &[u8]) -> Result<SealedBody, DosnError> {
    let malformed = |what: &str| DosnError::MalformedEnvelope(format!("sealed body: {what}"));
    let (&tag, rest) = bytes.split_first().ok_or_else(|| malformed("empty"))?;
    match tag {
        TAG_SYMMETRIC => Ok(SealedBody::Symmetric(rest.to_vec())),
        TAG_PER_RECIPIENT => {
            let mut c = Cursor(rest);
            let count = c
                .u32()
                .ok_or_else(|| malformed("truncated recipient count"))?;
            // Each recipient takes at least 6 bytes or fails, so a hostile
            // count ends where the record does.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::{AbeGroupScheme, PkeGroupScheme};
    use dosn_crypto::chacha::SecureRng;

    #[test]
    fn symmetric_seal_unseal_roundtrip() {
        let mut plane = PrivacyPlane::symmetric([3u8; 32]);
        let g = plane.create_group(&["alice".into(), "bob".into()]).unwrap();
        let (wire, epoch) = plane.seal(&g, b"hello wire").unwrap();
        assert_eq!(wire[0], TAG_SYMMETRIC);
        assert_eq!(
            plane.unseal(&g, "bob", epoch, &wire).unwrap(),
            b"hello wire"
        );
        assert!(plane.unseal(&g, "carol", epoch, &wire).is_err());
    }

    #[test]
    fn pke_trait_object_roundtrips_through_wire() {
        let mut rng = SecureRng::seed_from_u64(909);
        let mut plane = PrivacyPlane::new(Box::new(PkeGroupScheme::with_fresh_identities(
            &["alice", "bob"],
            &mut rng,
        )));
        let g = plane.create_group(&["alice".into(), "bob".into()]).unwrap();
        let (wire, epoch) = plane.seal(&g, b"per-recipient post").unwrap();
        assert_eq!(wire[0], TAG_PER_RECIPIENT);
        for reader in ["alice", "bob"] {
            assert_eq!(
                plane.unseal(&g, reader, epoch, &wire).unwrap(),
                b"per-recipient post"
            );
        }
    }

    #[test]
    fn abe_seal_reports_typed_error() {
        let mut plane = PrivacyPlane::new(Box::new(AbeGroupScheme::new([4u8; 32])));
        let g = plane.create_group(&["alice".into()]).unwrap();
        assert!(matches!(
            plane.seal(&g, b"x"),
            Err(DosnError::MalformedEnvelope(_))
        ));
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
            assert!(matches!(
                decode_sealed_body(bad),
                Err(DosnError::MalformedEnvelope(_))
            ));
        }
    }

    #[test]
    fn membership_queries_delegate() {
        let mut plane = PrivacyPlane::symmetric([5u8; 32]);
        let g = plane.create_group(&["alice".into()]).unwrap();
        plane.add_member(&g, "bob").unwrap();
        assert!(plane.is_member(&g, "bob"));
        plane.revoke_member(&g, "bob").unwrap();
        assert!(!plane.is_member(&g, "bob"));
        assert_eq!(plane.name(), "symmetric");
    }
}
