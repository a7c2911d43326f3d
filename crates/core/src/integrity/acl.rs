//! PAD-backed access-control lists (survey §III-F, Frientegrity).
//!
//! "ACLs are PADs, making it possible to access in logarithmic time" — and,
//! because the PAD is *authenticated*, an untrusted storage node serving
//! the ACL cannot forge memberships or hide revocations: every answer
//! carries a proof against the owner-signed root. [`OwnerAcl`] is the
//! owner-side list; [`AclReplica`] is the view an untrusted node serves;
//! [`check_access`] is what a verifier (another storage node, a fetching
//! client) runs.

use crate::error::DosnError;
use crate::identity::UserId;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::pad::{AuthenticatedDictionary, LookupProof, SignedRoot};
use dosn_crypto::schnorr::{SigningKey, VerifyingKey};

/// Access levels an owner can grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessLevel {
    /// May fetch and decrypt content.
    Reader,
    /// May additionally attach comments.
    Commenter,
    /// May additionally post to the wall.
    Writer,
}

impl AccessLevel {
    fn encode(self) -> &'static [u8] {
        match self {
            AccessLevel::Reader => b"reader",
            AccessLevel::Commenter => b"commenter",
            AccessLevel::Writer => b"writer",
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        match bytes {
            b"reader" => Some(AccessLevel::Reader),
            b"commenter" => Some(AccessLevel::Commenter),
            b"writer" => Some(AccessLevel::Writer),
            _ => None,
        }
    }
}

/// The owner-side ACL: mutations produce fresh signed roots.
///
/// ```
/// use dosn_core::integrity::acl::{AccessLevel, OwnerAcl, check_access};
/// use dosn_crypto::{schnorr::SigningKey, group::SchnorrGroup, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(130);
/// let owner_key = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
/// let mut acl = OwnerAcl::new(owner_key.clone(), [], &mut rng);
/// acl.grant(&"bob".into(), AccessLevel::Commenter, &mut rng);
///
/// // An untrusted node serves a proof; anyone verifies it offline.
/// let (proof, root) = acl.replica().prove(&"bob".into());
/// let level = check_access(owner_key.verifying_key(), &root, &"bob".into(), &proof)?;
/// assert_eq!(level, Some(AccessLevel::Commenter));
/// # Ok(())
/// # }
/// ```
pub struct OwnerAcl {
    dict: AuthenticatedDictionary,
}

impl std::fmt::Debug for OwnerAcl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OwnerAcl({:?})", self.dict)
    }
}

impl OwnerAcl {
    /// Creates an ACL listing `members` and signs its first root (one
    /// signature however many members), so proofs work immediately.
    pub fn new(
        owner: SigningKey,
        members: impl IntoIterator<Item = (UserId, AccessLevel)>,
        rng: &mut SecureRng,
    ) -> Self {
        let entries = members
            .into_iter()
            .map(|(user, level)| (user.as_bytes().to_vec(), level.encode().to_vec()));
        OwnerAcl {
            dict: AuthenticatedDictionary::new(owner, entries, rng),
        }
    }

    /// Grants (or updates) `user`'s access level.
    pub fn grant(&mut self, user: &UserId, level: AccessLevel, rng: &mut SecureRng) -> SignedRoot {
        self.dict.insert(user.as_bytes(), level.encode(), rng)
    }

    /// Revokes `user` entirely.
    pub fn revoke(&mut self, user: &UserId, rng: &mut SecureRng) -> SignedRoot {
        self.dict.remove(user.as_bytes(), rng)
    }

    /// Number of listed principals.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Whether the ACL is empty.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// The replica view an untrusted storage node would serve from.
    pub fn replica(&self) -> AclReplica<'_> {
        AclReplica { dict: &self.dict }
    }
}

/// The untrusted node's serving interface (read-only).
#[derive(Debug, Clone, Copy)]
pub struct AclReplica<'a> {
    dict: &'a AuthenticatedDictionary,
}

impl AclReplica<'_> {
    /// Produces a (proof, signed root) pair for `user`.
    pub fn prove(&self, user: &UserId) -> (LookupProof, SignedRoot) {
        self.dict.prove(user.as_bytes())
    }
}

/// Verifier-side check: validates the proof and decodes the level.
/// `Ok(None)` means a *proven absence* — the user is verifiably not listed.
///
/// # Errors
///
/// * [`DosnError::Crypto`] — forged proof or root;
/// * [`DosnError::IntegrityViolation`] — a proven entry carries an
///   unknown access level (storage corruption).
pub fn check_access(
    owner: &VerifyingKey,
    root: &SignedRoot,
    user: &UserId,
    proof: &LookupProof,
) -> Result<Option<AccessLevel>, DosnError> {
    AuthenticatedDictionary::verify(owner, root, user.as_bytes(), proof)?;
    match proof {
        LookupProof::Present { value, .. } => AccessLevel::decode(value)
            .map(Some)
            .ok_or_else(|| DosnError::IntegrityViolation("unknown access level".into())),
        LookupProof::Absent { .. } => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_crypto::group::SchnorrGroup;

    fn setup() -> (OwnerAcl, SigningKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(131);
        let owner = SigningKey::generate(SchnorrGroup::toy(), &mut rng);
        let acl = OwnerAcl::new(owner.clone(), [], &mut rng);
        (acl, owner, rng)
    }

    #[test]
    fn grant_prove_check_roundtrip() {
        let (mut acl, owner, mut rng) = setup();
        acl.grant(&"bob".into(), AccessLevel::Reader, &mut rng);
        acl.grant(&"carol".into(), AccessLevel::Writer, &mut rng);
        for (user, expect) in [
            ("bob", Some(AccessLevel::Reader)),
            ("carol", Some(AccessLevel::Writer)),
            ("mallory", None),
        ] {
            let (proof, root) = acl.replica().prove(&user.into());
            let got = check_access(owner.verifying_key(), &root, &user.into(), &proof).unwrap();
            assert_eq!(got, expect, "{user}");
        }
    }

    #[test]
    fn revocation_yields_proven_absence() {
        let (mut acl, owner, mut rng) = setup();
        acl.grant(&"bob".into(), AccessLevel::Writer, &mut rng);
        acl.revoke(&"bob".into(), &mut rng);
        let (proof, root) = acl.replica().prove(&"bob".into());
        assert_eq!(
            check_access(owner.verifying_key(), &root, &"bob".into(), &proof).unwrap(),
            None
        );
    }

    #[test]
    fn stale_root_cannot_hide_a_revocation() {
        let (mut acl, owner, mut rng) = setup();
        let _granted_root = acl.grant(&"bob".into(), AccessLevel::Writer, &mut rng);
        // Capture the proof while bob is listed.
        let (old_proof, old_root) = acl.replica().prove(&"bob".into());
        acl.revoke(&"bob".into(), &mut rng);
        // A malicious node replays the old proof + old root: it *verifies*
        // (the root was genuinely signed), which is why verifiers must
        // require the freshest root version — expose it for comparison.
        let (new_proof, new_root) = acl.replica().prove(&"bob".into());
        assert!(new_root.version > old_root.version);
        assert_eq!(
            check_access(owner.verifying_key(), &new_root, &"bob".into(), &new_proof).unwrap(),
            None
        );
        // The stale pair still verifies in isolation — fork-consistency
        // (history.rs) or version pinning closes this, as Frientegrity does.
        assert!(check_access(owner.verifying_key(), &old_root, &"bob".into(), &old_proof).is_ok());
    }

    #[test]
    fn forged_level_rejected() {
        let (mut acl, owner, mut rng) = setup();
        acl.grant(&"bob".into(), AccessLevel::Reader, &mut rng);
        let (proof, root) = acl.replica().prove(&"bob".into());
        let LookupProof::Present { index, path, .. } = proof else {
            panic!("present")
        };
        let forged = LookupProof::Present {
            value: b"writer".to_vec(),
            index,
            path,
        };
        assert!(check_access(owner.verifying_key(), &root, &"bob".into(), &forged).is_err());
    }

    #[test]
    fn an_entry_proven_at_another_index_is_refused() {
        let (mut acl, owner, mut rng) = setup();
        for user in ["alice", "bob", "carol"] {
            acl.grant(&user.into(), AccessLevel::Reader, &mut rng);
        }
        let (proof, root) = acl.replica().prove(&"bob".into());
        let LookupProof::Present { value, index, path } = proof else {
            panic!("present")
        };
        let moved = LookupProof::Present {
            value,
            index: index + 1,
            path,
        };
        assert!(check_access(owner.verifying_key(), &root, &"bob".into(), &moved).is_err());
    }

    #[test]
    fn level_ordering_supports_policy_checks() {
        assert!(AccessLevel::Writer > AccessLevel::Commenter);
        assert!(AccessLevel::Commenter > AccessLevel::Reader);
    }

    /// "ACLs are PADs, making it possible to access in logarithmic time":
    /// a member's proof in a list of `2^k` carries exactly `k` path hashes.
    #[test]
    fn a_member_proof_carries_log2_n_path_hashes() {
        let (_, owner, mut rng) = setup();
        for k in 1..=12u32 {
            let members = (0..1 << k).map(|i| (format!("u{i:04}").into(), AccessLevel::Reader));
            let acl = OwnerAcl::new(owner.clone(), members, &mut rng);
            let (proof, _) = acl.replica().prove(&"u0000".into());
            let LookupProof::Present { path, .. } = proof else {
                panic!("u0000 is listed")
            };
            assert_eq!(path.len(), k as usize, "n = 2^{k}");
        }
    }

    #[test]
    fn upgrade_overwrites_level() {
        let (mut acl, owner, mut rng) = setup();
        acl.grant(&"bob".into(), AccessLevel::Reader, &mut rng);
        acl.grant(&"bob".into(), AccessLevel::Writer, &mut rng);
        assert_eq!(acl.len(), 1);
        let (proof, root) = acl.replica().prove(&"bob".into());
        assert_eq!(
            check_access(owner.verifying_key(), &root, &"bob".into(), &proof).unwrap(),
            Some(AccessLevel::Writer)
        );
    }
}
