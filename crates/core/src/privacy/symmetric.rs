//! Symmetric group keys (survey §III-B).
//!
//! "For each new group, a distinct key should be defined. Adding a user …
//! means sharing the group key with that user. For the revocation, we need
//! to create a new key and re-encrypt the whole data." This scheme models
//! that exactly: each group has an epoch-indexed key chain; every epoch
//! bump (revocation) requires distributing the fresh key to all remaining
//! members and, to lock the revoked user out of stored history,
//! re-encrypting every earlier post.

use super::{find, find_mut, foreign_body, roster::Roster};
use crate::error::DosnError;
use crate::privacy::{AccessScheme, GroupId, MembershipCost, SealedBody, SealedPost};
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::hmac::Prf;
use std::collections::BTreeMap;

/// A group's roster plus the history a revocation would have to re-encrypt.
struct SymmetricGroup {
    roster: Roster,
    posts_encrypted: u64,
}

/// The §III-B scheme.
///
/// ```
/// use dosn_core::privacy::{AccessScheme, SymmetricGroupScheme};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut scheme = SymmetricGroupScheme::new([0u8; 32]);
/// let g = scheme.create_group(&["alice".into(), "bob".into()])?;
/// let post = scheme.encrypt(&g, b"hi")?;
/// assert_eq!(scheme.decrypt_as(&g, "alice", &post)?, b"hi");
/// // Revocation is the expensive operation for symmetric keys:
/// let cost = scheme.revoke_member(&g, "bob")?;
/// assert_eq!(cost.rekeyed_members, 1); // alice gets the new key
/// assert_eq!(cost.posts_to_reencrypt, 1); // history must be re-encrypted
/// # Ok(())
/// # }
/// ```
pub struct SymmetricGroupScheme {
    /// Key chain root: epoch keys derive as PRF(root, group || epoch).
    prf: Prf,
    groups: BTreeMap<GroupId, SymmetricGroup>,
    rng: SecureRng,
    next_group: u64,
}

impl std::fmt::Debug for SymmetricGroupScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymmetricGroupScheme({} groups)", self.groups.len())
    }
}

impl SymmetricGroupScheme {
    /// Creates the scheme from an owner master secret.
    pub fn new(master_secret: [u8; 32]) -> Self {
        SymmetricGroupScheme {
            prf: Prf::new(master_secret),
            groups: BTreeMap::new(),
            rng: SecureRng::from_seed(dosn_crypto::sha256::sha256(&master_secret)),
            next_group: 0,
        }
    }

    fn epoch_key(&self, group: &GroupId, epoch: u64) -> SymmetricKey {
        let material = self
            .prf
            .eval(format!("group|{group}|epoch|{epoch}").as_bytes());
        SymmetricKey::from_bytes(&material)
    }
}

impl AccessScheme for SymmetricGroupScheme {
    fn name(&self) -> &'static str {
        "symmetric"
    }

    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        let id = GroupId(format!("sym-{}", self.next_group));
        self.next_group += 1;
        self.groups.insert(
            id.clone(),
            SymmetricGroup {
                roster: Roster::new(members),
                posts_encrypted: 0,
            },
        );
        Ok(id)
    }

    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError> {
        let epoch = find(&self.groups, group)?.roster.epoch();
        let key = self.epoch_key(group, epoch);
        let sealed = key.seal(plaintext, group.0.as_bytes(), &mut self.rng);
        find_mut(&mut self.groups, group)?.posts_encrypted += 1;
        Ok(SealedPost {
            scheme: self.name(),
            group: group.clone(),
            epoch,
            body: SealedBody::Symmetric(sealed),
        })
    }

    fn decrypt_as(
        &self,
        group: &GroupId,
        member: &str,
        post: &SealedPost,
    ) -> Result<Vec<u8>, DosnError> {
        if !find(&self.groups, group)?
            .roster
            .active_at(member, post.epoch)
        {
            return Err(DosnError::NotAuthorized(format!(
                "{member} does not hold the epoch-{} key of {group}",
                post.epoch
            )));
        }
        let SealedBody::Symmetric(ref bytes) = post.body else {
            return Err(foreign_body());
        };
        let key = self.epoch_key(group, post.epoch);
        Ok(key.open(bytes, group.0.as_bytes())?)
    }

    fn add_member(&mut self, group: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        find_mut(&mut self.groups, group)?.roster.join(member);
        // Share the current key: one message, no re-keying.
        Ok(MembershipCost {
            key_messages: 1,
            rekeyed_members: 0,
            posts_to_reencrypt: 0,
        })
    }

    fn revoke_member(
        &mut self,
        group: &GroupId,
        member: &str,
    ) -> Result<MembershipCost, DosnError> {
        let state = find_mut(&mut self.groups, group)?;
        // A fresh epoch key goes to everyone who stays.
        let remaining = state.roster.revoke(member)?;
        Ok(MembershipCost {
            key_messages: remaining,
            rekeyed_members: remaining,
            posts_to_reencrypt: state.posts_encrypted,
        })
    }

    fn members(&self, group: &GroupId) -> Vec<String> {
        self.groups
            .get(group)
            .map(|s| s.roster.active())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> SymmetricGroupScheme {
        SymmetricGroupScheme::new([7u8; 32])
    }

    #[test]
    fn group_key_isolated_per_group() {
        let mut s = scheme();
        let g1 = s.create_group(&["a".into()]).unwrap();
        let g2 = s.create_group(&["a".into()]).unwrap();
        let p1 = s.encrypt(&g1, b"m").unwrap();
        assert!(s.decrypt_as(&g2, "a", &p1).is_err(), "cross-group decrypt");
    }

    #[test]
    fn new_member_reads_current_epoch_but_not_past_epochs() {
        let mut s = scheme();
        let g = s.create_group(&["a".into(), "b".into()]).unwrap();
        let epoch0_post = s.encrypt(&g, b"epoch0").unwrap();
        s.revoke_member(&g, "b").unwrap(); // epoch -> 1
        let epoch1_post = s.encrypt(&g, b"epoch1").unwrap();
        s.add_member(&g, "newbie").unwrap(); // joins at epoch 1
        assert_eq!(s.decrypt_as(&g, "newbie", &epoch1_post).unwrap(), b"epoch1");
        assert!(
            s.decrypt_as(&g, "newbie", &epoch0_post).is_err(),
            "newbie never held the epoch-0 key"
        );
    }

    #[test]
    fn revocation_cost_scales_with_history_and_membership() {
        let mut s = scheme();
        let members: Vec<String> = (0..10).map(|i| format!("m{i}")).collect();
        let g = s.create_group(&members).unwrap();
        for i in 0..25 {
            s.encrypt(&g, format!("post {i}").as_bytes()).unwrap();
        }
        let cost = s.revoke_member(&g, "m3").unwrap();
        assert_eq!(cost.rekeyed_members, 9);
        assert_eq!(cost.key_messages, 9);
        assert_eq!(cost.posts_to_reencrypt, 25);
    }

    #[test]
    fn double_revocation_rejected() {
        let mut s = scheme();
        let g = s.create_group(&["a".into(), "b".into()]).unwrap();
        s.revoke_member(&g, "b").unwrap();
        assert!(s.revoke_member(&g, "b").is_err());
        assert!(s.revoke_member(&g, "nobody").is_err());
    }

    #[test]
    fn members_lists_only_active() {
        let mut s = scheme();
        let g = s
            .create_group(&["a".into(), "b".into(), "c".into()])
            .unwrap();
        s.revoke_member(&g, "b").unwrap();
        assert_eq!(s.members(&g), vec!["a".to_string(), "c".to_string()]);
        assert!(s.members(&GroupId::from("nope")).is_empty());
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let mut s = scheme();
        let g = s.create_group(&["a".into()]).unwrap();
        let mut post = s.encrypt(&g, b"x").unwrap();
        if let SealedBody::Symmetric(ref mut b) = post.body {
            let n = b.len();
            b[n / 2] ^= 1;
        }
        assert!(matches!(
            s.decrypt_as(&g, "a", &post),
            Err(DosnError::Crypto(_))
        ));
    }
}
