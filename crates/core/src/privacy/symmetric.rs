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
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A group's roster, its key chain so far, and the history a revocation
/// would have to re-encrypt.
struct SymmetricGroup {
    roster: Roster,
    /// `keys[e]` is the epoch-`e` key, derived once when the epoch opened;
    /// one key per epoch up to the roster's current one.
    keys: Vec<SymmetricKey>,
    posts_encrypted: u64,
}

impl SymmetricGroup {
    /// The epoch-`epoch` key of `group`: from the chain when that epoch was
    /// issued. A stored record's epoch word lies outside the signed digest,
    /// so colluding holders can serve one never issued; its key is derived
    /// on the spot, and the open fails on the tag as it always did.
    fn key(&self, prf: &Prf, group: &GroupId, epoch: u64) -> Cow<'_, SymmetricKey> {
        match usize::try_from(epoch).ok().and_then(|e| self.keys.get(e)) {
            Some(key) => Cow::Borrowed(key),
            None => Cow::Owned(epoch_key(prf, group, epoch)),
        }
    }
}

/// Derives the epoch-`epoch` key of `group` as PRF(root, group || epoch).
fn epoch_key(prf: &Prf, group: &GroupId, epoch: u64) -> SymmetricKey {
    let material = prf.eval(format!("group|{group}|epoch|{epoch}").as_bytes());
    SymmetricKey::from_bytes(&material)
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
}

impl AccessScheme for SymmetricGroupScheme {
    fn name(&self) -> &'static str {
        "symmetric"
    }

    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        let id = GroupId(format!("sym-{}", self.next_group));
        self.next_group += 1;
        let keys = vec![epoch_key(&self.prf, &id, 0)];
        self.groups.insert(
            id.clone(),
            SymmetricGroup {
                roster: Roster::new(members),
                keys,
                posts_encrypted: 0,
            },
        );
        Ok(id)
    }

    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError> {
        let state = find_mut(&mut self.groups, group)?;
        let epoch = state.roster.epoch();
        let key = state.key(&self.prf, group, epoch);
        let sealed = key.seal(plaintext, group.0.as_bytes(), &mut self.rng);
        state.posts_encrypted += 1;
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
        let state = find(&self.groups, group)?;
        if !state.roster.active_at(member, post.epoch) {
            return Err(DosnError::NotAuthorized(format!(
                "{member} does not hold the epoch-{} key of {group}",
                post.epoch
            )));
        }
        let SealedBody::Symmetric(ref bytes) = post.body else {
            return Err(foreign_body());
        };
        let key = state.key(&self.prf, group, post.epoch);
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
        state
            .keys
            .push(epoch_key(&self.prf, group, state.roster.epoch()));
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
    fn the_chain_holds_each_issued_epoch_key_derived_once() {
        let mut s = scheme();
        let g = s
            .create_group(&["a".into(), "b".into(), "c".into(), "d".into()])
            .unwrap();
        for m in ["b", "c", "d"] {
            s.revoke_member(&g, m).unwrap();
        }
        // A refused revocation opens no epoch and derives no key.
        assert!(s.revoke_member(&g, "b").is_err());
        let state = &s.groups[&g];
        assert_eq!(state.roster.epoch(), 3);
        let derived: Vec<SymmetricKey> = (0..=3).map(|e| epoch_key(&s.prf, &g, e)).collect();
        assert_eq!(state.keys, derived);
    }

    #[test]
    fn a_never_issued_epoch_still_fails_at_the_tag() {
        // Colluding holders can rewrite the unsigned epoch word of a stored
        // record; the reader then opens under that epoch's key. Past the
        // chain's end the key is derived on the spot, and the refusal is
        // the AEAD's, whichever epoch was forged.
        let mut s = scheme();
        let g = s.create_group(&["a".into(), "b".into()]).unwrap();
        s.revoke_member(&g, "b").unwrap();
        let mut post = s.encrypt(&g, b"epoch 1").unwrap();
        for forged in [0, 2, 1 << 40, u64::MAX] {
            post.epoch = forged;
            let refused = s.decrypt_as(&g, "a", &post).unwrap_err();
            assert_eq!(format!("{refused:?}"), "Crypto(AuthenticationFailed)");
            assert_eq!(
                refused.to_string(),
                "crypto failure: ciphertext authentication failed"
            );
        }
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
