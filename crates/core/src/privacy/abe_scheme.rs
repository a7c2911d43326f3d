//! CP-ABE as a group scheme (survey §III-D, the Persona/Cachet model).
//!
//! Each group is realized as an attribute `group:<id>`; members receive a
//! key embedding that attribute from the owner's [`AbeAuthority`], and posts
//! are encrypted under the policy `group:<id>`. Revocation exercises the
//! survey's headline ABE cost: "usual revocation methods for ABE use
//! frequent re-keying … the previous data … must be encrypted and stored
//! again", so revoking bumps the attribute epoch, forces re-issuing keys to
//! every remaining member, and reports the history re-encryption debt.

use super::{find, find_mut, foreign_body};
use crate::error::DosnError;
use crate::privacy::{AccessScheme, GroupId, MembershipCost, SealedBody, SealedPost};
use dosn_crypto::abe::{AbeAuthority, Policy, UserKey};
use dosn_crypto::chacha::SecureRng;
use std::collections::{BTreeMap, BTreeSet};

struct GroupState {
    attribute: String,
    policy: Policy,
    /// member -> issued keys, newest last (a member keeps old-epoch keys,
    /// so old posts stay readable — the survey's re-encryption point).
    member_keys: BTreeMap<String, Vec<UserKey>>,
    /// Members whose access was revoked (they keep their old keys).
    revoked: BTreeSet<String>,
    posts_encrypted: u64,
    epoch: u64,
}

/// The §III-D scheme.
pub struct AbeGroupScheme {
    authority: AbeAuthority,
    groups: BTreeMap<GroupId, GroupState>,
    rng: SecureRng,
    next_group: u64,
}

impl std::fmt::Debug for AbeGroupScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AbeGroupScheme({} groups)", self.groups.len())
    }
}

impl AbeGroupScheme {
    /// Creates the scheme with the owner's master secret.
    pub fn new(master_secret: [u8; 32]) -> Self {
        AbeGroupScheme {
            authority: AbeAuthority::new(master_secret),
            groups: BTreeMap::new(),
            rng: SecureRng::from_seed(dosn_crypto::sha256::sha256(&master_secret)),
            next_group: 0,
        }
    }

    fn qualified_member(group: &GroupId, member: &str) -> String {
        format!("{group}/{member}")
    }
}

impl AccessScheme for AbeGroupScheme {
    fn name(&self) -> &'static str {
        "cp-abe"
    }

    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        let id = GroupId(format!("abe-{}", self.next_group));
        self.next_group += 1;
        let attribute = format!("group:{id}");
        let policy = Policy::Attr(attribute.clone());
        let mut member_keys = BTreeMap::new();
        for m in members {
            let key = self.authority.issue_key(
                &Self::qualified_member(&id, m),
                std::slice::from_ref(&attribute),
            );
            member_keys.insert(m.clone(), vec![key]);
        }
        self.groups.insert(
            id.clone(),
            GroupState {
                attribute,
                policy,
                member_keys,
                revoked: BTreeSet::new(),
                posts_encrypted: 0,
                epoch: 0,
            },
        );
        Ok(id)
    }

    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError> {
        let state = find(&self.groups, group)?;
        let ct = self
            .authority
            .encrypt(&state.policy, plaintext, &mut self.rng)?;
        let epoch = state.epoch;
        let state = find_mut(&mut self.groups, group)?;
        state.posts_encrypted += 1;
        Ok(SealedPost {
            scheme: self.name(),
            group: group.clone(),
            epoch,
            body: SealedBody::Abe(ct),
        })
    }

    fn decrypt_as(
        &self,
        group: &GroupId,
        member: &str,
        post: &SealedPost,
    ) -> Result<Vec<u8>, DosnError> {
        let state = find(&self.groups, group)?;
        let SealedBody::Abe(ref ct) = post.body else {
            return Err(foreign_body());
        };
        let keys = state
            .member_keys
            .get(member)
            .ok_or_else(|| DosnError::NotAuthorized(format!("{member} holds no group key")))?;
        // Try every key generation the member holds (new first).
        for key in keys.iter().rev() {
            if let Ok(pt) = key.decrypt(ct) {
                return Ok(pt);
            }
        }
        Err(DosnError::NotAuthorized(format!(
            "{member}'s keys do not satisfy the post's policy epoch"
        )))
    }

    fn add_member(&mut self, group: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        let attribute = find(&self.groups, group)?.attribute.clone();
        let key = self
            .authority
            .issue_key(&Self::qualified_member(group, member), &[attribute]);
        let state = find_mut(&mut self.groups, group)?;
        state.revoked.remove(member);
        state
            .member_keys
            .entry(member.to_owned())
            .or_default()
            .push(key);
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
        if !state.member_keys.contains_key(member) || !state.revoked.insert(member.to_owned()) {
            return Err(DosnError::UnknownUser(member.to_owned()));
        }
        let attribute = state.attribute.clone();
        let qualified = Self::qualified_member(group, member);
        let report = self.authority.revoke_user(&qualified);
        debug_assert!(report.attributes_rotated.contains(&attribute));
        // Re-key every remaining member at the new epoch.
        let remaining: Vec<String> = {
            let state = find(&self.groups, group)?;
            state
                .member_keys
                .keys()
                .filter(|m| !state.revoked.contains(*m))
                .cloned()
                .collect()
        };
        for m in &remaining {
            let key = self.authority.issue_key(
                &Self::qualified_member(group, m),
                std::slice::from_ref(&attribute),
            );
            let keys = find_mut(&mut self.groups, group)?
                .member_keys
                .get_mut(m)
                .ok_or_else(|| DosnError::UnknownUser(m.clone()))?;
            keys.push(key);
        }
        let state = find_mut(&mut self.groups, group)?;
        state.epoch += 1;
        Ok(MembershipCost {
            key_messages: remaining.len() as u64,
            rekeyed_members: remaining.len() as u64,
            posts_to_reencrypt: state.posts_encrypted,
        })
    }

    fn members(&self, group: &GroupId) -> Vec<String> {
        self.groups
            .get(group)
            .map(|s| {
                s.member_keys
                    .keys()
                    .filter(|m| !s.revoked.contains(*m))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> AbeGroupScheme {
        AbeGroupScheme::new([3u8; 32])
    }

    #[test]
    fn revocation_rekeys_everyone_and_reports_history() {
        let mut s = scheme();
        let members: Vec<String> = (0..6).map(|i| format!("m{i}")).collect();
        let g = s.create_group(&members).unwrap();
        for _ in 0..7 {
            s.encrypt(&g, b"p").unwrap();
        }
        let cost = s.revoke_member(&g, "m2").unwrap();
        assert_eq!(cost.rekeyed_members, 5);
        assert_eq!(cost.key_messages, 5);
        assert_eq!(cost.posts_to_reencrypt, 7);
    }

    #[test]
    fn remaining_members_read_across_epochs_via_key_history() {
        let mut s = scheme();
        let g = s.create_group(&["a".into(), "b".into()]).unwrap();
        let old = s.encrypt(&g, b"old").unwrap();
        s.revoke_member(&g, "b").unwrap();
        let new = s.encrypt(&g, b"new").unwrap();
        // a keeps the old key and received a new one: reads both.
        assert_eq!(s.decrypt_as(&g, "a", &old).unwrap(), b"old");
        assert_eq!(s.decrypt_as(&g, "a", &new).unwrap(), b"new");
    }

    #[test]
    fn groups_use_distinct_attributes() {
        let mut s = scheme();
        let g1 = s.create_group(&["a".into()]).unwrap();
        let g2 = s.create_group(&["a".into()]).unwrap();
        let p1 = s.encrypt(&g1, b"g1 only").unwrap();
        // a is in both groups but g2's key must not open g1's post via g2.
        assert!(s.decrypt_as(&g2, "a", &p1).is_err());
    }
}
