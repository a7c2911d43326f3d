//! Identity-based broadcast encryption as a group scheme (survey §III-E).
//!
//! "IBBE is more flexible than ABE, since it addresses individual recipients
//! instead of the whole group. Removing a recipient from the list would then
//! have no extra cost." Groups here are plain recipient lists; each post is
//! broadcast-encrypted to the *current* list via the PKG-backed Cocks IBBE,
//! so join/leave are list edits and revocation costs nothing (E2's
//! counterpoint to symmetric/ABE re-keying).

use super::{find, find_mut, foreign_body, roster::Roster};
use crate::error::DosnError;
use crate::privacy::{AccessScheme, GroupId, MembershipCost, SealedBody, SealedPost};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::ibbe::IbbeBroadcaster;
use dosn_crypto::ibe::{CocksPkg, IdentityKey};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The §III-E scheme.
pub struct IbbeGroupScheme {
    pkg: CocksPkg,
    broadcaster: IbbeBroadcaster,
    /// Extracted identity keys (a cache standing in for each member's
    /// PKG interaction).
    identity_keys: BTreeMap<String, IdentityKey>,
    groups: BTreeMap<GroupId, Roster>,
    rng: SecureRng,
    next_group: u64,
}

impl std::fmt::Debug for IbbeGroupScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IbbeGroupScheme({} groups)", self.groups.len())
    }
}

/// Shared 256-bit test PKG: Cocks setup is expensive, and tests/experiments
/// only need one.
fn test_pkg() -> &'static CocksPkg {
    static PKG: OnceLock<CocksPkg> = OnceLock::new();
    PKG.get_or_init(|| {
        let mut rng = SecureRng::seed_from_u64(0xC0C5);
        CocksPkg::setup(256, &mut rng)
    })
}

impl IbbeGroupScheme {
    /// Creates the scheme over an existing PKG.
    pub fn new(pkg: CocksPkg, seed: u64) -> Self {
        let broadcaster = IbbeBroadcaster::new(pkg.public_params());
        IbbeGroupScheme {
            pkg,
            broadcaster,
            identity_keys: BTreeMap::new(),
            groups: BTreeMap::new(),
            rng: SecureRng::seed_from_u64(seed),
            next_group: 0,
        }
    }

    /// Creates the scheme over the shared small test PKG (tests and
    /// experiment harnesses).
    pub fn with_test_pkg() -> Self {
        Self::new(test_pkg().clone(), 0x1BBE)
    }

    fn identity_key(&mut self, member: &str) -> &IdentityKey {
        if !self.identity_keys.contains_key(member) {
            let key = self.pkg.extract(member.as_bytes());
            self.identity_keys.insert(member.to_owned(), key);
        }
        &self.identity_keys[member]
    }
}

impl AccessScheme for IbbeGroupScheme {
    fn name(&self) -> &'static str {
        "ibbe"
    }

    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        let id = GroupId(format!("ibbe-{}", self.next_group));
        self.next_group += 1;
        self.groups.insert(id.clone(), Roster::new(members));
        Ok(id)
    }

    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError> {
        let roster = find(&self.groups, group)?;
        let (epoch, recipients) = (roster.epoch(), roster.active());
        let ct = self
            .broadcaster
            .encrypt(&recipients, plaintext, &mut self.rng);
        Ok(SealedPost {
            scheme: self.name(),
            group: group.clone(),
            epoch,
            body: SealedBody::Ibbe {
                ct,
                element_len: self.broadcaster.params().element_len(),
            },
        })
    }

    fn decrypt_as(
        &self,
        group: &GroupId,
        member: &str,
        post: &SealedPost,
    ) -> Result<Vec<u8>, DosnError> {
        if !find(&self.groups, group)?.active_at(member, post.epoch) {
            return Err(DosnError::NotAuthorized(format!(
                "{member} was not a recipient at epoch {}",
                post.epoch
            )));
        }
        let SealedBody::Ibbe { ref ct, .. } = post.body else {
            return Err(foreign_body());
        };
        // Extraction through the PKG (cached).
        let key = match self.identity_keys.get(member) {
            Some(k) => k.clone(),
            None => self.pkg.extract(member.as_bytes()),
        };
        Ok(IbbeBroadcaster::decrypt(&key, ct)?)
    }

    fn add_member(&mut self, group: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        find_mut(&mut self.groups, group)?.join(member);
        let _ = self.identity_key(member); // PKG extraction: one interaction
                                           // The member's "key" is their identity key from the PKG; the group
                                           // owner sends nothing.
        Ok(MembershipCost::default())
    }

    fn revoke_member(
        &mut self,
        group: &GroupId,
        member: &str,
    ) -> Result<MembershipCost, DosnError> {
        find_mut(&mut self.groups, group)?.revoke(member)?;
        // The survey's point: removal is free — future broadcasts just omit
        // the identity. No re-keying, no history re-encryption obligation
        // beyond the universal "they may have kept copies".
        Ok(MembershipCost::default())
    }

    fn members(&self, group: &GroupId) -> Vec<String> {
        self.groups
            .get(group)
            .map(Roster::active)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_strings_are_the_public_keys() {
        let mut s = IbbeGroupScheme::with_test_pkg();
        let g = s
            .create_group(&["alice@dosn".into(), "bob@dosn".into()])
            .unwrap();
        let post = s.encrypt(&g, b"broadcast").unwrap();
        assert_eq!(s.decrypt_as(&g, "alice@dosn", &post).unwrap(), b"broadcast");
        assert_eq!(s.decrypt_as(&g, "bob@dosn", &post).unwrap(), b"broadcast");
        assert!(s.decrypt_as(&g, "eve@dosn", &post).is_err());
    }

    #[test]
    fn revocation_is_free() {
        let mut s = IbbeGroupScheme::with_test_pkg();
        let g = s.create_group(&["a".into(), "b".into()]).unwrap();
        for _ in 0..5 {
            s.encrypt(&g, b"history").unwrap();
        }
        let cost = s.revoke_member(&g, "b").unwrap();
        assert_eq!(cost, MembershipCost::default(), "IBBE removal is free");
    }

    #[test]
    fn ciphertext_scales_with_recipient_count() {
        let mut s = IbbeGroupScheme::with_test_pkg();
        let g1 = s.create_group(&["a".into()]).unwrap();
        let g2 = s
            .create_group(&["a".into(), "b".into(), "c".into(), "d".into()])
            .unwrap();
        let p1 = s.encrypt(&g1, b"x").unwrap();
        let p2 = s.encrypt(&g2, b"x").unwrap();
        assert!(p2.size_bytes() >= p1.size_bytes() * 3);
    }

    #[test]
    fn add_member_joins_future_posts_only() {
        let mut s = IbbeGroupScheme::with_test_pkg();
        let g = s.create_group(&["a".into()]).unwrap();
        let before = s.encrypt(&g, b"before").unwrap();
        s.add_member(&g, "late").unwrap();
        let after = s.encrypt(&g, b"after").unwrap();
        assert!(s.decrypt_as(&g, "late", &before).is_err());
        assert_eq!(s.decrypt_as(&g, "late", &after).unwrap(), b"after");
    }
}
