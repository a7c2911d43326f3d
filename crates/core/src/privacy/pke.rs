//! Per-member public-key encryption (survey §III-C).
//!
//! "Data should be encrypted under the public keys of all group's members
//! and then sent to them. When a user leaves the group, his public key will
//! be deleted from the list" — the Flybynight/PeerSoN model. Each post
//! carries one ElGamal-wrapped DEK per member, so ciphertexts grow linearly
//! with audience size (E1 measures this), while join/leave are list edits
//! with no re-keying (E2).

use super::{find, find_mut, foreign_body, roster::Roster};
use crate::error::DosnError;
use crate::privacy::{AccessScheme, GroupId, MembershipCost, SealedBody, SealedPost};
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::elgamal::{ElGamalKeyPair, ElGamalPublicKey, ElGamalSecretKey, HybridCiphertext};
use dosn_crypto::group::SchnorrGroup;
use rand::RngCore;
use std::collections::BTreeMap;

/// The §III-C scheme. Holds each member's public key; secret keys stay with
/// the members (the scheme holds them here only to *model* member-side
/// decryption in experiments).
pub struct PkeGroupScheme {
    group_params: SchnorrGroup,
    public_keys: BTreeMap<String, ElGamalPublicKey>,
    secret_keys: BTreeMap<String, ElGamalSecretKey>,
    groups: BTreeMap<GroupId, Roster>,
    rng: SecureRng,
    next_group: u64,
}

impl std::fmt::Debug for PkeGroupScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PkeGroupScheme({} identities, {} groups)",
            self.public_keys.len(),
            self.groups.len()
        )
    }
}

impl PkeGroupScheme {
    /// Creates the scheme over an existing set of member key pairs.
    pub fn new(group_params: SchnorrGroup, rng_seed: u64) -> Self {
        PkeGroupScheme {
            group_params,
            public_keys: BTreeMap::new(),
            secret_keys: BTreeMap::new(),
            groups: BTreeMap::new(),
            rng: SecureRng::seed_from_u64(rng_seed),
            next_group: 0,
        }
    }

    /// Convenience: creates the scheme plus fresh key pairs for `names`
    /// (experiment setup).
    pub fn with_fresh_identities(names: &[&str], rng: &mut SecureRng) -> Self {
        let mut s = Self::new(SchnorrGroup::toy(), rng.next_u64());
        for name in names {
            s.register_identity(name, rng);
        }
        s
    }

    /// Generates and registers a key pair for `member`.
    fn register_identity(&mut self, member: &str, rng: &mut SecureRng) {
        let kp = ElGamalKeyPair::generate(self.group_params.clone(), rng);
        self.public_keys
            .insert(member.to_owned(), kp.public().clone());
        self.secret_keys
            .insert(member.to_owned(), kp.secret().clone());
    }
}

impl AccessScheme for PkeGroupScheme {
    fn name(&self) -> &'static str {
        "pke"
    }

    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        for m in members {
            if !self.public_keys.contains_key(m) {
                return Err(DosnError::UnknownUser(m.clone()));
            }
        }
        let id = GroupId(format!("pke-{}", self.next_group));
        self.next_group += 1;
        self.groups.insert(id.clone(), Roster::new(members));
        Ok(id)
    }

    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError> {
        let roster = find(&self.groups, group)?;
        let (epoch, recipients) = (roster.epoch(), roster.active());
        // Fresh DEK sealed once; DEK wrapped per recipient under ElGamal.
        let dek_bytes = self.rng.gen_key();
        let dek = SymmetricKey::from_bytes(&dek_bytes);
        let payload = dek.seal(plaintext, group.0.as_bytes(), &mut self.rng);
        let mut wrapped = Vec::with_capacity(recipients.len());
        for r in recipients {
            let pk = self
                .public_keys
                .get(&r)
                .ok_or_else(|| DosnError::UnknownUser(r.clone()))?
                .clone();
            let ct = pk.encrypt(&dek_bytes, &mut self.rng);
            wrapped.push((r, ct.to_bytes()));
        }
        Ok(SealedPost {
            scheme: self.name(),
            group: group.clone(),
            epoch,
            body: SealedBody::PerRecipient { wrapped, payload },
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
        let SealedBody::PerRecipient {
            ref wrapped,
            ref payload,
        } = post.body
        else {
            return Err(foreign_body());
        };
        let entry = wrapped
            .iter()
            .find(|(r, _)| r == member)
            .ok_or_else(|| DosnError::NotAuthorized(format!("{member} has no wrapped key")))?;
        let sk = self
            .secret_keys
            .get(member)
            .ok_or_else(|| DosnError::UnknownUser(member.to_owned()))?;
        let ct = HybridCiphertext::from_bytes(&entry.1)?;
        let dek_bytes = sk.decrypt(&ct)?;
        let dek_arr: [u8; 32] = dek_bytes
            .try_into()
            .map_err(|_| DosnError::IntegrityViolation("bad DEK length".into()))?;
        let dek = SymmetricKey::from_bytes(&dek_arr);
        Ok(dek.open(payload, group.0.as_bytes())?)
    }

    fn add_member(&mut self, group: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        if !self.public_keys.contains_key(member) {
            return Err(DosnError::UnknownUser(member.to_owned()));
        }
        find_mut(&mut self.groups, group)?.join(member);
        // Adding a public key to the list costs nothing cryptographic.
        Ok(MembershipCost::default())
    }

    fn revoke_member(
        &mut self,
        group: &GroupId,
        member: &str,
    ) -> Result<MembershipCost, DosnError> {
        find_mut(&mut self.groups, group)?.revoke(member)?;
        // Deleting the key from the list: no messages, no re-keying; old
        // posts whose DEK the member holds would need re-encryption to
        // truly lock them out — but future posts simply omit the member, so
        // the standing cost is zero (the §III-C story).
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

    fn scheme() -> PkeGroupScheme {
        let mut rng = SecureRng::seed_from_u64(61);
        PkeGroupScheme::with_fresh_identities(&["a", "b", "c", "d"], &mut rng)
    }

    #[test]
    fn ciphertext_grows_linearly_with_members() {
        let mut s = scheme();
        let g1 = s.create_group(&["a".into()]).unwrap();
        let g3 = s
            .create_group(&["a".into(), "b".into(), "c".into()])
            .unwrap();
        let p1 = s.encrypt(&g1, b"same body").unwrap();
        let p3 = s.encrypt(&g3, b"same body").unwrap();
        assert!(
            p3.size_bytes() > p1.size_bytes() + 2 * 60,
            "3-member ct ({}) should dwarf 1-member ct ({})",
            p3.size_bytes(),
            p1.size_bytes()
        );
    }

    #[test]
    fn join_and_leave_are_free() {
        let mut s = scheme();
        let g = s.create_group(&["a".into(), "b".into()]).unwrap();
        assert_eq!(s.add_member(&g, "c").unwrap(), MembershipCost::default());
        assert_eq!(s.revoke_member(&g, "b").unwrap(), MembershipCost::default());
    }

    #[test]
    fn unknown_member_rejected_at_group_creation() {
        let mut s = scheme();
        assert!(matches!(
            s.create_group(&["a".into(), "zelda".into()]),
            Err(DosnError::UnknownUser(_))
        ));
        let g = s.create_group(&["a".into()]).unwrap();
        assert!(s.add_member(&g, "zelda").is_err());
    }

    #[test]
    fn member_without_wrapped_key_fails() {
        let mut s = scheme();
        let g = s.create_group(&["a".into()]).unwrap();
        let post = s.encrypt(&g, b"x").unwrap();
        // d is registered but not in the group.
        assert!(s.decrypt_as(&g, "d", &post).is_err());
    }

    #[test]
    fn revoked_member_keeps_old_posts_loses_new() {
        let mut s = scheme();
        let g = s.create_group(&["a".into(), "b".into()]).unwrap();
        let old = s.encrypt(&g, b"old").unwrap();
        s.revoke_member(&g, "b").unwrap();
        let new = s.encrypt(&g, b"new").unwrap();
        assert_eq!(s.decrypt_as(&g, "b", &old).unwrap(), b"old");
        assert!(s.decrypt_as(&g, "b", &new).is_err());
    }
}
