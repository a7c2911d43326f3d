//! Experiment E2 (survey §III): access-control management costs.
//!
//! Group creation, member addition, and member revocation per scheme, with
//! the survey's headline contrast: symmetric and CP-ABE revocation re-key
//! every remaining member *and* owe re-encryption of all stored history,
//! while PKE and IBBE revocation are free list edits.
//!
//! Then Frientegrity's "ACLs are PADs, making it possible to access in
//! logarithmic time" (§III-F): what an untrusted store must send, and a
//! verifier check, to prove one user listed or not, against a flat signed
//! roster of the same members.

use super::{all_schemes, member_names};
use crate::{wall, Run};
use dosn_core::identity::UserId;
use dosn_core::integrity::acl::{check_access, AccessLevel, OwnerAcl};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::error::CryptoError;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use dosn_crypto::sha256::Sha256;
use std::hint::black_box;

const GROUP: usize = 16;

pub(super) fn run(run: &mut Run) {
    // Every stored post is one IBBE broadcast to 16 recipients (~0.1 s).
    let history_posts = run.pick(100, 2);
    run.table(
        &format!("E2: revocation cost after {history_posts} posts in a {GROUP}-member group"),
        "scheme | key messages | re-keyed members | posts to re-encrypt",
    );
    for mut scheme in all_schemes(GROUP) {
        let g = scheme.create_group(&member_names(GROUP)).expect("group");
        for i in 0..history_posts {
            scheme
                .encrypt(&g, format!("post {i}").as_bytes())
                .expect("encrypt");
        }
        let cost = scheme.revoke_member(&g, "m3").expect("revoke");
        run.row(&[
            scheme.name().into(),
            cost.key_messages.into(),
            cost.rekeyed_members.into(),
            cost.posts_to_reencrypt.into(),
        ]);
    }

    run.table(
        &format!("E2: member-addition cost in a {GROUP}-member group"),
        "scheme | key messages | re-keyed members",
    );
    for mut scheme in all_schemes(GROUP + 1) {
        let g = scheme.create_group(&member_names(GROUP)).expect("group");
        let cost = scheme
            .add_member(&g, &format!("m{GROUP}"))
            .expect("add member");
        run.row(&[
            scheme.name().into(),
            cost.key_messages.into(),
            cost.rekeyed_members.into(),
        ]);
    }

    run.table("E2: membership operation timings", "operation | ns/op");
    for n in [4usize, 16, 64] {
        for mut scheme in all_schemes(n) {
            let names = member_names(n);
            let ns = run.time_ns(10, || {
                black_box(scheme.create_group(&names).expect("group"));
            });
            let label = format!("create_group/{}/{n}", scheme.name());
            run.row(&[label.into(), wall(ns, 0)]);
        }
    }
    for mut scheme in all_schemes(64) {
        // A fresh group per call (so each revocation is valid), built
        // outside the clock: one warm-up call and at most ten timed ones.
        let names = member_names(64);
        let mut groups: Vec<_> = (0..=10)
            .map(|_| scheme.create_group(&names).expect("group"))
            .collect();
        let ns = run.time_ns(10, || {
            let g = groups.pop().expect("a group per call");
            black_box(scheme.revoke_member(&g, "m1").expect("revoke"));
        });
        let label = format!("revoke_member/{}/64", scheme.name());
        run.row(&[label.into(), wall(ns, 0)]);
    }

    acl_proofs(run);
}

/// The flat design the ACL-as-PAD is measured against: the owner signs
/// the whole roster, so the proof of any lookup is every entry plus that
/// one signature, and a verifier hashes all of it.
struct SignedRoster {
    /// Sorted `(user, level)` entries.
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    signature: Signature,
}

impl SignedRoster {
    fn digest(entries: &[(Vec<u8>, Vec<u8>)]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"dosn.roster");
        for (user, level) in entries {
            for field in [user, level] {
                h.update(&(field.len() as u64).to_be_bytes());
                h.update(field);
            }
        }
        h.finalize()
    }

    fn sign(owner: &SigningKey, entries: Vec<(Vec<u8>, Vec<u8>)>, rng: &mut SecureRng) -> Self {
        let signature = owner.sign(&Self::digest(&entries), rng);
        SignedRoster { entries, signature }
    }

    /// Each field behind an 8-byte length, plus the signature.
    fn proof_bytes(&self, group: &SchnorrGroup) -> usize {
        let entries: usize = self
            .entries
            .iter()
            .map(|(u, l)| 16 + u.len() + l.len())
            .sum();
        entries + self.signature.size_bytes(group)
    }

    /// Checks the signature over the whole roster, then looks `user` up.
    fn is_listed(&self, owner: &VerifyingKey, user: &[u8]) -> Result<bool, CryptoError> {
        owner.verify(&Self::digest(&self.entries), &self.signature)?;
        Ok(self
            .entries
            .binary_search_by(|(u, _)| u.as_slice().cmp(user))
            .is_ok())
    }
}

/// Proof bytes and verify time for one member and one non-member, in an
/// access list of `n` readers, per design. The non-member sorts right
/// after the member, so its PAD proof is the two-neighbour kind. Building
/// the ACL signs once; each later `grant` would rehash every leaf.
fn acl_proofs(run: &mut Run) {
    run.table(
        "E2: access-list proof size and verify time vs group size",
        "members | design | member proof (B) | non-member proof (B) | verify member (ns) | verify non-member (ns)",
    );
    let group = SchnorrGroup::toy();
    let mut rng = SecureRng::seed_from_u64(0xAC1);
    let owner = SigningKey::generate(group.clone(), &mut rng);
    let key = owner.verifying_key();
    for &n in run.pick(&[2usize, 16, 256, 4096][..], &[2, 16, 256]) {
        let users: Vec<String> = (0..n).map(|i| format!("m{i:04}")).collect();
        let member = users[n / 2].clone();
        let outsider = format!("{member}x");
        let (member_id, outsider_id) = (
            UserId::from(member.as_str()),
            UserId::from(outsider.as_str()),
        );

        let acl = OwnerAcl::new(
            owner.clone(),
            users
                .iter()
                .map(|u| (u.as_str().into(), AccessLevel::Reader)),
            &mut rng,
        );
        let replica = acl.replica();
        let (member_proof, root) = replica.prove(&member_id);
        let (outsider_proof, _) = replica.prove(&outsider_id);
        let root_bytes = root.size_bytes(&group);
        let verify_member = run.time_ns(20, || {
            let level = check_access(key, &root, &member_id, &member_proof);
            assert_eq!(level.expect("valid proof"), Some(AccessLevel::Reader));
        });
        let verify_outsider = run.time_ns(20, || {
            let level = check_access(key, &root, &outsider_id, &outsider_proof);
            assert_eq!(level.expect("valid proof"), None);
        });
        run.row(&[
            n.into(),
            "acl-as-pad".into(),
            (member_proof.size_bytes() + root_bytes).into(),
            (outsider_proof.size_bytes() + root_bytes).into(),
            wall(verify_member, 0),
            wall(verify_outsider, 0),
        ]);

        let entries = users
            .iter()
            .map(|u| (u.as_bytes().to_vec(), b"reader".to_vec()))
            .collect();
        let roster = SignedRoster::sign(&owner, entries, &mut rng);
        let roster_bytes = roster.proof_bytes(&group);
        let verify_member = run.time_ns(20, || {
            assert!(roster.is_listed(key, member.as_bytes()).expect("signed"));
        });
        let verify_outsider = run.time_ns(20, || {
            assert!(!roster.is_listed(key, outsider.as_bytes()).expect("signed"));
        });
        run.row(&[
            n.into(),
            "signed-roster".into(),
            roster_bytes.into(),
            roster_bytes.into(),
            wall(verify_member, 0),
            wall(verify_outsider, 0),
        ]);
    }
}
