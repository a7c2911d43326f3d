//! The revocation contract at roster level: random join / revoke / re-join
//! / seal sequences drive the symmetric, PKE and IBBE group schemes side by
//! side against a model member → (joined, revoked) ledger and require
//! identical `members()` lists, revoke outcomes, and allow / `NotAuthorized`
//! verdicts from `decrypt_as` for every (member, sealed post) pair:
//!
//! * a member revoked at epoch *e* is refused every post sealed at epoch
//!   ≥ *e* and still opens posts sealed in `[joined, e)`;
//! * double-revoke and unknown-member revoke are `UnknownUser`;
//! * the one legitimate difference is pinned too: a member who joins during
//!   epoch *e* after a post was sealed in it holds the symmetric epoch key
//!   (reads it) but was never wrapped a per-recipient key (PKE/IBBE refuse).
//!
//! Failures print the per-case seed; replay with `PROPTEST_SEED=<seed>`.
//!
//! One engine-level case rides along: befriending a current friend must not
//! touch their membership, or they lose the epochs they already hold.

use dosn_core::engine::Engine;
use dosn_core::network::{ChordPlane, ReplicatedStore};
use dosn_core::privacy::{
    AccessScheme, GroupId, IbbeGroupScheme, PkeGroupScheme, SealedPost, SymmetricGroupScheme,
};
use dosn_core::DosnError;
use dosn_crypto::chacha::SecureRng;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The closed member universe; index `MEMBERS.len()` stands for a name no
/// scheme has ever seen.
const MEMBERS: &[&str] = &["ann", "ben", "cat", "dan"];
const GHOST: &str = "ghost";

#[derive(Debug, Clone)]
enum Step {
    Join(usize),
    Revoke(usize),
    Seal,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..MEMBERS.len()).prop_map(Step::Join),
        (0..MEMBERS.len() + 1).prop_map(Step::Revoke),
        Just(Step::Seal),
    ]
}

fn member(i: usize) -> &'static str {
    MEMBERS.get(i).copied().unwrap_or(GHOST)
}

/// One post sealed by all three schemes at the same point of the sequence,
/// with the model's active set at that point.
struct Sealed {
    epoch: u64,
    plaintext: Vec<u8>,
    recipients: Vec<String>,
    posts: Vec<SealedPost>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn three_schemes_keep_one_ledger(
        seed in 0u64..1_000_000,
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let mut rng = SecureRng::seed_from_u64(seed);
        let mut schemes: Vec<Box<dyn AccessScheme>> = vec![
            Box::new(SymmetricGroupScheme::new([9u8; 32])),
            Box::new(PkeGroupScheme::with_fresh_identities(MEMBERS, &mut rng)),
            Box::new(IbbeGroupScheme::with_test_pkg()),
        ];
        let founder = [MEMBERS[0].to_owned()];
        let groups: Vec<GroupId> = schemes
            .iter_mut()
            .map(|s| s.create_group(&founder).unwrap())
            .collect();

        // The model: member -> (joined epoch, revoked epoch).
        let mut ledger: BTreeMap<&str, (u64, Option<u64>)> = BTreeMap::new();
        ledger.insert(MEMBERS[0], (0, None));
        let mut epoch = 0u64;
        let mut sealed: Vec<Sealed> = Vec::new();

        for step in &steps {
            match *step {
                Step::Join(i) => {
                    for (s, g) in schemes.iter_mut().zip(&groups) {
                        prop_assert!(s.add_member(g, member(i)).is_ok(), "{} join", s.name());
                    }
                    ledger.insert(member(i), (epoch, None));
                }
                Step::Revoke(i) => {
                    let m = member(i);
                    let revocable = ledger.get(m).is_some_and(|(_, revoked)| revoked.is_none());
                    for (s, g) in schemes.iter_mut().zip(&groups) {
                        let outcome = s.revoke_member(g, m);
                        if revocable {
                            prop_assert!(outcome.is_ok(), "{} revoke {}: {:?}", s.name(), m, outcome);
                        } else {
                            prop_assert!(
                                matches!(outcome, Err(DosnError::UnknownUser(_))),
                                "{} double/unknown revoke of {}: {:?}", s.name(), m, outcome
                            );
                        }
                    }
                    if revocable {
                        epoch += 1;
                        ledger.insert(m, (ledger[m].0, Some(epoch)));
                    }
                }
                Step::Seal => {
                    let plaintext = format!("post {}", sealed.len()).into_bytes();
                    let mut posts = Vec::new();
                    for (s, g) in schemes.iter_mut().zip(&groups) {
                        let post = s.encrypt(g, &plaintext).unwrap();
                        prop_assert_eq!(post.epoch, epoch, "{} sealed at the wrong epoch", s.name());
                        posts.push(post);
                    }
                    sealed.push(Sealed { epoch, plaintext, recipients: active(&ledger), posts });
                }
            }
            let expected = active(&ledger);
            for (s, g) in schemes.iter().zip(&groups) {
                prop_assert_eq!(s.members(g), expected.clone(), "{} members", s.name());
            }
        }

        for post in &sealed {
            for reader in MEMBERS.iter().copied().chain([GHOST]) {
                let held = ledger.get(reader).is_some_and(|(joined, revoked)| {
                    *joined <= post.epoch && revoked.is_none_or(|r| post.epoch < r)
                });
                let was_recipient = post.recipients.iter().any(|r| r == reader);
                for ((s, g), sealed_post) in schemes.iter().zip(&groups).zip(&post.posts) {
                    let verdict = s.decrypt_as(g, reader, sealed_post);
                    if !held {
                        prop_assert!(
                            matches!(verdict, Err(DosnError::NotAuthorized(_))),
                            "{}: {} must be refused the epoch-{} post: {:?}",
                            s.name(), reader, post.epoch, verdict
                        );
                    } else if was_recipient || s.name() == "symmetric" {
                        prop_assert_eq!(
                            verdict.as_deref().ok(), Some(post.plaintext.as_slice()),
                            "{}: {} must open the epoch-{} post", s.name(), reader, post.epoch
                        );
                    } else {
                        // Joined mid-epoch after the seal: on the ledger,
                        // but no per-recipient key was ever wrapped.
                        prop_assert!(
                            verdict.is_err(),
                            "{}: late joiner {} opened a post sealed before joining",
                            s.name(), reader
                        );
                    }
                }
            }
        }
    }
}

fn active(ledger: &BTreeMap<&str, (u64, Option<u64>)>) -> Vec<String> {
    ledger
        .iter()
        .filter(|(_, (_, revoked))| revoked.is_none())
        .map(|(m, _)| (*m).to_owned())
        .collect()
}

#[test]
fn befriending_a_current_friend_keeps_their_older_posts() {
    // Re-adding bob to alice's roster would restart his membership at her
    // current epoch — 1, once carol's revocation has opened it — and lock
    // him out of the epoch-0 post he has been reading all along.
    let mut n = Engine::new(ReplicatedStore::new(ChordPlane::build(16, 5), 3), 5);
    for user in ["alice", "bob", "carol"] {
        n.register(user).unwrap();
    }
    n.befriend("alice", "bob", 0.9).unwrap();
    let seq = n.post("alice", "before carol").unwrap();
    n.befriend("alice", "carol", 0.9).unwrap();
    n.unfriend("alice", "carol").unwrap();
    n.befriend("alice", "bob", 0.9).unwrap();
    assert_eq!(n.read_post("bob", "alice", seq).unwrap(), "before carol");
    assert_eq!(n.friends("alice"), ["bob"]);
}
