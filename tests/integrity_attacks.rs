//! Attack-matrix integration tests for the §IV integrity layer: every row
//! of the survey's party-invitation scenario, played out by an active
//! adversary, must be caught by the corresponding mechanism.

use dosn::core::engine::{wall_key, Engine, OpBatch};
use dosn::core::identity::{Identity, UserId};
use dosn::core::integrity::envelope::SignedEnvelope;
use dosn::core::integrity::history::{HistoryClient, HistoryServer, Operation};
use dosn::core::integrity::relations::{CommentAttachment, PostRelationKeys};
use dosn::core::integrity::timeline::{ExternalRef, Timeline, TimelineEntry};
use dosn::core::network::{ChordPlane, ReplicatedStore};
use dosn::core::DosnError;
use dosn::crypto::aead::SymmetricKey;
use dosn::crypto::chacha::SecureRng;
use dosn::crypto::group::{GroupSize, SchnorrGroup};
use dosn::crypto::keys::KeyDirectory;
use dosn::overlay::metrics::Metrics;

struct World {
    bob: Identity,
    alice: Identity,
    mallory: Identity,
    dir: KeyDirectory,
    rng: SecureRng,
}

fn world() -> World {
    let mut rng = SecureRng::seed_from_u64(2023);
    let dir = KeyDirectory::new();
    World {
        bob: Identity::create("bob", SchnorrGroup::toy(), &dir, &mut rng),
        alice: Identity::create("alice", SchnorrGroup::toy(), &dir, &mut rng),
        mallory: Identity::create("mallory", SchnorrGroup::toy(), &dir, &mut rng),
        dir,
        rng,
    }
}

#[test]
fn owner_integrity_forged_sender_caught() {
    let mut w = world();
    // Mallory writes an invitation and claims Bob sent it.
    let mut env = SignedEnvelope::seal(
        &w.mallory,
        Some("alice".into()),
        0,
        10,
        None,
        b"Come to my party held at my home on Friday",
        &mut w.rng,
    );
    env.author = UserId::from("bob");
    assert!(env.verify(&w.dir, Some(&"alice".into()), 20).is_err());
}

#[test]
fn content_integrity_modified_invitation_caught() {
    let mut w = world();
    let mut env = SignedEnvelope::seal(
        &w.bob,
        Some("alice".into()),
        0,
        10,
        None,
        b"party on Friday",
        &mut w.rng,
    );
    env.body = b"party on Saturday, bring money".to_vec();
    assert!(env.verify(&w.dir, Some(&"alice".into()), 20).is_err());
}

#[test]
fn historical_integrity_expired_invitation_caught() {
    let mut w = world();
    let env = SignedEnvelope::seal(
        &w.bob,
        Some("alice".into()),
        0,
        10,
        Some(100), // valid until Friday
        b"party this week",
        &mut w.rng,
    );
    // Replaying last week's invitation for this week's party fails.
    assert!(env.verify(&w.dir, Some(&"alice".into()), 150).is_err());
    env.verify(&w.dir, Some(&"alice".into()), 50).unwrap();
}

#[test]
fn relation_integrity_invitation_for_someone_else_caught() {
    let mut w = world();
    // Bob invites Carol; Mallory forwards the letter to Alice instead.
    let env = SignedEnvelope::seal(
        &w.bob,
        Some("carol".into()),
        0,
        10,
        None,
        b"you are invited",
        &mut w.rng,
    );
    assert!(matches!(
        env.verify(&w.dir, Some(&"alice".into()), 20),
        Err(DosnError::IntegrityViolation(_))
    ));
}

#[test]
fn timeline_reorder_and_injection_caught() {
    let mut w = world();
    let mut t = Timeline::new(w.bob.id().clone());
    for i in 0..5 {
        t.append(&w.bob, format!("b{i}").as_bytes(), vec![], &mut w.rng);
    }
    t.verify(&w.dir).unwrap();

    // A storage node re-orders two posts.
    let mut reordered = Timeline::from_entries(w.bob.id().clone(), {
        let mut e = t.entries().to_vec();
        e.swap(2, 3);
        e
    });
    assert!(reordered.verify(&w.dir).is_err());

    // Mallory injects her own entry into Bob's chain.
    let mut tm = Timeline::new(w.mallory.id().clone());
    tm.append(&w.mallory, b"spam", vec![], &mut w.rng);
    let mut injected = t.entries().to_vec();
    injected.push(tm.entries()[0].clone());
    reordered = Timeline::from_entries(w.bob.id().clone(), injected);
    assert!(reordered.verify(&w.dir).is_err());
}

/// An engine on which bob has posted `bodies`, in order, with alice as his
/// friend. Two engines at one seed hold the same keys and, for a common
/// prefix of posts, the same stored records.
fn bob_posts(bodies: &[&str]) -> Engine<ChordPlane> {
    let mut e = Engine::new(ReplicatedStore::new(ChordPlane::build(16, 7), 3), 7);
    let setup = OpBatch::new()
        .register("bob")
        .register("alice")
        .befriend("bob", "alice", 0.9);
    let setup = bodies.iter().fold(setup, |b, body| b.post("bob", body));
    assert!(e.execute(setup).results.iter().all(Result::is_ok));
    e
}

/// Bob's post `seq` as the replicas store it, decoded as a record of his
/// and nothing more: no engine state, no key.
fn stored_record(e: &mut Engine<ChordPlane>, seq: u64) -> TimelineEntry {
    let bytes = e
        .storage_mut()
        .get(wall_key("bob", seq), &mut Metrics::new())
        .unwrap();
    let group = SchnorrGroup::shared(GroupSize::Toy);
    SignedEnvelope::decode_wire(&"bob".into(), seq, &bytes, &group)
        .unwrap()
        .0
}

/// The records the replicas store are the author's timeline: decoded one by
/// one with `decode_wire`, they rebuild a chain `Timeline::verify` accepts,
/// under one signature per record. A holder that swaps two records, or
/// serves a record of a fork the author rolled back, breaks it — though
/// each such record still verifies alone.
///
/// At commit 1b02ace the same stored bytes carried no link: a stored record
/// was signed over its own fields only, and the chain's `prev_hash` lived
/// in the author's engine under a second signature no reader saw.
#[test]
fn stored_records_rebuild_a_chain_that_catches_swaps_and_forks() {
    let mut live = bob_posts(&["p0", "p1", "p2", "p3"]);
    // The author published two other posts after p1, then rolled back.
    let mut fork = bob_posts(&["p0", "p1", "withdrawn p2", "withdrawn p3"]);
    let records: Vec<TimelineEntry> = (0..4).map(|seq| stored_record(&mut live, seq)).collect();
    let forked: Vec<TimelineEntry> = (0..4).map(|seq| stored_record(&mut fork, seq)).collect();
    let dir = live.directory();
    let chain = |entries: Vec<TimelineEntry>| Timeline::from_entries("bob".into(), entries);

    let rebuilt = chain(records.clone());
    rebuilt.verify(dir).unwrap();
    assert_eq!(
        rebuilt.head_hash(),
        live.timeline("bob").unwrap().head_hash(),
        "the stored chain is the author's"
    );

    let mut swapped = records.clone();
    swapped.swap(1, 2);
    assert!(matches!(
        chain(swapped).verify(dir),
        Err(DosnError::IntegrityViolation(_))
    ));

    // Same prefix, then a different branch signed with bob's own key.
    assert_eq!(forked[1].hash(), records[1].hash());
    assert_ne!(forked[2].hash(), records[2].hash());
    for (at, record) in [(2, &forked[2]), (3, &forked[3])] {
        record.verify(dir, None, u64::MAX - 1).unwrap();
        let mut served = records.clone();
        served[at] = record.clone();
        assert!(
            matches!(
                chain(served).verify(dir),
                Err(DosnError::IntegrityViolation(_))
            ),
            "fork record {at} accepted"
        );
    }
}

#[test]
fn cross_timeline_order_proven_and_forgery_caught() {
    let mut w = world();
    let mut tb = Timeline::new(w.bob.id().clone());
    let mut ta = Timeline::new(w.alice.id().clone());
    tb.append(&w.bob, b"bob's announcement", vec![], &mut w.rng);
    let bref = tb.head_ref().unwrap();
    ta.append(&w.alice, b"alice's reply", vec![bref.clone()], &mut w.rng);
    assert_eq!(ta.verify_entanglement(&tb).unwrap(), 1);

    // Mallory fabricates a timeline claiming to predate Bob's announcement
    // — but she cannot produce a reference to an entry that never existed.
    let mut tm = Timeline::new(w.mallory.id().clone());
    tm.append(
        &w.mallory,
        b"i knew first",
        vec![ExternalRef {
            author: w.bob.id().clone(),
            sequence: 5,
            hash: [7; 32],
        }],
        &mut w.rng,
    );
    assert!(tm.verify_entanglement(&tb).is_err());
}

#[test]
fn equivocating_provider_caught_via_gossip_chain() {
    // Full Frientegrity scenario over three clients with transitive gossip:
    // alice <-> bob agree, bob <-> carol expose the fork even though alice
    // and carol never talk directly.
    let mut server = HistoryServer::new(SchnorrGroup::toy(), 3);
    server.append("wall", Operation::new("bob", "base"));
    let branch = server.fork("wall");
    server
        .append_to_branch("wall", 0, Operation::new("bob", "A"))
        .unwrap();
    server
        .append_to_branch("wall", branch, Operation::new("bob", "B"))
        .unwrap();

    let mut alice = HistoryClient::new("alice", "wall", server.verifying_key().clone());
    let mut bob = HistoryClient::new("bob", "wall", server.verifying_key().clone());
    let mut carol = HistoryClient::new("carol", "wall", server.verifying_key().clone());
    let (l, d) = server.view("wall", 0).unwrap();
    alice.observe(l, d).unwrap();
    let (l, d) = server.view("wall", 0).unwrap();
    bob.observe(l, d).unwrap();
    let (l, d) = server.view("wall", branch).unwrap();
    carol.observe(l, d).unwrap();

    alice.cross_check(bob.digest().unwrap()).unwrap(); // same branch: fine
    let err = bob.cross_check(carol.digest().unwrap()).unwrap_err();
    assert!(matches!(err, DosnError::ForkDetected(_)));
}

#[test]
fn comment_spam_from_unprivileged_user_caught() {
    let mut w = world();
    let commenters = SymmetricKey::generate(&mut w.rng);
    let post = PostRelationKeys::create(
        "bob/party-post",
        SchnorrGroup::toy(),
        &commenters,
        &mut w.rng,
    );

    // Mallory has no commenters key: cannot even create.
    let mallory_key = SymmetricKey::generate(&mut w.rng);
    assert!(CommentAttachment::create(
        &post,
        &mallory_key,
        "mallory".into(),
        b"buy my stuff",
        &mut w.rng
    )
    .is_err());

    // Alice comments legitimately; Mallory re-targets the comment to a
    // different post — caught.
    let alice_comment = CommentAttachment::create(
        &post,
        &commenters,
        "alice".into(),
        b"see you there!",
        &mut w.rng,
    )
    .unwrap();
    post.verify_comment(&alice_comment).unwrap();
    let other_post =
        PostRelationKeys::create("bob/other", SchnorrGroup::toy(), &commenters, &mut w.rng);
    let mut moved = alice_comment.clone();
    moved.post_id = "bob/other".into();
    assert!(other_post.verify_comment(&moved).is_err());
}
