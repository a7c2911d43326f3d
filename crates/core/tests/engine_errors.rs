//! Engine error-path coverage: commit failures must land as per-op
//! `Err(DosnError)` values in the right result slots — never panic, never
//! poison sibling ops — and failing batches must stay digest-deterministic.

use dosn_core::engine::{wall_key, BatchReport, Engine, OpBatch, OpOutput};
use dosn_core::feed::FeedItem;
use dosn_core::privacy::{
    AbeGroupScheme, AccessScheme, GroupId, MembershipCost, SealedPost, SymmetricGroupScheme,
};
use dosn_core::DosnError;
use dosn_crypto::CryptoError;
use dosn_obs::names;
use dosn_overlay::adversary::{AdversaryConfig, AdversaryMode, AdversaryPlane};
use dosn_overlay::arena::Holders;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::storage::{StorageError, StoragePlane};
use dosn_overlay::superpeer::SuperPeerPlane;
use std::sync::{Arc, Mutex, MutexGuard};

#[test]
fn every_replica_offline_rejects_writes_and_reads_but_not_registration() {
    let mut e = Engine::new(ReplicatedStore::new(ChordPlane::build(16, 7), 3), 7);
    for node in e.storage().plane().node_ids() {
        e.storage_mut().plane_mut().set_online(node, false);
    }
    let report = e.execute(
        OpBatch::new()
            .register("alice")
            .register("bob")
            .befriend("alice", "bob", 0.9)
            .post("alice", "into the void")
            .read_post("bob", "alice", 0),
    );

    // Registration and befriending are directory/roster work — no replica
    // placement involved — so a dark storage plane must not reject them.
    assert!(matches!(report.results[0], Ok(OpOutput::Registered)));
    assert!(matches!(report.results[1], Ok(OpOutput::Registered)));
    assert!(matches!(report.results[2], Ok(OpOutput::Befriended)));
    // The post finds no replica candidates; the read finds no copies.
    assert!(
        matches!(report.results[3], Err(DosnError::ContentUnavailable(_))),
        "post against a dark plane: {:?}",
        report.results[3]
    );
    assert!(
        matches!(report.results[4], Err(DosnError::ContentUnavailable(_))),
        "read against a dark plane: {:?}",
        report.results[4]
    );
    // Unavailable replicas are what the fail-closed counter is for.
    assert_eq!(e.obs().counter(names::ENGINE_READ_FAIL_CLOSED).get(), 1);
}

#[test]
fn a_refused_reader_is_not_a_fail_closed_read() {
    // Healthy replicas, a verifiable post — and a reader who is simply not
    // in the author's group. That refusal says nothing about the replicas.
    let mut e = Engine::new(ReplicatedStore::new(ChordPlane::build(16, 7), 3), 7);
    let report = e.execute(
        OpBatch::new()
            .register("alice")
            .register("bob")
            .register("mallory")
            .befriend("alice", "bob", 0.9)
            .post("alice", "friends only")
            .read_post("mallory", "alice", 0)
            .read_post("nobody", "alice", 0)
            .read_post("bob", "alice", 0),
    );
    assert!(
        matches!(report.results[5], Err(DosnError::NotAuthorized(_))),
        "a stranger's read: {:?}",
        report.results[5]
    );
    assert!(
        matches!(report.results[6], Err(DosnError::UnknownUser(_))),
        "an unregistered reader: {:?}",
        report.results[6]
    );
    assert!(matches!(report.results[7], Ok(OpOutput::Read { .. })));
    assert_eq!(e.obs().counter(names::ENGINE_READ_FAIL_CLOSED).get(), 0);
}

/// A plane wrapper that refuses replica placement for one key — the
/// engine-level analogue of the overlay's poisoned-entry test: one post's
/// responsible nodes are all gone, every other op must carry on.
#[derive(Debug)]
struct PoisonPlane {
    inner: ChordPlane,
    poisoned: Key,
}

impl StoragePlane for PoisonPlane {
    fn name(&self) -> &'static str {
        "poison"
    }
    fn holders(&self) -> &Holders {
        self.inner.holders()
    }
    fn holders_mut(&mut self) -> &mut Holders {
        self.inner.holders_mut()
    }
    fn set_online(&mut self, node: NodeId, online: bool) {
        self.inner.set_online(node, online);
    }
    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        if key == self.poisoned {
            return Err(StorageError::NoNodes);
        }
        self.inner.replica_candidates(key, want, metrics)
    }
    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        self.inner.store_at(node, key, value, metrics)
    }
    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.fetch_from(node, key, metrics)
    }
}

fn poisoned_engine() -> Engine<PoisonPlane> {
    let plane = PoisonPlane {
        inner: ChordPlane::build(24, 9),
        poisoned: wall_key("mallory", 0),
    };
    Engine::new(ReplicatedStore::new(plane, 3), 9)
}

fn poisoned_batch() -> OpBatch {
    OpBatch::new()
        .register("mallory")
        .register("alice")
        .befriend("mallory", "alice", 0.5)
        .post("mallory", "lost to the poison") // seq 0: its wall key is poisoned
        .post("alice", "alice speaks") // sibling in the same commit plan
        .post("mallory", "mallory recovers") // seq 1: clean key, must commit
        .read_post("alice", "mallory", 0) // the poisoned record: unreadable
        .read_post("alice", "mallory", 1) // the recovered record: readable
        .read_post("mallory", "alice", 0)
}

#[test]
fn poisoned_commit_entry_fails_alone_and_siblings_commit() {
    let mut e = poisoned_engine();
    let report = e.execute(poisoned_batch());

    assert!(matches!(report.results[0], Ok(OpOutput::Registered)));
    assert!(matches!(report.results[1], Ok(OpOutput::Registered)));
    assert!(matches!(report.results[2], Ok(OpOutput::Befriended)));
    assert!(
        matches!(report.results[3], Err(DosnError::ContentUnavailable(_))),
        "poisoned post must fail with a storage error: {:?}",
        report.results[3]
    );
    assert!(
        matches!(report.results[4], Ok(OpOutput::Posted { seq: 0 })),
        "sibling post must be untouched: {:?}",
        report.results[4]
    );
    assert!(
        matches!(report.results[5], Ok(OpOutput::Posted { seq: 1 })),
        "the author's next post uses a clean key: {:?}",
        report.results[5]
    );
    assert!(
        matches!(report.results[6], Err(DosnError::ContentUnavailable(_))),
        "reading the never-stored record: {:?}",
        report.results[6]
    );
    match &report.results[7] {
        Ok(OpOutput::Read { body }) => assert_eq!(body, "mallory recovers"),
        other => panic!("recovered post must decrypt: {other:?}"),
    }
    match &report.results[8] {
        Ok(OpOutput::Read { body }) => assert_eq!(body, "alice speaks"),
        other => panic!("sibling's post must decrypt: {other:?}"),
    }
}

#[test]
fn partially_failing_batches_stay_digest_deterministic() {
    // The digest folds error tags for failed ops and (key, record) pairs
    // for committed ones — both must repeat run for run even when the
    // commit phase is the thing failing.
    let run = || {
        let mut e = poisoned_engine();
        let d = e.execute(poisoned_batch()).digest_hex();
        let probe = e.execute(
            OpBatch::new()
                .read_post("mallory", "mallory", 1)
                .read_post("alice", "alice", 0),
        );
        assert!(probe.results.iter().all(Result::is_ok));
        d
    };
    assert_eq!(run(), run());
}

fn alice_posts_for_bob() -> OpBatch {
    OpBatch::new()
        .register("alice")
        .register("bob")
        .befriend("alice", "bob", 0.9)
        .post("alice", "signed and sealed")
}

#[test]
fn a_header_tampering_quorum_is_counted_fail_closed() {
    // The adversary plane's forgery flips the record's first eight bytes —
    // the epoch word, which the signed digest does not cover — so its copy
    // *passes* the signature. One such holder is outvoted; two or three
    // colluding ones win the vote and the read dies at key derivation. No
    // plaintext leaks either way, and the refusal must be counted.
    for f in 1..=3usize {
        let cfg = AdversaryConfig::new(11, f).with_mode(AdversaryMode::Tamper);
        let plane = AdversaryPlane::new(ChordPlane::build(24, 5), cfg);
        let mut e = Engine::new(ReplicatedStore::new(plane, 3), 5);
        assert!(e
            .execute(alice_posts_for_bob())
            .results
            .iter()
            .all(Result::is_ok));
        e.storage_mut().plane_mut().set_enabled(true);
        let read = e.execute(OpBatch::new().read_post("bob", "alice", 0));
        let fail_closed = e.obs().counter(names::ENGINE_READ_FAIL_CLOSED).get();
        if f == 1 {
            match &read.results[0] {
                Ok(OpOutput::Read { body }) => assert_eq!(body, "signed and sealed"),
                other => panic!("one tampering holder is outvoted: {other:?}"),
            }
            assert_eq!(e.metrics().count(names::GET_REPAIRS), 1);
            assert_eq!(fail_closed, 0);
        } else {
            assert!(
                matches!(read.results[0], Err(DosnError::Crypto(_))),
                "f={f}: a valid signature over the wrong epoch must not open: {:?}",
                read.results[0]
            );
            assert_eq!(fail_closed, 1, "f={f}");
        }
    }
}

/// An engine holding alice's post, after the first `forged` of its three
/// holders had one ciphertext byte flipped (a well-formed record whose
/// signature no longer verifies; the forgeries are byte-identical). Returns
/// the engine and the holders in placement order.
fn engine_with_forged_bodies(forged: usize) -> (Engine<ChordPlane>, Vec<NodeId>) {
    let mut e = Engine::new(ReplicatedStore::new(ChordPlane::build(24, 5), 3), 5);
    assert!(e
        .execute(alice_posts_for_bob())
        .results
        .iter()
        .all(Result::is_ok));
    let key = wall_key("alice", 0);
    let mut m = Metrics::new();
    let fetched = e.storage_mut().fetch_copies(key, &mut m).unwrap();
    for (node, copy) in fetched.copies.iter().take(forged) {
        let mut bytes = copy.clone().expect("every holder stores the post");
        *bytes.last_mut().unwrap() ^= 0x01;
        e.storage_mut()
            .plane_mut()
            .store_at(*node, key, &bytes, &mut m)
            .unwrap();
    }
    let holders = fetched.copies.iter().map(|(node, _)| *node).collect();
    (e, holders)
}

/// Reads alice's post after `forged` of its three holders were forged.
/// Returns the read's result, digest, and how often the read sampled
/// `crypto.schnorr.verify`.
fn read_with_forged_bodies(
    forged: usize,
    batch_verify: bool,
) -> (Result<OpOutput, DosnError>, String, u64) {
    let (mut e, _) = engine_with_forged_bodies(forged);
    e.set_batch_verify(batch_verify);
    let verify = e.obs().histogram(names::CRYPTO_SCHNORR_VERIFY);
    let before = verify.snapshot().count();
    let mut report = e.execute(OpBatch::new().read_post("bob", "alice", 0));
    let sampled = verify.snapshot().count() - before;
    let fail_closed = e.obs().counter(names::ENGINE_READ_FAIL_CLOSED).get();
    let repairs = e.metrics().count(names::GET_REPAIRS);
    if forged == 1 {
        assert_eq!((repairs, fail_closed), (1, 0));
    } else {
        assert_eq!((repairs, fail_closed), (0, 1), "forged={forged}");
    }
    let digest = report.digest_hex();
    (report.results.remove(0), digest, sampled)
}

#[test]
fn body_forging_replicas_never_serve_and_every_configuration_agrees() {
    for forged in 1..=3usize {
        let runs: Vec<_> = [true, false]
            .into_iter()
            .map(|batch| (batch, read_with_forged_bodies(forged, batch)))
            .collect();
        let (_, (result, digest, _)) = &runs[0];
        match (forged, result) {
            (1, Ok(OpOutput::Read { body })) => assert_eq!(body, "signed and sealed"),
            (2, Err(DosnError::ContentUnavailable(_))) => {}
            (3, Err(DosnError::IntegrityViolation(_))) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        for (batch, (other, other_digest, sampled)) in &runs {
            assert_eq!(
                format!("{other:?}"),
                format!("{result:?}"),
                "forged={forged}"
            );
            assert_eq!(other_digest, digest, "forged={forged}");
            // Batched, the read stakes on its strict plurality in the
            // combined check. With two forgers that plurality is the forged
            // value: it fails, and the vote then opens the honest copy in a
            // check of its own. Unbatched, the vote opens every value in one
            // sample.
            let want = if *batch && forged == 2 { 2 } else { 1 };
            assert_eq!(*sampled, want, "forged={forged} batch={batch}");
        }
    }
}

/// Authors in the one-batch read below, one post each.
const AUTHORS: usize = 32;
/// The author whose three holders all serve one forged record.
const FORGED: usize = 5;
/// The author whose post the hot cache serves poisoned.
const POISONED: usize = 20;

fn author(i: usize) -> String {
    format!("author{i:02}")
}

/// The read batch and what it sampled: every author's post read by
/// `reader` in one `execute`, after read `FORGED`'s three holders were
/// given one byte-identical forgery (a body byte flipped, so the record is
/// well-formed and its signature fails) and the hot cache was handed a
/// forgery of read `POISONED`'s record. Returns the report and how often
/// the read sampled `crypto.schnorr.verify`.
fn one_batch_with_a_forged_read(batch_verify: bool) -> (BatchReport, u64) {
    let mut e = Engine::new(ReplicatedStore::new(SuperPeerPlane::build(24, 4, 3), 3), 3);
    e.enable_hot_cache(64);
    e.set_batch_verify(batch_verify);
    let mut setup = OpBatch::new().register("reader");
    for i in 0..AUTHORS {
        setup = setup
            .register(&author(i))
            .befriend(&author(i), "reader", 0.9)
            .post(&author(i), &format!("post by {}", author(i)));
    }
    assert!(e.execute(setup).results.iter().all(Result::is_ok));
    let mut m = Metrics::new();
    let forge = |e: &mut Engine<SuperPeerPlane>, i: usize, m: &mut Metrics| {
        let fetched = e.storage_mut().fetch_copies(wall_key(&author(i), 0), m);
        let mut bytes = fetched.unwrap().copies[0].1.clone().unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        bytes
    };
    let forged = forge(&mut e, FORGED, &mut m);
    let key = wall_key(&author(FORGED), 0);
    for (node, _) in e.storage_mut().fetch_copies(key, &mut m).unwrap().copies {
        e.storage_mut()
            .plane_mut()
            .store_at(node, key, &forged, &mut m)
            .unwrap();
    }
    let poisoned = forge(&mut e, POISONED, &mut m);
    e.storage_mut()
        .plane_mut()
        .hot_cache_mut()
        .unwrap()
        .admit(wall_key(&author(POISONED), 0), &poisoned);

    let verify = e.obs().histogram(names::CRYPTO_SCHNORR_VERIFY);
    let before = verify.snapshot().count();
    let reads = (0..AUTHORS).fold(OpBatch::new(), |b, i| b.read_post("reader", &author(i), 0));
    let report = e.execute(reads);
    assert_eq!(
        e.metrics().count(names::CACHE_HITS),
        1,
        "only the poisoned entry"
    );
    assert_eq!(e.metrics().count(names::CACHE_INVALIDATIONS), 1);
    (report, verify.snapshot().count() - before)
}

#[test]
fn one_forged_read_inside_a_batch_fails_alone() {
    // Set batch verification off and every value is opened alone: the
    // baseline. Its 32 samples are one per read — the poisoned entry's
    // own open is untimed, its quorum retry is timed.
    let (baseline, sampled) = one_batch_with_a_forged_read(false);
    assert_eq!(sampled, AUTHORS as u64);
    let refusal = baseline.results[FORGED].as_ref().unwrap_err();
    assert!(
        matches!(refusal, DosnError::IntegrityViolation(_)),
        "{refusal:?}"
    );
    let (report, sampled) = one_batch_with_a_forged_read(true);
    for (i, result) in report.results.iter().enumerate() {
        match (i, result) {
            (FORGED, Err(e)) => assert_eq!(format!("{e:?}"), format!("{refusal:?}")),
            (_, Ok(OpOutput::Read { body })) if i != FORGED => {
                assert_eq!(*body, format!("post by {}", author(i)));
            }
            other => panic!("read {i}: {other:?}"),
        }
    }
    assert_eq!(report.digest, baseline.digest);
    // All 32 reads stake on one value each (the forged read's three copies
    // agree, so its failed stake leaves nothing else to open; the poisoned
    // read's is the cache entry), so one combined check covers them all,
    // and the poisoned read's quorum retry is one more.
    assert_eq!(sampled, 2);
}

#[test]
fn a_read_that_refuses_fetches_once_and_writes_nothing() {
    // Holders A and B serve the same forged record and C is dark, so an
    // empty substitute D joins the candidates. No copy verifies; the read
    // must name the defect from the copies it already fetched — a second,
    // trusting read would find A and B "agreeing" and repair the forgery
    // onto D.
    let (mut e, holders) = engine_with_forged_bodies(2);
    let key = wall_key("alice", 0);
    let mut m = Metrics::new();
    e.storage_mut().plane_mut().set_online(holders[2], false);
    let candidates = e.storage_mut().fetch_copies(key, &mut m).unwrap().copies;
    let (substitute, held) = candidates.last().cloned().unwrap();
    assert!(!holders.contains(&substitute));
    assert_eq!(held, None);

    let stored_before = e.storage().accounting().total_bytes();
    let asked_before = e.metrics().count(names::GET_QUORUM_SIZE);
    let read = e.execute(OpBatch::new().read_post("bob", "alice", 0));
    assert!(
        matches!(read.results[0], Err(DosnError::IntegrityViolation(_))),
        "{:?}",
        read.results[0]
    );
    assert_eq!(e.obs().counter(names::ENGINE_READ_FAIL_CLOSED).get(), 1);
    assert_eq!(e.metrics().count(names::GET_REPAIRS), 0);
    assert_eq!(e.storage().accounting().total_bytes(), stored_before);
    // One round of fetches: R candidates asked, once.
    assert_eq!(e.metrics().count(names::GET_QUORUM_SIZE) - asked_before, 3);
    let on_substitute = e
        .storage_mut()
        .plane_mut()
        .fetch_from(substitute, key, &mut m)
        .unwrap();
    assert_eq!(on_substitute, None, "the forgery reached the substitute");
}

/// The symmetric scheme behind a handle the test keeps: it reads the roster
/// from outside and arms the next call of one kind to fail.
#[derive(Clone)]
struct Flaky(Arc<Mutex<FlakyState>>);

struct FlakyState {
    inner: SymmetricGroupScheme,
    group: Option<GroupId>,
    fail_next: Option<&'static str>,
}

impl Flaky {
    fn new(master: u8) -> Self {
        Flaky(Arc::new(Mutex::new(FlakyState {
            inner: SymmetricGroupScheme::new([master; 32]),
            group: None,
            fail_next: None,
        })))
    }
    fn state(&self) -> MutexGuard<'_, FlakyState> {
        self.0.lock().unwrap()
    }
    /// The state — unless `call` is the one armed to fail.
    fn on(&self, call: &str) -> Result<MutexGuard<'_, FlakyState>, DosnError> {
        let mut state = self.state();
        if state.fail_next == Some(call) {
            state.fail_next = None;
            let refusal = CryptoError::Protocol(format!("this {call} fails"));
            return Err(DosnError::Crypto(refusal));
        }
        Ok(state)
    }
    fn fail_next(&self, call: &'static str) {
        self.state().fail_next = Some(call);
    }
    fn scheme(&self) -> Box<dyn AccessScheme> {
        Box::new(self.clone())
    }
    fn roster(&self) -> Vec<String> {
        let state = self.state();
        state.inner.members(state.group.as_ref().unwrap())
    }
}

impl AccessScheme for Flaky {
    fn name(&self) -> &'static str {
        self.state().inner.name()
    }
    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        let mut state = self.state();
        let group = state.inner.create_group(members)?;
        state.group = Some(group.clone());
        Ok(group)
    }
    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError> {
        self.on("encrypt")?.inner.encrypt(group, plaintext)
    }
    fn decrypt_as(&self, g: &GroupId, member: &str, p: &SealedPost) -> Result<Vec<u8>, DosnError> {
        self.state().inner.decrypt_as(g, member, p)
    }
    fn add_member(&mut self, group: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        self.on("add")?.inner.add_member(group, member)
    }
    fn revoke_member(&mut self, g: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        self.on("revoke")?.inner.revoke_member(g, member)
    }
    fn members(&self, group: &GroupId) -> Vec<String> {
        self.state().inner.members(group)
    }
}

fn chord16(seed: u64) -> Engine<ChordPlane> {
    Engine::new(ReplicatedStore::new(ChordPlane::build(16, seed), 3), seed)
}

#[test]
fn a_failed_seal_takes_no_sequence_number_and_the_feed_still_sees_the_wall() {
    // A post's sequence number is its position on the author's timeline:
    // `read_feed` plans wall keys from the timeline's length. A seal that
    // fails must therefore not consume a number — it used to, and from then
    // on the feed asked for keys one below the posts'.
    let mut n = chord16(23);
    let scheme = Flaky::new(9);
    scheme.fail_next("encrypt");
    n.register_with_scheme("alice", scheme.scheme()).unwrap();
    n.register("bob").unwrap();
    n.befriend("alice", "bob", 0.9).unwrap();
    // Every seal of an ABE author fails, after the encryption: its
    // ciphertexts have no storage wire form. Neither refusal takes a number
    // or stores a byte.
    n.register_with_scheme("carol", Box::new(AbeGroupScheme::new([9; 32])))
        .unwrap();
    let stored = n.storage().accounting().total_bytes();
    let refused = n.execute(
        OpBatch::new()
            .post("carol", "no wire")
            .post("carol", "nor this"),
    );
    for result in &refused.results {
        assert!(
            matches!(result, Err(DosnError::MalformedEnvelope(_))),
            "{result:?}"
        );
    }
    assert_eq!(n.timeline("carol").unwrap().entries().len(), 0);
    assert_eq!(n.storage().accounting().total_bytes(), stored);
    let posts = n.execute(OpBatch::new().post("alice", "lost").post("alice", "kept"));
    assert!(
        matches!(posts.results[0], Err(DosnError::Crypto(_))),
        "the failed op reports its own error: {:?}",
        posts.results[0]
    );
    assert!(matches!(posts.results[1], Ok(OpOutput::Posted { seq: 0 })));
    assert_eq!(n.timeline("alice").unwrap().entries().len(), 1);
    assert_eq!(n.read_post("bob", "alice", 0).unwrap(), "kept");
    let feed: Vec<(u64, String)> = n
        .read_feed("bob", 3)
        .unwrap()
        .into_iter()
        .map(|item| (item.seq, item.body))
        .collect();
    assert_eq!(feed, vec![(0, "kept".to_owned())]);
}

/// Alice and bob behind [`Flaky`] schemes, one post on alice's wall.
fn flaky_pair() -> (Engine<ChordPlane>, Flaky, Flaky) {
    let mut n = chord16(29);
    let (alice, bob) = (Flaky::new(1), Flaky::new(2));
    n.register_with_scheme("alice", alice.scheme()).unwrap();
    n.register_with_scheme("bob", bob.scheme()).unwrap();
    n.post("alice", "alice 0").unwrap();
    (n, alice, bob)
}

/// What a failed friendship op must leave alone: the friend lists the
/// engine reports and the rosters they are read from (alice's, bob's), and
/// bob's feed.
#[derive(Debug, PartialEq)]
struct FriendshipView {
    friends: [Vec<String>; 2],
    rosters: [Vec<String>; 2],
    bob_feed: Vec<FeedItem>,
}

fn friendship_view(n: &mut Engine<ChordPlane>, alice: &Flaky, bob: &Flaky) -> FriendshipView {
    FriendshipView {
        friends: [n.friends("alice"), n.friends("bob")],
        rosters: [alice.roster(), bob.roster()],
        bob_feed: n.read_feed("bob", 3).unwrap(),
    }
}

/// Alice posts; returns bob's attempt to read it.
fn bob_reads_a_new_post(n: &mut Engine<ChordPlane>) -> Result<OpOutput, DosnError> {
    let seq = n.post("alice", "news").unwrap();
    let mut read = n.execute(OpBatch::new().read_post("bob", "alice", seq));
    read.results.remove(0)
}

#[test]
fn a_failed_befriend_leaves_both_rosters_and_the_retry_lands() {
    let (mut n, alice, bob) = flaky_pair();
    let before = friendship_view(&mut n, &alice, &bob);
    assert!(before.friends.iter().all(Vec::is_empty) && before.bob_feed.is_empty());

    // Alice takes bob in; bob's scheme then refuses alice.
    bob.fail_next("add");
    let refused = n.befriend("alice", "bob", 0.9);
    assert!(matches!(refused, Err(DosnError::Crypto(_))));
    assert_eq!(friendship_view(&mut n, &alice, &bob), before);

    n.befriend("alice", "bob", 0.9).unwrap();
    let after = friendship_view(&mut n, &alice, &bob);
    assert_eq!(after.friends, [["bob"], ["alice"]]);
    assert_eq!(after.rosters, [["alice", "bob"], ["alice", "bob"]]);
    let read = bob_reads_a_new_post(&mut n);
    assert!(matches!(read, Ok(OpOutput::Read { .. })), "{read:?}");
}

#[test]
fn a_failed_unfriend_keeps_the_refused_side_and_the_retry_completes_it() {
    // `(a, b)` is the order `unfriend` is called in. Alice's revocation is
    // the one that fails: called alice-first nothing has moved yet, called
    // bob-first bob's side is already done and the retry must skip it.
    for (a, b) in [("alice", "bob"), ("bob", "alice")] {
        let (mut n, alice, bob) = flaky_pair();
        n.befriend("alice", "bob", 0.9).unwrap();
        let before = friendship_view(&mut n, &alice, &bob);
        assert!(before.friends == [["bob"], ["alice"]] && before.bob_feed.len() == 1);

        alice.fail_next("revoke");
        assert!(matches!(n.unfriend(a, b), Err(DosnError::Crypto(_))));
        let failed = friendship_view(&mut n, &alice, &bob);
        if a == "alice" {
            assert_eq!(failed, before);
        } else {
            // Bob's side is revoked and alice's refused: her roster still
            // lists bob, his own roster (and so his feed) no longer lists her.
            assert_eq!(
                failed.rosters,
                [before.rosters[0].clone(), vec!["bob".to_owned()]]
            );
            assert_eq!(failed.friends, [vec!["bob"], vec![]]);
            assert!(failed.bob_feed.is_empty());
        }

        n.unfriend(a, b).unwrap();
        let apart = friendship_view(&mut n, &alice, &bob);
        assert!(apart.friends.iter().all(Vec::is_empty) && apart.bob_feed.is_empty());
        assert_eq!(apart.rosters, [["alice"], ["bob"]]);
        let read = bob_reads_a_new_post(&mut n);
        assert!(matches!(read, Err(DosnError::NotAuthorized(_))), "{read:?}");
    }
}
