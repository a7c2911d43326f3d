//! Feed/caching-plane integrity suite: caching may only ever change
//! latency, never results.
//!
//! * Randomized interleavings of registers / befriends / posts / comments /
//!   reads must produce **byte-identical batch digests** with the caching
//!   hierarchy on or off (the zero-tolerance CI headline of E16).
//! * An append by the author carries a reader's slice: the posts it holds
//!   stay hits, only the new post is fetched — and no interleaving ever
//!   serves a body the author did not post at that sequence number.
//! * The cache never holds more posts than its capacity, whatever the key
//!   stream, and sheds the least recently used slices first.
//! * A tampered hot-cache entry must be rejected exactly like a tampered
//!   replica: verified away when good replicas exist, the same typed error
//!   when they don't.
//! * `read_feed` on a user with zero friends returns an empty feed.
//! * The hot cache engages under every plane composition, a wrapper that
//!   writes only the trait's required methods included, and federation
//!   pods keep none.

use dosn_core::engine::{wall_key, Engine, Op, OpBatch, OpOutput};
use dosn_core::feed::FeedCache;
use dosn_core::identity::UserId;
use dosn_core::DosnError;
use dosn_obs::names;
use dosn_overlay::adversary::{AdversaryConfig, AdversaryPlane};
use dosn_overlay::arena::Holders;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::federation::FederationPlane;
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::kademlia::KademliaPlane;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::placement::{SocialPlacement, SocialPlane};
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::social::{SocialGraph, SocialGraphConfig};
use dosn_overlay::storage::{StorageError, StoragePlane};
use dosn_overlay::superpeer::SuperPeerPlane;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn engine(seed: u64) -> Engine<ChordPlane> {
    Engine::new(ReplicatedStore::new(ChordPlane::build(24, seed), 3), seed)
}

/// E18's placement stack: the ring behind social placement.
fn social_plane(seed: u64) -> SocialPlane<ChordPlane> {
    let ring = ChordPlane::build(24, seed);
    let graph = SocialGraph::generate(&SocialGraphConfig::new(24, seed));
    let placement = SocialPlacement::new(graph, &ring.node_ids());
    SocialPlane::new(ring, placement)
}

fn cached<S: StoragePlane>(mut e: Engine<S>, capacity: usize) -> Engine<S> {
    e.enable_feed_cache(capacity);
    e.enable_hot_cache(capacity);
    e
}

/// Runs `ops` in chunks through a cache-off and a fully cached engine over
/// the same plane, then the reads once more (now warm), requiring every
/// batch digest to agree.
fn digests_agree<S: StoragePlane>(
    mut plain: Engine<S>,
    mut cached: Engine<S>,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for chunk in ops.chunks(6) {
        let r_plain = plain.execute(OpBatch::from_ops(chunk.to_vec()));
        let r_cached = cached.execute(OpBatch::from_ops(chunk.to_vec()));
        prop_assert_eq!(
            r_plain.digest_hex(),
            r_cached.digest_hex(),
            "cache changed a batch digest"
        );
    }
    let reads: Vec<Op> = ops
        .iter()
        .filter(|o| matches!(o, Op::ReadPost { .. }))
        .cloned()
        .collect();
    if !reads.is_empty() {
        let r_plain = plain.execute(OpBatch::from_ops(reads.clone()));
        let r_cached = cached.execute(OpBatch::from_ops(reads));
        prop_assert_eq!(r_plain.digest_hex(), r_cached.digest_hex());
    }
    Ok(())
}

const NAMES: &[&str] = &["alice", "bob", "carol", "dave"];

fn name() -> impl Strategy<Value = String> {
    (0..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

/// Read-heavy op mix (the read arm repeats so the cache actually serves;
/// the vendored proptest's `prop_oneof!` has no weight syntax).
fn op() -> impl Strategy<Value = Op> {
    let read = || {
        (name(), name(), 0u64..4).prop_map(|(reader, author, seq)| Op::ReadPost {
            reader,
            author,
            seq,
        })
    };
    prop_oneof![
        name().prop_map(|name| Op::Register { name }),
        (name(), name()).prop_map(|(a, b)| Op::Befriend { a, b, trust: 0.9 }),
        (name(), 0u32..100).prop_map(|(author, i)| Op::Post {
            author,
            body: format!("body {i}"),
        }),
        (name(), 0u32..100).prop_map(|(author, i)| Op::Post {
            author,
            body: format!("body {i}"),
        }),
        (name(), name(), 0u64..4, 0u32..100).prop_map(|(commenter, author, seq, i)| {
            Op::Comment {
                commenter,
                author,
                seq,
                body: format!("comment {i}"),
            }
        }),
        read(),
        read(),
        read(),
        read(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The tentpole invariant, as a property: for any interleaving split
    /// across batches, every batch digest is byte-identical between a
    /// cache-off engine and one running the full caching hierarchy with a
    /// deliberately tiny capacity (so invalidations and evictions fire) —
    /// over the bare ring and over the ring behind social placement.
    #[test]
    fn cache_on_and_off_produce_identical_digests(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(op(), 4..48),
    ) {
        digests_agree(engine(seed), cached(engine(seed), 4), &ops)?;
        let social = || Engine::new(ReplicatedStore::new(social_plane(seed), 3), seed);
        digests_agree(social(), cached(social(), 4), &ops)?;
    }

    /// No interleaving may serve a read whose body differs from what the
    /// author actually posted at that sequence number — in particular, a
    /// cached slice carried across an author append must answer only for
    /// the posts it holds, never serve around the newer chain head.
    #[test]
    fn cached_reads_never_serve_stale_or_wrong_bodies(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(op(), 8..48),
    ) {
        let mut e = cached(engine(seed), 4);
        let mut posted: BTreeMap<(String, u64), String> = BTreeMap::new();
        for chunk in ops.chunks(5) {
            let report = e.execute(OpBatch::from_ops(chunk.to_vec()));
            // Posts execute before reads within a batch regardless of
            // submission order, so record the whole chunk's posts first.
            for (op, result) in chunk.iter().zip(&report.results) {
                if let (Op::Post { author, body }, Ok(OpOutput::Posted { seq })) = (op, result) {
                    posted.insert((author.clone(), *seq), body.clone());
                }
            }
            for (op, result) in chunk.iter().zip(&report.results) {
                if let (Op::ReadPost { author, seq, .. }, Ok(OpOutput::Read { body })) =
                    (op, result)
                {
                    let expected = posted.get(&(author.clone(), *seq));
                    prop_assert_eq!(
                        Some(body),
                        expected,
                        "read served a body the author never posted at {}/{}",
                        author,
                        seq
                    );
                }
            }
        }
    }
}

#[test]
fn an_append_carries_the_slice() {
    // L1 only, so every L1 miss is a quorum read and shows as one sample.
    let mut e = engine(11);
    e.enable_feed_cache(64);
    e.execute(
        OpBatch::new()
            .register("alice")
            .register("bob")
            .befriend("alice", "bob", 0.9)
            .post("alice", "first"),
    );
    // Warm the slice, then verify it serves from cache.
    e.execute(OpBatch::new().read_post("bob", "alice", 0));
    let warm = e.execute(OpBatch::new().read_post("bob", "alice", 0));
    assert!(matches!(&warm.results[0], Ok(OpOutput::Read { body }) if body == "first"));
    assert_eq!(e.feed_cache().unwrap().stats().hits, 1);

    // The author appends: the slice's witness is no longer the head, but it
    // is still on the chain, so the slice keeps the post it proved and only
    // the new post goes to a quorum.
    e.execute(OpBatch::new().post("alice", "second"));
    let before = e.feed_cache().unwrap().stats();
    let quorum_reads =
        |e: &Engine<ChordPlane>| e.obs().snapshot().histograms[names::STORE_GET_QUORUM].count();
    let quorum_reads_before = quorum_reads(&e);
    let after = e.execute(
        OpBatch::new()
            .read_post("bob", "alice", 0)
            .read_post("bob", "alice", 1),
    );
    assert!(matches!(&after.results[0], Ok(OpOutput::Read { body }) if body == "first"));
    assert!(matches!(&after.results[1], Ok(OpOutput::Read { body }) if body == "second"));
    let stats = e.feed_cache().unwrap().stats();
    assert_eq!(stats.hits, before.hits + 1, "post 0 is served by the slice");
    assert_eq!(stats.misses, before.misses + 1, "post 1 is new to it");
    assert_eq!(
        stats.invalidations, before.invalidations,
        "an append is not a fork"
    );
    assert_eq!(quorum_reads(&e), quorum_reads_before + 1);
    // The refill joined the carried slice: both posts now hit.
    e.execute(
        OpBatch::new()
            .read_post("bob", "alice", 0)
            .read_post("bob", "alice", 1),
    );
    assert_eq!(e.feed_cache().unwrap().stats().hits, stats.hits + 2);
    assert_eq!(e.feed_cache().unwrap().len(), 2);
}

#[test]
fn the_cache_stays_within_its_capacity_and_keeps_what_is_touched() {
    // 4 x capacity distinct posts stream through while two hot posts are
    // re-read between them: the cache never exceeds its capacity, evicts
    // exactly the overflow, and the victims are never the hot slice's posts.
    const CAPACITY: usize = 16;
    let head = [5u8; 32];
    let mut cache = FeedCache::new(CAPACITY);
    let (reader, author) = (UserId::from("hot reader"), UserId::from("hot author"));
    for seq in 0..2 {
        cache.insert(&reader, &author, seq, head, format!("hot {seq}"));
    }
    let mut inserts = 2;
    for i in 0..4 * CAPACITY as u64 {
        // Distinct keys of every shape: new readers, new authors of a known
        // reader, and further posts of a known slice.
        let r = UserId::from(format!("r{}", i % 7));
        let a = UserId::from(format!("a{}", i % 5));
        cache.insert(&r, &a, i, head, format!("cold {i}"));
        inserts += 1;
        assert!(cache.len() <= CAPACITY, "after insert {i}");
        for seq in 0..2 {
            let hit = cache.lookup(&reader, &author, seq, head);
            assert_eq!(hit, Some(format!("hot {seq}")), "after insert {i}");
        }
    }
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(cache.stats().evictions, inserts - CAPACITY as u64);
    assert_eq!(cache.stats().invalidations, 0);
}

#[test]
fn tampered_hot_cache_entry_falls_back_to_quorum_and_heals() {
    // Super-peers host every verified envelope, so the second read is
    // guaranteed to come from the hot cache — which we then poison.
    let mut e = Engine::new(ReplicatedStore::new(SuperPeerPlane::build(24, 4, 5), 3), 5);
    e.enable_hot_cache(64);
    e.execute(
        OpBatch::new()
            .register("alice")
            .register("bob")
            .befriend("alice", "bob", 0.9)
            .post("alice", "authentic"),
    );
    let key = wall_key("alice", 0);
    // First read populates the cache from the verified quorum winner.
    e.execute(OpBatch::new().read_post("bob", "alice", 0));
    assert!(
        e.storage()
            .plane()
            .hot_cache()
            .is_some_and(|c| !c.is_empty()),
        "verified read must seed the hot cache"
    );
    let hits_before = e.metrics().count("cache.hits");

    // Poison the cached envelope in place.
    e.storage_mut()
        .plane_mut()
        .hot_cache_mut()
        .unwrap()
        .admit(key, b"forged envelope bytes");

    // The read still succeeds — the forged entry fails verification, is
    // invalidated, and the quorum path serves the authentic record.
    let report = e.execute(OpBatch::new().read_post("bob", "alice", 0));
    assert!(matches!(&report.results[0], Ok(OpOutput::Read { body }) if body == "authentic"));
    assert!(e.metrics().count("cache.hits") > hits_before);
    assert!(
        e.metrics().count("cache.invalidations") >= 1,
        "the poisoned entry must be invalidated"
    );

    // And the retry re-admitted the authentic winner: the next read is a
    // cache hit serving the real body.
    let healed = e.execute(OpBatch::new().read_post("bob", "alice", 0));
    assert!(matches!(&healed.results[0], Ok(OpOutput::Read { body }) if body == "authentic"));
}

#[test]
fn tampered_cache_and_replicas_error_exactly_like_uncached() {
    // When the cache AND every replica hold garbage, the cached engine
    // must report the same typed error an uncached engine does.
    let run = |cache: bool| -> DosnError {
        let mut e = Engine::new(ReplicatedStore::new(SuperPeerPlane::build(24, 4, 9), 3), 9);
        if cache {
            e.enable_hot_cache(64);
        }
        e.execute(
            OpBatch::new()
                .register("alice")
                .register("bob")
                .befriend("alice", "bob", 0.9)
                .post("alice", "doomed"),
        );
        e.execute(OpBatch::new().read_post("bob", "alice", 0)); // warm, if caching
        let key = wall_key("alice", 0);
        let mut m = Metrics::new();
        e.storage_mut()
            .put(key, b"not an envelope".to_vec(), &mut m)
            .unwrap();
        if let Some(c) = e.storage_mut().plane_mut().hot_cache_mut() {
            c.admit(key, b"not an envelope");
        }
        let report = e.execute(OpBatch::new().read_post("bob", "alice", 0));
        report.results[0].clone().unwrap_err()
    };
    let uncached = run(false);
    let cached = run(true);
    assert!(matches!(uncached, DosnError::MalformedEnvelope(_)));
    assert_eq!(
        std::mem::discriminant(&uncached),
        std::mem::discriminant(&cached),
        "cached error {cached:?} differs from uncached {uncached:?}"
    );
}

/// Posts a dozen envelopes, reads each once (a DHT's seeded coin admits
/// about half, a super-peer all), then reads them all again: every admitted key must be
/// served by the cache and take no quorum read.
fn l2_engages<S: StoragePlane>(plane: S, stack: &str) {
    const POSTS: u64 = 12;
    let mut e = Engine::new(ReplicatedStore::new(plane, 3), 5);
    e.enable_hot_cache(64);
    let mut setup = OpBatch::new()
        .register("alice")
        .register("bob")
        .befriend("alice", "bob", 0.9);
    let mut reads = OpBatch::new();
    for seq in 0..POSTS {
        setup = setup.post("alice", &format!("post {seq}"));
        reads = reads.read_post("bob", "alice", seq);
    }
    assert!(e.execute(setup).results.iter().all(Result::is_ok));
    assert!(e.execute(reads.clone()).results.iter().all(Result::is_ok));
    let admitted = e
        .storage()
        .plane()
        .hot_cache()
        .unwrap_or_else(|| panic!("{stack}: enable_hot_cache did not reach the ring"))
        .len() as u64;
    assert!(admitted > 0, "{stack}: verified reads must seed the cache");

    let quorum = e.obs().histogram(names::STORE_GET_QUORUM);
    let quorum_before = quorum.snapshot().count();
    assert!(e.execute(reads).results.iter().all(Result::is_ok));
    assert_eq!(e.metrics().count(names::CACHE_HITS), admitted, "{stack}");
    assert_eq!(
        quorum.snapshot().count() - quorum_before,
        POSTS - admitted,
        "{stack}: an admitted key must not be read through the quorum again"
    );
}

/// A third-party wrapper that writes only the trait's required methods:
/// the hot cache must reach its inner plane all the same.
#[derive(Debug)]
struct Minimal<P>(P);

impl<P: StoragePlane> StoragePlane for Minimal<P> {
    fn name(&self) -> &'static str {
        "minimal"
    }
    fn holders(&self) -> &Holders {
        self.0.holders()
    }
    fn holders_mut(&mut self) -> &mut Holders {
        self.0.holders_mut()
    }
    fn set_online(&mut self, node: NodeId, online: bool) {
        self.0.set_online(node, online);
    }
    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        self.0.replica_candidates(key, want, metrics)
    }
    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        self.0.store_at(node, key, value, metrics)
    }
    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        self.0.fetch_from(node, key, metrics)
    }
}

#[test]
fn the_hot_cache_engages_under_every_plane_composition() {
    let adversary = || AdversaryConfig::new(5, 1);
    l2_engages(social_plane(5), "social");
    l2_engages(
        AdversaryPlane::new(social_plane(5), adversary()),
        "adversary over social",
    );
    let boxed: Box<dyn StoragePlane> = Box::new(social_plane(5));
    l2_engages(boxed, "boxed social");
    let boxed: Box<dyn StoragePlane> = Box::new(AdversaryPlane::new(social_plane(5), adversary()));
    l2_engages(boxed, "boxed adversary over social");
    l2_engages(Minimal(social_plane(5)), "minimal wrapper over social");
    let boxed: Box<dyn StoragePlane> = Box::new(SuperPeerPlane::build(24, 4, 5));
    l2_engages(boxed, "boxed super-peer");
    let boxed: Box<dyn StoragePlane> = Box::new(KademliaPlane::build(24, 8, 5));
    l2_engages(boxed, "boxed kademlia");
}

#[test]
fn federation_pods_keep_no_hot_cache() {
    let mut pods = Minimal(FederationPlane::build(4));
    pods.enable_hot_cache(64, 5);
    assert!(pods.hot_cache().is_none());
    assert!(pods.hot_cache_mut().is_none());
}

#[test]
fn read_feed_on_a_user_with_zero_friends_is_empty() {
    let mut n = Engine::new(ReplicatedStore::new(ChordPlane::build(16, 3), 3), 3);
    n.register("hermit").unwrap();
    assert_eq!(n.read_feed("hermit", 10).unwrap(), vec![]);
    // Unregistered readers are a typed error, not an empty feed.
    assert!(matches!(
        n.read_feed("ghost", 10),
        Err(DosnError::UnknownUser(_))
    ));
}

#[test]
fn read_feed_aggregates_the_latest_k_posts_per_friend() {
    let mut n = cached(engine(7), 128);
    for u in ["alice", "bob", "carol"] {
        n.register(u).unwrap();
    }
    n.befriend("alice", "bob", 0.9).unwrap();
    n.befriend("alice", "carol", 0.8).unwrap();
    for i in 0..3 {
        n.post("bob", &format!("bob {i}")).unwrap();
    }
    n.post("carol", "carol 0").unwrap();

    let feed = n.read_feed("alice", 2).unwrap();
    let summary: Vec<(String, u64, String)> = feed
        .iter()
        .map(|i| (i.author.0.clone(), i.seq, i.body.clone()))
        .collect();
    assert_eq!(
        summary,
        vec![
            ("bob".into(), 1, "bob 1".into()),
            ("bob".into(), 2, "bob 2".into()),
            ("carol".into(), 0, "carol 0".into()),
        ],
        "latest k per friend, friends in sorted order, oldest-first within"
    );

    // A warm re-read serves from the feed cache and agrees byte-for-byte.
    let hits_before = n.feed_cache().unwrap().stats().hits;
    let warm = n.read_feed("alice", 2).unwrap();
    assert_eq!(warm, feed);
    assert!(
        n.feed_cache().unwrap().stats().hits > hits_before,
        "warm feed read must hit the cache"
    );
}

/// Revocation through a filled slice: bob's slice of alice's wall is warm
/// when alice unfriends him. What he may still read afterwards is the
/// privacy scheme's decision — the cache-off engine shows it — and the
/// feed cache must not widen it: not for the post he cached, not for the
/// post sealed after the revocation, and not if a fill were applied before
/// the lookups of its own batch.
#[test]
fn revocation_reaches_through_a_filled_slice() {
    let run = |cache: bool| {
        let mut e = engine(17);
        if cache {
            e.enable_feed_cache(64);
        }
        e.execute(
            OpBatch::new()
                .register("alice")
                .register("bob")
                .befriend("alice", "bob", 0.9)
                .post("alice", "while friends"),
        );
        // Fills bob's slice (cache on), then hits it.
        e.execute(OpBatch::new().read_post("bob", "alice", 0));
        let warm = e.execute(OpBatch::new().read_post("bob", "alice", 0));
        assert!(matches!(&warm.results[0], Ok(OpOutput::Read { body }) if body == "while friends"));
        if cache {
            assert!(e.feed_cache().unwrap().stats().hits > 0, "slice is warm");
        }
        e.unfriend("alice", "bob").unwrap();
        let between = e.execute(OpBatch::new().read_post("bob", "alice", 0));
        // The post and both reads share a batch: reads run after the
        // post extended alice's chain, so bob's slice is carried — it
        // answers for post 0, which it proved while he was a friend
        // (and which the cache-off engine still lets him read), and has
        // nothing for post 1, which goes to a quorum and is refused.
        let hits_before = e.feed_cache().map(|c| c.stats().hits);
        let after = e.execute(
            OpBatch::new()
                .read_post("bob", "alice", 1)
                .read_post("bob", "alice", 0)
                .post("alice", "after the revocation"),
        );
        if let Some(hits) = hits_before {
            let stats = e.feed_cache().unwrap().stats();
            assert_eq!(
                (stats.hits, stats.invalidations),
                (hits + 1, 0),
                "the carried slice served post 0 and only post 0"
            );
        }
        let again = e.execute(
            OpBatch::new()
                .read_post("bob", "alice", 1)
                .read_post("bob", "alice", 0)
                .read_post("alice", "alice", 1),
        );
        for report in [&after, &again] {
            assert!(
                matches!(report.results[0], Err(DosnError::NotAuthorized(_))),
                "bob must not read the post sealed after his revocation \
                 (cache {cache}): {:?}",
                report.results[0]
            );
        }
        assert!(
            matches!(&again.results[2], Ok(OpOutput::Read { body }) if body == "after the revocation")
        );
        [between, after, again].map(|r| (r.results, r.digest))
    };
    assert_eq!(run(true), run(false));
}
