//! The materialized feed & caching plane: `read_feed` aggregates friends'
//! walls as one batch, and repeated reads are served from a reader-side
//! cache whose slices stay valid while the hash-chain head they were proven
//! under is still on the author's live chain — so a cache hit can never
//! serve tampered or forked content, and a fresh post costs exactly one
//! fetch: the author's slice is carried, only the new post is read.
//!
//! Run with: `cargo run --example feed_cache`

use dosn::core::engine::Engine;
use dosn::core::network::{ChordPlane, ReplicatedStore};

const SEED: u64 = 2016;

fn main() {
    let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(64, SEED), 3), SEED);
    // L1: decrypted timeline slices, each validated against the author's
    // hash chain. L2: verified sealed envelopes at the storage plane.
    net.enable_feed_cache(1024);
    net.enable_hot_cache(1024);

    for u in ["alice", "bob", "carol", "dave"] {
        net.register(u).expect("register");
    }
    for friend in ["bob", "carol", "dave"] {
        net.befriend("alice", friend, 0.9).expect("befriend");
    }
    for (author, bodies) in [
        ("bob", vec!["hiking sunday?", "summit photos up"]),
        ("carol", vec!["new paper out"]),
        (
            "dave",
            vec!["moving next month", "boxes everywhere", "done!"],
        ),
    ] {
        for body in bodies {
            net.post(author, body).expect("post");
        }
    }

    // Cold read: every item is a quorum fetch + verify + decrypt; each
    // successful fill materializes that author's slice in the cache.
    let feed = net.read_feed("alice", 2).expect("feed");
    println!("alice's feed (latest 2 per friend), cold:");
    for item in &feed {
        println!("  {}[{}]: {}", item.author.0, item.seq, item.body);
    }

    // Warm read: identical items, served from the materialized slices.
    let warm = net.read_feed("alice", 2).expect("feed");
    assert_eq!(feed, warm, "cache must not change results");
    let stats = net.feed_cache().expect("cache enabled").stats();
    println!(
        "warm re-read identical; cache: {} hits, {} misses, {} invalidations",
        stats.hits, stats.misses, stats.invalidations
    );
    assert!(stats.hits > 0, "warm read should hit the cache");

    // Bob posts again: his chain head advances, but the head alice's slice
    // was proven under is still on his chain, so the slice is carried — the
    // next feed read serves everything it already proved from cache and
    // fetches exactly one post, the new one.
    let before = stats;
    net.post("bob", "one more thing").expect("post");
    let after = net.read_feed("alice", 2).expect("feed");
    let bob_latest = after
        .iter()
        .filter(|i| i.author.0 == "bob")
        .map(|i| i.seq)
        .max()
        .expect("bob in feed");
    let stats = net.feed_cache().expect("cache enabled").stats();
    println!(
        "after bob's new post: feed shows bob[{}]; {} more hits, {} fetched, {} invalidations",
        bob_latest,
        stats.hits - before.hits,
        stats.misses - before.misses,
        stats.invalidations
    );
    assert_eq!(bob_latest, 2, "feed must surface the new post");
    assert_eq!(
        stats.hits - before.hits,
        4,
        "bob[1] and the others are hits"
    );
    assert_eq!(stats.misses - before.misses, 1, "only bob[2] is fetched");
    assert_eq!(stats.invalidations, 0, "an append is not a fork");
}
