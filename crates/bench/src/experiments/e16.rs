//! E16: materialized-feed latency under the caching hierarchy
//! (`BENCH_9.json`; the headlines are explained in EXPERIMENTS.md § E16).
//!
//! Builds a small-world friend graph, fills every wall, then drives a
//! zipfian read-heavy feed workload (`read_feed`: each call aggregates the
//! latest `K` posts of every friend as one engine batch) against two
//! identically-seeded engines — caching off (every read is a quorum fetch
//! plus Schnorr verification plus decryption) and the full hierarchy on
//! (reader-side materialized slices validated against the author's hash
//! chain, hot sealed envelopes at the storage plane). Caching may change
//! *latency*, never *results*: a mixed post/read interleaving must produce
//! byte-identical batch digests on both. The warm/cold speedup — total wall
//! time of the feed sequence, cold over warm — is a row, hard-asserted ≥ 5×.

use super::{digests_agree, ring_batch, user};
use crate::{once_ns, wall, Run};
use dosn_core::engine::{Engine, OpBatch};
use dosn_core::network::{ChordPlane, ReplicatedStore};
use dosn_obs::Registry;

const SEED: u64 = 0xE16;
/// Feed depth: latest K posts per friend.
const K: usize = 3;
/// Ring degree of the friend graph (each user befriends the next DEGREE
/// names, wrapping).
const DEGREE: usize = 3;

fn engine(obs: Registry, cached: bool) -> Engine<ChordPlane> {
    let store = ReplicatedStore::new(ChordPlane::build(64, SEED), 3).with_obs(obs);
    let mut e = Engine::new(store, SEED);
    if cached {
        // Capacity holds every reader's full feed working set, so the
        // measured warm phase exercises hits, not capacity churn.
        e.enable_feed_cache(1 << 16);
        e.enable_hot_cache(1 << 16);
    }
    e
}

/// Registers the universe, wires the ring-of-friends graph, and fills
/// every wall with `posts` posts, in stage-sized batches.
fn populate(e: &mut Engine<ChordPlane>, users: usize, posts: usize) {
    e.execute(ring_batch(users, DEGREE));
    for p in 0..posts {
        let mut batch = OpBatch::new();
        for i in 0..users {
            batch = batch.post(&user(i), &format!("post {p} by user{i}"));
        }
        e.execute(batch);
    }
}

/// Deterministic zipf-ish reader sequence: rank r is drawn with weight
/// 1/(r+1) over the user universe, via an xorshift stream — hot readers
/// re-read their feeds often, which is exactly what a feed cache serves.
fn zipf_readers(users: usize, reads: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..users).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut x = SEED | 1;
    let mut seq = Vec::with_capacity(reads);
    for _ in 0..reads {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut pick = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
        let mut chosen = 0;
        for (r, w) in weights.iter().enumerate() {
            if pick < *w {
                chosen = r;
                break;
            }
            pick -= w;
        }
        seq.push(chosen);
    }
    seq
}

/// Runs the zipfian feed sequence, returning (total ms, p95 µs per call).
fn drive(e: &mut Engine<ChordPlane>, readers: &[usize], expect_items: usize) -> (f64, f64) {
    let mut per_call: Vec<f64> = readers
        .iter()
        .map(|&r| {
            let (items, ns) = once_ns(|| e.read_feed(&user(r), K).expect("feed read"));
            assert_eq!(
                items.len(),
                expect_items,
                "every user has 2*{DEGREE} mutual friends with full walls"
            );
            ns
        })
        .collect();
    per_call.sort_unstable_by(f64::total_cmp);
    let p95 = per_call[((per_call.len() - 1) as f64 * 0.95).round() as usize];
    (per_call.iter().sum::<f64>() / 1e6, p95 / 1e3)
}

/// The zero-tolerance identity check: a mixed post/read interleaving on
/// cache-on vs cache-off engines must agree on every batch digest.
fn digest_identity(users: usize) -> bool {
    let neighbour = |i: usize| user((i + 1) % users);
    digests_agree(
        &mut engine(Registry::new(), false),
        &mut engine(Registry::new(), true),
        users,
        |round| {
            let mut batch = OpBatch::new();
            for i in 0..users {
                batch = batch.post(&user(i), &format!("round {round} user{i}"));
            }
            // Reads of both the fresh post and the prior round's (a cached
            // slice whose author just appended — the carry path).
            for i in 0..users {
                batch = batch.read_post(&neighbour(i), &user(i), round);
                if round > 0 {
                    batch = batch.read_post(&neighbour(i), &user(i), round - 1);
                }
            }
            // Warm re-reads: the cached engine now serves from the slice.
            let mut rereads = OpBatch::new();
            for i in 0..users {
                rereads = rereads.read_post(&neighbour(i), &user(i), round);
            }
            vec![batch, rereads]
        },
    )
}

pub(super) fn run(run: &mut Run) {
    let (users, posts, reads) = run.pick((96, 5, 480), (32, 4, 160));
    let readers = zipf_readers(users, reads);
    // Friendship is mutual, so the ring gives every user 2*DEGREE friends.
    let expect_items = 2 * DEGREE * K.min(posts);

    // ---- correctness headline first: cache on/off digest identity ----
    let identical = digest_identity(run.pick(24, 12));

    // ---- cold: caching off, every feed read is full quorum work ----
    let mut cold_engine = engine(Registry::new(), false);
    populate(&mut cold_engine, users, posts);
    let (cold_ms, cold_p95) = drive(&mut cold_engine, &readers, expect_items);

    // ---- warm: full hierarchy, one warming sweep, then the same
    // zipfian sequence served from materialized slices ----
    let mut warm_engine = engine(run.obs().clone(), true);
    populate(&mut warm_engine, users, posts);
    for i in 0..users {
        warm_engine.read_feed(&user(i), K).expect("warm sweep");
    }
    let (warm_ms, warm_p95) = drive(&mut warm_engine, &readers, expect_items);
    let speedup = cold_ms / warm_ms;

    let stats = warm_engine.feed_cache().expect("cache enabled").stats();
    println!("{}", warm_engine.publish_obs().fmt_table());
    run.table(
        &format!(
            "E16: {reads} zipfian read_feed calls ({expect_items} items each; \
             {users} users x {posts} posts, degree {DEGREE}, K={K})"
        ),
        "cache on/off digests | cold (ms) | cold p95 (µs/call) | warm (ms) | \
         warm p95 (µs/call) | speedup | cache hits | misses | invalidations | evictions",
    );
    run.row(&[
        if identical { "MATCH" } else { "DIVERGE" }.into(),
        wall(cold_ms, 1),
        wall(cold_p95, 0),
        wall(warm_ms, 1),
        wall(warm_p95, 0),
        wall(speedup, 1),
        stats.hits.into(),
        stats.misses.into(),
        stats.invalidations.into(),
        stats.evictions.into(),
    ]);

    // Any digest divergence between cached and uncached execution is a
    // bug, not noise.
    run.headline("cache_digest_identical", f64::from(identical));
    run.headline("warm_feed_p95_us", warm_p95);

    assert!(identical, "cache changed a batch digest");
    assert!(
        speedup >= 5.0,
        "warm/cold feed speedup {speedup:.2}x below the 5x floor"
    );
}
