//! E16: materialized-feed latency under the caching hierarchy.
//!
//! Builds a small-world friend graph, fills every wall, then drives a
//! zipfian read-heavy feed workload (`read_feed`: each call aggregates the
//! latest `K` posts of every friend as one engine batch) against two
//! identically-seeded engines — caching off (every read is a quorum fetch
//! plus Schnorr verification plus decryption) and the full hierarchy on
//! (reader-side materialized slices validated against the author's hash
//! chain, hot sealed envelopes at the storage plane). Three headlines land in
//! `BENCH_9.json`:
//!
//! * **`cache_digest_identical`** (gated at zero tolerance) — a mixed
//!   post/read interleaving executed on cache-on and cache-off engines
//!   must produce byte-identical per-batch digests: caching may change
//!   *latency*, never *results*. This is the integrity-preserving
//!   invalidation contract (a slice is served only while the head it was
//!   proven under is on its author's live chain), measured for real on
//!   every CI run.
//! * **`warm_cold_speedup`** (gated at a 5x floor) — total wall time of
//!   the zipfian feed sequence, cold engine over warm engine. Warm feed
//!   reads skip the quorum/verify/decrypt path entirely for valid slices,
//!   so the ratio is the cache's whole value proposition.
//! * **`warm_feed_p95_us`** — p95 warm `read_feed` call latency, gated
//!   with a wide band (CI wall-clock noise) as a latency canary.
//!
//! Usage: `cargo run --release -p dosn-bench --bin e16_feed [--fast] [OUT]`
//!
//! `--fast` shrinks the workload; `OUT` overrides the output path
//! (default `BENCH_9.json`).

use dosn_core::engine::{Engine, OpBatch};
use dosn_core::network::{ChordPlane, ReplicatedStore};
use dosn_obs::{Registry, RunReport, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 0xE16;
/// Feed depth: latest K posts per friend.
const K: usize = 3;
/// Ring degree of the friend graph (each user befriends the next DEGREE
/// names, wrapping).
const DEGREE: usize = 3;

fn user(i: usize) -> String {
    format!("user{i}")
}

fn engine(obs: Option<Registry>, cached: bool) -> Engine<ChordPlane> {
    let store = ReplicatedStore::new(ChordPlane::build(64, SEED), 3);
    let store = match obs {
        Some(obs) => store.with_obs(obs),
        None => store,
    };
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
    let mut batch = OpBatch::new();
    for i in 0..users {
        batch = batch.register(&user(i));
    }
    for i in 0..users {
        for d in 1..=DEGREE {
            batch = batch.befriend(&user(i), &user((i + d) % users), 0.9);
        }
    }
    e.execute(batch);
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

/// Runs the zipfian feed sequence, returning (total µs, per-call µs).
fn drive(e: &mut Engine<ChordPlane>, readers: &[usize], expect_items: usize) -> (u64, Vec<u64>) {
    let mut per_call = Vec::with_capacity(readers.len());
    let started = Instant::now();
    for &r in readers {
        let call = Instant::now();
        let items = e.read_feed(&user(r), K).expect("feed read");
        per_call.push(call.elapsed().as_micros() as u64);
        assert_eq!(
            items.len(),
            expect_items,
            "every user has 2*{DEGREE} mutual friends with full walls"
        );
    }
    (started.elapsed().as_micros() as u64, per_call)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The zero-tolerance identity check: a mixed post/read interleaving on
/// cache-on vs cache-off engines must agree on every batch digest.
fn digest_identity(users: usize) -> bool {
    let mut plain = engine(None, false);
    let mut cached = engine(None, true);
    let mut identical = true;
    let mut run = |batch: OpBatch| {
        let a = plain.execute(batch.clone()).digest_hex();
        let b = cached.execute(batch).digest_hex();
        identical &= a == b;
    };
    let mut setup = OpBatch::new();
    for i in 0..users {
        setup = setup.register(&user(i));
    }
    for i in 0..users {
        setup = setup.befriend(&user(i), &user((i + 1) % users), 0.9);
    }
    run(setup);
    for round in 0..3 {
        let mut batch = OpBatch::new();
        for i in 0..users {
            batch = batch.post(&user(i), &format!("round {round} user{i}"));
        }
        // Reads of both the fresh post and the prior round's (a cached
        // slice whose author just appended — the carry path).
        for i in 0..users {
            batch = batch.read_post(&user((i + 1) % users), &user(i), round as u64);
            if round > 0 {
                batch = batch.read_post(&user((i + 1) % users), &user(i), round as u64 - 1);
            }
        }
        run(batch);
        // Warm re-reads: the cached engine now serves from the slice.
        let mut rereads = OpBatch::new();
        for i in 0..users {
            rereads = rereads.read_post(&user((i + 1) % users), &user(i), round as u64);
        }
        run(rereads);
    }
    identical
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_9.json".to_string());

    let (users, posts, reads) = if fast { (32, 4, 160) } else { (96, 5, 480) };
    let readers = zipf_readers(users, reads);
    // Friendship is mutual, so the ring gives every user 2*DEGREE friends.
    let expect_items = 2 * DEGREE * K.min(posts);

    // ---- correctness headline first: cache on/off digest identity ----
    let identical = digest_identity(if fast { 12 } else { 24 });
    println!(
        "digest identity: cache-on and cache-off batch digests {}",
        if identical { "MATCH" } else { "DIVERGE" }
    );

    // ---- cold: caching off, every feed read is full quorum work ----
    let mut cold_engine = engine(None, false);
    populate(&mut cold_engine, users, posts);
    let (cold_us, mut cold_calls) = drive(&mut cold_engine, &readers, expect_items);

    // ---- warm: full hierarchy, one warming sweep, then the same
    // zipfian sequence served from materialized slices ----
    let obs = Registry::new();
    let mut warm_engine = engine(Some(obs.clone()), true);
    populate(&mut warm_engine, users, posts);
    for i in 0..users {
        warm_engine.read_feed(&user(i), K).expect("warm sweep");
    }
    let (warm_us, mut warm_calls) = drive(&mut warm_engine, &readers, expect_items);

    cold_calls.sort_unstable();
    warm_calls.sort_unstable();
    let cold_p95 = percentile(&cold_calls, 0.95);
    let warm_p95 = percentile(&warm_calls, 0.95);
    let speedup = cold_us.max(1) as f64 / warm_us.max(1) as f64;

    let stats = warm_engine.feed_cache().expect("cache enabled").stats();
    let snap = warm_engine.publish_obs();
    println!("{}", snap.fmt_table());
    println!(
        "workload: {users} users x {posts} posts, degree {DEGREE}, K={K}, \
         {reads} zipfian feed reads ({expect_items} items each)"
    );
    println!(
        "cold {:.1} ms (p95 {cold_p95} µs/call) vs warm {:.1} ms (p95 {warm_p95} µs/call) \
         → {speedup:.1}x; cache hits {} misses {} invalidations {} evictions {}",
        cold_us as f64 / 1e3,
        warm_us as f64 / 1e3,
        stats.hits,
        stats.misses,
        stats.invalidations,
        stats.evictions,
    );

    let mut run = RunReport::new("E16 feed caching", fast);
    // Correctness gates at zero tolerance: any digest divergence between
    // cached and uncached execution is a bug, not noise.
    run.set_headline("cache_digest_identical", f64::from(identical), true, 0.0);
    // The speedup gates at a 5x floor, declared via the tolerance.
    let floor_tolerance = (1.0 - 5.0 / speedup).max(0.0);
    run.set_headline("warm_cold_speedup", speedup, true, floor_tolerance);
    // Warm p95 is a latency canary with a wide band: CI wall-clock noise
    // is real, order-of-magnitude regressions are not.
    run.set_headline("warm_feed_p95_us", warm_p95 as f64, false, 3.0);
    run.record_registry(&obs);
    let mut row = BTreeMap::new();
    row.insert("users".to_string(), Value::from(users));
    row.insert("posts_per_user".to_string(), Value::from(posts));
    row.insert("feed_reads".to_string(), Value::from(reads));
    row.insert("feed_k".to_string(), Value::from(K));
    row.insert("cold_us".to_string(), Value::from(cold_us));
    row.insert("warm_us".to_string(), Value::from(warm_us));
    row.insert("cold_p95_us".to_string(), Value::from(cold_p95));
    row.insert("warm_p95_us".to_string(), Value::from(warm_p95));
    row.insert("speedup".to_string(), Value::from(speedup));
    row.insert("cache_hits".to_string(), Value::from(stats.hits));
    row.insert("cache_misses".to_string(), Value::from(stats.misses));
    row.insert(
        "cache_invalidations".to_string(),
        Value::from(stats.invalidations),
    );
    run.add_row(row);
    run.save(Path::new(&out_path)).expect("write bench report");
    println!("wrote {out_path}");

    assert!(identical, "cache changed a batch digest");
    assert!(
        speedup >= 5.0,
        "warm/cold feed speedup {speedup:.2}x below the 5x floor"
    );
}
