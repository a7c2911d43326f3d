//! Exact operation counts of the request engine at a fixed seed: counts,
//! not timings, so they hold on any host.
//!
//! The exponentiation tallies of `SchnorrGroup::shared(GroupSize::Toy)` are
//! process-wide, so the tests here run one at a time under a lock; the
//! SHA-256 tally, `dosn::crypto::sha256::compressions()`, is per thread.

use std::sync::Mutex;

use dosn::core::engine::{Engine, OpBatch, OpOutput};
use dosn::core::network::{
    AdversaryConfig, AdversaryMode, AdversaryPlane, ChordPlane, ReplicatedStore, StoragePlane,
};
use dosn::crypto::group::{GroupSize, SchnorrGroup};
use dosn::crypto::sha256::compressions;

/// Authors in the read batch, one post each; reads per batch.
const READS: usize = 32;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn author(i: usize) -> String {
    format!("author{i:02}")
}

/// Author `i`'s post: 250 bytes, the middle of the 200–299-byte bodies the
/// macro-benchmark's workloads post.
fn body(i: usize) -> String {
    format!("{:-<250}", format!("post by {}", author(i)))
}

/// An engine over `plane` on which `reader` is friends with `READS`
/// authors who have posted once each.
fn engine_with_one_post_per_author<P: StoragePlane>(plane: P) -> Engine<P> {
    let mut e = Engine::new(ReplicatedStore::new(plane, 3), 7);
    let mut setup = OpBatch::new().register("reader");
    for i in 0..READS {
        setup = setup
            .register(&author(i))
            .befriend(&author(i), "reader", 0.9)
            .post(&author(i), &body(i));
    }
    assert!(e.execute(setup).results.iter().all(Result::is_ok));
    e
}

/// One batch reading every author's post 0 as `reader`; checks the bodies.
fn read_every_first_post<P: StoragePlane>(e: &mut Engine<P>) {
    let reads = (0..READS).fold(OpBatch::new(), |b, i| b.read_post("reader", &author(i), 0));
    for (i, result) in e.execute(reads).results.iter().enumerate() {
        assert!(
            matches!(result, Ok(OpOutput::Read { body: got }) if *got == body(i)),
            "read {i}: {result:?}"
        );
    }
}

/// What `f` returns, and the SHA-256 compressions it ran.
fn compressions_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = compressions();
    let out = f();
    (out, compressions() - before)
}

/// The windowed exponentiations one `execute` of `READS` reads runs on `e`.
fn exps_in_one_read_batch<P: StoragePlane>(e: &mut Engine<P>) -> u64 {
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let before = group.exp_stats().total();
    read_every_first_post(e);
    group.exp_stats().total() - before
}

#[test]
fn a_batch_of_agreeing_reads_runs_two_exponentiations_at_any_worker_setting() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Every read's three copies agree, so each read stakes on one value and
    // one combined Schnorr check proves all 32: two windowed multi-exps (the
    // keys' full-width terms on one chain, the commitments' 128-bit terms
    // on the other). The worker setting changes nothing.
    for workers in [1usize, 8] {
        let mut e = engine_with_one_post_per_author(ChordPlane::build(24, 7));
        e.set_workers(workers);
        assert_eq!(exps_in_one_read_batch(&mut e), 2, "set_workers({workers})");
    }
}

#[test]
fn a_batch_of_reads_with_one_tampered_copy_each_runs_two_exponentiations() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // One of each post's three holders serves it with the epoch word
    // flipped: a second value that still carries a valid signature. The
    // two honest copies are each read's strict plurality, so the read
    // stakes on them and the batch's one combined check covers all 32; the
    // forged minority is outvoted without being opened.
    let adversary = AdversaryConfig::new(7, 1).with_mode(AdversaryMode::Tamper);
    let mut e =
        engine_with_one_post_per_author(AdversaryPlane::new(ChordPlane::build(24, 7), adversary));
    e.storage_mut().plane_mut().set_enabled(true);
    assert_eq!(exps_in_one_read_batch(&mut e), 2);
    assert_eq!(e.storage().plane().stats().tampered, READS as u64);
}

#[test]
fn a_post_runs_two_fixed_base_exponentiations() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine_with_one_post_per_author(ChordPlane::build(24, 7));
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let (table_before, exps_before) = (group.pow_cache_stats().0, group.exp_stats().total());
    assert_eq!(e.post(&author(0), &body(0)), Ok(1));
    // One `g^k` for the post's one signature — the timeline entry the
    // replicas store — and one `g^x` for its relation key, both served by
    // the generator's table; no other exponentiation. A second signature
    // over the same ciphertext made it 3.
    assert_eq!(group.pow_cache_stats().0 - table_before, 2);
    assert_eq!(group.exp_stats().total() - exps_before, 0);
}

#[test]
fn sha256_compressions_per_op_are_pinned() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine_with_one_post_per_author(ChordPlane::build(24, 7));

    // 32 cold reads in one batch: copies fetched, envelopes checked in one
    // combined check, bodies opened (encrypt-then-MAC) and folded into the
    // batch digest.
    let ((), cold) = compressions_in(|| read_every_first_post(&mut e));

    // The same 32 posts again through `read_feed` with L1 warm: no fetch
    // and no check; what is left is mostly the batch digest folding in each
    // served body.
    e.enable_feed_cache(256);
    assert_eq!(e.read_feed("reader", 1).unwrap().len(), READS);
    let (warm, l1) = compressions_in(|| e.read_feed("reader", 1).unwrap());
    assert_eq!(warm.len(), READS);
    assert_eq!(e.feed_cache().unwrap().stats().hits, READS as u64);

    // One post: the op's RNG, seal (encrypt-then-MAC), sign the chained
    // entry, mint the relation keys, store, and the batch digest.
    let (seq, post) = compressions_in(|| e.post(&author(0), &body(0)).unwrap());
    assert_eq!(seq, 1);

    // ≈ 29.2 compressions per cold read and ≈ 4.1 per L1-served item. A
    // post's RNG costs 4 of its 40: the HKDF expand alone, since the
    // extract over the engine seed runs once per engine. (55 and 965 while
    // a post was signed twice and encoded as JSON.)
    assert_eq!(
        [post, cold, l1],
        [40, 933, 132],
        "compressions per post, per 32 cold reads, per 32 L1-served feed items"
    );
}
