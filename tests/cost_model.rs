//! Exact operation counts of the request engine at a fixed seed: counts,
//! not timings, so they hold on any host.
//!
//! The exponentiation tallies of `SchnorrGroup::shared(GroupSize::Toy)` are
//! process-wide, so the tests here run one at a time under a lock; the
//! SHA-256 tally, `dosn::crypto::sha256::compressions()`, is per thread,
//! and so is the heap-allocation tally this binary's global allocator keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use dosn::core::engine::{wall_key, BatchReport, Engine, OpBatch, OpOutput};
use dosn::core::network::{
    AdversaryConfig, AdversaryMode, AdversaryPlane, ChordPlane, ReplicatedStore, StoragePlane,
};
use dosn::core::DosnError;
use dosn::crypto::group::{GroupSize, SchnorrGroup};
use dosn::crypto::sha256::compressions;
use dosn::obs::names::GET_REPAIRS;
use dosn::overlay::metrics::Metrics;

/// Authors in the read batch, one post each; reads per batch.
const READS: usize = 32;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The system allocator, counting each allocation and reallocation on the
/// thread that makes it. The count lives here, in the test binary; the
/// library keeps none.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // A const-initialised `Cell` needs no lazy setup and no destructor, so
    // the allocator can touch it; after the thread's TLS is gone the
    // allocation simply goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `alloc`'s contract, which is System's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from this allocator, that is from System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from System.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, and the heap allocations it made on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let count = || ALLOCATIONS.with(Cell::get);
    let before = count();
    let out = f();
    (out, count() - before)
}

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

/// One batch reading every author's post 0 as `reader`.
fn every_first_post() -> OpBatch {
    (0..READS).fold(OpBatch::new(), |b, i| b.read_post("reader", &author(i), 0))
}

/// Checks that each read of [`every_first_post`] returned its author's post.
fn assert_first_posts(report: &BatchReport) {
    for (i, result) in report.results.iter().enumerate() {
        assert!(
            matches!(result, Ok(OpOutput::Read { body: got }) if *got == body(i)),
            "read {i}: {result:?}"
        );
    }
}

/// Runs [`every_first_post`] on `e` and checks the bodies.
fn read_every_first_post<P: StoragePlane>(e: &mut Engine<P>) {
    assert_first_posts(&e.execute(every_first_post()));
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
    // two honest copies are each read's leader, so the read stakes on them
    // and the batch's one combined check covers all 32; the forged
    // minority is outvoted without being opened.
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

    // The same 32 posts again through `read_feed` with L1 warm: no fetch,
    // no check and no batch, so no digest folds the served bodies.
    e.enable_feed_cache(256);
    assert_eq!(e.read_feed("reader", 1).unwrap().len(), READS);
    let (warm, l1) = compressions_in(|| e.read_feed("reader", 1).unwrap());
    assert_eq!(warm.len(), READS);
    assert_eq!(e.feed_cache().unwrap().stats().hits, READS as u64);

    // One post: the op's RNG, seal (encrypt-then-MAC), sign the chained
    // entry, mint the relation keys, store, and the batch digest.
    let (seq, post) = compressions_in(|| e.post(&author(0), &body(0)).unwrap());
    assert_eq!(seq, 1);

    // One comment on that post: the op's RNG, opening the post for the
    // commenter (the decryption a read of it runs), minting and checking
    // the relation-bound attachment, and the batch digest.
    let ((), comment) = compressions_in(|| e.comment("reader", &author(0), 1, "nice").unwrap());

    // ≈ 29.2 compressions per cold read and none per L1-served item. A
    // post's RNG costs 4 of its 40: the HKDF expand alone, since the
    // extract over the engine seed runs once per engine. (55 and 965 while
    // a post was signed twice and encoded as JSON; 132 per 32 L1 items
    // while `read_feed` ran its hits through a batch and its digest; 27
    // per comment while the roster alone decided it, opening no post.)
    assert_eq!(
        [post, cold, l1, comment],
        [40, 933, 0, 35],
        "compressions per post, per 32 cold reads, per 32 L1-served feed items, per comment"
    );
}

#[test]
fn heap_allocations_per_read_are_pinned() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine_with_one_post_per_author(ChordPlane::build(24, 7));

    // Each count is of a second run, so that no instrument or metric key is
    // created inside it. 32 cold reads in one `execute` (no cache is on, so
    // a second read is as cold as the first; the batch is built outside the
    // count).
    read_every_first_post(&mut e);
    let reads = every_first_post();
    let (report, cold) = allocations_in(|| e.execute(reads));
    assert_first_posts(&report);

    // Warm feeds of 32 and of 64 L1-served items over the same 32 friends:
    // the per-call part (the probe windows, the slot and item lists) is the
    // same, so the difference is the items'.
    e.enable_feed_cache(256);
    e.read_feed("reader", 1).unwrap();
    e.read_feed("reader", 1).unwrap();
    let (items, l1_32) = allocations_in(|| e.read_feed("reader", 1).unwrap());
    assert_eq!(items.len(), READS);
    for i in 0..READS {
        e.post(&author(i), &body(i)).unwrap();
    }
    e.read_feed("reader", 2).unwrap();
    let (items, l1_64) = allocations_in(|| e.read_feed("reader", 2).unwrap());
    assert_eq!(items.len(), 2 * READS);
    assert_eq!(e.feed_cache().unwrap().stats().hits, 5 * READS as u64);

    // A second comment on one post (the first created the instruments).
    e.comment("reader", &author(0), 1, "nice").unwrap();
    let (commented, comment) = allocations_in(|| e.comment("reader", &author(0), 1, "nice"));
    assert_eq!(commented, Ok(()));

    // An L1-served item allocates its body and its author's name, the two
    // strings it hands back; nothing else per item. The 6 per call are the
    // probe windows, the slot and item lists and the probe's bookkeeping:
    // the reader's friends are walked by id, so no roster is cloned (111
    // per feed of 32 while every call cloned the reader's roster, a string
    // per friend, and looked each friend up by name). A cold read is
    // ≈ 34 allocations: the baseline a read-path change measures against.
    // (1767 per 32 while a record was copied out of its bytes to be
    // verified, its author's name copied three times, its post's body
    // split into hashtags, every big-integer division and fixed-width
    // encoding allocated three to four times, and each combined-check item
    // kept its own index list; 1828 while a read's copies were counted
    // three times: twice to find a strict plurality to stake on, once more
    // in the vote; 1768 while the combined check took its items through a
    // list of references that bisection shared; 1175 while the vote listed
    // a read's values and their verdicts and copied out its winner, which
    // the finish phase then found again by its bytes.) A comment opens
    // its post for the commenter, as a read does, and finds the commenter
    // on the author's friend list by id (60 while that check cloned the
    // author's roster, two names and their list; 57 while the roster alone
    // decided it and was cloned).
    let per_item = (l1_64 - l1_32) / READS as u64;
    assert_eq!(
        [per_item, l1_32, cold, comment],
        [2, 70, 1079, 57],
        "allocations per L1-served item, per warm feed of 32 items, per 32 cold reads, per comment"
    );
}

#[test]
fn montgomery_products_per_op_are_pinned() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine_with_one_post_per_author(ChordPlane::build(24, 7));
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let products_in = |f: &mut dyn FnMut()| {
        let before = group.exp_stats().montgomery_products;
        f();
        group.exp_stats().montgomery_products - before
    };
    let cold = products_in(&mut || read_every_first_post(&mut e));
    let post = products_in(&mut || assert_eq!(e.post(&author(0), &body(0)), Ok(1)));
    let comment = products_in(&mut || e.comment("reader", &author(0), 1, "nice").unwrap());
    // The two exponentiations of 32 cold reads are the combined check's
    // multi-exps — the 32 keys' full-width terms on one chain, the 32
    // commitments' 128-bit terms on the other — plus `g`'s term from its
    // table: ≈ 108 products and squares per read, where a count of calls
    // reads 0.0625. A post's are its two table-served fixed-base powers.
    assert_eq!(
        [cold, post, comment],
        [3468, 124, 488],
        "Montgomery products and squares per 32 cold reads, per post, per comment"
    );
}

#[test]
fn copies_opened_and_repairs_per_read_are_pinned_for_every_adversary_mode() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // One of each post's three holders runs the mode (f = 1) over one batch
    // of 32 reads. With batch verification off every value a read opens is
    // one plain verification, one exponentiation, so the batch's
    // exponentiations count the copies opened: a tampering holder adds a
    // second value to every read, and nothing stakes, so both are opened.
    // Repairs are the store's `get.repairs`: the tampered or withheld copy
    // is rewritten, one per read, as `read_tamper_f1` does. With batch
    // verification on, each read stakes on its two agreeing copies, the 32
    // stakes are one combined check (two exponentiations) and no other
    // value is opened.
    let mut table = Vec::new();
    for mode in [
        AdversaryMode::Passive,
        AdversaryMode::Tamper,
        AdversaryMode::Withhold,
        AdversaryMode::Equivocate,
    ] {
        let mut counts = [0; 3];
        for (at, batch_verify) in [(0, false), (2, true)] {
            let plane = AdversaryPlane::new(
                ChordPlane::build(24, 7),
                AdversaryConfig::new(7, 1).with_mode(mode),
            );
            let mut e = engine_with_one_post_per_author(plane);
            e.storage_mut().plane_mut().set_enabled(true);
            e.set_batch_verify(batch_verify);
            let repairs = |e: &Engine<_>| e.metrics().by_type.get(GET_REPAIRS).copied();
            let before = repairs(&e).unwrap_or(0);
            counts[at] = exps_in_one_read_batch(&mut e);
            if !batch_verify {
                counts[1] = repairs(&e).unwrap_or(0) - before;
            }
        }
        table.push((mode.label(), counts));
    }
    assert_eq!(
        table,
        [
            ("passive", [32, 0, 2]),
            ("tamper", [64, 32, 2]),
            ("withhold", [32, 32, 2]),
            ("equivocate", [32, 0, 2]),
        ],
        "per 32 reads: copies opened, repair writes, exponentiations with batch verification on"
    );
}

/// Makes every holder of `author(i)`'s post 0 serve the record with its last
/// body byte flipped: it decodes, and its signature fails.
fn forge_every_copy<P: StoragePlane>(e: &mut Engine<P>, i: usize) {
    let mut m = Metrics::new();
    let key = wall_key(&author(i), 0);
    let holders = e.storage_mut().fetch_copies(key, &mut m).unwrap().copies;
    let mut forged = holders[0].1.clone().expect("the post was stored");
    *forged.last_mut().unwrap() ^= 1;
    for (node, _) in holders {
        e.storage_mut()
            .plane_mut()
            .store_at(node, key, &forged, &mut m)
            .unwrap();
    }
}

/// Runs [`every_first_post`] on `e`, checks that exactly the first `forged`
/// reads are refused and the rest return their posts, and returns the
/// batch's SHA-256 compressions and Montgomery products.
fn refused_and_served<P: StoragePlane>(e: &mut Engine<P>, forged: usize) -> [u64; 2] {
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let before = group.exp_stats().montgomery_products;
    let (report, sha) = compressions_in(|| e.execute(every_first_post()));
    let products = group.exp_stats().montgomery_products - before;
    for (i, result) in report.results.iter().enumerate() {
        if i < forged {
            assert!(
                matches!(result, Err(DosnError::IntegrityViolation(_))),
                "read {i}: {result:?}"
            );
        } else {
            assert!(
                matches!(result, Ok(OpOutput::Read { body: got }) if *got == body(i)),
                "read {i}: {result:?}"
            );
        }
    }
    [sha, products]
}

#[test]
fn a_batch_of_refused_reads_opens_each_record_once() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine_with_one_post_per_author(ChordPlane::build(24, 7));
    for i in 0..READS {
        forge_every_copy(&mut e, i);
    }
    // Each read's one value is its leader: decoded once, checked in the
    // batch's combined check, verified alone when that check fails, and
    // refused with the error found. (930 and 57308 while a failed check
    // bisected down to the 32 failures, hashing a transcript and running
    // two multi-exps per sub-batch; 1378 and 69117 while a refused read
    // also ran a second vote and decoded and verified its leader again to
    // name the error: ≈ 14 compressions and ≈ 369 products more per read.)
    assert_eq!(
        refused_and_served(&mut e, READS),
        [548, 15272],
        "SHA-256 compressions and Montgomery products per 32 refused reads"
    );
}

#[test]
fn a_batch_with_forged_stakes_costs_at_most_1_3x_verifying_one_by_one() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Montgomery products of one batch of 32 cold reads whose first `k`
    // posts every holder forges, with batch verification on and off. A
    // forged stake fails the combined check, and then each stake is
    // verified alone: the check is the only overhead over verifying one by
    // one. (While a failed check bisected, k = 1 cost 14,068 and k = 32
    // cost 57,308.)
    let mut table = Vec::new();
    for k in [0, 1, 4, 16, 32] {
        let mut e = engine_with_one_post_per_author(ChordPlane::build(24, 7));
        for i in 0..k {
            forge_every_copy(&mut e, i);
        }
        let [_, on] = refused_and_served(&mut e, k);
        e.set_batch_verify(false);
        let [_, off] = refused_and_served(&mut e, k);
        if k > 0 {
            assert!(10 * on <= 13 * off, "k = {k}: {on} products against {off}");
        }
        table.push([k as u64, on, off]);
    }
    assert_eq!(
        table,
        [
            [0, 3468, 11793],
            [1, 15236, 11788],
            [4, 15233, 11795],
            [16, 15281, 11814],
            [32, 15272, 11809]
        ],
        "forged stakes, Montgomery products with batch verification on and off"
    );
}
