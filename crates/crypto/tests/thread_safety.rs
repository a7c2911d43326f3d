//! Thread-safety guarantees of the shared crypto handles.
//!
//! `SchnorrGroup::shared` hands every caller in the process a clone of one
//! group — every engine, on whatever thread it runs, and every test thread
//! of a test binary — and an engine, which holds such a clone, stays
//! `Send`. So what a group shares between its clones (the generator's
//! fixed-base table behind a `OnceLock`, the `ModContext`, the hit/miss
//! counters — there is no other table, lock or map) must be `Send + Sync`
//! and must stay consistent under concurrent use. The first half of this
//! file is a compile-time assertion set; the second half hammers `pow` /
//! `pow_g` / `multi_pow` from many threads and checks the counters add up.

use dosn_bigint::{FixedBaseTable, ModContext};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_obs::Registry;
use std::thread;

/// Compile-time `Send + Sync` assertions: if any of these types loses the
/// bound (say a cache cell regresses to `RefCell`), this test file stops
/// compiling — the failure is a build error, not a runtime assert.
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn crypto_cache_types_are_send_sync() {
    assert_send_sync::<SchnorrGroup>();
    assert_send_sync::<ModContext>();
    assert_send_sync::<FixedBaseTable>();
    assert_send_sync::<Registry>();
    assert_send_sync::<SecureRng>();
}

#[test]
fn pow_cache_counters_consistent_under_concurrency() {
    let group = SchnorrGroup::toy();
    let mut rng = SecureRng::seed_from_u64(0xCAFE);

    // Two public keys, used over and over: they miss every time, only the
    // generator hits.
    let y = group.pow_g(&group.random_scalar(&mut rng));
    let z = group.pow_g(&group.random_scalar(&mut rng));

    const THREADS: usize = 8;
    const ITERS: u64 = 50;

    let e = group.random_scalar(&mut SecureRng::seed_from_u64(1));
    let expected = [
        group.pow(&y, &e),
        group.pow_g(&e),
        group.multi_pow(&[(&y, &e), (group.generator(), &e), (&z, &e)]),
    ];
    let (h0, m0) = group.pow_cache_stats();

    thread::scope(|s| {
        for t in 0..THREADS {
            let (group, y, z, e, expected) = (group.clone(), &y, &z, &e, &expected);
            s.spawn(move || {
                for i in 0..ITERS {
                    assert_eq!(group.pow(y, e), expected[0], "thread {t} iter {i}");
                    assert_eq!(group.pow_g(e), expected[1], "thread {t} iter {i}");
                    assert_eq!(
                        group.multi_pow(&[(y, e), (group.generator(), e), (z, e)]),
                        expected[2],
                        "thread {t} iter {i}"
                    );
                }
            });
        }
    });

    // Per iteration: `g` is served from its table twice (pow_g, multi_pow)
    // and three other-base exponentiations miss (pow, two in multi_pow). No
    // update was lost to a race: the counters account for exactly
    // THREADS * ITERS of each on top of the baseline.
    let (h1, m1) = group.pow_cache_stats();
    let n = (THREADS as u64) * ITERS;
    assert_eq!(h1 - h0, 2 * n, "lost or spurious generator hits");
    assert_eq!(m1 - m0, 3 * n, "lost or spurious misses");
}
