//! E9 exponentiation-engine ablation (`BENCH_2.json`).
//!
//! Each path adds one engine feature, timed on the real group moduli; the
//! gated headline is the repeated same-group `g^x` — cached engine (group
//! context + fixed-base table) against a one-shot `BigUint::modpow`,
//! which builds its context per call.

use crate::{wall, Run};
use dosn_bigint::{BigUint, ModContext};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use std::hint::black_box;

/// `(group, modulus bits, timed calls per path in full mode)`.
const SIZES: [(GroupSize, u64, u32); 3] = [
    (GroupSize::Demo, 512, 40),
    (GroupSize::Legacy, 1024, 12),
    (GroupSize::Standard, 2048, 4),
];

pub(super) fn run(run: &mut Run) {
    // Dense, full-width operands: a sparse exponent (mostly zero bits) or a
    // modulus of the form 2^k − c would flatter some paths (fixed-base skips
    // zero digits; division by 2^k − c is nearly free) and skew the ablation.
    run.table(
        "E9: exponentiation-engine ablation",
        "bits | path | ns/op | vs binary_division",
    );
    for (size, bits, iters) in SIZES {
        let m = SchnorrGroup::with_size(size).modulus().clone();
        let base = &m / &BigUint::from(3u64);
        let e = &m / &BigUint::from(7u64);
        let ctx = ModContext::new(&m);
        let table = ctx.precompute(&base, bits);
        let base2 = &m / &BigUint::from(5u64);
        let e2 = &m / &BigUint::from(11u64);

        let paths: [(&str, &dyn Fn()); 6] = [
            ("binary_division", &|| {
                // The pre-engine baseline: bit-at-a-time with division.
                let mut r = BigUint::one();
                for i in (0..e.bits()).rev() {
                    r = &(&r * &r) % &m;
                    if e.bit(i) {
                        r = &(&r * &base) % &m;
                    }
                }
                black_box(r);
            }),
            ("windowed_division", &|| {
                black_box(base.modpow_plain(&e, &m));
            }),
            ("ctx_windowed", &|| {
                black_box(ctx.pow(&base, &e));
            }),
            ("fixed_base", &|| {
                black_box(table.pow(&e));
            }),
            ("two_pows", &|| {
                black_box(ctx.mul(&ctx.pow(&base, &e), &ctx.pow(&base2, &e2)));
            }),
            ("multi_exp", &|| {
                black_box(ctx.pow_multi(&[(&base, &e), (&base2, &e2)]));
            }),
        ];
        let mut binary_ns = 0.0;
        for (path, f) in paths {
            let ns = run.time_ns(iters, f);
            if path == "binary_division" {
                binary_ns = ns;
            }
            run.row(&[
                bits.into(),
                path.into(),
                wall(ns, 0),
                wall(binary_ns / ns, 2),
            ]);
        }
    }

    run.table(
        "E9: repeated same-group pow_g (cached engine vs one-shot modpow)",
        "bits | percall ns/op | cached ns/op | speedup",
    );
    let mut speedups = Vec::new();
    for (size, bits, iters) in SIZES {
        let group = SchnorrGroup::with_size(size);
        let x = group.random_scalar(&mut SecureRng::seed_from_u64(0xE9));
        let percall = run.time_ns(iters, || {
            black_box(group.generator().modpow(&x, group.modulus()));
        });
        let cached = run.time_ns(iters, || {
            black_box(group.pow_g(&x));
        });
        run.row(&[
            bits.into(),
            wall(percall, 0),
            wall(cached, 0),
            wall(percall / cached, 2),
        ]);
        speedups.push(percall / cached);
        // Publish the group's pow-cache hit/miss counters; each size
        // re-registers, so the report carries the last (2048-bit) group's
        // tallies as representative cache behaviour.
        group.register_obs(run.obs());
    }
    // The 1024-bit row; a >30% drop in the cached engine's speedup fails CI.
    run.headline("powg_1024_speedup", speedups[1]);
    if speedups[1] < 2.0 {
        eprintln!("WARNING: pow_g@1024 speedup below the 2x acceptance target");
    }
}
