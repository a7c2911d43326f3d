//! Experiment E9: ablations over the workspace's own design choices
//! (DESIGN.md "expected shapes" that are about *our* substrate rather than
//! the survey's claims).
//!
//! * Montgomery vs division-based modular exponentiation (the bigint design
//!   choice every public-key primitive inherits);
//! * CP-ABE cost vs policy depth (secret-sharing tree recursion);
//! * Chord vs Kademlia on the identical lookup workload (structured-overlay
//!   geometry choice);
//! * Chord replication factor vs per-store message cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dosn_bench::{table_header, table_row};
use dosn_bigint::{BigUint, ModContext};
use dosn_crypto::abe::{AbeAuthority, Policy};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_overlay::chord::ChordOverlay;
use dosn_overlay::id::Key;
use dosn_overlay::kademlia::KademliaOverlay;
use dosn_overlay::metrics::Metrics;
use std::hint::black_box;

fn bench_modpow(c: &mut Criterion) {
    // Exponentiation-engine ablation: each variant adds one engine feature.
    // `auto_dispatch` builds its context inside the timed loop (one-shot
    // `modpow`); `ctx_windowed` amortizes it; `fixed_base` adds the
    // precomputed radix-16 table; `multi_exp` evaluates g^s·y^e in one pass
    // vs `two_pows` separately. The quick-mode twin of this sweep
    // (`e9_quick`) records BENCH_2.json.
    let mut group = c.benchmark_group("e9/modpow");
    group.sample_size(10);
    for (size, bits) in [
        (GroupSize::Demo, 512u64),
        (GroupSize::Legacy, 1024),
        (GroupSize::Standard, 2048),
    ] {
        // Real group moduli and dense full-width operands: sparse exponents
        // or 2^k − c moduli would flatter individual paths and skew the
        // ablation (see e9_quick for the same sweep in quick mode).
        let m = SchnorrGroup::with_size(size).modulus().clone();
        let base = &m / &BigUint::from(3u64);
        let e = &m / &BigUint::from(7u64);
        let ctx = ModContext::new(&m);
        let table = ctx.precompute(&base, bits);
        let base2 = &m / &BigUint::from(5u64);
        let e2 = &m / &BigUint::from(11u64);
        group.bench_with_input(BenchmarkId::new("division", bits), &bits, |b, _| {
            b.iter(|| black_box(base.modpow_plain(&e, &m)))
        });
        group.bench_with_input(BenchmarkId::new("ctx_windowed", bits), &bits, |b, _| {
            b.iter(|| black_box(ctx.pow(&base, &e)))
        });
        group.bench_with_input(BenchmarkId::new("fixed_base", bits), &bits, |b, _| {
            b.iter(|| black_box(table.pow(&e)))
        });
        group.bench_with_input(BenchmarkId::new("auto_dispatch", bits), &bits, |b, _| {
            b.iter(|| black_box(base.modpow(&e, &m)))
        });
        group.bench_with_input(BenchmarkId::new("two_pows", bits), &bits, |b, _| {
            b.iter(|| black_box(ctx.mul(&ctx.pow(&base, &e), &ctx.pow(&base2, &e2))))
        });
        group.bench_with_input(BenchmarkId::new("multi_exp", bits), &bits, |b, _| {
            b.iter(|| black_box(ctx.pow_multi(&[(&base, &e), (&base2, &e2)])))
        });
    }
    group.finish();
}

fn bench_abe_depth(c: &mut Criterion) {
    // Policy of the shape ((a0 AND a1) AND a2) ... nested to `depth`.
    fn deep_policy(depth: usize) -> Policy {
        let mut p = Policy::Attr("a0".into());
        for i in 1..=depth {
            p = Policy::And(vec![p, Policy::Attr(format!("a{i}"))]);
        }
        p
    }
    table_header(
        "E9: CP-ABE ciphertext size vs policy depth",
        &["depth (AND-nesting)", "attributes", "ciphertext bytes"],
    );
    let mut auth = AbeAuthority::new([1u8; 32]);
    let mut rng = SecureRng::seed_from_u64(1);
    for depth in [1usize, 4, 16, 64] {
        let p = deep_policy(depth);
        let ct = auth.encrypt(&p, b"payload", &mut rng).expect("encrypt");
        table_row(&[
            depth.to_string(),
            (depth + 1).to_string(),
            ct.size_bytes().to_string(),
        ]);
    }
    println!();

    let mut group = c.benchmark_group("e9/abe_policy_depth");
    group.sample_size(10);
    for depth in [1usize, 4, 16, 64] {
        let p = deep_policy(depth);
        let attrs: Vec<String> = (0..=depth).map(|i| format!("a{i}")).collect();
        let key = auth.issue_key("user", &attrs);
        let ct = auth.encrypt(&p, b"payload", &mut rng).expect("encrypt");
        group.bench_with_input(BenchmarkId::new("encrypt", depth), &depth, |b, _| {
            b.iter(|| black_box(auth.encrypt(&p, b"payload", &mut rng).expect("encrypt")))
        });
        group.bench_with_input(BenchmarkId::new("decrypt", depth), &depth, |b, _| {
            b.iter(|| black_box(key.decrypt(&ct).expect("satisfies")))
        });
    }
    group.finish();
}

fn bench_chord_vs_kademlia(c: &mut Criterion) {
    table_header(
        "E9: structured-overlay geometry, 512 nodes, 40 queries",
        &["overlay", "avg msgs/query", "avg latency (ms)"],
    );
    {
        let mut chord = ChordOverlay::build(512, 3, 5);
        let mut m = Metrics::new();
        for i in 0..40u64 {
            let key = Key::hash(format!("k{i}").as_bytes());
            let w = chord.random_node(i);
            chord.store(w, key, vec![0u8; 64], &mut m).expect("store");
            chord
                .get(chord.random_node(i + 7), key, &mut m)
                .expect("get");
        }
        table_row(&[
            "chord (ring)".into(),
            format!("{:.1}", m.messages as f64 / 80.0),
            format!("{:.0}", m.latency_ms as f64 / 80.0),
        ]);
    }
    {
        let mut kad = KademliaOverlay::build(512, 3, 20, 5);
        let mut m = Metrics::new();
        for i in 0..40u64 {
            let key = Key::hash(format!("k{i}").as_bytes());
            let w = kad.random_node(i);
            kad.store(w, key, vec![0u8; 64], &mut m).expect("store");
            kad.get(kad.random_node(i + 7), key, &mut m).expect("get");
        }
        table_row(&[
            "kademlia (xor, k=20, α=3)".into(),
            format!("{:.1}", m.messages as f64 / 80.0),
            format!("{:.0}", m.latency_ms as f64 / 80.0),
        ]);
    }
    println!();

    let mut group = c.benchmark_group("e9/structured_lookup");
    group.sample_size(20);
    let mut chord = ChordOverlay::build(512, 3, 9);
    let key = Key::hash(b"target");
    group.bench_function("chord", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut m = Metrics::new();
            black_box(
                chord
                    .lookup(chord.random_node(i), key, &mut m)
                    .expect("lookup"),
            )
        })
    });
    let mut kad = KademliaOverlay::build(512, 3, 20, 9);
    group.bench_function("kademlia", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut m = Metrics::new();
            black_box(kad.lookup(kad.random_node(i), key, &mut m))
        })
    });
    group.finish();
}

fn replication_cost_table(_c: &mut Criterion) {
    table_header(
        "E9: chord per-store replica messages vs replication factor",
        &["replicas", "replicate msgs per store"],
    );
    for r in [1usize, 2, 4, 8] {
        let mut chord = ChordOverlay::build(256, r, 3);
        let mut m = Metrics::new();
        for i in 0..30u64 {
            let key = Key::hash(format!("k{i}").as_bytes());
            let w = chord.random_node(i);
            chord.store(w, key, vec![0u8; 64], &mut m).expect("store");
        }
        table_row(&[
            r.to_string(),
            format!("{:.1}", m.count("chord.replicate") as f64 / 30.0),
        ]);
    }
    println!();
}

criterion_group!(
    benches,
    bench_modpow,
    bench_abe_depth,
    bench_chord_vs_kademlia,
    replication_cost_table
);
criterion_main!(benches);
