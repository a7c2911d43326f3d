//! Experiment E10: structured-overlay resilience under churn (§II-B × §I).
//!
//! The survey's structured DOSNs assume the DHT keeps resolving lookups
//! while peers come and go. This experiment stores content on a healthy
//! Chord ring, knocks a fraction of nodes offline *without* stabilizing,
//! measures retrieval success and hop inflation, then runs one
//! stabilization round and measures again — quantifying both the damage
//! churn does between maintenance rounds and what maintenance buys back.

use criterion::{criterion_group, criterion_main, Criterion};
use dosn_bench::{table_header, table_row};
use dosn_obs::Histogram;
use dosn_overlay::chord::ChordOverlay;
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use std::hint::black_box;

const KEYS: u64 = 60;

struct Outcome {
    success_rate: f64,
    avg_hops: f64,
}

fn measure(ring: &mut ChordOverlay) -> Outcome {
    let mut ok = 0u64;
    let mut hops = Histogram::new();
    for i in 0..KEYS {
        let key = Key::hash(format!("item-{i}").as_bytes());
        let mut m = Metrics::new();
        let from = ring.random_node(i * 13 + 1);
        if ring.get(from, key, &mut m).is_ok() {
            ok += 1;
        }
        hops.record(m.count("chord.hop"));
    }
    Outcome {
        success_rate: ok as f64 / KEYS as f64,
        avg_hops: hops.mean(),
    }
}

fn churn_table() {
    table_header(
        "E10: chord retrieval under churn (256 nodes, 3 replicas, 60 keys)",
        &[
            "offline fraction",
            "success (pre-stabilize)",
            "hops (pre)",
            "success (post-stabilize)",
            "hops (post)",
        ],
    );
    for offline_pct in [0usize, 10, 25, 40, 60] {
        let mut ring = ChordOverlay::build(256, 3, 21);
        let mut m = Metrics::new();
        for i in 0..KEYS {
            let key = Key::hash(format!("item-{i}").as_bytes());
            let from = ring.random_node(i);
            ring.store(from, key, vec![0u8; 128], &mut m)
                .expect("store");
        }
        // Knock out a deterministic fraction without stabilizing.
        let ids = ring.node_ids();
        let victims = ids.len() * offline_pct / 100;
        for id in ids.iter().take(victims) {
            ring.set_online(*id, false);
        }
        let pre = measure(&mut ring);
        ring.stabilize();
        let post = measure(&mut ring);
        table_row(&[
            format!("{offline_pct}%"),
            format!("{:.2}", pre.success_rate),
            format!("{:.1}", pre.avg_hops),
            format!("{:.2}", post.success_rate),
            format!("{:.1}", post.avg_hops),
        ]);
    }
    println!(
        "\nexpected shape: success degrades with the offline fraction (replica\n\
         exhaustion) and routing works harder; stabilization restores routing\n\
         efficiency but cannot resurrect keys whose whole replica set is down\n"
    );
}

fn bench_churn_lookup(c: &mut Criterion) {
    churn_table();
    let mut group = c.benchmark_group("e10/lookup_under_churn");
    group.sample_size(20);
    for offline_pct in [0usize, 25, 50] {
        let mut ring = ChordOverlay::build(256, 3, 22);
        let ids = ring.node_ids();
        for id in ids.iter().take(ids.len() * offline_pct / 100) {
            ring.set_online(*id, false);
        }
        let key = Key::hash(b"probe");
        group.bench_function(format!("offline_{offline_pct}pct"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let mut m = Metrics::new();
                let from = ring.random_node(i);
                black_box(ring.lookup(from, key, &mut m).expect("routes"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn_lookup);
criterion_main!(benches);
