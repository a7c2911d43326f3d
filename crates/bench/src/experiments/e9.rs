//! Experiment E9: ablations over the workspace's own design choices
//! (DESIGN.md "expected shapes" that are about *our* substrate rather than
//! the survey's claims).
//!
//! * CP-ABE cost vs policy depth (secret-sharing tree recursion);
//! * Chord vs Kademlia on the identical lookup workload (structured-overlay
//!   geometry choice);
//! * Chord replication factor vs copies written per put.
//!
//! The exponentiation-engine ablation is `e9-engine`, batched signature
//! verification `e9-batch`.

use crate::{num, wall, Run};
use dosn_crypto::abe::{AbeAuthority, Policy};
use dosn_crypto::chacha::SecureRng;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::id::Key;
use dosn_overlay::kademlia::KademliaPlane;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::storage::StoragePlane;
use std::hint::black_box;

/// Policy of the shape ((a0 AND a1) AND a2) ... nested to `depth`.
fn deep_policy(depth: usize) -> Policy {
    let mut p = Policy::Attr("a0".into());
    for i in 1..=depth {
        p = Policy::And(vec![p, Policy::Attr(format!("a{i}"))]);
    }
    p
}

fn abe_depth(run: &mut Run) {
    let mut auth = AbeAuthority::new([1u8; 32]);
    let mut rng = SecureRng::seed_from_u64(1);
    run.table(
        "E9: CP-ABE ciphertext size and cost vs policy depth",
        "depth (AND-nesting) | attributes | ciphertext bytes | encrypt (ns) | decrypt (ns)",
    );
    // Depth 64 is a 5 MiB ciphertext: left out of the `--fast` sweep.
    for &depth in run.pick(&[1usize, 4, 16, 64][..], &[1, 4, 16]) {
        let p = deep_policy(depth);
        let ct = auth.encrypt(&p, b"payload", &mut rng).expect("encrypt");
        let attrs: Vec<String> = (0..=depth).map(|i| format!("a{i}")).collect();
        let key = auth.issue_key("user", &attrs);
        let encrypt_ns = run.time_ns(10, || {
            black_box(auth.encrypt(&p, b"payload", &mut rng).expect("encrypt"));
        });
        let decrypt_ns = run.time_ns(10, || {
            black_box(key.decrypt(&ct).expect("satisfies"));
        });
        run.row(&[
            depth.into(),
            (depth + 1).into(),
            ct.size_bytes().into(),
            wall(encrypt_ns, 0),
            wall(decrypt_ns, 0),
        ]);
    }
}

/// `[msgs, latency (ms)]` per operation of 40 replicated puts, each read
/// back once through the quorum path.
fn put_get_costs(plane: impl StoragePlane) -> [f64; 2] {
    let mut store = ReplicatedStore::new(plane, 3);
    let mut m = Metrics::new();
    for i in 0..40u64 {
        let key = Key::hash(format!("k{i}").as_bytes());
        store.put(key, vec![0u8; 64], &mut m).expect("store");
        store.get(key, &mut m).expect("get");
    }
    [m.messages as f64 / 80.0, m.latency_ms as f64 / 80.0]
}

fn chord_vs_kademlia(run: &mut Run) {
    run.table(
        "E9: structured-overlay geometry, 512 nodes, 40 queries",
        "overlay | avg msgs/query | avg latency (ms)",
    );
    for (name, [msgs, latency_ms]) in [
        ("chord (ring)", put_get_costs(ChordPlane::build(512, 5))),
        (
            "kademlia (xor, k=20, α=3)",
            put_get_costs(KademliaPlane::build(512, 20, 5)),
        ),
    ] {
        run.row(&[name.into(), num(msgs, 1), num(latency_ms, 0)]);
    }
}

fn replication_cost(run: &mut Run) {
    run.table(
        "E9: chord copies written per put vs replication factor",
        "replicas | copies written per put",
    );
    for r in [1usize, 2, 4, 8] {
        let mut store = ReplicatedStore::new(ChordPlane::build(256, 3), r);
        let mut m = Metrics::new();
        for i in 0..30u64 {
            let key = Key::hash(format!("k{i}").as_bytes());
            store.put(key, vec![0u8; 64], &mut m).expect("store");
        }
        run.row(&[
            r.into(),
            num(m.count("store.replicas_written") as f64 / 30.0, 1),
        ]);
    }
}

pub(super) fn run(run: &mut Run) {
    abe_depth(run);
    chord_vs_kademlia(run);
    replication_cost(run);
}
