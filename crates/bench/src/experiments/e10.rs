//! Experiment E10: structured-overlay resilience under churn (§II-B × §I).
//!
//! The survey's structured DOSNs assume the DHT keeps resolving lookups
//! while peers come and go. This experiment stores content on a healthy
//! Chord ring, knocks a fraction of nodes offline *without* stabilizing,
//! measures retrieval success and hop inflation, then runs one
//! stabilization round and measures again — quantifying both the damage
//! churn does between maintenance rounds and what maintenance buys back.

use crate::{num, Cell, Run};
use dosn_obs::Histogram;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::storage::StoragePlane;

const KEYS: u64 = 60;

/// `[success rate, mean hops]` of reading every key back (a read repairs
/// the live candidates that lack the key).
fn measure(store: &mut ReplicatedStore<ChordPlane>) -> [Cell; 2] {
    let mut ok = 0u64;
    let mut hops = Histogram::new();
    for i in 0..KEYS {
        let key = Key::hash(format!("item-{i}").as_bytes());
        let mut m = Metrics::new();
        if store.get(key, &mut m).is_ok() {
            ok += 1;
        }
        hops.record(m.count("chord.hop"));
    }
    [num(ok as f64 / KEYS as f64, 2), num(hops.mean(), 1)]
}

pub(super) fn run(run: &mut Run) {
    run.table(
        "E10: chord retrieval under churn (256 nodes, 3 replicas, 60 keys)",
        "offline fraction | success (pre-stabilize) | hops (pre) | success (post-stabilize) | \
         hops (post)",
    );
    for offline_pct in [0usize, 10, 25, 40, 60] {
        // A read succeeds on any one live copy: quorum 1 of 3.
        let mut store = ReplicatedStore::new(ChordPlane::build(256, 21), 3).with_quorum(1);
        let mut m = Metrics::new();
        for i in 0..KEYS {
            let key = Key::hash(format!("item-{i}").as_bytes());
            store.put(key, vec![0u8; 128], &mut m).expect("store");
        }
        // Knock out a deterministic fraction without stabilizing.
        let ids = store.plane().node_ids();
        let victims = ids.len() * offline_pct / 100;
        for id in ids.iter().take(victims) {
            store.plane_mut().set_online(*id, false);
        }
        let [pre_ok, pre_hops] = measure(&mut store);
        store.plane_mut().stabilize();
        let [post_ok, post_hops] = measure(&mut store);
        run.row(&[
            format!("{offline_pct}%").into(),
            pre_ok,
            pre_hops,
            post_ok,
            post_hops,
        ]);
    }
    println!(
        "\nexpected shape: success degrades with the offline fraction (replica\n\
         exhaustion) and routing works harder; stabilization restores routing\n\
         efficiency but cannot resurrect keys whose whole replica set is down"
    );
}
