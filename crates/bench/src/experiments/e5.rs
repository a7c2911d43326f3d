//! Experiment E5 (survey §II-B): lookup cost across DOSN organizations.
//!
//! The same content-lookup workload over all five families. Expected shape:
//! structured is O(log n) hops, unstructured flooding is O(n) messages,
//! super-peer and federation are small constants, hybrid approaches O(1)
//! messages for popular content once caches warm. (What a lookup costs the
//! *simulator* in wall-clock is E18's `overlay.*.candidates_us`.)

use crate::{num, Run};
use dosn_obs::Histogram;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::federation::FederationPlane;
use dosn_overlay::flood::UnstructuredOverlay;
use dosn_overlay::hybrid::HybridOverlay;
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::superpeer::SuperPeerPlane;

const QUERIES: u64 = 40;

/// `[avg msgs, avg hops, avg latency (ms)]` per query.
type CostRow = [f64; 3];

fn chord_costs(n: usize) -> CostRow {
    // A read succeeds on any one live copy: quorum 1 of 3.
    let mut net = ReplicatedStore::new(ChordPlane::build(n, 5), 3).with_quorum(1);
    let mut m = Metrics::new();
    let mut hops = Histogram::new();
    for i in 0..QUERIES {
        let key = Key::hash(format!("k{i}").as_bytes());
        net.put(key, vec![0u8; 128], &mut m).expect("store");
        let mut per = Metrics::new();
        net.get(key, &mut per).expect("get");
        hops.record(per.count("chord.hop"));
        m.merge(&per);
    }
    [
        m.messages as f64 / (2.0 * QUERIES as f64),
        hops.mean(),
        // merge() keeps the critical-path max in `latency_ms`; the summed
        // sequential total lives in the latency distribution.
        m.latency.sum() as f64 / (2.0 * QUERIES as f64),
    ]
}

fn flood_costs(n: usize) -> CostRow {
    let mut net = UnstructuredOverlay::build(n, 4, 6);
    let mut m = Metrics::new();
    let mut hops = Histogram::new();
    for i in 0..QUERIES {
        let key = Key::hash(format!("k{i}").as_bytes());
        net.publish(NodeId(i % n as u64), key);
        let mut per = Metrics::new();
        if let Some((_, h)) = net.flood_search(NodeId((i * 13 + 1) % n as u64), key, 10, &mut per) {
            hops.record(u64::from(h));
        }
        m.merge(&per);
    }
    [
        m.messages as f64 / QUERIES as f64,
        hops.mean(),
        m.latency.sum() as f64 / QUERIES as f64,
    ]
}

fn superpeer_costs(n: usize) -> CostRow {
    let supers = (n / 16).max(1);
    let mut net = SuperPeerPlane::build(n, supers, 7);
    let mut m = Metrics::new();
    for i in 0..QUERIES {
        let key = Key::hash(format!("k{i}").as_bytes());
        net.publish(NodeId(i % n as u64), key);
        net.search(NodeId((i * 13 + 1) % n as u64), key, &mut m);
    }
    [
        m.messages as f64 / QUERIES as f64,
        m.messages as f64 / QUERIES as f64,
        m.latency_ms as f64 / QUERIES as f64,
    ]
}

fn hybrid_costs(n: usize) -> CostRow {
    let mut net = HybridOverlay::build(n, 3, 32, 8);
    let mut m = Metrics::new();
    // Zipf-ish: one hot key read by everyone.
    let hot = Key::hash(b"hot");
    net.put(hot, vec![0u8; 128], &mut m).expect("put");
    let mut read_metrics = Metrics::new();
    for i in 0..QUERIES {
        let r = net.dht().random_node(i * 3 + 1).expect("an online reader");
        net.get(r, hot, &mut read_metrics).expect("get");
    }
    [
        read_metrics.messages as f64 / QUERIES as f64,
        read_metrics.count("chord.hop") as f64 / QUERIES as f64,
        read_metrics.latency_ms as f64 / QUERIES as f64,
    ]
}

fn federation_costs(n: usize) -> CostRow {
    let servers = 8;
    let mut net = FederationPlane::build(servers);
    for i in 0..n {
        net.register(&format!("u{i}"), i % servers)
            .expect("register");
    }
    let mut m = Metrics::new();
    for i in 0..QUERIES {
        let owner = format!("u{}", i % n as u64);
        let key = Key::hash(format!("k{i}").as_bytes());
        net.store(&owner, key, vec![0u8; 128], &mut m)
            .expect("store");
        net.fetch(&format!("u{}", (i + 3) % n as u64), key, &owner, &mut m)
            .expect("fetch");
    }
    [
        m.messages as f64 / (2.0 * QUERIES as f64),
        m.count("fed.server_relay") as f64 / QUERIES as f64,
        m.latency_ms as f64 / (2.0 * QUERIES as f64),
    ]
}

pub(super) fn run(run: &mut Run) {
    for n in [64usize, 256, 1024] {
        run.table(
            &format!("E5: per-query lookup cost, {n} nodes"),
            "organization | avg msgs | avg hops | avg latency (ms)",
        );
        for (name, [msgs, hops, latency_ms]) in [
            ("structured (chord)", chord_costs(n)),
            ("unstructured (flood)", flood_costs(n)),
            ("semi-structured (super-peer)", superpeer_costs(n)),
            ("hybrid (dht+cache, hot key)", hybrid_costs(n)),
            ("federation (8 pods)", federation_costs(n)),
        ] {
            run.row(&[name.into(), num(msgs, 1), num(hops, 1), num(latency_ms, 0)]);
        }
    }
}
