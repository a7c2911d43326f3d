//! Overlay organizations and availability under churn (survey §I / §II).
//!
//! Part 1 runs the same lookup workload over all five §II-B organizations
//! and prints the cost profile (hops, messages, latency). Part 2 sweeps the
//! replication factor under churn, demonstrating the survey's motivating
//! claim that "replication and caching are proven techniques to ensure
//! availability".
//!
//! Run with: `cargo run --example availability_churn` (use `--release` for
//! larger populations).

use dosn::overlay::chord::ChordPlane;
use dosn::overlay::churn::{run_availability, ChurnConfig};
use dosn::overlay::federation::FederationPlane;
use dosn::overlay::flood::UnstructuredOverlay;
use dosn::overlay::hybrid::HybridOverlay;
use dosn::overlay::id::{Key, NodeId};
use dosn::overlay::metrics::Metrics;
use dosn::overlay::replication::ReplicatedStore;
use dosn::overlay::superpeer::SuperPeerPlane;

const N: usize = 256;
const QUERIES: u64 = 50;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== lookup cost by overlay organization ({N} nodes, {QUERIES} queries) ==");

    // Structured: a 3-way replicated Chord DHT.
    let mut chord = ReplicatedStore::new(ChordPlane::build(N, 1), 3);
    let mut m = Metrics::new();
    for i in 0..QUERIES {
        let key = Key::hash(format!("item-{i}").as_bytes());
        chord.put(key, vec![0u8; 256], &mut m)?;
        chord.get(key, &mut m)?;
    }
    row("structured (Chord)", &m);

    // Unstructured: flooding.
    let mut flood = UnstructuredOverlay::build(N, 4, 2);
    let mut m = Metrics::new();
    for i in 0..QUERIES {
        let key = Key::hash(format!("item-{i}").as_bytes());
        flood.publish(NodeId(i % N as u64), key);
        flood.flood_search(NodeId((i * 7 + 1) % N as u64), key, 8, &mut m);
    }
    row("unstructured (flood)", &m);

    // Semi-structured: super-peers.
    let mut sp = SuperPeerPlane::build(N, 16, 3);
    let mut m = Metrics::new();
    for i in 0..QUERIES {
        let key = Key::hash(format!("item-{i}").as_bytes());
        sp.publish(NodeId(i % N as u64), key);
        sp.search(NodeId((i * 7 + 1) % N as u64), key, &mut m);
    }
    row("semi-structured (super-peer)", &m);

    // Hybrid: DHT + social caches. Zipf-ish: everyone reads item 0.
    let mut hybrid = HybridOverlay::build(N, 3, 32, 4);
    let mut m = Metrics::new();
    let hot = Key::hash(b"viral-item");
    hybrid.put(hot, vec![0u8; 256], &mut m)?;
    for i in 0..QUERIES {
        let reader = hybrid
            .dht()
            .random_node(i * 3 + 1)
            .ok_or("no online reader")?;
        hybrid.get(reader, hot, &mut m)?;
    }
    row("hybrid (DHT + cache)", &m);

    // Server federation.
    let mut fed = FederationPlane::build(8);
    for i in 0..N {
        fed.register(&format!("user{i}"), i % 8)?;
    }
    let mut m = Metrics::new();
    for i in 0..QUERIES {
        let owner = format!("user{}", i % N as u64);
        let key = Key::hash(format!("item-{i}").as_bytes());
        fed.store(&owner, key, vec![0u8; 256], &mut m)?;
        fed.fetch(&format!("user{}", (i + 5) % N as u64), key, &owner, &mut m)?;
    }
    row("server federation", &m);
    println!(
        "federation max single-server view: {:.1}% of users (centralized = 100%)",
        fed.max_view_fraction() * 100.0
    );

    // ---- Part 2: availability vs replication under churn (E6 preview) ----
    println!("\n== availability vs replication factor (uptime ≈ 33%, 3 days) ==");
    println!(
        "{:<10} {:>14} {:>14} {:>8}",
        "replicas", "mean avail", "min avail", "lost"
    );
    for replicas in [1usize, 2, 3, 4, 6, 8] {
        let report = run_availability(&ChurnConfig {
            nodes: 200,
            objects: 60,
            replicas,
            duration_min: 3 * 24 * 60,
            leave_probability: 0.01,
            repair_lag_min: Some(45.0),
            ..ChurnConfig::default()
        });
        println!(
            "{:<10} {:>13.1}% {:>13.1}% {:>8}",
            replicas,
            report.mean_availability * 100.0,
            report.min_availability * 100.0,
            report.objects_lost
        );
    }
    Ok(())
}

fn row(name: &str, m: &Metrics) {
    println!(
        "{:<30} {:>8} msgs {:>10} bytes {:>8} ms   (per query: {:.1} msgs)",
        name,
        m.messages,
        m.bytes,
        m.latency_ms,
        m.messages as f64 / QUERIES as f64
    );
}
