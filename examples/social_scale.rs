//! Scale quickstart: a 50k-node ring, a scale-free social graph, and
//! socially-aware replica placement.
//!
//! Builds the arena-backed Chord plane at 50 000 nodes, generates a
//! seeded power-law social graph over the same population, and compares
//! hash placement against `SocialPlane` placement for a batch of posts
//! whose owners are graph vertices. Social placement puts replicas on the
//! owner's friends, so most placement queries skip the O(log n) DHT
//! lookup entirely — the hop counter at the end shows the gap. The full
//! sweep (up to N = 1M) lives in `cargo run --release -p dosn-bench --
//! e15`.
//!
//! Run with: `cargo run --release --example social_scale`

use dosn::core::network::{
    ChordPlane, ReplicatedStore, SocialGraphConfig, SocialPlacement, SocialPlane, WorkloadGraph,
};
use dosn::obs::names;
use dosn::overlay::id::Key;
use dosn::overlay::metrics::Metrics;
use dosn::overlay::storage::StoragePlane;

const N: usize = 50_000;
const POSTS: usize = 500;
const SEED: u64 = 42;

fn keys() -> Vec<(Key, u32)> {
    (0..POSTS)
        .map(|i| {
            let key = Key::hash(format!("user{i}/post").as_bytes());
            (key, ((i * 101) % N) as u32)
        })
        .collect()
}

fn run<P: StoragePlane>(store: &mut ReplicatedStore<P>) -> Metrics {
    let mut m = Metrics::new();
    for (key, _) in keys() {
        store.put(key, b"hello at scale".to_vec(), &mut m).unwrap();
        assert_eq!(store.get(key, &mut m).unwrap(), b"hello at scale");
    }
    m
}

fn main() {
    // Baseline: hash placement on a bare Chord plane.
    let mut hash_store = ReplicatedStore::new(ChordPlane::build(N, SEED), 3);
    let hash_m = run(&mut hash_store);

    // Social: the same ring, replicas preferred on the owner's friends.
    let graph = WorkloadGraph::generate(&SocialGraphConfig::new(N, SEED));
    println!(
        "social graph: {N} users, {} friendships, {} communities, connected={}",
        graph.edge_count(),
        graph.communities(),
        graph.is_connected(),
    );
    let plane = ChordPlane::build(N, SEED);
    let placement = SocialPlacement::new(graph, &plane.node_ids());
    let mut social = SocialPlane::new(plane, placement);
    for (key, owner) in keys() {
        social.placement_mut().assign_owner(key, owner);
    }
    let mut social_store = ReplicatedStore::new(social, 3);
    let social_m = run(&mut social_store);

    let mem = social_store.plane().inner().memory_bytes()
        + social_store.plane().placement().memory_bytes();
    println!(
        "placement over {POSTS} posts (put + quorum get, R=3):\n\
         \x20 hash   placement: {:>6} Chord hops\n\
         \x20 social placement: {:>6} Chord hops \
         ({} social candidates served, {} fallbacks)",
        hash_m.count(names::CHORD_HOP),
        social_m.count(names::CHORD_HOP),
        social_m.count(names::PLACEMENT_SOCIAL_HITS),
        social_m.count(names::PLACEMENT_FALLBACKS),
    );
    println!(
        "simulator state: {:.1} bytes/node (arena + interned storage + graph)",
        mem as f64 / N as f64
    );
}
