//! The system under test: one engine configuration shared by every
//! workload (no per-workload knobs in the program — the only switch the
//! harness flips is arming the adversary for `read_tamper_f1`).

use dosn_core::engine::Engine;
use dosn_core::network::{
    AdversaryConfig, AdversaryMode, AdversaryPlane, ChordPlane, ReplicatedStore, SocialPlacement,
    SocialPlane, WorkloadGraph,
};
use dosn_overlay::id::Key;
use dosn_overlay::storage::StoragePlane;

pub type Plane = AdversaryPlane<SocialPlane<ChordPlane>>;
pub type Sut = Engine<Plane>;

/// Users (= social-graph vertices).
pub const USERS: usize = 2_000;
/// Overlay nodes on the Chord ring.
pub const NODES: usize = 128;
/// Replication factor R (read quorum is the default majority, 2).
pub const REPLICAS: usize = 3;
/// Capacity of the L1 feed cache (posts) and the L2 hot cache (envelopes).
pub const CACHE_CAPACITY: usize = 1 << 16;
/// `read_feed` depth: latest posts per friend.
pub const FEED_DEPTH: usize = 3;
/// The engine's own root seed (op randomness, ring layout, adversary
/// choices). Constant: `--seed` feeds only the request generator.
pub const ENGINE_SEED: u64 = 0xE18;

/// The friendship graph's seed. Constant: the graph is the data set every
/// run serves (placement and befriends both come from it); `--seed` draws
/// the requests against it.
pub const GRAPH_SEED: u64 = 0xE18;

/// Worker threads of the end-to-end runs: one core is left to the client
/// thread, the kernel and whatever else the host runs, and the rest, at
/// most 2, go to the engine — 1 on a 2-core box. With as many workers as
/// cores every other runnable thread preempts a worker and the phase waits
/// for it: at 2 workers on 2 cores the 2-second readings of one seed
/// scattered by +-7 %, at 1 worker by +-1 %.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| (n.get() - 1).clamp(1, 2))
}

/// The replicated store under the engine: R = 3 over a 128-node Chord
/// ring with social placement bound to `graph`, adversary disarmed.
pub fn build_store(graph: &WorkloadGraph) -> ReplicatedStore<Plane> {
    let ring = ChordPlane::build(NODES, ENGINE_SEED);
    let placement = SocialPlacement::new(graph.clone(), &ring.node_ids());
    let adversary = AdversaryConfig::new(ENGINE_SEED, 1).with_mode(AdversaryMode::Tamper);
    let plane = AdversaryPlane::new(SocialPlane::new(ring, placement), adversary);
    ReplicatedStore::new(plane, REPLICAS)
}

/// Builds the full stack over `graph`.
pub fn build(graph: &WorkloadGraph, workers: usize) -> Sut {
    let mut engine = Engine::new(build_store(graph), ENGINE_SEED);
    engine.enable_feed_cache(CACHE_CAPACITY);
    engine.enable_hot_cache(CACHE_CAPACITY);
    engine.set_batch_verify(true);
    engine.set_workers(workers);
    engine
}

/// The storage key of `author`'s post `seq`. Mirrors the engine's
/// crate-private `wall_key`; set-up asserts the two agree by fetching a
/// prefilled post under this key.
pub fn wall_key(author: &str, seq: u64) -> Key {
    Key::hash(format!("wall/{author}/{seq}").as_bytes())
}

/// Declares `vertex` the owner of `author`'s post `seq`, so social
/// placement puts the replicas on the author's friends — the same graph
/// the befriend ops built.
pub fn assign_owner(engine: &mut Sut, author: &str, seq: u64, vertex: u32) {
    engine
        .storage_mut()
        .plane_mut()
        .inner_mut()
        .placement_mut()
        .assign_owner(wall_key(author, seq), vertex);
}

/// Arms or disarms the tampering adversary (f = 1 of R = 3 per key).
pub fn set_adversary(engine: &mut Sut, enabled: bool) {
    engine.storage_mut().plane_mut().set_enabled(enabled);
}

/// Empties both caches (the cold-scan workloads call this between passes
/// so that every pass reads every envelope with nothing cached).
pub fn reset_caches(engine: &mut Sut) {
    engine.enable_feed_cache(CACHE_CAPACITY);
    engine.enable_hot_cache(CACHE_CAPACITY);
}
