//! Choosing a storage plane: one social API over four §II-B overlays.
//!
//! An `Engine` is built over a `ReplicatedStore`, and the store over any
//! `StoragePlane`. This example runs the same
//! friends-only scenario over all four backends, crashes one replica
//! holder, and shows the quorum read surviving with a read repair.
//!
//! All four networks share one observability `Registry`, so the final
//! instrument table aggregates end-to-end post/read timings, quorum-read
//! and repair latencies, and crypto cache counters across every plane.
//!
//! Run with: `cargo run --example overlay_planes`

use dosn::core::engine::Engine;
use dosn::core::network::{
    ChordPlane, FederationPlane, KademliaPlane, ReplicatedStore, StoragePlane, SuperPeerPlane,
};
use dosn::obs::Registry;
use dosn::overlay::fault::FaultPlan;

const SEED: u64 = 7;

fn scenario<S: StoragePlane>(name: &str, plane: S, obs: &Registry) {
    // R = 3 replicas, majority read quorum (2 of 3); the store adopts the
    // shared registry and the engine inherits it.
    let store = ReplicatedStore::new(plane, 3).with_obs(obs.clone());
    let mut net = Engine::new(store, SEED);
    net.register("alice").unwrap();
    net.register("bob").unwrap();
    net.register("eve").unwrap();
    net.befriend("alice", "bob", 0.9).unwrap();

    let seq = net.post("alice", "friends-only, any overlay").unwrap();
    assert_eq!(
        net.read_post("bob", "alice", seq).unwrap(),
        "friends-only, any overlay"
    );
    assert!(net.read_post("eve", "alice", seq).is_err());

    // Crash the post's first replica holder through the fault harness;
    // the wall stays readable off the surviving replicas and the quorum
    // read re-fills the gap (a read repair).
    let key = dosn::core::engine::wall_key("alice", seq);
    let mut m = dosn::overlay::metrics::Metrics::new();
    let victim = net
        .storage_mut()
        .plane_mut()
        .replica_candidates(key, 1, &mut m)
        .unwrap()[0];
    let crashed = net.apply_crashes(&FaultPlan::default().with_crash(victim, 0), 1);
    let still = net.read_post("bob", "alice", seq).is_ok();

    println!(
        "{name:<12} replicas={} quorum={} crashed={crashed} readable_after_crash={still} repairs={}",
        net.storage().replicas(),
        net.storage().read_quorum(),
        net.metrics().count("get.repairs"),
    );
}

fn main() {
    println!("same social API, four storage planes (R=3, quorum 2):\n");
    let obs = Registry::new();
    scenario("chord", ChordPlane::build(64, SEED), &obs);
    scenario("kademlia", KademliaPlane::build(64, 20, SEED), &obs);
    scenario("superpeer", SuperPeerPlane::build(64, 8, SEED), &obs);
    scenario("federation", FederationPlane::build(12), &obs);

    println!("\ninstruments across all four planes:\n");
    print!("{}", obs.snapshot().fmt_table());
}
