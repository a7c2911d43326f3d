//! ISSUE 8 satellite: `SocialPlacement` with zero social edges must degrade
//! to *exactly* the wrapped plane's hash placement — same replica sets in
//! the same order, and the same `SimTrace` digest when every placement
//! decision is folded into a trace. Plus: friend preference on a real
//! graph, and quorum replication running unchanged over a `SocialPlane`.

use dosn_obs::names;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::fault::{SimTrace, TraceEvent, TraceEventKind};
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::placement::{SocialPlacement, SocialPlane};
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::social::{SocialGraph, SocialGraphConfig};
use dosn_overlay::storage::StoragePlane;

/// Folds a sequence of placement decisions into a `SimTrace` digest: one
/// event per chosen replica, keyed by (step, key, node, rank).
fn decisions_digest(decisions: &[(u64, Vec<NodeId>)]) -> String {
    let mut trace = SimTrace::new();
    for (step, (key, nodes)) in decisions.iter().enumerate() {
        for (rank, node) in nodes.iter().enumerate() {
            trace.record(TraceEvent {
                kind: TraceEventKind::Deliver,
                at_ms: step as u64,
                a: *key,
                b: node.0,
                msg_id: rank as u64,
            });
        }
    }
    trace.hex_digest()
}

#[test]
fn zero_edge_social_placement_is_byte_identical_to_hash_placement() {
    const N: usize = 64;
    const SEED: u64 = 9;
    let inner = ChordPlane::build(N, SEED);
    let placement = SocialPlacement::new(SocialGraph::empty(N), &inner.node_ids());
    let mut social = SocialPlane::new(inner, placement);
    let mut bare = ChordPlane::build(N, SEED);

    let mut social_decisions: Vec<(u64, Vec<NodeId>)> = Vec::new();
    let mut bare_decisions: Vec<(u64, Vec<NodeId>)> = Vec::new();
    let mut m_social = Metrics::new();
    let mut m_bare = Metrics::new();

    for i in 0..200u64 {
        let key = Key::hash(format!("eq/{i}").as_bytes());
        // Mid-run churn, applied identically to both planes so the RNG
        // streams and membership stay in lockstep.
        if i == 80 || i == 140 {
            let victim = bare.node_ids()[(i as usize) % N];
            social.set_online(victim, false);
            bare.set_online(victim, false);
        }
        let a = social.replica_candidates(key, 3, &mut m_social).unwrap();
        let b = bare.replica_candidates(key, 3, &mut m_bare).unwrap();
        assert_eq!(a, b, "replica sets diverged at key {i}");
        social_decisions.push((key.0, a));
        bare_decisions.push((key.0, b));
    }

    assert_eq!(
        decisions_digest(&social_decisions),
        decisions_digest(&bare_decisions),
        "placement decision digests diverged"
    );
    // The zero-edge graph never produces social candidates.
    assert_eq!(m_social.count(names::PLACEMENT_SOCIAL_HITS), 0);
    assert_eq!(m_social.count(names::PLACEMENT_FALLBACKS), 200);
    assert_eq!(m_bare.count(names::PLACEMENT_FALLBACKS), 0);
}

#[test]
fn social_placement_prefers_friends_and_counts_hits() {
    const N: usize = 96;
    let inner = ChordPlane::build(N, 11);
    let graph = SocialGraph::generate(&SocialGraphConfig::new(N, 33));
    let placement = SocialPlacement::new(graph, &inner.node_ids());
    let mut sp = SocialPlane::new(inner, placement);

    let key = Key::hash(b"dana/post/7");
    sp.placement_mut().assign_owner(key, 12);
    let mut m = Metrics::new();
    let got = sp.replica_candidates(key, 3, &mut m).unwrap();
    assert!(!got.is_empty());

    // Every candidate is the owner, a friend of the owner, or in the
    // owner's community (the social preference rule).
    let owner_node = sp.placement().node_of(12);
    let graph = sp.placement().graph();
    let friend_nodes: Vec<NodeId> = graph
        .friends(12)
        .iter()
        .map(|&f| sp.placement().node_of(f))
        .collect();
    let comm = graph.community_of(12);
    for node in &got {
        let social = *node == owner_node
            || friend_nodes.contains(node)
            || graph
                .community_range(comm)
                .any(|v| sp.placement().node_of(v) == *node);
        assert!(
            social,
            "candidate {node:?} is not socially related to owner"
        );
    }
    assert!(m.count(names::PLACEMENT_SOCIAL_HITS) >= got.len() as u64 - 2);
}

#[test]
fn quorum_replication_runs_unchanged_over_social_plane() {
    const N: usize = 64;
    let inner = ChordPlane::build(N, 5);
    let graph = SocialGraph::generate(&SocialGraphConfig::new(N, 17));
    let placement = SocialPlacement::new(graph, &inner.node_ids());
    let plane = SocialPlane::new(inner, placement);
    let mut store = ReplicatedStore::new(plane, 3).with_quorum(2);
    let mut m = Metrics::new();

    let key = Key::hash(b"erin/album/3");
    store.plane_mut().placement_mut().assign_owner(key, 8);
    let holders = store.put(key, b"payload".to_vec(), &mut m).unwrap();
    assert!(!holders.is_empty());

    // Crash one holder: the quorum read still succeeds from survivors.
    store.plane_mut().set_online(holders[0], false);
    let got = store.get(key, &mut m).unwrap();
    assert_eq!(got, b"payload");

    // Read repair restores replication after the holder recovers.
    store.plane_mut().set_online(holders[0], true);
    let copies = store.fetch_copies(key, &mut m).unwrap();
    store.repair_copies(&copies, b"payload", &mut m);
    let again = store.get(key, &mut m).unwrap();
    assert_eq!(again, b"payload");
}

#[test]
fn declared_owner_changes_placement_deterministically() {
    const N: usize = 48;
    let build = || {
        let inner = ChordPlane::build(N, 3);
        let graph = SocialGraph::generate(&SocialGraphConfig::new(N, 29));
        let placement = SocialPlacement::new(graph, &inner.node_ids());
        SocialPlane::new(inner, placement)
    };
    let mut a = build();
    let mut b = build();
    let key = Key::hash(b"frank/status");
    a.placement_mut().assign_owner(key, 30);
    b.placement_mut().assign_owner(key, 30);
    let mut ma = Metrics::new();
    let mut mb = Metrics::new();
    let ca = a.replica_candidates(key, 3, &mut ma).unwrap();
    let cb = b.replica_candidates(key, 3, &mut mb).unwrap();
    assert_eq!(ca, cb, "identical builds must place identically");
}
