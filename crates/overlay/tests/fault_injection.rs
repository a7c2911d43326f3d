//! Integration tests for link faults: overlay lookups surviving lossy links
//! and healed partitions via the retry hooks, and a reliable link being
//! indistinguishable from no fault layer at all.

use dosn_overlay::chord::{ChordPlane, DhtError};
use dosn_overlay::fault::LinkFaults;
use dosn_overlay::flood::UnstructuredOverlay;
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::kademlia::KademliaPlane;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::storage::StoragePlane;
use dosn_overlay::superpeer::SuperPeerPlane;

/// Acceptance criterion: Chord lookups still converge under 10% message
/// loss once a two-way partition heals.
#[test]
fn chord_lookup_converges_under_loss_with_healed_partition() {
    let mut chord = ChordPlane::build(64, 7);
    let ids = chord.node_ids();
    let (side_a, side_b) = ids.split_at(ids.len() / 2);
    let mut faults =
        LinkFaults::new(42, 0.10).with_partition(side_a.iter().copied(), side_b.iter().copied());

    // While partitioned, a lookup that must cross the cut fails.
    let key = Key::hash(b"profile:alice");
    let mut m = Metrics::new();
    let owner = chord
        .lookup(side_a[0], key, &mut m)
        .expect("fault-free lookup");
    let from = if side_b.contains(&owner) {
        side_a[0]
    } else {
        side_b[0]
    };
    assert!(
        chord
            .lookup_with_faults(from, key, &mut m, &mut faults, 4)
            .is_err(),
        "cross-partition lookup cannot succeed"
    );

    // Healed: every lookup converges to the same owner despite 10% loss.
    faults.heal_partitions();
    for (i, &start) in ids.iter().enumerate() {
        let key = Key::hash(format!("post:{i}").as_bytes());
        let mut m_ok = Metrics::new();
        let expect = chord
            .lookup(start, key, &mut m_ok)
            .expect("reference lookup");
        let mut m_faulty = Metrics::new();
        let got = chord
            .lookup_with_faults(start, key, &mut m_faulty, &mut faults, 4)
            .expect("lookup under 10% loss");
        assert_eq!(got, expect, "loss must not change the route's destination");
    }
    assert!(faults.failures > 0, "10% loss must actually bite");
}

/// Acceptance criterion: Kademlia lookups still find live replicas under
/// 10% loss once a two-way partition heals.
#[test]
fn kademlia_lookup_converges_under_loss_with_healed_partition() {
    let mut kad = KademliaPlane::build(64, 20, 13);
    let ids = kad.node_ids();
    let from = ids[0];
    // Isolate the querying node from everyone else: a clean two-way cut.
    let mut faults =
        LinkFaults::new(9, 0.10).with_partition([from], ids.iter().copied().filter(|&n| n != from));

    let key = Key::hash(b"profile:bob");
    let mut m = Metrics::new();
    assert!(
        kad.lookup_with_faults(from, key, 3, &mut m, &mut faults, 4)
            .is_empty(),
        "an isolated node reaches no replicas"
    );

    faults.heal_partitions();
    let mut m2 = Metrics::new();
    let found = kad.lookup_with_faults(from, key, 3, &mut m2, &mut faults, 4);
    assert_eq!(found.len(), 3, "healed lookup reaches a full replica set");

    // Another start across the healed, lossy overlay finds the same set.
    let mut m3 = Metrics::new();
    let replicas = kad.lookup_with_faults(ids[5], key, 3, &mut m3, &mut faults, 4);
    assert!(
        replicas.iter().any(|r| found.contains(r)),
        "lossy lookup agrees with the earlier replica set"
    );
}

#[test]
fn flood_search_routes_around_loss() {
    let mut net = UnstructuredOverlay::build(64, 6, 3);
    let key = Key::hash(b"item");
    net.publish(NodeId(40), key);

    // Under 20% loss with retries, flooding's redundancy still finds it.
    let mut lossy = LinkFaults::new(21, 0.2);
    let mut m2 = Metrics::new();
    let found = net.flood_search_with_faults(NodeId(0), key, 6, &mut m2, &mut lossy, 2);
    assert_eq!(found.map(|(n, _)| n), Some(NodeId(40)));
    assert!(m2.count("flood.retry") > 0, "retries were exercised");
}

#[test]
fn superpeer_search_fails_closed_on_partition_and_retries_loss() {
    let mut sp = SuperPeerPlane::build(64, 4, 1);
    let key = Key::hash(b"song");
    sp.publish(NodeId(9), key);
    let leaf = NodeId(17);
    let own_super = sp.super_of(leaf).unwrap();

    let mut cut = LinkFaults::reliable().with_partition([leaf], [own_super]);
    let mut m = Metrics::new();
    assert_eq!(sp.search_with_faults(leaf, key, &mut m, &mut cut, 3), None);

    // Moderate loss with a retry budget: the constant-hop search succeeds.
    let mut lossy = LinkFaults::new(5, 0.3);
    let mut m2 = Metrics::new();
    let mut successes = 0;
    for _ in 0..20 {
        if sp
            .search_with_faults(leaf, key, &mut m2, &mut lossy, 5)
            .is_some()
        {
            successes += 1;
        }
    }
    assert!(
        successes >= 18,
        "retries should mask 30% loss: {successes}/20"
    );
    assert!(m2.count("super.retry") > 0);
}

/// Runs 32 queries against two identically built overlays — `plain` through
/// the plain entry point, `twin` through the `*_with_faults` one under
/// [`LinkFaults::reliable`] — and asserts equal results and byte-equal
/// `Metrics` (messages, bytes, per-type counts, critical-path latency and
/// its distribution): same hops, same overlay-RNG draws, same record order.
fn assert_twin<N, R: std::fmt::Debug + PartialEq>(
    name: &str,
    build: impl Fn() -> N,
    plain: impl Fn(&mut N, usize, &mut Metrics) -> R,
    twin: impl Fn(&mut N, usize, &mut Metrics, &mut LinkFaults) -> R,
) {
    let (mut net_plain, mut net_twin) = (build(), build());
    let (mut m_plain, mut m_twin) = (Metrics::new(), Metrics::new());
    let mut reliable = LinkFaults::reliable();
    for i in 0..32 {
        let expect = plain(&mut net_plain, i, &mut m_plain);
        let got = twin(&mut net_twin, i, &mut m_twin, &mut reliable);
        assert_eq!(got, expect, "{name}: query {i} diverged");
    }
    assert_eq!(m_plain, m_twin, "{name}: metrics diverged");
    assert!(m_plain.messages > 0, "{name}: the run routed nothing");
    assert!(reliable.attempts > 0, "{name}: the twin crossed no link");
    assert_eq!(reliable.failures, 0, "{name}");
}

/// Twin equivalence for all four routed families, each with a fifth of its
/// nodes offline so dead fingers, dead candidates, orphaned leaves and
/// pruned flood branches are on the compared paths.
#[test]
fn reliable_faults_twin_matches_plain_entry_in_every_family() {
    let key = |i: usize| Key::hash(format!("twin-{i}").as_bytes());
    let start = |i: usize| NodeId(i as u64 * 2);
    assert_twin(
        "chord",
        || {
            let mut net = ChordPlane::build(64, 7);
            for id in net.node_ids().iter().step_by(5) {
                net.set_online(*id, false);
            }
            net
        },
        |net, i, m| net.lookup(net.node_ids()[i * 2], key(i), m),
        |net, i, m, f| net.lookup_with_faults(net.node_ids()[i * 2], key(i), m, f, 2),
    );
    assert_twin(
        "kademlia",
        || {
            let mut net = KademliaPlane::build(64, 20, 13);
            for id in net.node_ids().iter().step_by(5) {
                net.set_online(*id, false);
            }
            net
        },
        |net, i, m| net.lookup(net.node_ids()[i * 2], key(i), 3, m),
        |net, i, m, f| net.lookup_with_faults(net.node_ids()[i * 2], key(i), 3, m, f, 2),
    );
    assert_twin(
        "superpeer",
        || {
            let mut net = SuperPeerPlane::build(64, 4, 1);
            for i in 0..32 {
                net.publish(NodeId(63 - i as u64), key(i));
            }
            for id in (0..64).step_by(5) {
                net.set_online(NodeId(id), false);
            }
            net
        },
        |net, i, m| net.search(start(i), key(i), m),
        |net, i, m, f| net.search_with_faults(start(i), key(i), m, f, 2),
    );
    assert_twin(
        "flood",
        || {
            let mut net = UnstructuredOverlay::build(64, 4, 3);
            for i in 0..32 {
                net.publish(NodeId(63 - i as u64), key(i));
            }
            for id in (0..64).step_by(5) {
                net.set_online(NodeId(id), false);
            }
            net
        },
        |net, i, m| net.flood_search(start(i), key(i), 4, m),
        |net, i, m, f| net.flood_search_with_faults(start(i), key(i), 4, m, f, 2),
    );
}

/// A node the overlay does not have is a typed miss on every routed entry
/// point and every by-id accessor — `Err(UnknownNode)`, an empty vec or
/// slice, `None`, or a no-op — never an index panic, and it costs no
/// messages.
#[test]
fn unknown_start_node_is_a_typed_miss_in_every_family() {
    let ghost = NodeId(u64::MAX - 1);
    let key = Key::hash(b"ghost-start");
    let mut faults = LinkFaults::reliable();
    let mut m = Metrics::new();

    let mut chord = ChordPlane::build(16, 7);
    assert_eq!(
        chord.lookup(ghost, key, &mut m),
        Err(DhtError::UnknownNode(ghost))
    );
    assert_eq!(
        chord.lookup_with_faults(ghost, key, &mut m, &mut faults, 1),
        Err(DhtError::UnknownNode(ghost))
    );

    let mut kad = KademliaPlane::build(16, 20, 13);
    assert!(kad.lookup(ghost, key, 3, &mut m).is_empty());
    assert!(kad
        .lookup_with_faults(ghost, key, 3, &mut m, &mut faults, 1)
        .is_empty());

    let mut sp = SuperPeerPlane::build(16, 2, 1);
    sp.publish(NodeId(3), key);
    assert_eq!(sp.super_of(ghost), None);
    assert_eq!(sp.search(ghost, key, &mut m), None);
    assert_eq!(
        sp.search_with_faults(ghost, key, &mut m, &mut faults, 1),
        None
    );

    let mut net = UnstructuredOverlay::build(16, 3, 3);
    net.publish(NodeId(3), key);
    assert!(net.neighbors(ghost).is_empty());
    net.set_online(ghost, true);
    assert_eq!(net.flood_search(ghost, key, 4, &mut m), None);
    assert_eq!(
        net.flood_search_with_faults(ghost, key, 4, &mut m, &mut faults, 1),
        None
    );

    assert_eq!(m, Metrics::new(), "a refused start routes nothing");
    assert_eq!(faults.attempts, 0);
}

/// Golden values captured before the per-family routing loops were merged:
/// `replica_candidates` must keep drawing from the overlay RNG and
/// recording into `Metrics` in the same order, or every digest downstream
/// (engine suites, e18's `run_digest`) moves.
#[test]
fn replica_candidates_metric_stream_is_pinned() {
    let stream = |mut plane: Box<dyn StoragePlane>| {
        let mut m = Metrics::new();
        for i in 0..64 {
            let key = Key::hash(format!("pinned-{i}").as_bytes());
            plane.replica_candidates(key, 3, &mut m).unwrap();
        }
        (m.messages, m.bytes, m.latency_ms)
    };
    assert_eq!(
        stream(Box::new(ChordPlane::build(128, 0xE18))),
        (293, 18752, 19806)
    );
    assert_eq!(
        stream(Box::new(KademliaPlane::build(64, 20, 7))),
        (1280, 81920, 28595)
    );
}

/// Golden `(messages, bytes, latency_ms)` of a fixed 32-query stream
/// through each routed family's plain entry point, captured at commit
/// e6ca8f0 while every family still wrote its own `[10, 120]` ms draw: the
/// shared latency model must draw the same numbers in the same order.
#[test]
fn routed_query_metric_streams_are_pinned() {
    let key = |i: usize| Key::hash(format!("stream-{i}").as_bytes());
    let start = |i: usize| NodeId(i as u64 * 2);
    let stream = |query: &mut dyn FnMut(usize, &mut Metrics) -> bool| {
        let mut m = Metrics::new();
        for i in 0..32 {
            query(i, &mut m);
        }
        (m.messages, m.bytes, m.latency_ms)
    };
    let mut chord = ChordPlane::build(64, 7);
    let ids = chord.node_ids();
    let chord_stream = stream(&mut |i, m| chord.lookup(ids[i * 2], key(i), m).is_ok());
    assert_eq!(chord_stream, (126, 8064, 7939));
    let mut kad = KademliaPlane::build(64, 20, 13);
    let ids = kad.node_ids();
    let kad_stream = stream(&mut |i, m| kad.lookup(ids[i * 2], key(i), 3, m).is_empty());
    assert_eq!(kad_stream, (640, 40960, 14112));
    let mut sp = SuperPeerPlane::build(64, 4, 1);
    let mut flood = UnstructuredOverlay::build(64, 4, 3);
    for i in 0..32 {
        sp.publish(NodeId(63 - i as u64), key(i));
        flood.publish(NodeId(63 - i as u64), key(i));
    }
    let sp_stream = stream(&mut |i, m| sp.search(start(i), key(i), m).is_some());
    assert_eq!(sp_stream, (83, 2656, 5923));
    let flood_stream = stream(&mut |i, m| flood.flood_search(start(i), key(i), 4, m).is_some());
    assert_eq!(flood_stream, (1088, 34816, 5647));
}
