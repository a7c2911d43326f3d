//! Cross-overlay engine matrix and availability-under-crash tests.
//!
//! The plane refactor's contract: the same social API (register → befriend
//! → post → read, with access control intact) must hold over every §II-B
//! overlay family, and R-way replication must keep walls readable through
//! the crash schedules of the PR 1 fault-injection harness.

use dosn_core::engine::{wall_key, Engine};
use dosn_core::error::DosnError;
use dosn_core::network::{
    ChordPlane, FederationPlane, KademliaPlane, ReplicatedStore, StoragePlane, SuperPeerPlane,
};
use dosn_overlay::fault::FaultPlan;
use dosn_overlay::id::NodeId;
use dosn_overlay::metrics::Metrics;

const SEED: u64 = 2026;

/// One engine type over any plane, so the matrix loop can hold all four.
type Net = Engine<Box<dyn StoragePlane>>;

/// Runs one closure against an engine (R = 3) over each of the four
/// storage planes.
fn for_every_backend(mut check: impl FnMut(&'static str, &mut Net)) {
    let planes: [(&'static str, Box<dyn StoragePlane>); 4] = [
        ("chord", Box::new(ChordPlane::build(48, SEED))),
        ("kademlia", Box::new(KademliaPlane::build(48, 20, SEED))),
        ("superpeer", Box::new(SuperPeerPlane::build(48, 6, SEED))),
        ("federation", Box::new(FederationPlane::build(12))),
    ];
    for (name, plane) in planes {
        check(name, &mut Engine::new(ReplicatedStore::new(plane, 3), SEED));
    }
}

/// The first `n` nodes the plane would place `author`'s post `seq` on.
fn holders<S: StoragePlane>(net: &mut Engine<S>, author: &str, seq: u64, n: usize) -> Vec<NodeId> {
    let plane = net.storage_mut().plane_mut();
    plane
        .replica_candidates(wall_key(author, seq), n, &mut Metrics::new())
        .expect("plane has online nodes")
}

fn repairs(net: &Net) -> u64 {
    net.metrics().count("get.repairs")
}

#[test]
fn facade_matrix_post_read_deny_over_every_backend() {
    for_every_backend(|name, net| {
        net.register("alice").unwrap();
        net.register("bob").unwrap();
        net.register("eve").unwrap();
        net.befriend("alice", "bob", 1.0).unwrap();

        let seq = net.post("alice", "friends-only, any overlay").unwrap();
        assert_eq!(
            net.read_post("bob", "alice", seq).unwrap(),
            "friends-only, any overlay",
            "{name}: friend read failed"
        );
        assert!(
            matches!(
                net.read_post("eve", "alice", seq),
                Err(DosnError::NotAuthorized(_))
            ),
            "{name}: stranger must be denied"
        );
        assert_eq!(
            net.metrics().count("store.replicas_written"),
            3,
            "{name}: post must land on 3 replicas"
        );

        // Revocation semantics hold across backends too.
        net.unfriend("alice", "bob").unwrap();
        let after = net.post("alice", "post-revocation").unwrap();
        assert!(
            net.read_post("bob", "alice", after).is_err(),
            "{name}: revoked friend must lose new posts"
        );
    });
}

#[test]
fn r3_survives_one_replica_crash_with_read_repair() {
    for_every_backend(|name, net| {
        net.register("alice").unwrap();
        net.register("bob").unwrap();
        net.befriend("alice", "bob", 1.0).unwrap();
        let seq = net.post("alice", "crash-tolerant").unwrap();

        let holder = holders(net, "alice", seq, 3)[0];
        net.storage_mut().plane_mut().set_online(holder, false);
        assert_eq!(
            net.read_post("bob", "alice", seq).unwrap(),
            "crash-tolerant",
            "{name}: R=3 must survive one crashed holder"
        );
        assert!(
            repairs(net) > 0,
            "{name}: the substitute candidate must be read-repaired"
        );
        // A second read finds a fully healed replica set.
        let repairs_after_first = repairs(net);
        assert_eq!(
            net.read_post("bob", "alice", seq).unwrap(),
            "crash-tolerant"
        );
        assert_eq!(
            repairs(net),
            repairs_after_first,
            "{name}: no further repairs once healed"
        );
    });
}

#[test]
fn crash_schedule_from_fault_plan_drives_availability() {
    for_every_backend(|name, net| {
        net.register("alice").unwrap();
        net.register("bob").unwrap();
        net.befriend("alice", "bob", 1.0).unwrap();
        let seq = net.post("alice", "scheduled churn").unwrap();

        // PR 1's fault harness: the first holder crashes at t=500ms and
        // recovers at t=2000ms.
        let holder = holders(net, "alice", seq, 1)[0];
        let plan = FaultPlan::default().with_crash_recovery(holder, 500, 2_000);

        assert_eq!(net.apply_crashes(&plan, 100), 0, "{name}: before the crash");
        assert!(net.read_post("bob", "alice", seq).is_ok());

        assert_eq!(
            net.apply_crashes(&plan, 1_000),
            1,
            "{name}: inside the window"
        );
        assert_eq!(
            net.read_post("bob", "alice", seq).unwrap(),
            "scheduled churn",
            "{name}: R=3 readable mid-crash"
        );
        assert!(repairs(net) > 0, "{name}: repair during the crash window");

        assert_eq!(net.apply_crashes(&plan, 3_000), 0, "{name}: after recovery");
        assert!(net.read_post("bob", "alice", seq).is_ok());

        // Two windows for one node, in either order: it is down iff one of
        // them contains `t`, and it counts once. The first plan has it down
        // in [0, 10) and from 100 on; in the second, its crash-stop at 0
        // outlasts the recovery at 50.
        let two_windows = [
            FaultPlan::default()
                .with_crash_recovery(holder, 0, 10)
                .with_crash(holder, 100),
            FaultPlan::default()
                .with_crash(holder, 0)
                .with_crash_recovery(holder, 0, 50),
        ];
        let up_at = [
            [false, false, true, true, true, true, false, false],
            [false; 8],
        ];
        for (i, plan) in two_windows.iter().enumerate() {
            for (t, online) in [0, 5, 10, 20, 50, 99, 100, 200].into_iter().zip(up_at[i]) {
                let down = net.apply_crashes(plan, t);
                assert_eq!(down, usize::from(!online), "{name}: plan {i}, t = {t}");
                let plane = net.storage_mut().plane_mut();
                assert_eq!(plane.is_online(holder), online, "{name}: plan {i}, t = {t}");
            }
        }
    });
}

/// The documented R=1 failure: a single-copy wall dies with its only
/// holder. This is the baseline e12 quantifies against R=3/R=5.
#[test]
fn r1_loses_the_wall_when_its_holder_crashes() {
    let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(48, SEED), 1), SEED);
    net.register("alice").unwrap();
    net.register("bob").unwrap();
    net.befriend("alice", "bob", 1.0).unwrap();
    let seq = net.post("alice", "fragile").unwrap();
    assert_eq!(net.metrics().count("store.replicas_written"), 1);

    let holder = holders(&mut net, "alice", seq, 1)[0];
    net.storage_mut().plane_mut().set_online(holder, false);

    assert!(
        matches!(
            net.read_post("bob", "alice", seq),
            Err(DosnError::ContentUnavailable(_))
        ),
        "R=1 must lose the value with its only holder"
    );
}
