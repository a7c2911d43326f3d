//! Cross-overlay facade matrix and availability-under-crash tests.
//!
//! The plane refactor's contract: the same social API (register → befriend
//! → post → read, with access control intact) must hold over every §II-B
//! overlay family, and R-way replication must keep walls readable through
//! the crash schedules of the PR 1 fault-injection harness.

use dosn_core::error::DosnError;
use dosn_core::network::{
    ChordPlane, DosnNetwork, FederationPlane, KademliaPlane, StoragePlane, SuperPeerPlane,
};
use dosn_overlay::fault::FaultPlan;
use dosn_overlay::metrics::Metrics;

const SEED: u64 = 2026;

/// Runs one closure against a facade over each of the four storage planes.
fn for_every_backend(mut check: impl FnMut(&'static str, &mut dyn Facade)) {
    let mut chord = DosnNetwork::with_plane(ChordPlane::build(48, SEED), 3, SEED);
    let mut kad = DosnNetwork::with_plane(KademliaPlane::build(48, 20, SEED), 3, SEED);
    let mut sp = DosnNetwork::with_plane(SuperPeerPlane::build(48, 6, SEED), 3, SEED);
    let mut fed = DosnNetwork::with_plane(FederationPlane::build(12), 3, SEED);
    check("chord", &mut chord);
    check("kademlia", &mut kad);
    check("superpeer", &mut sp);
    check("federation", &mut fed);
}

/// Object-safe slice of the facade so the matrix loop can hold networks
/// over four different plane types in one collection.
trait Facade {
    fn register(&mut self, name: &str) -> Result<(), DosnError>;
    fn befriend(&mut self, a: &str, b: &str) -> Result<(), DosnError>;
    fn post(&mut self, author: &str, body: &str) -> Result<u64, DosnError>;
    fn read_post(&mut self, reader: &str, author: &str, seq: u64) -> Result<String, DosnError>;
    fn unfriend(&mut self, a: &str, b: &str) -> Result<u64, DosnError>;
    fn crash_holders(&mut self, author: &str, seq: u64, how_many: usize);
    fn apply_crashes(&mut self, plan: &FaultPlan, now_ms: u64) -> usize;
    fn repairs(&self) -> u64;
    fn replicas_written(&self) -> u64;
    fn first_holder(&mut self, author: &str, seq: u64) -> dosn_overlay::id::NodeId;
}

impl<S: StoragePlane> Facade for DosnNetwork<S> {
    fn register(&mut self, name: &str) -> Result<(), DosnError> {
        DosnNetwork::register(self, name)
    }
    fn befriend(&mut self, a: &str, b: &str) -> Result<(), DosnError> {
        DosnNetwork::befriend(self, a, b, 1.0)
    }
    fn post(&mut self, author: &str, body: &str) -> Result<u64, DosnError> {
        DosnNetwork::post(self, author, body)
    }
    fn read_post(&mut self, reader: &str, author: &str, seq: u64) -> Result<String, DosnError> {
        DosnNetwork::read_post(self, reader, author, seq)
    }
    fn unfriend(&mut self, a: &str, b: &str) -> Result<u64, DosnError> {
        DosnNetwork::unfriend(self, a, b)
    }
    fn crash_holders(&mut self, author: &str, seq: u64, how_many: usize) {
        let key = dosn_core::engine::wall_key(author, seq);
        let mut m = Metrics::new();
        let holders = self
            .storage_mut()
            .plane_mut()
            .replica_candidates(key, 3, &mut m)
            .expect("plane has online nodes");
        for h in holders.into_iter().take(how_many) {
            self.storage_mut().plane_mut().set_online(h, false);
        }
    }
    fn apply_crashes(&mut self, plan: &FaultPlan, now_ms: u64) -> usize {
        DosnNetwork::apply_crashes(self, plan, now_ms)
    }
    fn repairs(&self) -> u64 {
        self.metrics().count("get.repairs")
    }
    fn replicas_written(&self) -> u64 {
        self.metrics().count("store.replicas_written")
    }
    fn first_holder(&mut self, author: &str, seq: u64) -> dosn_overlay::id::NodeId {
        let key = dosn_core::engine::wall_key(author, seq);
        let mut m = Metrics::new();
        self.storage_mut()
            .plane_mut()
            .replica_candidates(key, 1, &mut m)
            .expect("plane has online nodes")[0]
    }
}

#[test]
fn facade_matrix_post_read_deny_over_every_backend() {
    for_every_backend(|name, net| {
        net.register("alice").unwrap();
        net.register("bob").unwrap();
        net.register("eve").unwrap();
        net.befriend("alice", "bob").unwrap();

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
            net.replicas_written(),
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
        net.befriend("alice", "bob").unwrap();
        let seq = net.post("alice", "crash-tolerant").unwrap();

        net.crash_holders("alice", seq, 1);
        assert_eq!(
            net.read_post("bob", "alice", seq).unwrap(),
            "crash-tolerant",
            "{name}: R=3 must survive one crashed holder"
        );
        assert!(
            net.repairs() > 0,
            "{name}: the substitute candidate must be read-repaired"
        );
        // A second read finds a fully healed replica set.
        let repairs_after_first = net.repairs();
        assert_eq!(
            net.read_post("bob", "alice", seq).unwrap(),
            "crash-tolerant"
        );
        assert_eq!(
            net.repairs(),
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
        net.befriend("alice", "bob").unwrap();
        let seq = net.post("alice", "scheduled churn").unwrap();

        // PR 1's fault harness: the first holder crashes at t=500ms and
        // recovers at t=2000ms.
        let holder = net.first_holder("alice", seq);
        let plan = FaultPlan::seeded(SEED).with_crash_recovery(holder, 500, 2_000);

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
        assert!(net.repairs() > 0, "{name}: repair during the crash window");

        assert_eq!(net.apply_crashes(&plan, 3_000), 0, "{name}: after recovery");
        assert!(net.read_post("bob", "alice", seq).is_ok());
    });
}

/// The documented R=1 failure: a single-copy wall dies with its only
/// holder. This is the baseline e12 quantifies against R=3/R=5.
#[test]
fn r1_loses_the_wall_when_its_holder_crashes() {
    let mut net = DosnNetwork::with_plane(ChordPlane::build(48, SEED), 1, SEED);
    net.register("alice").unwrap();
    net.register("bob").unwrap();
    net.befriend("alice", "bob", 1.0).unwrap();
    let seq = net.post("alice", "fragile").unwrap();
    assert_eq!(net.metrics().count("store.replicas_written"), 1);

    let key = dosn_core::engine::wall_key("alice", seq);
    let mut m = Metrics::new();
    let holder = net
        .storage_mut()
        .plane_mut()
        .replica_candidates(key, 1, &mut m)
        .unwrap()[0];
    net.storage_mut().plane_mut().set_online(holder, false);

    assert!(
        matches!(
            net.read_post("bob", "alice", seq),
            Err(DosnError::ContentUnavailable(_))
        ),
        "R=1 must lose the value with its only holder"
    );
}
