//! Workspace-wide property tests for the fault-injection harness: lookup
//! convergence and fork-detection liveness must hold under *randomized*
//! fault plans, and identical plans must replay identically end-to-end.
//!
//! Failures print the per-case seed; re-run with `PROPTEST_SEED=<seed>` to
//! replay the exact schedule.

use dosn::core::integrity::{HistoryClient, HistoryServer, Operation, ViewDigest};
use dosn::crypto::group::SchnorrGroup;
use dosn::overlay::chord::ChordPlane;
use dosn::overlay::fault::{FaultPlan, LinkFaults};
use dosn::overlay::id::{Key, NodeId};
use dosn::overlay::kademlia::KademliaPlane;
use dosn::overlay::metrics::Metrics;
use dosn::overlay::sim::{Actor, Context, Simulation};
use dosn::overlay::storage::StoragePlane;
use proptest::prelude::*;

/// A simulated client node that holds a history view and gossips digests
/// (same shape as `fork_gossip_sim.rs`, here driven through fault plans).
struct DigestGossiper {
    client: HistoryClient,
    peers: Vec<NodeId>,
    fork_detected: bool,
}

impl Actor for DigestGossiper {
    type Msg = ViewDigest;

    fn on_message(&mut self, _ctx: &mut Context<'_, ViewDigest>, _from: NodeId, msg: ViewDigest) {
        // Signature checks dominate the run; one detection per node is all
        // the liveness property needs.
        if !self.fork_detected && self.client.cross_check(&msg).is_err() {
            self.fork_detected = true;
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ViewDigest>, _tag: u64) {
        if let Some(digest) = self.client.digest() {
            let digest = digest.clone();
            for &p in &self.peers {
                ctx.send(p, digest.clone());
            }
        }
        ctx.set_timer(500, 0);
    }

    fn on_online(&mut self, ctx: &mut Context<'_, ViewDigest>) {
        ctx.set_timer(100, 0);
    }
}

/// A forked server plus `n` clients split across the two branches; every
/// gossip edge below crosses the branch split (odd ring offsets), so one
/// delivered digest suffices for detection.
fn forked_population(n: usize, server_seed: u64) -> Vec<DigestGossiper> {
    let mut server = HistoryServer::new(SchnorrGroup::toy(), server_seed);
    server.append("wall", Operation::new("bob", "base post"));
    let branch = server.fork("wall");
    server
        .append_to_branch("wall", 0, Operation::new("bob", "view for evens"))
        .unwrap();
    server
        .append_to_branch("wall", branch, Operation::new("bob", "view for odds"))
        .unwrap();
    (0..n)
        .map(|i| {
            let assigned = if i % 2 == 0 { 0 } else { branch };
            let mut client =
                HistoryClient::new(format!("client{i}"), "wall", server.verifying_key().clone());
            let (log, digest) = server.view("wall", assigned).unwrap();
            client.observe(log, digest).expect("signed view");
            DigestGossiper {
                client,
                peers: vec![
                    NodeId(((i + 1) % n) as u64),
                    NodeId(((i + 3) % n) as u64),
                    NodeId(((i + 7) % n) as u64),
                ],
                fork_detected: false,
            }
        })
        .collect()
}

fn run_fork_sim(sim_seed: u64, plan: FaultPlan, n: usize) -> (usize, String, u64) {
    let mut sim = Simulation::with_faults(
        forked_population(n, 404),
        sim_seed,
        Default::default(),
        plan,
    );
    sim.start();
    sim.run_until(12_000);
    let detectors = (0..n)
        .filter(|&i| sim.actor(NodeId(i as u64)).fork_detected)
        .count();
    (detectors, sim.trace().hex_digest(), sim.stats().delivered)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Chord lookups converge to the fault-free owner under randomized
    /// loss once a randomized two-way partition heals.
    #[test]
    fn chord_lookup_converges_under_random_faults(
        drop_p in 0.0f64..0.12,
        fault_seed in any::<u64>(),
        cut in 1usize..47,
        salt in any::<u64>(),
    ) {
        let mut chord = ChordPlane::build(48, 7);
        let ids = chord.node_ids();
        let (side_a, side_b) = ids.split_at(cut);
        let mut faults = LinkFaults::new(fault_seed, drop_p)
            .with_partition(side_a.iter().copied(), side_b.iter().copied());

        // While the cut is up, a lookup that must cross it fails.
        let key = Key::hash(&salt.to_le_bytes());
        let mut m = Metrics::new();
        let owner = chord.lookup(ids[0], key, &mut m).expect("reference lookup");
        let from = if side_b.contains(&owner) { side_a[0] } else { side_b[0] };
        if owner != from {
            prop_assert!(
                chord.lookup_with_faults(from, key, &mut m, &mut faults, 5).is_err(),
                "cross-partition lookup must fail"
            );
        }

        // Healed: every start converges to the reference owner.
        faults.heal_partitions();
        for &start in &ids {
            let mut m_ref = Metrics::new();
            let expect = chord.lookup(start, key, &mut m_ref).expect("reference");
            let mut m_faulty = Metrics::new();
            let got = chord.lookup_with_faults(start, key, &mut m_faulty, &mut faults, 5);
            prop_assert_eq!(got.expect("lookup under loss"), expect);
        }
    }

    /// Kademlia lookups still assemble a full replica set under randomized
    /// loss once the querying node's partition heals.
    #[test]
    fn kademlia_lookup_converges_under_random_faults(
        drop_p in 0.0f64..0.12,
        fault_seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let mut kad = KademliaPlane::build(48, 20, 13);
        let ids = kad.node_ids();
        let from = ids[0];
        let mut faults = LinkFaults::new(fault_seed, drop_p)
            .with_partition([from], ids.iter().copied().filter(|&x| x != from));

        let key = Key::hash(&salt.to_le_bytes());
        let mut m = Metrics::new();
        prop_assert!(
            kad.lookup_with_faults(from, key, 3, &mut m, &mut faults, 5).is_empty(),
            "isolated node reaches nothing"
        );

        faults.heal_partitions();
        let mut m2 = Metrics::new();
        let found = kad.lookup_with_faults(from, key, 3, &mut m2, &mut faults, 5);
        prop_assert_eq!(found.len(), 3, "healed lookup fills the replica set");
    }

    /// Fork-detection stays live under randomized message loss,
    /// duplication, reordering, and a crash-recovery, and the whole
    /// end-to-end run replays byte-identically from (seed, plan).
    #[test]
    fn fork_detection_survives_random_fault_plans(
        sim_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop_p in 0.0f64..0.25,
        dup_p in 0.0f64..0.3,
        reorder_p in 0.0f64..0.5,
        crash_victim in 0u64..12,
    ) {
        let n = 12;
        let plan = FaultPlan::seeded(fault_seed)
            .with_drop_probability(drop_p)
            .with_duplicate_probability(dup_p)
            .with_reordering(reorder_p, 400)
            .with_crash_recovery(NodeId(crash_victim), 2_000, 6_000);

        let (detectors, digest, delivered) = run_fork_sim(sim_seed, plan.clone(), n);
        prop_assert!(delivered > 0, "gossip must flow");
        // Every gossip edge crosses the branch split, and ~24 rounds of
        // redundancy dwarf 25% loss: a majority must catch the fork.
        prop_assert!(
            detectors >= n / 2,
            "only {}/{} nodes detected the fork", detectors, n
        );

        // Liveness is only trustworthy if the schedule is replayable.
        let (detectors2, digest2, _) = run_fork_sim(sim_seed, plan, n);
        prop_assert_eq!(detectors, detectors2);
        prop_assert_eq!(digest, digest2, "same (seed, plan) must replay identically");
    }
}
