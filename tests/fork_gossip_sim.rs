//! Fork detection by gossip: clients exchange their signed view digests in
//! rounds over the one network model — a node the fault plan has crashed
//! neither sends nor receives, and `LinkFaults` decides each transmission —
//! and the equivocation is discovered. §IV-B end to end, across the
//! integrity layer and the overlay's fault model.
//!
//! Property failures print the per-case seed; re-run with
//! `PROPTEST_SEED=<seed>` to replay the exact schedule.

use dosn::core::integrity::{HistoryClient, HistoryServer, Operation};
use dosn::crypto::group::SchnorrGroup;
use dosn::overlay::fault::{FaultPlan, LinkFaults, SimTrace, TraceEvent, TraceEventKind};
use dosn::overlay::id::NodeId;
use proptest::prelude::*;

/// Simulated time between two gossip rounds: longer than any hop of the
/// latency model, so a round's digests all arrive within it.
const ROUND_MS: u64 = 500;

/// A client node: its history view, the nodes it gossips to, and whether a
/// digest it received contradicted its view.
struct Gossiper {
    client: HistoryClient,
    peers: Vec<u64>,
    fork_detected: bool,
}

/// What one gossip run did: how many nodes detected a fork, the digests
/// delivered, the digests that arrived at a crashed node, and the trace
/// digest over both.
struct Gossip {
    detectors: usize,
    delivered: u64,
    to_down: u64,
    trace: String,
}

/// Runs `rounds` gossip rounds, the r-th at `r * ROUND_MS`. In each, every
/// node `plan` has up sends its view digest to each of its peers; `faults`
/// decides whether each transmission arrives, and one that arrives at a
/// node the plan has down is counted and dropped. Each delivery and each
/// such drop is folded into a trace.
fn gossip(nodes: &mut [Gossiper], plan: &FaultPlan, mut faults: LinkFaults, rounds: u64) -> Gossip {
    let mut trace = SimTrace::new();
    let (mut delivered, mut to_down) = (0, 0);
    for round in 1..=rounds {
        let now = round * ROUND_MS;
        for from in 0..nodes.len() {
            let sender = NodeId(from as u64);
            if plan.is_crashed(sender, now) {
                continue;
            }
            let Some(digest) = nodes[from].client.digest().cloned() else {
                continue;
            };
            for p in 0..nodes[from].peers.len() {
                let to = NodeId(nodes[from].peers[p]);
                if !faults.delivers(sender, to) {
                    continue;
                }
                let kind = if plan.is_crashed(to, now) {
                    to_down += 1;
                    TraceEventKind::DropOffline
                } else {
                    delivered += 1;
                    // Signature checks dominate the run; one detection per
                    // node is all the claims need.
                    let node = &mut nodes[to.0 as usize];
                    if !node.fork_detected && node.client.cross_check(&digest).is_err() {
                        node.fork_detected = true;
                    }
                    TraceEventKind::Deliver
                };
                trace.record(TraceEvent {
                    kind,
                    at_ms: now,
                    a: sender.0,
                    b: to.0,
                    msg_id: 0,
                });
            }
        }
    }
    Gossip {
        detectors: nodes.iter().filter(|n| n.fork_detected).count(),
        delivered,
        to_down,
        trace: trace.hex_digest(),
    }
}

/// A client of `server`'s `wall` holding the view of `branch`.
fn client(server: &mut HistoryServer, i: usize, branch: usize) -> HistoryClient {
    let mut c = HistoryClient::new(format!("client{i}"), "wall", server.verifying_key().clone());
    let (log, digest) = server.view("wall", branch).unwrap();
    c.observe(log, digest).expect("signed view");
    c
}

/// A forked server plus `n` clients, evens on one branch and odds on the
/// other, each gossiping to the nodes 1, 3 and 7 places on: every edge
/// crosses the branch split, so one delivered digest suffices to detect.
fn forked_population(n: usize) -> Vec<Gossiper> {
    let mut server = HistoryServer::new(SchnorrGroup::toy(), 404);
    server.append("wall", Operation::new("bob", "base post"));
    let branch = server.fork("wall");
    server
        .append_to_branch("wall", 0, Operation::new("bob", "view for evens"))
        .unwrap();
    server
        .append_to_branch("wall", branch, Operation::new("bob", "view for odds"))
        .unwrap();
    (0..n)
        .map(|i| Gossiper {
            client: client(&mut server, i, if i % 2 == 0 { 0 } else { branch }),
            peers: [1, 3, 7].map(|d| ((i + d) % n) as u64).to_vec(),
            fork_detected: false,
        })
        .collect()
}

#[test]
fn gossip_over_simulator_detects_fork() {
    let n = 16;
    let mut nodes = forked_population(n);
    // Twenty rounds: ten simulated seconds.
    let run = gossip(
        &mut nodes,
        &FaultPlan::default(),
        LinkFaults::new(2026, 0.0),
        20,
    );
    // Every node has a cross-branch neighbour in this topology: once
    // digests flow, the great majority must detect the equivocation.
    assert!(
        run.detectors >= n * 3 / 4,
        "only {}/{n} nodes detected the fork",
        run.detectors
    );
    assert!(run.delivered > 0);
}

#[test]
fn honest_history_raises_no_alarms_under_churn() {
    let n = 12;
    let mut server = HistoryServer::new(SchnorrGroup::toy(), 405);
    for i in 0..5 {
        server.append("wall", Operation::new("bob", format!("post {i}")));
    }
    let mut nodes: Vec<Gossiper> = (0..n)
        .map(|i| Gossiper {
            client: client(&mut server, i, 0),
            peers: [1, 5].map(|d| ((i + d) % n) as u64).to_vec(),
            fork_detected: false,
        })
        .collect();
    // A third of the population is down from 2 s to 6 s.
    let plan = (0..n / 3).fold(FaultPlan::default(), |plan, i| {
        plan.with_crash_recovery(NodeId(i as u64), 2_000, 6_000)
    });
    let run = gossip(&mut nodes, &plan, LinkFaults::new(2027, 0.0), 20);
    for (i, node) in nodes.iter().enumerate() {
        assert!(!node.fork_detected, "false positive at node {i}");
    }
    assert!(run.to_down > 0, "churn should have dropped some gossip");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Fork detection stays live under randomized message loss and a
    /// crash-recovery, and the whole run replays byte-identically from
    /// (seed, plan).
    #[test]
    fn fork_detection_survives_random_fault_plans(
        fault_seed in any::<u64>(),
        drop_p in 0.0f64..0.25,
        crash_victim in 0u64..12,
    ) {
        let n = 12;
        let plan = FaultPlan::default().with_crash_recovery(NodeId(crash_victim), 2_000, 6_000);
        let faults = LinkFaults::new(fault_seed, drop_p);

        // Twenty-four rounds: twelve simulated seconds.
        let run = gossip(&mut forked_population(n), &plan, faults.clone(), 24);
        prop_assert!(run.delivered > 0, "gossip must flow");
        // Every gossip edge crosses the branch split, and 24 rounds of
        // redundancy dwarf 25% loss: a majority must catch the fork.
        prop_assert!(
            run.detectors >= n / 2,
            "only {}/{} nodes detected the fork", run.detectors, n
        );

        // Liveness is only trustworthy if the schedule is replayable.
        let again = gossip(&mut forked_population(n), &plan, faults, 24);
        prop_assert_eq!(run.detectors, again.detectors);
        prop_assert_eq!(run.trace, again.trace, "same (seed, plan) must replay identically");
    }
}
