//! Fork detection over the event-driven simulator: clients gossip their
//! signed view digests through the network (with real latencies and churn)
//! and the equivocation is discovered — §IV-B end-to-end, across the
//! integrity layer and the overlay substrate.

use dosn::core::integrity::{HistoryClient, HistoryServer, Operation, ViewDigest};
use dosn::crypto::group::SchnorrGroup;
use dosn::overlay::id::NodeId;
use dosn::overlay::sim::{Actor, Context, Simulation};

/// A simulated client node that holds a history view and gossips digests.
struct DigestGossiper {
    client: HistoryClient,
    peers: Vec<NodeId>,
    fork_detected: bool,
}

impl Actor for DigestGossiper {
    type Msg = ViewDigest;

    fn on_message(&mut self, _ctx: &mut Context<'_, ViewDigest>, _from: NodeId, msg: ViewDigest) {
        if self.client.cross_check(&msg).is_err() {
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

fn build_world(clients: usize) -> (HistoryServer, Vec<HistoryClient>) {
    let mut server = HistoryServer::new(SchnorrGroup::toy(), 404);
    server.append("wall", Operation::new("bob", "base post"));
    let branch = server.fork("wall");
    server
        .append_to_branch("wall", 0, Operation::new("bob", "view for evens"))
        .unwrap();
    server
        .append_to_branch("wall", branch, Operation::new("bob", "view for odds"))
        .unwrap();
    let population = (0..clients)
        .map(|i| {
            let assigned = if i % 2 == 0 { 0 } else { branch };
            let mut c =
                HistoryClient::new(format!("client{i}"), "wall", server.verifying_key().clone());
            let (log, digest) = server.view("wall", assigned).unwrap();
            c.observe(log, digest).expect("signed view");
            c
        })
        .collect();
    (server, population)
}

#[test]
fn gossip_over_simulator_detects_fork() {
    let n = 16;
    let (_server, clients) = build_world(n);
    // Ring + chord topology: every node gossips to 3 neighbors.
    let actors: Vec<DigestGossiper> = clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| DigestGossiper {
            client,
            peers: vec![
                NodeId(((i + 1) % n) as u64),
                NodeId(((i + 3) % n) as u64),
                NodeId(((i + 7) % n) as u64),
            ],
            fork_detected: false,
        })
        .collect();
    let mut sim = Simulation::new(actors, 2026);
    sim.start();
    sim.run_until(10_000); // 10 simulated seconds

    let detectors = (0..n)
        .filter(|&i| sim.actor(NodeId(i as u64)).fork_detected)
        .count();
    // Every node has at least one cross-branch neighbor in this topology:
    // once digests flow, the great majority must detect the equivocation.
    assert!(
        detectors >= n * 3 / 4,
        "only {detectors}/{n} nodes detected the fork"
    );
    assert!(sim.stats().delivered > 0);
}

#[test]
fn honest_history_raises_no_alarms_under_churn() {
    let n = 12;
    let mut server = HistoryServer::new(SchnorrGroup::toy(), 405);
    for i in 0..5 {
        server.append("wall", Operation::new("bob", format!("post {i}")));
    }
    let actors: Vec<DigestGossiper> = (0..n)
        .map(|i| {
            let mut c =
                HistoryClient::new(format!("client{i}"), "wall", server.verifying_key().clone());
            let (log, digest) = server.view("wall", 0).unwrap();
            c.observe(log, digest).expect("valid");
            DigestGossiper {
                client: c,
                peers: vec![NodeId(((i + 1) % n) as u64), NodeId(((i + 5) % n) as u64)],
                fork_detected: false,
            }
        })
        .collect();
    let mut sim = Simulation::new(actors, 2027);
    // Churn a third of the population mid-run.
    for i in 0..n / 3 {
        sim.schedule_churn(2_000, NodeId(i as u64), false);
        sim.schedule_churn(6_000, NodeId(i as u64), true);
    }
    sim.start();
    sim.run_until(10_000);
    for i in 0..n {
        assert!(
            !sim.actor(NodeId(i as u64)).fork_detected,
            "false positive at node {i}"
        );
    }
    assert!(
        sim.stats().dropped_offline > 0,
        "churn should have dropped some gossip"
    );
}
