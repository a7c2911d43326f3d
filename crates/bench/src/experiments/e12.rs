//! E12: replication factor sweep over every storage plane (`BENCH_3.json`).
//!
//! Drives the assembled system (`Engine<S>`) over all four §II-B
//! overlay families × replication factors R ∈ {1, 3, 5} and measures, per
//! cell: post and read throughput, stored bytes per post (the R× storage
//! price), and wall availability + read-repair activity after a 25% node
//! crash injected through the fault-plan harness.

use super::user;
use crate::{num, once_ns, wall, Cell, Run};
use dosn_core::engine::Engine;
use dosn_core::network::{
    ChordPlane, FederationPlane, KademliaPlane, ReplicatedStore, StoragePlane, SuperPeerPlane,
};
use dosn_overlay::fault::FaultPlan;

const SEED: u64 = 0xE12;

/// Registers `users` users as a friendship ring (user i ↔ user i+1), so
/// every post has a reader.
pub(super) fn ring_of_friends<S: StoragePlane>(net: &mut Engine<S>, users: usize) {
    for i in 0..users {
        net.register(&user(i)).expect("register");
    }
    for i in 0..users {
        net.befriend(&user(i), &user((i + 1) % users), 0.9)
            .expect("befriend");
    }
}

/// Every user posts `posts_per_user` times; returns `(author, sequence)`
/// of each post.
pub(super) fn post_all<S: StoragePlane>(
    net: &mut Engine<S>,
    users: usize,
    posts_per_user: u64,
) -> Vec<(usize, u64)> {
    let mut posted = Vec::new();
    for i in 0..users {
        for p in 0..posts_per_user {
            let seq = net
                .post(&user(i), &format!("post {p} from user {i}"))
                .expect("post");
            posted.push((i, seq));
        }
    }
    posted
}

/// Each post read once by its author's ring neighbour; returns how many
/// reads succeeded.
pub(super) fn read_all<S: StoragePlane>(
    net: &mut Engine<S>,
    users: usize,
    posted: &[(usize, u64)],
) -> usize {
    let readable = |&&(author, seq): &&(usize, u64)| {
        net.read_post(&user((author + 1) % users), &user(author), seq)
            .is_ok()
    };
    posted.iter().filter(readable).count()
}

/// Takes every 4th storage node down at t=0 through a fault plan; returns
/// how many are down.
pub(super) fn crash_every_4th<S: StoragePlane>(net: &mut Engine<S>, seed: u64) -> usize {
    let victims = net.storage().plane().node_ids().into_iter().step_by(4);
    let plan = victims.fold(FaultPlan::seeded(seed), |plan, v| plan.with_crash(v, 0));
    net.apply_crashes(&plan, 1)
}

/// One `overlay × R` cell: the printed row, its posts/s and availability.
fn run_cell<S: StoragePlane>(
    run: &Run,
    overlay: &str,
    plane: S,
    replicas: usize,
    (users, posts_per_user): (usize, u64),
) -> (Vec<Cell>, f64, f64) {
    // Every cell records into the run's one registry: the report's
    // net.post / net.read_post.quorum / store.get.quorum histograms cover
    // all overlay x R cells together.
    let store = ReplicatedStore::new(plane, replicas).with_obs(run.obs().clone());
    let mut net = Engine::new(store, SEED);
    ring_of_friends(&mut net, users);

    let (posted, post_ns) = once_ns(|| post_all(&mut net, users, posts_per_user));
    let posts_per_sec = posted.len() as f64 / (post_ns / 1e9);
    let bytes_per_post = net.storage().accounting().total_bytes() as f64 / posted.len() as f64;
    let (read, read_ns) = once_ns(|| read_all(&mut net, users, &posted));
    assert_eq!(
        read,
        posted.len(),
        "every wall is readable before the crash"
    );

    let crashed = crash_every_4th(&mut net, SEED);
    let repairs_before = net.metrics().count("get.repairs");
    let availability = read_all(&mut net, users, &posted) as f64 / posted.len() as f64;
    let cells = vec![
        overlay.into(),
        replicas.into(),
        wall(posts_per_sec, 0),
        wall(posted.len() as f64 / (read_ns / 1e9), 0),
        num(bytes_per_post, 0),
        crashed.into(),
        num(availability, 2),
        (net.metrics().count("get.repairs") - repairs_before).into(),
    ];
    (cells, posts_per_sec, availability)
}

pub(super) fn run(run: &mut Run) {
    let load = run.pick((10, 6), (6, 2));
    let (nodes, fed_servers) = run.pick((64, 12), (32, 8));
    run.table(
        "E12: replication sweep (post/read throughput, availability under 25% crash)",
        "overlay | R | posts/s | reads/s | bytes/post | crashed | avail | repairs",
    );
    // (posts/s, availability) of the four R=1 and the four R=3 cells.
    let (mut r1, mut r3) = (Vec::new(), Vec::new());
    for replicas in [1usize, 3, 5] {
        let cells = [
            run_cell(run, "chord", ChordPlane::build(nodes, SEED), replicas, load),
            run_cell(
                run,
                "kademlia",
                KademliaPlane::build(nodes, 20, SEED),
                replicas,
                load,
            ),
            run_cell(
                run,
                "superpeer",
                SuperPeerPlane::build(nodes, nodes / 8, SEED),
                replicas,
                load,
            ),
            run_cell(
                run,
                "federation",
                FederationPlane::build(fed_servers),
                replicas,
                load,
            ),
        ];
        for (row, posts_per_sec, availability) in cells {
            run.row(&row);
            match replicas {
                1 => r1.push((posts_per_sec, availability)),
                3 => r3.push((posts_per_sec, availability)),
                _ => {}
            }
        }
    }

    // Replication must buy availability: for every overlay, R=3 walls must
    // survive the crash at least as well as R=1 walls (successor/forward-
    // scan overlays reach 1.00 outright; Kademlia's XOR-scattered holders
    // overlap the crash set randomly, so its gain is probabilistic).
    if r1.iter().zip(&r3).any(|(one, three)| three.1 < one.1) {
        eprintln!("WARNING: some overlay lost availability going from R=1 to R=3");
    }
    // Two gated headlines: the R=3 availability floor under the 25% crash
    // (the survey's replication payoff) and the mean R=3 post throughput
    // (wall-clock, so the band absorbs shared-runner noise).
    let min_r3_avail = r3.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    let mean_r3_posts = r3.iter().map(|c| c.0).sum::<f64>() / r3.len() as f64;
    run.headline("min_availability_r3", min_r3_avail);
    run.headline("mean_posts_per_sec_r3", mean_r3_posts);
}
