//! E15: million-node scale sweep — arena memory and social placement
//! (`BENCH_8.json`; the two headlines are explained in EXPERIMENTS.md § E15).
//!
//! Sweeps the Chord storage plane over N ∈ {10k, 100k, 1M} nodes and runs
//! the same keyed workload (R=3 replicated puts + quorum gets, each key
//! owned by a social-graph vertex) under hash placement and under
//! [`SocialPlane`] placement. `--fast` keeps the full N sweep (the point is
//! that 1M nodes fits CI) but shrinks the per-size workload.

use crate::{num, once_ns, wall, Run};
use dosn_core::network::{
    ChordPlane, ReplicatedStore, SocialGraphConfig, SocialPlacement, SocialPlane, WorkloadGraph,
};
use dosn_obs::names;
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::storage::StoragePlane;

const SEED: u64 = 0xE15;
/// Fibonacci-hash stride for spreading key owners across vertices.
const OWNER_STRIDE: u64 = 2_654_435_761;
/// The acceptance ceiling on simulator state per node.
const BYTES_PER_NODE_CEILING: f64 = 200.0;

/// One workload definition: `keys` replicated puts then quorum gets, key
/// `i` owned by a deterministic, stride-spread vertex.
fn keyed_workload(n: usize, keys: usize) -> Vec<(Key, u32)> {
    (0..keys)
        .map(|i| {
            let key = Key::hash(format!("e15/{n}/{i}").as_bytes());
            let owner = ((i as u64).wrapping_mul(OWNER_STRIDE) % n as u64) as u32;
            (key, owner)
        })
        .collect()
}

/// Runs puts + gets through a replicated store; the returned metrics hold
/// the Chord hops the placement layer spent routing.
fn run_workload<P: StoragePlane>(
    store: &mut ReplicatedStore<P>,
    workload: &[(Key, u32)],
) -> Metrics {
    let mut m = Metrics::new();
    for (key, _) in workload {
        store
            .put(*key, format!("post {key}").into_bytes(), &mut m)
            .expect("put succeeds on an all-online ring");
    }
    for (key, _) in workload {
        let got = store.get(*key, &mut m).expect("get succeeds");
        assert_eq!(got, format!("post {key}").into_bytes());
    }
    m
}

pub(super) fn run(run: &mut Run) {
    run.table(
        "E15: hash vs social placement on an arena-backed Chord ring (R=3 puts + quorum gets)",
        "nodes | keys | hash hops | social hops | social hits | fallbacks | B/node | \
         build (ms) | workload (ms)",
    );
    let (mut hash_total, mut social_total, mut ops) = (0u64, 0u64, 0u64);
    let mut bytes_per_node = f64::INFINITY;
    // `--fast` keeps the full sweep — fitting N=1M in CI *is* the
    // experiment — and shrinks the per-size key count instead.
    for n in [10_000usize, 100_000, 1_000_000] {
        // The smallest ring gets proportionally fewer keys so owners stay
        // sparse relative to N.
        let keys = run.pick(2_000, 200).min(n / 10);
        let workload = keyed_workload(n, keys);

        // ---- baseline: pure hash placement ----
        let mut hash_plane = ChordPlane::build(n, SEED);
        // Drain the build-time dirty set so stabilization bookkeeping does
        // not sit in the memory measurement (steady-state, not cold-start).
        hash_plane.stabilize();
        let mut hash_store = ReplicatedStore::new(hash_plane, 3);
        let hash_hops = run_workload(&mut hash_store, &workload).count(names::CHORD_HOP);
        drop(hash_store);

        // ---- social placement over the same ring ----
        let (social_plane, build_ns) = once_ns(|| {
            let graph = WorkloadGraph::generate(&SocialGraphConfig::new(n, SEED));
            let mut plane = ChordPlane::build(n, SEED);
            plane.stabilize();
            let placement = SocialPlacement::new(graph, &plane.node_ids());
            let mut social_plane = SocialPlane::new(plane, placement);
            for (key, owner) in &workload {
                social_plane.placement_mut().assign_owner(*key, *owner);
            }
            social_plane
        });
        let mut social_store = ReplicatedStore::new(social_plane, 3);
        let (m, run_ns) = once_ns(|| run_workload(&mut social_store, &workload));

        let plane = social_store.plane();
        let total_bytes = plane.inner().memory_bytes() + plane.placement().memory_bytes();
        // The headline is the largest N's.
        bytes_per_node = total_bytes as f64 / n as f64;
        let social_hits = m.count(names::PLACEMENT_SOCIAL_HITS);
        assert!(
            social_hits > 0,
            "N={n}: social placement never produced a social candidate"
        );
        run.row(&[
            n.into(),
            keys.into(),
            hash_hops.into(),
            m.count(names::CHORD_HOP).into(),
            social_hits.into(),
            m.count(names::PLACEMENT_FALLBACKS).into(),
            num(bytes_per_node, 1),
            wall(build_ns / 1e6, 0),
            wall(run_ns / 1e6, 0),
        ]);
        hash_total += hash_hops;
        social_total += m.count(names::CHORD_HOP);
        ops += 2 * keys as u64;
        run.obs().set_gauge(names::SIM_NODES, n as f64);
    }

    // Per-op means keep the headline scale-invariant, so the fast CI run
    // and a full-workload run read alike; +1 on both sides because social
    // placement routinely spends *zero* hops.
    let hash_mean = hash_total as f64 / ops as f64;
    let social_mean = social_total as f64 / ops as f64;
    let advantage = (hash_mean + 1.0) / (social_mean + 1.0);
    run.obs()
        .set_gauge(names::SIM_BYTES_PER_NODE, bytes_per_node);
    println!("\n{hash_mean:.2} vs {social_mean:.2} mean hops/op over {ops} ops");
    run.headline("social_hop_advantage", advantage);
    run.headline("bytes_per_node", bytes_per_node);

    assert!(
        bytes_per_node <= BYTES_PER_NODE_CEILING,
        "simulator state {bytes_per_node:.1} B/node exceeds the \
         {BYTES_PER_NODE_CEILING} B/node arena budget"
    );
    assert!(
        advantage > 1.0,
        "social placement must beat hash placement on routing hops \
         ({hash_total} vs {social_total})"
    );
}
