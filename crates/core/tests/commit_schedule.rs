//! Seeded-schedule concurrency stress for the commit phase: a
//! deterministic "adversarial scheduler" (the engine's commit drain seed)
//! permutes the order in which shard commit queues drain, and 64
//! permutations must leave digests *and* raw stored bytes identical —
//! plus a negative control proving the harness detects an injected
//! ordering bug (conflicting writes forced into one wave).

use dosn_core::engine::{wall_key, CommitEntry, CommitPlan, Engine, OpBatch};
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::storage::ChordPlane;

const PERMUTATIONS: u64 = 64;

/// Twelve authors spread over many shards, two posts each — a commit
/// plan wide enough that drain order genuinely varies per seed.
fn workload() -> OpBatch {
    let authors = [
        "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", "ivan", "judy",
        "mallory", "niaj",
    ];
    let mut batch = OpBatch::new();
    for a in authors {
        batch = batch.register(a);
    }
    for (i, a) in authors.iter().enumerate() {
        batch = batch
            .post(a, &format!("first from {a}"))
            .post(a, &format!("second from {a} ({i})"));
    }
    batch
}

/// SHA-1-free state fingerprint: every wall record's raw stored bytes,
/// concatenated in a fixed key order.
fn stored_state(e: &mut Engine<ChordPlane>) -> Vec<u8> {
    let authors = [
        "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", "ivan", "judy",
        "mallory", "niaj",
    ];
    let mut metrics = Metrics::new();
    let mut state = Vec::new();
    for a in authors {
        for seq in 0..2 {
            let bytes = e
                .storage_mut()
                .get(wall_key(a, seq), &mut metrics)
                .expect("workload committed this record");
            state.extend_from_slice(&bytes);
            state.push(0);
        }
    }
    state
}

#[test]
fn sixty_four_drain_permutations_leave_identical_state() {
    let run = |drain_seed: Option<u64>| {
        let mut e = Engine::new(ReplicatedStore::new(ChordPlane::build(24, 9), 3), 9);
        e.set_workers(4);
        e.set_commit_drain_seed(drain_seed);
        let report = e.execute(workload());
        assert!(
            report.results.iter().all(Result::is_ok),
            "workload must fully commit"
        );
        (report.digest_hex(), stored_state(&mut e))
    };
    let (base_digest, base_state) = run(None);
    for seed in 0..PERMUTATIONS {
        let (digest, state) = run(Some(seed));
        assert_eq!(
            digest, base_digest,
            "digest diverged under drain seed {seed}"
        );
        assert_eq!(
            state, base_state,
            "stored bytes diverged under drain seed {seed}"
        );
    }
}

// ---- plan-level checks against the raw commit scheduler ----

fn entry(op_idx: usize, key: u64, shard: usize, byte: u8) -> CommitEntry {
    CommitEntry {
        op_idx,
        seq: 0,
        key: Key(key),
        record: vec![byte; 8],
        shard,
    }
}

/// Applies a plan under one drain seed and returns the final bytes per
/// key, via the replicated read path.
fn drained(plan: &CommitPlan, drain_seed: Option<u64>, keys: &[Key]) -> Vec<Vec<u8>> {
    let mut store = ReplicatedStore::new(ChordPlane::build(24, 7), 3);
    let mut m = Metrics::new();
    for placed in plan.apply(&mut store, &mut m, drain_seed) {
        placed.expect("all entries place");
    }
    keys.iter()
        .map(|k| store.get(*k, &mut m).unwrap())
        .collect()
}

#[test]
fn conflict_waves_make_every_permutation_agree() {
    // Cross-shard writes with two conflicting rewrites of key 70: the
    // builder must fence them into later waves so all 64 drain orders
    // produce the bytes of the last write in (op_idx, seq) order.
    let plan = CommitPlan::build(vec![
        entry(0, 70, 2, 0xa0),
        entry(1, 71, 5, 0xa1),
        entry(2, 70, 9, 0xa2),
        entry(3, 72, 13, 0xa3),
        entry(4, 70, 21, 0xa4),
        entry(5, 73, 27, 0xa5),
    ]);
    assert_eq!(plan.wave_count(), 3, "two rewrites, two extra waves");
    let keys = [Key(70), Key(71), Key(72), Key(73)];
    let baseline = drained(&plan, None, &keys);
    assert_eq!(baseline[0], vec![0xa4; 8], "final rewrite wins");
    for seed in 0..PERMUTATIONS {
        assert_eq!(
            drained(&plan, Some(seed), &keys),
            baseline,
            "drain seed {seed} changed committed state"
        );
    }
}

#[test]
fn negative_control_unfenced_conflicts_are_caught() {
    // Injected ordering bug: the same conflicting writes crammed into one
    // wave in *different shard queues*. The 64-permutation sweep must
    // catch it — some drain order has to flip the final bytes. If this
    // test ever fails, the schedule harness has lost its teeth.
    let buggy = CommitPlan::single_wave_unchecked(vec![
        entry(0, 70, 2, 0xa0),
        entry(1, 70, 9, 0xa2),
        entry(2, 70, 21, 0xa4),
    ]);
    assert_eq!(buggy.wave_count(), 1, "the bug: no conflict fencing");
    let keys = [Key(70)];
    let baseline = drained(&buggy, None, &keys);
    let caught = (0..PERMUTATIONS).any(|seed| drained(&buggy, Some(seed), &keys) != baseline);
    assert!(
        caught,
        "64 permutations failed to expose the injected ordering bug"
    );

    // The same entries through the real builder are fenced and immune.
    let fenced = CommitPlan::build(vec![
        entry(0, 70, 2, 0xa0),
        entry(1, 70, 9, 0xa2),
        entry(2, 70, 21, 0xa4),
    ]);
    assert_eq!(fenced.wave_count(), 3);
    let fenced_baseline = drained(&fenced, None, &keys);
    assert_eq!(fenced_baseline[0], vec![0xa4; 8]);
    for seed in 0..PERMUTATIONS {
        assert_eq!(drained(&fenced, Some(seed), &keys), fenced_baseline);
    }
}
