//! Commit-phase planning for the request engine: per-shard commit queues
//! with a deterministic cross-shard ordering rule.
//!
//! Committing every prepared record in one sequential pass would order
//! *all* writes even though almost none of them conflict — two posts by
//! different authors land under different wall keys and commute. A
//! [`CommitPlan`] keeps only the ordering the data actually requires:
//!
//! - entries are first put into a **total order** by `(op_idx, seq)` — the
//!   op's batch position plus the author-local sequence number, so two
//!   commits from one op (or a duplicate batch index) still order totally;
//! - an entry is assigned to the earliest **wave** in which no earlier
//!   entry with an intersecting key set remains uncommitted (for wall
//!   records the key set is the singleton wall key, so only writes to the
//!   *same* key chain across waves);
//! - within a wave, entries are binned into **per-shard queues**. Queues in
//!   one wave hold pairwise disjoint key sets by construction, so the
//!   order in which a scheduler drains them cannot change the final stored
//!   state — that is the invariant the seeded drain permutation
//!   ([`CommitPlan::apply`] with a `drain_seed`) exists to audit.
//!
//! The plan is engine-internal vocabulary, but it is exported so the
//! determinism test suites (`commit_ordering`, `commit_schedule`) can
//! build adversarial schedules against the real commit path.

use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::storage::{StorageError, StoragePlane};
use std::collections::BTreeMap;

/// One prepared storage write awaiting commit: the batch op it came from,
/// its author-local sequence number, the replicated key/record pair, and
/// the state shard that prepared it (the queue it drains from).
#[derive(Debug, Clone)]
pub struct CommitEntry {
    /// Position of the originating op in its batch.
    pub op_idx: usize,
    /// Author-local sequence number (the `(op_idx, seq)` pair is the total
    /// commit order — `op_idx` alone is not assumed unique).
    pub seq: u64,
    /// Replicated storage key the record lands under.
    pub key: Key,
    /// Wire-encoded record bytes.
    pub record: Vec<u8>,
    /// The state shard that prepared the entry.
    pub shard: usize,
}

impl CommitEntry {
    /// The keys this entry writes. Wall records write exactly one key
    /// today; conflict analysis treats it as a set so multi-key records
    /// (e.g. future index writes) inherit the same rule.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        std::iter::once(self.key)
    }
}

/// One shard's commit queue within a wave: indices into
/// [`CommitPlan::entries`], in total `(op_idx, seq)` order.
#[derive(Debug, Clone)]
struct ShardQueue {
    shard: usize,
    entries: Vec<usize>,
}

/// The commit schedule for one batch: entries in total order, partitioned
/// into conflict waves of per-shard queues (see the module docs).
#[derive(Debug, Clone)]
pub struct CommitPlan {
    entries: Vec<CommitEntry>,
    /// `waves[w]` holds the wave-`w` shard queues in ascending shard
    /// order; every queue is non-empty.
    waves: Vec<Vec<ShardQueue>>,
}

impl CommitPlan {
    /// Builds the plan: total-orders `entries` by `(op_idx, seq)`, assigns
    /// each entry to the earliest wave with no uncommitted conflicting
    /// predecessor, and bins each wave by shard.
    pub fn build(mut entries: Vec<CommitEntry>) -> Self {
        entries.sort_by_key(|e| (e.op_idx, e.seq));
        // A key's latest wave so far; the next write to it must wait one
        // wave beyond that (the commit barrier the ISSUE's ordering rule
        // demands — and the *only* barrier).
        let mut key_wave: BTreeMap<Key, usize> = BTreeMap::new();
        let mut assigned: Vec<usize> = Vec::with_capacity(entries.len());
        for entry in &entries {
            let wave = entry
                .keys()
                .filter_map(|k| key_wave.get(&k).map(|w| w + 1))
                .max()
                .unwrap_or(0);
            for k in entry.keys() {
                key_wave.insert(k, wave);
            }
            assigned.push(wave);
        }
        Self::from_assignment(entries, assigned)
    }

    /// Builds a plan that skips conflict analysis and throws every entry
    /// into wave 0 — the **injected ordering bug** for the negative-control
    /// test: conflicting entries in different shard queues of one wave make
    /// the final state depend on drain order, which the schedule suite must
    /// detect. Never use outside tests.
    #[doc(hidden)]
    pub fn single_wave_unchecked(mut entries: Vec<CommitEntry>) -> Self {
        entries.sort_by_key(|e| (e.op_idx, e.seq));
        let assigned = vec![0; entries.len()];
        Self::from_assignment(entries, assigned)
    }

    fn from_assignment(entries: Vec<CommitEntry>, assigned: Vec<usize>) -> Self {
        let wave_count = assigned.iter().copied().max().map_or(0, |w| w + 1);
        let mut waves: Vec<Vec<ShardQueue>> = Vec::with_capacity(wave_count);
        for _ in 0..wave_count {
            waves.push(Vec::new());
        }
        for (idx, (entry, wave)) in entries.iter().zip(&assigned).enumerate() {
            let queues = &mut waves[*wave];
            match queues.iter_mut().find(|q| q.shard == entry.shard) {
                Some(q) => q.entries.push(idx),
                None => queues.push(ShardQueue {
                    shard: entry.shard,
                    entries: vec![idx],
                }),
            }
        }
        for queues in &mut waves {
            queues.sort_by_key(|q| q.shard);
        }
        CommitPlan { entries, waves }
    }

    /// The entries in total `(op_idx, seq)` order.
    pub fn entries(&self) -> &[CommitEntry] {
        &self.entries
    }

    /// Number of conflict waves (0 for an empty plan; 1 when nothing in
    /// the batch conflicts — the common case).
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// Total shard queues across all waves — the commit phase's parallel
    /// lanes, reported as `engine.commit.shards`.
    pub fn queue_count(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }

    /// Drains the plan against replicated storage: waves strictly in
    /// order, queues within a wave in ascending shard order — or, with a
    /// `drain_seed`, in a seeded Fisher–Yates permutation per wave (the
    /// adversarial-scheduler hook; any seed must produce the same final
    /// state because same-wave queues never share keys). Each queue drains
    /// through [`ReplicatedStore::put_each`], so one poisoned entry
    /// reports its own error and its siblings still commit.
    ///
    /// Returns per-entry placement results aligned with
    /// [`CommitPlan::entries`].
    pub fn apply<S: StoragePlane>(
        &self,
        storage: &mut ReplicatedStore<S>,
        metrics: &mut Metrics,
        drain_seed: Option<u64>,
    ) -> Vec<Result<Vec<NodeId>, StorageError>> {
        let mut slots: Vec<Option<Result<Vec<NodeId>, StorageError>>> =
            (0..self.entries.len()).map(|_| None).collect();
        for (wave_idx, queues) in self.waves.iter().enumerate() {
            let mut order: Vec<usize> = (0..queues.len()).collect();
            if let Some(seed) = drain_seed {
                permute(
                    &mut order,
                    seed ^ (wave_idx as u64).wrapping_mul(0x9e37_79b9),
                );
            }
            for qi in order {
                let queue = &queues[qi];
                let items: Vec<(Key, Vec<u8>)> = queue
                    .entries
                    .iter()
                    .map(|&i| (self.entries[i].key, self.entries[i].record.clone()))
                    .collect();
                let placed = storage.put_each(&items, metrics);
                for (&entry_idx, result) in queue.entries.iter().zip(placed) {
                    slots[entry_idx] = Some(result);
                }
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every entry is in exactly one queue"))
            .collect()
    }
}

/// Seeded in-place Fisher–Yates over `order` using a splitmix64 stream —
/// self-contained so the adversarial schedule is reproducible from the
/// seed alone, independent of any RNG crate.
fn permute(order: &mut [usize], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_overlay::storage::ChordPlane;

    fn entry(op_idx: usize, seq: u64, key: u64, shard: usize, byte: u8) -> CommitEntry {
        CommitEntry {
            op_idx,
            seq,
            key: Key(key),
            record: vec![byte; 4],
            shard,
        }
    }

    #[test]
    fn total_order_breaks_duplicate_op_idx_ties_by_seq() {
        // Regression for the PR 5 sort: `sort_unstable_by_key(op_idx)`
        // silently assumed unique indices; duplicate indices (two commits
        // minted by one op) now order by seq.
        let plan = CommitPlan::build(vec![
            entry(3, 1, 30, 0, 1),
            entry(3, 0, 31, 0, 2),
            entry(1, 7, 10, 1, 3),
        ]);
        let order: Vec<(usize, u64)> = plan.entries().iter().map(|e| (e.op_idx, e.seq)).collect();
        assert_eq!(order, vec![(1, 7), (3, 0), (3, 1)]);
    }

    #[test]
    fn disjoint_keys_share_one_wave_conflicts_split_waves() {
        let plan = CommitPlan::build(vec![
            entry(0, 0, 100, 0, 1),
            entry(1, 0, 200, 5, 2),
            entry(2, 1, 100, 0, 3), // same key as op 0 → next wave
            entry(3, 0, 300, 5, 4),
        ]);
        assert_eq!(plan.wave_count(), 2);
        // Wave 0: shards {0, 5}; wave 1: the conflicting rewrite alone.
        assert_eq!(plan.queue_count(), 3);

        let free = CommitPlan::build(vec![
            entry(0, 0, 1, 0, 1),
            entry(1, 0, 2, 1, 2),
            entry(2, 0, 3, 2, 3),
        ]);
        assert_eq!(free.wave_count(), 1);
        assert_eq!(free.queue_count(), 3);
    }

    #[test]
    fn chained_conflicts_stack_waves() {
        let plan = CommitPlan::build(vec![
            entry(0, 0, 7, 0, 1),
            entry(1, 0, 7, 1, 2),
            entry(2, 0, 7, 2, 3),
        ]);
        assert_eq!(plan.wave_count(), 3);
    }

    fn final_bytes(plan: &CommitPlan, drain_seed: Option<u64>, keys: &[Key]) -> Vec<Vec<u8>> {
        let mut store = ReplicatedStore::new(ChordPlane::build(24, 5), 3);
        let mut m = Metrics::new();
        let placed = plan.apply(&mut store, &mut m, drain_seed);
        assert!(placed.iter().all(Result::is_ok));
        keys.iter()
            .map(|k| store.get(*k, &mut m).unwrap())
            .collect()
    }

    #[test]
    fn drain_permutation_cannot_change_final_state() {
        // Two writes to one key (waved) plus independent writes: every
        // drain seed must leave identical bytes under every key.
        let plan = CommitPlan::build(vec![
            entry(0, 0, 40, 0, 10),
            entry(1, 0, 41, 3, 11),
            entry(2, 1, 40, 0, 12),
            entry(3, 0, 42, 9, 13),
        ]);
        let keys = [Key(40), Key(41), Key(42)];
        let baseline = final_bytes(&plan, None, &keys);
        assert_eq!(baseline[0], vec![12u8; 4], "last write to key 40 wins");
        for seed in 0..16u64 {
            assert_eq!(
                final_bytes(&plan, Some(seed), &keys),
                baseline,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn unchecked_single_wave_is_order_dependent() {
        // The negative control: the same conflicting writes forced into
        // one wave in *different shard queues* make the stored value
        // depend on drain order — some permutation must flip it.
        let plan =
            CommitPlan::single_wave_unchecked(vec![entry(0, 0, 77, 0, 1), entry(1, 0, 77, 1, 2)]);
        assert_eq!(plan.wave_count(), 1);
        let keys = [Key(77)];
        let baseline = final_bytes(&plan, None, &keys);
        let flipped = (0..64u64).any(|seed| final_bytes(&plan, Some(seed), &keys) != baseline);
        assert!(flipped, "no permutation exposed the injected ordering bug");
    }

    #[test]
    fn apply_results_align_with_entries_in_total_order() {
        let plan = CommitPlan::build(vec![entry(2, 0, 61, 4, 9), entry(0, 0, 60, 1, 8)]);
        let mut store = ReplicatedStore::new(ChordPlane::build(24, 5), 3);
        let mut m = Metrics::new();
        let placed = plan.apply(&mut store, &mut m, None);
        assert_eq!(placed.len(), 2);
        assert_eq!(plan.entries()[0].op_idx, 0);
        assert_eq!(plan.entries()[1].op_idx, 2);
        for (e, p) in plan.entries().iter().zip(&placed) {
            assert!(p.is_ok(), "entry for op {} failed", e.op_idx);
            assert_eq!(store.get(e.key, &mut m).unwrap(), e.record);
        }
    }
}
