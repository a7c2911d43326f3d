//! The pipeline: how one batch moves through the phases — stage A (plan +
//! prepare, [`stage_batch`]) then stage B (commit + finish + report,
//! [`exec_staged`]) — how [`Engine::execute_all`] overlaps consecutive
//! batches' stages, and the one worker fan-out both parallel phases use.

use super::batch::{BatchReport, Op, OpBatch, OpOutput, OpTiming};
use super::commit::CommitPlan;
use super::finish::{apply_feed_fills, finish_reads};
use super::plan::{plan_batch, plan_reads, ReadPlan, Results};
use super::prepare::prepare_batch;
use super::{shard_of, storage_to_dosn, Engine, Shard, WorkerCtx};
use crate::error::DosnError;
use crate::feed::FeedCache;
use crate::graph::SocialGraph;
use dosn_crypto::sha256::Sha256;
use dosn_obs::names;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::storage::StoragePlane;
use std::thread;

/// One batch in flight: its ops, the global index of its first op, and the
/// per-op result and timing slots the phases fill in.
pub(super) struct Batch {
    pub(super) ops: Vec<Op>,
    pub(super) base: u64,
    pub(super) results: Results,
    pub(super) timings: Vec<OpTiming>,
}

/// What a parallel worker reports for one job: the op it ran, what came
/// out, and how long it took.
pub(super) struct JobOut<T> {
    pub(super) op_idx: usize,
    pub(super) out: T,
    pub(super) micros: u64,
}

/// Runs every job of every bin through `work` on up to `workers` scoped
/// threads and returns the outputs. A bin is a context (a `&mut Shard`, or
/// nothing) plus the jobs that need it; bin *i* goes to worker *i* mod
/// `workers` (round-robin spreads a dense contiguous shard range evenly
/// where contiguous chunking would load the first workers and starve the
/// last), and a bin without jobs keeps its position but costs nothing. A
/// worker runs its bins in position order and a bin's jobs in order;
/// output order across workers depends on `workers`, so callers re-sort by
/// op index and results never do. With one worker everything runs inline
/// on the calling thread, and a worker's panic resumes on the caller.
pub(super) fn fan_out<C: Send, J: Send, O: Send>(
    workers: usize,
    bins: impl IntoIterator<Item = (C, Vec<J>)>,
    work: impl Fn(&mut C, J) -> O + Sync,
) -> Vec<O> {
    let run = |bins: &mut dyn Iterator<Item = (C, Vec<J>)>| -> Vec<O> {
        let mut outs = Vec::new();
        for (mut ctx, jobs) in bins {
            outs.extend(jobs.into_iter().map(|job| work(&mut ctx, job)));
        }
        outs
    };
    if workers <= 1 {
        return run(&mut bins.into_iter());
    }
    let mut per_worker: Vec<Vec<(C, Vec<J>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, bin) in bins.into_iter().enumerate() {
        if !bin.1.is_empty() {
            per_worker[i % workers].push(bin);
        }
    }
    let run = &run;
    thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .filter(|bins| !bins.is_empty())
            .map(|bins| scope.spawn(move || run(&mut bins.into_iter())))
            .collect();
        let mut outs = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(mut worker_outs) => outs.append(&mut worker_outs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        outs
    })
}

/// Everything stage A (plan + prepare) produced for one batch. Stage B
/// (commit + finish) consumes it without ever touching the shards — read
/// authors' records travel inside `reads.snapshot`.
pub(super) struct StagedBatch {
    batch: Batch,
    plan: CommitPlan,
    reads: ReadPlan,
}

/// Stage A: plan, prepare (registers, befriend seam, post/comment crypto,
/// commit-plan construction), then read planning (feed-cache serving and
/// the author snapshot). Touches shards, graph, and (through worker
/// threads) the directory — never storage or metrics.
fn stage_batch(
    shards: &mut [Shard],
    graph: &mut SocialGraph,
    feed: &mut Option<FeedCache>,
    ctx: &WorkerCtx,
    ops: Vec<Op>,
    base: u64,
) -> StagedBatch {
    let mut batch = Batch {
        results: (0..ops.len()).map(|_| None).collect(),
        timings: vec![OpTiming::default(); ops.len()],
        ops,
        base,
    };
    plan_batch(ctx, &mut batch);
    let plan = prepare_batch(shards, graph, ctx, &mut batch);
    let reads = plan_reads(shards, feed, ctx, &mut batch);
    StagedBatch { batch, plan, reads }
}

/// Stage B: drain the commit plan, serve the reads, build the report.
/// Touches storage and metrics (plus the snapshot, directory reads, and
/// obs) — never the shards or graph, which is what lets it overlap the
/// next batch's stage A. Returns the report with what [`Engine::settle`]
/// still owes the engine: the snapshot to reinsert, the fills to apply.
fn exec_staged<S: StoragePlane>(
    storage: &mut ReplicatedStore<S>,
    metrics: &mut Metrics,
    ctx: &WorkerCtx,
    drain_seed: Option<u64>,
    staged: StagedBatch,
) -> (BatchReport, ReadPlan) {
    let StagedBatch {
        mut batch,
        plan,
        mut reads,
    } = staged;

    // ---- commit: wave-ordered per-shard queue drains ----
    let commit_timer = ctx.obs.timer(names::ENGINE_COMMIT);
    let mut record_hasher = Sha256::new();
    if !plan.entries().is_empty() {
        ctx.obs
            .histogram(names::ENGINE_COMMIT_SHARDS)
            .record(plan.queue_count() as u64);
        let placed = plan.apply(storage, metrics, drain_seed);
        for (entry, placement) in plan.entries().iter().zip(placed) {
            batch.results[entry.op_idx] = Some(match placement {
                Ok(_holders) => {
                    record_hasher.update(&entry.key.0.to_be_bytes());
                    record_hasher.update(&entry.record);
                    Ok(OpOutput::Posted { seq: entry.seq })
                }
                // Per-entry isolation: a poisoned op reports its own
                // storage error; sibling queues commit regardless.
                Err(e) => Err(storage_to_dosn(e)),
            });
        }
    }
    commit_timer.observe();

    let read_ops = std::mem::take(&mut reads.reads);
    finish_reads(storage, metrics, ctx, &reads.snapshot, &mut batch, read_ops);

    // ---- report ----
    let results: Vec<Result<OpOutput, DosnError>> = batch
        .results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(DosnError::IntegrityViolation(
                    "engine produced no result for an op".into(),
                ))
            })
        })
        .collect();
    let mut hasher = Sha256::new();
    for r in &results {
        BatchReport::fold_outcome(&mut hasher, r);
    }
    hasher.update(&record_hasher.finalize());
    let report = BatchReport {
        results,
        digest: hasher.finalize(),
        timings: batch.timings,
    };
    (report, reads)
}

/// Overlap rule: stage A of `next_ops` may run while `staged`'s stage B is
/// in flight iff `next_ops` mentions none of the users whose records the
/// snapshot moved out of the shards. Everything else the two stages touch
/// is disjoint by construction (shards/graph vs storage/metrics) or
/// thread-safe with per-user granularity (directory, obs).
fn can_overlap(staged: &StagedBatch, next_ops: &[Op]) -> bool {
    let snapshot = &staged.reads.snapshot;
    !next_ops.iter().any(|op| {
        let (home, other) = op.users();
        snapshot.contains_key(home) || other.is_some_and(|name| snapshot.contains_key(name))
    })
}

impl<S: StoragePlane> Engine<S> {
    /// Executes a batch through the plan / prepare / commit / finish
    /// pipeline. See the module docs for staging and determinism
    /// semantics. Produces the report [`Engine::execute_all`] would for the
    /// same single batch, without requiring a `Send` storage plane (one
    /// batch has no next batch to overlap with).
    pub fn execute(&mut self, batch: OpBatch) -> BatchReport {
        let staged = self.stage(batch);
        self.exec(staged)
    }

    /// Claims a batch's global op indices (counting its ops on
    /// `engine.ops`): the ops and their base index.
    fn claim_batch(&mut self, batch: OpBatch) -> (Vec<Op>, u64) {
        let ops = batch.into_ops();
        self.ctx
            .obs
            .counter(names::ENGINE_OPS)
            .add(ops.len() as u64);
        let base = self.next_op_index;
        self.next_op_index += ops.len() as u64;
        (ops, base)
    }

    /// Stage A of one batch: claim op indices, plan, prepare. Mutates
    /// shards / graph / directory but never storage or metrics.
    fn stage(&mut self, batch: OpBatch) -> StagedBatch {
        let (ops, base) = self.claim_batch(batch);
        stage_batch(
            &mut self.shards,
            &mut self.graph,
            &mut self.feed,
            &self.ctx,
            ops,
            base,
        )
    }

    /// Stage B of one batch: commit + finish, then settle.
    fn exec(&mut self, staged: StagedBatch) -> BatchReport {
        let done = exec_staged(
            &mut self.storage,
            &mut self.metrics,
            &self.ctx,
            self.drain_seed,
            staged,
        );
        self.settle(done)
    }

    /// After stage B: the moved-out author records go home to their
    /// shards, and the feed cache learns the successful quorum reads —
    /// only now, after the report exists (and, when pipelined, after the
    /// overlapped stage A, which at worst turns would-be hits into misses:
    /// the quorum read returns the same bytes).
    fn settle(&mut self, (report, reads): (BatchReport, ReadPlan)) -> BatchReport {
        for (id, state) in reads.snapshot {
            self.shards[shard_of(id.as_str())].insert(id, state);
        }
        apply_feed_fills(&mut self.feed, &self.ctx.obs, reads.fills, &report);
        report
    }
}

impl<S: StoragePlane + Send> Engine<S> {
    /// Executes a sequence of batches with a bounded two-stage pipeline:
    /// batch k+1's plan/prepare (stage A) overlaps batch k's
    /// commit/finish (stage B) on a scoped thread whenever
    ///
    /// - more than one worker is configured, and
    /// - batch k+1 mentions **no user** whose record batch k's finish
    ///   phase snapshot holds (so stage A's shard lookups cannot observe
    ///   the moved-out records).
    ///
    /// When the condition fails the pair simply runs sequentially, so
    /// reports and final state are byte-identical to calling
    /// [`Engine::execute`] in a loop — the property the
    /// `commit_ordering` suite proves. Overlapped pairs count on the
    /// `engine.pipeline.overlap` instrument.
    pub fn execute_all(&mut self, batches: Vec<OpBatch>) -> Vec<BatchReport> {
        let mut reports = Vec::with_capacity(batches.len());
        let mut batches = batches.into_iter();
        let Some(first) = batches.next() else {
            return reports;
        };
        let mut staged = self.stage(first);
        for next in batches {
            if self.ctx.workers > 1 && can_overlap(&staged, next.ops()) {
                self.ctx.obs.counter(names::ENGINE_PIPELINE_OVERLAP).add(1);
                let (ops, base) = self.claim_batch(next);
                let drain_seed = self.drain_seed;
                let (done, staged_next) = {
                    let Engine {
                        ctx,
                        storage,
                        metrics,
                        shards,
                        graph,
                        feed,
                        ..
                    } = &mut *self;
                    let ctx = &*ctx;
                    thread::scope(|scope| {
                        let handle = scope
                            .spawn(move || exec_staged(storage, metrics, ctx, drain_seed, staged));
                        let staged_next = stage_batch(shards, graph, feed, ctx, ops, base);
                        let outcome = match handle.join() {
                            Ok(outcome) => outcome,
                            Err(panic) => std::panic::resume_unwind(panic),
                        };
                        (outcome, staged_next)
                    })
                };
                reports.push(self.settle(done));
                staged = staged_next;
            } else {
                reports.push(self.exec(staged));
                staged = self.stage(next);
            }
        }
        reports.push(self.exec(staged));
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::engine;
    use super::super::NUM_SHARDS;
    use super::*;
    use dosn_overlay::storage::ChordPlane;

    #[test]
    fn fan_out_returns_every_output_exactly_once() {
        // 32 bins (one per shard), bin i holding i % 4 jobs — so some are
        // idle — plus the all-idle, single-bin and no-bin shapes. The
        // context counts the jobs its bin has run so far.
        let dense: Vec<Vec<usize>> = (0..NUM_SHARDS)
            .map(|i| (0..i % 4).map(|j| i * 10 + j).collect())
            .collect();
        let single = vec![vec![], vec![], vec![7, 8, 9], vec![]];
        let idle = vec![Vec::new(); NUM_SHARDS];
        for workers in [1usize, 2, 3, 8, NUM_SHARDS] {
            for bins in [&dense, &single, &idle, &Vec::new()] {
                let mut expected: Vec<(usize, usize)> = bins
                    .iter()
                    .flat_map(|jobs| jobs.iter().copied().enumerate())
                    .collect();
                let counted = bins.iter().map(|jobs| (0usize, jobs.clone()));
                let mut outs = fan_out(workers, counted, |seen, job| {
                    *seen += 1;
                    (*seen - 1, job)
                });
                outs.sort_unstable_by_key(|&(_, job)| job);
                expected.sort_unstable_by_key(|&(_, job)| job);
                assert_eq!(outs, expected, "{workers} workers");
            }
        }
    }

    #[test]
    fn fan_out_reraises_a_worker_panic() {
        for workers in [1usize, 2, 8] {
            let bins = (0..NUM_SHARDS).map(|i| ((), vec![i]));
            let caught = std::panic::catch_unwind(|| {
                fan_out(workers, bins, |(), job| {
                    assert_ne!(job, 5, "job five is poisoned");
                    job
                })
            });
            let panic = caught.expect_err("the worker's panic must reach the caller");
            let message = panic.downcast_ref::<String>().expect("assert message");
            assert!(message.contains("job five is poisoned"), "{message}");
        }
    }

    fn disjoint_batches() -> (OpBatch, OpBatch) {
        (
            OpBatch::new()
                .register("alice")
                .register("bob")
                .befriend("alice", "bob", 0.9)
                .post("alice", "batch one")
                .read_post("bob", "alice", 0),
            OpBatch::new()
                .register("carol")
                .register("dave")
                .befriend("carol", "dave", 0.5)
                .post("carol", "batch two")
                .read_post("dave", "carol", 0),
        )
    }

    fn overlap_count(e: &Engine<ChordPlane>) -> u64 {
        *e.obs()
            .snapshot()
            .counters
            .get(names::ENGINE_PIPELINE_OVERLAP)
            .unwrap_or(&0)
    }

    #[test]
    fn pipelined_execute_all_matches_sequential_loop() {
        let (b1, b2) = disjoint_batches();
        let mut sequential = engine(31);
        sequential.set_workers(2);
        let r1 = sequential.execute(b1.clone());
        let r2 = sequential.execute(b2.clone());

        let mut pipelined = engine(31);
        pipelined.set_workers(2);
        let reports = pipelined.execute_all(vec![b1, b2]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].digest_hex(), r1.digest_hex());
        assert_eq!(reports[1].digest_hex(), r2.digest_hex());
        assert_eq!(overlap_count(&pipelined), 1, "disjoint batches overlap");
        // The moved-out read authors are home again: both wall posts
        // remain readable through a fresh batch.
        let probe = pipelined.execute(
            OpBatch::new()
                .read_post("bob", "alice", 0)
                .read_post("dave", "carol", 0),
        );
        assert!(probe.results.iter().all(Result::is_ok));
    }

    #[test]
    fn pipeline_declines_overlap_when_batches_share_users() {
        let (b1, _) = disjoint_batches();
        // Batch 2 posts as alice — the user batch 1's read snapshot holds.
        let b2 = OpBatch::new().post("alice", "follow-up");
        let mut sequential = engine(33);
        sequential.set_workers(2);
        let r1 = sequential.execute(b1.clone());
        let r2 = sequential.execute(b2.clone());

        let mut pipelined = engine(33);
        pipelined.set_workers(2);
        let reports = pipelined.execute_all(vec![b1, b2]);
        assert_eq!(overlap_count(&pipelined), 0, "conflicting pair is serial");
        assert_eq!(reports[0].digest_hex(), r1.digest_hex());
        assert_eq!(reports[1].digest_hex(), r2.digest_hex());
    }

    #[test]
    fn one_worker_never_pipelines() {
        let (b1, b2) = disjoint_batches();
        let mut e = engine(35);
        let reports = e.execute_all(vec![b1, b2]);
        assert_eq!(reports.len(), 2);
        assert_eq!(overlap_count(&e), 0);
        assert!(reports
            .iter()
            .flat_map(|r| r.results.iter())
            .all(Result::is_ok));
    }
}
