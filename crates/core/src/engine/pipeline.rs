//! The pipeline: how one batch moves through the phases
//! ([`Engine::execute`]) and the one worker fan-out both parallel phases
//! use.

use super::batch::{BatchReport, Op, OpBatch, OpOutput};
use super::finish::{apply_feed_fills, finish_reads};
use super::plan::{plan_batch, plan_reads, Results};
use super::prepare::prepare_batch;
use super::{storage_to_dosn, Engine};
use crate::error::DosnError;
use dosn_crypto::sha256::Sha256;
use dosn_obs::names;
use dosn_overlay::storage::StoragePlane;
use std::thread;

/// One batch in flight: its ops, the global index of its first op, each
/// op's home shard, and the per-op result slots the phases fill in.
pub(super) struct Batch {
    pub(super) ops: Vec<Op>,
    pub(super) base: u64,
    pub(super) routes: Vec<usize>,
    pub(super) results: Results,
}

/// What a parallel worker reports for one job: the op it ran, what came
/// out, and how long it took.
pub(super) struct JobOut<T> {
    pub(super) op_idx: usize,
    pub(super) out: T,
    pub(super) micros: u64,
}

/// Runs every job of every bin through `work` on up to `workers` scoped
/// threads and returns the outputs. A bin is a context (prepare's
/// `&mut Shard`; finish has none) plus the jobs that need it; bin *i*
/// goes to worker *i* mod `workers` (round-robin spreads a dense contiguous
/// shard range evenly where contiguous chunking would load the first
/// workers and starve the last), and a bin without jobs keeps its position
/// but costs nothing. A worker runs its bins in position order and a bin's
/// jobs in order; output order across workers depends on `workers`, so
/// callers re-sort by op index and results never do. With one worker
/// everything runs inline on the calling thread, and a worker's panic
/// resumes on the caller.
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

impl<S: StoragePlane> Engine<S> {
    /// Executes a batch: plan, prepare, feed-cache serving, commit, finish,
    /// report, feed fills — one phase after the other on the calling
    /// thread, the two parallel phases fanning out to the configured
    /// workers. See the module docs for staging and determinism semantics.
    pub fn execute(&mut self, batch: OpBatch) -> BatchReport {
        let ops = batch.into_ops();
        let ctx = &self.ctx;
        ctx.obs.counter(names::ENGINE_OPS).add(ops.len() as u64);
        let mut batch = Batch {
            base: self.next_op_index,
            routes: Vec::with_capacity(ops.len()),
            results: (0..ops.len()).map(|_| None).collect(),
            ops,
        };
        self.next_op_index += batch.ops.len() as u64;

        plan_batch(ctx, &mut batch);
        let posts = prepare_batch(&mut self.shards, ctx, &mut batch);
        let reads = plan_reads(&self.shards, &mut self.feed, ctx, &mut batch);

        // ---- commit: the prepared records, in op order ----
        let commit_timer = ctx.obs.timer(names::ENGINE_COMMIT);
        let mut record_hasher = Sha256::new();
        if !posts.items.is_empty() {
            let placed = self.storage.put_each(&posts.items, &mut self.metrics);
            for ((&(op_idx, seq), (key, record)), placement) in
                posts.slots.iter().zip(&posts.items).zip(placed)
            {
                batch.results[op_idx] = Some(match placement {
                    Ok(_holders) => {
                        record_hasher.update(&key.0.to_be_bytes());
                        record_hasher.update(record);
                        Ok(OpOutput::Posted { seq })
                    }
                    // Per-entry isolation: a poisoned op reports its own
                    // storage error; its siblings commit regardless.
                    Err(e) => Err(storage_to_dosn(e)),
                });
            }
        }
        commit_timer.observe();

        finish_reads(
            &mut self.storage,
            &mut self.metrics,
            ctx,
            &self.shards,
            &mut batch,
            reads.reads,
        );

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
        };
        // The feed cache learns the successful quorum reads only now, after
        // every lookup of this batch: a fill can never answer a read of the
        // batch that produced it.
        apply_feed_fills(&mut self.feed, &ctx.obs, &batch.ops, reads.fills, &report);
        report
    }

    /// Executes the batches in order: exactly [`Engine::execute`] in a
    /// loop, reports in submission order.
    pub fn execute_all(&mut self, batches: Vec<OpBatch>) -> Vec<BatchReport> {
        batches.into_iter().map(|b| self.execute(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::NUM_SHARDS;
    use super::*;

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
}
