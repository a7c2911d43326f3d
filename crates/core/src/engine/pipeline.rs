//! The pipeline: how one batch moves through the phases
//! ([`Engine::execute`]).

use super::batch::{BatchReport, Op, OpBatch, OpOutput};
use super::finish::{apply_feed_fills, finish_reads};
use super::plan::{plan_reads, Results};
use super::prepare::prepare_batch;
use super::{storage_to_dosn, Engine};
use crate::error::DosnError;
use dosn_crypto::sha256::Sha256;
use dosn_obs::names;
use dosn_overlay::storage::StoragePlane;

/// One batch in flight: its ops, the global index of its first op, and the
/// per-op result slots the phases fill in.
pub(super) struct Batch {
    pub(super) ops: Vec<Op>,
    pub(super) base: u64,
    pub(super) results: Results,
}

impl<S: StoragePlane> Engine<S> {
    /// Executes a batch: prepare, plan (read validation and feed-cache
    /// serving), commit, finish, report, feed fills — one phase after the
    /// other on the calling thread. See the module docs for staging and
    /// determinism semantics.
    pub fn execute(&mut self, batch: OpBatch) -> BatchReport {
        let ops = batch.into_ops();
        let ctx = &self.ctx;
        ctx.obs.counter(names::ENGINE_OPS).add(ops.len() as u64);
        let mut batch = Batch {
            base: self.next_op_index,
            results: (0..ops.len()).map(|_| None).collect(),
            ops,
        };
        self.next_op_index += batch.ops.len() as u64;

        let posts = prepare_batch(&mut self.users, ctx, &mut batch);
        let reads = plan_reads(&self.users, &mut self.feed, ctx, &mut batch);

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
            &self.users,
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
