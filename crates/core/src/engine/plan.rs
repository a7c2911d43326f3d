//! The plan phase: the sequential passes on either side of the parallel
//! prepare — which shard owns each op ([`plan_batch`]), then which reads
//! the finish phase must serve and whose records it needs ([`plan_reads`]).
//! Planned reads are op indices into the batch's `&[Op]`; nothing here
//! clones an op's strings.

use super::batch::{Op, OpOutput};
use super::pipeline::Batch;
use super::user::UserState;
use super::{known_user, shard_of, Shard, WorkerCtx};
use crate::error::DosnError;
use crate::feed::{FeedCache, FeedCacheStats};
use crate::identity::UserId;
use crate::integrity::EntryHash;
use dosn_obs::{names, Registry};
use std::collections::BTreeMap;

/// Per-op result slots, filled as each phase settles its ops.
pub(super) type Results = Vec<Option<Result<OpOutput, DosnError>>>;

/// Routes every op to its home user's shard, stamped on `timings`.
pub(super) fn plan_batch(ctx: &WorkerCtx, batch: &mut Batch) {
    let timer = ctx.obs.timer(names::ENGINE_PLAN);
    for (timing, op) in batch.timings.iter_mut().zip(&batch.ops) {
        timing.shard = shard_of(op.users().0);
    }
    timer.observe();
}

/// A planned feed-cache fill: if the quorum read at `op_idx` succeeds, its
/// body is cached for `(reader, author, seq)` under the author's chain
/// head as observed at stage-A time (posts append during prepare, so the
/// head already covers same-batch writes).
pub(super) struct FeedFill {
    pub(super) op_idx: usize,
    pub(super) reader: UserId,
    pub(super) author: UserId,
    pub(super) seq: u64,
    pub(super) head: EntryHash,
}

/// The reads the finish phase will serve, with everything it needs to
/// serve them without the shards.
pub(super) struct ReadPlan {
    /// Op indices of the validated `ReadPost`s the feed cache did not
    /// answer, in batch order.
    pub(super) reads: Vec<usize>,
    /// Feed-cache fills to apply once the batch's report exists (empty
    /// when the feed cache is off or every read was served from it).
    pub(super) fills: Vec<FeedFill>,
    /// The read authors' records, moved out of their shards so the finish
    /// phase can verify and decrypt while the next batch's prepare owns the
    /// shards. Reinserted after exec.
    pub(super) snapshot: BTreeMap<UserId, UserState>,
}

/// Validates reads, serves what the feed cache can, and snapshots the
/// remaining reads' authors. Runs after prepare: timelines were appended
/// there, so an author's chain head here already covers this batch's
/// posts — a cached slice filled before them carries the old head and
/// invalidates, falling through to the quorum path. The L1 cache can never
/// serve around a newer write.
pub(super) fn plan_reads(
    shards: &mut [Shard],
    feed: &mut Option<FeedCache>,
    ctx: &WorkerCtx,
    batch: &mut Batch,
) -> ReadPlan {
    let Batch {
        ops,
        results,
        timings,
        ..
    } = batch;
    let mut plan = ReadPlan {
        reads: Vec::new(),
        fills: Vec::new(),
        snapshot: BTreeMap::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let Op::ReadPost {
            reader,
            author,
            seq,
        } = op
        else {
            continue;
        };
        if let Err(unknown) = known_user(shards, reader) {
            // The old facade timed rejected reads too (its timer guard
            // predated the lookup).
            ctx.obs.histogram(names::NET_READ_POST_QUORUM).record(0);
            results[i] = Some(Err(unknown));
            continue;
        }
        if let Some(cache) = feed.as_mut() {
            let author_id = UserId::from(author.as_str());
            let head = shards[timings[i].shard]
                .get(&author_id)
                .map(|u| u.timeline().head_hash());
            if let Some(head) = head {
                let reader_id = UserId::from(reader.as_str());
                let before = cache.stats();
                let hit = cache.lookup(&reader_id, &author_id, *seq, head);
                bump_feed_stats(&ctx.obs, before, cache.stats());
                if let Some(body) = hit {
                    ctx.obs.histogram(names::NET_READ_POST_QUORUM).record(0);
                    results[i] = Some(Ok(OpOutput::Read { body }));
                    continue;
                }
                plan.fills.push(FeedFill {
                    op_idx: i,
                    reader: reader_id,
                    author: author_id,
                    seq: *seq,
                    head,
                });
            }
        }
        plan.reads.push(i);
    }
    // Only now move the records out: validation above must still see every
    // reader and author at home.
    for &i in &plan.reads {
        let author = ops[i].users().0;
        if let Some((id, state)) = shards[timings[i].shard].remove_entry(author) {
            plan.snapshot.insert(id, state);
        }
    }
    plan
}

/// Mirrors the feed cache's internal counter deltas onto the shared
/// `cache.*` instruments.
pub(super) fn bump_feed_stats(obs: &Registry, before: FeedCacheStats, after: FeedCacheStats) {
    for (name, delta) in [
        (names::CACHE_HITS, after.hits - before.hits),
        (names::CACHE_MISSES, after.misses - before.misses),
        (
            names::CACHE_INVALIDATIONS,
            after.invalidations - before.invalidations,
        ),
        (names::CACHE_EVICTIONS, after.evictions - before.evictions),
    ] {
        if delta > 0 {
            obs.counter(name).add(delta);
        }
    }
}
