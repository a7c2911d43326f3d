//! The plan phase: which reads are valid, which the feed cache answers and
//! which the finish phase must serve ([`plan_reads`]). Planned reads are
//! op indices into the batch's `&[Op]`; nothing here clones an op's
//! strings.

use super::batch::{Op, OpOutput};
use super::pipeline::Batch;
use super::{known_user, PhaseCtx, Users};
use crate::error::DosnError;
use crate::feed::{FeedCache, FeedCacheStats};
use crate::integrity::EntryHash;
use dosn_obs::{names, Registry};

/// Per-op result slots, filled as each phase settles its ops.
pub(super) type Results = Vec<Option<Result<OpOutput, DosnError>>>;

/// A planned feed-cache fill: if the quorum read at `op_idx` succeeds, its
/// body is cached for that op's `(reader, author, seq)` under the author's
/// chain head as observed after prepare (posts append there, so the head
/// already covers same-batch writes).
pub(super) struct FeedFill {
    pub(super) op_idx: usize,
    pub(super) head: EntryHash,
}

/// The reads the finish phase will serve and the fills that follow them.
pub(super) struct ReadPlan {
    /// Op indices of the validated `ReadPost`s the feed cache did not
    /// answer, in batch order.
    pub(super) reads: Vec<usize>,
    /// Feed-cache fills to apply once the batch's report exists (empty
    /// when the feed cache is off or every read was served from it).
    pub(super) fills: Vec<FeedFill>,
}

/// Validates reads and serves what the feed cache can. Runs after prepare:
/// timelines were appended there, so an author's chain here already holds
/// this batch's posts. The cache is probed with that live chain: a slice
/// whose witness is still on it — the head, or an entry the author has since
/// appended to — answers for the posts it holds and re-pins to the live
/// head; a slice whose witness is not on it (a fork, a rollback) is dropped
/// whole. A post the slice does not hold, this batch's new ones included,
/// misses and goes to the quorum path, so the L1 cache can never serve
/// around a newer write.
pub(super) fn plan_reads(
    users: &Users,
    feed: &mut Option<FeedCache>,
    ctx: &PhaseCtx,
    batch: &mut Batch,
) -> ReadPlan {
    let timer = ctx.obs.timer(names::ENGINE_PLAN);
    let Batch { ops, results, .. } = batch;
    let mut plan = ReadPlan {
        reads: Vec::new(),
        fills: Vec::new(),
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
        if let Err(unknown) = known_user(users, reader) {
            // A rejected read is timed too (the histogram counts attempts).
            ctx.obs.histogram(names::NET_READ_POST_QUORUM).record(0);
            results[i] = Some(Err(unknown));
            continue;
        }
        if let Some(cache) = feed.as_mut() {
            if let Some(author_state) = users.get(author.as_str()) {
                let chain = author_state.timeline();
                let before = cache.stats();
                let hit = cache.probe(reader, author, *seq, chain);
                bump_feed_stats(&ctx.obs, before, cache.stats());
                if let Some(body) = hit {
                    ctx.obs.histogram(names::NET_READ_POST_QUORUM).record(0);
                    results[i] = Some(Ok(OpOutput::Read { body }));
                    continue;
                }
                plan.fills.push(FeedFill {
                    op_idx: i,
                    head: chain.head_hash(),
                });
            }
        }
        plan.reads.push(i);
    }
    timer.observe();
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
