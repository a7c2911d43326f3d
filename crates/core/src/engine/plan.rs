//! The plan phase: which reads are valid, which the feed cache answers and
//! which the finish phase must serve ([`plan_reads`]), and the one place
//! the engine asks the feed cache (L1) anything ([`serve_from_l1`]).
//! Planned reads are op indices into the batch's `&[Op]`; nothing here
//! clones an op's strings.

use super::batch::{Op, OpOutput};
use super::pipeline::Batch;
use super::user::{Uid, Users};
use super::PhaseCtx;
use crate::error::DosnError;
use crate::feed::{FeedCache, FeedCacheStats, Window};
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
#[derive(Default)]
pub(super) struct ReadPlan {
    /// The validated `ReadPost`s the feed cache did not answer, in batch
    /// order: each op's index, and its author's id (`None` for a name no
    /// user holds, whose read finish refuses).
    pub(super) reads: Vec<(usize, Option<Uid>)>,
    /// Feed-cache fills to apply once the batch's report exists (empty
    /// when the feed cache is off or every read was served from it).
    pub(super) fills: Vec<FeedFill>,
}

/// What L1 said about one post of a [`serve_from_l1`] window.
pub(super) enum Served<'a> {
    /// The cached body; the read is done.
    Hit(&'a String),
    /// The read goes to the quorum path, and if it succeeds its body is
    /// filled under this head — `None` when the feed cache is off.
    Miss(Option<EntryHash>),
}

/// The L1 decision for `reader`'s reads of each window's posts, in window
/// order and within a window in sequence order: `each(window index, seq,
/// verdict)` once per post. Every read the cache answers is timed as a
/// zero-microsecond `net.read_post.quorum` sample here, as a quorum read is
/// timed in finish, and the cache's counter deltas are mirrored onto the
/// `cache.*` instruments. With the cache off, every post misses and plans
/// no fill.
pub(super) fn serve_from_l1(
    feed: &mut Option<FeedCache>,
    obs: &Registry,
    reader: &str,
    windows: &[Window<'_>],
    mut each: impl FnMut(usize, u64, Served<'_>),
) {
    let Some(cache) = feed.as_mut() else {
        for (w, window) in windows.iter().enumerate() {
            for seq in window.seqs.clone() {
                each(w, seq, Served::Miss(None));
            }
        }
        return;
    };
    let before = cache.stats();
    let mut quorum = None;
    cache.probe(reader, windows, |w, seq, body| match body {
        Some(body) => {
            quorum
                .get_or_insert_with(|| obs.histogram(names::NET_READ_POST_QUORUM))
                .record(0);
            each(w, seq, Served::Hit(body));
        }
        None => each(w, seq, Served::Miss(Some(windows[w].head))),
    });
    bump_feed_stats(obs, before, cache.stats());
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
    let Batch { ops, results } = batch;
    let mut plan = ReadPlan::default();
    for (i, op) in ops.iter().enumerate() {
        let Op::ReadPost {
            reader,
            author,
            seq,
        } = op
        else {
            continue;
        };
        if let Err(unknown) = users.id(reader) {
            // A rejected read is timed too (the histogram counts attempts).
            ctx.obs.histogram(names::NET_READ_POST_QUORUM).record(0);
            results[i] = Some(Err(unknown));
            continue;
        }
        let Some(author_id) = users.find(author) else {
            plan.reads.push((i, None));
            continue;
        };
        let chain = users.get(author_id).timeline();
        let window = Window::on(author, *seq..*seq + 1, chain);
        serve_from_l1(
            feed,
            &ctx.obs,
            reader,
            &[window],
            |_, _, served| match served {
                Served::Hit(body) => {
                    results[i] = Some(Ok(OpOutput::Read { body: body.clone() }));
                }
                Served::Miss(fill) => {
                    if let Some(head) = fill {
                        plan.fills.push(FeedFill { op_idx: i, head });
                    }
                    plan.reads.push((i, Some(author_id)));
                }
            },
        );
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
