//! The finish phase: quorum reads — sequential fetch (storage is `&mut`),
//! parallel quorum vote + envelope verification + decryption with each
//! worker borrowing its authors' home shards read-only, then the sequential
//! tail (read-repair, hot-cache admission) — and the feed-cache
//! fills that follow the report. Touches storage and metrics; only reads
//! the shards.

use super::batch::{BatchReport, Op, OpOutput};
use super::pipeline::{fan_out, Batch, JobOut};
use super::plan::{bump_feed_stats, FeedFill};
use super::{elapsed_micros, storage_to_dosn, wall_key, Shard, WorkerCtx, NUM_SHARDS};
use crate::content::Post;
use crate::error::DosnError;
use crate::feed::FeedCache;
use crate::identity::UserId;
use crate::integrity::envelope::{SignedEnvelope, VerifiedEnvelope};
use dosn_obs::{names, Registry};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::{quorum_vote, quorum_vote_batch, FetchedCopies, ReplicatedStore};
use dosn_overlay::storage::{StorageError, StoragePlane};
use std::time::Instant;

/// One `ReadPost` with its fetched bytes, borrowing the op's names.
struct ReadJob<'a> {
    op_idx: usize,
    reader: &'a str,
    author: &'a str,
    seq: u64,
    fetched: Result<FetchedCopies, StorageError>,
    /// Sealed bytes served by the storage plane's hot cache, if any — the
    /// verify/decrypt worker checks these *first* and only falls back to
    /// the quorum copies when they fail verification.
    cached: Option<Vec<u8>>,
    fetch_micros: u64,
}

enum ReadOutcome {
    Done(Result<OpOutput, DosnError>),
    /// Winner decrypted; the sequential pass repairs the job's stale
    /// copies with it.
    Verified {
        body: String,
        winner: Vec<u8>,
    },
    /// The hot-cached envelope failed verification or decryption. The
    /// sequential pass invalidates it and re-runs the read as a real
    /// quorum fetch — a poisoned cache entry must behave exactly like an
    /// uncached tampered replica, never like a served read.
    RetryQuorum,
}

/// Serves the planned `reads` (op indices) into `batch.results`.
pub(super) fn finish_reads<S: StoragePlane>(
    storage: &mut ReplicatedStore<S>,
    metrics: &mut Metrics,
    ctx: &WorkerCtx,
    shards: &[Shard],
    batch: &mut Batch,
    reads: Vec<usize>,
) {
    let timer = ctx.obs.timer(names::ENGINE_FINISH);
    let mut read_jobs: Vec<Vec<ReadJob>> = (0..NUM_SHARDS).map(|_| Vec::new()).collect();
    for op_idx in reads {
        let Op::ReadPost {
            reader,
            author,
            seq,
        } = &batch.ops[op_idx]
        else {
            continue;
        };
        let started = Instant::now();
        let key = wall_key(author, *seq);
        // L2: a hot-cached envelope skips the quorum fetch entirely; the
        // verify worker still runs the full envelope check on it, and
        // `settle_read` falls back to a real quorum read if that fails.
        let cached = storage.cached_fetch(key, metrics);
        let fetched = match cached {
            Some(_) => Ok(FetchedCopies {
                key,
                copies: Vec::new(),
            }),
            None => storage.fetch_copies(key, metrics),
        };
        read_jobs[batch.routes[op_idx]].push(ReadJob {
            op_idx,
            reader,
            author,
            seq: *seq,
            fetched,
            cached,
            fetch_micros: elapsed_micros(started),
        });
    }
    let read_quorum = storage.read_quorum();
    // A read routes to its author's shard, so each bin's context is the
    // home shard of every author its jobs name.
    let bins = shards.iter().zip(read_jobs);
    let mut read_outs = fan_out(ctx.workers, bins, |shard, job| {
        let started = Instant::now();
        let outcome = finish_read(shard, ctx, read_quorum, &job);
        JobOut {
            op_idx: job.op_idx,
            micros: job.fetch_micros + elapsed_micros(started),
            out: (job, outcome),
        }
    });
    read_outs.sort_unstable_by_key(|o| o.op_idx);
    for read in read_outs {
        let (job, outcome) = read.out;
        let home = &shards[batch.routes[read.op_idx]];
        let result = settle_read(storage, metrics, ctx, home, job, outcome);
        ctx.obs
            .histogram(names::NET_READ_POST_QUORUM)
            .record(read.micros);
        if matches!(
            result,
            Err(DosnError::IntegrityViolation(_)
                | DosnError::MalformedEnvelope(_)
                | DosnError::ContentUnavailable(_)
                | DosnError::Crypto(_))
        ) {
            // Adversarial or unavailable replicas: the read refused to
            // return unverified bytes. E17 gates on this staying the *only*
            // failure mode under tampering (never a wrong plaintext).
            // `Crypto` is a signature-valid winner that would not open: the
            // record's epoch word sits outside the signed digest, so a
            // quorum of holders that alter it wins the vote and fails at
            // key derivation. A refusal the replicas had no part in (reader
            // not authorized, unknown user) is not counted.
            ctx.obs.counter(names::ENGINE_READ_FAIL_CLOSED).add(1);
        }
        batch.results[read.op_idx] = Some(result);
    }
    timer.observe();
}

/// The parallel half of one quorum read: vote over the fetched copies with
/// the envelope check as the verifier, then decrypt the winner as the
/// reader. The vote verifies each distinct value once and keeps the
/// [`VerifiedEnvelope`] of every value it accepts, so the winner is unsealed
/// from the proof the vote reached — never decoded or verified a second
/// time. `home` is the author's home shard.
fn finish_read(home: &Shard, ctx: &WorkerCtx, read_quorum: usize, job: &ReadJob) -> ReadOutcome {
    let author_id = UserId::from(job.author);
    // Decode + full verification of one stored record.
    let open = |bytes: &[u8]| {
        SignedEnvelope::open_wire(
            &author_id,
            job.seq,
            bytes,
            &ctx.group,
            &ctx.directory,
            u64::MAX - 1,
        )
    };
    if let Some(bytes) = &job.cached {
        // A hot-cached envelope gets the complete uncached treatment —
        // decode, signature verification, decrypt as the reader. Any
        // failure (tampered bytes, revoked reader, bad encoding) sends
        // the read back to the real quorum path: the cache accelerates
        // reads, it never relaxes what a served read proved.
        return match open(bytes).and_then(|verified| unseal(home, job, &verified)) {
            // No quorum fetch happened, so there is nothing to repair.
            Ok(body) => ReadOutcome::Done(Ok(OpOutput::Read { body })),
            Err(DosnError::NotAuthorized(e)) => {
                // The envelope itself was authentic; the *reader* is not
                // allowed. A quorum retry would fail identically, so
                // report it now (matching the uncached path's error).
                ReadOutcome::Done(Err(DosnError::NotAuthorized(e)))
            }
            Err(_) => ReadOutcome::RetryQuorum,
        };
    }
    let fetched = match &job.fetched {
        Ok(f) => f,
        Err(e) => return ReadOutcome::Done(Err(storage_to_dosn(e.clone()))),
    };
    let quorum_started = Instant::now();
    // Each distinct value with what the vote's verifier proved of it.
    let mut proven: Vec<(&[u8], Option<VerifiedEnvelope>)> = Vec::new();
    let vote = quorum_vote_batch(fetched, read_quorum, |values| {
        let started = Instant::now();
        let opened: Vec<Option<VerifiedEnvelope>> = if ctx.batch_verify {
            // All distinct values verify in one combined Schnorr check (an
            // all-agree read is one value: the plain equation).
            SignedEnvelope::verify_wire_copies(
                &author_id,
                job.seq,
                values,
                &ctx.group,
                &ctx.directory,
                None,
                u64::MAX - 1,
            )
        } else {
            values.iter().map(|bytes| open(bytes).ok()).collect()
        };
        // One histogram sample covers the read's verification.
        ctx.obs
            .histogram(names::CRYPTO_SCHNORR_VERIFY)
            .record(elapsed_micros(started));
        proven = values.iter().copied().zip(opened).collect();
        proven.iter().map(|(_, v)| v.is_some()).collect()
    });
    ctx.obs
        .histogram(names::STORE_GET_QUORUM)
        .record(job.fetch_micros + elapsed_micros(quorum_started));
    let winner = match vote {
        Ok(winner) => winner,
        // No copy verified. Name the defect from the copies in hand, as a
        // trusting `get` would rank them (same leader, same tie-break, same
        // `NotFound` / `QuorumFailed`): missing, short of a quorum, or — the
        // leader's own error — malformed or badly signed. Nothing is read
        // again and nothing is repaired: these bytes proved nothing.
        Err(StorageError::NotFound(_)) => {
            let refusal = match quorum_vote(fetched, read_quorum, |_| true) {
                Ok(raw) => open(&raw).err().unwrap_or_else(|| {
                    DosnError::ContentUnavailable(format!(
                        "no verifying quorum for {}/{}",
                        job.author, job.seq
                    ))
                }),
                Err(e) => storage_to_dosn(e),
            };
            return ReadOutcome::Done(Err(refusal));
        }
        Err(e) => return ReadOutcome::Done(Err(storage_to_dosn(e))),
    };
    let verified = proven
        .iter()
        .find_map(|(bytes, v)| v.as_ref().filter(|_| *bytes == winner));
    let Some(verified) = verified else {
        return ReadOutcome::Done(Err(DosnError::IntegrityViolation(
            "quorum winner was not among the verified values".into(),
        )));
    };
    match unseal(home, job, verified) {
        Ok(body) => ReadOutcome::Verified { body, winner },
        Err(e) => ReadOutcome::Done(Err(e)),
    }
}

/// The last step of every served read, whether the sealed bytes were the
/// quorum winner or a hot-cached envelope: they already decoded as
/// `job.author`'s post `job.seq` and carried the author's valid signature
/// (that is what a [`VerifiedEnvelope`] is); here they decrypt for
/// `job.reader`. Returns the post body.
fn unseal(home: &Shard, job: &ReadJob, verified: &VerifiedEnvelope) -> Result<String, DosnError> {
    let author_state = home
        .get(job.author)
        .ok_or_else(|| DosnError::UnknownUser(job.author.to_owned()))?;
    let plain = author_state.privacy.unseal(
        &author_state.friends_group,
        job.reader,
        verified.epoch(),
        verified.body(),
    )?;
    let post: Post = serde_json::from_slice(&plain)
        .map_err(|e| DosnError::IntegrityViolation(format!("bad post encoding: {e}")))?;
    Ok(post.body)
}

/// The sequential tail of one read: turns what the parallel half decided
/// into the op's result and applies its storage side effects. A poisoned
/// hot-cache entry ([`ReadOutcome::RetryQuorum`]) is dropped
/// (`cache.invalidations`), re-read as a real quorum fetch, and then
/// settled exactly like an uncached read of the same key — same repair,
/// same hot-cache admission.
fn settle_read<S: StoragePlane>(
    storage: &mut ReplicatedStore<S>,
    metrics: &mut Metrics,
    ctx: &WorkerCtx,
    home: &Shard,
    mut job: ReadJob,
    mut outcome: ReadOutcome,
) -> Result<OpOutput, DosnError> {
    if matches!(outcome, ReadOutcome::RetryQuorum) {
        let key = wall_key(job.author, job.seq);
        storage.invalidate_hot(key, metrics);
        let started = Instant::now();
        job.cached = None;
        job.fetched = storage.fetch_copies(key, metrics);
        job.fetch_micros = elapsed_micros(started);
        outcome = finish_read(home, ctx, storage.read_quorum(), &job);
    }
    match outcome {
        ReadOutcome::Done(r) => r,
        ReadOutcome::Verified { body, winner } => {
            if let Ok(fetched) = &job.fetched {
                storage.repair_copies(fetched, &winner, metrics);
                // Verified quorum winners seed the plane's hot cache (and
                // overwrite any stale entry for the key in place).
                storage.admit_hot(fetched.key, &winner, metrics);
            }
            Ok(OpOutput::Read { body })
        }
        ReadOutcome::RetryQuorum => Err(DosnError::IntegrityViolation(
            "uncached retry produced a cache outcome".into(),
        )),
    }
}

/// Applies a batch's planned feed fills after its report exists: only
/// successful reads are cached (a failed read must keep failing until a
/// quorum actually serves it). A fill names its read by index into `ops`.
pub(super) fn apply_feed_fills(
    feed: &mut Option<FeedCache>,
    obs: &Registry,
    ops: &[Op],
    fills: Vec<FeedFill>,
    report: &BatchReport,
) {
    let Some(cache) = feed.as_mut() else {
        return;
    };
    for fill in fills {
        if let (
            Some(Op::ReadPost {
                reader,
                author,
                seq,
            }),
            Some(Ok(OpOutput::Read { body })),
        ) = (ops.get(fill.op_idx), report.results.get(fill.op_idx))
        {
            let before = cache.stats();
            cache.fill(reader, author, *seq, fill.head, body.clone());
            bump_feed_stats(obs, before, cache.stats());
        }
    }
}
