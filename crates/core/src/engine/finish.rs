//! The finish phase: the batch's quorum reads, then the feed-cache fills
//! that follow the report. Touches storage and metrics; only reads the user
//! records. Every read's copies are fetched in op order, then three steps
//! run:
//!
//! 1. **Screen.** A read the hot cache (L2) served stakes on that entry; any
//!    other read stakes on its strict-plurality value, the present value
//!    held by more copies than every other value (all copies agreeing is
//!    the unanimous case). A read with a tied plurality stakes on nothing.
//! 2. **Check.** One combined Schnorr check proves every candidate of the
//!    batch ([`SignedEnvelope::verify_wire_slots`]). The verdicts are exact
//!    per candidate, since a failed check bisects.
//! 3. **Settle.** Read by read, in op order, the quorum vote takes the
//!    checked verdict and the winner is unsealed from its
//!    [`VerifiedEnvelope`]; then stale copies are repaired, the winner is
//!    admitted to L2, and a poisoned L2 entry is re-read through the
//!    quorum. A staked plurality that verifies wins the vote whatever its
//!    minority copies hold, so they are never opened. A read that staked on
//!    nothing, or whose stake failed, verifies its other distinct values
//!    inside its own vote.
//!
//! With [`super::Engine::set_batch_verify`] off, no read is screened and
//! every value is opened alone inside its vote.

use super::batch::{BatchReport, Op, OpOutput};
use super::pipeline::Batch;
use super::plan::{bump_feed_stats, FeedFill};
use super::{elapsed_micros, storage_to_dosn, wall_key, PhaseCtx, Users};
use crate::content::Post;
use crate::error::DosnError;
use crate::feed::FeedCache;
use crate::identity::UserId;
use crate::integrity::envelope::{SignedEnvelope, VerifiedEnvelope};
use dosn_obs::{names, Registry};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::{
    quorum_inspect_batch, quorum_vote, FetchedCopies, ReplicatedStore,
};
use dosn_overlay::storage::{StorageError, StoragePlane};
use std::cmp::Reverse;
use std::time::Instant;

/// One `ReadPost` with its fetched bytes, borrowing the op's names.
struct ReadJob<'a> {
    op_idx: usize,
    reader: &'a str,
    author: &'a str,
    seq: u64,
    fetched: Result<FetchedCopies, StorageError>,
    /// Sealed bytes served by the storage plane's hot cache, if any — the
    /// read's candidate, checked and unsealed *first*; the read falls back
    /// to the quorum copies only when they fail.
    cached: Option<Vec<u8>>,
    fetch_micros: u64,
    /// The combined check's verdict on the read's [`candidate`]; `None`
    /// for a read the check did not cover.
    checked: Option<Option<VerifiedEnvelope>>,
}

/// The one value a read stakes on, if it has one: the L2-served envelope,
/// or the strict plurality of the present replica copies — the value held
/// by more copies than every other value. `quorum_vote` serves the
/// verifying value with the most holders, so a strict plurality that
/// verifies wins whatever the minority copies hold; a tie has no such
/// value.
fn candidate<'j>(job: &'j ReadJob) -> Option<&'j [u8]> {
    if let Some(bytes) = &job.cached {
        return Some(bytes);
    }
    let fetched = job.fetched.as_ref().ok()?;
    let mut tally: Vec<(&[u8], usize)> = Vec::new();
    for bytes in fetched.copies.iter().filter_map(|(_, c)| c.as_deref()) {
        match tally.iter_mut().find(|(value, _)| *value == bytes) {
            Some((_, holders)) => *holders += 1,
            None => tally.push((bytes, 1)),
        }
    }
    tally.sort_by_key(|&(_, holders)| Reverse(holders));
    let runner_up = tally.get(1).map_or(0, |&(_, holders)| holders);
    tally
        .first()
        .filter(|&&(_, most)| most > runner_up)
        .map(|&(value, _)| value)
}

enum ReadOutcome {
    Done(Result<OpOutput, DosnError>),
    /// Winner decrypted; [`settle_read`] repairs the job's stale copies
    /// with it.
    Verified {
        body: String,
        winner: Vec<u8>,
    },
    /// The hot-cached envelope failed verification or decryption.
    /// [`settle_read`] invalidates it and re-runs the read as a real
    /// quorum fetch — a poisoned cache entry must behave exactly like an
    /// uncached tampered replica, never like a served read.
    RetryQuorum,
}

/// Serves the planned `reads` (op indices) into `batch.results`.
pub(super) fn finish_reads<S: StoragePlane>(
    storage: &mut ReplicatedStore<S>,
    metrics: &mut Metrics,
    ctx: &PhaseCtx,
    users: &Users,
    batch: &mut Batch,
    reads: Vec<usize>,
) {
    let timer = ctx.obs.timer(names::ENGINE_FINISH);
    let mut jobs: Vec<ReadJob> = Vec::with_capacity(reads.len());
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
        // check step still runs the full envelope check on it, and
        // `settle_read` falls back to a real quorum read if that fails.
        let cached = storage.cached_fetch(key, metrics);
        let fetched = match cached {
            Some(_) => Ok(FetchedCopies {
                key,
                copies: Vec::new(),
            }),
            None => storage.fetch_copies(key, metrics),
        };
        jobs.push(ReadJob {
            op_idx,
            reader,
            author,
            seq: *seq,
            fetched,
            cached,
            fetch_micros: elapsed_micros(started),
            checked: None,
        });
    }
    if ctx.batch_verify {
        check_candidates(ctx, &mut jobs);
    }
    let read_quorum = storage.read_quorum();
    for job in jobs {
        let started = Instant::now();
        let outcome = finish_read(ctx, users, read_quorum, &job);
        let (op_idx, micros) = (job.op_idx, job.fetch_micros + elapsed_micros(started));
        let result = settle_read(storage, metrics, ctx, users, job, outcome);
        ctx.obs
            .histogram(names::NET_READ_POST_QUORUM)
            .record(micros);
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
        batch.results[op_idx] = Some(result);
    }
    timer.observe();
}

/// The check step: every read with a [`candidate`] has it proven in one
/// combined Schnorr check, one `crypto.schnorr.verify` sample. Each read
/// carries its verdict and an even share of the check's time, which counts
/// as time before its vote, so the quorum-read latencies still include
/// verification.
fn check_candidates(ctx: &PhaseCtx, jobs: &mut [ReadJob]) {
    let started = Instant::now();
    let staked: Vec<(usize, UserId, &[u8])> = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, job)| candidate(job).map(|bytes| (i, UserId::from(job.author), bytes)))
        .collect();
    if staked.is_empty() {
        return;
    }
    let slots: Vec<(&UserId, u64, &[u8])> = staked
        .iter()
        .map(|(i, author, bytes)| (author, jobs[*i].seq, *bytes))
        .collect();
    let verdicts =
        SignedEnvelope::verify_wire_slots(&slots, &ctx.group, &ctx.directory, u64::MAX - 1);
    let micros = elapsed_micros(started);
    ctx.obs
        .histogram(names::CRYPTO_SCHNORR_VERIFY)
        .record(micros);
    let each = micros / staked.len() as u64;
    let staked: Vec<usize> = staked.into_iter().map(|(i, _, _)| i).collect();
    for (i, verdict) in staked.into_iter().zip(verdicts) {
        jobs[i].fetch_micros += each;
        jobs[i].checked = Some(verdict);
    }
}

/// The storage-free half of one quorum read: vote over the fetched copies,
/// then decrypt the winner as the reader. A read the check step covered
/// votes with that verdict, and opens its other distinct values only if
/// the verdict failed; any other read verifies each distinct value once
/// inside the vote. Either way the vote keeps the [`VerifiedEnvelope`] of
/// every value it accepts, so the winner is unsealed from the proof the
/// vote reached — never decoded or verified a second time.
fn finish_read(ctx: &PhaseCtx, users: &Users, read_quorum: usize, job: &ReadJob) -> ReadOutcome {
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
        let opened;
        let verified = match &job.checked {
            Some(verdict) => verdict.as_ref(),
            None => {
                opened = open(bytes).ok();
                opened.as_ref()
            }
        };
        let Some(verified) = verified else {
            return ReadOutcome::RetryQuorum;
        };
        return match unseal(users, job, verified) {
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
    // The checked plurality, if the read staked; the vote reuses its
    // verdict and verifies only the other values.
    let staked = job.checked.as_ref().and_then(|_| candidate(job));
    // Each distinct value the vote's verifier opened, with what it proved.
    let mut proven: Vec<(&[u8], Option<VerifiedEnvelope>)> = Vec::new();
    let vote = quorum_inspect_batch(fetched, read_quorum, |values| {
        if let (Some(Some(_)), Some(staked)) = (&job.checked, staked) {
            // The plurality verified, so it wins: the minority values are
            // never opened and count as unverified.
            return values.iter().map(|&v| v == staked).collect();
        }
        let mut rest = values.to_vec();
        rest.retain(|&v| Some(v) != staked);
        // A failed stake with no other value leaves nothing to open.
        if staked.is_none() || !rest.is_empty() {
            let started = Instant::now();
            let opened: Vec<Option<VerifiedEnvelope>> = if ctx.batch_verify {
                // The values verify in one combined Schnorr check.
                let slots: Vec<(&UserId, u64, &[u8])> =
                    rest.iter().map(|&v| (&author_id, job.seq, v)).collect();
                SignedEnvelope::verify_wire_slots(&slots, &ctx.group, &ctx.directory, u64::MAX - 1)
            } else {
                rest.iter().map(|bytes| open(bytes).ok()).collect()
            };
            // One histogram sample covers the read's verification.
            ctx.obs
                .histogram(names::CRYPTO_SCHNORR_VERIFY)
                .record(elapsed_micros(started));
            proven = rest.into_iter().zip(opened).collect();
        }
        // A failed stake keeps its checked verdict: it is not in `proven`.
        values
            .iter()
            .map(|&v| proven.iter().any(|(bytes, ok)| *bytes == v && ok.is_some()))
            .collect()
    })
    .into_result();
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
    let verified = match &job.checked {
        // The staked plurality verified, so it is the winner.
        Some(Some(verdict)) => Some(verdict),
        _ => proven
            .iter()
            .find_map(|(bytes, v)| v.as_ref().filter(|_| *bytes == winner)),
    };
    let Some(verified) = verified else {
        return ReadOutcome::Done(Err(DosnError::IntegrityViolation(
            "quorum winner was not among the verified values".into(),
        )));
    };
    match unseal(users, job, verified) {
        Ok(body) => ReadOutcome::Verified { body, winner },
        Err(e) => ReadOutcome::Done(Err(e)),
    }
}

/// The last step of every served read, whether the sealed bytes were the
/// quorum winner or a hot-cached envelope: they already decoded as
/// `job.author`'s post `job.seq` and carried the author's valid signature
/// (that is what a [`VerifiedEnvelope`] is); here they decrypt for
/// `job.reader` and decode as a [`Post`], which must name the same author
/// and sequence number as the slot. Returns the post body.
fn unseal(users: &Users, job: &ReadJob, verified: &VerifiedEnvelope) -> Result<String, DosnError> {
    let author_state = users
        .get(job.author)
        .ok_or_else(|| DosnError::UnknownUser(job.author.to_owned()))?;
    let plain = author_state.open(job.reader, verified.epoch(), verified.body())?;
    let post = Post::from_bytes(&plain)?;
    if post.author.as_str() != job.author || post.sequence != job.seq {
        return Err(DosnError::IntegrityViolation(format!(
            "slot {}/{} holds post {}/{}",
            job.author, job.seq, post.author, post.sequence
        )));
    }
    Ok(post.body)
}

/// The storage tail of one read: turns what [`finish_read`] decided into
/// the op's result and applies its storage side effects. A poisoned
/// hot-cache entry ([`ReadOutcome::RetryQuorum`]) is dropped
/// (`cache.invalidations`), re-read as a real quorum fetch, and then
/// settled exactly like an uncached read of the same key — same repair,
/// same hot-cache admission.
fn settle_read<S: StoragePlane>(
    storage: &mut ReplicatedStore<S>,
    metrics: &mut Metrics,
    ctx: &PhaseCtx,
    users: &Users,
    mut job: ReadJob,
    mut outcome: ReadOutcome,
) -> Result<OpOutput, DosnError> {
    if matches!(outcome, ReadOutcome::RetryQuorum) {
        let key = wall_key(job.author, job.seq);
        storage.invalidate_hot(key, metrics);
        let started = Instant::now();
        job.cached = None;
        // The check's verdict was on the cached bytes; the retry votes
        // alone.
        job.checked = None;
        job.fetched = storage.fetch_copies(key, metrics);
        job.fetch_micros = elapsed_micros(started);
        outcome = finish_read(ctx, users, storage.read_quorum(), &job);
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
