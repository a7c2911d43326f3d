//! The finish phase: the batch's quorum reads, then the feed-cache fills
//! that follow the report. Touches storage and metrics; only reads the user
//! records. Every read's copies are fetched in op order and counted once
//! into a [`Tally`], then three steps run:
//!
//! 1. **Stake.** A read the hot cache (L2) served stakes on that entry; any
//!    other read stakes on its tally's leader, the present value with the
//!    most holders (the earliest-seen on a tie). A read with no copy
//!    stakes on nothing.
//! 2. **Check.** One combined Schnorr check proves every stake of the
//!    batch ([`SignedEnvelope::verify_wire_slots`]). The verdicts are exact
//!    per stake, since a failed check verifies each stake alone.
//! 3. **Settle.** Read by read, in op order, the tally's vote takes the
//!    checked verdict and the winner is unsealed from its
//!    [`VerifiedEnvelope`]; then stale copies are repaired, the winner is
//!    admitted to L2, and a poisoned L2 entry is re-read through the
//!    quorum. A leader that verifies wins the vote whatever the other
//!    copies hold, so they are never opened; when it fails, each other
//!    distinct value is opened once inside the vote. A read that no value
//!    verifies for is refused with its leader's own error, or with the
//!    leader's shortfall when it has fewer than K holders.
//!
//! With [`super::Engine::set_batch_verify`] off, no read stakes and every
//! value is opened alone: inside its vote, or, for an L2 entry, before it.

use super::batch::{BatchReport, Op, OpOutput};
use super::pipeline::Batch;
use super::plan::{bump_feed_stats, FeedFill};
use super::{elapsed_micros, storage_to_dosn, wall_key, PhaseCtx, Users};
use crate::content::Post;
use crate::error::DosnError;
use crate::feed::FeedCache;
use crate::integrity::envelope::{SignedEnvelope, VerifiedEnvelope};
use dosn_obs::{names, HistHandle, Registry};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::{FetchedCopies, ReplicatedStore, Tally};
use dosn_overlay::storage::{StorageError, StoragePlane};
use std::time::Instant;

/// One `ReadPost` with its fetched bytes, borrowing the op's names.
struct ReadJob<'a> {
    op_idx: usize,
    reader: &'a str,
    author: &'a str,
    seq: u64,
    fetched: Result<FetchedCopies, StorageError>,
    /// The fetched copies, counted once.
    tally: Tally,
    /// Sealed bytes served by the storage plane's hot cache, if any — the
    /// read's stake, checked and unsealed *first*; the read falls back to
    /// the quorum copies only when they fail.
    cached: Option<Vec<u8>>,
    /// The fetch's time.
    micros: u64,
}

/// A verdict on one stored record: what it proved, or why it was refused.
type Verdict<'a> = Result<VerifiedEnvelope<'a>, DosnError>;

enum ReadOutcome<'a> {
    Done(Result<OpOutput, DosnError>),
    /// Winner decrypted; [`settle_read`] repairs the job's stale copies
    /// with it.
    Verified {
        body: String,
        winner: &'a [u8],
    },
    /// The hot-cached envelope failed verification or decryption.
    /// [`settle_read`] invalidates it and re-runs the read as a real
    /// quorum fetch — a poisoned cache entry must behave exactly like an
    /// uncached tampered replica, never like a served read.
    RetryQuorum,
}

/// The batch's per-read latency histograms, looked up once per batch:
/// `crypto.schnorr.verify` (one sample per [`open_slots`] call),
/// `store.get.quorum` (a quorum read's fetch, check share and vote) and
/// `net.read_post.quorum` (a read up to its unsealed result).
struct Instruments {
    verify: HistHandle,
    get_quorum: HistHandle,
    read_post: HistHandle,
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
    let ins = Instruments {
        verify: ctx.obs.histogram(names::CRYPTO_SCHNORR_VERIFY),
        get_quorum: ctx.obs.histogram(names::STORE_GET_QUORUM),
        read_post: ctx.obs.histogram(names::NET_READ_POST_QUORUM),
    };
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
            tally: fetched.as_ref().map(Tally::new).unwrap_or_default(),
            fetched,
            cached,
            micros: elapsed_micros(started),
        });
    }
    let (checked, share) = check_stakes(ctx, &ins, &jobs);
    let read_quorum = storage.read_quorum();
    for (job, checked) in jobs.iter().zip(checked) {
        let started = Instant::now();
        let before = job.micros + if checked.is_some() { share } else { 0 };
        let clock = (started, before);
        let outcome = finish_read(ctx, &ins, users, read_quorum, job, checked, clock);
        let micros = before + elapsed_micros(started);
        let result = settle_read(storage, metrics, ctx, &ins, users, job, outcome);
        ins.read_post.record(micros);
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
        batch.results[job.op_idx] = Some(result);
    }
    timer.observe();
}

/// The check step: every read's stake is proven in one combined Schnorr
/// check, and the verdicts come back one per job (`None` for a read the
/// check did not cover, and for every read with batch verification off),
/// with each staked read's even share of the check's time. The share
/// counts as time before the read's vote, so the quorum-read latencies
/// still include verification.
fn check_stakes<'j>(
    ctx: &PhaseCtx,
    ins: &Instruments,
    jobs: &'j [ReadJob],
) -> (Vec<Option<Verdict<'j>>>, u64) {
    let mut checked: Vec<Option<Verdict<'j>>> = jobs.iter().map(|_| None).collect();
    if !ctx.batch_verify {
        return (checked, 0);
    }
    let (staked, slots): (Vec<usize>, Vec<_>) = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, job)| {
            let stake: &[u8] = match &job.cached {
                Some(bytes) => bytes,
                None => job.tally.leader(job.fetched.as_ref().ok()?)?.0,
            };
            Some((i, (job.author, job.seq, stake)))
        })
        .unzip();
    if staked.is_empty() {
        return (checked, 0);
    }
    let (verdicts, micros) = open_slots(ctx, ins, &slots);
    let share = micros / staked.len() as u64;
    for (i, verdict) in staked.into_iter().zip(verdicts) {
        checked[i] = Some(verdict);
    }
    (checked, share)
}

/// Decodes and verifies stored records, each `(author, seq, bytes)` read
/// as `author`'s post `seq`: in one combined Schnorr check, or each alone
/// with batch verification off. Records one `crypto.schnorr.verify`
/// sample unless `slots` is empty; returns the verdicts and their time.
fn open_slots<'a>(
    ctx: &PhaseCtx,
    ins: &Instruments,
    slots: &[(&'a str, u64, &'a [u8])],
) -> (Vec<Verdict<'a>>, u64) {
    if slots.is_empty() {
        return (Vec::new(), 0);
    }
    let started = Instant::now();
    let (group, directory, now) = (&ctx.group, &ctx.directory, u64::MAX - 1);
    let verdicts = if ctx.batch_verify {
        SignedEnvelope::verify_wire_slots(slots, group, directory, now)
    } else {
        slots
            .iter()
            .map(|&(author, seq, bytes)| {
                SignedEnvelope::open_wire(author, seq, bytes, group, directory, now)
            })
            .collect()
    };
    let micros = elapsed_micros(started);
    ins.verify.record(micros);
    (verdicts, micros)
}

/// The storage-free half of one quorum read: vote over the tallied copies,
/// then decrypt the winner as the reader. The vote keeps the verdict of
/// every value the check or the vote opened, so the winner is unsealed from
/// the proof reached and a refused read names its leader's error — nothing
/// is decoded or verified twice. `checked` is the combined check's verdict
/// on the read's stake; `clock` is when the read's turn began and the
/// read's time before it (its fetch, and its share of the check).
fn finish_read<'j>(
    ctx: &PhaseCtx,
    ins: &Instruments,
    users: &Users,
    quorum: usize,
    job: &'j ReadJob,
    checked: Option<Verdict<'j>>,
    (started, before): (Instant, u64),
) -> ReadOutcome<'j> {
    if let Some(bytes) = &job.cached {
        // A hot-cached envelope gets the complete uncached treatment —
        // decode, signature verification, decrypt as the reader. Any
        // failure (tampered bytes, revoked reader, bad encoding) sends
        // the read back to the real quorum path: the cache accelerates
        // reads, it never relaxes what a served read proved.
        let verified = checked.or_else(|| {
            open_slots(ctx, ins, &[(job.author, job.seq, bytes)])
                .0
                .pop()
        });
        let Some(Ok(verified)) = verified else {
            return ReadOutcome::RetryQuorum;
        };
        return match unseal(users, job, &verified) {
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
    let leader = job.tally.leader(fetched);
    // Each distinct value opened, with its verdict: the checked leader
    // first, if the read staked.
    let mut proven = Vec::from_iter(leader.map(|(bytes, _)| bytes).zip(checked));
    let vote = job
        .tally
        .vote(fetched, quorum, |values| {
            // A verified leader wins, so the other values are never
            // opened; otherwise each is opened once, all together.
            if !matches!(proven.first(), Some((_, Ok(_)))) {
                let rest: Vec<(&str, u64, &[u8])> = values
                    .iter()
                    .filter(|&&v| proven.iter().all(|(bytes, _)| *bytes != v))
                    .map(|&v| (job.author, job.seq, v))
                    .collect();
                let (opened, _) = open_slots(ctx, ins, &rest);
                proven.extend(rest.iter().map(|&(_, _, v)| v).zip(opened));
            }
            values
                .iter()
                .map(|&v| proven.iter().any(|(bytes, r)| *bytes == v && r.is_ok()))
                .collect()
        })
        .into_result();
    ins.get_quorum.record(before + elapsed_micros(started));
    let verdict = |bytes: &[u8]| proven.iter().find(|(v, _)| *v == bytes);
    let winner = match (vote, leader) {
        (Ok(winner), _) => winner,
        // No copy verified, so the leader was opened and refused: held by K
        // copies it reports its own error, held by fewer the shortfall.
        // Nothing is read again and nothing is repaired.
        (Err(StorageError::NotFound(key)), Some((bytes, have))) => {
            return ReadOutcome::Done(Err(match verdict(bytes) {
                Some((_, Err(e))) if have >= quorum => e.clone(),
                _ => storage_to_dosn(StorageError::QuorumFailed {
                    key,
                    have,
                    need: quorum,
                }),
            }));
        }
        (Err(e), _) => return ReadOutcome::Done(Err(storage_to_dosn(e))),
    };
    let Some((winner, Ok(verified))) = verdict(&winner) else {
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
/// `job.reader` and read as a [`Post`], which must name the same author
/// and sequence number as the slot. Returns the post body.
fn unseal(users: &Users, job: &ReadJob, verified: &VerifiedEnvelope) -> Result<String, DosnError> {
    let author_state = users
        .get(job.author)
        .ok_or_else(|| DosnError::UnknownUser(job.author.to_owned()))?;
    let plain = author_state.open(job.reader, verified.epoch(), verified.body())?;
    let (author, sequence, _, body) = Post::read(&plain)?;
    if author != job.author || sequence != job.seq {
        return Err(DosnError::IntegrityViolation(format!(
            "slot {}/{} holds post {author}/{sequence}",
            job.author, job.seq
        )));
    }
    Ok(body.to_owned())
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
    ins: &Instruments,
    users: &Users,
    job: &ReadJob,
    outcome: ReadOutcome,
) -> Result<OpOutput, DosnError> {
    match outcome {
        ReadOutcome::Done(r) => r,
        ReadOutcome::Verified { body, winner } => {
            if let Ok(fetched) = &job.fetched {
                storage.repair_copies(fetched, winner, metrics);
                // Verified quorum winners seed the plane's hot cache (and
                // overwrite any stale entry for the key in place).
                storage.admit_hot(fetched.key, winner, metrics);
            }
            Ok(OpOutput::Read { body })
        }
        ReadOutcome::RetryQuorum => {
            let key = wall_key(job.author, job.seq);
            storage.invalidate_hot(key, metrics);
            let started = Instant::now();
            let fetched = storage.fetch_copies(key, metrics);
            let retry = ReadJob {
                tally: fetched.as_ref().map(Tally::new).unwrap_or_default(),
                fetched,
                cached: None,
                micros: elapsed_micros(started),
                ..*job
            };
            let quorum = storage.read_quorum();
            let clock = (Instant::now(), retry.micros);
            match finish_read(ctx, ins, users, quorum, &retry, None, clock) {
                ReadOutcome::RetryQuorum => Err(DosnError::IntegrityViolation(
                    "uncached retry produced a cache outcome".into(),
                )),
                outcome => settle_read(storage, metrics, ctx, ins, users, &retry, outcome),
            }
        }
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
    let before = cache.stats();
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
            cache.fill(reader, author, *seq, fill.head, body.clone());
        }
    }
    // The batch's counter deltas, mirrored once rather than per fill.
    bump_feed_stats(obs, before, cache.stats());
}
