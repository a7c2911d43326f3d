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
//! 3. **Decide.** Read by read, in op order, one pass. A read holds one
//!    verdict slot per distinct value, indexed by its tally position, and
//!    the check's verdict fills the leader's. A proven leader wins whatever
//!    the other copies hold, so they are never opened; when it fails, every
//!    other value is opened once, all together. [`Tally::decide`] reads the
//!    winner and its holder count off the slots: held by K copies it is
//!    unsealed from its [`VerifiedEnvelope`], the stale copies are repaired
//!    with it and it is admitted to L2; held by fewer, the read is refused
//!    with that shortfall. A read that no value proves for is refused with
//!    its leader's own error, or with the leader's shortfall when it has
//!    fewer than K holders.
//!
//! An L2 entry that fails its check or its unseal is dropped from the
//! cache, its key fetched once from the replicas, and the read decided in
//! the same pass like any read that staked on nothing: a holder's cached
//! copy is never a trust root. An entry that refuses its reader is an
//! authentic record, and the read reports that refusal.
//!
//! With [`super::Engine::set_batch_verify`] off, no read stakes and every
//! value is opened alone.

use super::batch::{BatchReport, Op, OpOutput};
use super::pipeline::Batch;
use super::plan::{bump_feed_stats, FeedFill};
use super::user::{Uid, Users};
use super::{elapsed_micros, storage_to_dosn, wall_key, PhaseCtx};
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
    /// The author's id, as plan resolved it (`None`: no such user).
    author_id: Option<Uid>,
    seq: u64,
    fetched: Result<FetchedCopies, StorageError>,
    /// The fetched copies, counted once.
    tally: Tally,
    /// Sealed bytes served by the storage plane's hot cache, if any — the
    /// read's stake; the read goes to the replicas only when they fail.
    cached: Option<Vec<u8>>,
    /// The fetch's time.
    micros: u64,
}

/// A verdict on one stored record: what it proved, or why it was refused.
type Verdict<'a> = Result<VerifiedEnvelope<'a>, DosnError>;

/// What every read of a batch shares: the phase's context, the user
/// records, the read quorum K, and the per-read latency histograms, looked
/// up once per batch: `crypto.schnorr.verify` (one sample per
/// [`ReadPhase::open`] call), `store.get.quorum` (a quorum read's fetch, check
/// share and vote) and `net.read_post.quorum` (a read up to its unsealed
/// result).
struct ReadPhase<'c> {
    ctx: &'c PhaseCtx,
    users: &'c Users,
    quorum: usize,
    verify: HistHandle,
    get_quorum: HistHandle,
    read_post: HistHandle,
}

/// Serves the planned `reads` (op indices and author ids) into
/// `batch.results`.
pub(super) fn finish_reads<S: StoragePlane>(
    storage: &mut ReplicatedStore<S>,
    metrics: &mut Metrics,
    ctx: &PhaseCtx,
    users: &Users,
    batch: &mut Batch,
    reads: Vec<(usize, Option<Uid>)>,
) {
    let timer = ctx.obs.timer(names::ENGINE_FINISH);
    let phase = ReadPhase {
        ctx,
        users,
        quorum: storage.read_quorum(),
        verify: ctx.obs.histogram(names::CRYPTO_SCHNORR_VERIFY),
        get_quorum: ctx.obs.histogram(names::STORE_GET_QUORUM),
        read_post: ctx.obs.histogram(names::NET_READ_POST_QUORUM),
    };
    let mut jobs: Vec<ReadJob> = Vec::with_capacity(reads.len());
    for (op_idx, author_id) in reads {
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
        // L2: a hot-cached envelope skips the quorum fetch; the check step
        // still runs the full envelope check on it.
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
            author_id,
            seq: *seq,
            tally: fetched.as_ref().map(Tally::new).unwrap_or_default(),
            fetched,
            cached,
            micros: elapsed_micros(started),
        });
    }
    let (stakes, share) = phase.check_stakes(&jobs);
    for (job, stake) in jobs.iter().zip(stakes) {
        let before = job.micros + if stake.is_some() { share } else { 0 };
        let result = phase.serve(storage, metrics, job, stake, before);
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

impl ReadPhase<'_> {
    /// The check step: every read's stake is proven in one combined
    /// Schnorr check, and the verdicts come back one per job (`None` for a
    /// read the check did not cover, and for every read with batch
    /// verification off), with each staked read's even share of the
    /// check's time. The share counts as time before the read's vote, so
    /// the quorum-read latencies still include verification.
    fn check_stakes<'j>(&self, jobs: &'j [ReadJob]) -> (Vec<Option<Verdict<'j>>>, u64) {
        let mut stakes: Vec<Option<Verdict<'j>>> = jobs.iter().map(|_| None).collect();
        if !self.ctx.batch_verify {
            return (stakes, 0);
        }
        let (staked, slots): (Vec<usize>, Vec<_>) = jobs
            .iter()
            .enumerate()
            .filter_map(|(i, job)| {
                let stake: &[u8] = match &job.cached {
                    Some(bytes) => bytes,
                    None => {
                        let (leader, _) = job.tally.leader()?;
                        let fetched = job.fetched.as_ref().ok()?;
                        job.tally.values(fetched).nth(leader)?
                    }
                };
                Some((i, (job.author, job.seq, stake)))
            })
            .unzip();
        if staked.is_empty() {
            return (stakes, 0);
        }
        let (verdicts, micros) = self.open(&slots);
        let share = micros / staked.len() as u64;
        for (i, verdict) in staked.into_iter().zip(verdicts) {
            stakes[i] = Some(verdict);
        }
        (stakes, share)
    }

    /// Decodes and verifies stored records, each `(author, seq, bytes)`
    /// read as `author`'s post `seq`: in one combined Schnorr check, or
    /// each alone with batch verification off. Records one
    /// `crypto.schnorr.verify` sample unless `slots` is empty; returns the
    /// verdicts and their time.
    fn open<'a>(&self, slots: &[(&'a str, u64, &'a [u8])]) -> (Vec<Verdict<'a>>, u64) {
        if slots.is_empty() {
            return (Vec::new(), 0);
        }
        let started = Instant::now();
        let (group, directory, now) = (&self.ctx.group, &self.ctx.directory, u64::MAX - 1);
        let verdicts = if self.ctx.batch_verify {
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
        self.verify.record(micros);
        (verdicts, micros)
    }

    /// One read, decided in one pass: an L2 entry is served if it proves
    /// and unseals, else dropped and its key read from the replicas; a
    /// quorum winner is then repaired onto stale copies and admitted to
    /// L2. `stake` is the check's verdict on the read's stake; `before` is
    /// the read's time before its turn (its fetch, and its share of the
    /// check).
    fn serve<S: StoragePlane>(
        &self,
        storage: &mut ReplicatedStore<S>,
        metrics: &mut Metrics,
        job: &ReadJob,
        stake: Option<Verdict>,
        before: u64,
    ) -> Result<OpOutput, DosnError> {
        let started = Instant::now();
        let (refetched, retally);
        let read = match &job.cached {
            None => self.quorum_read(job, &job.fetched, &job.tally, stake, (started, before)),
            Some(bytes) => match self.cached_read(job, bytes, stake) {
                // No quorum fetch happened, so there is nothing to repair.
                Some(served) => {
                    self.read_post.record(before + elapsed_micros(started));
                    return served.map(|body| OpOutput::Read { body });
                }
                None => {
                    let key = wall_key(job.author, job.seq);
                    storage.invalidate_hot(key, metrics);
                    let fetch = Instant::now();
                    refetched = storage.fetch_copies(key, metrics);
                    retally = refetched.as_ref().map(Tally::new).unwrap_or_default();
                    let clock = (fetch, elapsed_micros(fetch));
                    self.quorum_read(job, &refetched, &retally, None, clock)
                }
            },
        };
        self.read_post.record(before + elapsed_micros(started));
        let (body, fetched, winner) = read?;
        storage.repair_copies(fetched, winner, metrics);
        // Verified quorum winners seed the plane's hot cache (and overwrite
        // any stale entry for the key in place).
        storage.admit_hot(fetched.key, winner, metrics);
        Ok(OpOutput::Read { body })
    }

    /// A read of a hot-cached envelope: the entry gets the complete
    /// uncached treatment — its stake's verdict (opened alone with batch
    /// verification off), then the unseal as the reader. `None` when it
    /// fails either (tampered bytes, bad encoding): the cache accelerates
    /// reads, it never relaxes what a served read proved. A reader the
    /// authentic entry refuses is refused here, as the replicas would.
    fn cached_read(
        &self,
        job: &ReadJob,
        bytes: &[u8],
        stake: Option<Verdict>,
    ) -> Option<Result<String, DosnError>> {
        let verdict = stake.or_else(|| self.open(&[(job.author, job.seq, bytes)]).0.pop());
        match unseal(self.users, job, &verdict?.ok()?) {
            served @ (Ok(_) | Err(DosnError::NotAuthorized(_))) => Some(served),
            Err(_) => None,
        }
    }

    /// The quorum half of a read, over its tally's positions: the slots,
    /// the vote off them, and the winner unsealed as the reader. Returns
    /// the body with the winner's copies and bytes, for repair. `stake` is
    /// the combined check's verdict on the leader; `clock` is when the
    /// read's turn began and the read's time before it.
    fn quorum_read<'f>(
        &self,
        job: &ReadJob,
        fetched: &'f Result<FetchedCopies, StorageError>,
        tally: &Tally,
        stake: Option<Verdict<'f>>,
        (started, before): (Instant, u64),
    ) -> Result<(String, &'f FetchedCopies, &'f [u8]), DosnError> {
        let fetched = fetched.as_ref().map_err(|e| storage_to_dosn(e.clone()))?;
        let leader = tally.leader();
        let mut slots: Vec<(&[u8], Option<Verdict>)> =
            tally.values(fetched).map(|v| (v, None)).collect();
        if let Some(slot) = leader.and_then(|(at, _)| slots.get_mut(at)) {
            slot.1 = stake;
        }
        let leader_proven = leader.and_then(|(at, _)| slots.get(at));
        if !matches!(leader_proven, Some((_, Some(Ok(_))))) {
            let (rest, unopened): (Vec<usize>, Vec<_>) = slots
                .iter()
                .enumerate()
                .filter(|(_, (_, verdict))| verdict.is_none())
                .map(|(at, &(bytes, _))| (at, (job.author, job.seq, bytes)))
                .unzip();
            let (opened, _) = self.open(&unopened);
            for (at, verdict) in rest.into_iter().zip(opened) {
                slots[at].1 = Some(verdict);
            }
        }
        let vote = tally.decide(slots.iter().map(|(bytes, verdict)| match verdict {
            Some(Ok(proof)) => Some((*bytes, proof)),
            _ => None,
        }));
        self.get_quorum.record(before + elapsed_micros(started));
        let short = |have| {
            storage_to_dosn(StorageError::QuorumFailed {
                key: fetched.key,
                have,
                need: self.quorum,
            })
        };
        match (vote.winner, leader) {
            (Some(((winner, proof), have)), _) if have >= self.quorum => {
                Ok((unseal(self.users, job, proof)?, fetched, winner))
            }
            (Some((_, have)), _) => Err(short(have)),
            // Nothing proved, so the leader was opened and refused: held by
            // K copies it reports its own error, held by fewer the
            // shortfall.
            (None, Some((at, have))) => Err(match slots.get(at) {
                Some((_, Some(Err(e)))) if have >= self.quorum => e.clone(),
                _ => short(have),
            }),
            (None, None) => Err(storage_to_dosn(StorageError::NotFound(fetched.key))),
        }
    }
}

/// The last step of every served read, whether the sealed bytes were the
/// quorum winner or a hot-cached envelope: they already decoded as
/// `job.author`'s post `job.seq` and carried the author's valid signature
/// (that is what a [`VerifiedEnvelope`] is); here they decrypt for
/// `job.reader` and read as a [`Post`], which must name the same author
/// and sequence number as the slot. Returns the post body.
fn unseal(users: &Users, job: &ReadJob, verified: &VerifiedEnvelope) -> Result<String, DosnError> {
    let author_state = job
        .author_id
        .map(|id| users.get(id))
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
