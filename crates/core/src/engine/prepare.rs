//! The prepare phase: the per-author crypto, parallel over shards — register
//! keygen, then (after the sequential befriend seam, which touches two
//! users' shards at once) post encrypt + sign + chain and comment attach —
//! ending in the batch's [`PreparedPosts`]. Touches shards and (through the
//! workers) the directory; never storage or metrics.

use super::batch::{Op, OpOutput};
use super::pipeline::{fan_out, Batch, JobOut};
use super::privacy_plane::PrivacyPlane;
use super::user::UserState;
use super::{
    elapsed_micros, known_user, op_rng, shard_of, user_mut, wall_key, Shard, WorkerCtx, NUM_SHARDS,
};
use crate::error::DosnError;
use crate::identity::{Identity, UserId};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::keys::KeyDirectory;
use dosn_obs::{names, Registry};
use dosn_overlay::id::Key;
use std::collections::BTreeSet;
use std::time::Instant;

/// Creates `name`'s record in its home `shard` — the one place a
/// [`UserState`] is built, serving the batch register job and
/// [`super::Engine::register_with_plane`] alike. The scheme gets to refuse
/// the friends group *before* the identity publishes its key binding, so a
/// failed registration leaves nothing behind in the directory.
///
/// # Errors
///
/// Scheme-specific group-creation failures.
pub(super) fn register_user(
    shard: &mut Shard,
    group: &SchnorrGroup,
    directory: &KeyDirectory,
    name: &str,
    mut privacy: PrivacyPlane,
    rng: &mut SecureRng,
) -> Result<(), DosnError> {
    let friends_group = privacy.create_group(&[name.to_owned()])?;
    let identity = Identity::create(name, group.clone(), directory, rng);
    shard.insert(
        identity.id().clone(),
        UserState::new(identity, privacy, friends_group, rng),
    );
    Ok(())
}

/// Runs one job under its own stopwatch and its op's RNG.
fn run_job<T>(
    ctx: &WorkerCtx,
    base: u64,
    op_idx: usize,
    job: impl FnOnce(&mut SecureRng) -> T,
) -> JobOut<T> {
    let started = Instant::now();
    let out = job(&mut op_rng(&ctx.seed, base + op_idx as u64));
    JobOut {
        op_idx,
        out,
        micros: elapsed_micros(started),
    }
}

/// One post or comment to run on its author's shard, borrowing the op.
#[derive(Clone, Copy)]
enum WriteJob<'a> {
    Post {
        author: &'a str,
        body: &'a str,
    },
    Comment {
        commenter: &'a str,
        author: &'a str,
        seq: u64,
        body: &'a str,
    },
}

/// The sealed post records awaiting commit, in `(op_idx, seq)` order — the
/// order the commit phase writes them in. Two aligned lists, because
/// `items` is the slice `ReplicatedStore::put_each` takes as is.
pub(super) struct PreparedPosts {
    /// Each record's op index and author-local sequence number.
    pub(super) slots: Vec<(usize, u64)>,
    /// Each record's wall key and wire-encoded bytes.
    pub(super) items: Vec<(Key, Vec<u8>)>,
}

/// Runs the batch's registers, befriends, posts and comments (in that
/// stage order, each stage validating its own ops first) and returns the
/// prepared post records.
pub(super) fn prepare_batch(
    shards: &mut [Shard],
    ctx: &WorkerCtx,
    batch: &mut Batch,
) -> PreparedPosts {
    let Batch {
        ops,
        base,
        routes,
        results,
    } = batch;
    let (ops, base) = (ops.as_slice(), *base);
    let timer = ctx.obs.timer(names::ENGINE_PREPARE);

    // ---- part 1: register validation (against the live shards and each
    // other) + keygen (parallel over shards) ----
    let mut registers: Vec<Vec<(usize, &str)>> = vec![Vec::new(); NUM_SHARDS];
    let mut pending_names: BTreeSet<&str> = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        let Op::Register { name } = op else {
            continue;
        };
        if shards[routes[i]].contains_key(name.as_str()) || !pending_names.insert(name) {
            results[i] = Some(Err(DosnError::UnknownUser(format!(
                "{name} already registered"
            ))));
        } else {
            registers[routes[i]].push((i, name));
        }
    }
    let registers = shards.iter_mut().zip(registers);
    let reg_outs = fan_out(ctx.workers, registers, |shard, (i, name)| {
        let reg = run_job(ctx, base, i, |rng| {
            let mut master = [0u8; 32];
            rand::RngCore::fill_bytes(rng, &mut master);
            let privacy = PrivacyPlane::symmetric(master);
            register_user(shard, &ctx.group, &ctx.directory, name, privacy, rng)
        });
        ctx.obs.histogram(names::NET_REGISTER).record(reg.micros);
        reg
    });
    for reg in reg_outs {
        results[reg.op_idx] = Some(reg.out.map(|()| OpOutput::Registered));
    }

    // ---- part 2: befriend links (sequential seam — each op touches two
    // users, usually in different shards) ----
    for (i, op) in ops.iter().enumerate() {
        if let Op::Befriend { a, b, trust } = op {
            results[i] = Some(link(shards, &ctx.obs, a, b, *trust));
        }
    }

    // ---- part 3: post/comment validation + crypto ----
    // Posts are enqueued before comments within every shard, so a comment
    // anywhere in the batch can attach to a post the same batch creates
    // (the stage contract: registers, befriends, posts, comments, reads).
    let mut write_jobs: Vec<Vec<(usize, WriteJob)>> = vec![Vec::new(); NUM_SHARDS];
    for (i, op) in ops.iter().enumerate() {
        let Op::Post { author, body } = op else {
            continue;
        };
        if shards[routes[i]].contains_key(author.as_str()) {
            write_jobs[routes[i]].push((i, WriteJob::Post { author, body }));
        } else {
            // A rejected post is timed too (the histogram counts attempts).
            ctx.obs.histogram(names::NET_POST).record(0);
            results[i] = Some(Err(DosnError::UnknownUser(author.clone())));
        }
    }
    for (i, op) in ops.iter().enumerate() {
        let Op::Comment {
            commenter,
            author,
            seq,
            body,
        } = op
        else {
            continue;
        };
        let job = WriteJob::Comment {
            commenter,
            author,
            seq: *seq,
            body,
        };
        match known_user(shards, commenter).and(known_user(shards, author)) {
            Err(unknown) => results[i] = Some(Err(unknown)),
            Ok(state) if !state.lists(commenter) => {
                results[i] = Some(Err(DosnError::NotAuthorized(format!(
                    "{commenter} is not in {author}'s friends group"
                ))));
            }
            Ok(_) => write_jobs[routes[i]].push((i, job)),
        }
    }
    let writes = shards.iter_mut().zip(write_jobs);
    let mut write_outs = fan_out(ctx.workers, writes, |shard, (i, job)| match job {
        WriteJob::Post { author, body } => {
            let post = run_job(ctx, base, i, |rng| {
                let (seq, record) = user_mut(shard, author)?.seal_post(body, &ctx.group, rng)?;
                Ok(Some((seq, (wall_key(author, seq), record))))
            });
            ctx.obs.histogram(names::NET_POST).record(post.micros);
            post
        }
        WriteJob::Comment {
            commenter,
            author,
            seq,
            body,
        } => run_job(ctx, base, i, |rng| {
            let commenter = UserId::from(commenter);
            user_mut(shard, author)?.attach_comment(seq, commenter, body.as_bytes(), rng)?;
            Ok(None)
        }),
    });
    timer.observe();

    // An op seals at most one record, so op order is (op_idx, seq) order.
    write_outs.sort_unstable_by_key(|o| o.op_idx);
    let mut posts = PreparedPosts {
        slots: Vec::new(),
        items: Vec::new(),
    };
    for write in write_outs {
        match write.out {
            Ok(Some((seq, item))) => {
                posts.slots.push((write.op_idx, seq));
                posts.items.push(item);
            }
            Ok(None) => results[write.op_idx] = Some(Ok(OpOutput::Commented)),
            Err(e) => results[write.op_idx] = Some(Err(e)),
        }
    }
    posts
}

/// The sequential befriend seam: mutual friends-group membership, added
/// only on a side whose roster lacks the friend — re-adding a current
/// member would restart their membership at the current epoch and lock
/// them out of posts they already hold keys for. A failed befriend takes
/// back what it added, so it leaves both rosters as they were.
fn link(
    shards: &mut [Shard],
    obs: &Registry,
    a: &str,
    b: &str,
    trust: f64,
) -> Result<OpOutput, DosnError> {
    // Self-edges and out-of-range trust get typed errors (the trust value
    // itself is not stored).
    if a == b {
        return Err(DosnError::NotAuthorized(format!(
            "{a} cannot befriend themselves"
        )));
    }
    if !(0.0..=1.0).contains(&trust) {
        return Err(DosnError::NotAuthorized(format!(
            "trust {trust} outside [0, 1]"
        )));
    }
    let lacks = |owner: &str, friend: &str| known_user(shards, owner).map(|u| !u.lists(friend));
    let (add_a, add_b) = (lacks(a, b)?, lacks(b, a)?);
    let _timer = obs.timer(names::NET_KEY_DISSEMINATION);
    let mut add = |owner: &str, friend: &str| {
        let state = user_mut(&mut shards[shard_of(owner)], owner)?;
        state.privacy.add_member(&state.friends_group, friend)
    };
    if add_a {
        add(a, b)?;
    }
    if add_b {
        if let Err(refused) = add(b, a) {
            if add_a {
                let state = user_mut(&mut shards[shard_of(a)], a)?;
                state.privacy.revoke_member(&state.friends_group, b)?;
            }
            return Err(refused);
        }
    }
    Ok(OpOutput::Befriended)
}
