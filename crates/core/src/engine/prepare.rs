//! The prepare phase: the per-author crypto, stage by stage in op order —
//! register keygen, befriend links, post encrypt + sign + chain, comment
//! attach — ending in the batch's [`PreparedPosts`]. Touches the user
//! records, the directory and the L1 slices a join voids; never storage
//! or metrics.

use super::batch::{Op, OpOutput};
use super::pipeline::Batch;
use super::user::{Uid, Users};
use super::{elapsed_micros, op_rng, wall_key, PhaseCtx};
use crate::error::DosnError;
use crate::feed::FeedCache;
use crate::identity::Identity;
use crate::privacy::{AccessScheme, SymmetricGroupScheme};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::keys::KeyDirectory;
use dosn_obs::{names, Registry};
use dosn_overlay::id::Key;
use std::time::Instant;

/// Creates `name`'s record under the next id — the one place a
/// [`super::user::UserState`] is built,
/// serving the batch register stage and
/// [`super::Engine::register_with_scheme`] alike. The scheme gets to refuse
/// the friends group *before* the identity publishes its key binding, so a
/// failed registration leaves nothing behind in the directory.
///
/// # Errors
///
/// [`DosnError::NameTaken`] for a registered name and
/// [`DosnError::InvalidArgument`] when every `u32` id is taken, both
/// before the scheme is asked for anything; scheme-specific
/// group-creation failures.
pub(super) fn register_user(
    users: &mut Users,
    group: &SchnorrGroup,
    directory: &KeyDirectory,
    name: &str,
    mut scheme: Box<dyn AccessScheme>,
    rng: &mut SecureRng,
) -> Result<(), DosnError> {
    if users.find(name).is_some() {
        return Err(DosnError::NameTaken(name.to_owned()));
    }
    let id = Uid::try_from(users.len())
        .map_err(|_| DosnError::InvalidArgument("every user id is taken".into()))?;
    let friends_group = scheme.create_group(&[name.to_owned()])?;
    let identity = Identity::create(name, group.clone(), directory, rng);
    users.insert(id, identity, scheme, friends_group, rng);
    Ok(())
}

/// Runs one op's crypto under its own stopwatch and the RNG of global op
/// `index`; returns what came out and the microseconds it took.
fn timed<T>(ctx: &PhaseCtx, index: u64, job: impl FnOnce(&mut SecureRng) -> T) -> (T, u64) {
    let started = Instant::now();
    let out = job(&mut op_rng(&ctx.op_prk, index));
    (out, elapsed_micros(started))
}

/// The sealed post records awaiting commit, in `(op_idx, seq)` order — the
/// order the commit phase writes them in. Two aligned lists, because
/// `items` is the slice `ReplicatedStore::put_each` takes as is.
#[derive(Default)]
pub(super) struct PreparedPosts {
    /// Each record's op index and author-local sequence number.
    pub(super) slots: Vec<(usize, u64)>,
    /// Each record's wall key and wire-encoded bytes.
    pub(super) items: Vec<(Key, Vec<u8>)>,
}

/// Runs the batch's registers, befriends, posts and comments (in that
/// stage order, each stage in op order) and returns the prepared post
/// records. `base` is the global index of the batch's first op.
pub(super) fn prepare_batch(
    users: &mut Users,
    feed: &mut Option<FeedCache>,
    ctx: &PhaseCtx,
    base: u64,
    batch: &mut Batch,
) -> PreparedPosts {
    let Batch { ops, results } = batch;
    let index = |i: usize| base + i as u64;
    let timer = ctx.obs.timer(names::ENGINE_PREPARE);

    for (i, op) in ops.iter().enumerate() {
        let Op::Register { name } = op else {
            continue;
        };
        let (registered, micros) = timed(ctx, index(i), |rng| {
            let mut master = [0u8; 32];
            rand::RngCore::fill_bytes(rng, &mut master);
            let scheme = Box::new(SymmetricGroupScheme::new(master));
            register_user(users, &ctx.group, &ctx.directory, name, scheme, rng)
        });
        ctx.obs.histogram(names::NET_REGISTER).record(micros);
        results[i] = Some(registered.map(|()| OpOutput::Registered));
    }

    for (i, op) in ops.iter().enumerate() {
        if let Op::Befriend { a, b, trust } = op {
            results[i] = Some(link(users, feed, &ctx.obs, a, b, *trust));
        }
    }

    // Every post seals before any comment attaches, so a comment anywhere
    // in the batch can land on a post the same batch creates.
    let mut posts = PreparedPosts {
        slots: Vec::new(),
        items: Vec::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let Op::Post { author, body } = op else {
            continue;
        };
        let state = match users.id(author) {
            Ok(id) => users.get_mut(id),
            Err(unknown) => {
                // A rejected post is timed too (the histogram counts attempts).
                ctx.obs.histogram(names::NET_POST).record(0);
                results[i] = Some(Err(unknown));
                continue;
            }
        };
        let (sealed, micros) = timed(ctx, index(i), |rng| state.seal_post(body, &ctx.group, rng));
        ctx.obs.histogram(names::NET_POST).record(micros);
        match sealed {
            Ok((seq, record)) => {
                posts.slots.push((i, seq));
                posts.items.push((wall_key(author, seq), record));
            }
            Err(e) => results[i] = Some(Err(e)),
        }
    }
    for (i, op) in ops.iter().enumerate() {
        if let Op::Comment {
            commenter,
            author,
            seq,
            body,
        } = op
        {
            let mut rng = op_rng(&ctx.op_prk, index(i));
            let mut comment = || {
                let commenter = (users.id(commenter)?, commenter.as_str());
                let author = users.id(author)?;
                let body = body.as_bytes();
                users
                    .get_mut(author)
                    .comment(*seq, commenter, body, &mut rng)
            };
            results[i] = Some(comment().map(|()| OpOutput::Commented));
        }
    }
    timer.observe();
    posts
}

/// One befriend: mutual friends-group membership, added only on a side
/// whose roster lacks the friend — re-adding a current member would
/// restart their membership at the current epoch and lock them out of
/// posts they already hold keys for. A failed befriend takes back what it
/// added, so it leaves both rosters as they were. A join drops the friend's
/// L1 slice of the owner's wall: a re-join's fresh epochs may not cover
/// what it holds (a first-time friend has none).
fn link(
    users: &mut Users,
    feed: &mut Option<FeedCache>,
    obs: &Registry,
    a: &str,
    b: &str,
    trust: f64,
) -> Result<OpOutput, DosnError> {
    // Self-edges and out-of-range trust get typed errors (the trust value
    // itself is not stored).
    if a == b {
        return Err(DosnError::InvalidArgument(format!(
            "{a} cannot befriend themselves"
        )));
    }
    if !(0.0..=1.0).contains(&trust) {
        return Err(DosnError::InvalidArgument(format!(
            "trust {trust} outside [0, 1]"
        )));
    }
    let (ia, ib) = (users.id(a)?, users.id(b)?);
    let (add_a, add_b) = (!users.get(ia).lists(ib), !users.get(ib).lists(ia));
    let _timer = obs.timer(names::NET_KEY_DISSEMINATION);
    let mut add = |owner: Uid, friend: Uid| {
        users.add_friend(owner, friend)?;
        if let Some(cache) = feed.as_mut() {
            cache.drop_slice(users.name(friend), users.name(owner));
        }
        Ok(())
    };
    if add_a {
        add(ia, ib)?;
    }
    if add_b {
        if let Err(refused) = add(ib, ia) {
            if add_a {
                users.drop_friend(ia, ib)?;
            }
            return Err(refused);
        }
    }
    Ok(OpOutput::Befriended)
}
