//! The one per-user record: everything the engine keeps for a registered
//! user, living in exactly one slot of the engine's user table, [`Users`].
//!
//! Two halves share the record because they share a lifetime and an owner
//! (that slot), not because they trust each other: the §III half (signing
//! identity, access scheme, friends group — whose roster is the engine's
//! only record of who may read the user's posts) holds keys, sees
//! plaintext, seals and opens every post body ([`UserState::seal`],
//! [`UserState::open`]) and decides every comment
//! ([`UserState::comment`]); the §IV half (hash-chained
//! [`Timeline`], whose length is the author's next post sequence number,
//! per-post [`PostRelationKeys`], verified comments) only ever signs and
//! chains *ciphertexts*, and is what a verifier consults without holding
//! the user's keys. A timeline entry is the record the replicas store,
//! signed once.
//!
//! Users are the vertices of one social graph, numbered densely: a user's
//! [`Uid`] is their registration order and the index of their record, and
//! ids never move because no user is removed. Each record keeps its active
//! friends — the friends-group roster minus the user — as ids in name
//! order, which is how the engine walks the roster without cloning it.
//! Two helpers change that list, [`Users::add_friend`] and
//! [`Users::drop_friend`], and they are the engine's only callers of the
//! scheme's `add_member` and `revoke_member`, so list and roster change
//! together or not at all.

use crate::content::Post;
use crate::error::DosnError;
use crate::identity::{Identity, UserId};
use crate::integrity::relations::{CommentAttachment, PostRelationKeys};
use crate::integrity::timeline::Timeline;
use crate::privacy::{AccessScheme, GroupId, MembershipCost, SealedBody, SealedPost};
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use std::collections::BTreeMap;

/// A user's dense id: their registration order, and the index of their
/// record in [`Users`].
pub(super) type Uid = u32;

/// Every registered user's record, by id, and the one name → id index.
/// Each `&str` an op or an entry point carries is resolved here once
/// ([`Users::id`]); the phases then pass ids.
#[derive(Default)]
pub(super) struct Users {
    records: Vec<UserState>,
    ids: BTreeMap<UserId, Uid>,
}

impl Users {
    /// Registered user count.
    pub(super) fn len(&self) -> usize {
        self.records.len()
    }

    /// `name`'s id, if registered.
    pub(super) fn find(&self, name: &str) -> Option<Uid> {
        self.ids.get(name).copied()
    }

    /// `name`'s id, or [`DosnError::UnknownUser`].
    pub(super) fn id(&self, name: &str) -> Result<Uid, DosnError> {
        self.find(name)
            .ok_or_else(|| DosnError::UnknownUser(name.to_owned()))
    }

    /// The record of `id`, which [`Users::id`] or [`Users::find`] handed
    /// out.
    pub(super) fn get(&self, id: Uid) -> &UserState {
        &self.records[id as usize]
    }

    /// The record of `id`, mutably.
    pub(super) fn get_mut(&mut self, id: Uid) -> &mut UserState {
        &mut self.records[id as usize]
    }

    /// `name`'s record, if registered.
    pub(super) fn by_name(&self, name: &str) -> Option<&UserState> {
        self.find(name).map(|id| self.get(id))
    }

    /// The name of `id`.
    pub(super) fn name(&self, id: Uid) -> &str {
        self.get(id).name()
    }

    /// The names of `id`'s friends, in name order.
    pub(super) fn friend_names(&self, id: Uid) -> Vec<String> {
        let friends = self.get(id).friends.iter();
        friends.map(|&f| self.name(f).to_owned()).collect()
    }

    /// Files a freshly registered user's record under `id`, which must be
    /// the next one (the record count), with no friends.
    pub(super) fn insert(
        &mut self,
        id: Uid,
        identity: Identity,
        scheme: Box<dyn AccessScheme>,
        friends_group: GroupId,
        rng: &mut SecureRng,
    ) {
        debug_assert_eq!(id as usize, self.records.len());
        self.ids.insert(identity.id().clone(), id);
        let record = UserState::new(id, identity, scheme, friends_group, rng);
        self.records.push(record);
    }

    /// Adds `friend` to `owner`'s friends group, and to the owner's friend
    /// list at its place in name order. With [`Users::drop_friend`], the
    /// one way either changes: on `Err` neither has.
    ///
    /// # Errors
    ///
    /// [`DosnError::InvalidArgument`] when `owner == friend`, plus the
    /// scheme's refusal.
    pub(super) fn add_friend(
        &mut self,
        owner: Uid,
        friend: Uid,
    ) -> Result<MembershipCost, DosnError> {
        let name = self.name(friend);
        let at = self
            .get(owner)
            .friends
            .binary_search_by(|&f| self.name(f).cmp(name));
        let (state, other) = self.pair(owner, friend)?;
        let cost = state
            .scheme
            .add_member(&state.friends_group, other.name())?;
        if let Err(at) = at {
            state.friends.insert(at, friend);
        }
        Ok(cost)
    }

    /// Revokes `friend` from `owner`'s friends group and takes them off
    /// the owner's friend list — [`Users::add_friend`]'s inverse.
    ///
    /// # Errors
    ///
    /// [`DosnError::InvalidArgument`] when `owner == friend`, plus the
    /// scheme's refusal.
    pub(super) fn drop_friend(
        &mut self,
        owner: Uid,
        friend: Uid,
    ) -> Result<MembershipCost, DosnError> {
        let (state, other) = self.pair(owner, friend)?;
        let cost = state
            .scheme
            .revoke_member(&state.friends_group, other.name())?;
        state.friends.retain(|&f| f != friend);
        Ok(cost)
    }

    /// `owner`'s record mutably beside `friend`'s.
    fn pair(&mut self, owner: Uid, friend: Uid) -> Result<(&mut UserState, &UserState), DosnError> {
        let pair = self
            .records
            .get_disjoint_mut([owner as usize, friend as usize]);
        let [state, other] = pair.map_err(|_| {
            DosnError::InvalidArgument(format!("user {owner} cannot list user {friend}"))
        })?;
        Ok((state, other))
    }
}

/// One registered user.
pub(crate) struct UserState {
    /// This record's index in [`Users`].
    id: Uid,
    identity: Identity,
    scheme: Box<dyn AccessScheme>,
    /// The group `scheme` manages for this user's friends.
    friends_group: GroupId,
    /// The active members of `friends_group` other than this user, as ids
    /// in name order; only [`Users::add_friend`] and [`Users::drop_friend`]
    /// change it.
    friends: Vec<Uid>,
    timeline: Timeline,
    /// Per post: the epoch it was sealed at, the relation keys friends
    /// comment with, and the verified comments attached so far.
    posts: BTreeMap<u64, (u64, PostRelationKeys, Vec<CommentAttachment>)>,
    /// The key every comment on this author's posts is minted under; it does
    /// not rotate when a friend is revoked.
    commenters_key: SymmetricKey,
}

impl UserState {
    /// The record of a freshly registered user: empty timeline, a fresh
    /// commenters key drawn from `rng`.
    fn new(
        id: Uid,
        identity: Identity,
        scheme: Box<dyn AccessScheme>,
        friends_group: GroupId,
        rng: &mut SecureRng,
    ) -> Self {
        UserState {
            id,
            timeline: Timeline::new(identity.id().clone()),
            identity,
            scheme,
            friends_group,
            friends: Vec::new(),
            posts: BTreeMap::new(),
            commenters_key: SymmetricKey::generate(rng),
        }
    }

    /// The user's name.
    pub(super) fn name(&self) -> &str {
        self.identity.id().as_str()
    }

    /// Whether `id` is on this user's friends-group roster (the user is on
    /// their own), read off the friend list: no roster is cloned.
    pub(super) fn lists(&self, id: Uid) -> bool {
        id == self.id || self.friends.contains(&id)
    }

    /// The user's friends — their friends-group roster minus themselves —
    /// as ids in name order.
    pub(super) fn friends(&self) -> &[Uid] {
        &self.friends
    }

    /// Encrypts `plaintext` for the friends group and wire-encodes the
    /// sealed body for storage; returns `(wire bytes, epoch)`.
    ///
    /// # Errors
    ///
    /// Scheme encryption failures, and [`DosnError::MalformedEnvelope`]
    /// when the scheme's ciphertexts have no wire form (ABE, IBBE).
    pub(super) fn seal(&mut self, plaintext: &[u8]) -> Result<(Vec<u8>, u64), DosnError> {
        let sealed = self.scheme.encrypt(&self.friends_group, plaintext)?;
        Ok((sealed.body.to_wire(self.scheme.name())?, sealed.epoch))
    }

    /// Decodes a stored sealed body and decrypts it as `reader`, enforcing
    /// the friends-group membership that held at `epoch`.
    ///
    /// # Errors
    ///
    /// [`DosnError::MalformedEnvelope`] for undecodable bytes,
    /// [`DosnError::NotAuthorized`] for non-members, plus scheme failures.
    pub(super) fn open(&self, reader: &str, epoch: u64, wire: &[u8]) -> Result<Vec<u8>, DosnError> {
        let post = SealedPost {
            scheme: self.scheme.name(),
            group: self.friends_group.clone(),
            epoch,
            body: SealedBody::from_wire(wire)?,
        };
        self.scheme.decrypt_as(&self.friends_group, reader, &post)
    }

    /// The user's timeline (verifier view).
    pub(super) fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Swaps in another chain — a fork or a rollback, which no engine op
    /// produces — so a test can show what the feed cache does about one.
    #[cfg(test)]
    pub(super) fn rewrite_timeline(
        &mut self,
        rewrite: impl FnOnce(&Identity, &Timeline) -> Timeline,
    ) {
        self.timeline = rewrite(&self.identity, &self.timeline);
    }

    /// The post prepare path — everything except the storage write, which
    /// the commit phase applies in op order: encrypt `body` for the friends
    /// group under the next sequence number, append the ciphertext to the
    /// timeline (one signature, over the digest that chains it), mint the
    /// per-post relation keys friends will comment with, and wire-encode
    /// the entry just appended. Returns `(seq, wire record)`: the stored
    /// record is the timeline entry. A post's sequence number is its
    /// position on the timeline — `read_feed` plans wall keys from the
    /// timeline's length and the feed cache bounds its chain walk by it —
    /// so the number is the timeline's length and is taken only by a post
    /// that is appended.
    ///
    /// # Errors
    ///
    /// Post encoding and [`UserState::seal`] failures; the timeline is
    /// left as it was, and the next post gets the same sequence number.
    pub(super) fn seal_post(
        &mut self,
        body: &str,
        group: &SchnorrGroup,
        rng: &mut SecureRng,
    ) -> Result<(u64, Vec<u8>), DosnError> {
        let seq = self.timeline.entries().len() as u64;
        let post = Post::new(self.identity.id().as_str(), seq, seq, body);
        let (ciphertext, epoch) = self.seal(&post.to_bytes()?)?;
        let author = self.identity.id().as_str();
        let wire = self
            .timeline
            .append(&self.identity, &ciphertext, vec![], rng)
            .encode_wire(epoch, group);
        let relation = PostRelationKeys::create(
            format!("{author}/post/{seq}"),
            group.clone(),
            &self.commenters_key,
            rng,
        );
        self.posts.insert(seq, (epoch, relation, Vec::new()));
        Ok((seq, wire))
    }

    /// Attaches the comment of `commenter` (their id and name) to post
    /// `seq` — the one access rule for comments: the commenter is on the
    /// roster now (read off the friend list, [`UserState::lists`]) *and*
    /// the post opens for them through [`UserState::open`], as every read
    /// of it does. The relation keys then bind the comment to that post
    /// (§IV-C).
    ///
    /// # Errors
    ///
    /// * [`DosnError::NotAuthorized`] — the commenter is not on the roster,
    ///   or the scheme's own refusal to open the post for them;
    /// * [`DosnError::ContentUnavailable`] — no such post;
    /// * [`DosnError::IntegrityViolation`] — the relation check fails.
    pub(super) fn comment(
        &mut self,
        seq: u64,
        (commenter_id, commenter): (Uid, &str),
        body: &[u8],
        rng: &mut SecureRng,
    ) -> Result<(), DosnError> {
        let author = self.identity.id();
        if !self.lists(commenter_id) {
            return Err(DosnError::NotAuthorized(format!(
                "{commenter} is not in {author}'s friends group"
            )));
        }
        let missing = || DosnError::ContentUnavailable(format!("{author}/post/{seq}"));
        let epoch = self.posts.get(&seq).ok_or_else(missing)?.0;
        let entry = self.timeline.entries().get(seq as usize);
        self.open(commenter, epoch, &entry.ok_or_else(missing)?.body)?;
        let (_, relation, comments) = self.posts.get_mut(&seq).ok_or_else(missing)?;
        let attachment =
            CommentAttachment::create(relation, &self.commenters_key, commenter.into(), body, rng)?;
        // The author (or any verifier) checks the relation before accepting.
        relation.verify_comment(&attachment)?;
        comments.push(attachment);
        Ok(())
    }

    /// Verified comments on post `seq`, as `(commenter, body)` pairs.
    pub(super) fn comments(&self, seq: u64) -> Vec<(String, String)> {
        let comments = self.posts.get(&seq).map_or(&[][..], |(_, _, cs)| cs);
        comments
            .iter()
            .map(|c| {
                (
                    c.author.as_str().to_owned(),
                    String::from_utf8_lossy(&c.body).into_owned(),
                )
            })
            .collect()
    }
}
