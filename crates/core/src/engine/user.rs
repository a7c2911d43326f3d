//! The one per-user record: everything the engine keeps for a registered
//! user, living in exactly one entry of the engine's user map.
//!
//! Two halves share the record because they share a lifetime and an owner
//! (that map entry), not because they trust each other: the §III
//! half (signing identity, access scheme, friends group — whose roster is
//! the engine's only record of who the user's friends are) holds keys,
//! sees plaintext, and seals and opens every post body
//! ([`UserState::seal`], [`UserState::open`]); the §IV half (hash-chained
//! [`Timeline`], whose length is the author's next post sequence number,
//! per-post [`PostRelationKeys`], verified comments) only ever signs and
//! chains *ciphertexts*, and is what a verifier consults without holding
//! the user's keys. A timeline entry is the record the replicas store,
//! signed once.

use crate::content::Post;
use crate::error::DosnError;
use crate::identity::{Identity, UserId};
use crate::integrity::relations::{CommentAttachment, PostRelationKeys};
use crate::integrity::timeline::Timeline;
use crate::privacy::{AccessScheme, GroupId, SealedBody, SealedPost};
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use std::collections::BTreeMap;

/// One registered user.
pub(crate) struct UserState {
    identity: Identity,
    pub(super) scheme: Box<dyn AccessScheme>,
    /// The group `scheme` manages for this user's friends.
    pub(super) friends_group: GroupId,
    timeline: Timeline,
    /// Per post: the relation keys friends comment with, and the verified
    /// comments attached so far.
    posts: BTreeMap<u64, (PostRelationKeys, Vec<CommentAttachment>)>,
    /// The shared commenter-group key for this author's posts (held by
    /// friends; modelled via the friends group epoch-0 key).
    commenters_key: SymmetricKey,
}

impl UserState {
    /// The record of a freshly registered user: empty timeline, a fresh
    /// commenters key drawn from `rng`.
    pub(super) fn new(
        identity: Identity,
        scheme: Box<dyn AccessScheme>,
        friends_group: GroupId,
        rng: &mut SecureRng,
    ) -> Self {
        UserState {
            timeline: Timeline::new(identity.id().clone()),
            identity,
            scheme,
            friends_group,
            posts: BTreeMap::new(),
            commenters_key: SymmetricKey::generate(rng),
        }
    }

    /// Whether `name` is on this user's friends-group roster (the user is
    /// on their own).
    pub(super) fn lists(&self, name: &str) -> bool {
        self.scheme
            .members(&self.friends_group)
            .iter()
            .any(|m| m == name)
    }

    /// The user's friends, sorted by name whatever order the scheme keeps:
    /// their friends-group roster minus themselves.
    pub(super) fn friends(&self) -> Vec<String> {
        let me = self.identity.id().as_str();
        let mut friends = self.scheme.members(&self.friends_group);
        friends.retain(|m| m != me);
        friends.sort_unstable();
        friends
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
        self.posts.insert(seq, (relation, Vec::new()));
        Ok((seq, wire))
    }

    /// Creates, verifies, and attaches a comment on this author's post
    /// `seq`. The caller is responsible for the *privacy* decision (is the
    /// commenter allowed the commenters key); this enforces the *relation*
    /// — the comment is bound to exactly that post.
    ///
    /// # Errors
    ///
    /// * [`DosnError::ContentUnavailable`] — no such post;
    /// * [`DosnError::IntegrityViolation`] — the relation check fails.
    pub(super) fn attach_comment(
        &mut self,
        seq: u64,
        commenter: UserId,
        body: &[u8],
        rng: &mut SecureRng,
    ) -> Result<(), DosnError> {
        let (relation, comments) = self.posts.get_mut(&seq).ok_or_else(|| {
            DosnError::ContentUnavailable(format!("{}/post/{seq}", self.identity.id()))
        })?;
        let attachment =
            CommentAttachment::create(relation, &self.commenters_key, commenter, body, rng)?;
        // The author (or any verifier) checks the relation before accepting.
        relation.verify_comment(&attachment)?;
        comments.push(attachment);
        Ok(())
    }

    /// Verified comments on post `seq`, as `(commenter, body)` pairs.
    pub(super) fn comments(&self, seq: u64) -> Vec<(String, String)> {
        let comments = self.posts.get(&seq).map_or(&[][..], |(_, cs)| cs);
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
