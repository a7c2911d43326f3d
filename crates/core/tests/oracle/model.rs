//! The reference the engine is checked against: what every op returns,
//! computed from plaintext alone.
//!
//! It holds each user's friends-group ledger and every post in one map,
//! and runs a batch in the engine's stages. It never encrypts, signs,
//! stores or caches anything — every answer the engine gives is a
//! plaintext, a sequence number or an error kind, and each of those is a
//! function of the ledger and the posts. An error is returned as the
//! `DosnError` variant the engine must report; its text is not compared.

use dosn_core::engine::{Op, OpOutput};
use dosn_core::feed::FeedItem;
use dosn_core::{DosnError, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// What one op returns.
pub(super) type Outcome = Result<OpOutput, DosnError>;

/// One user's friends group: the roster's ledger rule. A member holds the
/// epochs `joined ≤ e < revoked`, every revocation opens a new epoch, and a
/// re-join starts a fresh membership at the current epoch. The owner joined
/// at epoch 0 and is never revoked.
struct Group {
    epoch: u64,
    /// member → (joined, revoked).
    members: BTreeMap<String, (u64, Option<u64>)>,
    /// Members who joined again after a revocation.
    rejoined: BTreeSet<String>,
    /// The one name this group never admits (a picky scheme's refusal).
    refuses: Option<&'static str>,
}

impl Group {
    fn founded_by(owner: &str, refuses: Option<&'static str>) -> Self {
        Group {
            epoch: 0,
            members: BTreeMap::from([(owner.to_owned(), (0, None))]),
            rejoined: BTreeSet::new(),
            refuses,
        }
    }

    fn join(&mut self, name: &str) {
        if self
            .members
            .insert(name.to_owned(), (self.epoch, None))
            .is_some()
        {
            self.rejoined.insert(name.to_owned());
        }
    }

    /// Revokes a listed `name`, opening a new epoch.
    fn revoke(&mut self, name: &str) {
        self.epoch += 1;
        if let Some(membership) = self.members.get_mut(name) {
            membership.1 = Some(self.epoch);
        }
    }

    fn lists(&self, name: &str) -> bool {
        self.members.get(name).is_some_and(|(_, r)| r.is_none())
    }

    fn held(&self, name: &str, epoch: u64) -> bool {
        self.members
            .get(name)
            .is_some_and(|&(joined, revoked)| joined <= epoch && revoked.is_none_or(|r| epoch < r))
    }
}

/// A post: its body, the epoch it was sealed at, and its comments.
struct Post {
    body: String,
    epoch: u64,
    comments: Vec<(String, String)>,
}

/// The engine as plaintext.
#[derive(Default)]
pub(super) struct Model {
    groups: BTreeMap<String, Group>,
    /// (author, seq) → post.
    posts: BTreeMap<(String, u64), Post>,
    /// Global op indices taken so far: what `engine.ops` reads.
    pub(super) ops: u64,
    /// Reads answered so far, refused ones included: the number of
    /// `net.read_post.quorum` samples.
    pub(super) reads: u64,
    /// Reads of a post that does not exist: the only refusal that counts
    /// as `engine.read.fail_closed` while every replica is honest.
    pub(super) fail_closed: u64,
    /// Reads refused to a re-joined member for a post sealed before the
    /// re-join (a coverage count; no answer depends on it).
    pub(super) rejoin_refusals: u64,
    /// Comments refused to a re-joined member on a post sealed before the
    /// re-join (a coverage count, like `rejoin_refusals`).
    pub(super) rejoin_comment_refusals: u64,
    /// Befriends whose first add was taken back because the second side
    /// refused (a coverage count).
    pub(super) rollbacks: u64,
}

fn unknown(name: &str) -> DosnError {
    DosnError::UnknownUser(name.to_owned())
}

fn refused(why: &str) -> DosnError {
    DosnError::NotAuthorized(why.to_owned())
}

fn invalid(why: &str) -> DosnError {
    DosnError::InvalidArgument(why.to_owned())
}

impl Model {
    /// Runs a batch in the engine's stages — registers, then befriends,
    /// then posts, then comments, then reads, each in op order — and
    /// returns the outcomes in submission order.
    pub(super) fn execute(&mut self, ops: &[Op]) -> Vec<Outcome> {
        self.ops += ops.len() as u64;
        let mut out: Vec<Option<Outcome>> = vec![None; ops.len()];
        let stage = |op: &Op| match op {
            Op::Register { .. } => 0,
            Op::Befriend { .. } => 1,
            Op::Post { .. } => 2,
            Op::Comment { .. } => 3,
            Op::ReadPost { .. } => 4,
        };
        for now in 0..5 {
            for (i, op) in ops.iter().enumerate() {
                if stage(op) == now {
                    out[i] = Some(self.apply(op));
                }
            }
        }
        out.into_iter().flatten().collect()
    }

    fn apply(&mut self, op: &Op) -> Outcome {
        match op {
            Op::Register { name } => {
                if self.groups.contains_key(name) {
                    return Err(DosnError::NameTaken(name.clone()));
                }
                self.groups
                    .insert(name.clone(), Group::founded_by(name, None));
                Ok(OpOutput::Registered)
            }
            Op::Befriend { a, b, trust } => {
                if a == b || !(0.0..=1.0).contains(trust) {
                    return Err(invalid("self-edge or trust out of range"));
                }
                for name in [a, b] {
                    if !self.groups.contains_key(name) {
                        return Err(unknown(name));
                    }
                }
                let adds: Vec<(&String, &String)> = [(a, b), (b, a)]
                    .into_iter()
                    .filter(|(owner, friend)| !self.groups[*owner].lists(friend))
                    .collect();
                for (k, &(owner, friend)) in adds.iter().enumerate() {
                    if self.groups[owner].refuses == Some(friend.as_str()) {
                        // The engine takes back the add before this one by
                        // revoking it: on the ledger a join and a
                        // revocation, so the friend keeps the epoch the join
                        // fell in.
                        for &(owner, friend) in &adds[..k] {
                            let group = self.groups.get_mut(owner).expect("checked above");
                            group.join(friend);
                            group.revoke(friend);
                            self.rollbacks += 1;
                        }
                        return Err(refused("the friends group admits no such member"));
                    }
                }
                for (owner, friend) in adds {
                    self.groups
                        .get_mut(owner)
                        .expect("checked above")
                        .join(friend);
                }
                Ok(OpOutput::Befriended)
            }
            Op::Post { author, body } => {
                let group = self.groups.get(author).ok_or_else(|| unknown(author))?;
                let seq = self.wall_len(author);
                let post = Post {
                    body: body.clone(),
                    epoch: group.epoch,
                    comments: Vec::new(),
                };
                self.posts.insert((author.clone(), seq), post);
                Ok(OpOutput::Posted { seq })
            }
            Op::Comment {
                commenter,
                author,
                seq,
                body,
            } => {
                if !self.groups.contains_key(commenter) {
                    return Err(unknown(commenter));
                }
                let group = self.groups.get(author).ok_or_else(|| unknown(author))?;
                if !group.lists(commenter) {
                    return Err(refused("commenter is not a friend"));
                }
                let post = self
                    .posts
                    .get_mut(&(author.clone(), *seq))
                    .ok_or_else(|| DosnError::ContentUnavailable(format!("{author}/post/{seq}")))?;
                // A comment is allowed only on a post its commenter may read.
                if !group.held(commenter, post.epoch) {
                    if group.rejoined.contains(commenter) {
                        self.rejoin_comment_refusals += 1;
                    }
                    return Err(refused("commenter did not hold the post's epoch"));
                }
                post.comments.push((commenter.clone(), body.clone()));
                Ok(OpOutput::Commented)
            }
            Op::ReadPost {
                reader,
                author,
                seq,
            } => {
                self.reads += 1;
                if !self.groups.contains_key(reader) {
                    return Err(unknown(reader));
                }
                self.read(reader, author, *seq)
                    .map(|body| OpOutput::Read { body })
            }
        }
    }

    /// `reader`'s read of `author`'s post `seq`, for a registered reader:
    /// the body when the reader held the post's epoch in the author's
    /// group.
    fn read(&mut self, reader: &str, author: &str, seq: u64) -> Result<String, DosnError> {
        let Some(post) = self.posts.get(&(author.to_owned(), seq)) else {
            self.fail_closed += 1;
            let missing = format!("{author}/post/{seq}");
            return Err(DosnError::ContentUnavailable(missing));
        };
        let group = &self.groups[author];
        if !group.held(reader, post.epoch) {
            if group.rejoined.contains(reader) && group.lists(reader) {
                self.rejoin_refusals += 1;
            }
            return Err(refused("reader did not hold the post's epoch"));
        }
        Ok(post.body.clone())
    }

    fn wall_len(&self, author: &str) -> u64 {
        let wall = (author.to_owned(), 0)..=(author.to_owned(), u64::MAX);
        self.posts.range(wall).count() as u64
    }

    /// `Engine::register_with_scheme` of a scheme whose friends group never
    /// admits `refuses`; one op index, like a batch `Register`.
    pub(super) fn register_picky(&mut self, name: &str, refuses: &'static str) {
        self.ops += 1;
        let group = Group::founded_by(name, Some(refuses));
        self.groups.insert(name.to_owned(), group);
    }

    /// `Engine::unfriend`: each side that lists the other revokes them,
    /// opening a new epoch; returns the members each revocation re-keyed.
    pub(super) fn unfriend(&mut self, a: &str, b: &str) -> Result<u64, DosnError> {
        let lists = |owner: &str, friend: &str| {
            self.groups
                .get(owner)
                .map(|group| group.lists(friend))
                .ok_or_else(|| unknown(owner))
        };
        if a == b || !(lists(a, b)? | lists(b, a)?) {
            return Err(invalid("self-unfriend or not friends"));
        }
        let mut rekeyed = 0;
        for (owner, friend) in [(a, b), (b, a)] {
            let group = self.groups.get_mut(owner).expect("checked above");
            if group.lists(friend) {
                group.revoke(friend);
                rekeyed += group.members.values().filter(|(_, r)| r.is_none()).count() as u64;
            }
        }
        Ok(rekeyed)
    }

    /// `Engine::read_feed`: the latest `k` posts of every friend, friends in
    /// name order, oldest first, leaving out the posts the reader may not
    /// open. Every post in a friend's window is one read.
    pub(super) fn read_feed(&mut self, user: &str, k: usize) -> Result<Vec<FeedItem>, DosnError> {
        let friends = self.friends(user).ok_or_else(|| unknown(user))?;
        let mut items = Vec::new();
        for friend in friends {
            let len = self.wall_len(&friend);
            for seq in len.saturating_sub(k as u64)..len {
                self.ops += 1;
                self.reads += 1;
                if let Ok(body) = self.read(user, &friend, seq) {
                    let author = UserId::from(friend.as_str());
                    items.push(FeedItem { author, seq, body });
                }
            }
        }
        Ok(items)
    }

    /// `user`'s friends in name order, or `None` for an unknown user.
    pub(super) fn friends(&self, user: &str) -> Option<Vec<String>> {
        let group = self.groups.get(user)?;
        let friends = group
            .members
            .keys()
            .filter(|m| *m != user && group.lists(m));
        Some(friends.cloned().collect())
    }

    /// The comments on `author`'s post `seq`, in the order they attached.
    pub(super) fn comments(&self, author: &str, seq: u64) -> &[(String, String)] {
        self.posts
            .get(&(author.to_owned(), seq))
            .map_or(&[], |post| &post.comments)
    }

    /// Every post's (author, seq), in order.
    pub(super) fn walls(&self) -> impl Iterator<Item = (&str, u64)> {
        self.posts
            .keys()
            .map(|(author, seq)| (author.as_str(), *seq))
    }
}
