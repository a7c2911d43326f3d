//! The engine against one reference: random steps over a four-name
//! universe drive four engines — the caches (feed cache L1 and hot cache
//! L2, both at capacity 4) on or off × batched signature verification on
//! or off — and a plaintext model of the engine (`model.rs`). For every
//! step each engine must give the model's answer: `Ok` values exactly,
//! errors by `DosnError` variant. A step is a batch of random ops (1 to
//! 39), one op through its single-op call (or, on every other engine, as a
//! batch of one), an `unfriend`, or a `read_feed` (or, on every other
//! engine, the feed's reads as one batch).
//!
//! After every step each engine must also agree with the model on every
//! user's friends, the comments on every post, the op indices taken
//! (`engine.ops`), the reads answered (`net.read_post.quorum` samples, a
//! cache hit's included) and the fail-closed reads; the four digests of a
//! batch must be one. The two cached engines must have the same feed-cache
//! stats and `cache.*` counts, though at every feed step one of them ran
//! `read_feed` and the other a batch, and their capacity of four posts
//! evicts. At the end, every post's stored record and the storage ledger's
//! byte total must be the same on all four, so no configuration and no
//! call path takes an op index or stores a byte another does not. Each
//! case runs over the bare ring or over the ring behind social placement.
//! Ann's friends group never admits dan, so a befriend of ann by dan is
//! refused after dan's side was added, and the engine takes that add back.
//!
//! The model does no crypto: what a reader is served is a plaintext, and
//! re-running the engine's own crypto would only check the engine against
//! itself. A failure names the configuration, the step, the op, the
//! model's answer and the engine's, and prints the case seed; replay it
//! with `PROPTEST_SEED=<seed>`.

mod model;

use dosn_core::engine::{wall_key, Engine, Op, OpBatch, OpOutput};
use dosn_core::feed::{FeedCache, FeedCacheStats, FeedItem};
use dosn_core::privacy::{AccessScheme, GroupId, MembershipCost, SealedPost, SymmetricGroupScheme};
use dosn_core::{DosnError, UserId};
use dosn_obs::names;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::placement::{SocialPlacement, SocialPlane};
use dosn_overlay::replication::ReplicatedStore;
use dosn_overlay::social::{SocialGraph, SocialGraphConfig};
use dosn_overlay::storage::StoragePlane;
use model::{Model, Outcome};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Debug;
use std::mem::discriminant;

const NAMES: [&str; 4] = ["ann", "ben", "cat", "dan"];
/// Comment and read ops name posts `0..SEQS`.
const SEQS: u64 = 5;

/// One engine configuration.
#[derive(Debug, Clone, Copy)]
struct Config {
    /// L1 and L2 on, each at capacity 4.
    caches: bool,
    batch_verify: bool,
}

type Plane = Box<dyn StoragePlane>;

/// An engine at `seed` in `config`, over a 24-node ring, bare or behind
/// social placement (E18's stack).
fn engine(seed: u64, social: bool, config: Config) -> Engine<Plane> {
    let ring = ChordPlane::build(24, seed);
    let plane: Plane = if social {
        let graph = SocialGraph::generate(&SocialGraphConfig::new(24, seed));
        let placement = SocialPlacement::new(graph, &ring.node_ids());
        Box::new(SocialPlane::new(ring, placement))
    } else {
        Box::new(ring)
    };
    let mut e = Engine::new(ReplicatedStore::new(plane, 3), seed);
    if config.caches {
        e.enable_feed_cache(4);
        e.enable_hot_cache(4);
    }
    e.set_batch_verify(config.batch_verify);
    e
}

#[derive(Debug, Clone)]
enum Step {
    /// One `execute` of these ops.
    Batch(Vec<Op>),
    /// One op through `Engine::register` and its siblings, or as a batch
    /// of one.
    Single(Op),
    Unfriend(&'static str, &'static str),
    Feed(&'static str, usize),
}

fn name() -> impl Strategy<Value = &'static str> {
    (0..NAMES.len()).prop_map(|i| NAMES[i])
}

/// Ops weighted out of 16: registers 1, befriends 5 (one in sixteen of
/// them with a trust outside `[0, 1]`), posts 4, comments 2, reads 4.
fn op() -> impl Strategy<Value = Op> {
    (0u8..16, name(), name(), 0..SEQS, 0u32..1000).prop_map(|(pick, a, b, seq, n)| match pick {
        0 => Op::Register { name: a.into() },
        1..=5 => Op::Befriend {
            a: a.into(),
            b: b.into(),
            trust: if n % 16 == 0 { 1.5 } else { 0.9 },
        },
        6..=9 => Op::Post {
            author: a.into(),
            body: format!("post {n}"),
        },
        10 | 11 => Op::Comment {
            commenter: a.into(),
            author: b.into(),
            seq,
            body: format!("comment {n}"),
        },
        _ => Op::ReadPost {
            reader: a.into(),
            author: b.into(),
            seq,
        },
    })
}

/// A batch of 1 to 6 ops or, one time in seven, of 7 to 39, whose reads
/// make one combined signature check span several signers and repeated
/// records.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let (short, long) = (vec(op(), 1..7), vec(op(), 7..40));
    (0u8..7, short, long).prop_map(|(pick, short, long)| if pick == 0 { long } else { short })
}

/// Steps weighted out of 20: batches 6, single ops 3, unfriends 5, feeds
/// 6. With four names, an unfriend hits a friendship most of the time once
/// the users are linked, and befriends and feeds over the same pairs follow
/// it, so a re-join and a re-read of a post from before it are common.
fn step() -> impl Strategy<Value = Step> {
    (0u8..20, ops(), op(), name(), name(), 1usize..5).prop_map(
        |(pick, ops, op, a, b, k)| match pick {
            0..=5 => Step::Batch(ops),
            6..=8 => Step::Single(op),
            9..=13 => Step::Unfriend(a, b),
            _ => Step::Feed(a, k),
        },
    )
}

/// Runs `op` through the single-op call of its kind.
fn single_op_call(e: &mut Engine<Plane>, op: Op) -> Outcome {
    use OpOutput::{Befriended, Commented, Posted, Read, Registered};
    match op {
        Op::Register { name } => e.register(&name).map(|()| Registered),
        Op::Befriend { a, b, trust } => e.befriend(&a, &b, trust).map(|()| Befriended),
        Op::Post { author, body } => e.post(&author, &body).map(|seq| Posted { seq }),
        Op::Comment {
            commenter,
            author,
            seq,
            body,
        } => e
            .comment(&commenter, &author, seq, &body)
            .map(|()| Commented),
        Op::ReadPost {
            reader,
            author,
            seq,
        } => e.read_post(&reader, &author, seq).map(|body| Read { body }),
    }
}

/// `read_feed`'s reads as one batch of `read_post`s through `execute`: the
/// latest `k` posts of each friend, the failed reads left out.
fn feed_as_one_batch(
    e: &mut Engine<Plane>,
    user: &str,
    k: usize,
) -> Result<Vec<FeedItem>, DosnError> {
    e.timeline(user)
        .ok_or(DosnError::UnknownUser(user.into()))?;
    let mut window = Vec::new();
    for friend in e.friends(user) {
        let len = e.timeline(&friend).map_or(0, |t| t.entries().len() as u64);
        window.extend((len.saturating_sub(k as u64)..len).map(|seq| (friend.clone(), seq)));
    }
    if window.is_empty() {
        return Ok(Vec::new());
    }
    let reads = window.iter().fold(OpBatch::new(), |b, (friend, seq)| {
        b.read_post(user, friend, *seq)
    });
    let results = e.execute(reads).results;
    let mut items = Vec::new();
    for ((friend, seq), result) in window.into_iter().zip(results) {
        if let Ok(OpOutput::Read { body }) = result {
            let author = UserId(friend);
            items.push(FeedItem { author, seq, body });
        }
    }
    Ok(items)
}

/// The feed cache's stats and its four `cache.*` counters.
fn cache_counts(e: &Engine<Plane>) -> (Option<FeedCacheStats>, [u64; 4]) {
    let counters = [
        names::CACHE_HITS,
        names::CACHE_MISSES,
        names::CACHE_INVALIDATIONS,
        names::CACHE_EVICTIONS,
    ];
    let stats = e.feed_cache().map(FeedCache::stats);
    (stats, counters.map(|name| e.obs().counter(name).get()))
}

/// Fails unless the engine gave the model's answer: `Ok` values equal,
/// errors of the same variant.
fn check<T: PartialEq + Debug>(
    config: Config,
    at: usize,
    what: &dyn Debug,
    want: &Result<T, DosnError>,
    got: &Result<T, DosnError>,
) -> Result<(), TestCaseError> {
    let agrees = match (want, got) {
        (Ok(w), Ok(g)) => w == g,
        (Err(w), Err(g)) => discriminant(w) == discriminant(g),
        _ => false,
    };
    if agrees {
        return Ok(());
    }
    Err(TestCaseError::fail(format!(
        "{config:?}, step {at}, {what:?}: oracle {want:?}, engine {got:?}"
    )))
}

/// The state every step leaves checked: every user's friends, the
/// comments on every post a comment op can name (missing ones included),
/// and the three counts the model predicts: a refused reader, a stranger
/// or an unknown name, is never a fail-closed read.
fn check_state(
    config: Config,
    at: usize,
    e: &Engine<Plane>,
    m: &Model,
) -> Result<(), TestCaseError> {
    let posts = || {
        NAMES
            .into_iter()
            .flat_map(|author| (0..SEQS).map(move |seq| (author, seq)))
    };
    let reads = e.obs().histogram(names::NET_READ_POST_QUORUM).snapshot();
    let counter = |name| e.obs().counter(name).get();
    let got = (
        NAMES.map(|user| e.friends(user)),
        posts()
            .map(|(a, seq)| e.comments(a, seq))
            .collect::<Vec<_>>(),
        (counter(names::ENGINE_OPS), reads.count()),
        counter(names::ENGINE_READ_FAIL_CLOSED),
    );
    let want = (
        NAMES.map(|user| m.friends(user).unwrap_or_default()),
        posts()
            .map(|(a, seq)| m.comments(a, seq).to_vec())
            .collect(),
        (m.ops, m.reads),
        m.fail_closed,
    );
    prop_assert_eq!(
        got,
        want,
        "{:?}, step {}: friends, comments, (engine.ops, reads), fail-closed reads",
        config,
        at
    );
    Ok(())
}

/// The symmetric scheme, except that its friends group never admits one
/// name. Ann registers with it, refusing dan: a befriend of ann by dan adds
/// ann to dan's group, is refused on ann's side and takes dan's add back,
/// so the oracle reaches befriend's rollback.
struct Picky {
    inner: SymmetricGroupScheme,
    refuses: &'static str,
}

impl AccessScheme for Picky {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn create_group(&mut self, members: &[String]) -> Result<GroupId, DosnError> {
        self.inner.create_group(members)
    }
    fn encrypt(&mut self, group: &GroupId, plaintext: &[u8]) -> Result<SealedPost, DosnError> {
        self.inner.encrypt(group, plaintext)
    }
    fn decrypt_as(&self, g: &GroupId, member: &str, p: &SealedPost) -> Result<Vec<u8>, DosnError> {
        self.inner.decrypt_as(g, member, p)
    }
    fn add_member(&mut self, group: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        if member == self.refuses {
            return Err(DosnError::NotAuthorized(format!(
                "this group admits no {member}"
            )));
        }
        self.inner.add_member(group, member)
    }
    fn revoke_member(&mut self, g: &GroupId, member: &str) -> Result<MembershipCost, DosnError> {
        self.inner.revoke_member(g, member)
    }
    fn members(&self, group: &GroupId) -> Vec<String> {
        self.inner.members(group)
    }
}

/// The picky user and the name their group refuses.
const PICKY: (&str, &str) = ("ann", "dan");

/// One case: ann registers with a [`Picky`] scheme, then every step runs on
/// the model and on the four engines, then the stored bytes are compared
/// across the engines. Returns the model, for its coverage counts.
fn run(seed: u64, social: bool, steps: &[Step]) -> Result<Model, TestCaseError> {
    let mut engines: Vec<(Config, Engine<Plane>)> = [false, true]
        .into_iter()
        .flat_map(|caches| {
            [false, true].map(|batch_verify| Config {
                caches,
                batch_verify,
            })
        })
        .map(|config| (config, engine(seed, social, config)))
        .collect();
    let mut model = Model::default();
    let (picky, refuses) = PICKY;
    model.register_picky(picky, refuses);
    for (_, e) in &mut engines {
        let inner = SymmetricGroupScheme::new([seed as u8; 32]);
        let scheme = Box::new(Picky { inner, refuses });
        prop_assert!(e.register_with_scheme(picky, scheme).is_ok());
    }
    for (at, step) in steps.iter().enumerate() {
        match step {
            Step::Batch(ops) => {
                let want = model.execute(ops);
                let mut digests = Vec::new();
                for (config, e) in &mut engines {
                    let report = e.execute(OpBatch::from_ops(ops.clone()));
                    prop_assert_eq!(report.results.len(), ops.len());
                    for (j, (op, got)) in ops.iter().zip(&report.results).enumerate() {
                        check(*config, at, &(j, op), &want[j], got)?;
                    }
                    digests.push(report.digest);
                }
                prop_assert!(
                    digests.iter().all(|d| *d == digests[0]),
                    "step {}: the four configurations' digests differ",
                    at
                );
            }
            Step::Single(op) => {
                let want = &model.execute(std::slice::from_ref(op))[0];
                for (i, (config, e)) in engines.iter_mut().enumerate() {
                    let got = if (i + at) % 2 == 0 {
                        single_op_call(e, op.clone())
                    } else {
                        let mut report = e.execute(OpBatch::from_ops(vec![op.clone()]));
                        report.results.remove(0)
                    };
                    check(*config, at, op, want, &got)?;
                }
            }
            Step::Unfriend(a, b) => {
                let want = model.unfriend(a, b);
                for (config, e) in &mut engines {
                    check(*config, at, step, &want, &e.unfriend(a, b))?;
                }
            }
            Step::Feed(user, k) => {
                let want = model.read_feed(user, *k);
                for (i, (config, e)) in engines.iter_mut().enumerate() {
                    let (path, got) = if (i + at) % 2 == 0 {
                        ("read_feed", e.read_feed(user, *k))
                    } else {
                        ("as one batch", feed_as_one_batch(e, user, *k))
                    };
                    check(*config, at, &(step, path), &want, &got)?;
                }
            }
        }
        for (config, e) in &engines {
            check_state(*config, at, e, &model)?;
        }
        // Engines 2 and 3 are the cached pair.
        prop_assert_eq!(
            cache_counts(&engines[2].1),
            cache_counts(&engines[3].1),
            "step {}: the cached engines' feed-cache counts",
            at
        );
    }
    let mut m = Metrics::new();
    let mut stored = engines.iter_mut().map(|(_, e)| {
        let records: Vec<_> = model
            .walls()
            .map(|(author, seq)| e.storage_mut().get(wall_key(author, seq), &mut m))
            .collect();
        (records, e.storage().accounting().total_bytes())
    });
    let first = stored.next().expect("four engines");
    for other in stored {
        prop_assert!(other == first, "the configurations stored different bytes");
    }
    Ok(model)
}

/// The property, over 24 cases of 25 to 80 steps. Besides passing, at
/// least a quarter of the cases must refuse a re-joined member a post from
/// before the re-join — the case the feed cache once got wrong — so the
/// step weights keep that sequence common; a re-joined member must be
/// refused a comment on such a post at least 7 times over the cases, the
/// case the roster-only comment rule allowed; and at least 15 befriends
/// must be taken back after ann's group refused dan.
#[test]
fn every_configuration_answers_as_the_oracle() {
    let case = (
        0u64..1_000_000,
        any::<bool>(),
        2usize..5,
        vec(step(), 24..80),
    );
    let config = ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    };
    let (mut rejoin_cases, mut rejoin_comments, mut rollbacks) = (0, 0, 0);
    proptest::run_cases(
        "every_configuration_answers_as_the_oracle",
        &config,
        |rng| {
            // Ann registers before step 0, which registers the next one to
            // three names; the rest register when a random op does.
            let (seed, social, registered, mut steps) = case.generate(rng);
            let names = NAMES[1..registered].iter().map(|name| Op::Register {
                name: (*name).into(),
            });
            steps.insert(0, Step::Batch(names.collect()));
            let model = run(seed, social, &steps)?;
            rejoin_cases += u32::from(model.rejoin_refusals > 0);
            rejoin_comments += model.rejoin_comment_refusals;
            rollbacks += model.rollbacks;
            Ok(())
        },
    );
    if std::env::var_os("PROPTEST_SEED").is_none() {
        assert!(
            rejoin_cases * 4 >= config.cases,
            "only {rejoin_cases} of {} cases re-read a post from before a re-join",
            config.cases
        );
        // 14 such refusals at these weights (4 with comments at 1 in 16).
        assert!(
            rejoin_comments >= 7,
            "only {rejoin_comments} comments on a post from before a re-join were refused"
        );
        // 30 at these weights.
        assert!(
            rollbacks >= 15,
            "only {rollbacks} befriends were taken back"
        );
    }
}
