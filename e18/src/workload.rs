//! Seeded workload generator: the social graph, the popularity ranking,
//! the set-up stream and the five measured op streams, together with the
//! model that knows the expected output of every op.
//!
//! Everything here is a pure function of `(workload, seed, scale)`; the
//! program under test receives only the generated ops. The friendship
//! graph is the same for every seed (`GRAPH_SEED`): it is the data set, and
//! the seed draws the requests against it — zipf draws, shuffles, reader
//! choices, join order and post bodies. With a graph per seed, which of a
//! hot reader's friends happened to be hot authors moved `mixed_social`'s
//! median call latency by 20 % from seed to seed on identical code.

use crate::stack::{FEED_DEPTH, GRAPH_SEED, USERS};
use crate::stats::{comment_body, post_body, shuffle, Zipf};
use dosn_core::engine::{shard_of, Op, OpBatch, NUM_SHARDS};
use dosn_core::network::{SocialGraphConfig, WorkloadGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Ops per `Engine::execute` batch in the measured phases.
pub const BATCH: usize = 32;
/// Batches per `Engine::execute_all` group (`mixed_social`).
pub const GROUP: usize = 4;
/// `read_feed` calls after every `execute_all` group (`mixed_social`).
///
/// About two in five of these calls find a friend's slice invalidated by
/// the group's posts and pay a refill (0.3-1.5 ms); the rest are served
/// from L1 in 40-100 us. ISSUE 11's 8 per group put the median call right
/// on that cliff — the 56th percentile of the feed calls, with the cliff at
/// the 45th to 50th — and `call_p50_us` jumped between the two regimes
/// from seed to seed. At 32 the median call is a warm feed read ten
/// percentile points clear of the cliff, `call_p90_us` is a refill, and
/// the engine's time splits about 2 : 1 between groups and feed reads.
pub const FEEDS_PER_GROUP: usize = 32;
/// Ops per set-up batch (set-up is not measured per call; larger batches
/// only shorten it).
const SETUP_BATCH: usize = 256;
/// Trust weight on every friendship edge.
const TRUST: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PostWrite,
    ReadScanCold,
    ReadTamperF1,
    FeedZipfWarm,
    MixedSocial,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::PostWrite,
        Kind::ReadScanCold,
        Kind::ReadTamperF1,
        Kind::FeedZipfWarm,
        Kind::MixedSocial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PostWrite => "post_write",
            Kind::ReadScanCold => "read_scan_cold",
            Kind::ReadTamperF1 => "read_tamper_f1",
            Kind::FeedZipfWarm => "feed_zipf_warm",
            Kind::MixedSocial => "mixed_social",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Posts per user written during set-up, at scale 1.
    fn prefill_posts(self) -> f64 {
        match self {
            Kind::PostWrite => 2.0,
            Kind::ReadScanCold | Kind::ReadTamperF1 => 30.0,
            Kind::FeedZipfWarm | Kind::MixedSocial => 4.0,
        }
    }

    /// Engine ops (or, for `feed_zipf_warm`, calls) in the measured phase
    /// at scale 1.
    pub fn base_count(self) -> usize {
        match self {
            Kind::PostWrite | Kind::MixedSocial => 40_000,
            Kind::ReadScanCold | Kind::ReadTamperF1 | Kind::FeedZipfWarm => 60_000,
        }
    }

    /// Whether the measured stream reads every prefilled envelope exactly
    /// once per pass.
    pub fn is_cold_scan(self) -> bool {
        matches!(self, Kind::ReadScanCold | Kind::ReadTamperF1)
    }
}

/// The output the generator expects from one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Registered,
    Befriended,
    Posted { author: u32, seq: u32 },
    Commented,
    Read { author: u32, seq: u32 },
}

/// One batch plus the expected output of each of its ops.
#[derive(Debug, Clone, Default)]
pub struct Planned {
    pub batch: OpBatch,
    pub expect: Vec<Expect>,
}

impl Planned {
    fn push(&mut self, op: Op, expect: Expect) {
        self.batch.push(op);
        self.expect.push(expect);
    }

    fn len(&self) -> usize {
        self.expect.len()
    }
}

/// One call into the engine (the unit the closed loop issues and times).
#[derive(Debug, Clone)]
pub enum Call {
    /// `Engine::execute(batch)`.
    Execute(Planned),
    /// `Engine::execute_all(batches)` — the pipelined path.
    ExecuteAll(Vec<Planned>),
    /// `Engine::read_feed(user, FEED_DEPTH)`.
    ReadFeed(u32),
    /// A cold-scan pass ended: every envelope has been read once. The
    /// harness empties both caches before the next pass (not a timed
    /// call).
    ColdPassEnd,
}

/// What the harness knows about the network: who is registered, who is
/// friends with whom, and the body of every post ever written.
pub struct Model {
    pub seed: u64,
    pub names: Vec<String>,
    pub registered: Vec<bool>,
    /// Engine-side friend lists, ascending by index (= ascending by name,
    /// the order `read_feed` returns friends in).
    pub friends: Vec<Vec<u32>>,
    /// Bodies of every post, by author then sequence number.
    pub walls: Vec<Vec<String>>,
}

impl Model {
    fn new(seed: u64) -> Self {
        Model {
            seed,
            names: (0..USERS).map(|i| format!("u{i:04}")).collect(),
            registered: vec![false; USERS],
            friends: vec![Vec::new(); USERS],
            walls: vec![Vec::new(); USERS],
        }
    }

    pub fn name(&self, user: u32) -> &str {
        &self.names[user as usize]
    }

    fn link(&mut self, a: u32, b: u32) {
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut self.friends[x as usize];
            if let Err(at) = list.binary_search(&y) {
                list.insert(at, y);
            }
        }
    }

    /// `(author, seq)` of every item `read_feed(user, FEED_DEPTH)` must
    /// return, in order.
    pub fn expected_feed(&self, user: u32) -> Vec<(u32, u32)> {
        let mut items = Vec::new();
        for &f in &self.friends[user as usize] {
            let len = self.walls[f as usize].len();
            for seq in len.saturating_sub(FEED_DEPTH)..len {
                items.push((f, seq as u32));
            }
        }
        items
    }

    fn register_op(&mut self, plan: &mut Planned, user: u32) {
        self.registered[user as usize] = true;
        plan.push(
            Op::Register {
                name: self.name(user).to_owned(),
            },
            Expect::Registered,
        );
    }

    fn befriend_op(&mut self, plan: &mut Planned, a: u32, b: u32) {
        self.link(a, b);
        plan.push(
            Op::Befriend {
                a: self.name(a).to_owned(),
                b: self.name(b).to_owned(),
                trust: TRUST,
            },
            Expect::Befriended,
        );
    }

    fn post_op(&mut self, plan: &mut Planned, author: u32) {
        let seq = self.walls[author as usize].len() as u32;
        let body = post_body(self.seed, author, seq);
        plan.push(
            Op::Post {
                author: self.name(author).to_owned(),
                body: body.clone(),
            },
            Expect::Posted { author, seq },
        );
        self.walls[author as usize].push(body);
    }

    fn read_op(&self, plan: &mut Planned, reader: u32, author: u32, seq: u32) {
        plan.push(
            Op::ReadPost {
                reader: self.name(reader).to_owned(),
                author: self.name(author).to_owned(),
                seq: u64::from(seq),
            },
            Expect::Read { author, seq },
        );
    }

    fn comment_op(&self, plan: &mut Planned, commenter: u32, author: u32, seq: u32, index: u64) {
        plan.push(
            Op::Comment {
                commenter: self.name(commenter).to_owned(),
                author: self.name(author).to_owned(),
                seq: u64::from(seq),
                body: comment_body(self.seed, index),
            },
            Expect::Commented,
        );
    }
}

/// The degree of the users that hold the hot popularity ranks.
const TYPICAL_DEGREE: usize = 6;

/// Popularity ranking: `ranked[r]` is the user drawn at zipf rank `r`.
///
/// Zipf(1.0) puts half of all draws on the first ~30 ranks, so which users
/// hold them decides the metrics. Two rules make that choice typical of
/// the graph instead of an accident of its vertex numbering:
///
/// * ranks go round-robin over the engine's state shards (rank `r + 1` lives
///   in the next shard in turn), so the hot authors spread evenly over the
///   shards the worker threads split between them;
/// * users are ranked by how far their degree is from `TYPICAL_DEGREE`,
///   the population median. The graph has about two hundred users of
///   exactly that degree, so the hot ranks — about three quarters of all
///   draws — are users with six friends, and the hubs and leaves of the
///   power-law graph sit in the tail. A `read_feed` call costs in
///   proportion to the reader's degree; ranking by raw vertex index would
///   make call latency depend on whether a hub happens to be vertex 0.
fn popularity_ranking(graph: &WorkloadGraph, names: &[String]) -> Vec<u32> {
    let n = names.len();
    let distance = |v: u32| graph.degree(v).abs_diff(TYPICAL_DEGREE);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (distance(v), v));
    let mut shards: Vec<VecDeque<u32>> = vec![VecDeque::new(); NUM_SHARDS];
    for &v in &order {
        shards[shard_of(&names[v as usize])].push_back(v);
    }
    // Ranks ascend by distance overall; among the users at the current
    // distance, the next rank goes to the next shard in turn that has one.
    let mut ranked = Vec::with_capacity(n);
    let mut shard = 0;
    for &next in &order {
        let wanted = distance(next);
        while shards[shard].front().is_none_or(|&v| distance(v) != wanted) {
            shard = (shard + 1) % NUM_SHARDS;
        }
        ranked.extend(shards[shard].pop_front());
        shard = (shard + 1) % NUM_SHARDS;
    }
    ranked
}

/// Set-up work still to be issued, in order.
enum SetupStep {
    Register(std::ops::Range<usize>),
    Befriend(std::ops::Range<usize>),
    PostRound(std::ops::Range<usize>),
    WarmFeed(u32),
}

pub struct Generator {
    pub kind: Kind,
    pub model: Model,
    pub graph: WorkloadGraph,
    rng: StdRng,
    zipf: Zipf,
    ranked: Vec<u32>,
    setup: VecDeque<SetupStep>,
    /// Users registered during set-up, ascending.
    founders: Vec<u32>,
    /// Graph edges `(a, b)`, `a < b`, both founders: befriended in set-up.
    founder_edges: Vec<(u32, u32)>,
    /// Users who join mid-run (`mixed_social`), in join order.
    joiners: VecDeque<u32>,
    /// Graph edges whose endpoints are both registered by now but that no
    /// befriend op has issued yet (`mixed_social`).
    ready_edges: VecDeque<(u32, u32)>,
    /// Cold scan: every prefilled envelope, shuffled, and the cursor.
    scan: Vec<(u32, u32)>,
    scan_at: usize,
    /// Measured calls issued so far.
    issued: u64,
    /// Feed calls still owed after the last `mixed_social` group.
    feeds_owed: usize,
    comment_index: u64,
}

impl Generator {
    /// `scale` multiplies every op count (prefill posts per user and the
    /// measured stream length); the graph, the user count and the system
    /// under test do not scale.
    pub fn new(kind: Kind, seed: u64, scale: f64) -> Self {
        let graph = WorkloadGraph::generate(&SocialGraphConfig::new(USERS, GRAPH_SEED));
        let model = Model::new(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE18_E18);
        let ranked = popularity_ranking(&graph, &model.names);

        let mut is_joiner = vec![false; USERS];
        let mut joiners: Vec<u32> = Vec::new();
        if kind == Kind::MixedSocial {
            // Every fifth rank joins mid-run: 400 of the 2,000, spread
            // over the whole popularity and degree range.
            for (rank, &v) in ranked.iter().enumerate() {
                if rank % 5 == 4 {
                    is_joiner[v as usize] = true;
                    joiners.push(v);
                }
            }
            shuffle(&mut joiners, &mut rng);
        }
        let founders: Vec<u32> = (0..USERS as u32)
            .filter(|&v| !is_joiner[v as usize])
            .collect();
        let mut founder_edges = Vec::new();
        for &a in &founders {
            for &b in graph.friends(a) {
                if a < b && !is_joiner[b as usize] {
                    founder_edges.push((a, b));
                }
            }
        }

        let rounds = (kind.prefill_posts() * scale).round().max(1.0) as usize;
        let chunks = |len: usize| {
            (0..len)
                .step_by(SETUP_BATCH)
                .map(move |start| start..(start + SETUP_BATCH).min(len))
        };
        let mut setup = VecDeque::new();
        setup.extend(chunks(founders.len()).map(SetupStep::Register));
        setup.extend(chunks(founder_edges.len()).map(SetupStep::Befriend));
        for _ in 0..rounds {
            setup.extend(chunks(founders.len()).map(SetupStep::PostRound));
        }
        if kind == Kind::FeedZipfWarm {
            setup.extend(founders.iter().map(|&v| SetupStep::WarmFeed(v)));
        }

        let mut scan = Vec::new();
        if kind.is_cold_scan() {
            for &a in &founders {
                for seq in 0..rounds as u32 {
                    scan.push((a, seq));
                }
            }
            shuffle(&mut scan, &mut rng);
        }

        Generator {
            kind,
            model,
            graph,
            rng,
            zipf: Zipf::new(USERS),
            ranked,
            setup,
            founders,
            founder_edges,
            joiners: joiners.into(),
            ready_edges: VecDeque::new(),
            scan,
            scan_at: 0,
            issued: 0,
            feeds_owed: 0,
            comment_index: 0,
        }
    }

    /// The next set-up call, `None` once the network is ready.
    pub fn next_setup(&mut self) -> Option<Call> {
        let step = self.setup.pop_front()?;
        let mut plan = Planned::default();
        match step {
            SetupStep::Register(range) => {
                for i in range {
                    let v = self.founders[i];
                    self.model.register_op(&mut plan, v);
                }
            }
            SetupStep::Befriend(range) => {
                for i in range {
                    let (a, b) = self.founder_edges[i];
                    self.model.befriend_op(&mut plan, a, b);
                }
            }
            SetupStep::PostRound(range) => {
                for i in range {
                    let v = self.founders[i];
                    self.model.post_op(&mut plan, v);
                }
            }
            SetupStep::WarmFeed(v) => return Some(Call::ReadFeed(v)),
        }
        Some(Call::Execute(plan))
    }

    /// The next measured call. The stream is endless; the runner stops it
    /// by deadline or by count.
    pub fn next_call(&mut self) -> Call {
        let call = match self.kind {
            Kind::PostWrite => Call::Execute(self.write_batch(BATCH)),
            Kind::ReadScanCold | Kind::ReadTamperF1 => self.scan_batch(),
            Kind::FeedZipfWarm => {
                // Every 20th call is a write: it moves chain heads, so the
                // readers of those authors pay an L1 invalidation and a
                // refill on their next feed read.
                if self.issued % 20 == 19 {
                    let mut plan = Planned::default();
                    for _ in 0..8 {
                        let author = self.zipf_user(|_, _| true);
                        self.model.post_op(&mut plan, author);
                    }
                    Call::Execute(plan)
                } else {
                    Call::ReadFeed(self.zipf_user(|_, _| true))
                }
            }
            Kind::MixedSocial => {
                if self.feeds_owed > 0 {
                    self.feeds_owed -= 1;
                    Call::ReadFeed(self.zipf_user(|_, _| true))
                } else {
                    self.feeds_owed = FEEDS_PER_GROUP;
                    Call::ExecuteAll((0..GROUP).map(|_| self.mixed_batch()).collect())
                }
            }
        };
        if !matches!(call, Call::ColdPassEnd) {
            self.issued += 1;
        }
        call
    }

    /// A registered user drawn by zipf rank, redrawn until `accept(model,
    /// user)` holds; falls back to the best-ranked acceptable user.
    fn zipf_user(&mut self, accept: impl Fn(&Model, u32) -> bool) -> u32 {
        for _ in 0..64 {
            let v = self.ranked[self.zipf.sample(&mut self.rng)];
            if self.model.registered[v as usize] && accept(&self.model, v) {
                return v;
            }
        }
        *self
            .ranked
            .iter()
            .find(|&&v| self.model.registered[v as usize] && accept(&self.model, v))
            .expect("some registered user is acceptable")
    }

    fn random_friend(&mut self, user: u32) -> u32 {
        let list = &self.model.friends[user as usize];
        list[self.rng.random_range(0..list.len())]
    }

    fn has_readable_wall(model: &Model, v: u32) -> bool {
        !model.walls[v as usize].is_empty() && !model.friends[v as usize].is_empty()
    }

    fn push_comment(&mut self, plan: &mut Planned) {
        let author = self.zipf_user(Self::has_readable_wall);
        let commenter = self.random_friend(author);
        let seq = self
            .rng
            .random_range(0..self.model.walls[author as usize].len()) as u32;
        self.comment_index += 1;
        self.model
            .comment_op(plan, commenter, author, seq, self.comment_index);
    }

    /// `post_write`: 85 % posts by zipf authors, 15 % comments on existing
    /// posts.
    fn write_batch(&mut self, ops: usize) -> Planned {
        let mut plan = Planned::default();
        while plan.len() < ops {
            if self.rng.random_range(0u32..100) < 85 {
                let author = self.zipf_user(|_, _| true);
                self.model.post_op(&mut plan, author);
            } else {
                self.push_comment(&mut plan);
            }
        }
        plan
    }

    /// Cold scan: the next 32 envelopes of the shuffled list, each read by
    /// a random friend of its author; `ColdPassEnd` when the list wraps.
    fn scan_batch(&mut self) -> Call {
        if self.scan_at == self.scan.len() {
            self.scan_at = 0;
            return Call::ColdPassEnd;
        }
        let mut plan = Planned::default();
        while plan.len() < BATCH && self.scan_at < self.scan.len() {
            let (author, seq) = self.scan[self.scan_at];
            self.scan_at += 1;
            let reader = self.random_friend(author);
            self.model.read_op(&mut plan, reader, author, seq);
        }
        Call::Execute(plan)
    }

    /// `mixed_social`: 58 % `read_post`, 25 % `post`, 10 % `comment`, 6 %
    /// `befriend`, 1 % `register`. A befriend or register slot with
    /// nothing to issue becomes a read.
    fn mixed_batch(&mut self) -> Planned {
        let mut plan = Planned::default();
        while plan.len() < BATCH {
            let roll = self.rng.random_range(0u32..100);
            if roll < 25 {
                let author = self.zipf_user(|_, _| true);
                self.model.post_op(&mut plan, author);
            } else if roll < 35 {
                self.push_comment(&mut plan);
            } else if roll < 41 && !self.ready_edges.is_empty() {
                let (a, b) = self.ready_edges.pop_front().expect("checked non-empty");
                self.model.befriend_op(&mut plan, a, b);
            } else if roll == 41 && !self.joiners.is_empty() {
                let v = self.joiners.pop_front().expect("checked non-empty");
                self.model.register_op(&mut plan, v);
                for &f in self.graph.friends(v) {
                    if self.model.registered[f as usize] {
                        self.ready_edges.push_back((v, f));
                    }
                }
            } else {
                let author = self.zipf_user(Self::has_readable_wall);
                let reader = self.random_friend(author);
                // Recency bias: the newest post is the likeliest, each
                // older one half as likely as the one after it.
                let len = self.model.walls[author as usize].len();
                let back = (self.rng.random::<u64>() | 1 << 63).trailing_zeros() as usize;
                let seq = (len - 1 - back.min(len - 1)) as u32;
                self.model.read_op(&mut plan, reader, author, seq);
            }
        }
        plan
    }

    /// Envelopes in one cold-scan pass (0 for the other workloads).
    #[cfg(test)]
    pub fn scan_len(&self) -> usize {
        self.scan.len()
    }
}

/// SHA-256 over the first `calls` measured calls of a workload — the
/// identity of an op stream.
#[cfg(test)]
pub fn stream_hash(kind: Kind, seed: u64, scale: f64, calls: usize) -> String {
    let mut gen = Generator::new(kind, seed, scale);
    while gen.next_setup().is_some() {}
    let mut hasher = dosn_crypto::sha256::Sha256::new();
    for _ in 0..calls {
        hasher.update(format!("{:?}", gen.next_call()).as_bytes());
    }
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        for kind in Kind::ALL {
            let a = stream_hash(kind, 7, 0.02, 40);
            assert_eq!(a, stream_hash(kind, 7, 0.02, 40), "{}", kind.name());
            assert_ne!(a, stream_hash(kind, 8, 0.02, 40), "{}", kind.name());
        }
    }

    #[test]
    fn ranking_is_a_permutation_spread_over_shards() {
        let gen = Generator::new(Kind::PostWrite, 3, 0.02);
        let mut seen = gen.ranked.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..USERS as u32).collect::<Vec<_>>());
        let first: std::collections::BTreeSet<usize> = gen.ranked[..NUM_SHARDS]
            .iter()
            .map(|&v| shard_of(gen.model.name(v)))
            .collect();
        assert!(first.len() >= NUM_SHARDS - 2, "{} shards", first.len());
    }

    #[test]
    fn hot_ranks_are_users_of_the_typical_degree() {
        // Ranks 0..150 carry 70 % of the zipf mass.
        let gen = Generator::new(Kind::FeedZipfWarm, 1, 0.02);
        for &v in &gen.ranked[..150] {
            assert_eq!(gen.graph.degree(v), TYPICAL_DEGREE);
        }
    }

    #[test]
    fn every_seed_draws_on_the_same_graph() {
        let (a, b) = (
            Generator::new(Kind::MixedSocial, 1, 0.02),
            Generator::new(Kind::MixedSocial, 2, 0.02),
        );
        assert_eq!(a.ranked, b.ranked);
        assert_eq!(a.founder_edges, b.founder_edges);
        assert_ne!(a.joiners, b.joiners, "join order is drawn from the seed");
    }

    #[test]
    fn cold_scan_reads_every_envelope_once_per_pass() {
        let mut gen = Generator::new(Kind::ReadScanCold, 5, 0.1);
        while gen.next_setup().is_some() {}
        let mut seen = std::collections::BTreeSet::new();
        loop {
            match gen.next_call() {
                Call::Execute(plan) => {
                    for e in plan.expect {
                        let Expect::Read { author, seq } = e else {
                            panic!("cold scan issues reads only")
                        };
                        assert!(seen.insert((author, seq)), "envelope read twice in a pass");
                    }
                }
                Call::ColdPassEnd => break,
                other => panic!("unexpected call {other:?}"),
            }
        }
        assert_eq!(seen.len(), gen.scan_len());
        assert_eq!(seen.len(), USERS * 3);
    }
}
