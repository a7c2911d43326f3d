//! Experiment E7 (survey §V): search-privacy leakage and overhead.
//!
//! Runs the same interest query under each search mode and prints the
//! leakage matrix (which principals learned the searcher's identity, the
//! query content, and the owner) plus the message overhead. Expected shape:
//! every private mode strictly reduces the provider's knowledge relative to
//! the plain baseline, at increasing message/latency cost (the last column
//! times the same query); trust ranking is orthogonal and reported
//! separately.

use crate::{num, wall, Run};
use dosn_core::content::Profile;
use dosn_core::identity::UserId;
use dosn_core::network::WorkloadGraph;
use dosn_core::search::zk_access::AccessCredential;
use dosn_core::search::{
    rank_results, FriendCircleRouter, Knowledge, LeakageAudit, ProxyDirectory, ResourceRegistry,
    SearchIndex,
};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use std::collections::BTreeMap;
use std::hint::black_box;

/// One leakage-matrix row: runs `search` (which returns the mode's label
/// and its extra message count) under an audit, reports what `principal`
/// learned, then times the same query.
fn mode_row(
    run: &mut Run,
    principal: &str,
    mut search: impl FnMut(&mut LeakageAudit) -> (String, usize),
) {
    let mut audit = LeakageAudit::new();
    let (mode, extra_msgs) = search(&mut audit);
    let ns = run.time_ns(10, || {
        black_box(search(&mut LeakageAudit::new()));
    });
    let yes_no = |k| {
        if audit.knows(principal, k) {
            "yes"
        } else {
            "no"
        }
    };
    run.row(&[
        mode.into(),
        yes_no(Knowledge::SearcherIdentity).into(),
        yes_no(Knowledge::QueryContent).into(),
        audit.identity_exposure().into(),
        extra_msgs.into(),
        wall(ns, 0),
    ]);
}

fn leakage_table(run: &mut Run) {
    let (graph, _) = WorkloadGraph::small_world(512, 3, 0.1, 11);
    let mut index = SearchIndex::new();
    index.insert(Profile::new("user300", "Fan").with_interest("jazz"));
    let searcher = UserId::from("user0");

    run.table(
        "E7: provider knowledge by search mode (512-user small world)",
        "mode | provider knows searcher | provider knows query | \
         identity exposure (principals) | extra msgs | ns/query",
    );
    mode_row(run, "provider", |audit| {
        index.plain_search(&searcher, "jazz", audit);
        ("plain".into(), 0)
    });
    let mut proxy = ProxyDirectory::new([7u8; 32]);
    mode_row(run, "provider", |audit| {
        proxy.search(&searcher, "jazz", &index, audit);
        ("proxy alias".into(), 2) // searcher->proxy, proxy->provider
    });
    for depth in [1usize, 3, 5] {
        let mut router = FriendCircleRouter::new(depth, 13);
        mode_row(run, "provider", |audit| {
            let routed = router
                .search(&graph, 0, "jazz", &index, audit)
                .expect("connected");
            let anon = routed.anonymity_set;
            (
                format!("friends circle depth {depth} (anon set {anon})"),
                routed.chain.len() - 1,
            )
        });
    }
    let group = SchnorrGroup::toy();
    let mut rng = SecureRng::seed_from_u64(17);
    let mut registry = ResourceRegistry::new(group.clone());
    let cred = AccessCredential::generate(&group, &mut rng);
    registry.register("user300/card", b"contact", &cred);
    mode_row(run, "registry", |audit| {
        registry
            .fetch("user300/card", "nym-1", &cred, &mut rng, audit)
            .expect("authorized");
        ("zkp resource handler".into(), 2) // proof + response
    });
    println!(
        "\nnote: for the zkp row the provider column reads the registry principal;\n\
         'query content' there is the opaque handler, not the plaintext interest"
    );
}

fn trust_rank_table(run: &mut Run) {
    let (graph, trust) = WorkloadGraph::preferential_attachment(300, 2, 21);
    let searcher = 0;
    let candidates: Vec<u32> = (1..=20).map(|i| i * 13).collect();
    let popularity: BTreeMap<u32, u64> = candidates
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, (i as u64 * 7) % 50))
        .collect();
    run.table(
        "E7: trust-ranked search, top 5 of 20 candidates (trust weight 0.7)",
        "rank | vertex | score | trust | popularity",
    );
    let ranked = rank_results(&graph, &trust, searcher, &candidates, &popularity, 0.7, 5);
    for (i, r) in ranked.iter().take(5).enumerate() {
        run.row(&[
            (i + 1).into(),
            u64::from(r.user).into(),
            num(r.score, 3),
            num(r.trust, 3),
            num(r.popularity, 2),
        ]);
    }
    let ns = run.time_ns(10, || {
        black_box(rank_results(
            &graph,
            &trust,
            searcher,
            &candidates,
            &popularity,
            0.7,
            5,
        ));
    });
    run.table("E7: trust-ranking cost", "operation | ns/op");
    run.row(&["trust_rank_20".into(), wall(ns, 0)]);
}

pub(super) fn run(run: &mut Run) {
    leakage_table(run);
    trust_rank_table(run);
}
