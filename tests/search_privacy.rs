//! Integration tests for the §V search layer: the leakage lattice across
//! modes, collusion effects, and trust ranking over generated social graphs.

use dosn::core::content::Profile;
use dosn::core::identity::UserId;
use dosn::core::network::WorkloadGraph;
use dosn::core::search::zk_access::AccessCredential;
use dosn::core::search::{
    rank_results, FriendCircleRouter, Knowledge, LeakageAudit, ProxyDirectory, ResourceRegistry,
    SearchIndex,
};
use dosn::crypto::chacha::SecureRng;
use dosn::crypto::group::SchnorrGroup;
use std::collections::BTreeMap;

/// The graph, an index over its users, and the searcher: vertex 0, whose
/// profile name is `user0`.
fn fixture() -> (WorkloadGraph, SearchIndex, UserId) {
    let (graph, _) = WorkloadGraph::small_world(120, 3, 0.15, 31);
    let mut index = SearchIndex::new();
    index.insert(Profile::new("user100", "Target").with_interest("chess"));
    index.insert(Profile::new("user50", "Other").with_interest("chess"));
    (graph, index, UserId::from("user0"))
}

/// The §V ordering: every privacy mechanism leaks strictly less identity
/// information to the provider than the plain baseline.
#[test]
fn privacy_modes_dominate_baseline() {
    let (graph, index, searcher) = fixture();

    let mut plain = LeakageAudit::new();
    index.plain_search(&searcher, "chess", &mut plain);

    let mut proxied = LeakageAudit::new();
    ProxyDirectory::new([1; 32]).search(&searcher, "chess", &index, &mut proxied);

    let mut circled = LeakageAudit::new();
    FriendCircleRouter::new(3, 2)
        .search(&graph, 0, "chess", &index, &mut circled)
        .unwrap();

    assert!(plain.knows("provider", Knowledge::SearcherIdentity));
    assert!(!proxied.knows("provider", Knowledge::SearcherIdentity));
    assert!(!circled.knows("provider", Knowledge::SearcherIdentity));
}

/// All modes return the same result set — privacy must not change recall.
#[test]
fn recall_is_mode_independent() {
    let (graph, index, searcher) = fixture();
    let mut a1 = LeakageAudit::new();
    let plain = index.plain_search(&searcher, "chess", &mut a1);
    let mut a2 = LeakageAudit::new();
    let proxied = ProxyDirectory::new([2; 32]).search(&searcher, "chess", &index, &mut a2);
    let mut a3 = LeakageAudit::new();
    let routed = FriendCircleRouter::new(2, 3)
        .search(&graph, 0, "chess", &index, &mut a3)
        .unwrap();
    assert_eq!(plain, proxied);
    assert_eq!(plain, routed.results);
    assert_eq!(plain.len(), 2);
}

#[test]
fn proxy_collusion_restores_baseline_knowledge() {
    let (_, index, searcher) = fixture();
    let mut audit = LeakageAudit::new();
    ProxyDirectory::new([3; 32]).search(&searcher, "chess", &index, &mut audit);
    let pooled = audit.collude(&["proxy", "provider"]);
    assert!(pooled.contains(&Knowledge::SearcherIdentity));
    assert!(pooled.contains(&Knowledge::QueryContent));
}

#[test]
fn deeper_circles_cost_more_but_expose_less_precisely() {
    let (graph, index, _) = fixture();
    let mut shallow_hops = 0usize;
    let mut deep_hops = 0usize;
    let mut shallow_anon = 0usize;
    let mut deep_anon = 0usize;
    for seed in 0..8 {
        if let Some(r) = FriendCircleRouter::new(1, seed).search(
            &graph,
            0,
            "chess",
            &index,
            &mut LeakageAudit::new(),
        ) {
            shallow_hops += r.chain.len() - 1;
            shallow_anon += r.anonymity_set;
        }
        if let Some(r) = FriendCircleRouter::new(5, seed).search(
            &graph,
            0,
            "chess",
            &index,
            &mut LeakageAudit::new(),
        ) {
            deep_hops += r.chain.len() - 1;
            deep_anon += r.anonymity_set;
        }
    }
    assert!(deep_hops > shallow_hops, "depth costs messages");
    assert!(deep_anon > shallow_anon, "depth buys anonymity");
}

#[test]
fn zk_registry_full_flow_with_owner_privacy() {
    let group = SchnorrGroup::toy();
    let mut rng = SecureRng::seed_from_u64(7);
    let mut registry = ResourceRegistry::new(group.clone());
    let family_cred = AccessCredential::generate(&group, &mut rng);
    let work_cred = AccessCredential::generate(&group, &mut rng);
    registry.register("alice/birthday", b"26 October 1990", &family_cred);
    registry.register("alice/salary", b"classified", &work_cred);

    // Family credential opens the birthday but not the salary.
    let mut audit = LeakageAudit::new();
    assert!(registry
        .fetch("alice/birthday", "nym", &family_cred, &mut rng, &mut audit)
        .is_ok());
    assert!(registry
        .fetch("alice/salary", "nym", &family_cred, &mut rng, &mut audit)
        .is_err());
    // No principal ever learns a real identity.
    assert_eq!(audit.identity_exposure(), 0);
    // Handlers are public, contents are not.
    assert_eq!(registry.handlers().len(), 2);
}

#[test]
fn trust_ranking_over_generated_graphs_is_stable_and_sensible() {
    let (graph, trust) = WorkloadGraph::preferential_attachment(200, 2, 17);
    let candidates: Vec<u32> = (1..=10).map(|i| i * 19).collect();
    let popularity: BTreeMap<u32, u64> = candidates.iter().map(|&c| (c, 10)).collect();

    let r1 = rank_results(&graph, &trust, 0, &candidates, &popularity, 0.9, 5);
    let r2 = rank_results(&graph, &trust, 0, &candidates, &popularity, 0.9, 5);
    assert_eq!(r1, r2, "ranking is deterministic");
    // Scores are sorted descending.
    for pair in r1.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
    // Reachable candidates outrank unreachable ones at full trust weight.
    let reachable: Vec<bool> = r1.iter().map(|r| !r.chain.is_empty()).collect();
    if let (Some(first_unreachable), Some(last_reachable)) = (
        reachable.iter().position(|&b| !b),
        reachable.iter().rposition(|&b| b),
    ) {
        assert!(
            first_unreachable > last_reachable
                || r1[first_unreachable].score >= r1[last_reachable].score
                || r1[last_reachable].trust > 0.0,
            "unreachable candidates must not outrank reachable ones"
        );
    }
}
