//! Secure social search, four ways (survey §V).
//!
//! Runs the same interest query under each §V privacy mechanism and prints
//! the leakage matrix — who learned the searcher's identity, the query, and
//! the owner — plus the trust-ranked result ordering of §V-D.
//!
//! Run with: `cargo run --example secure_search`

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

fn report(mode: &str, audit: &LeakageAudit) {
    println!("\n== {mode} ==");
    for k in [
        Knowledge::SearcherIdentity,
        Knowledge::SearcherPseudonym,
        Knowledge::QueryContent,
        Knowledge::OwnerIdentity,
    ] {
        let who = audit.principals_knowing(k);
        println!("  {:<20} known by: {:?}", k.label(), who);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small-world social graph with its trust array, and an interest
    // index whose profiles are named after the vertices (`user42` is 42).
    let (graph, trust) = WorkloadGraph::small_world(80, 3, 0.1, 9);
    let mut index = SearchIndex::new();
    index.insert(Profile::new("user42", "The Jazz Fan").with_interest("jazz"));
    index.insert(Profile::new("user17", "Another Fan").with_interest("jazz"));
    let searcher = UserId::from("user0");

    // ---- baseline: plain centralized search ----
    let mut audit = LeakageAudit::new();
    let results = index.plain_search(&searcher, "jazz", &mut audit);
    println!("plain search found {} users", results.len());
    report("plain (centralized baseline)", &audit);
    assert!(audit.knows("provider", Knowledge::SearcherIdentity));

    // ---- proxy aliases (§V-B) ----
    let mut audit = LeakageAudit::new();
    let mut proxy = ProxyDirectory::new([7u8; 32]);
    proxy.search(&searcher, "jazz", &index, &mut audit);
    report("proxy alias", &audit);
    assert!(!audit.knows("provider", Knowledge::SearcherIdentity));
    let colluded = audit.collude(&["proxy", "provider"]);
    println!(
        "  ...but proxy+provider collusion yields identity: {}",
        colluded.contains(&Knowledge::SearcherIdentity)
    );

    // ---- trusted friends circle (§V-B, Safebook) ----
    let mut audit = LeakageAudit::new();
    let mut router = FriendCircleRouter::new(3, 5);
    let routed = router
        .search(&graph, 0, "jazz", &index, &mut audit)
        .expect("user0 has friends");
    report("friends-circle routing", &audit);
    println!(
        "  chain {:?}, provider faces anonymity set of {} users",
        routed.chain.len(),
        routed.anonymity_set
    );

    // ---- ZKP + pseudonyms + resource handlers (§V-B/C) ----
    let group = SchnorrGroup::toy();
    let mut rng = SecureRng::seed_from_u64(3);
    let mut registry = ResourceRegistry::new(group.clone());
    let credential = AccessCredential::generate(&group, &mut rng);
    registry.register("user42/contact-card", b"jazz-fan@dosn.example", &credential);
    let mut audit = LeakageAudit::new();
    let card = registry.fetch(
        "user42/contact-card",
        "nym-0xa1",
        &credential,
        &mut rng,
        &mut audit,
    )?;
    println!(
        "\nZK fetch of {:?} returned {} bytes",
        "user42/contact-card",
        card.len()
    );
    report("ZKP resource handler", &audit);
    assert_eq!(audit.identity_exposure(), 0);

    // ---- trust-ranked results (§V-D) ----
    let popularity = BTreeMap::from([(42, 3), (17, 90)]);
    let ranked = rank_results(&graph, &trust, 0, &[42, 17], &popularity, 0.7, 4);
    println!("\ntrust-ranked results (trust_weight = 0.7):");
    for r in &ranked {
        println!(
            "  user{:<4} score {:.3} (trust {:.3} via {} hops, popularity {:.2})",
            r.user,
            r.score,
            r.trust,
            r.chain.len().saturating_sub(1),
            r.popularity
        );
    }
    Ok(())
}
