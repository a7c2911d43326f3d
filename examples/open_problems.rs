//! Prototypes for the survey's §VI open problems and "other concerns".
//!
//! The paper closes with problems it says are "discovered but not fully
//! solved". This example drives the workspace's prototype for each:
//! resharing control (leak tracing), privacy-preserving advertising,
//! Sybil detection, and graph anonymization vs de-anonymization.
//!
//! Run with: `cargo run --release --example open_problems`

use dosn::core::anonymize::{anonymize, DeanonymizationAttack};
use dosn::core::content::Profile;
use dosn::core::network::{SocialGraphConfig, WorkloadGraph};
use dosn::core::privacy::resharing::ResharingTracer;
use dosn::core::search::{AdBroker, AdClient, Knowledge, LeakageAudit};
use dosn::core::sybil::{inject_sybil_region_csr, SybilDetector};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- §VI data resharing: who leaked the photo? ----
    println!("== data resharing (leak tracing) ==");
    let mut tracer = ResharingTracer::new([9u8; 32]);
    let original = b"[imagine a 2MB photo here]".to_vec();
    let copies = tracer.issue("beach-photo", &original, &["bob", "carol", "dave"]);
    // Carol reshares her copy publicly, stripping the explicit tag.
    let leaked = copies["carol"].content.clone();
    let culprit = tracer.trace_by_content("beach-photo", &original, &leaked)?;
    println!("leaked copy traced to: {culprit:?}");
    assert_eq!(culprit.as_deref(), Some("carol"));

    // ---- §VI privacy-preserving advertising ----
    println!("\n== privacy-preserving advertising (Adnostic/Privad model) ==");
    let mut broker = AdBroker::new();
    broker.register_ad(&["football"], "Stadium tickets");
    let chess_ad = broker.register_ad(&["chess"], "Grandmaster lessons");
    let mut alice = AdClient::new(
        Profile::new("alice", "Alice").with_interest("chess"),
        [4u8; 32],
    );
    let picked = alice.select_ads(broker.portfolio(), 1);
    println!("client-side selection picked: {:?}", picked[0].body);
    let mut audit = LeakageAudit::new();
    let token = alice.impression_token(picked[0]);
    broker.report_impression(&token, &mut audit);
    println!(
        "broker billed ad {} for {} impression(s); learned identity? {} — interests? {}",
        chess_ad,
        broker.impressions(chess_ad),
        audit.knows("broker", Knowledge::SearcherIdentity),
        audit.knows("broker", Knowledge::QueryContent),
    );

    // ---- §VI sybil attacks ----
    println!("\n== sybil detection (random-walk intersection) ==");
    let honest_graph = WorkloadGraph::generate(&SocialGraphConfig::new(200, 3));
    let (graph, sybils) = inject_sybil_region_csr(&honest_graph, 50, 3, 5);
    let detector = SybilDetector::default();
    let honest: Vec<u32> = (10..60).collect();
    let sybils: Vec<u32> = sybils.collect();
    let (ha, hr) = detector.sweep(&graph, 0, &honest);
    let (sa, sr) = detector.sweep(&graph, 0, &sybils);
    println!("honest suspects: {ha} accepted / {hr} rejected");
    println!("sybil suspects:  {sa} accepted / {sr} rejected");

    // ---- §VI anonymization and de-anonymization ----
    println!("\n== graph anonymization vs seed-based de-anonymization ==");
    let (social, _) = WorkloadGraph::preferential_attachment(150, 2, 8);
    for (label, k) in [("naive (k=1)", 1usize), ("4-degree-anonymous", 4)] {
        let published = anonymize(&social, k, 77);
        // Attacker knows the 5 biggest hubs.
        let mut hubs: Vec<u32> = (0..social.nodes() as u32).collect();
        hubs.sort_by_key(|&v| std::cmp::Reverse(social.degree(v)));
        let seeds: BTreeMap<u32, u64> = hubs
            .into_iter()
            .take(5)
            .map(|v| (v, published.ground_truth[&v]))
            .collect();
        let attack = DeanonymizationAttack {
            auxiliary: social.clone(),
            seeds,
        };
        let recovered = attack.run(&published);
        println!(
            "{label:<22} re-identified {:.0}% of non-seed users",
            attack.accuracy(&published, &recovered) * 100.0
        );
    }
    Ok(())
}
