//! The four E17 attack scenarios, small enough to watch (survey §III–§VI
//! threats, end to end). Each run composes the same pieces the full bench
//! uses — an `AdversaryPlane` under a `ReplicatedStore` (and, for the
//! flash crowd, the full engine with its cache hierarchy) — and prints the
//! fields of the outcome it returns.
//!
//! Run with: `cargo run --release --example adversary_scenarios`

use dosn::core::scenario::ScenarioConfig;
use dosn::core::scenario::{dishonest_quorum, flash_crowd, pod_compromise, sybil_campaign};

const SEED: u64 = 0xE17;

fn main() {
    let cfg = ScenarioConfig::new(SEED).fast();

    // 1. Viral flash crowd: one author, a stampede of followers.
    let flash = flash_crowd::run(&cfg);
    println!("== viral flash crowd ==");
    println!(
        "   celebrity vertex {} of {} nodes; {} readers x {} posts: {} feed reads, availability {:.3}",
        flash.celebrity_vertex,
        flash.nodes,
        flash.readers,
        flash.posts,
        flash.feed_reads,
        flash.availability
    );
    println!(
        "   cache hits {}, misses {}; warm read_feed p50 {} us, p95 {} us (wall clock)\n",
        flash.cache_hits, flash.cache_misses, flash.warm_p50_us, flash.warm_p95_us
    );

    // 2. Sybil campaign: detection vs the attack-edge budget.
    let sybil = sybil_campaign::run(&cfg);
    println!(
        "== sybil campaign: {} sybils grafted onto {} nodes, {} honest controls ==",
        sybil.sybils, sybil.nodes, sybil.honest_controls
    );
    for p in &sybil.points {
        println!(
            "   budget {:>3} edges: recall {:.3}, precision {:.3}, honest accepted {}/{}",
            p.attack_edges,
            p.recall,
            p.precision,
            p.honest_accepted,
            p.honest_accepted + p.honest_rejected
        );
    }
    println!(
        "   detection rate {:.3}, honest accept rate {:.3} at the tightest budget\n",
        sybil.detection_rate, sybil.honest_accept_rate
    );

    // 3. Dishonest quorum: f of R=3 holders forge or withhold.
    let quorum = dishonest_quorum::run(&cfg);
    println!("== dishonest quorum: {} keys, R=3 ==", quorum.keys);
    for p in &quorum.points {
        println!(
            "   f={} {:<9} correct {:>3}  wrong {:>2}  fail-closed {:>3}  unavailable {:>3}",
            p.f,
            p.mode.label(),
            p.correct,
            p.wrong,
            p.fail_closed,
            p.unavailable
        );
    }
    println!(
        "   fail-closed rate {:.3}, availability at f=1 {:.3}\n",
        quorum.fail_closed_rate, quorum.availability_f1
    );

    // 4. Pod compromise: a federation server goes rogue, then dark.
    let pod = pod_compromise::run(&cfg);
    println!("== pod compromise ==");
    println!(
        "   pod {} observed {}/{} keys ({} owners exposed); tamper availability {:.3}; offline availability {:.3}",
        pod.compromised_pod,
        pod.keys_observed,
        pod.keys_total,
        pod.owners_exposed,
        pod.tamper_availability(),
        pod.offline_availability()
    );
    println!(
        "   adversary served {} forged, {} withheld, {} forked copies",
        pod.adversary_tampered, pod.adversary_withheld, pod.adversary_equivocated
    );

    // The zero-tolerance invariants the bench gates, asserted here too.
    assert_eq!(quorum.points.iter().map(|p| p.wrong).sum::<u64>(), 0);
    assert_eq!(pod.tamper_wrong, 0);
}
