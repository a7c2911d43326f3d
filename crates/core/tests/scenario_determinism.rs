//! E17 acceptance: every attack scenario is **deterministic** — the same
//! seed must produce an equal outcome. The flash crowd's two wall-clock
//! latency fields are the only ones left out of the comparison. A
//! different seed must still produce a *valid* run (the invariant
//! headlines hold regardless).

use dosn_core::scenario::{dishonest_quorum, flash_crowd, pod_compromise, sybil_campaign};
use dosn_core::scenario::{FlashCrowdOutcome, ScenarioConfig};

/// The flash crowd's outcome without its wall-clock fields.
fn flash_deterministic(cfg: &ScenarioConfig) -> FlashCrowdOutcome {
    FlashCrowdOutcome {
        warm_p50_us: 0,
        warm_p95_us: 0,
        ..flash_crowd::run(cfg)
    }
}

#[test]
fn flash_crowd_outcomes_are_equal_per_seed() {
    let cfg = ScenarioConfig::new(0xE17).fast();
    assert_eq!(flash_deterministic(&cfg), flash_deterministic(&cfg));
}

#[test]
fn sybil_campaign_outcomes_are_equal_per_seed() {
    let cfg = ScenarioConfig::new(0xE17).fast();
    assert_eq!(sybil_campaign::run(&cfg), sybil_campaign::run(&cfg));
}

#[test]
fn dishonest_quorum_outcomes_are_equal_per_seed() {
    let cfg = ScenarioConfig::new(0xE17).fast();
    assert_eq!(dishonest_quorum::run(&cfg), dishonest_quorum::run(&cfg));
}

#[test]
fn pod_compromise_outcomes_are_equal_per_seed() {
    let cfg = ScenarioConfig::new(0xE17).fast();
    assert_eq!(pod_compromise::run(&cfg), pod_compromise::run(&cfg));
}

#[test]
fn invariants_hold_under_a_different_seed() {
    let cfg = ScenarioConfig::new(0xFACE0FF).fast();
    let quorum = dishonest_quorum::run(&cfg);
    assert_eq!(
        quorum.points.iter().map(|p| p.wrong).sum::<u64>(),
        0,
        "tampered bytes were accepted"
    );
    assert!((quorum.fail_closed_rate - 1.0).abs() < f64::EPSILON);
    assert!((quorum.availability_f1 - 1.0).abs() < f64::EPSILON);

    let pod = pod_compromise::run(&cfg);
    assert_eq!(pod.tamper_wrong, 0);
    assert!((pod.tamper_availability() - 1.0).abs() < f64::EPSILON);
    assert!((pod.offline_availability() - 1.0).abs() < f64::EPSILON);

    // And a different seed genuinely changes what a scenario observes
    // (different graph → different celebrity, crowd, and cache traffic).
    let flash = flash_deterministic(&cfg);
    let base = flash_deterministic(&ScenarioConfig::new(0xE17).fast());
    assert_ne!(base, flash);
}
