//! E17: the four end-to-end attack scenarios over the unified
//! `AdversaryPlane` (survey §III–§VI threats, composed end to end;
//! `BENCH_10.json`; the seven headlines are explained in EXPERIMENTS.md
//! § E17).
//!
//! Runs each scenario from `dosn_core::scenario` — viral flash crowd, sybil
//! campaign, dishonest quorum, pod compromise — after checking that an
//! engine over a *disabled* `AdversaryPlane` produces byte-identical batch
//! digests to one over the bare plane (the wrapper is a pure forwarder
//! until armed).

use super::{digests_agree, user};
use crate::{num, wall, Run};
use dosn_core::engine::{Engine, OpBatch};
use dosn_core::network::{AdversaryConfig, AdversaryPlane, ChordPlane, ReplicatedStore};
use dosn_core::scenario::{
    dishonest_quorum, flash_crowd, pod_compromise, sybil_campaign, ScenarioConfig,
};

const SEED: u64 = 0xE17;

/// The zero-tolerance no-op gate: a disabled adversary in the storage
/// stack must not change a single batch digest.
fn noop_digest_identity(users: usize) -> bool {
    let mut bare = Engine::new(ReplicatedStore::new(ChordPlane::build(64, SEED), 3), SEED);
    let wrapped_plane =
        AdversaryPlane::new(ChordPlane::build(64, SEED), AdversaryConfig::new(SEED, 2));
    let mut wrapped = Engine::new(ReplicatedStore::new(wrapped_plane, 3), SEED);

    digests_agree(&mut bare, &mut wrapped, users, |round| {
        let mut batch = OpBatch::new();
        for i in 0..users {
            batch = batch.post(&user(i), &format!("round {round} user{i}"));
        }
        for i in 0..users {
            batch = batch.read_post(&user((i + 1) % users), &user(i), round);
        }
        vec![batch]
    })
}

pub(super) fn run(run: &mut Run) {
    let cfg = run.pick(ScenarioConfig::new(SEED), ScenarioConfig::new(SEED).fast());

    // ---- correctness headline first: the no-op gate ----
    let identical = noop_digest_identity(run.pick(24, 12));
    run.table(
        "E17: no-op gate (bare plane vs disabled AdversaryPlane)",
        "batch digests",
    );
    run.row(&[if identical { "MATCH" } else { "DIVERGE" }.into()]);

    // ---- scenario 1: viral flash crowd ----
    let flash = flash_crowd::run(&cfg);
    run.table(
        "E17: viral flash crowd",
        "readers | posts | nodes | availability | warm p50 (µs) | warm p95 (µs) | \
         cache hits | cache misses",
    );
    run.row(&[
        flash.readers.into(),
        flash.posts.into(),
        flash.nodes.into(),
        num(flash.availability, 3),
        wall(flash.warm_p50_us as f64, 0),
        wall(flash.warm_p95_us as f64, 0),
        flash.cache_hits.into(),
        flash.cache_misses.into(),
    ]);

    // ---- scenario 2: sybil campaign ----
    let sybil = sybil_campaign::run(&cfg);
    run.table(
        &format!(
            "E17: sybil campaign ({} sybils grafted onto {} nodes; honest accept rate {:.3})",
            sybil.sybils, sybil.nodes, sybil.honest_accept_rate
        ),
        "attack edges | recall | precision",
    );
    for p in &sybil.points {
        run.row(&[p.attack_edges.into(), num(p.recall, 3), num(p.precision, 3)]);
    }

    // ---- scenario 3: dishonest quorum ----
    let quorum = dishonest_quorum::run(&cfg);
    run.table(
        &format!("E17: dishonest quorum ({} keys, R=3)", quorum.keys),
        "f | mode | correct | wrong | fail-closed | unavailable",
    );
    for p in &quorum.points {
        run.row(&[
            p.f.into(),
            p.mode.label().into(),
            p.correct.into(),
            p.wrong.into(),
            p.fail_closed.into(),
            p.unavailable.into(),
        ]);
    }

    // ---- scenario 4: pod compromise ----
    let pod = pod_compromise::run(&cfg);
    run.table(
        "E17: pod compromise",
        "pod | keys observed | keys total | owners exposed | tamper availability | \
         offline availability",
    );
    run.row(&[
        pod.compromised_pod.into(),
        pod.keys_observed.into(),
        pod.keys_total.into(),
        pod.owners_exposed.into(),
        num(pod.tamper_availability(), 3),
        num(pod.offline_availability(), 3),
    ]);

    // The scenarios' own deterministic registries, folded into this run's.
    for scenario_report in [
        flash.report(),
        sybil.report(),
        quorum.report(),
        pod.report(),
    ] {
        for (name, value) in &scenario_report.counters {
            run.obs().counter(name).add(*value);
        }
        for (name, value) in &scenario_report.gauges {
            run.obs().set_gauge(name, *value);
        }
    }

    run.headline("adversary_noop_digest_identical", f64::from(identical));
    run.headline("flash_availability", flash.availability);
    run.headline("flash_warm_p95_us", flash.warm_p95_us as f64);
    run.headline("sybil_detection_rate", sybil.detection_rate);
    run.headline("quorum_fail_closed_rate", quorum.fail_closed_rate);
    run.headline("quorum_availability_f1", quorum.availability_f1);
    run.headline("pod_leak_fraction", pod.leak_fraction);

    // Hard invariants, independent of the gate baselines.
    assert!(identical, "disabled adversary changed a batch digest");
    assert!(
        (flash.availability - 1.0).abs() < 1e-9,
        "flash crowd dropped items: availability {:.4}",
        flash.availability
    );
    assert_eq!(
        quorum.points.iter().map(|p| p.wrong).sum::<u64>(),
        0,
        "tampered plaintext was accepted"
    );
    assert!((quorum.fail_closed_rate - 1.0).abs() < f64::EPSILON);
    assert!((quorum.availability_f1 - 1.0).abs() < f64::EPSILON);
    assert_eq!(pod.tamper_wrong, 0, "pod forgery was accepted");
    assert!(
        sybil.detection_rate >= 0.75,
        "sybil recall {:.3} below the 0.75 floor",
        sybil.detection_rate
    );
}
