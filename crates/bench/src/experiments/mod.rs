//! The experiment registry: one entry per experiment of EXPERIMENTS.md
//! (see DESIGN.md's experiment index), plus the workload helpers E1 and
//! E2 share.

mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e15;
mod e16;
mod e17;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod e9_batch;
mod e9_engine;
mod t1;

use crate::Run;
use dosn_core::engine::{Engine, OpBatch};
use dosn_core::network::StoragePlane;
use dosn_core::privacy::{
    AbeGroupScheme, AccessScheme, IbbeGroupScheme, PkeGroupScheme, SymmetricGroupScheme,
};
use dosn_crypto::chacha::SecureRng;

/// One registered experiment.
pub(crate) struct Experiment {
    /// What `dosn-bench <id>` selects.
    pub id: &'static str,
    /// The report's `experiment` field (the gate compares it).
    pub title: &'static str,
    /// The committed baseline a `--fast` run is gated against, if any.
    pub baseline: Option<&'static str>,
    /// Every headline the experiment declares — exactly the baseline's —
    /// as `(name, higher is better, allowed relative regression)`.
    pub headlines: &'static [(&'static str, bool, f64)],
    pub run: fn(&mut Run),
}

impl Experiment {
    const fn new(id: &'static str, title: &'static str, run: fn(&mut Run)) -> Experiment {
        Experiment {
            id,
            title,
            baseline: None,
            headlines: &[],
            run,
        }
    }

    const fn gated(
        self,
        baseline: &'static str,
        headlines: &'static [(&'static str, bool, f64)],
    ) -> Experiment {
        Experiment {
            baseline: Some(baseline),
            headlines,
            ..self
        }
    }
}

const HIGHER: bool = true;
const LOWER: bool = false;

/// Every experiment, in EXPERIMENTS.md order of first appearance. Ratios
/// and availabilities gate at 30%; correctness headlines at zero. The two
/// warm-p95 latencies are canaries: a p95 of tens of microseconds on a
/// shared host moves 2× between runs of one build (6–15 µs over seven
/// runs; a host stall once read 201 µs), so their limit is 10× the
/// recorded value and only an order-of-magnitude regression trips them.
pub(crate) static EXPERIMENTS: &[Experiment] = &[
    Experiment::new("t1", "T1 Table I taxonomy", t1::run),
    Experiment::new("e1", "E1 data-privacy scheme comparison", e1::run),
    Experiment::new("e2", "E2 access-control management cost", e2::run),
    Experiment::new("e3", "E3 integrity mechanism throughput", e3::run),
    Experiment::new("e4", "E4 fork-consistency detection", e4::run),
    Experiment::new("e5", "E5 lookup cost across organizations", e5::run),
    Experiment::new("e6", "E6 availability vs replication under churn", e6::run),
    Experiment::new("e7", "E7 search-privacy leakage and overhead", e7::run),
    Experiment::new("e8", "E8 blind subscription", e8::run),
    Experiment::new("e9", "E9 design-choice ablations", e9::run),
    Experiment::new(
        "e9-engine",
        "E9-quick exponentiation engine ablation",
        e9_engine::run,
    )
    .gated("BENCH_2.json", &[("powg_1024_speedup", HIGHER, 0.30)]),
    Experiment::new("e9-batch", "E9 batched Schnorr verification", e9_batch::run).gated(
        "BENCH_7.json",
        &[
            ("verified_envelopes_per_sec", HIGHER, 0.30),
            ("batch64_verify_speedup", HIGHER, 0.30),
        ],
    ),
    Experiment::new("e10", "E10 structured lookup under churn", e10::run),
    Experiment::new("e11", "E11 overlay fault tolerance", e11::run),
    Experiment::new("e12", "E12 replication sweep over storage planes", e12::run).gated(
        "BENCH_3.json",
        &[
            ("min_availability_r3", HIGHER, 0.30),
            ("mean_posts_per_sec_r3", HIGHER, 0.30),
        ],
    ),
    Experiment::new("e13", "E13 observability smoke", e13::run).gated(
        "BENCH_4.json",
        // Structural: losing an instrument is a wiring bug, not noise.
        &[
            ("histogram_coverage", HIGHER, 0.0),
            ("availability_after_crash", HIGHER, 0.30),
        ],
    ),
    Experiment::new("e15", "E15 million-node scale sweep", e15::run).gated(
        "BENCH_8.json",
        &[
            ("social_hop_advantage", HIGHER, 0.30),
            ("bytes_per_node", LOWER, 0.30),
        ],
    ),
    Experiment::new("e16", "E16 feed caching", e16::run).gated(
        "BENCH_9.json",
        &[
            ("cache_digest_identical", HIGHER, 0.0),
            ("warm_feed_p95_us", LOWER, 9.0),
        ],
    ),
    Experiment::new("e17", "E17 adversary scenarios", e17::run).gated(
        "BENCH_10.json",
        &[
            ("adversary_noop_digest_identical", HIGHER, 0.0),
            ("flash_availability", HIGHER, 0.01),
            ("flash_warm_p95_us", LOWER, 9.0),
            // Seeded recall of 0.96 against the 0.75 floor E17 asserts.
            ("sybil_detection_rate", HIGHER, 0.20),
            ("quorum_fail_closed_rate", HIGHER, 0.0),
            ("quorum_availability_f1", HIGHER, 0.0),
            ("pod_leak_fraction", LOWER, 0.10),
        ],
    ),
];

/// The engine experiments' user names.
fn user(i: usize) -> String {
    format!("user{i}")
}

/// The batch that registers `users` users and befriends each with the
/// next `degree` names (wrapping).
fn ring_batch(users: usize, degree: usize) -> OpBatch {
    let mut batch = OpBatch::new();
    for i in 0..users {
        batch = batch.register(&user(i));
    }
    for i in 0..users {
        for d in 1..=degree {
            batch = batch.befriend(&user(i), &user((i + d) % users), 0.9);
        }
    }
    batch
}

/// Executes each batch on both engines; `true` iff every pair of batch
/// digests is equal (the E16 and E17 zero-tolerance identity gates). Batch
/// zero registers `users` users as a friendship ring; `round` builds the
/// batches of rounds 0..3.
fn digests_agree<A: StoragePlane, B: StoragePlane>(
    a: &mut Engine<A>,
    b: &mut Engine<B>,
    users: usize,
    round: impl Fn(u64) -> Vec<OpBatch>,
) -> bool {
    let batches = std::iter::once(ring_batch(users, 1)).chain((0..3).flat_map(round));
    batches.fold(true, |same, batch| {
        let digest = a.execute(batch.clone()).digest_hex();
        (digest == b.execute(batch).digest_hex()) && same
    })
}

/// Payload used by E1 (1 KiB, a typical post).
fn post_payload() -> Vec<u8> {
    (0..1024u32).map(|i| (i % 251) as u8).collect()
}

/// Deterministic member names `m0..m{n}`.
fn member_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("m{i}")).collect()
}

/// Instantiates every [`AccessScheme`] with `n` registered identities.
///
/// IBBE setup shares one 256-bit PKG across calls (Cocks setup is slow and
/// not part of the measured operations).
fn all_schemes(n: usize) -> Vec<Box<dyn AccessScheme>> {
    let mut rng = SecureRng::seed_from_u64(0xE1E2);
    let names: Vec<String> = member_names(n);
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    vec![
        Box::new(SymmetricGroupScheme::new([11u8; 32])),
        Box::new(PkeGroupScheme::with_fresh_identities(&name_refs, &mut rng)),
        Box::new(AbeGroupScheme::new([12u8; 32])),
        Box::new(IbbeGroupScheme::with_test_pkg()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_obs::RunReport;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn payload_is_1kib() {
        assert_eq!(post_payload().len(), 1024);
    }

    #[test]
    fn member_names_shape() {
        let names = member_names(3);
        assert_eq!(names, vec!["m0", "m1", "m2"]);
    }

    #[test]
    fn all_schemes_work_end_to_end() {
        for mut scheme in all_schemes(4) {
            let g = scheme.create_group(&member_names(4)).unwrap();
            let ct = scheme.encrypt(&g, b"bench smoke").unwrap();
            assert_eq!(scheme.decrypt_as(&g, "m0", &ct).unwrap(), b"bench smoke");
        }
    }

    /// Ids are unique; a declared baseline is committed, is a `--fast`
    /// report of this experiment, and gates exactly the headlines the
    /// experiment declares; no committed baseline is an orphan.
    #[test]
    fn registry_and_committed_baselines_agree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ids: BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        let mut declared = BTreeSet::new();
        for e in EXPERIMENTS {
            let Some(file) = e.baseline else {
                assert!(
                    e.headlines.is_empty(),
                    "{}: headlines need a baseline",
                    e.id
                );
                continue;
            };
            assert!(declared.insert(file.to_string()), "{file} declared twice");
            let base = RunReport::load(&root.join(file)).unwrap_or_else(|err| panic!("{err}"));
            assert_eq!(base.experiment, e.title, "{file}");
            assert!(base.fast_mode, "{file} must be a --fast run, as CI's is");
            let gated: Vec<(&str, bool, f64)> = (base.headlines.iter())
                .map(|(name, h)| (name.as_str(), h.higher_is_better, h.tolerance))
                .collect();
            let mut ours = e.headlines.to_vec();
            ours.sort_by_key(|h| h.0);
            assert_eq!(gated, ours, "{file} vs the headlines {} declares", e.id);
        }
        let committed: BTreeSet<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        assert_eq!(
            committed, declared,
            "committed BENCH_*.json vs the registry"
        );
    }

    /// The formerly hand-checked "run twice and diff": two `--fast` runs
    /// of each simulated, seeded experiment agree on every cell that is
    /// not a wall-clock measurement. (The seven gated experiments run in
    /// CI's bench job, not here: E15 alone builds two million-node rings.)
    #[test]
    fn seeded_experiments_repeat_cell_for_cell() {
        for id in [
            "t1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11",
        ] {
            let exp = EXPERIMENTS.iter().find(|e| e.id == id).expect(id);
            let seeded_rows = || {
                let mut run = Run::new(exp, true);
                (exp.run)(&mut run);
                let wall_clock = std::mem::take(&mut run.wall_clock);
                let mut rows = run.finish().expect(id).rows;
                for row in &mut rows {
                    let table = row["table"].clone();
                    row.retain(|column, _| !wall_clock.contains(&(table.clone(), column.clone())));
                }
                rows
            };
            let first = seeded_rows();
            assert!(!first.is_empty(), "{id} printed no table row");
            assert_eq!(first, seeded_rows(), "{id} is not reproducible");
        }
    }
}
