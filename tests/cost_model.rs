//! Exact operation counts of the request engine at a fixed seed: counts,
//! not timings, so they hold on any host.
//!
//! The tallies of `SchnorrGroup::shared(GroupSize::Toy)` are process-wide.
//! This file is its own test binary with one test, so nothing else in the
//! process moves them while it counts.

use dosn::core::engine::{Engine, OpBatch, OpOutput};
use dosn::core::network::{ChordPlane, ReplicatedStore};
use dosn::crypto::group::{GroupSize, SchnorrGroup};

/// Authors in the read batch, one post each; reads per batch.
const READS: usize = 32;

fn author(i: usize) -> String {
    format!("author{i:02}")
}

/// The windowed exponentiations one `execute` of `READS` agreeing reads
/// runs, on an engine told `set_workers(workers)`.
fn exps_in_one_read_batch(workers: usize) -> u64 {
    let mut e = Engine::new(ReplicatedStore::new(ChordPlane::build(24, 7), 3), 7);
    e.set_workers(workers);
    let mut setup = OpBatch::new().register("reader");
    for i in 0..READS {
        setup = setup
            .register(&author(i))
            .befriend(&author(i), "reader", 0.9)
            .post(&author(i), &format!("post by {}", author(i)));
    }
    assert!(e.execute(setup).results.iter().all(Result::is_ok));

    let group = SchnorrGroup::shared(GroupSize::Toy);
    let before = group.exp_stats().total();
    let reads = (0..READS).fold(OpBatch::new(), |b, i| b.read_post("reader", &author(i), 0));
    let report = e.execute(reads);
    let exps = group.exp_stats().total() - before;
    for (i, result) in report.results.iter().enumerate() {
        assert!(
            matches!(result, Ok(OpOutput::Read { body }) if *body == format!("post by {}", author(i))),
            "read {i}: {result:?}"
        );
    }
    exps
}

#[test]
fn a_batch_of_agreeing_reads_runs_two_exponentiations_at_any_worker_setting() {
    // Every read's three copies agree, so each read stakes on one value and
    // one combined Schnorr check proves all 32: two windowed multi-exps (the
    // keys' full-width terms on one chain, the commitments' 128-bit terms
    // on the other). The worker setting changes nothing.
    for workers in [1usize, 8] {
        assert_eq!(exps_in_one_read_batch(workers), 2, "set_workers({workers})");
    }
}
