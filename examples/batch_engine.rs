//! The batched request engine: one `OpBatch` bootstraps a network, and a
//! bad op in a batch fails alone.
//!
//! `Engine`'s single-op calls are batches of one; `execute` takes a
//! whole [`OpBatch`] and runs it in phases on the calling thread —
//! prepare (keygen, befriends, post crypto), plan (read validation),
//! commit (the sealed records written in op order), finish (quorum-read
//! verify + decrypt). Per-op randomness is HKDF-derived from a global op
//! index, so the report digest depends only on the seed and the op
//! sequence.
//!
//! Run with: `cargo run --example batch_engine`

use dosn::core::engine::{Engine, OpBatch, OpOutput};
use dosn::core::network::{ChordPlane, ReplicatedStore};

const SEED: u64 = 2015;

/// One stage-ordered batch that builds a whole 6-user network: the
/// engine applies all registers, then befriends, then posts, then
/// comments, then reads — so later stages see everything earlier stages
/// created *in the same batch*.
fn bootstrap() -> OpBatch {
    let users = ["alice", "bob", "carol", "dave", "erin", "frank"];
    let mut batch = OpBatch::new();
    for u in users {
        batch = batch.register(u);
    }
    for (i, u) in users.iter().enumerate() {
        batch = batch.befriend(u, users[(i + 1) % users.len()], 0.9);
    }
    for u in users {
        batch = batch.post(u, &format!("{u}'s friends-only update"));
    }
    batch = batch.comment("bob", "alice", 0, "first!");
    for (i, u) in users.iter().enumerate() {
        batch = batch.read_post(users[(i + 1) % users.len()], u, 0);
    }
    batch
}

fn main() {
    let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(64, SEED), 3), SEED);
    let report = net.execute(bootstrap());
    let ok = report.results.iter().filter(|r| r.is_ok()).count();
    println!(
        "bootstrap: {}/{} ops ok, digest {}",
        ok,
        report.results.len(),
        &report.digest_hex()[..16],
    );
    assert_eq!(ok, report.results.len());
    for result in &report.results {
        if let Ok(OpOutput::Read { body }) = result {
            assert!(body.ends_with("friends-only update"));
        }
    }

    // Errors stay per-op: a bad op in a batch never poisons its
    // neighbours. Mallory never registered, and nobody can self-friend.
    let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(64, SEED), 3), SEED);
    let report = net.execute(
        OpBatch::new()
            .register("alice")
            .register("bob")
            .befriend("alice", "alice", 1.0) // rejected: self-friendship
            .befriend("alice", "bob", 0.9)
            .post("mallory", "never registered") // rejected: unknown user
            .post("alice", "still goes through")
            .read_post("bob", "alice", 0),
    );
    for (i, result) in report.results.iter().enumerate() {
        match result {
            Ok(out) => println!("  op {i}: ok {out:?}"),
            Err(e) => println!("  op {i}: rejected — {e}"),
        }
    }
    assert!(report.results[2].is_err() && report.results[4].is_err());
    assert!(matches!(
        report.results[6],
        Ok(OpOutput::Read { ref body }) if body == "still goes through"
    ));
    println!("per-op errors isolated; the rest of the batch committed");
}
