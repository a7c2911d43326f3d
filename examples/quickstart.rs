//! Quickstart: a complete DOSN in thirty lines.
//!
//! Builds the assembled engine (Chord DHT storage + symmetric
//! friends-group encryption + signed, hash-chained timelines), exercises the
//! full post/read/revoke lifecycle, and prints the overlay cost of it all.
//!
//! Run with: `cargo run --example quickstart`

use dosn::core::engine::Engine;
use dosn::core::network::{ChordPlane, ReplicatedStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64-node structured overlay (survey §II-B) with replication factor 3.
    let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(64, 2015), 3), 2015);

    // Users register: keys go into the directory (survey §IV-A).
    for user in ["alice", "bob", "carol"] {
        net.register(user)?;
    }
    net.befriend("alice", "bob", 0.9)?;

    // Alice posts friends-only content: encrypted (§III), signed and
    // hash-chained (§IV), stored in the DHT (§II).
    let seq = net.post("alice", "party at my place on friday — friends only")?;
    println!("alice published post #{seq}");

    // Bob, a friend, reads it end-to-end.
    let body = net.read_post("bob", "alice", seq)?;
    println!("bob reads: {body:?}");

    // Carol is not a friend: the ciphertext refuses her.
    match net.read_post("carol", "alice", seq) {
        Err(e) => println!("carol is refused: {e}"),
        Ok(_) => unreachable!("stranger must not decrypt"),
    }

    // Alice and Bob fall out. Future posts are sealed away from Bob...
    let rekeyed = net.unfriend("alice", "bob")?;
    println!("unfriending re-keyed {rekeyed} member keys");
    let seq2 = net.post("alice", "so glad bob cannot see this")?;
    assert!(net.read_post("bob", "alice", seq2).is_err());
    // ...but the survey's §III-B caveat holds: old posts stay readable with
    // the old key Bob already has.
    assert!(net.read_post("bob", "alice", seq).is_ok());
    println!("revocation blocks new posts; old epoch keys remain (survey §III-B)");

    // The author's timeline is a verifiable hash chain (§IV-B).
    let timeline = net.timeline("alice").expect("registered");
    timeline.verify(net.directory())?;
    println!(
        "alice's timeline: {} chained entries, chain verifies",
        timeline.entries().len()
    );

    // What did all of this cost on the overlay?
    let m = net.metrics();
    println!(
        "overlay cost: {} messages, {} bytes, {} ms critical-path latency",
        m.messages, m.bytes, m.latency_ms
    );
    Ok(())
}
