//! Frientegrity-style fork-consistency (survey §IV-B).
//!
//! A malicious storage provider equivocates about Bob's wall: it shows
//! Alice a view where Bob's party invitation exists, and shows Carol a view
//! where it never happened. Both views are correctly signed — individually
//! each client is satisfied. The moment the two clients gossip their signed
//! view digests, the fork is exposed, with the provider's own signatures as
//! evidence.
//!
//! Run with: `cargo run --example fork_detection`

use dosn::core::integrity::{HistoryClient, HistoryServer, Operation};
use dosn::core::DosnError;
use dosn::crypto::group::SchnorrGroup;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut provider = HistoryServer::new(SchnorrGroup::toy(), 1);

    // Honest phase: everyone sees the same wall.
    provider.append("bob-wall", Operation::new("bob", "hello world"));
    provider.append("bob-wall", Operation::new("bob", "having a great week"));

    let mut alice = HistoryClient::new("alice", "bob-wall", provider.verifying_key().clone());
    let mut carol = HistoryClient::new("carol", "bob-wall", provider.verifying_key().clone());
    let (log, digest) = provider.view("bob-wall", 0)?;
    alice.observe(log, digest)?;
    let (log, digest) = provider.view("bob-wall", 0)?;
    carol.observe(log, digest)?;
    alice.cross_check(carol.digest().expect("observed"))?;
    println!(
        "honest phase: alice and carol agree at version {}",
        alice.version()
    );

    // Equivocation: the provider forks Bob's wall. Alice's branch carries
    // the party invitation; Carol's branch hides it.
    let carol_branch = provider.fork("bob-wall");
    provider.append_to_branch(
        "bob-wall",
        0,
        Operation::new("bob", "party at my home on friday!"),
    )?;
    provider.append_to_branch(
        "bob-wall",
        carol_branch,
        Operation::new("bob", "quiet weekend, nothing planned"),
    )?;

    let (log_a, dig_a) = provider.view("bob-wall", 0)?;
    alice.observe(log_a, dig_a)?;
    let (log_c, dig_c) = provider.view("bob-wall", carol_branch)?;
    carol.observe(log_c, dig_c)?;
    println!(
        "equivocated: alice at version {}, carol at version {} — both views signed",
        alice.version(),
        carol.version()
    );

    // Individually both clients are happy. Gossip catches the lie.
    match alice.cross_check(carol.digest().expect("observed")) {
        Err(DosnError::ForkDetected(evidence)) => {
            println!("FORK DETECTED: {evidence}");
        }
        other => panic!("expected fork detection, got {other:?}"),
    }

    // Nor can the provider silently merge the fork back: serving Carol the
    // "real" branch now rewrites the prefix she already accepted.
    let (merged_log, merged_digest) = provider.view("bob-wall", 0)?;
    match carol.observe(merged_log, merged_digest) {
        Err(DosnError::IntegrityViolation(why)) => {
            println!("carol refuses the rewritten view: {why}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    println!("fork-consistency holds: divergent views cannot be merged back silently");
    Ok(())
}
