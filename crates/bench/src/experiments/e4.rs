//! Experiment E4 (survey §IV-B): fork-consistency detection probability.
//!
//! One equivocating provider splits clients across two branches of an
//! object history. Clients then gossip view digests over a fixed number of
//! random pairwise exchanges; a fork is detected the moment a cross-branch
//! pair cross-checks. The table reports detection probability versus the
//! number of gossip exchanges, for several client populations — Frientegrity's
//! qualitative claim ("if the clients … communicate to each other, they will
//! discover the provider's misbehaviour") made quantitative. One cross-check
//! is one digest compare plus one Schnorr verification (E18's
//! `crypto.schnorr.verify_us`).

use crate::{num, Run};
use dosn_core::integrity::history::{HistoryClient, HistoryServer, Operation};
use dosn_crypto::group::SchnorrGroup;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one trial: returns true when any of `exchanges` random client pairs
/// detects the fork.
fn trial(clients: usize, exchanges: usize, seed: u64) -> bool {
    let mut server = HistoryServer::new(SchnorrGroup::toy(), seed);
    server.append("wall", Operation::new("bob", "shared"));
    let branch = server.fork("wall");
    server
        .append_to_branch("wall", 0, Operation::new("bob", "view A"))
        .expect("known branch");
    server
        .append_to_branch("wall", branch, Operation::new("bob", "view B"))
        .expect("known branch");

    let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
    let population: Vec<HistoryClient> = (0..clients)
        .map(|i| {
            let assigned = if i % 2 == 0 { 0 } else { branch };
            let mut c = HistoryClient::new(format!("c{i}"), "wall", server.verifying_key().clone());
            let (log, digest) = server.view("wall", assigned).expect("known branch");
            c.observe(log, digest).expect("signed view accepted");
            c
        })
        .collect();

    for _ in 0..exchanges {
        let a = rng.random_range(0..clients);
        let b = rng.random_range(0..clients);
        if a == b {
            continue;
        }
        if population[a]
            .cross_check(population[b].digest().expect("observed"))
            .is_err()
        {
            return true;
        }
    }
    false
}

pub(super) fn run(run: &mut Run) {
    let trials: u64 = run.pick(60, 6);
    run.table(
        &format!(
            "E4: fork detection probability vs gossip exchanges \
             (50/50 branch split, {trials} trials)"
        ),
        "clients | 1 exch | 2 exch | 4 exch | 8 exch | 16 exch",
    );
    for &clients in run.pick(&[4usize, 8, 16, 32, 64][..], &[4, 8, 16]) {
        let mut cells = vec![clients.into()];
        for exchanges in [1usize, 2, 4, 8, 16] {
            let detected = (0..trials)
                .filter(|&t| trial(clients, exchanges, t * 7919 + clients as u64))
                .count();
            cells.push(num(detected as f64 / trials as f64, 2));
        }
        run.row(&cells);
    }
    println!(
        "\nexpected shape: each random pair is cross-branch with p = 1/2, so\n\
         detection ≈ 1 - (1/2)^exchanges, independent of population size"
    );
}
