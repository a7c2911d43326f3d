//! E9 extension: batched Schnorr envelope verification throughput
//! (`BENCH_7.json`).
//!
//! Measures verified envelopes per second on the real group moduli, per-
//! envelope vs one combined random-linear-combination check
//! ([`dosn_crypto::batch::batch_verify`]), plus two shapes from the read
//! path: R byte-identical copies per envelope (which deduplicate to one
//! combined-check slot each), and 64 envelopes under 64 signers, the shape
//! the engine's finish phase hands over (one cold read per author).

use crate::{wall, Run};
use dosn_crypto::batch::batch_verify;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use std::hint::black_box;

/// Envelopes per combined check (the acceptance target's batch size).
const BATCH: usize = 64;
/// Replication factor of the quorum-read shape.
const R: usize = 3;

pub(super) fn run(run: &mut Run) {
    run.table(
        "E9: batched Schnorr envelope verification",
        "bits | path | envelopes | ms/call | envelopes/s",
    );
    // envelopes/s at 1024 bits: per_envelope, batch64, per_envelope_r3,
    // batch64_r3, then the two 64-key rows.
    let mut rates_1024 = Vec::new();
    for (size, bits, iters) in [(GroupSize::Demo, 512u64, 12), (GroupSize::Legacy, 1024, 6)] {
        let group = SchnorrGroup::with_size(size);
        group.register_obs(run.obs());
        let mut rng = SecureRng::seed_from_u64(0xE9BA);
        let key = SigningKey::generate(group.clone(), &mut rng);
        let vk = key.verifying_key();
        // Distinct "envelope digests" — hash-then-sign message bodies.
        let msgs: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| format!("envelope digest {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();
        let items: Vec<(&VerifyingKey, &[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (vk, m.as_slice(), s))
            .collect();
        // Quorum shape: R identical copies per envelope. The batch path
        // deduplicates them to one slot each; the per-envelope path pays
        // the full R× verification bill.
        let quorum_items: Vec<_> = (0..R).flat_map(|_| items.iter().copied()).collect();
        // The engine's shape: one envelope per author, each under its own
        // key, as a finish phase of cold reads hands them over.
        let signers: Vec<SigningKey> = (0..BATCH)
            .map(|_| SigningKey::generate(group.clone(), &mut rng))
            .collect();
        let signed: Vec<Signature> = signers
            .iter()
            .zip(&msgs)
            .map(|(k, m)| k.sign(m, &mut rng))
            .collect();
        let keyed_items: Vec<(&VerifyingKey, &[u8], &Signature)> = signers
            .iter()
            .zip(&msgs)
            .zip(&signed)
            .map(|((k, m), s)| (k.verifying_key(), m.as_slice(), s))
            .collect();

        for (path, set, batched) in [
            ("per_envelope", &items, false),
            ("batch64", &items, true),
            ("per_envelope_r3", &quorum_items, false),
            ("batch64_r3", &quorum_items, true),
            ("per_envelope_keys64", &keyed_items, false),
            ("batch64_keys64", &keyed_items, true),
        ] {
            let ns = run.time_ns(iters, || match batched {
                true => {
                    black_box(batch_verify(set).is_ok());
                }
                false => set.iter().for_each(|&(k, m, s)| {
                    black_box(k.verify(m, s).is_ok());
                }),
            });
            let rate = set.len() as f64 / (ns / 1e9);
            run.row(&[
                bits.into(),
                path.into(),
                set.len().into(),
                wall(ns / 1e6, 2),
                wall(rate, 0),
            ]);
            if bits == 1024 {
                rates_1024.push(rate);
            }
        }
    }

    let speedup = rates_1024[1] / rates_1024[0];
    println!(
        "\nbatch-64 verification @1024: {speedup:.2}x over per-envelope (target >= 4x); \
         quorum-R3 shape {:.2}x; 64 signers {:.2}x",
        rates_1024[3] / rates_1024[2],
        rates_1024[5] / rates_1024[4]
    );
    run.headline("verified_envelopes_per_sec", rates_1024[1]);
    run.headline("batch64_verify_speedup", speedup);
    if speedup < 4.0 {
        eprintln!("WARNING: batch-64 verification speedup below the 4x acceptance target");
    }
}
