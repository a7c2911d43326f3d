//! Experiment E3 (survey §IV): integrity mechanism throughput.
//!
//! Hash-chain append and full-chain verification for timelines of varying
//! length (historical integrity). Envelope seal/verify latency (owner +
//! content integrity) is E18's `integrity.seal_us` / `integrity.verify_us`;
//! a comment under per-post keys (relation integrity) costs one signature
//! each way on top of `integrity.relation_keys_us` —
//! `crypto.schnorr.sign_us` / `verify_us`.

use crate::{once_ns, wall, Run};
use dosn_core::identity::Identity;
use dosn_core::integrity::timeline::Timeline;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::keys::KeyDirectory;

pub(super) fn run(run: &mut Run) {
    let mut rng = SecureRng::seed_from_u64(3);
    let dir = KeyDirectory::new();
    let bob = Identity::create("bob", SchnorrGroup::toy(), &dir, &mut rng);
    run.table(
        "E3: timeline chain verification time vs length",
        "entries | append total (ms) | verify total (ms)",
    );
    for len in run.pick(&[10usize, 100, 1000][..], &[10, 100]) {
        let mut timeline = Timeline::new(bob.id().clone());
        let ((), append_ns) = once_ns(|| {
            for i in 0..*len {
                timeline.append(&bob, format!("post {i}").as_bytes(), vec![], &mut rng);
            }
        });
        let ((), verify_ns) = once_ns(|| timeline.verify(&dir).expect("chain verifies"));
        run.row(&[
            (*len).into(),
            wall(append_ns / 1e6, 1),
            wall(verify_ns / 1e6, 1),
        ]);
    }
}
