//! Robustness: every wire-format decoder must reject (never panic on)
//! arbitrary malformed input — the overlay hands these functions bytes
//! fetched from untrusted storage nodes.

use dosn_crypto::abe::{AbeAuthority, Policy};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::elgamal::HybridCiphertext;
use dosn_crypto::error::CryptoError;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::schnorr::Signature;
use dosn_crypto::shamir::{reconstruct, Share};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn signature_from_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let group = SchnorrGroup::toy();
        let _ = Signature::from_bytes(&group, &bytes);
    }

    #[test]
    fn hybrid_ciphertext_from_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = HybridCiphertext::from_bytes(&bytes);
    }

    #[test]
    fn share_decode_never_panics(x in any::<u64>(), bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Share::decode(x, &bytes);
    }

    #[test]
    fn reconstruct_garbage_shares_never_panics(
        payload_a in proptest::collection::vec(any::<u8>(), 8..64),
        payload_b in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        // Whatever decodes must be safe to feed to reconstruct.
        let shares: Vec<Share> = [
            Share::decode(1, &payload_a),
            Share::decode(2, &payload_b),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !shares.is_empty() {
            let _ = reconstruct(&shares);
        }
    }

    #[test]
    fn policy_parse_never_panics(
        pieces in proptest::collection::vec(0..10usize, 0..400),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Runs of the policy language's own tokens reach deep nesting and
        // every gate; arbitrary bytes reach the tokenizer's refusals.
        const TOKENS: [&str; 10] = ["(", ")", "a", "b", " AND ", " OR ", "2", " of ", ", ", "1 of ("];
        let policy: String = pieces.iter().map(|&i| TOKENS[i]).collect();
        let _ = Policy::parse(&policy);
        let _ = Policy::parse(&String::from_utf8_lossy(&bytes));
    }
}

/// A policy nested 100,000 deep, as a hostile peer could send: refused with
/// a typed error once the nesting limit is passed. The parser used to
/// recurse once per level and abort the process with a stack overflow
/// here. A test thread's stack (2 MiB by default) is smaller than the main
/// thread's, so passing here means the main thread passes too, in debug and
/// in release.
#[test]
fn a_policy_nested_a_hundred_thousand_deep_is_an_error_not_an_abort() {
    const DEPTH: usize = 100_000;
    for (open, close) in [("(", ")"), ("(a AND ", ")"), ("1 of (", ")")] {
        let policy = format!("{}a{}", open.repeat(DEPTH), close.repeat(DEPTH));
        assert!(
            matches!(Policy::parse(&policy), Err(CryptoError::PolicyParse(_))),
            "{open}"
        );
    }
}

/// `depth` AND gates, each over the one below, above one attribute.
fn and_chain(depth: usize) -> Policy {
    (0..depth).fold(Policy::Attr("a".into()), |p, _| Policy::And(vec![p]))
}

/// A policy tree a million gates deep, built in code: encryption refuses it
/// with a typed error before sharing out any key, nothing satisfies it, and
/// dropping it frees it without recursing. Dropping it used to overflow a
/// test thread's stack and abort the process.
#[test]
fn a_policy_a_million_gates_deep_is_refused_and_dropped_without_an_abort() {
    let authority = AbeAuthority::new([7; 32]);
    let mut rng = SecureRng::seed_from_u64(7);
    let holds_a = ["a".to_string()].into();
    for depth in [64, 65, 1_000_000] {
        let policy = and_chain(depth);
        let sealed = authority.encrypt(&policy, b"x", &mut rng);
        if depth == 64 {
            assert!(sealed.is_ok());
            assert!(policy.satisfied_by(&holds_a));
        } else {
            assert!(
                matches!(sealed, Err(CryptoError::PolicyParse(_))),
                "{depth}"
            );
            assert!(!policy.satisfied_by(&holds_a), "{depth}");
        }
    }
}
