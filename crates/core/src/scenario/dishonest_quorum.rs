//! Scenario 3 — **dishonest quorum**: a seeded adversary controls `f` of
//! each key's R=3 replica holders and either serves forged bytes
//! (colluding, so forgeries agree with each other) or claims the copy does
//! not exist. The sweep walks `f` across the read quorum and classifies
//! every verified read into exactly one of three buckets:
//!
//! * **correct** — the original plaintext came back;
//! * **wrong** — tampered plaintext was *accepted* (the integrity failure
//!   the system must never exhibit — gated at zero);
//! * **failed** — the read returned an error instead of bytes. For
//!   tampering with `f < R` this is the *fail-closed* defense working;
//!   [`crate::network::QuorumOutcome::fail_closed`] separates it from
//!   plain absence.
//!
//! Every value carries a self-authenticating tag, standing in for the
//! Schnorr envelope the full engine uses: the verify closure recomputes it,
//! so forged bytes can win a tally only by breaking the tag — which the
//! XOR-tampering adversary cannot.
//!
//! **The stand-in hides a real gap.** The tag covers every byte, but a real
//! wire record ([`crate::integrity::SignedEnvelope::encode_wire`]) leaves
//! its first 8 bytes, the epoch word, unsigned — and those are exactly the
//! bytes [`AdversaryPlane`]'s Tamper mode flips. Put 40 real records per f
//! through this sweep's colluding Tamper adversary, read with
//! `read_outcome` and verified by `decode_wire` + `verify`: at f = 0 and
//! f = 1 every read served the original, at f = 2 and f = 3 every read
//! served the forged record. The zero-tolerance `quorum_fail_closed_rate`
//! holds only because of this tag (DESIGN.md, "Known gap — the epoch word
//! is not signed"; ROADMAP item 4b).

use super::ScenarioConfig;
use crate::network::{AdversaryConfig, AdversaryMode, AdversaryPlane, ChordPlane, ReplicatedStore};
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;

/// One `(f, mode)` cell of the sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumPoint {
    /// Compromised holders per key.
    pub f: usize,
    /// The misbehavior swept at this point.
    pub mode: AdversaryMode,
    /// Reads attempted.
    pub attempted: u64,
    /// Reads that returned the original plaintext.
    pub correct: u64,
    /// Reads that returned **tampered** plaintext (must stay 0).
    pub wrong: u64,
    /// Reads that returned an error with tampered-but-present copies —
    /// the fail-closed defense firing.
    pub fail_closed: u64,
    /// Reads that returned an error with nothing (or too little) present.
    pub unavailable: u64,
    /// Fetches the adversary answered with forged bytes.
    pub tampered: u64,
    /// Fetches the adversary answered "not held".
    pub withheld: u64,
}

/// The full sweep plus the gated aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct DishonestQuorumOutcome {
    /// Keys written per point.
    pub keys: usize,
    /// One point per `(f, mode)`.
    pub points: Vec<QuorumPoint>,
    /// `1 - wrong/attempted` over every tampering point — gated at 1.0
    /// with zero tolerance: tampered bytes are never accepted.
    pub fail_closed_rate: f64,
    /// `correct/attempted` at `f = 1` under tampering — an honest majority
    /// must keep every read available *and* correct.
    pub availability_f1: f64,
}

/// An 8-byte self-authenticating tag over `(domain, key, body)` — FNV-1a,
/// enough to make blind byte-flipping detectable, cheap enough for a sweep.
fn tag(key: Key, body: &[u8]) -> [u8; 8] {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in b"e17.quorum"
        .iter()
        .chain(key.0.to_le_bytes().iter())
        .chain(body.iter())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h.to_le_bytes()
}

fn seal(key: Key, body: &[u8]) -> Vec<u8> {
    let mut value = body.to_vec();
    value.extend_from_slice(&tag(key, body));
    value
}

fn verify_sealed(key: Key, value: &[u8]) -> bool {
    if value.len() < 8 {
        return false;
    }
    let (body, t) = value.split_at(value.len() - 8);
    tag(key, body) == t
}

/// Runs the sweep: fresh store per `(f, mode)` cell so holder selection and
/// stats never bleed between points.
pub fn run(cfg: &ScenarioConfig) -> DishonestQuorumOutcome {
    let keys = if cfg.fast { 24 } else { 160 };
    let replicas = 3;
    let modes = [AdversaryMode::Tamper, AdversaryMode::Withhold];
    let mut points = Vec::new();
    for mode in modes {
        for f in 0..=replicas {
            let adv_cfg = AdversaryConfig::new(cfg.seed ^ 0xD15_0AE5, f).with_mode(mode);
            let plane = AdversaryPlane::new(ChordPlane::build(48, cfg.seed), adv_cfg);
            let mut store = ReplicatedStore::new(plane, replicas);
            let mut metrics = Metrics::new();

            // Honest writes first (the adversary observes but never forges
            // a write), then arm the adversary and read everything back.
            let mut written: Vec<(Key, Vec<u8>)> = Vec::with_capacity(keys);
            for i in 0..keys {
                let key = Key::hash(format!("quorum:{mode:?}:{f}:{i}").as_bytes());
                let body = format!("record {i} under f={f} seed={:x}", cfg.seed).into_bytes();
                let value = seal(key, &body);
                store
                    .put(key, value.clone(), &mut metrics)
                    .expect("seed write");
                written.push((key, value));
            }
            store.plane_mut().set_enabled(true);

            let mut point = QuorumPoint {
                f,
                mode,
                ..QuorumPoint::default()
            };
            for (key, original) in &written {
                point.attempted += 1;
                let outcome = store
                    .read_outcome(*key, &mut metrics, |v| verify_sealed(*key, v))
                    .expect("fetch never errors on an online ring");
                let fail_closed = outcome.fail_closed();
                match outcome.into_result() {
                    Ok(bytes) if &bytes == original => point.correct += 1,
                    Ok(_) => point.wrong += 1,
                    Err(_) if fail_closed => point.fail_closed += 1,
                    Err(_) => point.unavailable += 1,
                }
            }
            let stats = store.plane().stats();
            (point.tampered, point.withheld) = (stats.tampered, stats.withheld);
            points.push(point);
        }
    }

    let tamper: Vec<&QuorumPoint> = points
        .iter()
        .filter(|p| matches!(p.mode, AdversaryMode::Tamper))
        .collect();
    let attempted: u64 = tamper.iter().map(|p| p.attempted).sum();
    let wrong: u64 = tamper.iter().map(|p| p.wrong).sum();
    let f1 = tamper
        .iter()
        .find(|p| p.f == 1)
        .map(|p| p.correct as f64 / p.attempted.max(1) as f64)
        .unwrap_or(0.0);
    DishonestQuorumOutcome {
        keys,
        points,
        fail_closed_rate: (attempted - wrong) as f64 / attempted.max(1) as f64,
        availability_f1: f1,
    }
}
