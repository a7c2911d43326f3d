//! Scenario 4 — **pod compromise**: one server of a Diaspora-style
//! federation turns from honest-but-curious to actively malicious (the
//! survey's §III provider threat, pushed to its end state). The compromised
//! pod is marked with [`AdversaryPlane::compromise_node`], so *every* key
//! it holds — its own users' walls and the mirrors other pods pushed to it
//! — lands in the adversary's observation log. The scenario accounts for:
//!
//! * **leakage** — the fraction of all stored keys the pod observed, and
//!   the owners whose identity it can expose: the distinct authors of the
//!   records it stored or served;
//! * **integrity** — the pod then serves forged bytes; with R=3 mirrors an
//!   honest majority survives every read (wrong must stay 0);
//! * **availability** — finally the pod goes dark; reads still succeed.
//!
//! Each resident signs their posts ([`SignedEnvelope::seal`]) and the
//! federation stores the wire record ([`SignedEnvelope::encode_wire`]);
//! every read checks a copy as an engine read does, by
//! [`SignedEnvelope::decode_wire`] + [`SignedEnvelope::verify`]. The pod's
//! forged mirror **passes** that check: tampering flips a record's first 8
//! bytes, which are the unsigned epoch word. What keeps the forgery out is
//! the quorum vote — one compromised pod of R = 3 loses it 2–1 — so a read
//! path that served the first verifying copy would accept it.

use super::ScenarioConfig;
use crate::identity::Identity;
use crate::integrity::SignedEnvelope;
use crate::network::{
    AdversaryConfig, AdversaryMode, AdversaryPlane, FederationPlane, ReplicatedStore,
};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::keys::KeyDirectory;
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::storage::StoragePlane;

/// What the compromised pod saw and what it could (not) break.
#[derive(Debug, Clone, PartialEq)]
pub struct PodCompromiseOutcome {
    /// The compromised pod's node id.
    pub compromised_pod: u64,
    /// Keys written in total (users × posts).
    pub keys_total: usize,
    /// Keys the compromised pod observed (held a mirror of).
    pub keys_observed: usize,
    /// `observed / total` — with R of P pods holding each key, the
    /// expected leakage surface is ≈ R/P; gated as lower-is-better.
    pub leak_fraction: f64,
    /// Distinct authors of the records the pod observed — the owners
    /// whose identity it can expose.
    pub owners_exposed: usize,
    /// Forged records accepted in the tampering phase (must stay 0).
    pub tamper_wrong: u64,
    /// Correct reads while the pod forged its copies (one read per key).
    pub tamper_correct: u64,
    /// Correct reads after the pod went offline (one read per key).
    pub offline_correct: u64,
    /// Forged serves the pod actually delivered (adversary-side ledger).
    pub adversary_tampered: u64,
    /// Copies the pod withheld (0 in this scenario's modes).
    pub adversary_withheld: u64,
    /// Forked serves the pod delivered (0 — no equivocation phase here).
    pub adversary_equivocated: u64,
}

impl PodCompromiseOutcome {
    /// `correct / attempted` with the pod serving forged bytes.
    pub fn tamper_availability(&self) -> f64 {
        self.tamper_correct as f64 / self.keys_total.max(1) as f64
    }

    /// `correct / attempted` with the pod offline.
    pub fn offline_availability(&self) -> f64 {
        self.offline_correct as f64 / self.keys_total.max(1) as f64
    }
}

fn pod_user(i: usize) -> String {
    format!("resident{i:03}")
}

/// Runs the compromise: populate the federation, read the pod's
/// observation log, then let it forge and finally fail.
pub fn run(cfg: &ScenarioConfig) -> PodCompromiseOutcome {
    let (pods, users, posts) = if cfg.fast {
        (8, 24, 3u64)
    } else {
        (8, 64, 3u64)
    };
    let compromised = NodeId(3);
    let adv_cfg = AdversaryConfig::new(cfg.seed ^ 0x90D, 0).with_mode(AdversaryMode::Passive);
    let plane = AdversaryPlane::new(FederationPlane::build(pods), adv_cfg);
    let mut store = ReplicatedStore::new(plane, 3);
    let mut metrics = Metrics::new();

    // Arm the adversary as a pure observer on pod 3 before any write: a
    // compromised provider sees everything it ever hosted.
    store.plane_mut().set_enabled(true);
    store.plane_mut().compromise_node(compromised);

    // Each resident signs their wall posts; the pods store wire records.
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let directory = KeyDirectory::new();
    let mut rng = SecureRng::seed_from_u64(cfg.seed ^ 0x90D);
    let residents: Vec<Identity> = (0..users)
        .map(|u| Identity::create(pod_user(u), group.clone(), &directory, &mut rng))
        .collect();
    let mut written: Vec<(&Identity, u64, Key, Vec<u8>)> = Vec::new();
    for resident in &residents {
        let owner = resident.id();
        for seq in 0..posts {
            let key = Key::hash(format!("wall:{owner}:{seq}").as_bytes());
            let body = format!("{owner} update {seq} (seed {:x})", cfg.seed);
            let record =
                SignedEnvelope::seal(resident, None, seq, seq, None, body.as_bytes(), &mut rng)
                    .encode_wire(0, &group);
            store
                .put(key, record.clone(), &mut metrics)
                .expect("federation write");
            written.push((resident, seq, key, record));
        }
    }
    // The check an engine read makes: the record decodes into the author's
    // slot and its signature verifies under the author's key.
    let verifies = |author: &Identity, seq: u64, bytes: &[u8]| {
        SignedEnvelope::decode_wire(author.id(), seq, bytes, &group)
            .is_ok_and(|(envelope, _)| envelope.verify(&directory, None, posts).is_ok())
    };

    // Leakage accounting: which keys — and therefore which owners — did
    // the pod see?
    let observed = store.plane().stats().observed_keys.clone();
    let mut owners_exposed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (owner, _, key, _) in &written {
        if observed.contains(key) {
            owners_exposed.insert(owner.id().as_str());
        }
    }
    let keys_observed = written
        .iter()
        .filter(|(_, _, k, _)| observed.contains(k))
        .count();

    // Phase 2: the pod forges every copy it serves.
    store.plane_mut().set_mode(AdversaryMode::Tamper);
    let mut tamper_correct = 0u64;
    let mut tamper_wrong = 0u64;
    for (owner, seq, key, record) in &written {
        match store.get_verified(*key, &mut metrics, |v| verifies(owner, *seq, v)) {
            Ok(bytes) if &bytes == record => tamper_correct += 1,
            Ok(_) => tamper_wrong += 1,
            Err(_) => {}
        }
    }

    // Phase 3: the pod goes dark entirely.
    store.plane_mut().set_online(compromised, false);
    let mut offline_correct = 0u64;
    for (owner, seq, key, record) in &written {
        if matches!(store.get_verified(*key, &mut metrics, |v| verifies(owner, *seq, v)),
                    Ok(bytes) if &bytes == record)
        {
            offline_correct += 1;
        }
    }

    let keys_total = written.len();
    let final_stats = store.plane().stats().clone();
    PodCompromiseOutcome {
        compromised_pod: compromised.0,
        keys_total,
        keys_observed,
        leak_fraction: keys_observed as f64 / keys_total.max(1) as f64,
        owners_exposed: owners_exposed.len(),
        tamper_wrong,
        tamper_correct,
        offline_correct,
        adversary_tampered: final_stats.tampered,
        adversary_withheld: final_stats.withheld,
        adversary_equivocated: final_stats.equivocated,
    }
}
