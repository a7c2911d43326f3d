//! The adversary plane: one seeded, deterministic model of hostile storage
//! behavior for every overlay family (ROADMAP item 5).
//!
//! The survey catalogs what a dishonest storage participant can do to a
//! DOSN — serve tampered replicas, equivocate between readers, go
//! selectively silent, or (as a compromised federation pod) observe every
//! byte its users entrust to it. Before this module those behaviors were
//! scattered: `FaultPlan` crashes nodes wholesale, the replication tests
//! hand-poisoned individual copies, and the Diaspora pod threat model lived
//! only in prose. [`AdversaryPlane`] unifies them behind the
//! [`StoragePlane`] trait itself: it wraps any backend, lets a seeded
//! adversary control **f of the R replica holders of every key** (plus any
//! explicitly compromised nodes — the pod-compromise case), and intercepts
//! `fetch_from`/`store_at` to misbehave deterministically.
//!
//! Design rules:
//!
//! * **Disabled means invisible.** With [`AdversaryPlane::set_enabled`]
//!   `false`, every call forwards byte-for-byte — the engine digest
//!   no-op gate in E17 holds at zero tolerance.
//! * **Deterministic under seed.** Which holders are compromised for a key
//!   is a pure function of `(seed, key, candidate list)`; tampered bytes
//!   are a pure function of `(seed, key[, node])`. Same seed, same attack.
//! * **Writes are honest, reads lie.** A covert adversary stores what it is
//!   given (so a later honest read-repair has something to find) and
//!   misbehaves when serving — which is also where it *observes*: every
//!   key stored at or fetched from a compromised holder lands in
//!   [`AdversaryStats::observed_keys`], the raw material for the
//!   pod-compromise leakage accounting.

use crate::arena::Holders;
use crate::id::{Key, NodeId};
use crate::metrics::Metrics;
use crate::storage::{StorageError, StoragePlane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// What a compromised holder does when asked to serve a key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdversaryMode {
    /// Serve honestly but record everything observed (a curious pod).
    #[default]
    Passive,
    /// Serve deterministically corrupted bytes.
    Tamper,
    /// Claim not to hold the key (selective unavailability).
    Withhold,
    /// Serve a stale-but-valid alternate version to half the readers
    /// (fork attack; see [`AdversaryPlane::equivocate_with`]).
    Equivocate,
}

impl AdversaryMode {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryMode::Passive => "passive",
            AdversaryMode::Tamper => "tamper",
            AdversaryMode::Withhold => "withhold",
            AdversaryMode::Equivocate => "equivocate",
        }
    }
}

/// Seeded adversary parameters.
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// Root seed: holder selection and tampering are pure functions of it.
    pub seed: u64,
    /// Holders controlled per key (f of R). Explicitly compromised nodes
    /// (see [`AdversaryPlane::compromise_node`]) come on top.
    pub per_key_holders: usize,
    /// Behavior at compromised holders.
    pub mode: AdversaryMode,
}

impl AdversaryConfig {
    /// A passive observer controlling `f` holders per key.
    pub fn new(seed: u64, per_key_holders: usize) -> Self {
        AdversaryConfig {
            seed,
            per_key_holders,
            mode: AdversaryMode::Passive,
        }
    }

    /// Sets the misbehavior mode.
    pub fn with_mode(mut self, mode: AdversaryMode) -> Self {
        self.mode = mode;
        self
    }
}

/// What the adversary did and saw — the deterministic half of every
/// scenario's accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Fetches served untouched (honest nodes, or adversary disabled).
    pub served_honest: u64,
    /// Fetches answered with corrupted bytes.
    pub tampered: u64,
    /// Fetches answered "not held".
    pub withheld: u64,
    /// Fetches answered with the alternate (forked) version.
    pub equivocated: u64,
    /// Stores that passed through a compromised holder.
    pub stores_observed: u64,
    /// Every key a compromised holder stored or served — the leakage
    /// surface a compromised pod exposes.
    pub observed_keys: BTreeSet<Key>,
}

/// A [`StoragePlane`] wrapper that injects seeded hostile behavior at f of
/// the R replica holders of every key (see module docs).
#[derive(Debug)]
pub struct AdversaryPlane<P: StoragePlane> {
    inner: P,
    cfg: AdversaryConfig,
    enabled: bool,
    /// Nodes compromised wholesale (pod compromise), key-independent.
    compromised_nodes: BTreeSet<NodeId>,
    /// Per-key compromised holders, refreshed at each placement.
    per_key: BTreeMap<Key, BTreeSet<NodeId>>,
    /// Alternate (stale-but-valid) versions served under equivocation.
    alternates: BTreeMap<Key, Vec<u8>>,
    /// Current reader tag (see [`AdversaryPlane::begin_read`]).
    reader_tag: u64,
    stats: AdversaryStats,
}

impl<P: StoragePlane> AdversaryPlane<P> {
    /// Wraps `inner` with a **disabled** adversary: until
    /// [`AdversaryPlane::set_enabled`] flips it on, the wrapper is a
    /// byte-for-byte forwarder.
    pub fn new(inner: P, cfg: AdversaryConfig) -> Self {
        AdversaryPlane {
            inner,
            cfg,
            enabled: false,
            compromised_nodes: BTreeSet::new(),
            per_key: BTreeMap::new(),
            alternates: BTreeMap::new(),
            reader_tag: 0,
            stats: AdversaryStats::default(),
        }
    }

    /// Arms or disarms the adversary.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the adversary is armed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches the misbehavior mode (scenarios sweep this).
    pub fn set_mode(&mut self, mode: AdversaryMode) {
        self.cfg.mode = mode;
    }

    /// The adversary configuration.
    pub fn config(&self) -> &AdversaryConfig {
        &self.cfg
    }

    /// Marks `node` compromised for **every** key it holds — the
    /// compromised-pod case on a federation plane, where one server sees
    /// all of its users' data.
    pub fn compromise_node(&mut self, node: NodeId) {
        self.compromised_nodes.insert(node);
    }

    /// Registers a stale-but-valid alternate version of `key` for the
    /// equivocation attack: compromised holders serve it to readers whose
    /// tag has odd parity (see [`AdversaryPlane::begin_read`]) and the
    /// current copy to the rest — two readers, two histories.
    pub fn equivocate_with(&mut self, key: Key, alternate: Vec<u8>) {
        self.alternates.insert(key, alternate);
    }

    /// Declares who is about to read. Equivocating holders pick the served
    /// fork by the parity of [`reader_parity`]; scenarios call this before
    /// each read so "different readers, different bytes" is deterministic.
    pub fn begin_read(&mut self, reader: &str) {
        self.reader_tag = reader_tag(reader);
    }

    /// What the adversary has done so far.
    pub fn stats(&self) -> &AdversaryStats {
        &self.stats
    }

    /// Whether the adversary currently controls `node` for `key` (explicit
    /// compromise, or selected among the key's last-placed holders).
    pub fn controls(&self, key: Key, node: NodeId) -> bool {
        self.compromised_nodes.contains(&node)
            || self
                .per_key
                .get(&key)
                .is_some_and(|set| set.contains(&node))
    }

    /// The wrapped plane.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped plane, mutably.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwraps the adversary, returning the inner plane.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Seeded choice of f holders among `candidates` for `key`. A pure
    /// function of `(seed, key, candidates)`: re-deriving placement under
    /// unchanged membership re-selects the same holders.
    fn refresh_compromised(&mut self, key: Key, candidates: &[NodeId]) {
        let f = self.cfg.per_key_holders.min(candidates.len());
        let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
        if f > 0 {
            let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ key.0 ^ 0xAD5E_AD5E);
            let mut pool: Vec<NodeId> = candidates.to_vec();
            for _ in 0..f {
                let idx = rng.random_range(0..pool.len());
                chosen.insert(pool.swap_remove(idx));
            }
        }
        self.per_key.insert(key, chosen);
    }

    /// Deterministically corrupts `value`: XORs a seeded nonzero mask over
    /// the leading bytes. The adversaries collude: the mask is a function of
    /// `(seed, key)` alone, so every compromised holder forges the *same*
    /// bytes — the strongest attack on a byte-equality quorum.
    fn tamper_bytes(&self, key: Key, value: &[u8]) -> Vec<u8> {
        let mask = (self.cfg.seed ^ key.0.rotate_left(17)) | 1; // never the identity mask
        let mut forged = value.to_vec();
        if forged.is_empty() {
            forged.push(mask as u8);
        } else {
            for (i, b) in forged.iter_mut().take(8).enumerate() {
                *b ^= ((mask >> (8 * (i % 8))) as u8) | 1;
            }
        }
        forged
    }
}

/// The parity an equivocating holder uses to pick the fork served to
/// `reader` (FNV-1a over the name, lowest bit). Public so tests and
/// scenarios can construct reader pairs guaranteed to see both forks.
pub fn reader_parity(reader: &str) -> bool {
    reader_tag(reader) & 1 == 1
}

fn reader_tag(reader: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in reader.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl<P: StoragePlane> StoragePlane for AdversaryPlane<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn holders(&self) -> &Holders {
        self.inner.holders()
    }

    fn holders_mut(&mut self) -> &mut Holders {
        self.inner.holders_mut()
    }

    fn set_online(&mut self, node: NodeId, online: bool) {
        self.inner.set_online(node, online);
    }

    fn replica_candidates(
        &mut self,
        key: Key,
        want: usize,
        metrics: &mut Metrics,
    ) -> Result<Vec<NodeId>, StorageError> {
        let candidates = self.inner.replica_candidates(key, want, metrics)?;
        if self.enabled {
            self.refresh_compromised(key, &candidates);
        }
        Ok(candidates)
    }

    fn store_at(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), StorageError> {
        if self.enabled && self.controls(key, node) {
            self.stats.stores_observed += 1;
            self.stats.observed_keys.insert(key);
            // A forked history needs a valid old version to serve: capture
            // the copy this store overwrites, once per key.
            if self.cfg.mode == AdversaryMode::Equivocate && !self.alternates.contains_key(&key) {
                if let Ok(Some(prev)) = self.inner.fetch_from(node, key, metrics) {
                    if prev != value {
                        self.alternates.insert(key, prev);
                    }
                }
            }
        }
        // Writes are honest — the adversary lies when serving.
        self.inner.store_at(node, key, value, metrics)
    }

    fn fetch_from(
        &mut self,
        node: NodeId,
        key: Key,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<u8>>, StorageError> {
        if !self.enabled || !self.controls(key, node) {
            self.stats.served_honest += 1;
            return self.inner.fetch_from(node, key, metrics);
        }
        self.stats.observed_keys.insert(key);
        match self.cfg.mode {
            AdversaryMode::Passive => {
                self.stats.served_honest += 1;
                self.inner.fetch_from(node, key, metrics)
            }
            AdversaryMode::Withhold => {
                self.stats.withheld += 1;
                Ok(None)
            }
            AdversaryMode::Tamper => {
                let got = self.inner.fetch_from(node, key, metrics)?;
                Ok(got.map(|v| {
                    self.stats.tampered += 1;
                    self.tamper_bytes(key, &v)
                }))
            }
            AdversaryMode::Equivocate => {
                if self.reader_tag & 1 == 1 {
                    if let Some(alt) = self.alternates.get(&key) {
                        self.stats.equivocated += 1;
                        return Ok(Some(alt.clone()));
                    }
                }
                self.stats.served_honest += 1;
                self.inner.fetch_from(node, key, metrics)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ChordPlane;

    fn plane(f: usize, mode: AdversaryMode) -> AdversaryPlane<ChordPlane> {
        let mut p = AdversaryPlane::new(
            ChordPlane::build(32, 7),
            AdversaryConfig::new(0xBAD, f).with_mode(mode),
        );
        p.set_enabled(true);
        p
    }

    #[test]
    fn disabled_adversary_forwards_bytes_exactly() {
        let mut honest = ChordPlane::build(32, 7);
        let mut wrapped = AdversaryPlane::new(
            ChordPlane::build(32, 7),
            AdversaryConfig::new(0xBAD, 3).with_mode(AdversaryMode::Tamper),
        );
        let mut m1 = Metrics::new();
        let mut m2 = Metrics::new();
        for i in 0..16u64 {
            let key = Key::hash(&i.to_be_bytes());
            let value = format!("value {i}").into_bytes();
            let c1 = honest.replica_candidates(key, 3, &mut m1).unwrap();
            let c2 = wrapped.replica_candidates(key, 3, &mut m2).unwrap();
            assert_eq!(c1, c2);
            for (n1, n2) in c1.iter().zip(&c2) {
                honest.store_at(*n1, key, &value, &mut m1).unwrap();
                wrapped.store_at(*n2, key, &value, &mut m2).unwrap();
            }
            for (n1, n2) in c1.iter().zip(&c2) {
                assert_eq!(
                    honest.fetch_from(*n1, key, &mut m1).unwrap(),
                    wrapped.fetch_from(*n2, key, &mut m2).unwrap(),
                );
            }
        }
        assert!(wrapped.stats().observed_keys.is_empty());
        assert_eq!(wrapped.stats().tampered, 0);
    }

    #[test]
    fn holder_selection_is_deterministic_and_sized() {
        let mut a = plane(1, AdversaryMode::Tamper);
        let mut b = plane(1, AdversaryMode::Tamper);
        let mut m = Metrics::new();
        for i in 0..32u64 {
            let key = Key::hash(&i.to_be_bytes());
            let ca = a.replica_candidates(key, 3, &mut m).unwrap();
            let cb = b.replica_candidates(key, 3, &mut m).unwrap();
            assert_eq!(ca, cb);
            let bad_a: Vec<bool> = ca.iter().map(|n| a.controls(key, *n)).collect();
            let bad_b: Vec<bool> = cb.iter().map(|n| b.controls(key, *n)).collect();
            assert_eq!(bad_a, bad_b, "same seed must compromise the same holders");
            assert_eq!(bad_a.iter().filter(|x| **x).count(), 1, "exactly f = 1");
        }
    }

    #[test]
    fn tamper_corrupts_only_compromised_holders() {
        let mut p = plane(1, AdversaryMode::Tamper);
        let mut m = Metrics::new();
        let key = Key::hash(b"tamper-me");
        let value = b"authentic bytes".to_vec();
        let candidates = p.replica_candidates(key, 3, &mut m).unwrap();
        for n in &candidates {
            p.store_at(*n, key, &value, &mut m).unwrap();
        }
        let mut corrupt = 0;
        for n in &candidates {
            let got = p.fetch_from(*n, key, &mut m).unwrap().unwrap();
            if got != value {
                corrupt += 1;
                assert!(p.controls(key, *n));
            }
        }
        assert_eq!(corrupt, 1);
        assert_eq!(p.stats().tampered, 1);
        assert!(p.stats().observed_keys.contains(&key));
    }

    #[test]
    fn colluding_forgeries_agree_across_holders() {
        let mut p = plane(3, AdversaryMode::Tamper);
        let mut m = Metrics::new();
        let key = Key::hash(b"collusion");
        let value = b"authentic".to_vec();
        let candidates = p.replica_candidates(key, 3, &mut m).unwrap();
        for n in &candidates {
            p.store_at(*n, key, &value, &mut m).unwrap();
        }
        let forged: Vec<Vec<u8>> = candidates
            .iter()
            .map(|n| p.fetch_from(*n, key, &mut m).unwrap().unwrap())
            .collect();
        assert!(forged.iter().all(|f| *f != value));
        assert!(
            forged.windows(2).all(|w| w[0] == w[1]),
            "colluding holders must serve identical forgeries"
        );
    }

    #[test]
    fn withhold_hides_the_copy() {
        let mut p = plane(3, AdversaryMode::Withhold);
        let mut m = Metrics::new();
        let key = Key::hash(b"silent");
        let candidates = p.replica_candidates(key, 3, &mut m).unwrap();
        for n in &candidates {
            p.store_at(*n, key, b"v", &mut m).unwrap();
        }
        for n in &candidates {
            assert_eq!(p.fetch_from(*n, key, &mut m).unwrap(), None);
        }
        assert_eq!(p.stats().withheld, 3);
        // The copies still exist under the lies.
        p.set_enabled(false);
        for n in &candidates {
            assert_eq!(p.fetch_from(*n, key, &mut m).unwrap(), Some(b"v".to_vec()));
        }
    }

    #[test]
    fn equivocation_serves_forks_by_reader_parity() {
        let mut p = plane(3, AdversaryMode::Equivocate);
        let mut m = Metrics::new();
        let key = Key::hash(b"forked");
        p.equivocate_with(key, b"old version".to_vec());
        let candidates = p.replica_candidates(key, 3, &mut m).unwrap();
        for n in &candidates {
            p.store_at(*n, key, b"new version", &mut m).unwrap();
        }
        let (even, odd) = parity_pair();
        p.begin_read(&even);
        assert_eq!(
            p.fetch_from(candidates[0], key, &mut m).unwrap(),
            Some(b"new version".to_vec())
        );
        p.begin_read(&odd);
        assert_eq!(
            p.fetch_from(candidates[0], key, &mut m).unwrap(),
            Some(b"old version".to_vec())
        );
        assert_eq!(p.stats().equivocated, 1);
    }

    #[test]
    fn equivocation_captures_the_overwritten_version() {
        let mut p = plane(3, AdversaryMode::Equivocate);
        let mut m = Metrics::new();
        let key = Key::hash(b"history");
        let candidates = p.replica_candidates(key, 3, &mut m).unwrap();
        for n in &candidates {
            p.store_at(*n, key, b"v1", &mut m).unwrap();
        }
        for n in &candidates {
            p.store_at(*n, key, b"v2", &mut m).unwrap();
        }
        let (_, odd) = parity_pair();
        p.begin_read(&odd);
        assert_eq!(
            p.fetch_from(candidates[0], key, &mut m).unwrap(),
            Some(b"v1".to_vec()),
            "the overwritten version must have been captured as the fork"
        );
    }

    #[test]
    fn compromised_node_observes_every_key_it_holds() {
        let mut p = plane(0, AdversaryMode::Passive);
        let mut m = Metrics::new();
        let victim = p.node_ids()[0];
        p.compromise_node(victim);
        let mut expected = 0u64;
        for i in 0..64u64 {
            let key = Key::hash(&i.to_be_bytes());
            let candidates = p.replica_candidates(key, 3, &mut m).unwrap();
            for n in &candidates {
                p.store_at(*n, key, b"post", &mut m).unwrap();
            }
            if candidates.contains(&victim) {
                expected += 1;
            }
        }
        assert!(expected > 0, "victim never selected — test graph too small");
        assert_eq!(p.stats().observed_keys.len() as u64, expected);
        assert_eq!(p.stats().stores_observed, expected);
    }

    /// Two reader names with opposite equivocation parity.
    fn parity_pair() -> (String, String) {
        let mut even = None;
        let mut odd = None;
        for i in 0..64 {
            let name = format!("reader{i}");
            if reader_parity(&name) {
                odd.get_or_insert(name);
            } else {
                even.get_or_insert(name);
            }
            if even.is_some() && odd.is_some() {
                break;
            }
        }
        (even.unwrap(), odd.unwrap())
    }
}
