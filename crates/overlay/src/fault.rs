//! The one network model: hop latency, message loss, partitions and crashes,
//! and a reproducible trace digest.
//!
//! DOSN protocols run on networks that delay and lose messages, partition
//! into islands and crash nodes — §II's premise that "peers are unreliable"
//! is the whole reason replication, epochs and gossip anti-entropy exist.
//! Every overlay family here is a closed-form walk over its routing state,
//! and each asks this module the same questions in closed form, seeded so
//! that a run repeats exactly:
//!
//! * [`HOP_MS_MIN`]`..=`[`HOP_MS_MAX`] — how long one routed hop takes:
//!   the one hop-latency draw of every family (a fixed 30 ms for a direct
//!   storage-plane call that walks no route).
//! * [`FaultPlan`] — a crash schedule: crash-stop and crash-recovery
//!   windows. [`FaultPlan::is_crashed`] is the one crash rule;
//!   [`crate::replication::apply_crash_schedule`] applies it to a storage
//!   plane at a simulated time, which is how the engine and the
//!   availability experiments take nodes down and bring them back.
//! * [`LinkFaults`] — seeded in-flight loss, and two-way partitions between
//!   node sets, for single transmissions. The routed walks
//!   ([`crate::chord`], [`crate::kademlia`], [`crate::flood`],
//!   [`crate::superpeer`]) ask it "does this hop deliver?" once per attempt
//!   and track retries, so experiments can report the cost of loss. No
//!   storage-plane read takes one: a quorum read sees crashes, never loss.
//! * [`SimTrace`] — folds typed events into a running SHA-256 digest. Two
//!   runs agree on every event in order if and only if their digests agree,
//!   which turns "is this run deterministic?" into a byte comparison.

use crate::id::NodeId;
use crate::metrics::Metrics;
use dosn_crypto::sha256::Sha256;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The wide-area hop latency range, ms: every routed hop of every overlay
/// family takes a uniform draw from `HOP_MS_MIN..=HOP_MS_MAX`.
pub const HOP_MS_MIN: u64 = 10;
/// The upper end of the hop latency range, ms (see [`HOP_MS_MIN`]).
pub const HOP_MS_MAX: u64 = 120;

/// One routed hop's latency: a single uniform draw from `rng` in
/// `HOP_MS_MIN..=HOP_MS_MAX`.
pub(crate) fn hop_latency_ms(rng: &mut impl Rng) -> u64 {
    rng.random_range(HOP_MS_MIN..=HOP_MS_MAX)
}

/// The latency of one direct hop that walks no route — a storage-plane
/// call, or a federation client's request to its pod: a fixed typical
/// wide-area hop instead of a draw.
pub(crate) const PLANE_HOP_MS: u64 = 30;

/// A scheduled crash: the node goes offline at `at_ms`; with
/// `recover_at_ms = Some(t)` it restarts at `t` (crash-recovery), with
/// `None` it stays down (crash-stop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing node.
    pub node: NodeId,
    /// Crash time, simulated ms.
    pub at_ms: u64,
    /// Restart time, or `None` for crash-stop.
    pub recover_at_ms: Option<u64>,
}

/// A crash schedule for one run: timed crash-stop and crash-recovery
/// windows, built from [`FaultPlan::default`]. Loss is not a plan's: it is
/// a [`LinkFaults`] setting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Crash-stop / crash-recovery schedule.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// Adds a crash-stop event: `node` goes down at `at_ms` and never
    /// returns.
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, at_ms: u64) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at_ms,
            recover_at_ms: None,
        });
        self
    }

    /// Adds a crash-recovery event: `node` goes down at `at_ms` and
    /// restarts at `recover_at_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `recover_at_ms <= at_ms`.
    #[must_use]
    pub fn with_crash_recovery(mut self, node: NodeId, at_ms: u64, recover_at_ms: u64) -> Self {
        assert!(recover_at_ms > at_ms, "recovery must follow the crash");
        self.crashes.push(CrashEvent {
            node,
            at_ms,
            recover_at_ms: Some(recover_at_ms),
        });
        self
    }

    /// The one crash rule: `node` is down at `now_ms` iff one of its crash
    /// windows (`at_ms` up to `recover_at_ms`, or for ever) contains it,
    /// whatever order the plan lists them in.
    pub fn is_crashed(&self, node: NodeId, now_ms: u64) -> bool {
        self.crashes.iter().any(|c| {
            c.node == node && c.at_ms <= now_ms && c.recover_at_ms.is_none_or(|r| r > now_ms)
        })
    }
}

/// Draws a Bernoulli with probability `p` from `rng`; `p <= 0` never draws
/// (keeping inert plans free of RNG consumption).
fn chance(rng: &mut StdRng, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.random_range(0.0..1.0) < p
}

// ---------------------------------------------------------------------------
// Trace observability
// ---------------------------------------------------------------------------

/// The event kinds a trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A value reached its recipient: a placement decision, or a read
    /// that was served.
    Deliver = 2,
    /// Nothing reached the recipient because the nodes it needed were
    /// offline: a read that found too few live copies.
    DropOffline = 3,
}

/// One trace event: a kind, a simulated time and three numbers whose
/// meaning the recorder fixes (its subject, its counterpart, a sequence
/// number), which together identify the event within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// When, simulated ms.
    pub at_ms: u64,
    /// The subject: a key or a sender.
    pub a: u64,
    /// The counterpart: a node, or a count the recorder attaches.
    pub b: u64,
    /// A sequence number the recorder assigns (a message id, a rank), or 0.
    pub msg_id: u64,
}

/// Observability layer: folds every event into a running SHA-256 digest
/// (via `dosn-crypto`) in O(1) memory, so identical seeds and fault plans
/// yield byte-identical trace digests.
#[derive(Debug, Clone)]
pub struct SimTrace {
    hasher: Sha256,
}

impl Default for SimTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimTrace {
    /// An empty trace.
    pub fn new() -> Self {
        SimTrace {
            hasher: Sha256::new(),
        }
    }

    /// Folds one event into the digest.
    pub fn record(&mut self, event: TraceEvent) {
        self.hasher.update(&[event.kind as u8]);
        self.hasher.update(&event.at_ms.to_le_bytes());
        self.hasher.update(&event.a.to_le_bytes());
        self.hasher.update(&event.b.to_le_bytes());
        self.hasher.update(&event.msg_id.to_le_bytes());
    }

    /// The SHA-256 digest over all events recorded so far.
    pub fn digest(&self) -> [u8; 32] {
        self.hasher.clone().finalize()
    }

    /// The digest as lowercase hex (for logs and EXPERIMENTS.md tables).
    pub fn hex_digest(&self) -> String {
        self.digest().iter().map(|b| format!("{b:02x}")).collect()
    }
}

// ---------------------------------------------------------------------------
// Link faults for single transmissions
// ---------------------------------------------------------------------------

/// Seeded in-flight loss, and two-way partitions, for single
/// transmissions.
///
/// Chord/Kademlia/flood/super-peer lookups in this crate are closed-form
/// routing-table walks. To subject them to loss and partitions, each hop
/// asks a `LinkFaults` instance whether the transmission succeeds,
/// re-asking up to the caller's retry budget (counting `*.retry` in
/// [`crate::metrics::Metrics`]). A partition ([`LinkFaults::with_partition`])
/// blocks a transmission without a draw until
/// [`LinkFaults::heal_partitions`]; otherwise one Bernoulli draw on the
/// loss probability decides loss, from an RNG seeded once, so an inert
/// instance draws nothing and (seed, probability) determines every
/// decision. Whether a node is up is [`FaultPlan::is_crashed`]'s question,
/// not this one's.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    drop_probability: f64,
    /// Two-way cuts: no transmission crosses between the two sides.
    partitions: Vec<(BTreeSet<u64>, BTreeSet<u64>)>,
    rng: StdRng,
    /// Transmissions attempted.
    pub attempts: u64,
    /// Transmissions that failed (loss or partition).
    pub failures: u64,
}

impl LinkFaults {
    /// Faults with i.i.d. per-attempt loss probability `drop_probability`,
    /// drawn from an RNG seeded with `seed`; no partition is in force.
    ///
    /// # Panics
    ///
    /// Panics if `drop_probability` is not within `[0, 1]`.
    pub fn new(seed: u64, drop_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "probability out of range"
        );
        LinkFaults {
            drop_probability,
            partitions: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            attempts: 0,
            failures: 0,
        }
    }

    /// A fault-free instance (every attempt delivers).
    pub fn reliable() -> Self {
        LinkFaults::new(0, 0.0)
    }

    /// Adds a two-way partition between two node sets (in force until
    /// [`LinkFaults::heal_partitions`]). Traffic within a side is
    /// unaffected.
    #[must_use]
    pub fn with_partition(
        mut self,
        side_a: impl IntoIterator<Item = NodeId>,
        side_b: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        self.partitions.push((
            side_a.into_iter().map(|n| n.0).collect(),
            side_b.into_iter().map(|n| n.0).collect(),
        ));
        self
    }

    /// Heals all partitions (probabilistic loss continues to apply).
    pub fn heal_partitions(&mut self) {
        self.partitions.clear();
    }

    /// Whether any partition separates `from` and `to`.
    fn is_partitioned(&self, from: NodeId, to: NodeId) -> bool {
        let (a, b) = (from.0, to.0);
        self.partitions.iter().any(|(side_a, side_b)| {
            (side_a.contains(&a) && side_b.contains(&b))
                || (side_a.contains(&b) && side_b.contains(&a))
        })
    }

    /// Decides one transmission attempt from `from` to `to`.
    pub fn delivers(&mut self, from: NodeId, to: NodeId) -> bool {
        self.delivers_with_retries(from, to, 0).0
    }

    /// Decides whether a transmission succeeds within `retries + 1`
    /// attempts; returns the number of attempts consumed alongside the
    /// outcome. Partitioned links never succeed regardless of budget.
    fn delivers_with_retries(&mut self, from: NodeId, to: NodeId, retries: u32) -> (bool, u32) {
        if self.is_partitioned(from, to) {
            // Retrying a partitioned link cannot help.
            self.attempts += 1;
            self.failures += 1;
            return (false, 1);
        }
        let mut used = 0;
        for _ in 0..=retries {
            used += 1;
            self.attempts += 1;
            if !chance(&mut self.rng, self.drop_probability) {
                return (true, used);
            }
            self.failures += 1;
        }
        (false, used)
    }

    /// One overlay hop under optional link faults: the retry hook of every
    /// routing loop. `None` (the plain entry points) always delivers and
    /// touches nothing; otherwise the hop gets `retries` extra attempts,
    /// each counted as an off-path `retry_kind` message of `bytes`.
    pub(crate) fn hop(
        link: &mut Option<(&mut LinkFaults, u32)>,
        from: NodeId,
        to: NodeId,
        metrics: &mut Metrics,
        retry_kind: &str,
        bytes: u64,
    ) -> bool {
        let Some((faults, retries)) = link else {
            return true;
        };
        let (ok, used) = faults.delivers_with_retries(from, to, *retries);
        for _ in 1..used {
            metrics.record_offpath(retry_kind, bytes);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn hop_latency_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            assert!((HOP_MS_MIN..=HOP_MS_MAX).contains(&hop_latency_ms(&mut rng)));
        }
    }

    #[test]
    fn trace_digest_depends_on_every_field() {
        let ev = TraceEvent {
            kind: TraceEventKind::Deliver,
            at_ms: 5,
            a: 1,
            b: 2,
            msg_id: 9,
        };
        let mut base = SimTrace::new();
        base.record(ev);
        for changed in [
            TraceEvent {
                kind: TraceEventKind::DropOffline,
                ..ev
            },
            TraceEvent { at_ms: 6, ..ev },
            TraceEvent { a: 3, ..ev },
            TraceEvent { b: 3, ..ev },
            TraceEvent { msg_id: 10, ..ev },
        ] {
            let mut other = SimTrace::new();
            other.record(changed);
            assert_ne!(base.digest(), other.digest());
        }
        let mut same = SimTrace::new();
        same.record(ev);
        assert_eq!(base.digest(), same.digest());
        assert_eq!(base.hex_digest().len(), 64);
    }

    #[test]
    fn link_faults_loss_rate_is_roughly_calibrated() {
        let mut f = LinkFaults::new(7, 0.3);
        let mut ok = 0u32;
        for _ in 0..2000 {
            if f.delivers(NodeId(0), NodeId(1)) {
                ok += 1;
            }
        }
        let rate = f64::from(ok) / 2000.0;
        assert!((rate - 0.7).abs() < 0.05, "delivery rate {rate}");
        assert_eq!(f.attempts, 2000);
    }

    #[test]
    fn link_faults_partition_blocks_until_healed() {
        let mut f = LinkFaults::new(1, 0.0).with_partition([NodeId(0)], [NodeId(1)]);
        assert!(!f.delivers(NodeId(0), NodeId(1)));
        assert!(!f.delivers(NodeId(1), NodeId(0)), "two-way");
        assert!(f.delivers(NodeId(0), NodeId(2)), "third party unaffected");
        let (ok, used) = f.delivers_with_retries(NodeId(0), NodeId(1), 5);
        assert!(!ok);
        assert_eq!(used, 1, "partitioned link fails fast");
        f.heal_partitions();
        assert!(f.delivers(NodeId(0), NodeId(1)));
    }

    #[test]
    fn retries_beat_moderate_loss() {
        let mut f = LinkFaults::new(3, 0.1);
        let mut failures = 0u32;
        for _ in 0..1000 {
            let (ok, _) = f.delivers_with_retries(NodeId(0), NodeId(1), 3);
            if !ok {
                failures += 1;
            }
        }
        // Per-transmission failure is 0.1^4 = 1e-4; 1000 trials should
        // essentially never fail.
        assert!(failures <= 2, "{failures} failures");
    }

    #[test]
    fn inert_plan_consumes_no_randomness() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!(!chance(&mut rng, 0.0));
        assert!(chance(&mut rng, 1.0));
        let mut fresh = StdRng::seed_from_u64(11);
        // Neither edge probability consumed a draw.
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }
}
