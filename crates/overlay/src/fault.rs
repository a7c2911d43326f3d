//! Fault injection and reproducible trace observability for the simulator.
//!
//! DOSN protocols are evaluated on networks that lose, duplicate, reorder,
//! and delay messages, partition into islands, and crash nodes — §II's
//! premise that "peers are unreliable" is the whole reason replication,
//! epochs, and gossip anti-entropy exist. This module makes those failure
//! modes first-class and *reproducible*:
//!
//! * [`FaultPlan`] — a declarative schedule of message drop/duplication/
//!   reordering probabilities, timed two-way partitions between node sets,
//!   crash-stop and crash-recovery events, and per-link latency spikes. The
//!   plan is applied inside the event queue of [`crate::sim::Simulation`],
//!   so the same seed and plan always yield the same execution. Whether a
//!   transmission is lost is decided by one rule on the plan: an active
//!   partition blocks it without a draw, then one Bernoulli draw on
//!   [`FaultPlan::drop_probability`].
//! * [`SimTrace`] — an observability layer that folds every structural
//!   event (send, deliver, drop, timer, churn) into a running SHA-256
//!   digest. Two runs agree on every event in order if and only if their
//!   digests agree, which turns "is the simulator deterministic?" into a
//!   byte comparison.
//! * [`LinkFaults`] — a seeded application of a plan to the closed-form
//!   overlay models ([`crate::chord`], [`crate::kademlia`],
//!   [`crate::flood`], [`crate::superpeer`]), whose lookups walk routing
//!   tables directly instead of exchanging simulator messages. It answers
//!   one question per transmission — "does this hop deliver?" — with the
//!   plan's rule and its own seeded RNG, and tracks retries so experiments
//!   can report the cost of loss.

use crate::id::NodeId;
use crate::metrics::Metrics;
use dosn_crypto::sha256::Sha256;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A timed two-way partition: while `from_ms <= now < until_ms`, no message
/// crosses between `side_a` and `side_b` (either direction). Traffic within
/// a side is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub side_a: BTreeSet<u64>,
    /// The other side.
    pub side_b: BTreeSet<u64>,
    /// Partition start (inclusive), simulated ms.
    pub from_ms: u64,
    /// Partition end (exclusive), simulated ms. `u64::MAX` never heals.
    pub until_ms: u64,
}

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

/// A per-link latency spike: messages from `from` to `to` scheduled while
/// `from_ms <= now < until_ms` take `extra_ms` additional latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpike {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Spike start (inclusive), simulated ms.
    pub from_ms: u64,
    /// Spike end (exclusive), simulated ms.
    pub until_ms: u64,
    /// Added one-way latency.
    pub extra_ms: u64,
}

/// A declarative fault schedule for one simulation run.
///
/// Probabilities apply independently per message send; structural faults
/// (partitions, crashes, spikes) are timed. All randomness used to apply
/// the plan comes from a dedicated RNG seeded with [`FaultPlan::seed`], so
/// an inert plan leaves the base simulation's event sequence untouched and
/// (seed, plan) fully determines the execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault-decision RNG.
    pub seed: u64,
    /// Probability a message is lost in flight.
    pub drop_probability: f64,
    /// Probability a message is delivered twice (independent latencies, so
    /// the copies usually arrive out of order).
    pub duplicate_probability: f64,
    /// Probability a message is held back by an extra random delay, letting
    /// later sends overtake it.
    pub reorder_probability: f64,
    /// Maximum extra delay applied to reordered messages.
    pub reorder_max_extra_ms: u64,
    /// Timed two-way partitions.
    pub partitions: Vec<Partition>,
    /// Crash-stop / crash-recovery schedule.
    pub crashes: Vec<CrashEvent>,
    /// Per-link latency spikes.
    pub latency_spikes: Vec<LatencySpike>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the simulator's default).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_max_extra_ms: 200,
            partitions: Vec::new(),
            crashes: Vec::new(),
            latency_spikes: Vec::new(),
        }
    }

    /// An empty plan with an explicit fault seed (builder entry point).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the in-flight loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
        self
    }

    /// Sets the duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_probability = p;
        self
    }

    /// Sets the reordering probability and the maximum extra delay.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn with_reordering(mut self, p: f64, max_extra_ms: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.reorder_probability = p;
        self.reorder_max_extra_ms = max_extra_ms;
        self
    }

    /// Adds a timed two-way partition between two node sets.
    #[must_use]
    pub fn with_partition(
        mut self,
        side_a: impl IntoIterator<Item = NodeId>,
        side_b: impl IntoIterator<Item = NodeId>,
        from_ms: u64,
        until_ms: u64,
    ) -> Self {
        self.partitions.push(Partition {
            side_a: side_a.into_iter().map(|n| n.0).collect(),
            side_b: side_b.into_iter().map(|n| n.0).collect(),
            from_ms,
            until_ms,
        });
        self
    }

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

    /// Adds a per-link latency spike.
    #[must_use]
    pub fn with_latency_spike(
        mut self,
        from: NodeId,
        to: NodeId,
        from_ms: u64,
        until_ms: u64,
        extra_ms: u64,
    ) -> Self {
        self.latency_spikes.push(LatencySpike {
            from,
            to,
            from_ms,
            until_ms,
            extra_ms,
        });
        self
    }

    /// Whether any partition separates `from` and `to` at `now_ms`.
    pub fn is_partitioned(&self, from: NodeId, to: NodeId, now_ms: u64) -> bool {
        let (a, b) = (from.0, to.0);
        self.partitions.iter().any(|p| {
            (p.from_ms..p.until_ms).contains(&now_ms)
                && ((p.side_a.contains(&a) && p.side_b.contains(&b))
                    || (p.side_a.contains(&b) && p.side_b.contains(&a)))
        })
    }

    /// The one loss/partition rule of the network model: whether one
    /// transmission `from -> to` at `now_ms` is lost, and how. A partition
    /// blocks it without a draw ([`TraceEventKind::DropPartition`]);
    /// otherwise one [`chance`] on `drop_probability` decides loss in
    /// flight ([`TraceEventKind::DropLink`]).
    pub(crate) fn loss(
        &self,
        rng: &mut StdRng,
        from: NodeId,
        to: NodeId,
        now_ms: u64,
    ) -> Option<TraceEventKind> {
        if self.is_partitioned(from, to, now_ms) {
            return Some(TraceEventKind::DropPartition);
        }
        chance(rng, self.drop_probability).then_some(TraceEventKind::DropLink)
    }

    /// Total extra latency from spikes active on `from -> to` at `now_ms`.
    pub fn spike_extra_ms(&self, from: NodeId, to: NodeId, now_ms: u64) -> u64 {
        self.latency_spikes
            .iter()
            .filter(|s| s.from == from && s.to == to && now_ms >= s.from_ms && now_ms < s.until_ms)
            .map(|s| s.extra_ms)
            .sum()
    }
}

/// Draws a Bernoulli with probability `p` from `rng`; `p <= 0` never draws
/// (keeping inert plans free of RNG consumption).
pub(crate) fn chance(rng: &mut StdRng, p: f64) -> bool {
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

/// The structural event kinds a trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A message was scheduled for delivery.
    Send = 1,
    /// A message reached an online node's `on_message`.
    Deliver = 2,
    /// A message reached a node that was offline.
    DropOffline = 3,
    /// A message was lost in flight by the fault plan.
    DropLink = 4,
    /// A message was blocked by an active partition.
    DropPartition = 5,
    /// A duplicate copy was scheduled.
    Duplicate = 6,
    /// A timer fired.
    Timer = 7,
    /// A node changed online state.
    Churn = 8,
}

/// One structural trace event. The message payload is generic and never
/// hashed; the tuple (kind, time, endpoints, sequence) identifies the event
/// uniquely within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// When, simulated ms.
    pub at_ms: u64,
    /// Sender / subject node.
    pub a: u64,
    /// Receiver node, timer tag, or online flag depending on `kind`.
    pub b: u64,
    /// The logical message id (0 for timer/churn events).
    pub msg_id: u64,
}

/// Observability layer: folds every structural event into a running
/// SHA-256 digest (via `dosn-crypto`), so identical seeds and fault plans
/// yield byte-identical trace digests. Optionally retains the full event
/// log for debugging failed schedules.
#[derive(Debug, Clone)]
pub struct SimTrace {
    hasher: Sha256,
    recorded: u64,
    log: Option<Vec<TraceEvent>>,
}

impl Default for SimTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimTrace {
    /// A digest-only trace (O(1) memory).
    pub fn new() -> Self {
        SimTrace {
            hasher: Sha256::new(),
            recorded: 0,
            log: None,
        }
    }

    /// A trace that also retains every event in order (for debugging; O(n)
    /// memory).
    pub fn with_log() -> Self {
        SimTrace {
            log: Some(Vec::new()),
            ..SimTrace::new()
        }
    }

    /// Folds one event into the digest.
    pub fn record(&mut self, event: TraceEvent) {
        self.hasher.update(&[event.kind as u8]);
        self.hasher.update(&event.at_ms.to_le_bytes());
        self.hasher.update(&event.a.to_le_bytes());
        self.hasher.update(&event.b.to_le_bytes());
        self.hasher.update(&event.msg_id.to_le_bytes());
        self.recorded += 1;
        if let Some(log) = &mut self.log {
            log.push(event);
        }
    }

    /// Number of events folded in so far.
    pub fn len(&self) -> u64 {
        self.recorded
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// The retained event log, if this trace keeps one.
    pub fn events(&self) -> Option<&[TraceEvent]> {
        self.log.as_deref()
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
// Synchronous link faults for the closed-form overlay models
// ---------------------------------------------------------------------------

/// A seeded application of a [`FaultPlan`] to the synchronous overlays.
///
/// Chord/Kademlia/flood/super-peer lookups in this crate are closed-form
/// routing-table walks; they do not exchange simulator messages. To subject
/// them to loss and partitions, each hop asks a `LinkFaults` instance
/// whether the transmission succeeds, re-asking up to the caller's retry
/// budget (counting `*.retry` in [`crate::metrics::Metrics`]). The answer
/// is the plan's own loss/partition rule, the one the simulator applies,
/// evaluated at time 0 with this instance's RNG: the walks have no clock,
/// so a partition holds until [`LinkFaults::heal_partitions`].
#[derive(Debug, Clone)]
pub struct LinkFaults {
    plan: FaultPlan,
    rng: StdRng,
    /// Transmissions attempted.
    pub attempts: u64,
    /// Transmissions that failed (loss or partition).
    pub failures: u64,
}

impl LinkFaults {
    /// Faults with i.i.d. per-attempt loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(seed: u64, drop_probability: f64) -> Self {
        LinkFaults {
            plan: FaultPlan::seeded(seed).with_drop_probability(drop_probability),
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
    /// [`LinkFaults::heal_partitions`]).
    #[must_use]
    pub fn with_partition(
        mut self,
        side_a: impl IntoIterator<Item = NodeId>,
        side_b: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        self.plan = self.plan.with_partition(side_a, side_b, 0, u64::MAX);
        self
    }

    /// Heals all partitions (probabilistic loss continues to apply).
    pub fn heal_partitions(&mut self) {
        self.plan.partitions.clear();
    }

    /// Decides one transmission attempt from `from` to `to`.
    pub fn delivers(&mut self, from: NodeId, to: NodeId) -> bool {
        self.delivers_with_retries(from, to, 0).0
    }

    /// Decides whether a transmission succeeds within `retries + 1`
    /// attempts; returns the number of attempts consumed alongside the
    /// outcome. Partitioned links never succeed regardless of budget.
    pub fn delivers_with_retries(&mut self, from: NodeId, to: NodeId, retries: u32) -> (bool, u32) {
        let mut used = 0;
        for _ in 0..=retries {
            used += 1;
            self.attempts += 1;
            let Some(loss) = self.plan.loss(&mut self.rng, from, to, 0) else {
                return (true, used);
            };
            self.failures += 1;
            if loss == TraceEventKind::DropPartition {
                // Retrying a partitioned link cannot help.
                return (false, used);
            }
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
    fn partition_separates_only_in_window() {
        let plan = FaultPlan::seeded(1).with_partition(
            [NodeId(0), NodeId(1)],
            [NodeId(2), NodeId(3)],
            100,
            200,
        );
        assert!(!plan.is_partitioned(NodeId(0), NodeId(2), 99));
        assert!(plan.is_partitioned(NodeId(0), NodeId(2), 100));
        assert!(plan.is_partitioned(NodeId(2), NodeId(0), 199));
        assert!(!plan.is_partitioned(NodeId(0), NodeId(2), 200));
        assert!(!plan.is_partitioned(NodeId(0), NodeId(1), 150), "same side");
    }

    #[test]
    fn spikes_add_latency_in_window() {
        let plan = FaultPlan::seeded(1).with_latency_spike(NodeId(0), NodeId(1), 10, 20, 500);
        assert_eq!(plan.spike_extra_ms(NodeId(0), NodeId(1), 15), 500);
        assert_eq!(plan.spike_extra_ms(NodeId(0), NodeId(1), 20), 0);
        assert_eq!(
            plan.spike_extra_ms(NodeId(1), NodeId(0), 15),
            0,
            "directional"
        );
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
                kind: TraceEventKind::Send,
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
    fn trace_log_retains_events_in_order() {
        let mut t = SimTrace::with_log();
        assert!(t.is_empty());
        for i in 0..3 {
            t.record(TraceEvent {
                kind: TraceEventKind::Timer,
                at_ms: i,
                a: 0,
                b: 0,
                msg_id: 0,
            });
        }
        assert_eq!(t.len(), 3);
        let log = t.events().unwrap();
        assert_eq!(log.len(), 3);
        assert!(log.windows(2).all(|w| w[0].at_ms < w[1].at_ms));
        assert!(SimTrace::new().events().is_none());
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
