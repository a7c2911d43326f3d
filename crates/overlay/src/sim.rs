//! Deterministic discrete-event network simulator.
//!
//! DOSN evaluations run on planet-scale P2P deployments; this simulator is
//! the workspace's substitute (see DESIGN.md). It provides:
//!
//! * an event queue with per-link latency drawn from a seeded RNG, so every
//!   run is reproducible;
//! * an [`Actor`] trait for protocol nodes (used by the gossip overlay, the
//!   fork-consistency experiments, and the availability study);
//! * node churn — actors go online/offline, and messages to offline nodes
//!   are counted and dropped (once per logical message, however many
//!   duplicate copies the fault plan produced);
//! * fault injection via [`FaultPlan`] (loss, duplication, reordering,
//!   partitions, crashes, latency spikes) applied inside the event queue;
//! * a [`crate::fault::SimTrace`] digest folding every structural event
//!   into SHA-256, so identical `(seed, plan)` pairs yield byte-identical
//!   traces (see [`Simulation::trace_digest`]).
//!
//! ```
//! use dosn_overlay::sim::{Actor, Context, Simulation};
//! use dosn_overlay::id::NodeId;
//!
//! // A one-message ping-pong protocol.
//! #[derive(Default)]
//! struct Pong { got: u32 }
//! impl Actor for Pong {
//!     type Msg = &'static str;
//!     fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: &'static str) {
//!         self.got += 1;
//!         if msg == "ping" { ctx.send(from, "pong"); }
//!     }
//! }
//!
//! let mut sim = Simulation::new(vec![Pong::default(), Pong::default()], 7);
//! sim.post(NodeId(0), NodeId(1), "ping");
//! sim.run_until_idle();
//! assert_eq!(sim.actor(NodeId(0)).got, 1); // got the pong back
//! assert!(sim.now_ms() > 0);
//! ```

use crate::churn::OfflineDropLedger;
use crate::fault::{chance, FaultPlan, SimTrace, TraceEvent, TraceEventKind};
use crate::id::NodeId;
use crate::metrics::{NodeCounters, PerNodeMetrics};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A protocol running on every simulated node.
pub trait Actor {
    /// The message type exchanged by this protocol.
    type Msg;

    /// Called when a message is delivered to this (online) node.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: u64) {
        let _ = (ctx, timer);
    }

    /// Called when the node transitions online (initially and after churn).
    fn on_online(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// The API an actor uses to interact with the network during a callback.
pub struct Context<'a, M> {
    /// This node's id.
    self_id: NodeId,
    now_ms: u64,
    outbox: Vec<(NodeId, M)>,
    timers: Vec<(u64, u64)>,
    rng: &'a mut StdRng,
}

impl<M> Context<'_, M> {
    /// This node's id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Sends `msg` to `to` (delivered after a random link latency).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Schedules [`Actor::on_timer`] with `tag` after `delay_ms`.
    pub fn set_timer(&mut self, delay_ms: u64, tag: u64) {
        self.timers.push((delay_ms, tag));
    }

    /// Seeded randomness for protocol decisions (peer sampling etc.).
    pub fn rng(&mut self) -> &mut impl RngCore {
        self.rng
    }
}

/// Queue events are payload-free: message bodies live in the simulation's
/// refcounted slab and `Deliver` carries only a `u32` slot, so fault-plan
/// duplication no longer clones payloads into the heap-ordered queue.
#[derive(Debug, Clone, Copy)]
enum Event {
    Deliver {
        from: NodeId,
        to: NodeId,
        /// Slab slot holding the message body (shared by duplicates).
        slot: u32,
        // Logical message id; duplicate copies share it so offline-drop
        // accounting stays once-per-message.
        msg_id: u64,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
    SetOnline {
        node: NodeId,
        online: bool,
    },
}

struct Scheduled {
    at_ms: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms == other.at_ms && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ms, self.seq).cmp(&(other.at_ms, other.seq))
    }
}

/// Link latency model: uniform in `[min_ms, max_ms]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Minimum one-way latency.
    pub min_ms: u64,
    /// Maximum one-way latency.
    pub max_ms: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Wide-area P2P spread.
        LatencyModel {
            min_ms: 10,
            max_ms: 120,
        }
    }
}

/// Counters the simulation maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to online nodes.
    pub delivered: u64,
    /// Logical messages dropped because the target was offline (each
    /// message counted once, however many copies or retries arrived).
    pub dropped_offline: u64,
    /// Raw offline-drop attempts, counting every duplicate copy.
    pub offline_drop_attempts: u64,
    /// Messages lost in flight by the fault plan.
    pub dropped_link: u64,
    /// Messages blocked by an active partition.
    pub dropped_partitioned: u64,
    /// Messages the fault plan duplicated.
    pub duplicated: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
}

/// The discrete-event simulation over a fixed actor population.
///
/// Messages must be `Clone` so the fault plan can schedule duplicate
/// copies; every message type in this workspace already is.
pub struct Simulation<A: Actor>
where
    A::Msg: Clone,
{
    actors: Vec<A>,
    online: Vec<bool>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Message slab: in-flight bodies, indexed by `Event::Deliver::slot`.
    msgs: Vec<Option<A::Msg>>,
    /// Outstanding deliveries per slot (2 when the fault plan duplicated).
    msg_refs: Vec<u32>,
    /// Recycled slab slots.
    free_slots: Vec<u32>,
    now_ms: u64,
    seq: u64,
    next_msg_id: u64,
    rng: StdRng,
    // Fault decisions draw from a dedicated RNG (seeded by the plan) so an
    // inert plan leaves the base latency sequence untouched.
    fault_rng: StdRng,
    latency: LatencyModel,
    faults: FaultPlan,
    trace: SimTrace,
    offline_ledger: OfflineDropLedger,
    per_node: PerNodeMetrics,
    stats: SimStats,
}

impl<A: Actor> Simulation<A>
where
    A::Msg: Clone,
{
    /// Creates a simulation with all nodes online and default latency.
    pub fn new(actors: Vec<A>, seed: u64) -> Self {
        Self::with_latency(actors, seed, LatencyModel::default())
    }

    /// Creates a simulation with an explicit latency model.
    pub fn with_latency(actors: Vec<A>, seed: u64, latency: LatencyModel) -> Self {
        Self::with_faults(actors, seed, latency, FaultPlan::none())
    }

    /// Creates a simulation subject to `plan` (see [`FaultPlan`]). The
    /// plan's crash schedule is queued immediately; its probabilistic
    /// faults apply to every subsequent send.
    pub fn with_faults(actors: Vec<A>, seed: u64, latency: LatencyModel, plan: FaultPlan) -> Self {
        let n = actors.len();
        let mut sim = Simulation {
            actors,
            online: vec![true; n],
            queue: BinaryHeap::new(),
            msgs: Vec::new(),
            msg_refs: Vec::new(),
            free_slots: Vec::new(),
            now_ms: 0,
            seq: 0,
            next_msg_id: 0,
            rng: StdRng::seed_from_u64(seed),
            fault_rng: StdRng::seed_from_u64(plan.seed ^ 0x5DEECE66D),
            latency,
            faults: plan,
            trace: SimTrace::new(),
            offline_ledger: OfflineDropLedger::new(),
            per_node: PerNodeMetrics::new(),
            stats: SimStats::default(),
        };
        for crash in sim.faults.crashes.clone() {
            sim.schedule_churn(crash.at_ms, crash.node, false);
            if let Some(up) = crash.recover_at_ms {
                sim.schedule_churn(up, crash.node, true);
            }
        }
        sim
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current simulated time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The trace observability layer.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// SHA-256 digest over every structural event so far; identical
    /// `(seed, plan)` pairs produce identical digests.
    pub fn trace_digest(&self) -> [u8; 32] {
        self.trace.digest()
    }

    /// Switches the trace to also retain the full event log.
    ///
    /// # Panics
    ///
    /// Panics if events were already recorded (the log must cover the whole
    /// run to be meaningful).
    pub fn enable_trace_log(&mut self) {
        assert!(self.trace.is_empty(), "enable the event log before running");
        self.trace = SimTrace::with_log();
    }

    /// Per-node send/deliver/drop/timer counters.
    pub fn per_node(&self) -> &PerNodeMetrics {
        &self.per_node
    }

    /// Convenience: counters for one node.
    pub fn node_counters(&self, id: NodeId) -> NodeCounters {
        self.per_node.get(id)
    }

    /// Offline-drop accounting: (unique logical messages, raw attempts).
    pub fn offline_drops(&self) -> (u64, u64) {
        (
            self.offline_ledger.unique_messages(),
            self.offline_ledger.attempts(),
        )
    }

    /// Immutable access to an actor.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn actor(&self, id: NodeId) -> &A {
        &self.actors[id.0 as usize]
    }

    /// Mutable access to an actor (for test setup and inspection).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn actor_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.actors[id.0 as usize]
    }

    /// Whether a node is currently online.
    pub fn is_online(&self, id: NodeId) -> bool {
        self.online[id.0 as usize]
    }

    /// Injects a message from outside the simulation (e.g. the workload
    /// driver), delivered after one link latency and subject to the fault
    /// plan.
    pub fn post(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        self.dispatch(from, to, msg);
    }

    /// Schedules a node to go online/offline at `at_ms` (absolute).
    pub fn schedule_churn(&mut self, at_ms: u64, node: NodeId, online: bool) {
        let delay = at_ms.saturating_sub(self.now_ms);
        self.schedule(delay, Event::SetOnline { node, online });
    }

    /// Invokes `on_online` for every currently online node, letting
    /// protocols bootstrap (e.g. start gossip timers).
    pub fn start(&mut self) {
        for i in 0..self.actors.len() {
            if self.online[i] {
                self.with_ctx(NodeId(i as u64), |actor, ctx| actor.on_online(ctx));
            }
        }
    }

    /// Runs until the event queue is empty.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs until simulated time reaches `deadline_ms` or the queue drains.
    pub fn run_until(&mut self, deadline_ms: u64) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at_ms > deadline_ms {
                break;
            }
            self.step();
        }
        self.now_ms = self.now_ms.max(deadline_ms);
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(scheduled)) = self.queue.pop() else {
            return false;
        };
        self.now_ms = scheduled.at_ms;
        match scheduled.event {
            Event::Deliver {
                from,
                to,
                slot,
                msg_id,
            } => {
                if !self.online[to.0 as usize] {
                    self.stats.offline_drop_attempts += 1;
                    if self.offline_ledger.record(msg_id) {
                        self.stats.dropped_offline += 1;
                    }
                    self.per_node.on_dropped(to);
                    self.record(TraceEventKind::DropOffline, from, to, msg_id);
                    self.release_slot(slot);
                } else {
                    self.stats.delivered += 1;
                    self.per_node.on_delivered(to);
                    self.record(TraceEventKind::Deliver, from, to, msg_id);
                    let msg = self.take_msg(slot);
                    self.with_ctx(to, |actor, ctx| actor.on_message(ctx, from, msg));
                }
            }
            Event::Timer { node, tag } => {
                if self.online[node.0 as usize] {
                    self.stats.timers_fired += 1;
                    self.per_node.on_timer(node);
                    self.record(TraceEventKind::Timer, node, NodeId(tag), 0);
                    self.with_ctx(node, |actor, ctx| actor.on_timer(ctx, tag));
                }
            }
            Event::SetOnline { node, online } => {
                let was = self.online[node.0 as usize];
                self.online[node.0 as usize] = online;
                self.record(TraceEventKind::Churn, node, NodeId(u64::from(online)), 0);
                if online && !was {
                    self.with_ctx(node, |actor, ctx| actor.on_online(ctx));
                }
            }
        }
        true
    }

    fn with_ctx<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>),
    {
        let mut ctx = Context {
            self_id: id,
            now_ms: self.now_ms,
            outbox: Vec::new(),
            timers: Vec::new(),
            rng: &mut self.rng,
        };
        // Split borrow: actor is disjoint from queue/rng.
        let actor = &mut self.actors[id.0 as usize];
        f(actor, &mut ctx);
        let Context { outbox, timers, .. } = ctx;
        for (to, msg) in outbox {
            self.dispatch(id, to, msg);
        }
        for (delay, tag) in timers {
            self.schedule(delay, Event::Timer { node: id, tag });
        }
    }

    /// Routes one send through the fault plan: partition and loss checks,
    /// optional duplication, and latency (base + spike + reordering delay).
    fn dispatch(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        self.next_msg_id += 1;
        let msg_id = self.next_msg_id;
        self.per_node.on_sent(from);
        self.record(TraceEventKind::Send, from, to, msg_id);

        if self.faults.is_partitioned(from, to, self.now_ms) {
            self.stats.dropped_partitioned += 1;
            self.record(TraceEventKind::DropPartition, from, to, msg_id);
            return;
        }
        if chance(&mut self.fault_rng, self.faults.drop_probability) {
            self.stats.dropped_link += 1;
            self.record(TraceEventKind::DropLink, from, to, msg_id);
            return;
        }
        let slot = self.alloc_slot(msg);
        if chance(&mut self.fault_rng, self.faults.duplicate_probability) {
            self.stats.duplicated += 1;
            self.record(TraceEventKind::Duplicate, from, to, msg_id);
            self.msg_refs[slot as usize] += 1;
            let delay = self.delivery_delay(from, to);
            self.schedule(
                delay,
                Event::Deliver {
                    from,
                    to,
                    slot,
                    msg_id,
                },
            );
        }
        let delay = self.delivery_delay(from, to);
        self.schedule(
            delay,
            Event::Deliver {
                from,
                to,
                slot,
                msg_id,
            },
        );
    }

    /// Parks `msg` in the slab with one outstanding delivery.
    fn alloc_slot(&mut self, msg: A::Msg) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.msgs[slot as usize] = Some(msg);
            self.msg_refs[slot as usize] = 1;
            slot
        } else {
            self.msgs.push(Some(msg));
            self.msg_refs.push(1);
            (self.msgs.len() - 1) as u32
        }
    }

    /// Consumes one delivery of `slot`: moves the body out on the last
    /// reference (the common case — zero clones), clones only when a
    /// fault-plan duplicate still holds the slot.
    fn take_msg(&mut self, slot: u32) -> A::Msg {
        let s = slot as usize;
        self.msg_refs[s] -= 1;
        if self.msg_refs[s] == 0 {
            let msg = self.msgs[s].take().expect("live slab slot");
            self.free_slots.push(slot);
            msg
        } else {
            self.msgs[s].as_ref().expect("live slab slot").clone()
        }
    }

    /// Drops one delivery of `slot` without reading the body (offline
    /// target) — never clones.
    fn release_slot(&mut self, slot: u32) {
        let s = slot as usize;
        self.msg_refs[s] -= 1;
        if self.msg_refs[s] == 0 {
            self.msgs[s] = None;
            self.free_slots.push(slot);
        }
    }

    fn delivery_delay(&mut self, from: NodeId, to: NodeId) -> u64 {
        let mut delay = self.draw_latency() + self.faults.spike_extra_ms(from, to, self.now_ms);
        if chance(&mut self.fault_rng, self.faults.reorder_probability) {
            delay += self
                .fault_rng
                .random_range(0..=self.faults.reorder_max_extra_ms);
        }
        delay
    }

    fn record(&mut self, kind: TraceEventKind, a: NodeId, b: NodeId, msg_id: u64) {
        self.trace.record(TraceEvent {
            kind,
            at_ms: self.now_ms,
            a: a.0,
            b: b.0,
            msg_id,
        });
    }

    fn draw_latency(&mut self) -> u64 {
        if self.latency.min_ms == self.latency.max_ms {
            return self.latency.min_ms;
        }
        self.rng
            .random_range(self.latency.min_ms..=self.latency.max_ms)
    }

    fn schedule(&mut self, delay_ms: u64, event: Event) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at_ms: self.now_ms + delay_ms,
            seq: self.seq,
            event,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts everything it receives; echoes "ping" with "pong".
    #[derive(Default)]
    struct Echo {
        pings: u32,
        pongs: u32,
        timer_tags: Vec<u64>,
        online_calls: u32,
    }

    impl Actor for Echo {
        type Msg = &'static str;

        fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
            match msg {
                "ping" => {
                    self.pings += 1;
                    ctx.send(from, "pong");
                }
                "pong" => self.pongs += 1,
                _ => {}
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg>, tag: u64) {
            self.timer_tags.push(tag);
        }

        fn on_online(&mut self, ctx: &mut Context<'_, Self::Msg>) {
            self.online_calls += 1;
            ctx.set_timer(5, 42);
        }
    }

    fn two_nodes(seed: u64) -> Simulation<Echo> {
        Simulation::new(vec![Echo::default(), Echo::default()], seed)
    }

    #[test]
    fn ping_pong_delivery() {
        let mut sim = two_nodes(1);
        sim.post(NodeId(0), NodeId(1), "ping");
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeId(1)).pings, 1);
        assert_eq!(sim.actor(NodeId(0)).pongs, 1);
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn offline_target_drops_message() {
        let mut sim = two_nodes(2);
        sim.schedule_churn(0, NodeId(1), false);
        sim.post(NodeId(0), NodeId(1), "ping");
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeId(1)).pings, 0);
        assert_eq!(sim.stats().dropped_offline, 1);
        assert!(!sim.is_online(NodeId(1)));
    }

    #[test]
    fn coming_online_triggers_callback_and_timer() {
        let mut sim = two_nodes(3);
        sim.start();
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeId(0)).online_calls, 1);
        assert_eq!(sim.actor(NodeId(0)).timer_tags, vec![42]);
        assert_eq!(sim.stats().timers_fired, 2);
    }

    #[test]
    fn churn_back_online_re_invokes() {
        let mut sim = two_nodes(4);
        sim.schedule_churn(10, NodeId(0), false);
        sim.schedule_churn(20, NodeId(0), true);
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeId(0)).online_calls, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = two_nodes(seed);
            sim.post(NodeId(0), NodeId(1), "ping");
            sim.run_until_idle();
            sim.now_ms()
        };
        assert_eq!(run(9), run(9));
        // Different seeds draw different latencies (overwhelmingly likely).
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = two_nodes(5);
        sim.post(NodeId(0), NodeId(1), "ping");
        sim.run_until(1); // before any latency can elapse (min 10ms)
        assert_eq!(sim.actor(NodeId(1)).pings, 0);
        assert_eq!(sim.now_ms(), 1);
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeId(1)).pings, 1);
    }

    #[test]
    fn timers_do_not_fire_offline() {
        let mut sim = two_nodes(6);
        sim.start(); // sets timers at +5ms
        sim.schedule_churn(1, NodeId(0), false);
        sim.run_until_idle();
        assert!(sim.actor(NodeId(0)).timer_tags.is_empty());
        assert_eq!(sim.actor(NodeId(1)).timer_tags, vec![42]);
    }

    #[test]
    fn fixed_latency_model() {
        let mut sim = Simulation::with_latency(
            vec![Echo::default(), Echo::default()],
            1,
            LatencyModel {
                min_ms: 7,
                max_ms: 7,
            },
        );
        sim.post(NodeId(0), NodeId(1), "ping");
        sim.run_until_idle();
        assert_eq!(sim.now_ms(), 14); // ping 7ms + pong 7ms
    }

    #[test]
    fn len_and_empty() {
        let sim = two_nodes(1);
        assert_eq!(sim.len(), 2);
        assert!(!sim.is_empty());
        let empty: Simulation<Echo> = Simulation::new(vec![], 1);
        assert!(empty.is_empty());
    }

    /// A message whose `Clone` impl counts how often it runs.
    struct CountingMsg {
        clones: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Clone for CountingMsg {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            CountingMsg {
                clones: self.clones.clone(),
            }
        }
    }

    #[derive(Default)]
    struct Sink {
        received: u64,
    }

    impl Actor for Sink {
        type Msg = CountingMsg;
        fn on_message(
            &mut self,
            _ctx: &mut Context<'_, Self::Msg>,
            _from: NodeId,
            _msg: Self::Msg,
        ) {
            self.received += 1;
        }
    }

    #[test]
    fn plain_delivery_never_clones_payloads() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let mut sim: Simulation<Sink> = Simulation::new(vec![Sink::default(), Sink::default()], 11);
        for _ in 0..100 {
            sim.post(
                NodeId(0),
                NodeId(1),
                CountingMsg {
                    clones: clones.clone(),
                },
            );
        }
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeId(1)).received, 100);
        assert_eq!(clones.get(), 0, "slab queue must move, not clone");
    }

    #[test]
    fn only_fault_duplicates_clone_and_offline_drops_never_do() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let plan = FaultPlan::seeded(3).with_duplicate_probability(1.0);
        let mut sim: Simulation<Sink> = Simulation::with_faults(
            vec![Sink::default(), Sink::default(), Sink::default()],
            12,
            LatencyModel::default(),
            plan,
        );
        for _ in 0..50 {
            sim.post(
                NodeId(0),
                NodeId(1),
                CountingMsg {
                    clones: clones.clone(),
                },
            );
        }
        sim.run_until_idle();
        assert_eq!(sim.stats().duplicated, 50);
        assert_eq!(sim.actor(NodeId(1)).received, 100);
        assert_eq!(clones.get(), 50, "exactly one clone per duplicated message");

        // Duplicates to an offline target are dropped without any clone.
        let clones2 = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let plan = FaultPlan::seeded(4).with_duplicate_probability(1.0);
        let mut sim: Simulation<Sink> = Simulation::with_faults(
            vec![Sink::default(), Sink::default()],
            13,
            LatencyModel::default(),
            plan,
        );
        sim.schedule_churn(0, NodeId(1), false);
        sim.run_until_idle();
        for _ in 0..20 {
            sim.post(
                NodeId(0),
                NodeId(1),
                CountingMsg {
                    clones: clones2.clone(),
                },
            );
        }
        sim.run_until_idle();
        assert_eq!(sim.stats().dropped_offline, 20);
        assert_eq!(clones2.get(), 0, "offline drops must not clone");
    }
}
