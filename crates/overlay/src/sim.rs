//! Deterministic discrete-event network simulator.
//!
//! DOSN evaluations run on planet-scale P2P deployments; this simulator is
//! the workspace's substitute (see DESIGN.md), and the one network model
//! under every overlay: [`LatencyModel`] is the only hop latency any family
//! draws. It provides:
//!
//! * an event queue with per-link latency drawn from a seeded RNG, so every
//!   run is reproducible;
//! * an [`Actor`] trait for protocol nodes (used by the gossip overlay, the
//!   fork-consistency experiments, and the availability study);
//! * node churn — actors go online/offline, and messages to offline nodes
//!   are counted and dropped (once per logical message, however many
//!   duplicate copies the fault plan produced). Node ids are dense; an id
//!   past the last is never online, churn for it is a no-op, and a message
//!   to it is dropped as to an offline node;
//! * per-node [`NodeCounters`], from which [`SimStats`]' delivery and
//!   timer totals are summed (one count per event);
//! * fault injection via [`FaultPlan`] (loss, duplication, reordering,
//!   partitions, crashes, latency spikes) applied inside the event queue —
//!   its loss/partition rule is the one the routed overlays also apply,
//!   through [`crate::fault::LinkFaults`];
//! * a [`crate::fault::SimTrace`] digest folding every structural event
//!   into SHA-256, so identical `(seed, plan)` pairs yield byte-identical
//!   traces (see [`Simulation::trace`]).
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

use crate::fault::{chance, FaultPlan, SimTrace, TraceEvent, TraceEventKind};
use crate::id::NodeId;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Deliver {
        from: NodeId,
        to: NodeId,
        /// Slab slot holding the message body (shared by duplicates, so
        /// the slot also records whether the message was counted lost).
        slot: u32,
        /// Logical message id for the trace; duplicate copies share it.
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

/// A queued event, ordered by `(at_ms, seq)`: the sequence number is
/// unique, so the event itself never decides the order.
type Scheduled = (u64, u64, Event);

/// Link latency model: uniform in `[min_ms, max_ms]`. The default is the
/// one wide-area hop latency of every overlay family and the simulator.
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

impl LatencyModel {
    /// One hop's latency: a single uniform draw from `rng`, or, for a
    /// fixed model (`min_ms == max_ms`), that value without a draw.
    pub fn draw(&self, rng: &mut impl Rng) -> u64 {
        if self.min_ms == self.max_ms {
            return self.min_ms;
        }
        rng.random_range(self.min_ms..=self.max_ms)
    }
}

/// The latency of one direct hop that walks no route — a storage-plane
/// call, or a federation client's request to its pod: a fixed typical
/// wide-area hop instead of a draw.
pub(crate) const PLANE_HOP_MS: u64 = 30;

/// Message counters for a single simulated node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Messages this node sent (including ones later lost in flight).
    pub sent: u64,
    /// Messages delivered to this node while online.
    pub delivered: u64,
    /// Delivery attempts that found this node offline.
    pub dropped: u64,
    /// Timers fired on this node.
    pub timers_fired: u64,
}

/// Counters the simulation maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to online nodes (the sum of the per-node
    /// [`NodeCounters::delivered`]).
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
    /// Timer callbacks fired (the sum of the per-node
    /// [`NodeCounters::timers_fired`]).
    pub timers_fired: u64,
}

/// One slab slot: an in-flight message body and its outstanding copies.
struct Slot<M> {
    msg: Option<M>,
    /// Outstanding deliveries (2 when the fault plan duplicated).
    refs: u32,
    /// Whether the message was already counted in
    /// [`SimStats::dropped_offline`]; cleared when the slot is recycled.
    lost: bool,
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
    /// Per-node counters, indexed by node id like `actors`.
    counters: Vec<NodeCounters>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Message slab: in-flight messages, indexed by `Event::Deliver::slot`.
    slab: Vec<Slot<A::Msg>>,
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
    /// Every counter that is not per node; `delivered` and `timers_fired`
    /// stay zero here and are summed from `counters` by [`Simulation::stats`].
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
            counters: vec![NodeCounters::default(); n],
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            now_ms: 0,
            seq: 0,
            next_msg_id: 0,
            rng: StdRng::seed_from_u64(seed),
            fault_rng: StdRng::seed_from_u64(plan.seed ^ 0x5DEECE66D),
            latency,
            faults: plan,
            trace: SimTrace::new(),
            stats: SimStats::default(),
        };
        // A recovery inside another of the node's crash windows is no
        // recovery (see `FaultPlan::is_crashed`).
        for crash in sim.faults.crashes.clone() {
            sim.schedule_churn(crash.at_ms, crash.node, false);
            if let Some(up) = crash.recover_at_ms {
                if !sim.faults.is_crashed(crash.node, up) {
                    sim.schedule_churn(up, crash.node, true);
                }
            }
        }
        sim
    }

    /// Current simulated time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        for c in &self.counters {
            stats.delivered += c.delivered;
            stats.timers_fired += c.timers_fired;
        }
        stats
    }

    /// The trace observability layer: its [`SimTrace::digest`] folds every
    /// structural event so far, so identical `(seed, plan)` pairs produce
    /// identical digests.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
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

    /// Send/deliver/drop/timer counters for one node (zeroed for a node
    /// the simulation does not have).
    pub fn node_counters(&self, id: NodeId) -> NodeCounters {
        self.node_index(id)
            .map(|i| self.counters[i])
            .unwrap_or_default()
    }

    /// `id`'s index into the per-node vectors, or `None` for a node the
    /// simulation does not have.
    fn node_index(&self, id: NodeId) -> Option<usize> {
        (id.0 < self.actors.len() as u64).then_some(id.0 as usize)
    }

    /// Immutable access to an actor.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn actor(&self, id: NodeId) -> &A {
        &self.actors[id.0 as usize]
    }

    /// Whether a node is currently online (`false` for a node the
    /// simulation does not have).
    pub fn is_online(&self, id: NodeId) -> bool {
        self.node_index(id).is_some_and(|i| self.online[i])
    }

    /// Injects a message from outside the simulation (e.g. the workload
    /// driver), delivered after one link latency and subject to the fault
    /// plan.
    pub fn post(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        self.dispatch(from, to, msg);
    }

    /// Schedules a node to go online/offline at `at_ms` (absolute); a
    /// no-op for a node the simulation does not have.
    pub fn schedule_churn(&mut self, at_ms: u64, node: NodeId, online: bool) {
        if self.node_index(node).is_none() {
            return;
        }
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
        while let Some(Reverse((at_ms, _, _))) = self.queue.peek() {
            if *at_ms > deadline_ms {
                break;
            }
            self.step();
        }
        self.now_ms = self.now_ms.max(deadline_ms);
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse((at_ms, _, event))) = self.queue.pop() else {
            return false;
        };
        self.now_ms = at_ms;
        match event {
            Event::Deliver {
                from,
                to,
                slot,
                msg_id,
            } => match self.node_index(to).filter(|&i| self.online[i]) {
                Some(i) => {
                    self.counters[i].delivered += 1;
                    self.record(TraceEventKind::Deliver, from, to, msg_id);
                    let msg = self.consume(slot, true).expect("live slab slot");
                    self.with_ctx(to, |actor, ctx| actor.on_message(ctx, from, msg));
                }
                None => {
                    // Offline, or a node the simulation does not have.
                    self.stats.offline_drop_attempts += 1;
                    let s = &mut self.slab[slot as usize];
                    if !s.lost {
                        s.lost = true;
                        self.stats.dropped_offline += 1;
                    }
                    if let Some(i) = self.node_index(to) {
                        self.counters[i].dropped += 1;
                    }
                    self.record(TraceEventKind::DropOffline, from, to, msg_id);
                    self.consume(slot, false);
                }
            },
            Event::Timer { node, tag } => {
                if let Some(i) = self.node_index(node).filter(|&i| self.online[i]) {
                    self.counters[i].timers_fired += 1;
                    self.record(TraceEventKind::Timer, node, NodeId(tag), 0);
                    self.with_ctx(node, |actor, ctx| actor.on_timer(ctx, tag));
                }
            }
            Event::SetOnline { node, online } => {
                // `schedule_churn` queues churn for known nodes only.
                let i = node.0 as usize;
                let was = self.online[i];
                self.online[i] = online;
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
        if let Some(i) = self.node_index(from) {
            self.counters[i].sent += 1;
        }
        self.record(TraceEventKind::Send, from, to, msg_id);

        if let Some(loss) = self.faults.loss(&mut self.fault_rng, from, to, self.now_ms) {
            if loss == TraceEventKind::DropPartition {
                self.stats.dropped_partitioned += 1;
            } else {
                self.stats.dropped_link += 1;
            }
            self.record(loss, from, to, msg_id);
            return;
        }
        let slot = self.alloc_slot(msg);
        let deliver = Event::Deliver {
            from,
            to,
            slot,
            msg_id,
        };
        if chance(&mut self.fault_rng, self.faults.duplicate_probability) {
            self.stats.duplicated += 1;
            self.record(TraceEventKind::Duplicate, from, to, msg_id);
            self.slab[slot as usize].refs += 1;
            let delay = self.delivery_delay(from, to);
            self.schedule(delay, deliver);
        }
        let delay = self.delivery_delay(from, to);
        self.schedule(delay, deliver);
    }

    /// Parks `msg` in the slab with one outstanding delivery, not yet
    /// counted lost.
    fn alloc_slot(&mut self, msg: A::Msg) -> u32 {
        let fresh = Slot {
            msg: Some(msg),
            refs: 1,
            lost: false,
        };
        if let Some(slot) = self.free_slots.pop() {
            self.slab[slot as usize] = fresh;
            slot
        } else {
            self.slab.push(fresh);
            (self.slab.len() - 1) as u32
        }
    }

    /// Consumes one delivery of `slot`. With `read`, returns the body:
    /// moved out on the last reference (the common case — zero clones),
    /// cloned only when a fault-plan duplicate still holds the slot.
    /// Without (an offline target), nothing is ever cloned.
    fn consume(&mut self, slot: u32, read: bool) -> Option<A::Msg> {
        let s = &mut self.slab[slot as usize];
        s.refs -= 1;
        if s.refs == 0 {
            self.free_slots.push(slot);
            s.msg.take()
        } else {
            s.msg.as_ref().filter(|_| read).cloned()
        }
    }

    fn delivery_delay(&mut self, from: NodeId, to: NodeId) -> u64 {
        let mut delay =
            self.latency.draw(&mut self.rng) + self.faults.spike_extra_ms(from, to, self.now_ms);
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

    fn schedule(&mut self, delay_ms: u64, event: Event) {
        self.seq += 1;
        self.queue
            .push(Reverse((self.now_ms + delay_ms, self.seq, event)));
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

    /// Regression: an id outside the population used to index past the
    /// per-node tables and panic — on churn, on a post, and on an actor's
    /// reply to a stale sender.
    #[test]
    fn a_node_the_simulation_does_not_have_is_offline_and_unreachable() {
        let ghost = NodeId(9);
        let mut sim = two_nodes(7);
        sim.enable_trace_log();
        sim.schedule_churn(0, ghost, true);
        assert!(!sim.is_online(ghost));
        sim.post(NodeId(0), ghost, "ping");
        // Node 1 answers the ghost's ping with a pong addressed to it.
        sim.post(ghost, NodeId(1), "ping");
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeId(1)).pings, 1);
        let stats = sim.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped_offline, 2, "each undeliverable message once");
        assert_eq!(stats.offline_drop_attempts, 2);
        let events = sim.trace().events().unwrap();
        let drops = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::DropOffline);
        assert_eq!(drops.count(), 2);
        assert!(
            events.iter().all(|e| e.kind != TraceEventKind::Churn),
            "churn: a no-op"
        );
        assert_eq!(sim.node_counters(ghost), NodeCounters::default());
        assert_eq!(sim.node_counters(NodeId(1)).sent, 1);
        assert!(!sim.is_online(ghost));
    }

    /// Regression: the once-per-message loss record kept every lost
    /// message id for the whole run. It is a flag on the message's slab
    /// slot, so it is bounded by the messages in flight.
    #[test]
    fn offline_loss_accounting_is_bounded_by_the_slab() {
        let mut sim = two_nodes(8);
        sim.schedule_churn(0, NodeId(1), false);
        for _ in 0..1000 {
            sim.post(NodeId(0), NodeId(1), "ping");
            sim.run_until_idle();
        }
        assert_eq!(sim.stats().dropped_offline, 1000);
        assert_eq!(sim.slab.len(), 1, "one slot, recycled for every message");
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
    fn a_fixed_model_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let fixed = LatencyModel {
            min_ms: 7,
            max_ms: 7,
        };
        assert_eq!(fixed.draw(&mut rng), 7);
        let mut fresh = StdRng::seed_from_u64(5);
        assert_eq!(rng.next_u64(), fresh.next_u64());
        let lat = LatencyModel::default().draw(&mut rng);
        assert!((10..=120).contains(&lat));
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
    fn only_fault_duplicates_clone_and_offline_losses_never_do() {
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
