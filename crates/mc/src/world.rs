//! The explored state: a small topology of protocol cores, their pending
//! timers, and the messages in flight between them.
//!
//! A [`World`] is one vertex of the model checker's state graph. Its
//! transitions are [`Action`]s — deliver/drop/duplicate one in-flight
//! message, fire the earliest pending timer, or take the next scripted
//! fault step — and applying an action is deterministic, so a path is
//! fully described by its decision list. Time is virtual and advances
//! *only* when a timer fires (to that timer's deadline); message handling
//! happens "instantly" at the current time, which over-approximates real
//! schedules: every real interleaving of deliveries between two timer
//! deadlines corresponds to some action order here.

use std::any::Any;
use std::fmt;

use adamant_proto::{
    Destination, DetRng, DropReason, Effect, Env, Fnv64, GroupId, Input, NodeId, ObsEvent,
    ProtocolCore, StateHash, TimePoint, TimerToken, TracedEvent, WireMsg,
};

use crate::scenario::{FaultKind, McConfig, Scenario};

/// What the model checker needs from a core beyond [`ProtocolCore`]:
/// cloneable (worlds fork at every branch) and `Debug` (state fingerprints
/// hash the rendering). A `dyn McCore` upcasts to `dyn Any`, which is how
/// restart factories extract checkpoints from the dead incarnation.
///
/// Blanket-implemented, so every concrete core qualifies for free.
pub trait McCore: ProtocolCore + fmt::Debug {
    /// Clones the core behind the trait object.
    fn clone_core(&self) -> Box<dyn McCore>;
}

impl<C: ProtocolCore + fmt::Debug + Clone> McCore for C {
    fn clone_core(&self) -> Box<dyn McCore> {
        Box::new(self.clone())
    }
}

/// One transition of the state graph.
///
/// Message-addressed variants carry the in-flight message id, which is
/// assigned deterministically in send order — so a recorded decision list
/// replays against a fresh world without ambiguity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Advance virtual time to the earliest pending timer deadline on a
    /// live node and fire that timer.
    FireTimer,
    /// Hand in-flight message `msg` to its target (a drop with
    /// [`DropReason::Crash`] if the target is currently crashed).
    Deliver {
        /// In-flight message id.
        msg: u64,
    },
    /// Discard in-flight message `msg` (consumes one unit of the drop
    /// budget).
    Drop {
        /// In-flight message id.
        msg: u64,
    },
    /// Clone in-flight message `msg` (consumes one unit of the
    /// duplication budget); both copies remain individually addressable.
    Duplicate {
        /// In-flight message id.
        msg: u64,
    },
    /// Take the next scripted fault step (crash or restart). The *timing*
    /// of each step is explored; their order is fixed by the scenario.
    Fault,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::FireTimer => write!(f, "fire-timer"),
            Action::Deliver { msg } => write!(f, "deliver({msg})"),
            Action::Drop { msg } => write!(f, "drop({msg})"),
            Action::Duplicate { msg } => write!(f, "dup({msg})"),
            Action::Fault => write!(f, "fault"),
        }
    }
}

/// One message copy travelling between two nodes.
#[derive(Debug, Clone)]
struct InFlight {
    /// Unique per copy; `Action`s address messages by this.
    id: u64,
    /// Shared by all copies of one `Effect::Send` (trace identity).
    wire_id: u64,
    src: NodeId,
    dst: NodeId,
    tag: u16,
    size_bytes: u32,
    msg: WireMsg,
}

struct NodeSlot {
    node: NodeId,
    core: Box<dyn McCore>,
    rng: DetRng,
    next_timer: u64,
    /// Armed timers as `(token, tag, deadline)`.
    timers: Vec<(TimerToken, u64, TimePoint)>,
    crashed: bool,
    epoch: u32,
}

impl Clone for NodeSlot {
    fn clone(&self) -> Self {
        NodeSlot {
            node: self.node,
            core: self.core.clone_core(),
            rng: self.rng.clone(),
            next_timer: self.next_timer,
            timers: self.timers.clone(),
            crashed: self.crashed,
            epoch: self.epoch,
        }
    }
}

/// Deterministic per-(node, incarnation) entropy seed, mixed from the
/// world seed the same way for every run.
fn node_seed(world_seed: u64, node: u32, epoch: u32) -> u64 {
    world_seed
        ^ u64::from(node + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(epoch).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// One vertex of the explored state graph. Cloning forks the world.
#[derive(Clone)]
pub struct World {
    seed: u64,
    now: TimePoint,
    nodes: Vec<NodeSlot>,
    groups: Vec<Vec<NodeId>>,
    in_flight: Vec<InFlight>,
    next_msg: u64,
    next_wire: u64,
    faults_done: usize,
    drops_left: u32,
    dups_left: u32,
    horizon: Option<TimePoint>,
    trace: Vec<TracedEvent>,
    scratch: Vec<Effect>,
}

impl World {
    /// The initial world: every node constructed from its factory and
    /// stepped through [`Input::Start`] in node order.
    pub fn new(scenario: &Scenario, cfg: &McConfig) -> World {
        let mut world = World {
            seed: cfg.seed,
            now: TimePoint::ZERO,
            nodes: Vec::with_capacity(scenario.node_count()),
            groups: scenario.groups().to_vec(),
            in_flight: Vec::new(),
            next_msg: 0,
            next_wire: 0,
            faults_done: 0,
            drops_left: cfg.max_drops,
            dups_left: cfg.max_dups,
            horizon: cfg.horizon,
            trace: Vec::new(),
            scratch: Vec::new(),
        };
        for (index, core) in scenario.build_nodes().into_iter().enumerate() {
            world.nodes.push(NodeSlot {
                node: NodeId::from_index(index),
                core,
                rng: DetRng::seed_from_u64(node_seed(cfg.seed, index as u32, 0)),
                next_timer: 0,
                timers: Vec::new(),
                crashed: false,
                epoch: 0,
            });
        }
        for index in 0..world.nodes.len() {
            world.step_node(index, Input::Start);
        }
        world
    }

    /// Current virtual time.
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// The trace of everything observed along this path.
    pub fn trace(&self) -> &[TracedEvent] {
        &self.trace
    }

    /// The core at `index`, downcast to its concrete type.
    pub fn core<C: 'static>(&self, index: usize) -> Option<&C> {
        let core: &dyn Any = &*self.nodes.get(index)?.core;
        core.downcast_ref::<C>()
    }

    fn push_trace(&mut self, event: ObsEvent) {
        self.trace.push(TracedEvent {
            time: self.now,
            event,
        });
    }

    /// Steps one core and folds its effects back into the world.
    fn step_node(&mut self, index: usize, input: Input<'_>) {
        let mut effects = std::mem::take(&mut self.scratch);
        effects.clear();
        {
            let World {
                now,
                ref mut nodes,
                ref groups,
                ..
            } = *self;
            let slot = &mut nodes[index];
            let mut env = Env::new(
                now,
                slot.node,
                1.0,
                true,
                &mut slot.rng,
                groups,
                &mut slot.next_timer,
                &mut effects,
            );
            slot.core.step(input, &mut env);
        }
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    dst,
                    size_bytes,
                    tag,
                    msg,
                    ..
                } => self.enqueue_send(index, dst, size_bytes, tag, msg),
                Effect::SetTimer { token, delay, tag } => {
                    let deadline = self.now + delay;
                    self.nodes[index].timers.push((token, tag, deadline));
                }
                Effect::CancelTimer { token } => {
                    self.nodes[index].timers.retain(|&(t, _, _)| t != token);
                }
                // Delivery bookkeeping is core-internal; the paired
                // SampleAccepted trace event carries it into the checker.
                Effect::Deliver { .. } => {}
                Effect::Trace(event) => self.push_trace(event),
            }
        }
        self.scratch = effects;
    }

    fn enqueue_send(
        &mut self,
        index: usize,
        dst: Destination,
        size_bytes: u32,
        tag: u16,
        msg: WireMsg,
    ) {
        let src = self.nodes[index].node;
        let wire_id = self.next_wire;
        self.next_wire += 1;
        self.push_trace(ObsEvent::PacketSent {
            node: src,
            tag,
            wire_id,
            size_bytes,
        });
        let push_copy = |world: &mut World, dst: NodeId| {
            if dst.index() >= world.nodes.len() {
                return;
            }
            let id = world.next_msg;
            world.next_msg += 1;
            world.in_flight.push(InFlight {
                id,
                wire_id,
                src,
                dst,
                tag,
                size_bytes,
                msg: msg.clone(),
            });
        };
        match dst {
            Destination::Node(node) => push_copy(self, node),
            Destination::Group(group) => {
                let members: Vec<NodeId> = self.members(group).to_vec();
                for member in members {
                    if member != src {
                        push_copy(self, member);
                    }
                }
            }
        }
    }

    fn members(&self, group: GroupId) -> &[NodeId] {
        &self.groups[group.index()]
    }

    /// The earliest pending timer on a live node, as
    /// `(deadline, node index, position in that node's timer list)`.
    fn earliest_timer(&self) -> Option<(TimePoint, usize, usize)> {
        let mut best: Option<(TimePoint, usize, usize, TimerToken)> = None;
        for (index, slot) in self.nodes.iter().enumerate() {
            if slot.crashed {
                continue;
            }
            for (pos, &(token, _, deadline)) in slot.timers.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((bd, bi, _, bt)) => (deadline, index, token) < (bd, bi, bt),
                };
                if better {
                    best = Some((deadline, index, pos, token));
                }
            }
        }
        best.map(|(deadline, index, pos, _)| (deadline, index, pos))
    }

    /// Whether an in-flight message is blocked behind an older message on
    /// the same (src, dst) link. Links deliver in send order: UDP on one
    /// LAN path reorders rarely, and FIFO links are the classic
    /// partial-order reduction that shrinks the state space enormously.
    /// Cross-link interleavings, drops and duplicates are still explored.
    fn fifo_blocked(&self, m: &InFlight) -> bool {
        self.in_flight
            .iter()
            .any(|other| other.id < m.id && other.src == m.src && other.dst == m.dst)
    }

    /// All transitions enabled in this state, in deterministic order.
    ///
    /// The order is part of the search's determinism contract: the same
    /// world always enumerates the same action list, so decision indices
    /// and recorded [`Action`]s replay identically.
    pub fn enabled_actions(&self, scenario: &Scenario) -> Vec<Action> {
        let mut actions = Vec::new();
        let next_fault = scenario.fault(self.faults_done);
        if let Some((deadline, _, _)) = self.earliest_timer() {
            let beyond_horizon = self.horizon.is_some_and(|h| deadline > h);
            // A pending fault with a deadline earlier than the timer must
            // happen first: time may not pass the fault's `by` bound.
            let fault_blocks = next_fault
                .and_then(|f| f.by())
                .is_some_and(|by| deadline > by);
            if !beyond_horizon && !fault_blocks {
                actions.push(Action::FireTimer);
            }
        }
        if next_fault.is_some() {
            actions.push(Action::Fault);
        }
        for m in &self.in_flight {
            if self.fifo_blocked(m) {
                continue;
            }
            actions.push(Action::Deliver { msg: m.id });
            if !self.nodes[m.dst.index()].crashed {
                if self.drops_left > 0 {
                    actions.push(Action::Drop { msg: m.id });
                }
                if self.dups_left > 0 {
                    actions.push(Action::Duplicate { msg: m.id });
                }
            }
        }
        actions
    }

    /// Applies one action. Panics if the action is not currently enabled
    /// (a corrupted schedule — replays only feed back recorded decisions).
    pub fn apply(&mut self, action: Action, scenario: &Scenario) {
        match action {
            Action::FireTimer => {
                let (deadline, index, pos) = self
                    .earliest_timer()
                    .expect("FireTimer applied with no pending timer");
                debug_assert!(deadline >= self.now, "time must be monotone");
                self.now = deadline;
                let (token, tag, _) = self.nodes[index].timers.remove(pos);
                self.step_node(index, Input::TimerFired { token, tag });
            }
            Action::Deliver { msg } => {
                let m = self.remove_in_flight(msg);
                let dst_index = m.dst.index();
                if self.nodes[dst_index].crashed {
                    self.push_trace(ObsEvent::PacketDropped {
                        node: m.dst,
                        tag: m.tag,
                        wire_id: m.wire_id,
                        reason: DropReason::Crash,
                    });
                } else {
                    self.push_trace(ObsEvent::PacketDelivered {
                        node: m.dst,
                        tag: m.tag,
                        wire_id: m.wire_id,
                        size_bytes: m.size_bytes,
                    });
                    self.step_node(
                        dst_index,
                        Input::PacketIn {
                            src: m.src,
                            msg: &m.msg,
                        },
                    );
                }
            }
            Action::Drop { msg } => {
                let m = self.remove_in_flight(msg);
                self.drops_left = self
                    .drops_left
                    .checked_sub(1)
                    .expect("Drop applied with no drop budget");
                self.push_trace(ObsEvent::PacketDropped {
                    node: m.dst,
                    tag: m.tag,
                    wire_id: m.wire_id,
                    reason: DropReason::Link,
                });
            }
            Action::Duplicate { msg } => {
                self.dups_left = self
                    .dups_left
                    .checked_sub(1)
                    .expect("Duplicate applied with no duplication budget");
                let mut copy = self
                    .in_flight
                    .iter()
                    .find(|m| m.id == msg)
                    .expect("Duplicate of unknown message")
                    .clone();
                copy.id = self.next_msg;
                self.next_msg += 1;
                self.in_flight.push(copy);
            }
            Action::Fault => {
                let fault = scenario
                    .fault(self.faults_done)
                    .expect("Fault applied with no fault steps left");
                self.faults_done += 1;
                match fault.kind() {
                    FaultKind::Crash(node) => {
                        let slot = &mut self.nodes[node.index()];
                        assert!(!slot.crashed, "scripted crash of a crashed node");
                        slot.crashed = true;
                        slot.epoch += 1;
                        slot.timers.clear();
                        let (node, epoch) = (slot.node, slot.epoch);
                        self.push_trace(ObsEvent::NodeCrashed { node, epoch });
                    }
                    FaultKind::Restart(node, factory) => {
                        let index = node.index();
                        let slot = &mut self.nodes[index];
                        assert!(slot.crashed, "scripted restart of a live node");
                        let core = factory(slot.core.as_ref());
                        slot.core = core;
                        slot.crashed = false;
                        slot.epoch += 1;
                        slot.rng = DetRng::seed_from_u64(node_seed(self.seed, node.0, slot.epoch));
                        slot.timers.clear();
                        let (node, epoch) = (slot.node, slot.epoch);
                        self.push_trace(ObsEvent::NodeRestarted { node, epoch });
                        self.step_node(index, Input::Start);
                    }
                }
            }
        }
    }

    fn remove_in_flight(&mut self, id: u64) -> InFlight {
        let pos = self
            .in_flight
            .iter()
            .position(|m| m.id == id)
            .expect("action addressed an unknown in-flight message");
        self.in_flight.remove(pos)
    }

    /// A 64-bit fingerprint of everything that determines future
    /// behaviour: virtual time, per-node core/rng/timer state, in-flight
    /// message contents, and remaining budgets. The trace and the message
    /// id counters are deliberately excluded — two worlds that differ only
    /// in how they got here are the same search vertex.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.now.as_nanos());
        h.write_u64(self.faults_done as u64);
        h.write_u64(u64::from(self.drops_left));
        h.write_u64(u64::from(self.dups_left));
        for slot in &self.nodes {
            h.write_u64(u64::from(slot.crashed));
            h.write_u64(u64::from(slot.epoch));
            h.write_u64(slot.next_timer);
            slot.timers.state_hash(&mut h);
            slot.rng.state_hash(&mut h);
            slot.core.as_ref().state_hash(&mut h);
        }
        for m in &self.in_flight {
            h.write_u64(u64::from(m.src.0));
            h.write_u64(u64::from(m.dst.0));
            h.write_u64(u64::from(m.tag));
            m.msg.state_hash(&mut h);
        }
        h.finish()
    }
}
