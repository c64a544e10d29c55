//! The agent abstraction: protocol/application code that runs on simulated
//! hosts and reacts to packets and timers.

use std::any::Any;

use adamant_proto::ObsEvent;

use crate::event::{TimerId, TimerTable};
use crate::host::MachineClass;
use crate::packet::{Destination, GroupId, NodeId, OutPacket, Packet};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Code running on a simulated host.
///
/// Agents are single-threaded per host and interact with the world only
/// through the [`Ctx`] passed to each callback: sending packets, setting
/// timers, and drawing randomness. An agent must also expose itself via
/// [`Agent::as_any`] so experiment harnesses can downcast and read results
/// after the run.
pub trait Agent: Send {
    /// Called once when the simulation starts (at the agent's start time).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a packet addressed to this host (or a group it belongs
    /// to) has cleared the full delivery pipeline.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    /// Called when a timer set by this agent fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId, _tag: u64) {}

    /// Upcasts for post-run result extraction.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run result extraction.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// An action requested by an agent during a callback, applied by the engine
/// once the callback returns.
#[derive(Debug)]
pub(crate) enum Command {
    Send {
        dst: Destination,
        packet: OutPacket,
    },
    SetTimer {
        id: TimerId,
        fire_at: SimTime,
        tag: u64,
    },
    CancelTimer {
        id: TimerId,
    },
    Emit {
        event: ObsEvent,
    },
}

/// The execution context handed to agent callbacks.
///
/// Provides the simulation clock, the host's identity and hardware class,
/// deterministic randomness, group membership lookups, and the ability to
/// send packets and manage timers. Mutating calls are buffered and applied
/// by the engine after the callback returns, in call order.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) machine: MachineClass,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) groups: &'a [Vec<NodeId>],
    /// Borrowed from the engine and reused across callbacks, so buffering
    /// commands allocates nothing once the capacity is warm.
    pub(crate) commands: &'a mut Vec<Command>,
    pub(crate) timers: &'a mut TimerTable,
    /// Whether a structured-trace sink is installed on the simulation;
    /// when false, [`Ctx::emit`] never even constructs its event.
    pub(crate) obs: bool,
}

impl<'a> Ctx<'a> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The hardware class of this host.
    pub fn machine(&self) -> MachineClass {
        self.machine
    }

    /// This host's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The members of `group`, in registration order.
    ///
    /// # Panics
    ///
    /// Panics if `group` was not created in this simulation.
    pub fn members(&self, group: GroupId) -> &[NodeId] {
        &self.groups[group.index()]
    }

    /// Sends `packet` towards `dst` (a node or a group).
    ///
    /// Delivery pays, in order: sender CPU cost, sender egress serialization,
    /// propagation, receiver ingress serialization, and receiver CPU cost.
    /// Multicast sends serialize once at the sender and fan out at the
    /// switch, like IP multicast on a switched LAN.
    pub fn send(&mut self, dst: impl Into<Destination>, packet: OutPacket) {
        self.commands.push(Command::Send {
            dst: dst.into(),
            packet,
        });
    }

    /// Arms a timer to fire after `delay`, delivering `tag` to
    /// [`Agent::on_timer`]. Returns a handle usable with
    /// [`Ctx::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.timers.arm();
        self.commands.push(Command::SetTimer {
            id,
            fire_at: self.now + delay,
            tag,
        });
        id
    }

    /// Cancels a previously set timer. Cancelling an already-fired or
    /// already-cancelled timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.commands.push(Command::CancelTimer { id });
    }

    /// Whether a structured-trace sink is installed. Protocol code can use
    /// this to skip expensive event preparation when nobody is listening.
    pub fn observed(&self) -> bool {
        self.obs
    }

    /// Emits a structured [`ObsEvent`] into the simulation's trace sink.
    ///
    /// The closure is only invoked when a sink is installed, so call sites
    /// pay one branch (and no event construction) in unobserved runs.
    pub fn emit(&mut self, event: impl FnOnce() -> ObsEvent) {
        if self.obs {
            self.commands.push(Command::Emit { event: event() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_ctx<'a>(
        rng: &'a mut SimRng,
        groups: &'a [Vec<NodeId>],
        commands: &'a mut Vec<Command>,
        timers: &'a mut TimerTable,
    ) -> Ctx<'a> {
        Ctx {
            now: SimTime::from_micros(100),
            node: NodeId(0),
            machine: MachineClass::Pc3000,
            rng,
            groups,
            commands,
            timers,
            obs: true,
        }
    }

    #[test]
    fn set_timer_assigns_unique_ids_and_absolute_time() {
        let mut rng = SimRng::seed_from_u64(1);
        let groups = vec![];
        let mut commands = Vec::new();
        let mut timers = TimerTable::new();
        let mut ctx = make_ctx(&mut rng, &groups, &mut commands, &mut timers);
        let a = ctx.set_timer(SimDuration::from_micros(5), 7);
        let b = ctx.set_timer(SimDuration::from_micros(9), 8);
        assert_ne!(a, b);
        match &ctx.commands[0] {
            Command::SetTimer { fire_at, tag, .. } => {
                assert_eq!(*fire_at, SimTime::from_micros(105));
                assert_eq!(*tag, 7);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn send_buffers_command() {
        let mut rng = SimRng::seed_from_u64(1);
        let groups = vec![vec![NodeId(0), NodeId(1)]];
        let mut commands = Vec::new();
        let mut timers = TimerTable::new();
        let mut ctx = make_ctx(&mut rng, &groups, &mut commands, &mut timers);
        ctx.send(NodeId(1), OutPacket::new(10, ()));
        ctx.send(GroupId(0), OutPacket::new(20, ()));
        assert_eq!(ctx.commands.len(), 2);
        assert_eq!(ctx.members(GroupId(0)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn emit_is_gated_on_observation() {
        let mut rng = SimRng::seed_from_u64(1);
        let groups = vec![];
        let mut commands = Vec::new();
        let mut timers = TimerTable::new();
        let mut ctx = make_ctx(&mut rng, &groups, &mut commands, &mut timers);
        assert!(ctx.observed());
        ctx.emit(|| ObsEvent::EpochDropped { node: NodeId(0) });
        assert_eq!(ctx.commands.len(), 1);

        ctx.obs = false;
        let mut constructed = false;
        ctx.emit(|| {
            constructed = true;
            ObsEvent::EpochDropped { node: NodeId(0) }
        });
        assert!(!constructed, "event built despite no sink");
        assert_eq!(ctx.commands.len(), 1);
    }

    #[test]
    fn accessors_reflect_construction() {
        let mut rng = SimRng::seed_from_u64(1);
        let groups = vec![];
        let mut commands = Vec::new();
        let mut timers = TimerTable::new();
        let mut ctx = make_ctx(&mut rng, &groups, &mut commands, &mut timers);
        assert_eq!(ctx.now(), SimTime::from_micros(100));
        assert_eq!(ctx.node(), NodeId(0));
        assert_eq!(ctx.machine(), MachineClass::Pc3000);
        let _ = ctx.rng().next_u64();
    }
}
