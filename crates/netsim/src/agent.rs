//! The agent abstraction: protocol/application code that runs on simulated
//! hosts and reacts to packets and timers.

use std::any::Any;

use adamant_proto::ObsEvent;

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

    /// Called when a timer set by this agent fires, with the `tag` it was
    /// armed with. The engine never cancels a timer: an agent that no
    /// longer wants one ignores its tag.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

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
        fire_at: SimTime,
        tag: u64,
    },
    /// A core's trace event, pushed only by [`SimDriver`](crate::SimDriver)
    /// and only when a sink is installed.
    Emit {
        event: ObsEvent,
    },
}

/// The execution context handed to agent callbacks.
///
/// Provides the simulation clock, the host's identity and hardware class,
/// deterministic randomness, group membership lookups, and the ability to
/// send packets and set timers. Mutating calls are buffered and applied
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
    /// Whether a structured-trace sink is installed on the simulation.
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

    /// Arms a timer to fire after `delay`, handing `tag` back to
    /// [`Agent::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.commands.push(Command::SetTimer {
            fire_at: self.now + delay,
            tag,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_ctx<'a>(
        rng: &'a mut SimRng,
        groups: &'a [Vec<NodeId>],
        commands: &'a mut Vec<Command>,
    ) -> Ctx<'a> {
        Ctx {
            now: SimTime::from_micros(100),
            node: NodeId(0),
            machine: MachineClass::Pc3000,
            rng,
            groups,
            commands,
            obs: true,
        }
    }

    #[test]
    fn set_timer_buffers_absolute_time_and_tag() {
        let mut rng = SimRng::seed_from_u64(1);
        let groups = vec![];
        let mut commands = Vec::new();
        let mut ctx = make_ctx(&mut rng, &groups, &mut commands);
        ctx.set_timer(SimDuration::from_micros(5), 7);
        ctx.set_timer(SimDuration::from_micros(9), 8);
        let armed: Vec<_> = commands
            .iter()
            .map(|c| match c {
                Command::SetTimer { fire_at, tag } => (*fire_at, *tag),
                other => panic!("unexpected command {other:?}"),
            })
            .collect();
        assert_eq!(
            armed,
            vec![
                (SimTime::from_micros(105), 7),
                (SimTime::from_micros(109), 8)
            ]
        );
    }

    #[test]
    fn send_buffers_command() {
        let mut rng = SimRng::seed_from_u64(1);
        let groups = vec![vec![NodeId(0), NodeId(1)]];
        let mut commands = Vec::new();
        let mut ctx = make_ctx(&mut rng, &groups, &mut commands);
        ctx.send(NodeId(1), OutPacket::empty(10));
        ctx.send(GroupId(0), OutPacket::empty(20));
        assert_eq!(ctx.commands.len(), 2);
        assert_eq!(ctx.members(GroupId(0)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn accessors_reflect_construction() {
        let mut rng = SimRng::seed_from_u64(1);
        let groups = vec![];
        let mut commands = Vec::new();
        let mut ctx = make_ctx(&mut rng, &groups, &mut commands);
        assert_eq!(ctx.now(), SimTime::from_micros(100));
        assert_eq!(ctx.node(), NodeId(0));
        assert_eq!(ctx.machine(), MachineClass::Pc3000);
        let _ = ctx.rng().next_u64();
    }
}
