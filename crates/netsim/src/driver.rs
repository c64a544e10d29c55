//! Adapter that runs a sans-I/O [`ProtocolCore`] as a simulator [`Agent`].
//!
//! The protocol cores in `adamant-proto` know nothing about the simulator:
//! they consume typed [`Input`]s and emit typed [`Effect`]s. [`SimDriver`]
//! closes the loop — each agent callback is translated into one core step,
//! and the resulting effects are replayed into the [`Ctx`] *in emission
//! order, within the same callback*. Because [`Ctx`] buffers commands and
//! the engine applies them after the callback in call order, a core stepped
//! through this driver produces exactly the command sequence the equivalent
//! hand-written agent would have: same timer order, same rng draw order,
//! same trace — byte-identical golden traces.
//!
//! A timer has one identity, the core's [`TimerToken`]: the driver arms the
//! engine timer with the token's value and keeps one small list of pending
//! `(token, tag)` pairs, searched linearly. The engine cancels nothing, so
//! a cancelled timer still pops; its token is no longer on the list and
//! the fire is dropped before the core is stepped. The list stays bounded
//! by the number of *pending* timers (a handful per core), which is why a
//! scan beats a hash map.

use std::any::Any;
use std::mem;

use adamant_proto::{Effect, Env, Input, ProtocolCore, TimerToken};

use crate::agent::{Agent, Command, Ctx};
use crate::packet::{OutPacket, Packet};

/// Runs a [`ProtocolCore`] on a simulated host.
///
/// Packets exchanged through this driver carry a
/// [`WireMsg`](adamant_proto::WireMsg); bodiless packets are ignored (the
/// core never sees them). [`Agent::as_any`] exposes the *core*, not the
/// driver, so a harness reads a node back as the type it mounted: a session
/// reader as `sim.agent::<Box<dyn DataReader>>(node)` whatever the
/// protocol, a hand-mounted core as its own type.
pub struct SimDriver<C: ProtocolCore> {
    core: C,
    next_timer: u64,
    /// Armed timers that have neither fired nor been cancelled, with the
    /// core's tag.
    pending: Vec<(TimerToken, u64)>,
    /// Reused across callbacks so steady-state pumping allocates nothing.
    effects: Vec<Effect>,
}

impl<C: ProtocolCore> SimDriver<C> {
    /// Wraps `core` for installation on a simulated host.
    pub fn new(core: C) -> Self {
        SimDriver {
            core,
            next_timer: 0,
            pending: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// The wrapped core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// Mutable access to the wrapped core.
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// Steps the core once and replays its effects into `ctx`.
    fn pump(&mut self, ctx: &mut Ctx<'_>, input: Input<'_>) {
        let mut effects = mem::take(&mut self.effects);
        {
            let mut env = Env::new(
                ctx.now,
                ctx.node,
                ctx.machine.cpu_scale(),
                ctx.obs,
                &mut *ctx.rng,
                &ctx.groups,
                &mut self.next_timer,
                &mut effects,
            );
            self.core.step(input, &mut env);
        }
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    dst,
                    size_bytes,
                    tag,
                    cost,
                    msg,
                } => ctx.send(
                    dst,
                    OutPacket {
                        size_bytes,
                        tag,
                        cost,
                        msg: Some(msg),
                    },
                ),
                Effect::SetTimer { token, delay, tag } => {
                    self.pending.push((token, tag));
                    ctx.set_timer(delay, token.into());
                }
                Effect::CancelTimer { token } => {
                    if let Some(at) = self.pending.iter().position(|&(t, _)| t == token) {
                        self.pending.swap_remove(at);
                    }
                }
                // Delivery bookkeeping (reception logs, latency records) is
                // core-internal state read back through `as_any`; the
                // simulator itself consumes nothing on delivery.
                Effect::Deliver { .. } => {}
                // The core traces only when `ctx.obs` said a sink listens.
                Effect::Trace(event) => ctx.commands.push(Command::Emit { event }),
            }
        }
        self.effects = effects;
    }
}

impl<C: ProtocolCore> Agent for SimDriver<C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx, Input::Start);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let Some(msg) = &packet.msg {
            self.pump(
                ctx,
                Input::PacketIn {
                    src: packet.src,
                    msg,
                },
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // A token no longer pending was cancelled: drop the fire unseen.
        let Some(at) = self
            .pending
            .iter()
            .position(|&(t, _)| u64::from(t) == token)
        else {
            return;
        };
        let (token, tag) = self.pending.swap_remove(at);
        self.pump(ctx, Input::TimerFired { token, tag });
    }

    fn as_any(&self) -> &dyn Any {
        &self.core
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        &mut self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Bandwidth, HostConfig, MachineClass};
    use crate::packet::NodeId;
    use crate::sim::Simulation;
    use crate::time::SimDuration;
    use adamant_proto::wire::FinMsg;
    use adamant_proto::{MemorySink, ObsEvent, ProcessingCost, Span, WireMsg};

    /// Sends one FIN per timer firing; counts FINs received.
    struct Echo {
        peer: NodeId,
        period: Span,
        sent: u64,
        received: u64,
        stop_after: u64,
    }

    impl ProtocolCore for Echo {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start => {
                    env.set_timer(self.period, 1);
                }
                Input::TimerFired { tag: 1, .. } => {
                    self.sent += 1;
                    env.send(
                        self.peer,
                        64,
                        0,
                        ProcessingCost::FREE,
                        WireMsg::Fin(FinMsg { total: self.sent }),
                    );
                    env.emit(|node| ObsEvent::Retransmitted {
                        node,
                        seq: self.sent,
                    });
                    if self.sent < self.stop_after {
                        env.set_timer(self.period, 1);
                    }
                }
                Input::PacketIn { msg, .. } => {
                    if matches!(msg, WireMsg::Fin(_)) {
                        self.received += 1;
                    }
                }
                Input::TimerFired { .. } | Input::Tick => {}
            }
        }
    }

    fn host() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    #[test]
    fn driver_bridges_timers_packets_and_traces() {
        let mut sim = Simulation::new(11);
        sim.set_obs_sink(MemorySink::new());
        let a = sim.add_node(
            host(),
            SimDriver::new(Echo {
                peer: NodeId(1),
                period: Span::from_millis(1),
                sent: 0,
                received: 0,
                stop_after: 5,
            }),
        );
        let b = sim.add_node(
            host(),
            SimDriver::new(Echo {
                peer: NodeId(0),
                period: Span::from_millis(1),
                sent: 0,
                received: 0,
                stop_after: 5,
            }),
        );
        sim.run_for(SimDuration::from_millis(20));

        // as_any exposes the core, so harness downcasts skip the driver.
        let echo_a = sim.agent::<Echo>(a).expect("core downcast");
        assert_eq!(echo_a.sent, 5);
        assert_eq!(echo_a.received, 5);
        let echo_b = sim.agent::<Echo>(b).expect("core downcast");
        assert_eq!(echo_b.received, 5);

        let traces = sim.take_obs_events();
        let retransmits = traces
            .iter()
            .filter(|t| matches!(t.event, ObsEvent::Retransmitted { .. }))
            .count();
        assert_eq!(retransmits, 10, "5 per node, stamped with node identity");
        assert!(traces.iter().any(|t| {
            t.event
                == ObsEvent::Retransmitted {
                    node: NodeId(1),
                    seq: 3,
                }
        }));
    }

    /// Arms a long timer, cancels it on the first packet.
    struct CancelOnPacket {
        pending: Option<TimerToken>,
        fired: bool,
    }

    impl ProtocolCore for CancelOnPacket {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start => {
                    self.pending = Some(env.set_timer(Span::from_millis(5), 9));
                }
                Input::PacketIn { .. } => {
                    if let Some(token) = self.pending.take() {
                        env.cancel_timer(token);
                    }
                }
                Input::TimerFired { tag: 9, .. } => {
                    self.fired = true;
                }
                Input::TimerFired { .. } | Input::Tick => {}
            }
        }
    }

    /// Fires a single FIN at a peer shortly after start.
    struct OneShot {
        peer: NodeId,
    }

    impl ProtocolCore for OneShot {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start => {
                    env.set_timer(Span::from_millis(1), 1);
                }
                Input::TimerFired { tag: 1, .. } => {
                    env.send(
                        self.peer,
                        64,
                        0,
                        ProcessingCost::FREE,
                        WireMsg::Fin(FinMsg { total: 1 }),
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_cancelled_timer_never_reaches_its_core() {
        let mut sim = Simulation::new(3);
        let victim = sim.add_node(
            host(),
            SimDriver::new(CancelOnPacket {
                pending: None,
                fired: false,
            }),
        );
        sim.add_node(host(), SimDriver::new(OneShot { peer: victim }));
        sim.run_for(SimDuration::from_millis(20));
        let core = sim.agent::<CancelOnPacket>(victim).expect("downcast");
        assert!(core.pending.is_none(), "packet arrived before the timer");
        assert!(!core.fired, "cancelled timer must not fire");
    }

    /// Arms, cancels and re-arms timers on every firing.
    struct Storm {
        held: Vec<TimerToken>,
        fired: u32,
        budget: u32,
    }

    impl ProtocolCore for Storm {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start => {
                    for i in 0..8 {
                        self.held.push(env.set_timer(Span::from_micros(10 + i), i));
                    }
                }
                Input::TimerFired { token, .. } => {
                    self.fired += 1;
                    self.held.retain(|&t| t != token);
                    // Cancel one survivor (and, now and then, a token that
                    // already fired: a no-op the bridge must shrug off).
                    if let Some(victim) = self.held.pop() {
                        env.cancel_timer(victim);
                    }
                    if self.fired.is_multiple_of(3) {
                        env.cancel_timer(token);
                    }
                    while self.budget > 0 && self.held.len() < 6 {
                        self.budget -= 1;
                        let delay = Span::from_micros(1 + u64::from(self.budget % 5));
                        self.held.push(env.set_timer(delay, 0));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn fire_cancel_storm_leaves_the_pending_list_empty() {
        use crate::rng::SimRng;
        use crate::time::SimTime;

        let mut driver = SimDriver::new(Storm {
            held: Vec::new(),
            fired: 0,
            budget: 500,
        });
        let mut rng = SimRng::seed_from_u64(1);
        let mut commands = Vec::new();
        // The engine's side of the contract: every armed timer's tag, in
        // arming order. The engine cancels nothing, so each one pops.
        let mut queued: Vec<u64> = Vec::new();
        let mut firing = None;
        let mut pops = 0;
        loop {
            {
                let mut ctx = Ctx {
                    now: SimTime::from_micros(pops),
                    node: NodeId(0),
                    machine: MachineClass::Pc3000,
                    rng: &mut rng,
                    groups: &[],
                    commands: &mut commands,
                    obs: false,
                };
                match firing {
                    None => driver.on_start(&mut ctx),
                    Some(tag) => driver.on_timer(&mut ctx, tag),
                }
            }
            for command in commands.drain(..) {
                match command {
                    Command::SetTimer { tag, .. } => queued.push(tag),
                    other => panic!("unexpected command {other:?}"),
                }
            }
            assert_eq!(
                driver.pending.len(),
                driver.core().held.len(),
                "the pending list holds exactly the core's live timers"
            );
            if queued.is_empty() {
                break;
            }
            // Fire out of arming order, as deadlines would.
            firing = Some(queued.remove(pops as usize * 7 % queued.len()));
            pops += 1;
        }
        assert!(driver.pending.is_empty());
        assert_eq!(driver.core().budget, 0, "the storm ran its course");
        assert_eq!(pops, 8 + 500, "every arming popped once");
        assert!(driver.core().fired > 100);
        assert!(
            u64::from(driver.core().fired) < pops,
            "cancelled fires were dropped"
        );
    }

    /// Re-arms a 1 ms timer on every firing and counts the firings.
    struct Ticker {
        ticks: u32,
    }

    impl ProtocolCore for Ticker {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            if let Input::TimerFired { .. } = input {
                self.ticks += 1;
            }
            env.set_timer(Span::from_millis(1), 0);
        }
    }

    #[test]
    fn no_old_timer_reaches_a_restarted_core() {
        // The new incarnation's tokens count from zero again, so an old
        // timer carries a token the new pending list may hold; the epoch
        // check must drop it before the driver sees it.
        let mut sim = Simulation::new(1);
        let n = sim.add_node(host(), SimDriver::new(Ticker { ticks: 0 }));
        sim.run_until(crate::time::SimTime::from_micros(10_500));
        assert_eq!(sim.agent::<Ticker>(n).unwrap().ticks, 10);
        sim.crash_node(n);
        sim.restart_node(n, Box::new(SimDriver::new(Ticker { ticks: 0 })));
        sim.run_until(crate::time::SimTime::from_micros(20_500));
        assert_eq!(sim.agent::<Ticker>(n).unwrap().ticks, 10);
    }

    #[test]
    fn bodiless_packets_are_ignored() {
        let mut sim = Simulation::new(5);
        let victim = sim.add_node(
            host(),
            SimDriver::new(Echo {
                peer: NodeId(0),
                period: Span::from_millis(100),
                sent: 0,
                received: 0,
                stop_after: 0,
            }),
        );

        struct Noise {
            peer: NodeId,
        }
        impl Agent for Noise {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.peer, OutPacket::empty(64));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.add_node(host(), Noise { peer: victim });
        sim.run_for(SimDuration::from_millis(10));
        let echo = sim.agent::<Echo>(victim).expect("downcast");
        assert_eq!(echo.received, 0, "bodiless packets never reach cores");
    }
}
