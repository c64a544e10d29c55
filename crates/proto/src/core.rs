//! The sans-I/O protocol contract: typed inputs in, typed effects out.
//!
//! A [`ProtocolCore`] is a pure state machine. It owns no sockets, reads no
//! clock, and spawns no timers — the driver feeds it [`Input`]s (each
//! stamped with the driver's current time) and collects the [`Effect`]s it
//! wants performed. The same core therefore runs unchanged under the
//! deterministic simulator (`adamant-netsim`), over real UDP sockets
//! (`adamant-rt`), or inside a test harness that replays a canned schedule.
//!
//! Determinism contract: given the same input sequence, the same entropy
//! stream, and the same membership view, a core must produce a
//! bit-identical effect stream. The property tests in this crate's
//! consumers enforce exactly that.

use crate::ids::{Destination, GroupId, NodeId, ProcessingCost};
use crate::obs::ObsEvent;
use crate::rng::{DetRng, Entropy};
use crate::time::{Span, TimePoint};
use crate::wire::WireMsg;

/// One typed input delivered to a protocol core by its driver.
#[derive(Debug)]
pub enum Input<'a> {
    /// The core was just installed; runs once before any other input.
    Start,
    /// A wire message arrived from `src`.
    PacketIn {
        /// The sending endpoint.
        src: NodeId,
        /// The decoded message (borrowed; cores clone what they keep).
        msg: &'a WireMsg,
    },
    /// A timer previously requested via [`Effect::SetTimer`] fired.
    TimerFired {
        /// The token the core received when it set the timer.
        token: TimerToken,
        /// The tag the core attached to the timer.
        tag: u64,
    },
    /// A driver liveness poll carrying nothing but the current time; cores
    /// with no periodic work ignore it.
    Tick,
}

/// Handle to a pending timer, allocated by [`Env::set_timer`].
///
/// Tokens count up from the default for the lifetime of the session, and
/// an [`EnvHost`] keeps counting across [`reseed`](EnvHost::reseed)s, so a
/// stale token can never alias a newer timer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(u64);

impl From<TimerToken> for u64 {
    fn from(token: TimerToken) -> u64 {
        token.0
    }
}

/// One side effect requested by a protocol core.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Transmit `msg` to `dst`.
    Send {
        /// Where the message is headed.
        dst: Destination,
        /// Wire size in bytes (payload plus framing) for the network model.
        size_bytes: u32,
        /// Statistics discriminator.
        tag: u16,
        /// Declared CPU cost for the simulated host model.
        cost: ProcessingCost,
        /// The message itself.
        msg: WireMsg,
    },
    /// Arm a timer firing `delay` from the input's timestamp.
    SetTimer {
        /// Token identifying the timer in a later
        /// [`TimerFired`](Input::TimerFired) or [`Effect::CancelTimer`].
        token: TimerToken,
        /// How far in the future the timer fires.
        delay: Span,
        /// Tag echoed back when the timer fires.
        tag: u64,
    },
    /// Disarm a previously set timer (no-op if already fired).
    CancelTimer {
        /// The timer to disarm.
        token: TimerToken,
    },
    /// Hand a fully recovered, in-order application sample up the stack.
    Deliver {
        /// Application sequence number.
        seq: u64,
        /// When the publisher stamped the sample.
        published_at: TimePoint,
        /// Whether the sample arrived through a recovery path.
        recovered: bool,
    },
    /// Record a protocol-behaviour trace event (only emitted when the
    /// driver declared itself observed).
    Trace(ObsEvent),
}

/// A driver's view of multicast membership, read-only from the core side.
pub trait Membership {
    /// Current members of `group` (including the local node, if joined).
    fn members(&self, group: GroupId) -> &[NodeId];
}

impl<T: AsRef<[Vec<NodeId>]>> Membership for T {
    fn members(&self, group: GroupId) -> &[NodeId] {
        &self.as_ref()[group.index()]
    }
}

/// The execution environment a driver lends to a core for one
/// [`step`](ProtocolCore::step): the input's timestamp, the endpoint
/// identity, entropy, membership, and the effect buffer.
pub struct Env<'a> {
    now: TimePoint,
    node: NodeId,
    cpu_scale: f64,
    observed: bool,
    rng: &'a mut dyn Entropy,
    groups: &'a dyn Membership,
    next_timer: &'a mut u64,
    effects: &'a mut Vec<Effect>,
}

impl<'a> Env<'a> {
    /// Assembles an environment for one step. Drivers call this; cores only
    /// consume it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        now: TimePoint,
        node: NodeId,
        cpu_scale: f64,
        observed: bool,
        rng: &'a mut dyn Entropy,
        groups: &'a dyn Membership,
        next_timer: &'a mut u64,
        effects: &'a mut Vec<Effect>,
    ) -> Self {
        Env {
            now,
            node,
            cpu_scale,
            observed,
            rng,
            groups,
            next_timer,
            effects,
        }
    }

    /// The timestamp of the input being processed.
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// The endpoint this core runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The CPU scale of the endpoint's machine class (1.0 = reference).
    /// Real-socket drivers report 1.0.
    pub fn cpu_scale(&self) -> f64 {
        self.cpu_scale
    }

    /// Whether anything consumes [`Effect::Trace`]; [`emit`](Self::emit)
    /// is free when this is `false`.
    pub fn observed(&self) -> bool {
        self.observed
    }

    /// The core's entropy stream.
    pub fn rng(&mut self) -> &mut dyn Entropy {
        self.rng
    }

    /// Current members of `group`.
    pub fn members(&self, group: GroupId) -> &'a [NodeId] {
        self.groups.members(group)
    }

    /// Requests transmission of `msg`.
    pub fn send(
        &mut self,
        dst: impl Into<Destination>,
        size_bytes: u32,
        tag: u16,
        cost: ProcessingCost,
        msg: WireMsg,
    ) {
        self.effects.push(Effect::Send {
            dst: dst.into(),
            size_bytes,
            tag,
            cost,
            msg,
        });
    }

    /// Arms a timer firing `delay` from now and returns its token.
    pub fn set_timer(&mut self, delay: Span, tag: u64) -> TimerToken {
        let token = TimerToken(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { token, delay, tag });
        token
    }

    /// Disarms `token` (no-op if it already fired).
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.effects.push(Effect::CancelTimer { token });
    }

    /// Hands a sample up the stack.
    pub fn deliver(&mut self, seq: u64, published_at: TimePoint, recovered: bool) {
        self.effects.push(Effect::Deliver {
            seq,
            published_at,
            recovered,
        });
    }

    /// Records a trace event, built for the node this core runs on. The
    /// closure runs only when the driver is observed, so unobserved runs
    /// never build events nobody consumes — and, crucially, never perturb
    /// determinism by doing so.
    pub fn emit(&mut self, event: impl FnOnce(NodeId) -> ObsEvent) {
        if self.observed {
            self.effects.push(Effect::Trace(event(self.node)));
        }
    }

    /// Number of effects currently buffered. Wrapper cores record this
    /// before delegating to an inner core so they can inspect (or veto)
    /// exactly the effects the inner step appended.
    pub fn effects_len(&self) -> usize {
        self.effects.len()
    }

    /// The effects appended since `mark` (a value previously returned by
    /// [`effects_len`](Self::effects_len)).
    pub fn effects_since(&self, mark: usize) -> &[Effect] {
        &self.effects[mark.min(self.effects.len())..]
    }

    /// Retains only the effects appended since `mark` for which `keep`
    /// returns `true`; effects buffered before `mark` are untouched. This
    /// is how wrapper cores suppress an inner core's effects (e.g. a
    /// duplicate delivery across reader incarnations) without the inner
    /// core knowing it is wrapped.
    pub fn retain_effects_since(&mut self, mark: usize, mut keep: impl FnMut(&Effect) -> bool) {
        let mark = mark.min(self.effects.len());
        let mut index = 0usize;
        self.effects.retain(|effect| {
            let kept = index < mark || keep(effect);
            index += 1;
            kept
        });
    }
}

/// A runtime-agnostic protocol state machine.
///
/// `Any + Send` so drivers can box cores, move them across threads (the
/// real-UDP runtime runs one event loop per endpoint), and downcast a
/// `dyn ProtocolCore` after a run by upcasting it to `dyn Any`.
pub trait ProtocolCore: std::any::Any + Send {
    /// Consumes one input, appending any requested effects to the
    /// environment's buffer.
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>);
}

/// A boxed core steps as the core it holds, so a host mounts the trait
/// objects a session builder returns like any other core.
impl<C: ProtocolCore + ?Sized> ProtocolCore for Box<C> {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        (**self).step(input, env);
    }
}

/// A self-contained host for stepping a core outside any driver: owns the
/// entropy stream, the membership table, and the effect buffer. Used by
/// the property tests, the NAK debugging harness, and the `proto_step`
/// micro-benchmark; the real-UDP driver embeds one per endpoint.
#[derive(Debug)]
pub struct EnvHost {
    node: NodeId,
    observed: bool,
    groups: Vec<Vec<NodeId>>,
    rng: DetRng,
    next_timer: u64,
}

impl EnvHost {
    /// A host for `node` with entropy seeded from `seed`, no groups, and
    /// tracing enabled.
    pub fn new(node: NodeId, seed: u64) -> Self {
        EnvHost {
            node,
            observed: true,
            groups: Vec::new(),
            rng: DetRng::seed_from_u64(seed),
            next_timer: 0,
        }
    }

    /// Replaces the membership table (builder-style).
    pub fn with_groups(mut self, groups: Vec<Vec<NodeId>>) -> Self {
        self.groups = groups;
        self
    }

    /// Sets whether [`Effect::Trace`] is produced (builder-style).
    pub fn with_observed(mut self, observed: bool) -> Self {
        self.observed = observed;
        self
    }

    /// Restarts the entropy stream from `seed` for the endpoint's next
    /// incarnation, keeping the groups and the timer counter, so no token is
    /// handed out twice; returns the first token the incarnation gets.
    pub fn reseed(&mut self, seed: u64) -> TimerToken {
        self.rng = DetRng::seed_from_u64(seed);
        TimerToken(self.next_timer)
    }

    /// The endpoint this host represents.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Mutable access to the membership table (mid-session joins/leaves).
    pub fn groups_mut(&mut self) -> &mut Vec<Vec<NodeId>> {
        &mut self.groups
    }

    /// Steps `core` once at `now`, appending its effects to `out`.
    pub fn step_into<C: ProtocolCore + ?Sized>(
        &mut self,
        core: &mut C,
        now: TimePoint,
        input: Input<'_>,
        out: &mut Vec<Effect>,
    ) {
        let mut env = Env::new(
            now,
            self.node,
            1.0, // the reference machine class
            self.observed,
            &mut self.rng,
            &self.groups,
            &mut self.next_timer,
            out,
        );
        core.step(input, &mut env);
    }

    /// Steps `core` once at `now` and returns the effects it produced.
    pub fn step<C: ProtocolCore + ?Sized>(
        &mut self,
        core: &mut C,
        now: TimePoint,
        input: Input<'_>,
    ) -> Vec<Effect> {
        let mut out = Vec::new();
        self.step_into(core, now, input, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FinMsg;

    /// Replies to every packet with a FIN and keeps one periodic timer.
    struct Pong {
        period: Span,
        pings: u64,
    }

    impl ProtocolCore for Pong {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start => {
                    let phase = Span::from_nanos(env.rng().next_below(1_000));
                    env.set_timer(phase, 1);
                }
                Input::PacketIn { src, .. } => {
                    self.pings += 1;
                    env.send(
                        src,
                        64,
                        7,
                        ProcessingCost::FREE,
                        WireMsg::Fin(FinMsg { total: self.pings }),
                    );
                    env.emit(|node| ObsEvent::SampleDuplicate {
                        node,
                        seq: self.pings,
                    });
                }
                Input::TimerFired { tag: 1, .. } => {
                    env.set_timer(self.period, 1);
                }
                Input::TimerFired { .. } | Input::Tick => {}
            }
        }
    }

    #[test]
    fn env_host_steps_and_collects_effects() {
        let mut host = EnvHost::new(NodeId(0), 7);
        let mut core = Pong {
            period: Span::from_millis(1),
            pings: 0,
        };
        let start = host.step(&mut core, TimePoint::ZERO, Input::Start);
        assert_eq!(start.len(), 1);
        let (token, tag) = match start[0] {
            Effect::SetTimer { token, tag, .. } => (token, tag),
            ref other => panic!("unexpected: {other:?}"),
        };
        let msg = WireMsg::Fin(FinMsg { total: 0 });
        let got = host.step(
            &mut core,
            TimePoint::from_micros(5),
            Input::PacketIn {
                src: NodeId(3),
                msg: &msg,
            },
        );
        assert_eq!(got.len(), 2);
        assert!(matches!(
            got[0],
            Effect::Send {
                dst: Destination::Node(NodeId(3)),
                size_bytes: 64,
                tag: 7,
                ..
            }
        ));
        assert_eq!(
            got[1],
            Effect::Trace(ObsEvent::SampleDuplicate {
                node: NodeId(0),
                seq: 1
            })
        );
        let again = host.step(
            &mut core,
            TimePoint::from_millis(1),
            Input::TimerFired { token, tag },
        );
        // Re-armed with a fresh token: the counter never reuses one.
        match again[0] {
            Effect::SetTimer { token: t2, .. } => assert_ne!(t2, token),
            ref other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unobserved_hosts_suppress_trace_effects() {
        let mut host = EnvHost::new(NodeId(0), 7).with_observed(false);
        let mut core = Pong {
            period: Span::from_millis(1),
            pings: 0,
        };
        host.step(&mut core, TimePoint::ZERO, Input::Start);
        let msg = WireMsg::Fin(FinMsg { total: 0 });
        let got = host.step(
            &mut core,
            TimePoint::from_micros(5),
            Input::PacketIn {
                src: NodeId(1),
                msg: &msg,
            },
        );
        assert!(got.iter().all(|e| !matches!(e, Effect::Trace(_))));
    }

    #[test]
    fn identical_hosts_produce_identical_effect_streams() {
        let run = || {
            let mut host = EnvHost::new(NodeId(0), 42);
            let mut core = Pong {
                period: Span::from_millis(1),
                pings: 0,
            };
            let mut all = host.step(&mut core, TimePoint::ZERO, Input::Start);
            let msg = WireMsg::Fin(FinMsg { total: 0 });
            for i in 0..10u64 {
                all.extend(host.step(
                    &mut core,
                    TimePoint::from_micros(i),
                    Input::PacketIn {
                        src: NodeId(1),
                        msg: &msg,
                    },
                ));
            }
            all
        };
        assert_eq!(run(), run());
    }
}
