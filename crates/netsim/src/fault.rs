//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is a script of timed fault events — host crashes and
//! restarts, network partitions and heals, mid-run link degradation, and
//! CPU contention — applied to a [`Simulation`] at exact simulated
//! instants. Because the plan runs the engine up to each fault time before
//! applying it, and faults consume no engine randomness, a scenario is
//! bit-for-bit reproducible from its seed: the same plan on the same
//! simulation yields the same trace, statistics, and agent state.
//!
//! This is the substrate for the chaos experiments: a scenario is a plan
//! plus assertions on how quickly QoS recovers after each fault.

use std::collections::BTreeMap;
use std::fmt;

use crate::agent::Agent;
use crate::host::Bandwidth;
use crate::packet::NodeId;
use crate::sim::{NetworkConfig, Simulation};
use crate::time::SimTime;

/// Builds a restarted node's agent from the crashed incarnation's agent
/// (if the plan crashed it and stashed the old agent). Lets a new
/// incarnation carry durable state — e.g. a reader's delivered-sample set —
/// across a crash, modelling state recovered from stable storage.
pub type RestartFn = Box<dyn FnOnce(Option<Box<dyn Agent>>) -> Box<dyn Agent>>;

/// One injectable fault.
pub enum Fault {
    /// Crash a host: its agent is removed, in-flight traffic to it is
    /// discarded, and its timers never fire again. The dead agent is
    /// stashed by the [`FaultPlan`] so a later [`Fault::RestartWith`] can
    /// inspect it.
    Crash {
        /// The host to take down.
        node: NodeId,
    },
    /// Restart a crashed host with a fresh agent (same [`NodeId`], host
    /// configuration, and group memberships).
    Restart {
        /// The host to bring back.
        node: NodeId,
        /// The new incarnation's agent.
        agent: Box<dyn Agent>,
    },
    /// Restart a crashed host with an agent built by a factory that
    /// receives the crashed incarnation's agent (when this plan crashed
    /// it). Models a process restarting from durable local storage.
    RestartWith {
        /// The host to bring back.
        node: NodeId,
        /// Builds the new incarnation from the old one.
        factory: RestartFn,
    },
    /// Split the network into islands that cannot exchange packets.
    Partition {
        /// The islands; unlisted nodes form one implicit island.
        islands: Vec<Vec<NodeId>>,
    },
    /// Remove any partition in effect.
    Heal,
    /// Replace the network configuration (propagation delay and loss
    /// model) for all transmissions from this instant on.
    SetNetwork {
        /// The new configuration.
        network: NetworkConfig,
    },
    /// Change one host's NIC bandwidth (e.g. provider throttling).
    SetBandwidth {
        /// The affected host.
        node: NodeId,
        /// The new link rate.
        bandwidth: Bandwidth,
    },
    /// Set one host's CPU contention multiplier (noisy neighbours).
    CpuContention {
        /// The affected host.
        node: NodeId,
        /// Stretch factor applied to every CPU cost (1.0 = uncontended).
        factor: f64,
    },
}

impl fmt::Debug for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Crash { node } => f.debug_struct("Crash").field("node", node).finish(),
            Fault::Restart { node, .. } => f
                .debug_struct("Restart")
                .field("node", node)
                .finish_non_exhaustive(),
            Fault::RestartWith { node, .. } => f
                .debug_struct("RestartWith")
                .field("node", node)
                .finish_non_exhaustive(),
            Fault::Partition { islands } => f
                .debug_struct("Partition")
                .field("islands", islands)
                .finish(),
            Fault::Heal => write!(f, "Heal"),
            Fault::SetNetwork { network } => f
                .debug_struct("SetNetwork")
                .field("network", network)
                .finish(),
            Fault::SetBandwidth { node, bandwidth } => f
                .debug_struct("SetBandwidth")
                .field("node", node)
                .field("bandwidth", bandwidth)
                .finish(),
            Fault::CpuContention { node, factor } => f
                .debug_struct("CpuContention")
                .field("node", node)
                .field("factor", factor)
                .finish(),
        }
    }
}

/// A script of timed [`Fault`]s driven against a [`Simulation`].
///
/// Build one with the `*_at` methods (order of insertion does not matter;
/// ties on time apply in insertion order), then drive the simulation with
/// [`run_until`](FaultPlan::run_until) instead of calling
/// [`Simulation::run_until`] directly.
///
/// # Examples
///
/// ```
/// use adamant_netsim::*;
/// use std::any::Any;
///
/// struct Idle;
/// impl Agent for Idle {
///     fn as_any(&self) -> &dyn Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// }
///
/// let mut sim = Simulation::new(1);
/// let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
/// let a = sim.add_node(cfg, Idle);
/// let b = sim.add_node(cfg, Idle);
///
/// let mut plan = FaultPlan::new()
///     .partition_at(SimTime::from_secs(1), vec![vec![a], vec![b]])
///     .heal_at(SimTime::from_secs(2))
///     .crash_at(SimTime::from_secs(3), b)
///     .restart_at(SimTime::from_secs(4), b, Box::new(Idle));
/// plan.run_until(&mut sim, SimTime::from_secs(5));
/// assert_eq!(sim.now(), SimTime::from_secs(5));
/// assert!(!sim.is_crashed(b));
/// ```
#[derive(Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, Fault)>,
    /// Agents harvested by `Crash` faults, keyed by node index, awaiting a
    /// `RestartWith` factory.
    crashed: BTreeMap<usize, Box<dyn Agent>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("events", &self.events)
            .field("crashed", &self.crashed.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan (driving a simulation with it is equivalent to
    /// [`Simulation::run_until`]).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `at` (builder-style).
    pub fn fault_at(mut self, at: SimTime, fault: Fault) -> Self {
        self.events.push((at, fault));
        self
    }

    /// Crashes `node` at `at`.
    pub fn crash_at(self, at: SimTime, node: NodeId) -> Self {
        self.fault_at(at, Fault::Crash { node })
    }

    /// Restarts `node` at `at` with a fresh agent.
    pub fn restart_at(self, at: SimTime, node: NodeId, agent: Box<dyn Agent>) -> Self {
        self.fault_at(at, Fault::Restart { node, agent })
    }

    /// Restarts `node` at `at` with an agent built from the crashed
    /// incarnation's agent (stashed by an earlier [`crash_at`] on this
    /// plan). The factory receives `None` if the plan never crashed the
    /// node or the stash was already consumed.
    ///
    /// [`crash_at`]: FaultPlan::crash_at
    pub fn restart_with_at(
        self,
        at: SimTime,
        node: NodeId,
        factory: impl FnOnce(Option<Box<dyn Agent>>) -> Box<dyn Agent> + 'static,
    ) -> Self {
        self.fault_at(
            at,
            Fault::RestartWith {
                node,
                factory: Box::new(factory),
            },
        )
    }

    /// Partitions the network into `islands` at `at`.
    pub fn partition_at(self, at: SimTime, islands: Vec<Vec<NodeId>>) -> Self {
        self.fault_at(at, Fault::Partition { islands })
    }

    /// Heals any partition at `at`.
    pub fn heal_at(self, at: SimTime) -> Self {
        self.fault_at(at, Fault::Heal)
    }

    /// Replaces the network configuration at `at`.
    pub fn set_network_at(self, at: SimTime, network: NetworkConfig) -> Self {
        self.fault_at(at, Fault::SetNetwork { network })
    }

    /// Changes `node`'s NIC bandwidth at `at`.
    pub fn set_bandwidth_at(self, at: SimTime, node: NodeId, bandwidth: Bandwidth) -> Self {
        self.fault_at(at, Fault::SetBandwidth { node, bandwidth })
    }

    /// Sets `node`'s CPU contention multiplier at `at`.
    pub fn cpu_contention_at(self, at: SimTime, node: NodeId, factor: f64) -> Self {
        self.fault_at(at, Fault::CpuContention { node, factor })
    }

    /// Number of faults still pending.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no faults are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the earliest pending fault, if any.
    pub fn next_fault_at(&self) -> Option<SimTime> {
        self.events.iter().map(|(at, _)| *at).min()
    }

    /// Runs `sim` until `deadline`, applying every pending fault scheduled
    /// at or before it at its exact instant. Faults scheduled in the past
    /// (before `sim.now()`) apply immediately. Faults after `deadline`
    /// stay pending, so the same plan can drive consecutive windows.
    pub fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        loop {
            // Earliest pending fault within the deadline; ties on time
            // break in insertion order for determinism.
            let next = self
                .events
                .iter()
                .enumerate()
                .filter(|(_, (at, _))| *at <= deadline)
                .min_by_key(|(_, (at, _))| *at)
                .map(|(i, _)| i);
            let Some(index) = next else {
                break;
            };
            let (at, fault) = self.events.remove(index);
            sim.run_until(at.max(sim.now()));
            self.apply(sim, fault);
        }
        sim.run_until(deadline);
    }

    fn apply(&mut self, sim: &mut Simulation, fault: Fault) {
        match fault {
            Fault::Crash { node } => {
                if let Some(agent) = sim.crash_node(node) {
                    self.crashed.insert(node.index(), agent);
                }
            }
            Fault::Restart { node, agent } => {
                self.crashed.remove(&node.index());
                sim.restart_node(node, agent);
            }
            Fault::RestartWith { node, factory } => {
                let previous = self.crashed.remove(&node.index());
                sim.restart_node(node, factory(previous));
            }
            Fault::Partition { islands } => sim.set_partition(&islands),
            Fault::Heal => sim.heal_partition(),
            Fault::SetNetwork { network } => sim.set_network(network),
            Fault::SetBandwidth { node, bandwidth } => sim.set_host_bandwidth(node, bandwidth),
            Fault::CpuContention { node, factor } => sim.set_cpu_contention(node, factor),
        }
    }

    /// Consumes the plan and runs `sim` until `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if any fault is scheduled after `deadline` (it would be
    /// silently lost; use [`run_until`](FaultPlan::run_until) to keep
    /// later faults pending instead).
    pub fn run(mut self, sim: &mut Simulation, deadline: SimTime) {
        if let Some((at, fault)) = self.events.iter().find(|(at, _)| *at > deadline) {
            panic!("fault {fault:?} at {at:?} is scheduled after the deadline {deadline:?}");
        }
        self.run_until(sim, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Ctx;
    use crate::host::{HostConfig, MachineClass};
    use crate::loss::LossModel;
    use crate::packet::{OutPacket, Packet};
    use crate::time::SimDuration;
    use std::any::Any;

    /// Sends one packet to `peer` every millisecond, forever; counts what
    /// it receives.
    struct Chatter {
        peer: NodeId,
        received: u32,
    }

    impl Chatter {
        fn new(peer: NodeId) -> Self {
            Chatter { peer, received: 0 }
        }
    }

    impl Agent for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            ctx.send(self.peer, OutPacket::empty(100));
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.received += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn chatter_pair() -> (Simulation, NodeId, NodeId) {
        let mut sim = Simulation::new(7);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        // Ids are assigned sequentially, so the pair can be pre-wired.
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        let a2 = sim.add_node(cfg, Chatter::new(b));
        let b2 = sim.add_node(cfg, Chatter::new(a));
        assert_eq!((a, b), (a2, b2));
        (sim, a, b)
    }

    fn received(sim: &Simulation, node: NodeId) -> u32 {
        sim.agent::<Chatter>(node).unwrap().received
    }

    #[test]
    fn empty_plan_is_plain_run_until() {
        let (mut sim, a, b) = chatter_pair();
        FaultPlan::new().run_until(&mut sim, SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert!(received(&sim, a) > 0);
        assert!(received(&sim, b) > 0);
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let (mut sim, a, b) = chatter_pair();
        let mut plan = FaultPlan::new()
            .partition_at(SimTime::from_millis(10), vec![vec![a], vec![b]])
            .heal_at(SimTime::from_millis(20));
        plan.run_until(&mut sim, SimTime::from_millis(15));
        let mid = received(&sim, b);
        assert!(sim.is_partitioned());
        plan.run_until(&mut sim, SimTime::from_millis(18));
        // Nothing crossed the partition.
        assert_eq!(received(&sim, b), mid);
        assert!(sim.stats().tag(0).partition_drops > 0);
        plan.run_until(&mut sim, SimTime::from_millis(30));
        assert!(!sim.is_partitioned());
        assert!(received(&sim, b) > mid);
    }

    #[test]
    fn crash_then_restart_rejoins() {
        let (mut sim, a, b) = chatter_pair();
        let mut plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(10), b)
            .restart_at(SimTime::from_millis(20), b, Box::new(Chatter::new(a)));
        plan.run_until(&mut sim, SimTime::from_millis(15));
        assert!(sim.is_crashed(b));
        assert!(sim.stats().tag(0).crash_drops > 0);
        plan.run_until(&mut sim, SimTime::from_millis(40));
        assert!(!sim.is_crashed(b));
        // The fresh incarnation started counting from zero and heard from
        // `a` after its restart.
        let after = received(&sim, b);
        assert!(after > 0 && after < 25, "restarted count {after}");
    }

    #[test]
    fn restart_with_hands_the_crashed_agent_to_the_factory() {
        let (mut sim, a, b) = chatter_pair();
        let mut plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(10), b)
            .restart_with_at(SimTime::from_millis(20), b, move |previous| {
                // The factory sees the dead incarnation's agent and can
                // carry its durable state into the new one.
                let old = previous.expect("crash stashed the agent");
                let old = old
                    .as_any()
                    .downcast_ref::<Chatter>()
                    .expect("stashed agent downcasts");
                let mut fresh = Chatter::new(a);
                fresh.received = old.received;
                Box::new(fresh)
            });
        plan.run_until(&mut sim, SimTime::from_millis(15));
        let carried = {
            assert!(sim.is_crashed(b));
            // Peek at what the stash will hand over.
            plan.crashed
                .get(&b.index())
                .and_then(|agent| agent.as_any().downcast_ref::<Chatter>())
                .map(|c| c.received)
                .expect("agent stashed")
        };
        assert!(carried > 0);
        plan.run_until(&mut sim, SimTime::from_millis(40));
        assert!(!sim.is_crashed(b));
        assert!(plan.crashed.is_empty(), "stash consumed by the factory");
        // The new incarnation resumed from the carried count instead of
        // zero, and kept hearing from `a` after the restart.
        assert!(received(&sim, b) > carried);
    }

    #[test]
    fn restart_with_factory_sees_none_without_a_stash() {
        let (mut sim, a, b) = chatter_pair();
        sim.crash_node(b); // crashed outside the plan: nothing stashed
        let mut plan =
            FaultPlan::new().restart_with_at(SimTime::from_millis(5), b, move |previous| {
                assert!(previous.is_none());
                Box::new(Chatter::new(a))
            });
        plan.run_until(&mut sim, SimTime::from_millis(10));
        assert!(!sim.is_crashed(b));
    }

    #[test]
    fn mid_run_loss_spike_applies() {
        let (mut sim, _a, b) = chatter_pair();
        let mut plan = FaultPlan::new().set_network_at(
            SimTime::from_millis(100),
            NetworkConfig {
                propagation: SimDuration::from_micros(50),
                loss: LossModel::Bernoulli(1.0),
            },
        );
        plan.run_until(&mut sim, SimTime::from_millis(100));
        let before = received(&sim, b);
        assert!(before > 0);
        plan.run_until(&mut sim, SimTime::from_millis(200));
        // Total loss: nothing new arrives (modulo one copy in flight).
        assert!(received(&sim, b) <= before + 1);
        assert!(sim.stats().tag(0).link_drops > 0);
    }

    #[test]
    fn past_faults_apply_immediately() {
        let (mut sim, a, b) = chatter_pair();
        sim.run_until(SimTime::from_millis(5));
        let mut plan = FaultPlan::new().crash_at(SimTime::from_millis(1), b);
        plan.run_until(&mut sim, SimTime::from_millis(5));
        assert!(sim.is_crashed(b));
        let _ = a;
    }

    #[test]
    fn faults_after_deadline_stay_pending() {
        let (mut sim, _a, b) = chatter_pair();
        let mut plan = FaultPlan::new().crash_at(SimTime::from_secs(1), b);
        plan.run_until(&mut sim, SimTime::from_millis(10));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.next_fault_at(), Some(SimTime::from_secs(1)));
        assert!(!sim.is_crashed(b));
    }

    #[test]
    #[should_panic(expected = "after the deadline")]
    fn consuming_run_rejects_unreachable_faults() {
        let (mut sim, _a, b) = chatter_pair();
        FaultPlan::new()
            .crash_at(SimTime::from_secs(10), b)
            .run(&mut sim, SimTime::from_secs(1));
    }

    #[test]
    fn identical_plans_are_bit_for_bit_deterministic() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(seed).with_network(NetworkConfig {
                propagation: SimDuration::from_micros(50),
                loss: LossModel::Bernoulli(0.2),
            });
            let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
            let a = NodeId::from_index(0);
            let b = NodeId::from_index(1);
            sim.add_node(cfg, Chatter::new(b));
            sim.add_node(cfg, Chatter::new(a));
            let plan = FaultPlan::new()
                .partition_at(SimTime::from_millis(20), vec![vec![a], vec![b]])
                .heal_at(SimTime::from_millis(40))
                .crash_at(SimTime::from_millis(60), b)
                .restart_at(SimTime::from_millis(80), b, Box::new(Chatter::new(a)))
                .cpu_contention_at(SimTime::from_millis(90), a, 3.0)
                .set_bandwidth_at(SimTime::from_millis(95), a, Bandwidth::MBPS_10);
            plan.run(&mut sim, SimTime::from_millis(120));
            (
                received(&sim, a),
                received(&sim, b),
                sim.stats().tag(0),
                sim.events_processed(),
            )
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
