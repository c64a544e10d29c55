//! The discrete-event simulation engine.

use adamant_proto::{DropReason, MemorySink, ObsEvent, TracedEvent};

use crate::agent::{Agent, Command, Ctx};
use crate::event::{EventKind, EventQueue, PacketSlab};
use crate::host::{Bandwidth, HostConfig, HostState};
use crate::loss::{ChannelState, LossModel};
use crate::packet::{Destination, GroupId, NodeId, OutPacket, Packet};
use crate::rng::SimRng;
use crate::stats::WireStats;
use crate::time::{SimDuration, SimTime};

/// Network-wide configuration: the switched-LAN model shared by all hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// One-way switch + propagation delay applied to every packet copy.
    pub propagation: SimDuration,
    /// How the network itself drops copies in flight.
    ///
    /// The paper's loss is injected at end hosts (receivers drop data
    /// packets programmatically), so this defaults to lossless; it exists
    /// for failure-injection extensions (uniform or Gilbert–Elliott
    /// bursty loss).
    pub loss: LossModel,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            // Store-and-forward switch plus short cable runs on a datacenter
            // LAN: tens of microseconds.
            propagation: SimDuration::from_micros(50),
            loss: LossModel::NONE,
        }
    }
}

/// A deterministic discrete-event simulation of hosts on a switched LAN.
///
/// Build one by adding hosts (with their [`Agent`]s) and multicast groups,
/// then drive it with [`run`](Simulation::run) or
/// [`run_until`](Simulation::run_until). After the run, downcast agents with
/// [`agent`](Simulation::agent) to read out results.
///
/// # Examples
///
/// ```
/// use adamant_netsim::*;
/// use std::any::Any;
///
/// struct Echo {
///     got: u32,
/// }
/// impl Agent for Echo {
///     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
///         self.got += 1;
///     }
///     fn as_any(&self) -> &dyn Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// }
///
/// struct Pinger {
///     peer: NodeId,
/// }
/// impl Agent for Pinger {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         ctx.send(self.peer, OutPacket::empty(64));
///     }
///     fn as_any(&self) -> &dyn Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// }
///
/// let mut sim = Simulation::new(7);
/// let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
/// let b = sim.add_node(cfg, Echo { got: 0 });
/// let _a = sim.add_node(cfg, Pinger { peer: b });
/// sim.run();
/// assert_eq!(sim.agent::<Echo>(b).unwrap().got, 1);
/// ```
pub struct Simulation {
    now: SimTime,
    queue: EventQueue,
    engine_rng: SimRng,
    node_rngs: Vec<SimRng>,
    hosts: Vec<HostState>,
    agents: Vec<Option<Box<dyn Agent>>>,
    /// Per-node incarnation counter, bumped on crash. Events carry the
    /// epoch current when they were scheduled; a mismatch at dispatch time
    /// means the event belongs to a dead incarnation and must not fire.
    epochs: Vec<u32>,
    /// Per-node partition island id; `None` means fully connected. Nodes
    /// in different islands cannot exchange packets.
    partition: Option<Vec<u32>>,
    /// Per-node CPU contention multiplier (1.0 = uncontended). Models
    /// noisy-neighbour load in a virtualised cloud host: every CPU cost on
    /// the node is stretched by this factor on top of its machine class.
    cpu_contention: Vec<f64>,
    groups: Vec<Vec<NodeId>>,
    stats: WireStats,
    network: NetworkConfig,
    /// Every packet copy between `transmit` and its delivery (or its
    /// dead-epoch drop); queue events name copies by slot.
    packets: PacketSlab,
    /// Reused across dispatches so steady-state agent callbacks append
    /// into warm capacity instead of allocating a fresh command vector.
    command_buf: Vec<Command>,
    /// Reused across transmissions for the multicast fan-out target list.
    fanout_buf: Vec<NodeId>,
    channel_states: Vec<ChannelState>,
    /// Structured observability sink; `None` (the default) makes every
    /// hook site a single branch.
    obs: Option<MemorySink>,
    cpu_busy: Vec<SimDuration>,
    next_wire_id: u64,
    events_processed: u64,
    event_limit: u64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.hosts.len())
            .field("groups", &self.groups.len())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation seeded with `seed`.
    ///
    /// Two simulations built identically from the same seed produce
    /// bit-identical runs.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            engine_rng: SimRng::seed_from_u64(seed ^ 0xADA_3A17),
            node_rngs: Vec::new(),
            hosts: Vec::new(),
            agents: Vec::new(),
            epochs: Vec::new(),
            partition: None,
            cpu_contention: Vec::new(),
            groups: Vec::new(),
            stats: WireStats::new(),
            network: NetworkConfig::default(),
            packets: PacketSlab::default(),
            command_buf: Vec::new(),
            fanout_buf: Vec::new(),
            channel_states: Vec::new(),
            obs: None,
            cpu_busy: Vec::new(),
            next_wire_id: 0,
            events_processed: 0,
            event_limit: u64::MAX,
        }
    }

    /// Replaces the network configuration (builder-style).
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Caps the total number of processed events; [`run`](Self::run) stops
    /// once the cap is hit. A safety net against runaway protocol loops.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Installs a structured observability sink (builder-style), which
    /// records every packet, fault and protocol event of the run. Disabled
    /// by default.
    pub fn with_obs_sink(mut self, sink: MemorySink) -> Self {
        self.obs = Some(sink);
        self
    }

    /// Installs (or replaces) the structured observability sink mid-build.
    pub fn set_obs_sink(&mut self, sink: MemorySink) {
        self.obs = Some(sink);
    }

    /// Removes the installed sink and returns its captured events (none
    /// when no sink was installed).
    pub fn take_obs_events(&mut self) -> Vec<TracedEvent> {
        self.obs
            .take()
            .map(|mut sink| sink.take_events())
            .unwrap_or_default()
    }

    /// Whether a structured observability sink is installed.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Records `event` at the current simulated time. A no-op without a
    /// sink; external drivers (fault plans, healing loops) use this to
    /// interleave their own events with the engine's.
    pub fn emit(&mut self, event: ObsEvent) {
        self.obs_emit(self.now, || event);
    }

    /// Runs `event` and records its result at `time` — only when a sink
    /// is installed, so hook sites never build events nobody consumes.
    #[inline]
    fn obs_emit(&mut self, time: SimTime, event: impl FnOnce() -> ObsEvent) {
        if let Some(sink) = self.obs.as_mut() {
            sink.record(time, event());
        }
    }

    /// Registers a human-readable label for a packet tag in the wire
    /// statistics.
    pub fn register_tag(&mut self, tag: u16, label: &str) {
        self.stats.register_tag(tag, label);
    }

    /// Adds a host running `agent` and returns its id. The agent's
    /// `on_start` fires at the current simulation time.
    pub fn add_node<A: Agent + 'static>(&mut self, config: HostConfig, agent: A) -> NodeId {
        self.add_boxed_node(config, Box::new(agent))
    }

    /// [`add_node`](Self::add_node) for an already-boxed agent (useful when
    /// the concrete agent type is chosen at runtime, e.g. by a fault plan
    /// or a protocol factory).
    pub fn add_boxed_node(&mut self, config: HostConfig, agent: Box<dyn Agent>) -> NodeId {
        let id = NodeId(self.hosts.len() as u32);
        self.hosts.push(HostState::new(config));
        self.agents.push(Some(agent));
        self.epochs.push(0);
        self.cpu_contention.push(1.0);
        let stream = id.0 as u64;
        self.node_rngs.push(self.engine_rng.fork(stream));
        self.channel_states.push(ChannelState::default());
        self.cpu_busy.push(SimDuration::ZERO);
        self.queue
            .schedule(self.now, 0, EventKind::Start { node: id });
        id
    }

    /// Creates a multicast group containing `members` and returns its id.
    pub fn create_group(&mut self, members: &[NodeId]) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(members.to_vec());
        id
    }

    /// Adds `node` to `group` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `group` does not exist.
    pub fn join_group(&mut self, group: GroupId, node: NodeId) {
        let members = &mut self.groups[group.index()];
        if !members.contains(&node) {
            members.push(node);
        }
    }

    /// Removes `node` from `group` (no-op if absent).
    ///
    /// # Panics
    ///
    /// Panics if `group` does not exist.
    pub fn leave_group(&mut self, group: GroupId, node: NodeId) {
        self.groups[group.index()].retain(|&n| n != node);
    }

    /// Current members of `group`.
    pub fn group_members(&self, group: GroupId) -> &[NodeId] {
        &self.groups[group.index()]
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The host configuration of `node`.
    pub fn host_config(&self, node: NodeId) -> HostConfig {
        self.hosts[node.index()].config
    }

    /// Wire-level statistics collected so far.
    pub fn stats(&self) -> &WireStats {
        &self.stats
    }

    /// Accumulated CPU busy time of `node` (protocol + middleware
    /// processing charged through the per-packet cost model).
    pub fn cpu_busy(&self, node: NodeId) -> SimDuration {
        self.cpu_busy[node.index()]
    }

    /// CPU utilisation of `node` as a fraction of elapsed simulated time
    /// (zero before any time has passed).
    pub fn cpu_utilization(&self, node: NodeId) -> f64 {
        let elapsed = self.now.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.cpu_busy[node.index()].as_secs_f64() / elapsed
    }

    /// Downcasts the agent on `node` to a concrete type.
    pub fn agent<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.agents[node.index()]
            .as_deref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutable downcast of the agent on `node`.
    pub fn agent_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.agents[node.index()]
            .as_deref_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    /// Runs until the event queue drains (or the event limit is reached).
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Processes one event. Returns `false` when the queue is empty or the
    /// event limit has been reached.
    pub fn step(&mut self) -> bool {
        if self.events_processed >= self.event_limit {
            return false;
        }
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.events_processed += 1;
        let target = match event.kind {
            EventKind::Start { node }
            | EventKind::Ingress { node, .. }
            | EventKind::Deliver { node, .. }
            | EventKind::Timer { node, .. } => node,
        };
        if event.epoch != self.epochs[target.index()] {
            // The target crashed (and possibly restarted) after this event
            // was scheduled: it belongs to a dead incarnation. A packet
            // copy still counts as traffic that hit a downed NIC; timers
            // and deliveries of the old incarnation vanish silently.
            match event.kind {
                EventKind::Ingress { slot, .. } => {
                    let packet = self.packets.take(slot);
                    self.stats.record_crash_drop(packet.tag);
                    self.obs_emit(self.now, || ObsEvent::PacketDropped {
                        node: target,
                        tag: packet.tag,
                        wire_id: packet.wire_id,
                        reason: DropReason::Crash,
                    });
                    return true;
                }
                // Frees the slab slot; the copy itself vanishes silently.
                EventKind::Deliver { slot, .. } => drop(self.packets.take(slot)),
                EventKind::Start { .. } | EventKind::Timer { .. } => {}
            }
            self.obs_emit(self.now, || ObsEvent::EpochDropped { node: target });
            return true;
        }
        match event.kind {
            EventKind::Start { node } => self.dispatch(node, AgentCall::Start),
            EventKind::Ingress { node, slot } => self.ingress(node, slot),
            EventKind::Deliver { node, slot } => {
                let packet = self.packets.take(slot);
                self.dispatch(node, AgentCall::Packet(packet));
            }
            EventKind::Timer { node, tag } => self.dispatch(node, AgentCall::Timer(tag)),
        }
        true
    }

    fn dispatch(&mut self, node: NodeId, call: AgentCall) {
        let mut agent = match self.agents[node.index()].take() {
            Some(a) => a,
            None => return, // agent removed (crashed host in failure tests)
        };
        let machine = self.hosts[node.index()].config.machine;
        // Lend the engine's reusable command buffer to the callback; agent
        // commands never re-enter dispatch (they only schedule queue
        // events), so the buffer is free again by the time we return it.
        let mut commands = std::mem::take(&mut self.command_buf);
        debug_assert!(commands.is_empty());
        {
            let mut ctx = Ctx {
                now: self.now,
                node,
                machine,
                rng: &mut self.node_rngs[node.index()],
                groups: &self.groups,
                commands: &mut commands,
                obs: self.obs.is_some(),
            };
            match call {
                AgentCall::Start => agent.on_start(&mut ctx),
                AgentCall::Packet(pkt) => agent.on_packet(&mut ctx, pkt),
                AgentCall::Timer(tag) => agent.on_timer(&mut ctx, tag),
            }
        }
        self.agents[node.index()] = Some(agent);
        for command in commands.drain(..) {
            self.apply(node, command);
        }
        self.command_buf = commands;
    }

    fn apply(&mut self, from: NodeId, command: Command) {
        match command {
            Command::Send { dst, packet } => self.transmit(from, dst, packet),
            Command::SetTimer { fire_at, tag } => {
                self.queue.schedule(
                    fire_at,
                    self.epochs[from.index()],
                    EventKind::Timer { node: from, tag },
                );
            }
            Command::Emit { event } => self.obs_emit(self.now, || event),
        }
    }

    /// Runs the sender half of the delivery pipeline and schedules the
    /// receiver half for each destination copy.
    fn transmit(&mut self, from: NodeId, dst: Destination, out: OutPacket) {
        let OutPacket {
            size_bytes,
            tag,
            cost,
            msg,
        } = out;
        let wire_id = self.next_wire_id;
        self.next_wire_id += 1;
        self.stats.record_send(from, tag, size_bytes);
        self.obs_emit(self.now, || ObsEvent::PacketSent {
            node: from,
            tag,
            wire_id,
            size_bytes,
        });

        // Sender side: CPU, then egress serialization (once, even for
        // multicast — the switch replicates). CPU contention stretches the
        // reference cost before the machine-class scaling in `occupy_cpu`.
        let contention = self.cpu_contention[from.index()];
        let contended_tx = cost.tx.scale(contention);
        let tx_cost = contended_tx.scale(self.hosts[from.index()].config.machine.cpu_scale());
        self.cpu_busy[from.index()] += tx_cost;
        let cpu_done = self.hosts[from.index()].occupy_cpu_scaled(self.now, tx_cost);
        let egress_done = self.hosts[from.index()].occupy_egress(cpu_done, size_bytes);
        let at_switch =
            egress_done + self.network.propagation + self.hosts[from.index()].config.uplink_delay;

        // Each copy but the last is parked as a clone and the last takes
        // the message itself: a Data or Heartbeat clone is a plain copy and
        // a Repair's or Discovery ad's body an `Arc`, so fan-out allocates
        // nothing, and a unicast NAK's list is moved. Parking waits for the
        // next survivor, which leaves the order of schedules unchanged.
        let copy = Packet {
            src: from,
            dst,
            size_bytes,
            tag,
            cost,
            msg,
            wire_id,
        };
        let mut held = None;
        // Fan-out targets go into a buffer reused across transmissions.
        let mut targets = std::mem::take(&mut self.fanout_buf);
        debug_assert!(targets.is_empty());
        match dst {
            Destination::Node(n) => targets.push(n),
            Destination::Group(g) => targets.extend(
                self.groups[g.index()]
                    .iter()
                    .copied()
                    .filter(|&n| n != from),
            ),
        }

        for &target in &targets {
            // Crash and partition filters come before the loss roll so that
            // they consume no randomness: injecting a fault never perturbs
            // the loss pattern seen by unaffected links.
            if self.agents[target.index()].is_none() {
                self.stats.record_crash_drop(tag);
                self.obs_emit(self.now, || ObsEvent::PacketDropped {
                    node: target,
                    tag,
                    wire_id,
                    reason: DropReason::Crash,
                });
                continue;
            }
            if !self.reachable(from, target) {
                self.stats.record_partition_drop(tag);
                self.obs_emit(self.now, || ObsEvent::PacketDropped {
                    node: target,
                    tag,
                    wire_id,
                    reason: DropReason::Partition,
                });
                continue;
            }
            if self.network.loss.can_drop()
                && self.channel_states[target.index()]
                    .should_drop(&self.network.loss, &mut self.engine_rng)
            {
                self.stats.record_link_drop(tag);
                self.obs_emit(self.now, || ObsEvent::PacketDropped {
                    node: target,
                    tag,
                    wire_id,
                    reason: DropReason::Link,
                });
                continue;
            }
            // Receiver side: the copy reaches the target's switch port at
            // `at_port`; ingress and CPU occupancy happen when that event
            // fires, so per-resource queueing is FIFO in true arrival
            // order (crucial when hosts have heterogeneous uplink delays).
            let at_port = at_switch + self.hosts[target.index()].config.uplink_delay;
            self.obs_emit(self.now, || ObsEvent::PacketEnqueued {
                node: target,
                tag,
                wire_id,
            });
            if let Some(prev) = held.replace((target, at_port)) {
                self.enqueue(prev, copy.clone());
            }
        }
        if let Some(last) = held {
            self.enqueue(last, copy);
        }
        targets.clear();
        self.fanout_buf = targets;
    }

    /// Parks `copy` and schedules its arrival at `target`'s switch port.
    fn enqueue(&mut self, (target, at_port): (NodeId, SimTime), copy: Packet) {
        let slot = self.packets.put(copy);
        self.queue.schedule(
            at_port,
            self.epochs[target.index()],
            EventKind::Ingress { node: target, slot },
        );
    }

    /// Receiver half of the delivery pipeline, run at switch-port arrival
    /// time: ingress serialization, then CPU, then agent delivery.
    fn ingress(&mut self, target: NodeId, slot: u32) {
        // Read in place: the copy stays parked until `Deliver` takes it.
        let packet = self.packets.get(slot);
        let (tag, wire_id, size_bytes) = (packet.tag, packet.wire_id, packet.size_bytes);
        let contention = self.cpu_contention[target.index()];
        let contended_rx = packet.cost.rx.scale(contention);
        let host = &mut self.hosts[target.index()];
        let ingress_done = host.occupy_ingress(self.now, size_bytes);
        let rx_cost = contended_rx.scale(host.config.machine.cpu_scale());
        let rx_done = host.occupy_cpu_scaled(ingress_done, rx_cost);
        self.cpu_busy[target.index()] += rx_cost;
        self.stats.record_delivery(target, tag, size_bytes, rx_done);
        self.obs_emit(rx_done, || ObsEvent::PacketDelivered {
            node: target,
            tag,
            wire_id,
            size_bytes,
        });
        self.queue.schedule(
            rx_done,
            self.epochs[target.index()],
            EventKind::Deliver { node: target, slot },
        );
    }

    /// Removes the agent from `node`, simulating a host crash. The node's
    /// incarnation epoch is bumped so everything already in flight to it —
    /// packet copies, pending deliveries, timers — is discarded instead of
    /// consuming host resources, and new sends bounce off the downed NIC
    /// (counted as [`crash_drops`](crate::TagCounters::crash_drops)).
    ///
    /// The returned agent is the crashed incarnation's final state, useful
    /// for post-mortem inspection in tests. [`restart_node`](Self::restart_node)
    /// brings the host back with a fresh agent.
    pub fn crash_node(&mut self, node: NodeId) -> Option<Box<dyn Agent>> {
        let agent = self.agents[node.index()].take();
        if agent.is_some() {
            self.epochs[node.index()] += 1;
            // No timer cleanup needed here: the dead incarnation's queued
            // timer events fail the epoch check when they pop.
            let epoch = self.epochs[node.index()];
            self.obs_emit(self.now, || ObsEvent::NodeCrashed { node, epoch });
        }
        agent
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.agents[node.index()].is_none()
    }

    /// Restarts a crashed host with a fresh `agent`, keeping its [`NodeId`],
    /// host configuration, and group memberships. The new incarnation's
    /// `on_start` fires at the current simulation time; nothing addressed to
    /// the previous incarnation can reach it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not crashed.
    pub fn restart_node(&mut self, node: NodeId, agent: Box<dyn Agent>) {
        assert!(
            self.agents[node.index()].is_none(),
            "restart_node: node {node:?} is not crashed"
        );
        self.agents[node.index()] = Some(agent);
        // A reboot clears NIC queues and any bursty-loss channel state.
        self.channel_states[node.index()] = ChannelState::default();
        let host = &mut self.hosts[node.index()];
        host.cpu_free_at = self.now;
        host.egress_free_at = self.now;
        host.ingress_free_at = self.now;
        self.queue.schedule(
            self.now,
            self.epochs[node.index()],
            EventKind::Start { node },
        );
        let epoch = self.epochs[node.index()];
        self.obs_emit(self.now, || ObsEvent::NodeRestarted { node, epoch });
    }

    /// Replaces the network configuration mid-run: the new propagation
    /// delay and loss model apply to every transmission from now on
    /// (copies already in flight keep their old timing).
    pub fn set_network(&mut self, network: NetworkConfig) {
        self.network = network;
        self.obs_emit(self.now, || ObsEvent::NetworkChanged {
            propagation_ns: network.propagation.as_nanos(),
            lossy: network.loss.can_drop(),
        });
    }

    /// The current network configuration.
    pub fn network(&self) -> NetworkConfig {
        self.network
    }

    /// Changes one host's NIC bandwidth mid-run (e.g. a cloud provider
    /// throttling a tenant). Applies to transmissions from now on.
    pub fn set_host_bandwidth(&mut self, node: NodeId, bandwidth: Bandwidth) {
        self.hosts[node.index()].config.bandwidth = bandwidth;
        self.obs_emit(self.now, || ObsEvent::BandwidthChanged {
            node,
            bps: bandwidth.bps(),
        });
    }

    /// Sets the CPU contention multiplier of `node` (1.0 = uncontended).
    /// Every subsequent CPU cost on the node is stretched by `factor`,
    /// modelling noisy-neighbour interference on a shared cloud host.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_cpu_contention(&mut self, node: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "contention factor must be finite and positive, got {factor}"
        );
        self.cpu_contention[node.index()] = factor;
        self.obs_emit(self.now, || ObsEvent::ContentionChanged {
            node,
            factor_milli: (factor * 1_000.0).round() as u64,
        });
    }

    /// The current CPU contention multiplier of `node`.
    pub fn cpu_contention(&self, node: NodeId) -> f64 {
        self.cpu_contention[node.index()]
    }

    /// Partitions the network into islands: nodes in different islands
    /// cannot exchange packets (copies are counted as
    /// [`partition_drops`](crate::TagCounters::partition_drops)). Nodes not
    /// listed in any island form one implicit island of their own.
    /// Replaces any partition already in effect.
    ///
    /// # Panics
    ///
    /// Panics if a node appears in more than one island.
    pub fn set_partition(&mut self, islands: &[Vec<NodeId>]) {
        let mut assignment = vec![0u32; self.hosts.len()];
        for (i, island) in islands.iter().enumerate() {
            for &node in island {
                assert_eq!(
                    assignment[node.index()],
                    0,
                    "set_partition: {node:?} appears in more than one island"
                );
                assignment[node.index()] = (i + 1) as u32;
            }
        }
        self.partition = Some(assignment);
        self.obs_emit(self.now, || ObsEvent::PartitionChanged {
            islands: islands.len() as u32,
        });
    }

    /// Removes any partition; all hosts can reach each other again.
    pub fn heal_partition(&mut self) {
        self.partition = None;
        self.obs_emit(self.now, || ObsEvent::PartitionChanged { islands: 0 });
    }

    /// Whether a partition is currently in effect.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Whether packets from `a` can currently reach `b` (ignoring crashes
    /// and loss — purely the partition topology).
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(islands) => {
                let of = |n: NodeId| islands.get(n.index()).copied().unwrap_or(0);
                of(a) == of(b)
            }
        }
    }
}

enum AgentCall {
    Start,
    Packet(Packet),
    Timer(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bandwidth, MachineClass};
    use std::any::Any;

    /// Records arrival times of every packet it sees.
    struct Recorder {
        arrivals: Vec<(SimTime, u64)>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                arrivals: Vec::new(),
            }
        }
    }

    impl Agent for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.arrivals.push((ctx.now(), pkt.wire_id));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `count` packets of `size` to `dst` at start.
    struct Blaster {
        dst: Destination,
        count: u32,
        size: u32,
        cost: crate::ProcessingCost,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.count {
                ctx.send(self.dst, OutPacket::empty(self.size).cost(self.cost));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn gbit_host() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    #[test]
    fn unicast_latency_matches_pipeline_math() {
        let mut sim = Simulation::new(1).with_network(NetworkConfig {
            propagation: SimDuration::from_micros(50),
            loss: LossModel::NONE,
        });
        let rx = sim.add_node(gbit_host(), Recorder::new());
        let _tx = sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 1,
                size: 1_250, // 10 µs at 1 Gb/s
                cost: crate::ProcessingCost::FREE,
            },
        );
        sim.run();
        let arrivals = &sim.agent::<Recorder>(rx).unwrap().arrivals;
        // egress 10 µs + propagation 50 µs + ingress 10 µs = 70 µs.
        assert_eq!(arrivals, &vec![(SimTime::from_micros(70), 0)]);
    }

    #[test]
    fn cpu_cost_scales_latency_on_slow_machine() {
        let run = |machine: MachineClass| {
            let mut sim = Simulation::new(1);
            let rx = sim.add_node(HostConfig::new(machine, Bandwidth::GBPS_1), Recorder::new());
            let _tx = sim.add_node(
                gbit_host(),
                Blaster {
                    dst: rx.into(),
                    count: 1,
                    size: 125,
                    cost: crate::ProcessingCost::new(
                        SimDuration::ZERO,
                        SimDuration::from_micros(100),
                    ),
                },
            );
            sim.run();
            sim.agent::<Recorder>(rx).unwrap().arrivals[0].0
        };
        let fast = run(MachineClass::Pc3000);
        let slow = run(MachineClass::Pc850);
        assert_eq!(
            slow.as_nanos() - fast.as_nanos(),
            // 100 µs scaled ×3.5 minus ×1.0 → 250 µs extra.
            SimDuration::from_micros(250).as_nanos()
        );
    }

    #[test]
    fn back_to_back_sends_queue_at_egress() {
        let mut sim = Simulation::new(1);
        let slow_net = HostConfig::new(MachineClass::Pc3000, Bandwidth::MBPS_10);
        let rx = sim.add_node(slow_net, Recorder::new());
        let _tx = sim.add_node(
            slow_net,
            Blaster {
                dst: rx.into(),
                count: 3,
                size: 1_250, // 1 ms each at 10 Mb/s
                cost: crate::ProcessingCost::FREE,
            },
        );
        sim.run();
        let arrivals = &sim.agent::<Recorder>(rx).unwrap().arrivals;
        assert_eq!(arrivals.len(), 3);
        // Ingress is also 1 ms per packet, but egress spacing dominates and
        // packets arrive exactly 1 ms apart.
        let gaps: Vec<u64> = arrivals
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_nanos())
            .collect();
        assert_eq!(gaps, vec![1_000_000, 1_000_000]);
    }

    #[test]
    fn multicast_reaches_all_members_except_sender() {
        let mut sim = Simulation::new(1);
        let cfg = gbit_host();
        let r1 = sim.add_node(cfg, Recorder::new());
        let r2 = sim.add_node(cfg, Recorder::new());
        let r3 = sim.add_node(cfg, Recorder::new());
        let tx = sim.add_node(cfg, Recorder::new());
        let group = sim.create_group(&[r1, r2, r3, tx]);
        // Replace the sender with a blaster targeting the group.
        sim.agents[tx.index()] = Some(Box::new(Blaster {
            dst: group.into(),
            count: 1,
            size: 100,
            cost: crate::ProcessingCost::FREE,
        }));
        sim.run();
        for r in [r1, r2, r3] {
            assert_eq!(sim.agent::<Recorder>(r).unwrap().arrivals.len(), 1);
        }
        // Sender did not deliver to itself.
        assert_eq!(sim.stats().tag(0).deliveries, 3);
        assert_eq!(sim.stats().tag(0).sends, 1);
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(seed).with_network(NetworkConfig {
                propagation: SimDuration::from_micros(50),
                loss: LossModel::Bernoulli(0.3),
            });
            let rx = sim.add_node(gbit_host(), Recorder::new());
            let _tx = sim.add_node(
                gbit_host(),
                Blaster {
                    dst: rx.into(),
                    count: 50,
                    size: 100,
                    cost: crate::ProcessingCost::FREE,
                },
            );
            sim.run();
            sim.agent::<Recorder>(rx).unwrap().arrivals.clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn link_loss_drops_copies() {
        let mut sim = Simulation::new(42).with_network(NetworkConfig {
            propagation: SimDuration::from_micros(50),
            loss: LossModel::Bernoulli(0.5),
        });
        let rx = sim.add_node(gbit_host(), Recorder::new());
        let _tx = sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 1_000,
                size: 100,
                cost: crate::ProcessingCost::FREE,
            },
        );
        sim.run();
        let got = sim.agent::<Recorder>(rx).unwrap().arrivals.len();
        assert!(got > 350 && got < 650, "got {got}, expected ~500");
        assert_eq!(sim.stats().tag(0).link_drops as usize, 1_000 - got);
    }

    #[test]
    fn timers_fire_in_deadline_order_with_their_tags() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Agent for TimerUser {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(3), 3);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_millis(2), 2);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push(tag);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new(1);
        let n = sim.add_node(gbit_host(), TimerUser { fired: vec![] });
        sim.run();
        assert_eq!(sim.agent::<TimerUser>(n).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct Periodic;
        impl Agent for Periodic {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new(1);
        sim.add_node(gbit_host(), Periodic);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        // Start + timers at 1..=10 ms.
        assert_eq!(sim.events_processed(), 11);
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(15));
    }

    #[test]
    fn event_limit_halts_runaway() {
        struct Loop;
        impl Agent for Loop {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new(1).with_event_limit(100);
        sim.add_node(gbit_host(), Loop);
        sim.run();
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut sim = Simulation::new(1);
        let rx = sim.add_node(gbit_host(), Recorder::new());
        let _tx = sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 5,
                size: 100,
                cost: crate::ProcessingCost::FREE,
            },
        );
        let taken = sim.crash_node(rx);
        assert!(taken.is_some());
        assert!(sim.is_crashed(rx));
        sim.run();
        assert!(sim.agent::<Recorder>(rx).is_none());
        // Sends bounced off the downed NIC: counted, never delivered.
        assert_eq!(sim.stats().tag(0).crash_drops, 5);
        assert_eq!(sim.stats().tag(0).deliveries, 0);
    }

    #[test]
    fn crash_discards_in_flight_events() {
        // Regression: copies already in flight to a node when it crashes
        // must be dropped at its NIC, not delivered to (or counted for) the
        // dead host.
        let mut sim = Simulation::new(1);
        let rx = sim.add_node(gbit_host(), Recorder::new());
        let _tx = sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 5,
                size: 100,
                cost: crate::ProcessingCost::FREE,
            },
        );
        // All five sends happen at t=0; copies are now in flight (ingress
        // at ~51 µs). Crash the receiver before any arrives.
        sim.run_until(SimTime::from_micros(10));
        sim.crash_node(rx);
        sim.run();
        let s = sim.stats().tag(0);
        assert_eq!(s.sends, 5);
        assert_eq!(s.deliveries, 0, "in-flight copies reached a dead host");
        assert_eq!(s.crash_drops, 5);
    }

    #[test]
    fn restart_does_not_leak_old_incarnation_timers() {
        struct Ticker {
            ticks: u32,
        }
        impl Agent for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                self.ticks += 1;
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new(1);
        let n = sim.add_node(gbit_host(), Ticker { ticks: 0 });
        sim.run_until(SimTime::from_millis(10));
        sim.crash_node(n);
        sim.restart_node(n, Box::new(Ticker { ticks: 0 }));
        sim.run_until(SimTime::from_millis(20));
        // Exactly the new incarnation's ticks: one per ms for 10 ms. If the
        // old incarnation's pending timer leaked through, there'd be 11+.
        assert_eq!(sim.agent::<Ticker>(n).unwrap().ticks, 10);
    }

    #[test]
    fn cpu_contention_stretches_processing() {
        let run = |factor: f64| {
            let mut sim = Simulation::new(1);
            let rx = sim.add_node(gbit_host(), Recorder::new());
            sim.set_cpu_contention(rx, factor);
            let _tx = sim.add_node(
                gbit_host(),
                Blaster {
                    dst: rx.into(),
                    count: 1,
                    size: 125,
                    cost: crate::ProcessingCost::new(
                        SimDuration::ZERO,
                        SimDuration::from_micros(100),
                    ),
                },
            );
            sim.run();
            (
                sim.agent::<Recorder>(rx).unwrap().arrivals[0].0,
                sim.cpu_busy(rx),
            )
        };
        let (base, base_busy) = run(1.0);
        let (contended, contended_busy) = run(4.0);
        // 100 µs rx cost stretched ×4 → 300 µs extra latency and busy time.
        assert_eq!(
            contended.as_nanos() - base.as_nanos(),
            SimDuration::from_micros(300).as_nanos()
        );
        assert_eq!(
            contended_busy.as_nanos() - base_busy.as_nanos(),
            SimDuration::from_micros(300).as_nanos()
        );
    }

    #[test]
    fn bandwidth_downgrade_slows_serialization() {
        let mut sim = Simulation::new(1);
        let rx = sim.add_node(gbit_host(), Recorder::new());
        let tx = sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 1,
                size: 1_250, // 10 µs at 1 Gb/s, 1 ms at 10 Mb/s
                cost: crate::ProcessingCost::FREE,
            },
        );
        sim.set_host_bandwidth(tx, Bandwidth::MBPS_10);
        sim.run();
        let arrival = sim.agent::<Recorder>(rx).unwrap().arrivals[0].0;
        // egress 1 ms + propagation 50 µs + ingress 10 µs.
        assert_eq!(arrival, SimTime::from_micros(1_060));
    }

    #[test]
    fn partition_respects_islands_and_default_island() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(gbit_host(), Recorder::new());
        let b = sim.add_node(gbit_host(), Recorder::new());
        let c = sim.add_node(gbit_host(), Recorder::new());
        sim.set_partition(&[vec![a], vec![b]]);
        assert!(sim.is_partitioned());
        assert!(!sim.reachable(a, b));
        assert!(!sim.reachable(a, c)); // c is in the implicit island
        assert!(sim.reachable(a, a));
        sim.heal_partition();
        assert!(sim.reachable(a, b));
    }

    #[test]
    #[should_panic(expected = "more than one island")]
    fn overlapping_islands_rejected() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(gbit_host(), Recorder::new());
        sim.set_partition(&[vec![a], vec![a]]);
    }

    #[test]
    #[should_panic(expected = "not crashed")]
    fn restart_of_live_node_rejected() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(gbit_host(), Recorder::new());
        sim.restart_node(a, Box::new(Recorder::new()));
    }

    #[test]
    fn quiescence_leaves_no_packet_in_the_slab() {
        let mut sim = Simulation::new(9).with_network(NetworkConfig {
            propagation: SimDuration::from_micros(50),
            loss: LossModel::Bernoulli(0.3),
        });
        let cfg = gbit_host();
        let members: Vec<NodeId> = (0..4).map(|_| sim.add_node(cfg, Recorder::new())).collect();
        let group = sim.create_group(&members);
        sim.add_node(
            cfg,
            Blaster {
                dst: group.into(),
                count: 50,
                size: 200,
                cost: crate::ProcessingCost::symmetric(SimDuration::from_micros(3)),
            },
        );
        sim.run_until(SimTime::from_micros(60));
        assert!(sim.packets.live() > 0, "copies are parked mid-run");
        sim.packets.assert_consistent();
        sim.run();
        assert_eq!(sim.packets.live(), 0);
        sim.packets.assert_consistent();
        let delivered: usize = members
            .iter()
            .map(|&m| sim.agent::<Recorder>(m).unwrap().arrivals.len())
            .sum();
        assert_eq!(delivered as u64, sim.stats().tag(0).deliveries);
    }

    #[test]
    fn crash_frees_slots_of_pending_ingress_and_pending_deliver() {
        let mut sim = Simulation::new(1);
        let rx = sim.add_node(gbit_host(), Recorder::new());
        sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 5,
                size: 1_250, // 10 µs on the wire
                cost: crate::ProcessingCost::new(SimDuration::ZERO, SimDuration::from_micros(100)),
            },
        );
        // Copy k reaches the port at 60 + 10k µs and then queues for a
        // 100 µs CPU: at 75 µs two copies wait for `Deliver` (170, 270 µs)
        // and three for `Ingress` (80, 90, 100 µs).
        sim.run_until(SimTime::from_micros(75));
        assert_eq!(sim.stats().tag(0).deliveries, 2, "two ingressed");
        assert_eq!(sim.packets.live(), 5);
        sim.crash_node(rx);
        sim.run();
        assert_eq!(sim.packets.live(), 0, "a crash leaked a slot");
        sim.packets.assert_consistent();
        assert_eq!(sim.stats().tag(0).crash_drops, 3);
        // The slots are reusable: a restarted host receives normally.
        sim.restart_node(rx, Box::new(Recorder::new()));
        sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 5,
                size: 100,
                cost: crate::ProcessingCost::FREE,
            },
        );
        sim.run();
        assert_eq!(sim.agent::<Recorder>(rx).unwrap().arrivals.len(), 5);
        assert_eq!(sim.packets.live(), 0);
        sim.packets.assert_consistent();
    }

    #[test]
    fn a_cancelled_core_timer_pops_as_one_silent_event() {
        // `reference_cells` pins `events_processed`, which counts a
        // cancelled timer's pop: it must stay exactly one event that
        // reaches no core, emits nothing and draws nothing.
        use crate::driver::SimDriver;
        use adamant_proto::{Env, Input, ProtocolCore, Span};

        struct Cancels {
            fired: Vec<u64>,
        }
        impl ProtocolCore for Cancels {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                // Every step draws and traces, so a stepped core shows.
                env.rng().next_u64();
                env.emit(|node| ObsEvent::EpochDropped { node });
                match input {
                    Input::Start => {
                        let doomed = env.set_timer(Span::from_millis(1), 1);
                        env.set_timer(Span::from_millis(2), 2);
                        env.cancel_timer(doomed);
                    }
                    Input::TimerFired { tag, .. } => self.fired.push(tag),
                    _ => {}
                }
            }
        }
        let mut sim = Simulation::new(1).with_obs_sink(MemorySink::new());
        let n = sim.add_node(gbit_host(), SimDriver::new(Cancels { fired: vec![] }));
        sim.run_until(SimTime::from_micros(500));
        assert_eq!(sim.events_processed(), 1, "the start");
        let traced = sim.take_obs_events().len();
        assert_eq!(traced, 1, "the start's own trace");
        sim.set_obs_sink(MemorySink::new());
        let rng = sim.node_rngs[n.index()].clone();
        let pending = sim.queue.len();

        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.events_processed(), 2, "the cancelled timer popped once");
        assert_eq!(sim.queue.len(), pending - 1, "and scheduled nothing");
        assert!(sim.take_obs_events().is_empty(), "and emitted nothing");
        assert_eq!(sim.node_rngs[n.index()], rng, "and drew nothing");
        assert!(sim.agent::<Cancels>(n).unwrap().fired.is_empty());

        sim.run();
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.agent::<Cancels>(n).unwrap().fired, vec![2]);
    }

    #[test]
    fn obs_sink_sees_packet_lifecycle_and_faults() {
        let mut sim = Simulation::new(1).with_obs_sink(MemorySink::new());
        assert!(sim.obs_enabled());
        let rx = sim.add_node(gbit_host(), Recorder::new());
        let tx = sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 2,
                size: 100,
                cost: crate::ProcessingCost::FREE,
            },
        );
        sim.run();
        sim.set_cpu_contention(rx, 2.0);
        sim.crash_node(rx);
        sim.restart_node(rx, Box::new(Recorder::new()));
        let _ = tx;
        let events = sim.take_obs_events();
        assert!(!sim.obs_enabled());
        let count =
            |pred: &dyn Fn(&ObsEvent) -> bool| events.iter().filter(|e| pred(&e.event)).count();
        assert_eq!(count(&|e| matches!(e, ObsEvent::PacketSent { .. })), 2);
        assert_eq!(count(&|e| matches!(e, ObsEvent::PacketEnqueued { .. })), 2);
        assert_eq!(count(&|e| matches!(e, ObsEvent::PacketDelivered { .. })), 2);
        assert_eq!(
            count(&|e| matches!(
                e,
                ObsEvent::ContentionChanged {
                    factor_milli: 2_000,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            count(&|e| matches!(e, ObsEvent::NodeCrashed { epoch: 1, .. })),
            1
        );
        assert_eq!(
            count(&|e| matches!(e, ObsEvent::NodeRestarted { epoch: 1, .. })),
            1
        );
    }

    #[test]
    fn obs_drops_are_classified() {
        let mut sim = Simulation::new(42)
            .with_network(NetworkConfig {
                propagation: SimDuration::from_micros(50),
                loss: LossModel::Bernoulli(0.5),
            })
            .with_obs_sink(MemorySink::new());
        let rx = sim.add_node(gbit_host(), Recorder::new());
        let _tx = sim.add_node(
            gbit_host(),
            Blaster {
                dst: rx.into(),
                count: 100,
                size: 100,
                cost: crate::ProcessingCost::FREE,
            },
        );
        sim.run();
        let events = sim.take_obs_events();
        let link_drops = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    ObsEvent::PacketDropped {
                        reason: DropReason::Link,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(link_drops as u64, sim.stats().tag(0).link_drops);
        let enqueued = events
            .iter()
            .filter(|e| matches!(e.event, ObsEvent::PacketEnqueued { .. }))
            .count();
        assert_eq!(enqueued + link_drops, 100);
    }

    #[test]
    fn group_membership_changes() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(gbit_host(), Recorder::new());
        let b = sim.add_node(gbit_host(), Recorder::new());
        let g = sim.create_group(&[a]);
        sim.join_group(g, b);
        sim.join_group(g, b); // idempotent
        assert_eq!(sim.group_members(g), &[a, b]);
        sim.leave_group(g, a);
        assert_eq!(sim.group_members(g), &[b]);
    }
}
