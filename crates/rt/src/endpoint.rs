//! A real-UDP endpoint: one socket, one protocol core, one timer wheel.
//!
//! [`Endpoint`] is the production counterpart of the simulator's
//! `SimDriver`: it feeds the same [`Input`]s to a [`ProtocolCore`] and
//! discharges the same [`Effect`]s, but against a real
//! [`std::net::UdpSocket`] and the [`MonotonicClock`] instead of the
//! simulated network and virtual time. Datagrams carry a
//! [`FrameHeader`] (wire version 4: source node plus a list of
//! endpoint/incarnation demux keys) followed by the
//! [`adamant_proto::wire`] encoding of the message; the declared
//! `size_bytes`/`cost` of a [`Effect::Send`] are simulation-model inputs
//! and are ignored here — real packets cost what they cost. A per-socket
//! endpoint sends one frame per datagram, stamped with one wildcard demux
//! key (the socket *is* the demux). On receive it walks every frame of a
//! datagram (a multiplexed sender packs several) and ignores the endpoint
//! fields, but still honours the incarnation fields: a frame none of whose
//! destinations names this incarnation (or the wildcard) is counted as
//! stale rather than delivered.
//!
//! Timers live on the shared [`TimerWheel`] — the same hierarchical
//! calendar queue the simulator schedules through — rather than a
//! per-endpoint binary heap. The event loop is single-threaded: it fires
//! due timers, then parks in a [`Poller`] until the socket is readable or
//! the next timer deadline arrives, stepping the core for every datagram.
//! Run one endpoint per thread, or host many endpoints on a few threads
//! with [`Cluster`](crate::Cluster) (one socket per endpoint) or
//! [`MuxCluster`](crate::MuxCluster) (shared sockets, headers demuxed);
//! a loopback session is two endpoints on `127.0.0.1` sharing a clock
//! anchor.
//!
//! All construction follows one idiom: consuming `with_*` builders for
//! pre-bind configuration ([`RtConfig::with_clock`],
//! [`RtConfig::with_seed`], …), `set_*`/`add_*` mutators for post-bind
//! state ([`Endpoint::add_peer`], [`Endpoint::set_groups`]).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use adamant_proto::{
    Clock, Destination, Effect, EnvHost, FrameError, FrameHeader, FramePart, Frames, Input, NodeId,
    ProtoEvent, ProtocolCore, TimePoint, TimerWheel, WireMsg, ANY_INCARNATION,
};

use crate::clock::MonotonicClock;
use crate::error::RtError;
use crate::poller::{retry_interrupted, soft_io_error, would_block, Poller};

/// Maximum UDP payload the endpoint will receive (a full 64 KiB datagram).
pub(crate) const RECV_BUF_BYTES: usize = 65_536;

/// Most datagrams a slot will queue while its socket reports `WouldBlock`
/// before it starts shedding new ones (counted as
/// [`backpressure_drops`](EndpointReport::backpressure_drops)).
pub(crate) const OUTBOX_MAX: usize = 4096;

/// Due timers one driver pass fires, in units of the datagrams it moves
/// per syscall (`batch_size` on the multiplexed runtime, one per socket
/// here), before it flushes and drains. After a stall every overdue timer
/// is due at once; firing them all before serving a socket would shed the
/// burst at `OUTBOX_MAX` and at the kernel receive buffer, and a core that
/// always has a timer due would never let the pass end. The rest stay due
/// for the next pass.
pub(crate) const TIMER_BURST_BATCHES: usize = 4;

/// Configuration for a real-UDP endpoint.
#[derive(Debug, Clone, Copy)]
pub struct RtConfig {
    /// Seed for the endpoint's deterministic entropy stream (drop draws,
    /// jitter phases — the same stream the simulator would feed the core).
    pub seed: u64,
    /// Whether the core's trace events are recorded in the report.
    pub observed: bool,
    /// The wall clock. Share one value across endpoints of a session so
    /// their `TimePoint`s are mutually comparable.
    pub clock: MonotonicClock,
}

impl RtConfig {
    /// A config with entropy seeded from `seed`, tracing on, and a clock
    /// anchored now.
    pub fn new(seed: u64) -> Self {
        RtConfig {
            seed,
            observed: true,
            clock: MonotonicClock::start(),
        }
    }

    /// Replaces the entropy seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets whether trace events are recorded (builder-style).
    pub fn with_observed(mut self, observed: bool) -> Self {
        self.observed = observed;
        self
    }

    /// Replaces the clock (builder-style) — pass the same clock to every
    /// endpoint of a co-located session.
    pub fn with_clock(mut self, clock: MonotonicClock) -> Self {
        self.clock = clock;
        self
    }
}

/// What an endpoint observed over one or more [`run_for`](Endpoint::run_for)
/// windows.
#[derive(Debug, Clone, Default)]
pub struct EndpointReport {
    /// Samples the core handed up the stack: `(seq, published_at, recovered)`.
    pub delivered: Vec<(u64, TimePoint, bool)>,
    /// Protocol-behaviour trace events (empty unless `observed`).
    pub events: Vec<ProtoEvent>,
    /// Datagrams written to the socket; on the multiplexed runtime, the
    /// datagrams this endpoint *opened* — one that other endpoints' frames
    /// for the same address were packed into still counts once, here.
    pub datagrams_sent: u64,
    /// Frames addressed to this endpoint: every frame read from its own
    /// socket (one per datagram unless the sender packs) and, on the
    /// multiplexed runtime, every frame whose header named it (one shared
    /// by several readers counts once for each).
    pub datagrams_received: u64,
    /// Frames or body entries that failed to parse (short header, bad wire
    /// encoding, entry cut short).
    pub decode_errors: u64,
    /// Frames addressed to a previous incarnation of this endpoint (in
    /// flight across a restart); dropped, never delivered.
    pub stale_datagrams: u64,
    /// Send effects addressed to a node with no registered peer address.
    pub unroutable: u64,
    /// Times a send hit `WouldBlock` and the datagram was parked in the
    /// outbox instead (the socket outran the core's effect stream).
    pub backpressure_stalls: u64,
    /// Sends shed because the outbox was already at capacity — the
    /// backpressure rule of last resort (UDP may drop; we count it). One
    /// per destination: a shed multiplexed group frame counts every reader
    /// it listed.
    pub backpressure_drops: u64,
    /// Soft I/O errors absorbed without aborting the loop (ICMP
    /// port-unreachable surfacing as `ConnectionRefused`/`ConnectionReset`
    /// when a peer's socket is already gone).
    pub soft_io_errors: u64,
}

impl EndpointReport {
    /// The distinct sequence numbers delivered.
    pub fn delivered_seqs(&self) -> BTreeSet<u64> {
        self.delivered.iter().map(|&(seq, _, _)| seq).collect()
    }

    /// Samples that arrived through a recovery path.
    pub fn recovered_count(&self) -> u64 {
        self.delivered.iter().filter(|&&(_, _, r)| r).count() as u64
    }

    /// Retransmissions performed (sender-side trace events).
    pub fn retransmissions(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, ProtoEvent::Retransmitted { .. }))
            .count() as u64
    }

    /// Folds this endpoint's accepted-sample trace into per-window QoS
    /// rows — the per-shard observation tap the online-adaptation feedback
    /// path consumes. `published_per_window` is the writer's publication
    /// schedule (its length sets the window count) and `window_ns` the
    /// window length in nanoseconds of the shared session clock.
    ///
    /// The fold reads `SampleAccepted` trace events (they carry both the
    /// publication and delivery instants), so the endpoint must run with
    /// [`RtConfig::observed`] enabled; an unobserved report folds to
    /// windows that saw no deliveries.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn window_qos(
        &self,
        published_per_window: &[u64],
        window_ns: u64,
    ) -> Vec<adamant_metrics::WindowQos> {
        use adamant_metrics::{Delivery, SimDuration, SimTime};
        let deliveries: Vec<Delivery> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                ProtoEvent::SampleAccepted {
                    seq,
                    published_ns,
                    delivered_ns,
                    recovered,
                } => Some(Delivery {
                    seq,
                    published_at: SimTime::from_nanos(published_ns),
                    delivered_at: SimTime::from_nanos(delivered_ns),
                    recovered,
                }),
                _ => None,
            })
            .collect();
        adamant_metrics::windowed_qos(
            &deliveries,
            published_per_window,
            SimDuration::from_nanos(window_ns),
        )
    }
}

/// The driver-agnostic half of an endpoint: one bound socket, the core's
/// environment host, peer routing, the outbox, and the report. [`Endpoint`]
/// pairs one slot with a private [`TimerWheel`]; `Cluster` packs many slots
/// onto one wheel per worker, which is why every stepping method takes the
/// wheel and this slot's wheel-local `owner` index as parameters.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) node: NodeId,
    pub(crate) socket: UdpSocket,
    pub(crate) clock: MonotonicClock,
    pub(crate) host: EnvHost,
    pub(crate) peers: HashMap<NodeId, SocketAddr>,
    effects: Vec<Effect>,
    encode_buf: Vec<u8>,
    /// Datagrams waiting out a `WouldBlock`, oldest first. While non-empty,
    /// new sends append here so per-destination ordering is preserved.
    pub(crate) outbox: VecDeque<(SocketAddr, Vec<u8>)>,
    pub(crate) started: bool,
    pub(crate) report: EndpointReport,
    /// Whether trace events are recorded (kept so a restart can rebuild
    /// the [`EnvHost`] with the same observation setting).
    observed: bool,
    /// Restarts this slot has been through (0 for the first incarnation).
    pub(crate) incarnation: u32,
    /// The owner code this slot's timers are armed under on a shared
    /// wheel: `(endpoint index << 8) | (incarnation & 0xFF)`. A restart
    /// changes the code, so timers armed by a dead incarnation are
    /// recognised as stale when they pop. [`Endpoint`] (one slot, private
    /// wheel) leaves it at 0.
    pub(crate) wheel_owner: u32,
}

impl Slot {
    /// Binds a nonblocking UDP socket at `addr` for protocol node `node`.
    pub(crate) fn bind(
        node: NodeId,
        addr: impl ToSocketAddrs,
        cfg: RtConfig,
    ) -> Result<Slot, RtError> {
        let socket = UdpSocket::bind(addr).map_err(RtError::Bind)?;
        socket.set_nonblocking(true).map_err(RtError::Bind)?;
        Ok(Slot {
            node,
            socket,
            clock: cfg.clock,
            host: EnvHost::new(node, cfg.seed).with_observed(cfg.observed),
            peers: HashMap::new(),
            effects: Vec::new(),
            encode_buf: Vec::new(),
            outbox: VecDeque::new(),
            started: false,
            report: EndpointReport::default(),
            observed: cfg.observed,
            incarnation: 0,
            wheel_owner: 0,
        })
    }

    /// Reinitialises this slot for a fresh core incarnation: same socket
    /// (the restarted process keeps its port), same peer routes and group
    /// table, new entropy stream, cleared in-flight state. The report keeps
    /// accumulating across incarnations — callers segment it by the restart
    /// instant when they need per-incarnation views. The wheel-owner code
    /// changes, so timers the previous incarnation armed on a shared wheel
    /// are dropped as stale when they pop.
    pub(crate) fn restart(&mut self, seed: u64) {
        self.incarnation = self.incarnation.wrapping_add(1);
        self.wheel_owner = (self.wheel_owner & !0xFF) | (self.incarnation & 0xFF);
        self.started = false;
        self.effects.clear();
        self.encode_buf.clear();
        self.outbox.clear();
        let groups = std::mem::take(self.host.groups_mut());
        self.host = EnvHost::new(self.node, seed).with_observed(self.observed);
        *self.host.groups_mut() = groups;
    }

    pub(crate) fn local_addr(&self) -> Result<SocketAddr, RtError> {
        self.socket.local_addr().map_err(RtError::Addr)
    }

    /// Feeds [`Input::Start`] on the first call; later calls are no-ops.
    pub(crate) fn start<C: ProtocolCore + ?Sized>(
        &mut self,
        core: &mut C,
        wheel: &mut TimerWheel,
        owner: u32,
    ) -> Result<(), RtError> {
        if !self.started {
            self.started = true;
            self.step(core, Input::Start, wheel, owner)?;
        }
        Ok(())
    }

    /// Steps the core once at the current wall instant and discharges the
    /// effects it produced (sends to the socket or outbox, timers to the
    /// wheel, deliveries and traces to the report).
    pub(crate) fn step<C: ProtocolCore + ?Sized>(
        &mut self,
        core: &mut C,
        input: Input<'_>,
        wheel: &mut TimerWheel,
        owner: u32,
    ) -> Result<(), RtError> {
        let now = self.clock.now();
        let mut effects = std::mem::take(&mut self.effects);
        self.host.step_into(core, now, input, &mut effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { dst, msg, .. } => self.transmit(dst, &msg)?,
                Effect::SetTimer { token, delay, tag } => {
                    wheel.arm(now + delay, owner, token, tag);
                }
                Effect::CancelTimer { token } => wheel.cancel(owner, token),
                Effect::Deliver {
                    seq,
                    published_at,
                    recovered,
                } => self.report.delivered.push((seq, published_at, recovered)),
                Effect::Trace(event) => self.report.events.push(event),
            }
        }
        self.effects = effects;
        Ok(())
    }

    /// Walks one datagram and steps the core with every entry of every
    /// frame that is for this incarnation.
    pub(crate) fn on_datagram<C: ProtocolCore + ?Sized>(
        &mut self,
        core: &mut C,
        datagram: &[u8],
        wheel: &mut TimerWheel,
        owner: u32,
    ) -> Result<(), RtError> {
        let mut from = None;
        for part in Frames::new(datagram) {
            match part {
                Ok(FramePart::Header(header)) => {
                    self.report.datagrams_received += 1;
                    // The socket is this slot's demux, so the endpoint
                    // fields are ignored — but a frame stamped only for
                    // earlier incarnations was in flight across a restart
                    // and must not reach the new core.
                    let mut incarnations = header.iter().map(|dest| dest.incarnation);
                    from = incarnations
                        .any(|i| i == ANY_INCARNATION || i == self.incarnation)
                        .then_some(header.src);
                    self.report.stale_datagrams += u64::from(from.is_none());
                }
                // Each entry steps the core independently, and damage is
                // counted where it is found.
                Ok(FramePart::Entry(entry)) => {
                    let Some(src) = from else { continue };
                    match WireMsg::decode(entry) {
                        Some(msg) => {
                            self.step(core, Input::PacketIn { src, msg: &msg }, wheel, owner)?
                        }
                        None => self.report.decode_errors += 1,
                    }
                }
                // No header where one is due still arrived as a frame.
                Err(FrameError::Header) => {
                    self.report.datagrams_received += 1;
                    self.report.decode_errors += 1;
                }
                Err(FrameError::Body) => self.report.decode_errors += u64::from(from.is_some()),
            }
        }
        Ok(())
    }

    /// Drains everything queued on the socket (until `WouldBlock`),
    /// stepping the core for each datagram. Returns whether anything was
    /// read.
    pub(crate) fn drain_socket<C: ProtocolCore + ?Sized>(
        &mut self,
        core: &mut C,
        buf: &mut [u8],
        wheel: &mut TimerWheel,
        owner: u32,
    ) -> Result<bool, RtError> {
        let mut drained_any = false;
        loop {
            match retry_interrupted(|| self.socket.recv_from(buf)) {
                Ok((len, _from)) => {
                    drained_any = true;
                    self.on_datagram(core, &buf[..len], wheel, owner)?;
                }
                Err(e) if would_block(&e) => break,
                Err(e) if soft_io_error(&e) => self.report.soft_io_errors += 1,
                Err(e) => return Err(RtError::Recv(e)),
            }
        }
        Ok(drained_any)
    }

    /// Retries parked datagrams, oldest first, until the outbox empties or
    /// the socket blocks again. Returns how many were sent.
    pub(crate) fn flush_outbox(&mut self) -> Result<usize, RtError> {
        let mut sent = 0;
        while let Some((addr, bytes)) = self.outbox.front() {
            match retry_interrupted(|| self.socket.send_to(bytes, *addr)) {
                Ok(_) => {
                    self.report.datagrams_sent += 1;
                    sent += 1;
                    self.outbox.pop_front();
                }
                Err(e) if would_block(&e) => break,
                Err(e) if soft_io_error(&e) => {
                    self.report.soft_io_errors += 1;
                    self.outbox.pop_front();
                }
                Err(e) => return Err(RtError::Send(e)),
            }
        }
        Ok(sent)
    }

    /// Writes `msg` to every endpoint `dst` resolves to. The message is
    /// encoded once; group fan-out reuses the same buffer per member.
    fn transmit(&mut self, dst: Destination, msg: &WireMsg) -> Result<(), RtError> {
        self.encode_buf.clear();
        // Per-socket endpoints address "whoever owns the destination
        // socket, any incarnation": the receiver applies its own
        // incarnation check, and there is no endpoint index to name.
        FrameHeader::broadcast(self.node).encode(&mut self.encode_buf);
        // One length-prefixed body entry per datagram here (a per-socket
        // endpoint sends as it steps, so there is nothing to coalesce with;
        // the length is patched in after encoding the message in place).
        let len_at = self.encode_buf.len();
        self.encode_buf.extend_from_slice(&[0, 0]);
        msg.encode(&mut self.encode_buf);
        let body_len = self.encode_buf.len() - len_at - 2;
        debug_assert!(body_len <= usize::from(u16::MAX));
        self.encode_buf[len_at..len_at + 2].copy_from_slice(&(body_len as u16).to_le_bytes());
        match dst {
            Destination::Node(node) => self.transmit_one(node)?,
            Destination::Group(group) => {
                // Group tables are tiny (a handful of nodes); clone the
                // member list to keep the borrow checker out of the send
                // loop.
                let members = self
                    .host
                    .groups_mut()
                    .get(group.index())
                    .cloned()
                    .unwrap_or_default();
                for node in members {
                    if node != self.node {
                        self.transmit_one(node)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn transmit_one(&mut self, node: NodeId) -> Result<(), RtError> {
        let Some(&addr) = self.peers.get(&node) else {
            self.report.unroutable += 1;
            return Ok(());
        };
        if self.outbox.is_empty() {
            match retry_interrupted(|| self.socket.send_to(&self.encode_buf, addr)) {
                Ok(_) => {
                    self.report.datagrams_sent += 1;
                    return Ok(());
                }
                Err(e) if would_block(&e) => self.report.backpressure_stalls += 1,
                Err(e) if soft_io_error(&e) => {
                    self.report.soft_io_errors += 1;
                    return Ok(());
                }
                Err(e) => return Err(RtError::Send(e)),
            }
        }
        // Socket is (or was already) saturated: park the datagram so it
        // goes out in order once the socket drains, shedding only when the
        // outbox itself is full.
        if self.outbox.len() >= OUTBOX_MAX {
            self.report.backpressure_drops += 1;
        } else {
            self.outbox.push_back((addr, self.encode_buf.clone()));
        }
        Ok(())
    }
}

/// One UDP socket driving one protocol core.
///
/// The core itself is *not* owned by the endpoint — callers keep it and
/// pass it to [`run_for`](Endpoint::run_for), mirroring how the simulator
/// keeps cores inside agents. That keeps the core inspectable between
/// windows (delivered counts, NAK statistics) without downcasting. To host
/// many cores on a few threads, use [`Cluster`](crate::Cluster) instead.
#[derive(Debug)]
pub struct Endpoint {
    slot: Slot,
    wheel: TimerWheel,
    poller: Poller,
}

impl Endpoint {
    /// Binds a UDP socket at `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// loopback port) for protocol endpoint `node`.
    ///
    /// # Errors
    ///
    /// [`RtError::Bind`] when the socket cannot be bound or switched to
    /// nonblocking mode.
    pub fn bind(
        node: NodeId,
        addr: impl ToSocketAddrs,
        cfg: RtConfig,
    ) -> Result<Endpoint, RtError> {
        let slot = Slot::bind(node, addr, cfg)?;
        let mut poller = Poller::new().map_err(RtError::Io)?;
        poller.register(&slot.socket).map_err(RtError::Io)?;
        Ok(Endpoint {
            slot,
            wheel: TimerWheel::new(),
            poller,
        })
    }

    /// The socket's bound address (tell it to the other endpoints).
    ///
    /// # Errors
    ///
    /// [`RtError::Addr`] when the OS refuses to report the address.
    pub fn local_addr(&self) -> Result<SocketAddr, RtError> {
        self.slot.local_addr()
    }

    /// This endpoint's protocol node id.
    pub fn node(&self) -> NodeId {
        self.slot.node
    }

    /// Registers where datagrams for `peer` should be sent.
    pub fn add_peer(&mut self, peer: NodeId, addr: SocketAddr) {
        self.slot.peers.insert(peer, addr);
    }

    /// Replaces the group-membership table used to fan out
    /// [`Destination::Group`] sends. Index = group id; the local node is
    /// skipped on fan-out (it already has what it sent), matching the
    /// simulator's switch model.
    pub fn set_groups(&mut self, groups: Vec<Vec<NodeId>>) {
        *self.slot.host.groups_mut() = groups;
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &EndpointReport {
        &self.slot.report
    }

    /// Runs the event loop for `wall` of real time, stepping `core` for
    /// every fired timer and received datagram. The first call feeds the
    /// core [`Input::Start`]; later calls resume where the previous window
    /// left off. Returns the report accumulated so far.
    ///
    /// # Errors
    ///
    /// [`RtError::Send`]/[`RtError::Recv`] on hard socket errors (soft
    /// flow-control and ICMP-unreachable conditions are absorbed and
    /// counted in the report).
    pub fn run_for<C: ProtocolCore + ?Sized>(
        &mut self,
        core: &mut C,
        wall: Duration,
    ) -> Result<&EndpointReport, RtError> {
        let clock = self.slot.clock;
        let deadline = clock.now() + adamant_proto::Span::from_nanos(wall.as_nanos() as u64);
        self.slot.start(core, &mut self.wheel, 0)?;
        let mut buf = vec![0u8; RECV_BUF_BYTES];
        loop {
            for _ in 0..TIMER_BURST_BATCHES {
                let Some(fire) = self.wheel.pop_due(clock.now()) else {
                    break;
                };
                self.slot.step(
                    core,
                    Input::TimerFired {
                        token: fire.token,
                        tag: fire.tag,
                    },
                    &mut self.wheel,
                    0,
                )?;
            }
            if clock.now() >= deadline {
                break;
            }
            let flushed = self.slot.flush_outbox()?;
            let drained = self.slot.drain_socket(core, &mut buf, &mut self.wheel, 0)?;
            if !drained && flushed == 0 {
                // Nothing to do until the next timer or a datagram: park
                // in the poller for the full gap (zero CPU while idle)
                // instead of spinning a capped sleep loop.
                let next = self
                    .wheel
                    .next_deadline()
                    .unwrap_or(TimePoint::MAX)
                    .min(deadline);
                let mut wait = Duration::from_nanos(next.saturating_since(clock.now()).as_nanos());
                if !self.slot.outbox.is_empty() {
                    // The poller only watches readability; parked sends
                    // need a bounded retry cadence, not a timer-length nap.
                    wait = wait.min(Duration::from_millis(1));
                }
                if !wait.is_zero() {
                    self.poller.wait(wait).map_err(RtError::Io)?;
                }
            }
        }
        self.slot.flush_outbox()?;
        Ok(&self.slot.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::{Env, GroupId, ProcessingCost, Span};

    #[test]
    fn window_qos_folds_the_accepted_sample_trace() {
        let mut report = EndpointReport::default();
        // Two samples in window 0 (one recovered, late), one in window 1.
        report.events.push(ProtoEvent::SampleAccepted {
            seq: 0,
            published_ns: 100_000,
            delivered_ns: 600_000,
            recovered: false,
        });
        report.events.push(ProtoEvent::SampleAccepted {
            seq: 1,
            published_ns: 900_000,
            delivered_ns: 2_500_000,
            recovered: true,
        });
        report.events.push(ProtoEvent::SampleAccepted {
            seq: 2,
            published_ns: 1_200_000,
            delivered_ns: 1_400_000,
            recovered: false,
        });
        let windows = report.window_qos(&[3, 2], 1_000_000);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].published, 3);
        assert_eq!(windows[0].delivered, 2);
        assert_eq!(windows[1].delivered, 1);
        assert_eq!(windows[1].avg_latency_us, 200.0);
        // The unobserved fold sees nothing.
        let quiet = EndpointReport::default().window_qos(&[3, 2], 1_000_000);
        assert!(quiet.iter().all(|w| w.delivered == 0));
    }

    /// Publishes `total` sequenced messages into group 0 on a short timer.
    #[derive(Debug)]
    struct Beacon {
        next: u64,
        total: u64,
    }

    impl ProtocolCore for Beacon {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start | Input::TimerFired { .. } if self.next < self.total => {
                    env.send(
                        GroupId(0),
                        64,
                        1,
                        ProcessingCost::FREE,
                        WireMsg::Data(adamant_proto::wire::DataMsg {
                            seq: self.next,
                            published_at: env.now(),
                            retransmission: false,
                        }),
                    );
                    self.next += 1;
                    env.set_timer(Span::from_millis(1), 1);
                }
                _ => {}
            }
        }
    }

    /// Delivers every data message it hears.
    #[derive(Debug, Default)]
    struct Listener;

    impl ProtocolCore for Listener {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            if let Input::PacketIn {
                msg: WireMsg::Data(data),
                ..
            } = input
            {
                env.deliver(data.seq, data.published_at, false);
            }
        }
    }

    #[test]
    fn two_endpoints_exchange_datagrams_over_loopback() {
        let clock = MonotonicClock::start();
        let tx_node = NodeId(0);
        let rx_node = NodeId(1);
        let mut tx =
            Endpoint::bind(tx_node, "127.0.0.1:0", RtConfig::new(1).with_clock(clock)).unwrap();
        let mut rx =
            Endpoint::bind(rx_node, "127.0.0.1:0", RtConfig::new(2).with_clock(clock)).unwrap();
        tx.add_peer(rx_node, rx.local_addr().unwrap());
        rx.add_peer(tx_node, tx.local_addr().unwrap());
        let groups = vec![vec![tx_node, rx_node]];
        tx.set_groups(groups.clone());
        rx.set_groups(groups);

        let mut beacon = Beacon { next: 0, total: 20 };
        let mut listener = Listener;
        std::thread::scope(|s| {
            // Wide walls: the beacon only needs ~20ms of ticks, but under a
            // fully loaded test host the threads can be starved for far
            // longer than that.
            s.spawn(|| {
                tx.run_for(&mut beacon, Duration::from_millis(400)).unwrap();
            });
            s.spawn(|| {
                rx.run_for(&mut listener, Duration::from_millis(600))
                    .unwrap();
            });
        });
        assert_eq!(beacon.next, 20);
        assert_eq!(tx.report().datagrams_sent, 20);
        let seqs = rx.report().delivered_seqs();
        assert_eq!(seqs, (0..20).collect::<BTreeSet<u64>>());
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        /// Arms two timers on start, cancels one, and records what fires.
        #[derive(Debug, Default)]
        struct Canceller {
            fired: Vec<u64>,
        }
        impl ProtocolCore for Canceller {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                match input {
                    Input::Start => {
                        let doomed = env.set_timer(Span::from_millis(1), 7);
                        env.set_timer(Span::from_millis(2), 8);
                        env.cancel_timer(doomed);
                    }
                    Input::TimerFired { tag, .. } => self.fired.push(tag),
                    _ => {}
                }
            }
        }
        let mut ep = Endpoint::bind(NodeId(0), "127.0.0.1:0", RtConfig::new(3)).unwrap();
        let mut core = Canceller::default();
        ep.run_for(&mut core, Duration::from_millis(20)).unwrap();
        assert_eq!(core.fired, vec![8]);
    }

    #[test]
    fn malformed_datagrams_are_counted_not_fatal() {
        let mut ep = Endpoint::bind(NodeId(0), "127.0.0.1:0", RtConfig::new(4)).unwrap();
        let addr = ep.local_addr().unwrap();
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Truncated header: version byte present, demux fields cut off.
        probe.send_to(&[4, 1], addr).unwrap();
        // Valid header, bad wire kind in the body.
        let mut bad_body = Vec::new();
        FrameHeader::broadcast(NodeId(9)).encode(&mut bad_body);
        bad_body.push(250);
        probe.send_to(&bad_body, addr).unwrap();
        // Wire version 1 framing (bare node-id prefix) is no longer spoken,
        // and neither are version 2's fixed 13-byte header and version 3's
        // one frame per datagram.
        probe.send_to(&[1, 0, 0, 0, 250, 0], addr).unwrap();
        for version in [2, 3] {
            let mut old = bad_body.clone();
            old[0] = version;
            probe.send_to(&old, addr).unwrap();
        }
        let mut core = Listener;
        ep.run_for(&mut core, Duration::from_millis(30)).unwrap();
        assert_eq!(ep.report().datagrams_received, 5);
        assert_eq!(ep.report().decode_errors, 5);
        assert!(ep.report().delivered.is_empty());
    }

    #[test]
    fn cross_incarnation_datagrams_are_counted_stale() {
        let mut ep = Endpoint::bind(NodeId(0), "127.0.0.1:0", RtConfig::new(5)).unwrap();
        let addr = ep.local_addr().unwrap();
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let msg = WireMsg::Data(adamant_proto::wire::DataMsg {
            seq: 1,
            published_at: TimePoint::from_nanos(0),
            retransmission: false,
        });
        // Stamped for incarnation 3; this endpoint is incarnation 0.
        let mut stale = Vec::new();
        FrameHeader {
            src: NodeId(9),
            dst_endpoint: adamant_proto::ANY_ENDPOINT,
            dst_incarnation: 3,
        }
        .encode(&mut stale);
        FrameHeader::encode_body_entry(&mut stale, &msg.to_bytes());
        probe.send_to(&stale, addr).unwrap();
        // Wildcard incarnation still delivers.
        let mut fresh = Vec::new();
        FrameHeader::broadcast(NodeId(9)).encode(&mut fresh);
        FrameHeader::encode_body_entry(&mut fresh, &msg.to_bytes());
        probe.send_to(&fresh, addr).unwrap();
        // A destination list is for this socket when any entry names the
        // live incarnation, wherever it sits in the list.
        let dest = |incarnation| adamant_proto::FrameDest {
            endpoint: adamant_proto::ANY_ENDPOINT,
            incarnation,
        };
        let mut listed = Vec::new();
        FrameHeader::encode_list(NodeId(9), &[dest(3), dest(0)], &mut listed);
        FrameHeader::encode_body_entry(&mut listed, &msg.to_bytes());
        probe.send_to(&listed, addr).unwrap();
        let mut core = Listener;
        ep.run_for(&mut core, Duration::from_millis(30)).unwrap();
        assert_eq!(ep.report().datagrams_received, 3);
        assert_eq!(ep.report().stale_datagrams, 1);
        assert_eq!(ep.report().decode_errors, 0);
        assert_eq!(ep.report().delivered.len(), 2);
    }

    fn data(seq: u64) -> WireMsg {
        WireMsg::Data(adamant_proto::wire::DataMsg {
            seq,
            published_at: TimePoint::from_nanos(0),
            retransmission: false,
        })
    }

    #[test]
    fn a_packed_datagram_from_a_mux_cluster_steps_every_frame() {
        use crate::mux::{MuxCluster, MuxConfig};
        /// Sends one sample to node 9 on start.
        #[derive(Debug)]
        struct Once(u64);
        impl ProtocolCore for Once {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                if matches!(input, Input::Start) {
                    env.send(NodeId(9), 64, 1, ProcessingCost::FREE, data(self.0));
                }
            }
        }
        let mut outside = Endpoint::bind(NodeId(9), "127.0.0.1:0", RtConfig::new(6)).unwrap();
        let cfg = MuxConfig::new(1).with_sockets_per_worker(1);
        let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).unwrap();
        for node in 0..2u32 {
            let id = cluster
                .add_endpoint(NodeId(node), Once(u64::from(node)))
                .unwrap();
            cluster
                .add_external_peer(id, NodeId(9), outside.local_addr().unwrap())
                .unwrap();
        }
        cluster.run_for(Duration::from_millis(20)).unwrap();
        outside
            .run_for(&mut Listener, Duration::from_millis(30))
            .unwrap();
        // Two senders started in one pass, both for one address: one
        // datagram, two frames, each delivered.
        assert_eq!(cluster.stats().datagrams_sent, 1);
        assert_eq!(outside.report().delivered_seqs(), BTreeSet::from([0, 1]));
        assert_eq!(outside.report().datagrams_received, 2);
        assert_eq!(outside.report().decode_errors, 0);
    }

    #[test]
    fn a_stale_first_frame_does_not_cost_the_fresh_one_behind_it() {
        let mut ep = Endpoint::bind(NodeId(0), "127.0.0.1:0", RtConfig::new(7)).unwrap();
        let frame = |incarnation, seq| {
            let mut frame = Vec::new();
            FrameHeader {
                src: NodeId(9),
                dst_endpoint: adamant_proto::ANY_ENDPOINT,
                dst_incarnation: incarnation,
            }
            .encode(&mut frame);
            FrameHeader::encode_body_entry(&mut frame, &data(seq).to_bytes());
            frame
        };
        // Stamped for incarnation 3 (this endpoint is 0), then for 0, then
        // a frame cut off inside its header.
        let mut datagram = frame(3, 1);
        FrameHeader::encode_break(&mut datagram);
        datagram.extend_from_slice(&frame(0, 2));
        FrameHeader::encode_break(&mut datagram);
        datagram.extend_from_slice(&frame(0, 3)[..FrameHeader::LEN - 1]);
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe.send_to(&datagram, ep.local_addr().unwrap()).unwrap();
        ep.run_for(&mut Listener, Duration::from_millis(30))
            .unwrap();
        assert_eq!(ep.report().delivered_seqs(), BTreeSet::from([2]));
        assert_eq!(ep.report().stale_datagrams, 1);
        assert_eq!(ep.report().datagrams_received, 3);
        assert_eq!(ep.report().decode_errors, 1);
    }

    #[test]
    fn a_core_rearming_a_zero_delay_timer_cannot_hold_the_window_open() {
        /// Always has a timer due, and delivers what it hears.
        #[derive(Debug)]
        struct SpinningListener;
        impl ProtocolCore for SpinningListener {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                match input {
                    Input::Start | Input::TimerFired { .. } => {
                        env.set_timer(Span::ZERO, 0);
                    }
                    other => Listener.step(other, env),
                }
            }
        }
        let mut ep = Endpoint::bind(NodeId(0), "127.0.0.1:0", RtConfig::new(8)).unwrap();
        let mut frame = Vec::new();
        FrameHeader::broadcast(NodeId(9)).encode(&mut frame);
        FrameHeader::encode_body_entry(&mut frame, &data(7).to_bytes());
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe.send_to(&frame, ep.local_addr().unwrap()).unwrap();
        // The window still ends on time, and the socket was served.
        let start = std::time::Instant::now();
        ep.run_for(&mut SpinningListener, Duration::from_millis(50))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(ep.report().delivered_seqs(), BTreeSet::from([7]));
    }
}
