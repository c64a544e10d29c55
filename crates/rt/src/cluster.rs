//! A sharded multi-endpoint runtime: many protocol cores, few threads.
//!
//! [`Cluster`] hosts N [`ProtocolCore`] endpoints in one process,
//! partitioned across `workers` threads. Endpoint `i` belongs to shard
//! `i % workers` — a pure function of the add order, so the same
//! construction sequence always yields the same shard layout (the
//! shard-determinism tests rely on this). Each worker owns its shard's
//! sockets outright for the duration of a [`run_for`](Cluster::run_for)
//! window plus **one timer wheel** (the hierarchical calendar queue shared
//! with the simulator) carrying every timer of every core in the shard, so
//! a worker makes one `next_deadline` query per idle sleep no matter how
//! many endpoints it hosts. The wheels live on the cluster between
//! windows, so timers pending when a window closes fire in the next one;
//! timers armed by an endpoint incarnation that has since been restarted
//! ([`Cluster::restart_endpoint`]) are dropped as stale when they pop.
//!
//! Per poll iteration a worker fires the due timers across the shard (in
//! global deadline order, a bounded number per pass), then visits each
//! endpoint once: retry parked sends, then drain the socket until
//! `WouldBlock`. Sends that hit a saturated socket are parked in a bounded
//! per-endpoint outbox (backpressure), preserving per-destination order;
//! only when the outbox itself fills are datagrams shed, and both
//! conditions are counted in the endpoint's [`EndpointReport`].
//!
//! The cluster owns its cores (unlike [`Endpoint`](crate::Endpoint), which
//! borrows one per call) because the cores must travel to worker threads;
//! [`Cluster::core`] downcasts them back for post-run inspection.

use std::any::Any;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use adamant_metrics::MetricsRegistry;
use adamant_proto::{Clock, Input, NodeId, ProtocolCore, Span, TimePoint, TimerWheel};

use crate::clock::MonotonicClock;
use crate::endpoint::{EndpointReport, RtConfig, Slot, RECV_BUF_BYTES, TIMER_BURST_BATCHES};
use crate::error::RtError;
use crate::poller::Poller;

/// Configuration for a [`Cluster`] (consuming `with_*` builders, same
/// idiom as [`RtConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Worker threads to shard endpoints across (at least 1).
    pub workers: usize,
    /// Base entropy seed; endpoint `i` gets a seed derived from
    /// `(base, i)`, so one cluster seed determines every core's stream.
    pub seed: u64,
    /// Whether cores' trace events are recorded in their reports.
    pub observed: bool,
    /// The wall clock shared by every endpoint of the cluster.
    pub clock: MonotonicClock,
}

impl ClusterConfig {
    /// A config for `workers` threads, seed 0, tracing on, and a clock
    /// anchored now.
    pub fn new(workers: usize) -> Self {
        ClusterConfig {
            workers: workers.max(1),
            seed: 0,
            observed: true,
            clock: MonotonicClock::start(),
        }
    }

    /// Replaces the base entropy seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets whether trace events are recorded (builder-style).
    pub fn with_observed(mut self, observed: bool) -> Self {
        self.observed = observed;
        self
    }

    /// Replaces the shared clock (builder-style).
    pub fn with_clock(mut self, clock: MonotonicClock) -> Self {
        self.clock = clock;
        self
    }
}

/// Handle to one endpoint of a [`Cluster`], returned by
/// [`add_endpoint`](Cluster::add_endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointId(pub(crate) usize);

impl EndpointId {
    /// The endpoint's index in add order (also determines its shard).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Aggregate counters across every live endpoint of a cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Live endpoints aggregated.
    pub endpoints: usize,
    /// Samples delivered up the stack, summed across endpoints.
    pub delivered: u64,
    /// Delivered samples that arrived through a recovery path.
    pub recovered: u64,
    /// Datagrams written to sockets (each charged to the endpoint that
    /// opened it, however many endpoints' frames it carried).
    pub datagrams_sent: u64,
    /// Datagrams read from sockets. The multiplexed runtime counts a wire
    /// datagram once however many frames it packs and endpoints they name
    /// (and only when one named an endpoint of the runtime), so this can
    /// be smaller than the sum of the endpoints' own `datagrams_received`.
    pub datagrams_received: u64,
    /// Frames whose header decoded, whatever became of them (multiplexed
    /// runtime; a per-socket runtime's frames are its endpoints'
    /// `datagrams_received`). Over `datagrams_received` (when nothing is
    /// dropped before demux), how many frames a datagram packs.
    pub frames_received: u64,
    /// Datagrams that failed to parse.
    pub decode_errors: u64,
    /// Sends addressed to nodes with no registered peer address.
    pub unroutable: u64,
    /// Sends parked in an outbox because the socket reported `WouldBlock`.
    pub backpressure_stalls: u64,
    /// Sends shed because an outbox was full, counted per destination
    /// (a shed group frame drops once for every reader it listed).
    pub backpressure_drops: u64,
    /// Soft I/O errors absorbed (ICMP-unreachable noise).
    pub soft_io_errors: u64,
    /// Datagrams addressed to a previous incarnation of an endpoint
    /// (in flight across a `restart_endpoint`); dropped, never delivered.
    pub stale_drops: u64,
    /// Demux keys that named no live endpoint of this runtime, one per
    /// destination a datagram's header listed (multiplexed runtime only;
    /// a per-socket runtime's socket *is* its demux, so the field stays 0
    /// there).
    pub unknown_endpoint_drops: u64,
    /// Datagrams, or tails of packed datagrams, dropped before demux
    /// because the frame header due there was truncated or carried an
    /// unknown wire version (multiplexed runtime; the per-socket runtime
    /// attributes these to the receiving endpoint's `decode_errors`
    /// instead).
    pub header_drops: u64,
    /// Worker loop iterations that found no due timer and made no I/O
    /// progress before parking in the poller. An idle cluster accrues a
    /// handful of these per window — not thousands — because workers
    /// sleep in `poll()` until the next timer deadline.
    pub busy_polls: u64,
    /// Times a worker parked in the poller (a wait entered with a
    /// non-zero timeout). Parks per delivered message is what the
    /// runtime's CPU cost per message tracks on paced traffic.
    pub parks: u64,
    /// Parks ended by a readable socket rather than by the deadline.
    pub io_wakes: u64,
}

impl ClusterStats {
    /// Folds these aggregates into `registry` as `<protocol>/cluster/<name>`
    /// counters, matching the flat key scheme the trace folder uses.
    pub fn fold_into(&self, protocol: &str, registry: &mut MetricsRegistry) {
        let key = |name: &str| format!("{protocol}/cluster/{name}");
        registry.add(key("endpoints"), self.endpoints as u64);
        registry.add(key("delivered"), self.delivered);
        registry.add(key("recovered"), self.recovered);
        registry.add(key("datagrams_sent"), self.datagrams_sent);
        registry.add(key("datagrams_received"), self.datagrams_received);
        registry.add(key("frames_received"), self.frames_received);
        registry.add(key("decode_errors"), self.decode_errors);
        registry.add(key("unroutable"), self.unroutable);
        registry.add(key("backpressure_stalls"), self.backpressure_stalls);
        registry.add(key("backpressure_drops"), self.backpressure_drops);
        registry.add(key("soft_io_errors"), self.soft_io_errors);
        registry.add(key("stale_drops"), self.stale_drops);
        registry.add(key("unknown_endpoint_drops"), self.unknown_endpoint_drops);
        registry.add(key("header_drops"), self.header_drops);
        registry.add(key("busy_polls"), self.busy_polls);
        registry.add(key("parks"), self.parks);
        registry.add(key("io_wakes"), self.io_wakes);
    }
}

/// Counters a worker accrues that belong to the shard rather than any one
/// endpoint: pre-demux drops and idle-loop accounting. Folded into
/// [`ClusterStats`] by both the per-socket and multiplexed runtimes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkerCounters {
    /// Iterations that made no progress before parking in the poller.
    pub busy_polls: u64,
    /// Waits entered with a non-zero timeout.
    pub parks: u64,
    /// Parks ended by readiness rather than the deadline.
    pub io_wakes: u64,
    /// Places in a datagram where a frame header was due and none decoded
    /// (truncated, unknown version): the rest is dropped before demux.
    pub header_drops: u64,
    /// Demux keys that named no live endpoint of the shard.
    pub unknown_endpoint_drops: u64,
    /// Wire datagrams with a frame that named at least one endpoint of
    /// the shard (multiplexed runtime only: a per-socket runtime's
    /// datagrams each belong to exactly one endpoint's report).
    pub datagrams_received: u64,
    /// Frames whose header decoded (multiplexed runtime only).
    pub frames_received: u64,
}

impl WorkerCounters {
    pub(crate) fn absorb(&mut self, other: WorkerCounters) {
        self.busy_polls += other.busy_polls;
        self.parks += other.parks;
        self.io_wakes += other.io_wakes;
        self.header_drops += other.header_drops;
        self.unknown_endpoint_drops += other.unknown_endpoint_drops;
        self.datagrams_received += other.datagrams_received;
        self.frames_received += other.frames_received;
    }
}

/// Object-safe bridge that keeps a boxed core both steppable and
/// downcastable (`ProtocolCore` is `Send + 'static`, so every sized core
/// is `Any`; the explicit methods avoid relying on dyn upcasting).
pub(crate) trait ClusterCore: Send {
    fn as_core(&mut self) -> &mut dyn ProtocolCore;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: ProtocolCore> ClusterCore for T {
    fn as_core(&mut self) -> &mut dyn ProtocolCore {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One endpoint of the cluster: its socket-side slot and its core.
struct Entry {
    slot: Slot,
    core: Box<dyn ClusterCore>,
}

/// A sharded multi-endpoint runtime (see the module docs for the
/// architecture).
///
/// ```no_run
/// use adamant_rt::{Cluster, ClusterConfig, RtError};
/// # use adamant_proto::{Env, Input, NodeId, ProtocolCore};
/// # #[derive(Debug)] struct MyCore;
/// # impl ProtocolCore for MyCore {
/// #     fn step(&mut self, _input: Input<'_>, _env: &mut Env<'_>) {}
/// # }
/// # fn main() -> Result<(), RtError> {
/// let mut cluster = Cluster::new(ClusterConfig::new(4).with_seed(42));
/// for node in 0..64 {
///     cluster.add_endpoint(NodeId(node), "127.0.0.1:0", MyCore)?;
/// }
/// cluster.connect_full_mesh()?;
/// cluster.run_for(std::time::Duration::from_secs(1))?;
/// let stats = cluster.stats();
/// # let _ = stats;
/// # Ok(())
/// # }
/// ```
pub struct Cluster {
    cfg: ClusterConfig,
    /// `None` only for endpoints whose shard was lost to a worker panic.
    entries: Vec<Option<Entry>>,
    /// One timer wheel per worker shard, persisted across
    /// [`run_for`](Cluster::run_for) windows so pending protocol timers
    /// survive window boundaries (a shard lost to a panic gets a fresh
    /// wheel). Lazily sized on the first run.
    wheels: Vec<TimerWheel>,
    /// Shard-level counters accumulated across windows (idle-loop and
    /// pre-demux accounting that belongs to no single endpoint).
    worker: WorkerCounters,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("cfg", &self.cfg)
            .field("endpoints", &self.entries.len())
            .finish()
    }
}

impl Cluster {
    /// An empty cluster; add endpoints, wire them, then run.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        Cluster {
            cfg,
            entries: Vec::new(),
            wheels: Vec::new(),
            worker: WorkerCounters::default(),
        }
    }

    /// Binds a socket at `addr` for `node` and installs `core` on it. The
    /// endpoint's entropy seed is derived deterministically from the
    /// cluster seed and the add index.
    ///
    /// # Errors
    ///
    /// [`RtError::Bind`] when the socket cannot be bound.
    pub fn add_endpoint<C: ProtocolCore>(
        &mut self,
        node: NodeId,
        addr: impl ToSocketAddrs,
        core: C,
    ) -> Result<EndpointId, RtError> {
        let index = self.entries.len();
        let cfg = RtConfig::new(endpoint_seed(self.cfg.seed, index))
            .with_observed(self.cfg.observed)
            .with_clock(self.cfg.clock);
        let mut slot = Slot::bind(node, addr, cfg)?;
        slot.wheel_owner = wheel_owner(index, 0);
        self.entries.push(Some(Entry {
            slot,
            core: Box::new(core),
        }));
        Ok(EndpointId(index))
    }

    /// Restarts endpoint `id` as a fresh incarnation running `core`: the
    /// socket, peer routes, and group table survive (the process came back
    /// on the same port); the core, entropy stream, and in-flight state
    /// are replaced, and timers armed by the previous incarnation are
    /// dropped as stale when they pop from the shard's persistent wheel.
    /// The endpoint's report keeps accumulating across incarnations.
    /// Call between [`run_for`](Cluster::run_for) windows.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn restart_endpoint<C: ProtocolCore>(
        &mut self,
        id: EndpointId,
        core: C,
    ) -> Result<(), RtError> {
        let base = self.cfg.seed;
        let entry = self.entry_mut(id)?;
        let incarnation = u64::from(entry.slot.incarnation) + 1;
        // A distinct deterministic stream per (cluster seed, endpoint,
        // incarnation), so a restarted core never replays its predecessor's
        // entropy.
        let seed = endpoint_seed(
            base.wrapping_add(incarnation.wrapping_mul(0xA076_1D64_78BD_642F)),
            id.0,
        );
        entry.slot.restart(seed);
        entry.core = Box::new(core);
        Ok(())
    }

    /// How many times endpoint `id` has been restarted (0 = original
    /// incarnation).
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn incarnation(&self, id: EndpointId) -> Result<u32, RtError> {
        Ok(self.entry(id)?.slot.incarnation)
    }

    /// Endpoints added so far (including any lost to a shard panic).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no endpoints have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The worker shard `id` runs on: `index % workers`, a pure function
    /// of add order and the configured worker count.
    pub fn shard_of(&self, id: EndpointId) -> usize {
        id.0 % self.cfg.workers.max(1)
    }

    /// The bound address of endpoint `id`.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id,
    /// [`RtError::Addr`] when the OS refuses to report the address.
    pub fn local_addr(&self, id: EndpointId) -> Result<SocketAddr, RtError> {
        self.entry(id)?.slot.local_addr()
    }

    /// The protocol node id of endpoint `id`.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn node(&self, id: EndpointId) -> Result<NodeId, RtError> {
        Ok(self.entry(id)?.slot.node)
    }

    /// Registers where endpoint `id` should send datagrams for `peer`.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn add_peer(
        &mut self,
        id: EndpointId,
        peer: NodeId,
        addr: SocketAddr,
    ) -> Result<(), RtError> {
        self.entry_mut(id)?.slot.peers.insert(peer, addr);
        Ok(())
    }

    /// Replaces endpoint `id`'s group-membership table (index = group id).
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn set_groups(&mut self, id: EndpointId, groups: Vec<Vec<NodeId>>) -> Result<(), RtError> {
        *self.entry_mut(id)?.slot.host.groups_mut() = groups;
        Ok(())
    }

    /// Wires every endpoint to every other (peer routes both ways) and
    /// installs group 0 containing all nodes on each — the all-to-all
    /// session shape the paper's scenarios use.
    ///
    /// # Errors
    ///
    /// [`RtError::Addr`] when a bound address cannot be read.
    pub fn connect_full_mesh(&mut self) -> Result<(), RtError> {
        let mut routes = Vec::with_capacity(self.entries.len());
        let mut all_nodes = Vec::with_capacity(self.entries.len());
        for entry in self.entries.iter().flatten() {
            routes.push((entry.slot.node, entry.slot.local_addr()?));
            all_nodes.push(entry.slot.node);
        }
        for entry in self.entries.iter_mut().flatten() {
            for &(node, addr) in &routes {
                if node != entry.slot.node {
                    entry.slot.peers.insert(node, addr);
                }
            }
            *entry.slot.host.groups_mut() = vec![all_nodes.clone()];
        }
        Ok(())
    }

    /// Runs every endpoint's event loop for `wall` of real time across the
    /// configured worker threads. The first window feeds each core
    /// [`Input::Start`]; later windows resume. Reports keep accumulating
    /// across windows.
    ///
    /// # Errors
    ///
    /// [`RtError::ShardPanicked`] when a worker thread panicked (that
    /// shard's endpoints are lost); otherwise the first hard socket error
    /// any worker hit. Surviving shards' state is retained either way.
    pub fn run_for(&mut self, wall: Duration) -> Result<(), RtError> {
        if self.entries.is_empty() {
            return Ok(());
        }
        let workers = self.cfg.workers.max(1);
        let clock = self.cfg.clock;
        let deadline = clock.now() + Span::from_nanos(wall.as_nanos() as u64);

        // Deal the endpoints out to their shards. Workers take their shard
        // by value (sockets, cores, and the shard's persistent timer wheel
        // move to the thread) and hand it back when the window closes.
        let mut shards: Vec<Vec<(usize, Entry)>> = (0..workers).map(|_| Vec::new()).collect();
        for (index, cell) in self.entries.iter_mut().enumerate() {
            if let Some(entry) = cell.take() {
                shards[index % workers].push((index, entry));
            }
        }
        self.wheels.resize_with(workers, TimerWheel::new);
        let wheels: Vec<TimerWheel> = self.wheels.drain(..).collect();

        let mut first_error: Option<RtError> = None;
        let mut panicked: Option<usize> = None;
        self.wheels.resize_with(workers, TimerWheel::new);
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .zip(wheels)
                .map(|(shard, wheel)| scope.spawn(move || run_shard(shard, wheel, clock, deadline)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for (shard_index, outcome) in joined.into_iter().enumerate() {
            match outcome {
                Ok((shard, wheel, counters, error)) => {
                    for (index, entry) in shard {
                        self.entries[index] = Some(entry);
                    }
                    self.wheels[shard_index] = wheel;
                    self.worker.absorb(counters);
                    if first_error.is_none() {
                        first_error = error;
                    }
                }
                // The panicked shard's wheel stays the fresh one installed
                // above — its endpoints are gone, so their timers are too.
                Err(_) => panicked = panicked.or(Some(shard_index)),
            }
        }
        if let Some(shard) = panicked {
            return Err(RtError::ShardPanicked { shard });
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The report of endpoint `id`, if it is still live.
    pub fn report(&self, id: EndpointId) -> Option<&EndpointReport> {
        self.entries.get(id.0)?.as_ref().map(|e| &e.slot.report)
    }

    /// Iterates `(id, node, report)` over every live endpoint, in add
    /// order.
    pub fn reports(&self) -> impl Iterator<Item = (EndpointId, NodeId, &EndpointReport)> {
        self.entries.iter().enumerate().filter_map(|(i, cell)| {
            cell.as_ref()
                .map(|e| (EndpointId(i), e.slot.node, &e.slot.report))
        })
    }

    /// Downcasts endpoint `id`'s core back to its concrete type for
    /// post-run inspection (`None` on a dead id or type mismatch).
    pub fn core<C: ProtocolCore>(&self, id: EndpointId) -> Option<&C> {
        self.entries
            .get(id.0)?
            .as_ref()?
            .core
            .as_any()
            .downcast_ref::<C>()
    }

    /// Mutable variant of [`core`](Cluster::core).
    pub fn core_mut<C: ProtocolCore>(&mut self, id: EndpointId) -> Option<&mut C> {
        self.entries
            .get_mut(id.0)?
            .as_mut()?
            .core
            .as_any_mut()
            .downcast_mut::<C>()
    }

    /// Aggregate counters across every live endpoint.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = ClusterStats::default();
        for (_, _, report) in self.reports() {
            stats.endpoints += 1;
            stats.delivered += report.delivered.len() as u64;
            stats.recovered += report.recovered_count();
            stats.datagrams_sent += report.datagrams_sent;
            stats.datagrams_received += report.datagrams_received;
            stats.decode_errors += report.decode_errors;
            stats.unroutable += report.unroutable;
            stats.backpressure_stalls += report.backpressure_stalls;
            stats.backpressure_drops += report.backpressure_drops;
            stats.soft_io_errors += report.soft_io_errors;
            stats.stale_drops += report.stale_datagrams;
        }
        stats.busy_polls = self.worker.busy_polls;
        stats.parks = self.worker.parks;
        stats.io_wakes = self.worker.io_wakes;
        stats.header_drops = self.worker.header_drops;
        stats.unknown_endpoint_drops = self.worker.unknown_endpoint_drops;
        stats
    }

    /// Folds per-endpoint counters (`<protocol>/node<i>/<name>`) and the
    /// [`stats`](Cluster::stats) aggregates (`<protocol>/cluster/<name>`)
    /// into `registry`, the same flat key scheme `adamant-metrics` uses
    /// for simulator traces.
    pub fn fold_metrics(&self, protocol: &str, registry: &mut MetricsRegistry) {
        for (_, node, report) in self.reports() {
            let key = |name: &str| MetricsRegistry::node_key(protocol, node, name);
            registry.add(key("delivered"), report.delivered.len() as u64);
            registry.add(key("recovered"), report.recovered_count());
            registry.add(key("datagrams_sent"), report.datagrams_sent);
            registry.add(key("datagrams_received"), report.datagrams_received);
            registry.add(key("decode_errors"), report.decode_errors);
            registry.add(key("unroutable"), report.unroutable);
            registry.add(key("backpressure_stalls"), report.backpressure_stalls);
            registry.add(key("backpressure_drops"), report.backpressure_drops);
            registry.add(key("soft_io_errors"), report.soft_io_errors);
            registry.add(key("stale_datagrams"), report.stale_datagrams);
        }
        self.stats().fold_into(protocol, registry);
    }

    fn entry(&self, id: EndpointId) -> Result<&Entry, RtError> {
        self.entries
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or(RtError::UnknownEndpoint { index: id.0 })
    }

    fn entry_mut(&mut self, id: EndpointId) -> Result<&mut Entry, RtError> {
        self.entries
            .get_mut(id.0)
            .and_then(Option::as_mut)
            .ok_or(RtError::UnknownEndpoint { index: id.0 })
    }
}

/// Deterministic per-endpoint seed: SplitMix64-style stream derivation
/// from the cluster seed and the add index.
pub(crate) fn endpoint_seed(base: u64, index: usize) -> u64 {
    let mut z = base.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The owner code endpoint `index` arms timers under during `incarnation`:
/// the index in the high bits, the incarnation (mod 256) in the low byte,
/// so a restarted endpoint's stale timers are distinguishable when they
/// pop from the shard's persistent wheel.
pub(crate) fn wheel_owner(index: usize, incarnation: u32) -> u32 {
    ((index as u32) << 8) | (incarnation & 0xFF)
}

/// One worker's event loop: drives every endpoint of `shard` against the
/// shard's persistent timer wheel until `deadline`, then returns the shard
/// and wheel (errors are carried out-of-band so the endpoints always come
/// home).
fn run_shard(
    mut shard: Vec<(usize, Entry)>,
    mut wheel: TimerWheel,
    clock: MonotonicClock,
    deadline: TimePoint,
) -> (
    Vec<(usize, Entry)>,
    TimerWheel,
    WorkerCounters,
    Option<RtError>,
) {
    let mut buf = vec![0u8; RECV_BUF_BYTES];
    let mut counters = WorkerCounters::default();
    let result = drive_shard(
        &mut shard,
        &mut wheel,
        &mut buf,
        clock,
        deadline,
        &mut counters,
    );
    (shard, wheel, counters, result.err())
}

fn drive_shard(
    shard: &mut [(usize, Entry)],
    wheel: &mut TimerWheel,
    buf: &mut [u8],
    clock: MonotonicClock,
    deadline: TimePoint,
    counters: &mut WorkerCounters,
) -> Result<(), RtError> {
    // Readiness poller over every socket of the shard: the idle branch
    // parks here until the next timer deadline or an incoming datagram,
    // so an idle shard costs ~0 CPU instead of a 1 ms spin loop.
    let mut poller = Poller::new().map_err(RtError::Io)?;
    for (_, entry) in shard.iter() {
        poller.register(&entry.slot.socket).map_err(RtError::Io)?;
    }
    // Global endpoint index → position in this shard slice, for routing
    // timer fires back to their slot.
    let positions: std::collections::BTreeMap<usize, usize> = shard
        .iter()
        .enumerate()
        .map(|(pos, (index, _))| (*index, pos))
        .collect();
    for (_, entry) in shard.iter_mut() {
        let Entry { slot, core } = entry;
        let owner = slot.wheel_owner;
        slot.start(core.as_core(), wheel, owner)?;
    }
    loop {
        // Fire what is due across the shard, in global deadline order.
        for _ in 0..TIMER_BURST_BATCHES * shard.len() {
            let Some(fire) = wheel.pop_due(clock.now()) else {
                break;
            };
            let index = (fire.owner >> 8) as usize;
            let Some(&pos) = positions.get(&index) else {
                continue; // endpoint no longer in this shard
            };
            let (_, entry) = &mut shard[pos];
            let Entry { slot, core } = entry;
            if fire.owner != slot.wheel_owner {
                continue; // armed by a dead incarnation: drop as stale
            }
            slot.step(
                core.as_core(),
                Input::TimerFired {
                    token: fire.token,
                    tag: fire.tag,
                },
                wheel,
                fire.owner,
            )?;
        }
        if clock.now() >= deadline {
            break;
        }
        // One batched I/O pass over the shard: retry parked sends, then
        // drain each socket until `WouldBlock`.
        let mut progressed = false;
        for (_, entry) in shard.iter_mut() {
            let Entry { slot, core } = entry;
            let owner = slot.wheel_owner;
            progressed |= slot.flush_outbox()? > 0;
            progressed |= slot.drain_socket(core.as_core(), buf, wheel, owner)?;
        }
        if !progressed {
            counters.busy_polls += 1;
            let next = wheel
                .next_deadline()
                .unwrap_or(TimePoint::MAX)
                .min(deadline);
            let mut wait = Duration::from_nanos(next.saturating_since(clock.now()).as_nanos());
            if shard.iter().any(|(_, e)| !e.slot.outbox.is_empty()) {
                // The poller only watches readability; parked sends need
                // a bounded retry cadence, not a timer-length nap.
                wait = wait.min(Duration::from_millis(1));
            }
            if !wait.is_zero() {
                counters.parks += 1;
                let ready = poller.wait(wait).map_err(RtError::Io)?;
                counters.io_wakes += u64::from(ready > 0);
            }
        }
    }
    for (_, entry) in shard.iter_mut() {
        entry.slot.flush_outbox()?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adamant_proto::{Env, GroupId, ProcessingCost, WireMsg};
    use std::collections::BTreeSet;

    /// Gives every counter of `report` that `fold_metrics` reads a distinct
    /// non-zero value derived from `k`.
    pub(crate) fn fill_report(report: &mut EndpointReport, k: u64) {
        let at = TimePoint::from_nanos(0);
        report.delivered = (0..k).map(|seq| (seq, at, seq % 2 == 1)).collect();
        report.datagrams_sent = 10 + k;
        report.datagrams_received = 20 + k;
        report.decode_errors = 30 + k;
        report.stale_datagrams = 40 + k;
        report.unroutable = 50 + k;
        report.backpressure_stalls = 60 + k;
        report.backpressure_drops = 70 + k;
        report.soft_io_errors = 80 + k;
    }

    /// Every counter folded both per node and per cluster must add up: the
    /// keys of nodes `0..nodes` sum to the cluster key, and to something.
    pub(crate) fn assert_node_keys_sum_to_cluster_keys(registry: &MetricsRegistry, nodes: u32) {
        let both_levels = [
            ("delivered", "delivered"),
            ("recovered", "recovered"),
            ("datagrams_sent", "datagrams_sent"),
            ("datagrams_received", "datagrams_received"),
            ("decode_errors", "decode_errors"),
            ("unroutable", "unroutable"),
            ("backpressure_stalls", "backpressure_stalls"),
            ("backpressure_drops", "backpressure_drops"),
            ("soft_io_errors", "soft_io_errors"),
            ("stale_datagrams", "stale_drops"),
        ];
        for (node_name, cluster_name) in both_levels {
            let summed: u64 = (0..nodes)
                .map(|n| registry.counter(&MetricsRegistry::node_key("udp", NodeId(n), node_name)))
                .sum();
            let cluster = registry.counter(&format!("udp/cluster/{cluster_name}"));
            assert!(summed > 0, "no node accounts for {node_name}");
            assert_eq!(summed, cluster, "{node_name} vs cluster {cluster_name}");
        }
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
    fn cluster_runs_a_beacon_session_across_workers() {
        let mut cluster = Cluster::new(ClusterConfig::new(3).with_seed(7));
        let tx = cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Beacon { next: 0, total: 25 })
            .unwrap();
        let mut listeners = Vec::new();
        for node in 1..8u32 {
            listeners.push(
                cluster
                    .add_endpoint(NodeId(node), "127.0.0.1:0", Listener)
                    .unwrap(),
            );
        }
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(150)).unwrap();
        assert_eq!(cluster.core::<Beacon>(tx).unwrap().next, 25);
        let want: BTreeSet<u64> = (0..25).collect();
        for &id in &listeners {
            assert_eq!(cluster.report(id).unwrap().delivered_seqs(), want);
        }
        let stats = cluster.stats();
        assert_eq!(stats.endpoints, 8);
        assert_eq!(stats.delivered, 25 * 7);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.unroutable, 0);
    }

    #[test]
    fn timers_pending_at_a_window_boundary_fire_in_the_next_window() {
        // The beacon publishes on a 1 ms timer; splitting the run into two
        // windows must not strand the timer armed at the first window's
        // close (the wheel persists on the cluster between windows).
        let mut cluster = Cluster::new(ClusterConfig::new(2).with_seed(11));
        let tx = cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Beacon { next: 0, total: 40 })
            .unwrap();
        let rx = cluster
            .add_endpoint(NodeId(1), "127.0.0.1:0", Listener)
            .unwrap();
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(25)).unwrap();
        let mid = cluster.core::<Beacon>(tx).unwrap().next;
        assert!(mid < 40, "first window should end mid-stream, got {mid}");
        cluster.run_for(Duration::from_millis(60)).unwrap();
        assert_eq!(
            cluster.core::<Beacon>(tx).unwrap().next,
            40,
            "publication must resume after the window boundary"
        );
        assert_eq!(
            cluster.report(rx).unwrap().delivered_seqs(),
            (0..40).collect::<BTreeSet<u64>>()
        );
    }

    #[test]
    fn restart_endpoint_swaps_the_core_and_drops_stale_timers() {
        /// Counts its own timer fires, forever.
        #[derive(Debug, Default)]
        struct Ticker {
            fires: u64,
        }
        impl ProtocolCore for Ticker {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                match input {
                    Input::Start => {
                        env.set_timer(Span::from_millis(1), 1);
                    }
                    Input::TimerFired { .. } => {
                        self.fires += 1;
                        env.set_timer(Span::from_millis(1), 1);
                    }
                    _ => {}
                }
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::new(1).with_seed(5));
        let id = cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Ticker::default())
            .unwrap();
        let addr = cluster.local_addr(id).unwrap();
        cluster.run_for(Duration::from_millis(30)).unwrap();
        let before = cluster.core::<Ticker>(id).unwrap().fires;
        assert!(before > 0);
        assert_eq!(cluster.incarnation(id).unwrap(), 0);

        cluster.restart_endpoint(id, Ticker::default()).unwrap();
        assert_eq!(cluster.incarnation(id).unwrap(), 1);
        assert_eq!(cluster.local_addr(id).unwrap(), addr, "socket survives");
        cluster.run_for(Duration::from_millis(30)).unwrap();
        let after = cluster.core::<Ticker>(id).unwrap().fires;
        // The fresh core restarted its count; the dead incarnation's
        // pending timer was dropped as stale rather than double-driving
        // the new core.
        assert!(
            after > 0 && after <= 35,
            "restarted ticker fired {after} times"
        );
    }

    #[test]
    fn shard_assignment_is_index_mod_workers() {
        let mut cluster = Cluster::new(ClusterConfig::new(4));
        let mut ids = Vec::new();
        for node in 0..10u32 {
            ids.push(
                cluster
                    .add_endpoint(NodeId(node), "127.0.0.1:0", Listener)
                    .unwrap(),
            );
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(cluster.shard_of(id), i % 4);
        }
    }

    #[test]
    fn worker_panic_surfaces_as_shard_panicked() {
        #[derive(Debug)]
        struct Bomb;
        impl ProtocolCore for Bomb {
            fn step(&mut self, input: Input<'_>, _env: &mut Env<'_>) {
                if matches!(input, Input::Start) {
                    panic!("boom");
                }
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::new(2));
        let survivor = cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Listener)
            .unwrap();
        let bomb = cluster
            .add_endpoint(NodeId(1), "127.0.0.1:0", Bomb)
            .unwrap();
        let err = cluster.run_for(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, RtError::ShardPanicked { shard: 1 }));
        // The surviving shard's endpoint came home; the bomb's did not.
        assert!(cluster.report(survivor).is_some());
        assert!(cluster.report(bomb).is_none());
        assert!(matches!(
            cluster.local_addr(bomb),
            Err(RtError::UnknownEndpoint { index: 1 })
        ));
    }

    #[test]
    fn restart_endpoint_out_of_range_is_a_typed_error() {
        let mut cluster = Cluster::new(ClusterConfig::new(1));
        let err = cluster
            .restart_endpoint(EndpointId(0), Listener)
            .unwrap_err();
        assert!(matches!(err, RtError::UnknownEndpoint { index: 0 }));

        cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Listener)
            .unwrap();
        let err = cluster
            .restart_endpoint(EndpointId(99), Listener)
            .unwrap_err();
        assert!(matches!(err, RtError::UnknownEndpoint { index: 99 }));
    }

    #[test]
    fn restart_endpoint_after_shard_panic_is_unknown_endpoint() {
        #[derive(Debug)]
        struct Bomb;
        impl ProtocolCore for Bomb {
            fn step(&mut self, input: Input<'_>, _env: &mut Env<'_>) {
                if matches!(input, Input::Start) {
                    panic!("boom");
                }
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::new(2));
        let survivor = cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Listener)
            .unwrap();
        let bomb = cluster
            .add_endpoint(NodeId(1), "127.0.0.1:0", Bomb)
            .unwrap();
        let err = cluster.run_for(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, RtError::ShardPanicked { shard: 1 }));

        // The endpoint lost with the panicked shard cannot be restarted —
        // its socket died with the worker — and says so as a typed error
        // rather than panicking or silently re-adding.
        let err = cluster.restart_endpoint(bomb, Listener).unwrap_err();
        assert!(matches!(err, RtError::UnknownEndpoint { index: 1 }));
        // The surviving shard's endpoint is unaffected.
        cluster.restart_endpoint(survivor, Listener).unwrap();
        assert_eq!(cluster.incarnation(survivor).unwrap(), 1);
    }

    #[test]
    fn double_restart_yields_distinct_incarnations() {
        let mut cluster = Cluster::new(ClusterConfig::new(1).with_seed(3));
        let id = cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Listener)
            .unwrap();
        let addr = cluster.local_addr(id).unwrap();
        // Back-to-back restarts with no run_for in between must both
        // succeed: each bumps the incarnation (staling the previous
        // incarnation's timers) and keeps the bound socket.
        cluster.restart_endpoint(id, Listener).unwrap();
        cluster.restart_endpoint(id, Listener).unwrap();
        assert_eq!(cluster.incarnation(id).unwrap(), 2);
        assert_eq!(cluster.local_addr(id).unwrap(), addr);
        cluster.run_for(Duration::from_millis(5)).unwrap();
        assert_eq!(cluster.incarnation(id).unwrap(), 2);
    }

    #[test]
    fn metrics_fold_under_node_and_cluster_keys() {
        let mut cluster = Cluster::new(ClusterConfig::new(2).with_seed(9));
        cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Beacon { next: 0, total: 5 })
            .unwrap();
        cluster
            .add_endpoint(NodeId(1), "127.0.0.1:0", Listener)
            .unwrap();
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(60)).unwrap();
        let mut registry = MetricsRegistry::new();
        cluster.fold_metrics("udp", &mut registry);
        assert_eq!(registry.counter("udp/node1/delivered"), 5);
        assert_eq!(registry.counter("udp/cluster/delivered"), 5);
        assert_eq!(registry.counter("udp/cluster/endpoints"), 2);
        assert_eq!(
            registry.counter("udp/cluster/datagrams_sent"),
            registry.counter("udp/node0/datagrams_sent")
                + registry.counter("udp/node1/datagrams_sent")
        );
    }

    #[test]
    fn node_keys_sum_to_the_cluster_key_for_every_counter_at_both_levels() {
        let mut cluster = Cluster::new(ClusterConfig::new(2));
        for node in 0..3u32 {
            let id = cluster
                .add_endpoint(NodeId(node), "127.0.0.1:0", Listener)
                .unwrap();
            let report = &mut cluster.entry_mut(id).unwrap().slot.report;
            fill_report(report, 1 + u64::from(node));
        }
        let mut registry = MetricsRegistry::new();
        cluster.fold_metrics("udp", &mut registry);
        assert_node_keys_sum_to_cluster_keys(&registry, 3);
    }

    /// Satellite of the readiness-notification rework: an idle cluster
    /// must park its workers in `poll()` until the window deadline, not
    /// spin a short-sleep loop. Before the poller, 4 workers over 300 ms
    /// accrued ~1200 no-progress iterations; now each worker parks once
    /// (plus at most a couple of early wakes from epoll's millisecond
    /// timeout floor). Linux-gated: the portable fallback deliberately
    /// keeps the legacy capped-sleep cadence.
    #[cfg(target_os = "linux")]
    #[test]
    fn idle_cluster_parks_instead_of_busy_spinning() {
        let mut cluster = Cluster::new(ClusterConfig::new(4).with_seed(1));
        for node in 0..64u32 {
            cluster
                .add_endpoint(NodeId(node), "127.0.0.1:0", Listener)
                .unwrap();
        }
        cluster.run_for(Duration::from_millis(300)).unwrap();
        let stats = cluster.stats();
        assert!(
            stats.busy_polls <= 32,
            "idle cluster busy-spun: {} no-progress iterations",
            stats.busy_polls
        );
        assert_eq!(stats.datagrams_received, 0);
    }

    #[test]
    fn endpoint_seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = (0..16).map(|i| endpoint_seed(42, i)).collect();
        let distinct: BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_eq!(
            seeds,
            (0..16).map(|i| endpoint_seed(42, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_core_rearming_a_zero_delay_timer_cannot_starve_its_neighbours() {
        /// Always has a timer due.
        #[derive(Debug)]
        struct Spinner;
        impl ProtocolCore for Spinner {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                if matches!(input, Input::Start | Input::TimerFired { .. }) {
                    env.set_timer(Span::ZERO, 0);
                }
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::new(1).with_seed(13));
        cluster
            .add_endpoint(NodeId(0), "127.0.0.1:0", Spinner)
            .unwrap();
        let rx = cluster
            .add_endpoint(NodeId(1), "127.0.0.1:0", Listener)
            .unwrap();
        let mut frame = Vec::new();
        adamant_proto::FrameHeader::broadcast(NodeId(9)).encode(&mut frame);
        let sample = WireMsg::Data(adamant_proto::wire::DataMsg {
            seq: 7,
            published_at: TimePoint::from_nanos(0),
            retransmission: false,
        });
        adamant_proto::FrameHeader::encode_body_entry(&mut frame, &sample.to_bytes());
        let probe = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        probe
            .send_to(&frame, cluster.local_addr(rx).unwrap())
            .unwrap();
        // The window still ends on time, and the listener was served.
        let start = std::time::Instant::now();
        cluster.run_for(Duration::from_millis(50)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(
            cluster.report(rx).unwrap().delivered_seqs(),
            BTreeSet::from([7])
        );
    }
}
