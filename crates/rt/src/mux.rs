//! The multiplexed runtime: thousands of endpoints over a handful of
//! shared sockets, driven by readiness notification and batched syscalls.
//!
//! [`MuxCluster`] hosts N [`ProtocolCore`] endpoints in one process,
//! partitioned across `workers` threads, and gives each worker a small
//! fixed pool of shared sockets to multiplex its whole shard over:
//!
//! * **Demux keys, not socket identity.** Every datagram carries a
//!   [`FrameHeader`] listing the destination endpoint indices and
//!   incarnations. The worker routes each received datagram to every
//!   endpoint it names; unknown keys, truncated headers, and
//!   cross-incarnation strays are counted in [`ClusterStats`] as typed
//!   drops, one destination at a time — never a panic, never a
//!   misdelivery.
//! * **One datagram per destination worker.** A [`Destination::Group`]
//!   send is a multicast in the protocols' cost model, and it is one here
//!   too: the members behind one worker share a single datagram whose
//!   header names them all, following a per-group plan that is cached
//!   between [`run_for`](MuxCluster::run_for) windows.
//! * **Packed datagrams, batched syscalls.** Everything a worker pass
//!   queues for one address shares a datagram, a frame per sender and
//!   header (wire version 4; [`Frames`] walks them back out). Outboxes
//!   flush via `sendmmsg`; receives drain via `recvmmsg`
//!   ([`crate::poller`] carries the portable single-syscall fallbacks).
//! * **Readiness, not spinning.** A worker pass fires the due timers (a
//!   bounded number), flushes its outboxes, then makes *one* readiness
//!   query — until the next [`TimerWheel`] deadline or the first incoming
//!   datagram, whichever comes first — and receives only on the sockets
//!   the query named. Idle CPU is ~0 regardless of endpoint count.
//!
//! The file-descriptor budget is `workers × sockets_per_worker` no matter
//! how many endpoints are added, which is what makes a 100k-endpoint
//! process possible at all; one socket per endpoint is the pool sized to
//! the shard.
//!
//! Endpoint `i` lives on shard `i % workers` — a pure function of the add
//! order, so the same construction sequence always yields the same shard
//! layout — at position `i / workers` of it, and is pinned to socket
//! `(i / workers) % sockets_per_worker` of that worker's pool. The shard
//! table *is* the storage: a [`run_for`](MuxCluster::run_for) window lends
//! worker `w` its shard, socket pool and timer wheel in place, and one
//! before which nothing was added, restarted or re-wired visits no entry
//! it has no timer or datagram for — its fixed cost is spawn + poller +
//! join whatever the fleet size. A worker that panics forfeits its shard
//! (entries cleared, sockets closed); the others run on.
//!
//! **One wheel per shard, kept between windows.** Every timer of every
//! core in a shard lives on the shard's one [`TimerWheel`], so a worker
//! makes one `next_deadline` query per park no matter how many endpoints
//! it hosts. The wheels live on the cluster between windows, so timers
//! pending when a window closes fire in the next one. Each timer is armed
//! under its endpoint's index and incarnation, so one armed by an
//! incarnation that has since been restarted is dropped as stale when it
//! pops. The index takes the top 24 bits of that `u32` owner code, so a
//! cluster holds at most 2^24 (16 777 216) endpoints.
//!
//! **Restart.** Routing is by [`NodeId`] → `(socket address, endpoint
//! index, incarnation)`. A [`restart_endpoint`](MuxCluster::restart_endpoint)
//! swaps in a fresh core on a fresh entropy stream, bumps the incarnation
//! **and rewrites every peer's route entry**, so only datagrams already in
//! flight at the restart instant are dropped as stale; the report keeps
//! accumulating across incarnations.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use adamant_metrics::MetricsRegistry;
use adamant_proto::{
    Clock, Destination, Effect, EnvHost, FrameDest, FrameError, FrameHeader, FramePart, Frames,
    Input, NodeId, ProtocolCore, Span, TimePoint, TimerWheel, WireMsg, ANY_INCARNATION,
};

use crate::clock::MonotonicClock;
use crate::error::RtError;
use crate::poller::{
    set_socket_buffers, set_worker_timer_slack, soft_io_error, Poller, RecvBatch, SendBatch,
};
use crate::report::{ClusterStats, EndpointId, EndpointReport, WorkerCounters};

/// Kernel buffer size requested per shared socket: large enough to absorb
/// a full burst wave from every endpoint multiplexed onto the socket
/// between two drain passes (the kernel clamps to `net.core.rmem_max`).
const SOCKET_BUF_BYTES: usize = 4 << 20;

/// Most datagrams a worker's per-socket outbox queues while the socket is
/// flow-blocked before it starts shedding new ones (counted as
/// [`backpressure_drops`](EndpointReport::backpressure_drops)).
const OUTBOX_MAX: usize = 4096;

/// Due timers one worker pass fires, in units of the datagrams it moves
/// per syscall (`batch_size`), before it flushes and drains. After a stall
/// every overdue timer is due at once; firing them all before serving a
/// socket would shed the burst at `OUTBOX_MAX` and at the kernel receive
/// buffer, and a core that always has a timer due would never let the
/// pass end. The rest stay due for the next pass.
const TIMER_BURST_BATCHES: usize = 4;

/// Configuration for a [`MuxCluster`] (consuming `with_*` builders).
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Worker threads to shard endpoints across (at least 1).
    pub workers: usize,
    /// Shared UDP sockets per worker (at least 1). The process-wide
    /// descriptor budget is `workers × sockets_per_worker`, independent
    /// of endpoint count. A few sockets per worker spreads kernel socket
    /// buffers without inflating the poll set.
    pub sockets_per_worker: usize,
    /// Datagrams per `recvmmsg`/`sendmmsg` batch (at least 1). Larger
    /// batches amortise syscall cost at the price of batch-buffer memory
    /// (`batch_size × 64 KiB` receive buffer per worker).
    pub batch_size: usize,
    /// Base entropy seed; endpoint `i` derives its stream from
    /// `(base, i)`, so one cluster seed determines every core's stream.
    pub seed: u64,
    /// Whether cores' trace events are recorded in their reports.
    pub observed: bool,
    /// The wall clock shared by every endpoint of the cluster.
    pub clock: MonotonicClock,
}

impl MuxConfig {
    /// A config for `workers` threads with 4 sockets per worker, batch
    /// size 32, seed 0, tracing on, and a clock anchored now.
    pub fn new(workers: usize) -> Self {
        MuxConfig {
            workers: workers.max(1),
            sockets_per_worker: 4,
            batch_size: 32,
            seed: 0,
            observed: true,
            clock: MonotonicClock::start(),
        }
    }

    /// Replaces the per-worker socket pool size (builder-style).
    pub fn with_sockets_per_worker(mut self, sockets: usize) -> Self {
        self.sockets_per_worker = sockets.max(1);
        self
    }

    /// Replaces the syscall batch size (builder-style).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
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

/// Where an endpoint sends datagrams for one peer node: the peer's shared
/// socket plus the demux key its worker routes by.
#[derive(Debug, Clone, Copy)]
struct MuxRoute {
    addr: SocketAddr,
    endpoint: u32,
    incarnation: u32,
}

impl MuxRoute {
    fn dest(&self) -> FrameDest {
        FrameDest {
            endpoint: self.endpoint,
            incarnation: self.incarnation,
        }
    }

    /// The worker that demuxes this route's datagrams: endpoints are dealt
    /// out `index % workers`, so the key itself names the shard.
    fn shard(&self, workers: usize) -> usize {
        self.endpoint as usize % workers
    }
}

/// One datagram of a group's fan-out: the socket it goes to and the
/// prebuilt header naming every member it reaches.
struct PlanFrame {
    addr: SocketAddr,
    header: Vec<u8>,
    /// Destinations `header` lists (what shedding this frame drops).
    dests: u64,
}

/// The cached fan-out of one group: its members bucketed by destination
/// worker, one [`PlanFrame`] per bucket chunk. A send copies each frame's
/// header and appends the body — no per-member route lookup.
#[derive(Default)]
struct GroupPlan {
    frames: Vec<PlanFrame>,
    /// Members with no route (charged to `unroutable` on every send).
    unroutable: u64,
}

/// Most destinations one planned frame lists: the header may fill half the
/// coalescing cap, leaving the other half for body entries.
const PLAN_DESTS_MAX: usize = (COALESCE_BYTES / 2 - FrameHeader::len_for(0)) / FrameDest::LEN;
const _: () = assert!(PLAN_DESTS_MAX >= 1 && PLAN_DESTS_MAX <= FrameHeader::MAX_DESTS);

impl GroupPlan {
    /// Plans `sender`'s fan-out to `members`. Members behind one worker
    /// share a frame addressed to the first such member's pinned socket
    /// (the worker drains its whole pool and demux never looks at the
    /// arrival socket).
    fn build(
        sender: NodeId,
        members: &[NodeId],
        routes: &HashMap<NodeId, MuxRoute>,
        workers: usize,
    ) -> GroupPlan {
        let mut plan = GroupPlan::default();
        let mut buckets: Vec<(usize, SocketAddr, Vec<FrameDest>)> = Vec::new();
        for member in members.iter().filter(|&&member| member != sender) {
            let Some(route) = routes.get(member) else {
                plan.unroutable += 1;
                continue;
            };
            let shard = route.shard(workers);
            let open = buckets
                .iter_mut()
                .find(|(bucket, _, dests)| *bucket == shard && dests.len() < PLAN_DESTS_MAX);
            match open {
                Some((_, _, dests)) => dests.push(route.dest()),
                None => buckets.push((shard, route.addr, vec![route.dest()])),
            }
        }
        for (_, addr, dests) in buckets {
            let mut header = Vec::with_capacity(FrameHeader::len_for(dests.len()));
            // Cannot refuse: a bucket holds 1..=PLAN_DESTS_MAX destinations.
            FrameHeader::encode_list(sender, &dests, &mut header);
            plan.frames.push(PlanFrame {
                addr,
                header,
                dests: dests.len() as u64,
            });
        }
        plan
    }
}

/// Object-safe bridge that keeps a boxed core both steppable and
/// downcastable (`ProtocolCore` is `Send + 'static`, so every sized core
/// is `Any`; the explicit methods avoid relying on dyn upcasting).
trait ClusterCore: Send {
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

/// Deterministic seed of endpoint `index`'s `incarnation`: SplitMix64-style
/// stream derivation from the cluster seed, so one cluster seed determines
/// every core's stream and a restarted core never replays its
/// predecessor's entropy.
fn endpoint_seed(base: u64, index: usize, incarnation: u32) -> u64 {
    let base = base.wrapping_add(u64::from(incarnation).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut z = base.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Endpoints one cluster holds: an index must fit the 24 high bits of its
/// [`wheel_owner`] code.
const MAX_ENDPOINTS: usize = 1 << 24;

/// The owner code endpoint `index` arms timers under during `incarnation`:
/// the index in the high bits, the incarnation (mod 256) in the low byte,
/// so a restarted endpoint's stale timers are distinguishable when they
/// pop from the shard's persistent wheel.
fn wheel_owner(index: usize, incarnation: u32) -> u32 {
    ((index as u32) << 8) | (incarnation & 0xFF)
}

/// One endpoint of the mux cluster. An entry owns no socket — it is
/// pinned to one of its worker's shared sockets by index.
struct MuxEntry {
    node: NodeId,
    host: EnvHost,
    core: Box<dyn ClusterCore>,
    routes: HashMap<NodeId, MuxRoute>,
    report: EndpointReport,
    started: bool,
    observed: bool,
    incarnation: u32,
    wheel_owner: u32,
    /// Index into the worker's socket pool this endpoint sends from (and
    /// whose bound address peers send to).
    socket: usize,
    /// Fan-out plan per group (index = group id; empty for an endpoint
    /// without groups), rebuilt by `run_for` when `plans_stale`.
    plans: Box<[GroupPlan]>,
    /// Set by whatever changes the routes or the group table — all of it
    /// runs between windows, so a worker never sees a stale plan.
    plans_stale: bool,
}

// `fleet_100k`'s `peak_rss_mb` is 100 000 of these plus what each owns, and
// until the benchmark measures set-up differently the 1 024-endpoint
// `setup_s` depends on the allocator state the entry table's growth leaves
// behind (DESIGN.md §5.3, candidate (b)): growing an entry moves both.
const _: () = assert!(std::mem::size_of::<MuxEntry>() <= 296);

impl MuxEntry {
    fn rebuild_plans(&mut self, workers: usize) {
        let MuxEntry {
            node, host, routes, ..
        } = self;
        self.plans = host
            .groups_mut()
            .iter()
            .map(|members| GroupPlan::build(*node, members, routes, workers))
            .collect();
        self.plans_stale = false;
    }
}

/// A datagram packed into a worker's per-socket outbox: one or more
/// frames for `addr`, tagged with the shard-local position of the endpoint
/// that opened it, which its send is accounted to. Later messages for
/// `addr` join it — as body entries of its newest frame when that frame is
/// theirs, behind a frame break otherwise — instead of opening a new one.
struct OutMsg {
    addr: SocketAddr,
    buf: Vec<u8>,
    from: usize,
    /// Where the newest frame's header starts in `buf`.
    frame_at: usize,
    /// Shard-local position of the endpoint that queued the newest frame.
    frame_from: usize,
}

/// Packing cap per datagram: messages for the same address pack into one
/// datagram until it reaches this size — an Ethernet-safe payload, so
/// packed datagrams survive off-loopback paths without fragmentation.
const COALESCE_BYTES: usize = 1400;

/// The multiplexed sharded runtime (see the module docs for the
/// architecture).
///
/// ```no_run
/// use adamant_rt::{MuxCluster, MuxConfig, RtError};
/// # use adamant_proto::{Env, Input, NodeId, ProtocolCore};
/// # #[derive(Debug)] struct MyCore;
/// # impl ProtocolCore for MyCore {
/// #     fn step(&mut self, _input: Input<'_>, _env: &mut Env<'_>) {}
/// # }
/// # fn main() -> Result<(), RtError> {
/// let cfg = MuxConfig::new(4)
///     .with_sockets_per_worker(4)
///     .with_batch_size(32)
///     .with_seed(42);
/// let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg)?;
/// for node in 0..100_000 {
///     cluster.add_endpoint(NodeId(node), MyCore)?;
/// }
/// cluster.connect_full_mesh()?;
/// cluster.run_for(std::time::Duration::from_secs(1))?;
/// let stats = cluster.stats();
/// # let _ = stats;
/// # Ok(())
/// # }
/// ```
pub struct MuxCluster {
    cfg: MuxConfig,
    /// The entries, stored where they run: endpoint `i` is
    /// `shards[i % workers][i / workers]`, and a window lends `shards[w]`
    /// to worker `w`. A shard lost to a worker panic is empty.
    shards: Vec<Vec<MuxEntry>>,
    /// Endpoints added so far, lost ones included.
    len: usize,
    /// Set by whatever adds or restarts an endpoint or changes a route or
    /// group table — all of it runs between windows. A window that finds
    /// it clear visits no entry it has no event for.
    dirty: bool,
    /// Each worker's socket pool (emptied for a shard lost to a panic).
    sockets: Vec<Vec<UdpSocket>>,
    /// Bound address of every socket, `addrs[shard][socket]`.
    addrs: Vec<Vec<SocketAddr>>,
    /// One timer wheel per shard, persisted across windows so pending
    /// timers survive window boundaries.
    wheels: Vec<TimerWheel>,
    worker: WorkerCounters,
}

impl std::fmt::Debug for MuxCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxCluster")
            .field("cfg", &self.cfg)
            .field("endpoints", &self.len)
            .finish()
    }
}

impl MuxCluster {
    /// Binds the shared socket pools (`workers × sockets_per_worker`
    /// sockets at `addr`, typically `"127.0.0.1:0"`) and returns an empty
    /// cluster; add endpoints, wire them, then run.
    ///
    /// # Errors
    ///
    /// [`RtError::Bind`] when any socket cannot be bound,
    /// [`RtError::Addr`] when a bound address cannot be read.
    pub fn bind(addr: impl ToSocketAddrs + Copy, cfg: MuxConfig) -> Result<MuxCluster, RtError> {
        let workers = cfg.workers.max(1);
        let per_worker = cfg.sockets_per_worker.max(1);
        let mut sockets = Vec::with_capacity(workers);
        let mut addrs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let mut pool = Vec::with_capacity(per_worker);
            let mut pool_addrs = Vec::with_capacity(per_worker);
            for _ in 0..per_worker {
                let sock = UdpSocket::bind(addr).map_err(RtError::Bind)?;
                sock.set_nonblocking(true).map_err(RtError::Bind)?;
                set_socket_buffers(&sock, SOCKET_BUF_BYTES).map_err(RtError::Bind)?;
                pool_addrs.push(sock.local_addr().map_err(RtError::Addr)?);
                pool.push(sock);
            }
            sockets.push(pool);
            addrs.push(pool_addrs);
        }
        Ok(MuxCluster {
            cfg,
            shards: (0..workers).map(|_| Vec::new()).collect(),
            len: 0,
            dirty: false,
            sockets,
            addrs,
            wheels: Vec::new(),
            worker: WorkerCounters::default(),
        })
    }

    /// Installs `core` as endpoint `node` on the next index. No socket is
    /// bound: the endpoint shares its shard's pool, and peers reach it by
    /// demux key at [`endpoint_addr`](MuxCluster::endpoint_addr).
    ///
    /// # Errors
    ///
    /// [`RtError::TooManyEndpoints`] once 2^24 endpoints (lost ones
    /// included) were added; that refusal consumes no index.
    ///
    /// [`RtError::ShardPanicked`] when the index falls on a shard that lost
    /// its sockets to an earlier worker panic. The refused add still
    /// consumes its index — [`len`](MuxCluster::len) counts it as a lost
    /// endpoint — so the next add goes to the next shard.
    pub fn add_endpoint<C: ProtocolCore>(
        &mut self,
        node: NodeId,
        core: C,
    ) -> Result<EndpointId, RtError> {
        let index = self.len;
        if index >= MAX_ENDPOINTS {
            return Err(RtError::TooManyEndpoints { max: MAX_ENDPOINTS });
        }
        let shard = index % self.shards.len();
        self.len += 1;
        if self.sockets[shard].is_empty() {
            return Err(RtError::ShardPanicked { shard });
        }
        let socket = (index / self.shards.len()) % self.sockets[shard].len();
        self.shards[shard].push(MuxEntry {
            node,
            host: EnvHost::new(node, endpoint_seed(self.cfg.seed, index, 0))
                .with_observed(self.cfg.observed),
            core: Box::new(core),
            routes: HashMap::new(),
            report: EndpointReport::default(),
            started: false,
            observed: self.cfg.observed,
            incarnation: 0,
            wheel_owner: wheel_owner(index, 0),
            socket,
            plans: Box::default(),
            plans_stale: false,
        });
        self.dirty = true;
        Ok(EndpointId(index))
    }

    /// Restarts endpoint `id` as a fresh incarnation running `core`: the
    /// pinned socket, peer routes and group table survive (the process
    /// came back on the same port); the core, entropy stream and in-flight
    /// state are replaced, and timers armed by the previous incarnation
    /// are dropped as stale when they pop from the shard's wheel. Every
    /// live peer's route to this node (and with it the peer's group
    /// fan-out plans) is re-stamped with the new incarnation, so only
    /// datagrams already in flight at the restart instant are dropped as
    /// stale. The endpoint's report keeps accumulating across
    /// incarnations. Call between [`run_for`](MuxCluster::run_for) windows.
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
        let node = entry.node;
        entry.incarnation = entry.incarnation.wrapping_add(1);
        entry.wheel_owner = wheel_owner(id.0, entry.incarnation);
        entry.started = false;
        let incarnation = entry.incarnation;
        let seed = endpoint_seed(base, id.0, incarnation);
        let groups = std::mem::take(entry.host.groups_mut());
        entry.host = EnvHost::new(node, seed).with_observed(entry.observed);
        *entry.host.groups_mut() = groups;
        entry.core = Box::new(core);
        // Re-stamp every peer's route so post-restart sends reach the new
        // incarnation instead of being dropped as stale.
        for cell in self.shards.iter_mut().flatten() {
            if let Some(route) = cell.routes.get_mut(&node) {
                if route.endpoint == id.0 as u32 {
                    route.incarnation = incarnation;
                    cell.plans_stale = true;
                }
            }
        }
        self.dirty = true;
        Ok(())
    }

    /// How many times endpoint `id` has been restarted.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn incarnation(&self, id: EndpointId) -> Result<u32, RtError> {
        Ok(self.entry(id)?.incarnation)
    }

    /// Endpoints added so far (including any lost to a shard panic).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no endpoints have been added.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The worker shard `id` runs on: `index % workers`.
    pub fn shard_of(&self, id: EndpointId) -> usize {
        id.0 % self.shards.len()
    }

    /// The shared-socket address peers should send endpoint `id`'s
    /// datagrams to, framed with its demux key (its index and
    /// incarnation).
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn endpoint_addr(&self, id: EndpointId) -> Result<SocketAddr, RtError> {
        let entry = self.entry(id)?;
        Ok(self.addrs[self.shard_of(id)][entry.socket])
    }

    /// The protocol node id of endpoint `id`.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn node(&self, id: EndpointId) -> Result<NodeId, RtError> {
        Ok(self.entry(id)?.node)
    }

    /// Routes endpoint `id`'s sends for `peer`'s node to `peer`'s shared
    /// socket, stamped with `peer`'s demux key (`id == peer` gives an
    /// endpoint a route to itself, which self-echo benchmarks use).
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] when either id is dead or out of range.
    pub fn add_peer(&mut self, id: EndpointId, peer: EndpointId) -> Result<(), RtError> {
        let peer_entry = self.entry(peer)?;
        let route = MuxRoute {
            addr: self.addrs[self.shard_of(peer)][peer_entry.socket],
            endpoint: peer.0 as u32,
            incarnation: peer_entry.incarnation,
        };
        let peer_node = peer_entry.node;
        let entry = self.entry_mut(id)?;
        entry.routes.insert(peer_node, route);
        entry.plans_stale = true;
        self.dirty = true;
        Ok(())
    }

    /// Replaces endpoint `id`'s group-membership table (index = group id).
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownEndpoint`] for a dead or out-of-range id.
    pub fn set_groups(&mut self, id: EndpointId, groups: Vec<Vec<NodeId>>) -> Result<(), RtError> {
        let entry = self.entry_mut(id)?;
        *entry.host.groups_mut() = groups;
        entry.plans_stale = true;
        self.dirty = true;
        Ok(())
    }

    /// Wires every endpoint to every other (routes both ways) and installs
    /// group 0 containing all nodes on each — the all-to-all session shape
    /// the paper's scenarios use.
    pub fn connect_full_mesh(&mut self) -> Result<(), RtError> {
        let mut routes = Vec::with_capacity(self.len);
        let mut all_nodes = Vec::with_capacity(self.len);
        for (index, entry) in self.live() {
            routes.push((
                entry.node,
                MuxRoute {
                    addr: self.addrs[index % self.shards.len()][entry.socket],
                    endpoint: index as u32,
                    incarnation: entry.incarnation,
                },
            ));
            all_nodes.push(entry.node);
        }
        for cell in self.shards.iter_mut().flatten() {
            for &(node, route) in &routes {
                if node != cell.node {
                    cell.routes.insert(node, route);
                }
            }
            *cell.host.groups_mut() = vec![all_nodes.clone()];
            cell.plans_stale = true;
        }
        self.dirty = true;
        Ok(())
    }

    /// Runs every endpoint's event loop for `wall` of real time across the
    /// configured worker threads, each worker multiplexing its whole shard
    /// over its socket pool with batched syscalls. The first window feeds
    /// each core [`Input::Start`]; later windows resume. Reports keep
    /// accumulating across windows.
    ///
    /// # Errors
    ///
    /// [`RtError::ShardPanicked`] when a worker thread panicked (that
    /// shard's endpoints and sockets are lost); otherwise the first hard
    /// socket error any worker hit.
    pub fn run_for(&mut self, wall: Duration) -> Result<(), RtError> {
        if self.len == 0 {
            return Ok(());
        }
        let workers = self.shards.len();
        let batch = self.cfg.batch_size.max(1);
        let clock = self.cfg.clock;
        let deadline = clock.now() + Span::from_nanos(wall.as_nanos() as u64);

        let dirty = std::mem::take(&mut self.dirty);
        if dirty {
            for entry in self.shards.iter_mut().flatten() {
                if entry.plans_stale {
                    entry.rebuild_plans(workers);
                }
            }
        }
        self.wheels.resize_with(workers, TimerWheel::new);

        let mut first_error: Option<RtError> = None;
        let mut panicked: Option<usize> = None;
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .zip(&self.sockets)
                .zip(&mut self.wheels)
                .map(|((shard, pool), wheel)| {
                    scope.spawn(move || {
                        let mut counters = WorkerCounters::default();
                        let result = drive_mux_shard(
                            shard,
                            pool,
                            wheel,
                            clock,
                            deadline,
                            workers,
                            batch,
                            dirty,
                            &mut counters,
                        );
                        (counters, result.err())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for (shard_index, outcome) in joined.into_iter().enumerate() {
            match outcome {
                Ok((counters, error)) => {
                    self.worker.absorb(counters);
                    first_error = first_error.or(error);
                }
                // What the worker was stepping when it died cannot be
                // trusted: the shard's endpoints, sockets and timers go.
                Err(_) => {
                    self.shards[shard_index].clear();
                    self.sockets[shard_index].clear();
                    self.wheels[shard_index] = TimerWheel::new();
                    panicked = panicked.or(Some(shard_index));
                }
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
        self.entry(id).ok().map(|e| &e.report)
    }

    /// Iterates `(id, node, report)` over every live endpoint, in add
    /// order.
    pub fn reports(&self) -> impl Iterator<Item = (EndpointId, NodeId, &EndpointReport)> {
        self.live().map(|(i, e)| (EndpointId(i), e.node, &e.report))
    }

    /// Downcasts endpoint `id`'s core back to its concrete type for
    /// post-run inspection (`None` on a dead id or type mismatch).
    pub fn core<C: ProtocolCore>(&self, id: EndpointId) -> Option<&C> {
        self.entry(id).ok()?.core.as_any().downcast_ref::<C>()
    }

    /// Mutable variant of [`core`](MuxCluster::core).
    pub fn core_mut<C: ProtocolCore>(&mut self, id: EndpointId) -> Option<&mut C> {
        self.entry_mut(id)
            .ok()?
            .core
            .as_any_mut()
            .downcast_mut::<C>()
    }

    /// Aggregate counters across every live endpoint plus the workers'
    /// shard-level drop/idle accounting.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = ClusterStats::default();
        for (_, _, report) in self.reports() {
            stats.endpoints += 1;
            stats.delivered += report.delivered.len() as u64;
            stats.recovered += report.recovered_count();
            stats.datagrams_sent += report.datagrams_sent;
            stats.decode_errors += report.decode_errors;
            stats.unroutable += report.unroutable;
            stats.backpressure_stalls += report.backpressure_stalls;
            stats.backpressure_drops += report.backpressure_drops;
            stats.soft_io_errors += report.soft_io_errors;
            stats.stale_drops += report.stale_datagrams;
        }
        stats.datagrams_received = self.worker.datagrams_received;
        stats.frames_received = self.worker.frames_received;
        stats.busy_polls = self.worker.busy_polls;
        stats.parks = self.worker.parks;
        stats.io_wakes = self.worker.io_wakes;
        stats.header_drops = self.worker.header_drops;
        stats.unknown_endpoint_drops = self.worker.unknown_endpoint_drops;
        stats
    }

    /// Folds per-endpoint counters (`<protocol>/node<i>/<name>`) and the
    /// [`stats`](MuxCluster::stats) aggregates (`<protocol>/cluster/<name>`)
    /// into `registry`, the same flat key scheme `adamant-metrics` uses for
    /// simulator traces.
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

    /// Every live entry with its endpoint index, in index (= add) order.
    fn live(&self) -> impl Iterator<Item = (usize, &MuxEntry)> {
        let workers = self.shards.len();
        (0..self.len).filter_map(move |i| Some((i, self.shards[i % workers].get(i / workers)?)))
    }

    fn entry(&self, id: EndpointId) -> Result<&MuxEntry, RtError> {
        self.shards[self.shard_of(id)]
            .get(id.0 / self.shards.len())
            .ok_or(RtError::UnknownEndpoint { index: id.0 })
    }

    fn entry_mut(&mut self, id: EndpointId) -> Result<&mut MuxEntry, RtError> {
        let (shard, pos) = (self.shard_of(id), id.0 / self.shards.len());
        self.shards[shard]
            .get_mut(pos)
            .ok_or(RtError::UnknownEndpoint { index: id.0 })
    }
}

/// Scratch buffers a worker reuses across every step of a window.
struct Scratch {
    effects: Vec<Effect>,
    body: Vec<u8>,
    /// Retired datagram buffers, recycled to keep the hot path
    /// allocation-free once warmed up.
    pool: Vec<Vec<u8>>,
    /// Shard positions of the live destinations of the datagram being
    /// demuxed.
    live: Vec<usize>,
}

/// Maps a global endpoint index to its position in this shard's entry
/// slice: entries are dealt out strided (`shard_index`, `shard_index +
/// workers`, …), so position is `global / workers` — verified against the
/// index the entry arms its timers under, so a stale or hostile key can
/// never alias another entry.
fn local_pos(global: usize, shard: &[MuxEntry], workers: usize) -> Option<usize> {
    let pos = global / workers;
    let entry = shard.get(pos)?;
    ((entry.wheel_owner >> 8) as usize == global).then_some(pos)
}

/// One worker's window over the shard, socket pool and timer wheel it is
/// lent; `dirty` says some entry may still be waiting for its `Start`.
#[allow(clippy::too_many_arguments)]
fn drive_mux_shard(
    shard: &mut [MuxEntry],
    sockets: &[UdpSocket],
    wheel: &mut TimerWheel,
    clock: MonotonicClock,
    deadline: TimePoint,
    workers: usize,
    batch: usize,
    dirty: bool,
    counters: &mut WorkerCounters,
) -> Result<(), RtError> {
    set_worker_timer_slack();
    let mut recv = RecvBatch::new(batch);
    let mut send = SendBatch::new(batch);
    let mut outboxes: Vec<VecDeque<OutMsg>> = (0..sockets.len()).map(|_| VecDeque::new()).collect();
    let mut scratch = Scratch {
        effects: Vec::new(),
        body: Vec::new(),
        pool: Vec::new(),
        live: Vec::new(),
    };

    // Before anything that can fail, so a dirty window starts every entry
    // that needs it and a clean one has none to look for.
    if dirty {
        for (pos, entry) in shard.iter_mut().enumerate() {
            if !entry.started {
                entry.started = true;
                let now = clock.now();
                step_entry(
                    entry,
                    pos,
                    Input::Start,
                    now,
                    wheel,
                    &mut outboxes,
                    &mut scratch,
                );
            }
        }
    }
    let mut poller = Poller::new().map_err(RtError::Io)?;
    for sock in sockets {
        poller.register(sock).map_err(RtError::Io)?;
    }
    let fire_max = TIMER_BURST_BATCHES * batch;
    loop {
        // 1. Fire what is due across the shard, in global deadline order.
        let mut fired = 0;
        while fired < fire_max {
            let Some(fire) = wheel.pop_due(clock.now()) else {
                break;
            };
            fired += 1;
            let index = (fire.owner >> 8) as usize;
            let Some(pos) = local_pos(index, shard, workers) else {
                continue;
            };
            if fire.owner != shard[pos].wheel_owner {
                continue; // armed by a dead incarnation: drop as stale
            }
            let now = clock.now();
            step_entry(
                &mut shard[pos],
                pos,
                Input::TimerFired {
                    token: fire.token,
                    tag: fire.tag,
                },
                now,
                wheel,
                &mut outboxes,
                &mut scratch,
            );
        }
        if clock.now() >= deadline {
            break;
        }
        let mut progressed = fired > 0;
        // 2. Flush each socket's coalesced outbox in send batches.
        for (si, sock) in sockets.iter().enumerate() {
            progressed |=
                flush_socket(sock, &mut outboxes[si], &mut send, shard, &mut scratch.pool)? > 0;
        }
        // 3. One readiness query: until the next deadline — no time at all
        // when a timer is already due, so receive is never starved — or
        // the first readable socket.
        let next = wheel
            .next_deadline()
            .unwrap_or(TimePoint::MAX)
            .min(deadline);
        let mut wait = Duration::from_nanos(next.saturating_since(clock.now()).as_nanos());
        if outboxes.iter().any(|o| !o.is_empty()) {
            // The poller only watches readability; parked sends need a
            // bounded retry cadence, not a timer-length nap.
            wait = wait.min(Duration::from_millis(1));
        }
        let ready = poller.wait(wait).map_err(RtError::Io)?;
        if !wait.is_zero() {
            counters.parks += 1;
            counters.io_wakes += u64::from(ready > 0);
        }
        // 4. Drain the sockets it named in receive batches, demuxing as we go.
        for &si in poller.ready() {
            loop {
                let n = recv.recv(&sockets[si]).map_err(RtError::Recv)?;
                if n == 0 {
                    break;
                }
                progressed = true;
                let now = clock.now();
                demux_batch(
                    &recv,
                    shard,
                    workers,
                    now,
                    wheel,
                    &mut outboxes,
                    &mut scratch,
                    counters,
                );
                if n < batch {
                    break; // short batch: the queue is (momentarily) dry
                }
            }
        }
        if recv.soft_errors > 0 {
            // ICMP noise read off a shared socket belongs to no single
            // endpoint; fold it into the first live entry's report so the
            // aggregate stat still carries it.
            if let Some(entry) = shard.first_mut() {
                entry.report.soft_io_errors += recv.soft_errors;
            }
            recv.soft_errors = 0;
        }
        counters.busy_polls += u64::from(!progressed);
    }
    for (si, sock) in sockets.iter().enumerate() {
        flush_socket(sock, &mut outboxes[si], &mut send, shard, &mut scratch.pool)?;
    }
    Ok(())
}

/// Queues one frame's worth of a send on `outbox`: `body` becomes a body
/// entry of a frame opening with `header`, bound for `addr`.
///
/// The address decides the datagram: whatever the newest queued datagram
/// for the same address has room for joins it, so per-datagram costs
/// amortize over everything one pass sends there. The sender and the
/// header decide the frame: `body` extends the datagram's newest frame
/// when that is the same sender's and opens with the same header bytes (a
/// header spells out its own length, so a matching prefix is a matching
/// header — same `src`, same destinations, same incarnations), and goes
/// behind a frame break and `header` otherwise. Only the newest datagram
/// is looked at, which keeps every sender's frames for an address in the
/// order they were queued. What fits nowhere opens a new datagram, shed —
/// one drop per destination it would have reached — once the outbox is
/// full.
#[inline]
#[allow(clippy::too_many_arguments)]
fn queue_frame(
    outbox: &mut VecDeque<OutMsg>,
    pool: &mut Vec<Vec<u8>>,
    report: &mut EndpointReport,
    from: usize,
    addr: SocketAddr,
    header: &[u8],
    dests: u64,
    body: &[u8],
) {
    if let Some(back) = outbox.back_mut().filter(|back| back.addr == addr) {
        let same_frame = back.frame_from == from && back.buf[back.frame_at..].starts_with(header);
        let opening = if same_frame { 0 } else { 2 + header.len() };
        if back.buf.len() + opening + 2 + body.len() <= COALESCE_BYTES {
            if !same_frame {
                FrameHeader::encode_break(&mut back.buf);
                (back.frame_at, back.frame_from) = (back.buf.len(), from);
                back.buf.extend_from_slice(header);
            }
            FrameHeader::encode_body_entry(&mut back.buf, body);
            return;
        }
    }
    if outbox.len() >= OUTBOX_MAX {
        report.backpressure_drops += dests;
        return;
    }
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(header);
    FrameHeader::encode_body_entry(&mut buf, body);
    outbox.push_back(OutMsg {
        addr,
        buf,
        from,
        frame_at: 0,
        frame_from: from,
    });
}

/// Steps one entry's core and discharges its effects: sends are framed
/// with the destinations' demux keys and coalesced into the worker's
/// per-socket outbox (a group send as one datagram per frame of the
/// group's cached plan); timers go to the shard wheel; deliveries and
/// traces to the entry's report.
fn step_entry(
    entry: &mut MuxEntry,
    pos: usize,
    input: Input<'_>,
    now: TimePoint,
    wheel: &mut TimerWheel,
    outboxes: &mut [VecDeque<OutMsg>],
    scratch: &mut Scratch,
) {
    let MuxEntry {
        node,
        host,
        core,
        routes,
        report,
        wheel_owner: owner,
        socket,
        plans,
        ..
    } = entry;
    let mut effects = std::mem::take(&mut scratch.effects);
    host.step_into(core.as_core(), now, input, &mut effects);
    for effect in effects.drain(..) {
        match effect {
            Effect::Send { dst, msg, .. } => {
                scratch.body.clear();
                msg.encode(&mut scratch.body);
                let outbox = &mut outboxes[*socket];
                let Scratch { body, pool, .. } = scratch;
                match dst {
                    Destination::Node(peer) => match routes.get(&peer) {
                        Some(route) => {
                            let header = FrameHeader {
                                src: *node,
                                dst_endpoint: route.endpoint,
                                dst_incarnation: route.incarnation,
                            }
                            .to_bytes();
                            queue_frame(outbox, pool, report, pos, route.addr, &header, 1, body);
                        }
                        None => report.unroutable += 1,
                    },
                    Destination::Group(group) => {
                        if let Some(plan) = plans.get(group.index()) {
                            report.unroutable += plan.unroutable;
                            for frame in &plan.frames {
                                queue_frame(
                                    outbox,
                                    pool,
                                    report,
                                    pos,
                                    frame.addr,
                                    &frame.header,
                                    frame.dests,
                                    body,
                                );
                            }
                        }
                    }
                }
            }
            Effect::SetTimer { token, delay, tag } => {
                wheel.arm(now + delay, *owner, token, tag);
            }
            Effect::CancelTimer { token } => wheel.cancel(*owner, token),
            Effect::Deliver {
                seq,
                published_at,
                recovered,
            } => report.delivered.push(seq, published_at, recovered),
            Effect::Trace(event) => report.events.push(event),
        }
    }
    scratch.effects = effects;
}

/// Routes every frame of every datagram of a filled receive batch to the
/// endpoints its header names, counting pre-demux failures in the worker
/// counters and post-demux failures in each resolved endpoint's report.
/// Every frame is judged on its own, and so is every destination of a
/// frame; each body entry is decoded once and steps every live
/// destination's core, so each core sees the entries in order.
#[allow(clippy::too_many_arguments)]
fn demux_batch(
    recv: &RecvBatch,
    shard: &mut [MuxEntry],
    workers: usize,
    now: TimePoint,
    wheel: &mut TimerWheel,
    outboxes: &mut [VecDeque<OutMsg>],
    scratch: &mut Scratch,
    counters: &mut WorkerCounters,
) {
    for datagram in recv.datagrams() {
        let mut live = std::mem::take(&mut scratch.live);
        let mut resolved = false;
        let mut src = NodeId(0);
        for part in Frames::new(datagram) {
            match part {
                Ok(FramePart::Header(header)) => {
                    counters.frames_received += 1;
                    src = header.src;
                    live.clear();
                    for dest in header.iter() {
                        // A wildcard key cannot be routed on a shared
                        // socket: `ANY_ENDPOINT` resolves to no position,
                        // like any index the shard does not hold.
                        let Some(pos) = local_pos(dest.endpoint as usize, shard, workers) else {
                            counters.unknown_endpoint_drops += 1;
                            continue;
                        };
                        resolved = true;
                        let entry = &mut shard[pos];
                        entry.report.datagrams_received += 1;
                        if dest.incarnation != ANY_INCARNATION
                            && dest.incarnation != entry.incarnation
                        {
                            entry.report.stale_datagrams += 1;
                            continue;
                        }
                        live.push(pos);
                    }
                }
                // Damage is counted where it is found, against every
                // endpoint it cost a message; a frame nobody is live for
                // is walked past unread.
                Ok(FramePart::Entry(bytes)) if !live.is_empty() => {
                    let msg = WireMsg::decode(bytes);
                    for &pos in &live {
                        let entry = &mut shard[pos];
                        let Some(msg) = &msg else {
                            entry.report.decode_errors += 1;
                            continue;
                        };
                        let input = Input::PacketIn { src, msg };
                        step_entry(entry, pos, input, now, wheel, outboxes, scratch);
                    }
                }
                Ok(FramePart::Entry(_)) => {}
                Err(FrameError::Header) => counters.header_drops += 1,
                Err(FrameError::Body) => {
                    for &pos in &live {
                        shard[pos].report.decode_errors += 1;
                    }
                }
            }
        }
        counters.datagrams_received += u64::from(resolved);
        live.clear();
        scratch.live = live;
    }
}

/// Flushes one socket's outbox in `sendmmsg` batches until it empties or
/// the socket flow-blocks. Returns the number of datagrams sent; retired
/// buffers return to the pool.
fn flush_socket(
    sock: &UdpSocket,
    outbox: &mut VecDeque<OutMsg>,
    send: &mut SendBatch,
    shard: &mut [MuxEntry],
    pool: &mut Vec<Vec<u8>>,
) -> Result<usize, RtError> {
    let mut total = 0;
    while !outbox.is_empty() {
        let n = outbox.len().min(send.capacity());
        match send.send(sock, outbox.iter().map(|m| (m.addr, m.buf.as_slice()))) {
            Ok(0) => {
                // Flow-blocked: charge a stall to the stuck message's
                // sender and let the idle branch pace the retry.
                if let Some(front) = outbox.front() {
                    shard[front.from].report.backpressure_stalls += 1;
                }
                break;
            }
            Ok(sent) => {
                for _ in 0..sent {
                    let msg = outbox.pop_front().expect("sent ≤ queued");
                    shard[msg.from].report.datagrams_sent += 1;
                    pool.push(msg.buf);
                }
                total += sent;
                if sent < n {
                    break; // partial batch: the socket is filling up
                }
            }
            Err(e) if soft_io_error(&e) => {
                // The error names the first unsent message: drop it so
                // the batch makes progress past the unreachable peer.
                if let Some(msg) = outbox.pop_front() {
                    shard[msg.from].report.soft_io_errors += 1;
                    pool.push(msg.buf);
                }
            }
            Err(e) => return Err(RtError::Send(e)),
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::{Env, GroupId, ProcessingCost, ANY_ENDPOINT};
    use std::collections::BTreeSet;

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

    fn small_mux(workers: usize, seed: u64) -> MuxCluster {
        MuxCluster::bind("127.0.0.1:0", MuxConfig::new(workers).with_seed(seed)).unwrap()
    }

    #[test]
    fn mux_cluster_runs_a_beacon_session_across_workers() {
        let mut cluster = small_mux(3, 7);
        let tx = cluster
            .add_endpoint(NodeId(0), Beacon { next: 0, total: 25 })
            .unwrap();
        let mut listeners = Vec::new();
        for node in 1..8u32 {
            listeners.push(cluster.add_endpoint(NodeId(node), Listener).unwrap());
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
        assert_eq!(stats.unknown_endpoint_drops, 0);
        assert_eq!(stats.header_drops, 0);
        assert_eq!(stats.stale_drops, 0);
    }

    #[test]
    fn more_endpoints_than_sockets_still_all_deliver() {
        // 40 endpoints over 2 workers × 2 sockets: at least 10 endpoints
        // share every socket, so delivery proves the demux key works.
        let cfg = MuxConfig::new(2)
            .with_sockets_per_worker(2)
            .with_batch_size(4)
            .with_seed(9);
        let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).unwrap();
        let tx = cluster
            .add_endpoint(NodeId(0), Beacon { next: 0, total: 10 })
            .unwrap();
        let mut rx = Vec::new();
        for node in 1..40u32 {
            rx.push(cluster.add_endpoint(NodeId(node), Listener).unwrap());
        }
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(200)).unwrap();
        assert_eq!(cluster.core::<Beacon>(tx).unwrap().next, 10);
        let want: BTreeSet<u64> = (0..10).collect();
        for &id in &rx {
            assert_eq!(cluster.report(id).unwrap().delivered_seqs(), want);
        }
    }

    #[test]
    fn unknown_endpoint_and_truncated_headers_are_typed_drops() {
        let mut cluster = small_mux(2, 3);
        let id = cluster.add_endpoint(NodeId(0), Listener).unwrap();
        let addr = cluster.endpoint_addr(id).unwrap();
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();

        let msg = WireMsg::Fin(adamant_proto::wire::FinMsg { total: 1 });
        // Demux key naming an endpoint that does not exist.
        let mut unknown = Vec::new();
        FrameHeader {
            src: NodeId(9),
            dst_endpoint: 999,
            dst_incarnation: ANY_INCARNATION,
        }
        .encode(&mut unknown);
        FrameHeader::encode_body_entry(&mut unknown, &msg.to_bytes());
        probe.send_to(&unknown, addr).unwrap();
        // Wildcard key: unroutable on a shared socket.
        let mut wildcard = Vec::new();
        FrameHeader::broadcast(NodeId(9)).encode(&mut wildcard);
        FrameHeader::encode_body_entry(&mut wildcard, &msg.to_bytes());
        probe.send_to(&wildcard, addr).unwrap();
        // Truncated header.
        probe.send_to(&[4, 1, 0], addr).unwrap();
        // A destination list cut short of the two entries it announces.
        let mut short_list = wildcard.clone();
        short_list[5] = 2;
        probe
            .send_to(&short_list[..FrameHeader::LEN], addr)
            .unwrap();
        // An empty destination list.
        let mut no_dests = wildcard.clone();
        no_dests[5] = 0;
        probe.send_to(&no_dests, addr).unwrap();
        // Wire versions that are no longer spoken.
        probe.send_to(&[1, 0, 0, 0, 0], addr).unwrap();
        for version in [2, 3] {
            let mut old = wildcard.clone();
            old[0] = version;
            probe.send_to(&old, addr).unwrap();
        }

        cluster.run_for(Duration::from_millis(50)).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.unknown_endpoint_drops, 2);
        assert_eq!(stats.header_drops, 6);
        assert_eq!(stats.delivered, 0);
        // Pre-demux failures are attributed to no endpoint.
        assert_eq!(stats.datagrams_received, 0);
    }

    fn data(seq: u64) -> WireMsg {
        WireMsg::Data(adamant_proto::wire::DataMsg {
            seq,
            published_at: TimePoint::from_nanos(0),
            retransmission: false,
        })
    }

    /// A beacon publishing `total` samples into group 0 = `listeners`
    /// in-cluster [`Listener`]s, wired sender → listeners only.
    fn beacon_group(
        cluster: &mut MuxCluster,
        total: u64,
        listeners: u32,
    ) -> (EndpointId, Vec<EndpointId>) {
        let tx = cluster
            .add_endpoint(NodeId(0), Beacon { next: 0, total })
            .unwrap();
        let mut group = vec![NodeId(0)];
        let mut rx = Vec::new();
        for node in 1..=listeners {
            let id = cluster.add_endpoint(NodeId(node), Listener).unwrap();
            cluster.add_peer(tx, id).unwrap();
            group.push(NodeId(node));
            rx.push(id);
        }
        cluster.set_groups(tx, vec![group]).unwrap();
        (tx, rx)
    }

    #[test]
    fn group_send_is_one_datagram_per_destination_worker() {
        let want: BTreeSet<u64> = (0..25).collect();
        // One worker: the 8 listeners share every datagram, and a member
        // the sender has no route to is unroutable on every send.
        let mut cluster = small_mux(1, 21);
        let (tx, rx) = beacon_group(&mut cluster, 25, 8);
        let group = (0..=8).chain([77]).map(NodeId).collect();
        cluster.set_groups(tx, vec![group]).unwrap();
        cluster.run_for(Duration::from_millis(150)).unwrap();
        assert_eq!(cluster.report(tx).unwrap().datagrams_sent, 25);
        assert_eq!(cluster.report(tx).unwrap().unroutable, 25);
        for &id in &rx {
            let report = cluster.report(id).unwrap();
            assert_eq!(report.delivered_seqs(), want);
            assert_eq!(report.datagrams_received, 25);
        }
        let stats = cluster.stats();
        assert_eq!(stats.delivered, 25 * 8);
        // A wire datagram counts once cluster-wide, once per endpoint it
        // names in the endpoints' own reports.
        assert_eq!(stats.datagrams_received, 25);

        // Three workers: at most one datagram per worker per publish.
        let mut cluster = small_mux(3, 22);
        let (tx, rx) = beacon_group(&mut cluster, 25, 8);
        cluster.run_for(Duration::from_millis(150)).unwrap();
        let sent = cluster.report(tx).unwrap().datagrams_sent;
        assert!((25..=3 * 25).contains(&sent), "sent {sent} datagrams");
        for &id in &rx {
            assert_eq!(cluster.report(id).unwrap().delivered_seqs(), want);
        }
    }

    #[test]
    fn every_destination_of_a_frame_is_checked_on_its_own() {
        let mut cluster = small_mux(1, 23);
        cluster.add_endpoint(NodeId(0), Listener).unwrap();
        let restarted = cluster.add_endpoint(NodeId(1), Listener).unwrap();
        cluster.restart_endpoint(restarted, Listener).unwrap();
        let addr = cluster.endpoint_addr(restarted).unwrap();

        // One live, one unknown, one wildcard, one stale destination.
        let dest = |endpoint, incarnation| FrameDest {
            endpoint,
            incarnation,
        };
        let dests = [
            dest(0, 0),
            dest(999, ANY_INCARNATION),
            dest(ANY_ENDPOINT, ANY_INCARNATION),
            dest(1, 0),
        ];
        let mut frame = Vec::new();
        assert!(FrameHeader::encode_list(NodeId(9), &dests, &mut frame));
        FrameHeader::encode_body_entry(&mut frame, &data(4).to_bytes());
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe.send_to(&frame, addr).unwrap();

        cluster.run_for(Duration::from_millis(50)).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.unknown_endpoint_drops, 2);
        assert_eq!(stats.stale_drops, 1);
        assert_eq!(stats.header_drops, 0);
        assert_eq!(stats.datagrams_received, 1);
        assert_eq!(cluster.report(restarted).unwrap().stale_datagrams, 1);
    }

    #[test]
    fn damaged_body_entries_are_charged_to_every_live_destination() {
        let mut cluster = small_mux(1, 24);
        let a = cluster.add_endpoint(NodeId(0), Listener).unwrap();
        let b = cluster.add_endpoint(NodeId(1), Listener).unwrap();
        let dests = [a, b].map(|id| FrameDest {
            endpoint: id.0 as u32,
            incarnation: 0,
        });
        let mut frame = Vec::new();
        FrameHeader::encode_list(NodeId(9), &dests, &mut frame);
        FrameHeader::encode_body_entry(&mut frame, &data(1).to_bytes());
        FrameHeader::encode_body_entry(&mut frame, &[250]); // no such wire kind
        frame.extend_from_slice(&[200, 0, 9]); // claims 200 bytes, has 1
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe
            .send_to(&frame, cluster.endpoint_addr(a).unwrap())
            .unwrap();
        cluster.run_for(Duration::from_millis(50)).unwrap();
        for id in [a, b] {
            let report = cluster.report(id).unwrap();
            assert_eq!(report.delivered_seqs(), BTreeSet::from([1]));
            assert_eq!(report.decode_errors, 2);
        }
    }

    #[test]
    fn restart_restamps_cached_group_plans_so_traffic_resumes() {
        let mut cluster = small_mux(1, 25);
        let (tx, rx) = beacon_group(&mut cluster, 10, 3);
        cluster.run_for(Duration::from_millis(80)).unwrap();
        for &id in &rx {
            assert_eq!(cluster.report(id).unwrap().delivered.len(), 10);
        }
        // Restart one member of the group, then publish a second stream
        // from a restarted sender: its cached plan for the group must name
        // the member's new incarnation.
        cluster.restart_endpoint(rx[1], Listener).unwrap();
        cluster
            .restart_endpoint(
                tx,
                Beacon {
                    next: 10,
                    total: 20,
                },
            )
            .unwrap();
        cluster.run_for(Duration::from_millis(80)).unwrap();
        let want: BTreeSet<u64> = (0..20).collect();
        for &id in &rx {
            let report = cluster.report(id).unwrap();
            assert_eq!(report.delivered_seqs(), want);
            assert_eq!(report.stale_datagrams, 0);
        }
        assert_eq!(cluster.report(tx).unwrap().datagrams_sent, 20);
    }

    #[test]
    fn large_groups_chunk_into_frames_under_the_coalescing_cap() {
        let mut cluster = small_mux(1, 27);
        let (tx, rx) = beacon_group(&mut cluster, 5, 300);
        cluster.run_for(Duration::from_millis(150)).unwrap();
        let want: BTreeSet<u64> = (0..5).collect();
        for &id in &rx {
            assert_eq!(cluster.report(id).unwrap().delivered_seqs(), want);
        }
        let plan = &cluster.entry(tx).unwrap().plans[0];
        assert!(plan.frames.len() >= 2);
        assert_eq!(plan.frames.iter().map(|f| f.dests).sum::<u64>(), 300);
        let body = data(u64::MAX).to_bytes();
        for frame in &plan.frames {
            assert!(frame.dests as usize <= FrameHeader::MAX_DESTS);
            assert!(frame.header.len() + 2 + body.len() <= COALESCE_BYTES);
        }
        let sent = cluster.report(tx).unwrap().datagrams_sent;
        assert_eq!(sent, 5 * plan.frames.len() as u64);
    }

    /// `queue_frame` with a throwaway buffer pool.
    fn queue(
        outbox: &mut VecDeque<OutMsg>,
        report: &mut EndpointReport,
        from: usize,
        addr: SocketAddr,
        header: &[u8],
        dests: u64,
        body: &[u8],
    ) {
        queue_frame(
            outbox,
            &mut Vec::new(),
            report,
            from,
            addr,
            header,
            dests,
            body,
        );
    }

    /// Entries per frame of a queued datagram, which must walk cleanly.
    fn frame_sizes(msg: &OutMsg) -> Vec<usize> {
        let mut sizes = Vec::new();
        for part in Frames::new(&msg.buf) {
            match part.expect("a queued datagram is well formed") {
                FramePart::Header(_) => sizes.push(0),
                FramePart::Entry(_) => *sizes.last_mut().unwrap() += 1,
            }
        }
        sizes
    }

    #[test]
    fn the_address_decides_the_datagram_and_sender_plus_header_the_frame() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let header_for = |incarnation| {
            let dests = [0, 1].map(|endpoint| FrameDest {
                endpoint,
                incarnation,
            });
            let mut header = Vec::new();
            FrameHeader::encode_list(NodeId(0), &dests, &mut header);
            header
        };
        let mut outbox = VecDeque::new();
        let mut report = EndpointReport::default();
        let body = data(1).to_bytes();
        let header = header_for(0);
        // Same sender, same header: one frame grows.
        queue(&mut outbox, &mut report, 0, addr, &header, 2, &body);
        queue(&mut outbox, &mut report, 0, addr, &header, 2, &body);
        assert_eq!(outbox.len(), 1);
        assert_eq!(frame_sizes(&outbox[0]), [2]);
        // Another sender, or a re-stamped header, for the same address:
        // the same datagram, a frame of its own.
        queue(&mut outbox, &mut report, 1, addr, &header, 2, &body);
        queue(&mut outbox, &mut report, 1, addr, &header_for(1), 2, &body);
        queue(&mut outbox, &mut report, 1, addr, &header_for(1), 2, &body);
        assert_eq!(outbox.len(), 1);
        assert_eq!(frame_sizes(&outbox[0]), [2, 1, 2]);
        assert_eq!((outbox[0].from, outbox[0].frame_from), (0, 1));
        // Another address: another datagram, and only the newest is packed
        // into — a return to the first address does not reach back.
        let other: SocketAddr = "127.0.0.1:10".parse().unwrap();
        queue(&mut outbox, &mut report, 1, other, &header, 2, &body);
        queue(&mut outbox, &mut report, 0, addr, &header, 2, &body);
        assert_eq!(outbox.len(), 3);
        assert_eq!(frame_sizes(&outbox[0]), [2, 1, 2]);
        // The cap is never exceeded: an entry that would cross it opens a
        // new datagram ...
        let room = COALESCE_BYTES - outbox[2].buf.len();
        let crosses = vec![0; room - 1];
        queue(&mut outbox, &mut report, 0, addr, &header, 2, &crosses);
        assert_eq!(outbox.len(), 4);
        // ... so does a frame whose break and header would, though its
        // entry alone had room ...
        let room = COALESCE_BYTES - outbox[3].buf.len();
        let entry_only = vec![0; room - 2];
        queue(&mut outbox, &mut report, 1, addr, &header, 2, &entry_only);
        assert_eq!(outbox.len(), 5);
        // ... and what fits, fits to the byte.
        let room = COALESCE_BYTES - outbox[4].buf.len();
        let exact = vec![0; room - 2];
        queue(&mut outbox, &mut report, 1, addr, &header, 2, &exact);
        assert_eq!(outbox.len(), 5);
        assert_eq!(outbox[4].buf.len(), COALESCE_BYTES);
        assert!(outbox.iter().all(|m| m.buf.len() <= COALESCE_BYTES));
        assert_eq!(report.backpressure_drops, 0);
    }

    #[test]
    fn only_opening_a_datagram_at_a_full_outbox_sheds() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let other: SocketAddr = "127.0.0.1:10".parse().unwrap();
        let mut unicast = Vec::new();
        FrameHeader::broadcast(NodeId(0)).encode(&mut unicast);
        let mut group = Vec::new();
        let dests: Vec<FrameDest> = (0..8)
            .map(|endpoint| FrameDest {
                endpoint,
                incarnation: 0,
            })
            .collect();
        FrameHeader::encode_list(NodeId(0), &dests, &mut group);
        let body = data(1).to_bytes();
        let mut outbox = VecDeque::new();
        let mut report = EndpointReport::default();
        for i in 0..OUTBOX_MAX {
            let to = if i % 2 == 0 { other } else { addr };
            queue(&mut outbox, &mut report, 0, to, &unicast, 1, &body);
        }
        assert_eq!(outbox.len(), OUTBOX_MAX);
        // What fits the newest datagram opens nothing and drops nothing:
        // the same frame's next entry, and another sender's frame.
        queue(&mut outbox, &mut report, 0, addr, &unicast, 1, &body);
        queue(&mut outbox, &mut report, 1, addr, &group, 8, &body);
        assert_eq!(frame_sizes(&outbox[OUTBOX_MAX - 1]), [2, 1]);
        assert_eq!(report.backpressure_drops, 0);
        // What cannot — another address, or no room left — would open a
        // datagram, and is shed once per destination it would have reached.
        queue(&mut outbox, &mut report, 0, other, &group, 8, &body);
        assert_eq!(report.backpressure_drops, 8);
        queue(
            &mut outbox,
            &mut report,
            0,
            addr,
            &unicast,
            1,
            &[0; COALESCE_BYTES],
        );
        assert_eq!(report.backpressure_drops, 9);
        assert_eq!(outbox.len(), OUTBOX_MAX);
    }

    /// Sends samples `next..end` to `peer`, one per pass of a zero-delay
    /// timer (so two of them on one worker take turns).
    #[derive(Debug)]
    struct Ticker {
        peer: NodeId,
        next: u64,
        end: u64,
    }

    impl ProtocolCore for Ticker {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            if matches!(input, Input::Start | Input::TimerFired { .. }) && self.next < self.end {
                env.send(self.peer, 64, 1, ProcessingCost::FREE, data(self.next));
                self.next += 1;
                env.set_timer(Span::ZERO, 0);
            }
        }
    }

    /// Two [`Ticker`]s (`count` samples each, from 0 and from 1000) and the
    /// [`Listener`] they send to, all on one socket of one worker.
    fn two_tickers(seed: u64, count: u64) -> (MuxCluster, EndpointId) {
        let cfg = MuxConfig::new(1).with_sockets_per_worker(1).with_seed(seed);
        let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).unwrap();
        let ticker = |next| Ticker {
            peer: NodeId(2),
            next,
            end: next + count,
        };
        let a = cluster.add_endpoint(NodeId(0), ticker(0)).unwrap();
        let b = cluster.add_endpoint(NodeId(1), ticker(1000)).unwrap();
        let rx = cluster.add_endpoint(NodeId(2), Listener).unwrap();
        cluster.add_peer(a, rx).unwrap();
        cluster.add_peer(b, rx).unwrap();
        (cluster, rx)
    }

    #[test]
    fn two_senders_to_one_address_in_one_pass_share_a_datagram() {
        let (mut cluster, rx) = two_tickers(36, 1);
        cluster.run_for(Duration::from_millis(50)).unwrap();
        assert_eq!(
            cluster.report(rx).unwrap().delivered_seqs(),
            BTreeSet::from([0, 1000])
        );
        let stats = cluster.stats();
        assert_eq!(stats.datagrams_sent, 1);
        assert_eq!(stats.datagrams_received, 1);
        assert_eq!(stats.frames_received, 2);
        assert_eq!(cluster.report(rx).unwrap().datagrams_received, 2);
        let mut registry = MetricsRegistry::new();
        cluster.fold_metrics("udp", &mut registry);
        assert_eq!(registry.counter("udp/cluster/frames_received"), 2);
    }

    #[test]
    fn interleaved_senders_arrive_in_per_sender_order() {
        let (mut cluster, rx) = two_tickers(37, 64);
        cluster.run_for(Duration::from_millis(100)).unwrap();
        let heard = &cluster.report(rx).unwrap().delivered;
        for first in [0, 1000] {
            let from_one: Vec<u64> = heard
                .iter()
                .map(|(seq, _, _)| seq)
                .filter(|seq| (first..first + 64).contains(seq))
                .collect();
            assert_eq!(from_one, (first..first + 64).collect::<Vec<_>>());
        }
        let stats = cluster.stats();
        assert_eq!(stats.frames_received, 128, "taking turns: a frame each");
        assert!(stats.datagrams_sent < 128 / 2, "{stats:?}");
        assert_eq!(stats.decode_errors + stats.header_drops, 0);
    }

    /// A frame from outside the cluster carrying sample `seq`, addressed to
    /// `endpoint` at `incarnation`.
    fn frame_for(endpoint: u32, incarnation: u32, seq: u64) -> Vec<u8> {
        let mut frame = Vec::new();
        FrameHeader {
            src: NodeId(999),
            dst_endpoint: endpoint,
            dst_incarnation: incarnation,
        }
        .encode(&mut frame);
        FrameHeader::encode_body_entry(&mut frame, &data(seq).to_bytes());
        frame
    }

    #[test]
    fn every_frame_of_a_packed_datagram_is_judged_on_its_own() {
        let mut cluster = small_mux(1, 38);
        let id = cluster.add_endpoint(NodeId(0), Listener).unwrap();
        cluster.restart_endpoint(id, Listener).unwrap();
        // An unknown endpoint, a stale incarnation, then a live frame.
        let mut datagram = frame_for(999, ANY_INCARNATION, 1);
        FrameHeader::encode_break(&mut datagram);
        datagram.extend_from_slice(&frame_for(0, 0, 2));
        FrameHeader::encode_break(&mut datagram);
        datagram.extend_from_slice(&frame_for(0, 1, 3));
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe
            .send_to(&datagram, cluster.endpoint_addr(id).unwrap())
            .unwrap();
        cluster.run_for(Duration::from_millis(50)).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.unknown_endpoint_drops, 1);
        assert_eq!(stats.stale_drops, 1);
        assert_eq!(
            cluster.report(id).unwrap().delivered_seqs(),
            BTreeSet::from([3])
        );
        assert_eq!((stats.datagrams_received, stats.frames_received), (1, 3));
        assert_eq!(stats.header_drops + stats.decode_errors, 0);
    }

    #[test]
    fn a_damaged_second_header_costs_only_what_follows_it() {
        let mut cluster = small_mux(1, 39);
        let id = cluster.add_endpoint(NodeId(0), Listener).unwrap();
        let mut datagram = frame_for(0, 0, 1);
        FrameHeader::encode_break(&mut datagram);
        let second = datagram.len();
        datagram.extend_from_slice(&frame_for(0, 0, 2));
        datagram[second] ^= 0x40; // no such wire version
        FrameHeader::encode_break(&mut datagram);
        datagram.extend_from_slice(&frame_for(0, 0, 3));
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe
            .send_to(&datagram, cluster.endpoint_addr(id).unwrap())
            .unwrap();
        cluster.run_for(Duration::from_millis(50)).unwrap();
        let stats = cluster.stats();
        assert_eq!(
            cluster.report(id).unwrap().delivered_seqs(),
            BTreeSet::from([1])
        );
        assert_eq!(stats.header_drops, 1);
        assert_eq!((stats.datagrams_received, stats.frames_received), (1, 1));
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn cross_incarnation_datagrams_are_stale_drops_after_restart() {
        let mut cluster = small_mux(1, 5);
        let id = cluster.add_endpoint(NodeId(0), Listener).unwrap();
        let addr = cluster.endpoint_addr(id).unwrap();
        cluster.restart_endpoint(id, Listener).unwrap();
        assert_eq!(cluster.incarnation(id).unwrap(), 1);

        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let msg = WireMsg::Data(adamant_proto::wire::DataMsg {
            seq: 4,
            published_at: TimePoint::from_nanos(0),
            retransmission: false,
        });
        // Stamped for incarnation 0: was in flight across the restart.
        let mut stale = Vec::new();
        FrameHeader {
            src: NodeId(9),
            dst_endpoint: 0,
            dst_incarnation: 0,
        }
        .encode(&mut stale);
        FrameHeader::encode_body_entry(&mut stale, &msg.to_bytes());
        probe.send_to(&stale, addr).unwrap();
        // Stamped for the live incarnation: delivered.
        let mut fresh = Vec::new();
        FrameHeader {
            src: NodeId(9),
            dst_endpoint: 0,
            dst_incarnation: 1,
        }
        .encode(&mut fresh);
        FrameHeader::encode_body_entry(&mut fresh, &msg.to_bytes());
        probe.send_to(&fresh, addr).unwrap();

        cluster.run_for(Duration::from_millis(50)).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.stale_drops, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.datagrams_received, 2);
    }

    #[test]
    fn restart_restamps_peer_routes_so_traffic_resumes() {
        let mut cluster = small_mux(2, 11);
        let tx = cluster
            .add_endpoint(NodeId(0), Beacon { next: 0, total: 10 })
            .unwrap();
        let rx = cluster.add_endpoint(NodeId(1), Listener).unwrap();
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(80)).unwrap();
        let before = cluster.report(rx).unwrap().delivered.len();
        assert_eq!(before, 10);

        // Restart the listener, then publish a second stream from a
        // restarted sender. The sender's route to the listener was
        // re-stamped with incarnation 1, so the new core hears everything
        // — no stale drops on live traffic.
        cluster.restart_endpoint(rx, Listener).unwrap();
        cluster
            .restart_endpoint(
                tx,
                Beacon {
                    next: 10,
                    total: 20,
                },
            )
            .unwrap();
        cluster.run_for(Duration::from_millis(80)).unwrap();
        let report = cluster.report(rx).unwrap();
        assert_eq!(report.delivered.len() - before, 10);
        assert_eq!(report.stale_datagrams, 0);
    }

    #[test]
    fn worker_panic_surfaces_as_shard_panicked_and_shard_is_lost() {
        #[derive(Debug)]
        struct Bomb;
        impl ProtocolCore for Bomb {
            fn step(&mut self, input: Input<'_>, _env: &mut Env<'_>) {
                if matches!(input, Input::Start) {
                    panic!("boom");
                }
            }
        }
        // Nine endpoints over three workers; the bomb is the first of shard
        // 1 (ids 1, 4, 7), and the beacon's group reaches into every shard.
        let mut cluster = small_mux(3, 1);
        let tx = cluster
            .add_endpoint(NodeId(0), Beacon { next: 0, total: 20 })
            .unwrap();
        let bomb = cluster.add_endpoint(NodeId(1), Bomb).unwrap();
        let mut group = vec![NodeId(0)];
        for node in 2..9u32 {
            let id = cluster.add_endpoint(NodeId(node), Listener).unwrap();
            cluster.add_peer(tx, id).unwrap();
            group.push(NodeId(node));
        }
        cluster.set_groups(tx, vec![group.clone()]).unwrap();
        let err = cluster.run_for(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, RtError::ShardPanicked { shard: 1 }));

        // The lost endpoints still count, but every way of naming one
        // answers that it is gone.
        assert_eq!(cluster.len(), 9);
        for lost in [bomb, EndpointId(4), EndpointId(7)] {
            assert!(cluster.report(lost).is_none());
            assert!(cluster.core::<Listener>(lost).is_none());
            assert!(cluster.core_mut::<Listener>(lost).is_none());
            let gone = |result: Result<(), RtError>| {
                assert!(
                    matches!(result, Err(RtError::UnknownEndpoint { index }) if index == lost.0)
                );
            };
            gone(cluster.node(lost).map(drop));
            gone(cluster.incarnation(lost).map(drop));
            gone(cluster.endpoint_addr(lost).map(drop));
            gone(cluster.add_peer(lost, tx));
            gone(cluster.add_peer(tx, lost));
            gone(cluster.set_groups(lost, vec![group.clone()]));
            gone(cluster.restart_endpoint(lost, Listener));
        }
        // The survivors come back in id order, interleaved across shards
        // 0 and 2, and are all that the aggregate counts.
        let survivors = [0, 2, 3, 5, 6, 8].map(EndpointId);
        let reported: Vec<_> = cluster.reports().map(|(id, node, _)| (id, node)).collect();
        let want: Vec<_> = survivors.map(|id| (id, NodeId(id.0 as u32))).to_vec();
        assert_eq!(reported, want);
        assert_eq!(cluster.stats().endpoints, 6);

        // The rest of the cluster runs on: the beacon finishes its stream
        // and every surviving listener hears all of it.
        cluster.run_for(Duration::from_millis(150)).unwrap();
        assert_eq!(cluster.core::<Beacon>(tx).unwrap().next, 20);
        let all: BTreeSet<u64> = (0..20).collect();
        for &id in &survivors[1..] {
            assert_eq!(cluster.report(id).unwrap().delivered_seqs(), all);
        }

        // The lost shard's sockets went with it: adding another endpoint
        // to that shard is a typed error, not a crash — and the refused
        // index is consumed, so the next add lands on shard 2.
        cluster.add_endpoint(NodeId(9), Listener).unwrap();
        let err = cluster.add_endpoint(NodeId(10), Listener).unwrap_err();
        assert!(matches!(err, RtError::ShardPanicked { shard: 1 }));
        let next = cluster.add_endpoint(NodeId(11), Listener).unwrap();
        assert_eq!((next.index(), cluster.shard_of(next)), (11, 2));
        assert_eq!(cluster.len(), 12);
        assert_eq!(cluster.node(next).unwrap(), NodeId(11));
    }

    #[test]
    fn mux_metrics_fold_under_node_and_cluster_keys() {
        let mut cluster = small_mux(2, 9);
        cluster
            .add_endpoint(NodeId(0), Beacon { next: 0, total: 5 })
            .unwrap();
        cluster.add_endpoint(NodeId(1), Listener).unwrap();
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(60)).unwrap();
        let mut registry = MetricsRegistry::new();
        cluster.fold_metrics("udp", &mut registry);
        assert_eq!(registry.counter("udp/node1/delivered"), 5);
        assert_eq!(registry.counter("udp/cluster/delivered"), 5);
        assert_eq!(registry.counter("udp/cluster/endpoints"), 2);
        assert_eq!(registry.counter("udp/cluster/unknown_endpoint_drops"), 0);
    }

    /// Gives every counter of `report` that `fold_metrics` reads a distinct
    /// non-zero value derived from `k`.
    fn fill_report(report: &mut EndpointReport, k: u64) {
        for seq in 0..k {
            report.delivered.push(seq, TimePoint::ZERO, seq % 2 == 1);
        }
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
    fn assert_node_keys_sum_to_cluster_keys(registry: &MetricsRegistry, nodes: u32) {
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

    #[test]
    fn node_keys_sum_to_the_cluster_key_for_every_counter_at_both_levels() {
        let mut cluster = small_mux(2, 10);
        for node in 0..3u32 {
            let id = cluster.add_endpoint(NodeId(node), Listener).unwrap();
            let report = &mut cluster.entry_mut(id).unwrap().report;
            fill_report(report, 1 + u64::from(node));
            // One destination per datagram, so what the workers counted on
            // the wire is what the endpoints counted.
            cluster.worker.datagrams_received += report.datagrams_received;
        }
        let mut registry = MetricsRegistry::new();
        cluster.fold_metrics("udp", &mut registry);
        assert_node_keys_sum_to_cluster_keys(&registry, 3);
    }

    /// Arms `timers` timers for the same instant on start; each one fired
    /// sends one sample, to nodes 1 and 2 in turn.
    #[derive(Debug)]
    struct Burst {
        timers: u64,
    }

    impl ProtocolCore for Burst {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start => {
                    for tag in 0..self.timers {
                        env.set_timer(Span::from_millis(1), tag);
                    }
                }
                Input::TimerFired { tag, .. } => {
                    let peer = NodeId(1 + (tag % 2) as u32);
                    env.send(peer, 64, 1, ProcessingCost::FREE, data(tag));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_burst_of_overdue_timers_is_fired_in_bounded_passes_and_sheds_nothing() {
        // 10 000 timers due at once, each one datagram (alternating
        // listeners at two addresses, so nothing packs) out of one socket:
        // fired in one go they overrun `OUTBOX_MAX`; fired a few batches
        // per pass, with a flush and a drain in between, every sample
        // arrives.
        let cfg = MuxConfig::new(1).with_sockets_per_worker(2).with_seed(31);
        let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).unwrap();
        let timers = 10_000;
        assert!(timers as usize > 2 * OUTBOX_MAX);
        let tx = cluster.add_endpoint(NodeId(0), Burst { timers }).unwrap();
        let rx = [1, 2].map(|node| cluster.add_endpoint(NodeId(node), Listener).unwrap());
        for id in rx {
            cluster.add_peer(tx, id).unwrap();
        }
        cluster.run_for(Duration::from_millis(300)).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.datagrams_sent, timers);
        assert_eq!(stats.backpressure_drops, 0);
        assert_eq!(stats.delivered, timers);
        for (id, parity) in rx.into_iter().zip([0, 1]) {
            let want: BTreeSet<u64> = (0..timers).filter(|seq| seq % 2 == parity).collect();
            assert_eq!(cluster.report(id).unwrap().delivered_seqs(), want);
        }
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
        let mut cluster = small_mux(1, 32);
        cluster.add_endpoint(NodeId(0), Spinner).unwrap();
        let rx = cluster.add_endpoint(NodeId(1), Listener).unwrap();
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe
            .send_to(
                &frame_for(rx.0 as u32, 0, 7),
                cluster.endpoint_addr(rx).unwrap(),
            )
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

    #[test]
    fn every_socket_of_a_pool_larger_than_one_readiness_report_is_served() {
        // 80 sockets on one worker: more than one wait names (64), so the
        // rest must surface on later waits.
        let sockets = 80;
        let cfg = MuxConfig::new(1)
            .with_sockets_per_worker(sockets)
            .with_seed(33);
        let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).unwrap();
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut addrs = BTreeSet::new();
        let mut ids = Vec::new();
        for node in 0..sockets as u32 {
            let id = cluster.add_endpoint(NodeId(node), Listener).unwrap();
            let addr = cluster.endpoint_addr(id).unwrap();
            addrs.insert(addr);
            probe
                .send_to(&frame_for(node, 0, u64::from(node)), addr)
                .unwrap();
            ids.push(id);
        }
        assert_eq!(addrs.len(), sockets, "one endpoint per socket");
        cluster.run_for(Duration::from_millis(100)).unwrap();
        for (node, id) in ids.into_iter().enumerate() {
            assert_eq!(
                cluster.report(id).unwrap().delivered_seqs(),
                BTreeSet::from([node as u64])
            );
        }
    }

    #[test]
    fn parks_and_io_wakes_are_counted() {
        /// Returns every sample it hears to its peer, `rounds` times.
        #[derive(Debug)]
        struct PingPong {
            peer: NodeId,
            serve: bool,
            rounds: u64,
        }
        impl ProtocolCore for PingPong {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                let seq = match input {
                    Input::Start if self.serve => 0,
                    Input::PacketIn {
                        msg: WireMsg::Data(ball),
                        ..
                    } => {
                        env.deliver(ball.seq, ball.published_at, false);
                        ball.seq + 1
                    }
                    _ => return,
                };
                if seq < self.rounds {
                    env.send(self.peer, 64, 1, ProcessingCost::FREE, data(seq));
                }
            }
        }
        // One endpoint per worker, so every return crosses threads and
        // finds the other worker parked.
        let mut cluster = small_mux(2, 34);
        let rounds = 200;
        let player = |peer, serve| PingPong {
            peer: NodeId(peer),
            serve,
            rounds,
        };
        let a = cluster.add_endpoint(NodeId(0), player(1, true)).unwrap();
        let b = cluster.add_endpoint(NodeId(1), player(0, false)).unwrap();
        cluster.add_peer(a, b).unwrap();
        cluster.add_peer(b, a).unwrap();
        cluster.run_for(Duration::from_millis(200)).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.delivered, rounds);
        assert!(stats.io_wakes > 0, "no park was ended by a datagram");
        assert!(stats.io_wakes <= stats.parks);
        let mut registry = MetricsRegistry::new();
        cluster.fold_metrics("udp", &mut registry);
        assert_eq!(registry.counter("udp/cluster/parks"), stats.parks);
        assert_eq!(registry.counter("udp/cluster/io_wakes"), stats.io_wakes);

        // An idle cluster parks once per worker and window, not per tick
        // (the off-Linux wait is capped at a millisecond).
        #[cfg(target_os = "linux")]
        {
            let mut idle = small_mux(4, 35);
            for node in 0..64u32 {
                idle.add_endpoint(NodeId(node), Listener).unwrap();
            }
            idle.run_for(Duration::from_millis(100)).unwrap();
            let stats = idle.stats();
            assert!(
                stats.parks <= 32,
                "idle cluster parked {} times",
                stats.parks
            );
            assert_eq!(stats.io_wakes, 0);
        }
    }

    /// An idle cluster must park its workers in the poller until the
    /// window deadline, not spin a short-sleep loop. Linux-gated: the
    /// portable fallback keeps a capped-sleep cadence.
    #[cfg(target_os = "linux")]
    #[test]
    fn idle_mux_cluster_parks_instead_of_busy_spinning() {
        let mut cluster = small_mux(4, 2);
        for node in 0..64u32 {
            cluster.add_endpoint(NodeId(node), Listener).unwrap();
        }
        cluster.run_for(Duration::from_millis(300)).unwrap();
        let stats = cluster.stats();
        assert!(
            stats.busy_polls <= 32,
            "idle mux cluster busy-spun: {} no-progress iterations",
            stats.busy_polls
        );
    }

    #[test]
    fn timers_pending_at_a_window_boundary_fire_in_the_next_window() {
        // The beacon publishes on a 1 ms timer; splitting the run into two
        // windows must not strand the timer armed at the first window's
        // close (the wheel persists on the cluster between windows).
        let mut cluster = small_mux(2, 11);
        let tx = cluster
            .add_endpoint(NodeId(0), Beacon { next: 0, total: 40 })
            .unwrap();
        let rx = cluster.add_endpoint(NodeId(1), Listener).unwrap();
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(25)).unwrap();
        let mid = cluster.core::<Beacon>(tx).unwrap().next;
        assert!(mid < 40, "first window should end mid-stream, got {mid}");
        cluster.run_for(Duration::from_millis(100)).unwrap();
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
        struct Metronome {
            fires: u64,
        }
        impl ProtocolCore for Metronome {
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
        let mut cluster = small_mux(1, 5);
        let id = cluster
            .add_endpoint(NodeId(0), Metronome::default())
            .unwrap();
        let addr = cluster.endpoint_addr(id).unwrap();
        cluster.run_for(Duration::from_millis(30)).unwrap();
        assert!(cluster.core::<Metronome>(id).unwrap().fires > 0);
        assert_eq!(cluster.incarnation(id).unwrap(), 0);

        cluster.restart_endpoint(id, Metronome::default()).unwrap();
        assert_eq!(cluster.incarnation(id).unwrap(), 1);
        assert_eq!(cluster.endpoint_addr(id).unwrap(), addr, "socket survives");
        cluster.run_for(Duration::from_millis(30)).unwrap();
        let after = cluster.core::<Metronome>(id).unwrap().fires;
        // The fresh core restarted its count; the dead incarnation's
        // pending timer was dropped as stale rather than double-driving
        // the new core.
        assert!(
            after > 0 && after <= 35,
            "restarted metronome fired {after} times"
        );
    }

    #[test]
    fn restart_endpoint_out_of_range_is_a_typed_error() {
        let mut cluster = small_mux(1, 0);
        let err = cluster
            .restart_endpoint(EndpointId(0), Listener)
            .unwrap_err();
        assert!(matches!(err, RtError::UnknownEndpoint { index: 0 }));
        cluster.add_endpoint(NodeId(0), Listener).unwrap();
        let err = cluster
            .restart_endpoint(EndpointId(99), Listener)
            .unwrap_err();
        assert!(matches!(err, RtError::UnknownEndpoint { index: 99 }));
    }

    #[test]
    fn double_restart_yields_distinct_incarnations_and_entropy_streams() {
        /// Records its first entropy draw.
        #[derive(Debug, Default)]
        struct Draw(Option<u64>);
        impl ProtocolCore for Draw {
            fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
                if matches!(input, Input::Start) {
                    self.0 = Some(env.rng().next_u64());
                }
            }
        }
        let mut cluster = small_mux(1, 3);
        let id = cluster.add_endpoint(NodeId(0), Draw::default()).unwrap();
        let addr = cluster.endpoint_addr(id).unwrap();
        let mut draws = BTreeSet::new();
        for incarnation in 0..3 {
            if incarnation > 0 {
                cluster.restart_endpoint(id, Draw::default()).unwrap();
            }
            assert_eq!(cluster.incarnation(id).unwrap(), incarnation);
            assert_eq!(cluster.endpoint_addr(id).unwrap(), addr);
            // A zero-length window still starts the fresh core.
            cluster.run_for(Duration::ZERO).unwrap();
            draws.insert(cluster.core::<Draw>(id).unwrap().0.expect("started"));
        }
        assert_eq!(draws.len(), 3, "every incarnation draws its own stream");
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
        let mut cluster = small_mux(1, 3);
        let id = cluster
            .add_endpoint(NodeId(0), Canceller::default())
            .unwrap();
        cluster.run_for(Duration::from_millis(20)).unwrap();
        assert_eq!(cluster.core::<Canceller>(id).unwrap().fired, vec![8]);
    }

    #[test]
    fn shard_assignment_is_index_mod_workers() {
        let mut cluster = small_mux(4, 0);
        for node in 0..10u32 {
            let id = cluster.add_endpoint(NodeId(node), Listener).unwrap();
            assert_eq!(id.index(), node as usize);
            assert_eq!(cluster.shard_of(id), node as usize % 4);
        }
    }

    #[test]
    fn an_index_past_the_timer_owner_code_is_refused_and_not_consumed() {
        // Endpoint 2^24 would arm its timers under endpoint 0's owner code.
        let mut cluster = small_mux(1, 0);
        cluster.add_endpoint(NodeId(0), Listener).unwrap();
        cluster.len = MAX_ENDPOINTS;
        let err = cluster.add_endpoint(NodeId(1), Listener).unwrap_err();
        assert!(matches!(err, RtError::TooManyEndpoints { max } if max == 1 << 24));
        assert_eq!(cluster.len(), 1 << 24);
        assert_eq!(cluster.shards[0].len(), 1);
    }

    #[test]
    fn endpoint_seeds_are_stable_and_distinct() {
        let seeds = || -> Vec<u64> {
            (0..16)
                .flat_map(|index| (0..3).map(move |inc| endpoint_seed(42, index, inc)))
                .collect()
        };
        let distinct: BTreeSet<u64> = seeds().into_iter().collect();
        assert_eq!(distinct.len(), 16 * 3);
        assert_eq!(seeds(), seeds());
    }
}
