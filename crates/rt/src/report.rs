//! What the runtime reports: the endpoint handle, each endpoint's
//! [`EndpointReport`], and the [`ClusterStats`] aggregate over them.

use std::collections::BTreeSet;

use adamant_metrics::{DeliveryLog, MetricsRegistry};
use adamant_proto::ObsEvent;

/// Handle to one endpoint of a [`MuxCluster`](crate::MuxCluster), returned
/// by [`add_endpoint`](crate::MuxCluster::add_endpoint).
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
    /// Datagrams read from sockets. A wire datagram counts once however
    /// many frames it packs and endpoints they name (and only when one
    /// named an endpoint of the runtime), so this can be smaller than the
    /// sum of the endpoints' own `datagrams_received`.
    pub datagrams_received: u64,
    /// Frames whose header decoded, whatever became of them. Over
    /// `datagrams_received` (when nothing is dropped before demux), how
    /// many frames a datagram packs.
    pub frames_received: u64,
    /// Frame body entries that failed to parse.
    pub decode_errors: u64,
    /// Sends addressed to nodes with no registered peer address.
    pub unroutable: u64,
    /// Times a flow-blocked socket left a datagram parked in an outbox.
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
    /// destination a datagram's header listed.
    pub unknown_endpoint_drops: u64,
    /// Datagrams, or tails of packed datagrams, dropped before demux
    /// because the frame header due there was truncated or carried an
    /// unknown wire version.
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
/// endpoint: pre-demux drops, wire datagrams and idle-loop accounting.
/// Folded into [`ClusterStats`].
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
    /// the shard.
    pub datagrams_received: u64,
    /// Frames whose header decoded.
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

/// What one endpoint observed over one or more
/// [`run_for`](crate::MuxCluster::run_for) windows, accumulated across
/// restarts.
#[derive(Debug, Clone, Default)]
pub struct EndpointReport {
    /// Samples the core handed up the stack, `(seq, published_at,
    /// recovered)` in delivery order, for the whole run: a few bytes per
    /// delivery that breaks the stream's rhythm, while a paced stretch of
    /// any length folds into one 11-byte run (see [`DeliveryLog`]).
    pub delivered: DeliveryLog,
    /// Core trace events naming this endpoint's node (if `observed`).
    pub events: Vec<ObsEvent>,
    /// Datagrams this endpoint *opened*: one that other endpoints' frames
    /// for the same address were packed into still counts once, here.
    pub datagrams_sent: u64,
    /// Frames whose header named this endpoint (one shared by several
    /// readers counts once for each).
    pub datagrams_received: u64,
    /// Frame body entries addressed to this endpoint that failed to parse
    /// (bad wire encoding, entry cut short).
    pub decode_errors: u64,
    /// Frames addressed to a previous incarnation of this endpoint (in
    /// flight across a restart); dropped, never delivered.
    pub stale_datagrams: u64,
    /// Send effects addressed to a node with no registered peer address.
    pub unroutable: u64,
    /// Times a datagram this endpoint opened was the one a flow-blocked
    /// socket left parked in the outbox.
    pub backpressure_stalls: u64,
    /// Sends shed because the outbox was already at capacity — the
    /// backpressure rule of last resort (UDP may drop; we count it). One
    /// per destination: a shed group frame counts every reader it listed.
    pub backpressure_drops: u64,
    /// Soft I/O errors absorbed without aborting the loop (ICMP
    /// port-unreachable surfacing as `ConnectionRefused`/`ConnectionReset`
    /// when a peer's socket is already gone).
    pub soft_io_errors: u64,
}

impl EndpointReport {
    /// The distinct sequence numbers delivered.
    pub fn delivered_seqs(&self) -> BTreeSet<u64> {
        self.delivered.iter().map(|(seq, _, _)| seq).collect()
    }

    /// Samples that arrived through a recovery path.
    pub fn recovered_count(&self) -> u64 {
        self.delivered.recovered()
    }
}
