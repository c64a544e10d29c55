//! Packets, addressing, and per-packet processing-cost declarations.
//!
//! Addressing ([`NodeId`], [`GroupId`], [`Destination`]) and the CPU cost
//! declaration ([`ProcessingCost`]) live in `adamant-proto`, shared with
//! every driver of the sans-I/O protocol cores; this module re-exports
//! them and adds the simulator's in-flight packet representation, whose
//! payloads are in-memory `Arc`s rather than wire bytes.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

pub use adamant_proto::{Destination, GroupId, NodeId, ProcessingCost};

/// An opaque, cheaply clonable message body.
///
/// Protocol layers define their own payload types and downcast on receipt;
/// the simulator never inspects payload contents, only `size_bytes`.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// A packet in flight (or being constructed for sending).
///
/// `size_bytes` should include all protocol framing the caller wants the
/// network model to account for; the simulator charges serialization time
/// for exactly this many bytes at each traversed link.
#[derive(Clone)]
pub struct Packet {
    /// The host that sent the packet.
    pub src: NodeId,
    /// Where the packet is headed.
    pub dst: Destination,
    /// Wire size in bytes (payload plus framing).
    pub size_bytes: u32,
    /// Caller-defined discriminator used for wire statistics (e.g. data vs.
    /// repair traffic). Register labels with
    /// [`Simulation::register_tag`](crate::Simulation::register_tag).
    pub tag: u16,
    /// CPU work declared for this packet.
    pub cost: ProcessingCost,
    /// The message body.
    pub payload: Payload,
    /// Engine-assigned unique id (per transmission, not per copy).
    pub wire_id: u64,
}

impl Packet {
    /// Builds the in-flight copy of an outgoing packet. Clones only the
    /// payload *handle* (an `Arc`), so multicast fan-out shares one payload
    /// among every copy.
    pub fn from_out(out: &OutPacket, src: NodeId, dst: Destination, wire_id: u64) -> Self {
        Packet {
            src,
            dst,
            size_bytes: out.size_bytes,
            tag: out.tag,
            cost: out.cost,
            payload: out.payload.clone(),
            wire_id,
        }
    }

    /// Downcasts the payload to a concrete message type.
    pub fn payload_as<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("size_bytes", &self.size_bytes)
            .field("tag", &self.tag)
            .field("wire_id", &self.wire_id)
            .finish_non_exhaustive()
    }
}

/// A packet being prepared for transmission by an agent.
///
/// Construct with [`OutPacket::new`], then adjust with the builder-style
/// setters before handing it to [`Ctx::send`](crate::Ctx::send).
///
/// # Examples
///
/// ```
/// use adamant_netsim::{OutPacket, ProcessingCost, SimDuration};
///
/// let pkt = OutPacket::new(64, "hello")
///     .tag(3)
///     .cost(ProcessingCost::symmetric(SimDuration::from_micros(2)));
/// assert_eq!(pkt.size_bytes, 64);
/// ```
#[derive(Clone)]
pub struct OutPacket {
    /// Wire size in bytes.
    pub size_bytes: u32,
    /// Statistics discriminator.
    pub tag: u16,
    /// Declared CPU cost.
    pub cost: ProcessingCost,
    /// Message body.
    pub payload: Payload,
}

impl OutPacket {
    /// Creates a packet of `size_bytes` carrying `payload`.
    pub fn new<T: Any + Send + Sync>(size_bytes: u32, payload: T) -> Self {
        OutPacket {
            size_bytes,
            tag: 0,
            cost: ProcessingCost::FREE,
            payload: Arc::new(payload),
        }
    }

    /// Creates a packet sharing an already-allocated payload.
    pub fn from_shared(size_bytes: u32, payload: Payload) -> Self {
        OutPacket {
            size_bytes,
            tag: 0,
            cost: ProcessingCost::FREE,
            payload,
        }
    }

    /// Creates a packet of `size_bytes` with no meaningful payload.
    ///
    /// All empty packets share one process-wide `Arc<()>`, so building one
    /// performs no heap allocation — use this in hot loops (probes, acks,
    /// synthetic benchmark traffic) where the body carries no data.
    pub fn empty(size_bytes: u32) -> Self {
        Self::from_shared(size_bytes, empty_payload())
    }

    /// Sets the statistics tag.
    pub fn tag(mut self, tag: u16) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the declared CPU cost.
    pub fn cost(mut self, cost: ProcessingCost) -> Self {
        self.cost = cost;
        self
    }
}

impl fmt::Debug for OutPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OutPacket")
            .field("size_bytes", &self.size_bytes)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

/// The process-wide shared payload behind [`OutPacket::empty`]. Cloning it
/// is a refcount bump, never an allocation.
pub fn empty_payload() -> Payload {
    static EMPTY: OnceLock<Payload> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(())).clone()
}

/// A free-list pool of typed payloads.
///
/// `alloc` hands out a [`Payload`] backed by a recycled `Arc<T>` whenever
/// the pool's oldest lease has been fully released (every in-flight packet
/// copy dropped its handle), and only falls back to a fresh allocation when
/// all pooled payloads are still referenced. In steady state — a protocol
/// sending bounded-in-flight traffic — every payload allocation after
/// warm-up is a pool hit, i.e. free.
///
/// The pool checks leases in FIFO order, so the payload most likely to be
/// free (the oldest) is probed first; one probe per `alloc` keeps the hot
/// path O(1).
///
/// # Examples
///
/// ```
/// use adamant_netsim::{OutPacket, PacketArena};
///
/// let mut arena = PacketArena::<u64>::new();
/// let pkt = OutPacket::from_shared(64, arena.alloc(42));
/// assert_eq!(pkt.payload.downcast_ref::<u64>(), Some(&42));
/// ```
#[derive(Debug)]
pub struct PacketArena<T: Any + Send + Sync> {
    pool: VecDeque<Arc<T>>,
}

impl<T: Any + Send + Sync> Default for PacketArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Any + Send + Sync> PacketArena<T> {
    /// Payloads the pool retains at most. Bounds pool memory; allocations
    /// beyond it still succeed but are not recycled.
    const CAPACITY: usize = 64;

    /// Creates an empty pool (no allocation until the first payload).
    pub fn new() -> Self {
        PacketArena {
            pool: VecDeque::new(),
        }
    }

    /// Returns a payload containing `value`, reusing a pooled allocation
    /// when the oldest lease is no longer referenced anywhere else.
    pub fn alloc(&mut self, value: T) -> Payload {
        if let Some(front) = self.pool.front_mut() {
            if let Some(slot) = Arc::get_mut(front) {
                // Sole owner: every packet copy from the previous lease has
                // been dropped, so the storage can be reused in place.
                *slot = value;
                let arc = self.pool.pop_front().expect("probed front exists");
                let payload: Payload = arc.clone();
                self.pool.push_back(arc);
                return payload;
            }
        }
        let arc = Arc::new(value);
        let payload: Payload = arc.clone();
        if self.pool.len() < Self::CAPACITY {
            self.pool.push_back(arc);
        }
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::Span as SimDuration;

    #[test]
    fn out_packet_builder() {
        let pkt = OutPacket::new(100, 42u32)
            .tag(7)
            .cost(ProcessingCost::symmetric(SimDuration::from_micros(1)));
        assert_eq!(pkt.size_bytes, 100);
        assert_eq!(pkt.tag, 7);
        assert_eq!(*pkt.payload.downcast_ref::<u32>().unwrap(), 42);
    }

    #[test]
    fn payload_downcast_via_packet() {
        let out = OutPacket::new(10, String::from("msg"));
        let pkt = Packet::from_out(&out, NodeId(0), Destination::Node(NodeId(1)), 1);
        assert_eq!(pkt.payload_as::<String>().unwrap(), "msg");
        assert!(pkt.payload_as::<u64>().is_none());
    }

    #[test]
    fn from_out_copies_metadata_and_shares_payload() {
        let out = OutPacket::new(100, 7u32)
            .tag(3)
            .cost(ProcessingCost::symmetric(SimDuration::from_micros(2)));
        let a = Packet::from_out(&out, NodeId(0), Destination::Node(NodeId(1)), 9);
        let b = Packet::from_out(&out, NodeId(0), Destination::Node(NodeId(2)), 9);
        assert_eq!(a.size_bytes, 100);
        assert_eq!(a.tag, 3);
        assert_eq!(a.cost, out.cost);
        assert_eq!(a.wire_id, 9);
        assert!(
            Arc::ptr_eq(&a.payload, &b.payload),
            "copies must share one payload allocation"
        );
    }

    #[test]
    fn empty_packets_share_one_payload() {
        let a = OutPacket::empty(64);
        let b = OutPacket::empty(1_500);
        assert!(Arc::ptr_eq(&a.payload, &b.payload));
        assert!(a.payload.downcast_ref::<()>().is_some());
    }

    #[test]
    fn arena_recycles_released_payloads() {
        let mut arena = PacketArena::<u64>::new();
        let first = arena.alloc(1);
        let first_ptr = Arc::as_ptr(&first) as *const u64;
        assert_eq!(arena.pool.len(), 1);
        // Still leased: the next alloc cannot reuse it.
        let second = arena.alloc(2);
        assert_ne!(Arc::as_ptr(&second) as *const u64, first_ptr);
        drop(first);
        drop(second);
        // Both leases released: the oldest slot is reused in place.
        let third = arena.alloc(3);
        assert_eq!(Arc::as_ptr(&third) as *const u64, first_ptr);
        assert_eq!(third.downcast_ref::<u64>(), Some(&3));
        assert_eq!(arena.pool.len(), 2, "reuse must not grow the pool");
    }

    #[test]
    fn arena_capacity_bounds_pool_growth() {
        let mut arena = PacketArena::<u64>::new();
        let capacity = PacketArena::<u64>::CAPACITY;
        let leases: Vec<_> = (0..capacity as u64 + 5).map(|i| arena.alloc(i)).collect();
        assert_eq!(arena.pool.len(), capacity);
        drop(leases);
        let reused = arena.alloc(99);
        assert_eq!(reused.downcast_ref::<u64>(), Some(&99));
    }
}
