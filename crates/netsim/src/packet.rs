//! Packets, addressing, and per-packet processing-cost declarations.
//!
//! Addressing ([`NodeId`], [`GroupId`], [`Destination`]) and the CPU cost
//! declaration ([`ProcessingCost`]) live in `adamant-proto`, shared with
//! every driver of the sans-I/O protocol cores; this module re-exports
//! them and adds the simulator's in-flight packet representation, whose
//! body is the cores' own [`WireMsg`] rather than wire bytes.

use std::fmt;

use adamant_proto::WireMsg;
pub use adamant_proto::{Destination, GroupId, NodeId, ProcessingCost};

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
    /// The message body; `None` for a bodiless [`OutPacket::empty`].
    pub msg: Option<WireMsg>,
    /// Engine-assigned unique id (per transmission, not per copy).
    pub wire_id: u64,
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
/// Construct a bodiless one with [`OutPacket::empty`] (or fill in the
/// fields to carry a [`WireMsg`]), then adjust it with the builder-style
/// setters before handing it to [`Ctx::send`](crate::Ctx::send).
///
/// # Examples
///
/// ```
/// use adamant_netsim::{OutPacket, ProcessingCost, SimDuration};
///
/// let pkt = OutPacket::empty(64)
///     .tag(3)
///     .cost(ProcessingCost::symmetric(SimDuration::from_micros(2)));
/// assert_eq!(pkt.size_bytes, 64);
/// assert!(pkt.msg.is_none());
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
    pub msg: Option<WireMsg>,
}

impl OutPacket {
    /// Creates a packet of `size_bytes` with no body: building one
    /// performs no heap allocation, so probes and synthetic benchmark
    /// traffic can send it in hot loops.
    pub fn empty(size_bytes: u32) -> Self {
        OutPacket {
            size_bytes,
            tag: 0,
            cost: ProcessingCost::FREE,
            msg: None,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::Span as SimDuration;

    #[test]
    fn out_packet_builder() {
        let pkt = OutPacket::empty(100)
            .tag(7)
            .cost(ProcessingCost::symmetric(SimDuration::from_micros(1)));
        assert_eq!(pkt.size_bytes, 100);
        assert_eq!(pkt.tag, 7);
        assert!(pkt.msg.is_none());
    }
}
