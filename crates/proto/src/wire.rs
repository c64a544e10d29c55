//! Message payloads exchanged by the transport protocols, the [`WireMsg`]
//! envelope uniting them, and a compact byte codec for real sockets.
//!
//! Inside the simulator messages travel as shared in-memory values (the
//! engine charges serialization time from the declared packet size, so
//! nothing needs real bytes). The real-UDP driver in `adamant-rt` encodes
//! the same values through [`WireMsg::encode`]/[`WireMsg::decode`] — a
//! little-endian tag-length-value layout, no external dependencies.
//!
//! # Datagram grammar (wire version 4)
//!
//! ```text
//! datagram = frame (BREAK frame)*
//! frame    = header entry+
//! header   = [version u8 = 4][src u32][n u8 >= 1][(dst_endpoint u32, dst_incarnation u32) x n]
//! entry    = [len u16 >= 1][WireMsg, len bytes]
//! BREAK    = [0 u16]
//! ```
//!
//! A frame is what one sender says to one destination list
//! ([`FrameHeader`], [`FrameBody`]); a datagram packs every frame a
//! runtime worker queued for one socket address, so the per-packet cost of
//! the kernel's UDP path is paid once for all of them. `BREAK` is the
//! entry length no message can have — [`WireMsg::decode`] rejects empty
//! input, so no sender ever wrote a zero length — which makes a
//! single-frame datagram the version 3 layout byte for byte after the
//! version field. Receivers walk a datagram through [`Frames`], the one
//! place that knows this grammar.

use std::sync::Arc;

use crate::ids::NodeId;
use crate::time::TimePoint;

/// An application data sample (original multicast or unicast retransmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataMsg {
    /// Dense sequence number assigned by the publisher, starting at 0.
    pub seq: u64,
    /// When the application published the sample (for latency accounting;
    /// a real implementation carries this inside the marshalled payload).
    pub published_at: TimePoint,
    /// Whether this copy is a recovery retransmission.
    pub retransmission: bool,
}

/// A negative acknowledgement listing missing sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NakMsg {
    /// The sequence numbers the receiver is missing.
    pub seqs: Vec<u64>,
}

/// A Ricochet lateral repair packet.
///
/// A real repair carries `XOR(payloads of entries)`; a receiver holding all
/// but one of the covered packets reconstructs the missing one. The
/// reproduction carries the covered `(seq, published_at)` pairs — exactly
/// the information a successful XOR reconstruction would yield.
///
/// The entries are shared, not owned: one repair goes to `C` peers and may
/// wait in each one's pending queue, so a copy is a reference-count bump
/// rather than a fresh list per peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairMsg {
    /// The packets folded into this repair, as `(seq, published_at)`.
    pub entries: Arc<[(u64, TimePoint)]>,
}

/// A sender session heartbeat advertising the highest sequence sent, which
/// bounds gap-detection delay for NAK/ACK protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatMsg {
    /// Highest sequence number published so far, if any.
    pub highest_seq: Option<u64>,
}

/// End-of-stream marker: the stream contains sequences `0..total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinMsg {
    /// Total number of samples in the stream.
    pub total: u64,
}

/// A cumulative acknowledgement with an explicit missing list (ACKcast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckMsg {
    /// All sequences below this are delivered except those in `missing`.
    pub below: u64,
    /// Sequences below `below` not yet received.
    pub missing: Vec<u64>,
}

/// A group-membership heartbeat from a receiver (failure detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipMsg {
    /// Monotone heartbeat counter.
    pub epoch: u64,
}

/// One endpoint advertised in a discovery announcement.
///
/// QoS travels as the stable `u64` code of the dds-layer profile
/// (`QosProfile::code()`), keeping this crate free of the dds types while
/// the announcement still round-trips losslessly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointAd {
    /// Topic name.
    pub topic: String,
    /// `true` for a data writer, `false` for a data reader.
    pub is_writer: bool,
    /// Stable code of the offered (writer) or requested (reader) QoS.
    pub qos_code: u64,
}

/// A periodic participant discovery announcement (SPDP/SEDP-flavoured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryMsg {
    /// The announcing participant's id.
    pub participant_id: u32,
    /// The participant's incarnation number: restarts announce a higher
    /// epoch so peers can prune state left by the crashed incarnation.
    pub epoch: u32,
    /// The endpoints it hosts.
    pub endpoints: Vec<EndpointAd>,
}

/// A durable writer's history advertisement: the contiguous range of
/// sequences still retained in its [`HistoryCache`](crate::HistoryCache)
/// and replayable on request. Only sent while the cache is non-empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableHeartbeatMsg {
    /// Oldest retained sequence.
    pub first_seq: u64,
    /// Newest retained sequence.
    pub last_seq: u64,
}

/// A catch-up NAK from a durable reader: historical sequences it wants
/// replayed from the writer's history cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableNakMsg {
    /// The sequences to replay, ascending.
    pub seqs: Vec<u64>,
}

/// A StreamCast connection request from a receiver: announces the receive
/// window (in packets) it is prepared to buffer. Retried on a timer until
/// the sender answers with [`StreamSynAckMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSynMsg {
    /// Receive window in packets.
    pub window: u32,
}

/// The sender's answer to a [`StreamSynMsg`]: the connection is open and
/// the stream starts at sequence 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSynAckMsg {
    /// The sender's configured send window in packets.
    pub window: u32,
}

/// A StreamCast cumulative acknowledgement: every sequence below `cum_ack`
/// has been received in order. Unlike [`AckMsg`] there is no missing list —
/// loss shows up as duplicate ACKs, TCP-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAckMsg {
    /// All sequences `< cum_ack` are received and delivered in order.
    pub cum_ack: u64,
    /// Remaining receive window in packets (flow-control advertisement).
    pub window: u32,
}

/// A ShmCast flow-control credit grant: the receiver's bounded queue has
/// room for every sequence `< upto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmCreditMsg {
    /// The sender may publish sequences up to (exclusive) this value.
    pub upto: u64,
}

/// Every message a protocol core can put on the wire.
///
/// The discovery variant is behind an `Arc` because announcements repeat
/// on a timer with identical contents; re-announcing shares one allocation
/// the same way the pre-refactor agent shared its prebuilt payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// An application data sample.
    Data(DataMsg),
    /// A negative acknowledgement (NAKcast).
    Nak(NakMsg),
    /// A lateral XOR repair (Ricochet).
    Repair(RepairMsg),
    /// A sender heartbeat.
    Heartbeat(HeartbeatMsg),
    /// An end-of-stream marker.
    Fin(FinMsg),
    /// A cumulative acknowledgement (ACKcast).
    Ack(AckMsg),
    /// A receiver membership heartbeat (Ricochet failure detection).
    Membership(MembershipMsg),
    /// A proactively forwarded copy of a data sample (Slingshot).
    Forwarded(DataMsg),
    /// A participant discovery announcement (dds layer).
    Discovery(Arc<DiscoveryMsg>),
    /// A durable writer's retained-history advertisement.
    DurableHeartbeat(DurableHeartbeatMsg),
    /// A durable reader's catch-up request.
    DurableNak(DurableNakMsg),
    /// A StreamCast connection request (receiver → sender).
    StreamSyn(StreamSynMsg),
    /// A StreamCast connection accept (sender → receiver).
    StreamSynAck(StreamSynAckMsg),
    /// A StreamCast cumulative acknowledgement (receiver → sender).
    StreamAck(StreamAckMsg),
    /// A ShmCast flow-control credit grant (receiver → sender).
    ShmCredit(ShmCreditMsg),
}

const KIND_DATA: u8 = 1;
const KIND_NAK: u8 = 2;
const KIND_REPAIR: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;
const KIND_FIN: u8 = 5;
const KIND_ACK: u8 = 6;
const KIND_MEMBERSHIP: u8 = 7;
const KIND_FORWARDED: u8 = 8;
const KIND_DISCOVERY: u8 = 9;
const KIND_DURABLE_HEARTBEAT: u8 = 10;
const KIND_DURABLE_NAK: u8 = 11;
const KIND_STREAM_SYN: u8 = 12;
const KIND_STREAM_SYN_ACK: u8 = 13;
const KIND_STREAM_ACK: u8 = 14;
const KIND_SHM_CREDIT: u8 = 15;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over an incoming datagram; every read is bounds-checked so a
/// truncated or hostile frame decodes to `None`, never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads a length prefix for a repeated section whose elements occupy
    /// at least `elem_min_size` bytes each.
    ///
    /// Rejects (rather than clamps) counts above [`MAX_WIRE_ELEMS`], and
    /// rejects any count the remaining bytes cannot possibly satisfy —
    /// so the `Vec::with_capacity` sized from the returned count can never
    /// exceed the datagram length. A 5-byte frame claiming a million
    /// elements used to reserve 8 MB before the first element read failed;
    /// now it is refused up front.
    fn count(&mut self, elem_min_size: usize) -> Option<usize> {
        let count = self.u32()?;
        if count > MAX_WIRE_ELEMS {
            return None;
        }
        let count = count as usize;
        if count.checked_mul(elem_min_size)? > self.bytes.len() {
            return None;
        }
        Some(count)
    }
}

/// Largest element count accepted while decoding; anything above it is
/// rejected as hostile. Far above anything the protocols produce in a
/// single datagram.
const MAX_WIRE_ELEMS: u32 = 1 << 20;

fn data_body(buf: &mut Vec<u8>, msg: &DataMsg) {
    put_u64(buf, msg.seq);
    put_u64(buf, msg.published_at.as_nanos());
    buf.push(msg.retransmission as u8);
}

fn read_data_body(r: &mut Reader<'_>) -> Option<DataMsg> {
    Some(DataMsg {
        seq: r.u64()?,
        published_at: TimePoint::from_nanos(r.u64()?),
        retransmission: r.u8()? != 0,
    })
}

impl WireMsg {
    /// Serialises the message into `buf` (appended; `buf` is not cleared).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WireMsg::Data(m) => {
                buf.push(KIND_DATA);
                data_body(buf, m);
            }
            WireMsg::Forwarded(m) => {
                buf.push(KIND_FORWARDED);
                data_body(buf, m);
            }
            WireMsg::Nak(m) => {
                buf.push(KIND_NAK);
                put_u32(buf, m.seqs.len() as u32);
                for &seq in &m.seqs {
                    put_u64(buf, seq);
                }
            }
            WireMsg::Repair(m) => {
                buf.push(KIND_REPAIR);
                put_u32(buf, m.entries.len() as u32);
                for &(seq, at) in m.entries.iter() {
                    put_u64(buf, seq);
                    put_u64(buf, at.as_nanos());
                }
            }
            WireMsg::Heartbeat(m) => {
                buf.push(KIND_HEARTBEAT);
                match m.highest_seq {
                    Some(seq) => {
                        buf.push(1);
                        put_u64(buf, seq);
                    }
                    None => buf.push(0),
                }
            }
            WireMsg::Fin(m) => {
                buf.push(KIND_FIN);
                put_u64(buf, m.total);
            }
            WireMsg::Ack(m) => {
                buf.push(KIND_ACK);
                put_u64(buf, m.below);
                put_u32(buf, m.missing.len() as u32);
                for &seq in &m.missing {
                    put_u64(buf, seq);
                }
            }
            WireMsg::Membership(m) => {
                buf.push(KIND_MEMBERSHIP);
                put_u64(buf, m.epoch);
            }
            WireMsg::DurableHeartbeat(m) => {
                buf.push(KIND_DURABLE_HEARTBEAT);
                put_u64(buf, m.first_seq);
                put_u64(buf, m.last_seq);
            }
            WireMsg::DurableNak(m) => {
                buf.push(KIND_DURABLE_NAK);
                put_u32(buf, m.seqs.len() as u32);
                for &seq in &m.seqs {
                    put_u64(buf, seq);
                }
            }
            WireMsg::StreamSyn(m) => {
                buf.push(KIND_STREAM_SYN);
                put_u32(buf, m.window);
            }
            WireMsg::StreamSynAck(m) => {
                buf.push(KIND_STREAM_SYN_ACK);
                put_u32(buf, m.window);
            }
            WireMsg::StreamAck(m) => {
                buf.push(KIND_STREAM_ACK);
                put_u64(buf, m.cum_ack);
                put_u32(buf, m.window);
            }
            WireMsg::ShmCredit(m) => {
                buf.push(KIND_SHM_CREDIT);
                put_u64(buf, m.upto);
            }
            WireMsg::Discovery(m) => {
                buf.push(KIND_DISCOVERY);
                put_u32(buf, m.participant_id);
                put_u32(buf, m.epoch);
                put_u32(buf, m.endpoints.len() as u32);
                for ep in &m.endpoints {
                    put_u32(buf, ep.topic.len() as u32);
                    buf.extend_from_slice(ep.topic.as_bytes());
                    buf.push(ep.is_writer as u8);
                    put_u64(buf, ep.qos_code);
                }
            }
        }
    }

    /// Serialises the message into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Parses a message from `bytes`; `None` on truncated, trailing, or
    /// unknown-kind input.
    pub fn decode(bytes: &[u8]) -> Option<WireMsg> {
        let mut r = Reader { bytes };
        let kind = r.u8()?;
        let msg = match kind {
            KIND_DATA => WireMsg::Data(read_data_body(&mut r)?),
            KIND_FORWARDED => WireMsg::Forwarded(read_data_body(&mut r)?),
            KIND_NAK => {
                let count = r.count(8)?;
                let mut seqs = Vec::with_capacity(count);
                for _ in 0..count {
                    seqs.push(r.u64()?);
                }
                WireMsg::Nak(NakMsg { seqs })
            }
            KIND_REPAIR => {
                let count = r.count(16)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((r.u64()?, TimePoint::from_nanos(r.u64()?)));
                }
                WireMsg::Repair(RepairMsg {
                    entries: entries.into(),
                })
            }
            KIND_HEARTBEAT => {
                let highest_seq = match r.u8()? {
                    0 => None,
                    _ => Some(r.u64()?),
                };
                WireMsg::Heartbeat(HeartbeatMsg { highest_seq })
            }
            KIND_FIN => WireMsg::Fin(FinMsg { total: r.u64()? }),
            KIND_ACK => {
                let below = r.u64()?;
                let count = r.count(8)?;
                let mut missing = Vec::with_capacity(count);
                for _ in 0..count {
                    missing.push(r.u64()?);
                }
                WireMsg::Ack(AckMsg { below, missing })
            }
            KIND_MEMBERSHIP => WireMsg::Membership(MembershipMsg { epoch: r.u64()? }),
            KIND_DURABLE_HEARTBEAT => WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
                first_seq: r.u64()?,
                last_seq: r.u64()?,
            }),
            KIND_DURABLE_NAK => {
                let count = r.count(8)?;
                let mut seqs = Vec::with_capacity(count);
                for _ in 0..count {
                    seqs.push(r.u64()?);
                }
                WireMsg::DurableNak(DurableNakMsg { seqs })
            }
            KIND_STREAM_SYN => WireMsg::StreamSyn(StreamSynMsg { window: r.u32()? }),
            KIND_STREAM_SYN_ACK => WireMsg::StreamSynAck(StreamSynAckMsg { window: r.u32()? }),
            KIND_STREAM_ACK => WireMsg::StreamAck(StreamAckMsg {
                cum_ack: r.u64()?,
                window: r.u32()?,
            }),
            KIND_SHM_CREDIT => WireMsg::ShmCredit(ShmCreditMsg { upto: r.u64()? }),
            KIND_DISCOVERY => {
                let participant_id = r.u32()?;
                let epoch = r.u32()?;
                // Smallest possible endpoint: empty topic (4-byte length),
                // writer flag, and qos code.
                let count = r.count(4 + 1 + 8)?;
                let mut endpoints = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = r.u32()? as usize;
                    let topic = std::str::from_utf8(r.take(len)?).ok()?.to_owned();
                    let is_writer = r.u8()? != 0;
                    let qos_code = r.u64()?;
                    endpoints.push(EndpointAd {
                        topic,
                        is_writer,
                        qos_code,
                    });
                }
                WireMsg::Discovery(Arc::new(DiscoveryMsg {
                    participant_id,
                    epoch,
                    endpoints,
                }))
            }
            _ => return None,
        };
        if !r.done() {
            return None; // trailing garbage: reject the frame
        }
        Some(msg)
    }
}

/// Wire format version carried in the first byte of every datagram frame.
///
/// Version 4 lets a datagram carry several frames, each behind its own
/// header, separated by a zero entry length (see the module docs for the
/// grammar). The header layout is version 3's, but the version byte moved
/// all the same: a version 3 receiver would read a second frame's header
/// as body entries of the first, so it must refuse a packed datagram at
/// its first byte, and a version 4 receiver refuses version 3 (the
/// destination *list*), version 2 (one fixed `dst_endpoint`/
/// `dst_incarnation` pair) and version 1 (a bare 4-byte source-node
/// prefix) the same way.
pub const WIRE_VERSION: u8 = 4;

/// `dst_endpoint` wildcard: the datagram is for whoever owns the socket.
///
/// Only a receiver with one endpoint per socket could deliver it; the
/// multiplexed runtime, whose sockets are shared, cannot route a wildcard
/// and counts it as an unknown-endpoint drop, one destination at a time,
/// like any index it does not hold.
pub const ANY_ENDPOINT: u32 = u32::MAX;

/// `dst_incarnation` wildcard: deliver regardless of restart generation.
pub const ANY_INCARNATION: u32 = u32::MAX;

/// One destination of a frame: the demux key a receiving worker routes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDest {
    /// Receiver endpoint index within its cluster, or [`ANY_ENDPOINT`].
    pub endpoint: u32,
    /// Receiver incarnation the datagram was addressed to, or
    /// [`ANY_INCARNATION`].
    pub incarnation: u32,
}

impl FrameDest {
    /// Encoded size in bytes: endpoint + incarnation.
    pub const LEN: usize = 4 + 4;
}

/// The datagram header prepended to every frame body on the real-UDP path,
/// in its single-destination form (what every unicast send stamps).
///
/// Layout (little-endian):
///
/// ```text
/// [version u8 = 4][src u32][n u8 >= 1][(dst_endpoint u32, dst_incarnation u32) x n]
/// ```
///
/// `src` identifies the sending node. Each `dst_endpoint` is an endpoint
/// index of the receiving cluster — the demux key that lets one shared
/// socket serve thousands of endpoints — and its `dst_incarnation` pins the
/// datagram to a restart generation so packets in flight across a
/// `restart_endpoint` are counted as stale instead of being delivered to
/// the wrong incarnation. Senders that cannot or need not name the
/// receiver use the [`ANY_ENDPOINT`]/[`ANY_INCARNATION`] wildcards.
///
/// There is one format: this struct is the `n = 1` case
/// ([`FrameHeader::LEN`] bytes), [`FrameHeader::encode_list`] writes any
/// `n`, and [`FrameHeader::decode`] reads both back as a [`FrameDests`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The sending node.
    pub src: NodeId,
    /// Receiver endpoint index within its cluster, or [`ANY_ENDPOINT`].
    pub dst_endpoint: u32,
    /// Receiver incarnation the datagram was addressed to, or
    /// [`ANY_INCARNATION`].
    pub dst_incarnation: u32,
}

impl FrameHeader {
    /// Bytes ahead of the destination list: version + src + count.
    const PREFIX_LEN: usize = 1 + 4 + 1;

    /// Encoded size of a single-destination header.
    pub const LEN: usize = Self::len_for(1);

    /// Most destinations one header can list (the count is a `u8`).
    pub const MAX_DESTS: usize = u8::MAX as usize;

    /// Encoded size of a header listing `dests` destinations.
    pub const fn len_for(dests: usize) -> usize {
        Self::PREFIX_LEN + dests * FrameDest::LEN
    }

    /// A header addressed to whichever endpoint owns the destination
    /// socket, any incarnation (both wildcards).
    pub fn broadcast(src: NodeId) -> Self {
        FrameHeader {
            src,
            dst_endpoint: ANY_ENDPOINT,
            dst_incarnation: ANY_INCARNATION,
        }
    }

    /// This header's one destination.
    pub fn dest(&self) -> FrameDest {
        FrameDest {
            endpoint: self.dst_endpoint,
            incarnation: self.dst_incarnation,
        }
    }

    /// The encoded header, built in place (the unicast send path stamps
    /// one of these per message, so it stays off the heap).
    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        let mut bytes = [0; Self::LEN];
        bytes[0] = WIRE_VERSION;
        bytes[1..5].copy_from_slice(&self.src.0.to_le_bytes());
        bytes[5] = 1;
        bytes[6..10].copy_from_slice(&self.dst_endpoint.to_le_bytes());
        bytes[10..14].copy_from_slice(&self.dst_incarnation.to_le_bytes());
        bytes
    }

    /// Appends the header to `buf` (not cleared first).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }

    /// Appends a header from `src` naming every destination in `dests` to
    /// `buf` (not cleared first).
    ///
    /// Returns `false` (appending nothing) unless `dests` holds between 1
    /// and [`MAX_DESTS`](Self::MAX_DESTS) entries.
    pub fn encode_list(src: NodeId, dests: &[FrameDest], buf: &mut Vec<u8>) -> bool {
        let Ok(count @ 1..) = u8::try_from(dests.len()) else {
            return false;
        };
        buf.push(WIRE_VERSION);
        put_u32(buf, src.0);
        buf.push(count);
        for dest in dests {
            put_u32(buf, dest.endpoint);
            put_u32(buf, dest.incarnation);
        }
        true
    }

    /// Splits the bytes of a frame into its header and what follows it:
    /// the frame's body entries (see [`FrameBody`]) and, in a packed
    /// datagram, the later frames (a runtime walks those with [`Frames`]).
    ///
    /// `None` on an unknown version byte, an empty destination list, or
    /// input too short for the list it announces; the body is *not*
    /// validated here (the runtime decodes it separately so body
    /// corruption is attributed to the resolved endpoints).
    pub fn decode(bytes: &[u8]) -> Option<(FrameDests<'_>, &[u8])> {
        if bytes.len() < Self::PREFIX_LEN || bytes[0] != WIRE_VERSION {
            return None;
        }
        let count = usize::from(bytes[Self::PREFIX_LEN - 1]);
        let len = Self::len_for(count);
        if count == 0 || bytes.len() < len {
            return None;
        }
        let header = FrameDests {
            src: NodeId(word(&bytes[1..5])),
            list: &bytes[Self::PREFIX_LEN..len],
        };
        Some((header, &bytes[len..]))
    }

    /// Appends one length-prefixed frame-body entry (`[len u16 LE][bytes]`)
    /// to `buf`. Coalescing senders call this repeatedly to pack several
    /// messages for the same destinations into one frame; the receiver
    /// walks them back out with [`FrameBody`].
    ///
    /// Returns `false` (appending nothing) if `msg` exceeds the `u16`
    /// length prefix — no protocol message comes anywhere near 64 KiB, so
    /// this is a can't-happen guard, not a working path.
    pub fn encode_body_entry(buf: &mut Vec<u8>, msg: &[u8]) -> bool {
        let Ok(len) = u16::try_from(msg.len()) else {
            return false;
        };
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(msg);
        true
    }

    /// Appends a `BREAK` (two bytes) to a datagram `buf` that ends with a
    /// whole frame, so that another frame — its full header first — can
    /// follow in the same datagram.
    pub fn encode_break(buf: &mut Vec<u8>) {
        buf.extend_from_slice(&BREAK);
    }
}

fn word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("four bytes"))
}

/// A decoded frame header: the sender plus the (never empty) destination
/// list, borrowed from the datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDests<'a> {
    /// The sending node.
    pub src: NodeId,
    list: &'a [u8],
}

impl<'a> FrameDests<'a> {
    /// The destinations, in the order the sender listed them.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FrameDest> + 'a {
        self.list
            .chunks_exact(FrameDest::LEN)
            .map(|pair| FrameDest {
                endpoint: word(&pair[..4]),
                incarnation: word(&pair[4..]),
            })
    }
}

/// The zero entry length that separates the frames of a packed datagram.
const BREAK: [u8; 2] = [0, 0];

/// Iterator over the length-prefixed [`WireMsg`] entries of one frame's
/// body.
///
/// A frame body is `([len u16 LE >= 1][msg bytes])+`: usually one entry,
/// but a coalescing sender (the multiplexed runtime) packs every adjacent
/// message for the same destinations into one frame, so header bytes
/// amortize over the whole batch. The body ends with the datagram or at a
/// `BREAK` (a zero length, which opens the next frame of a packed
/// datagram); this iterator stops there and goes no further — crossing
/// into the next frame is [`Frames`]' job.
///
/// The iterator yields raw entry slices (the caller decodes each with
/// [`WireMsg::decode`] so a bad entry is counted where it is understood).
/// A truncated length prefix or an entry running past the buffer stops
/// iteration and sets [`malformed`](FrameBody::malformed); a body with no
/// entry is malformed too (a frame must carry at least one).
#[derive(Debug)]
pub struct FrameBody<'a> {
    rest: &'a [u8],
    malformed: bool,
}

impl<'a> FrameBody<'a> {
    /// Starts walking `body` (the second half of [`FrameHeader::decode`]).
    pub fn new(body: &'a [u8]) -> FrameBody<'a> {
        FrameBody {
            rest: body,
            malformed: body.is_empty() || body.starts_with(&BREAK),
        }
    }

    /// Whether the walk hit a truncated or overrunning entry (checked
    /// after iteration; entries yielded before the damage are still good).
    pub fn malformed(&self) -> bool {
        self.malformed
    }
}

impl<'a> Iterator for FrameBody<'a> {
    type Item = &'a [u8];

    /// Leaves `rest` empty, or at the `BREAK` that ended the frame.
    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < 2 {
            self.malformed = true;
            self.rest = &[];
            return None;
        }
        let len = u16::from_le_bytes([self.rest[0], self.rest[1]]) as usize;
        if len == 0 {
            return None;
        }
        if self.rest.len() < 2 + len {
            self.malformed = true;
            self.rest = &[];
            return None;
        }
        let entry = &self.rest[2..2 + len];
        self.rest = &self.rest[2 + len..];
        Some(entry)
    }
}

/// One step of a walk through a datagram (see [`Frames`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePart<'a> {
    /// A frame opens: its sender and destinations. The entries that follow
    /// belong to it, up to the next header.
    Header(FrameDests<'a>),
    /// One body entry of the open frame, undecoded.
    Entry(&'a [u8]),
}

/// Why a walk through a datagram (see [`Frames`]) could not go on as the
/// grammar says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// No decodable header where one is due — at the start of the datagram
    /// or after a `BREAK`. Nothing after it can be trusted: the walk ends.
    Header,
    /// The open frame's body is damaged: an entry cut short (the walk
    /// ends), or no entry at all (the walk goes on if a `BREAK` follows).
    Body,
}

/// The walk through a received datagram: every frame's header, then that
/// frame's body entries, in wire order, each frame behind its own header
/// so the caller judges it on its own (route it, count it stale, skip it).
///
/// This is the only reader of the datagram grammar in the module docs; every
/// real-socket driver receives through it. Damage is reported in place as
/// an `Err` item — everything yielded before it is good — and at most once
/// per frame. The walk borrows from the datagram, allocates nothing, reads
/// every byte a bounded number of times and never past a checked length.
#[derive(Debug)]
pub struct Frames<'a> {
    /// The entries left in the open frame.
    body: FrameBody<'a>,
    /// The bytes a header is due at: the whole datagram at first, what
    /// follows a `BREAK` later.
    header_at: Option<&'a [u8]>,
}

impl<'a> Frames<'a> {
    /// Starts walking `datagram`.
    pub fn new(datagram: &'a [u8]) -> Frames<'a> {
        Frames {
            body: FrameBody {
                rest: &[],
                malformed: false,
            },
            header_at: Some(datagram),
        }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<FramePart<'a>, FrameError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.header_at.is_none() {
            if let Some(entry) = self.body.next() {
                return Some(Ok(FramePart::Entry(entry)));
            }
            if std::mem::take(&mut self.body.malformed) {
                return Some(Err(FrameError::Body));
            }
            // The frame ended whole: with the datagram, or at a `BREAK`.
            self.header_at = Some(self.body.rest.get(BREAK.len()..)?);
            self.body.rest = &[];
        }
        let Some((header, body)) = FrameHeader::decode(self.header_at.take()?) else {
            return Some(Err(FrameError::Header));
        };
        self.body = FrameBody::new(body);
        Some(Ok(FramePart::Header(header)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: WireMsg) {
        let bytes = msg.to_bytes();
        let back = WireMsg::decode(&bytes).expect("decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn payloads_round_trip_through_any() {
        use std::any::Any;
        let msg: Box<dyn Any> = Box::new(DataMsg {
            seq: 9,
            published_at: TimePoint::from_micros(5),
            retransmission: false,
        });
        let back = msg.downcast_ref::<DataMsg>().unwrap();
        assert_eq!(back.seq, 9);
    }

    #[test]
    fn repair_entries_carry_timestamps() {
        let r = RepairMsg {
            entries: [
                (1, TimePoint::from_micros(10)),
                (2, TimePoint::from_micros(20)),
            ]
            .into(),
        };
        assert_eq!(r.entries.len(), 2);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(WireMsg::Data(DataMsg {
            seq: 9,
            published_at: TimePoint::from_micros(5),
            retransmission: true,
        }));
        round_trip(WireMsg::Forwarded(DataMsg {
            seq: 2,
            published_at: TimePoint::from_micros(1),
            retransmission: false,
        }));
        round_trip(WireMsg::Nak(NakMsg {
            seqs: vec![1, 5, 9],
        }));
        round_trip(WireMsg::Repair(RepairMsg {
            entries: [
                (1, TimePoint::from_micros(10)),
                (2, TimePoint::from_micros(20)),
            ]
            .into(),
        }));
        round_trip(WireMsg::Heartbeat(HeartbeatMsg {
            highest_seq: Some(7),
        }));
        round_trip(WireMsg::Heartbeat(HeartbeatMsg { highest_seq: None }));
        round_trip(WireMsg::Fin(FinMsg { total: 100 }));
        round_trip(WireMsg::Ack(AckMsg {
            below: 12,
            missing: vec![3, 4],
        }));
        round_trip(WireMsg::Membership(MembershipMsg { epoch: 42 }));
        round_trip(WireMsg::Discovery(Arc::new(DiscoveryMsg {
            participant_id: 3,
            epoch: 2,
            endpoints: vec![EndpointAd {
                topic: "sensors".to_owned(),
                is_writer: true,
                qos_code: 0xDEAD,
            }],
        })));
        round_trip(WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
            first_seq: 17,
            last_seq: 116,
        }));
        round_trip(WireMsg::DurableNak(DurableNakMsg {
            seqs: vec![17, 20, 99],
        }));
        round_trip(WireMsg::StreamSyn(StreamSynMsg { window: 64 }));
        round_trip(WireMsg::StreamSynAck(StreamSynAckMsg { window: 32 }));
        round_trip(WireMsg::StreamAck(StreamAckMsg {
            cum_ack: 1_000_000_007,
            window: 17,
        }));
        round_trip(WireMsg::ShmCredit(ShmCreditMsg { upto: u64::MAX - 1 }));
    }

    #[test]
    fn stream_and_shm_frames_reject_truncation_and_trailing_bytes() {
        for msg in [
            WireMsg::StreamSyn(StreamSynMsg { window: 8 }),
            WireMsg::StreamSynAck(StreamSynAckMsg { window: 8 }),
            WireMsg::StreamAck(StreamAckMsg {
                cum_ack: 3,
                window: 8,
            }),
            WireMsg::ShmCredit(ShmCreditMsg { upto: 256 }),
        ] {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(WireMsg::decode(&bytes[..cut]).is_none(), "cut={cut}");
            }
            let mut extra = bytes.clone();
            extra.push(0);
            assert!(WireMsg::decode(&extra).is_none(), "trailing byte");
        }
    }

    #[test]
    fn truncated_and_trailing_frames_rejected() {
        let bytes = WireMsg::Fin(FinMsg { total: 1 }).to_bytes();
        assert!(WireMsg::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(WireMsg::decode(&extra).is_none());
        assert!(WireMsg::decode(&[]).is_none());
        assert!(WireMsg::decode(&[200]).is_none(), "unknown kind");
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate_unbounded() {
        // A NAK frame claiming u32::MAX sequences but carrying none.
        let mut bytes = vec![2u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(WireMsg::decode(&bytes).is_none());
        // Same hostile prefix on the durable catch-up NAK.
        let mut bytes = vec![KIND_DURABLE_NAK];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(WireMsg::decode(&bytes).is_none());
    }

    /// Frames the fuzz harness flagged as allocation bombs: every counted
    /// section used to `Vec::with_capacity(count)` before checking whether
    /// the bytes for even one element were present, so a handful of bytes
    /// reserved megabytes. Each input is pinned verbatim.
    #[test]
    fn regression_tiny_frames_claiming_many_elements_are_rejected() {
        fn counted(kind: u8, prefix: &[u8], count: u32, body: &[u8]) -> Vec<u8> {
            let mut bytes = vec![kind];
            bytes.extend_from_slice(prefix);
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes.extend_from_slice(body);
            bytes
        }
        // 13-byte NAK: count 1<<20 (within the old clamp) but one element.
        let nak = counted(KIND_NAK, &[], 1 << 20, &7u64.to_le_bytes());
        assert!(WireMsg::decode(&nak).is_none());
        // Repair claiming 1<<20 16-byte entries with an empty body.
        assert!(WireMsg::decode(&counted(KIND_REPAIR, &[], 1 << 20, &[])).is_none());
        // ACK: valid `below`, hostile missing-count, no missing list.
        let ack = counted(KIND_ACK, &3u64.to_le_bytes(), 1 << 20, &[]);
        assert!(WireMsg::decode(&ack).is_none());
        // Durable NAK with the same shape.
        assert!(WireMsg::decode(&counted(KIND_DURABLE_NAK, &[], 1 << 20, &[])).is_none());
        // Discovery announcing 1<<20 endpoints in a 13-byte frame.
        let disc = counted(KIND_DISCOVERY, &[1, 0, 0, 0, 2, 0, 0, 0], 1 << 20, &[]);
        assert!(WireMsg::decode(&disc).is_none());
        // Counts just above MAX_WIRE_ELEMS are rejected outright rather
        // than silently clamped to a prefix of the claimed list.
        let huge = counted(KIND_NAK, &[], MAX_WIRE_ELEMS + 1, &7u64.to_le_bytes());
        assert!(WireMsg::decode(&huge).is_none());
        // A discovery endpoint whose topic length points past the frame.
        let mut topic_bomb = vec![KIND_DISCOVERY];
        topic_bomb.extend_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]); // id, epoch
        topic_bomb.extend_from_slice(&1u32.to_le_bytes()); // one endpoint
        topic_bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // topic len
        topic_bomb.extend_from_slice(&[b'x'; 13]);
        assert!(WireMsg::decode(&topic_bomb).is_none());
    }

    #[test]
    fn exact_count_frames_still_decode() {
        // The rejection must be capacity-driven, not off-by-one: a frame
        // whose count exactly matches its payload stays valid.
        let msg = WireMsg::Nak(NakMsg {
            seqs: (0..32).collect(),
        });
        assert_eq!(WireMsg::decode(&msg.to_bytes()), Some(msg));
        let empty = WireMsg::DurableNak(DurableNakMsg { seqs: vec![] });
        assert_eq!(WireMsg::decode(&empty.to_bytes()), Some(empty));
    }

    #[test]
    fn frame_header_round_trips_with_body() {
        let header = FrameHeader {
            src: NodeId(7),
            dst_endpoint: 93_417,
            dst_incarnation: 3,
        };
        let body = WireMsg::Fin(FinMsg { total: 11 });
        let mut frame = Vec::new();
        header.encode(&mut frame);
        assert!(FrameHeader::encode_body_entry(&mut frame, &body.to_bytes()));

        let (back, rest) = FrameHeader::decode(&frame).expect("header decodes");
        assert_eq!(back.src, header.src);
        assert_eq!(back.iter().collect::<Vec<_>>(), [header.dest()]);
        let mut entries = FrameBody::new(rest);
        let entry = entries.next().expect("one entry");
        assert_eq!(WireMsg::decode(entry), Some(body));
        assert_eq!(entries.next(), None);
        assert!(!entries.malformed());
    }

    #[test]
    fn frame_body_walks_coalesced_entries_in_order() {
        let msgs = vec![
            WireMsg::Fin(FinMsg { total: 1 }),
            WireMsg::Data(DataMsg {
                seq: 9,
                published_at: TimePoint::from_nanos(77),
                retransmission: true,
            }),
            WireMsg::Fin(FinMsg { total: 3 }),
        ];
        let mut body = Vec::new();
        for msg in &msgs {
            assert!(FrameHeader::encode_body_entry(&mut body, &msg.to_bytes()));
        }
        let mut entries = FrameBody::new(&body);
        for msg in &msgs {
            let entry = entries.next().expect("entry present");
            assert_eq!(WireMsg::decode(entry).as_ref(), Some(msg));
        }
        assert_eq!(entries.next(), None);
        assert!(!entries.malformed());
    }

    #[test]
    fn frame_body_flags_truncation_and_empty_bodies() {
        // Empty body: a frame must carry at least one entry.
        assert!(FrameBody::new(&[]).malformed());
        // Truncated length prefix.
        let mut one_byte = FrameBody::new(&[5]);
        assert_eq!(one_byte.next(), None);
        assert!(one_byte.malformed());
        // Entry running past the buffer; earlier entries still yield.
        let mut body = Vec::new();
        FrameHeader::encode_body_entry(&mut body, &[1, 2, 3]);
        body.extend_from_slice(&[200, 0, 9]); // claims 200 bytes, has 1
        let mut entries = FrameBody::new(&body);
        assert_eq!(entries.next(), Some(&[1u8, 2, 3][..]));
        assert_eq!(entries.next(), None);
        assert!(entries.malformed());
    }

    #[test]
    fn frame_header_wildcards_round_trip() {
        let header = FrameHeader::broadcast(NodeId(42));
        assert_eq!(header.dst_endpoint, ANY_ENDPOINT);
        assert_eq!(header.dst_incarnation, ANY_INCARNATION);
        let mut frame = Vec::new();
        header.encode(&mut frame);
        assert_eq!(frame.len(), FrameHeader::LEN);
        let (back, rest) = FrameHeader::decode(&frame).expect("header decodes");
        assert_eq!(back.src, header.src);
        assert_eq!(back.iter().collect::<Vec<_>>(), [header.dest()]);
        assert!(rest.is_empty());
    }

    fn dest_list(n: usize) -> Vec<FrameDest> {
        (0..n as u32)
            .map(|i| FrameDest {
                endpoint: i * 7 + 1,
                incarnation: i % 3,
            })
            .collect()
    }

    #[test]
    fn destination_lists_round_trip_and_reject_every_truncation() {
        let body = WireMsg::Fin(FinMsg { total: 5 }).to_bytes();
        for n in [1, 2, 255] {
            let dests = dest_list(n);
            let mut frame = Vec::new();
            assert!(FrameHeader::encode_list(NodeId(9), &dests, &mut frame));
            assert_eq!(frame.len(), FrameHeader::len_for(n));
            // Every strict prefix of the header is refused: the whole list
            // must be present before any routing decision is made.
            for cut in 0..frame.len() {
                assert!(
                    FrameHeader::decode(&frame[..cut]).is_none(),
                    "n={n} cut={cut}"
                );
            }
            FrameHeader::encode_body_entry(&mut frame, &body);
            let (back, rest) = FrameHeader::decode(&frame).expect("header decodes");
            assert_eq!(back.src, NodeId(9));
            assert_eq!(back.iter().len(), n);
            assert_eq!(back.iter().collect::<Vec<_>>(), dests);
            assert_eq!(FrameBody::new(rest).next(), Some(&body[..]));
        }
    }

    #[test]
    fn a_single_destination_header_is_the_list_encoding_with_n_1() {
        let header = FrameHeader {
            src: NodeId(0xA1B2_C3D4),
            dst_endpoint: 0x0102_0304,
            dst_incarnation: 0x0A0B_0C0D,
        };
        let mut listed = Vec::new();
        assert!(FrameHeader::encode_list(
            header.src,
            &[header.dest()],
            &mut listed
        ));
        assert_eq!(header.to_bytes()[..], listed[..]);
        let mut encoded = Vec::new();
        header.encode(&mut encoded);
        assert_eq!(encoded, listed);
    }

    #[test]
    fn empty_and_oversized_destination_lists_are_refused() {
        let mut frame = Vec::new();
        assert!(!FrameHeader::encode_list(NodeId(1), &[], &mut frame));
        assert!(!FrameHeader::encode_list(
            NodeId(1),
            &dest_list(FrameHeader::MAX_DESTS + 1),
            &mut frame
        ));
        assert!(frame.is_empty(), "a refused list appends nothing");
        // A hand-built header announcing zero destinations is rejected,
        // however many bytes follow it.
        FrameHeader::broadcast(NodeId(1)).encode(&mut frame);
        frame[5] = 0;
        assert!(FrameHeader::decode(&frame).is_none());
    }

    #[test]
    fn frame_header_rejects_truncation_and_unknown_versions() {
        let mut frame = Vec::new();
        FrameHeader::broadcast(NodeId(1)).encode(&mut frame);
        // Every strict prefix of the header is refused — the demux fields
        // must be present in full before any routing decision is made.
        for cut in 0..frame.len() {
            assert!(FrameHeader::decode(&frame[..cut]).is_none(), "cut={cut}");
        }
        // Wire versions 1 (the bare node-id prefix), 2 (one fixed demux
        // key) and 3 (one frame per datagram) and future versions are
        // rejected, not misparsed.
        for version in [1, 2, 3, 5] {
            let mut other = frame.clone();
            other[0] = version;
            assert!(FrameHeader::decode(&other).is_none(), "version={version}");
        }
        assert!(FrameHeader::decode(&[]).is_none());
    }

    /// What a walk yields, owned: frames as `(src, dests, entries)`, and
    /// the errors met, in order, with the number of whole entries seen
    /// before each.
    type Walked = (
        Vec<(NodeId, Vec<FrameDest>, Vec<Vec<u8>>)>,
        Vec<(FrameError, usize)>,
    );

    fn walk(datagram: &[u8]) -> Walked {
        let (mut frames, mut errors, mut entries) = (Vec::new(), Vec::new(), 0);
        for part in Frames::new(datagram) {
            match part {
                Ok(FramePart::Header(header)) => {
                    frames.push((header.src, header.iter().collect(), Vec::new()));
                }
                Ok(FramePart::Entry(entry)) => {
                    let (_, _, body) = frames.last_mut().expect("an entry follows a header");
                    body.push(entry.to_vec());
                    entries += 1;
                }
                Err(e) => errors.push((e, entries)),
            }
        }
        (frames, errors)
    }

    /// A seeded packed datagram of `frames` frames and what it says.
    fn packed(rng: &mut crate::DetRng, frames: usize) -> (Vec<u8>, Walked) {
        let mut datagram = Vec::new();
        let mut want = Vec::new();
        for i in 0..frames {
            if i > 0 {
                datagram.extend_from_slice(&BREAK);
            }
            let src = NodeId(rng.next_u64() as u32);
            let dests = dest_list(1 + rng.next_below(FrameHeader::MAX_DESTS as u64) as usize);
            assert!(FrameHeader::encode_list(src, &dests, &mut datagram));
            let entries: Vec<Vec<u8>> = (0..1 + rng.next_below(16))
                .map(|_| {
                    WireMsg::Nak(NakMsg {
                        seqs: (0..rng.next_below(4)).map(|_| rng.next_u64()).collect(),
                    })
                    .to_bytes()
                })
                .collect();
            for entry in &entries {
                assert!(FrameHeader::encode_body_entry(&mut datagram, entry));
            }
            want.push((src, dests, entries));
        }
        (datagram, (want, Vec::new()))
    }

    #[test]
    fn packed_datagrams_round_trip_through_the_walker() {
        let mut rng = crate::DetRng::seed_from_u64(4);
        for round in 0..64 {
            let (datagram, want) = packed(&mut rng, 1 + round % 8);
            assert_eq!(walk(&datagram), want, "round={round}");
        }
    }

    #[test]
    fn a_single_frame_walks_as_header_decode_plus_frame_body() {
        let mut rng = crate::DetRng::seed_from_u64(5);
        let (datagram, (want, _)) = packed(&mut rng, 1);
        let (header, body) = FrameHeader::decode(&datagram).unwrap();
        let mut entries = FrameBody::new(body);
        let direct: Vec<Vec<u8>> = entries.by_ref().map(<[u8]>::to_vec).collect();
        assert!(!entries.malformed());
        assert_eq!((header.src, header.iter().collect(), direct), want[0]);
        assert_eq!(walk(&datagram).0, want);
    }

    #[test]
    fn frame_body_stops_at_a_break_without_crossing_it() {
        let mut rng = crate::DetRng::seed_from_u64(6);
        let (datagram, (want, _)) = packed(&mut rng, 3);
        let (_, rest) = FrameHeader::decode(&datagram).unwrap();
        let mut first = FrameBody::new(rest);
        assert_eq!(first.by_ref().count(), want[0].2.len());
        assert!(!first.malformed());
        assert_eq!(first.next(), None, "the next frame is not this body's");
    }

    #[test]
    fn every_strict_prefix_yields_whole_entries_then_at_most_one_failure() {
        let mut rng = crate::DetRng::seed_from_u64(7);
        let (datagram, (want, _)) = packed(&mut rng, 4);
        let all: Vec<&Vec<u8>> = want.iter().flat_map(|(_, _, body)| body).collect();
        // Where a cut leaves a valid, shorter datagram: after a whole entry.
        let mut whole_at = std::collections::BTreeSet::new();
        let mut at = 0;
        for (i, (_, dests, body)) in want.iter().enumerate() {
            at += if i > 0 { BREAK.len() } else { 0 } + FrameHeader::len_for(dests.len());
            for entry in body {
                at += 2 + entry.len();
                whole_at.insert(at);
            }
        }
        assert_eq!(at, datagram.len());
        for cut in 0..datagram.len() {
            let (frames, errors) = walk(&datagram[..cut]);
            let got: Vec<&Vec<u8>> = frames.iter().flat_map(|(_, _, body)| body).collect();
            assert_eq!(got[..], all[..got.len()], "cut={cut}: only whole entries");
            for (frame, full) in frames.iter().zip(&want) {
                assert_eq!((frame.0, &frame.1), (full.0, &full.1), "cut={cut}");
            }
            match errors[..] {
                [] => assert!(whole_at.contains(&cut), "cut={cut} went unreported"),
                [(_, seen)] => {
                    assert!(!whole_at.contains(&cut), "cut={cut} is a whole datagram");
                    assert_eq!(seen, got.len(), "cut={cut}: the failure comes last");
                }
                _ => panic!("cut={cut}: {errors:?}"),
            }
        }
    }

    #[test]
    fn misplaced_breaks_and_empty_frames_are_malformed() {
        let mut frame = Vec::new();
        FrameHeader::broadcast(NodeId(1)).encode(&mut frame);
        let header_only = frame.clone();
        FrameHeader::encode_body_entry(&mut frame, &[KIND_FIN; 9]);
        let with = |tail: &[&[u8]]| [&[&frame[..]], tail].concat().concat();

        // A trailing BREAK, or two in a row: no header where one is due.
        for tail in [&[&BREAK[..]][..], &[&BREAK[..], &BREAK[..], &frame[..]][..]] {
            let (frames, errors) = walk(&with(tail));
            assert_eq!(
                (frames.len(), &errors[..]),
                (1, &[(FrameError::Header, 1)][..])
            );
        }
        // A header with no entry behind it: at the end of the datagram ...
        let (frames, errors) = walk(&with(&[&BREAK, &header_only]));
        assert_eq!(
            (frames.len(), &errors[..]),
            (2, &[(FrameError::Body, 1)][..])
        );
        assert!(frames[1].2.is_empty());
        // ... and ahead of a BREAK, where the walk goes on to the next frame.
        let (frames, errors) = walk(&[&header_only[..], &BREAK, &frame].concat());
        assert_eq!(
            (frames.len(), &errors[..]),
            (2, &[(FrameError::Body, 0)][..])
        );
        assert_eq!(frames[1].2.len(), 1);
        // Not a datagram at all.
        assert_eq!(walk(&[]), (Vec::new(), vec![(FrameError::Header, 0)]));
        assert_eq!(walk(&BREAK), (Vec::new(), vec![(FrameError::Header, 0)]));
    }
}
