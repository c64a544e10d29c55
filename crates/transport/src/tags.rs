//! Wire tags and framing-size constants shared by all protocols.

/// Tag for original multicast data packets.
pub const TAG_DATA: u16 = 1;
/// Tag for unicast retransmissions of lost data (NAKcast / StreamCast).
pub const TAG_RETRANSMIT: u16 = 2;
/// Tag for negative acknowledgements (receiver → sender).
pub const TAG_NAK: u16 = 3;
/// Tag for Ricochet lateral repair packets (receiver → receiver).
pub const TAG_REPAIR: u16 = 4;
/// Tag for sender session heartbeats.
pub const TAG_HEARTBEAT: u16 = 6;
/// Tag for end-of-stream markers.
pub const TAG_FIN: u16 = 7;
/// Tag for group-membership heartbeats.
pub const TAG_MEMBERSHIP: u16 = 8;
/// Tag for StreamCast connection-handshake packets (SYN and SYN-ACK).
pub const TAG_STREAM_SYN: u16 = 9;
/// Tag for StreamCast cumulative acknowledgements.
pub const TAG_STREAM_ACK: u16 = 10;
/// Tag for ShmCast flow-control credit grants.
pub const TAG_SHM_CREDIT: u16 = 11;

/// Registers human-readable labels for every tag on a simulation.
pub fn register_all(sim: &mut adamant_netsim::Simulation) {
    sim.register_tag(TAG_DATA, "data");
    sim.register_tag(TAG_RETRANSMIT, "retransmit");
    sim.register_tag(TAG_NAK, "nak");
    sim.register_tag(TAG_REPAIR, "repair");
    sim.register_tag(TAG_HEARTBEAT, "heartbeat");
    sim.register_tag(TAG_FIN, "fin");
    sim.register_tag(TAG_MEMBERSHIP, "membership");
    sim.register_tag(TAG_STREAM_SYN, "stream-syn");
    sim.register_tag(TAG_STREAM_ACK, "stream-ack");
    sim.register_tag(TAG_SHM_CREDIT, "shm-credit");
}

/// Ethernet + IP + UDP framing bytes charged to every packet.
pub const FRAMING_BYTES: u32 = 42;
/// Transport-protocol data header (sequence number, timestamps, flags).
pub const DATA_HEADER_BYTES: u32 = 16;
/// Base size of a NAK (plus 8 bytes per requested sequence number).
pub const NAK_BASE_BYTES: u32 = 12;
/// Bytes per sequence number listed in a NAK.
pub const NAK_PER_SEQ_BYTES: u32 = 8;
/// Base size of a Ricochet repair packet (header + XOR metadata).
pub const REPAIR_BASE_BYTES: u32 = 20;
/// Bytes per covered packet in a repair (sequence + bookkeeping).
pub const REPAIR_PER_SEQ_BYTES: u32 = 8;
/// Size of heartbeat / FIN / ACK control messages.
pub const CONTROL_BYTES: u32 = 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct() {
        let tags = [
            TAG_DATA,
            TAG_RETRANSMIT,
            TAG_NAK,
            TAG_REPAIR,
            TAG_HEARTBEAT,
            TAG_FIN,
            TAG_MEMBERSHIP,
            TAG_STREAM_SYN,
            TAG_STREAM_ACK,
            TAG_SHM_CREDIT,
        ];
        let mut sorted = tags.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tags.len());
    }

    #[test]
    fn register_all_labels() {
        let mut sim = adamant_netsim::Simulation::new(0);
        register_all(&mut sim);
        assert_eq!(sim.stats().tag_label(TAG_DATA), Some("data"));
        assert_eq!(sim.stats().tag_label(TAG_REPAIR), Some("repair"));
    }
}
