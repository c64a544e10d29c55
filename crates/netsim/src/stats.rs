//! Wire-level statistics collected by the engine.
//!
//! The composite QoS metrics in the paper include network bandwidth usage
//! (and its burstiness); the engine tracks transmitted bytes per tag and per
//! second so those metrics can be computed without instrumenting protocols.

use std::collections::BTreeMap;

use crate::packet::NodeId;
use crate::time::SimTime;

/// Per-tag transmission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCounters {
    /// Transmissions initiated (one per `send`, regardless of fan-out).
    pub sends: u64,
    /// Copies delivered to receivers (after fan-out, before agent logic).
    pub deliveries: u64,
    /// Copies dropped by the link-loss model.
    pub link_drops: u64,
    /// Copies discarded because the target host was crashed (NIC down).
    pub crash_drops: u64,
    /// Copies discarded because a network partition separated the hosts.
    pub partition_drops: u64,
    /// Bytes clocked onto receiver links (deliveries × size).
    pub bytes_delivered: u64,
    /// Bytes clocked out of sender NICs (sends × size).
    pub bytes_sent: u64,
}

/// Wire statistics for a completed (or in-progress) simulation run.
///
/// The recording paths run once or more per packet copy, so storage is
/// flat: tags live in a first-seen-ordered vector (runs use a handful of
/// tags, and the hot tag is almost always the first probed), node counters
/// in dense node-indexed vectors. After the first packet of each kind,
/// recording touches no allocator and chases no tree pointers.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    per_tag: Vec<(u16, TagCounters)>,
    labels: BTreeMap<u16, String>,
    /// Bytes delivered per whole simulated second, for burstiness metrics.
    bytes_per_second: Vec<u64>,
    per_node_sent: Vec<u64>,
    per_node_received: Vec<u64>,
}

impl WireStats {
    pub(crate) fn new() -> Self {
        WireStats::default()
    }

    pub(crate) fn register_tag(&mut self, tag: u16, label: &str) {
        self.labels.insert(tag, label.to_owned());
    }

    fn tag_mut(&mut self, tag: u16) -> &mut TagCounters {
        match self.per_tag.iter().position(|&(t, _)| t == tag) {
            Some(i) => &mut self.per_tag[i].1,
            None => {
                self.per_tag.push((tag, TagCounters::default()));
                &mut self.per_tag.last_mut().expect("just pushed").1
            }
        }
    }

    fn bump(counters: &mut Vec<u64>, index: usize) {
        if counters.len() <= index {
            counters.resize(index + 1, 0);
        }
        counters[index] += 1;
    }

    pub(crate) fn record_send(&mut self, node: NodeId, tag: u16, bytes: u32) {
        let c = self.tag_mut(tag);
        c.sends += 1;
        c.bytes_sent += bytes as u64;
        Self::bump(&mut self.per_node_sent, node.0 as usize);
    }

    pub(crate) fn record_delivery(&mut self, node: NodeId, tag: u16, bytes: u32, at: SimTime) {
        let c = self.tag_mut(tag);
        c.deliveries += 1;
        c.bytes_delivered += bytes as u64;
        Self::bump(&mut self.per_node_received, node.0 as usize);
        let second = (at.as_nanos() / 1_000_000_000) as usize;
        if self.bytes_per_second.len() <= second {
            self.bytes_per_second.resize(second + 1, 0);
        }
        self.bytes_per_second[second] += bytes as u64;
    }

    pub(crate) fn record_link_drop(&mut self, tag: u16) {
        self.tag_mut(tag).link_drops += 1;
    }

    pub(crate) fn record_crash_drop(&mut self, tag: u16) {
        self.tag_mut(tag).crash_drops += 1;
    }

    pub(crate) fn record_partition_drop(&mut self, tag: u16) {
        self.tag_mut(tag).partition_drops += 1;
    }

    /// Counters for one tag (zeroes if the tag never appeared).
    pub fn tag(&self, tag: u16) -> TagCounters {
        self.per_tag
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, c)| c)
            .unwrap_or_default()
    }

    /// The human-readable label registered for `tag`, if any.
    pub fn tag_label(&self, tag: u16) -> Option<&str> {
        self.labels.get(&tag).map(String::as_str)
    }

    /// All tags seen or registered, ascending.
    pub fn tags(&self) -> Vec<u16> {
        let mut tags: Vec<u16> = self
            .per_tag
            .iter()
            .map(|&(t, _)| t)
            .chain(self.labels.keys().copied())
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// Total bytes delivered to receivers across all tags.
    pub fn total_bytes_delivered(&self) -> u64 {
        self.per_tag.iter().map(|(_, c)| c.bytes_delivered).sum()
    }

    /// Total copies delivered across all tags.
    pub fn total_deliveries(&self) -> u64 {
        self.per_tag.iter().map(|(_, c)| c.deliveries).sum()
    }

    /// Bytes delivered in each whole simulated second (index = second).
    ///
    /// The standard deviation of this series is the paper's *burstiness*.
    pub fn bytes_per_second(&self) -> &[u64] {
        &self.bytes_per_second
    }

    /// Packets sent by one node.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.per_node_sent
            .get(node.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Packet copies delivered to one node.
    pub fn received_by(&self, node: NodeId) -> u64 {
        self.per_node_received
            .get(node.0 as usize)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = WireStats::new();
        s.record_send(NodeId(0), 1, 100);
        s.record_send(NodeId(0), 1, 100);
        s.record_delivery(NodeId(1), 1, 100, SimTime::from_millis(10));
        s.record_link_drop(1);
        let c = s.tag(1);
        assert_eq!(c.sends, 2);
        assert_eq!(c.deliveries, 1);
        assert_eq!(c.link_drops, 1);
        assert_eq!(c.bytes_sent, 200);
        assert_eq!(c.bytes_delivered, 100);
        assert_eq!(s.sent_by(NodeId(0)), 2);
        assert_eq!(s.received_by(NodeId(1)), 1);
        assert_eq!(s.received_by(NodeId(9)), 0);
    }

    #[test]
    fn unknown_tag_is_zeroes() {
        let s = WireStats::new();
        assert_eq!(s.tag(42), TagCounters::default());
    }

    #[test]
    fn labels_round_trip() {
        let mut s = WireStats::new();
        s.register_tag(1, "data");
        s.register_tag(2, "repair");
        assert_eq!(s.tag_label(1), Some("data"));
        assert_eq!(s.tag_label(3), None);
        assert_eq!(s.tags(), vec![1, 2]);
    }

    #[test]
    fn bytes_per_second_buckets() {
        let mut s = WireStats::new();
        s.record_delivery(NodeId(0), 1, 10, SimTime::from_millis(500));
        s.record_delivery(NodeId(0), 1, 20, SimTime::from_millis(900));
        s.record_delivery(NodeId(0), 1, 40, SimTime::from_millis(2_100));
        assert_eq!(s.bytes_per_second(), &[30, 0, 40]);
        assert_eq!(s.total_bytes_delivered(), 70);
        assert_eq!(s.total_deliveries(), 3);
    }
}
