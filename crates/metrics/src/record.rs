//! Delivery records: a runtime endpoint's [`DeliveryLog`] of delta-varint
//! records, and a simulated reader's [`DenseReceptionLog`] — a duplicate
//! filter and a [`QosAccumulator`], plus a `DeliveryLog` and a latency
//! column only under capture.

use std::collections::BTreeSet;

use adamant_proto::{Span, TimePoint};

use crate::report::QosAccumulator;

/// One sample delivered to one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The publisher-assigned sample sequence number.
    pub seq: u64,
    /// When the publisher handed the sample to the middleware.
    pub published_at: TimePoint,
    /// When the receiver's application saw the sample.
    pub delivered_at: TimePoint,
    /// Whether the sample was recovered by the transport's error-correction
    /// machinery (NAK retransmission, lateral repair) rather than arriving
    /// on the first attempt.
    pub recovered: bool,
}

impl Delivery {
    /// End-to-end latency of this delivery.
    pub fn latency(&self) -> Span {
        self.delivered_at.saturating_since(self.published_at)
    }
}

/// Everything one receiver observed during a run.
///
/// Transports append to this as they deliver samples. A second copy of a
/// delivered sequence number is refused and counted as a duplicate; every
/// accepted one folds into the log's [`QosAccumulator`], which is all a
/// [`QosReport`](crate::QosReport) needs. Nothing is allocated before it.
///
/// Delivered sequence numbers are tracked in a bitset, so `record` and
/// `contains` are O(1). The bitset covers at most `max(capacity,
/// 2 × delivered_count + 4 096)` sequences; a farther `seq` is kept in a
/// sorted side set, so memory stays O(capacity + deliveries) whatever
/// sequence numbers arrive.
///
/// Only under [`capture`](Self::capture) is each delivery also kept, in
/// record order, as a [`DeliveryLog`] record plus a zigzag `delivered_at −
/// published_at` varint: ≈ 7 B for a NAKcast delivery, against 32.
#[derive(Debug, Clone, Default)]
pub struct DenseReceptionLog {
    qos: QosAccumulator,
    capture: Option<(DeliveryLog, Vec<u8>)>, // records, zigzag latency varints
    capacity: u64,
    seen: Vec<u64>,     // bitset, one bit per sequence number
    far: BTreeSet<u64>, // delivered sequences beyond the bitset
    duplicates: u64,
}

impl DenseReceptionLog {
    /// Creates an empty log sized for sequences `0..capacity`.
    pub fn with_capacity(capacity: u64) -> Self {
        DenseReceptionLog {
            capacity,
            ..DenseReceptionLog::default()
        }
    }

    /// Keeps a record of every delivery from now on; call it before the first.
    pub fn capture(&mut self) {
        self.capture.get_or_insert_default();
    }

    fn test_and_set(&mut self, seq: u64) -> bool {
        let word = seq / 64;
        if word >= self.seen.len() as u64 {
            let capacity = self.capacity.div_ceil(64);
            if word >= capacity.max((2 * self.qos.delivered() + 4_096) / 64) {
                // Far past what the log holds: one hostile `seq` must not
                // size the bitset.
                return !self.far.insert(seq);
            }
            self.seen.resize((word + 1).max(capacity) as usize, 0);
            // Sequences the bitset now covers move into it.
            let beyond = self.far.split_off(&(self.seen.len() as u64 * 64));
            for seq in std::mem::replace(&mut self.far, beyond) {
                self.seen[(seq / 64) as usize] |= 1 << (seq % 64);
            }
        }
        let (word, bit) = (word as usize, 1u64 << (seq % 64));
        let was_set = self.seen[word] & bit != 0;
        self.seen[word] |= bit;
        was_set
    }

    /// Records a delivery. Returns `false` if this sequence number was
    /// already delivered.
    pub fn record(&mut self, delivery: Delivery) -> bool {
        if self.test_and_set(delivery.seq) {
            self.duplicates += 1;
            return false;
        }
        self.qos.record(delivery.latency(), delivery.recovered);
        if let Some((log, latencies)) = &mut self.capture {
            log.push(delivery.seq, delivery.published_at, delivery.recovered);
            let published = delivery.published_at.as_nanos();
            let latency = delivery.delivered_at.as_nanos().wrapping_sub(published);
            put_varint(latencies, zigzag(latency));
        }
        true
    }

    /// Whether `seq` has been delivered.
    pub fn contains(&self, seq: u64) -> bool {
        match self.seen.get((seq / 64) as usize) {
            Some(word) => word & (1 << (seq % 64)) != 0,
            None => self.far.contains(&seq),
        }
    }

    /// Every recorded (unique) delivery since [`capture`](Self::capture),
    /// by value, in record order, decoded exactly as it was recorded;
    /// `None` when the log does not capture.
    pub fn deliveries(&self) -> Option<impl Iterator<Item = Delivery> + '_> {
        let (log, latencies) = self.capture.as_ref()?;
        Some(captured(&log.bytes[..], &latencies[..]))
    }

    /// Hands over the deliveries recorded since capture began or since the
    /// last take, as [`deliveries`](Self::deliveries) would list them, and
    /// keeps capturing from empty; `None` when the log does not capture.
    pub fn take_captured(&mut self) -> Option<impl Iterator<Item = Delivery>> {
        let (log, latencies) = std::mem::take(self.capture.as_mut()?);
        Some(captured(log.bytes, latencies))
    }

    /// The accumulated QoS of every delivery recorded.
    pub fn qos(&self) -> &QosAccumulator {
        &self.qos
    }

    /// Number of unique samples delivered.
    pub fn delivered_count(&self) -> u64 {
        self.qos.delivered()
    }

    /// Number of duplicate deliveries suppressed.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Number of deliveries that came through error recovery.
    pub fn recovered_count(&self) -> u64 {
        self.qos.recovered()
    }
}

/// The deliveries a capture holds: its records zipped with their latencies.
fn captured<B: AsRef<[u8]>>(records: B, latencies: B) -> impl Iterator<Item = Delivery> {
    let records = decode_records(records).zip(varints(latencies, 0));
    records.map(|((seq, published_at, recovered), latency)| {
        let delivered = published_at.as_nanos().wrapping_add(unzigzag(latency));
        Delivery {
            seq,
            published_at,
            delivered_at: TimePoint::from_nanos(delivered),
            recovered,
        }
    })
}

/// Bytes of a [`DeliveryLog`]'s header: four little-endian `u64`s.
const LOG_HEADER: usize = 32;

/// An endpoint's deliveries, `(seq, published_at, recovered)` in push
/// order, kept losslessly in one byte buffer: a header (count, recovered
/// count, last `seq`, last `published_at`), then two LEB128 varints per
/// delivery — the wrapping `seq` delta shifted left one bit with the
/// recovered flag in the low bit (a `u128`, so any `u64` delta
/// round-trips), and the zigzag-encoded `published_at` delta. A paced
/// delivery (`seq` + 1, 10 ms later) costs ≈ 5 B against 24 for a `(u64,
/// TimePoint, bool)`; an empty log allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    bytes: Vec<u8>,
}

impl DeliveryLog {
    /// Appends one delivery.
    #[inline]
    pub fn push(&mut self, seq: u64, published_at: TimePoint, recovered: bool) {
        let at = published_at.as_nanos();
        let key = (u128::from(seq.wrapping_sub(self.field(2))) << 1) | u128::from(recovered);
        let at_delta = zigzag(at.wrapping_sub(self.field(3)));
        let recovered_count = self.recovered() + u64::from(recovered);
        let header = [self.field(0) + 1, recovered_count, seq, at];
        if self.bytes.is_empty() {
            self.bytes.resize(LOG_HEADER, 0);
        }
        self.bytes[..LOG_HEADER].copy_from_slice(header.map(u64::to_le_bytes).as_flattened());
        put_varint(&mut self.bytes, key);
        put_varint(&mut self.bytes, at_delta);
    }

    /// Deliveries logged.
    pub fn len(&self) -> usize {
        self.field(0) as usize
    }

    /// Whether nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Deliveries that arrived through a recovery path.
    pub fn recovered(&self) -> u64 {
        self.field(1)
    }

    /// Every delivery, `(seq, published_at, recovered)`, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TimePoint, bool)> + '_ {
        decode_records(&self.bytes[..])
    }

    /// Header field `index` (0 on an empty log).
    fn field(&self, index: usize) -> u64 {
        let (fields, _) = self.bytes.as_chunks();
        fields.get(index).map_or(0, |&b| u64::from_le_bytes(b))
    }
}

/// A wrapping difference read as an `i64` and zigzag-mapped, so a small
/// step either way encodes short.
fn zigzag(delta: u64) -> u128 {
    let delta = delta as i64;
    u128::from(((delta << 1) ^ (delta >> 63)) as u64)
}

fn unzigzag(value: u128) -> u64 {
    let value = value as u64;
    (value >> 1) ^ (value & 1).wrapping_neg()
}

fn put_varint(bytes: &mut Vec<u8>, mut value: u128) {
    while value >= 0x80 {
        bytes.push(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push(value as u8);
}

/// The varint `bytes` starts with, which it steps past (`None` at the end).
fn take_varint(bytes: &mut &[u8]) -> Option<u128> {
    let end = bytes.iter().position(|&b| b < 0x80)?;
    let (varint, rest) = bytes.split_at(end + 1);
    *bytes = rest;
    let groups = varint.iter().rev().map(|&b| u128::from(b & 0x7F));
    Some(groups.fold(0, |value, group| (value << 7) | group))
}

/// The varints of `bytes` from offset `at` on.
fn varints<B: AsRef<[u8]>>(bytes: B, mut at: usize) -> impl Iterator<Item = u128> {
    std::iter::from_fn(move || {
        let mut rest = bytes.as_ref().get(at..)?;
        let value = take_varint(&mut rest)?;
        at = bytes.as_ref().len() - rest.len();
        Some(value)
    })
}

/// The `(seq, published_at, recovered)` records of a [`DeliveryLog`]'s bytes.
fn decode_records<B: AsRef<[u8]>>(bytes: B) -> impl Iterator<Item = (u64, TimePoint, bool)> {
    let mut varints = varints(bytes, LOG_HEADER);
    let (mut seq, mut at) = (0u64, 0u64);
    std::iter::from_fn(move || {
        let key = varints.next()?;
        seq = seq.wrapping_add((key >> 1) as u64);
        at = at.wrapping_add(unzigzag(varints.next()?));
        Some((seq, TimePoint::from_nanos(at), key & 1 == 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::DetRng;

    fn d(seq: u64, sent_us: u64, recv_us: u64) -> Delivery {
        Delivery {
            seq,
            published_at: TimePoint::from_micros(sent_us),
            delivered_at: TimePoint::from_micros(recv_us),
            recovered: false,
        }
    }

    #[test]
    fn latency_is_delivery_minus_publish() {
        assert_eq!(d(0, 100, 350).latency(), Span::from_micros(250));
    }

    #[test]
    fn the_reception_log_returns_exactly_the_accepted_deliveries() {
        let mut rng = DetRng::seed_from_u64(30);
        for case in 0..64u64 {
            let mut log = DenseReceptionLog::with_capacity(case * 4);
            log.capture();
            let (mut want, mut duplicates) = (Vec::<Delivery>::new(), 0);
            let mut taken = Vec::new();
            let (mut seq, mut at) = (0u64, rng.next_u64());
            for step in 0..case * 8 {
                if step == case * 5 {
                    taken.extend(log.take_captured().expect("captured"));
                }
                let draw = rng.next_u64();
                // In order, reordered, duplicated, just past the bitset,
                // far ahead, or an extreme.
                seq = match draw % 7 {
                    0 | 1 => seq.wrapping_add(1),
                    2 => seq.wrapping_sub(draw >> 60),
                    3 => seq,
                    4 => seq.wrapping_add(draw >> 50),
                    5 => seq.wrapping_add(draw >> 20),
                    _ => [0, u64::MAX][(draw >> 8) as usize & 1],
                };
                // Forward, backwards, or to either extreme.
                at = match (draw >> 4) % 4 {
                    0 => at.wrapping_add(1_010_000),
                    1 => at.wrapping_sub(draw >> 40),
                    2 => [0, u64::MAX][(draw >> 9) as usize & 1],
                    _ => rng.next_u64(),
                };
                // After publication, before it, or anywhere.
                let delivered = match (draw >> 12) % 3 {
                    0 => at.wrapping_add(draw >> 42),
                    1 => at.wrapping_sub(draw >> 42),
                    _ => rng.next_u64(),
                };
                let delivery = Delivery {
                    seq,
                    published_at: TimePoint::from_nanos(at),
                    delivered_at: TimePoint::from_nanos(delivered),
                    recovered: draw >> 63 == 1,
                };
                let fresh = want.iter().all(|w| w.seq != seq);
                assert_eq!(log.record(delivery), fresh, "case {case}");
                if fresh {
                    want.push(delivery);
                } else {
                    duplicates += 1;
                }
            }
            // What a take handed over, then what the log captured since.
            let rest = log.deliveries().expect("still captures");
            let got: Vec<_> = taken.into_iter().chain(rest).collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(log.delivered_count(), want.len() as u64);
            let recovered = want.iter().filter(|w| w.recovered).count() as u64;
            assert_eq!(log.recovered_count(), recovered);
            assert_eq!(log.duplicate_count(), duplicates);
            for probe in want
                .iter()
                .flat_map(|w| [w.seq.wrapping_sub(1), w.seq, w.seq.wrapping_add(1)])
            {
                let delivered = want.iter().any(|w| w.seq == probe);
                assert_eq!(log.contains(probe), delivered, "case {case} seq {probe}");
            }
        }
    }

    #[test]
    fn a_far_ahead_seq_does_not_size_the_bitset() {
        let mut log = DenseReceptionLog::with_capacity(64);
        for seq in [u64::MAX, 1 << 40, 1 << 63] {
            assert!(log.record(d(seq, 0, 1)));
            assert!(!log.record(d(seq, 0, 2)));
            assert!(log.contains(seq));
            assert!(!log.contains(seq - 1));
        }
        assert!(log.seen.is_empty());
        assert_eq!((log.delivered_count(), log.duplicate_count()), (3, 3));
        // A sequence kept aside moves into the bitset once it grows past it.
        assert!(log.record(d(5_000, 0, 1)));
        for seq in 0..1_000 {
            assert!(log.record(d(seq, 0, 1)));
        }
        assert!(log.record(d(5_100, 0, 1)));
        assert!(!log.far.contains(&5_000));
        assert!(!log.record(d(5_000, 0, 2)));
        assert!(log.contains(5_000));
        assert_eq!(log.far.len(), 3);
    }

    #[test]
    fn a_log_that_does_not_capture_keeps_only_its_accumulator() {
        let mut log = DenseReceptionLog::with_capacity(10_000);
        // Nothing is allocated before the first delivery.
        assert_eq!((log.seen.capacity(), log.far.len()), (0, 0));
        assert!(log.qos() == &QosAccumulator::default() && log.deliveries().is_none());
        let mut captured = log.clone();
        captured.capture();
        for (seq, latency_us) in [(3, 40), (1, 2_000), (3, 9), (2, 650)] {
            let delivery = d(seq, 100 * seq, 100 * seq + latency_us);
            assert_eq!(log.record(delivery), captured.record(delivery));
        }
        assert!(log.deliveries().is_none() && log.take_captured().is_none());
        assert_eq!(log.seen.len(), 157);
        assert_eq!(log.qos(), captured.qos());
        let mut refolded = QosAccumulator::default();
        for d in captured.deliveries().expect("captured") {
            refolded.record(d.latency(), d.recovered);
        }
        assert_eq!(&refolded, log.qos());
        assert_eq!((log.delivered_count(), log.duplicate_count()), (3, 1));
    }

    #[test]
    fn dense_log_grows_past_capacity() {
        let mut dense = DenseReceptionLog::with_capacity(1);
        assert!(dense.record(d(1_000, 0, 1)));
        assert!(dense.contains(1_000));
        assert!(!dense.contains(999));
        assert!(!dense.record(d(1_000, 0, 2)));
    }

    #[test]
    fn a_nakcast_delivery_costs_under_ten_bytes() {
        let count = 10_000;
        let mut log = DenseReceptionLog::with_capacity(count);
        log.capture();
        let mut rng = DetRng::seed_from_u64(30);
        for seq in 0..count {
            let published = 3_000_000 + seq * 1_010_000;
            let latency = rng.range_inclusive(20_000, 3_000_000);
            log.record(Delivery {
                seq,
                published_at: TimePoint::from_nanos(published),
                delivered_at: TimePoint::from_nanos(published + latency),
                recovered: seq % 20 == 0,
            });
        }
        let (records, latencies) = log.capture.as_ref().unwrap();
        let bytes = records.bytes.len() - LOG_HEADER + latencies.len();
        assert!(bytes <= 10 * count as usize, "{bytes} B");
    }

    #[test]
    fn the_delivery_log_returns_exactly_what_was_pushed() {
        let mut rng = DetRng::seed_from_u64(29);
        for case in 0..64 {
            let mut log = DeliveryLog::default();
            let mut want = Vec::new();
            let (mut seq, mut at) = (rng.next_u64(), rng.next_u64());
            for _ in 0..case * 8 {
                let draw = rng.next_u64();
                // In order, reordered, duplicated, wrapped, or anywhere.
                seq = match draw % 6 {
                    0 | 1 => seq.wrapping_add(1),
                    2 => seq.wrapping_sub(draw >> 60),
                    3 => seq,
                    4 => [0, u64::MAX][(draw >> 8) as usize & 1],
                    _ => rng.next_u64(),
                };
                // Forward, backwards, or to either extreme.
                at = match (draw >> 4) % 4 {
                    0 => at.wrapping_add(10_240_000),
                    1 => at.wrapping_sub(draw >> 40),
                    2 => [0, u64::MAX][(draw >> 9) as usize & 1],
                    _ => rng.next_u64(),
                };
                let entry = (seq, TimePoint::from_nanos(at), draw >> 63 == 1);
                log.push(entry.0, entry.1, entry.2);
                want.push(entry);
            }
            assert_eq!(log.iter().collect::<Vec<_>>(), want, "case {case}");
            assert_eq!(log.len(), want.len());
            assert_eq!(log.is_empty(), want.is_empty());
            let recovered = want.iter().filter(|d| d.2).count() as u64;
            assert_eq!(log.recovered(), recovered);
        }
    }

    /// A log of `count` deliveries, `seq` + 1 and `published_at` + `period`
    /// each time.
    fn paced(count: u64, period: u64) -> DeliveryLog {
        let mut log = DeliveryLog::default();
        for seq in 0..count {
            log.push(seq, TimePoint::from_nanos(1_000_000 + seq * period), false);
        }
        log
    }

    #[test]
    fn a_paced_delivery_costs_about_five_bytes() {
        let log = paced(10_000, 10_240_000);
        assert!(log.bytes.len() <= 6 * 10_000, "{} B", log.bytes.len());
        // A fleet endpoint hears one sample a second for fourteen seconds.
        let log = paced(14, 1_000_000_000);
        assert!(log.bytes.capacity() <= 192, "{} B", log.bytes.capacity());
        assert_eq!(DeliveryLog::default().bytes.capacity(), 0);
        assert_eq!(std::mem::size_of::<DeliveryLog>(), 24);
    }
}
