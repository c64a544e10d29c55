//! Delivery records, the raw material of every QoS metric: a runtime
//! endpoint's [`DeliveryLog`] of delta-varint records, and a simulated
//! reader's [`DenseReceptionLog`], which is a `DeliveryLog` plus a latency
//! column.

use std::collections::BTreeSet;

use adamant_netsim::{SimDuration, SimTime};

/// One sample delivered to one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The publisher-assigned sample sequence number.
    pub seq: u64,
    /// When the publisher handed the sample to the middleware.
    pub published_at: SimTime,
    /// When the receiver's application saw the sample.
    pub delivered_at: SimTime,
    /// Whether the sample was recovered by the transport's error-correction
    /// machinery (NAK retransmission, lateral repair) rather than arriving
    /// on the first attempt.
    pub recovered: bool,
}

impl Delivery {
    /// End-to-end latency of this delivery.
    pub fn latency(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.published_at)
    }
}

/// Everything one receiver observed during a run.
///
/// Transports append to this as they deliver samples to the application;
/// the metrics layer consumes it afterwards. A second copy of a delivered
/// sequence number is refused and counted as a duplicate.
///
/// Delivered sequence numbers are tracked in a bitset, so `record` and
/// `contains` are O(1). The bitset covers at most `max(capacity,
/// 2 × delivered_count + 4 096)` sequences; a farther `seq` is kept in a
/// sorted side set, so memory stays O(capacity + deliveries) whatever
/// sequence numbers arrive.
///
/// The deliveries are kept losslessly, in record order, as three LEB128
/// varints each: a [`DeliveryLog`] record (the wrapping `seq` delta shifted
/// left one bit over the recovered flag, then the zigzag `published_at`
/// delta), and the zigzag `delivered_at − published_at` in a column beside
/// it. The count and recovered count sit in the `DeliveryLog`'s header, so
/// both are O(1). A NAKcast delivery (`seq` + 1, published ≈ 1 ms after the
/// last, 20 µs–3 ms latency) costs ≈ 7 B against 32 for a [`Delivery`];
/// `with_capacity` reserves 8 B per expected sample (5 for the record, 3
/// for the latency), so a run's records rarely regrow.
#[derive(Debug, Clone, Default)]
pub struct DenseReceptionLog {
    log: DeliveryLog,
    latencies: Vec<u8>, // zigzag `delivered_at − published_at`, one varint each
    seen: Vec<u64>,     // bitset, one bit per sequence number
    far: BTreeSet<u64>, // delivered sequences beyond the bitset
    duplicates: u64,
    seen_max: Option<u64>,
}

impl DenseReceptionLog {
    /// Creates an empty log sized for sequences `0..capacity`.
    pub fn with_capacity(capacity: u64) -> Self {
        let capacity = capacity as usize;
        let bytes = Vec::with_capacity(LOG_HEADER + capacity.saturating_mul(5));
        DenseReceptionLog {
            log: DeliveryLog { bytes },
            latencies: Vec::with_capacity(capacity.saturating_mul(3)),
            seen: vec![0u64; capacity.div_ceil(64)],
            ..DenseReceptionLog::default()
        }
    }

    fn test_and_set(&mut self, seq: u64) -> bool {
        let word = seq / 64;
        if word >= self.seen.len() as u64 {
            if word >= (2 * self.log.len() as u64 + 4_096) / 64 {
                // Far past what the log holds: one hostile `seq` must not
                // size the bitset.
                return !self.far.insert(seq);
            }
            self.seen.resize(word as usize + 1, 0);
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
        self.seen_max = Some(self.seen_max.map_or(delivery.seq, |m| m.max(delivery.seq)));
        self.log
            .push(delivery.seq, delivery.published_at, delivery.recovered);
        let published = delivery.published_at.as_nanos();
        let latency = delivery.delivered_at.as_nanos().wrapping_sub(published);
        put_varint(&mut self.latencies, zigzag(latency));
        true
    }

    /// Whether `seq` has been delivered.
    pub fn contains(&self, seq: u64) -> bool {
        match self.seen.get((seq / 64) as usize) {
            Some(word) => word & (1 << (seq % 64)) != 0,
            None => self.far.contains(&seq),
        }
    }

    /// Every recorded (unique) delivery, by value, in record order, decoded
    /// from its three varints (≈ 7 B for a NAKcast delivery) exactly as it
    /// was recorded.
    pub fn deliveries(&self) -> impl Iterator<Item = Delivery> + '_ {
        let mut latencies = self.latencies.as_slice();
        let latencies = std::iter::from_fn(move || take_varint(&mut latencies));
        let records = self.log.iter().zip(latencies);
        records.map(|((seq, published_at, recovered), latency)| {
            let delivered = published_at.as_nanos().wrapping_add(unzigzag(latency));
            Delivery {
                seq,
                published_at,
                delivered_at: SimTime::from_nanos(delivered),
                recovered,
            }
        })
    }

    /// Number of unique samples delivered.
    pub fn delivered_count(&self) -> u64 {
        self.log.len() as u64
    }

    /// Number of duplicate deliveries suppressed.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Number of deliveries that came through error recovery.
    pub fn recovered_count(&self) -> u64 {
        self.log.recovered()
    }

    /// The highest sequence number seen, if any sample arrived.
    pub fn max_seq(&self) -> Option<u64> {
        self.seen_max
    }
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
/// SimTime, bool)`; an empty log allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    bytes: Vec<u8>,
}

impl DeliveryLog {
    /// Appends one delivery.
    #[inline]
    pub fn push(&mut self, seq: u64, published_at: SimTime, recovered: bool) {
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
    pub fn iter(&self) -> impl Iterator<Item = (u64, SimTime, bool)> + '_ {
        let mut records = self.bytes.get(LOG_HEADER..).unwrap_or_default();
        let (mut seq, mut at) = (0u64, 0u64);
        std::iter::from_fn(move || {
            let key = take_varint(&mut records)?;
            seq = seq.wrapping_add((key >> 1) as u64);
            at = at.wrapping_add(unzigzag(take_varint(&mut records)?));
            Some((seq, SimTime::from_nanos(at), key & 1 == 1))
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_netsim::SimRng;

    fn d(seq: u64, sent_us: u64, recv_us: u64) -> Delivery {
        Delivery {
            seq,
            published_at: SimTime::from_micros(sent_us),
            delivered_at: SimTime::from_micros(recv_us),
            recovered: false,
        }
    }

    #[test]
    fn latency_is_delivery_minus_publish() {
        assert_eq!(d(0, 100, 350).latency(), SimDuration::from_micros(250));
    }

    #[test]
    fn the_reception_log_returns_exactly_the_accepted_deliveries() {
        let mut rng = SimRng::seed_from_u64(30);
        for case in 0..64u64 {
            let mut log = DenseReceptionLog::with_capacity(case * 4);
            let (mut want, mut duplicates) = (Vec::<Delivery>::new(), 0);
            let (mut seq, mut at) = (0u64, rng.next_u64());
            for _ in 0..case * 8 {
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
                    published_at: SimTime::from_nanos(at),
                    delivered_at: SimTime::from_nanos(delivered),
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
            assert_eq!(log.deliveries().collect::<Vec<_>>(), want, "case {case}");
            assert_eq!(log.delivered_count(), want.len() as u64);
            let recovered = want.iter().filter(|w| w.recovered).count() as u64;
            assert_eq!(log.recovered_count(), recovered);
            assert_eq!(log.duplicate_count(), duplicates);
            assert_eq!(log.max_seq(), want.iter().map(|w| w.seq).max());
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
        assert_eq!(log.seen.len(), 1);
        assert_eq!((log.delivered_count(), log.duplicate_count()), (3, 3));
        assert_eq!(log.max_seq(), Some(u64::MAX));
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
        let record_bytes = |log: &DenseReceptionLog, size: fn(&Vec<u8>) -> usize| {
            size(&log.log.bytes) - LOG_HEADER + size(&log.latencies)
        };
        assert!(record_bytes(&log, Vec::capacity) <= 8 * count as usize);
        let mut rng = SimRng::seed_from_u64(30);
        for seq in 0..count {
            let published = 3_000_000 + seq * 1_010_000;
            let latency = rng.range_inclusive(20_000, 3_000_000);
            log.record(Delivery {
                seq,
                published_at: SimTime::from_nanos(published),
                delivered_at: SimTime::from_nanos(published + latency),
                recovered: seq % 20 == 0,
            });
        }
        let bytes = record_bytes(&log, Vec::len);
        assert!(bytes <= 10 * count as usize, "{bytes} B");
    }

    #[test]
    fn the_delivery_log_returns_exactly_what_was_pushed() {
        let mut rng = SimRng::seed_from_u64(29);
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
                let entry = (seq, SimTime::from_nanos(at), draw >> 63 == 1);
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
            log.push(seq, SimTime::from_nanos(1_000_000 + seq * period), false);
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
