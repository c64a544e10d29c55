//! Delivery records: a runtime endpoint's [`DeliveryLog`] of delta-varint
//! records, repeats folded into runs, and a simulated reader's
//! [`DenseReceptionLog`] — a duplicate filter and a [`QosAccumulator`],
//! plus a `DeliveryLog` and a latency column only under capture.

use adamant_proto::{Insert, Refusals, SeqWindow, Span, TimePoint};

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
/// [`QosReport`](crate::QosReport) needs.
///
/// Delivered sequence numbers are settled in a [`SeqWindow`], so `record`
/// and `contains` are O(1) and the log holds at most
/// [`SPAN`](adamant_proto::SPAN) bits whatever sequence numbers arrive. A
/// `seq` more than `SPAN` past the highest delivery is refused and counted
/// as a window overflow, unless a run of [`Refusals`] shows the stream
/// moved on: then the window slides to it. A receiver whose protocol vetted
/// a sequence calls [`make_room`](Self::make_room) first.
///
/// Only under [`capture`](Self::capture) is each delivery also kept, in
/// record order, as a [`DeliveryLog`] record plus a zigzag `delivered_at −
/// published_at` varint: ≈ 7 B for a NAKcast delivery, against 32.
#[derive(Debug, Clone, Default)]
pub struct DenseReceptionLog {
    qos: QosAccumulator,
    capture: Option<(DeliveryLog, Vec<u8>)>, // records, zigzag latency varints
    expected: u64,
    seen: SeqWindow,
    duplicates: u64,
    overflows: u64,
    refusals: Refusals,
}

impl DenseReceptionLog {
    /// Creates an empty log that reserves room for `expected` sequences
    /// (at most [`SPAN`](adamant_proto::SPAN)) at its first delivery.
    pub fn with_capacity(expected: u64) -> Self {
        DenseReceptionLog {
            expected,
            ..DenseReceptionLog::default()
        }
    }

    /// Keeps a record of every delivery from now on; call it before the first.
    pub fn capture(&mut self) {
        self.capture.get_or_insert_default();
    }

    /// Records a delivery unless its sequence number was delivered already
    /// ([`Insert::Seen`]) or lies too far ahead ([`Insert::Beyond`]); each
    /// refusal is counted.
    pub fn record(&mut self, delivery: Delivery) -> Insert {
        if self.seen.is_empty() {
            self.seen.reserve(self.expected);
        }
        let mut outcome = self.seen.insert(delivery.seq);
        if outcome != Insert::Beyond {
            self.refusals.clear();
        } else if self.refusals.refuse(delivery.seq).is_some() {
            self.seen.make_room(delivery.seq);
            outcome = self.seen.insert(delivery.seq);
        }
        let refusals = match outcome {
            Insert::Fresh => None,
            Insert::Seen => Some(&mut self.duplicates),
            Insert::Beyond => Some(&mut self.overflows),
        };
        if let Some(count) = refusals {
            *count += 1;
            return outcome;
        }
        self.qos.record(delivery.latency(), delivery.recovered);
        if let Some((log, latencies)) = &mut self.capture {
            log.push(delivery.seq, delivery.published_at, delivery.recovered);
            let published = delivery.published_at.as_nanos();
            let latency = delivery.delivered_at.as_nanos().wrapping_sub(published);
            put_varint(latencies, zigzag(latency));
        }
        outcome
    }

    /// The window of delivered sequence numbers: whether a `seq` was
    /// delivered (or lies below the window) is `window().contains(seq)`.
    pub fn window(&self) -> &SeqWindow {
        &self.seen
    }

    /// Counts every sequence below `floor` as settled: a reader joining a
    /// stream at `floor` starts its window there.
    pub fn start_at(&mut self, floor: u64) {
        self.seen.advance_to(floor);
    }

    /// Slides the window so that `seq`, which the receiver's protocol has
    /// vetted, is not refused as too far ahead ([`SeqWindow::make_room`]).
    pub fn make_room(&mut self, seq: u64) {
        self.seen.make_room(seq);
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

    /// Number of deliveries refused as too far ahead of the window.
    pub fn overflow_count(&self) -> u64 {
        self.overflows
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

/// A run record's second varint: bit 64, which no zigzag delta sets, plus
/// the repeat count. With the zero varint before it, a run takes 11 bytes.
const RUN: u128 = 1 << 64;

/// An endpoint's deliveries, `(seq, published_at, recovered)` in push
/// order, kept losslessly in one byte buffer: a header (count, recovered
/// count, last `seq`, last `published_at`), then two LEB128 varints per
/// record — the wrapping `seq` delta shifted left one bit with the
/// recovered flag in the low bit (a `u128`, so any `u64` delta
/// round-trips), and the zigzag-encoded `published_at` delta. A delivery
/// whose varints repeat the previous record's is folded into a run record,
/// `0` then `RUN` + the repeat count, rewritten in place as the run grows:
/// a paced stretch (`seq` + 1, one period later) costs one record and 11 B
/// however long it is, not ≈ 5 B per delivery; a record that repeats
/// nothing costs what it always did; an empty log allocates nothing.
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
        let mut record = (key, zigzag(at.wrapping_sub(self.field(3))));
        let recovered_count = self.recovered() + u64::from(recovered);
        let header = [self.field(0) + 1, recovered_count, seq, at];
        // A repeat of the last record rewrites the run after it, or starts one.
        if let Some((_, run)) = self.last_record().filter(|&(last, _)| last == record) {
            let len = self.bytes.len() - 11 * usize::from(run > 0);
            self.bytes.truncate(len);
            record = (0, RUN + u128::from(run + 1));
        }
        if self.bytes.is_empty() {
            self.bytes.resize(LOG_HEADER, 0);
        }
        self.bytes[..LOG_HEADER].copy_from_slice(header.map(u64::to_le_bytes).as_flattened());
        put_varint(&mut self.bytes, record.0);
        put_varint(&mut self.bytes, record.1);
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

    /// The last plain record's varints and how many times a run after it
    /// repeats them (`None` on an empty log). Only a varint's last byte is
    /// below 0x80, so the records split into varints from either end.
    fn last_record(&self) -> Option<((u128, u128), u64)> {
        let records = self.bytes.get(LOG_HEADER..)?;
        let mut back = records.split_inclusive(|&b| b < 0x80).rev().map(varint);
        let (mut second, mut first, mut repeats) = (back.next()?, back.next()?, 0);
        if second >= RUN {
            (repeats, second, first) = (second as u64, back.next()?, back.next()?);
        }
        Some(((first, second), repeats))
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

/// The value of one whole varint.
fn varint(bytes: &[u8]) -> u128 {
    let groups = bytes.iter().rev().map(|&b| u128::from(b & 0x7F));
    groups.fold(0, |value, group| (value << 7) | group)
}

/// The varints of `bytes` from offset `at` on.
fn varints<B: AsRef<[u8]>>(bytes: B, mut at: usize) -> impl Iterator<Item = u128> {
    std::iter::from_fn(move || {
        let bytes = bytes.as_ref().get(at..)?;
        let len = bytes.iter().position(|&b| b < 0x80)? + 1;
        at += len;
        Some(varint(&bytes[..len]))
    })
}

/// The `(seq, published_at, recovered)` records of a [`DeliveryLog`]'s bytes.
fn decode_records<B: AsRef<[u8]>>(bytes: B) -> impl Iterator<Item = (u64, TimePoint, bool)> {
    let mut varints = varints(bytes, LOG_HEADER);
    let (mut seq, mut at, mut record, mut repeats) = (0u64, 0u64, (0, 0), 0);
    std::iter::from_fn(move || {
        if repeats == 0 {
            let next = (varints.next()?, varints.next()?);
            record = if next.1 < RUN { next } else { record };
            repeats = if next.1 < RUN { 1 } else { next.1 as u64 };
        }
        repeats -= 1;
        let (key, at_delta) = record;
        seq = seq.wrapping_add((key >> 1) as u64);
        at = at.wrapping_add(unzigzag(at_delta));
        Some((seq, TimePoint::from_nanos(at), key & 1 == 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::{DetRng, SPAN};

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
            let (mut want, mut duplicates, mut overflows) = (Vec::<Delivery>::new(), 0, 0);
            let mut taken = Vec::new();
            let (mut seq, mut at) = (0u64, rng.next_u64());
            for step in 0..case * 8 {
                if step == case * 5 {
                    taken.extend(log.take_captured().expect("captured"));
                }
                let draw = rng.next_u64();
                // In order, reordered, duplicated, just past the window's
                // span, far ahead, or an extreme.
                seq = match draw % 7 {
                    0 | 1 => seq.wrapping_add(1),
                    2 => seq.wrapping_sub(draw >> 60),
                    3 => seq,
                    4 => seq.wrapping_add(SPAN - 8 + (draw >> 60)),
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
                let settled = log.window().contains(seq);
                match log.record(delivery) {
                    Insert::Fresh => {
                        assert!(want.iter().all(|w| w.seq != seq), "case {case}");
                        want.push(delivery);
                    }
                    Insert::Seen => {
                        assert!(settled, "case {case}");
                        duplicates += 1;
                    }
                    Insert::Beyond => overflows += 1,
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
            assert_eq!(log.overflow_count(), overflows);
            assert!(
                want.iter().all(|w| log.window().contains(w.seq)),
                "case {case}"
            );
        }
    }

    #[test]
    fn a_capture_of_paced_deliveries_keeps_each_latency() {
        // Paced publication in stretches, broken by a recovered sample and a
        // period change: the records repeat while every latency differs.
        let mut log = DenseReceptionLog::with_capacity(3_000);
        log.capture();
        let (mut want, mut taken) = (Vec::new(), Vec::new());
        let mut rng = DetRng::seed_from_u64(31);
        let mut at = 1_000_000u64;
        for seq in 0..3_000u64 {
            if seq == 1_234 {
                taken.extend(log.take_captured().expect("captured"));
            }
            at += if seq < 2_000 { 10_000_000 } else { 1_000_000 };
            let delivery = Delivery {
                seq,
                published_at: TimePoint::from_nanos(at),
                delivered_at: TimePoint::from_nanos(at + rng.range_inclusive(20_000, 90_000)),
                recovered: seq % 700 == 699,
            };
            assert!(log.record(delivery).is_fresh());
            want.push(delivery);
        }
        let got: Vec<_> = taken
            .into_iter()
            .chain(log.deliveries().expect("captures"))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_far_ahead_seq_does_not_size_the_bitset() {
        let mut log = DenseReceptionLog::with_capacity(64);
        for seq in 0..10 {
            assert!(log.record(d(seq, 0, 1)).is_fresh());
        }
        // More than `SPAN` past the highest delivery: refused and counted,
        // the window untouched.
        for seq in [u64::MAX, 1 << 40, 1 << 63, 10 + SPAN] {
            assert_eq!(log.record(d(seq, 0, 1)), Insert::Beyond);
            assert!(!log.window().contains(seq));
        }
        assert_eq!(log.window().word_count(), 1);
        let counts = (log.delivered_count(), log.duplicate_count());
        assert_eq!((counts, log.overflow_count()), ((10, 0), 4));
        // The farthest `seq` it takes slides the window, which stays bounded.
        assert!(log.record(d(9 + SPAN, 0, 1)).is_fresh());
        assert_eq!(log.window().base(), 10);
        assert!(log.window().word_count() as u64 <= SPAN / 64 + 1);
        assert_eq!(log.record(d(5, 0, 2)), Insert::Seen);
    }

    #[test]
    fn a_log_that_does_not_capture_keeps_only_its_accumulator() {
        let mut log = DenseReceptionLog::with_capacity(10_000);
        assert!(log.qos() == &QosAccumulator::default() && log.deliveries().is_none());
        let mut captured = log.clone();
        captured.capture();
        for (seq, latency_us) in [(3, 40), (1, 2_000), (3, 9), (2, 650)] {
            let delivery = d(seq, 100 * seq, 100 * seq + latency_us);
            assert_eq!(log.record(delivery), captured.record(delivery));
        }
        assert!(log.deliveries().is_none() && log.take_captured().is_none());
        assert_eq!(log.window().word_count(), 1);
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
        assert!(dense.record(d(1_000, 0, 1)).is_fresh());
        assert!(dense.window().contains(1_000));
        assert!(!dense.window().contains(999));
        assert_eq!(dense.record(d(1_000, 0, 2)), Insert::Seen);
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

    /// Pushes `want` into a fresh log and checks that it gives back exactly
    /// that; returns the log.
    fn round_trip(want: &[(u64, TimePoint, bool)]) -> DeliveryLog {
        let mut log = DeliveryLog::default();
        for &(seq, at, recovered) in want {
            log.push(seq, at, recovered);
        }
        assert_eq!(log.iter().collect::<Vec<_>>(), want);
        assert_eq!(log.len(), want.len());
        assert_eq!(log.is_empty(), want.is_empty());
        let recovered = want.iter().filter(|d| d.2).count() as u64;
        assert_eq!(log.recovered(), recovered);
        log
    }

    #[test]
    fn the_delivery_log_returns_exactly_what_was_pushed() {
        // Runs from the second record (which repeats the first's deltas
        // from zero), runs broken by the recovered flag, and an empty log.
        let at = TimePoint::from_nanos;
        round_trip(&[
            (7, at(500), false),
            (14, at(1_000), false),
            (21, at(1_500), false),
        ]);
        round_trip(&[(0, at(0), true), (0, at(0), true)]);
        round_trip(&[(0, at(0), false), (0, at(0), false), (0, at(0), true)]);
        round_trip(&[]);
        let mut rng = DetRng::seed_from_u64(29);
        for case in 0..64 {
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
                want.push((seq, TimePoint::from_nanos(at), draw >> 63 == 1));
            }
            round_trip(&want);
        }
        // Run-heavy draws: steps held for long stretches, then changed one
        // part at a time, starting either anywhere or just short of both
        // wraps.
        for case in 0..64u64 {
            let mut want = Vec::new();
            let (mut seq, mut at) = match case % 2 {
                0 => (rng.next_u64(), rng.next_u64()),
                _ => (u64::MAX - case, u64::MAX - case * 10_000_000),
            };
            let (mut seq_step, mut at_step, mut recovered) = (1, 10_000_000, false);
            for _ in 0..case * 40 {
                let draw = rng.next_u64();
                match draw % 32 {
                    // A run broken only by the recovered flag, once or for good.
                    0 => recovered = !recovered,
                    1 => want.push((seq, TimePoint::from_nanos(at), !recovered)),
                    // Runs of `seq` delta 0, of another delta, of another period.
                    2 => seq_step = 0,
                    3 => seq_step = [1, 2, u64::MAX, draw >> 32][(draw >> 5) as usize % 4],
                    4 => at_step = [0, 1, u64::MAX, draw >> 24][(draw >> 5) as usize % 4],
                    _ => {}
                }
                seq = seq.wrapping_add(seq_step);
                at = at.wrapping_add(at_step);
                want.push((seq, TimePoint::from_nanos(at), recovered));
            }
            round_trip(&want);
        }
    }

    #[test]
    fn a_record_that_repeats_nothing_encodes_as_before() {
        // A NAKcast reader's log: publication times stamped with jitter, and
        // one loss recovered out of order. No record repeats its
        // predecessor's deltas, so these bytes are the plain two-varint
        // records, whatever runs the log would fold.
        let log = round_trip(&[
            (0, TimePoint::from_nanos(3_000_112), false),
            (1, TimePoint::from_nanos(4_010_457), false),
            (3, TimePoint::from_nanos(6_031_020), false),
            (2, TimePoint::from_nanos(5_020_733), true),
            (4, TimePoint::from_nanos(7_041_009), false),
            (5, TimePoint::from_nanos(8_050_871), false),
        ]);
        #[rustfmt::skip]
        let want = [
            6, 0, 0, 0, 0, 0, 0, 0, // count
            1, 0, 0, 0, 0, 0, 0, 0, // recovered count
            5, 0, 0, 0, 0, 0, 0, 0, // last seq
            183, 216, 122, 0, 0, 0, 0, 0, // last published_at
            0, 224, 156, 238, 2, // seq 0
            2, 210, 170, 123, // seq 1
            4, 166, 211, 246, 1, // seq 3
            255, 255, 255, 255, 255, 255, 255, 255, 255, 3, 221, 169, 123, // seq 2, recovered
            4, 232, 206, 246, 1, // seq 4
            2, 140, 163, 123, // seq 5
        ];
        assert_eq!(log.bytes, want);
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
    fn a_paced_stream_costs_the_same_few_bytes_however_long_it_runs() {
        // The first two records, then one run rewritten in place.
        let log = paced(1_000_000, 10_240_000);
        assert_eq!(log.len(), 1_000_000);
        assert!(log.bytes.capacity() <= 64, "{} B", log.bytes.capacity());
        assert_eq!(
            log.iter().nth(999_999),
            Some((
                999_999,
                TimePoint::from_nanos(1_000_000 + 999_999 * 10_240_000),
                false
            ))
        );
        // A fleet endpoint hears one sample a second for fourteen seconds.
        let log = paced(14, 1_000_000_000);
        assert!(log.bytes.capacity() <= 64, "{} B", log.bytes.capacity());
        assert_eq!(DeliveryLog::default().bytes.capacity(), 0);
        assert_eq!(std::mem::size_of::<DeliveryLog>(), 24);
    }
}
