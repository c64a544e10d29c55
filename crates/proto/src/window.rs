//! [`SeqWindow`]: the one bounded answer to "have I settled `seq`?" — a
//! low watermark below which every sequence counts as settled, and a ring
//! of bits over the [`SPAN`] sequences above it.

use std::collections::VecDeque;
use std::ops::Range;

/// How many sequences a [`SeqWindow`] tracks above its watermark, and how
/// far past the highest sequence it knows a receiver lets a stream jump in
/// one frame; a farther frame is refused as [`Insert::Beyond`].
pub const SPAN: u64 = 1 << 17;

/// How many frames in a row, each refused as beyond the window and all
/// within [`SPAN`] of each other, make a receiver follow the jump.
pub const RESYNC_AFTER: u32 = 3;

/// What [`SeqWindow::insert`] made of a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// Newly settled. Unsettled sequences the watermark slid past to make
    /// room count as settled from now on, and in
    /// [`given_up`](SeqWindow::given_up).
    Fresh,
    /// Already settled: inserted before, or below the watermark.
    Seen,
    /// More than [`SPAN`] past the highest sequence the window settled:
    /// refused, and the window is unchanged.
    Beyond,
}

impl Insert {
    /// Whether the sequence was newly settled.
    pub fn is_fresh(self) -> bool {
        self == Insert::Fresh
    }
}

/// Whether `seq` lies more than [`SPAN`] past `high`, the highest sequence
/// a receiver has heard of; with `None` the stream is heard from 0, so
/// anything from `SPAN` on is too far. An O(1) guard to run before walking
/// the gap up to `seq`.
pub fn beyond(high: Option<u64>, seq: u64) -> bool {
    seq > high.map_or(SPAN - 1, |high| high.saturating_add(SPAN))
}

/// The frames a receiver refused in a row as [`beyond`] its window.
///
/// One hostile frame is refused and forgotten. A stream that really moved
/// on — a partition outlasted [`SPAN`] sequences — keeps sending frames
/// that agree with each other, and after [`RESYNC_AFTER`] of them in a row
/// the receiver follows it instead of staying deaf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Refusals {
    low: u64,
    count: u32,
}

impl Refusals {
    /// Notes a refused `seq`. Once [`RESYNC_AFTER`] refusals in a row lie
    /// within [`SPAN`] of the lowest of them, returns that lowest — where the
    /// stream resumed — and starts over.
    pub fn refuse(&mut self, seq: u64) -> Option<u64> {
        if self.count == 0 || seq.abs_diff(self.low) > SPAN {
            *self = Refusals { low: seq, count: 0 };
        }
        self.low = self.low.min(seq);
        self.count += 1;
        if self.count < RESYNC_AFTER {
            return None;
        }
        let low = self.low;
        self.clear();
        Some(low)
    }

    /// Ends the run: a frame inside the window arrived.
    pub fn clear(&mut self) {
        *self = Refusals::default();
    }
}

/// A set of sequence numbers that stays O([`SPAN`]) in memory and work,
/// whatever numbers arrive.
///
/// Everything below the watermark [`base`](Self::base) is settled; a ring
/// of bits, grown on demand, holds the rest up to the highest insert. The
/// watermark advances over fully settled leading words, and an insert
/// `SPAN` or more above it slides it forward, handing back how many
/// unsettled sequences it passed. An empty window instead positions itself
/// at its first insert. [`len`](Self::len) counts inserts exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqWindow {
    base: u64,
    high: Option<u64>,
    len: u64,
    given_up: u64,
    /// Bit `seq % 64` of word `seq / 64 - base / 64`, up to the highest
    /// insert; the bits below `base` in the first word are set.
    words: VecDeque<u64>,
}

impl SeqWindow {
    /// Reserves room for `seqs` sequences above the watermark (at most
    /// [`SPAN`]).
    pub fn reserve(&mut self, seqs: u64) {
        self.words.reserve(seqs.min(SPAN).div_ceil(64) as usize);
    }

    /// The watermark: every sequence below it is settled.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Sequences inserted (settled by an insert, not by the watermark).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unsettled sequences the watermark has passed, in all.
    pub fn given_up(&self) -> u64 {
        self.given_up
    }

    /// Words the ring holds: at most `SPAN / 64 + 1`.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Whether `seq` is settled.
    pub fn contains(&self, seq: u64) -> bool {
        let bit = |index: u64| {
            self.words
                .get(index as usize)
                .map_or(0, |w| w >> (seq % 64))
        };
        seq < self.base || bit(seq / 64 - self.base / 64) & 1 == 1
    }

    /// The unsettled sequences of `range`, ascending.
    pub fn unsettled(&self, range: Range<u64>) -> impl Iterator<Item = u64> + '_ {
        range.filter(|&seq| !self.contains(seq))
    }

    /// Whether an insert of `seq` would be refused as [`Insert::Beyond`].
    fn is_beyond(&self, seq: u64) -> bool {
        let top = self.high.map(|high| high.max(self.base.saturating_sub(1)));
        top.is_some_and(|top| beyond(Some(top), seq))
    }

    /// Slides the watermark just far enough that an insert of `seq` is not
    /// [`Insert::Beyond`]; returns how many unsettled sequences it passed.
    /// For a receiver whose protocol already vetted `seq`.
    pub fn make_room(&mut self, seq: u64) -> u64 {
        if self.is_beyond(seq) {
            self.advance_to(seq - (SPAN - 1))
        } else {
            0
        }
    }

    /// The watermark an insert of `seq` would leave.
    pub fn base_after(&self, seq: u64) -> u64 {
        match seq.checked_sub(SPAN - 1) {
            Some(_) if self.is_empty() && seq >= self.base.saturating_add(SPAN) => seq,
            Some(floor) => floor.max(self.base),
            None => self.base,
        }
    }

    /// Settles `seq`. See [`Insert`] for the outcomes.
    pub fn insert(&mut self, seq: u64) -> Insert {
        if self.contains(seq) {
            return Insert::Seen;
        }
        if self.is_beyond(seq) {
            return Insert::Beyond;
        }
        self.advance_to(self.base_after(seq));
        let index = (seq / 64 - self.base / 64) as usize;
        self.words.resize(self.words.len().max(index + 1), 0);
        self.words[0] |= low_bits(self.base);
        self.words[index] |= 1 << (seq % 64);
        self.len += 1;
        self.high = Some(self.high.map_or(seq, |high| high.max(seq)));
        self.trim();
        Insert::Fresh
    }

    /// Raises the watermark to `floor`, settling everything below it;
    /// returns how many of the sequences it passed were unsettled.
    pub fn advance_to(&mut self, floor: u64) -> u64 {
        if floor <= self.base {
            return 0;
        }
        // The first word's bits below `base` are set, but not by inserts.
        let forced = self.words.front().map_or(0, |_| self.base % 64);
        let whole = ((floor / 64 - self.base / 64) as usize).min(self.words.len());
        let ones = |word: u64| u64::from(word.count_ones());
        let mut settled: u64 = self.words.drain(..whole).map(ones).sum();
        if let Some(word) = self.words.front_mut() {
            settled += ones(*word & low_bits(floor));
            *word |= low_bits(floor);
        }
        let passed = floor - self.base - (settled - forced);
        self.given_up += passed;
        self.base = floor;
        self.trim();
        passed
    }

    /// Advances the watermark over fully settled leading words (never past
    /// the word of `u64::MAX`).
    fn trim(&mut self) {
        while self.base / 64 < u64::MAX / 64 && self.words.front() == Some(&u64::MAX) {
            self.words.pop_front();
            self.base = (self.base / 64 + 1) * 64;
        }
    }
}

/// The bits of `seq`'s word below `seq`.
fn low_bits(seq: u64) -> u64 {
    (1 << (seq % 64)) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use std::collections::BTreeSet;

    /// The reference a window is checked against: the inserted set and the
    /// watermark the rules alone predict (the window's own may be higher,
    /// over fully inserted words).
    #[derive(Default)]
    struct Model {
        inserted: BTreeSet<u64>,
        base: u64,
        high: Option<u64>,
        given_up: u64,
    }

    impl Model {
        fn settled(&self, seq: u64) -> bool {
            seq < self.base || self.inserted.contains(&seq)
        }

        fn advance_to(&mut self, floor: u64) -> u64 {
            if floor <= self.base {
                return 0;
            }
            let inserted = self.inserted.range(self.base..floor).count() as u64;
            let passed = floor - self.base - inserted;
            (self.base, self.given_up) = (floor, self.given_up + passed);
            passed
        }

        fn insert(&mut self, seq: u64) -> Insert {
            if self.settled(seq) {
                return Insert::Seen;
            }
            let top = self.high.map(|high| high.max(self.base.saturating_sub(1)));
            if top.is_some_and(|top| seq > top.saturating_add(SPAN)) {
                return Insert::Beyond;
            }
            let floor = match seq.checked_sub(SPAN - 1) {
                Some(_) if self.inserted.is_empty() && seq - self.base >= SPAN => seq,
                Some(floor) => floor,
                None => 0,
            };
            self.advance_to(floor);
            self.inserted.insert(seq);
            self.high = Some(self.high.map_or(seq, |high| high.max(seq)));
            Insert::Fresh
        }

        fn make_room(&mut self, seq: u64) -> u64 {
            let top = self.high.map(|high| high.max(self.base.saturating_sub(1)));
            match top {
                Some(top) if seq > top.saturating_add(SPAN) => self.advance_to(seq - SPAN + 1),
                _ => 0,
            }
        }
    }

    #[test]
    fn a_window_answers_like_a_set_with_a_watermark() {
        let mut rng = DetRng::seed_from_u64(37);
        for case in 0..200u64 {
            let (mut window, mut model) = (SeqWindow::default(), Model::default());
            window.reserve(case * 64);
            // Start at 0, mid-range, or just short of the top.
            let mut seq = [0, rng.next_u64() >> 20, u64::MAX - 300][case as usize % 3];
            for _ in 0..400 {
                let draw = rng.next_u64();
                seq = match draw % 13 {
                    0..=3 => seq.wrapping_add(1 + (draw >> 60)),
                    4 => seq.wrapping_sub(draw >> 58),
                    5 => seq.wrapping_add(SPAN - 64 + (draw >> 57)),
                    6 => seq.wrapping_add(draw >> 40),
                    7 => [0, 1 << 40, u64::MAX, u64::MAX - 1][(draw >> 8) as usize % 4],
                    8 => {
                        // A slide by hand, somewhere around the watermark.
                        let floor = model.base.saturating_add(draw >> 54);
                        let before = window.base();
                        assert_eq!(window.advance_to(floor), model.advance_to(floor));
                        assert!(window.base() >= before.max(floor), "case {case}");
                        seq
                    }
                    9 => {
                        // A vetted jump: room is made for it, then it lands.
                        let far = seq.saturating_add(SPAN + (draw >> 44));
                        let before = window.base();
                        assert_eq!(window.make_room(far), model.make_room(far));
                        assert!(!window.is_beyond(far) && window.base() >= before);
                        far
                    }
                    _ => seq,
                };
                let before = window.clone();
                let got = window.insert(seq);
                assert_eq!(got, model.insert(seq), "case {case} seq {seq}");
                if got == Insert::Beyond {
                    assert_eq!(window, before, "case {case}: Beyond changed the window");
                }
                assert!(
                    window.base() >= before.base(),
                    "case {case}: watermark fell"
                );
                assert!(window.base() >= model.base, "case {case}");
                // The watermark passed only inserted sequences beyond the model's.
                let between = model.inserted.range(model.base..window.base()).count() as u64;
                assert_eq!(between, window.base() - model.base, "case {case}");
                assert_eq!(window.len(), model.inserted.len());
                assert_eq!(window.given_up(), model.given_up);
                assert!(window.word_count() as u64 <= SPAN / 64 + 1);
                for probe in [seq.wrapping_sub(1), seq, seq.wrapping_add(1), model.base] {
                    assert_eq!(window.contains(probe), model.settled(probe), "case {case}");
                }
                let near = model.base.saturating_sub(70)..model.base.saturating_add(200);
                let unsettled: Vec<u64> = window.unsettled(near.clone()).collect();
                let want: Vec<u64> = near.filter(|&s| !model.settled(s)).collect();
                assert_eq!(unsettled, want, "case {case}");
            }
        }
    }

    #[test]
    fn an_empty_window_positions_at_its_first_insert() {
        let mut window = SeqWindow::default();
        assert_eq!(window.insert(1 << 40), Insert::Fresh);
        assert_eq!((window.base(), window.word_count()), (1 << 40, 1));
        assert_eq!(window.given_up(), 1 << 40);
        assert_eq!(window.insert((1 << 40) - 1), Insert::Seen);
        assert_eq!(window.insert(u64::MAX), Insert::Beyond);
        assert_eq!(window.insert((1 << 40) + SPAN), Insert::Fresh);
        assert_eq!(window.given_up(), 1 << 40);
        let mut top = SeqWindow::default();
        assert!(top.insert(u64::MAX - 1).is_fresh() && top.insert(u64::MAX).is_fresh());
        assert_eq!(top.insert(u64::MAX), Insert::Seen);
        assert!(top.contains(u64::MAX - 2) && !top.is_empty());
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn a_stream_with_holes_keeps_its_ring_bounded() {
        let mut window = SeqWindow::default();
        for seq in (0..10 * SPAN).filter(|seq| seq % 1_000 != 7) {
            assert_eq!(window.insert(seq), Insert::Fresh, "{seq}");
            assert!(window.word_count() as u64 <= SPAN / 64 + 1);
        }
        // Each hole is given up once, when the watermark slides past it.
        let holes_below = window.base() / 1_000 + u64::from(window.base() % 1_000 > 7);
        assert_eq!(window.given_up(), holes_below);
        assert!(!window.contains(1_310_007) && window.contains(1_310_008));
    }

    #[test]
    fn a_run_of_agreeing_refusals_resyncs_and_one_stray_does_not() {
        let mut refusals = Refusals::default();
        // Strays far apart never make a run.
        for seq in [1 << 40, u64::MAX, 1 << 50, u64::MAX - 1, 1 << 40] {
            assert_eq!(refusals.refuse(seq), None);
        }
        // A frame inside the window ends a run.
        refusals.clear();
        assert_eq!(refusals.refuse(5 * SPAN), None);
        refusals.clear();
        assert_eq!(refusals.refuse(5 * SPAN + 1), None);
        assert_eq!(refusals.refuse(5 * SPAN - 3), None);
        // The third agreeing refusal resyncs at the lowest, and starts over.
        assert_eq!(refusals.refuse(5 * SPAN + 9), Some(5 * SPAN - 3));
        assert_eq!(refusals, Refusals::default());
    }
}
