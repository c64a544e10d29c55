//! Durable-delivery state: the writer-side [`HistoryCache`] ring of
//! retained samples and the reader-side [`GapTracker`] that drives
//! catch-up NAK rounds over the reader's delivered [`SeqWindow`].
//!
//! Both are plain data structures with no I/O and no timers of their own —
//! the [`DurableCore`](crate::DurableCore) wrapper owns the protocol that
//! moves their state, so the simulator and the real-UDP runtime share one
//! implementation.

use std::collections::VecDeque;
use std::ops::Range;

use crate::time::{Span, TimePoint};
use crate::window::SeqWindow;

/// Base wait added per catch-up retry round; doubles each round up to
/// [`CATCH_UP_BACKOFF_MAX`]. Mirrors the NAKcast re-NAK backoff idiom so a
/// slow writer is not stormed with duplicate catch-up NAKs.
pub const CATCH_UP_BACKOFF_BASE: Span = Span::from_millis(5);
/// Upper bound of the exponential catch-up backoff.
pub const CATCH_UP_BACKOFF_MAX: Span = Span::from_secs(2);

/// The exponential catch-up backoff after `retries` completed rounds.
pub fn catch_up_backoff(retries: u32) -> Span {
    let doubled = CATCH_UP_BACKOFF_BASE * 2u64.saturating_pow(retries.min(16));
    doubled.min(CATCH_UP_BACKOFF_MAX)
}

/// A bounded ring of retained samples on the writer side: publication
/// times keyed by a contiguous run of sequence numbers.
///
/// Samples must be pushed in ascending contiguous sequence order (the
/// publisher's natural order). When a depth is configured, pushing past it
/// evicts the oldest retained sample; [`evicted`](Self::evicted) counts
/// those forced evictions. Acknowledged prefixes can also be trimmed with
/// [`ack_up_to`](Self::ack_up_to), which does *not* count as eviction.
#[derive(Debug, Clone)]
pub struct HistoryCache {
    depth: Option<usize>,
    first: u64,
    times: VecDeque<TimePoint>,
    evicted: u64,
}

impl HistoryCache {
    /// A cache that retains every pushed sample.
    pub fn unbounded() -> Self {
        HistoryCache {
            depth: None,
            first: 0,
            times: VecDeque::new(),
            evicted: 0,
        }
    }

    /// A cache retaining at most `depth` samples (`depth >= 1`), evicting
    /// oldest-first beyond that.
    pub fn bounded(depth: usize) -> Self {
        assert!(depth >= 1, "history depth must be at least 1");
        HistoryCache {
            depth: Some(depth),
            first: 0,
            times: VecDeque::with_capacity(depth),
            evicted: 0,
        }
    }

    /// The configured depth, or `None` if unbounded.
    pub fn depth(&self) -> Option<usize> {
        self.depth
    }

    /// Retains `(seq, at)`. `seq` must continue the contiguous run (or
    /// start it, if the cache has never held a sample). Returns the
    /// sequence evicted to make room, if any.
    pub fn push(&mut self, seq: u64, at: TimePoint) -> Option<u64> {
        let expected = self.first + self.times.len() as u64;
        assert_eq!(
            seq, expected,
            "HistoryCache::push out of order: got {seq}, expected {expected}"
        );
        self.times.push_back(at);
        if let Some(depth) = self.depth {
            if self.times.len() > depth {
                self.times.pop_front();
                let victim = self.first;
                self.first += 1;
                self.evicted += 1;
                return Some(victim);
            }
        }
        None
    }

    /// The publication time of `seq`, if still retained.
    pub fn get(&self, seq: u64) -> Option<TimePoint> {
        let offset = seq.checked_sub(self.first)?;
        self.times.get(offset as usize).copied()
    }

    /// The oldest retained sequence, if any.
    pub fn first_seq(&self) -> Option<u64> {
        (!self.times.is_empty()).then_some(self.first)
    }

    /// The newest retained sequence, if any.
    pub fn last_seq(&self) -> Option<u64> {
        (!self.times.is_empty()).then(|| self.first + self.times.len() as u64 - 1)
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Samples forced out by the depth bound (acknowledged trims are not
    /// counted here).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Drops every retained sample with sequence `<= seq` (all consumers
    /// acknowledged them). Keeps the contiguity invariant: the cache
    /// afterwards starts at `seq + 1` (or is empty).
    pub fn ack_up_to(&mut self, seq: u64) {
        while self.first <= seq && !self.times.is_empty() {
            self.times.pop_front();
            self.first += 1;
        }
        if self.times.is_empty() {
            self.first = self.first.max(seq + 1);
        }
    }
}

/// Reader-side catch-up bookkeeping: the span `[lo, hi)` of history still
/// wanted — its sequences the reader's delivered [`SeqWindow`] has not
/// settled — and how many NAK rounds have been spent asking for them.
///
/// The tracker is timer-free; the durable reader wrapper asks it which
/// sequences to request each round and computes the next retry delay from
/// [`retry_delay`](Self::retry_delay). `lo` is kept on the first wanted
/// sequence, so an empty tracker is `lo == hi`.
#[derive(Debug, Clone)]
pub struct GapTracker {
    lo: u64,
    hi: u64,
    rounds: u32,
    max_retries: u32,
}

impl GapTracker {
    /// A tracker permitting `max_retries` retry rounds after the first
    /// request round.
    pub fn new(max_retries: u32) -> Self {
        GapTracker {
            lo: 0,
            hi: 0,
            rounds: 0,
            max_retries,
        }
    }

    /// Wants every sequence of `span` that `delivered` has not settled.
    pub fn want(&mut self, span: Range<u64>, delivered: &SeqWindow) {
        (self.lo, self.hi) = (span.start, span.end.max(span.start));
        self.skip_settled(delivered);
    }

    /// Whether `seq` is still wanted.
    pub fn wants(&self, seq: u64, delivered: &SeqWindow) -> bool {
        (self.lo..self.hi).contains(&seq) && !delivered.contains(seq)
    }

    /// Moves past the settled front of the span; call after `delivered`
    /// settles a wanted sequence.
    pub fn skip_settled(&mut self, delivered: &SeqWindow) {
        while self.lo < self.hi && delivered.contains(self.lo) {
            self.lo += 1;
        }
    }

    /// Whether every wanted sequence has been satisfied (or abandoned).
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Completed request rounds.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Starts a request round: returns the sequences to NAK and counts the
    /// round. Returns an empty vec when nothing is outstanding.
    pub fn begin_round(&mut self, delivered: &SeqWindow) -> Vec<u64> {
        if self.is_empty() {
            return Vec::new();
        }
        self.rounds += 1;
        delivered.unsettled(self.lo..self.hi).collect()
    }

    /// Whether the retry budget is spent (the first round plus
    /// `max_retries` retries have all run).
    pub fn exhausted(&self) -> bool {
        self.rounds > self.max_retries
    }

    /// Abandons everything still wanted, returning how many sequences that
    /// was.
    pub fn abandon_all(&mut self, delivered: &SeqWindow) -> u64 {
        self.abandon_below(self.hi, delivered)
    }

    /// Abandons every wanted sequence below `floor` (the writer evicted
    /// them, or the delivered window must slide past them), returning how
    /// many that was.
    pub fn abandon_below(&mut self, floor: u64, delivered: &SeqWindow) -> u64 {
        let floor = floor.clamp(self.lo, self.hi);
        let gone = delivered.unsettled(self.lo..floor).count() as u64;
        self.lo = floor;
        self.skip_settled(delivered);
        gone
    }

    /// The wait before the next retry round: the base `timeout` plus the
    /// exponential [`catch_up_backoff`] for the rounds already spent.
    pub fn retry_delay(&self, timeout: Span) -> Span {
        timeout + catch_up_backoff(self.rounds.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn unbounded_cache_retains_everything() {
        let mut cache = HistoryCache::unbounded();
        for seq in 0..100 {
            assert_eq!(cache.push(seq, TimePoint::from_micros(seq)), None);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.first_seq(), Some(0));
        assert_eq!(cache.last_seq(), Some(99));
        assert_eq!(cache.evicted(), 0);
        assert_eq!(cache.get(42), Some(TimePoint::from_micros(42)));
    }

    #[test]
    fn bounded_cache_evicts_oldest_first() {
        let mut cache = HistoryCache::bounded(3);
        assert_eq!(cache.push(0, TimePoint::ZERO), None);
        assert_eq!(cache.push(1, TimePoint::ZERO), None);
        assert_eq!(cache.push(2, TimePoint::ZERO), None);
        assert_eq!(cache.push(3, TimePoint::ZERO), Some(0));
        assert_eq!(cache.push(4, TimePoint::ZERO), Some(1));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.first_seq(), Some(2));
        assert_eq!(cache.last_seq(), Some(4));
        assert_eq!(cache.evicted(), 2);
        assert_eq!(cache.get(1), None);
        assert!(cache.get(2).is_some());
    }

    #[test]
    fn ack_trims_without_counting_eviction() {
        let mut cache = HistoryCache::bounded(10);
        for seq in 0..5 {
            cache.push(seq, TimePoint::ZERO);
        }
        cache.ack_up_to(2);
        assert_eq!(cache.first_seq(), Some(3));
        assert_eq!(cache.evicted(), 0);
        cache.ack_up_to(10);
        assert!(cache.is_empty());
        // The contiguous run resumes past the acked prefix.
        cache.push(11, TimePoint::ZERO);
        assert_eq!(cache.first_seq(), Some(11));
    }

    /// Property test (satellite): under random write/ack interleavings the
    /// cache never exceeds its depth, stays a contiguous run, evicts
    /// oldest-first, and its low edge never moves backwards.
    #[test]
    fn bounded_cache_property_random_interleavings() {
        let mut rng = DetRng::seed_from_u64(0xD00D);
        for case in 0..200u64 {
            let depth = 1 + rng.next_below(16) as usize;
            let mut cache = HistoryCache::bounded(depth);
            let mut next_seq = 0u64;
            let mut last_first: Option<u64> = None;
            let mut last_evicted = 0u64;
            for _ in 0..300 {
                if rng.bernoulli(0.7) {
                    let evicted = cache.push(next_seq, TimePoint::from_micros(next_seq));
                    // Oldest-first: the only sequence a push can evict is
                    // the previous low edge, and only when full.
                    if let Some(victim) = evicted {
                        assert_eq!(Some(victim), last_first, "case {case}");
                        assert_eq!(cache.evicted(), last_evicted + 1);
                    } else {
                        assert_eq!(cache.evicted(), last_evicted);
                    }
                    next_seq += 1;
                } else if next_seq > 0 {
                    let upto = rng.next_below(next_seq);
                    cache.ack_up_to(upto);
                }
                assert!(cache.len() <= depth, "case {case}: depth exceeded");
                match (cache.first_seq(), cache.last_seq()) {
                    (Some(first), Some(last)) => {
                        // Contiguous run: every retained seq resolves,
                        // nothing outside does.
                        assert_eq!(last - first + 1, cache.len() as u64);
                        assert!(cache.get(first).is_some() && cache.get(last).is_some());
                        assert!(first == 0 || cache.get(first - 1).is_none());
                        assert!(cache.get(last + 1).is_none());
                        if let Some(prev) = last_first {
                            assert!(first >= prev, "case {case}: low edge moved backwards");
                        }
                        last_first = Some(first);
                    }
                    (None, None) => {}
                    other => panic!("case {case}: inconsistent edges {other:?}"),
                }
                last_evicted = cache.evicted();
            }
        }
    }

    /// A delivered window holding `seqs`.
    fn delivered(seqs: &[u64]) -> SeqWindow {
        let mut window = SeqWindow::default();
        for &seq in seqs {
            window.insert(seq);
        }
        window
    }

    #[test]
    fn gap_tracker_rounds_and_backoff() {
        // 3, 5 and 7 are wanted: the rest of 3..8 was delivered already.
        let mut window = delivered(&[4, 6]);
        let mut gaps = GapTracker::new(2);
        gaps.want(3..8, &window);
        assert_eq!(gaps.begin_round(&window), vec![3, 5, 7]);
        assert!(!gaps.exhausted());
        assert!(gaps.wants(5, &window));
        window.insert(5);
        gaps.skip_settled(&window);
        assert!(!gaps.wants(5, &window));
        assert_eq!(gaps.begin_round(&window), vec![3, 7]);
        assert_eq!(gaps.begin_round(&window), vec![3, 7]);
        assert!(gaps.exhausted());
        assert_eq!(gaps.abandon_all(&window), 2);
        assert!(gaps.is_empty());
        // Nothing outstanding: rounds stop counting.
        assert!(gaps.begin_round(&window).is_empty());
        assert_eq!(gaps.rounds(), 3);
        assert_eq!(gaps.retry_delay(Span::ZERO), catch_up_backoff(2));
    }

    #[test]
    fn gap_tracker_abandons_below_eviction_floor() {
        // 1, 2, 5 and 9 are wanted.
        let window = delivered(&[3, 4, 6, 7, 8]);
        let mut gaps = GapTracker::new(4);
        gaps.want(1..10, &window);
        assert_eq!(gaps.abandon_below(5, &window), 2);
        assert_eq!(gaps.begin_round(&window), vec![5, 9]);
        // A floor below the span, or past it, clamps to the span.
        assert_eq!(gaps.abandon_below(0, &window), 0);
        assert_eq!(gaps.abandon_below(100, &window), 2);
        assert!(gaps.is_empty());
    }

    #[test]
    fn gap_tracker_empties_once_its_front_is_settled() {
        let mut window = SeqWindow::default();
        let mut gaps = GapTracker::new(0);
        gaps.want(0..3, &window);
        for seq in [2, 0, 1] {
            assert!(!gaps.is_empty() && gaps.wants(seq, &window));
            window.insert(seq);
            gaps.skip_settled(&window);
        }
        assert!(gaps.is_empty());
        gaps.want(5..5, &window);
        assert!(gaps.is_empty() && gaps.begin_round(&window).is_empty());
    }

    #[test]
    fn catch_up_backoff_is_exponential_and_capped() {
        assert_eq!(catch_up_backoff(0), Span::from_millis(5));
        assert_eq!(catch_up_backoff(2), Span::from_millis(20));
        assert_eq!(catch_up_backoff(16), Span::from_secs(2));
        assert_eq!(catch_up_backoff(40), Span::from_secs(2));
        let (mut gaps, window) = (GapTracker::new(3), SeqWindow::default());
        gaps.want(0..1, &window);
        gaps.begin_round(&window);
        assert_eq!(
            gaps.retry_delay(Span::from_millis(50)),
            Span::from_millis(55)
        );
        gaps.begin_round(&window);
        assert_eq!(
            gaps.retry_delay(Span::from_millis(50)),
            Span::from_millis(60)
        );
    }
}
