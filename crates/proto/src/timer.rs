//! Shared timer substrate: the hierarchical calendar queue and the
//! [`TimerWheel`] drivers hang protocol timers on.
//!
//! The [`CalendarQueue`] started life inside `adamant-netsim` as the event
//! queue of the discrete-event engine; it was hoisted here so the real-UDP
//! runtime (`adamant-rt`) schedules its timers through the exact same
//! structure the simulator uses — O(1) amortized push/pop into the current
//! window, recycled bucket storage, O(1) far pushes for timers re-armed in
//! deadline order, and a deterministic `(time, seq)` FIFO ordering
//! contract. `adamant-netsim` re-exports it unchanged.
//!
//! [`TimerWheel`] specialises the queue for protocol timers: entries are
//! `(owner, TimerToken, tag)` triples keyed by [`TimePoint`], with O(1)
//! cancellation. One wheel serves many protocol cores (a runtime worker
//! owns one wheel for its whole shard of endpoints); the `owner` index
//! says which core a fired timer belongs to.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet, VecDeque};

use crate::core::TimerToken;
use crate::time::TimePoint;

/// One queued entry: a payload with its `(time, seq)` priority key.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Default bucket width: 2^18 ns ≈ 262 µs per bucket — wide enough that
/// LAN-scale hops (tens of µs) mostly stay within the cursor's bucket,
/// keeping bucket loads rare, while cohorts stay small enough to sort
/// cheaply.
const DEFAULT_BUCKET_SHIFT: u32 = 18;
/// Default ring size: 1024 buckets ≈ a 268 ms "year" before overflow.
const DEFAULT_BUCKETS: usize = 1024;

/// A deterministic min-priority calendar queue keyed on `u64` timestamps.
///
/// Entries pop in ascending `(time, seq)` order, where `seq` is the
/// push-order sequence number assigned by the queue — so entries scheduled
/// for the same instant pop in FIFO order. This is the exact ordering
/// contract the simulation engine's determinism rests on.
///
/// # Structure
///
/// Four tiers, by distance from the drain cursor:
///
/// 1. **`active`** — the bucket currently being drained, kept sorted; pops
///    are O(1) from its front, and late entries that land at or before the
///    cursor are merged in by binary search.
/// 2. **ring buckets** — `buckets` fixed-width windows of `2^shift` ns
///    each, unsorted until their turn comes (one `sort_unstable` per bucket
///    per drain).
/// 3. **`far`** — entries at least a full ring beyond the cursor whose time
///    is no earlier than the last such entry's: an in-order queue, pushed
///    at the back and migrated into the ring from the front, O(1) each.
/// 4. **`overflow`** — a binary heap for the far entries that arrived out
///    of order, migrated into the ring as the cursor advances.
///
/// Fixed-period timers (heartbeats, lease checks, paced publishers) re-arm
/// one period after firing, so their far pushes arrive in deadline order
/// and skip the heap's O(log n) sift; the heap stays as the fallback for
/// out-of-order arms. Pop order does not depend on the far tier an entry
/// waited in: buckets are sorted by `(time, seq)` when loaded. Neither far
/// container shrinks as it drains: releasing the heap's buffer and regrowing
/// it on the next burst of out-of-order arms stalls a worker for milliseconds.
///
/// All bucket storage is recycled between drains: once warmed up, a
/// steady-state push/pop workload performs **zero heap allocations**.
/// A drained buffer is lent to whichever bucket next needs one rather than
/// left in its own slot, so warming up costs one allocation per bucket that
/// is non-empty *at the same time*, not one per slot ever touched — a short
/// sparse run (one simulated cell) allocates a handful, not a ring's worth.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// log2 of the bucket width in timestamp units.
    shift: u32,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: u64,
    /// Absolute index (time >> shift) of the bucket drained into `active`.
    cursor: u64,
    /// The current bucket's entries, sorted ascending by `(time, seq)`.
    active: VecDeque<Entry<T>>,
    /// The ring: bucket for absolute index `b` lives at `b & mask`.
    buckets: Vec<Vec<Entry<T>>>,
    /// Total entries across all ring buckets (excluding `active`).
    ring_len: usize,
    /// Far entries in push order, which is also deadline order (tier 3).
    far: VecDeque<Entry<T>>,
    /// Far entries that arrived earlier than the back of `far` (tier 4).
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Time of the earliest far entry, `u64::MAX` when none wait.
    far_first: u64,
    /// Recycled bucket storage: a drained run's buffer waits here until a
    /// push lands in a bucket that owns none.
    spares: Vec<Vec<Entry<T>>>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates a queue with the default geometry (1024 buckets of
    /// 2^18 = 262 144 timestamp units each).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_SHIFT, DEFAULT_BUCKETS)
    }

    /// Creates a queue with `buckets` ring buckets (a power of two, at
    /// least 2) each spanning `2^shift` timestamp units. Smaller
    /// geometries exercise the overflow and year-wrap paths; the defaults
    /// suit nanosecond simulation timestamps.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two ≥ 2 or `shift` ≥ 64.
    pub fn with_geometry(shift: u32, buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two() && buckets >= 2,
            "bucket count must be a power of two >= 2, got {buckets}"
        );
        assert!(shift < 64, "bucket shift must be < 64, got {shift}");
        CalendarQueue {
            shift,
            mask: (buckets - 1) as u64,
            cursor: 0,
            active: VecDeque::new(),
            buckets: std::iter::repeat_with(Vec::new).take(buckets).collect(),
            ring_len: 0,
            far: VecDeque::new(),
            overflow: BinaryHeap::new(),
            far_first: u64::MAX,
            spares: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `item` at `time`. Returns the tie-break sequence number:
    /// strictly increasing across pushes, so same-time entries pop in push
    /// order.
    pub fn push(&mut self, time: u64, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { time, seq, item };
        let abs = time >> self.shift;
        if abs <= self.cursor {
            // At or before the bucket being drained (zero-delay timers,
            // same-window sends): merge into the sorted active run. The new
            // entry's seq exceeds every queued one, so same-time entries
            // keep FIFO order.
            let idx = self.active.partition_point(|e| e.key() < (time, seq));
            self.active.insert(idx, entry);
        } else if abs - self.cursor <= self.mask {
            self.push_ring(abs, entry);
        } else {
            self.push_overflow(entry);
        }
        self.len += 1;
        seq
    }

    /// Removes and returns the earliest entry as `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.prepare_front();
        let entry = self.active.pop_front()?;
        self.len -= 1;
        Some((entry.time, entry.seq, entry.item))
    }

    /// The timestamp of the earliest pending entry. Takes `&mut self`
    /// because it may advance the drain cursor to find it.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.prepare_front();
        self.active.front().map(|e| e.time)
    }

    /// The earliest pending entry as `(time, seq, &item)`, without
    /// removing it. Takes `&mut self` for the same reason as
    /// [`peek_time`](Self::peek_time).
    pub fn peek(&mut self) -> Option<(u64, u64, &T)> {
        self.prepare_front();
        self.active.front().map(|e| (e.time, e.seq, &e.item))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ensures the earliest pending entry (if any) sits at the front of
    /// `active`, advancing the cursor across empty buckets and migrating
    /// far entries that come within the ring's horizon.
    fn prepare_front(&mut self) {
        while self.active.is_empty() && self.len > 0 {
            if self.ring_len == 0 {
                // Everything pending is in the far tiers: jump the cursor
                // straight to the earliest entry's bucket instead of
                // scanning a whole empty ring.
                let earliest = self.far_first >> self.shift;
                debug_assert!(earliest > self.cursor);
                self.cursor = earliest;
            } else {
                self.cursor += 1;
            }
            if self.far_first >> self.shift <= self.cursor + self.mask {
                self.migrate_overflow();
            }
            let slot = (self.cursor & self.mask) as usize;
            if !self.buckets[slot].is_empty() {
                self.load(slot);
            }
        }
    }

    /// Queues an entry a full ring or more beyond the cursor: in order when
    /// it is no earlier than `far`'s last entry, in the heap otherwise. Out
    /// of line, so the near tiers' push compiles as if there were no far.
    #[cold]
    #[inline(never)]
    fn push_overflow(&mut self, entry: Entry<T>) {
        self.far_first = self.far_first.min(entry.time);
        match self.far.back() {
            Some(last) if entry.time < last.time => self.overflow.push(Reverse(entry)),
            _ => self.far.push_back(entry),
        }
    }

    /// Moves the far entries that now fall within the ring's horizon into
    /// their buckets, from both fronts. Called after every cursor change
    /// that brings `far_first` within it, so far entries stay a ring away.
    #[cold]
    #[inline(never)]
    fn migrate_overflow(&mut self) {
        let (shift, horizon) = (self.shift, self.cursor + self.mask + 1);
        while self.far.front().is_some_and(|e| e.time >> shift < horizon) {
            let entry = self.far.pop_front().expect("front entry");
            self.push_ring(entry.time >> shift, entry);
        }
        while self
            .overflow
            .peek()
            .is_some_and(|e| e.0.time >> shift < horizon)
        {
            let Reverse(entry) = self.overflow.pop().expect("peeked entry");
            self.push_ring(entry.time >> shift, entry);
        }
        let queued = self.far.front().map_or(u64::MAX, |e| e.time);
        self.far_first = queued.min(self.overflow.peek().map_or(u64::MAX, |e| e.0.time));
    }

    /// Every pending item, tier by tier, in no particular order.
    fn items(&self) -> impl Iterator<Item = &T> {
        let near = self.active.iter().chain(self.buckets.iter().flatten());
        let far = self.far.iter().chain(self.overflow.iter().map(|e| &e.0));
        near.chain(far).map(|e| &e.item)
    }

    /// Appends `entry` to the ring bucket of absolute index `abs`, lending
    /// the bucket recycled storage first if it owns none.
    fn push_ring(&mut self, abs: u64, entry: Entry<T>) {
        let bucket = &mut self.buckets[(abs & self.mask) as usize];
        if bucket.capacity() == 0 {
            if let Some(spare) = self.spares.pop() {
                *bucket = spare;
            }
        }
        bucket.push(entry);
        self.ring_len += 1;
    }

    /// Sorts ring bucket `slot` and makes it the active drain run; the
    /// buffer of the run just drained joins the spares, so no buffer is ever
    /// dropped.
    fn load(&mut self, slot: usize) {
        debug_assert!(self.active.is_empty());
        let drained = std::mem::take(&mut self.active);
        let mut entries = std::mem::take(&mut self.buckets[slot]);
        self.ring_len -= entries.len();
        // Keys are unique (seq is), so unstable sort is deterministic.
        entries.sort_unstable();
        self.active = VecDeque::from(entries);
        self.spares.push(Vec::from(drained));
    }
}

/// A timer that came due on a [`TimerWheel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerFire {
    /// The wheel-local owner index supplied when the timer was armed
    /// (which core of the shard it belongs to).
    pub owner: u32,
    /// The token the owning core received from `Env::set_timer`.
    pub token: TimerToken,
    /// The tag the core attached to the timer.
    pub tag: u64,
}

/// A multi-core timer wheel over a [`CalendarQueue`], with O(1) arm and
/// cancel.
///
/// One wheel serves every protocol core of a runtime shard: timers are
/// armed with the wheel-local `owner` index of their core, pop in strict
/// `(deadline, arming order)` across the whole shard, and cancel by
/// `(owner, token)` — tokens are only unique per core, so the owner index
/// disambiguates. Cancelled entries stay queued (cancellation just marks
/// them) and are discarded when their deadline comes around.
#[derive(Debug, Default)]
pub struct TimerWheel {
    queue: CalendarQueue<TimerFire>,
    cancelled: HashSet<(u32, TimerToken)>,
}

impl TimerWheel {
    /// An empty wheel with the default calendar geometry.
    pub fn new() -> Self {
        TimerWheel {
            queue: CalendarQueue::new(),
            cancelled: HashSet::new(),
        }
    }

    /// Arms a timer for core `owner` firing at `at`.
    pub fn arm(&mut self, at: TimePoint, owner: u32, token: TimerToken, tag: u64) {
        self.queue
            .push(at.as_nanos(), TimerFire { owner, token, tag });
    }

    /// Cancels core `owner`'s timer `token` (no-op if it already fired).
    /// Once the marks outnumber twice the queue, those matching no queued
    /// entry (late or never-armed cancels) are dropped: the set stays bounded.
    pub fn cancel(&mut self, owner: u32, token: TimerToken) {
        self.cancelled.insert((owner, token));
        if self.cancelled.len() > 2 * self.queue.len() + 64 {
            let marked = std::mem::take(&mut self.cancelled);
            self.cancelled = self
                .queue
                .items()
                .map(|fire| (fire.owner, fire.token))
                .filter(|pair| marked.contains(pair))
                .collect();
        }
    }

    /// The deadline of the earliest live timer, discarding any cancelled
    /// entries found at the front (so idle sleeps never wait on a timer
    /// that will not fire).
    pub fn next_deadline(&mut self) -> Option<TimePoint> {
        loop {
            let (time, front_cancelled) = {
                let (time, _, fire) = self.queue.peek()?;
                (time, self.cancelled.contains(&(fire.owner, fire.token)))
            };
            if !front_cancelled {
                return Some(TimePoint::from_nanos(time));
            }
            let (_, _, fire) = self.queue.pop().expect("peeked entry");
            self.cancelled.remove(&(fire.owner, fire.token));
        }
    }

    /// Pops the earliest timer if it is due at `now`, skipping cancelled
    /// entries. Call in a loop until `None` to fire everything due.
    pub fn pop_due(&mut self, now: TimePoint) -> Option<TimerFire> {
        loop {
            let time = self.queue.peek_time()?;
            if time > now.as_nanos() {
                return None;
            }
            let (_, _, fire) = self.queue.pop()?;
            if self.cancelled.remove(&(fire.owner, fire.token)) {
                continue;
            }
            return Some(fire);
        }
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;

    #[test]
    fn tiny_geometry_wraps_the_ring() {
        // 4 buckets of 2 units each: an 8-unit year, so this exercises
        // bucket aliasing and overflow migration heavily.
        let mut q = CalendarQueue::with_geometry(1, 4);
        let times = [37u64, 2, 9, 8, 40, 3, 2, 25, 14, 0];
        for &t in &times {
            q.push(t, t);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _, _)| t).collect();
        assert_eq!(popped, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn far_pushes_in_deadline_order_skip_the_heap() {
        // 4 buckets of 2 units: anything 8 or more past the cursor is far.
        let mut q = CalendarQueue::with_geometry(1, 4);
        for t in [20u64, 30, 30, 40] {
            q.push(t, t);
        }
        assert_eq!((q.far.len(), q.overflow.len()), (4, 0));
        // Earlier than the queue's last entry: the heap takes it; a tie
        // with the last entry still queues in order.
        q.push(25, 25);
        q.push(40, 40);
        assert_eq!((q.far.len(), q.overflow.len()), (5, 1));
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _, _)| t).collect();
        assert_eq!(popped, [20, 25, 30, 30, 40, 40]);
        // Draining frees neither far container's buffer.
        assert!(q.far.capacity() >= 5 && q.overflow.capacity() >= 1);
    }

    #[test]
    fn sparse_runs_share_buffers_instead_of_warming_every_slot() {
        // One entry in flight at a time, each landing a few buckets ahead:
        // the walk touches every slot of the ring, yet the drained buffer
        // follows the entries round instead of a new one per slot.
        let mut q = CalendarQueue::with_geometry(4, 64);
        let owned = |q: &CalendarQueue<u64>| {
            q.buckets.iter().filter(|b| b.capacity() > 0).count()
                + q.spares.len()
                + usize::from(q.active.capacity() > 0)
        };
        let mut now = 0;
        q.push(now, 0);
        for step in 1..1_000u64 {
            let (t, _, _) = q.pop().expect("one in flight");
            assert_eq!(t, now);
            now += 16 * 3 + step % 7;
            q.push(now, step);
            assert!(owned(&q) <= 3, "{} buffers at step {step}", owned(&q));
        }
    }

    #[test]
    fn calendar_seq_breaks_ties_fifo() {
        let mut q = CalendarQueue::with_geometry(4, 8);
        for item in 0..10u32 {
            q.push(100, item);
        }
        let items: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, _, i)| i).collect();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
    }

    /// Arms timers through a core-side `Env` so wheel tokens are realistic.
    fn tokens(n: usize) -> Vec<TimerToken> {
        use crate::{Effect, EnvHost, Input, NodeId, ProtocolCore};
        struct Armer(usize);
        impl ProtocolCore for Armer {
            fn step(&mut self, _input: Input<'_>, env: &mut crate::Env<'_>) {
                for i in 0..self.0 {
                    env.set_timer(Span::from_micros(i as u64), i as u64);
                }
            }
        }
        let mut host = EnvHost::new(NodeId(0), 1);
        host.step(&mut Armer(n), TimePoint::ZERO, Input::Start)
            .into_iter()
            .filter_map(|e| match e {
                Effect::SetTimer { token, .. } => Some(token),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn wheel_fires_in_deadline_then_arming_order() {
        let toks = tokens(4);
        let mut wheel = TimerWheel::new();
        wheel.arm(TimePoint::from_micros(20), 0, toks[0], 100);
        wheel.arm(TimePoint::from_micros(10), 1, toks[1], 101);
        wheel.arm(TimePoint::from_micros(10), 0, toks[2], 102);
        assert_eq!(wheel.next_deadline(), Some(TimePoint::from_micros(10)));
        assert!(wheel.pop_due(TimePoint::from_micros(5)).is_none());
        let now = TimePoint::from_micros(25);
        let fired: Vec<(u32, u64)> = std::iter::from_fn(|| wheel.pop_due(now))
            .map(|f| (f.owner, f.tag))
            .collect();
        assert_eq!(fired, vec![(1, 101), (0, 102), (0, 100)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_cancel_is_per_owner() {
        let toks = tokens(1);
        let mut wheel = TimerWheel::new();
        // Two cores armed the *same* token value (tokens are per-core
        // counters); cancelling owner 0's must not touch owner 1's.
        wheel.arm(TimePoint::from_micros(5), 0, toks[0], 7);
        wheel.arm(TimePoint::from_micros(5), 1, toks[0], 8);
        wheel.cancel(0, toks[0]);
        let now = TimePoint::from_micros(10);
        let fired: Vec<u32> = std::iter::from_fn(|| wheel.pop_due(now))
            .map(|f| f.owner)
            .collect();
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn wheel_next_deadline_skips_cancelled_front() {
        let toks = tokens(2);
        let mut wheel = TimerWheel::new();
        wheel.arm(TimePoint::from_micros(1), 0, toks[0], 0);
        wheel.arm(TimePoint::from_millis(1), 0, toks[1], 1);
        wheel.cancel(0, toks[0]);
        assert_eq!(wheel.next_deadline(), Some(TimePoint::from_millis(1)));
        let fire = wheel.pop_due(TimePoint::from_millis(2)).expect("fires");
        assert_eq!(fire.tag, 1);
        assert!(wheel.pop_due(TimePoint::from_millis(2)).is_none());
    }

    #[test]
    fn late_and_never_armed_cancels_leave_the_cancel_set_bounded() {
        let toks = tokens(1_000);
        let mut wheel = TimerWheel::new();
        for (i, &tok) in toks.iter().enumerate() {
            // Arm, fire, then cancel the timer that already fired.
            let at = TimePoint::from_micros(i as u64);
            wheel.arm(at, 0, tok, 0);
            assert!(wheel.pop_due(at).is_some());
            wheel.cancel(0, tok);
            assert!(
                wheel.cancelled.len() <= 65,
                "{} marks",
                wheel.cancelled.len()
            );
        }
        for &tok in &toks {
            // Owner 1 never armed anything.
            wheel.cancel(1, tok);
            assert!(
                wheel.cancelled.len() <= 65,
                "{} marks",
                wheel.cancelled.len()
            );
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn pruning_the_cancel_set_keeps_every_queued_cancel() {
        let toks = tokens(1_000);
        let mut wheel = TimerWheel::new();
        let cancelled_tiers = [
            TimePoint::from_micros(600),   // active, once the front is loaded
            TimePoint::from_millis(100),   // a ring bucket
            TimePoint::from_secs(2),       // the in-order far queue
            TimePoint::from_millis(1_500), // the heap: earlier than the last far push
        ];
        for (i, &at) in cancelled_tiers.iter().enumerate() {
            wheel.arm(at, 0, toks[i], 0);
        }
        wheel.arm(TimePoint::from_micros(530), 0, toks[4], 1);
        wheel.arm(TimePoint::from_secs(3), 0, toks[5], 2);
        for tok in &toks[..4] {
            wheel.cancel(0, *tok);
        }
        assert_eq!(wheel.next_deadline(), Some(TimePoint::from_micros(530)));
        // Never-armed cancels, enough to prune the set many times over.
        for &tok in &toks {
            wheel.cancel(1, tok);
            assert!(wheel.cancelled.len() <= 2 * 6 + 64);
        }
        let fired: Vec<u64> = std::iter::from_fn(|| wheel.pop_due(TimePoint::from_secs(10)))
            .map(|f| f.tag)
            .collect();
        assert_eq!(fired, [1, 2]);
        // Each queued cancel was consumed by its own entry.
        assert!(wheel.cancelled.iter().all(|&(owner, _)| owner == 1));
    }
}
