//! Property tests pitting [`CalendarQueue`] against a reference binary
//! heap: for any interleaving of pushes and pops, both must emit exactly
//! the same `(time, seq)` sequence — including FIFO order among equal
//! timestamps, which the reference heap enforces through the explicit
//! sequence number.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use adamant_netsim::{CalendarQueue, SimRng};

/// Reference implementation: a binary heap over `(time, seq)`.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn push(&mut self, time: u64, item: u32) {
        self.heap.push(Reverse((time, self.next_seq, item)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// Drives both queues through the same random schedule and asserts every
/// pop agrees. `time_range` controls tie density: a small range forces
/// many same-timestamp events, exercising the FIFO guarantee.
fn exercise(queue: &mut CalendarQueue<u32>, seed: u64, ops: usize, time_range: u64) {
    let mut reference = ReferenceQueue::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut clock = 0u64;
    let mut pushed = 0u32;
    for _ in 0..ops {
        // Bias towards pushes so the queues stay populated, but drain
        // often enough that the cursor advances through the ring.
        let push = queue.is_empty() || rng.next_below(3) < 2;
        if push {
            // Events may land at the current time (zero-delay timers) or
            // anywhere in the future, including far past the ring's span.
            let time = clock + rng.next_below(time_range.max(1));
            push_both(queue, &mut reference, time, pushed);
            pushed += 1;
        } else {
            let got = queue.pop();
            let want = reference.pop();
            assert_eq!(got, want, "pop mismatch");
            if let Some((t, _, _)) = got {
                // The simulation clock never runs backwards.
                assert!(t >= clock, "time went backwards: {t} < {clock}");
                clock = t;
            }
        }
    }
    drain(queue, &mut reference);
}

/// Drains both queues completely; order must agree to the very end.
fn drain(queue: &mut CalendarQueue<u32>, reference: &mut ReferenceQueue) {
    loop {
        let got = queue.pop();
        let want = reference.pop();
        assert_eq!(got, want, "drain mismatch");
        if got.is_none() {
            break;
        }
    }
}

/// Pushes `time` into both queues.
fn push_both(queue: &mut CalendarQueue<u32>, reference: &mut ReferenceQueue, time: u64, item: u32) {
    let seq = queue.push(time, item);
    reference.push(time, item);
    assert_eq!(seq, reference.next_seq - 1, "seq numbers must align");
}

#[test]
fn matches_reference_heap_with_dense_ties() {
    // Times confined to a handful of values: nearly every pop is a tie
    // broken by scheduling order.
    for seed in 0..4 {
        exercise(&mut CalendarQueue::new(), 1000 + seed, 10_000, 8);
    }
}

#[test]
fn matches_reference_heap_within_one_bucket_year() {
    // Spread across the default ring (shift 18, 1024 buckets ≈ 268 ms of
    // nanoseconds) without overflowing it.
    for seed in 0..4 {
        exercise(&mut CalendarQueue::new(), 2000 + seed, 10_000, 1 << 24);
    }
}

#[test]
fn matches_reference_heap_through_overflow() {
    // Jumps far beyond the ring: entries route through the overflow heap
    // and migrate back as the cursor advances.
    for seed in 0..4 {
        exercise(&mut CalendarQueue::new(), 3000 + seed, 10_000, 1 << 40);
    }
}

#[test]
fn matches_reference_heap_on_tiny_geometry() {
    // A 4-bucket, 2-nanosecond-wide ring wraps constantly and shoves most
    // pushes through the overflow path.
    for seed in 0..4 {
        exercise(
            &mut CalendarQueue::with_geometry(1, 4),
            4000 + seed,
            10_000,
            256,
        );
    }
}

#[test]
fn fifo_among_equal_times_across_bucket_reloads() {
    // All events at one timestamp, pushed in two waves separated by a
    // partial drain, still pop in global push order.
    let mut queue = CalendarQueue::new();
    let time = 123_456_789;
    for i in 0..500u32 {
        queue.push(time, i);
    }
    for i in 0..250u32 {
        assert_eq!(queue.pop(), Some((time, u64::from(i), i)));
    }
    for i in 500..1000u32 {
        queue.push(time, i);
    }
    for i in 250..1000u32 {
        assert_eq!(queue.pop(), Some((time, u64::from(i), i)));
    }
    assert!(queue.is_empty());
}

/// Drives both queues like a population of fixed-period timers —
/// heartbeats, lease checks, paced publishers: `owners` timers first armed
/// across one period, in a seed-shuffled order, each re-armed `period`
/// after it fires, for `rounds` periods. A re-arm is never earlier than
/// the one before it, so at `period` ≥ one ring every re-arm is a far push
/// in deadline order.
fn periodic(queue: &mut CalendarQueue<u32>, seed: u64, owners: u32, period: u64, rounds: u32) {
    let mut reference = ReferenceQueue::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..owners).collect();
    rng.shuffle(&mut order);
    for owner in order {
        let first = period * u64::from(owner) / u64::from(owners);
        push_both(queue, &mut reference, first, owner);
    }
    for _ in 0..owners * rounds {
        let got = queue.pop();
        assert_eq!(got, reference.pop(), "periodic pop mismatch");
        let (time, _, owner) = got.expect("every owner stays armed");
        push_both(queue, &mut reference, time + period, owner);
    }
    drain(queue, &mut reference);
}

#[test]
fn periodic_timers_match_reference_heap() {
    // Half a ring (every re-arm stays in the ring), exactly one ring (every
    // re-arm lands one bucket past the horizon) and 3.7 rings.
    for (shift, buckets, owners) in [(18, 1024, 2_000), (1, 4, 64)] {
        let span = buckets << shift;
        for (i, period) in [span / 2, span, span * 37 / 10].into_iter().enumerate() {
            for seed in 0..2 {
                periodic(
                    &mut CalendarQueue::with_geometry(shift, buckets as usize),
                    5000 + 10 * i as u64 + seed,
                    owners,
                    period,
                    4,
                );
            }
        }
    }
}

/// Far pushes that mostly arrive in deadline order, with one in eight
/// landing earlier than the latest far push so far, and runs of equal
/// times, interleaved with pops that advance the cursor.
fn far_stream(queue: &mut CalendarQueue<u32>, seed: u64, span: u64, ops: usize) {
    let mut reference = ReferenceQueue::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let step = (span / 8).max(1);
    let mut clock = 0u64;
    let mut latest = 0u64;
    let mut pushed = 0u32;
    for _ in 0..ops {
        if queue.is_empty() || rng.next_below(3) < 2 {
            let floor = clock + 2 * span;
            latest = latest.max(floor);
            let time = if rng.next_below(8) == 0 {
                // Out of order, still at least two rings out.
                floor + rng.next_below(latest - floor + 1)
            } else {
                // In order; a zero step repeats the latest time.
                latest += step * rng.next_below(4);
                latest
            };
            push_both(queue, &mut reference, time, pushed);
            pushed += 1;
        } else {
            let got = queue.pop();
            assert_eq!(got, reference.pop(), "far-stream pop mismatch");
            clock = got.expect("queue was not empty").0;
        }
    }
    drain(queue, &mut reference);
}

#[test]
fn in_order_far_stream_with_out_of_order_pushes_matches_reference_heap() {
    for (shift, buckets) in [(18, 1024), (1, 4)] {
        for seed in 0..4 {
            far_stream(
                &mut CalendarQueue::with_geometry(shift, buckets as usize),
                6000 + seed,
                buckets << shift,
                10_000,
            );
        }
    }
}

#[test]
fn empty_ring_jump_lands_on_the_earliest_far_entry() {
    // Far entries a ring or more apart leave the ring empty between them,
    // so the cursor reaches each one by the empty-ring jump.
    let span = 1024 << 18;
    let check = |times: &[u64]| {
        let mut queue = CalendarQueue::new();
        let mut reference = ReferenceQueue::default();
        for (item, &time) in times.iter().enumerate() {
            push_both(&mut queue, &mut reference, time, item as u32);
        }
        drain(&mut queue, &mut reference);
    };
    // Rising times, each three rings past the last: every far entry waits
    // in deadline order.
    check(&[3 * span, 6 * span + 1, 9 * span + 2, 12 * span + 3]);
    // Falling times: each push is earlier than every far push before it.
    // The first, a hundred rings out, stays beyond every jump's reach, so
    // the jumps in between land only on the later, out-of-order pushes.
    check(&[100 * span, 12 * span, 9 * span + 7, 6 * span, 3 * span + 1]);
    // Both interleaved: rising times, then earlier ones between them and
    // on them, so the jumps alternate between the two kinds and equal
    // times across them break on push order.
    check(&[
        3 * span,
        6 * span,
        9 * span,
        12 * span,
        3 * span,
        6 * span - 1,
        9 * span,
        4 * span,
    ]);
}
