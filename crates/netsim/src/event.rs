//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: ties on simulated time break in
//! scheduling order, which makes every run fully deterministic.
//!
//! The queue is backed by the hierarchical *calendar queue* shared with the
//! real-UDP runtime ([`adamant_proto::CalendarQueue`], hoisted out of this
//! module so the simulator and `adamant-rt` schedule through the same
//! structure): pushes and pops into the current simulation window are O(1)
//! amortized, and — crucially for the allocation-free hot path — the bucket
//! storage is recycled, so a warmed-up simulation schedules and fires events
//! without touching the allocator.

use adamant_proto::CalendarQueue;

use crate::packet::{NodeId, Packet};
use crate::time::SimTime;

/// What a scheduled event does when it fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A packet copy has reached the receiver's switch port and now
    /// contends for its ingress NIC and CPU (in arrival order). The copy
    /// itself waits in the engine's [`PacketSlab`] at `slot`.
    Ingress { node: NodeId, slot: u32 },
    /// Deliver a packet to a node's agent (all pipeline delays already paid).
    Deliver { node: NodeId, slot: u32 },
    /// Fire a timer on a node's agent, handing back the tag it was armed
    /// with.
    Timer { node: NodeId, tag: u64 },
    /// Invoke an agent's `on_start`.
    Start { node: NodeId },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub time: SimTime,
    /// The target node's incarnation epoch at scheduling time. The engine
    /// drops the event if the node has crashed (and possibly restarted)
    /// since: a rebooted host must not receive its predecessor's timers or
    /// half-delivered packets.
    pub epoch: u32,
    pub kind: EventKind,
}

// The queue moves its payload on push, per-bucket sort and pop: with the
// calendar's `(time, seq)` key an entry must stay within one cache line.
const _: () = assert!(std::mem::size_of::<(u32, EventKind)>() <= 32);

/// A deterministic min-priority queue of simulation events, backed by a
/// [`CalendarQueue`] keyed on nanosecond timestamps.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    calendar: CalendarQueue<(u32, EventKind)>,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            calendar: CalendarQueue::new(),
        }
    }

    /// Schedules `kind` at `time` for a target currently in incarnation
    /// `epoch`. Returns the tie-break sequence number.
    pub fn schedule(&mut self, time: SimTime, epoch: u32, kind: EventKind) -> u64 {
        self.calendar.push(time.as_nanos(), (epoch, kind))
    }

    /// Removes and returns the earliest event, if any. The tie-break
    /// sequence number is consumed here: the calendar already ordered by
    /// `(time, seq)`, so the engine only needs the time.
    pub fn pop(&mut self) -> Option<Event> {
        self.calendar
            .pop()
            .map(|(time, _seq, (epoch, kind))| Event {
                time: SimTime::from_nanos(time),
                epoch,
                kind,
            })
    }

    /// The time of the earliest pending event. `&mut` because finding it
    /// may advance the calendar cursor.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.calendar.peek_time().map(SimTime::from_nanos)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// Whether no events are pending.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.calendar.is_empty()
    }
}

/// Every packet copy in flight, parked between `transmit` and delivery so
/// queue events carry a `u32` slot instead of an 80-byte [`Packet`]. Freed
/// slots are reused LIFO; the slab never shrinks, so it is bounded by the
/// peak number of copies in flight.
#[derive(Debug, Default)]
pub(crate) struct PacketSlab {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Parks `packet` and returns its slot.
    pub fn put(&mut self, packet: Packet) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(packet);
                slot
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "packet slab full");
                self.slots.push(Some(packet));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The copy parked at `slot`.
    pub fn get(&self, slot: u32) -> &Packet {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    /// Removes the copy parked at `slot`, freeing the slot.
    pub fn take(&mut self, slot: u32) -> Packet {
        self.free.push(slot);
        self.slots[slot as usize].take().expect("live slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(node: u32) -> EventKind {
        EventKind::Start { node: NodeId(node) }
    }

    impl PacketSlab {
        /// Copies currently parked. Shared with the engine's own tests.
        pub(crate) fn live(&self) -> usize {
            self.slots.len() - self.free.len()
        }

        /// Panics unless every slot is either parked or on the free list,
        /// once.
        pub(crate) fn assert_consistent(&self) {
            let parked = self.slots.iter().filter(|s| s.is_some()).count();
            assert_eq!(parked, self.live(), "a slot is neither parked nor free");
            let mut free = self.free.clone();
            free.sort_unstable();
            free.dedup();
            assert_eq!(free.len(), self.free.len(), "a slot was freed twice");
            assert!(free.iter().all(|&s| self.slots[s as usize].is_none()));
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 0, start(0));
        q.schedule(SimTime::from_micros(10), 0, start(1));
        q.schedule(SimTime::from_micros(20), 0, start(2));
        let times: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_micros(10),
                SimTime::from_micros(20),
                SimTime::from_micros(30)
            ]
        );
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for node in 0..5 {
            q.schedule(t, 0, start(node));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_micros(8), 0, start(0));
        q.schedule(SimTime::from_micros(3), 0, start(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(8)));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        let mut q = EventQueue::new();
        // Hours apart: far beyond the 268 ms ring year.
        q.schedule(SimTime::from_secs(7_200), 0, start(0));
        q.schedule(SimTime::from_secs(3_600), 0, start(1));
        q.schedule(SimTime::from_micros(1), 0, start(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(
            order,
            vec![
                SimTime::from_micros(1),
                SimTime::from_secs(3_600),
                SimTime::from_secs(7_200)
            ]
        );
    }

    #[test]
    fn push_at_or_before_cursor_stays_ordered() {
        // Drain to a late bucket, then schedule at the current instant —
        // the pattern of a zero-delay timer rearming itself.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(500), 0, start(0));
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_millis(500));
        q.schedule(SimTime::from_millis(500), 0, start(1));
        q.schedule(SimTime::from_millis(501), 0, start(2));
        q.schedule(SimTime::from_millis(500), 0, start(3));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn packet_slab_reuses_freed_slots() {
        use crate::packet::{Destination, ProcessingCost};
        let copy = |wire_id| Packet {
            src: NodeId(0),
            dst: Destination::Node(NodeId(1)),
            size_bytes: 64,
            tag: 0,
            cost: ProcessingCost::FREE,
            msg: None,
            wire_id,
        };
        let mut slab = PacketSlab::default();
        let a = slab.put(copy(1));
        let b = slab.put(copy(2));
        assert_eq!((a, b, slab.live()), (0, 1, 2));
        assert_eq!(slab.get(b).wire_id, 2);
        assert_eq!(slab.take(a).wire_id, 1);
        slab.assert_consistent();
        // The freed slot is handed out again before the slab grows.
        assert_eq!(slab.put(copy(3)), a);
        assert_eq!(slab.put(copy(4)), 2);
        for slot in [a, b, 2] {
            slab.take(slot);
        }
        assert_eq!(slab.live(), 0);
        slab.assert_consistent();
    }
}
