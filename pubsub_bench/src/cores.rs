//! Bench-owned protocol cores: the load generators and the measuring taps.
//!
//! Every core reads delivery time from its own copy of the cluster's
//! `MonotonicClock` inside `step` (the runtime's `env.now()` is one stamp
//! per `recvmmsg` batch, so it would hide the time a message waits inside a
//! batch). A core keeps at most 64 bytes of state and records into the
//! histograms held once in [`Shared`].

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use adamant_proto::wire::DataMsg;
use adamant_proto::{
    Clock, Effect, Env, Input, ProcessingCost, ProtocolCore, Span, TimePoint, WireMsg,
};
use adamant_rt::MonotonicClock;

use crate::hist::Windows;

/// Run-wide state every bench core points at, and what the cores record
/// into. Every workload has one worker thread, so one thread writes here
/// during a run and the atomics never contend (a second worker would want a
/// set of its own).
pub struct Shared {
    pub clock: MonotonicClock,
    /// Window 0 starts here; set just before `run_for`.
    origin_ns: AtomicU64,
    /// Open-loop publishers publish nothing due at or after this instant,
    /// so that everything published can be delivered before the run ends.
    stop_ns: AtomicU64,
    pub window_ns: u64,
    /// Due→deliver latency, by the window the delivery fell in.
    pub latency: Windows,
    /// The same latencies (count and sum only) by the window the sample
    /// was *published* in, beside the number published there: the two
    /// sides of a per-window loss ratio must count the same samples.
    pub by_publish: Windows,
    pub published: Vec<AtomicU64>,
    /// Timer fire time minus due time: how late the generator ran.
    pub timer_late: Windows,
    /// Publish→deliver latency of samples that came through recovery.
    pub recovery: Windows,
    pub delivered: AtomicU64,
    /// Bench-clock time of the latest delivery.
    pub last_delivery_ns: AtomicU64,
    pub lost: AtomicU64,
    pub out_of_order: AtomicU64,
}

impl Shared {
    pub fn new(clock: MonotonicClock, windows: usize, window_ns: u64) -> Arc<Self> {
        Arc::new(Shared {
            clock,
            origin_ns: AtomicU64::new(0),
            stop_ns: AtomicU64::new(u64::MAX),
            window_ns,
            latency: Windows::new(windows),
            by_publish: Windows::new(windows),
            published: (0..windows).map(|_| AtomicU64::new(0)).collect(),
            timer_late: Windows::new(1),
            recovery: Windows::new(1),
            delivered: AtomicU64::new(0),
            last_delivery_ns: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
        })
    }

    /// Fixes the measurement origin and the publishers' stop time. Called
    /// before the worker threads are spawned, which orders these stores
    /// before every read.
    pub fn arm(&self, origin: TimePoint, stop: TimePoint) {
        self.origin_ns.store(origin.as_nanos(), Relaxed);
        self.stop_ns.store(stop.as_nanos(), Relaxed);
    }

    pub fn origin(&self) -> TimePoint {
        TimePoint::from_nanos(self.origin_ns.load(Relaxed))
    }

    fn stop(&self) -> TimePoint {
        TimePoint::from_nanos(self.stop_ns.load(Relaxed))
    }

    pub fn window_of(&self, at: TimePoint) -> usize {
        (at.saturating_since(self.origin()).as_nanos() / self.window_ns) as usize
    }

    fn record_delivery(&self, published_at: TimePoint, recovered: bool) {
        let now = self.clock.now();
        let ns = now.saturating_since(published_at).as_nanos();
        self.latency.record(self.window_of(now), ns);
        self.by_publish.record_sum(self.window_of(published_at), ns);
        self.delivered.fetch_add(1, Relaxed);
        self.last_delivery_ns.store(now.as_nanos(), Relaxed);
        if recovered {
            self.recovery.record(0, ns);
        }
    }

    fn note_published(&self, published_at: TimePoint, copies: u64) {
        let window = self.window_of(published_at).min(self.published.len() - 1);
        self.published[window].fetch_add(copies, Relaxed);
    }
}

pub fn data(seq: u64, published_at: TimePoint) -> WireMsg {
    WireMsg::Data(DataMsg {
        seq,
        published_at,
        retransmission: false,
    })
}

fn send_to_self(env: &mut Env<'_>, seq: u64, published_at: TimePoint) {
    let node = env.node();
    env.send(node, 64, 0, ProcessingCost::FREE, data(seq, published_at));
}

/// Closed loop: keeps `tokens` messages circulating through the endpoint's
/// own socket route; each arrival sends the next. Flow-controlled, so the
/// delivered rate *is* the runtime's capacity and repeats from run to run.
///
/// It does not emit `Effect::Deliver`: at millions of messages a second the
/// runtime's unbounded `EndpointReport.delivered` would grow by ~170 MB/s.
pub struct EchoCore {
    shared: Arc<Shared>,
    tokens: u32,
    next_tx: u64,
    next_rx: u64,
    rx_at_last_watchdog: u64,
}

/// Every this many tokens, one carries a bench-clock stamp and its round
/// trip is recorded; reading the clock for all of them would cost a tenth
/// of the per-message budget being measured.
pub const ECHO_SAMPLE_EVERY: u64 = 16;
/// A silent endpoint has lost all its tokens; the watchdog re-injects them.
const ECHO_WATCHDOG: Span = Span::from_millis(250);

impl EchoCore {
    pub fn new(shared: Arc<Shared>, tokens: u32) -> Self {
        EchoCore {
            shared,
            tokens,
            next_tx: 0,
            next_rx: 0,
            rx_at_last_watchdog: 0,
        }
    }

    fn inject(&mut self, env: &mut Env<'_>, count: u64) {
        for _ in 0..count {
            let stamp = if self.next_tx.is_multiple_of(ECHO_SAMPLE_EVERY) {
                self.shared.clock.now()
            } else {
                env.now()
            };
            send_to_self(env, self.next_tx, stamp);
            self.next_tx += 1;
        }
    }
}

impl ProtocolCore for EchoCore {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                self.inject(env, u64::from(self.tokens));
                env.set_timer(ECHO_WATCHDOG, 0);
            }
            Input::PacketIn {
                msg: WireMsg::Data(d),
                ..
            } => {
                // The tokens between the expected and the arrived sequence
                // were lost: replace them too.
                let gap = d.seq.saturating_sub(self.next_rx);
                let stale = d.seq < self.next_rx;
                self.next_rx = self.next_rx.max(d.seq + 1);
                let shared = &*self.shared;
                if gap > 0 {
                    shared.lost.fetch_add(gap, Relaxed);
                }
                if stale {
                    shared.out_of_order.fetch_add(1, Relaxed);
                }
                if d.seq.is_multiple_of(ECHO_SAMPLE_EVERY) {
                    let now = shared.clock.now();
                    let ns = now.saturating_since(d.published_at).as_nanos();
                    shared.latency.record(shared.window_of(now), ns);
                }
                shared.delivered.fetch_add(1, Relaxed);
                self.inject(env, 1 + gap);
            }
            Input::TimerFired { .. } => {
                if self.next_rx == self.rx_at_last_watchdog && self.next_tx > self.next_rx {
                    let lost = self.next_tx - self.next_rx;
                    self.shared.lost.fetch_add(lost, Relaxed);
                    self.next_rx = self.next_tx;
                    self.inject(env, lost);
                }
                self.rx_at_last_watchdog = self.next_rx;
                env.set_timer(ECHO_WATCHDOG, 0);
            }
            Input::PacketIn { .. } | Input::Tick => {}
        }
    }
}

/// Open loop: publishes one message to itself every `period`, on a schedule
/// that does not slow when the runtime slows (`next_due += period`), and
/// stamps each with the time it was *due*, so a stall is charged to every
/// message it delayed.
pub struct PacedCore {
    shared: Arc<Shared>,
    period: Span,
    next_due: TimePoint,
    next_tx: u64,
    next_rx: u64,
}

impl PacedCore {
    /// `phase` is the offset of the first publication from the origin.
    pub fn new(shared: Arc<Shared>, period: Span, phase: Span) -> Self {
        PacedCore {
            shared,
            period,
            // Relative to the origin until `Start` rebases it.
            next_due: TimePoint::ZERO + phase,
            next_tx: 0,
            next_rx: 0,
        }
    }

    pub fn published(&self) -> u64 {
        self.next_tx
    }

    fn rearm(&self, env: &mut Env<'_>) {
        if self.next_due < self.shared.stop() {
            env.set_timer(self.next_due.saturating_since(env.now()), 0);
        }
    }
}

impl ProtocolCore for PacedCore {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                let phase = Span::from_nanos(self.next_due.as_nanos());
                self.next_due = self.shared.origin() + phase;
                self.rearm(env);
            }
            Input::TimerFired { .. } => {
                let PacedCore {
                    shared,
                    period,
                    next_due,
                    next_tx,
                    ..
                } = self;
                let now = shared.clock.now();
                let stop = shared.stop();
                // More than one is due only after a stall longer than a
                // period; the schedule then catches up instead of slipping.
                while *next_due <= now && *next_due < stop {
                    let late = now.saturating_since(*next_due).as_nanos();
                    shared.timer_late.record(0, late);
                    shared.note_published(*next_due, 1);
                    send_to_self(env, *next_tx, *next_due);
                    *next_tx += 1;
                    *next_due += *period;
                }
                self.rearm(env);
            }
            Input::PacketIn {
                msg: WireMsg::Data(d),
                ..
            } => {
                // A gap is a loss (counted as published but never delivered);
                // only a sequence arriving twice or backwards breaks order.
                let stale = d.seq < self.next_rx;
                self.next_rx = self.next_rx.max(d.seq + 1);
                if stale {
                    self.shared.out_of_order.fetch_add(1, Relaxed);
                }
                self.shared.record_delivery(d.published_at, false);
                env.deliver(d.seq, d.published_at, false);
            }
            Input::PacketIn { .. } | Input::Tick => {}
        }
    }
}

/// A measuring tap around one of the repository's own transport cores: it
/// forwards every input unchanged and reads the effects the core emitted.
/// Around a receiver it times each `Deliver`; around a sender it counts each
/// first transmission as `copies` expected deliveries.
pub struct Probe<C> {
    pub inner: C,
    shared: Arc<Shared>,
    /// Readers each publication fans out to (0 around a receiver).
    copies: u64,
    /// Samples the sender published before the stop time: the ones every
    /// reader is expected to deliver by the end of the run.
    pub published_before_stop: u64,
}

impl<C> Probe<C> {
    pub fn new(inner: C, shared: Arc<Shared>, copies: u64) -> Self {
        Probe {
            inner,
            shared,
            copies,
            published_before_stop: 0,
        }
    }
}

impl<C: ProtocolCore> ProtocolCore for Probe<C> {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        let mark = env.effects_len();
        self.inner.step(input, env);
        if env.effects_len() == mark {
            return;
        }
        let shared = &*self.shared;
        for effect in env.effects_since(mark) {
            match effect {
                Effect::Deliver {
                    published_at,
                    recovered,
                    ..
                } => shared.record_delivery(*published_at, *recovered),
                Effect::Send {
                    msg: WireMsg::Data(d),
                    ..
                } if !d.retransmission && self.copies > 0 => {
                    shared.note_published(d.published_at, self.copies);
                    if d.published_at < shared.stop() {
                        self.published_before_stop = d.seq + 1;
                    }
                }
                _ => {}
            }
        }
    }
}
