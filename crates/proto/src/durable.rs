//! Durable delivery: the [`DurableCore`] wrapper that adds
//! RTPS-grade `TRANSIENT_LOCAL` history to any sans-I/O session core.
//!
//! A durable **writer** wraps a publishing core: it observes every
//! original data packet the inner core sends, retains `(seq,
//! published_at)` in a [`HistoryCache`], advertises the retained range
//! `[first_seq, last_seq]` on a timer
//! ([`DurableHeartbeatMsg`](crate::wire::DurableHeartbeatMsg)), and
//! answers catch-up NAKs ([`DurableNakMsg`](crate::wire::DurableNakMsg))
//! with unicast replays — including after the inner stream has finished,
//! when ordinary session heartbeats have stopped.
//!
//! A durable **reader** wraps a receiving core. On start (first join or a
//! restart as a new incarnation) it holds live traffic until the first
//! durable heartbeat reveals the stream position, then positions the
//! inner core at the live edge via [`LiveJoin::join_at`] and — in
//! [`DurabilityMode::TransientLocal`] — runs the catch-up protocol for
//! everything older: a [`GapTracker`] batch-NAKs the wanted history with
//! retry + exponential backoff + timeout (the same idiom as the NAKcast
//! re-NAK schedule), replayed samples are delivered by the wrapper, and a
//! `delivered` set carried across incarnations dedupes what the previous
//! life already handed to the application. A
//! [`DurabilityMode::Volatile`] reader joins at the live edge and
//! requests nothing.
//!
//! The wrapper is itself a [`ProtocolCore`], so the simulator and the
//! real-UDP runtime share this one implementation.

use std::collections::{BTreeSet, VecDeque};

use crate::core::{Effect, Env, Input, ProtocolCore, TimerToken};
use crate::history::{catch_up_backoff, GapTracker, HistoryCache};
use crate::ids::{GroupId, NodeId, ProcessingCost};
use crate::obs::ObsEvent;
use crate::time::{Span, TimePoint};
use crate::wire::{DataMsg, DurableHeartbeatMsg, DurableNakMsg, WireMsg};

/// Timer tag for the writer's durable-history advertisement. High base so
/// wrapped cores' own tags (small integers) can never collide.
const TIMER_DURABLE_ADVERT: u64 = 1 << 32;
/// Timer tag for the reader's catch-up NAK retry.
const TIMER_CATCH_UP: u64 = (1 << 32) + 1;

/// Stats tag for durable history advertisements.
pub const TAG_DURABLE_HEARTBEAT: u16 = 12;
/// Stats tag for durable catch-up NAKs.
pub const TAG_DURABLE_NAK: u16 = 13;

/// Wire size charged for a durable control packet (framing + body).
const DURABLE_CONTROL_BYTES: u32 = 62;
/// Bytes per sequence listed in a catch-up NAK.
const DURABLE_NAK_PER_SEQ_BYTES: u32 = 8;
/// Live packets a not-yet-joined reader will hold before shedding the
/// oldest (bounds memory if the writer's durable heartbeat never comes).
const HOLD_CAP: usize = 4096;
/// Largest advertised history span a joining reader will request; anything
/// older is abandoned up front. Bounds the work and memory a single
/// (possibly hostile) durable heartbeat can cause, far above any history
/// depth the experiments configure.
const CATCH_UP_SPAN_CAP: u64 = 1 << 16;

/// Opt-in hook for receiver cores that can join a stream mid-flight: the
/// durable reader wrapper calls [`join_at`](Self::join_at) once, before
/// any live traffic reaches the inner core, so the inner core treats
/// `next` as the start of the stream instead of NAKing all of history.
///
/// The default implementation ignores the call, which is correct for
/// sender cores and for receivers that always start at sequence 0.
pub trait LiveJoin {
    /// Position the core at the live edge: the next expected in-order
    /// sequence is `next`, and nothing below it will ever be requested.
    fn join_at(&mut self, next: u64) {
        let _ = next;
    }
}

/// The durability level of a session endpoint, mirroring the DDS
/// `DURABILITY` QoS kinds the dds layer maps onto this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DurabilityMode {
    /// No history: a (re)joining reader starts at the live edge.
    Volatile,
    /// The writer retains history and a (re)joining reader catches up on
    /// every sample still retained.
    TransientLocal,
}

/// Tuning for the durable wrapper, shared by both roles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurableConfig {
    /// Reader-side durability level (writers always retain).
    pub mode: DurabilityMode,
    /// Writer history depth; `None` retains the whole stream.
    pub history_depth: Option<usize>,
    /// Period of the writer's retained-range advertisement.
    pub advert_interval: Span,
    /// Reader wait for replays after a catch-up NAK round before retrying
    /// (the backoff schedule adds on top of this).
    pub nak_timeout: Span,
    /// Catch-up retry rounds permitted after the first.
    pub max_retries: u32,
    /// Declared CPU cost of durable control packets.
    pub control_cost: ProcessingCost,
}

impl DurableConfig {
    /// A `TransientLocal` configuration with default timing.
    pub fn transient_local() -> Self {
        DurableConfig {
            mode: DurabilityMode::TransientLocal,
            history_depth: None,
            advert_interval: Span::from_millis(50),
            nak_timeout: Span::from_millis(20),
            max_retries: 10,
            control_cost: ProcessingCost::symmetric(Span::from_micros(15)),
        }
    }

    /// A `Volatile` configuration with default timing.
    pub fn volatile() -> Self {
        DurableConfig {
            mode: DurabilityMode::Volatile,
            ..Self::transient_local()
        }
    }

    /// A configuration for `mode` with default timing.
    pub fn for_mode(mode: DurabilityMode) -> Self {
        match mode {
            DurabilityMode::Volatile => Self::volatile(),
            DurabilityMode::TransientLocal => Self::transient_local(),
        }
    }

    /// Bounds the writer's retained history (builder-style).
    pub fn with_history_depth(mut self, depth: usize) -> Self {
        self.history_depth = Some(depth);
        self
    }

    /// Sets the advertisement period (builder-style).
    pub fn with_advert_interval(mut self, interval: Span) -> Self {
        self.advert_interval = interval;
        self
    }

    /// Sets the catch-up NAK timeout (builder-style).
    pub fn with_nak_timeout(mut self, timeout: Span) -> Self {
        self.nak_timeout = timeout;
        self
    }

    /// Sets the catch-up retry budget (builder-style).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }
}

/// A conservative upper bound on how long a restarted `TransientLocal`
/// reader can take to finish catch-up, measured from its restart: one
/// advert interval to learn the retained range, then the full NAK retry
/// schedule (timeout plus exponential backoff, for every permitted
/// round). The invariant checker uses this as the recovery-latency bound.
pub fn catch_up_bound(config: &DurableConfig) -> Span {
    let mut bound = config.advert_interval;
    for retries in 0..=config.max_retries {
        bound = bound + config.nak_timeout + catch_up_backoff(retries);
    }
    bound
}

/// One sample the durable reader handed to the application, across both
/// the live path (inner core) and the catch-up path (wrapper replays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableDelivery {
    /// Application sequence number.
    pub seq: u64,
    /// When the publisher stamped the sample.
    pub published_at: TimePoint,
    /// When this incarnation delivered it.
    pub delivered_at: TimePoint,
    /// Whether it arrived through a recovery path (NAK retransmission or
    /// durable replay).
    pub recovered: bool,
}

#[derive(Debug, Clone)]
struct WriterState {
    group: GroupId,
    cache: HistoryCache,
    /// `(size_bytes, tag, cost)` of the last original data packet the
    /// inner core sent — the template durable replays are charged as.
    template: Option<(u32, u16, ProcessingCost)>,
    replayed: u64,
}

#[derive(Debug, Clone)]
struct ReaderState {
    writer: NodeId,
    joined: bool,
    join_floor: u64,
    hold: VecDeque<(NodeId, WireMsg)>,
    gaps: GapTracker,
    delivered: BTreeSet<u64>,
    log: Vec<DurableDelivery>,
    catch_up_timer: Option<TimerToken>,
    catch_up_naks: u64,
    recovered_catch_up: u64,
    abandoned: u64,
    duplicates: u64,
    completed: bool,
    caught_up_at: Option<TimePoint>,
}

#[derive(Debug, Clone)]
enum Role {
    Writer(WriterState),
    Reader(ReaderState),
}

/// The durable wrapper around an inner session core. See the module docs
/// for the protocol; construct with [`writer`](Self::writer) or
/// [`reader`](Self::reader).
#[derive(Debug, Clone)]
pub struct DurableCore<C> {
    inner: C,
    config: DurableConfig,
    role: Role,
}

impl<C> DurableCore<C> {
    /// Wraps a publishing core: retained history is advertised into
    /// `group` and catch-up NAKs are answered with unicast replays.
    pub fn writer(inner: C, group: GroupId, config: DurableConfig) -> Self {
        let cache = match config.history_depth {
            Some(depth) => HistoryCache::bounded(depth),
            None => HistoryCache::unbounded(),
        };
        DurableCore {
            inner,
            config,
            role: Role::Writer(WriterState {
                group,
                cache,
                template: None,
                replayed: 0,
            }),
        }
    }

    /// Wraps a receiving core expecting history from `writer`.
    pub fn reader(inner: C, writer: NodeId, config: DurableConfig) -> Self {
        let max_retries = config.max_retries;
        DurableCore {
            inner,
            config,
            role: Role::Reader(ReaderState {
                writer,
                joined: false,
                join_floor: 0,
                hold: VecDeque::new(),
                gaps: GapTracker::new(max_retries),
                delivered: BTreeSet::new(),
                log: Vec::new(),
                catch_up_timer: None,
                catch_up_naks: 0,
                recovered_catch_up: 0,
                abandoned: 0,
                duplicates: 0,
                completed: false,
                caught_up_at: None,
            }),
        }
    }

    /// Seeds a reader with the sequences a previous incarnation already
    /// delivered (application-persisted progress), so the new incarnation
    /// neither re-requests nor re-delivers them (builder-style).
    ///
    /// # Panics
    /// If called on a writer.
    pub fn with_delivered(mut self, delivered: BTreeSet<u64>) -> Self {
        match &mut self.role {
            Role::Reader(r) => r.delivered = delivered,
            Role::Writer(_) => panic!("with_delivered applies to durable readers"),
        }
        self
    }

    /// The wrapped core.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mutable access to the wrapped core.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// The configured durability mode.
    pub fn mode(&self) -> DurabilityMode {
        self.config.mode
    }

    /// The writer's history cache (`None` on a reader).
    pub fn history(&self) -> Option<&HistoryCache> {
        match &self.role {
            Role::Writer(w) => Some(&w.cache),
            Role::Reader(_) => None,
        }
    }

    /// Samples this writer replayed from its cache (0 on a reader).
    pub fn replayed(&self) -> u64 {
        match &self.role {
            Role::Writer(w) => w.replayed,
            Role::Reader(_) => 0,
        }
    }

    fn reader_state(&self) -> &ReaderState {
        match &self.role {
            Role::Reader(r) => r,
            Role::Writer(_) => panic!("not a durable reader"),
        }
    }

    /// Every sequence delivered to the application, including those the
    /// constructor inherited from a previous incarnation.
    ///
    /// # Panics
    /// If called on a writer.
    pub fn delivered_set(&self) -> &BTreeSet<u64> {
        &self.reader_state().delivered
    }

    /// This incarnation's delivery log (live and catch-up paths).
    ///
    /// # Panics
    /// If called on a writer.
    pub fn deliveries(&self) -> &[DurableDelivery] {
        &self.reader_state().log
    }

    /// Catch-up NAK rounds sent.
    ///
    /// # Panics
    /// If called on a writer.
    pub fn catch_up_naks(&self) -> u64 {
        self.reader_state().catch_up_naks
    }

    /// Historical samples recovered through the catch-up path.
    ///
    /// # Panics
    /// If called on a writer.
    pub fn recovered_via_catch_up(&self) -> u64 {
        self.reader_state().recovered_catch_up
    }

    /// Historical sequences abandoned (evicted by the writer or retry
    /// budget exhausted).
    ///
    /// # Panics
    /// If called on a writer.
    pub fn catch_up_abandoned(&self) -> u64 {
        self.reader_state().abandoned
    }

    /// Cross-incarnation duplicates suppressed before reaching the
    /// application.
    ///
    /// # Panics
    /// If called on a writer.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.reader_state().duplicates
    }

    /// When catch-up completed with every wanted sample recovered;
    /// `None` while catch-up is in flight, was abandoned, or on Volatile.
    ///
    /// # Panics
    /// If called on a writer.
    pub fn caught_up_at(&self) -> Option<TimePoint> {
        self.reader_state().caught_up_at
    }

    /// Whether the reader has positioned itself at the live edge.
    ///
    /// # Panics
    /// If called on a writer.
    pub fn is_joined(&self) -> bool {
        self.reader_state().joined
    }
}

impl<C: ProtocolCore + LiveJoin> ProtocolCore for DurableCore<C> {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        let DurableCore {
            inner,
            config,
            role,
        } = self;
        match role {
            Role::Writer(w) => writer_step(inner, config, w, input, env),
            Role::Reader(r) => reader_step(inner, config, r, input, env),
        }
    }
}

// ---------------------------------------------------------------- writer

fn writer_step<C: ProtocolCore>(
    inner: &mut C,
    config: &DurableConfig,
    w: &mut WriterState,
    input: Input<'_>,
    env: &mut Env<'_>,
) {
    match input {
        Input::Start => {
            let mark = env.effects_len();
            inner.step(Input::Start, env);
            retain_outgoing(w, env, mark);
            env.set_timer(config.advert_interval, TIMER_DURABLE_ADVERT);
        }
        Input::TimerFired {
            tag: TIMER_DURABLE_ADVERT,
            ..
        } => {
            if let (Some(first), Some(last)) = (w.cache.first_seq(), w.cache.last_seq()) {
                env.send(
                    w.group,
                    DURABLE_CONTROL_BYTES,
                    TAG_DURABLE_HEARTBEAT,
                    config.control_cost,
                    WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
                        first_seq: first,
                        last_seq: last,
                    }),
                );
            }
            env.set_timer(config.advert_interval, TIMER_DURABLE_ADVERT);
        }
        Input::PacketIn {
            src,
            msg: WireMsg::DurableNak(nak),
        } => {
            let (size, tag, cost) = w.template.unwrap_or((
                DURABLE_CONTROL_BYTES,
                TAG_DURABLE_HEARTBEAT,
                config.control_cost,
            ));
            for &seq in &nak.seqs {
                let Some(published_at) = w.cache.get(seq) else {
                    continue; // evicted or never published: reader abandons
                };
                env.send(
                    src,
                    size,
                    tag,
                    cost,
                    WireMsg::Data(DataMsg {
                        seq,
                        published_at,
                        retransmission: true,
                    }),
                );
                w.replayed += 1;
                env.emit(|node| ObsEvent::DurableReplayed { node, seq });
            }
        }
        other => {
            let mark = env.effects_len();
            inner.step(other, env);
            retain_outgoing(w, env, mark);
        }
    }
}

/// Scans the effects the inner step appended for original data sends and
/// retains them in the history cache.
fn retain_outgoing(w: &mut WriterState, env: &mut Env<'_>, mark: usize) {
    let mut fresh: Vec<(u64, TimePoint, u32, u16, ProcessingCost)> = Vec::new();
    for effect in env.effects_since(mark) {
        if let Effect::Send {
            size_bytes,
            tag,
            cost,
            msg: WireMsg::Data(d),
            ..
        } = effect
        {
            if !d.retransmission {
                fresh.push((d.seq, d.published_at, *size_bytes, *tag, *cost));
            }
        }
    }
    for (seq, at, size, tag, cost) in fresh {
        w.template = Some((size, tag, cost));
        if let Some(victim) = w.cache.push(seq, at) {
            env.emit(|node| ObsEvent::HistoryEvicted { node, seq: victim });
        }
        let retained = w.cache.len() as u64;
        env.emit(|node| ObsEvent::HistoryRetained {
            node,
            seq,
            retained,
        });
    }
}

// ---------------------------------------------------------------- reader

fn reader_step<C: ProtocolCore + LiveJoin>(
    inner: &mut C,
    config: &DurableConfig,
    r: &mut ReaderState,
    input: Input<'_>,
    env: &mut Env<'_>,
) {
    match input {
        Input::PacketIn {
            src,
            msg: WireMsg::DurableHeartbeat(hb),
        } => on_durable_heartbeat(inner, config, r, src, *hb, env),
        Input::PacketIn { src, msg } if !r.joined && is_session_traffic(msg) => {
            if r.hold.len() >= HOLD_CAP {
                r.hold.pop_front();
            }
            r.hold.push_back((src, msg.clone()));
        }
        Input::PacketIn { src: _, msg } if r.joined && below_floor(r, msg) => {
            let WireMsg::Data(d) = msg else {
                unreachable!()
            };
            catch_up_arrival(r, *d, env);
        }
        Input::TimerFired {
            tag: TIMER_CATCH_UP,
            ..
        } => on_catch_up_timer(r, config, env),
        other => forward_to_inner(inner, r, other, env),
    }
}

/// Session traffic a not-yet-joined reader must not leak into the inner
/// core (it would treat the whole back history as loss).
fn is_session_traffic(msg: &WireMsg) -> bool {
    matches!(
        msg,
        WireMsg::Data(_) | WireMsg::Heartbeat(_) | WireMsg::Fin(_)
    )
}

/// Whether `msg` is a data packet the wrapper owns: a historical sequence
/// below the join floor (a durable replay, or a stray live copy published
/// before the join).
fn below_floor(r: &ReaderState, msg: &WireMsg) -> bool {
    matches!(msg, WireMsg::Data(d) if d.seq < r.join_floor)
}

fn on_durable_heartbeat<C: ProtocolCore + LiveJoin>(
    inner: &mut C,
    config: &DurableConfig,
    r: &mut ReaderState,
    _src: NodeId,
    hb: DurableHeartbeatMsg,
    env: &mut Env<'_>,
) {
    if !r.joined {
        join(inner, config, r, hb, env);
        return;
    }
    // The writer's retained range can shrink from below (bounded cache):
    // anything we still want below the new floor is unrecoverable.
    if config.mode == DurabilityMode::TransientLocal && !r.completed {
        let gone = r.gaps.abandon_below(hb.first_seq);
        if !gone.is_empty() {
            r.abandoned += gone.len() as u64;
            let count = gone.len() as u32;
            env.emit(|node| ObsEvent::CatchUpAbandoned { node, count });
            if r.gaps.is_empty() {
                // Abandonment ended catch-up: terminal, but not a
                // successful completion.
                r.completed = true;
                if let Some(token) = r.catch_up_timer.take() {
                    env.cancel_timer(token);
                }
            }
        }
    }
}

fn join<C: ProtocolCore + LiveJoin>(
    inner: &mut C,
    config: &DurableConfig,
    r: &mut ReaderState,
    hb: DurableHeartbeatMsg,
    env: &mut Env<'_>,
) {
    r.joined = true;
    // Saturate rather than overflow: a hostile heartbeat advertising
    // `last_seq == u64::MAX` must not panic the reader (fuzz finding).
    r.join_floor = hb.last_seq.saturating_add(1);
    inner.join_at(r.join_floor);

    // Drain the held live traffic: historical data is wrapper-owned, the
    // rest flows into the freshly positioned inner core.
    let held: Vec<(NodeId, WireMsg)> = r.hold.drain(..).collect();
    for (src, msg) in held {
        match msg {
            WireMsg::Data(d) if d.seq < r.join_floor => catch_up_arrival(r, d, env),
            msg => forward_to_inner(inner, r, Input::PacketIn { src, msg: &msg }, env),
        }
    }

    match config.mode {
        DurabilityMode::Volatile => {
            // No history wanted: terminal immediately, nothing to emit.
            r.completed = true;
        }
        DurabilityMode::TransientLocal => {
            // Only the newest `CATCH_UP_SPAN_CAP` advertised sequences are
            // requested; a hostile heartbeat claiming an astronomical
            // retained range must not make the reader enumerate it (fuzz
            // finding — the work here has to stay bounded by reader state,
            // not by attacker-chosen integers).
            let start = hb
                .first_seq
                .max(r.join_floor.saturating_sub(CATCH_UP_SPAN_CAP));
            for seq in start..r.join_floor {
                if !r.delivered.contains(&seq) {
                    r.gaps.want(seq);
                }
            }
            // Sequences the writer already evicted — or beyond the span
            // this reader will request — are gone for good.
            let lost = start.saturating_sub(r.delivered.range(..start).count() as u64);
            if lost > 0 {
                r.abandoned += lost;
                let count = lost.min(u64::from(u32::MAX)) as u32;
                env.emit(|node| ObsEvent::CatchUpAbandoned { node, count });
            }
            if r.gaps.is_empty() {
                complete(r, env);
            } else {
                send_catch_up_round(r, config, env);
            }
        }
    }
}

/// A historical data packet the wrapper owns: dedupe across incarnations,
/// deliver, and advance catch-up.
fn catch_up_arrival(r: &mut ReaderState, d: DataMsg, env: &mut Env<'_>) {
    let was_wanted = r.gaps.resolve(d.seq);
    if !r.delivered.insert(d.seq) {
        r.duplicates += 1;
        let seq = d.seq;
        env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
    } else {
        let recovered = d.retransmission;
        env.deliver(d.seq, d.published_at, recovered);
        let delivered_at = env.now();
        env.emit(|node| ObsEvent::SampleAccepted {
            node,
            seq: d.seq,
            published_ns: d.published_at.as_nanos(),
            delivered_ns: delivered_at.as_nanos(),
            recovered,
        });
        r.log.push(DurableDelivery {
            seq: d.seq,
            published_at: d.published_at,
            delivered_at,
            recovered,
        });
        if recovered {
            r.recovered_catch_up += 1;
        }
    }
    if was_wanted && r.gaps.is_empty() && !r.completed {
        complete(r, env);
    }
}

fn complete(r: &mut ReaderState, env: &mut Env<'_>) {
    r.completed = true;
    r.caught_up_at = Some(env.now());
    if let Some(token) = r.catch_up_timer.take() {
        env.cancel_timer(token);
    }
    let recovered = r.recovered_catch_up;
    env.emit(|node| ObsEvent::CatchUpCompleted { node, recovered });
}

fn send_catch_up_round(r: &mut ReaderState, config: &DurableConfig, env: &mut Env<'_>) {
    let seqs = r.gaps.begin_round();
    if seqs.is_empty() {
        return;
    }
    let count = seqs.len() as u32;
    env.send(
        r.writer,
        DURABLE_CONTROL_BYTES + DURABLE_NAK_PER_SEQ_BYTES * count,
        TAG_DURABLE_NAK,
        config.control_cost,
        WireMsg::DurableNak(DurableNakMsg { seqs }),
    );
    r.catch_up_naks += 1;
    env.emit(|node| ObsEvent::CatchUpNakSent { node, count });
    let delay = r.gaps.retry_delay(config.nak_timeout);
    r.catch_up_timer = Some(env.set_timer(delay, TIMER_CATCH_UP));
}

fn on_catch_up_timer(r: &mut ReaderState, config: &DurableConfig, env: &mut Env<'_>) {
    r.catch_up_timer = None;
    if r.completed || r.gaps.is_empty() {
        return;
    }
    if r.gaps.exhausted() {
        let gone = r.gaps.abandon_all();
        r.abandoned += gone.len() as u64;
        let count = gone.len() as u32;
        env.emit(|node| ObsEvent::CatchUpAbandoned { node, count });
        // Terminal, but not a successful catch-up: `caught_up_at` stays
        // `None` so the invariant checker flags the unrecovered history.
        r.completed = true;
        return;
    }
    send_catch_up_round(r, config, env);
}

/// Forwards an input to the inner core, absorbing its deliveries into the
/// reader's cross-incarnation log and suppressing duplicates the previous
/// incarnation already handed up.
fn forward_to_inner<C: ProtocolCore>(
    inner: &mut C,
    r: &mut ReaderState,
    input: Input<'_>,
    env: &mut Env<'_>,
) {
    let mark = env.effects_len();
    inner.step(input, env);
    let mut dups: BTreeSet<u64> = BTreeSet::new();
    let mut fresh: Vec<(u64, TimePoint, bool)> = Vec::new();
    for effect in env.effects_since(mark) {
        if let Effect::Deliver {
            seq,
            published_at,
            recovered,
        } = effect
        {
            if r.delivered.contains(seq) {
                dups.insert(*seq);
            } else {
                fresh.push((*seq, *published_at, *recovered));
            }
        }
    }
    if !dups.is_empty() {
        env.retain_effects_since(mark, |effect| match effect {
            Effect::Deliver { seq, .. } => !dups.contains(seq),
            Effect::Trace(ObsEvent::SampleAccepted { seq, .. }) => !dups.contains(seq),
            _ => true,
        });
        for seq in dups {
            r.duplicates += 1;
            env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
        }
    }
    let delivered_at = env.now();
    for (seq, published_at, recovered) in fresh {
        r.delivered.insert(seq);
        r.log.push(DurableDelivery {
            seq,
            published_at,
            delivered_at,
            recovered,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::EnvHost;

    /// Toy publisher: sends one original data packet per `Tick`.
    struct TestPub {
        group: GroupId,
        next: u64,
    }

    impl ProtocolCore for TestPub {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            if let Input::Tick = input {
                let seq = self.next;
                self.next += 1;
                env.send(
                    self.group,
                    118,
                    1,
                    ProcessingCost::FREE,
                    WireMsg::Data(DataMsg {
                        seq,
                        published_at: env.now(),
                        retransmission: false,
                    }),
                );
            }
        }
    }

    impl LiveJoin for TestPub {}

    /// Toy receiver: delivers every data packet immediately, remembers
    /// where it was told to join.
    struct TestSink {
        joined_at: Option<u64>,
        delivered: Vec<u64>,
    }

    impl TestSink {
        fn new() -> Self {
            TestSink {
                joined_at: None,
                delivered: Vec::new(),
            }
        }
    }

    impl ProtocolCore for TestSink {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            if let Input::PacketIn {
                msg: WireMsg::Data(d),
                ..
            } = input
            {
                self.delivered.push(d.seq);
                env.deliver(d.seq, d.published_at, d.retransmission);
            }
        }
    }

    impl LiveJoin for TestSink {
        fn join_at(&mut self, next: u64) {
            self.joined_at = Some(next);
        }
    }

    fn sends_of(effects: &[Effect]) -> Vec<&WireMsg> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn writer_retains_advertises_and_replays() {
        let mut host = EnvHost::new(NodeId(0), 1).with_groups(vec![vec![NodeId(1)]]);
        let mut writer = DurableCore::writer(
            TestPub {
                group: GroupId(0),
                next: 0,
            },
            GroupId(0),
            DurableConfig::transient_local().with_history_depth(8),
        );
        let start = host.step(&mut writer, TimePoint::ZERO, Input::Start);
        let (advert_token, advert_tag) = match start[..] {
            [Effect::SetTimer { token, tag, .. }] => (token, tag),
            ref other => panic!("unexpected start effects: {other:?}"),
        };
        for i in 0..12u64 {
            host.step(&mut writer, TimePoint::from_millis(i), Input::Tick);
        }
        let cache = writer.history().unwrap();
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.first_seq(), Some(4));
        assert_eq!(cache.evicted(), 4);

        // The advert timer announces the retained range to the group.
        let fired = host.step(
            &mut writer,
            TimePoint::from_millis(50),
            Input::TimerFired {
                token: advert_token,
                tag: advert_tag,
            },
        );
        assert!(sends_of(&fired).iter().any(|m| matches!(
            m,
            WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
                first_seq: 4,
                last_seq: 11,
            })
        )));

        // A catch-up NAK is answered from the cache; evicted seqs are not.
        let nak = WireMsg::DurableNak(DurableNakMsg {
            seqs: vec![2, 5, 7],
        });
        let replies = host.step(
            &mut writer,
            TimePoint::from_millis(51),
            Input::PacketIn {
                src: NodeId(1),
                msg: &nak,
            },
        );
        let datas: Vec<u64> = sends_of(&replies)
            .iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => {
                    assert!(d.retransmission);
                    Some(d.seq)
                }
                _ => None,
            })
            .collect();
        assert_eq!(datas, vec![5, 7]);
        assert_eq!(writer.replayed(), 2);
    }

    fn durable_hb(first: u64, last: u64) -> WireMsg {
        WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
            first_seq: first,
            last_seq: last,
        })
    }

    /// Property: across randomized loss schedules, exhausting the NAK
    /// retry budget is *always* reported — `CatchUpAbandoned` emitted,
    /// `catch_up_abandoned()` accounting every unrecovered sequence, and
    /// `caught_up_at()` left `None` — never passed off as a successful
    /// catch-up. Recovery and abandonment must partition the wanted span
    /// exactly on every schedule.
    #[test]
    fn retry_abandonment_is_always_reported_across_loss_schedules() {
        const TOTAL: u64 = 5;
        let mut abandoned_runs = 0;
        let mut clean_runs = 0;
        for seed in 0..200u64 {
            let mut rng = crate::DetRng::seed_from_u64(0xABA2_0000 ^ seed);
            let mut host = EnvHost::new(NodeId(1), seed);
            let config = DurableConfig::transient_local()
                .with_nak_timeout(Span::from_millis(1))
                .with_max_retries(3);
            let mut reader = DurableCore::reader(TestSink::new(), NodeId(0), config);
            host.step(&mut reader, TimePoint::ZERO, Input::Start);
            let mut now = TimePoint::from_millis(1);
            let hb = WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
                first_seq: 0,
                last_seq: TOTAL - 1,
            });
            let mut effects = host.step(
                &mut reader,
                now,
                Input::PacketIn {
                    src: NodeId(0),
                    msg: &hb,
                },
            );

            // Drive the reader's retry loop as a lossy writer: each NAK is
            // dropped outright 1 time in 4, and each requested replay is
            // dropped 1 time in 3. All surviving replays arrive before the
            // retry timer fires (FIFO path), so abandonment only ever
            // happens on a genuinely exhausted budget.
            let mut pending: Option<(TimerToken, u64, TimePoint)> = None;
            let mut reported: u64 = 0; // CatchUpAbandoned counts seen
            for _ in 0..64 {
                let mut replies: Vec<u64> = Vec::new();
                for effect in &effects {
                    match effect {
                        Effect::Send {
                            msg: WireMsg::DurableNak(nak),
                            ..
                        } if rng.next_below(4) != 0 => {
                            for &seq in &nak.seqs {
                                if rng.next_below(3) != 0 {
                                    replies.push(seq);
                                }
                            }
                        }
                        Effect::SetTimer { token, delay, tag } => {
                            pending = Some((*token, *tag, now + *delay));
                        }
                        Effect::CancelTimer { token }
                            if pending.is_some_and(|(t, _, _)| t == *token) =>
                        {
                            pending = None;
                        }
                        Effect::Trace(ObsEvent::CatchUpAbandoned { count, .. }) => {
                            reported += u64::from(*count);
                        }
                        _ => {}
                    }
                }
                effects = Vec::new();
                for seq in replies {
                    now += Span::from_micros(100);
                    let replay = WireMsg::Data(DataMsg {
                        seq,
                        published_at: TimePoint::from_micros(seq),
                        retransmission: true,
                    });
                    let step = host.step(
                        &mut reader,
                        now,
                        Input::PacketIn {
                            src: NodeId(0),
                            msg: &replay,
                        },
                    );
                    effects.extend(step);
                }
                // Scan replay-step effects for cancels/abandonments too.
                for effect in &effects {
                    match effect {
                        Effect::CancelTimer { token }
                            if pending.is_some_and(|(t, _, _)| t == *token) =>
                        {
                            pending = None;
                        }
                        Effect::Trace(ObsEvent::CatchUpAbandoned { count, .. }) => {
                            reported += u64::from(*count);
                        }
                        _ => {}
                    }
                }
                let Some((token, tag, deadline)) = pending.take() else {
                    break; // terminal: caught up or abandoned
                };
                now = deadline;
                effects = host.step(&mut reader, now, Input::TimerFired { token, tag });
            }
            assert!(pending.is_none(), "seed {seed}: retry loop never quiesced");

            let recovered = reader.recovered_via_catch_up();
            let abandoned = reader.catch_up_abandoned();
            assert_eq!(
                recovered + abandoned,
                TOTAL,
                "seed {seed}: recovery + abandonment must partition the span"
            );
            assert_eq!(
                reported, abandoned,
                "seed {seed}: abandonment count not reported via trace events"
            );
            if abandoned > 0 {
                abandoned_runs += 1;
                assert_eq!(
                    reader.caught_up_at(),
                    None,
                    "seed {seed}: abandonment reported as successful catch-up"
                );
            } else {
                clean_runs += 1;
                assert!(
                    reader.caught_up_at().is_some(),
                    "seed {seed}: full recovery without completion"
                );
                assert_eq!(reader.delivered_set().len() as u64, TOTAL);
            }
        }
        // The schedule distribution must actually exercise both outcomes.
        assert!(abandoned_runs > 10, "only {abandoned_runs} abandoned runs");
        assert!(clean_runs > 10, "only {clean_runs} clean runs");
    }

    #[test]
    fn hostile_heartbeat_with_max_range_is_bounded_and_panic_free() {
        // last_seq == u64::MAX used to overflow `last_seq + 1` (debug
        // panic; silent wrap-to-zero skipping catch-up in release), and a
        // saturating floor alone would enumerate ~2^64 gap entries. The
        // reader must instead join promptly, request at most
        // CATCH_UP_SPAN_CAP sequences, and report the rest abandoned.
        let mut host = EnvHost::new(NodeId(1), 2);
        let mut reader =
            DurableCore::reader(TestSink::new(), NodeId(0), DurableConfig::transient_local());
        host.step(&mut reader, TimePoint::ZERO, Input::Start);
        let hb = durable_hb(0, u64::MAX);
        let effects = host.step(
            &mut reader,
            TimePoint::from_millis(1),
            Input::PacketIn {
                src: NodeId(0),
                msg: &hb,
            },
        );
        assert_eq!(reader.inner().joined_at, Some(u64::MAX), "floor saturates");
        let naked: usize = sends_of(&effects)
            .iter()
            .filter_map(|m| match m {
                WireMsg::DurableNak(n) => Some(n.seqs.len()),
                _ => None,
            })
            .sum();
        assert!(naked as u64 <= CATCH_UP_SPAN_CAP, "requests stay bounded");
        assert!(naked > 0, "the newest span is still requested");
        assert_eq!(
            reader.catch_up_abandoned(),
            u64::MAX - CATCH_UP_SPAN_CAP,
            "everything beyond the cap is abandoned, not silently dropped"
        );
        assert_eq!(reader.caught_up_at(), None);
    }

    #[test]
    fn transient_local_reader_naks_gaps_and_catches_up() {
        let mut host = EnvHost::new(NodeId(1), 2);
        let writer = NodeId(0);
        let mut reader =
            DurableCore::reader(TestSink::new(), writer, DurableConfig::transient_local())
                .with_delivered([0u64, 1].into_iter().collect());
        host.step(&mut reader, TimePoint::ZERO, Input::Start);

        // Live data before the join is held, not leaked to the inner core.
        let live = WireMsg::Data(DataMsg {
            seq: 5,
            published_at: TimePoint::from_millis(9),
            retransmission: false,
        });
        let held = host.step(
            &mut reader,
            TimePoint::from_millis(10),
            Input::PacketIn {
                src: writer,
                msg: &live,
            },
        );
        assert!(held.is_empty());
        assert!(reader.inner().delivered.is_empty());

        // First durable heartbeat: join at 5, want 2..=4 (0 and 1 came
        // from the previous incarnation), and the held packet drains into
        // the inner core.
        let hb = durable_hb(0, 4);
        let joined = host.step(
            &mut reader,
            TimePoint::from_millis(20),
            Input::PacketIn {
                src: writer,
                msg: &hb,
            },
        );
        assert!(reader.is_joined());
        assert_eq!(reader.inner().joined_at, Some(5));
        assert_eq!(reader.inner().delivered, vec![5]);
        let naks: Vec<&WireMsg> = sends_of(&joined);
        assert!(matches!(
            naks[..],
            [WireMsg::DurableNak(DurableNakMsg { ref seqs })] if *seqs == vec![2, 3, 4]
        ));
        assert_eq!(reader.catch_up_naks(), 1);

        // Replays arrive: wrapper delivers them, dedupes nothing, and
        // completes catch-up.
        for seq in [2u64, 3, 4] {
            let replay = WireMsg::Data(DataMsg {
                seq,
                published_at: TimePoint::from_millis(seq),
                retransmission: true,
            });
            let fx = host.step(
                &mut reader,
                TimePoint::from_millis(30 + seq),
                Input::PacketIn {
                    src: writer,
                    msg: &replay,
                },
            );
            assert!(
                fx.iter().any(
                    |e| matches!(e, Effect::Deliver { seq: s, recovered: true, .. } if *s == seq)
                ),
                "replay {seq} must be delivered by the wrapper"
            );
        }
        assert_eq!(reader.recovered_via_catch_up(), 3);
        assert_eq!(reader.caught_up_at(), Some(TimePoint::from_millis(34)));
        let all: BTreeSet<u64> = reader.delivered_set().clone();
        assert_eq!(all, (0..=5).collect());
        // The inner core never saw the historical sequences.
        assert_eq!(reader.inner().delivered, vec![5]);
    }

    #[test]
    fn volatile_reader_joins_live_edge_and_requests_nothing() {
        let mut host = EnvHost::new(NodeId(1), 3);
        let writer = NodeId(0);
        let mut reader = DurableCore::reader(TestSink::new(), writer, DurableConfig::volatile());
        host.step(&mut reader, TimePoint::ZERO, Input::Start);
        let hb = durable_hb(0, 9);
        let fx = host.step(
            &mut reader,
            TimePoint::from_millis(5),
            Input::PacketIn {
                src: writer,
                msg: &hb,
            },
        );
        assert!(sends_of(&fx).is_empty(), "volatile must not NAK history");
        assert_eq!(reader.inner().joined_at, Some(10));
        assert_eq!(reader.caught_up_at(), None);

        // A stray historical replay is still deduped/delivered by the
        // wrapper rather than corrupting the inner core.
        let stray = WireMsg::Data(DataMsg {
            seq: 3,
            published_at: TimePoint::from_millis(1),
            retransmission: true,
        });
        host.step(
            &mut reader,
            TimePoint::from_millis(6),
            Input::PacketIn {
                src: writer,
                msg: &stray,
            },
        );
        assert!(reader.inner().delivered.is_empty());
        assert!(reader.delivered_set().contains(&3));
    }

    #[test]
    fn reader_retries_with_backoff_then_abandons() {
        let mut host = EnvHost::new(NodeId(1), 4);
        let writer = NodeId(0);
        let config = DurableConfig::transient_local()
            .with_nak_timeout(Span::from_millis(10))
            .with_max_retries(1);
        let mut reader = DurableCore::reader(TestSink::new(), writer, config);
        host.step(&mut reader, TimePoint::ZERO, Input::Start);
        let hb = durable_hb(0, 1);
        let fx = host.step(
            &mut reader,
            TimePoint::from_millis(1),
            Input::PacketIn {
                src: writer,
                msg: &hb,
            },
        );
        let timer = fx
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { token, tag, delay } if *tag == TIMER_CATCH_UP => {
                    Some((*token, *delay))
                }
                _ => None,
            })
            .expect("catch-up retry timer armed");
        // First round: timeout + base backoff.
        assert_eq!(timer.1, Span::from_millis(15));

        // Retry fires with no replays heard: one more round, then the
        // budget is spent and the remaining gaps are abandoned.
        let fx = host.step(
            &mut reader,
            TimePoint::from_millis(16),
            Input::TimerFired {
                token: timer.0,
                tag: TIMER_CATCH_UP,
            },
        );
        assert_eq!(sends_of(&fx).len(), 1, "second NAK round");
        let timer2 = fx
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        let fx = host.step(
            &mut reader,
            TimePoint::from_millis(40),
            Input::TimerFired {
                token: timer2,
                tag: TIMER_CATCH_UP,
            },
        );
        assert!(sends_of(&fx).is_empty());
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Trace(ObsEvent::CatchUpAbandoned { count: 2, .. })
        )));
        assert_eq!(reader.catch_up_abandoned(), 2);
        assert_eq!(reader.caught_up_at(), None, "abandonment is not success");
    }

    #[test]
    fn cross_incarnation_duplicates_from_inner_are_suppressed() {
        let mut host = EnvHost::new(NodeId(1), 5);
        let writer = NodeId(0);
        let mut reader =
            DurableCore::reader(TestSink::new(), writer, DurableConfig::transient_local())
                .with_delivered([7u64].into_iter().collect());
        host.step(&mut reader, TimePoint::ZERO, Input::Start);
        let hb = durable_hb(7, 6); // empty wanted range; join floor 7
        host.step(
            &mut reader,
            TimePoint::from_millis(1),
            Input::PacketIn {
                src: writer,
                msg: &hb,
            },
        );
        // join floor is last+1 = 7; the inner core redelivers 7, which the
        // previous incarnation already handed up: suppressed.
        let live = WireMsg::Data(DataMsg {
            seq: 7,
            published_at: TimePoint::from_millis(0),
            retransmission: false,
        });
        let fx = host.step(
            &mut reader,
            TimePoint::from_millis(2),
            Input::PacketIn {
                src: writer,
                msg: &live,
            },
        );
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::Deliver { .. })),
            "duplicate delivery must be vetoed"
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Trace(ObsEvent::SampleDuplicate { seq: 7, .. }))));
        assert_eq!(reader.duplicates_suppressed(), 1);
    }

    #[test]
    fn catch_up_bound_covers_full_schedule() {
        let config = DurableConfig::transient_local();
        let bound = catch_up_bound(&config);
        assert!(bound > config.advert_interval);
        let tight = catch_up_bound(
            &DurableConfig::transient_local()
                .with_nak_timeout(Span::from_millis(1))
                .with_max_retries(0),
        );
        assert_eq!(
            tight,
            Span::from_millis(50) + Span::from_millis(1) + Span::from_millis(5)
        );
    }
}
