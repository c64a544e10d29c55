//! A reader's memory does not grow with run length. A NAKcast receiver,
//! and a `TransientLocal` durable reader wrapping another, are stepped
//! through 10^6 sequences at 5 % loss: most losses come back as
//! retransmissions, one in sixteen never does and is given up, and the
//! durable reader first catches up on history with the same mix. Once the
//! delivered windows have filled to their span, their ring words and the
//! open NAKcast slots stay under constants.

use adamant_proto::wire::{DataMsg, DurableHeartbeatMsg};
use adamant_proto::{
    DurableConfig, DurableCore, Effect, EnvHost, Input, NodeId, ProtocolCore, Span, TimePoint,
    TimerToken, WireMsg, SPAN,
};
use adamant_transport::{DataReader, NakcastReceiver, Tuning};

const SEQS: u64 = 1_000_000;
/// Sequences published before the durable reader joins.
const HISTORY: u64 = 2_000;
/// One sample every 100 µs.
const PERIOD_US: u64 = 100;
/// The windows fill to their span over the first `SPAN` sequences (the
/// given-up holes keep their watermarks back), then slide.
const WARM_UP: u64 = 2 * SPAN;
const MAX_WORDS: usize = (SPAN / 64) as usize + 1;
/// A loss waits out at most four NAK rounds before it is given up: a few
/// hundred sequences arrive meanwhile.
const MAX_OPEN_SLOTS: usize = 2_000;

fn mix(seq: u64) -> u64 {
    (seq ^ 0x5DEE_CE66_D1CE_4E5B).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// One sample in twenty is lost on first transmission.
fn lost(seq: u64) -> bool {
    mix(seq).is_multiple_of(20)
}

/// One in sixteen of those is never retransmitted.
fn unrecoverable(seq: u64) -> bool {
    (mix(seq) / 20).is_multiple_of(16)
}

fn data(seq: u64, retransmission: bool) -> WireMsg {
    WireMsg::Data(DataMsg {
        seq,
        published_at: TimePoint::from_micros(seq * PERIOD_US),
        retransmission,
    })
}

/// Steps a reader as its lossy sender and the network would: sends each
/// sample at its period, answers NAKs and catch-up NAKs with
/// retransmissions 300 µs later, and fires every timer the core arms.
struct Rig<C> {
    core: C,
    host: EnvHost,
    timers: Vec<(TimePoint, TimerToken, u64)>,
    replies: Vec<(TimePoint, u64)>,
    effects: Vec<Effect>,
}

impl<C: ProtocolCore> Rig<C> {
    fn new(mut core: C) -> Self {
        let mut host = EnvHost::new(NodeId(1), 5).with_observed(false);
        let mut effects = Vec::new();
        host.step_into(&mut core, TimePoint::ZERO, Input::Start, &mut effects);
        let mut rig = Rig {
            core,
            host,
            timers: Vec::new(),
            replies: Vec::new(),
            effects,
        };
        rig.absorb(TimePoint::ZERO);
        rig
    }

    fn packet(&mut self, now: TimePoint, msg: &WireMsg) {
        let input = Input::PacketIn {
            src: NodeId(0),
            msg,
        };
        let effects = &mut self.effects;
        self.host.step_into(&mut self.core, now, input, effects);
        self.absorb(now);
    }

    /// Runs everything due before `now`, earliest first.
    fn advance(&mut self, now: TimePoint) {
        loop {
            let timer = self.timers.iter().map(|t| t.0).min();
            let reply = self.replies.iter().map(|r| r.0).min();
            let Some(at) = timer.into_iter().chain(reply).min().filter(|&at| at <= now) else {
                return;
            };
            if timer == Some(at) {
                let index = self.timers.iter().position(|t| t.0 == at).unwrap();
                let (_, token, tag) = self.timers.swap_remove(index);
                let input = Input::TimerFired { token, tag };
                let effects = &mut self.effects;
                self.host.step_into(&mut self.core, at, input, effects);
                self.absorb(at);
            } else {
                let index = self.replies.iter().position(|r| r.0 == at).unwrap();
                let (_, seq) = self.replies.swap_remove(index);
                self.packet(at, &data(seq, true));
            }
        }
    }

    fn absorb(&mut self, now: TimePoint) {
        for effect in self.effects.drain(..) {
            match effect {
                Effect::SetTimer { token, delay, tag } => {
                    self.timers.push((now + delay, token, tag))
                }
                Effect::CancelTimer { token } => self.timers.retain(|t| t.1 != token),
                Effect::Send { msg, .. } => {
                    let seqs = match msg {
                        WireMsg::Nak(nak) => nak.seqs,
                        WireMsg::DurableNak(nak) => nak.seqs,
                        _ => continue,
                    };
                    let at = now + Span::from_micros(300);
                    let answered = seqs.into_iter().filter(|&seq| !unrecoverable(seq));
                    self.replies.extend(answered.map(|seq| (at, seq)));
                }
                _ => {}
            }
        }
    }

    /// Publishes `seqs`, calling `check` after each.
    fn run(&mut self, seqs: std::ops::Range<u64>, mut check: impl FnMut(u64, &C)) {
        for seq in seqs {
            let now = TimePoint::from_micros(seq * PERIOD_US);
            self.advance(now);
            if !lost(seq) {
                self.packet(now, &data(seq, false));
            }
            check(seq, &self.core);
        }
    }
}

fn tuning() -> Tuning {
    Tuning {
        nak_max_retries: 3,
        ..Tuning::default()
    }
}

fn receiver() -> NakcastReceiver {
    NakcastReceiver::new(NodeId(0), SEQS, Span::from_millis(1), tuning(), 0.0)
}

#[test]
fn a_nakcast_readers_memory_is_flat_after_warm_up() {
    let mut rig = Rig::new(receiver());
    let (mut words, mut slots) = (0, 0);
    rig.run(0..SEQS, |seq, rx| {
        if seq >= WARM_UP {
            words = words.max(rx.log().window().word_count());
            slots = slots.max(rx.open_slots());
        }
    });
    assert!(words <= MAX_WORDS, "{words} words");
    assert!(slots <= MAX_OPEN_SLOTS, "{slots} open slots");
    let stats = rig.core.protocol_stats();
    assert!(
        stats.recovered > 30_000 && stats.give_ups > 2_000,
        "{stats:?}"
    );
    assert!(rig.core.log().delivered_count() > SEQS * 99 / 100);
    assert_eq!(stats.window_overflows, 0);
}

#[test]
fn a_durable_readers_memory_is_flat_after_warm_up() {
    let config = DurableConfig::transient_local().with_max_retries(2);
    let mut rig = Rig::new(DurableCore::reader(receiver(), NodeId(0), config));
    // Join at `HISTORY` and catch up on everything before it.
    let joined = TimePoint::from_micros(HISTORY * PERIOD_US);
    rig.advance(joined);
    let advert = WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
        first_seq: 0,
        last_seq: HISTORY - 1,
    });
    rig.packet(joined, &advert);
    let (mut words, mut slots) = (0, 0);
    rig.run(HISTORY..HISTORY + SEQS, |seq, reader| {
        if seq >= HISTORY + WARM_UP {
            let window = reader.delivered_set().word_count();
            words = words.max(window.max(reader.inner().log().window().word_count()));
            slots = slots.max(reader.inner().open_slots());
        }
    });
    assert!(words <= MAX_WORDS, "{words} words");
    assert!(slots <= MAX_OPEN_SLOTS, "{slots} open slots");
    let reader = &rig.core;
    assert!(reader.recovered_via_catch_up() > 50 && reader.catch_up_abandoned() > 0);
    assert!(reader.inner().give_ups() > 2_000);
    assert!(reader.delivered_set().len() as u64 > SEQS * 99 / 100);
}
