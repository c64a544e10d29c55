//! Hostile sequence numbers: after a short in-order prefix, one frame
//! claiming a sequence far past the stream (2^40, `u64::MAX - 1`,
//! `u64::MAX`) must cost O(1) and end in one counted window overflow — no
//! delivery, no new missing entries, nothing sent — after which the reader
//! carries on with the real stream. Before the guard, a NAKcast `Data`
//! frame at 2^20 took 312 ms to walk its gap, and one at 2^40 never
//! returned.
//!
//! A legitimate jump is different: after a partition longer than `SPAN`
//! samples the stream itself resumes far ahead, frame after frame. Readers
//! refuse the first frames but follow the stream after `RESYNC_AFTER` of
//! them, and a reader that gave up more than `SPAN` sequences still
//! delivers what comes next.

use std::time::{Duration, Instant};

use adamant_proto::wire::{DataMsg, FinMsg, HeartbeatMsg, RepairMsg};
use adamant_proto::{
    Effect, EnvHost, GroupId, Input, NodeId, ObsEvent, ProtocolCore, Span, TimePoint, WireMsg,
    RESYNC_AFTER, SPAN,
};
use adamant_transport::{DataReader, NakcastReceiver, RicochetReceiver, Tuning, UdpReceiver};

const PREFIX: u64 = 6;
const HOSTILE: [u64; 3] = [1 << 40, u64::MAX - 1, u64::MAX];
/// Far above the O(1) refusal, far below walking even a 2^20 gap; loose
/// enough for a loaded machine running an unoptimised build.
const STEP_BUDGET: Duration = Duration::from_millis(20);

fn data(seq: u64) -> WireMsg {
    WireMsg::Data(DataMsg {
        seq,
        published_at: TimePoint::from_nanos(seq),
        retransmission: false,
    })
}

fn step<C: ProtocolCore>(host: &mut EnvHost, core: &mut C, at: u64, msg: &WireMsg) -> Vec<Effect> {
    let input = Input::PacketIn {
        src: NodeId(0),
        msg,
    };
    host.step(core, TimePoint::from_micros(at), input)
}

/// Feeds `core` the prefix, then `hostile`, and checks the refusal; then
/// checks the next in-order sample is still delivered.
fn refuses<C: ProtocolCore + DataReader>(mut core: C, hostile: &WireMsg) -> C {
    let mut host = EnvHost::new(NodeId(1), 7);
    for seq in 0..PREFIX {
        step(&mut host, &mut core, seq, &data(seq));
    }
    assert_eq!(core.log().delivered_count(), PREFIX);
    let started = Instant::now();
    let effects = step(&mut host, &mut core, PREFIX, hostile);
    let took = started.elapsed();
    assert!(took < STEP_BUDGET, "{hostile:?} took {took:?}");
    assert!(effects.is_empty(), "{hostile:?}: {effects:?}");
    assert_eq!(core.protocol_stats().window_overflows, 1, "{hostile:?}");
    assert_eq!(core.log().delivered_count(), PREFIX);
    let next = step(&mut host, &mut core, PREFIX + 1, &data(PREFIX));
    assert!(next
        .iter()
        .any(|e| matches!(e, Effect::Deliver { seq: PREFIX, .. })));
    core
}

fn nakcast() -> NakcastReceiver {
    NakcastReceiver::new(NodeId(0), 100, Span::from_millis(1), Tuning::default(), 0.0)
}

#[test]
fn nakcast_refuses_hostile_data_heartbeats_and_fins() {
    for seq in HOSTILE {
        let frames = [
            data(seq),
            WireMsg::Heartbeat(HeartbeatMsg {
                highest_seq: Some(seq),
            }),
            WireMsg::Fin(FinMsg { total: seq }),
        ];
        for frame in frames {
            let rx = refuses(nakcast(), &frame);
            // No missing entry was made: nothing is held beyond the stream.
            assert_eq!(rx.open_slots(), 0, "{frame:?}");
            assert_eq!(rx.protocol_stats().naks_sent, 0);
        }
    }
}

#[test]
fn udp_refuses_hostile_data() {
    for seq in HOSTILE {
        refuses(UdpReceiver::new(100, 0.0), &data(seq));
    }
}

/// Feeds `core` the prefix, then `hostile`, which recovers a sample
/// through a peer: the log refuses it as too far ahead, so it is one
/// counted overflow and neither delivered nor counted as recovered.
fn refuses_recovery<C: ProtocolCore + DataReader>(mut core: C, hostile: &WireMsg) {
    // Group 0 holds only the sender and this reader: no peer to repair.
    let mut host = EnvHost::new(NodeId(1), 7).with_groups(vec![vec![NodeId(0), NodeId(1)]]);
    for seq in 0..PREFIX {
        step(&mut host, &mut core, seq, &data(seq));
    }
    let effects = step(&mut host, &mut core, PREFIX, hostile);
    let accepted = effects.iter().any(|e| {
        matches!(
            e,
            Effect::Deliver { .. } | Effect::Trace(ObsEvent::SampleAccepted { .. })
        )
    });
    assert!(!accepted, "{hostile:?}: {effects:?}");
    let stats = core.protocol_stats();
    assert_eq!(
        (stats.window_overflows, stats.recovered),
        (1, 0),
        "{hostile:?}"
    );
    assert_eq!(core.log().delivered_count(), PREFIX);
}

#[test]
fn ricochet_refuses_a_hostile_repair() {
    // Decoding always succeeds, so the repair's one unknown is recovered.
    let tuning = Tuning {
        repair_efficacy: 1.0,
        ..Tuning::default()
    };
    let rx = RicochetReceiver::new(NodeId(0), GroupId(0), 100, 12, 4, 3, tuning, 0.0);
    let seq = HOSTILE[0];
    let entries = vec![(seq, TimePoint::from_nanos(seq))];
    let repair = WireMsg::Repair(RepairMsg {
        entries: entries.into(),
    });
    refuses_recovery(rx, &repair);
}

fn retransmitted(seq: u64) -> WireMsg {
    WireMsg::Data(DataMsg {
        seq,
        published_at: TimePoint::from_nanos(seq),
        retransmission: true,
    })
}

fn delivered(effects: &[Effect]) -> Vec<u64> {
    let seqs = effects.iter().filter_map(|e| match e {
        Effect::Deliver { seq, .. } => Some(*seq),
        _ => None,
    });
    seqs.collect()
}

/// Feeds `core` the prefix, then the stream resuming `3 * SPAN` later:
/// `frames` samples from `resume` on, then the copies of `repaired` a
/// repair would bring. Returns `resume` and every sequence delivered after
/// the prefix.
fn resumes<C: ProtocolCore + DataReader>(core: &mut C, repaired: u64) -> (u64, Vec<u64>) {
    let mut host = EnvHost::new(NodeId(1), 9);
    for seq in 0..PREFIX {
        step(&mut host, core, seq, &data(seq));
    }
    let (resume, frames) = (PREFIX + 3 * SPAN, 20);
    let mut got = Vec::new();
    for seq in resume..resume + frames {
        got.extend(delivered(&step(&mut host, core, seq, &data(seq))));
    }
    for seq in resume..resume + repaired {
        got.extend(delivered(&step(&mut host, core, 100, &retransmitted(seq))));
    }
    let refused = u64::from(RESYNC_AFTER) - 1;
    assert_eq!(core.protocol_stats().window_overflows, refused);
    assert_eq!(core.log().delivered_count(), PREFIX + got.len() as u64);
    (resume, got)
}

#[test]
fn readers_follow_a_stream_that_resumes_past_the_window() {
    let refused = u64::from(RESYNC_AFTER) - 1;
    // NAKcast holds the stream back until the refused frames are repaired,
    // then delivers all of it in order.
    let (resume, got) = resumes(&mut nakcast(), refused);
    assert_eq!(got, (resume..resume + 20).collect::<Vec<_>>());
    // UDP repairs nothing: the refused frames are lost, the rest delivered.
    let (resume, got) = resumes(&mut UdpReceiver::new(100, 0.0), 0);
    assert_eq!(got, (resume + refused..resume + 20).collect::<Vec<_>>());
}

#[test]
fn nakcast_delivers_after_giving_up_more_than_a_window() {
    // Heartbeats keep advertising while every sample is lost, each within
    // `SPAN` of the last, and each advertised stretch is given up at its
    // first NAK deadline; the reader's log last delivered at `PREFIX - 1`.
    let tuning = Tuning {
        nak_max_retries: 0,
        ..Tuning::default()
    };
    let mut rx = NakcastReceiver::new(NodeId(0), 100, Span::from_millis(1), tuning, 0.0);
    let mut host = EnvHost::new(NodeId(1), 10);
    for seq in 0..PREFIX {
        step(&mut host, &mut rx, seq, &data(seq));
    }
    let mut at = PREFIX;
    for stretch in 1..=2 {
        let highest_seq = Some(PREFIX - 1 + stretch * SPAN);
        let hb = WireMsg::Heartbeat(HeartbeatMsg { highest_seq });
        let armed = step(&mut host, &mut rx, at, &hb);
        let (token, tag) = armed
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { token, tag, .. } => Some((*token, *tag)),
                _ => None,
            })
            .expect("a NAK scan is armed");
        at += 2_000;
        let scan = Input::TimerFired { token, tag };
        host.step(&mut rx, TimePoint::from_micros(at), scan);
        assert_eq!(rx.protocol_stats().give_ups, stretch * SPAN);
    }
    assert_eq!(rx.open_slots(), 0);
    // The stream resumes just past the advertised mark, more than `SPAN`
    // past the log's last delivery, and is delivered.
    let next = PREFIX + 2 * SPAN;
    for seq in next..next + 3 {
        let effects = step(&mut host, &mut rx, at, &data(seq));
        assert_eq!(delivered(&effects), vec![seq]);
    }
    assert_eq!(rx.protocol_stats().window_overflows, 0);
    // The log's window counts what it slid past: every sequence from the
    // prefix's end up to a window below the newest delivery.
    assert_eq!(rx.log().window().given_up(), next + 3 - SPAN - PREFIX);
}
