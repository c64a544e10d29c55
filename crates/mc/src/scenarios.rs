//! The concrete topologies the acceptance criteria name: a 1-writer /
//! 2-reader NAKcast session, a DurableCore crash/restart session, and a
//! deliberately-broken reader whose missing dedup the checker must catch.

use adamant_metrics::VerifySpec;
use adamant_proto::{
    catch_up_bound, DurableConfig, DurableCore, Env, GroupId, Input, NodeId, ObsEvent,
    ProtocolCore, Span, TimePoint, WireMsg,
};
use adamant_transport::{
    AppSpec, NakcastReceiver, NakcastSender, StackProfile, StreamCastReceiver, StreamCastSender,
    Tuning,
};

use crate::scenario::Scenario;
use crate::world::McCore;

/// Publication rate used by all model-checked topologies: 1 kHz keeps the
/// virtual timeline short so horizons and depths stay small.
const RATE_HZ: f64 = 1_000.0;

fn tuning() -> Tuning {
    Tuning {
        // Short heartbeats bound the gap-detection delay, keeping loss
        // recovery inside a small horizon.
        heartbeat_interval: Span::from_millis(5),
        ..Tuning::default()
    }
}

fn sender(samples: u64) -> NakcastSender {
    NakcastSender::new(
        AppSpec::at_rate(samples, RATE_HZ, 12),
        StackProfile::new(10.0, 48),
        tuning(),
        GroupId(0),
    )
}

fn receiver(samples: u64) -> NakcastReceiver {
    NakcastReceiver::new(NodeId(0), samples, Span::from_millis(1), tuning(), 0.0)
}

/// StreamCast tuning for model checking.
///
/// * RTO band `[15 ms, 40 ms]` instead of `[5 ms, 2 s]`: the cap keeps
///   the first (pre-RTT-sample) timeout inside the 50 ms horizon, and
///   the raised floor bounds every schedule to at most three RTO fires
///   — a 5 ms floor would march ten timer fires (each spraying
///   retransmissions) into every schedule and blow up the state space.
/// * `stream_dupack_threshold: 1`: repair on the *first* duplicate
///   cumulative ACK. This is the correctness-critical one. The model's
///   adversary may delay every packet to the horizon, where no timer
///   can ever fire again — so a gap is only recoverable if repair is
///   message-driven, cascading at a single virtual instant (dup-ACK →
///   fast retransmit → ACK), exactly as NAKcast's heartbeat → NAK →
///   repair chain is. Waiting for three dup-ACKs is a reordering
///   heuristic for real networks, not a correctness requirement.
fn stream_tuning() -> Tuning {
    Tuning {
        stream_rto_min: Span::from_millis(15),
        stream_rto_max: Span::from_millis(40),
        stream_dupack_threshold: 1,
        ..Tuning::default()
    }
}

fn stream_sender(samples: u64) -> StreamCastSender {
    StreamCastSender::new(
        AppSpec::at_rate(samples, RATE_HZ, 12),
        StackProfile::new(10.0, 48),
        stream_tuning(),
        GroupId(0),
        4,
    )
}

fn stream_receiver(samples: u64) -> StreamCastReceiver {
    StreamCastReceiver::new(NodeId(0), samples, 4, stream_tuning(), 0.0)
}

/// 1 writer, 2 readers, StreamCast (window 4), `samples` samples at
/// 1 kHz, with the membership pre-provisioned on both sides (as an
/// ADAMANT deployment installs it from the service agreement).
///
/// Both readers are durable in the spec, so every quiescent schedule —
/// every placement of the adversary's drop budget across data and
/// cumulative ACKs — must end with both ordered streams complete. That
/// proves the cumulative-ACK, fast-retransmit, and RTO recovery loops
/// as safety properties rather than sampling them.
///
/// Static membership is what makes the completeness property schedule-
/// independent: publication is timer-driven from `Start`, like NAKcast.
/// (With dynamic join the adversary can hold the SYN until the horizon,
/// and samples whose publication never happened cannot be demanded of
/// the readers — the handshake is checked by [`streamcast_join`]
/// instead.)
pub fn streamcast_1w2r(samples: u64) -> Scenario {
    let spec = VerifySpec::new(samples, 2).with_durable_nodes([1, 2]);
    Scenario::new("streamcast-1w2r", spec)
        .with_node(move || {
            Box::new(
                stream_sender(samples)
                    .with_peer(NodeId(1), 4)
                    .with_peer(NodeId(2), 4),
            ) as Box<dyn McCore>
        })
        .with_node(move || Box::new(stream_receiver(samples).with_connected()) as Box<dyn McCore>)
        .with_node(move || Box::new(stream_receiver(samples).with_connected()) as Box<dyn McCore>)
        .with_groups(vec![vec![NodeId(0), NodeId(1), NodeId(2)]])
}

/// 1 writer, 1 dynamically-joining reader: the SYN/SYN-ACK handshake
/// (and its retry timer) explored under drops, duplication, and every
/// delivery order. The spec checks safety — at-most-once, ordering —
/// but not completeness: the adversary may legitimately delay the SYN
/// to the horizon, in which case publication never starts and there is
/// nothing to be complete about.
pub fn streamcast_join(samples: u64) -> Scenario {
    let spec = VerifySpec::new(samples, 1);
    Scenario::new("streamcast-join", spec)
        .with_node(move || Box::new(stream_sender(samples)) as Box<dyn McCore>)
        .with_node(move || Box::new(stream_receiver(samples)) as Box<dyn McCore>)
        .with_groups(vec![vec![NodeId(0), NodeId(1)]])
}

/// 1 writer, 2 readers, NAKcast, `samples` samples at 1 kHz.
///
/// The spec marks both readers durable even though nothing restarts:
/// `NoGapAfterCatchUp` then demands that *every* quiescent schedule —
/// including every placement of the adversary's drop budget — ends with
/// both readers holding the complete stream. That is the NAK recovery
/// loop proved as a safety property, not sampled.
pub fn nakcast_1w2r(samples: u64) -> Scenario {
    let spec = VerifySpec::new(samples, 2).with_durable_nodes([1, 2]);
    Scenario::new("nakcast-1w2r", spec)
        .with_node(move || Box::new(sender(samples)) as Box<dyn McCore>)
        .with_node(move || Box::new(receiver(samples)) as Box<dyn McCore>)
        .with_node(move || Box::new(receiver(samples)) as Box<dyn McCore>)
        .with_groups(vec![vec![NodeId(0), NodeId(1), NodeId(2)]])
}

/// The durable tuning shared by writer and reader wrappers: short advert
/// and NAK timers so catch-up fits inside a small horizon.
pub fn durable_config() -> DurableConfig {
    DurableConfig::transient_local()
        .with_advert_interval(Span::from_millis(5))
        .with_nak_timeout(Span::from_millis(2))
}

/// A horizon generous enough for the durable scenario's catch-up to
/// complete on every path (restart by 8 ms, then adverts every 5 ms and
/// one NAK retry round to spare).
pub fn durable_horizon() -> TimePoint {
    TimePoint::from_millis(40)
}

/// 1 durable writer, 1 `TransientLocal` durable reader that crashes (by
/// 4 ms) and restarts (by 8 ms) with its delivered-set checkpoint, as
/// `MuxCluster::restart_endpoint` does over real sockets. Crash and restart
/// *timing* is explored against every delivery interleaving; the spec
/// demands the union of both incarnations' acceptances covers the stream
/// with no cross-incarnation duplicate, and that catch-up completes
/// in bound.
pub fn durable_crash_restart(samples: u64) -> Scenario {
    let config = durable_config();
    let spec = VerifySpec::new(samples, 1)
        .with_durable_nodes([1])
        .with_catch_up_bound(catch_up_bound(&config));
    Scenario::new("durable-crash-restart", spec)
        .with_node(move || {
            Box::new(DurableCore::writer(sender(samples), GroupId(0), config)) as Box<dyn McCore>
        })
        .with_node(move || {
            Box::new(DurableCore::reader(receiver(samples), NodeId(0), config)) as Box<dyn McCore>
        })
        .with_groups(vec![vec![NodeId(0), NodeId(1)]])
        .with_crash(NodeId(1), TimePoint::from_millis(4))
        .with_restart(NodeId(1), TimePoint::from_millis(8), move |dead| {
            let checkpoint = dead
                .as_any()
                .downcast_ref::<DurableCore<NakcastReceiver>>()
                .expect("restarting a durable NAKcast reader")
                .delivered_set()
                .clone();
            Box::new(
                DurableCore::reader(receiver(samples), NodeId(0), config)
                    .with_delivered(checkpoint),
            ) as Box<dyn McCore>
        })
}

/// A reader with its duplicate suppression deliberately removed: every
/// arriving data packet is accepted, including retransmissions and
/// duplicated copies. Exists so the model checker has a real bug to find.
#[derive(Debug, Clone, Default)]
pub struct BrokenDedupReader {
    accepted: u64,
}

impl ProtocolCore for BrokenDedupReader {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        if let Input::PacketIn {
            msg: WireMsg::Data(d),
            ..
        } = input
        {
            // No reception log, no `seen` check: the bug under test.
            self.accepted += 1;
            env.deliver(d.seq, d.published_at, d.retransmission);
            let (seq, recovered) = (d.seq, d.retransmission);
            let published_ns = d.published_at.as_nanos();
            let delivered_ns = env.now().as_nanos();
            env.emit(|node| ObsEvent::SampleAccepted {
                node,
                seq,
                published_ns,
                delivered_ns,
                recovered,
            });
        }
    }
}

/// 1 NAKcast writer, 1 [`BrokenDedupReader`]. With a duplication budget
/// of one, some schedule duplicates a data packet and the reader accepts
/// it twice — an `AtMostOnce` violation the search must return as a
/// replayable counterexample.
pub fn nakcast_broken_dedup(samples: u64) -> Scenario {
    let spec = VerifySpec::new(samples, 1);
    Scenario::new("nakcast-broken-dedup", spec)
        .with_node(move || Box::new(sender(samples)) as Box<dyn McCore>)
        .with_node(|| Box::new(BrokenDedupReader::default()) as Box<dyn McCore>)
        .with_groups(vec![vec![NodeId(0), NodeId(1)]])
}
