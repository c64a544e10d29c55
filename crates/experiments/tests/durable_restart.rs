//! Loopback parity for durable crash-restart: the same `DurableCore`
//! wrappers the netsim chaos scenario proves are mounted on a sharded
//! [`MuxCluster`] over real UDP sockets on `127.0.0.1`. One reader endpoint
//! checkpoints its delivered set mid-stream and is later replaced by a
//! fresh incarnation seeded only with that checkpoint
//! ([`MuxCluster::restart_endpoint`]), so the checkpoint-lag window must come
//! back through durable catch-up over the real wire.
//!
//! The endpoint reports' events are then timestamped into a synthesized
//! observability trace — crash at the checkpoint instant (the last state the durable
//! application can attest), restart at the swap instant — and replayed
//! through the same invariant checker the simulator path uses, proving
//! no-gap-after-catch-up, cross-incarnation at-most-once, and the
//! catch-up-latency bound on the real-UDP path too.

use std::time::Duration;

use adamant_metrics::{verify_trace, VerifySpec};
use adamant_proto::{
    catch_up_bound, Clock, DurableConfig, DurableCore, GroupId, NodeId, ObsEvent, Span, TimePoint,
    TracedEvent,
};
use adamant_rt::{MonotonicClock, MuxCluster, MuxConfig};
use adamant_transport::{AppSpec, NakcastReceiver, NakcastSender, StackProfile, Tuning};

const SAMPLES: u64 = 150;
const RATE: f64 = 300.0;
const RECEIVERS: u32 = 2;
const SESSION_NAK: Span = Span::from_millis(2);

fn reader(tuning: Tuning, config: DurableConfig) -> DurableCore<NakcastReceiver> {
    DurableCore::reader(
        NakcastReceiver::new(NodeId(0), SAMPLES, SESSION_NAK, tuning, 0.0),
        NodeId(0),
        config,
    )
}

/// Timestamps an endpoint report's event for the invariant checker: a
/// sample at its delivery, anything else at `at`. Only the events the
/// checker examines are kept.
fn lift(event: &ObsEvent, at: TimePoint) -> Option<TracedEvent> {
    let time = match *event {
        ObsEvent::SampleAccepted { delivered_ns, .. } => TimePoint::from_nanos(delivered_ns),
        ObsEvent::CatchUpCompleted { .. } => at,
        _ => return None,
    };
    Some(TracedEvent {
        time,
        event: *event,
    })
}

#[test]
fn cluster_endpoint_restart_recovers_durably_over_real_udp() {
    let tuning = Tuning::default();
    let group = GroupId(0);
    let config = DurableConfig::transient_local();
    let clock = MonotonicClock::start();

    let cfg = MuxConfig::new(2).with_seed(9).with_clock(clock);
    let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).expect("bind cluster");
    let writer_id = cluster
        .add_endpoint(
            NodeId(0),
            DurableCore::writer(
                NakcastSender::new(
                    AppSpec::at_rate(SAMPLES, RATE, 12),
                    StackProfile::new(10.0, 48),
                    tuning,
                    group,
                ),
                group,
                config,
            ),
        )
        .expect("add writer");
    let reader_ids: Vec<_> = (1..=RECEIVERS)
        .map(|n| {
            cluster
                .add_endpoint(NodeId(n), reader(tuning, config))
                .expect("add reader")
        })
        .collect();
    cluster.connect_full_mesh().expect("wire mesh");
    let victim = *reader_ids.last().expect("at least one reader");
    let victim_node = cluster.node(victim).expect("victim node");

    let publish = SAMPLES as f64 / RATE;

    // Run to 30% of the stream and take the victim's durable checkpoint;
    // this instant is the application-attested crash point of the trace.
    cluster
        .run_for(Duration::from_secs_f64(publish * 0.3))
        .expect("pre-checkpoint window");
    let checkpoint = cluster
        .core::<DurableCore<NakcastReceiver>>(victim)
        .expect("victim core")
        .delivered_set()
        .clone();
    let split = cluster.report(victim).map_or(0, |r| r.events.len());
    let crash_at = clock.now();
    assert!(!checkpoint.is_empty(), "checkpoint must have progress");

    // The doomed incarnation keeps running past its checkpoint — everything
    // it delivers from here dies unattested with the process.
    cluster
        .run_for(Duration::from_secs_f64(publish * 0.3))
        .expect("doomed-incarnation window");
    let restart_at = clock.now();
    cluster
        .restart_endpoint(
            victim,
            reader(tuning, config).with_delivered(checkpoint.clone()),
        )
        .expect("restart victim");
    cluster
        .run_for(Duration::from_secs_f64(publish * 0.4 + 1.5))
        .expect("recovery window");

    // Direct assertions on the real-wire run.
    assert_eq!(cluster.incarnation(victim).expect("incarnation"), 1);
    let replayed = cluster
        .core::<DurableCore<NakcastSender>>(writer_id)
        .map_or(0, |w| w.replayed());
    assert!(replayed > 0, "the checkpoint-lag window must be replayed");
    let victim_core = cluster
        .core::<DurableCore<NakcastReceiver>>(victim)
        .expect("victim core after restart");
    assert!(victim_core.recovered_via_catch_up() > 0);
    let caught_up_at = victim_core
        .caught_up_at()
        .expect("restarted incarnation must complete catch-up");
    assert_eq!(
        victim_core.delivered_set().len() as u64,
        SAMPLES,
        "checkpoint plus recovery must cover the whole stream"
    );
    for &id in &reader_ids {
        let core = cluster
            .core::<DurableCore<NakcastReceiver>>(id)
            .expect("reader core");
        assert_eq!(core.delivered_set().len() as u64, SAMPLES);
    }

    // Synthesize the observability trace: the surviving reader's full
    // report, the victim's attested prefix, the crash/restart transition,
    // and the new incarnation's events.
    let mut trace: Vec<TracedEvent> = Vec::new();
    for (id, _, report) in cluster.reports() {
        if id == victim || id == writer_id {
            continue;
        }
        trace.extend(report.events.iter().filter_map(|e| lift(e, crash_at)));
    }
    let victim_report = cluster.report(victim).expect("victim report");
    trace.extend(
        victim_report.events[..split]
            .iter()
            .filter_map(|e| lift(e, crash_at)),
    );
    trace.push(TracedEvent {
        time: crash_at,
        event: ObsEvent::NodeCrashed {
            node: victim_node,
            epoch: 1,
        },
    });
    trace.push(TracedEvent {
        time: restart_at,
        event: ObsEvent::NodeRestarted {
            node: victim_node,
            epoch: 1,
        },
    });
    trace.extend(
        victim_report.events[split..]
            .iter()
            .filter(|e| {
                // Deliveries of the doomed incarnation's post-checkpoint
                // window died unattested with the process; drop them so the
                // trace reflects what the durable application observed.
                !matches!(e, ObsEvent::SampleAccepted { delivered_ns, .. }
                    if *delivered_ns < restart_at.as_nanos())
            })
            .filter_map(|e| lift(e, caught_up_at)),
    );
    trace.sort_by_key(|te| te.time);

    let spec = VerifySpec::new(SAMPLES, RECEIVERS)
        .with_durable_nodes(
            reader_ids
                .iter()
                .map(|id| cluster.node(*id).unwrap().index()),
        )
        .with_catch_up_bound(catch_up_bound(&config));
    let verify = verify_trace(&trace, &spec);
    assert!(
        verify.is_clean(),
        "real-UDP trace violations: {:?}",
        verify.violations
    );
    assert!(verify.accepted >= SAMPLES + checkpoint.len() as u64);
}
