//! NAKcast recovery-latency diagnostic, formerly the `debug_nak` binary.
//!
//! As a binary it printed per-reader latency distributions and rotted
//! silently whenever APIs moved; as an integration test the same
//! diagnostic runs in CI with its expectations pinned down: recovered
//! samples pay a visible latency penalty over first-try deliveries, and
//! that penalty stays inside the analytic NAK-retry bound. The second
//! test drives a receiver core directly through the sans-I/O
//! `ProtocolCore` API, pinning the NAK wire behaviour the session-level
//! statistics rest on.

use adamant::Environment;
use adamant_dds::DdsImplementation;
use adamant_metrics::Delivery;
use adamant_netsim::{MachineClass, SimDuration, SimTime, Simulation};
use adamant_proto::{Effect, EnvHost, Input, NodeId, TimePoint, WireMsg};
use adamant_transport::{
    ant, nakcast_recovery_bound, AppSpec, DataReader, NakcastReceiver, ProtocolKind, SessionSpec,
    TransportConfig, Tuning,
};

const NAK_TIMEOUT: SimDuration = SimDuration::from_millis(1);

#[test]
fn recovered_latency_distribution_stays_in_the_nak_bound() {
    let env = Environment::new(
        MachineClass::Pc3000,
        adamant::BandwidthClass::Gbps1,
        DdsImplementation::OpenSplice,
        5,
    );
    let tuning = Tuning::default();
    let spec = SessionSpec {
        transport: TransportConfig::new(ProtocolKind::Nakcast {
            timeout: NAK_TIMEOUT,
        })
        .with_tuning(tuning),
        app: AppSpec::at_rate(1000, 100.0, 12),
        stack: env.dds.stack_profile(),
        sender_host: env.host_config(),
        receiver_hosts: vec![env.host_config(); 3],
        drop_probability: 0.05,
        capture: true,
    };
    let mut sim = Simulation::new(1).with_network(env.network_config());
    let handles = ant::install(&mut sim, &spec);
    sim.run_until(SimTime::from_secs(30));

    let bound = nakcast_recovery_bound(NAK_TIMEOUT, &tuning);
    for &node in &handles.receivers {
        let r = ant::reader(&sim, &handles, node);
        let (rec, orig): (Vec<Delivery>, Vec<Delivery>) = r
            .log()
            .deliveries()
            .expect("captured")
            .partition(|d| d.recovered);
        assert_eq!(
            r.log().delivered_count(),
            1000,
            "reader {node}: NAKcast must deliver the full stream"
        );
        assert!(
            !rec.is_empty(),
            "reader {node}: 5% loss must force recoveries"
        );
        let avg = |v: &[Delivery]| {
            v.iter().map(|d| d.latency().as_micros_f64()).sum::<f64>() / v.len() as f64
        };
        assert!(
            avg(&rec) > avg(&orig),
            "reader {node}: recovered samples must pay the NAK round-trip \
             (avg_rec {:.1} µs vs avg_orig {:.1} µs)",
            avg(&rec),
            avg(&orig)
        );
        let worst = rec
            .iter()
            .map(|d| d.latency())
            .max()
            .expect("nonempty recoveries");
        assert!(
            worst <= bound,
            "reader {node}: worst recovery {worst} exceeds analytic bound {bound}"
        );
    }
}

#[test]
fn receiver_core_naks_a_gap_through_the_protocol_api() {
    let sender = NodeId(0);
    let tuning = Tuning::default();
    let mut core = NakcastReceiver::new(sender, 10, NAK_TIMEOUT, tuning, 0.0);
    let mut host = EnvHost::new(NodeId(1), 99);

    let data = |seq: u64| {
        WireMsg::Data(adamant_proto::wire::DataMsg {
            seq,
            published_at: TimePoint::from_millis(seq),
            retransmission: false,
        })
    };

    // Deliver 0, then 2: the gap at 1 arms the scan timer.
    let now = TimePoint::from_millis(10);
    let fx0 = host.step(
        &mut core,
        now,
        Input::PacketIn {
            src: sender,
            msg: &data(0),
        },
    );
    assert!(fx0
        .iter()
        .any(|e| matches!(e, Effect::Deliver { seq: 0, .. })));
    let fx2 = host.step(
        &mut core,
        now,
        Input::PacketIn {
            src: sender,
            msg: &data(2),
        },
    );
    let (token, tag) = fx2
        .iter()
        .find_map(|e| match e {
            Effect::SetTimer { token, tag, .. } => Some((*token, *tag)),
            _ => None,
        })
        .expect("gap must arm the NAK scan timer");
    assert!(
        !fx2.iter()
            .any(|e| matches!(e, Effect::Deliver { seq: 2, .. })),
        "ordered delivery must hold sample 2 behind the gap"
    );

    // Firing the scan timer past the timeout emits a NAK for seq 1.
    let fired = host.step(
        &mut core,
        now + NAK_TIMEOUT + SimDuration::from_millis(1),
        Input::TimerFired { token, tag },
    );
    let nak = fired
        .iter()
        .find_map(|e| match e {
            Effect::Send {
                msg: WireMsg::Nak(nak),
                ..
            } => Some(nak.clone()),
            _ => None,
        })
        .expect("scan must emit a NAK");
    assert_eq!(nak.seqs, vec![1]);
    assert_eq!(core.protocol_stats().naks_sent, 1);

    // The retransmission fills the gap and releases both held samples.
    let retx = WireMsg::Data(adamant_proto::wire::DataMsg {
        seq: 1,
        published_at: TimePoint::from_millis(1),
        retransmission: true,
    });
    let fx1 = host.step(
        &mut core,
        now + SimDuration::from_millis(5),
        Input::PacketIn {
            src: sender,
            msg: &retx,
        },
    );
    let released: Vec<u64> = fx1
        .iter()
        .filter_map(|e| match e {
            Effect::Deliver { seq, recovered, .. } => Some((*seq, *recovered)),
            _ => None,
        })
        .map(|(seq, recovered)| {
            if seq == 1 {
                assert!(recovered, "the NAKed sample counts as recovered");
            }
            seq
        })
        .collect();
    assert_eq!(
        released,
        vec![1, 2],
        "gap fill releases the held tail in order"
    );
}
