//! The readers' reception stage, pinned: for each of the five protocols a
//! seeded netsim session under 5 % end-host loss must report exactly these
//! per-reader counters and delivery counts. The values were read off the
//! build before the stage was shared, so moving any of them — a counter
//! folded twice, a draw taken in another order — fails here.
//!
//! With every data frame lost (p = 1) each reader but ShmCast's counts
//! every data frame it was sent as dropped and delivers nothing; ShmCast
//! has no loss stage and delivers the whole stream.

use adamant_dds::session;
use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDuration, SimTime, Simulation};
use adamant_transport::tags::{TAG_DATA, TAG_RETRANSMIT};
use adamant_transport::{
    AppSpec, ProtocolKind, ProtocolStats, SessionSpec, StackProfile, TransportConfig,
};

const SAMPLES: u64 = 300;

fn kinds() -> [ProtocolKind; 5] {
    [
        ProtocolKind::Udp,
        ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        },
        ProtocolKind::Ricochet { r: 4, c: 3 },
        ProtocolKind::StreamCast { window: 64 },
        ProtocolKind::ShmCast { queue: 256 },
    ]
}

/// One finished session: its simulation and each reader's counters and
/// delivery count.
fn run(kind: ProtocolKind, drop_probability: f64) -> (Simulation, Vec<(ProtocolStats, u64)>) {
    let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    let spec = SessionSpec {
        transport: TransportConfig::new(kind),
        app: AppSpec::at_rate(SAMPLES, 100.0, 12),
        stack: StackProfile::new(20.0, 48),
        drop_probability,
        capture: false,
    };
    let mut sim = Simulation::new(29);
    let handles = session::install(&mut sim, &spec, host, &[host; 3]);
    sim.run_until(SimTime::from_secs(10));
    let readers = handles
        .receivers
        .iter()
        .map(|&node| {
            let reader = session::reader(&sim, node);
            (reader.protocol_stats(), reader.log().delivered_count())
        })
        .collect();
    (sim, readers)
}

/// A reader's counters as one row: NAKs, ACKs, repairs sent, repairs
/// received, recovered, give-ups, duplicates, dropped, window overflows,
/// delivered.
fn row(&(s, delivered): &(ProtocolStats, u64)) -> [u64; 10] {
    [
        s.naks_sent,
        s.acks_sent,
        s.repairs_sent,
        s.repairs_received,
        s.recovered,
        s.give_ups,
        s.duplicates,
        s.dropped,
        s.window_overflows,
        delivered,
    ]
}

/// Each protocol's readers, in [`kinds`] order, as [`row`]s.
const PINNED: [[[u64; 10]; 3]; 5] = [
    // UDP
    [
        [0, 0, 0, 0, 0, 0, 0, 12, 0, 288],
        [0, 0, 0, 0, 0, 0, 0, 16, 0, 284],
        [0, 0, 0, 0, 0, 0, 0, 5, 0, 295],
    ],
    // NAKcast, 1 ms
    [
        [11, 0, 0, 0, 11, 0, 0, 12, 0, 300],
        [17, 0, 0, 0, 16, 0, 0, 17, 0, 300],
        [5, 0, 0, 0, 5, 0, 0, 5, 0, 300],
    ],
    // Ricochet R4 C3
    [
        [0, 0, 570, 579, 15, 0, 0, 15, 0, 300],
        [0, 0, 576, 576, 11, 0, 0, 12, 0, 299],
        [0, 0, 582, 573, 8, 0, 0, 9, 0, 299],
    ],
    // StreamCast W64
    [
        [0, 300, 0, 0, 10, 0, 0, 12, 0, 300],
        [0, 300, 0, 0, 17, 0, 0, 17, 0, 300],
        [0, 300, 0, 0, 5, 0, 0, 5, 0, 300],
    ],
    // ShmCast Q256
    [
        [0, 3, 0, 0, 0, 0, 0, 0, 0, 300],
        [0, 3, 0, 0, 0, 0, 0, 0, 0, 300],
        [0, 3, 0, 0, 0, 0, 0, 0, 0, 300],
    ],
];

#[test]
fn every_readers_counters_match_the_pinned_session() {
    for (kind, pinned) in kinds().into_iter().zip(PINNED) {
        let (_, readers) = run(kind, 0.05);
        let rows: Vec<[u64; 10]> = readers.iter().map(row).collect();
        assert_eq!(rows, pinned, "{kind:?}");
    }
}

#[test]
fn a_certain_loss_drops_every_data_frame_but_shmcasts() {
    for kind in kinds() {
        let (sim, readers) = run(kind, 1.0);
        let dropped: u64 = readers.iter().map(|(s, _)| s.dropped).sum();
        let delivered: u64 = readers.iter().map(|&(_, d)| d).sum();
        if let ProtocolKind::ShmCast { .. } = kind {
            assert_eq!((dropped, delivered), (0, 3 * SAMPLES));
            continue;
        }
        let wire = sim.stats();
        let frames = wire.tag(TAG_DATA).deliveries + wire.tag(TAG_RETRANSMIT).deliveries;
        assert!(frames > 0, "{kind:?}");
        assert_eq!((dropped, delivered), (frames, 0), "{kind:?}");
    }
}
