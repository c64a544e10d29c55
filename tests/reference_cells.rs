//! Pinned digests of the benchmark's reference cells.
//!
//! `pubsub_bench` times one fixed cell per candidate protocol
//! (`netsim.cell_ms.*`) and checks digests only against a re-run inside the
//! same process. This test pins them across commits: a change to the
//! simulator's event path, to `SimDriver` or to a protocol core that claims
//! to leave behaviour byte-identical must reproduce both the report digest
//! and the number of events the engine processed. Those cells run 3 receivers
//! at 25 Hz; their 15-receiver twins are pinned as well, at 25 Hz and at
//! 100 Hz — that is where Ricochet's lateral repair traffic (the hottest
//! cells of `sim_grid`) lives, and only the faster rate fills a repair
//! window before its flush timer fires.
//!
//! If a PR changes behaviour *on purpose*, regenerate with
//! `cargo test --test reference_cells -- --nocapture` and paste the printed
//! table; the diff is then the visible record of what moved.

use adamant::features::candidate_protocols;
use adamant::{AppParams, BandwidthClass, Environment, Scenario};
use adamant_dds::DdsImplementation;
use adamant_netsim::MachineClass;
use adamant_proto::fingerprint_debug;
use adamant_transport::{ProtocolKind, TransportConfig};

/// `(label, receivers, rate_hz, report digest, events processed)`.
const PINNED: &[(&str, u32, u32, u64, u64)] = &[
    ("nakcast-0.050s", 3, 25, 0x066ae27eba8ea6a4, 1729),
    ("nakcast-0.025s", 3, 25, 0xa956a2d2d27333b5, 1729),
    ("nakcast-0.010s", 3, 25, 0x74a138d1b89b363a, 1731),
    ("nakcast-0.001s", 3, 25, 0xe5e8a743793da2bd, 1731),
    ("ricochet-r4c3", 3, 25, 0x336c868cf92f1b21, 2291),
    ("ricochet-r8c3", 3, 25, 0x336c868cf92f1b21, 2291),
    ("streamcast-w64", 3, 25, 0x162e0c0fb2221efa, 1471),
    ("shmcast-q256", 3, 25, 0xab9970c8ed154926, 716),
    ("nakcast-0.050s", 15, 25, 0xd9913a83e019d442, 7613),
    ("nakcast-0.025s", 15, 25, 0xad39e7d63b56e748, 7613),
    ("nakcast-0.010s", 15, 25, 0xaebebaf7a290bdf9, 7617),
    ("nakcast-0.001s", 15, 25, 0x0b4a5166ef7ad513, 7617),
    ("ricochet-r4c3", 15, 25, 0x165dc9f6d89a4f16, 16821),
    ("ricochet-r8c3", 15, 25, 0x165dc9f6d89a4f16, 16821),
    ("streamcast-w64", 15, 25, 0x4412916ac64ba26e, 6495),
    ("shmcast-q256", 15, 25, 0x62e55e68e4dad37e, 3176),
    ("nakcast-0.050s", 15, 100, 0xecda7ecf8ddf2b6f, 4529),
    ("nakcast-0.025s", 15, 100, 0x2de64ef35492b910, 4539),
    ("nakcast-0.010s", 15, 100, 0xcdcecc60c513756d, 4547),
    ("nakcast-0.001s", 15, 100, 0x8d1b037d2aae48ae, 4544),
    ("ricochet-r4c3", 15, 100, 0xaa8860d132937c70, 14031),
    ("ricochet-r8c3", 15, 100, 0xaa8860d132937c70, 14031),
    ("streamcast-w64", 15, 100, 0xcbbc8cdbabf83503, 6439),
    ("shmcast-q256", 15, 100, 0x4196dd0d3f369147, 3176),
];

/// The benchmark's reference environment: the fast LAN of the paper's
/// figures, or its same-host twin for the one protocol that needs it.
fn reference_env(protocol: ProtocolKind) -> Environment {
    match protocol {
        ProtocolKind::ShmCast { .. } => {
            Environment::colocated(MachineClass::Pc3000, DdsImplementation::OpenSplice)
        }
        _ => Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        ),
    }
}

#[test]
fn reference_cells_reproduce_pinned_digests_and_event_counts() {
    let mut measured = Vec::new();
    for (receivers, rate_hz) in [(3u32, 25u32), (15, 25), (15, 100)] {
        for protocol in candidate_protocols() {
            let app = AppParams::new(receivers, rate_hz);
            let (report, events) = Scenario::paper(reference_env(protocol), app, 42)
                .with_samples(100)
                .run_counted(TransportConfig::new(protocol));
            measured.push((
                protocol.label(),
                receivers,
                rate_hz,
                fingerprint_debug(&report),
                events,
            ));
        }
    }
    for (label, receivers, rate_hz, digest, events) in &measured {
        println!("    (\"{label}\", {receivers}, {rate_hz}, {digest:#018x}, {events}),");
    }
    assert_eq!(measured.len(), PINNED.len());
    for (got, want) in measured.iter().zip(PINNED) {
        assert_eq!(
            (got.0.as_str(), got.1, got.2, got.3, got.4),
            *want,
            "reference cell moved"
        );
    }
}
