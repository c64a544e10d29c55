//! Full-stack determinism: identical configurations and seeds reproduce
//! bit-identical results across every layer of the system.

use adamant::{AppParams, BandwidthClass, Environment, LabeledDataset, Scenario};
use adamant_dds::DdsImplementation;
use adamant_netsim::{MachineClass, SimDuration};
use adamant_transport::{ProtocolKind, TransportConfig};

fn env() -> Environment {
    Environment::new(
        MachineClass::Pc850,
        BandwidthClass::Mbps100,
        DdsImplementation::OpenDds,
        4,
    )
}

#[test]
fn scenario_runs_are_reproducible() {
    for kind in [
        ProtocolKind::Udp,
        ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(10),
        },
        ProtocolKind::Ricochet { r: 4, c: 3 },
    ] {
        let run = || {
            Scenario::paper(env(), AppParams::new(4, 50), 1234)
                .with_samples(400)
                .run(TransportConfig::new(kind))
        };
        assert_eq!(run(), run(), "{kind} must be deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let run = |seed: u64| {
        Scenario::paper(env(), AppParams::new(4, 50), seed)
            .with_samples(400)
            .run(TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }))
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn dataset_measurement_is_reproducible() {
    let configs = vec![(env(), AppParams::new(3, 25))];
    let a = LabeledDataset::measure(&configs, 300, 2);
    let b = LabeledDataset::measure(&configs, 300, 2);
    assert_eq!(a, b);
}

#[test]
fn trained_selectors_are_reproducible() {
    use adamant::{ProtocolSelector, SelectorConfig};
    let configs = vec![
        (env(), AppParams::new(3, 25)),
        (
            Environment::new(
                MachineClass::Pc3000,
                BandwidthClass::Gbps1,
                DdsImplementation::OpenSplice,
                5,
            ),
            AppParams::new(3, 25),
        ),
    ];
    let dataset = LabeledDataset::measure(&configs, 300, 2);
    let (a, outcome_a) = ProtocolSelector::train_from(&dataset, &SelectorConfig::default());
    let (b, outcome_b) = ProtocolSelector::train_from(&dataset, &SelectorConfig::default());
    assert_eq!(outcome_a, outcome_b);
    assert_eq!(a, b);
}
