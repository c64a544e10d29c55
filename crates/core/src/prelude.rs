//! One-stop import for the types that nearly every ADAMANT program touches.
//!
//! The workspace is split into focused crates (`adamant-proto`,
//! `adamant-rt`, `adamant-transport`, `adamant-dds`, `adamant-netsim`,
//! `adamant-metrics`), which keeps the layers honest but makes example
//! code start with a wall of `use` lines. `adamant::prelude` re-exports
//! the cross-crate surface once, from exactly one canonical path per
//! name, so applications can write:
//!
//! ```
//! use adamant::prelude::*;
//!
//! let cfg = TransportConfig::new(ProtocolKind::Udp);
//! let qos = QosProfile::reliable();
//! let node = NodeId(7);
//! let _ = (cfg, qos, node);
//! ```
//!
//! Names that exist in more than one crate (e.g. `NodeId`, which
//! `adamant-netsim` re-exports from `adamant-proto`) are pulled from
//! their defining crate only, so a glob import never produces an
//! ambiguity error.

// Protocol-layer identities and time (defining crate for NodeId/GroupId).
pub use adamant_proto::{GroupId, NodeId, ProtocolCore, Span, TimePoint};

// Real-clock runtime: the readiness-driven multiplexed cluster.
pub use adamant_rt::{
    ClusterStats, EndpointId, EndpointReport, MonotonicClock, MuxCluster, MuxConfig, RtError,
};

// Transport selection and tuning.
pub use adamant_transport::{AppSpec, ProtocolKind, StackProfile, TransportConfig, Tuning};

// DDS-style pub/sub surface.
pub use adamant_dds::{
    DataReader, DataWriter, DdsError, DdsImplementation, DomainParticipant, QosProfile, Topic,
};

// Simulated cloud environments.
pub use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDuration, SimTime, Simulation};

// Composite QoS metrics.
pub use adamant_metrics::{MetricKind, MetricsRegistry};

// The adaptation loop from this crate: the unified policy builder and the
// pieces it composes.
pub use crate::{
    AdaptivePolicy, AppParams, BandwidthClass, Choice, Environment, FeatureRow, HealingOutcome,
    MonitorThresholds, OnlineStats, OnlineTrainer, OnlineTrainingConfig, ProtocolSelector,
    QosObservation, ResilientChoice, ResilientSelector, Scenario, Selection, SelectorConfig,
    SelectorSource, StreamConfig, SwitchRecord, TreeSelector,
};
