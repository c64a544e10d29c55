//! # adamant
//!
//! **ADAMANT** (*ADAptive Middleware And Network Transports*): autonomic
//! configuration of QoS-enabled DDS pub/sub middleware for cloud computing
//! environments via supervised machine learning — a Rust reproduction of
//! Hoffert, Schmidt, and Gokhale, *"Adapting Distributed Real-Time and
//! Embedded Pub/Sub Middleware for Cloud Computing Environments"*
//! (Middleware 2010).
//!
//! ## The control flow (paper Fig. 3)
//!
//! 1. **Probe** the provisioned resources ([`probe`]): CPU class and link
//!    bandwidth, from `/proc/cpuinfo` on a real host or a
//!    [`SimulatedCloud`].
//! 2. **Encode** the environment (Table 1), application parameters
//!    (Table 2), and the composite QoS metric of interest into ANN
//!    features ([`features`]).
//! 3. **Select** the transport protocol with the trained neural network
//!    ([`ProtocolSelector`]) — in microseconds, with input-independent
//!    cost.
//! 4. **Configure** the DDS middleware through the ANT framework with the
//!    chosen protocol and run the session ([`Scenario::run`]).
//!
//! ## Quick taste
//!
//! ```
//! use adamant::{
//!     AppParams, BandwidthClass, Environment, ProtocolSelector, Scenario, SelectorConfig,
//! };
//! use adamant::dataset::{DatasetRow, LabeledDataset};
//! use adamant_dds::DdsImplementation;
//! use adamant_metrics::MetricKind;
//! use adamant_netsim::MachineClass;
//! use adamant_transport::TransportConfig;
//!
//! // A toy dataset: fast machines prefer Ricochet (class 4), slow ones
//! // NAKcast 1 ms (class 3). Real training data comes from the sweep in
//! // `adamant-experiments`.
//! let rows: Vec<DatasetRow> = MachineClass::all()
//!     .into_iter()
//!     .flat_map(|machine| {
//!         (1..=5u8).map(move |loss| DatasetRow {
//!             env: Environment::new(
//!                 machine,
//!                 BandwidthClass::Gbps1,
//!                 DdsImplementation::OpenSplice,
//!                 loss,
//!             ),
//!             app: AppParams::new(3, 25),
//!             metric: MetricKind::ReLate2,
//!             best_class: if machine == MachineClass::Pc3000 { 4 } else { 3 },
//!             scores: vec![0.0; 6],
//!         })
//!     })
//!     .collect();
//! let dataset = LabeledDataset { rows };
//!
//! let (selector, _) = ProtocolSelector::train_from(&dataset, &SelectorConfig::default());
//! let env = Environment::new(
//!     MachineClass::Pc3000,
//!     BandwidthClass::Gbps1,
//!     DdsImplementation::OpenSplice,
//!     5,
//! );
//! let selection = selector.select(&env, &AppParams::new(3, 25), MetricKind::ReLate2);
//!
//! // Run the configured session end to end on the simulated cloud.
//! let report = Scenario::paper(env, AppParams::new(3, 25), 42)
//!     .with_samples(200)
//!     .run(TransportConfig::new(selection.protocol));
//! assert!(report.reliability() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adamant;
pub mod adaptive;
pub mod dataset;
mod env;
pub mod features;
mod healing;
pub mod policy;
pub mod prelude;
pub mod probe;
mod runner;
mod selector;
mod timing;

pub use crate::adamant::{Adamant, Configuration};
pub use adaptive::{
    AdaptationDecision, AdaptiveController, AdaptiveTimeline, MonitorThresholds, Phase,
    PhaseOutcome, QosMonitor,
};
pub use dataset::{best_class_with_margin, DatasetRow, LabeledDataset, LABEL_MARGIN};
pub use env::{AppParams, BandwidthClass, Environment};
pub use healing::{
    HealingOutcome, ResilientChoice, ResilientSelector, SelectorSource, SwitchBackoff, SwitchRecord,
};
pub use policy::{
    AdaptivePolicy, FeedbackRing, OnlineStats, OnlineTrainer, OnlineTrainingConfig, QosObservation,
    StreamConfig,
};
pub use probe::{LinuxProcProbe, ProbedResources, ResourceProbe, SimulatedCloud};
pub use runner::Scenario;
pub use selector::{
    Choice, FeatureRow, ProtocolSelector, Selection, SelectorConfig, TableSelector, TreeSelector,
};
pub use timing::QueryCostModel;
