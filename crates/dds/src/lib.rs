//! # adamant-dds
//!
//! A DDS-flavoured, QoS-enabled pub/sub middleware layer over the simulated
//! ANT transports, reproducing the middleware substrate of the ADAMANT
//! paper (Hoffert, Schmidt, Gokhale — Middleware 2010).
//!
//! The crate models the slice of OMG DDS the paper exercises:
//!
//! * **QoS policies** ([`QosProfile`]) — reliability, history, durability,
//!   ordering, deadline — with requested-vs-offered compatibility checking.
//! * **Implementation profiles** ([`DdsImplementation`]) — OpenDDS 1.2.1
//!   and OpenSplice 3.4.2 cost models, one of the paper's environment
//!   variables.
//! * **Entities** ([`DomainParticipant`], topics, writers, readers), which
//!   know no hosts: a topic validates into the
//!   [`SessionSpec`](adamant_transport::SessionSpec) any
//!   [`TransportConfig`](adamant_transport::TransportConfig) builds cores
//!   from. The simulator binding ([`session`]) takes the writer's and
//!   readers' hosts and mounts those cores on them.
//!
//! ## Example
//!
//! ```
//! use adamant_dds::{DdsImplementation, DomainParticipant, QosProfile};
//! use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimTime, Simulation};
//! use adamant_dds::session;
//! use adamant_transport::{AppSpec, ProtocolKind, TransportConfig};
//!
//! # fn main() -> Result<(), adamant_dds::DdsError> {
//! let mut participant = DomainParticipant::new(0, DdsImplementation::OpenSplice);
//! let topic = participant.create_topic::<[u8; 12]>("uav/infrared", QosProfile::time_critical())?;
//! let app = AppSpec::at_rate(500, 100.0, 12);
//! participant.create_data_writer(topic, QosProfile::time_critical(), app)?;
//! for _ in 0..3 {
//!     participant.create_data_reader(topic, QosProfile::time_critical(), 0.05)?;
//! }
//!
//! let mut sim = Simulation::new(42);
//! let transport = TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 });
//! let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
//! let readers = [host; 3];
//! let handles = session::install_topic(&mut sim, &participant, topic, transport, host, &readers)?;
//! sim.run_until(SimTime::from_secs(10));
//! let report = session::collect_report(&sim, &handles);
//! assert!(report.reliability() > 0.95);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
mod domain;
mod implementation;
mod qos;
pub mod session;
mod status;

pub use domain::{DataReader, DataWriter, DdsError, DomainParticipant, Topic};
pub use implementation::DdsImplementation;
pub use qos::{Durability, History, Ordering, QosMismatch, QosProfile, Reliability};
pub use session::SessionHandles;
pub use status::{
    per_instance_statuses, OrderViolationStatus, ReaderStatuses, RequestedDeadlineMissedStatus,
    SampleLostStatus, SampleRejectedStatus,
};
