//! # adamant-transport
//!
//! ANT (*Adaptive Network Transports*)-style composable transport protocols
//! over the [`adamant-netsim`](adamant_netsim) simulator, reproducing the
//! protocol substrate of the ADAMANT paper (Hoffert, Schmidt, Gokhale —
//! Middleware 2010, §3.1):
//!
//! * [`Ricochet`](RicochetReceiver) — time-critical multicast with lateral
//!   error correction, tunable `R`/`C` (Balakrishnan et al., NSDI'07).
//! * [`NAKcast`](NakcastReceiver) — NAK-based reliable ordered multicast
//!   with a tunable NAK timeout.
//! * [`UDP multicast`](UdpReceiver) — the best-effort baseline.
//! * [`ACKcast`](AckcastReceiver) — an ACK-window reliable multicast
//!   baseline.
//! * [`StreamCast`](StreamCastReceiver) — a TCP-like reliable ordered
//!   byte-stream transport (handshake, cumulative ACKs, adaptive RTO,
//!   windowed flow control) for lossy wide-area paths.
//! * [`ShmCast`](ShmCastReceiver) — a same-host shared-memory bounded
//!   queue with credit-based backpressure and zero loss.
//!
//! The protocols compose the ANT property set ([`ProtocolProperties`]):
//! multicast, packet tracking, NAK/ACK reliability, lateral error
//! correction, ordered delivery, flow control, group membership, and
//! heartbeat fault detection.
//!
//! Use [`ant::install`] to stand up a complete session from a
//! [`TransportConfig`] and [`ant::collect_report`] to pool the resulting
//! QoS measurements.
//!
//! ## Example
//!
//! ```
//! use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimTime, Simulation};
//! use adamant_transport::{ant, AppSpec, ProtocolKind, SessionSpec, StackProfile, TransportConfig};
//!
//! let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
//! let spec = SessionSpec {
//!     transport: TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }),
//!     app: AppSpec::at_rate(200, 100.0, 12),
//!     stack: StackProfile::new(20.0, 48),
//!     sender_host: host,
//!     receiver_hosts: vec![host; 3],
//!     drop_probability: 0.05,
//!     capture: false,
//! };
//! let mut sim = Simulation::new(42);
//! let handles = ant::install(&mut sim, &spec);
//! sim.run_until(SimTime::from_secs(10));
//! let report = ant::collect_report(&sim, &handles);
//! assert!(report.reliability() > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ackcast;
pub mod ant;
mod config;
mod failover;
mod flow;
mod nakcast;
mod profile;
mod publisher;
mod receiver;
mod ricochet;
mod shmcast;
mod slingshot;
mod streamcast;
pub mod tags;
mod udp;

pub use ackcast::{AckcastReceiver, AckcastSender};
pub use ant::{SessionHandles, SessionSpec};
pub use config::{ProtocolKind, ProtocolProperties, TransportConfig, Tuning};
pub use failover::NakcastStandby;
pub use flow::TokenBucket;
pub use nakcast::{nakcast_recovery_bound, NakcastReceiver, NakcastSender};
pub use profile::{AppSpec, StackProfile};
pub use receiver::{DataReader, ProtocolStats};
pub use ricochet::{RicochetReceiver, RicochetSender};
pub use shmcast::{ShmCastReceiver, ShmCastSender, SHM_FRAMING_BYTES};
pub use slingshot::{SlingshotReceiver, SlingshotSender};
pub use streamcast::{StreamCastReceiver, StreamCastSender};
pub use udp::{UdpReceiver, UdpSender};
