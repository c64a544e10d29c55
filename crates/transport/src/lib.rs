//! # adamant-transport
//!
//! ANT (*Adaptive Network Transports*)-style composable transport protocols
//! as sans-I/O cores, reproducing the protocol substrate of the ADAMANT
//! paper (Hoffert, Schmidt, Gokhale — Middleware 2010, §3.1):
//!
//! * [`Ricochet`](RicochetReceiver) — time-critical multicast with lateral
//!   error correction, tunable `R`/`C` (Balakrishnan et al., NSDI'07).
//! * [`NAKcast`](NakcastReceiver) — NAK-based reliable ordered multicast
//!   with a tunable NAK timeout.
//! * [`UDP multicast`](UdpReceiver) — the best-effort baseline.
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
//! A [`SessionSpec`] builds a session's cores from a [`TransportConfig`]:
//! one [`WriterCore`] and a [`DataReader`] per reader, boxed, whatever the
//! protocol. They know no host. `adamant_dds::session` mounts them on the
//! simulator and pools their QoS; `adamant_rt::MuxCluster` mounts the same
//! cores on UDP sockets.
//!
//! ## Example
//!
//! ```
//! use adamant_proto::{GroupId, NodeId, Span};
//! use adamant_transport::{AppSpec, ProtocolKind, SessionSpec, StackProfile, TransportConfig};
//!
//! let spec = SessionSpec {
//!     transport: TransportConfig::new(ProtocolKind::Nakcast {
//!         timeout: Span::from_millis(2),
//!     }),
//!     app: AppSpec::at_rate(200, 100.0, 12),
//!     stack: StackProfile::new(20.0, 48),
//!     drop_probability: 0.05,
//!     capture: false,
//! };
//! let (writer_node, group) = (NodeId(0), GroupId(0));
//! let writer = spec.build_writer(group);
//! let readers: Vec<_> = (0..3).map(|_| spec.build_reader(writer_node, group)).collect();
//! assert_eq!(writer.published(), 0);
//! assert!(readers.iter().all(|r| r.log().delivered_count() == 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ant;
mod config;
mod failover;
mod nakcast;
mod profile;
mod publisher;
mod receiver;
mod ricochet;
mod shmcast;
mod streamcast;
pub mod tags;
mod udp;

pub use ant::{SessionSpec, WriterCore};
pub use config::{ProtocolKind, ProtocolProperties, TransportConfig, Tuning};
pub use failover::NakcastStandby;
pub use nakcast::{nakcast_recovery_bound, NakcastReceiver, NakcastSender};
pub use profile::{AppSpec, StackProfile, PAPER_PAYLOAD_BYTES};
pub use receiver::{DataReader, ProtocolStats, Reception};
pub use ricochet::{RicochetReceiver, RicochetSender};
pub use shmcast::{ShmCastReceiver, ShmCastSender, SHM_FRAMING_BYTES};
pub use streamcast::{StreamCastReceiver, StreamCastSender};
pub use udp::{UdpReceiver, UdpSender};
