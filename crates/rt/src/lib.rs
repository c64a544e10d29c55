//! # adamant-rt
//!
//! The real-socket runtime for the sans-I/O protocol cores in
//! `adamant-proto`: where `adamant-netsim` drives a [`ProtocolCore`]
//! inside the deterministic simulator, this crate drives the *same* core
//! over real UDP sockets with a monotonic clock.
//!
//! One driver, [`MuxCluster`], hosts any number of cores in one process,
//! sharded across N worker threads. Each worker multiplexes its whole
//! shard over a small fixed pool of shared sockets and drives every timer
//! of the shard from one timer wheel (the same hierarchical calendar
//! queue the simulator schedules through). Every frame a worker pass
//! queues for one address shares a datagram (wire version 4) flushed with
//! `sendmmsg`; receives drain with `recvmmsg` on the sockets a readiness
//! query named, and each frame is demuxed by the destination list in its
//! [`FrameHeader`](adamant_proto::FrameHeader), read through
//! [`Frames`](adamant_proto::Frames). A group send costs one frame per
//! destination worker rather than one datagram per member. One socket per
//! endpoint is the degenerate pool:
//! [`with_sockets_per_worker`](MuxConfig::with_sockets_per_worker) sized to
//! the shard.
//!
//! A worker parks in one wait: `epoll_pwait2` with a nanosecond timeout,
//! which ends at the next timer deadline or at the first readable socket,
//! whichever comes first — there is no sleep a datagram cannot end. A
//! worker also states how late its parks may end (a 25 µs timer slack on
//! its own thread); [`ClusterStats::parks`] and [`ClusterStats::io_wakes`]
//! count the parks and how many a datagram ended. Off Linux the wait is a
//! sleep capped at a millisecond.
//!
//! Every fallible public function returns [`RtError`] (never a bare
//! [`std::io::Error`]). Construction follows one idiom throughout:
//! consuming `with_*` builders for pre-bind configuration, `set_*`/`add_*`
//! mutators for post-bind state.
//!
//! [`ProtocolCore`]: adamant_proto::ProtocolCore

// `deny` instead of `forbid`: the one sanctioned exception is the FFI
// shim in `poller::sys` (epoll, recvmmsg/sendmmsg and prctl bindings), which opts
// in explicitly. Everything else in the crate remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod error;
mod mux;
mod poller;
mod report;

pub use adamant_metrics::DeliveryLog;
pub use clock::MonotonicClock;
pub use error::RtError;
pub use mux::{MuxCluster, MuxConfig};
pub use report::{ClusterStats, EndpointId, EndpointReport};
