//! # adamant-rt
//!
//! The real-socket runtime for the sans-I/O protocol cores in
//! `adamant-proto`: where `adamant-netsim` drives a [`ProtocolCore`]
//! inside the deterministic simulator, this crate drives the *same* core
//! over real UDP sockets with a monotonic clock.
//!
//! Three drivers of the same cores:
//!
//! * [`Endpoint`] — one socket, one core, one thread; the caller keeps the
//!   core and lends it per [`run_for`](Endpoint::run_for) window.
//! * [`Cluster`] — many cores in one process, sharded across N worker
//!   threads; each worker owns its shard's sockets (one per endpoint) plus
//!   one shared timer wheel (the same hierarchical calendar queue the
//!   simulator schedules through), batches socket reads/writes per poll
//!   iteration, and applies bounded-outbox backpressure when a core's
//!   effect stream outruns its socket.
//! * [`MuxCluster`] — the scale path: the same sharding, but each worker
//!   multiplexes its whole shard over a small fixed pool of shared
//!   sockets. Every frame a worker pass queues for one address shares a
//!   datagram (wire version 4) flushed with `sendmmsg`; receives drain
//!   with `recvmmsg` on the sockets a readiness query named, each frame
//!   demuxed by the destination list in its
//!   [`FrameHeader`](adamant_proto::FrameHeader); a group send costs one
//!   frame per destination worker rather than one datagram per member.
//!
//! All three receive through one walker, [`Frames`](adamant_proto::Frames),
//! so a per-socket endpoint reads what a mux worker packs.
//!
//! All three park in the same wait: `epoll_pwait2` with a nanosecond
//! timeout, which ends at the next timer deadline or at the first
//! readable socket, whichever comes first — there is no sleep a datagram
//! cannot end. A mux worker also states how late its parks may end (a
//! 25 µs timer slack on its own thread); [`ClusterStats::parks`] and
//! [`ClusterStats::io_wakes`] count the parks and how many a datagram
//! ended. Off Linux the wait is a sleep capped at a millisecond.
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
mod cluster;
mod endpoint;
mod error;
mod mux;
mod poller;

pub use clock::MonotonicClock;
pub use cluster::{Cluster, ClusterConfig, ClusterStats, EndpointId};
pub use endpoint::{Endpoint, EndpointReport, RtConfig};
pub use error::RtError;
pub use mux::{MuxCluster, MuxConfig};
