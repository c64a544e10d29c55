//! # adamant-proto
//!
//! The sans-I/O protocol core of the ADAMANT reproduction.
//!
//! The ANT transports (UDP, NAKcast, ACKcast, Ricochet, Slingshot) are
//! written against this crate as pure state machines: they implement
//! [`ProtocolCore`], consuming typed [`Input`]s and emitting typed
//! [`Effect`]s through an [`Env`]. Everything runtime-specific — sockets,
//! clocks, timer wheels, randomness sources — lives in a *driver*:
//!
//! * `adamant-netsim` drives cores inside the deterministic discrete-event
//!   simulator (via its `SimDriver` adapter), and
//! * `adamant-rt` drives the same cores over real UDP sockets with a
//!   monotonic clock.
//!
//! Cores report what they do as [`ObsEvent`]s through [`Env::emit`],
//! already naming their node: the one event taxonomy every driver records
//! and the invariant checker in `adamant-metrics` reads.
//!
//! Time is abstracted as [`TimePoint`]/[`Span`] (plain nanosecond
//! counters), randomness behind the [`Entropy`] trait, and wall clocks
//! behind [`Clock`]. A core is a pure function of its inputs and entropy
//! stream: the same schedule replayed twice yields a bit-identical effect
//! stream, which is what lets the simulator's golden traces vouch for the
//! code that later runs on real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod core;
mod durable;
mod history;
mod ids;
mod obs;
mod rng;
mod snapshot;
mod time;
mod timer;
mod window;
pub mod wire;

pub use clock::Clock;
pub use core::{Effect, Env, EnvHost, Input, Membership, ProtocolCore, TimerToken};
pub use durable::{
    catch_up_bound, DurabilityMode, DurableConfig, DurableCore, DurableDelivery, LiveJoin,
    TAG_DURABLE_HEARTBEAT, TAG_DURABLE_NAK,
};
pub use history::{catch_up_backoff, GapTracker, HistoryCache};
pub use ids::{Destination, GroupId, NodeId, ProcessingCost};
pub use obs::{DropReason, MemorySink, ObsEvent, TracedEvent};
pub use rng::{DetRng, Entropy};
pub use snapshot::{fingerprint_debug, Fnv64, StateHash};
pub use time::{Span, TimePoint};
pub use timer::{CalendarQueue, TimerFire, TimerWheel};
pub use window::{beyond, Insert, Refusals, SeqWindow, RESYNC_AFTER, SPAN};
pub use wire::{
    FrameBody, FrameDest, FrameDests, FrameError, FrameHeader, FramePart, Frames, WireMsg,
    ANY_ENDPOINT, ANY_INCARNATION, WIRE_VERSION,
};
