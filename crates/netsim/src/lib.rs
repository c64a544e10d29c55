//! # adamant-netsim
//!
//! A deterministic discrete-event network and host simulator. It stands in
//! for the Emulab testbed used in the ADAMANT paper (Hoffert, Schmidt,
//! Gokhale — Middleware 2010): hosts of different hardware classes
//! (pc850 / pc3000) on a switched LAN of configurable bandwidth
//! (10 Mb / 100 Mb / 1 Gb), with multicast, per-packet CPU costs, FIFO NIC
//! queueing, and seeded randomness.
//!
//! ## Model
//!
//! Every transmitted packet pays, in order:
//!
//! 1. **Sender CPU** — the declared [`ProcessingCost::tx`], scaled by the
//!    sender's [`MachineClass::cpu_scale`], through a serial CPU queue.
//! 2. **Egress serialization** — `size_bytes` at the sender NIC bandwidth
//!    (once per send; the switch replicates multicast copies).
//! 3. **Propagation** — a fixed switch/cable delay
//!    ([`NetworkConfig::propagation`]).
//! 4. **Ingress serialization** — per copy, at the receiver NIC bandwidth,
//!    FIFO in arrival order.
//! 5. **Receiver CPU** — the declared [`ProcessingCost::rx`], scaled by the
//!    receiver's machine class.
//!
//! Runs are a pure function of construction order and seed: the event queue
//! breaks timestamp ties in scheduling order, and all randomness flows from
//! per-node [`SimRng`] streams forked off the simulation seed.
//!
//! ## Example
//!
//! ```
//! use adamant_netsim::*;
//! use std::any::Any;
//!
//! struct Counter(u32);
//! impl Agent for Counter {
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
//!         self.0 += 1;
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! struct Sender(GroupId);
//! impl Agent for Sender {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(self.0, OutPacket::empty(12));
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim = Simulation::new(1);
//! let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
//! let r1 = sim.add_node(cfg, Counter(0));
//! let r2 = sim.add_node(cfg, Counter(0));
//! let group = sim.create_group(&[r1, r2]);
//! sim.add_node(cfg, Sender(group));
//! sim.run();
//! assert_eq!(sim.agent::<Counter>(r1).unwrap().0, 1);
//! assert_eq!(sim.agent::<Counter>(r2).unwrap().0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod driver;
mod event;
mod fault;
mod host;
mod loss;
mod packet;
mod rng;
mod sim;
mod stats;
mod time;

// The observability taxonomy lives with the cores that emit it.
pub use adamant_proto::{CalendarQueue, DropReason, MemorySink, ObsEvent, TracedEvent};
pub use agent::{Agent, Ctx};
pub use driver::SimDriver;
pub use fault::{Fault, FaultPlan, RestartFn};
pub use host::{Bandwidth, HostConfig, LinkProfile, MachineClass};
pub use loss::LossModel;
pub use packet::{Destination, GroupId, NodeId, OutPacket, Packet, ProcessingCost};
pub use rng::SimRng;
pub use sim::{NetworkConfig, Simulation};
pub use stats::{TagCounters, WireStats};
pub use time::{SimDuration, SimTime};
