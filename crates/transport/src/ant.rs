//! The ANT (Adaptive Network Transports) framework: composes a complete
//! pub/sub transport session — one writer core and its reader cores — from
//! a [`TransportConfig`].
//!
//! This is the configuration seam ADAMANT drives: the machine-learning
//! selector picks a [`ProtocolKind`], and [`SessionSpec`] builds the
//! corresponding sans-I/O cores. They know no host: the simulator binding
//! in `adamant-dds` mounts them on simulated nodes, and the real-UDP
//! runtime (`adamant-rt`) mounts the same cores on sockets.

use adamant_proto::{GroupId, NodeId, ProtocolCore};

use crate::config::{ProtocolKind, TransportConfig};
use crate::nakcast::{NakcastReceiver, NakcastSender};
use crate::profile::{AppSpec, StackProfile};
use crate::receiver::DataReader;
use crate::ricochet::{RicochetReceiver, RicochetSender};
use crate::shmcast::{ShmCastReceiver, ShmCastSender};
use crate::streamcast::{StreamCastReceiver, StreamCastSender};
use crate::udp::{UdpReceiver, UdpSender};

/// Everything needed to build one session's cores.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Transport protocol and tuning.
    pub transport: TransportConfig,
    /// Publication workload.
    pub app: AppSpec,
    /// Middleware stack contribution (from the DDS profile).
    pub stack: StackProfile,
    /// End-host drop probability applied to data packets at each reader.
    pub drop_probability: f64,
    /// Whether readers keep a record of every delivery
    /// ([`capture`](adamant_metrics::DenseReceptionLog::capture)); a run
    /// that reads only its pooled QoS leaves it off.
    pub capture: bool,
}

/// A session's writer core: the protocol state machine and how far it has
/// published, whatever the protocol.
pub trait WriterCore: ProtocolCore {
    /// Samples published so far.
    fn published(&self) -> u64;
}

macro_rules! writer_cores {
    ($($core:ty),*) => {$(
        impl WriterCore for $core {
            fn published(&self) -> u64 {
                <$core>::published(self)
            }
        }
    )*};
}

writer_cores!(
    UdpSender,
    NakcastSender,
    RicochetSender,
    StreamCastSender,
    ShmCastSender
);

impl SessionSpec {
    /// The writer core of this session's protocol, publishing into `group`.
    pub fn build_writer(&self, group: GroupId) -> Box<dyn WriterCore> {
        let (app, stack, tuning) = (self.app, self.stack, self.transport.tuning);
        match self.transport.kind {
            ProtocolKind::Udp => Box::new(UdpSender::new(app, stack, tuning, group)),
            ProtocolKind::Nakcast { .. } => Box::new(NakcastSender::new(app, stack, tuning, group)),
            ProtocolKind::Ricochet { .. } => {
                Box::new(RicochetSender::new(app, stack, tuning, group))
            }
            ProtocolKind::StreamCast { window } => {
                Box::new(StreamCastSender::new(app, stack, tuning, group, window))
            }
            ProtocolKind::ShmCast { queue } => {
                Box::new(ShmCastSender::new(app, stack, group, queue))
            }
        }
    }

    /// A reader core of this session's protocol, expecting the stream from
    /// `sender` on `group`, capturing its deliveries if the spec asks.
    pub fn build_reader(&self, sender: NodeId, group: GroupId) -> Box<dyn DataReader> {
        let (samples, tuning, drop) = (
            self.app.total_samples,
            self.transport.tuning,
            self.drop_probability,
        );
        let mut reader: Box<dyn DataReader> = match self.transport.kind {
            ProtocolKind::Udp => Box::new(UdpReceiver::new(samples, drop)),
            ProtocolKind::Nakcast { timeout } => {
                Box::new(NakcastReceiver::new(sender, samples, timeout, tuning, drop))
            }
            ProtocolKind::Ricochet { r, c } => Box::new(RicochetReceiver::new(
                sender,
                group,
                samples,
                self.app.payload_bytes,
                r,
                c,
                tuning,
                drop,
            )),
            ProtocolKind::StreamCast { window } => {
                Box::new(StreamCastReceiver::new(sender, samples, window, drop))
            }
            ProtocolKind::ShmCast { queue } => {
                Box::new(ShmCastReceiver::new(sender, samples, queue))
            }
        };
        if self.capture {
            reader.log_mut().capture();
        }
        reader
    }
}
