//! Best-effort UDP multicast: the no-recovery baseline.

use adamant_proto::{Env, GroupId, Input, ProtocolCore, WireMsg};

use crate::profile::{AppSpec, StackProfile};
use crate::publisher::{PublisherCore, UDP_PATH};
use crate::receiver::{DataReader, Reception};

/// Sender side of plain UDP multicast: publishes and nothing else.
#[derive(Debug)]
pub struct UdpSender {
    pub(crate) core: PublisherCore,
}

impl UdpSender {
    /// Creates a sender publishing `app` into `group`.
    pub fn new(app: AppSpec, profile: StackProfile, group: GroupId) -> Self {
        UdpSender {
            core: PublisherCore::new(app, profile, UDP_PATH, group, None, false),
        }
    }

    /// Samples published so far.
    pub fn published(&self) -> u64 {
        self.core.published()
    }
}

impl ProtocolCore for UdpSender {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => self.core.start(env),
            Input::TimerFired { tag, .. } => {
                self.core.handle_timer(env, tag);
            }
            Input::PacketIn { .. } | Input::Tick => {}
        }
    }
}

/// Receiver side of plain UDP multicast: records whatever arrives and
/// survives the end-host drop stage.
#[derive(Debug)]
pub struct UdpReceiver {
    reception: Reception,
}

impl UdpReceiver {
    /// Creates a receiver expecting `expected` samples, dropping incoming
    /// data with probability `drop_probability` (the paper's end-host loss
    /// injection).
    pub fn new(expected: u64, drop_probability: f64) -> Self {
        UdpReceiver {
            reception: Reception::new(expected, drop_probability),
        }
    }
}

impl DataReader for UdpReceiver {
    fn reception(&self) -> &Reception {
        &self.reception
    }

    fn reception_mut(&mut self) -> &mut Reception {
        &mut self.reception
    }
}

impl ProtocolCore for UdpReceiver {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        let Input::PacketIn {
            msg: WireMsg::Data(data),
            ..
        } = input
        else {
            return;
        };
        if !self.reception.lost(env) {
            let now = env.now();
            self.reception
                .accept(env, data.seq, data.published_at, now, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::DataReader;
    use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDriver, Simulation};

    fn run(drop_probability: f64) -> (u64, u64) {
        let mut sim = Simulation::new(11);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let rx = sim.add_node(
            cfg,
            SimDriver::new(UdpReceiver::new(1_000, drop_probability)),
        );
        let group = sim.create_group(&[rx]);
        let app = AppSpec::at_rate(1_000, 1_000.0, 12);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(UdpSender::new(app, StackProfile::new(10.0, 48), group)),
        );
        sim.join_group(group, tx);
        sim.run();
        let r = sim.agent::<UdpReceiver>(rx).unwrap();
        (r.log().delivered_count(), r.dropped())
    }

    #[test]
    fn lossless_delivers_everything() {
        let (delivered, dropped) = run(0.0);
        assert_eq!(delivered, 1_000);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn drop_stage_loses_about_p() {
        let (delivered, dropped) = run(0.05);
        assert_eq!(delivered + dropped, 1_000);
        assert!((30..=70).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn sender_reports_published() {
        let mut sim = Simulation::new(1);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(UdpSender::new(
                AppSpec::at_rate(5, 100.0, 12),
                StackProfile::default(),
                group,
            )),
        );
        sim.run();
        assert_eq!(sim.agent::<UdpSender>(tx).unwrap().published(), 5);
    }
}
