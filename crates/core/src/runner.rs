//! The end-to-end scenario runner: stands up the full stack — simulated
//! hosts, DDS entities, ANT transport — for one experiment configuration
//! and returns its pooled QoS report.

use adamant_dds::{session::collect_report, DomainParticipant, QosProfile};
use adamant_metrics::QosReport;
use adamant_netsim::{SimDuration, Simulation};
use adamant_transport::{AppSpec, ProtocolKind, TransportConfig, PAPER_PAYLOAD_BYTES};

use crate::env::{AppParams, Environment};

/// One experiment configuration: environment, application parameters, and
/// workload scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// The cloud environment (Table 1 row).
    pub env: Environment,
    /// The application parameters (Table 2 row).
    pub app: AppParams,
    /// Samples the data writer publishes (20 000 in the paper).
    pub samples: u64,
    /// Simulation seed; repetitions use consecutive seeds.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the paper's workload (20 000 × 12-byte samples).
    pub fn paper(env: Environment, app: AppParams, seed: u64) -> Self {
        Scenario {
            env,
            app,
            samples: 20_000,
            seed,
        }
    }

    /// Same configuration with a smaller sample count — for tests and
    /// quick sweeps where 20 000 samples would be wastefully slow.
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    /// The topic QoS profile that matches a candidate protocol's delivery
    /// semantics.
    fn qos_for(kind: ProtocolKind) -> QosProfile {
        match kind {
            ProtocolKind::Udp => QosProfile::best_effort(),
            // Stream and shared-memory cores guarantee loss-free ordered
            // delivery, the same contract NAKcast's reliable profile names.
            ProtocolKind::Nakcast { .. }
            | ProtocolKind::StreamCast { .. }
            | ProtocolKind::ShmCast { .. } => QosProfile::reliable(),
            ProtocolKind::Ricochet { .. } => QosProfile::time_critical(),
        }
    }

    /// Runs this scenario once over `transport` and returns the pooled QoS
    /// report.
    ///
    /// The full stack is exercised: a [`DomainParticipant`] with the
    /// environment's DDS implementation creates the topic, writer, and
    /// readers; QoS compatibility is validated; the session is installed
    /// over the transport; and the simulation runs to quiescence (publish
    /// span plus a recovery grace period).
    ///
    /// # Panics
    ///
    /// Panics if the DDS layer rejects the session (cannot happen for the
    /// candidate protocols and their matching QoS profiles).
    pub fn run(&self, transport: TransportConfig) -> QosReport {
        self.run_counted(transport).0
    }

    /// [`run`](Self::run), also returning how many simulator events the
    /// run processed — the pinned reference cells compare both, so an
    /// engine change that alters scheduling cannot hide behind an
    /// unchanged report.
    pub fn run_counted(&self, transport: TransportConfig) -> (QosReport, u64) {
        let qos = Self::qos_for(transport.kind);
        let mut participant = DomainParticipant::new(0, self.env.dds);
        let topic = participant
            .create_topic::<[u8; 12]>("adamant/experiment", qos)
            .expect("fresh participant has no topics");
        let host = self.env.host_config();
        participant
            .create_data_writer(
                topic,
                qos,
                AppSpec::at_rate(self.samples, self.app.rate_hz as f64, PAPER_PAYLOAD_BYTES),
                host,
            )
            .expect("topic has no writer yet");
        for _ in 0..self.app.receivers {
            participant
                .create_data_reader(topic, qos, host, self.env.drop_probability())
                .expect("reader creation is infallible here");
        }

        participant.set_capture(false);
        let mut sim = Simulation::new(self.seed).with_network(self.env.network_config());
        let handles = participant
            .install(&mut sim, topic, transport)
            .expect("candidate protocols satisfy their matching qos");

        let publish_span =
            SimDuration::from_secs_f64(self.samples as f64 / self.app.rate_hz as f64);
        let grace = SimDuration::from_secs(3);
        sim.run_until(adamant_netsim::SimTime::ZERO + publish_span + grace);
        (collect_report(&sim, &handles), sim.events_processed())
    }

    /// Runs `repetitions` independent repetitions (consecutive seeds), as
    /// the paper does (5 per configuration).
    pub fn run_repeated(&self, transport: TransportConfig, repetitions: u32) -> Vec<QosReport> {
        (0..repetitions as u64)
            .map(|rep| {
                Scenario {
                    seed: self.seed.wrapping_add(rep),
                    ..*self
                }
                .run(transport)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::BandwidthClass;
    use adamant_dds::DdsImplementation;
    use adamant_metrics::MetricKind;
    use adamant_netsim::MachineClass;

    fn fast_env() -> Environment {
        Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        )
    }

    #[test]
    fn runs_each_candidate_protocol_through_full_stack() {
        let scenario = Scenario::paper(fast_env(), AppParams::new(3, 100), 1).with_samples(400);
        for kind in crate::features::candidate_protocols() {
            let report = scenario.run(TransportConfig::new(kind));
            assert_eq!(report.samples_sent, 400);
            assert_eq!(report.receivers, 3);
            assert!(
                report.reliability() > 0.9,
                "{kind}: reliability {}",
                report.reliability()
            );
        }
    }

    #[test]
    fn repetitions_vary_but_are_deterministic() {
        let scenario = Scenario::paper(fast_env(), AppParams::new(3, 100), 7).with_samples(300);
        let transport = TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 });
        let runs = scenario.run_repeated(transport, 3);
        assert_eq!(runs.len(), 3);
        // Different seeds → (almost surely) different latency samples.
        assert!(
            runs[0].avg_latency_us != runs[1].avg_latency_us
                || runs[1].avg_latency_us != runs[2].avg_latency_us
        );
        // Re-running reproduces the same reports.
        let again = scenario.run_repeated(transport, 3);
        assert_eq!(runs, again);
    }

    #[test]
    fn scores_are_finite_and_positive() {
        let scenario = Scenario::paper(fast_env(), AppParams::new(3, 50), 3).with_samples(300);
        let report = scenario.run(TransportConfig::new(ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        }));
        for metric in MetricKind::all() {
            let score = metric.score(&report);
            assert!(score.is_finite() && score >= 0.0, "{metric}: {score}");
        }
    }
}
