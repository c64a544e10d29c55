//! DDS entities: domain participants, topics, data writers and readers,
//! and the binding that installs a topic's session onto the simulator
//! through a pluggable transport (the OpenDDS/OpenSplice pluggable-protocol
//! seam that ANT exploits).

use std::fmt;

use adamant_netsim::{HostConfig, Simulation};
use adamant_transport::{AppSpec, ProtocolKind, SessionSpec, TransportConfig};

use crate::implementation::DdsImplementation;
use crate::qos::{Ordering, QosMismatch, QosProfile, Reliability};
use crate::session::{self, SessionHandles};

/// Errors from entity creation and session installation.
#[derive(Debug, Clone, PartialEq)]
pub enum DdsError {
    /// A topic with this name already exists in the participant.
    DuplicateTopic(String),
    /// The topic handle does not belong to this participant.
    UnknownTopic(String),
    /// The topic has no data writer.
    NoWriter(String),
    /// The topic has no data readers.
    NoReaders(String),
    /// This reproduction supports one writer per topic.
    MultipleWriters(String),
    /// A reader requested QoS the writer does not offer.
    IncompatibleQos {
        /// Topic where the mismatch occurred.
        topic: String,
        /// The specific RxO violation.
        mismatch: QosMismatch,
    },
    /// The chosen transport cannot honour the session's QoS.
    TransportUnsuitable {
        /// Topic being installed.
        topic: String,
        /// Why the transport does not fit.
        reason: String,
    },
    /// Readers of one topic must share the same injected loss rate.
    HeterogeneousLoss(String),
    /// The real-UDP runtime failed underneath the facade. Carries the
    /// rendered [`adamant_rt::RtError`] (this enum is `Clone + PartialEq`;
    /// `io::Error` is neither, so the source is stringified).
    Runtime(String),
}

impl fmt::Display for DdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdsError::DuplicateTopic(t) => write!(f, "topic `{t}` already exists"),
            DdsError::UnknownTopic(t) => write!(f, "topic `{t}` does not exist"),
            DdsError::NoWriter(t) => write!(f, "topic `{t}` has no data writer"),
            DdsError::NoReaders(t) => write!(f, "topic `{t}` has no data readers"),
            DdsError::MultipleWriters(t) => {
                write!(f, "topic `{t}` has more than one data writer")
            }
            DdsError::IncompatibleQos { topic, mismatch } => {
                write!(f, "incompatible qos on topic `{topic}`: {mismatch}")
            }
            DdsError::TransportUnsuitable { topic, reason } => {
                write!(f, "transport unsuitable for topic `{topic}`: {reason}")
            }
            DdsError::HeterogeneousLoss(t) => {
                write!(f, "readers of topic `{t}` have differing loss rates")
            }
            DdsError::Runtime(e) => write!(f, "runtime failure: {e}"),
        }
    }
}

impl std::error::Error for DdsError {}

impl From<adamant_rt::RtError> for DdsError {
    fn from(e: adamant_rt::RtError) -> Self {
        DdsError::Runtime(e.to_string())
    }
}

/// Handle to a topic created on a [`DomainParticipant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topic {
    index: usize,
}

/// Handle to a data writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataWriter {
    index: usize,
}

/// Handle to a data reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataReader {
    index: usize,
}

#[derive(Debug, Clone)]
struct TopicEntry {
    name: String,
    type_name: &'static str,
    qos: QosProfile,
}

#[derive(Debug, Clone)]
struct WriterEntry {
    topic: usize,
    qos: QosProfile,
    app: AppSpec,
    host: HostConfig,
}

#[derive(Debug, Clone)]
struct ReaderEntry {
    topic: usize,
    qos: QosProfile,
    host: HostConfig,
    drop_probability: f64,
}

/// A DDS domain participant: the factory for topics, writers, and readers,
/// bound to one DDS implementation profile.
///
/// # Examples
///
/// ```
/// use adamant_dds::{DdsImplementation, DomainParticipant, QosProfile};
/// use adamant_netsim::{Bandwidth, HostConfig, MachineClass};
/// use adamant_transport::AppSpec;
///
/// # fn main() -> Result<(), adamant_dds::DdsError> {
/// let mut participant = DomainParticipant::new(0, DdsImplementation::OpenSplice);
/// let topic = participant.create_topic::<[u8; 12]>("uav/infrared", QosProfile::reliable())?;
/// let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
/// participant.create_data_writer(
///     topic,
///     QosProfile::reliable(),
///     AppSpec::at_rate(100, 25.0, 12),
///     host,
/// )?;
/// participant.create_data_reader(topic, QosProfile::best_effort(), host, 0.05)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DomainParticipant {
    domain_id: u32,
    implementation: DdsImplementation,
    topics: Vec<TopicEntry>,
    writers: Vec<WriterEntry>,
    readers: Vec<ReaderEntry>,
    capture: bool,
}

impl DomainParticipant {
    /// Creates a participant in `domain_id` using `implementation`.
    pub fn new(domain_id: u32, implementation: DdsImplementation) -> Self {
        DomainParticipant {
            domain_id,
            implementation,
            topics: Vec::new(),
            writers: Vec::new(),
            readers: Vec::new(),
            capture: true,
        }
    }

    /// Whether installed readers keep the record per delivery that
    /// [`ReaderStatuses`](crate::ReaderStatuses) needs (the default).
    pub fn set_capture(&mut self, capture: bool) {
        self.capture = capture;
    }

    /// The domain this participant belongs to.
    pub fn domain_id(&self) -> u32 {
        self.domain_id
    }

    /// The DDS implementation profile in use.
    pub fn implementation(&self) -> DdsImplementation {
        self.implementation
    }

    /// Creates a topic named `name` carrying samples of type `T`.
    ///
    /// # Errors
    ///
    /// Returns [`DdsError::DuplicateTopic`] if the name is taken.
    pub fn create_topic<T>(&mut self, name: &str, qos: QosProfile) -> Result<Topic, DdsError> {
        if self.topics.iter().any(|t| t.name == name) {
            return Err(DdsError::DuplicateTopic(name.to_owned()));
        }
        self.topics.push(TopicEntry {
            name: name.to_owned(),
            type_name: std::any::type_name::<T>(),
            qos,
        });
        Ok(Topic {
            index: self.topics.len() - 1,
        })
    }

    /// The name of `topic`.
    pub fn topic_name(&self, topic: Topic) -> &str {
        &self.topics[topic.index].name
    }

    /// The sample type name of `topic`.
    pub fn topic_type(&self, topic: Topic) -> &'static str {
        self.topics[topic.index].type_name
    }

    /// The QoS the topic was created with.
    pub fn topic_qos(&self, topic: Topic) -> QosProfile {
        self.topics[topic.index].qos
    }

    /// Creates the data writer for `topic`, publishing `app` from `host`.
    ///
    /// # Errors
    ///
    /// Returns [`DdsError::MultipleWriters`] if the topic already has one
    /// (this reproduction models the paper's single-writer sessions).
    pub fn create_data_writer(
        &mut self,
        topic: Topic,
        qos: QosProfile,
        app: AppSpec,
        host: HostConfig,
    ) -> Result<DataWriter, DdsError> {
        if self.writers.iter().any(|w| w.topic == topic.index) {
            return Err(DdsError::MultipleWriters(self.topic_name(topic).to_owned()));
        }
        self.writers.push(WriterEntry {
            topic: topic.index,
            qos,
            app,
            host,
        });
        Ok(DataWriter {
            index: self.writers.len() - 1,
        })
    }

    /// Creates a data reader for `topic` on `host`, dropping incoming data
    /// with probability `drop_probability` (the paper's end-host loss
    /// injection).
    pub fn create_data_reader(
        &mut self,
        topic: Topic,
        qos: QosProfile,
        host: HostConfig,
        drop_probability: f64,
    ) -> Result<DataReader, DdsError> {
        self.readers.push(ReaderEntry {
            topic: topic.index,
            qos,
            host,
            drop_probability,
        });
        Ok(DataReader {
            index: self.readers.len() - 1,
        })
    }

    /// Number of readers currently attached to `topic`.
    pub fn reader_count(&self, topic: Topic) -> usize {
        self.readers
            .iter()
            .filter(|r| r.topic == topic.index)
            .count()
    }

    /// The manual QoS→transport mapping a developer would hand-code (the
    /// "switch statement" adaptation approach the paper contrasts ADAMANT
    /// against). Ignores environment resources entirely.
    pub fn manual_transport_for(&self, topic: Topic) -> ProtocolKind {
        let qos = self.topics[topic.index].qos;
        match (qos.reliability, qos.ordering) {
            (Reliability::BestEffort, _) => ProtocolKind::Udp,
            (Reliability::Reliable, Ordering::SourceOrdered) => ProtocolKind::Nakcast {
                timeout: adamant_netsim::SimDuration::from_millis(10),
            },
            (Reliability::Reliable, Ordering::Unordered) => ProtocolKind::Ricochet { r: 4, c: 3 },
        }
    }

    /// Validates QoS and installs the topic's pub/sub session into `sim`
    /// over `transport`, returning the live session handles.
    ///
    /// # Errors
    ///
    /// * [`DdsError::NoWriter`] / [`DdsError::NoReaders`] if the topic is
    ///   incomplete.
    /// * [`DdsError::IncompatibleQos`] if any reader requests more than the
    ///   writer offers.
    /// * [`DdsError::TransportUnsuitable`] if `transport` cannot honour the
    ///   session's reliability/ordering needs.
    /// * [`DdsError::HeterogeneousLoss`] if readers disagree on loss rate.
    pub fn install(
        &self,
        sim: &mut Simulation,
        topic: Topic,
        transport: TransportConfig,
    ) -> Result<SessionHandles, DdsError> {
        let (spec, sender_host, receiver_hosts) = self.validated_spec(topic, transport)?;
        Ok(session::install(sim, &spec, sender_host, &receiver_hosts))
    }

    /// Re-validates QoS against `transport` and swaps a live session over
    /// to it mid-stream — the self-healing protocol switch. The session
    /// keeps its nodes, hosts, and multicast group; the new sender
    /// publishes `remaining_samples` fresh samples (numbered from zero).
    ///
    /// Reception logs of the old protocol's agents are destroyed by the
    /// swap: callers must harvest deliveries *before* switching.
    ///
    /// # Errors
    ///
    /// The same validation as [`install`](Self::install); in particular a
    /// transport that cannot honour the topic's QoS is refused, so a
    /// mis-trained selector cannot downgrade a reliable session to UDP.
    pub fn reinstall(
        &self,
        sim: &mut Simulation,
        topic: Topic,
        handles: &SessionHandles,
        transport: TransportConfig,
        remaining_samples: u64,
    ) -> Result<SessionHandles, DdsError> {
        let (mut spec, ..) = self.validated_spec(topic, transport)?;
        spec.app.total_samples = remaining_samples;
        Ok(session::reinstall(sim, &spec, handles))
    }

    /// Runs the full install-time validation and builds the session spec,
    /// with the writer's host and the readers' hosts.
    fn validated_spec(
        &self,
        topic: Topic,
        transport: TransportConfig,
    ) -> Result<(SessionSpec, HostConfig, Vec<HostConfig>), DdsError> {
        let name = self.topic_name(topic).to_owned();
        let writer = {
            let mut writers = self.writers.iter().filter(|w| w.topic == topic.index);
            let first = writers
                .next()
                .ok_or_else(|| DdsError::NoWriter(name.clone()))?;
            if writers.next().is_some() {
                return Err(DdsError::MultipleWriters(name.clone()));
            }
            first
        };
        let readers: Vec<&ReaderEntry> = self
            .readers
            .iter()
            .filter(|r| r.topic == topic.index)
            .collect();
        if readers.is_empty() {
            return Err(DdsError::NoReaders(name.clone()));
        }
        for reader in &readers {
            writer
                .qos
                .compatible_with(&reader.qos)
                .map_err(|mismatch| DdsError::IncompatibleQos {
                    topic: name.clone(),
                    mismatch,
                })?;
        }
        let drop_probability = readers[0].drop_probability;
        if readers
            .iter()
            .any(|r| (r.drop_probability - drop_probability).abs() > f64::EPSILON)
        {
            return Err(DdsError::HeterogeneousLoss(name.clone()));
        }
        self.check_transport(&name, writer.qos, &readers, transport.kind)?;
        let spec = SessionSpec {
            transport,
            app: writer.app,
            stack: self.implementation.stack_profile(),
            drop_probability,
            capture: self.capture,
        };
        Ok((spec, writer.host, readers.iter().map(|r| r.host).collect()))
    }

    fn check_transport(
        &self,
        topic: &str,
        offered: QosProfile,
        readers: &[&ReaderEntry],
        kind: ProtocolKind,
    ) -> Result<(), DdsError> {
        let needs_reliability = readers
            .iter()
            .any(|r| r.qos.reliability == Reliability::Reliable)
            && offered.reliability == Reliability::Reliable;
        let needs_ordering = readers
            .iter()
            .any(|r| r.qos.ordering == Ordering::SourceOrdered)
            && offered.ordering == Ordering::SourceOrdered;
        let properties = kind.properties();
        if needs_reliability
            && !(properties.nak_reliability
                || properties.ack_reliability
                || properties.lateral_error_correction
                || properties.lossless_path)
        {
            return Err(DdsError::TransportUnsuitable {
                topic: topic.to_owned(),
                reason: "reliable qos requires a recovery-capable transport".to_owned(),
            });
        }
        if needs_ordering && !properties.ordered_delivery {
            return Err(DdsError::TransportUnsuitable {
                topic: topic.to_owned(),
                reason: "source-ordered qos requires an ordering transport".to_owned(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_netsim::{Bandwidth, MachineClass, SimDuration, SimTime};

    fn host() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    fn participant_with_topic(
        topic_qos: QosProfile,
        writer_qos: QosProfile,
        reader_qos: QosProfile,
    ) -> (DomainParticipant, Topic) {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenSplice);
        let t = p.create_topic::<[u8; 12]>("sar/video", topic_qos).unwrap();
        p.create_data_writer(t, writer_qos, AppSpec::at_rate(100, 100.0, 12), host())
            .unwrap();
        p.create_data_reader(t, reader_qos, host(), 0.02).unwrap();
        p.create_data_reader(t, reader_qos, host(), 0.02).unwrap();
        (p, t)
    }

    #[test]
    fn duplicate_topics_rejected() {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenDds);
        p.create_topic::<u32>("a", QosProfile::reliable()).unwrap();
        assert_eq!(
            p.create_topic::<u32>("a", QosProfile::reliable()),
            Err(DdsError::DuplicateTopic("a".into()))
        );
    }

    #[test]
    fn topic_metadata_accessible() {
        let mut p = DomainParticipant::new(7, DdsImplementation::OpenDds);
        let t = p
            .create_topic::<u64>("b", QosProfile::best_effort())
            .unwrap();
        assert_eq!(p.domain_id(), 7);
        assert_eq!(p.topic_name(t), "b");
        assert_eq!(p.topic_type(t), "u64");
        assert_eq!(p.topic_qos(t), QosProfile::best_effort());
        assert_eq!(p.reader_count(t), 0);
    }

    #[test]
    fn single_writer_enforced() {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenDds);
        let t = p.create_topic::<u32>("t", QosProfile::reliable()).unwrap();
        let app = AppSpec::at_rate(10, 10.0, 12);
        p.create_data_writer(t, QosProfile::reliable(), app, host())
            .unwrap();
        assert_eq!(
            p.create_data_writer(t, QosProfile::reliable(), app, host()),
            Err(DdsError::MultipleWriters("t".into()))
        );
    }

    #[test]
    fn install_full_session_end_to_end() {
        let (p, t) = participant_with_topic(
            QosProfile::reliable(),
            QosProfile::reliable(),
            QosProfile::best_effort(),
        );
        let mut sim = Simulation::new(5);
        let transport = TransportConfig::new(ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        });
        let handles = p.install(&mut sim, t, transport).unwrap();
        sim.run_until(SimTime::from_secs(5));
        let report = session::collect_report(&sim, &handles);
        assert_eq!(report.receivers, 2);
        assert!(report.reliability() > 0.99);
    }

    #[test]
    fn reinstall_switches_protocol_mid_stream() {
        // Start 400 samples over Ricochet on a time-critical topic, switch
        // to NAKcast for the remainder at t=2s, and require the second leg
        // to finish the stream on the same nodes and group.
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenSplice);
        let t = p
            .create_topic::<[u8; 12]>("sar/video", QosProfile::time_critical())
            .unwrap();
        p.create_data_writer(
            t,
            QosProfile::time_critical(),
            AppSpec::at_rate(400, 100.0, 12),
            host(),
        )
        .unwrap();
        p.create_data_reader(t, QosProfile::time_critical(), host(), 0.02)
            .unwrap();
        p.create_data_reader(t, QosProfile::time_critical(), host(), 0.02)
            .unwrap();
        let mut sim = Simulation::new(9);
        let first = p
            .install(
                &mut sim,
                t,
                TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }),
            )
            .unwrap();
        sim.run_until(SimTime::from_secs(2));
        let published = session::published_count(&sim, &first);
        assert!((150..=210).contains(&published), "published {published}");
        let first_leg = session::collect_report(&sim, &first);

        let remaining = 400 - published;
        let second = p
            .reinstall(
                &mut sim,
                t,
                &first,
                TransportConfig::new(ProtocolKind::Nakcast {
                    timeout: SimDuration::from_millis(1),
                }),
                remaining,
            )
            .unwrap();
        assert_eq!(second.sender, first.sender);
        assert_eq!(second.receivers, first.receivers);
        assert_eq!(second.group, first.group);
        sim.run_until(SimTime::from_secs(8));
        let second_leg = session::collect_report(&sim, &second);
        assert_eq!(second_leg.samples_sent, remaining);
        assert!(second_leg.reliability() > 0.999);
        // The first leg delivered (nearly) everything published before the
        // switch, across both receivers.
        assert!(first_leg.delivered as f64 > 0.9 * (published * 2) as f64);

        // A switch to an unsuitable transport is still refused.
        let err = p
            .reinstall(
                &mut sim,
                t,
                &second,
                TransportConfig::new(ProtocolKind::Udp),
                10,
            )
            .unwrap_err();
        assert!(matches!(err, DdsError::TransportUnsuitable { .. }));
    }

    #[test]
    fn incompatible_qos_refused_at_install() {
        let (p, t) = participant_with_topic(
            QosProfile::best_effort(),
            QosProfile::best_effort(),
            QosProfile::reliable(),
        );
        let mut sim = Simulation::new(5);
        let err = p
            .install(&mut sim, t, TransportConfig::new(ProtocolKind::Udp))
            .unwrap_err();
        assert!(matches!(err, DdsError::IncompatibleQos { .. }));
    }

    #[test]
    fn unsuitable_transport_refused() {
        let (p, t) = participant_with_topic(
            QosProfile::reliable(),
            QosProfile::reliable(),
            QosProfile::reliable(),
        );
        let mut sim = Simulation::new(5);
        // UDP cannot honour reliable QoS.
        let err = p
            .install(&mut sim, t, TransportConfig::new(ProtocolKind::Udp))
            .unwrap_err();
        assert!(matches!(err, DdsError::TransportUnsuitable { .. }));
        // Ricochet cannot honour ordered delivery.
        let err = p
            .install(
                &mut sim,
                t,
                TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }),
            )
            .unwrap_err();
        assert!(matches!(err, DdsError::TransportUnsuitable { .. }));
    }

    #[test]
    fn missing_writer_or_readers_reported() {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenDds);
        let t = p
            .create_topic::<u32>("lonely", QosProfile::reliable())
            .unwrap();
        let mut sim = Simulation::new(1);
        assert_eq!(
            p.install(&mut sim, t, TransportConfig::new(ProtocolKind::Udp))
                .unwrap_err(),
            DdsError::NoWriter("lonely".into())
        );
        p.create_data_writer(
            t,
            QosProfile::best_effort(),
            AppSpec::at_rate(1, 1.0, 12),
            host(),
        )
        .unwrap();
        assert_eq!(
            p.install(&mut sim, t, TransportConfig::new(ProtocolKind::Udp))
                .unwrap_err(),
            DdsError::NoReaders("lonely".into())
        );
    }

    #[test]
    fn heterogeneous_loss_rejected() {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenDds);
        let t = p
            .create_topic::<u32>("t", QosProfile::best_effort())
            .unwrap();
        p.create_data_writer(
            t,
            QosProfile::best_effort(),
            AppSpec::at_rate(10, 10.0, 12),
            host(),
        )
        .unwrap();
        p.create_data_reader(t, QosProfile::best_effort(), host(), 0.01)
            .unwrap();
        p.create_data_reader(t, QosProfile::best_effort(), host(), 0.05)
            .unwrap();
        let mut sim = Simulation::new(1);
        assert_eq!(
            p.install(&mut sim, t, TransportConfig::new(ProtocolKind::Udp))
                .unwrap_err(),
            DdsError::HeterogeneousLoss("t".into())
        );
    }

    #[test]
    fn manual_mapping_matches_qos_shape() {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenDds);
        let ordered = p.create_topic::<u32>("o", QosProfile::reliable()).unwrap();
        let timely = p
            .create_topic::<u32>("t", QosProfile::time_critical())
            .unwrap();
        let lossy = p
            .create_topic::<u32>("l", QosProfile::best_effort())
            .unwrap();
        assert!(matches!(
            p.manual_transport_for(ordered),
            ProtocolKind::Nakcast { .. }
        ));
        assert!(matches!(
            p.manual_transport_for(timely),
            ProtocolKind::Ricochet { .. }
        ));
        assert_eq!(p.manual_transport_for(lossy), ProtocolKind::Udp);
    }

    #[test]
    fn error_display_readable() {
        let err = DdsError::IncompatibleQos {
            topic: "x".into(),
            mismatch: QosMismatch::Reliability,
        };
        assert_eq!(
            err.to_string(),
            "incompatible qos on topic `x`: requested reliability exceeds offered"
        );
    }

    #[test]
    fn runtime_errors_convert_from_rt() {
        let rt = adamant_rt::RtError::ShardPanicked { shard: 2 };
        let dds: DdsError = rt.into();
        assert!(matches!(&dds, DdsError::Runtime(msg) if msg.contains("worker 2")));
        assert!(dds.to_string().starts_with("runtime failure:"));
    }
}
