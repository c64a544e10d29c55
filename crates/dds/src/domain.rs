//! DDS entities: domain participants, topics, data writers and readers,
//! and the validation that turns a topic into a transport session spec
//! (the OpenDDS/OpenSplice pluggable-protocol seam that ANT exploits).
//! Where a session's endpoints run is the host binding's business: see
//! [`session`](crate::session) for the simulator.

use std::fmt;

use adamant_proto::Span;
use adamant_transport::{AppSpec, ProtocolKind, SessionSpec, TransportConfig};

use crate::implementation::DdsImplementation;
use crate::qos::{Ordering, QosMismatch, QosProfile, Reliability};

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
    /// A binding was given a different number of reader hosts than the
    /// topic has readers.
    ReaderPlacement {
        /// Topic being installed.
        topic: String,
        /// Readers the topic has.
        readers: usize,
        /// Hosts the binding was given.
        hosts: usize,
    },
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
            DdsError::ReaderPlacement {
                topic,
                readers,
                hosts,
            } => write!(f, "topic `{topic}` has {readers} readers but {hosts} hosts"),
        }
    }
}

impl std::error::Error for DdsError {}

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
}

#[derive(Debug, Clone)]
struct ReaderEntry {
    topic: usize,
    qos: QosProfile,
    drop_probability: f64,
}

/// A DDS domain participant: the factory for topics, writers, and readers,
/// bound to one DDS implementation profile.
///
/// # Examples
///
/// ```
/// use adamant_dds::{DdsImplementation, DomainParticipant, QosProfile};
/// use adamant_transport::{AppSpec, ProtocolKind, TransportConfig};
///
/// # fn main() -> Result<(), adamant_dds::DdsError> {
/// let mut participant = DomainParticipant::new(0, DdsImplementation::OpenSplice);
/// let topic = participant.create_topic::<[u8; 12]>("uav/infrared", QosProfile::reliable())?;
/// let app = AppSpec::at_rate(100, 25.0, 12);
/// participant.create_data_writer(topic, QosProfile::reliable(), app)?;
/// participant.create_data_reader(topic, QosProfile::best_effort(), 0.05)?;
/// let spec = participant.session_spec(topic, TransportConfig::new(ProtocolKind::Udp))?;
/// assert_eq!(spec.drop_probability, 0.05);
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

    /// Creates the data writer for `topic`, publishing `app`.
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
    ) -> Result<DataWriter, DdsError> {
        if self.writers.iter().any(|w| w.topic == topic.index) {
            return Err(DdsError::MultipleWriters(self.topic_name(topic).to_owned()));
        }
        self.writers.push(WriterEntry {
            topic: topic.index,
            qos,
            app,
        });
        Ok(DataWriter {
            index: self.writers.len() - 1,
        })
    }

    /// Creates a data reader for `topic`, dropping incoming data
    /// with probability `drop_probability` (the paper's end-host loss
    /// injection).
    pub fn create_data_reader(
        &mut self,
        topic: Topic,
        qos: QosProfile,
        drop_probability: f64,
    ) -> Result<DataReader, DdsError> {
        self.readers.push(ReaderEntry {
            topic: topic.index,
            qos,
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
                timeout: Span::from_millis(10),
            },
            (Reliability::Reliable, Ordering::Unordered) => ProtocolKind::Ricochet { r: 4, c: 3 },
        }
    }

    /// Validates `topic` for a session over `transport` and returns the
    /// spec every host binding builds its cores from.
    ///
    /// # Errors
    ///
    /// * [`DdsError::NoWriter`] / [`DdsError::NoReaders`] if the topic is
    ///   incomplete.
    /// * [`DdsError::IncompatibleQos`] if any reader requests more than the
    ///   writer offers.
    /// * [`DdsError::HeterogeneousLoss`] if readers disagree on loss rate.
    /// * [`DdsError::TransportUnsuitable`] if `transport` cannot honour the
    ///   session's reliability/ordering needs, so a mis-trained selector
    ///   cannot downgrade a reliable session to UDP.
    pub fn session_spec(
        &self,
        topic: Topic,
        transport: TransportConfig,
    ) -> Result<SessionSpec, DdsError> {
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
        Ok(SessionSpec {
            transport,
            app: writer.app,
            stack: self.implementation.stack_profile(),
            drop_probability,
            capture: self.capture,
        })
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

    fn participant_with_topic(
        topic_qos: QosProfile,
        writer_qos: QosProfile,
        reader_qos: QosProfile,
    ) -> (DomainParticipant, Topic) {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenSplice);
        let t = p.create_topic::<[u8; 12]>("sar/video", topic_qos).unwrap();
        p.create_data_writer(t, writer_qos, AppSpec::at_rate(100, 100.0, 12))
            .unwrap();
        p.create_data_reader(t, reader_qos, 0.02).unwrap();
        p.create_data_reader(t, reader_qos, 0.02).unwrap();
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
        p.create_data_writer(t, QosProfile::reliable(), app)
            .unwrap();
        assert_eq!(
            p.create_data_writer(t, QosProfile::reliable(), app),
            Err(DdsError::MultipleWriters("t".into()))
        );
    }

    #[test]
    fn session_spec_carries_the_topics_session() {
        let (mut p, t) = participant_with_topic(
            QosProfile::reliable(),
            QosProfile::reliable(),
            QosProfile::best_effort(),
        );
        p.set_capture(false);
        let transport = TransportConfig::new(ProtocolKind::Nakcast {
            timeout: Span::from_millis(1),
        });
        let spec = p.session_spec(t, transport).unwrap();
        assert_eq!(spec.transport, transport);
        assert_eq!(spec.app, AppSpec::at_rate(100, 100.0, 12));
        assert_eq!(spec.stack, DdsImplementation::OpenSplice.stack_profile());
        assert_eq!(spec.drop_probability, 0.02);
        assert!(!spec.capture);
    }

    #[test]
    fn incompatible_qos_refused() {
        let (p, t) = participant_with_topic(
            QosProfile::best_effort(),
            QosProfile::best_effort(),
            QosProfile::reliable(),
        );
        let err = p
            .session_spec(t, TransportConfig::new(ProtocolKind::Udp))
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
        // UDP cannot honour reliable QoS.
        let err = p
            .session_spec(t, TransportConfig::new(ProtocolKind::Udp))
            .unwrap_err();
        assert!(matches!(err, DdsError::TransportUnsuitable { .. }));
        // Ricochet cannot honour ordered delivery.
        let err = p
            .session_spec(
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
        let udp = TransportConfig::new(ProtocolKind::Udp);
        assert_eq!(
            p.session_spec(t, udp).unwrap_err(),
            DdsError::NoWriter("lonely".into())
        );
        p.create_data_writer(t, QosProfile::best_effort(), AppSpec::at_rate(1, 1.0, 12))
            .unwrap();
        assert_eq!(
            p.session_spec(t, udp).unwrap_err(),
            DdsError::NoReaders("lonely".into())
        );
    }

    #[test]
    fn heterogeneous_loss_rejected() {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenDds);
        let t = p
            .create_topic::<u32>("t", QosProfile::best_effort())
            .unwrap();
        p.create_data_writer(t, QosProfile::best_effort(), AppSpec::at_rate(10, 10.0, 12))
            .unwrap();
        p.create_data_reader(t, QosProfile::best_effort(), 0.01)
            .unwrap();
        p.create_data_reader(t, QosProfile::best_effort(), 0.05)
            .unwrap();
        assert_eq!(
            p.session_spec(t, TransportConfig::new(ProtocolKind::Udp))
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
}
