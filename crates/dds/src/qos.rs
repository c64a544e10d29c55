//! DDS QoS policy vocabulary (a pragmatic subset of the OMG DDS 1.2
//! specification) with requested-vs-offered compatibility checking.

use adamant_proto::Span;

/// RELIABILITY QoS policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Samples may be lost; no recovery machinery engaged.
    BestEffort,
    /// The middleware attempts to deliver every sample.
    Reliable,
}

/// HISTORY QoS policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum History {
    /// Retain only the most recent `depth` samples per instance.
    KeepLast(u32),
    /// Retain all samples (bounded by resource limits).
    KeepAll,
}

/// DURABILITY QoS policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Durability {
    /// Samples exist only while in transit.
    Volatile,
    /// Late-joining readers receive the writer's history cache.
    TransientLocal,
}

/// Ordering guarantee requested by the application (DESTINATION_ORDER
/// crossed with presentation, collapsed to what the transports provide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Samples may be delivered in any order.
    Unordered,
    /// Samples are delivered in publication order.
    SourceOrdered,
}

/// A bundle of QoS policies for a writer or reader.
///
/// # Examples
///
/// ```
/// use adamant_dds::QosProfile;
///
/// let qos = QosProfile::reliable();
/// assert!(qos.compatible_with(&QosProfile::best_effort()).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosProfile {
    /// Delivery guarantee.
    pub reliability: Reliability,
    /// Sample cache behaviour.
    pub history: History,
    /// Availability to late joiners.
    pub durability: Durability,
    /// Delivery ordering.
    pub ordering: Ordering,
    /// Maximum tolerated inter-sample gap, if any (DEADLINE).
    pub deadline: Option<Span>,
}

impl QosProfile {
    /// Reliable, keep-all, source-ordered: the profile of the paper's
    /// NAKcast-style sessions.
    pub fn reliable() -> Self {
        QosProfile {
            reliability: Reliability::Reliable,
            history: History::KeepAll,
            durability: Durability::Volatile,
            ordering: Ordering::SourceOrdered,
            deadline: None,
        }
    }

    /// Best-effort, keep-last(1): plain UDP-style streaming.
    pub fn best_effort() -> Self {
        QosProfile {
            reliability: Reliability::BestEffort,
            history: History::KeepLast(1),
            durability: Durability::Volatile,
            ordering: Ordering::Unordered,
            deadline: None,
        }
    }

    /// Time-critical probabilistic delivery: reliable-ish but unordered,
    /// the profile Ricochet-style LEC serves.
    pub fn time_critical() -> Self {
        QosProfile {
            reliability: Reliability::Reliable,
            history: History::KeepLast(64),
            durability: Durability::Volatile,
            ordering: Ordering::Unordered,
            deadline: None,
        }
    }

    /// Checks DDS requested-vs-offered compatibility: `self` is the
    /// writer's *offered* QoS, `requested` the reader's.
    ///
    /// # Errors
    ///
    /// Returns the first [`QosMismatch`] found, per the DDS RxO rules:
    /// a reader may not request stronger reliability, durability, ordering,
    /// or a tighter deadline than the writer offers.
    pub fn compatible_with(&self, requested: &QosProfile) -> Result<(), QosMismatch> {
        if requested.reliability == Reliability::Reliable
            && self.reliability == Reliability::BestEffort
        {
            return Err(QosMismatch::Reliability);
        }
        if requested.durability > self.durability {
            return Err(QosMismatch::Durability);
        }
        if requested.ordering == Ordering::SourceOrdered && self.ordering == Ordering::Unordered {
            return Err(QosMismatch::Ordering);
        }
        match (self.deadline, requested.deadline) {
            (Some(offered), Some(asked)) if offered > asked => return Err(QosMismatch::Deadline),
            (None, Some(_)) => return Err(QosMismatch::Deadline),
            _ => {}
        }
        Ok(())
    }
}

impl QosProfile {
    /// Sets the DEADLINE period (builder-style).
    ///
    /// # Examples
    ///
    /// ```
    /// use adamant_dds::QosProfile;
    /// use adamant_proto::Span;
    ///
    /// let qos = QosProfile::reliable().with_deadline(Span::from_millis(100));
    /// assert_eq!(qos.deadline, Some(Span::from_millis(100)));
    /// ```
    pub fn with_deadline(mut self, period: Span) -> Self {
        self.deadline = Some(period);
        self
    }

    /// Sets the HISTORY policy (builder-style).
    pub fn with_history(mut self, history: History) -> Self {
        self.history = history;
        self
    }

    /// Sets the DURABILITY policy (builder-style).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}

/// `code()` marker for a missing deadline (all-ones in the 16-bit field).
const CODE_NO_DEADLINE: u64 = 0xFFFF;

impl QosProfile {
    /// Packs the profile into a stable `u64` for the discovery wire format
    /// (`adamant_proto::wire::EndpointAd::qos_code`).
    ///
    /// Durations are quantized to whole milliseconds and saturated to 16
    /// bits (deadlines above ~65 s travel as 0xFFFE ms; `None` is 0xFFFF),
    /// and `KeepLast` depths saturate at 4095. Every profile the workspace
    /// actually uses — the canonical constructors plus millisecond-scale
    /// deadlines — round-trips exactly through
    /// [`from_code`](QosProfile::from_code); matching semantics
    /// ([`compatible_with`](QosProfile::compatible_with)) are preserved for
    /// any profile whose deadline is a whole number of milliseconds.
    ///
    /// Layout (LSB first): bit 0 reliability, bit 1 durability, bit 2
    /// ordering, bit 3 history-is-keep-all, bits 4–15 history depth, bits
    /// 16–31 deadline ms. Higher bits are written as zero and ignored on
    /// decode.
    pub fn code(&self) -> u64 {
        let mut code = 0u64;
        if self.reliability == Reliability::Reliable {
            code |= 1;
        }
        if self.durability == Durability::TransientLocal {
            code |= 1 << 1;
        }
        if self.ordering == Ordering::SourceOrdered {
            code |= 1 << 2;
        }
        match self.history {
            History::KeepAll => code |= 1 << 3,
            History::KeepLast(depth) => code |= u64::from(depth.min(4095)) << 4,
        }
        let deadline_ms = match self.deadline {
            None => CODE_NO_DEADLINE,
            Some(d) => (d.as_nanos() / 1_000_000).min(CODE_NO_DEADLINE - 1),
        };
        code | deadline_ms << 16
    }

    /// Reconstructs a profile from its [`code`](QosProfile::code).
    /// Unknown high bits are ignored, so codes from newer encoders still
    /// decode to their policy subset.
    pub fn from_code(code: u64) -> Self {
        let history = if code & (1 << 3) != 0 {
            History::KeepAll
        } else {
            History::KeepLast(((code >> 4) & 0xFFF) as u32)
        };
        let deadline_ms = (code >> 16) & 0xFFFF;
        QosProfile {
            reliability: if code & 1 != 0 {
                Reliability::Reliable
            } else {
                Reliability::BestEffort
            },
            durability: if code & (1 << 1) != 0 {
                Durability::TransientLocal
            } else {
                Durability::Volatile
            },
            ordering: if code & (1 << 2) != 0 {
                Ordering::SourceOrdered
            } else {
                Ordering::Unordered
            },
            history,
            deadline: if deadline_ms == CODE_NO_DEADLINE {
                None
            } else {
                Some(Span::from_millis(deadline_ms))
            },
        }
    }
}

impl Default for QosProfile {
    fn default() -> Self {
        QosProfile::reliable()
    }
}

/// Why a reader's requested QoS cannot be served by a writer's offered QoS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosMismatch {
    /// Reader requests Reliable, writer offers BestEffort.
    Reliability,
    /// Reader requests stronger durability than offered.
    Durability,
    /// Reader requests ordered delivery, writer offers unordered.
    Ordering,
    /// Reader requests a deadline the writer does not promise.
    Deadline,
}

impl std::fmt::Display for QosMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosMismatch::Reliability => write!(f, "requested reliability exceeds offered"),
            QosMismatch::Durability => write!(f, "requested durability exceeds offered"),
            QosMismatch::Ordering => write!(f, "requested ordering exceeds offered"),
            QosMismatch::Deadline => write!(f, "requested deadline tighter than offered"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_offer_satisfies_any_request() {
        let offered = QosProfile::reliable();
        for requested in [
            QosProfile::reliable(),
            QosProfile::best_effort(),
            QosProfile::time_critical(),
        ] {
            assert!(offered.compatible_with(&requested).is_ok());
        }
    }

    #[test]
    fn best_effort_offer_rejects_reliable_request() {
        let offered = QosProfile::best_effort();
        assert_eq!(
            offered.compatible_with(&QosProfile::reliable()),
            Err(QosMismatch::Reliability)
        );
    }

    #[test]
    fn unordered_offer_rejects_ordered_request() {
        let offered = QosProfile::time_critical();
        let requested = QosProfile::reliable(); // source-ordered
        assert_eq!(
            offered.compatible_with(&requested),
            Err(QosMismatch::Ordering)
        );
    }

    #[test]
    fn durability_is_ordered() {
        let mut offered = QosProfile::reliable();
        let mut requested = QosProfile::reliable();
        requested.durability = Durability::TransientLocal;
        assert_eq!(
            offered.compatible_with(&requested),
            Err(QosMismatch::Durability)
        );
        offered.durability = Durability::TransientLocal;
        assert!(offered.compatible_with(&requested).is_ok());
    }

    #[test]
    fn deadline_rules() {
        let mut offered = QosProfile::reliable();
        let mut requested = QosProfile::reliable();
        requested.deadline = Some(Span::from_millis(10));
        // Writer promises nothing: incompatible.
        assert_eq!(
            offered.compatible_with(&requested),
            Err(QosMismatch::Deadline)
        );
        // Writer promises 20 ms, reader wants 10 ms: incompatible.
        offered.deadline = Some(Span::from_millis(20));
        assert_eq!(
            offered.compatible_with(&requested),
            Err(QosMismatch::Deadline)
        );
        // Writer promises 5 ms: fine.
        offered.deadline = Some(Span::from_millis(5));
        assert!(offered.compatible_with(&requested).is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let qos = QosProfile::best_effort()
            .with_deadline(Span::from_millis(50))
            .with_history(History::KeepLast(8))
            .with_durability(Durability::TransientLocal);
        assert_eq!(qos.deadline, Some(Span::from_millis(50)));
        assert_eq!(qos.history, History::KeepLast(8));
        assert_eq!(qos.durability, Durability::TransientLocal);
        assert_eq!(qos.reliability, Reliability::BestEffort);
    }

    #[test]
    fn code_round_trips_canonical_and_tuned_profiles() {
        let profiles = [
            QosProfile::reliable(),
            QosProfile::best_effort(),
            QosProfile::time_critical(),
            QosProfile::reliable().with_deadline(Span::from_millis(100)),
            QosProfile::best_effort()
                .with_deadline(Span::from_millis(50))
                .with_history(History::KeepLast(8))
                .with_durability(Durability::TransientLocal),
        ];
        for p in profiles {
            assert_eq!(QosProfile::from_code(p.code()), p, "code {:#x}", p.code());
        }
    }

    #[test]
    fn code_values_are_pinned() {
        // The code travels in `EndpointAd::qos_code` on the discovery
        // wire: these exact numbers are the compatibility contract with
        // already-deployed peers. If one of these assertions fails, the
        // encoding changed and old and new nodes will disagree about QoS
        // matching — bump the wire format instead of editing the pins.
        assert_eq!(QosProfile::reliable().code(), 0xFFFF_000D);
        assert_eq!(QosProfile::best_effort().code(), 0xFFFF_0010);
        assert_eq!(QosProfile::time_critical().code(), 0xFFFF_0401);
        assert_eq!(
            QosProfile::reliable()
                .with_deadline(Span::from_millis(100))
                .code(),
            0x0064_000D
        );
        assert_eq!(
            QosProfile::reliable()
                .with_durability(Durability::TransientLocal)
                .with_history(History::KeepLast(32))
                .code(),
            0xFFFF_0207
        );
        // A code from a peer that still sets the retired budget bits
        // (32–47) decodes to the same profile.
        assert_eq!(
            QosProfile::from_code(0x5_FFFF_0207),
            QosProfile::from_code(0xFFFF_0207)
        );
        // Saturation behaviour is part of the contract too.
        assert_eq!(
            QosProfile::best_effort()
                .with_history(History::KeepLast(u32::MAX))
                .code(),
            0xFFFF_FFF0
        );
        assert_eq!(
            QosProfile::best_effort()
                .with_deadline(Span::from_secs(100))
                .code(),
            0xFFFE_0010
        );
    }

    #[test]
    fn code_preserves_matching_semantics() {
        // RxO compatibility over decoded profiles must agree with the
        // originals for everything the discovery path announces.
        let pool = [
            QosProfile::reliable(),
            QosProfile::best_effort(),
            QosProfile::time_critical(),
            QosProfile::reliable().with_deadline(Span::from_millis(20)),
            QosProfile::reliable().with_deadline(Span::from_millis(10)),
        ];
        for offered in pool {
            for requested in pool {
                let direct = offered.compatible_with(&requested).is_ok();
                let coded = QosProfile::from_code(offered.code())
                    .compatible_with(&QosProfile::from_code(requested.code()))
                    .is_ok();
                assert_eq!(direct, coded, "offered {offered:?} requested {requested:?}");
            }
        }
    }

    #[test]
    fn mismatch_messages_are_lowercase() {
        for m in [
            QosMismatch::Reliability,
            QosMismatch::Durability,
            QosMismatch::Ordering,
            QosMismatch::Deadline,
        ] {
            let text = m.to_string();
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }
}
