//! What the layers above the transport contribute to every packet: the
//! middleware stack profile and the application's traffic specification.

use adamant_proto::{ProcessingCost, Span};

/// Reference CPU cost (pc3000) of the OS/UDP path per packet, each side.
pub(crate) const OS_PACKET_COST: Span = Span::from_micros(15);

/// Processing cost of a small control packet (heartbeat, NAK, ACK, SYN,
/// FIN, membership): the OS path only.
pub(crate) const CONTROL_COST: ProcessingCost = ProcessingCost::symmetric(OS_PACKET_COST);

/// Application payload bytes per sample in the paper's workload (§4.2).
pub const PAPER_PAYLOAD_BYTES: u32 = 12;

/// Per-packet contribution of the middleware stack above the transport
/// (marshalling cost and header bytes). The DDS layer supplies one of these
/// per DDS implementation profile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StackProfile {
    /// Reference CPU cost (pc3000) the middleware adds on each side of
    /// every data packet.
    pub per_packet: ProcessingCost,
    /// Header bytes the middleware adds to every data packet.
    pub header_bytes: u32,
}

impl StackProfile {
    /// A profile with symmetric per-packet cost of `us` microseconds and
    /// `header_bytes` of framing.
    pub fn new(us: f64, header_bytes: u32) -> Self {
        StackProfile {
            per_packet: ProcessingCost::symmetric(Span::from_micros_f64(us)),
            header_bytes,
        }
    }
}

/// The application traffic of one experiment run: a single data writer
/// publishing fixed-size samples at a fixed rate (§4.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSpec {
    /// Number of samples to publish.
    pub total_samples: u64,
    /// Interval between samples (the inverse of the sending rate).
    pub interval: Span,
    /// Application payload bytes per sample ([`PAPER_PAYLOAD_BYTES`] in
    /// the paper).
    pub payload_bytes: u32,
}

impl AppSpec {
    /// Creates a spec publishing `total_samples` samples of
    /// `payload_bytes` at `rate_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive or `total_samples` is zero (an
    /// empty stream would leave session timers re-arming forever).
    pub fn at_rate(total_samples: u64, rate_hz: f64, payload_bytes: u32) -> Self {
        assert!(rate_hz > 0.0, "sending rate must be positive");
        assert!(
            total_samples > 0,
            "a stream must contain at least one sample"
        );
        AppSpec {
            total_samples,
            interval: Span::from_secs_f64(1.0 / rate_hz),
            payload_bytes,
        }
    }

    /// The paper's workload: 12-byte samples, 20 000 of them, at `rate_hz`.
    pub fn paper_workload(rate_hz: f64) -> Self {
        AppSpec::at_rate(20_000, rate_hz, PAPER_PAYLOAD_BYTES)
    }

    /// The sending rate in hertz.
    pub fn rate_hz(&self) -> f64 {
        1.0 / self.interval.as_secs_f64()
    }

    /// How long the publishing phase lasts.
    pub fn publish_span(&self) -> Span {
        self.interval * self.total_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_profile_costs() {
        let p = StackProfile::new(25.0, 48);
        assert_eq!(p.per_packet.tx, Span::from_micros(25));
        assert_eq!(p.per_packet.rx, Span::from_micros(25));
        assert_eq!(p.header_bytes, 48);
    }

    #[test]
    fn app_spec_rates() {
        let app = AppSpec::at_rate(100, 25.0, 12);
        assert_eq!(app.interval, Span::from_millis(40));
        assert!((app.rate_hz() - 25.0).abs() < 1e-9);
        assert_eq!(app.publish_span(), Span::from_secs(4));
    }

    #[test]
    fn paper_workload_matches_section_4_2() {
        let app = AppSpec::paper_workload(50.0);
        assert_eq!(app.total_samples, 20_000);
        assert_eq!(app.payload_bytes, 12);
        assert_eq!(app.interval, Span::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        AppSpec::at_rate(1, 0.0, 12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_stream_rejected() {
        AppSpec::at_rate(0, 10.0, 12);
    }
}
