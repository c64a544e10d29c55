//! Flow control: a token-bucket pacer, the ANT `flow_control` property.
//!
//! ACKcast uses it to cap retransmission bursts: a receiver reporting a
//! long missing list after an outage would otherwise trigger a
//! retransmission storm that competes with live data for the sender's CPU
//! and egress link.

use adamant_proto::{Span, TimePoint};

/// A deterministic token bucket over simulated time.
///
/// The bucket holds at most `burst` tokens and refills at `rate_per_sec`.
/// Each admitted packet consumes one token.
///
/// # Examples
///
/// ```
/// use adamant_proto::TimePoint;
/// use adamant_transport::TokenBucket;
///
/// let mut bucket = TokenBucket::new(2.0, 10.0);
/// let t0 = TimePoint::ZERO;
/// assert!(bucket.admit(t0));
/// assert!(bucket.admit(t0));
/// assert!(!bucket.admit(t0), "burst exhausted");
/// // 100 ms later one token has refilled.
/// assert!(bucket.admit(TimePoint::from_millis(100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    burst: f64,
    rate_per_sec: f64,
    tokens: f64,
    last_refill: TimePoint,
}

impl TokenBucket {
    /// Creates a bucket with `burst` capacity refilling at `rate_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(burst: f64, rate_per_sec: f64) -> Self {
        assert!(
            burst > 0.0 && burst.is_finite(),
            "burst must be positive and finite"
        );
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "rate must be positive and finite"
        );
        TokenBucket {
            burst,
            rate_per_sec,
            tokens: burst,
            last_refill: TimePoint::ZERO,
        }
    }

    fn refill(&mut self, now: TimePoint) {
        let elapsed = now.saturating_since(self.last_refill);
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
        self.last_refill = self.last_refill.max(now);
    }

    /// Tokens currently available at `now`.
    pub fn available(&mut self, now: TimePoint) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Attempts to admit one packet at `now`; returns whether it may pass.
    pub fn admit(&mut self, now: TimePoint) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// How long from `now` until the next token is available (zero if one
    /// is available already).
    pub fn next_available(&mut self, now: TimePoint) -> Span {
        self.refill(now);
        if self.tokens >= 1.0 {
            return Span::ZERO;
        }
        Span::from_secs_f64((1.0 - self.tokens) / self.rate_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_paced() {
        let mut bucket = TokenBucket::new(3.0, 100.0);
        let t0 = TimePoint::ZERO;
        assert_eq!(bucket.available(t0), 3.0);
        assert!(bucket.admit(t0));
        assert!(bucket.admit(t0));
        assert!(bucket.admit(t0));
        assert!(!bucket.admit(t0));
        // 100 tokens/s → one per 10 ms.
        assert_eq!(bucket.next_available(t0), Span::from_millis(10));
        assert!(bucket.admit(TimePoint::from_millis(10)));
        assert!(!bucket.admit(TimePoint::from_millis(10)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut bucket = TokenBucket::new(5.0, 1_000.0);
        for _ in 0..5 {
            assert!(bucket.admit(TimePoint::ZERO));
        }
        // A long idle period refills to exactly `burst`, not beyond.
        assert_eq!(bucket.available(TimePoint::from_secs(60)), 5.0);
    }

    #[test]
    fn sustained_rate_is_respected() {
        let mut bucket = TokenBucket::new(1.0, 50.0);
        let mut admitted = 0;
        // Offer a packet every millisecond for one simulated second.
        for ms in 0..1_000u64 {
            if bucket.admit(TimePoint::from_millis(ms)) {
                admitted += 1;
            }
        }
        // 50/s sustained plus the initial burst token.
        assert!(
            (50..=52).contains(&admitted),
            "admitted {admitted}, expected ~51"
        );
    }

    #[test]
    fn time_never_runs_backwards() {
        let mut bucket = TokenBucket::new(2.0, 10.0);
        assert!(bucket.admit(TimePoint::from_secs(10)));
        // An out-of-order (earlier) timestamp must not panic or mint tokens.
        let before = bucket.available(TimePoint::from_secs(5));
        assert!(before <= 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(1.0, 0.0);
    }
}
