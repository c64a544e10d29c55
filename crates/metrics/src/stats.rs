//! Small statistics helpers: online mean/variance and percentiles.

/// Online mean and variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; used for burstiness. Latency, per
/// run or per window, goes through [`crate::QosAccumulator`].
///
/// # Examples
///
/// ```
/// use adamant_metrics::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_stddev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (zero for fewer than two observations).
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    ///
    /// The paper's *jitter* is the standard deviation of packet latency and
    /// its *burstiness* the standard deviation of per-second bandwidth; both
    /// use the population form.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        iter.into_iter().for_each(|x| w.push(x));
        w
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation.
///
/// Returns `None` for an empty slice. `values` need not be sorted.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_stddev(), 0.0);
    }

    #[test]
    fn single_value_has_zero_variance() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn known_dataset() {
        let w: Welford = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.population_stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.25), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0];
        assert_eq!(percentile(&v, 0.5), Some(15.0));
        assert_eq!(percentile(&v, 0.75), Some(17.5));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_bad_q() {
        percentile(&[1.0], 1.5);
    }
}
