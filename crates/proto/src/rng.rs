//! Deterministic pseudo-random number generation and the [`Entropy`]
//! abstraction the protocol cores draw from.
//!
//! Every stochastic choice in a protocol core (end-host packet drops,
//! repair peer selection, timer phase) draws through [`Entropy`], so a
//! core is a pure function of its inputs and its entropy stream. The
//! reference implementation is [`DetRng`], a xoshiro256++ generator seeded
//! through [`splitmix64`]: the same stream the simulator forks per node.

/// A seedable, deterministic pseudo-random number generator (xoshiro256++).
///
/// # Examples
///
/// ```
/// use adamant_proto::DetRng;
///
/// let mut a = DetRng::seed_from_u64(42);
/// let mut b = DetRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

/// The SplitMix64 generator: advances `state` and returns its next output.
/// It seeds [`DetRng`], and the ANN draws its initial weights from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The full 256-bit state is expanded from the seed with SplitMix64, so
    /// nearby seeds still yield statistically independent streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro's all-zero state is a fixed point; SplitMix64 cannot emit
        // four zeros from any seed, but guard anyway for safety.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        DetRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each endpoint its own random stream so that adding an
    /// endpoint never perturbs the draws observed by existing ones.
    pub fn fork(&mut self, stream: u64) -> DetRng {
        let mix = self.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        DetRng::seed_from_u64(mix)
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only reached when low < bound; retry if x falls
            // in the biased region.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p.is_nan() || p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Samples an exponential variate with the given mean.
    ///
    /// Returns zero for non-positive means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `0..n`, in random order.
    ///
    /// If `k >= n`, all indices are returned (shuffled).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx = Vec::new();
        self.sample_indices_into(n, k, &mut idx);
        idx
    }

    /// [`sample_indices`](Self::sample_indices) into a caller-owned buffer
    /// (cleared first), so a hot path can draw without allocating. Same
    /// draws, same result.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..n);
        self.shuffle(out);
        out.truncate(k.min(n));
    }
}

/// The entropy stream a protocol core draws from.
///
/// Drivers decide where the bits come from: the simulator hands each core
/// its per-node deterministic stream; the real-UDP runtime seeds a
/// [`DetRng`] per endpoint (still deterministic given the seed, which the
/// property tests rely on). The surface is exactly what the transports
/// use — keeping it narrow keeps cores easy to audit for hidden
/// nondeterminism.
pub trait Entropy {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64;

    /// Returns a uniform integer in `[0, bound)`.
    fn next_below(&mut self, bound: u64) -> u64;

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn bernoulli(&mut self, p: f64) -> bool;

    /// Draws `k` distinct indices from `0..n`, in random order.
    fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_indices_into(n, k, &mut out);
        out
    }

    /// [`sample_indices`](Self::sample_indices) into a caller-owned buffer
    /// (cleared first): the same draws without the allocation.
    fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>);
}

impl Entropy for DetRng {
    fn next_u64(&mut self) -> u64 {
        DetRng::next_u64(self)
    }

    fn next_f64(&mut self) -> f64 {
        DetRng::next_f64(self)
    }

    fn next_below(&mut self, bound: u64) -> u64 {
        DetRng::next_below(self, bound)
    }

    fn bernoulli(&mut self, p: f64) -> bool {
        DetRng::bernoulli(self, p)
    }

    fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        DetRng::sample_indices_into(self, n, k, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = DetRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DetRng::seed_from_u64(5);
        for bound in [1u64, 2, 3, 10, 1_000] {
            for _ in 0..1_000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = DetRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        DetRng::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = DetRng::seed_from_u64(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2_000 {
            match rng.range_inclusive(10, 12) {
                10 => lo_seen = true,
                12 => hi_seen = true,
                11 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = DetRng::seed_from_u64(17);
        assert!(!rng.bernoulli(0.0));
        assert!(!rng.bernoulli(-1.0));
        assert!(!rng.bernoulli(f64::NAN));
        assert!(rng.bernoulli(1.0));
        assert!(rng.bernoulli(2.0));
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let mut rng = DetRng::seed_from_u64(19);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.05)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate} too far from 0.05");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::seed_from_u64(29);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-1.0), 0.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::seed_from_u64(31);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = DetRng::seed_from_u64(37);
        let sample = rng.sample_indices(20, 5);
        assert_eq!(sample.len(), 5);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);

        let all = rng.sample_indices(3, 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = DetRng::seed_from_u64(41);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn entropy_trait_matches_inherent_methods() {
        let mut direct = DetRng::seed_from_u64(43);
        let mut boxed = DetRng::seed_from_u64(43);
        let via: &mut dyn Entropy = &mut boxed;
        for _ in 0..32 {
            assert_eq!(direct.next_u64(), via.next_u64());
        }
        assert_eq!(direct.next_below(17), via.next_below(17));
        assert_eq!(direct.bernoulli(0.4), via.bernoulli(0.4));
        assert_eq!(direct.sample_indices(9, 4), via.sample_indices(9, 4));
        let mut reused = vec![99; 3];
        via.sample_indices_into(9, 4, &mut reused);
        assert_eq!(direct.sample_indices(9, 4), reused);
    }
}
