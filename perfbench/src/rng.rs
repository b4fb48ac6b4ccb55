//! Seeded input generation: every input the benchmark hands the
//! program is drawn from these, so one `--seed` gives one input set.

/// SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): a small, fast,
/// well-mixed 64-bit generator. One stream per seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `stream` under the workload `seed`, so each
    /// worker, client or link gets its own independent sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A Zipf(s) sampler over `1..=n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF.
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c < u) + 1).min(self.cdf.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(8, 1).next_u64()
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut rng = SplitMix64::new(1, 0);
        let draws: Vec<u64> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&k| (1..=100).contains(&k)));
        let ones = draws.iter().filter(|&&k| k == 1).count();
        let hundreds = draws.iter().filter(|&&k| k == 100).count();
        assert!(ones > 10 * hundreds.max(1));
    }
}
