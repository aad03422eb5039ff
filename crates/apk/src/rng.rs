//! Deterministic, portable pseudo-random numbers for corpus generation.
//!
//! The corpus must be bit-reproducible across platforms and library
//! versions (every figure in EXPERIMENTS.md depends on it), so we implement
//! a small, well-known generator in-crate instead of depending on `rand`'s
//! unspecified `StdRng` algorithm: `SplitMix64` for seeding and
//! `Xoshiro256**` for the stream, plus the handful of distributions the
//! generator needs (uniform, log-normal, zipf, weighted choice).

/// SplitMix64 — used to expand a single `u64` seed into generator state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Inverse-CDF table of the Zipf distribution over ranks `[0, n)` with
/// exponent `s`, sampled by [`Rng::zipf`].
///
/// The generator draws once per statement-level event (every `new`, every
/// app-method call, every per-method field pick) from pools of hundreds to
/// thousands of entries, so the table is built once per *pool* — `n`
/// `powf`s — and a draw is one uniform plus an `O(log n)` search. Entry `k`
/// is the partial sum `Σ_{j≤k} (1 / (j+1)^s) / norm`, accumulated left to
/// right: the operations, and therefore the rounding, that decide which
/// rank a given uniform lands on are part of the corpus' byte identity.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for a pool of `n` entries (`n == 0` gives a table
    /// that must not be sampled).
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let mut norm = 0.0;
        for w in &cdf {
            norm += w;
        }
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / norm;
            *w = acc;
        }
        Zipf { cdf }
    }
}

/// Xoshiro256** — the workhorse generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Derives an independent child generator. Used to give every app its
    /// own stream so corpus generation order doesn't matter.
    pub fn derive(&self, stream: u64) -> Rng {
        // Mix the stream id through SplitMix64 with the parent's state as
        // additional entropy.
        let mut sm = SplitMix64::new(self.s[0] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng::new(sm.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`. Uses Lemire's multiply-shift rejection method.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        // 128-bit multiply rejection sampling, bias-free.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= lo.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (one value per call; simple and
    /// deterministic).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal with the given *median* and shape `sigma`.
    ///
    /// `median = exp(mu)`; mean = `median * exp(sigma²/2)`. Size
    /// distributions of real app corpora are famously heavy-tailed; the
    /// paper's Fig. 1 spread (seconds → 38 minutes) matches log-normal run
    /// times.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        (median.ln() + sigma * self.normal()).exp()
    }

    /// Log-normal clamped and rounded to an integer range.
    pub fn log_normal_int(&mut self, median: f64, sigma: f64, lo: usize, hi: usize) -> usize {
        (self.log_normal(median, sigma).round() as usize).clamp(lo, hi)
    }

    /// Zipf-distributed index into the pool `table` was built for — used
    /// for popularity-skewed choices (callee selection, field reuse).
    /// Consumes one [`Rng::f64`] and binary-searches the table.
    pub fn zipf(&mut self, table: &Zipf) -> usize {
        debug_assert!(!table.cdf.is_empty(), "zipf over an empty pool");
        let target = self.f64();
        // First rank whose cumulative mass exceeds the target; rounding can
        // leave the last entry a hair under 1.0, hence the clamp.
        table.cdf.partition_point(|&acc| acc <= target).min(table.cdf.len() - 1)
    }

    /// Picks an index according to integer weights.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        debug_assert!(total > 0, "all-zero weights");
        let mut x = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Picks a random element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_is_deterministic_and_independent() {
        let parent = Rng::new(7);
        let mut c1 = parent.derive(3);
        let mut c1b = parent.derive(3);
        let mut c2 = parent.derive(4);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = Rng::new(10);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = r.range(3, 7);
            assert!((3..=7).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 7;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_has_roughly_zero_mean_unit_var() {
        let mut r = Rng::new(12);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn log_normal_median_is_roughly_right() {
        let mut r = Rng::new(13);
        let n = 10_001;
        let mut samples: Vec<f64> = (0..n).map(|_| r.log_normal(100.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((80.0..125.0).contains(&median), "median {median}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let mut r = Rng::new(14);
        let mut counts = [0usize; 10];
        let table = Zipf::new(10, 1.0);
        for _ in 0..10_000 {
            counts[r.zipf(&table)] += 1;
        }
        assert!(counts[0] > counts[4], "{counts:?}");
        assert!(counts[0] > counts[9] * 3, "{counts:?}");
    }

    /// The O(n)-per-draw scan `Rng::zipf(n, s)` was before the table: the
    /// reference the table must reproduce index for index.
    fn zipf_by_scan(rng: &mut Rng, n: usize, s: f64) -> usize {
        let target = rng.f64();
        let mut norm = 0.0;
        for k in 1..=n {
            norm += 1.0 / (k as f64).powf(s);
        }
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s) / norm;
            if target < acc {
                return k - 1;
            }
        }
        n - 1
    }

    proptest::proptest! {
        /// A table draw consumes the same uniform and lands on the same
        /// rank as the scan did, for every exponent the generator uses.
        #[test]
        fn table_draws_equal_the_scan(n in 1usize..=5000, exponent in 0usize..4, seed: u64) {
            let s = [0.75, 0.8, 1.0, 1.1][exponent];
            let table = Zipf::new(n, s);
            let (mut by_table, mut by_scan) = (Rng::new(seed), Rng::new(seed));
            for draw in 0..1000 {
                let (got, want) = (by_table.zipf(&table), zipf_by_scan(&mut by_scan, n, s));
                proptest::prop_assert_eq!(got, want, "draw {} of n={} s={}", draw, n, s);
            }
            proptest::prop_assert_eq!(by_table.s, by_scan.s, "the streams diverged");
        }
    }

    #[test]
    fn zipf_clamps_a_target_past_the_last_partial_sum() {
        // Rounding may leave the last entry below a target just under 1.0;
        // the scan fell through to `n - 1` there and so must the table.
        let short = Zipf { cdf: vec![0.0, 0.0, 0.0] };
        assert_eq!(Rng::new(17).zipf(&short), 2);
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = Rng::new(15);
        for _ in 0..500 {
            let i = r.weighted(&[0, 5, 0, 1]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut r = Rng::new(16);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should permute");
    }
}
