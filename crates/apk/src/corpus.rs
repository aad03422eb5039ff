//! Deterministic app corpora.
//!
//! The paper evaluates on 1000 randomly selected Google Play apps. Our
//! corpus is the synthetic equivalent: `Corpus::paper()` yields 1000 apps
//! derived from a fixed master seed, so every figure is reproducible
//! bit-for-bit. Apps are generated on demand (generation is cheap relative
//! to analysis) and can be generated in any order.

use crate::app::App;
use crate::config::GenConfig;
use crate::generator::generate_app;
use crate::rng::Rng;

/// The master seed behind the evaluation corpus. Changing this invalidates
/// EXPERIMENTS.md.
pub const PAPER_MASTER_SEED: u64 = 0xD401D;

/// Number of apps in the paper-scale corpus.
pub const PAPER_CORPUS_SIZE: usize = 1000;

/// A corpus description: master seed + size + generator configuration.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// Master seed; per-app seeds derive from it.
    pub master_seed: u64,
    /// Number of apps.
    pub size: usize,
    /// Generator configuration.
    pub config: GenConfig,
}

impl Corpus {
    /// The full paper-scale corpus (1000 apps, Table I calibration).
    pub fn paper() -> Self {
        Self {
            master_seed: PAPER_MASTER_SEED,
            size: PAPER_CORPUS_SIZE,
            config: GenConfig::default(),
        }
    }

    /// A corpus with the paper's generator profile but a custom size —
    /// `figures --apps N` uses this for quick runs.
    pub fn paper_sized(size: usize) -> Self {
        Self { size, ..Self::paper() }
    }

    /// A small corpus for tests.
    pub fn test_corpus(size: usize) -> Self {
        Self { master_seed: 0xBEEF, size, config: GenConfig::tiny() }
    }

    /// The seed for app `index`.
    pub fn seed_for(&self, index: usize) -> u64 {
        // One PRNG draw per app keeps seeds independent of corpus size.
        let root = Rng::new(self.master_seed);
        let mut child = root.derive(index as u64);
        child.next_u64()
    }

    /// Generates app `index`.
    pub fn generate(&self, index: usize) -> App {
        assert!(index < self.size, "app index {index} out of corpus range {}", self.size);
        generate_app(index, self.seed_for(index), &self.config)
    }

    /// Iterates over all apps (generated lazily).
    pub fn iter(&self) -> impl Iterator<Item = App> + '_ {
        (0..self.size).map(move |i| self.generate(i))
    }

    /// An owned streaming iterator over an `n`-app paper-profile corpus
    /// seeded with `seed`: apps are generated one at a time on demand
    /// (generate → use → discard; nothing resident beyond the current
    /// app), each from its own per-index seed ([`Corpus::seed_for`]).
    /// Because the seed depends only on `(seed, index)`, shard `i`'s app
    /// `j` is byte-identical regardless of how many shards the corpus is
    /// split across.
    pub fn stream(seed: u64, n: usize) -> CorpusStream {
        Corpus { master_seed: seed, size: n, config: GenConfig::default() }.stream_all()
    }

    /// Streams every app of this corpus in index order.
    pub fn stream_all(&self) -> CorpusStream {
        self.stream_shard(0, 1)
    }

    /// Streams shard `shard` of a `shards`-way strided split: the apps at
    /// indices `shard, shard + shards, shard + 2·shards, …`. The strided
    /// assignment interleaves heavy and light apps across shards (block
    /// splits would hand one shard a run of same-profile neighbors), and
    /// the union over `0..shards` is exactly the 1-shard stream.
    pub fn stream_shard(&self, shard: usize, shards: usize) -> CorpusStream {
        assert!(shards > 0, "stream_shard: zero shards");
        assert!(shard < shards, "stream_shard: shard {shard} out of range {shards}");
        CorpusStream { corpus: self.clone(), next: shard, step: shards }
    }

    /// The index set of shard `shard` in a `shards`-way strided split.
    pub fn shard_indices(n: usize, shard: usize, shards: usize) -> impl Iterator<Item = usize> {
        assert!(shards > 0 && shard < shards, "shard {shard} out of range {shards}");
        (shard..n).step_by(shards)
    }
}

/// Owned lazy corpus iterator: yields `(index, app)` pairs, generating
/// each app only when the consumer asks for it. See [`Corpus::stream`].
pub struct CorpusStream {
    corpus: Corpus,
    next: usize,
    step: usize,
}

impl CorpusStream {
    /// The corpus being streamed.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Apps remaining in this stream.
    pub fn remaining(&self) -> usize {
        if self.next >= self.corpus.size {
            0
        } else {
            (self.corpus.size - self.next).div_ceil(self.step)
        }
    }
}

impl Iterator for CorpusStream {
    type Item = (usize, App);

    fn next(&mut self) -> Option<(usize, App)> {
        if self.next >= self.corpus.size {
            return None;
        }
        let index = self.next;
        self.next += self.step;
        Some((index, self.corpus.generate(index)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let c = Corpus::test_corpus(16);
        let seeds: Vec<u64> = (0..16).map(|i| c.seed_for(i)).collect();
        let seeds2: Vec<u64> = (0..16).map(|i| c.seed_for(i)).collect();
        assert_eq!(seeds, seeds2);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision");
    }

    #[test]
    fn seeds_independent_of_corpus_size() {
        let small = Corpus::test_corpus(4);
        let large = Corpus::test_corpus(64);
        for i in 0..4 {
            assert_eq!(small.seed_for(i), large.seed_for(i));
        }
    }

    #[test]
    fn generate_out_of_range_panics() {
        let c = Corpus::test_corpus(2);
        let result = std::panic::catch_unwind(|| c.generate(5));
        assert!(result.is_err());
    }

    #[test]
    fn paper_corpus_shape() {
        let c = Corpus::paper();
        assert_eq!(c.size, 1000);
        assert_eq!(c.master_seed, PAPER_MASTER_SEED);
        let sized = Corpus::paper_sized(10);
        assert_eq!(sized.size, 10);
        assert_eq!(sized.master_seed, PAPER_MASTER_SEED);
        // Same seeds as the full corpus → same apps, just fewer.
        assert_eq!(sized.seed_for(3), c.seed_for(3));
    }

    #[test]
    fn iter_yields_all() {
        let c = Corpus::test_corpus(3);
        let apps: Vec<_> = c.iter().collect();
        assert_eq!(apps.len(), 3);
        assert_eq!(apps[0].name, "com.gen.app0000");
        assert_eq!(apps[2].name, "com.gen.app0002");
    }

    #[test]
    fn stream_yields_indexed_apps_lazily() {
        let c = Corpus::test_corpus(5);
        let mut s = c.stream_all();
        assert_eq!(s.remaining(), 5);
        let (i0, a0) = s.next().unwrap();
        assert_eq!((i0, a0.name.as_str()), (0, "com.gen.app0000"));
        assert_eq!(s.remaining(), 4);
        assert_eq!(s.map(|(i, _)| i).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // The associated constructor streams a paper-profile corpus.
        let s = Corpus::stream(0xD401D, 3);
        assert_eq!(s.corpus().size, 3);
        assert!((s.corpus().config.scale - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn shard_streams_partition_the_corpus() {
        let c = Corpus::test_corpus(11);
        for shards in 1..=4 {
            let mut seen: Vec<usize> = Vec::new();
            for shard in 0..shards {
                let indices: Vec<usize> = c.stream_shard(shard, shards).map(|(i, _)| i).collect();
                assert_eq!(indices, Corpus::shard_indices(11, shard, shards).collect::<Vec<_>>());
                seen.extend(indices);
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..11).collect::<Vec<_>>(), "{shards}-way split must partition");
        }
    }

    #[test]
    fn sharded_app_is_byte_identical_to_unsharded() {
        // Shard 2-of-3 owns index 5 of an 8-app corpus; the app it
        // generates must equal the 1-shard stream's app 5 byte for byte.
        let c = Corpus::test_corpus(8);
        let solo = c.stream_all().nth(5).unwrap();
        let sharded = c.stream_shard(2, 3).find(|(i, _)| *i == 5).unwrap();
        assert_eq!(solo.0, sharded.0);
        assert_eq!(
            gdroid_ir::text::print_program(&solo.1.program),
            gdroid_ir::text::print_program(&sharded.1.program)
        );
        assert_eq!(solo.1.manifest.package, sharded.1.manifest.package);
    }
}

#[cfg(test)]
mod shard_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Per-index seeds are a pure function of (master seed, index):
        /// any shard layout assigns every index the same seed the
        /// 1-shard stream uses, and the layouts partition the corpus.
        #[test]
        fn seeds_stable_across_shard_layouts(
            master in 0u64..1_000_000,
            n in 1usize..64,
            shards in 1usize..8,
        ) {
            let corpus = Corpus { master_seed: master, size: n, config: GenConfig::tiny() };
            let solo: Vec<u64> = (0..n).map(|i| corpus.seed_for(i)).collect();
            let mut covered = vec![false; n];
            for shard in 0..shards {
                for i in Corpus::shard_indices(n, shard, shards) {
                    prop_assert!(!covered[i], "index {i} assigned to two shards");
                    covered[i] = true;
                    prop_assert_eq!(corpus.seed_for(i), solo[i]);
                }
            }
            prop_assert!(covered.iter().all(|&c| c), "layout must cover every index");
        }
    }
}
