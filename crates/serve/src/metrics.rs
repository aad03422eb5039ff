//! Service observability: counters, latency histograms, and the
//! machine-readable [`ServiceReport`].
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering — these are
//! statistics, not synchronization), so the hot paths never serialize on
//! a metrics mutex.

use crate::cache::CacheStats;
use gdroid_sumstore::SumStoreStats;
use gdroid_trace::JsonWriter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Histogram bucket upper bounds in nanoseconds: geometric ×4 from 1 µs,
/// covering sub-microsecond to >1000 s in 16 buckets.
const BUCKET_BOUNDS_NS: [u64; 16] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
    16_777_216_000,
    67_108_864_000,
    268_435_456_000,
    1_073_741_824_000,
];

/// A fixed-bucket latency histogram (nanosecond samples).
pub struct Histogram {
    counts: [AtomicU64; 17],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index a sample lands in (bounds are inclusive upper
    /// edges; the 17th bucket is overflow). Public so out-of-process
    /// folds — the campaign journal rollup — can mirror the bucketing
    /// exactly.
    pub fn bucket_for(ns: u64) -> usize {
        BUCKET_BOUNDS_NS.iter().position(|&b| ns <= b).unwrap_or(BUCKET_BOUNDS_NS.len())
    }

    /// Records one sample.
    pub fn record(&self, ns: u64) {
        self.counts[Histogram::bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Consistent point-in-time snapshot (approximate under concurrent
    /// writes — these are statistics).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; 17] = std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        HistogramSnapshot::from_buckets(
            buckets,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// Frozen summary of a [`Histogram`]. Carries the raw bucket counts, so
/// snapshots from different service instances merge *exactly* (bucket
/// counts add; percentiles are recomputed from the merged buckets, never
/// averaged). Percentiles interpolate linearly within their bucket
/// (clamped to the observed max).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Raw per-bucket sample counts (the 16 geometric buckets plus the
    /// overflow bucket). The mergeable ground truth behind every derived
    /// field.
    pub buckets: [u64; 17],
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean_ns: f64,
    /// Median (interpolated).
    pub p50_ns: u64,
    /// 95th percentile (interpolated).
    pub p95_ns: u64,
    /// 99th percentile (interpolated).
    pub p99_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Builds a snapshot (including every derived field) from the raw
    /// mergeable state: bucket counts, sample sum, and observed max.
    /// `count` is Σ `buckets` by construction, so a snapshot can never
    /// disagree with its own buckets (the histogram law of ROADMAP 4d).
    pub fn from_buckets(buckets: [u64; 17], sum_ns: u64, max_ns: u64) -> HistogramSnapshot {
        let count: u64 = buckets.iter().sum();
        // Linear interpolation within the landing bucket (the Prometheus
        // `histogram_quantile` scheme). With ×4-geometric buckets, the
        // old "return the bucket upper bound" answer overestimated by up
        // to 4×; interpolating on the continuous rank `q·count` keeps the
        // estimate inside the bucket, and the upper edge is clamped to
        // the observed max so the overflow bucket stays finite.
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = q * count as f64;
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                let next = seen + c;
                if c > 0 && next as f64 >= rank {
                    let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] };
                    let upper = BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(max_ns).min(max_ns);
                    let lower = lower.min(upper);
                    let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                    return lower + ((upper - lower) as f64 * frac).round() as u64;
                }
                seen = next;
            }
            max_ns
        };
        HistogramSnapshot {
            buckets,
            sum_ns,
            count,
            mean_ns: if count == 0 { 0.0 } else { sum_ns as f64 / count as f64 },
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            max_ns,
        }
    }

    /// Exact merge: bucket counts and sums add, the max is the max, and
    /// every derived field (mean, percentiles) is recomputed from the
    /// merged raw state — identical to a snapshot of one histogram that
    /// recorded both sample populations.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; 17] = std::array::from_fn(|i| self.buckets[i] + other.buckets[i]);
        HistogramSnapshot::from_buckets(
            buckets,
            self.sum_ns + other.sum_ns,
            self.max_ns.max(other.max_ns),
        )
    }

    /// JSON rendering: derived summary fields plus the raw mergeable
    /// bucket counts.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("count").int(self.count);
            w.key("mean_ns").fixed(self.mean_ns, 1);
            w.key("p50_ns").int(self.p50_ns);
            w.key("p95_ns").int(self.p95_ns);
            w.key("p99_ns").int(self.p99_ns);
            w.key("max_ns").int(self.max_ns);
            w.key("sum_ns").int(self.sum_ns);
            w.key("buckets").array(|w| self.buckets.iter().for_each(|&b| w.int(b)));
        })
    }
}

/// Declares the service's event counters once: [`Counters`] (live
/// atomics), [`CountersSnapshot`] (frozen `u64`s) and everything that is
/// field-wise between them — snapshot, merge and the JSON object, whose
/// keys follow declaration order. A new counter is one entry here.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Lifetime event counters of the service.
        #[derive(Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        impl Counters {
            /// Point-in-time copy.
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }

        /// Frozen copy of [`Counters`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CountersSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl CountersSnapshot {
            /// Exact merge: every counter is a sum over disjoint event
            /// sets, so field-wise addition is the true union.
            pub fn merge(&self, other: &CountersSnapshot) -> CountersSnapshot {
                CountersSnapshot { $($name: self.$name + other.$name,)* }
            }

            /// JSON rendering, keys in declaration order.
            pub fn write_json(&self, w: &mut JsonWriter) {
                w.object(|w| {
                    $(w.key(stringify!($name)).int(self.$name);)*
                })
            }
        }
    };
}

counters! {
    /// Jobs admitted into the submission queue.
    submitted,
    /// Exact cache hits (no prep, no execution).
    cache_hits,
    /// Incremental warm-start executions.
    cache_incremental,
    /// Jobs fully prepared and dispatched.
    prepared,
    /// Device executions that returned a result.
    executed,
    /// Failed attempts sent back for retry.
    retries,
    /// Injected device faults observed.
    faults,
    /// Wall-clock attempt timeouts observed.
    timeouts,
    /// Jobs quarantined after exhausting retries.
    quarantined,
    /// Jobs that produced a terminal result (any status).
    completed,
    /// Co-resident batch launches (groups of ≥ 2 jobs on one device).
    batches,
    /// Jobs executed inside a co-resident batch.
    batched_jobs,
    /// Targeted (fast-lane, sliced) jobs completed.
    targeted_jobs,
    /// Sum of targeted sliced fractions in micro-units (×1e6); divided by
    /// `targeted_jobs` for the report's `mean_sliced_fraction`. Kept raw
    /// (not pre-divided) so shard merges reproduce the exact fleet-wide
    /// mean instead of averaging per-shard means.
    sliced_fraction_micros,
    /// Jobs executed under a CPU engine.
    cpu_jobs,
    /// Methods this service's runs pre-solved from its summary store.
    store_hits,
    /// Reachable methods this service's store-backed runs solved.
    store_misses,
}

impl Counters {
    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Live metrics shared by every service thread.
pub struct ServiceMetrics {
    /// Event counters.
    pub counters: Counters,
    /// Wall-clock wait between admission and prep pickup.
    pub queue_wait: Histogram,
    /// Wall-clock host-side prep (load + hash + env/cg).
    pub prep: Histogram,
    /// Wall-clock device-execution attempts (successful ones).
    pub exec_wall: Histogram,
    /// Modeled kernel time (`idfg_ns`) of completed runs.
    pub kernel_model: Histogram,
    /// Modeled taint time of completed runs.
    pub taint_model: Histogram,
    /// Store entries this service's runs dropped because they failed to
    /// re-bind. Reported in [`ServiceReport::sumstore`] only, so the
    /// counters' JSON keeps its shape.
    pub store_reloc_failures: AtomicU64,
    started: Instant,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Creates zeroed metrics; the throughput clock starts now.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics {
            counters: Counters::default(),
            queue_wait: Histogram::new(),
            prep: Histogram::new(),
            exec_wall: Histogram::new(),
            kernel_model: Histogram::new(),
            taint_model: Histogram::new(),
            store_reloc_failures: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Builds the machine-readable report. `label` names this service in
    /// the report's per-source attribution (shards pass their shard
    /// label, so a merged fleet report can still say which shard's jobs
    /// hit). The summary-store block is this service's runs' traffic; no
    /// run inserts, so its `insertions` reads 0.
    pub fn report(
        &self,
        label: &str,
        cache: CacheStats,
        device_launches: u64,
        device_faults: u64,
    ) -> ServiceReport {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let counters = self.counters.snapshot();
        let (apps_per_sec, coresidency, mean_sliced_fraction) = derived_ratios(&counters, wall_ns);
        let sumstore = SumStoreStats {
            hits: counters.store_hits,
            misses: counters.store_misses,
            insertions: 0,
            reloc_failures: self.store_reloc_failures.load(Ordering::Relaxed),
        };
        let per_source = vec![SourceStats {
            label: label.to_owned(),
            cache_hits: counters.cache_hits,
            cache_incremental: counters.cache_incremental,
            store_hits: counters.store_hits,
            store_misses: counters.store_misses,
        }];
        ServiceReport {
            counters,
            per_source,
            queue_wait: self.queue_wait.snapshot(),
            prep: self.prep.snapshot(),
            exec_wall: self.exec_wall.snapshot(),
            kernel_model: self.kernel_model.snapshot(),
            taint_model: self.taint_model.snapshot(),
            cache,
            sumstore,
            wall_ns,
            apps_per_sec,
            coresidency,
            mean_sliced_fraction,
            device_launches,
            device_faults,
        }
    }
}

/// Ratios derived from the raw counters: throughput, mean coresidency,
/// and the mean targeted sliced fraction. Factored out so a merged
/// report recomputes them from merged counters instead of averaging.
fn derived_ratios(counters: &CountersSnapshot, wall_ns: u64) -> (f64, f64, f64) {
    let apps_per_sec =
        if wall_ns == 0 { 0.0 } else { counters.completed as f64 / (wall_ns as f64 / 1e9) };
    // Mean jobs per device execution: batched jobs collapse into one
    // launch group each, solo executions count as groups of one.
    let groups = counters.executed.saturating_sub(counters.batched_jobs) + counters.batches;
    let coresidency = if groups == 0 { 1.0 } else { counters.executed as f64 / groups as f64 };
    let mean_sliced_fraction = if counters.targeted_jobs == 0 {
        1.0
    } else {
        counters.sliced_fraction_micros as f64 / 1e6 / counters.targeted_jobs as f64
    };
    (apps_per_sec, coresidency, mean_sliced_fraction)
}

/// Per-service attribution of cache and store traffic: each service
/// contributes one entry of its own hit counts, and
/// [`ServiceReport::merge`] concatenates them, so a merged fleet report
/// still says which shard's jobs hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceStats {
    /// The contributing service's label.
    pub label: String,
    /// Exact result-cache hits this service took.
    pub cache_hits: u64,
    /// Incremental warm-starts this service took.
    pub cache_incremental: u64,
    /// Summary-store method hits this service's executions took.
    pub store_hits: u64,
    /// Summary-store method misses this service's executions took.
    pub store_misses: u64,
}

/// The machine-readable service summary (`--json` / `BENCH_serve.json`).
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Event counters.
    pub counters: CountersSnapshot,
    /// Per-contributing-service attribution (one entry per merged
    /// service, in merge order).
    pub per_source: Vec<SourceStats>,
    /// Queue-wait latency.
    pub queue_wait: HistogramSnapshot,
    /// Prep-stage latency.
    pub prep: HistogramSnapshot,
    /// Device-execution wall latency.
    pub exec_wall: HistogramSnapshot,
    /// Modeled kernel time distribution.
    pub kernel_model: HistogramSnapshot,
    /// Modeled taint time distribution.
    pub taint_model: HistogramSnapshot,
    /// Cache behavior.
    pub cache: CacheStats,
    /// Cross-app summary-store traffic of this service's runs, from their
    /// `StoreUse`s (zeroed when no store is configured).
    pub sumstore: SumStoreStats,
    /// Service wall-clock from start to report.
    pub wall_ns: u64,
    /// Terminal results per second of service wall-clock.
    pub apps_per_sec: f64,
    /// Mean jobs per device execution (1.0 when nothing batched).
    pub coresidency: f64,
    /// Mean sliced fraction of targeted jobs (1.0 when none ran).
    pub mean_sliced_fraction: f64,
    /// Lifetime device launches (including faulted ones).
    pub device_launches: u64,
    /// Lifetime injected device faults.
    pub device_faults: u64,
}

impl ServiceReport {
    /// Exact shard merge. Every aggregate is folded from its raw
    /// mergeable state: counters, cache, and sumstore stats add;
    /// histograms add bucket-wise (percentiles recomputed from the
    /// merged buckets, never averaged); derived ratios are recomputed
    /// from the merged counters. `wall_ns` takes the max — shards run
    /// concurrently, so the fleet's wall clock is the slowest shard's.
    pub fn merge(&self, other: &ServiceReport) -> ServiceReport {
        let counters = self.counters.merge(&other.counters);
        let wall_ns = self.wall_ns.max(other.wall_ns);
        let (apps_per_sec, coresidency, mean_sliced_fraction) = derived_ratios(&counters, wall_ns);
        let mut per_source = self.per_source.clone();
        per_source.extend(other.per_source.iter().cloned());
        ServiceReport {
            counters,
            per_source,
            queue_wait: self.queue_wait.merge(&other.queue_wait),
            prep: self.prep.merge(&other.prep),
            exec_wall: self.exec_wall.merge(&other.exec_wall),
            kernel_model: self.kernel_model.merge(&other.kernel_model),
            taint_model: self.taint_model.merge(&other.taint_model),
            cache: CacheStats {
                hits: self.cache.hits + other.cache.hits,
                misses: self.cache.misses + other.cache.misses,
                invalidations: self.cache.invalidations + other.cache.invalidations,
                insertions: self.cache.insertions + other.cache.insertions,
            },
            sumstore: self.sumstore.merge(&other.sumstore),
            wall_ns,
            apps_per_sec,
            coresidency,
            mean_sliced_fraction,
            device_launches: self.device_launches + other.device_launches,
            device_faults: self.device_faults + other.device_faults,
        }
    }

    /// JSON rendering (`gdroid serve --json` and `BENCH_serve.json` embed it).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            self.counters.write_json(w.key("counters"));
            w.key("per_source").array(|w| {
                for s in &self.per_source {
                    w.object(|w| {
                        w.key("label").string(&s.label);
                        w.key("cache_hits").int(s.cache_hits);
                        w.key("cache_incremental").int(s.cache_incremental);
                        w.key("store_hits").int(s.store_hits);
                        w.key("store_misses").int(s.store_misses);
                    });
                }
            });
            w.key("latency").object(|w| {
                self.queue_wait.write_json(w.key("queue_wait"));
                self.prep.write_json(w.key("prep"));
                self.exec_wall.write_json(w.key("exec_wall"));
                self.kernel_model.write_json(w.key("kernel_model"));
                self.taint_model.write_json(w.key("taint_model"));
            });
            w.key("cache").object(|w| {
                w.key("hits").int(self.cache.hits);
                w.key("misses").int(self.cache.misses);
                w.key("invalidations").int(self.cache.invalidations);
                w.key("insertions").int(self.cache.insertions);
            });
            w.key("sumstore").object(|w| {
                w.key("hits").int(self.sumstore.hits);
                w.key("misses").int(self.sumstore.misses);
                w.key("insertions").int(self.sumstore.insertions);
                w.key("reloc_failures").int(self.sumstore.reloc_failures);
            });
            w.key("wall_ns").int(self.wall_ns);
            w.key("apps_per_sec").fixed(self.apps_per_sec, 3);
            w.key("coresidency").fixed(self.coresidency, 3);
            w.key("mean_sliced_fraction").fixed(self.mean_sliced_fraction, 6);
            w.key("device_launches").int(self.device_launches);
            w.key("device_faults").int(self.device_faults);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(report: &ServiceReport) -> String {
        JsonWriter::render(|w| report.write_json(w))
    }

    #[test]
    fn histogram_summarizes_samples() {
        let h = Histogram::new();
        for ns in [500, 2_000, 2_000, 100_000, 5_000_000_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.max_ns, 5_000_000_000);
        // Interpolated values, pinned. p50: rank 2.5 lands in the
        // (1 µs, 4 µs] bucket after 1 sample → 1000 + 3000·(1.5/2).
        assert_eq!(s.p50_ns, 3_250);
        // p95/p99: rank 4.75/4.95 land in the overflow-side bucket after
        // 4 samples; its upper edge is clamped to max = 5 s.
        assert_eq!(s.p95_ns, 4_798_576_000);
        assert_eq!(s.p99_ns, 4_959_715_200);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        assert!(s.mean_ns > 0.0);
        let json = JsonWriter::render(|w| s.write_json(w));
        assert!(json.contains("\"count\":5"));
        assert!(json.contains("\"p99_ns\":4959715200"));
    }

    #[test]
    fn boundary_sample_lands_in_lower_bucket() {
        // 1 µs is exactly the first bucket's upper bound: it must count
        // in that bucket (bounds are inclusive), so the median of
        // {1 µs, 4 s} interpolates up to 1 µs — not into (1 µs, 4 µs].
        let h = Histogram::new();
        h.record(1_000);
        h.record(4_000_000_000);
        let s = h.snapshot();
        assert_eq!(s.p50_ns, 1_000);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    /// A deterministic sample population: geometrically spread latencies
    /// covering the low buckets, a mid bucket, and the overflow bucket.
    fn sample_population() -> Vec<u64> {
        (0..64u64).map(|i| (i % 13 + 1) * 7u64.pow((i % 7) as u32 + 1)).collect()
    }

    #[test]
    fn histogram_merge_of_split_equals_whole() {
        // merge(split(samples)) == whole, byte-exact: any partition of the
        // sample population into two histograms must merge back to the
        // snapshot of one histogram that saw everything.
        let samples = sample_population();
        for split_at in [0, 1, samples.len() / 3, samples.len() / 2, samples.len()] {
            let whole = Histogram::new();
            let left = Histogram::new();
            let right = Histogram::new();
            for (i, &ns) in samples.iter().enumerate() {
                whole.record(ns);
                if i < split_at {
                    left.record(ns)
                } else {
                    right.record(ns)
                };
            }
            let merged = left.snapshot().merge(&right.snapshot());
            assert_eq!(merged, whole.snapshot(), "split at {split_at}");
        }
    }

    #[test]
    fn report_merge_of_split_equals_whole_report() {
        // Split a deterministic event stream across two ServiceMetrics
        // ("shards") and merge their reports: every mergeable aggregate
        // must equal the report of one metrics instance that saw the
        // whole stream. Wall-clock-derived fields are pinned on both
        // sides before comparison (shards share no clock).
        let whole = ServiceMetrics::new();
        let parts = [ServiceMetrics::new(), ServiceMetrics::new()];
        for (i, &ns) in sample_population().iter().enumerate() {
            for m in [&whole, &parts[i % 2]] {
                m.queue_wait.record(ns);
                m.exec_wall.record(ns * 3);
                m.kernel_model.record(ns / 2);
                Counters::bump(&m.counters.submitted);
                Counters::bump(&m.counters.completed);
                if i % 3 == 0 {
                    Counters::bump(&m.counters.cache_hits);
                }
                if i % 5 == 0 {
                    Counters::bump(&m.counters.targeted_jobs);
                    m.counters.sliced_fraction_micros.fetch_add(125_000, Ordering::Relaxed);
                }
                if i % 4 == 0 {
                    m.counters.store_hits.fetch_add(3, Ordering::Relaxed);
                    Counters::bump(&m.counters.store_misses);
                    Counters::bump(&m.store_reloc_failures);
                }
            }
        }
        let cache = |h, m| CacheStats { hits: h, misses: m, invalidations: 0, insertions: m };
        let mut expect = whole.report("whole", cache(6, 2), 10, 1);
        let shard_0 = parts[0].report("shard-0", cache(2, 1), 4, 0);
        let mut merged = shard_0.merge(&parts[1].report("shard-1", cache(4, 1), 6, 1));
        // Per-source attribution is one entry per contributing service —
        // by construction different between the whole and the split — so
        // it is checked structurally and cleared before the byte compare.
        assert_eq!(merged.per_source.len(), 2);
        assert_eq!(merged.per_source[0].label, "shard-0");
        assert_eq!(merged.per_source[1].label, "shard-1");
        assert_eq!(
            merged.per_source[0].cache_hits + merged.per_source[1].cache_hits,
            expect.per_source[0].cache_hits
        );
        for r in [&mut expect, &mut merged] {
            r.wall_ns = 1_000_000;
            r.apps_per_sec = 0.0;
            r.per_source.clear();
        }
        assert_eq!(json(&merged), json(&expect));
        assert!(merged.sumstore.hits > 0 && merged.sumstore.reloc_failures > 0);
        assert!(merged.mean_sliced_fraction > 0.0 && merged.mean_sliced_fraction < 1.0);
    }

    #[test]
    fn report_json_is_wellformed() {
        let m = ServiceMetrics::new();
        Counters::bump(&m.counters.completed);
        Counters::bump(&m.counters.store_hits);
        m.exec_wall.record(1_000);
        m.store_reloc_failures.fetch_add(2, Ordering::Relaxed);
        let r = m.report("service", CacheStats::default(), 3, 1);
        let j = json(&r);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"completed\":1"));
        assert!(j.contains("\"store_hits\":1"));
        assert!(j.contains("\"per_source\":[{\"label\":\"service\",\"cache_hits\":0,"));
        assert!(j.contains("\"device_faults\":1"));
        assert!(j.contains("\"apps_per_sec\":"));
        assert!(j.contains("\"targeted_jobs\":0"));
        assert!(j.contains("\"mean_sliced_fraction\":1.000000"));
        assert!(j.contains("\"cache\":{"));
        assert!(
            j.contains(
                "\"sumstore\":{\"hits\":1,\"misses\":0,\"insertions\":0,\"reloc_failures\":2}"
            ),
            "sumstore stats must sit beside the cache stats: {j}"
        );
    }

    #[test]
    fn source_labels_are_json_escaped() {
        let m = ServiceMetrics::new();
        let r = m.report("a\"b\\c", CacheStats::default(), 0, 0);
        assert!(
            json(&r).contains("\"per_source\":[{\"label\":\"a\\\"b\\\\c\",\"cache_hits\":0,"),
            "{}",
            json(&r)
        );
    }
}
