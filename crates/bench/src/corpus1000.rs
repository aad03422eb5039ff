//! The `figures corpus1000` experiment: the paper's speedup ladder at
//! corpus scale, streamed.
//!
//! The evaluation's headline claim is made over 1000 Google Play apps;
//! this experiment reproduces the whole ladder at that N on the
//! synthetic corpus, streaming window by window so memory stays bounded
//! (nothing but the current 8-app window is ever resident):
//!
//! * **kernel rungs** — every app solo on PLAIN, MAT, MAT+GRP, and full
//!   GDroid (modeled IDFG time summed per rung);
//! * **targeted lane** — every app demand-driven (backward sink slice),
//!   verdict asserted byte-identical to the full GDroid run;
//! * **co-resident batching** — every window re-run in groups of
//!   K ∈ {2, 4, 8}, per-app outcomes asserted byte-identical to solo;
//! * **summary store** — the same corpus re-generated with shared
//!   libraries, vetted against its frozen library store (every reachable
//!   library method pre-solved) and store-free.
//!
//! Every number in `BENCH_corpus1000.json` is modeled or counted, so the
//! file is byte-deterministic across reruns — CI `cmp`s a small-N
//! generation with the golden committed under `ci/golden/`.

use crate::lane::{assert_same_report, Lane, Verdicts};
use crate::stats::speedup;
use gdroid_apk::{Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid_core::OptConfig;
use gdroid_trace::JsonWriter;
use gdroid_vetting::{
    library_store, prepare_vetting, Engine, ExecPlan, PreparedApp, VettingOutcome,
};

/// Window size of the streamed sweep — also the largest batching degree.
pub const WINDOW: usize = 8;

/// One kernel rung of the ladder.
pub struct LadderRung {
    /// Rung label (`plain` / `mat` / `matgrp` / `gdroid`).
    pub label: &'static str,
    /// Summed modeled IDFG time over the corpus (ns).
    pub idfg_ns: f64,
    /// Speedup over the `plain` rung.
    speedup: f64,
}

/// The corpus-scale ladder results.
pub struct Corpus1000 {
    /// Apps vetted.
    pub apps: usize,
    /// Generator scale applied to the `small` profile.
    pub scale: f64,
    /// The four kernel rungs, slowest first.
    pub rungs: Vec<LadderRung>,
    /// Summed targeted (sliced) modeled IDFG time (ns).
    pub targeted_ns: f64,
    /// Speedup of the targeted lane over the full `gdroid` rung.
    targeted_speedup: f64,
    /// Mean sliced fraction over the corpus.
    pub mean_sliced_fraction: f64,
    /// Per-degree (K, summed batched makespan ns, launches, speedup vs solo).
    batch: Vec<(usize, f64, usize, f64)>,
    /// Summed solo GDroid device makespans the batch points compare to
    /// (ns).
    pub solo_makespan_ns: f64,
    /// Summed store-backed modeled IDFG time over the library corpus
    /// (ns).
    pub sumstore_ns: f64,
    /// Summed store-free modeled IDFG time over the library corpus (ns).
    pub sumstore_baseline_ns: f64,
    /// Speedup of the store-backed pass over the store-free one.
    sumstore_speedup: f64,
    /// Methods the store-backed pass pre-solved.
    pub sumstore_hits: u64,
    /// Suspicious verdicts.
    pub suspicious: usize,
    /// FNV-1a over the sorted per-app verdict lines.
    pub verdict_digest: u64,
}

impl Corpus1000 {
    /// The byte-deterministic JSON document (`BENCH_corpus1000.json`).
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| {
            w.object(|w| {
                w.key("apps").int(self.apps);
                w.key("profile").string("small");
                w.key("scale").fixed(self.scale, 3);
                w.key("rungs").array(|w| {
                    for r in &self.rungs {
                        w.object(|w| {
                            w.key("engine").string(r.label);
                            w.key("idfg_ns").fixed(r.idfg_ns, 1);
                            w.key("speedup").fixed(r.speedup, 4);
                        });
                    }
                });
                w.key("targeted").object(|w| {
                    w.key("idfg_ns").fixed(self.targeted_ns, 1);
                    w.key("speedup_vs_full").fixed(self.targeted_speedup, 4);
                    w.key("mean_sliced_fraction").fixed(self.mean_sliced_fraction, 6);
                });
                w.key("batch").object(|w| {
                    w.key("solo_makespan_ns").fixed(self.solo_makespan_ns, 1);
                    w.key("points").array(|w| {
                        for &(k, ns, launches, speedup) in &self.batch {
                            w.object(|w| {
                                w.key("coresident").int(k);
                                w.key("batched_ns").fixed(ns, 1);
                                w.key("launches").int(launches);
                                w.key("speedup").fixed(speedup, 4);
                            });
                        }
                    });
                });
                w.key("sumstore").object(|w| {
                    w.key("idfg_ns").fixed(self.sumstore_ns, 1);
                    w.key("baseline_ns").fixed(self.sumstore_baseline_ns, 1);
                    w.key("speedup").fixed(self.sumstore_speedup, 4);
                    w.key("hits").int(self.sumstore_hits);
                });
                w.key("verdicts").object(|w| {
                    w.key("suspicious").int(self.suspicious);
                    w.key("clean").int(self.apps - self.suspicious);
                    w.key("digest").hex(self.verdict_digest);
                });
            })
        })
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "corpus-scale ladder over {} apps (small profile x {:.2})\n",
            self.apps, self.scale
        );
        for r in &self.rungs {
            writeln!(
                out,
                "  {:<7} {:>12.1} ms  ({:.2}x vs plain)",
                r.label,
                r.idfg_ns / 1e6,
                r.speedup
            )
            .unwrap();
        }
        writeln!(
            out,
            "  targeted {:>10.1} ms  ({:.2}x vs full gdroid, {:.1}% sliced mean)",
            self.targeted_ns / 1e6,
            self.targeted_speedup,
            100.0 * self.mean_sliced_fraction
        )
        .unwrap();
        for (k, ns, launches, speedup) in &self.batch {
            writeln!(
                out,
                "  batch K{k} {:>9.1} ms  ({speedup:.2}x vs solo, {launches} launches)",
                ns / 1e6,
            )
            .unwrap();
        }
        writeln!(
            out,
            "  sumstore {:>10.1} ms  ({:.2}x vs store-free, {} hits)",
            self.sumstore_ns / 1e6,
            self.sumstore_speedup,
            self.sumstore_hits
        )
        .unwrap();
        writeln!(
            out,
            "  verdicts: {} suspicious / {} clean, digest {:016x}",
            self.suspicious,
            self.apps - self.suspicious,
            self.verdict_digest
        )
        .unwrap();
        out
    }
}

/// Runs the streamed corpus-scale ladder. `scale` multiplies the `small`
/// generator profile. Returns `(json, human_summary)`.
pub fn corpus1000_benchmark(apps: usize, scale: f64) -> (String, String) {
    let apps = apps.max(WINDOW);
    let mut gen = GenConfig::small();
    gen.scale *= scale;
    let corpus = Corpus { master_seed: PAPER_MASTER_SEED, size: apps, config: gen.clone() };

    type Rung = (&'static str, fn() -> OptConfig);
    const RUNGS: [Rung; 4] = [
        ("plain", OptConfig::plain),
        ("mat", OptConfig::mat),
        ("matgrp", OptConfig::mat_grp),
        ("gdroid", OptConfig::gdroid),
    ];
    let mut rungs = RUNGS.map(|(_, opt)| Lane::new(ExecPlan::new(Engine::Gpu(opt()))));
    let mut targeted = Lane::new(ExecPlan { targeted: true, ..ExecPlan::default() });
    let mut batch_lane = Lane::new(ExecPlan::default());

    let mut sliced_sum = 0.0;
    let mut batch: Vec<(usize, f64, usize)> = vec![(2, 0.0, 0), (4, 0.0, 0), (8, 0.0, 0)];
    let mut verdicts = Verdicts::default();

    // Streamed window sweep: prepare 8 apps, run every lane, discard.
    let mut stream = corpus.stream_all().peekable();
    while stream.peek().is_some() {
        let window: Vec<(usize, PreparedApp)> =
            stream.by_ref().take(WINDOW).map(|(i, app)| (i, prepare_vetting(app))).collect();
        let mut solo: Vec<VettingOutcome> = Vec::with_capacity(window.len());
        for (index, prep) in &window {
            let [.., full] = rungs.each_mut().map(|lane| lane.run(prep).run);
            verdicts.push(*index, prep, &full);
            let t = targeted.run(prep).run;
            assert_same_report(&t, &full, format_args!("app {index}: targeted vs full gdroid"));
            sliced_sum += t.outcome.targeted.as_ref().map_or(1.0, |p| p.sliced_fraction);
            solo.push(full.outcome);
        }
        let preps: Vec<&PreparedApp> = window.iter().map(|(_, p)| p).collect();
        for (k, total_ns, launches) in batch.iter_mut() {
            for (chunk, solo) in preps.chunks(*k).zip(solo.chunks(*k)) {
                let b = batch_lane.run_group(chunk, solo);
                *total_ns += b.makespan_ns;
                *launches += b.launches;
            }
        }
    }

    // Summary-store lane: the same corpus re-generated with shared
    // libraries, vetted against its library store — and store-free as the
    // baseline.
    let lib_gen = gen.with_libraries(2, 4);
    let store = library_store(&lib_gen);
    let lib_corpus = Corpus { master_seed: PAPER_MASTER_SEED, size: apps, config: lib_gen };
    let mut store_free = Lane::new(ExecPlan::default());
    let mut store_backed = Lane::with_store(ExecPlan::default(), &store);
    let mut sumstore_hits = 0;
    for (_, app) in lib_corpus.stream_all() {
        let prep = prepare_vetting(app);
        let baseline = store_free.run(&prep).run;
        let done = store_backed.run(&prep);
        assert_same_report(&done.run, &baseline, format_args!("store-backed vs store-free"));
        sumstore_hits += done.store_use.expect("a store was attached").hits;
    }

    // Every ratio is derived here, once; `to_json` and `render` print it.
    let rung_ns = rungs.each_ref().map(|lane| lane.idfg_ns);
    let [plain_ns, .., gdroid_ns] = rung_ns;
    // The batch points compare against the full rung's solo makespans.
    let solo_makespan_ns = gdroid_ns;
    let result = Corpus1000 {
        apps,
        scale,
        rungs: RUNGS
            .iter()
            .zip(rung_ns)
            .map(|((label, _), idfg_ns)| LadderRung {
                label,
                idfg_ns,
                speedup: speedup(plain_ns, idfg_ns),
            })
            .collect(),
        targeted_ns: targeted.idfg_ns,
        targeted_speedup: speedup(gdroid_ns, targeted.idfg_ns),
        mean_sliced_fraction: sliced_sum / apps as f64,
        batch: batch
            .into_iter()
            .map(|(k, ns, launches)| (k, ns, launches, speedup(solo_makespan_ns, ns)))
            .collect(),
        solo_makespan_ns,
        sumstore_ns: store_backed.idfg_ns,
        sumstore_baseline_ns: store_free.idfg_ns,
        sumstore_speedup: speedup(store_free.idfg_ns, store_backed.idfg_ns),
        sumstore_hits,
        suspicious: verdicts.suspicious,
        verdict_digest: verdicts.digest(),
    };
    (result.to_json(), result.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_ladder_is_deterministic_and_ordered() {
        // Tiny scale keeps this double run debug-build friendly; CI's
        // bench-drift gate covers a larger N (see ci/check.sh).
        let (a, summary) = corpus1000_benchmark(8, 0.02);
        let (b, _) = corpus1000_benchmark(8, 0.02);
        assert_eq!(a, b, "BENCH_corpus1000.json must be byte-deterministic");
        assert!(a.contains("\"engine\":\"plain\"") && a.contains("\"engine\":\"gdroid\""));
        assert!(a.contains("\"coresident\":8"));
        assert!(summary.contains("corpus-scale ladder"));
        // The ladder must be monotone: each rung at least as fast as the
        // one before, and targeted no slower than full gdroid.
        let ns: Vec<f64> = ["plain", "mat", "matgrp", "gdroid"]
            .iter()
            .map(|label| {
                let key = format!("\"engine\":\"{label}\",\"idfg_ns\":");
                let tail = &a[a.find(&key).unwrap() + key.len()..];
                tail[..tail.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(ns[0] >= ns[1] && ns[1] >= ns[2] && ns[2] >= ns[3], "ladder not monotone: {ns:?}");
    }
}
