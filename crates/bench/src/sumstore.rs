//! The `figures sumstore` experiment: cross-app summary-store economics.
//!
//! For each library duplication factor (1, 2, 4, 8) a 20-app corpus is
//! generated over a shared library pool sized so each package appears in
//! ~`dup` apps, then vetted twice against one summary store:
//!
//! * **cold** — the store starts empty; hits come only from libraries
//!   already contributed by *earlier apps of the same sweep*, so the cold
//!   hit rate isolates cross-app sharing and grows with `dup`;
//! * **warm** — the same corpus re-vetted against the now-populated
//!   store; every method pre-solves and the modeled IDFG time collapses.
//!
//! Every number emitted into `BENCH_sumstore.json` is modeled or counted
//! (no wall clocks), so the file is byte-deterministic for a fixed seed.
//! Cold and warm verdicts are asserted identical per app.

use crate::corpus::corpus_preps;
use crate::lane::Lane;
use gdroid_apk::GenConfig;
use gdroid_sumstore::SumStore;
use gdroid_trace::JsonWriter;
use gdroid_vetting::{ExecPlan, PreparedApp};

/// Library packages each app draws from the shared pool.
const LIBS_PER_APP: usize = 3;

/// One duplication-factor measurement.
pub struct SumstorePoint {
    /// Target cross-app duplication factor (`apps × K / pool`).
    pub dup: usize,
    /// Apps in the corpus.
    pub apps: usize,
    /// Library-pool size behind this duplication factor.
    pub pool: usize,
    /// Summed modeled IDFG time of the cold sweep (ns).
    pub cold_ns: f64,
    /// Summed modeled IDFG time of the warm sweep (ns).
    pub warm_ns: f64,
    /// Store hits during the cold sweep (intra-corpus library sharing).
    pub cold_hits: u64,
    /// Store misses during the cold sweep.
    pub cold_misses: u64,
    /// Store hits during the warm sweep.
    pub warm_hits: u64,
    /// Store misses during the warm sweep (0 for an unchanged corpus).
    pub warm_misses: u64,
}

impl SumstorePoint {
    fn write_json(&self, w: &mut JsonWriter) {
        let looked = self.cold_hits + self.cold_misses;
        let cold_hit_rate = if looked > 0 { self.cold_hits as f64 / looked as f64 } else { 0.0 };
        w.object(|w| {
            w.key("dup").int(self.dup);
            w.key("apps").int(self.apps);
            w.key("libs_per_app").int(LIBS_PER_APP);
            w.key("pool").int(self.pool);
            w.key("cold_ns").fixed(self.cold_ns, 1);
            w.key("warm_ns").fixed(self.warm_ns, 1);
            w.key("cold_hits").int(self.cold_hits);
            w.key("cold_misses").int(self.cold_misses);
            w.key("cold_hit_rate").fixed(cold_hit_rate, 4);
            w.key("warm_hits").int(self.warm_hits);
            w.key("warm_misses").int(self.warm_misses);
        })
    }
}

/// Vets every prepared app against `store`, returning the summed modeled
/// IDFG time, the per-app report JSONs, and the (hits, misses) this sweep
/// added to the store counters.
fn sweep(preps: &[PreparedApp], store: &SumStore) -> (f64, Vec<String>, u64, u64) {
    let before = store.stats();
    let mut lane = Lane::with_store(ExecPlan::default(), store);
    let verdicts = preps.iter().map(|prep| lane.run(prep).run.outcome.report.to_json()).collect();
    let after = store.stats();
    (lane.idfg_ns, verdicts, after.hits - before.hits, after.misses - before.misses)
}

/// Runs one duplication-factor point: a fresh corpus, a fresh store, a
/// cold sweep, then a warm sweep over the identical corpus.
pub fn run_sumstore_point(apps: usize, dup: usize) -> SumstorePoint {
    let pool = (apps * LIBS_PER_APP / dup).max(1);
    let cfg = GenConfig::tiny().with_libraries(LIBS_PER_APP, pool);
    let preps: Vec<PreparedApp> = corpus_preps(apps, &cfg);

    let store = SumStore::new();
    let (cold_ns, cold_verdicts, cold_hits, cold_misses) = sweep(&preps, &store);
    let (warm_ns, warm_verdicts, warm_hits, warm_misses) = sweep(&preps, &store);
    assert_eq!(cold_verdicts, warm_verdicts, "store changed a verdict at dup {dup}");

    SumstorePoint {
        dup,
        apps,
        pool,
        cold_ns,
        warm_ns,
        cold_hits,
        cold_misses,
        warm_hits,
        warm_misses,
    }
}

/// Runs the duplication-factor sweep and returns `(json, human_summary)`.
pub fn sumstore_benchmark(apps: usize) -> (String, String) {
    let apps = apps.max(4);
    let points: Vec<SumstorePoint> = [1, 2, 4, 8].map(|dup| run_sumstore_point(apps, dup)).into();

    let mut summary =
        format!("summary store over {apps}-app corpora ({LIBS_PER_APP} lib packages/app)\n");
    for p in &points {
        let looked = (p.cold_hits + p.cold_misses).max(1);
        let gain = if p.warm_ns > 0.0 {
            format!("{:.0}x", p.cold_ns / p.warm_ns)
        } else {
            "pre-solved".to_owned()
        };
        summary.push_str(&format!(
            "  dup {:>2} (pool {:>3}): cold {:>9.3} ms ({:>5.1}% lib hits) -> warm {:>8.4} ms \
             ({gain})\n",
            p.dup,
            p.pool,
            p.cold_ns / 1e6,
            100.0 * p.cold_hits as f64 / looked as f64,
            p.warm_ns / 1e6,
        ));
    }

    summary.push_str(
        "  (warm 0 ms = every method pre-solved from the store; no kernel launches modeled)\n",
    );
    let json = JsonWriter::render(|w| {
        w.object(|w| w.key("points").array(|w| points.iter().for_each(|p| p.write_json(w))))
    });
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dup_factor_raises_cold_hit_rate_and_warm_presolves() {
        let lone = run_sumstore_point(6, 1);
        let shared = run_sumstore_point(6, 6);
        let rate =
            |p: &SumstorePoint| p.cold_hits as f64 / (p.cold_hits + p.cold_misses).max(1) as f64;
        assert!(
            rate(&shared) > rate(&lone),
            "dup 6 hit rate {} must beat dup 1 hit rate {}",
            rate(&shared),
            rate(&lone)
        );
        assert_eq!(shared.warm_misses, 0, "unchanged corpus must fully pre-solve");
        assert!(shared.warm_ns < shared.cold_ns);
        assert!(JsonWriter::render(|w| shared.write_json(w)).contains("\"dup\":6"));
    }
}
