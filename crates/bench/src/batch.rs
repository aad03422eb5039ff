//! The `figures batch` experiment: co-resident multi-app batching.
//!
//! A small corpus is vetted solo (one device run per app), then again in
//! co-resident groups of K ∈ {1, 2, 4, 8}: each group's apps share every
//! kernel launch ([`gdroid_core::gpu_analyze_batch_on`]), filling block
//! slots that a narrow per-app layer would leave idle. Per-app outcomes
//! are asserted byte-identical to solo at every K, and every group's
//! makespan is asserted no worse than the sum of its members' solo
//! makespans ([`Lane::run_group`]).
//!
//! Every number emitted into `BENCH_batch.json` is modeled (makespans,
//! utilization) or counted (launches), so the file is byte-deterministic
//! for a fixed corpus.

use crate::corpus::corpus_preps;
use crate::lane::Lane;
use crate::stats::speedup;
use gdroid_apk::GenConfig;
use gdroid_trace::JsonWriter;
use gdroid_vetting::{ExecPlan, PreparedApp, VettingOutcome};

/// One co-residency-degree measurement.
pub struct BatchPoint {
    /// Apps co-scheduled per group (K).
    pub coresident: usize,
    /// Apps in the corpus.
    pub apps: usize,
    /// Groups the corpus was chunked into.
    pub groups: usize,
    /// Shared kernel launches summed over all groups.
    pub launches: usize,
    /// Summed solo makespans of the same corpus (ns).
    pub solo_ns: f64,
    /// Summed group makespans under co-residency K (ns).
    pub batched_ns: f64,
    /// Launch-weighted mean block-slot utilization of the shared launches.
    pub utilization: f64,
    /// Launch-weighted mean distinct apps per shared launch.
    pub mean_coresidency: f64,
}

impl BatchPoint {
    /// Summed solo makespans over summed group makespans.
    fn speedup(&self) -> f64 {
        speedup(self.solo_ns, self.batched_ns)
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("coresident").int(self.coresident);
            w.key("apps").int(self.apps);
            w.key("groups").int(self.groups);
            w.key("launches").int(self.launches);
            w.key("solo_ns").fixed(self.solo_ns, 1);
            w.key("batched_ns").fixed(self.batched_ns, 1);
            w.key("speedup").fixed(self.speedup(), 4);
            w.key("utilization").fixed(self.utilization, 4);
            w.key("mean_coresidency").fixed(self.mean_coresidency, 3);
        })
    }
}

/// Runs one co-residency point over an already-prepared corpus, checking
/// every app's outcome against its solo reference.
pub fn run_batch_point(
    preps: &[PreparedApp],
    solo: &[VettingOutcome],
    coresident: usize,
) -> BatchPoint {
    let mut lane = Lane::new(ExecPlan::default());
    let mut point = BatchPoint {
        coresident,
        apps: preps.len(),
        groups: 0,
        launches: 0,
        solo_ns: solo.iter().map(|o| o.timing.idfg_ns).sum(),
        batched_ns: 0.0,
        utilization: 0.0,
        mean_coresidency: 0.0,
    };
    for (chunk, solo) in preps.chunks(coresident.max(1)).zip(solo.chunks(coresident.max(1))) {
        let batch = lane.run_group(&chunk.iter().collect::<Vec<_>>(), solo);
        point.groups += 1;
        point.launches += batch.launches;
        point.batched_ns += batch.makespan_ns;
        point.utilization += batch.utilization * batch.launches as f64;
        point.mean_coresidency += batch.mean_coresidency * batch.launches as f64;
    }
    if point.launches > 0 {
        point.utilization /= point.launches as f64;
        point.mean_coresidency /= point.launches as f64;
    }
    point
}

/// Runs the co-residency sweep and returns `(json, human_summary)`.
pub fn batch_benchmark(apps: usize) -> (String, String) {
    let apps = apps.max(4);
    let preps: Vec<PreparedApp> = corpus_preps(apps, &GenConfig::tiny());

    // Solo baseline: one run per app on a long-lived device; the outcomes
    // are the byte-identity references for every sweep point.
    let mut solo_lane = Lane::new(ExecPlan::default());
    let solo: Vec<VettingOutcome> =
        preps.iter().map(|prep| solo_lane.run(prep).run.outcome).collect();

    let points: Vec<BatchPoint> = [1, 2, 4, 8].map(|k| run_batch_point(&preps, &solo, k)).into();

    let mut summary = format!("co-resident batching over a {apps}-app corpus (TESLA P40 model)\n");
    for p in &points {
        summary.push_str(&format!(
            "  K {:>2} ({:>2} groups, {:>4} launches): {:>9.3} ms vs solo {:>9.3} ms \
             ({:.2}x, {:>5.1}% slots, {:.2} apps/launch)\n",
            p.coresident,
            p.groups,
            p.launches,
            p.batched_ns / 1e6,
            p.solo_ns / 1e6,
            p.speedup(),
            100.0 * p.utilization,
            p.mean_coresidency,
        ));
    }
    summary
        .push_str("  (per-app outcomes byte-identical to solo at every K; asserted per group)\n");
    let json = JsonWriter::render(|w| {
        w.object(|w| w.key("points").array(|w| points.iter().for_each(|p| p.write_json(w))))
    });
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coresidency_shares_launches_without_changing_outcomes() {
        let (json, summary) = batch_benchmark(6);
        assert!(json.contains("\"coresident\":1") && json.contains("\"coresident\":4"));
        assert!(summary.contains("co-resident batching"));
        // K = 1 through the batch driver must reproduce solo exactly
        // (speedup 1.0000 modulo the shared-pipeline rounding in print).
        assert!(json.contains("\"coresident\":1,\"apps\":6,\"groups\":6"));
    }

    #[test]
    fn batch_benchmark_is_deterministic() {
        let (a, _) = batch_benchmark(4);
        let (b, _) = batch_benchmark(4);
        assert_eq!(a, b);
    }
}
