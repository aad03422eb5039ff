//! The `figures persist` experiment: persistent-kernel execution (one
//! resident launch per app) against classic per-round multi-launch.
//!
//! Two sections, both byte-deterministic:
//!
//! * **detail** — a per-app comparison on the tiny-profile corpus: the
//!   worklist engine runs every app twice on fresh devices, once
//!   multi-launch and once persistent. Facts (FNV digest over the sorted
//!   per-method bitmap words) and verdict reports are asserted identical
//!   per app; launch counts are read off each device (one launch per
//!   fixpoint round vs exactly one per app).
//! * **corpus** — both modes streamed window by window over the
//!   `small`-profile corpus at N on long-lived devices, with per-app
//!   report and fact-digest identity asserted in-run.
//!
//! A **sync_profile** block prices the trade the mode makes: launch
//! overheads saved (one per app instead of one per round) against the
//! modeled grid-wide sync charged between the rounds of a resident
//! launch (`grid_sync_cycles`) and the device-side worklist queue cost
//! (`queue_op_cycles`, contention-scaled).

use crate::corpus::corpus_prep;
use crate::lane::{assert_same_report, Lane, Verdicts};
use crate::stats::speedup;
use gdroid_apk::{Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid_core::ExecMode;
use gdroid_gpusim::DeviceConfig;
use gdroid_ir::MethodId;
use gdroid_serve::fnv1a;
use gdroid_trace::JsonWriter;
use gdroid_vetting::{prepare_vetting, ExecPlan, PreparedApp, VettingRun};

/// Window size of the streamed corpus section.
pub const PERSIST_WINDOW: usize = 8;

/// How many tiny-profile apps the detail section compares.
pub const PERSIST_DETAIL_APPS: usize = 20;

/// One app's multi-launch-vs-persistent measurement.
pub struct PersistPoint {
    /// Corpus index.
    pub app: usize,
    /// Multi-launch modeled IDFG time (ns).
    pub multi_ns: f64,
    /// Persistent-kernel modeled IDFG time (ns).
    pub persist_ns: f64,
    /// Kernel launches the multi-launch run performed (one per round).
    pub multi_launches: u64,
    /// Kernel launches the persistent run performed (one per app).
    pub persist_launches: u64,
    /// Total per-method worklist rounds (identical across modes).
    pub rounds: usize,
    /// Leaks in the (byte-identical) verdicts.
    pub leaks: usize,
}

impl PersistPoint {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("app").int(self.app);
            w.key("multi_ns").fixed(self.multi_ns, 1);
            w.key("persist_ns").fixed(self.persist_ns, 1);
            w.key("multi_launches").int(self.multi_launches);
            w.key("persist_launches").int(self.persist_launches);
            w.key("rounds").int(self.rounds);
            w.key("leaks").int(self.leaks);
        })
    }
}

/// The worklist engine's multi-launch and persistent lanes.
fn mode_lanes() -> (Lane<'static>, Lane<'static>) {
    let lane = |exec| Lane::new(ExecPlan { exec, ..ExecPlan::default() });
    (lane(ExecMode::MultiLaunch), lane(ExecMode::Persistent))
}

/// Runs one app in both modes, asserting fact and verdict identity, and
/// returns the `(multi-launch, persistent)` runs.
fn run_both_modes(
    (multi, persist): &mut (Lane<'_>, Lane<'_>),
    prep: &PreparedApp,
    label: usize,
) -> (VettingRun, VettingRun) {
    let (m, p) = (multi.run(prep).run, persist.run(prep).run);
    assert_same_report(&p, &m, format_args!("app {label}: persistent vs multi-launch"));
    assert_eq!(
        fact_digest(&p),
        fact_digest(&m),
        "app {label}: persistent facts diverged from multi-launch"
    );
    (m, p)
}

/// FNV-1a digest over the per-method fixpoint bitmaps, sorted by method
/// id — the mode-invariant facts, as one comparable number.
fn fact_digest(run: &VettingRun) -> u64 {
    let mut mids: Vec<MethodId> = run.analysis.facts.keys().copied().collect();
    mids.sort_unstable();
    let mut line = String::new();
    for mid in mids {
        use std::fmt::Write;
        write!(line, "{mid:?}:").expect("writing to String cannot fail");
        for w in run.analysis.facts[&mid].flat_words() {
            write!(line, "{w:x},").expect("writing to String cannot fail");
        }
        line.push(';');
    }
    fnv1a(line.as_bytes())
}

/// Runs one detail point: both modes on fresh lanes with identity
/// asserted, launch counts read off the lanes.
pub fn run_persist_point(app: usize) -> PersistPoint {
    let prep = corpus_prep(app, &GenConfig::tiny());
    let mut lanes = mode_lanes();
    let (multi, per) = run_both_modes(&mut lanes, &prep, app);
    let (multi_launches, persist_launches) = (lanes.0.launches(), lanes.1.launches());
    assert!(
        persist_launches <= 1,
        "app {app}: a persistent fixpoint must be one resident launch, got {persist_launches}"
    );
    PersistPoint {
        app,
        multi_ns: multi.outcome.timing.idfg_ns,
        persist_ns: per.outcome.timing.idfg_ns,
        multi_launches,
        persist_launches,
        rounds: multi.outcome.telemetry.rounds,
        leaks: multi.outcome.report.leaks.len(),
    }
}

/// Runs the detail and corpus sections and returns `(json, summary)`.
/// `detail_apps` sizes the detail section (the canonical run uses
/// [`PERSIST_DETAIL_APPS`]), `corpus_apps` the streamed section.
pub fn persist_benchmark(detail_apps: usize, corpus_apps: usize, scale: f64) -> (String, String) {
    let detail_apps = detail_apps.max(2);
    let corpus_apps = corpus_apps.max(PERSIST_WINDOW);
    let points: Vec<PersistPoint> = (0..detail_apps).map(run_persist_point).collect();

    let multi_ns = points.iter().map(|p| p.multi_ns).sum::<f64>();
    let persist_ns = points.iter().map(|p| p.persist_ns).sum::<f64>();
    let multi_launches: u64 = points.iter().map(|p| p.multi_launches).sum();
    let persist_launches: u64 = points.iter().map(|p| p.persist_launches).sum();
    let detail_speedup = speedup(multi_ns, persist_ns);

    // Price the trade from the device model: every multi-launch round
    // beyond the per-app first becomes a saved launch overhead; every
    // round of a resident launch is charged one grid-wide sync instead.
    // (Persistent rounds mirror multi-launch rounds one to one.)
    let config = DeviceConfig::tesla_p40();
    let launch_overhead_ns = config.launch_overhead_us * 1e3;
    let grid_sync_ns = config.cycles_to_ns(config.grid_sync_cycles);
    let saved_launches = multi_launches.saturating_sub(persist_launches);
    // Streamed corpus section: both modes on long-lived devices.
    let mut gen = GenConfig::small();
    gen.scale *= scale;
    let corpus = Corpus { master_seed: PAPER_MASTER_SEED, size: corpus_apps, config: gen };
    let mut lanes = mode_lanes();
    let mut verdicts = Verdicts::default();
    let mut stream = corpus.stream_all().peekable();
    while stream.peek().is_some() {
        let window: Vec<_> = stream.by_ref().take(PERSIST_WINDOW).collect();
        for (index, app) in window {
            let prep = prepare_vetting(app);
            let (m, _) = run_both_modes(&mut lanes, &prep, index);
            verdicts.push(index, &prep, &m);
        }
    }
    let (multi_lane, persist_lane) = lanes;
    let (corpus_multi_ns, corpus_persist_ns) = (multi_lane.idfg_ns, persist_lane.idfg_ns);
    let (corpus_multi_launches, corpus_persist_launches) =
        (multi_lane.launches(), persist_lane.launches());
    let suspicious = verdicts.suspicious;

    let corpus_speedup = speedup(corpus_multi_ns, corpus_persist_ns);

    let json = JsonWriter::render(|w| {
        w.object(|w| {
            w.key("detail").object(|w| {
                w.key("apps").int(detail_apps);
                w.key("profile").string("tiny");
                w.key("multi_ns").fixed(multi_ns, 1);
                w.key("persist_ns").fixed(persist_ns, 1);
                w.key("speedup").fixed(detail_speedup, 4);
                w.key("multi_launches").int(multi_launches);
                w.key("persist_launches").int(persist_launches);
                w.key("per_app").array(|w| points.iter().for_each(|p| p.write_json(w)));
            });
            w.key("sync_profile").object(|w| {
                w.key("launch_overhead_us").fixed(config.launch_overhead_us, 1);
                w.key("grid_sync_cycles").int(config.grid_sync_cycles);
                w.key("queue_op_cycles").int(config.queue_op_cycles);
                w.key("saved_launches").int(saved_launches);
                w.key("launch_overhead_saved_ns")
                    .fixed(saved_launches as f64 * launch_overhead_ns, 1);
                w.key("grid_sync_added_ns").fixed(multi_launches as f64 * grid_sync_ns, 1);
            });
            w.key("corpus").object(|w| {
                w.key("apps").int(corpus_apps);
                w.key("profile").string("small");
                w.key("scale").fixed(scale, 3);
                w.key("multi_ns").fixed(corpus_multi_ns, 1);
                w.key("persist_ns").fixed(corpus_persist_ns, 1);
                w.key("speedup").fixed(corpus_speedup, 4);
                w.key("multi_launches").int(corpus_multi_launches);
                w.key("persist_launches").int(corpus_persist_launches);
                w.key("suspicious").int(suspicious);
                w.key("clean").int(corpus_apps - suspicious);
                w.key("verdict_digest").hex(verdicts.digest());
            });
        })
    });

    let mut summary = format!(
        "persistent kernels vs multi-launch ({detail_apps} tiny apps; facts and verdicts \
         asserted mode-identical)\n  multi      {:>12.3} ms  ({multi_launches} launches)\n  \
         persistent {:>12.3} ms  ({persist_launches} launches, {detail_speedup:.2}x)\n",
        multi_ns / 1e6,
        persist_ns / 1e6,
    );
    summary.push_str(&format!(
        "  trade: {saved_launches} launch overheads saved ({:.1} us), \
         {multi_launches} grid syncs added ({:.1} us)\n",
        saved_launches as f64 * launch_overhead_ns / 1e3,
        multi_launches as f64 * grid_sync_ns / 1e3,
    ));
    summary.push_str(&format!(
        "  corpus ({corpus_apps} small apps): multi {:.1} ms / {corpus_multi_launches} launches, \
         persistent {:.1} ms / {corpus_persist_launches} launches ({corpus_speedup:.2}x), \
         {suspicious} suspicious\n",
        corpus_multi_ns / 1e6,
        corpus_persist_ns / 1e6,
    ));
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_benchmark_is_deterministic_and_mode_identical() {
        let (a, summary) = persist_benchmark(2, 8, 0.02);
        let (b, _) = persist_benchmark(2, 8, 0.02);
        assert_eq!(a, b, "BENCH_persist.json must be byte-deterministic");
        assert!(a.contains("\"sync_profile\":{\"launch_overhead_us\":"));
        assert!(a.contains("\"verdict_digest\":\""));
        assert!(summary.contains("persistent kernels vs multi-launch"));
    }

    #[test]
    fn persist_point_collapses_launches_without_changing_rounds() {
        let p = run_persist_point(1);
        assert!(p.multi_ns > 0.0 && p.persist_ns > 0.0);
        assert_eq!(p.persist_launches, 1, "one resident launch per app");
        assert!(p.multi_launches >= 1, "multi-launch must have launched at least once");
        if p.multi_launches > 1 {
            assert!(
                p.persist_ns < p.multi_ns,
                "persistent must model faster once >1 launch is saved"
            );
        }
    }
}
