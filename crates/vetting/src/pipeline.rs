//! The end-to-end vetting pipeline — the "Amandroid run" of Fig. 1.
//!
//! One app flows through: environment synthesis → call graph → **IDFG
//! construction** (the worklist analysis — the part GDroid accelerates) →
//! taint plugin → report. The pipeline records a modeled time for each
//! stage so Fig. 1's total-vs-IDFG breakdown can be regenerated; per the
//! paper, IDFG construction takes 58–96% of the total.

use crate::json::JsonWriter;
use crate::plan::{vet_prepared, ExecPlan};
use crate::registry::SourceSinkRegistry;
use crate::report::VettingReport;
use crate::taint::TaintAnalysis;
use gdroid_analysis::AppAnalysis;
use gdroid_apk::App;
use gdroid_core::{Engine, EngineAnalysis, GpuRunStats};
use gdroid_icfg::{prepare_app, CallGraph, EnvironmentInfo};
use gdroid_ir::MethodId;

/// Modeled per-stage times, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct VettingTiming {
    /// Environment synthesis + manifest handling.
    pub envgen_ns: f64,
    /// Call-graph construction and IR loading.
    pub callgraph_ns: f64,
    /// IDFG construction — the worklist analysis.
    pub idfg_ns: f64,
    /// Taint plugin.
    pub taint_ns: f64,
}

impl VettingTiming {
    /// Total pipeline time.
    pub fn total_ns(&self) -> f64 {
        self.envgen_ns + self.callgraph_ns + self.idfg_ns + self.taint_ns
    }

    /// IDFG share of the total — the Fig. 1 ratio.
    pub fn idfg_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0.0 {
            0.0
        } else {
            self.idfg_ns / total
        }
    }
}

/// Everything one vetting run produces.
#[derive(Clone, Debug)]
pub struct VettingOutcome {
    /// The security report.
    pub report: VettingReport,
    /// Modeled stage times.
    pub timing: VettingTiming,
    /// Aggregate worklist telemetry of the IDFG stage.
    pub telemetry: gdroid_analysis::WorklistTelemetry,
    /// Fact-store bytes (Fig. 10's metric) for CPU engines.
    pub store_bytes: usize,
    /// Demand-driven provenance — `Some` iff the run was targeted (sliced).
    pub targeted: Option<crate::targeted::TargetedProvenance>,
}

impl VettingOutcome {
    /// Machine-readable rendering: the report plus timing and telemetry.
    /// Byte-stable for identical outcomes, so CLI and service results can
    /// be compared verbatim. Full-mode outcomes render exactly as before
    /// targeted vetting existed; targeted ones append a `"targeted"`
    /// provenance object.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Writes the [`Self::to_json`] object into a parent document.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            self.report.write_json(w.key("report"));
            w.key("timing").object(|w| {
                w.key("envgen_ns").float(self.timing.envgen_ns);
                w.key("callgraph_ns").float(self.timing.callgraph_ns);
                w.key("idfg_ns").float(self.timing.idfg_ns);
                w.key("taint_ns").float(self.timing.taint_ns);
                w.key("total_ns").float(self.timing.total_ns());
            });
            w.key("telemetry").object(|w| {
                w.key("nodes_processed").int(self.telemetry.nodes_processed);
                w.key("rounds").int(self.telemetry.rounds);
            });
            w.key("store_bytes").int(self.store_bytes);
            if let Some(t) = &self.targeted {
                t.write_json(w.key("targeted"));
            }
        })
    }
}

/// Vetting outcome plus the underlying per-method analysis state — what
/// [`crate::summary_store`] turns into the store an updated version of the
/// same app warm-starts from.
pub struct VettingRun {
    /// The outcome (report, timing, telemetry).
    pub outcome: VettingOutcome,
    /// The full per-method analysis behind the outcome.
    pub analysis: AppAnalysis,
}

// Per-operation costs of the non-IDFG stages, Scala-calibrated (the
// frontend stages run in the original Amandroid regardless of the IDFG
// engine).
const ENVGEN_NS_PER_COMPONENT: f64 = 2.5e6;
const FRONTEND_NS_PER_STMT: f64 = 60.0e3;
const FRONTEND_NS_PER_METHOD: f64 = 2.5e6;
const TAINT_NS_PER_ROW: f64 = 280.0;

/// An app after the host-side prep stage (environment synthesis + call
/// graph). Splitting prep from execution lets a serving scheduler overlap
/// one app's host-side prep with another app's device execution, and lets
/// several engines vet the same prepared app without re-cloning it.
pub struct PreparedApp {
    /// The app, with environment methods synthesized into its program.
    pub app: App,
    /// Synthesized component environments.
    pub envs: Vec<EnvironmentInfo>,
    /// The call graph over the prepared program.
    pub cg: CallGraph,
    /// Analysis roots (one per environment).
    pub roots: Vec<MethodId>,
    /// Modeled prep-stage times (`envgen_ns` + `callgraph_ns` populated).
    pub prep_timing: VettingTiming,
}

/// Runs the host-side prep stage: environment synthesis + call graph.
pub fn prepare_vetting(mut app: App) -> PreparedApp {
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    let prep_timing = VettingTiming {
        envgen_ns: ENVGEN_NS_PER_COMPONENT * envs.len() as f64,
        callgraph_ns: FRONTEND_NS_PER_STMT * app.program.total_statements() as f64
            + FRONTEND_NS_PER_METHOD * app.program.methods.len() as f64,
        ..Default::default()
    };
    PreparedApp { app, envs, cg, roots, prep_timing }
}

/// Runs the taint plugin over a finished IDFG and assembles the outcome.
pub(crate) fn finish_vetting(
    prep: &PreparedApp,
    analysis: AppAnalysis,
    idfg_ns: f64,
) -> VettingRun {
    let mut timing = prep.prep_timing;
    timing.idfg_ns = idfg_ns;
    let registry = SourceSinkRegistry::for_program(&prep.app.program);
    let taint = TaintAnalysis::new(
        &prep.app.program,
        &prep.cg,
        &analysis.facts,
        &analysis.spaces,
        &analysis.cfgs,
        &registry,
    );
    let (report, taint_stats) = taint.run();
    timing.taint_ns = TAINT_NS_PER_ROW * taint_stats.rows_read as f64;
    let outcome = VettingOutcome {
        report,
        timing,
        telemetry: analysis.telemetry.clone(),
        store_bytes: analysis.store_bytes,
        targeted: None,
    };
    VettingRun { outcome, analysis }
}

/// Folds an engine's run into the [`AppAnalysis`] the taint plugin and a
/// summary store consume (the facts/summaries are bit-identical across
/// engines; only cost models differ), beside its modeled IDFG time and —
/// iff an [`Engine::Gpu`] rung ran — its device statistics. A CPU run
/// keeps its per-method telemetry and layer schedule, so the same solve
/// can be priced under another CPU cost model.
pub(crate) fn to_app_analysis(
    ea: EngineAnalysis,
    engine: Engine,
) -> (AppAnalysis, f64, Option<GpuRunStats>) {
    let analysis = AppAnalysis {
        spaces: ea.spaces,
        cfgs: ea.cfgs,
        facts: ea.facts,
        summaries: ea.summaries,
        telemetry: ea.telemetry,
        per_method: ea.per_method,
        store_bytes: ea.store_bytes,
        schedule: ea.schedule,
    };
    (analysis, ea.idfg_ns, matches!(engine, Engine::Gpu(_)).then_some(ea.stats))
}

/// Vets one app end to end. The `app` must be freshly generated (not yet
/// prepared); the pipeline synthesizes environments itself.
pub fn vet_app(app: App, engine: Engine) -> VettingOutcome {
    vet_prepared(&prepare_vetting(app), ExecPlan::new(engine)).outcome
}

/// Emits the pipeline's four stage spans — envgen, callgraph, idfg,
/// taint — back to back in modeled time starting at `base_ns`, and
/// returns the modeled end of the last stage. Works for any engine: the
/// stages are the modeled [`VettingTiming`], not wall clock.
pub fn trace_stage_spans(
    tracer: &gdroid_trace::Tracer,
    timing: &VettingTiming,
    base_ns: u64,
    track: u32,
) -> u64 {
    let mut t = base_ns;
    for (name, ns) in [
        ("envgen", timing.envgen_ns),
        ("callgraph", timing.callgraph_ns),
        ("idfg", timing.idfg_ns),
        ("taint", timing.taint_ns),
    ] {
        let dur = ns.round() as u64;
        tracer.span("vetting", name, t, dur, track, vec![]);
        t += dur;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{execute, ExecCtx};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_core::OptConfig;
    use gdroid_gpusim::{Device, DeviceConfig};

    #[test]
    fn pipeline_produces_report_and_timing() {
        let app = generate_app(0, 6100, &GenConfig::tiny());
        let outcome = vet_app(app, Engine::AmandroidCpu);
        assert!(outcome.timing.total_ns() > 0.0);
        assert!(outcome.timing.idfg_ns > 0.0);
        assert!(outcome.telemetry.nodes_processed > 0);
        assert!(outcome.store_bytes > 0);
        let f = outcome.timing.idfg_fraction();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn engines_agree_on_verdict() {
        for seed in [6200u64, 6201, 6202] {
            // One prepared app serves every engine — no per-engine clone.
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let verdicts: Vec<_> = [
                Engine::AmandroidCpu,
                Engine::MultithreadedCpu,
                Engine::Gpu(OptConfig::gdroid()),
                Engine::Gpu(OptConfig::plain()),
            ]
            .into_iter()
            .map(|e| {
                let o = vet_prepared(&prep, ExecPlan::new(e)).outcome;
                (o.report.verdict, o.report.leaks.len())
            })
            .collect();
            for pair in verdicts.windows(2) {
                assert_eq!(pair[0], pair[1], "engines disagree on seed {seed}");
            }
        }
    }

    #[test]
    fn staged_pipeline_matches_vet_app() {
        let prep = prepare_vetting(generate_app(0, 6400, &GenConfig::tiny()));
        let staged = vet_prepared(&prep, ExecPlan::new(Engine::AmandroidCpu)).outcome;
        let whole = vet_app(generate_app(0, 6400, &GenConfig::tiny()), Engine::AmandroidCpu);
        assert_eq!(staged.report.verdict, whole.report.verdict);
        assert_eq!(staged.report.leaks, whole.report.leaks);
        assert_eq!(
            staged.to_json(),
            whole.to_json(),
            "staged and whole runs must render identically"
        );
    }

    #[test]
    fn outcome_json_is_stable_and_wellformed() {
        let prep = prepare_vetting(generate_app(0, 6402, &GenConfig::tiny()));
        let a = vet_prepared(&prep, ExecPlan::new(Engine::AmandroidCpu)).outcome.to_json();
        let b = vet_prepared(&prep, ExecPlan::new(Engine::AmandroidCpu)).outcome.to_json();
        assert_eq!(a, b, "identical runs must serialize identically");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"report\":"));
        assert!(a.contains("\"idfg_ns\":"));
    }

    #[test]
    fn traced_run_matches_untraced_and_trace_is_deterministic() {
        let prep = prepare_vetting(generate_app(0, 6500, &GenConfig::tiny()));
        let untraced = vet_prepared(&prep, ExecPlan::default()).outcome;
        let traced = |tracer: &gdroid_trace::Tracer| {
            let mut device = Device::new(DeviceConfig::tesla_p40());
            let ctx = &mut ExecCtx { tracer, ..ExecCtx::new(&mut device) };
            execute(&prep, ExecPlan::default(), ctx).expect("no fault plan").run
        };
        let run_traced = || {
            let tracer = gdroid_trace::Tracer::enabled_new();
            let run = traced(&tracer);
            (run.outcome.to_json(), tracer.to_chrome_json())
        };
        let (json_a, trace_a) = run_traced();
        let (json_b, trace_b) = run_traced();
        assert_eq!(json_a, untraced.to_json(), "tracing must not perturb the outcome");
        assert_eq!(json_a, json_b);
        assert_eq!(trace_a, trace_b, "same seed must give a byte-identical trace");
        for cat in ["gpusim", "driver", "vetting"] {
            assert!(trace_a.contains(&format!("\"cat\":\"{cat}\"")), "missing layer {cat}");
        }
        // Disabled tracer records nothing and still matches.
        let off = gdroid_trace::Tracer::disabled();
        assert_eq!(traced(&off).outcome.to_json(), json_a);
        assert!(off.events().is_empty());
    }

    #[test]
    fn multithreaded_cpu_is_faster_than_amandroid() {
        let app = generate_app(0, 6300, &GenConfig::small());
        let scala = vet_app(app, Engine::AmandroidCpu).timing.idfg_ns;
        let app = generate_app(0, 6300, &GenConfig::small());
        let mt = vet_app(app, Engine::MultithreadedCpu).timing.idfg_ns;
        assert!(mt < scala, "mt {mt} >= scala {scala}");
    }

    /// Regression: `--engine mtcpu` charged 0.5–0.8× of the Fig. 4 baseline
    /// `figures` computes for the same app, because its solver dropped the
    /// telemetry of SCC re-iterations.
    #[test]
    fn multithreaded_cpu_is_charged_the_fig4_baseline() {
        use gdroid_analysis::{analyze_app, CpuCostModel, StoreKind};
        let config = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
        let prep = prepare_vetting(generate_app(0, 0x5cc, &config));
        let sccs = &gdroid_icfg::CallLayers::compute(&prep.cg, &prep.roots).scc_members;
        assert!(sccs.iter().any(|m| m.len() > 1), "no multi-member SCC generated");
        let analysis = analyze_app(&prep.app.program, &prep.cg, &prep.roots, StoreKind::Set);
        let fig4 = CpuCostModel::multithreaded_c().parallel_ns(&analysis);
        let vetted = vet_app(generate_app(0, 0x5cc, &config), Engine::MultithreadedCpu);
        assert_eq!(vetted.timing.idfg_ns, fig4);
    }
}
