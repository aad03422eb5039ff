//! The execution plan: one value that says *how* an app is vetted, and
//! the one function that runs it.
//!
//! The paper's IDFG construction is a single worklist kernel with MAT /
//! GRP / MER as switches on it; everything layered on since — the CPU
//! engines, persistent execution, targeted slicing, the summary store,
//! tracing — is likewise a switch on one run, not a
//! pipeline of its own. [`ExecPlan`] gathers the selectors
//! (engine × exec mode × targeted), [`ExecCtx`] the run-time resources
//! (device, summary store, tracer, a previous version's analysis), and
//! [`execute`] performs the same five steps for every combination:
//! optional slice → optional store lookup (∩ slice) → one analysis (cold,
//! or warm-started from the previous version) → taint + outcome contracts
//! → optional store feed and stage spans.
//!
//! [`Engine::caps`] is the capability table and [`ExecPlan::check`] the
//! only place a combination is refused; [`ExecPlan::cacheable`],
//! [`ExecPlan::warm_startable`] and [`ExecPlan::batchable`] are the only
//! place a serving lane is allowed.

use crate::pipeline::{
    finish_vetting, to_app_analysis, trace_stage_spans, PreparedApp, VettingRun,
};
use crate::store_exec::{absorb_into_store, collect_presolved, StoreUse};
use crate::targeted::{compute_vetting_slice, TargetedProvenance};
use gdroid_analysis::{
    analyze_app_incremental, analyze_app_presolved, AppAnalysis, CpuCostModel, IncrementalStats,
    StoreKind,
};
use gdroid_core::{
    AnalysisEngine, CpuEngine, EngineKind, ExecMode, GpuRunStats, OptConfig, WorklistEngine,
};
use gdroid_gpusim::{Device, DeviceConfig, DeviceFault};
use gdroid_ir::MethodId;
use gdroid_sumstore::SumStore;
use gdroid_trace::Tracer;
use std::collections::HashMap;

/// Which engine constructs the IDFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Sequential Amandroid-style CPU run (Fig. 1): hash-set fact stores,
    /// Scala-calibrated cost model.
    AmandroidCpu,
    /// The multithreaded-C CPU baseline (Fig. 4's CPU side).
    MultithreadedCpu,
    /// The paper's worklist-GPU kernels at the given optimization rung;
    /// `Gpu(OptConfig::gdroid())` is the production default, spelled
    /// `worklist` (or `gdroid`) on the command line.
    Gpu(OptConfig),
    /// The sequential CPU reference solver behind the
    /// [`AnalysisEngine`] trait — the differential oracle.
    CpuReference,
}

impl From<EngineKind> for Engine {
    fn from(kind: EngineKind) -> Engine {
        match kind {
            EngineKind::Worklist => Engine::Gpu(OptConfig::gdroid()),
            EngineKind::Cpu => Engine::CpuReference,
        }
    }
}

/// What an [`Engine`] composes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineCaps {
    /// Summary-store pre-solving (`--sumstore`).
    pub sumstore: bool,
    /// Demand-driven sink slicing (`--targeted`).
    pub targeted: bool,
    /// Co-resident multi-app batching (serve `coresident > 1`).
    pub batching: bool,
    /// Persistent-kernel execution ([`ExecMode::Persistent`]).
    pub persistent: bool,
    /// One-line description for `gdroid engines`.
    pub note: &'static str,
}

impl Engine {
    /// Every named engine, in the order `gdroid engines` lists them: the
    /// two [`EngineKind`]s first, then the ladder rungs and the legacy
    /// CPU baselines.
    pub fn all() -> [Engine; 7] {
        [
            Engine::Gpu(OptConfig::gdroid()),
            Engine::CpuReference,
            Engine::Gpu(OptConfig::plain()),
            Engine::Gpu(OptConfig::mat()),
            Engine::Gpu(OptConfig::mat_grp()),
            Engine::MultithreadedCpu,
            Engine::AmandroidCpu,
        ]
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Engine::AmandroidCpu => "amandroid",
            Engine::MultithreadedCpu => "mtcpu",
            Engine::CpuReference => "cpu",
            Engine::Gpu(opts) => match (opts.mat, opts.grp, opts.mer) {
                (true, true, true) => "worklist",
                (false, false, false) => "plain",
                (true, false, false) => "mat",
                (true, true, false) => "matgrp",
                _ => "gpu-custom",
            },
        }
    }

    /// Parses the CLI spelling; `gdroid` is an alias of `worklist`.
    pub fn parse(s: &str) -> Option<Engine> {
        let s = if s == "gdroid" { "worklist" } else { s };
        Engine::all().into_iter().find(|e| e.name() == s)
    }

    /// The [`EngineKind`] this engine is, if it is one of the two the
    /// service and campaign layers select between.
    pub fn kind(self) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|&k| Engine::from(k) == self)
    }

    /// The capability table: what this engine composes with.
    pub fn caps(self) -> EngineCaps {
        let gpu = EngineCaps {
            sumstore: true,
            targeted: true,
            batching: true,
            persistent: false,
            note: "a worklist-GPU ladder rung below full GDroid (Figs. 9 and 11)",
        };
        let cpu = EngineCaps {
            sumstore: false,
            targeted: false,
            batching: false,
            persistent: false,
            note: "sequential CPU reference solver — the differential oracle",
        };
        match self {
            Engine::Gpu(opts) if opts == OptConfig::gdroid() => EngineCaps {
                persistent: true,
                note: "the paper's worklist-GPU kernels (MAT+GRP+MER); the default",
                ..gpu
            },
            Engine::Gpu(_) => gpu,
            Engine::CpuReference => cpu,
            Engine::MultithreadedCpu => EngineCaps {
                sumstore: true,
                note: "multithreaded-C CPU baseline (Fig. 4): amandroid's run, costed per layer",
                ..cpu
            },
            Engine::AmandroidCpu => EngineCaps {
                sumstore: true,
                note: "sequential Amandroid-style CPU baseline (Figs. 1 and 10)",
                ..cpu
            },
        }
    }

    /// The trait engine behind this selector (`None` for the two legacy
    /// CPU baselines, which predate the trait and keep their own cost
    /// models).
    fn analysis_engine(self, exec: ExecMode) -> Option<Box<dyn AnalysisEngine>> {
        match self {
            Engine::Gpu(opts) => Some(Box::new(WorklistEngine { opts, exec })),
            Engine::CpuReference => Some(Box::new(CpuEngine)),
            Engine::AmandroidCpu | Engine::MultithreadedCpu => None,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How one app is vetted: every selector of a run, gathered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    /// Which engine constructs the IDFG.
    pub engine: Engine,
    /// How fixpoint rounds map onto kernel launches.
    pub exec: ExecMode,
    /// Demand-driven: analyze the backward sink slice only. The report is
    /// byte-identical to a full run; the outcome gains a
    /// [`TargetedProvenance`] block.
    pub targeted: bool,
}

impl Default for ExecPlan {
    /// Full GDroid, one launch per round, whole app.
    fn default() -> ExecPlan {
        ExecPlan::new(Engine::Gpu(OptConfig::gdroid()))
    }
}

/// Why [`ExecPlan::check`] refused a combination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanRefusal {
    /// The engine that lacks the capability.
    pub engine: Engine,
    /// What was asked of it.
    pub feature: &'static str,
}

impl std::fmt::Display for PlanRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine {} does not support {}", self.engine, self.feature)
    }
}

impl ExecPlan {
    /// A full (untargeted) multi-launch run on `engine`.
    pub fn new(engine: impl Into<Engine>) -> ExecPlan {
        ExecPlan { engine: engine.into(), exec: ExecMode::MultiLaunch, targeted: false }
    }

    /// Accepts or refuses the combination — the engine's
    /// [capabilities](Engine::caps) against the plan's exec mode and
    /// targeting, and against a summary store when the run will have one
    /// attached.
    pub fn check(self, with_store: bool) -> Result<(), PlanRefusal> {
        let caps = self.engine.caps();
        let feature = if self.exec == ExecMode::Persistent && !caps.persistent {
            "persistent-kernel execution"
        } else if self.targeted && !caps.targeted {
            "targeted vetting"
        } else if with_store && !caps.sumstore {
            "the summary store"
        } else {
            return Ok(());
        };
        Err(PlanRefusal { engine: self.engine, feature })
    }

    /// The nearest accepted plan, for a caller that must run every job
    /// rather than refuse one (the service): a targeted job on an engine
    /// that cannot slice runs on full GDroid, and persistent execution on
    /// an engine that cannot hold a resident kernel runs multi-launch.
    pub fn fallback(mut self) -> ExecPlan {
        if self.targeted && !self.engine.caps().targeted {
            self.engine = Engine::Gpu(OptConfig::gdroid());
        }
        if !self.engine.caps().persistent {
            self.exec = ExecMode::MultiLaunch;
        }
        self
    }

    /// A full, multi-launch worklist-GPU run: the one cost profile the
    /// result cache stores and the batch driver reproduces.
    fn is_classic(self) -> bool {
        matches!(self.engine, Engine::Gpu(_))
            && self.exec == ExecMode::MultiLaunch
            && !self.targeted
    }

    /// Whether the outcome may be served from, and inserted into, a
    /// result cache. A hit is returned verbatim, so its embedded cost
    /// profile must be the one every cacheable job would compute; a
    /// targeted outcome carries provenance and must never stand in for a
    /// full vetting.
    pub fn cacheable(self) -> bool {
        self.is_classic()
    }

    /// Whether a cached previous version of the app may seed an
    /// incremental re-analysis ([`ExecCtx::prev`]; a serving caller
    /// consumes and invalidates that entry).
    pub fn warm_startable(self) -> bool {
        self.is_classic()
    }

    /// Whether the job may share kernel launches with co-resident apps
    /// ([`crate::execute_vetting_batch_on_device`]).
    pub fn batchable(self) -> bool {
        self.is_classic() && self.engine.caps().batching
    }
}

/// Instantiates the trait engine for a kind and exec mode — for callers
/// that drive [`AnalysisEngine::analyze_on`] themselves. Panics on a
/// combination [`ExecPlan::check`] refuses (only the worklist engine runs
/// persistent).
pub fn engine_for_mode(kind: EngineKind, exec: ExecMode) -> Box<dyn AnalysisEngine> {
    let plan = ExecPlan { exec, ..ExecPlan::new(kind) };
    if let Err(refusal) = plan.check(false) {
        panic!("{refusal}");
    }
    plan.engine.analysis_engine(exec).expect("every EngineKind is a trait engine")
}

static NO_TRACE: Tracer = Tracer::disabled();

/// The run-time resources of one [`execute`] call.
pub struct ExecCtx<'a> {
    /// The device the IDFG is built on — fresh or long-lived. CPU engines
    /// take the slot but never touch it, so a service executor needs no
    /// special case.
    pub device: &'a mut Device,
    /// Cross-app summary store: hits are pre-solved and never scheduled,
    /// fresh solves are inserted afterwards.
    pub store: Option<&'a SumStore>,
    /// Modeled-time trace sink. When enabled it is installed on the
    /// device, whose clock is advanced past the prep stages so device
    /// events nest inside the `idfg` stage span — pass a fresh device.
    pub tracer: &'a Tracer,
    /// Warm start: the analysis of a previous version of the app and the
    /// methods whose bodies changed since; every other method must be
    /// body-identical to the run that produced it
    /// ([`gdroid_analysis::analyze_app_incremental`]). The dirty cone is
    /// re-solved on the CPU and charged the Amandroid model prorated by
    /// `resolved ÷ (resolved + reused)`; `store_bytes` stays the host
    /// stores'; the device and the summary store are not touched. Only
    /// for [`ExecPlan::warm_startable`] plans.
    pub prev: Option<(&'a AppAnalysis, &'a [MethodId])>,
}

impl<'a> ExecCtx<'a> {
    /// A context with no store and tracing disabled.
    pub fn new(device: &'a mut Device) -> ExecCtx<'a> {
        ExecCtx { device, store: None, tracer: &NO_TRACE, prev: None }
    }
}

/// What [`execute`] returns.
pub struct Executed {
    /// Outcome plus the per-method analysis behind it.
    pub run: VettingRun,
    /// How the run used the summary store — `Some` iff one was attached
    /// and consulted (a warm start consults none).
    pub store_use: Option<StoreUse>,
    /// What a warm start re-solved and reused — `Some` iff
    /// [`ExecCtx::prev`] was.
    pub reuse: Option<IncrementalStats>,
    /// The device run's modeled statistics — `Some` iff a
    /// [`Engine::Gpu`] rung built the IDFG.
    pub gpu: Option<GpuRunStats>,
}

/// Runs the IDFG + taint stages of `plan` on a prepared app.
///
/// An injected [`DeviceFault`] surfaces as `Err` so a serving caller can
/// retry the job (store lookups happen before the device is touched and
/// are simply repeated; the store's counters are diagnostics, not
/// accounting). Panics if [`ExecPlan::check`] refuses the plan for this
/// context, or if the context warm-starts a plan that is not
/// [`ExecPlan::warm_startable`] — callers gate on both first.
///
/// Facts, and therefore the report, are byte-identical for every
/// accepted plan and context, warm or cold (the plan table test and the
/// tier-1 gates); only modeled timing, telemetry shape, `store_bytes` and
/// the targeted provenance differ, and enabling the tracer changes
/// nothing at all.
pub fn execute(
    prep: &PreparedApp,
    plan: ExecPlan,
    ctx: &mut ExecCtx<'_>,
) -> Result<Executed, DeviceFault> {
    if let Err(refusal) = plan.check(ctx.store.is_some()) {
        panic!("{refusal}");
    }
    assert!(ctx.prev.is_none() || plan.warm_startable(), "{plan:?} cannot warm-start");
    // A warm start re-solves against `prev`'s own summaries: it neither
    // consults nor feeds the store.
    let store = ctx.store.filter(|_| ctx.prev.is_none());
    let program = &prep.app.program;
    let tracer = ctx.tracer;
    if tracer.enabled() {
        ctx.device.set_tracer(tracer.clone());
        let prep_ns = prep.prep_timing.envgen_ns + prep.prep_timing.callgraph_ns;
        ctx.device.advance_clock(prep_ns.round() as u64);
    }

    let slice = plan.targeted.then(|| compute_vetting_slice(prep));
    if let (Some(slice), true) = (&slice, tracer.enabled()) {
        tracer.instant(
            "vetting",
            "targeted-slice",
            ctx.device.clock_ns(),
            0,
            vec![
                ("slice_methods", slice.len().into()),
                ("total_reachable", slice.total_reachable.into()),
                ("sink_methods", slice.sink_methods.len().into()),
                ("partial_roots", slice.roots.len().into()),
            ],
        );
    }

    // Store hits, restricted to slice members: the intersection stays
    // closed under slice-internal callee edges because the looked-up set
    // is closed under *all* callee edges.
    let looked_up = store.map(|store| {
        let (mut presolved, hashes) = collect_presolved(prep, store);
        if let Some(slice) = &slice {
            presolved.retain(|m, _| slice.members.contains(m));
        }
        (store, presolved, hashes)
    });
    if let (Some((_, presolved, hashes)), true) = (&looked_up, tracer.enabled()) {
        // Hits short-circuit whole subtrees out of the kernel schedule, so
        // the trace records them as one instant, not as launch spans.
        tracer.instant(
            "vetting",
            "sumstore",
            ctx.device.clock_ns(),
            0,
            vec![
                ("hits", (presolved.len() as u64).into()),
                ("candidates", (hashes.len() as u64).into()),
                ("package", prep.app.name.as_str().into()),
            ],
        );
    }
    let no_hits = HashMap::new();
    let presolved = looked_up.as_ref().map_or(&no_hits, |(_, presolved, _)| presolved);

    let (mut reuse, mut gpu) = (None, None);
    let (analysis, idfg_ns) = if let Some((prev, changed)) = ctx.prev {
        let (analysis, stats) =
            analyze_app_incremental(program, &prep.cg, &prep.roots, prev, changed);
        let full_ns = CpuCostModel::amandroid().sequential_ns(&analysis);
        let touched = stats.resolved.max(1) as f64;
        let idfg_ns = full_ns * touched / (stats.resolved + stats.reused).max(1) as f64;
        reuse = Some(stats);
        (analysis, idfg_ns)
    } else if let Some(engine) = plan.engine.analysis_engine(plan.exec) {
        let ea = engine.analyze_on(
            ctx.device,
            program,
            &prep.cg,
            &prep.roots,
            presolved,
            slice.as_ref().map(|s| &s.members),
        )?;
        let idfg_ns = ea.idfg_ns;
        gpu = matches!(plan.engine, Engine::Gpu(_)).then(|| ea.stats.clone());
        (to_app_analysis(ea), idfg_ns)
    } else {
        // The two CPU baselines are one run under two cost models.
        let analysis =
            analyze_app_presolved(program, &prep.cg, &prep.roots, StoreKind::Set, presolved);
        let idfg_ns = match plan.engine {
            Engine::MultithreadedCpu => CpuCostModel::multithreaded_c().parallel_ns(&analysis),
            _ => CpuCostModel::amandroid().sequential_ns(&analysis),
        };
        (analysis, idfg_ns)
    };

    let mut run = finish_vetting(prep, analysis, idfg_ns);
    // A device run reports device memory, not host fact stores — the
    // historical `store_bytes: 0` contract of `vet_app`.
    if gpu.is_some() {
        run.outcome.store_bytes = 0;
    }
    run.outcome.targeted = slice.as_ref().map(TargetedProvenance::of);
    if tracer.enabled() {
        trace_stage_spans(tracer, &run.outcome.timing, 0, 0);
    }
    // Under a slice only its *exact* members are inserted: partial roots
    // are computed against pruned call sites and must never enter the
    // store under the canonical hash.
    let store_use = looked_up.map(|(store, presolved, hashes)| {
        let insertable = slice.as_ref().map(|s| &s.exact);
        absorb_into_store(program, store, &hashes, &presolved, &run.analysis, insertable)
    });
    Ok(Executed { run, store_use, reuse, gpu })
}

/// [`execute`] on a fresh Tesla P40 with no store and no tracer — the
/// shape of [`crate::vet_app`] for callers that already hold the prepared
/// app (several plans over one prep, or a need for the analysis itself).
pub fn vet_prepared(prep: &PreparedApp, plan: ExecPlan) -> VettingRun {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    execute(prep, plan, &mut ExecCtx::new(&mut device))
        .expect("a fresh device has no fault plan")
        .run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::prepare_vetting;
    use gdroid_apk::{generate_app, GenConfig};

    fn run(
        prep: &PreparedApp,
        plan: ExecPlan,
        store: Option<&SumStore>,
        tracer: &Tracer,
    ) -> Executed {
        let mut device = Device::new(DeviceConfig::tesla_p40());
        run_on(&mut device, prep, plan, store, tracer)
    }

    fn run_on(
        device: &mut Device,
        prep: &PreparedApp,
        plan: ExecPlan,
        store: Option<&SumStore>,
        tracer: &Tracer,
    ) -> Executed {
        let ctx = &mut ExecCtx { store, tracer, ..ExecCtx::new(device) };
        execute(prep, plan, ctx).expect("no fault plan")
    }

    /// The whole product engine × exec × targeted × store × tracer: the
    /// accept/refuse matrix is spelled out here independently of
    /// `Engine::caps`, and every accepted combination must reproduce the
    /// CPU reference's report and be blind to the tracer.
    #[test]
    fn plan_matrix_is_todays_and_every_accepted_plan_agrees_with_the_reference() {
        let prep = prepare_vetting(generate_app(0, 8700, &GenConfig::tiny()));
        let reference =
            vet_prepared(&prep, ExecPlan::new(EngineKind::Cpu)).outcome.report.to_json();
        let (mut accepted, mut store_cut_launched) = (0, false);
        for engine in Engine::all() {
            let gpu = matches!(engine, Engine::Gpu(_));
            for exec in ExecMode::ALL {
                for targeted in [false, true] {
                    let plan = ExecPlan { engine, exec, targeted };
                    let classic = gpu && exec == ExecMode::MultiLaunch && !targeted;
                    assert_eq!(plan.cacheable(), classic, "{plan:?}");
                    assert_eq!(plan.warm_startable(), classic, "{plan:?}");
                    assert_eq!(plan.batchable(), classic, "{plan:?}");
                    for with_store in [false, true] {
                        let expected = (exec == ExecMode::MultiLaunch
                            || engine == Engine::Gpu(OptConfig::gdroid()))
                            && (!targeted || gpu)
                            && (!with_store || engine != Engine::CpuReference);
                        let what = format!("{plan:?} store={with_store}");
                        assert_eq!(plan.check(with_store).is_ok(), expected, "{what}");
                        if !expected {
                            continue;
                        }
                        accepted += 1;
                        let store = SumStore::new();
                        let store = with_store.then_some(&store);
                        let plain = run(&prep, plan, store, &Tracer::disabled());
                        let outcome = &plain.run.outcome;
                        assert_eq!(outcome.report.to_json(), reference, "{what}");
                        assert_eq!(outcome.targeted.is_some(), targeted, "{what}");
                        assert_eq!(outcome.store_bytes == 0, gpu, "{what}");
                        assert_eq!(plain.store_use.is_some(), with_store, "{what}");

                        let tracer = Tracer::enabled_new();
                        let fresh = SumStore::new();
                        let traced = run(&prep, plan, with_store.then_some(&fresh), &tracer);
                        assert_eq!(traced.run.outcome.to_json(), outcome.to_json(), "{what}");
                        let emitted = |name: &str| tracer.events().iter().any(|e| e.name == name);
                        assert!(emitted("idfg"), "{what}: no stage spans");
                        assert_eq!(emitted("sumstore"), with_store, "{what}");
                        assert_eq!(emitted("targeted-slice"), targeted, "{what}");

                        if !gpu {
                            continue;
                        }
                        // Once more under the sanitizer, against the store
                        // the first run warmed: full, sliced, store-cut
                        // and persistent launches are all race-free.
                        let mut device = Device::new(DeviceConfig::tesla_p40().with_sanitizer());
                        let checked = run_on(&mut device, &prep, plan, store, &Tracer::disabled());
                        assert_eq!(checked.run.outcome.report.to_json(), reference, "{what}");
                        let san = device.san_report().expect("sanitizer configured");
                        assert!(san.is_clean(), "{what}: {san}");
                        assert_eq!(san.accesses_checked > 0, device.launches() > 0, "{what}");
                        store_cut_launched |=
                            device.launches() > 0 && checked.store_use.is_some_and(|u| u.hits > 0);
                    }
                }
            }
        }
        // 7 engines × 2 stores, minus cpu×store; + targeted for the 4
        // device engines × 2 stores; + persistent worklist × 2 × 2.
        assert_eq!(accepted, 13 + 8 + 4);
        assert!(store_cut_launched, "no sanitized launch ran with store hits cut out");
        // The relational engine is retired (EXPERIMENTS.md): no spelling
        // selects it.
        assert_eq!(Engine::all().len(), 7);
        assert_eq!(Engine::parse("rel"), None);
        assert_eq!(EngineKind::parse("rel"), None);
    }

    #[test]
    fn the_multithreaded_baseline_hits_a_store_any_engine_warmed() {
        let prep = prepare_vetting(generate_app(0, 8701, &GenConfig::tiny()));
        let off = Tracer::disabled();
        let mtcpu = ExecPlan::new(Engine::MultithreadedCpu);
        let cold = vet_prepared(&prep, mtcpu).outcome.report.to_json();
        for warmer in [Engine::MultithreadedCpu, Engine::AmandroidCpu] {
            let store = SumStore::new();
            let fed = run(&prep, ExecPlan::new(warmer), Some(&store), &off);
            assert!(fed.store_use.expect("store attached").misses > 0, "{warmer}");
            let warm = run(&prep, mtcpu, Some(&store), &off);
            assert_eq!(warm.store_use.expect("store attached").misses, 0, "{warmer}");
            assert_eq!(warm.run.outcome.report.to_json(), cold, "{warmer}");
        }
    }

    /// An app update as the incremental-analysis tests make one: `victim`'s
    /// trailing return becomes an allocation into its first reference
    /// variable, then the return.
    fn edit_tail(program: &mut gdroid_ir::Program, victim: MethodId) {
        use gdroid_ir::{Expr, Lhs, Stmt, StmtIdx};
        let method = &mut program.methods[victim];
        let (var, ty) = method
            .vars
            .iter_enumerated()
            .find(|(_, d)| d.ty.is_reference())
            .map(|(v, d)| (v, d.ty))
            .expect("the victim has a reference variable");
        let last = StmtIdx::new(method.len() - 1);
        let ret = method.body[last].clone();
        assert!(matches!(ret, Stmt::Return { .. }));
        method.body[last] = Stmt::Assign { lhs: Lhs::Var(var), rhs: Expr::New { ty } };
        method.body.push(ret);
        program.rebuild_lookups();
    }

    /// `ExecCtx::prev` over the `one_driver_table_agrees_with_a_cold_run`
    /// fixtures (`gdroid_analysis::incremental`): nothing, one leaf and
    /// everything changed, on an app whose recursion forces SCC
    /// re-iteration. Report bytes, facts and summaries are a cold run's;
    /// the reuse accounting is `analyze_app_incremental`'s; the cost is the
    /// Amandroid model prorated; neither the device nor an attached store
    /// is touched.
    #[test]
    fn a_warm_start_reproduces_a_cold_run_and_the_cpu_drivers_accounting() {
        let config = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
        let base = generate_app(0, 0x5cc, &config);
        let v1 = prepare_vetting(base.clone());
        let layers = gdroid_icfg::CallLayers::compute(&v1.cg, &v1.roots);
        assert!(layers.scc_members.iter().any(|m| m.len() > 1), "no multi-member SCC generated");
        let leaf = layers.layers[0][0];
        let mut edited = base;
        edit_tail(&mut edited.program, leaf);
        let v2 = prepare_vetting(edited);
        let everything: Vec<MethodId> = layers.scc_of.keys().copied().collect();

        let plan = ExecPlan::default();
        let prev = vet_prepared(&v1, plan).analysis;
        for (row, prep, changed) in [
            ("nothing", &v1, vec![]),
            ("one leaf", &v2, vec![leaf]),
            ("everything", &v1, everything),
        ] {
            let cold = vet_prepared(prep, plan);
            let store = SumStore::new();
            let mut device = Device::new(DeviceConfig::tesla_p40());
            let ctx = &mut ExecCtx {
                store: Some(&store),
                prev: Some((&prev, &changed)),
                ..ExecCtx::new(&mut device)
            };
            let warm = execute(prep, plan, ctx).expect("no fault plan");
            let (got, want) = (&warm.run, &cold);
            assert_eq!(got.outcome.report.to_json(), want.outcome.report.to_json(), "{row}");
            assert_eq!(got.analysis.summaries, want.analysis.summaries, "{row}");
            assert_eq!(got.analysis.facts.len(), want.analysis.facts.len(), "{row}");
            for (mid, facts) in &want.analysis.facts {
                assert_eq!(
                    got.analysis.facts[mid].flat_words(),
                    facts.flat_words(),
                    "{row} {mid:?}"
                );
            }

            let (incremental, stats) =
                analyze_app_incremental(&prep.app.program, &prep.cg, &prep.roots, &prev, &changed);
            assert_eq!(warm.reuse, Some(stats), "{row}");
            assert_eq!(stats.resolved + stats.reused, layers.method_count(), "{row}");
            let full_ns = CpuCostModel::amandroid().sequential_ns(&incremental);
            let share = stats.resolved.max(1) as f64 / layers.method_count() as f64;
            assert_eq!(got.outcome.timing.idfg_ns, full_ns * share, "{row}");
            assert!(got.outcome.store_bytes > 0, "{row}: a warm start reports host stores");

            assert!(warm.gpu.is_none() && warm.store_use.is_none(), "{row}");
            assert_eq!(device.launches(), 0, "{row}");
            assert_eq!((store.len(), store.stats().misses), (0, 0), "{row}: store touched");
        }
        assert!(vet_prepared(&v1, plan).outcome.store_bytes == 0, "a cold device run reports none");
    }

    #[test]
    #[should_panic(expected = "cannot warm-start")]
    fn a_plan_that_is_not_warm_startable_refuses_a_previous_version() {
        let prep = prepare_vetting(generate_app(0, 8702, &GenConfig::tiny()));
        let prev = vet_prepared(&prep, ExecPlan::default()).analysis;
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let ctx = &mut ExecCtx { prev: Some((&prev, &[])), ..ExecCtx::new(&mut device) };
        let targeted = ExecPlan { targeted: true, ..ExecPlan::default() };
        assert!(!targeted.warm_startable());
        let _ = execute(&prep, targeted, ctx);
    }

    #[test]
    fn fallback_reroutes_only_what_check_refuses() {
        for engine in Engine::all() {
            for exec in ExecMode::ALL {
                for targeted in [false, true] {
                    let plan = ExecPlan { engine, exec, targeted };
                    let relaxed = plan.fallback();
                    assert!(relaxed.check(false).is_ok(), "{plan:?} -> {relaxed:?}");
                    assert_eq!(relaxed.targeted, targeted);
                    if plan.check(false).is_ok() {
                        assert_eq!(relaxed, plan);
                    }
                }
            }
        }
        let cpu_targeted = ExecPlan { targeted: true, ..ExecPlan::new(EngineKind::Cpu) };
        assert_eq!(cpu_targeted.fallback().engine, Engine::Gpu(OptConfig::gdroid()));
    }

    #[test]
    fn engine_names_roundtrip_and_gdroid_is_worklist() {
        for engine in Engine::all() {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
        }
        assert_eq!(Engine::parse("gdroid"), Engine::parse("worklist"));
        assert_eq!(Engine::parse("resident"), None);
        for kind in EngineKind::ALL {
            assert_eq!(Engine::from(kind).kind(), Some(kind));
            assert_eq!(Engine::from(kind).name(), kind.as_str());
        }
        assert_eq!(Engine::Gpu(OptConfig::mat()).kind(), None);
    }

    #[test]
    fn persistent_exec_reports_match_multi_launch() {
        for seed in [8710u64, 8711] {
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let mut md = Device::new(DeviceConfig::tesla_p40());
            let multi = execute(&prep, ExecPlan::default(), &mut ExecCtx::new(&mut md))
                .expect("no fault plan")
                .run;
            let mut pd = Device::new(DeviceConfig::tesla_p40());
            let persistent = ExecPlan { exec: ExecMode::Persistent, ..ExecPlan::default() };
            let per =
                execute(&prep, persistent, &mut ExecCtx::new(&mut pd)).expect("no fault plan").run;
            assert_eq!(
                per.outcome.report.to_json(),
                multi.outcome.report.to_json(),
                "persistent verdicts diverged on seed {seed}"
            );
            // Same fixpoint, one launch instead of one per round.
            assert_eq!(pd.launches(), 1, "seed {seed}");
            if md.launches() > 1 {
                assert!(
                    per.outcome.timing.idfg_ns < multi.outcome.timing.idfg_ns,
                    "seed {seed}: persistent not faster"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "persistent")]
    fn persistent_exec_rejects_non_worklist_engines() {
        engine_for_mode(EngineKind::Cpu, ExecMode::Persistent);
    }
}
