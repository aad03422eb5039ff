//! The execution plan: one value that says *how* an app is vetted, and
//! the one function that runs it.
//!
//! The paper's IDFG construction is a single worklist kernel with MAT /
//! GRP / MER as switches on it; everything layered on since — the CPU
//! engines, targeted slicing, the summary store, tracing — is likewise a
//! switch on one run, not a pipeline of its own. [`ExecPlan`] gathers the
//! selectors (engine × targeted), [`ExecCtx`] the run-time resources
//! (device, summary store, tracer), and [`execute`] performs the same four
//! steps for every combination: optional slice → optional store lookup
//! (∩ slice) → one analysis → taint, outcome contracts and stage spans;
//! [`execute_coresident`] runs them for a group of apps around one shared
//! analysis. No step writes the store. A warm start from a previous
//! version of the app is the store step with that version's
//! [`summary_store`](crate::summary_store) attached.
//!
//! Every engine composes with the slice and the store, so [`execute`]
//! refuses nothing; [`Engine::batches`] says which engines may share launches
//! ([`execute_coresident`]), and [`ExecPlan::cacheable`] is the only place
//! the result-cache lane is allowed.

use crate::pipeline::{
    finish_vetting, to_app_analysis, trace_stage_spans, PreparedApp, VettingRun,
};
use crate::store_exec::{collect_presolved, StoreUse};
use crate::targeted::{compute_vetting_slice, TargetedProvenance};
use gdroid_analysis::{AppAnalysis, BackwardSlice};
use gdroid_core::{
    gpu_analyze_batch_on, AppInput, BatchStats, Engine, GpuRunStats, OptConfig, Presolved,
};
use gdroid_gpusim::{Device, DeviceConfig, DeviceFault};
use gdroid_sumstore::SumStore;
use gdroid_trace::Tracer;

/// How one app is vetted: every selector of a run, gathered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    /// Which engine constructs the IDFG.
    pub engine: Engine,
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

impl ExecPlan {
    /// A full (untargeted) run on `engine`.
    pub fn new(engine: Engine) -> ExecPlan {
        ExecPlan { engine, targeted: false }
    }

    /// Whether the outcome may be served from, and inserted into, a
    /// result cache — and so whether a cached previous version of the app
    /// may warm-start it (a serving caller consumes and invalidates that
    /// entry): a full worklist-GPU run. A hit is returned
    /// verbatim, so its embedded cost profile must be the one every
    /// cacheable job would compute; a targeted outcome carries provenance
    /// and must never stand in for a full vetting.
    pub fn cacheable(self) -> bool {
        matches!(self.engine, Engine::Gpu(_)) && !self.targeted
    }
}

static NO_TRACE: Tracer = Tracer::disabled();

/// The run-time resources of one [`execute`] call.
pub struct ExecCtx<'a> {
    /// The device the IDFG is built on — fresh or long-lived. CPU engines
    /// take the slot but never touch it, so a service executor needs no
    /// special case.
    pub device: &'a mut Device,
    /// Summary store, read only — a corpus's
    /// [`library_store`](crate::library_store), or a previous version's
    /// [`summary_store`](crate::summary_store) for a warm start: hits are
    /// pre-solved and never scheduled.
    pub store: Option<&'a SumStore>,
    /// Modeled-time trace sink. When enabled it is installed on the
    /// device, whose clock is advanced past the prep stages so device
    /// events nest inside the `idfg` stage span — pass a fresh device.
    pub tracer: &'a Tracer,
}

impl<'a> ExecCtx<'a> {
    /// A context with no store and tracing disabled.
    pub fn new(device: &'a mut Device) -> ExecCtx<'a> {
        ExecCtx { device, store: None, tracer: &NO_TRACE }
    }
}

/// What [`execute`] returns.
pub struct Executed {
    /// Outcome plus the per-method analysis behind it.
    pub run: VettingRun,
    /// How the run used the summary store — `Some` iff one was attached.
    pub store_use: Option<StoreUse>,
    /// The device run's modeled statistics — `Some` iff a
    /// [`Engine::Gpu`] rung built the IDFG.
    pub gpu: Option<GpuRunStats>,
}

/// Runs the IDFG + taint stages of `plan` on a prepared app.
///
/// An injected [`DeviceFault`] surfaces as `Err` so a serving caller can
/// retry the job (store lookups only read, so a retry simply repeats
/// them).
///
/// Facts, and therefore the report, are byte-identical for every plan
/// and context, warm or cold (the plan table test and the
/// tier-1 gates); only modeled timing, telemetry shape, `store_bytes` and
/// the targeted provenance differ, and enabling the tracer changes
/// nothing at all.
pub fn execute(
    prep: &PreparedApp,
    plan: ExecPlan,
    ctx: &mut ExecCtx<'_>,
) -> Result<Executed, DeviceFault> {
    attach_tracer(ctx, &[prep]);
    let staged = stage(prep, plan, ctx);
    let AppInput { program, cg, roots, presolved, slice } = staged.input();
    let ea = plan.engine.analyze_on(ctx.device, program, cg, roots, presolved, slice)?;
    Ok(finish(staged, to_app_analysis(ea, plan.engine), ctx.tracer, 0))
}

/// [`execute`] for a group of apps sharing kernel launches on one device
/// ([`gpu_analyze_batch_on`]): each member's stage step, one co-resident
/// analysis, each member's finish step (stage spans on trace track =
/// member index). Each member's [`Executed`] equals a solo [`execute`]
/// against the same store. An injected fault aborts the whole group; the
/// caller retries the members individually.
/// Panics unless the plan's engine [batches](Engine::batches).
pub fn execute_coresident(
    preps: &[&PreparedApp],
    plan: ExecPlan,
    ctx: &mut ExecCtx<'_>,
) -> Result<(Vec<Executed>, BatchStats), DeviceFault> {
    let (Engine::Gpu(opts), true) = (plan.engine, plan.engine.batches()) else {
        panic!("engine {} does not support co-resident batching", plan.engine)
    };
    attach_tracer(ctx, preps);
    let staged: Vec<Staged<'_>> = preps.iter().map(|prep| stage(prep, plan, ctx)).collect();
    let inputs: Vec<AppInput<'_>> = staged.iter().map(Staged::input).collect();
    let (analyses, batch) = gpu_analyze_batch_on(ctx.device, &inputs, opts)?;
    let analyzed = analyses.into_iter().map(|a| to_app_analysis(a, plan.engine));
    let members = staged.into_iter().zip(analyzed);
    let done = members.enumerate().map(|(i, (s, a))| finish(s, a, ctx.tracer, i as u32)).collect();
    Ok((done, batch))
}

/// Installs an enabled tracer on the device and advances its clock past
/// the longest prep stage, so device events nest inside the `idfg` span.
fn attach_tracer(ctx: &mut ExecCtx<'_>, preps: &[&PreparedApp]) {
    if ctx.tracer.enabled() {
        ctx.device.set_tracer(ctx.tracer.clone());
        let prep_ns = |p: &&PreparedApp| p.prep_timing.envgen_ns + p.prep_timing.callgraph_ns;
        let longest = preps.iter().map(prep_ns).fold(0.0, f64::max);
        ctx.device.advance_clock(longest.round() as u64);
    }
}

/// One app after the stage step.
struct Staged<'p> {
    prep: &'p PreparedApp,
    /// The backward sink slice — `Some` iff the plan is targeted.
    slice: Option<BackwardSlice>,
    /// The store hits (∩ slice) — empty without a store.
    presolved: Presolved,
    /// How the run used the store — `Some` iff one is attached.
    store_use: Option<StoreUse>,
}

impl Staged<'_> {
    fn input(&self) -> AppInput<'_> {
        let Staged { prep, slice, presolved, .. } = self;
        let slice = slice.as_ref().map(|s| &s.members);
        AppInput { program: &prep.app.program, cg: &prep.cg, roots: &prep.roots, presolved, slice }
    }
}

/// The stage step: the optional slice, then the optional store lookup
/// restricted to it, each traced as one instant.
fn stage<'p>(prep: &'p PreparedApp, plan: ExecPlan, ctx: &ExecCtx<'_>) -> Staged<'p> {
    let tracer = ctx.tracer;
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

    let Some(store) = ctx.store else {
        return Staged { prep, slice, presolved: Presolved::new(), store_use: None };
    };
    let (presolved, used) = collect_presolved(prep, store, slice.as_ref().map(|s| &s.members));
    if tracer.enabled() {
        // Hits short-circuit whole subtrees out of the kernel schedule, so
        // the trace records them as one instant, not as launch spans.
        tracer.instant(
            "vetting",
            "sumstore",
            ctx.device.clock_ns(),
            0,
            vec![
                ("hits", (presolved.len() as u64).into()),
                ("candidates", (used.hits + used.misses).into()),
                ("package", prep.app.name.as_str().into()),
            ],
        );
    }
    Staged { prep, slice, presolved, store_use: Some(used) }
}

/// The finish step: taint, the provenance contract, and the stage spans
/// on `track`.
fn finish(
    staged: Staged<'_>,
    (analysis, idfg_ns, gpu): (AppAnalysis, f64, Option<GpuRunStats>),
    tracer: &Tracer,
    track: u32,
) -> Executed {
    let Staged { prep, slice, store_use, .. } = staged;
    let mut run = finish_vetting(prep, analysis, idfg_ns);
    run.outcome.targeted = slice.as_ref().map(TargetedProvenance::of);
    if tracer.enabled() {
        trace_stage_spans(tracer, &run.outcome.timing, 0, track);
    }
    Executed { run, store_use, gpu }
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

    /// The whole product engine × targeted × store × tracer: every
    /// combination runs, reproduces the CPU reference's report and is
    /// blind to the tracer.
    #[test]
    fn plan_matrix_is_todays_and_every_accepted_plan_agrees_with_the_reference() {
        let config = GenConfig::tiny().with_libraries(2, 2);
        let prep = prepare_vetting(generate_app(0, 8700, &config));
        let library = crate::library_store(&config);
        let reference =
            vet_prepared(&prep, ExecPlan::new(Engine::CpuReference)).outcome.report.to_json();
        let (mut accepted, mut store_cut_launched) = (0, false);
        for engine in Engine::all() {
            let gpu = matches!(engine, Engine::Gpu(_));
            for targeted in [false, true] {
                let plan = ExecPlan { engine, targeted };
                assert_eq!(plan.cacheable(), gpu && !targeted, "{plan:?}");
                for with_store in [false, true] {
                    let what = format!("{plan:?} store={with_store}");
                    accepted += 1;
                    let store = with_store.then_some(&library);
                    let plain = run(&prep, plan, store, &Tracer::disabled());
                    let outcome = &plain.run.outcome;
                    assert_eq!(outcome.report.to_json(), reference, "{what}");
                    assert_eq!(outcome.targeted.is_some(), targeted, "{what}");
                    // A device run reports no host stores; a host run
                    // reports one per analyzed method.
                    let analyzed = !plain.run.analysis.facts.is_empty();
                    assert_eq!(outcome.store_bytes > 0, !gpu && analyzed, "{what}");
                    assert_eq!(plain.store_use.is_some(), with_store, "{what}");

                    let tracer = Tracer::enabled_new();
                    let traced = run(&prep, plan, store, &tracer);
                    assert_eq!(traced.run.outcome.to_json(), outcome.to_json(), "{what}");
                    let emitted = |name: &str| tracer.events().iter().any(|e| e.name == name);
                    assert!(emitted("idfg"), "{what}: no stage spans");
                    assert_eq!(emitted("sumstore"), with_store, "{what}");
                    assert_eq!(emitted("targeted-slice"), targeted, "{what}");

                    if !gpu {
                        continue;
                    }
                    // Once more under the sanitizer: full, sliced and
                    // store-cut launches are all race-free.
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
        // 7 engines × full / targeted × store-free / store-backed.
        assert_eq!(accepted, 28);
        assert!(store_cut_launched, "no sanitized launch ran with store hits cut out");
        // The relational engine is retired (EXPERIMENTS.md): no spelling
        // selects it.
        assert_eq!(Engine::all().len(), 7);
        assert_eq!(Engine::parse("rel"), None);
    }

    /// The group axis: every plan whose engine batches runs as a group of three apps that share library code, on a
    /// sanitizing device, store-free and against their library store.
    /// Each member equals a solo [`execute`] against the same store —
    /// outcome bytes, facts, summaries, hits and misses — and the
    /// launches are race-free. Every refused plan panics in
    /// [`execute_coresident`].
    #[test]
    fn every_plan_a_group_accepts_reproduces_its_members_solo_runs() {
        let config = GenConfig::tiny().with_libraries(2, 2);
        let preps: Vec<PreparedApp> = (0..3u64)
            .map(|i| prepare_vetting(generate_app(i as usize, 8720 + i, &config)))
            .collect();
        let refs: Vec<&PreparedApp> = preps.iter().collect();
        let off = Tracer::disabled();
        let library = crate::library_store(&config);
        let (mut accepted, mut hit) = (0, false);
        for engine in Engine::all() {
            for targeted in [false, true] {
                let plan = ExecPlan { engine, targeted };
                for with_store in [false, true] {
                    let what = format!("{plan:?} store={with_store}");
                    let expected = matches!(engine, Engine::Gpu(opts) if opts.mat);
                    let store = with_store.then_some(&library);
                    assert_eq!(engine.batches(), expected, "{what}");
                    let mut device = Device::new(DeviceConfig::tesla_p40().with_sanitizer());
                    let ctx = &mut ExecCtx { store, ..ExecCtx::new(&mut device) };
                    if !expected {
                        let group = std::panic::AssertUnwindSafe(|| {
                            execute_coresident(&refs, plan, ctx).map(|_| ())
                        });
                        assert!(std::panic::catch_unwind(group).is_err(), "{what}");
                        continue;
                    }
                    accepted += 1;
                    let (done, batch) = execute_coresident(&refs, plan, ctx).expect("no fault");
                    assert_eq!(done.len(), 3, "{what}");
                    assert!(batch.launches > 0, "{what}: the group never launched");
                    let san = device.san_report().expect("sanitizer configured");
                    assert!(san.is_clean(), "{what}: {san}");
                    for (prep, got) in preps.iter().zip(&done) {
                        let solo = run(prep, plan, store, &off);
                        let (got_run, want) = (&got.run, &solo.run);
                        let outcome = got_run.outcome.to_json();
                        assert_eq!(outcome, want.outcome.to_json(), "{what}");
                        let (a, b) = (&got_run.analysis, &want.analysis);
                        assert_eq!(a.summaries, b.summaries, "{what}");
                        assert_eq!(a.facts.len(), b.facts.len(), "{what}");
                        for (mid, facts) in &b.facts {
                            let words = a.facts[mid].flat_words();
                            assert_eq!(words, facts.flat_words(), "{what} {mid:?}");
                        }
                        let uses = |e: &Executed| e.store_use.as_ref().map(|u| (u.hits, u.misses));
                        assert_eq!(uses(got), uses(&solo), "{what}");
                        hit |= got.store_use.as_ref().is_some_and(|u| u.hits > 0);
                    }
                }
            }
        }
        // Three MAT rungs × full / targeted × store-free / store-backed.
        assert_eq!(accepted, 12);
        assert!(hit, "no group member hit the library store");
    }

    #[test]
    fn the_multithreaded_baseline_hits_a_store_any_engine_built() {
        let prep = prepare_vetting(generate_app(0, 8701, &GenConfig::tiny()));
        let off = Tracer::disabled();
        let mtcpu = ExecPlan::new(Engine::MultithreadedCpu);
        let cold = vet_prepared(&prep, mtcpu).outcome.report.to_json();
        for builder in [Engine::MultithreadedCpu, Engine::AmandroidCpu, Engine::CpuReference] {
            let built = vet_prepared(&prep, ExecPlan::new(builder)).analysis;
            let store = crate::summary_store(&prep, &built);
            let warm = run(&prep, mtcpu, Some(&store), &off);
            assert_eq!(warm.store_use.expect("store attached").misses, 0, "{builder}");
            assert_eq!(warm.run.outcome.report.to_json(), cold, "{builder}");
        }
    }

    /// An app update as the serving tests make one: `victim`'s
    /// trailing return becomes an allocation into its first reference
    /// variable, then the return.
    fn edit_tail(program: &mut gdroid_ir::Program, victim: gdroid_ir::MethodId) {
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

    /// A warm start is a store-backed run against the previous version's
    /// [`summary_store`](crate::summary_store), on every cacheable plan:
    /// nothing, one leaf, and everything changed (a previous version that
    /// shares no method: an empty store), on an app whose recursion forces
    /// SCC re-iteration. Report bytes, facts and summaries are a cold
    /// run's; misses and hits cover the reachable methods; the device
    /// launches exactly when something missed, and the sanitizer finds
    /// those launches race-free.
    #[test]
    fn a_warm_start_is_a_store_backed_run_that_reproduces_a_cold_one() {
        let config = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
        let base = generate_app(0, 0x5cc, &config);
        let v1 = prepare_vetting(base.clone());
        let layers = gdroid_icfg::CallLayers::compute(&v1.cg, &v1.roots);
        assert!(layers.scc_members.iter().any(|m| m.len() > 1), "no multi-member SCC generated");
        let count = layers.method_count() as u64;
        let mut edited = base;
        edit_tail(&mut edited.program, layers.layers[0][0]);
        let v2 = prepare_vetting(edited);

        let mut cacheable = 0;
        for engine in Engine::all() {
            for targeted in [false, true] {
                let plan = ExecPlan { engine, targeted };
                if !plan.cacheable() {
                    continue;
                }
                cacheable += 1;
                let v1_analysis = vet_prepared(&v1, plan).analysis;
                for (row, prep, keep) in
                    [("nothing", &v1, true), ("one leaf", &v2, true), ("everything", &v1, false)]
                {
                    let what = format!("{plan:?} {row}");
                    let store = if keep {
                        crate::summary_store(&v1, &v1_analysis)
                    } else {
                        SumStore::new()
                    };
                    assert_eq!(store.len() as u64, if keep { count } else { 0 }, "{what}");
                    let cold = vet_prepared(prep, plan);
                    let mut device = Device::new(DeviceConfig::tesla_p40().with_sanitizer());
                    let warm = run_on(&mut device, prep, plan, Some(&store), &Tracer::disabled());
                    let (got, want) = (&warm.run, &cold);
                    assert_eq!(got.outcome.report.to_json(), want.outcome.report.to_json());
                    assert_eq!(got.analysis.summaries, want.analysis.summaries, "{what}");
                    assert_eq!(got.analysis.facts.len(), want.analysis.facts.len(), "{what}");
                    for (mid, facts) in &want.analysis.facts {
                        let words = got.analysis.facts[mid].flat_words();
                        assert_eq!(words, facts.flat_words(), "{what} {mid:?}");
                    }

                    let used = warm.store_use.expect("a store was attached");
                    let (resolved, reused) = (used.misses, used.hits);
                    assert_eq!(resolved + reused, count, "{what}");
                    match row {
                        "nothing" => assert_eq!(resolved, 0, "{what}"),
                        "one leaf" => assert!(resolved >= 1 && reused > 0, "{what}"),
                        _ => assert_eq!(reused, 0, "{what}"),
                    }
                    assert_eq!(device.launches() > 0, resolved > 0, "{what}");
                    let san = device.san_report().expect("sanitizer configured");
                    assert!(san.is_clean(), "{what}: {san}");
                }
            }
        }
        assert_eq!(cacheable, 4, "the four worklist-GPU rungs");
    }
}
