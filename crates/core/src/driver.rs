//! The GPU analysis driver: layered kernel launches with dual-buffered
//! transfers, producing the IDFG and the simulated execution time.
//!
//! Structure per app (mirroring Alg. 2's host side):
//!
//! 1. plan the device layout for all reachable methods;
//! 2. bottom-up over call-graph layers: launch one kernel per layer with
//!    one block per method (SCCs re-launch until their summaries
//!    stabilize, each re-launch paying real kernel time);
//! 3. layer inputs stream host→device ahead of each launch and results
//!    stream back, overlapped through the dual-buffering pipeline;
//! 4. summaries are derived host-side between launches (as Amandroid's
//!    driver does between worklist passes).

use crate::engine::ExecMode;
use crate::kernel::run_method_block;
use crate::layout::{plan_layout, AppLayout};
use crate::opts::OptConfig;
use crate::stats::{GpuRunStats, WorklistProfile};
use gdroid_analysis::{
    derive_summary, merge_site_summaries, FactStore, Geometry, MatrixStore, MethodSpace,
    SummaryMap, WorklistTelemetry,
};
use gdroid_gpusim::{dual_buffered, Device, DeviceConfig, DeviceFault};
use gdroid_icfg::{CallGraph, CallLayers, Cfg};
use gdroid_ir::{MethodId, Program};
use std::collections::HashMap;

/// Result of a GPU analysis run.
pub struct GpuAnalysis {
    /// Per-method node facts — the IDFG, identical to the CPU result.
    pub facts: HashMap<MethodId, MatrixStore>,
    /// Final summaries.
    pub summaries: SummaryMap,
    /// Per-method pools.
    pub spaces: HashMap<MethodId, MethodSpace>,
    /// Per-method CFGs.
    pub cfgs: HashMap<MethodId, Cfg>,
    /// Simulated execution statistics.
    pub stats: GpuRunStats,
    /// Aggregated worklist telemetry.
    pub telemetry: WorklistTelemetry,
    /// `simcheck` sanitizer report — `Some` iff the device config had
    /// [`DeviceConfig::with_sanitizer`] applied.
    pub sanitizer: Option<gdroid_gpusim::SanReport>,
}

/// Analyzes one app on a fresh simulated GPU: a full multi-launch run
/// with nothing pre-solved.
pub fn gpu_analyze_app(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    device_config: DeviceConfig,
    opts: OptConfig,
) -> GpuAnalysis {
    let mut device = Device::new(device_config);
    gpu_analyze_app_on(
        &mut device,
        program,
        cg,
        roots,
        opts,
        &HashMap::new(),
        None,
        ExecMode::MultiLaunch,
    )
    .expect("a fresh device has no fault plan")
}

/// Analyzes one app on an existing, long-lived device — the one general
/// entry point. The device is [`Device::reset`] first (each app gets a
/// clean arena), and any injected fault ([`gdroid_gpusim::FaultPlan`])
/// aborts the analysis mid-flight with an `Err` the caller can retry.
///
/// `presolved` methods (summary-store hits) have their summaries and node
/// facts injected instead of computed. The layer schedule treats them as
/// leaves: their subtrees never enter a kernel launch, no device buffers
/// are planned for them, and no bytes are transferred — that is the
/// warm-corpus win. The set must be *closed*: every internal callee of a
/// pre-solved method is itself pre-solved (otherwise its summary would
/// never become available, since cut subtrees are unscheduled); under a
/// slice, closed over slice-internal call edges.
///
/// `slice` (demand-driven analysis) seeds and launches only its members,
/// with call edges leaving it cut from the schedule. It must be
/// caller-closed over the reachable set (see
/// `gdroid_analysis::BackwardSlice`) for the facts at sink statements to
/// match a full run. An empty slice performs zero launches.
///
/// `exec` maps fixpoint rounds onto launches. `ExecMode::Persistent` runs
/// the whole fixpoint inside ONE resident kernel launch: blocks pull work
/// from a device-side queue, rounds are separated by a modeled grid-wide
/// sync instead of a kernel boundary, and the host uploads inputs once
/// and downloads results once — facts and summaries stay byte-identical
/// to the multi-launch path (the fixpoint is unique; only the modeled
/// cost differs).
#[allow(clippy::too_many_arguments)]
pub fn gpu_analyze_app_on(
    device: &mut Device,
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    opts: OptConfig,
    presolved: &HashMap<MethodId, (gdroid_analysis::MethodSummary, MatrixStore)>,
    restrict: Option<&std::collections::HashSet<MethodId>>,
    exec: ExecMode,
) -> Result<GpuAnalysis, DeviceFault> {
    device.reset();
    let tracer = device.tracer().clone();
    let leaf_set: std::collections::HashSet<MethodId> = presolved.keys().copied().collect();
    let layers = match restrict {
        None => CallLayers::compute_with_leaves(cg, roots, &leaf_set),
        Some(allowed) => CallLayers::compute_within_with_leaves(cg, roots, allowed, &leaf_set),
    };
    // Methods that actually run on the device: scheduled and not pre-solved.
    let methods: Vec<MethodId> = {
        let mut m: Vec<MethodId> =
            layers.scc_of.keys().copied().filter(|m| !leaf_set.contains(m)).collect();
        m.sort_unstable();
        m
    };
    let mut spaces: HashMap<MethodId, MethodSpace> = HashMap::new();
    let mut cfgs: HashMap<MethodId, Cfg> = HashMap::new();
    for &mid in methods.iter().chain(presolved.keys()) {
        spaces.insert(mid, MethodSpace::build(program, mid));
        cfgs.insert(mid, Cfg::build(&program.methods[mid]));
    }

    let layout: AppLayout = plan_layout(program, device, &spaces, &cfgs, &methods, opts);
    if tracer.enabled() {
        tracer.instant(
            "driver",
            "opt-config",
            device.clock_ns(),
            0,
            vec![
                ("mat", opts.mat.into()),
                ("grp", opts.grp.into()),
                ("mer", opts.mer.into()),
                ("methods", methods.len().into()),
                ("presolved", presolved.len().into()),
                ("layers", layers.layer_count().into()),
            ],
        );
    }

    let mut summaries: SummaryMap = HashMap::new();
    let mut facts: HashMap<MethodId, MatrixStore> = HashMap::new();
    // Inject pre-solved results before any launch so callers' call sites
    // resolve against final summaries from the first kernel on.
    for (&mid, (summary, store)) in presolved {
        summaries.insert(mid, summary.clone());
        facts.insert(mid, store.clone());
    }
    let mut telemetry = WorklistTelemetry::default();
    let mut stats = GpuRunStats::default();
    // (h2d bytes, kernel ns, d2h bytes) per launch, for the transfer
    // pipeline model. Persistent mode collapses this to one chunk per
    // *layer*: the layer schedule is static (computed host-side before
    // the resident launch), so per-layer inputs stream ahead of the
    // kernel on the copy engine and results stream back as each layer
    // retires — SCC re-rounds stay device-side and transfer nothing.
    let mut chunks: Vec<(u64, f64, u64)> = Vec::new();

    // Persistent mode: submit the one resident launch up front. It pays
    // the launch overhead (and faces the fault plan) exactly once; every
    // fixpoint round below then runs inside it.
    let persistent = exec == ExecMode::Persistent && !methods.is_empty();
    if persistent {
        device.begin_persistent()?;
    }

    for layer_idx in 0..layers.layer_count() {
        let layer_sccs: Vec<&Vec<MethodId>> = layers
            .scc_members
            .iter()
            .enumerate()
            .filter(|(i, _)| layers.scc_layer[*i] as usize == layer_idx)
            .map(|(_, m)| m)
            .collect();

        // Methods still needing a solve in this layer (SCC iteration).
        // Pre-solved leaves are scheduled (they occupy layer slots) but
        // never launch.
        let mut pending: Vec<MethodId> = layer_sccs
            .iter()
            .flat_map(|s| s.iter().copied())
            .filter(|m| !leaf_set.contains(m))
            .collect();
        pending.sort_unstable();

        // Persistent-mode per-layer chunk accumulators: a layer's bytes
        // move once (inputs before its first round, results after its
        // last) while its kernel time sums every round, SCC re-rounds
        // included.
        let mut layer_kernel_ns = 0.0f64;
        let mut layer_bytes = (0u64, 0u64);
        let mut round = 0usize;
        while !pending.is_empty() {
            let round_start_ns = device.clock_ns();
            let round_bytes: (u64, u64); // (h2d, d2h)
                                         // --- one kernel launch: one block per pending method --------
            let block_results: Vec<(MethodId, MatrixStore, WorklistTelemetry)>;
            {
                // Pre-compute per-method inputs.
                let inputs: Vec<(MethodId, HashMap<gdroid_ir::StmtIdx, Option<_>>)> = pending
                    .iter()
                    .map(|&mid| (mid, merge_site_summaries(program, mid, &summaries, cg)))
                    .collect();
                let results = std::cell::RefCell::new(Vec::with_capacity(pending.len()));
                let blocks: Vec<gdroid_gpusim::BlockFn<'_>> = inputs
                    .iter()
                    .map(|(mid, site)| {
                        let mid = *mid;
                        let space = &spaces[&mid];
                        let cfg = &cfgs[&mid];
                        let ml = &layout.methods[&mid];
                        let results = &results;
                        Box::new(move |ctx: &mut gdroid_gpusim::BlockCtx<'_>| {
                            if persistent {
                                // The resident kernel's block dequeues its
                                // method from the device-side worklist…
                                ctx.queue_pop(1);
                            }
                            let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                            store.seed(
                                cfg.entry() as usize,
                                &space.entry_facts(&program.methods[mid]),
                            );
                            let tele = run_method_block(
                                ctx,
                                &program.methods[mid],
                                space,
                                cfg,
                                ml,
                                site,
                                opts,
                                &mut store,
                            );
                            if persistent {
                                // …and publishes its summary-changed flag
                                // back for the next round's scheduling.
                                ctx.queue_push(1);
                            }
                            results.borrow_mut().push((mid, store, tele));
                        }) as gdroid_gpusim::BlockFn<'_>
                    })
                    .collect();

                if persistent {
                    // One round inside the resident launch: no launch
                    // overhead, no per-round transfer — just the packed
                    // work plus a grid-wide sync.
                    let kernel_stats = device.persistent_round(blocks);
                    if round == 0 {
                        layer_bytes.0 = pending.iter().map(|m| layout.methods[m].h2d_bytes).sum();
                        layer_bytes.1 = pending.iter().map(|m| layout.methods[m].d2h_bytes).sum();
                    }
                    layer_kernel_ns += device.config.cycles_to_ns(kernel_stats.makespan_cycles);
                    round_bytes = (0, 0);
                    stats.absorb_round(&kernel_stats);
                } else {
                    let kernel_stats = device.try_launch(blocks)?;
                    let h2d: u64 = pending.iter().map(|m| layout.methods[m].h2d_bytes).sum();
                    let d2h: u64 = pending.iter().map(|m| layout.methods[m].d2h_bytes).sum();
                    chunks.push((h2d, kernel_stats.time_ns(&device.config), d2h));
                    round_bytes = (h2d, d2h);
                    stats.absorb_kernel(&kernel_stats);
                }
                block_results = results.into_inner();
            }

            // --- host side: derive summaries, decide SCC re-iteration ---
            let launched = pending.len();
            // Membership is queried per SCC member below; a set keeps wide
            // layers linear. Re-launch ordering stays deterministic because
            // `pending` is rebuilt from `layer_sccs` order and re-sorted.
            let mut changed_methods: std::collections::HashSet<MethodId> =
                std::collections::HashSet::new();
            for (mid, store, tele) in block_results {
                if tracer.enabled() {
                    trace_method_worklist(
                        &tracer,
                        device.clock_ns(),
                        mid,
                        &tele,
                        opts,
                        device.config.warp_size,
                    );
                }
                telemetry.absorb(&tele);
                stats.record_method(&tele);
                let space = &spaces[&mid];
                let cfg = &cfgs[&mid];
                let store_ref = &store;
                let node_facts = |n: usize| store_ref.snapshot(n);
                let summary =
                    derive_summary(&program.methods[mid], space, &node_facts, cfg.exit() as usize);
                let changed = summaries.get(&mid) != Some(&summary);
                summaries.insert(mid, summary);
                facts.insert(mid, store);
                if changed {
                    changed_methods.insert(mid);
                }
            }

            // Only recursive SCCs with changed summaries re-launch.
            pending = layer_sccs
                .iter()
                .filter(|scc| {
                    (scc.len() > 1 || layers.is_recursive(scc[0], cg))
                        && scc.iter().any(|m| changed_methods.contains(m))
                })
                .flat_map(|s| s.iter().copied())
                .filter(|m| !leaf_set.contains(m))
                .collect();
            pending.sort_unstable();
            pending.dedup();
            // A changed singleton recursive SCC stabilizes once its
            // summary stops changing — guaranteed by monotonicity.
            if tracer.enabled() {
                tracer.span(
                    "driver",
                    format!("layer {layer_idx} round {round}"),
                    round_start_ns,
                    device.clock_ns() - round_start_ns,
                    0,
                    vec![
                        ("methods_launched", launched.into()),
                        ("summaries_changed", changed_methods.len().into()),
                        ("h2d_bytes", round_bytes.0.into()),
                        ("d2h_bytes", round_bytes.1.into()),
                    ],
                );
            }
            round += 1;
        }

        if persistent && layer_kernel_ns > 0.0 {
            // The session's single launch overhead lands on the first
            // layer chunk, rounded exactly as KernelStats::time_ns and
            // the device clock round it.
            if chunks.is_empty() {
                layer_kernel_ns += (device.config.launch_overhead_us * 1e3).round();
            }
            chunks.push((layer_bytes.0, layer_kernel_ns, layer_bytes.1));
        }
    }

    if persistent {
        // Fixpoint reached: the resident kernel exits. Its traffic and
        // compute are already in the per-layer chunks above; closing the
        // session emits the single launch span. The whole fixpoint was
        // ONE launch no matter how many rounds it looped.
        device.end_persistent();
        stats.launches = 1;
    }

    // Transfer pipeline: the per-launch chunks ran through dual buffering.
    let pipeline = dual_buffered(&device.config, &chunks);
    if tracer.enabled() {
        tracer.instant(
            "driver",
            "transfer-pipeline",
            device.clock_ns(),
            0,
            vec![
                ("launches", chunks.len().into()),
                ("h2d_bytes", chunks.iter().map(|c| c.0).sum::<u64>().into()),
                ("d2h_bytes", chunks.iter().map(|c| c.2).sum::<u64>().into()),
                ("exposed_copy_ns", pipeline.exposed_copy_ns.into()),
                ("total_ns", pipeline.total_ns.into()),
            ],
        );
    }
    stats.finish(pipeline, &device.config, device.heap.allocations, device.heap.bytes);
    stats.profile = WorklistProfile::from_round_sizes(&telemetry.round_sizes, telemetry.rounds);

    let sanitizer = device.san_report();
    Ok(GpuAnalysis { facts, summaries, spaces, cfgs, stats, telemetry, sanitizer })
}

/// Emits one instant per solved method with its worklist telemetry,
/// including the per-round head/tail split the MER regime induces (head =
/// the warp-sized list the kernel processes, tail = the postponed rest).
/// Only called when tracing is enabled.
pub(crate) fn trace_method_worklist(
    tracer: &gdroid_trace::Tracer,
    ts_ns: u64,
    mid: MethodId,
    tele: &WorklistTelemetry,
    opts: OptConfig,
    warp: usize,
) {
    use std::fmt::Write;
    let mut head_tail = String::new();
    for (i, &size) in tele.round_sizes.iter().enumerate() {
        let head = if opts.mer { (size as usize).min(warp) } else { size as usize };
        if i > 0 {
            head_tail.push(' ');
        }
        write!(head_tail, "{head}/{}", size as usize - head).unwrap();
    }
    tracer.instant(
        "driver",
        format!("worklist {mid:?}"),
        ts_ns,
        1,
        vec![
            ("rounds", tele.rounds.into()),
            ("nodes_processed", tele.nodes_processed.into()),
            ("max_worklist", tele.max_worklist.into()),
            ("head_tail_per_round", head_tail.into()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_analysis::{analyze_app, StoreKind};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    fn prepared(seed: u64) -> (gdroid_apk::App, CallGraph, Vec<MethodId>) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        (app, cg, roots)
    }

    /// A full, nothing-pre-solved GDroid run on an existing device.
    fn analyze_on(
        device: &mut Device,
        app: &gdroid_apk::App,
        cg: &CallGraph,
        roots: &[MethodId],
        exec: ExecMode,
    ) -> Result<GpuAnalysis, DeviceFault> {
        let none = HashMap::new();
        gpu_analyze_app_on(device, &app.program, cg, roots, OptConfig::gdroid(), &none, None, exec)
    }

    #[test]
    fn gpu_analysis_matches_cpu_reference_exactly() {
        let (app, cg, roots) = prepared(4001);
        let cpu = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        for opts in OptConfig::ladder() {
            let gpu = gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), opts);
            assert_eq!(gpu.facts.len(), cpu.facts.len(), "{opts}");
            for (mid, cpu_store) in &cpu.facts {
                let gpu_store = &gpu.facts[mid];
                for node in 0..cpu_store.node_count() {
                    assert_eq!(
                        cpu_store.snapshot(node).words(),
                        gpu_store.snapshot(node).words(),
                        "{opts}: facts differ at {mid:?} node {node}"
                    );
                }
            }
            assert_eq!(gpu.summaries, cpu.summaries, "{opts}: summaries differ");
        }
    }

    #[test]
    fn gdroid_is_faster_than_plain() {
        let (app, cg, roots) = prepared(4002);
        let plain = gpu_analyze_app(
            &app.program,
            &cg,
            &roots,
            DeviceConfig::tesla_p40(),
            OptConfig::plain(),
        );
        let gdroid = gpu_analyze_app(
            &app.program,
            &cg,
            &roots,
            DeviceConfig::tesla_p40(),
            OptConfig::gdroid(),
        );
        assert!(
            gdroid.stats.total_ns < plain.stats.total_ns,
            "GDroid {} >= plain {}",
            gdroid.stats.total_ns,
            plain.stats.total_ns
        );
    }

    #[test]
    fn plain_kernel_has_device_allocations() {
        let (app, cg, roots) = prepared(4003);
        let plain =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::plain());
        let mat =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::mat());
        assert!(plain.stats.device_allocations > 0);
        // MAT only allocates planned buffers, never from kernels.
        assert_eq!(mat.stats.device_allocations, 0);
    }

    #[test]
    fn divergence_drops_with_grp() {
        let (app, cg, roots) = prepared(4004);
        let mat =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::mat());
        let grp =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::mat_grp());
        assert!(
            grp.stats.divergence_factor <= mat.stats.divergence_factor,
            "GRP divergence {} > MAT {}",
            grp.stats.divergence_factor,
            mat.stats.divergence_factor
        );
    }

    #[test]
    fn mer_reduces_rounds_against_mat_grp() {
        let (app, cg, roots) = prepared(4005);
        let base =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::mat_grp());
        let mer =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
        // MER postpones tails, so per-app node processings shrink (or stay
        // equal on tiny worklists) — the Table II iteration-reduction
        // effect shows on total processed nodes.
        assert!(
            mer.telemetry.nodes_processed <= base.telemetry.nodes_processed,
            "MER processed more nodes ({} > {})",
            mer.telemetry.nodes_processed,
            base.telemetry.nodes_processed
        );
    }

    #[test]
    fn stats_profile_is_populated() {
        let (app, cg, roots) = prepared(4006);
        let run =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
        let p = &run.stats.profile;
        assert_eq!(p.total_rounds, run.telemetry.rounds);
        let sum = p.le_32 + p.le_64 + p.gt_64;
        assert!((sum - 1.0).abs() < 1e-9, "buckets must sum to 1: {sum}");
        assert!(run.stats.total_ns > 0.0);
        assert!(run.stats.kernel_ns > 0.0);
    }

    #[test]
    fn reused_device_matches_fresh_device() {
        // One long-lived device analyzing two apps back-to-back must give
        // each the same result a fresh device would.
        let mut device = Device::new(DeviceConfig::tiny());
        for seed in [4007u64, 4008] {
            let (app, cg, roots) = prepared(seed);
            let reused = analyze_on(&mut device, &app, &cg, &roots, ExecMode::MultiLaunch)
                .expect("no fault plan installed");
            let fresh = gpu_analyze_app(
                &app.program,
                &cg,
                &roots,
                DeviceConfig::tiny(),
                OptConfig::gdroid(),
            );
            assert_eq!(reused.summaries, fresh.summaries, "seed {seed}");
            assert_eq!(reused.stats.total_ns, fresh.stats.total_ns, "seed {seed}: timing drifted");
        }
    }

    #[test]
    fn persistent_matches_multi_launch_facts_with_one_launch() {
        for seed in [4101u64, 4102, 4103] {
            let (app, cg, roots) = prepared(seed);
            let mut md = Device::new(DeviceConfig::tiny());
            let multi = analyze_on(&mut md, &app, &cg, &roots, ExecMode::MultiLaunch).unwrap();
            let mut pd = Device::new(DeviceConfig::tiny());
            let per = analyze_on(&mut pd, &app, &cg, &roots, ExecMode::Persistent).unwrap();
            // The fixpoint is unique: facts and summaries byte-identical.
            assert_eq!(per.summaries, multi.summaries, "seed {seed}");
            assert_eq!(per.facts.len(), multi.facts.len());
            for (mid, m) in &multi.facts {
                assert_eq!(per.facts[mid].flat_words(), m.flat_words(), "seed {seed} {mid:?}");
            }
            // One resident launch replaces the launch-per-round loop.
            assert_eq!(per.stats.launches, 1, "seed {seed}");
            assert_eq!(pd.launches(), 1, "seed {seed}");
            assert!(multi.stats.launches >= 1);
            // With more than one round, the saved per-round launch and
            // transfer overheads beat the added grid syncs + queue ops.
            if multi.stats.launches > 1 {
                assert!(
                    per.stats.total_ns < multi.stats.total_ns,
                    "seed {seed}: persistent {} !< multi {}",
                    per.stats.total_ns,
                    multi.stats.total_ns
                );
            }
        }
    }

    #[test]
    fn persistent_fault_at_submission_aborts_and_retry_succeeds() {
        use gdroid_gpusim::FaultPlan;
        let (app, cg, roots) = prepared(4104);
        let mut device = Device::new(DeviceConfig::tiny());
        device.set_fault_plan(Some(FaultPlan { period: 1, budget: 1 }));
        let err = analyze_on(&mut device, &app, &cg, &roots, ExecMode::Persistent);
        assert!(err.is_err(), "the one resident launch must fault");
        let retry = analyze_on(&mut device, &app, &cg, &roots, ExecMode::Persistent)
            .expect("budget exhausted, retry must succeed");
        let fresh =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
        assert_eq!(retry.summaries, fresh.summaries);
        assert_eq!(device.faults_injected(), 1);
    }

    #[test]
    fn injected_fault_aborts_and_retry_succeeds() {
        use gdroid_gpusim::FaultPlan;
        let (app, cg, roots) = prepared(4009);
        let mut device = Device::new(DeviceConfig::tiny());
        // Fault the very first launch, once.
        device.set_fault_plan(Some(FaultPlan { period: 1, budget: 1 }));
        let err = analyze_on(&mut device, &app, &cg, &roots, ExecMode::MultiLaunch);
        assert!(err.is_err(), "first launch must fault");
        // The retry runs fault-free (budget exhausted) and matches fresh.
        let retry = analyze_on(&mut device, &app, &cg, &roots, ExecMode::MultiLaunch)
            .expect("budget exhausted, retry must succeed");
        let fresh =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
        assert_eq!(retry.summaries, fresh.summaries);
        assert_eq!(device.faults_injected(), 1);
    }
}
