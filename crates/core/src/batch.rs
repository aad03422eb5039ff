//! Co-resident multi-app batching: shared kernel launches over several
//! apps' pending methods.
//!
//! Solo, a small app with three pending methods occupies the whole device
//! while most block slots idle. This policy runs several *independent*
//! apps' [`Fixpoint`]s side by side: each super-round picks apps
//! round-robin until their combined pending-method count covers the SM
//! count and launches all their blocks as one kernel, tagged by app via
//! [`gdroid_gpusim::Device::try_launch_sourced`].
//!
//! ## Attribution rules (DESIGN.md §11)
//!
//! * **Outcomes are solo-bit-identical.** Apps share no call-graph edges,
//!   block results are folded in submission order, and facts are
//!   derived host-side from each block's own `MatrixStore` — batching
//!   changes *when* blocks run, never what they compute. Per-app layouts
//!   are planned sequentially into disjoint arena regions; because the
//!   arena allocator aligns to 256 bytes (a multiple of the 128-byte
//!   transaction granularity), shifting an app's whole region preserves
//!   every coalescing count.
//! * **Per-app timing comes from re-packing.** The per-block dilation
//!   factors depend only on the *configured* blocks-per-SM, so re-packing
//!   the blocks one app contributed ([`gdroid_gpusim::Device::repack`])
//!   reproduces the [`gdroid_gpusim::KernelStats`] a solo launch of those
//!   blocks would produce; each app's chunk sequence — and therefore its
//!   dual-buffered pipeline and `GpuRunStats` — is bit-identical to solo.
//!   This holds for the allocation-free rungs, [`OptConfig::mat`] and up:
//!   [`OptConfig::plain`]'s kernel-side `malloc` cost grows with the
//!   co-resident blocks, so the vetting layer refuses plain groups.
//! * **Heap attribution is per-block.** Device-heap allocation counts and
//!   bytes are summed from each app's own block stats instead of the
//!   shared heap counters.
//!
//! The *batch* makespan runs the combined launch chunks through the same
//! dual-buffering pipeline; sharing launch and transfer overheads across
//! apps is what makes it no worse than the sum of solo makespans.

use crate::driver::WorklistKernel;
use crate::engine::EngineAnalysis;
use crate::fixpoint::{AppInput, Fixpoint};
use crate::layout::{plan_layout, AppLayout};
use crate::opts::OptConfig;
use crate::stats::GpuRunStats;
use gdroid_gpusim::{dual_buffered, Device, DeviceFault};

/// Batch-level statistics of one co-resident run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Shared kernel launches performed.
    pub launches: usize,
    /// Makespan of the batched pipeline (combined launches), ns.
    pub makespan_ns: f64,
    /// Kernel-engine busy time of the combined pipeline, ns.
    pub kernel_ns: f64,
    /// Copy-engine busy time of the combined pipeline, ns.
    pub copy_ns: f64,
    /// Transfer time the combined pipeline failed to hide, ns.
    pub exposed_copy_ns: f64,
    /// Mean *whole-device* slot utilization over the shared launches:
    /// busy block cycles over makespan × every block slot the device has
    /// (not just occupied ones) — the "filled idle SMs" measure, which
    /// grows with co-residency.
    pub utilization: f64,
    /// Mean number of distinct apps per shared launch.
    pub mean_coresidency: f64,
}

/// One app's fixpoint plus its solo-equivalent accounting.
struct AppCursor<'a> {
    fx: Fixpoint<'a>,
    /// Planned into the app's own arena region of the shared device.
    layout: AppLayout,
    stats: GpuRunStats,
    /// This app's own `(h2d, kernel ns, d2h)` chunks — the solo sequence.
    chunks: Vec<(u64, f64, u64)>,
    mallocs: u64,
    malloc_bytes: u64,
}

/// Analyzes several independent apps co-resident on an existing device
/// (policy and attribution rules: see the module docs): one solo-identical
/// [`EngineAnalysis`] per app, in input order, plus the batch-level
/// pipeline stats. Each app's `presolved` and `slice` shape its own
/// schedule exactly as they do solo. The device is [`Device::reset`]
/// once; an injected fault aborts the whole batch with an `Err` the
/// caller can retry app by app.
pub fn gpu_analyze_batch_on(
    device: &mut Device,
    apps: &[AppInput<'_>],
    opts: OptConfig,
) -> Result<(Vec<EngineAnalysis>, BatchStats), DeviceFault> {
    device.reset();
    let tracer = device.tracer().clone();
    let warp = device.config.warp_size;
    let mut cursors: Vec<AppCursor<'_>> = apps
        .iter()
        .map(|app| {
            let fx = Fixpoint::new(*app);
            let layout = plan_layout(app.program, device, &fx.spaces, &fx.cfgs, fx.methods(), opts);
            AppCursor {
                fx,
                layout,
                stats: GpuRunStats::default(),
                chunks: Vec::new(),
                mallocs: 0,
                malloc_bytes: 0,
            }
        })
        .collect();
    if tracer.enabled() {
        tracer.instant(
            "batch",
            "batch-config",
            device.clock_ns(),
            0,
            vec![
                ("apps", apps.len().into()),
                ("mat", opts.mat.into()),
                ("grp", opts.grp.into()),
                ("mer", opts.mer.into()),
            ],
        );
    }

    // Combined `(h2d, kernel ns, d2h)` per shared launch — the batch
    // pipeline the makespan is computed from.
    let mut batch_chunks: Vec<(u64, f64, u64)> = Vec::new();
    let mut batch = BatchStats::default();
    let mut utilization_sum = 0.0f64;
    let mut coresidency_sum = 0usize;

    loop {
        let active: Vec<usize> = (0..cursors.len()).filter(|&i| !cursors[i].fx.done()).collect();
        if active.is_empty() {
            break;
        }
        // Round-robin fill: rotate the starting app each super-round so no
        // app's layers consistently wait behind another's, and add apps
        // until the combined pending blocks cover the SMs.
        let super_round = batch_chunks.len();
        let start = super_round % active.len();
        let mut chosen: Vec<usize> = Vec::new();
        let mut demand = 0usize;
        for k in 0..active.len() {
            let idx = active[(start + k) % active.len()];
            chosen.push(idx);
            demand += cursors[idx].fx.pending().len();
            if demand >= device.config.sm_count {
                break;
            }
        }
        chosen.sort_unstable();

        // --- one shared launch: every chosen app's pending blocks, per
        // app in its solo order, tagged with the app's index -------------
        let round_start_ns = device.clock_ns();
        let blocks: Vec<(u32, gdroid_gpusim::BlockFn<'_>)> = chosen
            .iter()
            .flat_map(|&i| {
                let c = &cursors[i];
                let kernel = WorklistKernel { layout: &c.layout, opts, warp };
                c.fx.blocks(kernel).into_iter().map(move |b| (i as u32, b))
            })
            .collect();
        let sourced = device.try_launch_sourced(blocks)?;
        let now_ns = device.clock_ns();

        // --- attribution: each app's blocks re-packed as a solo launch,
        // then its results absorbed and its own schedule advanced ---------
        // ROADMAP 4d: the members' blocks partition the launch in launch
        // order, so every additive counter attributed to them sums to it.
        let attributed = || chosen.iter().flat_map(|&i| sourced.blocks_of(i as u32));
        debug_assert_eq!(device.repack(&attributed().collect::<Vec<_>>()), sourced.combined);
        let (mut combined_h2d, mut combined_d2h) = (0u64, 0u64);
        for &i in &chosen {
            let own = sourced.blocks_of(i as u32);
            let packed = device.repack(&own);
            let c = &mut cursors[i];
            let kernel = WorklistKernel { layout: &c.layout, opts, warp };
            c.mallocs += own.iter().map(|b| b.mallocs).sum::<u64>();
            c.malloc_bytes += own.iter().map(|b| b.malloc_bytes).sum::<u64>();
            let (h2d, d2h) = c.fx.pending_bytes(kernel);
            combined_h2d += h2d;
            combined_d2h += d2h;
            c.chunks.push((h2d, packed.time_ns(&device.config), d2h));
            c.stats.absorb_kernel(&packed);
            c.fx.absorb(|mid, tele| {
                if tracer.enabled() {
                    kernel.trace(&tracer, now_ns, mid, tele);
                }
                c.stats.record_method();
            });
            c.fx.advance();
        }
        batch_chunks.push((combined_h2d, sourced.combined.time_ns(&device.config), combined_d2h));
        let device_span =
            sourced.combined.makespan_cycles as f64 * device.config.block_slots().max(1) as f64;
        utilization_sum += if device_span > 0.0 {
            sourced.combined.total_block_cycles as f64 / device_span
        } else {
            1.0
        };
        coresidency_sum += chosen.len();
        if tracer.enabled() {
            tracer.span(
                "batch",
                format!("batch round {super_round}"),
                round_start_ns,
                now_ns - round_start_ns,
                0,
                vec![
                    ("apps", chosen.len().into()),
                    ("blocks", sourced.per_block.len().into()),
                    ("h2d_bytes", combined_h2d.into()),
                    ("d2h_bytes", combined_d2h.into()),
                ],
            );
        }
    }

    // --- finish: per-app solo pipelines + the combined batch pipeline ---
    let combined = dual_buffered(&device.config, &batch_chunks);
    batch.launches = batch_chunks.len();
    batch.makespan_ns = combined.total_ns;
    batch.kernel_ns = combined.kernel_ns;
    batch.copy_ns = combined.copy_ns;
    batch.exposed_copy_ns = combined.exposed_copy_ns;
    batch.utilization =
        if batch.launches == 0 { 1.0 } else { utilization_sum / batch.launches as f64 };
    batch.mean_coresidency =
        if batch.launches == 0 { 0.0 } else { coresidency_sum as f64 / batch.launches as f64 };
    if tracer.enabled() {
        tracer.instant(
            "batch",
            "batch-pipeline",
            device.clock_ns(),
            0,
            vec![
                ("launches", batch.launches.into()),
                ("makespan_ns", batch.makespan_ns.into()),
                ("mean_coresidency", batch.mean_coresidency.into()),
            ],
        );
    }

    let sanitizer = device.san_report();
    let results = cursors
        .into_iter()
        .map(|mut c| {
            let pipeline = dual_buffered(&device.config, &c.chunks);
            c.stats.finish(pipeline, c.mallocs, c.malloc_bytes);
            c.fx.finish(c.stats, sanitizer.clone())
        })
        .collect();
    Ok((results, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{gpu_analyze_app, gpu_analyze_app_on};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::DeviceConfig;
    use gdroid_icfg::{prepare_app, CallGraph};
    use gdroid_ir::MethodId;

    fn prepared(seed: u64) -> (gdroid_apk::App, CallGraph, Vec<MethodId>) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        (app, cg, roots)
    }

    fn gpu_analyze_batch(
        apps: &[AppInput<'_>],
        device_config: DeviceConfig,
        opts: OptConfig,
    ) -> (Vec<EngineAnalysis>, BatchStats) {
        let mut device = Device::new(device_config);
        gpu_analyze_batch_on(&mut device, apps, opts).expect("a fresh device has no fault plan")
    }

    fn assert_matches_solo(batched: &EngineAnalysis, solo: &EngineAnalysis, ctx: &str) {
        assert_eq!(batched.summaries, solo.summaries, "{ctx}: summaries differ");
        assert_eq!(batched.facts.len(), solo.facts.len(), "{ctx}");
        for (mid, solo_store) in &solo.facts {
            let b = &batched.facts[mid];
            for node in 0..solo_store.node_count() {
                assert_eq!(
                    b.snapshot(node).words(),
                    solo_store.snapshot(node).words(),
                    "{ctx}: facts differ at {mid:?} node {node}"
                );
            }
        }
        assert_eq!(batched.stats.total_ns, solo.stats.total_ns, "{ctx}: total_ns drifted");
        assert_eq!(batched.stats.kernel_ns, solo.stats.kernel_ns, "{ctx}: kernel_ns drifted");
        assert_eq!(batched.stats.launches, solo.stats.launches, "{ctx}: launch count drifted");
        assert_eq!(batched.stats.blocks, solo.stats.blocks, "{ctx}: block count drifted");
        assert_eq!(
            batched.telemetry.nodes_processed, solo.telemetry.nodes_processed,
            "{ctx}: telemetry drifted"
        );
        assert_eq!(batched.telemetry.rounds, solo.telemetry.rounds, "{ctx}");
    }

    #[test]
    fn batch_of_one_equals_solo() {
        let (app, cg, roots) = prepared(7001);
        let solo = gpu_analyze_app(
            &app.program,
            &cg,
            &roots,
            DeviceConfig::tesla_p40(),
            OptConfig::gdroid(),
        );
        let batch = gpu_analyze_batch(
            &[AppInput::new(&app.program, &cg, &roots)],
            DeviceConfig::tesla_p40(),
            OptConfig::gdroid(),
        );
        assert_eq!(batch.0.len(), 1);
        assert_matches_solo(&batch.0[0], &solo, "batch of one");
        assert!((batch.1.mean_coresidency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coresident_apps_match_solo_bit_for_bit() {
        let prepped: Vec<_> = [7002u64, 7003, 7004, 7005].iter().map(|&s| prepared(s)).collect();
        let apps: Vec<AppInput<'_>> =
            prepped.iter().map(|(app, cg, roots)| AppInput::new(&app.program, cg, roots)).collect();
        for opts in [OptConfig::mat(), OptConfig::gdroid()] {
            let batch = gpu_analyze_batch(&apps, DeviceConfig::tesla_p40(), opts);
            let mut solo_makespan_sum = 0.0f64;
            for (i, (app, cg, roots)) in prepped.iter().enumerate() {
                let solo =
                    gpu_analyze_app(&app.program, cg, roots, DeviceConfig::tesla_p40(), opts);
                assert_matches_solo(&batch.0[i], &solo, &format!("{opts} app {i}"));
                solo_makespan_sum += solo.stats.total_ns;
            }
            assert!(
                batch.1.makespan_ns <= solo_makespan_sum,
                "{opts}: batch makespan {} > sum of solo {}",
                batch.1.makespan_ns,
                solo_makespan_sum
            );
            assert!(batch.1.mean_coresidency > 1.0, "{opts}: apps never co-resided");
        }
    }

    #[test]
    fn batch_on_reused_device_matches_fresh() {
        let prepped: Vec<_> = [7006u64, 7007].iter().map(|&s| prepared(s)).collect();
        let apps: Vec<AppInput<'_>> =
            prepped.iter().map(|(app, cg, roots)| AppInput::new(&app.program, cg, roots)).collect();
        let mut device = Device::new(DeviceConfig::tesla_p40());
        // Dirty the device first, then batch on it.
        let (warm, warm_cg, warm_roots) = prepared(7008);
        let warm_input = AppInput::new(&warm.program, &warm_cg, &warm_roots);
        gpu_analyze_app_on(&mut device, &warm_input, OptConfig::gdroid()).unwrap();
        let reused = gpu_analyze_batch_on(&mut device, &apps, OptConfig::gdroid()).unwrap();
        let fresh = gpu_analyze_batch(&apps, DeviceConfig::tesla_p40(), OptConfig::gdroid());
        for i in 0..apps.len() {
            assert_eq!(reused.0[i].summaries, fresh.0[i].summaries);
            assert_eq!(reused.0[i].stats.total_ns, fresh.0[i].stats.total_ns);
        }
        assert_eq!(reused.1.makespan_ns, fresh.1.makespan_ns);
    }

    #[test]
    fn batch_fault_aborts_and_retry_succeeds() {
        use gdroid_gpusim::FaultPlan;
        let (app, cg, roots) = prepared(7009);
        let apps = [AppInput::new(&app.program, &cg, &roots)];
        let mut device = Device::new(DeviceConfig::tesla_p40());
        device.set_fault_plan(Some(FaultPlan { period: 1, budget: 1 }));
        assert!(gpu_analyze_batch_on(&mut device, &apps, OptConfig::gdroid()).is_err());
        let retry = gpu_analyze_batch_on(&mut device, &apps, OptConfig::gdroid())
            .expect("budget exhausted");
        let fresh = gpu_analyze_batch(&apps, DeviceConfig::tesla_p40(), OptConfig::gdroid());
        assert_eq!(retry.0[0].summaries, fresh.0[0].summaries);
    }

    #[test]
    fn tracing_does_not_perturb_batch() {
        let prepped: Vec<_> = [7010u64, 7011].iter().map(|&s| prepared(s)).collect();
        let apps: Vec<AppInput<'_>> =
            prepped.iter().map(|(app, cg, roots)| AppInput::new(&app.program, cg, roots)).collect();
        let mut traced_dev = Device::new(DeviceConfig::tesla_p40());
        traced_dev.set_tracer(gdroid_trace::Tracer::enabled_new());
        let traced = gpu_analyze_batch_on(&mut traced_dev, &apps, OptConfig::gdroid()).unwrap();
        let plain = gpu_analyze_batch(&apps, DeviceConfig::tesla_p40(), OptConfig::gdroid());
        for i in 0..apps.len() {
            assert_eq!(traced.0[i].summaries, plain.0[i].summaries);
            assert_eq!(traced.0[i].stats.total_ns, plain.0[i].stats.total_ns);
        }
        assert_eq!(traced.1.makespan_ns, plain.1.makespan_ns);
        assert!(!traced_dev.tracer().events().is_empty(), "batch emitted no trace events");
    }
}
