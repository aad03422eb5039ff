//! The solo launch policy: one app alone on one device, producing the
//! IDFG and the simulated execution time.
//!
//! The schedule — bottom-up over call-graph layers, one block per method,
//! SCCs re-launched until their summaries stabilize, summaries derived
//! host-side between launches — lives in [`crate::fixpoint`]. What this
//! module adds is how a round reaches the device and what it costs: one
//! kernel launch per round, each a `(h2d, kernel, d2h)` chunk of the
//! dual-buffering pipeline.

use crate::engine::EngineAnalysis;
use crate::fixpoint::{AppInput, Fixpoint, MethodBlock};
use crate::kernel::run_method_block;
use crate::layout::{plan_layout, AppLayout};
use crate::opts::OptConfig;
use crate::stats::GpuRunStats;
use gdroid_analysis::WorklistTelemetry;
use gdroid_gpusim::{dual_buffered, BlockCtx, Device, DeviceConfig, DeviceFault};
use gdroid_icfg::CallGraph;
use gdroid_ir::{MethodId, Program};
use gdroid_trace::Tracer;

/// Analyzes one app on a fresh simulated GPU: a full run with nothing
/// pre-solved.
pub fn gpu_analyze_app(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    device_config: DeviceConfig,
    opts: OptConfig,
) -> EngineAnalysis {
    let mut device = Device::new(device_config);
    let input = AppInput::new(program, cg, roots);
    gpu_analyze_app_on(&mut device, &input, opts).expect("a fresh device has no fault plan")
}

/// Analyzes one app on an existing, long-lived device — the one general
/// entry point. The device is [`Device::reset`] first (each app gets a
/// clean arena), and any injected fault ([`gdroid_gpusim::FaultPlan`])
/// aborts the analysis mid-flight with an `Err` the caller can retry.
///
/// The input's `presolved` and `slice` shape the schedule as
/// [`Fixpoint::new`] documents: store hits are injected and never launch
/// (no device buffers, no bytes moved — the warm-corpus win), a slice
/// launches only its members, and an empty slice performs zero launches.
pub fn gpu_analyze_app_on(
    device: &mut Device,
    input: &AppInput<'_>,
    opts: OptConfig,
) -> Result<EngineAnalysis, DeviceFault> {
    device.reset();
    let fx = Fixpoint::new(*input);
    let layout = plan_layout(input.program, device, &fx.spaces, &fx.cfgs, fx.methods(), opts);
    if device.tracer().enabled() {
        device.tracer().instant(
            "driver",
            "opt-config",
            device.clock_ns(),
            0,
            vec![
                ("mat", opts.mat.into()),
                ("grp", opts.grp.into()),
                ("mer", opts.mer.into()),
                ("methods", fx.methods().len().into()),
                ("presolved", input.presolved.len().into()),
                ("layers", fx.layer_count().into()),
            ],
        );
    }
    let kernel = WorklistKernel { layout: &layout, opts, warp: device.config.warp_size };
    run_solo(device, fx, kernel)
}

/// The solo policy over an already-scheduled app whose layout `kernel`
/// carries: launches round by round, runs the chunks through dual
/// buffering, and returns the finished analysis. The caller has reset the
/// device and planned the layout.
fn run_solo(
    device: &mut Device,
    mut fx: Fixpoint<'_>,
    kernel: WorklistKernel<'_>,
) -> Result<EngineAnalysis, DeviceFault> {
    let tracer = device.tracer().clone();
    let mut stats = GpuRunStats::default();
    // (h2d bytes, kernel ns, d2h bytes) per launch, for the transfer
    // pipeline model.
    let mut chunks: Vec<(u64, f64, u64)> = Vec::new();

    while !fx.done() {
        let ((layer, round), launched) = (fx.position(), fx.pending().len());
        let round_start_ns = device.clock_ns();
        let (h2d, d2h) = fx.pending_bytes(kernel);
        let kernel_stats = device.try_launch(fx.blocks(kernel))?;
        chunks.push((h2d, kernel_stats.time_ns(&device.config), d2h));
        stats.absorb_kernel(&kernel_stats);

        let now_ns = device.clock_ns();
        fx.absorb(|mid, tele| {
            if tracer.enabled() {
                kernel.trace(&tracer, now_ns, mid, tele);
            }
            stats.record_method();
        });
        let changed = fx.advance();
        if tracer.enabled() {
            tracer.span(
                "driver",
                format!("layer {layer} round {round}"),
                round_start_ns,
                now_ns - round_start_ns,
                0,
                vec![
                    ("methods_launched", launched.into()),
                    ("summaries_changed", changed.into()),
                    ("h2d_bytes", h2d.into()),
                    ("d2h_bytes", d2h.into()),
                ],
            );
        }
    }

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
    stats.finish(pipeline, device.heap.allocations, device.heap.bytes);
    Ok(fx.finish(stats, device.san_report()))
}

/// The paper's worklist kernel ([`run_method_block`]) over one planned
/// [`AppLayout`], at one rung of the optimization ladder.
#[derive(Clone, Copy)]
pub(crate) struct WorklistKernel<'a> {
    pub(crate) layout: &'a AppLayout,
    pub(crate) opts: OptConfig,
    /// The device's warp size (the MER head-list length).
    pub(crate) warp: usize,
}

impl WorklistKernel<'_> {
    /// `(h2d, d2h)` bytes one launch of `mid` moves.
    pub fn bytes(&self, mid: MethodId) -> (u64, u64) {
        let ml = &self.layout.methods[&mid];
        (ml.h2d_bytes, ml.d2h_bytes)
    }

    /// Solves `b.store` to its fixed point inside one thread block.
    pub fn run(&self, ctx: &mut BlockCtx<'_>, b: &mut MethodBlock<'_>) -> WorklistTelemetry {
        let ml = &self.layout.methods[&b.mid];
        run_method_block(ctx, b, ml, self.opts)
    }

    /// One instant per solved method with its worklist telemetry,
    /// including the per-round head/tail split the MER regime induces
    /// (head = the warp-sized list the kernel processes, tail = the
    /// postponed rest).
    pub fn trace(&self, tracer: &Tracer, ts_ns: u64, mid: MethodId, tele: &WorklistTelemetry) {
        use std::fmt::Write;
        let mut head_tail = String::new();
        for (i, &size) in tele.round_sizes.iter().enumerate() {
            let size = size as usize;
            let head = if self.opts.mer { size.min(self.warp) } else { size };
            if i > 0 {
                head_tail.push(' ');
            }
            write!(head_tail, "{head}/{}", size - head).unwrap();
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
    ) -> Result<EngineAnalysis, DeviceFault> {
        let input = AppInput::new(&app.program, cg, roots);
        gpu_analyze_app_on(device, &input, OptConfig::gdroid())
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
            let reused =
                analyze_on(&mut device, &app, &cg, &roots).expect("no fault plan installed");
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
    fn injected_fault_aborts_and_retry_succeeds() {
        use gdroid_gpusim::FaultPlan;
        let (app, cg, roots) = prepared(4009);
        let mut device = Device::new(DeviceConfig::tiny());
        // Fault the very first launch, once.
        device.set_fault_plan(Some(FaultPlan { period: 1, budget: 1 }));
        let err = analyze_on(&mut device, &app, &cg, &roots);
        assert!(err.is_err(), "first launch must fault");
        // The retry runs fault-free (budget exhausted) and matches fresh.
        let retry = analyze_on(&mut device, &app, &cg, &roots)
            .expect("budget exhausted, retry must succeed");
        let fresh =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
        assert_eq!(retry.summaries, fresh.summaries);
        assert_eq!(device.faults_injected(), 1);
    }
}
