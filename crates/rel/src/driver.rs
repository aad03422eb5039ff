//! The relational analysis driver: `gdroid-core`'s solo launch policy over
//! a kernel whose blocks run semi-naive evaluation instead of a worklist.
//!
//! The host side is not a copy of the worklist driver's — it *is* the
//! worklist driver's: [`Fixpoint`] holds the schedule and [`run_solo`] the
//! launch loop and dual-buffered transfer pipeline (DESIGN.md §18). This
//! module supplies only the [`MethodKernel`], so the engines differ in the
//! device-side evaluation strategy and its modeled cost *by construction*
//! — what makes `BENCH_rel.json` an apples-to-apples comparison.

use crate::kernel::run_method_rel;
use crate::layout::{plan_rel_layout, RelLayout};
use gdroid_analysis::{MatrixStore, MethodSummary, WorklistTelemetry};
use gdroid_core::{run_solo, ExecMode, Fixpoint, GpuAnalysis, MethodBlock, MethodKernel};
use gdroid_gpusim::{BlockCtx, Device, DeviceConfig, DeviceFault};
use gdroid_icfg::CallGraph;
use gdroid_ir::{MethodId, Program};
use gdroid_trace::Tracer;
use std::collections::{HashMap, HashSet};

/// Analyzes one app relationally on a fresh simulated GPU.
pub fn rel_analyze_app(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    device_config: DeviceConfig,
) -> GpuAnalysis {
    let mut device = Device::new(device_config);
    rel_analyze_app_on(&mut device, program, cg, roots, &HashMap::new(), None)
        .expect("a fresh device has no fault plan")
}

/// Analyzes one app relationally on an existing, long-lived device, with
/// the same `presolved` (closed set of summary-store hits) and `slice`
/// (caller-closed demand-driven restriction) contracts as
/// `gdroid_core::gpu_analyze_app_on`.
pub fn rel_analyze_app_on(
    device: &mut Device,
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    presolved: &HashMap<MethodId, (MethodSummary, MatrixStore)>,
    slice: Option<&HashSet<MethodId>>,
) -> Result<GpuAnalysis, DeviceFault> {
    device.reset();
    let fx = Fixpoint::new(program, cg, roots, presolved, slice);
    let layout = plan_rel_layout(device, &fx.spaces, &fx.cfgs, fx.methods());
    if device.tracer().enabled() {
        device.tracer().instant(
            "rel-driver",
            "rel-config",
            device.clock_ns(),
            0,
            vec![
                ("methods", fx.methods().len().into()),
                ("presolved", presolved.len().into()),
                ("layers", fx.layer_count().into()),
            ],
        );
    }
    run_solo(device, fx, RelKernel(&layout), ExecMode::MultiLaunch)
}

/// Semi-naive evaluation ([`run_method_rel`]) over one planned layout.
#[derive(Clone, Copy)]
struct RelKernel<'a>(&'a RelLayout);

impl MethodKernel for RelKernel<'_> {
    const CATEGORY: &'static str = "rel-driver";

    fn bytes(&self, mid: MethodId) -> (u64, u64) {
        let ml = &self.0.methods[&mid];
        (ml.h2d_bytes, ml.d2h_bytes)
    }

    fn run(&self, ctx: &mut BlockCtx<'_>, b: &mut MethodBlock<'_>) -> WorklistTelemetry {
        let ml = &self.0.methods[&b.mid];
        run_method_rel(ctx, b.method, b.space, b.cfg, ml, &b.sites, &mut b.store)
    }

    fn trace(&self, tracer: &Tracer, ts_ns: u64, mid: MethodId, tele: &WorklistTelemetry) {
        tracer.instant(
            Self::CATEGORY,
            format!("semi-naive {mid:?}"),
            ts_ns,
            1,
            vec![
                ("rounds", tele.rounds.into()),
                ("nodes_processed", tele.nodes_processed.into()),
                ("max_delta", tele.max_worklist.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_analysis::{analyze_app, FactStore, StoreKind};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_core::{gpu_analyze_app, OptConfig};
    use gdroid_icfg::prepare_app;

    fn prepared(seed: u64) -> (gdroid_apk::App, CallGraph, Vec<MethodId>) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        (app, cg, roots)
    }

    #[test]
    fn rel_analysis_matches_cpu_reference_exactly() {
        let (app, cg, roots) = prepared(9201);
        let cpu = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let rel = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        assert_eq!(rel.facts.len(), cpu.facts.len());
        for (mid, cpu_store) in &cpu.facts {
            let rel_store = &rel.facts[mid];
            for node in 0..cpu_store.node_count() {
                assert_eq!(
                    cpu_store.snapshot(node).words(),
                    rel_store.snapshot(node).words(),
                    "facts differ at {mid:?} node {node}"
                );
            }
        }
        assert_eq!(rel.summaries, cpu.summaries);
    }

    #[test]
    fn rel_analysis_matches_worklist_gpu_exactly() {
        let (app, cg, roots) = prepared(9202);
        let wl =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
        let rel = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        assert_eq!(rel.summaries, wl.summaries);
        for (mid, wl_store) in &wl.facts {
            assert_eq!(
                wl_store.flat_words(),
                rel.facts[mid].flat_words(),
                "facts differ at {mid:?}"
            );
        }
    }

    #[test]
    fn rel_timing_is_deterministic_and_counts_joins() {
        let (app, cg, roots) = prepared(9203);
        let a = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        let b = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        assert_eq!(a.stats.total_ns, b.stats.total_ns);
        assert_eq!(a.stats.join_probes, b.stats.join_probes);
        assert!(a.stats.join_probes > 0, "relational runs must probe indexes");
        assert!(a.stats.scan_rows > 0, "relational runs must scan relations");
    }

    #[test]
    fn rel_passes_the_sanitizer() {
        let (app, cg, roots) = prepared(9204);
        let rel = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny().with_sanitizer());
        let report = rel.sanitizer.expect("sanitizer was enabled");
        assert!(report.is_clean(), "sanitizer findings: {report:?}");
    }

    #[test]
    fn rel_sliced_with_full_slice_matches_full_run() {
        // The full reachable set is trivially caller-closed, so the
        // restricted schedule must reproduce the unrestricted run exactly.
        let (app, cg, roots) = prepared(9205);
        let slice: std::collections::HashSet<MethodId> =
            cg.reachable_from(&roots).into_iter().collect();
        let full = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        let mut device = Device::new(DeviceConfig::tiny());
        let none = HashMap::new();
        let sliced =
            rel_analyze_app_on(&mut device, &app.program, &cg, &roots, &none, Some(&slice))
                .expect("no fault plan");
        assert_eq!(sliced.summaries, full.summaries);
        assert_eq!(sliced.facts.len(), full.facts.len());
        for (mid, f) in &full.facts {
            assert_eq!(f.flat_words(), sliced.facts[mid].flat_words(), "{mid:?}");
        }
    }

    /// The rel row of the launch-policy conformance table
    /// (`crates/core/tests/policy_conformance.rs`): same recursion-heavy
    /// app, with and without a pre-solved bottom half of the schedule.
    #[test]
    fn rel_policy_reaches_the_reference_fixpoint_under_recursion() {
        use gdroid_icfg::CallLayers;
        let config = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
        let mut app = generate_app(0, 0x5cc, &config);
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let cpu = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let layers = CallLayers::compute(&cg, &roots);
        assert!(layers.scc_members.iter().any(|m| m.len() > 1), "no multi-member SCC generated");
        // Calls only go down (or stay inside an SCC), so the layers below
        // a cut are callee-closed.
        let cut = (layers.layer_count() / 2) as u32;
        let presolved: HashMap<_, _> = layers
            .scc_of
            .keys()
            .filter(|&&m| layers.layer_of(m).unwrap() < cut)
            .map(|&m| (m, (cpu.summaries[&m].clone(), cpu.facts[&m].clone())))
            .collect();
        assert!(!presolved.is_empty());
        for (label, pre) in [("cold", &HashMap::new()), ("presolved", &presolved)] {
            let mut device = Device::new(DeviceConfig::tiny());
            let rel = rel_analyze_app_on(&mut device, &app.program, &cg, &roots, pre, None)
                .expect("no fault plan");
            assert_eq!(rel.summaries, cpu.summaries, "rel {label}");
            assert_eq!(rel.facts.len(), cpu.facts.len(), "rel {label}");
            for (mid, f) in &cpu.facts {
                assert_eq!(f.flat_words(), rel.facts[mid].flat_words(), "rel {label} {mid:?}");
            }
            if pre.is_empty() {
                // More launches than layers: some SCC went round again.
                assert!(rel.stats.launches > layers.layer_count(), "no SCC re-launched");
            }
        }
    }
}
