//! Host-thread invariance: a device that may run a launch's blocks on four
//! host threads computes and models exactly what a one-thread device does,
//! under every launch policy and every rung of the optimization ladder.
//!
//! Both devices trace. A launch span carries its `KernelStats` totals and
//! each block span its slot (the track) and its start and end cycles (the
//! timestamps), so equal traces mean equal launch stats and schedules; the
//! worklist instants are emitted as `Fixpoint::absorb` folds the blocks, so
//! they also pin the fold order.

use gdroid_apk::{generate_app, App, GenConfig};
use gdroid_core::{
    gpu_analyze_app_on, gpu_analyze_batch_on, AppInput, EngineAnalysis, ExecMode, OptConfig,
};
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_icfg::{prepare_app, CallGraph};
use gdroid_ir::MethodId;
use gdroid_trace::Tracer;

struct Case {
    app: App,
    cg: CallGraph,
    roots: Vec<MethodId>,
}

fn case(seed: u64) -> Case {
    let mut app = generate_app(0, seed, &GenConfig::tiny());
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    Case { app, cg, roots }
}

fn traced_device(config: DeviceConfig, host_threads: usize) -> Device {
    let mut device = Device::new(config);
    device.set_host_threads(host_threads);
    device.set_tracer(Tracer::enabled_new());
    device
}

fn assert_same_analysis(row: &str, one: &EngineAnalysis, four: &EngineAnalysis) {
    assert_eq!(four.summaries, one.summaries, "{row}: summaries");
    assert_eq!(four.facts.len(), one.facts.len(), "{row}: fact-map size");
    for (mid, facts) in &one.facts {
        assert_eq!(four.facts[mid].flat_words(), facts.flat_words(), "{row}: facts of {mid:?}");
    }
    assert_eq!(four.stats, one.stats, "{row}: GpuRunStats");
    assert_eq!(
        format!("{:?}", four.telemetry),
        format!("{:?}", one.telemetry),
        "{row}: telemetry (round sizes in fold order)"
    );
    assert_eq!(four.sanitizer, one.sanitizer, "{row}: sanitizer report");
}

#[test]
fn solo_runs_are_host_thread_invariant() {
    for seed in [0x7a1u64, 0x7a2, 0x7a3] {
        let c = case(seed);
        for opts in OptConfig::ladder() {
            for exec in ExecMode::ALL {
                let run = |host_threads| {
                    let mut device = traced_device(DeviceConfig::tiny(), host_threads);
                    let run = gpu_analyze_app_on(
                        &mut device,
                        &AppInput::new(&c.app.program, &c.cg, &c.roots),
                        opts,
                        exec,
                    )
                    .expect("no fault plan");
                    (run, device.tracer().events(), device.heap.allocations)
                };
                let (one, one_trace, one_allocations) = run(1);
                let (four, four_trace, four_allocations) = run(4);
                let row = format!("seed {seed:#x} {opts} {exec}");
                assert_same_analysis(&row, &one, &four);
                assert_eq!(four_trace, one_trace, "{row}: launch and block spans");
                assert_eq!(four_allocations, one_allocations, "{row}: device heap allocations");
            }
        }
    }
}

#[test]
fn coresident_batches_are_host_thread_invariant() {
    let cases = [case(0x7b1), case(0x7b2), case(0x7b3)];
    let apps: Vec<AppInput<'_>> =
        cases.iter().map(|c| AppInput::new(&c.app.program, &c.cg, &c.roots)).collect();
    for opts in OptConfig::ladder() {
        let run = |host_threads| {
            let mut device = traced_device(DeviceConfig::tiny(), host_threads);
            let batch = gpu_analyze_batch_on(&mut device, &apps, opts).expect("no fault plan");
            (batch, device.tracer().events())
        };
        let (one, one_trace) = run(1);
        let (four, four_trace) = run(4);
        assert_eq!(four.1, one.1, "{opts}: batch stats");
        for (i, (a, b)) in one.0.iter().zip(&four.0).enumerate() {
            assert_same_analysis(&format!("{opts} co-resident app {i}"), a, b);
        }
        assert_eq!(four_trace, one_trace, "{opts}: launch and block spans");
    }
}

/// The sanitizer forces the sequential block runner: a sanitizing device
/// allowed four host threads reports exactly what a one-thread one does.
#[test]
fn sanitized_runs_are_host_thread_invariant() {
    let c = case(0x7c1);
    for opts in [OptConfig::plain(), OptConfig::gdroid()] {
        let run = |host_threads| {
            let mut device = traced_device(DeviceConfig::tiny().with_sanitizer(), host_threads);
            gpu_analyze_app_on(
                &mut device,
                &AppInput::new(&c.app.program, &c.cg, &c.roots),
                opts,
                ExecMode::MultiLaunch,
            )
            .expect("no fault plan")
        };
        let (one, four) = (run(1), run(4));
        let report = one.sanitizer.as_ref().expect("the device sanitizes");
        assert!(report.accesses_checked > 0, "{opts}: nothing was checked");
        assert_same_analysis(&format!("sanitized {opts}"), &one, &four);
    }
}
