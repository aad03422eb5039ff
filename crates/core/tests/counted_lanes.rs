//! Counted lanes: under MAT the kernel counts each divergence group's
//! coalescing straight off the fact bitmaps (`BlockCtx::warp_process_counted`)
//! instead of building every address, and must model exactly what the
//! address form models.
//!
//! A sanitizing device is the reference: its blocks always take the
//! address form (the race detector must see every access), and watching
//! charges nothing. Every run below is made on a sanitizing and on a plain
//! device, which must agree on every modeled number — run stats, launch
//! and block spans (each launch's `KernelStats` totals and schedule), raw
//! per-block counters — and on every fact and summary.

use gdroid_analysis::{
    analyze_app, merge_site_summaries, AppAnalysis, Geometry, MatrixStore, MethodSpace, StoreKind,
    SummaryMap,
};
use gdroid_apk::{generate_app, App, GenConfig};
use gdroid_core::fixpoint::MethodBlock;
use gdroid_core::{
    gpu_analyze_app_on, gpu_analyze_batch_on, plan_layout, run_method_block, AppInput,
    EngineAnalysis, OptConfig, Presolved,
};
use gdroid_gpusim::{BlockCtx, BlockFn, Device, DeviceConfig, SourcedKernelStats};
use gdroid_icfg::{prepare_app, CallGraph, CallLayers, Cfg};
use gdroid_ir::MethodId;
use gdroid_trace::Tracer;
use std::collections::HashMap;

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

/// `(address form, counted form)`: a sanitizing and a plain traced device.
fn devices() -> (Device, Device) {
    let traced = |config| {
        let mut device = Device::new(config);
        device.set_tracer(Tracer::enabled_new());
        device
    };
    (traced(DeviceConfig::tiny().with_sanitizer()), traced(DeviceConfig::tiny()))
}

fn assert_same_analysis(row: &str, address: &EngineAnalysis, counted: &EngineAnalysis) {
    let report = address.sanitizer.as_ref().expect("the reference device sanitizes");
    assert!(report.accesses_checked > 0, "{row}: the reference saw no access");
    assert!(counted.sanitizer.is_none(), "{row}: the counted device must not sanitize");
    assert_eq!(counted.stats, address.stats, "{row}: GpuRunStats");
    assert_eq!(counted.summaries, address.summaries, "{row}: summaries");
    assert_eq!(counted.facts.len(), address.facts.len(), "{row}: fact-map size");
    for (mid, facts) in &address.facts {
        assert_eq!(counted.facts[mid].flat_words(), facts.flat_words(), "{row}: facts of {mid:?}");
    }
    assert_eq!(
        format!("{:?}", counted.telemetry),
        format!("{:?}", address.telemetry),
        "{row}: telemetry (round sizes)"
    );
}

fn assert_same_trace(row: &str, address: &Device, counted: &Device) {
    assert_eq!(
        counted.tracer().events(),
        address.tracer().events(),
        "{row}: launch and block spans (KernelStats totals and schedule)"
    );
}

#[test]
fn solo_runs_count_what_the_address_form_counts() {
    for seed in [0xc01u64, 0xc02, 0xc03] {
        let c = case(seed);
        for opts in OptConfig::ladder() {
            let (mut address, mut counted) = devices();
            let run = |device: &mut Device| {
                gpu_analyze_app_on(device, &AppInput::new(&c.app.program, &c.cg, &c.roots), opts)
                    .expect("no fault plan")
            };
            let (by_address, by_count) = (run(&mut address), run(&mut counted));
            let row = format!("seed {seed:#x} {opts}");
            assert_same_analysis(&row, &by_address, &by_count);
            assert_same_trace(&row, &address, &counted);
        }
    }
}

#[test]
fn coresident_batch_counts_what_the_address_form_counts() {
    let cases = [case(0xc11), case(0xc12), case(0xc13)];
    let apps: Vec<AppInput<'_>> =
        cases.iter().map(|c| AppInput::new(&c.app.program, &c.cg, &c.roots)).collect();
    let (mut address, mut counted) = devices();
    let by_address =
        gpu_analyze_batch_on(&mut address, &apps, OptConfig::gdroid()).expect("no fault plan");
    let by_count =
        gpu_analyze_batch_on(&mut counted, &apps, OptConfig::gdroid()).expect("no fault plan");
    assert_eq!(by_count.1, by_address.1, "batch stats");
    for (i, (a, b)) in by_address.0.iter().zip(&by_count.0).enumerate() {
        assert_same_analysis(&format!("co-resident app {i}"), a, b);
    }
    assert_same_trace("co-resident", &address, &counted);
}

#[test]
fn store_hits_count_what_the_address_form_counts() {
    let c = case(0xc21);
    // The bottom half of the layer schedule, solved on the CPU: a
    // callee-closed set, as the summary store hands it over.
    let cpu: AppAnalysis = analyze_app(&c.app.program, &c.cg, &c.roots, StoreKind::Matrix);
    let layers = CallLayers::compute(&c.cg, &c.roots);
    let cut = (layers.layer_count() / 2) as u32;
    let presolved: Presolved = layers
        .scc_of
        .keys()
        .filter(|&&m| layers.layer_of(m).unwrap() < cut)
        .map(|&m| (m, (cpu.summaries[&m].clone(), cpu.facts[&m].clone())))
        .collect();
    assert!(!presolved.is_empty(), "no store hit to inject");
    let (mut address, mut counted) = devices();
    let run = |device: &mut Device| {
        gpu_analyze_app_on(
            device,
            &AppInput {
                program: &c.app.program,
                cg: &c.cg,
                roots: &c.roots,
                presolved: &presolved,
                slice: None,
            },
            OptConfig::gdroid(),
        )
        .expect("no fault plan")
    };
    let (by_address, by_count) = (run(&mut address), run(&mut counted));
    let row = "presolved".to_owned();
    assert_same_analysis(&row, &by_address, &by_count);
    assert_same_trace(&row, &address, &counted);
}

/// Every reachable method as one block of one launch: the full
/// `KernelStats` (schedule included) and each block's raw counters.
fn launch_every_method(c: &Case, device: &mut Device, opts: OptConfig) -> SourcedKernelStats {
    let program = &c.app.program;
    let methods = c.cg.reachable_from(&c.roots);
    let spaces: HashMap<MethodId, MethodSpace> =
        methods.iter().map(|&m| (m, MethodSpace::build(program, m))).collect();
    let cfgs: HashMap<MethodId, Cfg> =
        methods.iter().map(|&m| (m, Cfg::build(&program.methods[m]))).collect();
    let layout = plan_layout(program, device, &spaces, &cfgs, &methods, opts);
    let summaries = SummaryMap::new();
    let sites: Vec<_> =
        methods.iter().map(|&m| (m, merge_site_summaries(program, m, &summaries, &c.cg))).collect();
    let blocks: Vec<(u32, BlockFn<'_>)> = sites
        .into_iter()
        .enumerate()
        .map(|(i, (mid, sites))| {
            let (space, cfg, ml) = (&spaces[&mid], &cfgs[&mid], &layout.methods[&mid]);
            let block = move |ctx: &mut BlockCtx<'_>| {
                let method = &program.methods[mid];
                let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                store.seed(cfg.entry() as usize, &space.entry_facts(method));
                let mut block = MethodBlock { mid, method, space, cfg, sites, store };
                run_method_block(ctx, &mut block, ml, opts);
            };
            (i as u32, Box::new(block) as BlockFn<'_>)
        })
        .collect();
    device.try_launch_sourced(blocks).expect("no fault plan")
}

#[test]
fn launch_and_block_stats_count_what_the_address_form_counts() {
    for seed in [0xc31u64, 0xc32, 0xc33] {
        let c = case(seed);
        for opts in OptConfig::ladder() {
            let (mut address, mut counted) = devices();
            let by_address = launch_every_method(&c, &mut address, opts);
            let by_count = launch_every_method(&c, &mut counted, opts);
            let row = format!("seed {seed:#x} {opts}");
            assert!(by_address.combined.transactions > 0, "{row}: nothing was counted");
            assert_eq!(by_count.combined, by_address.combined, "{row}: KernelStats");
            assert_eq!(by_count.per_block, by_address.per_block, "{row}: per-block stats");
        }
    }
}
