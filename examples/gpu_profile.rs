//! GPU profile: a deep dive into where one app's simulated kernel time
//! goes — transfer pipeline, per-launch utilization, divergence — the view
//! a CUDA profiler would give on the real GDroid. Each configuration also
//! reports what simulating it cost the host.
//!
//! ```text
//! cargo run --release --example gpu_profile [seed]
//! ```

use gdroid::apk::{generate_app, GenConfig};
use gdroid::core::fixpoint::MethodBlock;
use gdroid::core::{gpu_analyze_app, plan_layout, run_method_block, OptConfig};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::icfg::prepare_app;
use gdroid::ir::MethodId;
use std::time::Instant;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(11);
    let mut app = generate_app(0, seed, &GenConfig::default());
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();

    let device = DeviceConfig::tesla_p40();
    println!(
        "device: {} SMs x {} cores @ {:.2} GHz, {} GiB, warp {}, {} blocks/SM\n",
        device.sm_count,
        device.cores_per_sm,
        device.clock_ghz,
        device.global_mem_bytes >> 30,
        device.warp_size,
        device.blocks_per_sm
    );

    for opts in [OptConfig::plain(), OptConfig::gdroid()] {
        let started = Instant::now();
        let run = gpu_analyze_app(&app.program, &cg, &roots, device, opts);
        let host_us = started.elapsed().as_secs_f64() * 1e6;
        let s = &run.stats;
        println!("== {} ==", opts);
        println!(
            "  host wall         {:10.3} ms ({:.1} simulated ns per host us)",
            host_us / 1e3,
            s.total_ns / host_us
        );
        println!("  end-to-end        {:10.3} ms", s.total_ns / 1e6);
        println!("  kernel engine     {:10.3} ms", s.kernel_ns / 1e6);
        println!(
            "  copy engine       {:10.3} ms ({:.3} ms exposed after dual-buffering)",
            s.copy_ns / 1e6,
            s.exposed_copy_ns / 1e6
        );
        println!("  launches          {:10}", s.launches);
        println!("  blocks            {:10}", s.blocks);
        println!("  slot utilization  {:9.1}%", s.utilization * 100.0);
        println!("  divergence        {:10.2} passes/warp", s.divergence_factor);
        println!("  coalescing        {:9.1}%", s.coalescing * 100.0);
        println!("  device mallocs    {:10}", s.device_allocations);
        println!(
            "  worklist rounds   {:10}   sizes <=32/33-64/>64: {:.1}%/{:.1}%/{:.1}%",
            s.profile.total_rounds,
            s.profile.le_32 * 100.0,
            s.profile.le_64 * 100.0,
            s.profile.gt_64 * 100.0
        );
        println!();
    }

    // One concrete launch's occupancy timeline: the biggest SBDA layer,
    // one block per method, GDroid configuration.
    use gdroid::analysis::{merge_site_summaries, Geometry, MatrixStore, MethodSpace, SummaryMap};
    use gdroid::icfg::{CallLayers, Cfg};
    use std::collections::HashMap;
    let layers = CallLayers::compute(&cg, &roots);
    let widest: Vec<MethodId> =
        layers.layers.iter().max_by_key(|l| l.len()).cloned().unwrap_or_default();
    let spaces: HashMap<MethodId, MethodSpace> =
        widest.iter().map(|&m| (m, MethodSpace::build(&app.program, m))).collect();
    let cfgs: HashMap<MethodId, Cfg> =
        widest.iter().map(|&m| (m, Cfg::build(&app.program.methods[m]))).collect();
    let mut sim = Device::new(device);
    let program = &app.program;
    let layout = plan_layout(program, &mut sim, &spaces, &cfgs, &widest, OptConfig::gdroid());
    let summaries = SummaryMap::new();
    let sites: Vec<_> =
        widest.iter().map(|&m| (m, merge_site_summaries(program, m, &summaries, &cg))).collect();
    let blocks: Vec<gdroid::gpusim::BlockFn<'_>> = sites
        .into_iter()
        .map(|(mid, sites)| {
            let space = &spaces[&mid];
            let cfg = &cfgs[&mid];
            let ml = &layout.methods[&mid];
            Box::new(move |ctx: &mut gdroid::gpusim::BlockCtx<'_>| {
                let method = &program.methods[mid];
                let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                store.seed(cfg.entry() as usize, &space.entry_facts(method));
                let mut block = MethodBlock { mid, method, space, cfg, sites, store };
                run_method_block(ctx, &mut block, ml, OptConfig::gdroid());
            }) as _
        })
        .collect();
    let stats = sim.launch(blocks);
    println!(
        "== occupancy timeline: widest layer ({} blocks, util {:.0}%) ==",
        stats.blocks,
        stats.utilization * 100.0
    );
    let chart = stats.occupancy_chart(64);
    for line in chart.lines().take(16) {
        println!("  {line}");
    }
    if chart.lines().count() > 16 {
        println!("  … ({} more slots)", chart.lines().count() - 16);
    }
}
