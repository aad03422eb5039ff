//! Host-allocation pin: allocation counts are deterministic where wall
//! time is not, so they gate host cost without a quiet machine.
//!
//! * The transfer function allocates nothing per node.
//! * Generating, preparing and executing (default plan) paper app 0 at
//!   scale 0.5 make exactly the pinned number of allocations and bytes,
//!   and so does the taint plugin's run over the executed analysis.
//!   The device runs one host thread: a launch's helper threads would
//!   make the counts depend on the machine's core count. Re-pin a row
//!   deliberately, like `ledger_pin`, in a change that means to move it;
//!   a toolchain change may re-pin too.
//!
//! The counter is per thread, so what the test harness allocates on its
//! own threads (spawning the next test, say) is never counted.

use gdroid::analysis::{
    analyze_app, merge_site_summaries, MethodSummary, NodeFacts, StoreKind, TransferCtx,
};
use gdroid::apk::{generate_app, App, Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::icfg::prepare_app;
use gdroid::ir::MethodId;
use gdroid::vetting::{
    execute, prepare_vetting, ExecCtx, ExecPlan, SourceSinkRegistry, TaintAnalysis,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// This thread's `(allocations, bytes)` so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the `(allocations, bytes)` it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = COUNTS.with(Cell::get);
    let value = f();
    let after = COUNTS.with(Cell::get);
    (value, (after.0 - before.0, after.1 - before.1))
}

/// Builds what the process builds once, on first use, on whichever thread
/// gets there first — the one shared external summary — so no count
/// depends on which test ran first.
fn build_process_wide_lazies() {
    let _ = MethodSummary::external();
}

fn paper_app_0() -> App {
    let corpus = Corpus {
        master_seed: PAPER_MASTER_SEED,
        size: 1,
        config: GenConfig { scale: 0.5, ..GenConfig::default() },
    };
    corpus.generate(0)
}

/// Every statement node of every reachable method, fed its solved IN
/// facts and its call sites' final merged summaries, into one reused OUT
/// bitmap: not one allocation.
#[test]
fn transfer_into_allocates_nothing_per_node() {
    let mut app = generate_app(0, 0xa110c, &GenConfig::tiny());
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    let analysis = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
    build_process_wide_lazies();

    let (mut nodes, mut calls, mut allocations) = (0, 0, 0);
    for (&mid, space) in &analysis.spaces {
        let (method, cfg, facts) =
            (&app.program.methods[mid], &analysis.cfgs[&mid], &analysis.facts[&mid]);
        let sites = merge_site_summaries(&app.program, mid, &analysis.summaries, &cg);
        let ctx = TransferCtx { method, space, sites: &sites };
        let mut out = NodeFacts::empty(facts.geometry());
        for node in 0..cfg.len() as u32 {
            let Some(stmt) = cfg.stmt_of(node) else { continue };
            let ((), (n, _)) = counted(|| {
                ctx.transfer_into(stmt, facts.node(node as usize), &mut out);
            });
            allocations += n;
            nodes += 1;
            calls += usize::from(method.body[stmt].is_call());
        }
    }
    assert!(nodes > 100 && calls > 10, "too small an app: {nodes} nodes, {calls} calls");
    assert_eq!(allocations, 0, "transfer_into allocated over {nodes} nodes");
}

/// `(allocations, bytes)` of each stage of paper app 0 at scale 0.5.
const GENERATE: (u64, u64) = (27_988, 4_807_881);
const PREPARE: (u64, u64) = (6_805, 760_865);
const EXECUTE: (u64, u64) = (44_678, 12_511_963);
/// `TaintAnalysis::run` alone, over the executed analysis.
const TAINT: (u64, u64) = (2_034, 86_899);

#[test]
fn paper_app_stages_allocate_the_pinned_amounts() {
    build_process_wide_lazies();
    let (app, generate) = counted(paper_app_0);
    let (prep, prepare) = counted(|| prepare_vetting(app));
    let mut device = Device::new(DeviceConfig::tesla_p40());
    device.set_host_threads(1);
    let (executed, execute) = counted(|| {
        execute(&prep, ExecPlan::default(), &mut ExecCtx::new(&mut device))
            .expect("a fresh device has no fault plan")
    });
    assert!(executed.run.outcome.telemetry.nodes_processed > 0);
    let analysis = &executed.run.analysis;
    let registry = SourceSinkRegistry::for_program(&prep.app.program);
    let (program, cg) = (&prep.app.program, &prep.cg);
    let plugin = TaintAnalysis::new(
        program,
        cg,
        &analysis.facts,
        &analysis.spaces,
        &analysis.cfgs,
        &registry,
    );
    let ((report, _), taint) = counted(|| plugin.run());
    assert_eq!(report.to_json(), executed.run.outcome.report.to_json());
    eprintln!("generate {generate:?}, prepare {prepare:?}, execute {execute:?}, taint {taint:?}");
    assert_eq!(
        [generate, prepare, execute, taint],
        [GENERATE, PREPARE, EXECUTE, TAINT],
        "a stage's allocations moved: [generate, prepare, execute, taint] (allocations, bytes)"
    );
}
