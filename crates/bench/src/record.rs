//! Per-app experiment records: every engine run once per app.

use gdroid_analysis::{analyze_app, CpuCostModel, StoreKind, WorklistTelemetry};
use gdroid_apk::{AppStats, Corpus};
use gdroid_core::{gpu_analyze_app, OptConfig, WorklistProfile};
use gdroid_gpusim::DeviceConfig;
use gdroid_icfg::prepare_app;
use gdroid_ir::MethodId;
use gdroid_vetting::pipeline::{
    ENVGEN_NS_PER_COMPONENT, FRONTEND_NS_PER_METHOD, FRONTEND_NS_PER_STMT, TAINT_NS_PER_ROW,
};
use gdroid_vetting::{SourceSinkRegistry, TaintAnalysis};

/// Condensed result of one GPU configuration on one app.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuSummary {
    /// End-to-end simulated time, ns.
    pub total_ns: f64,
    /// Kernel-engine time, ns.
    pub kernel_ns: f64,
    /// Divergence factor (serialized passes per warp step).
    pub divergence: f64,
    /// Coalescing efficiency.
    pub coalescing: f64,
    /// Device-heap allocations.
    pub allocations: u64,
    /// Worklist rounds ("iterations").
    pub rounds: usize,
    /// Worklist-size profile.
    pub profile: WorklistProfile,
    /// Nodes processed.
    pub nodes_processed: usize,
    /// Mean slot utilization over launches.
    pub utilization: f64,
    /// Kernel launches.
    pub launches: usize,
    /// Transfer row reads.
    pub rows_read: usize,
    /// Facts written by transfers.
    pub facts_written: usize,
    /// Successor unions.
    pub unions: usize,
}

/// Everything measured for one app.
#[derive(Clone, Debug)]
pub struct AppRecord {
    /// Corpus index.
    pub index: usize,
    /// Structural statistics (Table I).
    pub app_stats: AppStats,
    /// Methods reachable from the environment roots (Table I counts what
    /// the analysis actually visits).
    pub reachable_methods: usize,
    /// ICFG statement-node count after environment synthesis.
    pub icfg_nodes: usize,
    /// Mean slot-pool size per analyzed method (Table I "Variables").
    pub mean_slots: f64,
    /// Sequential Amandroid-style time (Fig. 1), ns.
    pub amandroid_ns: f64,
    /// Amandroid IDFG-construction component, ns.
    pub amandroid_idfg_ns: f64,
    /// Multithreaded-C CPU time (Fig. 4 baseline), ns.
    pub cpu_mt_ns: f64,
    /// GPU runs in ladder order: plain, MAT, MAT+GRP, GDroid.
    pub gpu: [GpuSummary; 4],
    /// Set-store footprint (Fig. 10), bytes.
    pub set_bytes: usize,
    /// Matrix-store footprint (Fig. 10), bytes.
    pub matrix_bytes: usize,
    /// Leaks the vetting plugin found.
    pub leaks: usize,
    /// Max worklist size observed (Table I).
    pub max_worklist: usize,
}

/// Runs every engine on one corpus app.
pub fn run_app(corpus: &Corpus, index: usize) -> AppRecord {
    let mut app = corpus.generate(index);
    let app_stats = AppStats::of(&app);
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();

    // --- CPU runs ---------------------------------------------------------
    let cpu_set = analyze_app(&app.program, &cg, &roots, StoreKind::Set);
    let cpu_mat = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
    let amandroid_idfg_ns = CpuCostModel::amandroid().sequential_ns(&cpu_set);
    let cpu_mt_ns = CpuCostModel::multithreaded_c().parallel_ns(&cpu_set);

    // --- taint plugin (for Fig. 1's non-IDFG share and leak counts) -------
    let registry = SourceSinkRegistry::for_program(&app.program);
    let (report, taint_stats) = TaintAnalysis::new(
        &app.program,
        &cg,
        &cpu_mat.facts,
        &cpu_mat.spaces,
        &cpu_mat.cfgs,
        &registry,
    )
    .run();
    let amandroid_ns = amandroid_idfg_ns
        + ENVGEN_NS_PER_COMPONENT * envs.len() as f64
        + FRONTEND_NS_PER_STMT * app.program.total_statements() as f64
        + FRONTEND_NS_PER_METHOD * app.program.methods.len() as f64
        + TAINT_NS_PER_ROW * taint_stats.rows_read as f64;

    // --- GPU ladder ---------------------------------------------------------
    let mut gpu = [GpuSummary::default(); 4];
    for (i, opts) in OptConfig::ladder().into_iter().enumerate() {
        let run = gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tesla_p40(), opts);
        gpu[i] = GpuSummary {
            total_ns: run.stats.total_ns,
            kernel_ns: run.stats.kernel_ns,
            divergence: run.stats.divergence_factor,
            coalescing: run.stats.coalescing,
            allocations: run.stats.device_allocations,
            rounds: run.telemetry.rounds,
            profile: run.stats.profile,
            nodes_processed: run.telemetry.nodes_processed,
            utilization: run.stats.utilization,
            launches: run.stats.launches,
            rows_read: run.telemetry.rows_read,
            facts_written: run.telemetry.facts_written,
            unions: run.telemetry.unions,
        };
    }

    let mean_slots = if cpu_mat.spaces.is_empty() {
        0.0
    } else {
        cpu_mat.spaces.values().map(|s| s.slot_count() as f64).sum::<f64>()
            / cpu_mat.spaces.len() as f64
    };
    let icfg_nodes = cpu_mat.cfgs.values().map(|c| c.stmt_count()).sum::<usize>();

    AppRecord {
        index,
        app_stats,
        reachable_methods: cpu_mat.spaces.len(),
        icfg_nodes,
        mean_slots,
        amandroid_ns,
        amandroid_idfg_ns,
        cpu_mt_ns,
        gpu,
        set_bytes: cpu_set.store_bytes,
        matrix_bytes: cpu_mat.store_bytes,
        leaks: report.leaks.len(),
        max_worklist: telemetry_max(&cpu_set.telemetry),
    }
}

fn telemetry_max(t: &WorklistTelemetry) -> usize {
    t.max_worklist
}

/// Runs `count` apps of the corpus one after another, in index order.
pub fn run_corpus(corpus: &Corpus, count: usize) -> Vec<AppRecord> {
    (0..count.min(corpus.size)).map(|i| run_app(corpus, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_complete_and_consistent() {
        let corpus = Corpus::test_corpus(2);
        let r = run_app(&corpus, 0);
        assert!(r.amandroid_ns > r.amandroid_idfg_ns);
        assert!(r.cpu_mt_ns > 0.0);
        for g in &r.gpu {
            assert!(g.total_ns > 0.0);
            assert!(g.rounds > 0);
        }
        // MAT kills device allocations.
        assert!(r.gpu[0].allocations > 0);
        assert_eq!(r.gpu[1].allocations, 0);
        // Set store outweighs matrix store.
        assert!(r.set_bytes > r.matrix_bytes);
        assert!(r.icfg_nodes > 0);
        assert!(r.mean_slots > 0.0);
    }

    #[test]
    fn run_corpus_is_ordered_and_deterministic() {
        let corpus = Corpus::test_corpus(3);
        let a = run_corpus(&corpus, 3);
        let b = run_corpus(&corpus, 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.amandroid_ns, y.amandroid_ns);
            assert_eq!(x.gpu[3].total_ns, y.gpu[3].total_ns);
        }
    }
}
