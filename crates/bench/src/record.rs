//! Per-app experiment records: every engine run once per app.

use gdroid_analysis::{CpuCostModel, MatrixStore};
use gdroid_apk::{AppStats, Corpus};
use gdroid_core::{OptConfig, WorklistProfile};
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_vetting::{execute, prepare_vetting, Engine, ExecCtx, ExecPlan, Executed, PreparedApp};

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

/// One engine's run of the pipeline on a fresh Tesla P40.
fn run_engine(prep: &PreparedApp, engine: Engine) -> Executed {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    execute(prep, ExecPlan::new(engine), &mut ExecCtx::new(&mut device))
        .expect("a fresh device has no fault plan")
}

/// Runs every engine on one corpus app: the Amandroid pipeline (Fig. 1),
/// whose one CPU solve the multithreaded-C baseline (Fig. 4's CPU side)
/// prices per layer, then the four ladder rungs.
pub fn run_app(corpus: &Corpus, index: usize) -> AppRecord {
    let app = corpus.generate(index);
    let app_stats = AppStats::of(&app);
    let prep = prepare_vetting(app);

    let cpu = run_engine(&prep, Engine::AmandroidCpu).run;
    let gpu = OptConfig::ladder().map(|opts| {
        let run = run_engine(&prep, Engine::Gpu(opts));
        let (stats, telemetry) = (run.gpu.expect("a GPU rung ran"), run.run.outcome.telemetry);
        GpuSummary {
            total_ns: stats.total_ns,
            kernel_ns: stats.kernel_ns,
            divergence: stats.divergence_factor,
            coalescing: stats.coalescing,
            allocations: stats.device_allocations,
            rounds: telemetry.rounds,
            profile: stats.profile,
            nodes_processed: telemetry.nodes_processed,
            utilization: stats.utilization,
            launches: stats.launches,
            rows_read: telemetry.rows_read,
            facts_written: telemetry.facts_written,
            unions: telemetry.unions,
        }
    });

    let spaces = &cpu.analysis.spaces;
    let mean_slots = if spaces.is_empty() {
        0.0
    } else {
        spaces.values().map(|s| s.slot_count() as f64).sum::<f64>() / spaces.len() as f64
    };

    AppRecord {
        index,
        app_stats,
        reachable_methods: spaces.len(),
        icfg_nodes: cpu.analysis.cfgs.values().map(|c| c.stmt_count()).sum(),
        mean_slots,
        amandroid_ns: cpu.outcome.timing.total_ns(),
        amandroid_idfg_ns: cpu.outcome.timing.idfg_ns,
        cpu_mt_ns: CpuCostModel::multithreaded_c().parallel_ns(&cpu.analysis),
        gpu,
        set_bytes: cpu.outcome.store_bytes,
        // The `amandroid` run is charged the replayed sets; its facts are matrices.
        matrix_bytes: cpu.analysis.facts.values().map(MatrixStore::memory_bytes).sum(),
        leaks: cpu.outcome.report.leaks.len(),
        max_worklist: cpu.outcome.telemetry.max_worklist,
    }
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

    /// The fields Fig. 1, 4, 8–12 and Tables I/II are computed from, for
    /// the first three paper-corpus apps. The constants were captured at
    /// the commit before `run_app` became `prepare_vetting` + `execute`.
    #[test]
    fn paper_records_equal_the_pinned_constants() {
        let pinned = [PIN_0, PIN_1, PIN_2];
        let corpus = Corpus::paper_sized(3);
        for (r, want) in run_corpus(&corpus, 3).iter().zip(pinned) {
            let gpu: Vec<String> = r
                .gpu
                .iter()
                .map(|g| {
                    format!(
                        "{:?}/{:?}/{}/{}/{}/{}",
                        g.total_ns,
                        g.kernel_ns,
                        g.rounds,
                        g.launches,
                        g.nodes_processed,
                        g.allocations
                    )
                })
                .collect();
            let got = format!(
                "total={:?} idfg={:?} mt={:?} set={} mat={} leaks={} maxwl={} reach={} \
                 nodes={} slots={:?} gpu={}",
                r.amandroid_ns,
                r.amandroid_idfg_ns,
                r.cpu_mt_ns,
                r.set_bytes,
                r.matrix_bytes,
                r.leaks,
                r.max_worklist,
                r.reachable_methods,
                r.icfg_nodes,
                r.mean_slots,
                gpu.join(" ")
            );
            assert_eq!(got, want, "app {}", r.index);
        }
    }

    const PIN_0: &str = "\
        total=48373951456.0 idfg=43508489936.0 mt=622745764.2 set=54073920 mat=5751520 leaks=0 \
        maxwl=209 reach=365 nodes=12205 slots=43.69041095890411 \
        gpu=120988576.98695318/120968438.98695317/13408/23/90208/28818 \
        35034781.99686621/34872820.41442824/13408/23/90208/0 \
        7719760.5079943715/7545698.388334612/13408/23/90208/0 \
        4129699.878677412/3950631.619339986/13481/23/64877/0";
    const PIN_1: &str = "\
        total=16530387320.0 idfg=13235544760.0 mt=44853194.06 set=8680320 mat=812464 leaks=0 \
        maxwl=30 reach=211 nodes=6342 slots=37.1042654028436 \
        gpu=21774349.575083144/21756395.24174981/7605/18/26941/14063 \
        430250.04962906113/353793.5533384498/7605/18/26941/0 \
        433997.5553850089/389300.84420567926/7605/18/26941/0 \
        432042.8355078025/387239.44742901/7605/18/26396/0";
    const PIN_2: &str = "\
        total=11508846024.0 idfg=9572035864.0 mt=40685592.00000001 set=6683200 mat=660560 \
        leaks=0 maxwl=39 reach=150 nodes=4655 slots=38.34 \
        gpu=36572119.24891277/36554369.91557943/6843/18/28325/13515 \
        564118.8431823996/521765.92478894856/6843/18/28325/0 \
        568834.1156305962/538808.1350729087/6843/18/28325/0 \
        563986.0726528525/533956.2547966233/6851/18/27554/0";
}
