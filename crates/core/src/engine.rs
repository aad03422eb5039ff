//! One engine selector: [`Engine`] names every IDFG construction a run can
//! select — the paper's worklist-GPU kernels at a ladder rung, or the CPU
//! solver under one of its three cost profiles — and
//! [`Engine::analyze_on`] is the one dispatch.
//!
//! The contract every engine honors (and the tier-1 gates enforce): for
//! the same prepared app, presolved set and slice, the returned **facts
//! and summaries are byte-identical** across engines. Engines differ only
//! in modeled cost (`stats`, `idfg_ns`, `store_bytes`) and telemetry
//! shape — the fixpoint is unique, the road to it is not.

use crate::driver::gpu_analyze_app_on;
use crate::fixpoint::AppInput;
use crate::opts::OptConfig;
use crate::stats::GpuRunStats;
use gdroid_analysis::{
    analyze_app_presolved, CpuCostModel, MatrixStore, MethodSpace, Presolved, StoreKind,
    SummaryMap, WorklistTelemetry,
};
use gdroid_gpusim::{Device, DeviceFault, SanReport};
use gdroid_icfg::{CallGraph, Cfg};
use gdroid_ir::{MethodId, Program};
use std::collections::{HashMap, HashSet};

/// Which engine constructs the IDFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Sequential Amandroid-style CPU run (Fig. 1): hash-set fact stores,
    /// Scala-calibrated cost model.
    AmandroidCpu,
    /// The multithreaded-C CPU baseline (Fig. 4's CPU side): the same run,
    /// costed per layer.
    MultithreadedCpu,
    /// The paper's worklist-GPU kernels at the given optimization rung;
    /// `Gpu(OptConfig::gdroid())` is the production default, spelled
    /// `worklist` (or `gdroid`) on the command line.
    Gpu(OptConfig),
    /// The sequential CPU reference solver on matrix stores — the
    /// differential oracle.
    CpuReference,
}

impl Engine {
    /// Every named engine, in the order `gdroid engines` lists them: the
    /// two a service selects between first, then the ladder rungs and the
    /// legacy CPU baselines.
    pub fn all() -> [Engine; 7] {
        [
            Engine::Gpu(OptConfig::gdroid()),
            Engine::CpuReference,
            Engine::Gpu(OptConfig::plain()),
            Engine::Gpu(OptConfig::mat()),
            Engine::Gpu(OptConfig::mat_grp()),
            Engine::MultithreadedCpu,
            Engine::AmandroidCpu,
        ]
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Engine::AmandroidCpu => "amandroid",
            Engine::MultithreadedCpu => "mtcpu",
            Engine::CpuReference => "cpu",
            Engine::Gpu(opts) => match (opts.mat, opts.grp, opts.mer) {
                (true, true, true) => "worklist",
                (false, false, false) => "plain",
                (true, false, false) => "mat",
                (true, true, false) => "matgrp",
                _ => "gpu-custom",
            },
        }
    }

    /// Parses the CLI spelling; `gdroid` is an alias of `worklist`.
    pub fn parse(s: &str) -> Option<Engine> {
        let s = if s == "gdroid" { "worklist" } else { s };
        Engine::all().into_iter().find(|e| e.name() == s)
    }

    /// Whether the engine takes co-resident multi-app batching with
    /// solo-identical timing: the device rungs free of kernel-side
    /// `malloc`. Every engine takes the slice and the store.
    pub fn batches(self) -> bool {
        matches!(self, Engine::Gpu(opts) if opts.mat)
    }

    /// One-line description for `gdroid engines`.
    pub fn note(self) -> &'static str {
        match self {
            Engine::Gpu(opts) if opts == OptConfig::gdroid() => {
                "the paper's worklist-GPU kernels (MAT+GRP+MER); the default"
            }
            Engine::Gpu(_) => "a worklist-GPU ladder rung below full GDroid (Figs. 9 and 11)",
            Engine::CpuReference => "sequential CPU reference solver — the differential oracle",
            Engine::MultithreadedCpu => {
                "multithreaded-C CPU baseline (Fig. 4): amandroid's run, costed per layer"
            }
            Engine::AmandroidCpu => "sequential Amandroid-style CPU baseline (Figs. 1 and 10)",
        }
    }

    /// Constructs the IDFG on `device`. The CPU engines never touch it;
    /// they take it so every caller runs one dispatch and a service
    /// executor needs no special case.
    ///
    /// `presolved` injects summary-store hits; `slice`, when `Some`,
    /// restricts the schedule to the given methods (targeted vetting).
    /// Every engine accepts both. The three CPU engines are one solve
    /// under their store kind and cost model.
    pub fn analyze_on(
        self,
        device: &mut Device,
        program: &Program,
        cg: &CallGraph,
        roots: &[MethodId],
        presolved: &Presolved,
        slice: Option<&HashSet<MethodId>>,
    ) -> Result<EngineAnalysis, DeviceFault> {
        let store_kind = match self {
            Engine::Gpu(opts) => {
                let input = AppInput { program, cg, roots, presolved, slice };
                return gpu_analyze_app_on(device, &input, opts);
            }
            Engine::CpuReference => StoreKind::Matrix,
            Engine::AmandroidCpu | Engine::MultithreadedCpu => StoreKind::Set,
        };
        let analysis = analyze_app_presolved(program, cg, roots, store_kind, presolved, slice);
        let idfg_ns = if self == Engine::MultithreadedCpu {
            CpuCostModel::multithreaded_c().parallel_ns(&analysis)
        } else {
            CpuCostModel::amandroid().sequential_ns(&analysis)
        };
        let mut stats = GpuRunStats::default();
        stats.total_ns = idfg_ns;
        Ok(EngineAnalysis {
            facts: analysis.facts,
            summaries: analysis.summaries,
            spaces: analysis.spaces,
            cfgs: analysis.cfgs,
            telemetry: analysis.telemetry,
            stats,
            idfg_ns,
            store_bytes: analysis.store_bytes,
            sanitizer: None,
            replayed: 0,
            per_method: analysis.per_method,
            schedule: analysis.schedule,
        })
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What every engine returns: the engine-invariant fixpoint (facts,
/// summaries) plus the engine-specific cost and telemetry.
pub struct EngineAnalysis {
    /// Per-method node facts — identical across engines.
    pub facts: HashMap<MethodId, MatrixStore>,
    /// Final summaries — identical across engines.
    pub summaries: SummaryMap,
    /// Per-method pools.
    pub spaces: HashMap<MethodId, MethodSpace>,
    /// Per-method CFGs.
    pub cfgs: HashMap<MethodId, Cfg>,
    /// Aggregated fixpoint telemetry (engine-shaped: worklist rounds vs
    /// CPU generations).
    pub telemetry: WorklistTelemetry,
    /// Modeled execution statistics (GPU engine; CPU fills `total_ns`).
    pub stats: GpuRunStats,
    /// Modeled IDFG-stage time, ns.
    pub idfg_ns: f64,
    /// Bytes of the host fact stores the run is charged for, by its store
    /// kind; 0 for a device run, whose memory is device allocations.
    pub store_bytes: usize,
    /// `simcheck` report when the device sanitized (GPU engine only).
    pub sanitizer: Option<SanReport>,
    /// Blocks the host replayed from their method's previous solve
    /// instead of solving again; the model charged each as run. Host-side
    /// only: 0 on a sanitizing device and on the CPU engines.
    pub replayed: usize,
    /// Per-method telemetry of a CPU solve, so one solve can be priced
    /// under another CPU cost model; empty on a device run.
    pub per_method: HashMap<MethodId, WorklistTelemetry>,
    /// The CPU solve's bottom-up layer schedule; empty on a device run.
    pub schedule: Vec<Vec<MethodId>>,
}

// The frozen-harness shim: nothing outside this block, its test and the
// crate-root and `gdroid_vetting` re-exports names these three
// (ci/check.sh's shim-confinement ratchet).

/// Kept only for `benchmark/` until ROADMAP 3k: the retired
/// launch-policy selector, which [`engine_for_mode`] ignores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One kernel launch per fixpoint round.
    MultiLaunch,
    /// The retired persistent kernel; runs as [`ExecMode::MultiLaunch`].
    Persistent,
}

/// Kept only for `benchmark/` until ROADMAP 3k: the two engines the
/// harness names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// [`Engine::Gpu`] at full GDroid.
    Worklist,
    /// [`Engine::CpuReference`].
    Cpu,
}

impl EngineKind {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "worklist" => Some(EngineKind::Worklist),
            "cpu" => Some(EngineKind::Cpu),
            _ => None,
        }
    }
}

/// Kept only for `benchmark/` until ROADMAP 3k: the [`Engine`] a kind
/// names; every [`ExecMode`] runs the one multi-launch policy.
pub fn engine_for_mode(kind: EngineKind, _mode: ExecMode) -> Engine {
    match kind {
        EngineKind::Worklist => Engine::Gpu(OptConfig::gdroid()),
        EngineKind::Cpu => Engine::CpuReference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::DeviceConfig;
    use gdroid_icfg::prepare_app;

    /// The one dispatch: every engine reproduces the CPU reference's
    /// summaries and fact words, and each CPU engine is charged its cost
    /// model applied to the same solve.
    #[test]
    fn every_engine_agrees_with_the_reference_and_cpu_engines_pay_their_cost_model() {
        let mut app = generate_app(0, 8601, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let none = Presolved::new();
        let analyze = |engine: Engine| {
            let mut device = Device::new(DeviceConfig::tiny());
            engine.analyze_on(&mut device, &app.program, &cg, &roots, &none, None).unwrap()
        };
        let reference = analyze(Engine::CpuReference);
        let solve = |kind| analyze_app_presolved(&app.program, &cg, &roots, kind, &none, None);
        let (matrix, set) = (solve(StoreKind::Matrix), solve(StoreKind::Set));
        for engine in Engine::all() {
            let got = analyze(engine);
            assert_eq!(got.summaries, reference.summaries, "{engine}");
            assert_eq!(got.facts.len(), reference.facts.len(), "{engine}");
            for (mid, facts) in &reference.facts {
                assert_eq!(got.facts[mid].flat_words(), facts.flat_words(), "{engine} {mid:?}");
            }
            let (idfg_ns, store_bytes) = match engine {
                Engine::Gpu(_) => {
                    assert!(got.idfg_ns > 0.0 && got.stats.launches > 0, "{engine}");
                    assert_eq!(got.store_bytes, 0, "{engine}: a device run has no host stores");
                    continue;
                }
                Engine::CpuReference => {
                    (CpuCostModel::amandroid().sequential_ns(&matrix), matrix.store_bytes)
                }
                Engine::AmandroidCpu => {
                    (CpuCostModel::amandroid().sequential_ns(&set), set.store_bytes)
                }
                Engine::MultithreadedCpu => {
                    (CpuCostModel::multithreaded_c().parallel_ns(&set), set.store_bytes)
                }
            };
            assert_eq!((got.idfg_ns, got.stats.total_ns), (idfg_ns, idfg_ns), "{engine}");
            assert_eq!(got.store_bytes, store_bytes, "{engine}");
        }
    }

    #[test]
    fn engine_names_roundtrip_and_gdroid_is_worklist() {
        for engine in Engine::all() {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
        }
        assert_eq!(Engine::parse("gdroid"), Engine::parse("worklist"));
        assert_eq!(Engine::parse("resident"), None);
    }

    /// The frozen-harness shim: every [`ExecMode`] runs the one
    /// multi-launch policy, and no spelling selects the retired
    /// relational engine.
    #[test]
    fn engine_for_mode_ignores_the_retired_mode() {
        for mode in [ExecMode::MultiLaunch, ExecMode::Persistent] {
            assert_eq!(
                engine_for_mode(EngineKind::Worklist, mode),
                Engine::parse("worklist").unwrap()
            );
            assert_eq!(engine_for_mode(EngineKind::Cpu, mode), Engine::CpuReference);
        }
        assert_eq!(EngineKind::parse("worklist"), Some(EngineKind::Worklist));
        assert_eq!(EngineKind::parse("cpu"), Some(EngineKind::Cpu));
        assert_eq!(EngineKind::parse("rel"), None);
    }
}
