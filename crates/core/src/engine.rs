//! The `AnalysisEngine` boundary: both IDFG constructors in the
//! repository — the worklist-GPU driver and the CPU reference solver —
//! sit behind one trait, so vetting, serving, and campaigns can select
//! the engine per job.
//!
//! The contract every implementation must honor (and the tier-1 gates
//! enforce): for the same prepared app, presolved set, and slice, the
//! returned **facts and summaries are byte-identical** across engines.
//! Engines differ only in modeled cost (`stats`, `idfg_ns`) and telemetry
//! shape — the fixpoint is unique, the road to it is not.

use crate::driver::gpu_analyze_app_on;
use crate::opts::OptConfig;
use crate::stats::GpuRunStats;
use gdroid_analysis::{
    analyze_app_presolved, CpuCostModel, MatrixStore, MethodSpace, MethodSummary, StoreKind,
    SummaryMap, WorklistTelemetry,
};
use gdroid_gpusim::{Device, DeviceFault, SanReport};
use gdroid_icfg::{CallGraph, Cfg};
use gdroid_ir::{MethodId, Program};
use std::collections::{HashMap, HashSet};

/// How the driver maps fixpoint rounds onto kernel launches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecMode {
    /// One kernel launch per fixpoint round (the paper's loop): each
    /// round pays `launch_overhead_us` plus a dual-buffered transfer.
    #[default]
    MultiLaunch,
    /// One resident mega-kernel per app: the kernel owns a device-side
    /// worklist, loops rounds internally with a grid-wide sync between
    /// them, and the host synchronizes only at fixpoint — one launch
    /// overhead and one upload/download for the whole analysis.
    Persistent,
}

impl ExecMode {
    /// All modes, in CLI order.
    pub const ALL: [ExecMode; 2] = [ExecMode::MultiLaunch, ExecMode::Persistent];

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::MultiLaunch => "multi",
            ExecMode::Persistent => "persistent",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "multi" => Some(ExecMode::MultiLaunch),
            "persistent" => Some(ExecMode::Persistent),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The selectable engines, in CLI order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    /// The paper's worklist-GPU driver (`gpu_analyze_app_on`).
    Worklist,
    /// The sequential CPU reference solver (`gdroid_analysis::solver`).
    Cpu,
}

impl EngineKind {
    /// All engines, in the order `gdroid engines` lists them.
    pub const ALL: [EngineKind; 2] = [EngineKind::Worklist, EngineKind::Cpu];

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Worklist => "worklist",
            EngineKind::Cpu => "cpu",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "worklist" => Some(EngineKind::Worklist),
            "cpu" => Some(EngineKind::Cpu),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
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
    /// `simcheck` report when the device sanitized (GPU engine only).
    pub sanitizer: Option<SanReport>,
}

/// One IDFG construction backend. Implementations must be deterministic
/// and must produce the identical facts/summaries for identical inputs —
/// only `stats`/`idfg_ns`/`telemetry` may differ between engines.
pub trait AnalysisEngine: Send + Sync {
    /// Which engine this is (capability lookups, dispatch, reporting).
    fn kind(&self) -> EngineKind;

    /// Constructs the IDFG on `device` (CPU engines ignore it; they still
    /// take it so every engine runs through one dispatch path and a
    /// service executor needs no special case).
    ///
    /// `presolved` injects summary-store hits; `slice`, when `Some`,
    /// restricts the schedule to the given methods (targeted vetting).
    /// Callers must not pass a non-empty `presolved` or a slice to an
    /// engine that does not support them (`gdroid-vetting`'s `ExecPlan`
    /// capability table is the gate).
    fn analyze_on(
        &self,
        device: &mut Device,
        program: &Program,
        cg: &CallGraph,
        roots: &[MethodId],
        presolved: &HashMap<MethodId, (MethodSummary, MatrixStore)>,
        slice: Option<&HashSet<MethodId>>,
    ) -> Result<EngineAnalysis, DeviceFault>;
}

/// The worklist-GPU engine: `gpu_analyze_app_on` behind the trait.
pub struct WorklistEngine {
    /// Optimization-ladder rung the kernels run at.
    pub opts: OptConfig,
    /// How fixpoint rounds map onto launches (multi-launch vs persistent).
    pub exec: ExecMode,
}

impl WorklistEngine {
    /// The full-GDroid rung (MAT+GRP+MER) — the production default.
    pub fn gdroid() -> WorklistEngine {
        WorklistEngine { opts: OptConfig::gdroid(), exec: ExecMode::MultiLaunch }
    }
}

impl AnalysisEngine for WorklistEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Worklist
    }

    fn analyze_on(
        &self,
        device: &mut Device,
        program: &Program,
        cg: &CallGraph,
        roots: &[MethodId],
        presolved: &HashMap<MethodId, (MethodSummary, MatrixStore)>,
        slice: Option<&HashSet<MethodId>>,
    ) -> Result<EngineAnalysis, DeviceFault> {
        gpu_analyze_app_on(device, program, cg, roots, self.opts, presolved, slice, self.exec)
    }
}

/// The sequential CPU reference solver behind the engine boundary: the
/// differential-testing oracle the GPU engine is gated against.
pub struct CpuEngine;

impl AnalysisEngine for CpuEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Cpu
    }

    fn analyze_on(
        &self,
        _device: &mut Device,
        program: &Program,
        cg: &CallGraph,
        roots: &[MethodId],
        presolved: &HashMap<MethodId, (MethodSummary, MatrixStore)>,
        slice: Option<&HashSet<MethodId>>,
    ) -> Result<EngineAnalysis, DeviceFault> {
        assert!(slice.is_none(), "the cpu engine does not support targeted slicing");
        let analysis = analyze_app_presolved(program, cg, roots, StoreKind::Matrix, presolved);
        let idfg_ns = CpuCostModel::amandroid().sequential_ns(&analysis);
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
            sanitizer: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::DeviceConfig;
    use gdroid_icfg::prepare_app;

    #[test]
    fn kind_parse_roundtrips() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.as_str()), Some(kind));
            assert_eq!(format!("{kind}"), kind.as_str());
        }
        assert_eq!(EngineKind::parse("gdroid"), None);
    }

    #[test]
    fn exec_mode_parse_roundtrips() {
        for exec in ExecMode::ALL {
            assert_eq!(ExecMode::parse(exec.as_str()), Some(exec));
            assert_eq!(format!("{exec}"), exec.as_str());
        }
        assert_eq!(ExecMode::parse("resident"), None);
        assert_eq!(ExecMode::default(), ExecMode::MultiLaunch);
    }

    #[test]
    fn worklist_and_cpu_engines_agree_on_facts() {
        let mut app = generate_app(0, 8601, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let mut device = Device::new(DeviceConfig::tiny());
        let none = HashMap::new();
        let gpu = WorklistEngine::gdroid()
            .analyze_on(&mut device, &app.program, &cg, &roots, &none, None)
            .unwrap();
        let cpu =
            CpuEngine.analyze_on(&mut device, &app.program, &cg, &roots, &none, None).unwrap();
        assert_eq!(gpu.summaries, cpu.summaries);
        assert_eq!(gpu.facts.len(), cpu.facts.len());
        for (mid, g) in &gpu.facts {
            assert_eq!(g.flat_words(), cpu.facts[mid].flat_words(), "facts differ at {mid:?}");
        }
        assert!(gpu.idfg_ns > 0.0 && cpu.idfg_ns > 0.0);
    }
}
