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

/// Retired launch-policy selector, kept only because the frozen
/// `benchmark/` harness names its variants until ROADMAP 3f. Only
/// `gdroid_vetting::engine_for_mode` takes it, and ignores it: every
/// variant runs the one launch policy (one kernel launch per fixpoint
/// round, the paper's loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One kernel launch per fixpoint round.
    MultiLaunch,
    /// The retired persistent kernel; runs as [`ExecMode::MultiLaunch`].
    Persistent,
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
    /// Every engine accepts both.
    fn analyze_on(
        &self,
        device: &mut Device,
        program: &Program,
        cg: &CallGraph,
        roots: &[MethodId],
        presolved: &Presolved,
        slice: Option<&HashSet<MethodId>>,
    ) -> Result<EngineAnalysis, DeviceFault>;
}

/// The worklist-GPU engine: `gpu_analyze_app_on` behind the trait.
pub struct WorklistEngine {
    /// Optimization-ladder rung the kernels run at.
    pub opts: OptConfig,
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
        presolved: &Presolved,
        slice: Option<&HashSet<MethodId>>,
    ) -> Result<EngineAnalysis, DeviceFault> {
        let input = AppInput { program, cg, roots, presolved, slice };
        gpu_analyze_app_on(device, &input, self.opts)
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
        presolved: &Presolved,
        slice: Option<&HashSet<MethodId>>,
    ) -> Result<EngineAnalysis, DeviceFault> {
        let analysis =
            analyze_app_presolved(program, cg, roots, StoreKind::Matrix, presolved, slice);
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
    fn worklist_and_cpu_engines_agree_on_facts() {
        let mut app = generate_app(0, 8601, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let mut device = Device::new(DeviceConfig::tiny());
        let none = HashMap::new();
        let gpu = WorklistEngine { opts: OptConfig::gdroid() }
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
