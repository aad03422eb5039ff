//! [`RelEngine`]: the relational backend behind the
//! [`gdroid_core::AnalysisEngine`] boundary.

use crate::driver::rel_analyze_app_on;
use gdroid_analysis::{MatrixStore, MethodSummary};
use gdroid_core::{AnalysisEngine, EngineAnalysis, EngineKind};
use gdroid_gpusim::{Device, DeviceFault};
use gdroid_icfg::CallGraph;
use gdroid_ir::{MethodId, Program};
use std::collections::{HashMap, HashSet};

/// The relational (semi-naive Datalog) GPU engine. Carries no tuning
/// knobs: the relational plan has one shape (scan → eval → join → dedup),
/// unlike the worklist engine's MAT/GRP/MER ladder.
pub struct RelEngine;

impl AnalysisEngine for RelEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Rel
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
        Ok(rel_analyze_app_on(device, program, cg, roots, presolved, slice)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_core::{CpuEngine, WorklistEngine};
    use gdroid_gpusim::DeviceConfig;
    use gdroid_icfg::prepare_app;

    #[test]
    fn all_three_engines_agree_behind_the_trait() {
        let mut app = generate_app(0, 9301, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let none = HashMap::new();
        let engines: Vec<Box<dyn AnalysisEngine>> =
            vec![Box::new(WorklistEngine::gdroid()), Box::new(RelEngine), Box::new(CpuEngine)];
        let mut device = Device::new(DeviceConfig::tiny());
        let runs: Vec<EngineAnalysis> = engines
            .iter()
            .map(|e| e.analyze_on(&mut device, &app.program, &cg, &roots, &none, None).unwrap())
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.summaries, runs[0].summaries);
            assert_eq!(run.facts.len(), runs[0].facts.len());
            for (mid, store) in &run.facts {
                assert_eq!(store.flat_words(), runs[0].facts[mid].flat_words(), "{mid:?}");
            }
        }
        assert_eq!(engines[1].kind(), EngineKind::Rel);
    }
}
