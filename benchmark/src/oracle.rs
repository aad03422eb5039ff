//! The independent oracle: every verdict a workload produces is compared
//! with what the sequential CPU reference engine (`EngineKind::Cpu`)
//! derives for the same input, outside the timed region.

use crate::workloads::AppKey;
use gdroid::apk::App;
use gdroid::core::{EngineKind, ExecMode};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::serve::fnv1a;
use gdroid::vetting::{
    engine_for_mode, prepare_vetting, SourceSinkRegistry, TaintAnalysis, VettingReport,
};
use std::collections::HashMap;

/// A verdict as the program reported it.
pub enum Reported {
    /// The whole report: verdict and leak list are compared.
    Full(VettingReport),
    /// What a campaign journals: the verdict label and the FNV-1a of the
    /// report JSON (which covers the leak list byte for byte).
    Digest {
        /// `Clean` / `Suspicious`.
        verdict: String,
        /// FNV-1a of `VettingReport::to_json()`.
        report_fnv: u64,
    },
}

/// Vets `app` with the CPU reference engine and the taint plugin.
pub fn reference_report(app: App) -> VettingReport {
    let prep = prepare_vetting(app);
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let analysis = engine_for_mode(EngineKind::Cpu, ExecMode::MultiLaunch)
        .analyze_on(&mut device, &prep.app.program, &prep.cg, &prep.roots, &HashMap::new(), None)
        .expect("the cpu engine never touches the device, so it cannot fault");
    let registry = SourceSinkRegistry::for_program(&prep.app.program);
    TaintAnalysis::new(
        &prep.app.program,
        &prep.cg,
        &analysis.facts,
        &analysis.spaces,
        &analysis.cfgs,
        &registry,
    )
    .run()
    .0
}

/// Reference reports, computed once per distinct input.
#[derive(Default)]
pub struct Oracle {
    reference: HashMap<AppKey, VettingReport>,
}

impl Oracle {
    /// Whether `reported` equals the reference verdict for the input
    /// `key` names; `app` materializes that input on first use.
    pub fn agrees(&mut self, key: AppKey, app: impl FnOnce() -> App, reported: &Reported) -> bool {
        let reference = self.reference.entry(key).or_insert_with(|| reference_report(app()));
        match reported {
            Reported::Full(report) => {
                report.verdict == reference.verdict && report.leaks == reference.leaks
            }
            Reported::Digest { verdict, report_fnv } => {
                *verdict == format!("{:?}", reference.verdict)
                    && *report_fnv == fnv1a(reference.to_json().as_bytes())
            }
        }
    }
}
