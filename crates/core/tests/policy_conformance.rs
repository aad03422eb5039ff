//! Launch-policy conformance: both policies over the shared host loop
//! (`gdroid_core::fixpoint::Fixpoint`) must reach the CPU reference's
//! fixpoint on an app whose recursion forces SCC re-launches — with and
//! without a pre-solved closed subset where the policy accepts one.

use gdroid_analysis::{analyze_app, AppAnalysis, MatrixStore, StoreKind, SummaryMap};
use gdroid_apk::{generate_app, App, GenConfig};
use gdroid_core::{
    gpu_analyze_app_on, gpu_analyze_batch_on, AppInput, ExecMode, OptConfig, Presolved,
};
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_icfg::{prepare_app, CallGraph, CallLayers};
use gdroid_ir::MethodId;
use std::collections::HashMap;

struct Case {
    app: App,
    cg: CallGraph,
    roots: Vec<MethodId>,
    cpu: AppAnalysis,
}

/// A tiny app with recursion dialed up so multi-member SCCs are certain.
fn recursive_case(seed: u64) -> Case {
    let config = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
    let mut app = generate_app(0, seed, &config);
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    let cpu = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
    Case { app, cg, roots, cpu }
}

impl Case {
    /// The bottom half of the layer schedule with its reference results: a
    /// callee-closed set, since calls only go down (or stay inside an SCC).
    fn presolved_bottom_half(&self) -> Presolved {
        let layers = CallLayers::compute(&self.cg, &self.roots);
        let cut = (layers.layer_count() / 2) as u32;
        let below = layers.scc_of.keys().filter(|&&m| layers.layer_of(m).unwrap() < cut);
        below.map(|&m| (m, (self.cpu.summaries[&m].clone(), self.cpu.facts[&m].clone()))).collect()
    }

    fn assert_reference(&self, row: &str, s: &SummaryMap, facts: &HashMap<MethodId, MatrixStore>) {
        assert_eq!(s, &self.cpu.summaries, "{row}: summaries differ from the CPU reference");
        assert_eq!(facts.len(), self.cpu.facts.len(), "{row}: fact-map size");
        for (mid, cpu) in &self.cpu.facts {
            assert_eq!(facts[mid].flat_words(), cpu.flat_words(), "{row}: facts differ at {mid:?}");
        }
    }
}

#[test]
fn every_launch_policy_reaches_the_reference_fixpoint() {
    let case = recursive_case(0x5cc);
    let layers = CallLayers::compute(&case.cg, &case.roots);
    assert!(layers.scc_members.iter().any(|m| m.len() > 1), "no multi-member SCC generated");
    let presolved = case.presolved_bottom_half();
    assert!(!presolved.is_empty() && presolved.len() < layers.method_count());

    // Solo, both exec modes, with and without store hits.
    for exec in ExecMode::ALL {
        for (label, pre) in [("cold", &Presolved::new()), ("presolved", &presolved)] {
            let mut device = Device::new(DeviceConfig::tiny());
            let run = gpu_analyze_app_on(
                &mut device,
                &AppInput {
                    program: &case.app.program,
                    cg: &case.cg,
                    roots: &case.roots,
                    presolved: pre,
                    slice: None,
                },
                OptConfig::gdroid(),
                exec,
            )
            .expect("no fault plan");
            case.assert_reference(&format!("solo {exec} {label}"), &run.summaries, &run.facts);
            if exec == ExecMode::MultiLaunch && pre.is_empty() {
                // More launches than layers: some SCC went round again.
                assert!(
                    run.stats.launches > layers.layer_count(),
                    "no SCC re-launched: {} launches over {} layers",
                    run.stats.launches,
                    layers.layer_count()
                );
            }
        }
    }

    // Co-resident, K = 3.
    let others = [recursive_case(0x5cd), recursive_case(0x5ce)];
    let batch_cases = [&case, &others[0], &others[1]];
    let apps: Vec<AppInput<'_>> =
        batch_cases.iter().map(|c| AppInput::new(&c.app.program, &c.cg, &c.roots)).collect();
    let mut device = Device::new(DeviceConfig::tiny());
    let batch = gpu_analyze_batch_on(&mut device, &apps, OptConfig::gdroid()).expect("no faults");
    for (i, (c, run)) in batch_cases.iter().zip(&batch.0).enumerate() {
        c.assert_reference(&format!("co-resident app {i}"), &run.summaries, &run.facts);
    }
}
