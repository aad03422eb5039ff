#![warn(missing_docs)]

//! # gdroid — GPU-based static data-flow analysis for Android app vetting
//!
//! A full-system Rust reproduction of *"GPU-Based Static Data-Flow
//! Analysis for Fast and Scalable Android App Vetting"* (IPDPS 2020).
//! This umbrella crate re-exports the whole stack; see the individual
//! crates for depth:
//!
//! | crate | contents |
//! |---|---|
//! | [`ir`] | Android-like IR (9 statement kinds, 17 expression kinds), `.jil` text format |
//! | [`apk`] | synthetic app generator and the deterministic 1000-app corpus |
//! | [`icfg`] | CFGs, CHA call graph, environment methods, SBDA layering |
//! | [`analysis`] | points-to fact domain, set/matrix stores, transfer functions, CPU solvers |
//! | [`gpusim`] | warp-synchronous SIMT GPU simulator (TESLA P40 model) |
//! | [`core`] | the GDroid kernels: plain, MAT, MAT+GRP, full GDroid; the `AnalysisEngine` trait |
//! | [`vetting`] | taint analysis plugin, IDFG-reuse plugins, risk assessment, end-to-end pipeline |
//! | [`sumstore`] | cross-app shared-library summary store keyed by canonical method hashes |
//! | [`serve`] | in-process vetting service: priority queue, device scheduler, result cache |
//! | [`campaign`] | store-scale campaigns: sharded fleets, checkpoint journals, resume, merged fleet report |
//! | [`trace`] | modeled-time event tracing: Chrome `trace_event` export, zero-cost when disabled |
//!
//! Beyond the paper's core, the stack implements extensions around it:
//! a cross-app summary store ([`sumstore`]) that also warm-starts an
//! updated app from its previous version, a concrete-execution soundness
//! oracle ([`analysis::concrete`]), and an app-store-style serving layer
//! ([`serve`]) that packs jobs onto executors owning one long-lived
//! simulated device each, with caching, fault retry, and per-stage
//! observability.
//!
//! ## Quickstart
//!
//! ```
//! use gdroid::apk::{generate_app, GenConfig};
//! use gdroid::core::OptConfig;
//! use gdroid::vetting::{vet_app, Engine};
//!
//! // Generate a synthetic app and vet it on the simulated GPU with all
//! // three GDroid optimizations.
//! let app = generate_app(0, 42, &GenConfig::tiny());
//! let outcome = vet_app(app, Engine::Gpu(OptConfig::gdroid()));
//! println!("{}", outcome.report.render());
//! println!("IDFG construction: {:.2} ms", outcome.timing.idfg_ns / 1e6);
//! ```

pub use gdroid_analysis as analysis;
pub use gdroid_apk as apk;
pub use gdroid_campaign as campaign;
pub use gdroid_core as core;
pub use gdroid_gpusim as gpusim;
pub use gdroid_icfg as icfg;
pub use gdroid_ir as ir;
pub use gdroid_serve as serve;
pub use gdroid_sumstore as sumstore;
pub use gdroid_trace as trace;
pub use gdroid_vetting as vetting;

/// Crate version (workspace-wide).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
