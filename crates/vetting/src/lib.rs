#![warn(missing_docs)]

//! # gdroid-vetting — app vetting on top of the IDFG
//!
//! The paper's motivating application: fast Android app security vetting.
//! This crate adds the Amandroid-style plugin layer over the IDFG the
//! other crates construct:
//!
//! * [`registry`] — taint roles of the modeled Android API surface;
//! * [`taint`] — instance-labeling taint propagation over the node-wise
//!   points-to facts, intra- and inter-procedural;
//! * [`report`] — leak reports and verdicts;
//! * [`pipeline`] — the stages around the IDFG (environment → call graph
//!   → … → taint) with the per-stage timing behind Fig. 1;
//! * [`plan`] — [`ExecPlan`] (engine × targeted), the engines'
//!   batching table, and [`execute`], the one function that runs a
//!   plan against an [`ExecCtx`] (device, summary store, tracer) with
//!   byte-identical reports across every combination — and
//!   [`execute_coresident`], its steps for a co-resident group;
//! * [`store_exec`] — the summary-store step of a run: store-hit methods
//!   are pre-solved and never scheduled; no run writes the
//!   [`gdroid_sumstore::SumStore`]. Its two builders: [`library_store`]
//!   solves a corpus's library packages once, and [`summary_store`] turns
//!   a finished run into the store a later version of the app
//!   warm-starts from;
//! * [`targeted`] — the demand-driven step: a backward slice from the
//!   sink statements restricts the engine to the methods that can
//!   influence a sink verdict;
//! * [`plugins`] — further IDFG-reuse plugins in the Amandroid style:
//!   intent exposure, hardcoded payloads, permission audit;
//! * [`assess`] — the composite, reviewer-auditable risk assessment
//!   aggregating every plugin into one scored verdict.
//!
//! ## Entry points
//!
//! [`prepare_vetting`] runs the host-side prep stage once per app. Then:
//!
//! * [`execute`]`(&prep, plan, &mut ctx)` — every single-app run, cold,
//!   against a corpus's [`library_store`], or warm-started from a
//!   previous version's [`summary_store`];
//! * [`vet_prepared`] / [`vet_app`] — `execute` on a fresh device with
//!   no store and no tracer (the latter prepares the app itself);
//! * [`execute_coresident`]`(&preps, plan, &mut ctx)` — the same steps
//!   for several apps co-resident in shared kernel launches.

pub mod assess;
pub mod json;
pub mod pipeline;
pub mod plan;
pub mod plugins;
pub mod registry;
pub mod report;
pub mod store_exec;
pub mod taint;
pub mod targeted;

pub use assess::{assess_app, Assessment, RiskBand, Signal};
pub use pipeline::{
    prepare_vetting, trace_stage_spans, vet_app, PreparedApp, VettingOutcome, VettingRun,
    VettingTiming,
};
pub use plan::{
    engine_for_mode, execute, execute_coresident, vet_prepared, Engine, EngineCaps, ExecCtx,
    ExecPlan, Executed,
};
pub use plugins::{
    hardcoded_payloads, intent_exposure, permission_audit, ExposureFinding, HardcodedFinding,
    PermissionAudit,
};
pub use registry::{SourceId, SourceSinkRegistry};
pub use report::{Leak, Verdict, VettingReport};
pub use store_exec::{library_store, summary_store, StoreUse};
pub use taint::{TaintAnalysis, TaintStats};
pub use targeted::{compute_vetting_slice, sink_reachability_findings, TargetedProvenance};
