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
//! * [`plan`] — [`ExecPlan`] (engine × exec mode × targeted), its
//!   capability table, and [`execute`], the one function that runs a
//!   plan against an [`ExecCtx`] (device, summary store, tracer, a
//!   previous version's analysis to warm-start from) with byte-identical
//!   reports across every accepted combination;
//! * [`store_exec`] — the summary-store steps of a run: store-hit library
//!   methods are pre-solved and never scheduled, fresh solves feed the
//!   cross-app [`gdroid_sumstore::SumStore`];
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
//! * [`execute`]`(&prep, plan, &mut ctx)` — every single-app run, cold
//!   or warm-started from a previous version ([`ExecCtx::prev`]);
//! * [`vet_prepared`] / [`vet_app`] — `execute` on a fresh device with
//!   no store and no tracer (the latter prepares the app itself);
//! * [`execute_vetting_batch_on_device`] — several apps co-resident in
//!   shared kernel launches.

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
    execute_vetting_batch_on_device, prepare_vetting, trace_stage_spans, vet_app, PreparedApp,
    VettingOutcome, VettingRun, VettingTiming,
};
pub use plan::{
    engine_for_mode, execute, vet_prepared, Engine, EngineCaps, ExecCtx, ExecPlan, Executed,
    PlanRefusal,
};
pub use plugins::{
    hardcoded_payloads, intent_exposure, permission_audit, ExposureFinding, HardcodedFinding,
    PermissionAudit,
};
pub use registry::{SourceId, SourceSinkRegistry};
pub use report::{Leak, Verdict, VettingReport};
pub use store_exec::StoreUse;
pub use taint::{TaintAnalysis, TaintStats};
pub use targeted::{compute_vetting_slice, sink_reachability_findings, TargetedProvenance};
