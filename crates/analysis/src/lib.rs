#![warn(missing_docs)]

//! # gdroid-analysis — the data-flow analysis core
//!
//! Implements the points-to data-flow analysis whose IDFG construction the
//! GDroid paper accelerates:
//!
//! * [`fact`] — the `(slot, instance)` fact domain and the pre-determined
//!   per-method pools MAT relies on;
//! * [`store`] — the set-based fact store (original) and the MAT
//!   bitmask-matrix store, with the memory accounting behind Fig. 10;
//! * [`transfer`] — gen/kill transfer functions (`ProcessNode`), shared by
//!   every solver in the repository;
//! * [`summary`] — SBDA heap-manipulation summaries;
//! * [`solver`] — the sequential worklist solver (Alg. 1) and the one
//!   bottom-up app driver. It maps the SCCs of a layer one after another
//!   on one thread and records the layer schedule, from which
//!   [`CpuCostModel::parallel_ns`] models the multithreaded CPU baseline
//!   (the paper's "multithreading C" Amandroid re-implementation);
//! * [`costmodel`] — the calibrated CPU timing model (see DESIGN.md for
//!   why time is modeled rather than measured);
//! * [`concrete`] — a concrete IR interpreter used as a dynamic soundness
//!   oracle: every observed runtime points-to must appear in the IDFG;
//! * [`incremental`] — summary-driven incremental re-analysis across app
//!   updates (the introduction's "apps update weekly or daily" pressure);
//! * [`slice`] — backward inter-procedural slicing from sink statements,
//!   the demand-driven targeted-vetting core.

pub mod concrete;
pub mod costmodel;
pub mod fact;
pub mod incremental;
pub mod slice;
pub mod solver;
pub mod store;
pub mod summary;
pub mod transfer;

pub use concrete::{check_soundness, validate_app, InterpConfig, Interpreter, Violation};
pub use costmodel::{ns_to_ms, ns_to_s, CpuCostModel};
pub use fact::{Fact, Instance, InstanceIdx, MethodSpace, Slot, SlotIdx};
pub use incremental::{analyze_app_incremental, IncrementalStats};
pub use slice::BackwardSlice;
/// The multithreaded CPU baseline's entry point: [`analyze_app`] under its
/// historical name. It runs on one thread; the baseline's time comes from
/// [`CpuCostModel::parallel_ns`] over the layer schedule it records.
pub use solver::analyze_app as analyze_app_parallel;
pub use solver::{
    analyze_app, analyze_app_presolved, merge_site_summaries, solve_method, AppAnalysis, StoreKind,
    WorklistTelemetry,
};
pub use store::{FactStore, Geometry, MatrixStore, NodeFacts, NodeView, SetStore, UnionOutcome};
pub use summary::{derive_summary, MethodSummary, SummaryMap, Token};
pub use transfer::{CallResolution, TransferCtx, TransferEffort};
