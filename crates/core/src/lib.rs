#![warn(missing_docs)]

//! # gdroid-core — GDroid: GPU worklist kernels for IDFG construction
//!
//! The paper's primary contribution, on top of the `gdroid-gpusim`
//! simulator:
//!
//! * [`opts`] — the optimization ladder: plain (Alg. 2) → MAT → MAT+GRP →
//!   full GDroid (Alg. 3);
//! * [`layout`] — device buffer planning (`d_icfg`/`d_stmt`/`d_fact_*`),
//!   group-major node storage under GRP;
//! * [`kernel`] — the warp-centric block program: one method per thread
//!   block, one worklist node per lane, with branch partitions, memory
//!   address generation, and set growth modeled per configuration;
//! * [`fixpoint`] — Alg. 2's host loop, stated once: SBDA layers
//!   bottom-up, one block per method, recursive SCCs re-launched until
//!   their summaries stabilize, summaries derived host-side;
//! * the *launch policies* over it, which decide only how a round's blocks
//!   reach a device and how modeled time is accounted — [`driver`] (solo:
//!   one launch per round through the dual-buffering pipeline, or one
//!   persistent session) and [`batch`] (co-resident apps sharing launches,
//!   attributed per app by re-packing);
//! * [`engine`] — the `AnalysisEngine` boundary the vetting layers select
//!   an engine through;
//! * [`stats`] — the measured quantities behind Figs. 4 and 8–12 and
//!   Table II.
//!
//! Every configuration computes the *identical* IDFG (cross-checked
//! against the CPU reference in tests); the flags only change simulated
//! cost and schedule.

pub mod batch;
pub mod driver;
pub mod engine;
pub mod fixpoint;
pub mod kernel;
pub mod layout;
pub mod opts;
pub mod stats;

pub use batch::{gpu_analyze_batch_on, BatchStats};
pub use engine::{AnalysisEngine, CpuEngine, EngineAnalysis, EngineKind, ExecMode, WorklistEngine};

pub use driver::{gpu_analyze_app, gpu_analyze_app_on};
pub use fixpoint::AppInput;
pub use gdroid_analysis::Presolved;
pub use kernel::run_method_block;
pub use layout::{plan_layout, AppLayout, MethodLayout};
pub use opts::OptConfig;
pub use stats::{GpuRunStats, WorklistProfile};
