//! `gdroid-rel`: a relational (semi-naive Datalog) GPU backend for the
//! IDFG data-flow analysis — the second engine behind the
//! [`gdroid_core::AnalysisEngine`] trait.
//!
//! Where the worklist engine (`gdroid-core`) models the paper's
//! MAT/GRP/MER kernels — per-node worklist entries dispatched through a
//! 25-way statement switch — this crate compiles the same transfer
//! functions into **relations** and evaluates them semi-naively:
//!
//! * `IN(node, fact)` — the dense fact relation (the [`MatrixStore`]
//!   rows, viewed as sorted key arrays on device);
//! * `E(src, dst)` — the CFG edge relation;
//! * `Δ(node)` — the delta relation of nodes whose IN changed last round.
//!
//! Each round scans `Δ` and the delta nodes' IN-relations, evaluates the
//! transfer descriptors branch-uniformly, joins the produced OUT-tuples
//! through per-node **hash indexes** ([`gdroid_gpusim::BlockCtx::hash_join`]),
//! and dedups the next delta with a bitonic sort. Round 0 is the naive
//! round over all entry-reachable nodes, so generating transfers fire
//! exactly as the worklist's first visit does.
//!
//! The trade the benchmark (`figures rel`) measures: relational rounds
//! eliminate warp divergence (uniform scan/eval lanes) but pay scattered,
//! chain-dependent hash probes and per-round sort barriers where the
//! worklist pays branchy dispatch. Facts and summaries are byte-identical
//! across both engines and the CPU reference — the fixpoint is unique;
//! only the modeled road to it differs.
//!
//! [`MatrixStore`]: gdroid_analysis::MatrixStore

pub mod driver;
pub mod engine;
pub mod kernel;
pub mod layout;

pub use driver::{rel_analyze_app, rel_analyze_app_on};
pub use engine::RelEngine;
pub use kernel::run_method_rel;
pub use layout::{index_cap, plan_rel_layout, MethodRelLayout, RelLayout};
