#![warn(missing_docs)]

//! # gdroid-icfg — control-flow substrate
//!
//! Everything between the raw IR and the data-flow analysis:
//!
//! * [`mod@cfg`] — intra-procedural control-flow graphs (entry/exit nodes,
//!   fall-through and jump edges, throw-to-handler routing);
//! * [`callgraph`] — class-hierarchy-analysis call graph with virtual
//!   dispatch over the app hierarchy and explicit external (framework)
//!   edges;
//! * [`mod@env`] — per-component *environment method* synthesis: the `EC` entry
//!   points of the paper's IDFG definition (equation (1)), modeling the
//!   Android lifecycle state machine including the pause/resume loop;
//! * [`layers`] — Tarjan SCC condensation and bottom-up layering of the
//!   call graph, the prerequisite for Summary-based Bottom-up Data-flow
//!   Analysis (SBDA) that makes one-method-per-thread-block parallelism
//!   sound;
//! * [`export`] — Graphviz (DOT) rendering of the call graph.

pub mod callgraph;
pub mod cfg;
pub mod env;
pub mod export;
pub mod layers;

pub use callgraph::{CallGraph, CallTarget};
pub use cfg::{Cfg, CfgNode, NodeId};
pub use env::{prepare_app, synthesize_environments, EnvironmentInfo};
pub use export::callgraph_to_dot;
pub use layers::{CallLayers, LayerScc, SccId};
