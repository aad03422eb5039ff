#![warn(missing_docs)]

//! # gdroid-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) from
//! the deterministic synthetic corpus. The `figures` binary drives it:
//!
//! ```text
//! cargo run -p gdroid-bench --release --bin figures -- all --apps 1000
//! ```
//!
//! [`run_app`] produces one [`AppRecord`] with every engine's result for
//! one app; [`experiments`] turns record sets into the paper's reported
//! aggregates, labeling each with the paper's value for comparison.

pub mod batch;
pub mod corpus;
pub mod corpus1000;
pub mod experiments;
pub mod lane;
pub mod record;
pub mod sancheck;
pub mod serve;
pub mod snapshot;
pub mod stats;
pub mod sumstore;
pub mod targeted;
pub mod trace;

pub use batch::{batch_benchmark, run_batch_point, BatchPoint};
pub use corpus::{corpus_prep, corpus_preps};
pub use corpus1000::{corpus1000_benchmark, Corpus1000, LadderRung};
pub use record::{run_app, run_corpus, AppRecord, GpuSummary};
pub use sancheck::{sancheck_corpus, SancheckOutcome};
pub use serve::{run_service, serve_benchmark, ServePoint};
pub use snapshot::{
    run_store_comparison, snapshot_benchmark, snapshot_rotate, ShardHits, StoreComparison,
    SNAPSHOT_ROTATE, SNAPSHOT_SHARDS,
};
pub use stats::{percent_below, percent_between, Series};
pub use sumstore::{run_sumstore_point, sumstore_benchmark, SumstorePoint};
pub use targeted::{run_targeted_point, targeted_benchmark, TargetedPoint};
pub use trace::{trace_benchmark, TracePoint};
