#![warn(missing_docs)]

//! # gdroid-serve — in-process vetting service
//!
//! The paper frames GDroid as infrastructure for *app-store-scale*
//! vetting: thousands of submissions a day flowing through a farm of
//! GPU-equipped analysis hosts. This crate builds that serving layer on
//! top of the single-app pipeline in `gdroid-vetting`:
//!
//! * [`queue`] — bounded submission queue with three priority classes,
//!   blocking backpressure, and admission-control shedding;
//! * [`scheduler`] — the bounded ready-heap between host-side prep and
//!   device execution: executors pop priority-then-heaviest (greedy
//!   LPT), the bound double-buffers prep against execution, aged jobs are
//!   promoted past the bound ([`scheduler::STARVATION_BOUND`]), and
//!   [`ServiceConfig::coresident`] lets executors top a device up with
//!   co-resident jobs whose combined block demand fits its block slots;
//! * [`cache`] — content-hash result cache (bundle bytes → outcome) whose
//!   invalidation path hands the previous analysis to
//!   [`gdroid_analysis::analyze_app_incremental`], so an updated app
//!   re-solves only its changed methods;
//! * [`metrics`] — per-stage counters and latency histograms behind the
//!   machine-readable [`ServiceReport`];
//! * [`service`] — K prep workers and D executors, one long-lived
//!   simulated device each (`reset` between apps; lifetime fault
//!   schedules survive), per-job retry with poison-job quarantine, and
//!   the graceful drain protocol;
//! * [`job`] — job descriptions, priorities, and per-job results;
//! * [`trace`] — post-drain per-job Chrome traces in modeled time
//!   (wall-clock jitter never reaches a trace file).
//!
//! A shared [`gdroid_sumstore::SumStore`] can be attached via
//! [`ServiceConfig::sumstore`]: executors then vet through
//! `gdroid-vetting`'s store-aware path, pre-solving library methods
//! contributed by earlier jobs, and the [`ServiceReport`] surfaces the
//! store's hit/miss counters beside the result cache's.
//!
//! Verdicts are engine-independent: a cached, incremental, or device
//! outcome renders the byte-identical report JSON a sequential
//! [`gdroid_vetting::vet_app`] run produces (the soak test in
//! `tests/soak.rs` enforces this under injected device faults).

pub mod cache;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod scheduler;
pub mod service;
pub mod trace;

pub use cache::{
    app_content_hash, bundle_content_hash, changed_methods, fnv1a, interner_fingerprint,
    method_hashes, CacheStats, PrevAnalysis, ResultCache,
};
pub use job::{CacheDisposition, JobResult, JobSource, JobSpec, JobStatus, Priority};
pub use metrics::{
    Counters, CountersSnapshot, Histogram, HistogramSnapshot, ServiceMetrics, ServiceReport,
    SourceStats,
};
pub use queue::{SubmitError, SubmitQueue};
pub use scheduler::{block_demand, work_estimate, DispatchHeap, ReadyJob, STARVATION_BOUND};
pub use service::{ServiceConfig, VettingService};
pub use trace::{job_trace, write_job_traces};
