#![warn(missing_docs)]

//! # gdroid-serve — in-process vetting service
//!
//! The paper frames GDroid as infrastructure for *app-store-scale*
//! vetting: thousands of submissions a day flowing through a farm of
//! GPU-equipped analysis hosts. This crate builds that serving layer on
//! top of the single-app pipeline in `gdroid-vetting`:
//!
//! * `queue` — the one bounded, closable, best-first queue both stages
//!   hand work through. Its submit stage admits jobs in three priority
//!   classes, FIFO within a class; [`VettingService::submit`] blocks while
//!   it is full (backpressure), the only admission path;
//! * `scheduler` — the dispatch stage between host-side prep and device
//!   execution: executors pop priority-then-heaviest (greedy LPT), the
//!   bound double-buffers prep against execution, jobs that watched a
//!   bounded number of pops go by are promoted past every other, and
//!   [`ServiceConfig::coresident`] lets executors top a device up with
//!   co-resident jobs whose combined block demand fits its block slots;
//! * [`cache`] — content-hash result cache (bundle bytes → outcome) whose
//!   entries keep a per-package [`gdroid_sumstore::SumStore`]; its
//!   invalidation path hands that store to the updated app's run, so only
//!   the methods whose body or callee subtree changed reach the device;
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
//! A [`gdroid_sumstore::SumStore`] the caller built (a corpus's
//! `gdroid_vetting::library_store`) can be attached via
//! [`ServiceConfig::sumstore`]: executors then vet through
//! `gdroid-vetting`'s store-aware path, pre-solving the library methods
//! it holds without ever writing it, and the [`ServiceReport`] surfaces
//! the runs' hits and misses beside the result cache's counters.
//!
//! Verdicts are engine-independent: a cached, incremental, or device
//! outcome renders the byte-identical report JSON a sequential
//! [`gdroid_vetting::vet_app`] run produces (the soak test in
//! `tests/soak.rs` enforces this under injected device faults).

pub mod cache;
pub mod job;
pub mod metrics;
mod queue;
mod scheduler;
pub mod service;
pub mod trace;

pub use cache::{app_content_hash, bundle_content_hash, fnv1a, CacheStats, Fnv1a, ResultCache};
pub use job::{CacheDisposition, JobResult, JobSource, JobSpec, JobStatus, Priority};
pub use metrics::{
    Counters, CountersSnapshot, Histogram, HistogramSnapshot, ServiceMetrics, ServiceReport,
    SourceStats,
};
pub use queue::SubmitError;
pub use service::{ServiceConfig, VettingService};
pub use trace::{job_trace, write_job_traces};
