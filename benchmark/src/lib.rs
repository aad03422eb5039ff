#![warn(missing_docs)]

//! # gdroid-benchmark — the repository's two-ledger benchmark
//!
//! Four workloads drive the program through its public API and are
//! measured **from outside**: by timing calls into the layers' public
//! functions and by reading the counters the program already publishes.
//! Host wall-clock numbers are the *host ledger*; modeled (simulated)
//! times and exact counts are the *modeled ledger*, which must repeat bit
//! for bit on one seed. See `README.md` for how to read both.
//!
//! * [`workloads`] — the four workloads, their inputs and load shape;
//! * [`run`] — one measured run: untraced (end-to-end metrics) or traced
//!   (per-layer metrics);
//! * [`layers`] — the traced pass: a sample replayed through the
//!   decomposed calls of every layer, one span per call;
//! * [`oracle`] — the CPU reference engine every verdict is checked
//!   against;
//! * [`suite`] — all workloads in child processes, `results.json`, and
//!   the `--check-repeat` comparison;
//! * [`metrics`] — the declared metric lists;
//! * [`spans`], [`stats`], [`json`] — span recorder, order statistics,
//!   and a small JSON value.

pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;

/// The suite's default seed.
pub const DEFAULT_SEED: u64 = 0x6D01;
