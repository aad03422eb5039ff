#![warn(missing_docs)]

//! # gdroid-campaign — store-scale vetting campaigns
//!
//! The paper's headline scenario is an app store vetting its whole
//! catalog: a thousand apps a day streamed through a fleet of GPU
//! analysis nodes. This crate builds that campaign layer on top of the
//! serving layer in `gdroid-serve`:
//!
//! * [`campaign`] — the orchestrator: one [`gdroid_serve::VettingService`]
//!   per shard (a simulated multi-GPU node), each streaming its strided
//!   slice of the corpus (`generate → vet → journal → discard`, memory
//!   bounded by the service's in-flight window);
//! * [`journal`] — the durable per-shard checkpoint: an append-only,
//!   per-line-checksummed record of every terminal app outcome. A killed
//!   campaign resumes from its journals — the torn tail (at most one
//!   line) is truncated, recorded apps are skipped, and the rest re-runs;
//! * [`report`] — the merged [`FleetReport`], folded **only** from
//!   journal records so uninterrupted and kill/resume runs render the
//!   byte-identical report, plus [`gdroid_serve::ServiceReport::merge`]
//!   for the live (non-canonical, wall-clock) side.
//!
//! Determinism contract: per-app seeds depend only on `(master seed,
//! index)` ([`gdroid_apk::Corpus::seed_for`]), the strided shard split
//! partitions the index set, and all journaled quantities are modeled or
//! counted — so the fleet report and the per-app verdict lines are
//! byte-identical across reruns, kill/resume, and (for the verdict
//! lines) any shard count.

pub mod campaign;
pub mod fold;
pub mod journal;
pub mod report;

pub use campaign::{
    config_digest, effective_seed, run_campaign, CampaignConfig, CampaignError, CampaignOutcome,
    DeltaReport,
};
pub use fold::{FoldOutcome, OpenFailure, ShardFold, TopApp};
pub use journal::{
    journal_path, newest_segment, read_campaign_journals, read_journal, read_shard_records,
    read_shard_tail, segment_path, AppRecord, Journal, JournalContents, JournalError,
    JournalHeader, RecordStatus, SegmentedJournal, JOURNAL_VERSION,
};
pub use report::{FleetReport, ShardSummary, Straggler, STRAGGLER_COUNT};
