//! The merged fleet report.
//!
//! A [`FleetReport`] is folded **exclusively** from journal records —
//! never from live service state — in uninterrupted and resumed runs
//! alike. That single-source-of-truth rule is what makes the report
//! byte-identical across kill/resume: every number either comes straight
//! from a durable record or is a deterministic function of the record
//! set. Wall-clock aggregates (which vary run to run and are meaningless
//! after a resume) live in the merged [`gdroid_serve::ServiceReport`],
//! which the campaign layer keeps out of the canonical report file.
//!
//! Two fold entries, one implementation: [`FleetReport::from_records`]
//! runs every record of every shard through a [`ShardFold`];
//! [`FleetReport::from_folds`] starts each shard from a sealed-segment
//! rollup (a deserialized `ShardFold`, empty for a journal that never
//! sealed) and folds only the unsealed tail. Both finish by merging the
//! shards' folds ([`ShardFold::merge`]), so the incremental report is
//! byte-identical to the monolithic one by construction — a property the
//! snapshot bench and `tests/resume_gate.rs` assert outright.

use crate::campaign::DeltaReport;
use crate::fold::{verdict_line, ShardFold};
use crate::journal::{AppRecord, JournalError};
use gdroid_serve::HistogramSnapshot;
use gdroid_vetting::json::JsonWriter;

/// How many stragglers (slowest apps fleet-wide) the report lists.
pub const STRAGGLER_COUNT: usize = 5;

/// One of the fleet's slowest apps.
#[derive(Clone, Debug)]
pub struct Straggler {
    /// Corpus index.
    pub index: usize,
    /// Package name.
    pub package: String,
    /// Owning shard.
    pub shard: usize,
    /// Modeled pipeline time (ns).
    pub total_ns: f64,
}

/// The fleet-wide campaign report: per-shard rollups, modeled makespan
/// and balance, verdict tallies, a modeled per-app latency histogram,
/// and a digest over every (index, verdict, report-hash) triple.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Corpus master seed.
    pub master_seed: u64,
    /// Campaign size (apps across all shards).
    pub apps: usize,
    /// Shard count.
    pub shards: usize,
    /// Generator/mode digest (matches the journal headers).
    pub config_digest: u64,
    /// Kept records, sorted by corpus index (shard-agnostic order). In
    /// the incremental ([`Self::from_folds`]) path this holds only the
    /// unsealed-tail records — see [`Self::records_complete`].
    pub records: Vec<AppRecord>,
    /// Whether `records` covers every tallied app (`false` when some
    /// shard's fold started from a sealed-segment rollup, which carries
    /// aggregates but not individual records). Every tally and digest in
    /// the report covers all apps either way.
    pub records_complete: bool,
    /// Each shard's fold, by shard index.
    pub per_shard: Vec<ShardFold>,
    /// Completed apps fleet-wide.
    pub completed: usize,
    /// Suspicious verdicts fleet-wide.
    pub suspicious: usize,
    /// Clean verdicts fleet-wide.
    pub clean: usize,
    /// Completed apps with an unrecognized verdict string fleet-wide —
    /// surfaced as its own tally so a verdict-format drift can never be
    /// silently misbinned as clean.
    pub unknown: usize,
    /// Quarantined apps fleet-wide.
    pub quarantined: usize,
    /// Failed apps fleet-wide.
    pub failed: usize,
    /// Leaks fleet-wide.
    pub leaks: usize,
    /// Apps that needed more than one execution attempt.
    pub retried_apps: usize,
    /// Targeted (sliced) records.
    pub targeted_apps: usize,
    /// Mean sliced fraction over targeted records (1.0 when none).
    pub mean_sliced_fraction: f64,
    /// Summed modeled pipeline time of every completed app (ns) — the
    /// modeled one-node serial cost of the campaign.
    pub modeled_serial_ns: f64,
    /// Max per-shard modeled total (ns) — the modeled fleet makespan with
    /// one node per shard.
    pub modeled_makespan_ns: f64,
    /// `makespan / mean shard total` (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Distribution of per-app modeled pipeline times.
    pub app_model: HistogramSnapshot,
    /// The `STRAGGLER_COUNT` slowest apps fleet-wide.
    pub stragglers: Vec<Straggler>,
    /// Order-independent digest over every app's verdict line (the
    /// wrapping sum of per-line FNV-1a hashes) — one u64 that two
    /// campaigns (any shard layout, any fold path) can compare to prove
    /// verdict equality.
    pub verdict_digest: u64,
}

impl FleetReport {
    /// Folds per-shard record sets (element `i` = shard `i`'s journal
    /// records, in append order) into the fleet report, under the
    /// superseding-record rule: a later record for an index replaces an
    /// earlier `Failed` one (resume re-runs transient failures), while
    /// any other duplicate keeps the first record.
    ///
    /// For records this process produced or already folded once; panics
    /// where [`Self::from_folds`] reports corruption.
    pub fn from_records(
        master_seed: u64,
        apps: usize,
        config_digest: u64,
        shard_records: Vec<Vec<AppRecord>>,
    ) -> FleetReport {
        let shards = shard_records.into_iter().map(|r| (ShardFold::default(), r)).collect();
        FleetReport::from_folds(master_seed, apps, config_digest, shards)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The incremental fold: element `i` is shard `i`'s sealed-history
    /// rollup (from its newest journal file) plus the unsealed tail's
    /// records. Byte-identical to [`Self::from_records`] over the same
    /// underlying record set, but only the one unsealed file per shard
    /// was read — so [`Self::records`] holds tail records only, and
    /// [`Self::records_complete`] says whether that is all of them.
    /// Rollups and tails come from files: an overflowing tally is
    /// [`JournalError::Corrupt`]; per-shard ones name their shard.
    pub fn from_folds(
        master_seed: u64,
        apps: usize,
        config_digest: u64,
        shard_tails: Vec<(ShardFold, Vec<AppRecord>)>,
    ) -> Result<FleetReport, JournalError> {
        let corrupt = |reason| JournalError::Corrupt { line: 0, reason };
        let shards = shard_tails.len().max(1);
        let records_complete = shard_tails.iter().all(|(fold, _)| fold.indices.is_empty());
        let mut per_shard = Vec::with_capacity(shard_tails.len());
        let mut records = Vec::new();
        let mut total = ShardFold::default();
        for (shard, (mut fold, tail)) in shard_tails.into_iter().enumerate() {
            let kept = fold_keeping_records(&mut fold, tail)
                .map_err(|reason| corrupt(format!("shard {shard}: {reason}")))?;
            records.extend(kept);
            total.merge(&fold).map_err(corrupt)?;
            per_shard.push(fold);
        }
        records.sort_by_key(|r| r.index);
        // Indices are unique across shards: a straggler's owner is the
        // shard whose top apps hold its index.
        let stragglers = total
            .top
            .iter()
            .map(|t| Straggler {
                index: t.index,
                package: t.package.clone(),
                shard: per_shard
                    .iter()
                    .position(|f| f.top.iter().any(|s| s.index == t.index))
                    .expect("every fleet top app is some shard's top app"),
                total_ns: t.total_ns,
            })
            .collect();
        let mean_sliced_fraction = if total.targeted == 0 {
            1.0
        } else {
            total.sliced_micros_sum as f64 / 1e6 / total.targeted as f64
        };
        let modeled_makespan_ns = per_shard.iter().map(|s| s.modeled_total_ns).fold(0.0, f64::max);
        let mean_shard = total.modeled_total_ns / shards as f64;
        let imbalance = if mean_shard > 0.0 { modeled_makespan_ns / mean_shard } else { 1.0 };
        Ok(FleetReport {
            master_seed,
            apps,
            shards,
            config_digest,
            records,
            records_complete,
            completed: total.completed,
            suspicious: total.suspicious,
            clean: total.clean,
            unknown: total.unknown,
            quarantined: total.quarantined,
            failed: total.failed(),
            leaks: total.leaks,
            retried_apps: total.final_retried().map_err(corrupt)?,
            targeted_apps: total.targeted,
            mean_sliced_fraction,
            modeled_serial_ns: total.modeled_total_ns,
            modeled_makespan_ns,
            imbalance,
            app_model: HistogramSnapshot::from_buckets(
                total.hist_buckets,
                total.hist_sum,
                total.hist_max,
            ),
            stragglers,
            verdict_digest: total.final_verdict_fold(),
            per_shard,
        })
    }

    /// Apps tallied across every shard (sealed history included) — the
    /// completeness check callers use instead of `records.len()`, which
    /// undercounts in the incremental fold.
    pub fn tallied_apps(&self) -> usize {
        self.per_shard.iter().map(ShardFold::apps).sum()
    }

    /// One line per kept record, sorted by corpus index:
    /// `index package verdict report_fnv`. Independent of shard layout,
    /// so verdict files from an S-shard and a 1-shard campaign over the
    /// same corpus compare byte-for-byte. Only covers every app when
    /// [`Self::records_complete`] — a campaign with sealed segments needs
    /// the monolithic journal read for a verdict dump.
    pub fn verdict_lines(&self) -> String {
        let line = |r: &AppRecord| verdict_line(r.index, &r.package, &r.verdict, r.report_fnv);
        self.records.iter().map(|r| line(r) + "\n").collect()
    }

    /// Deterministic JSON rendering — byte-identical for identical record
    /// sets (the kill/resume and rerun gates `cmp` these files).
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w, None))
    }

    /// Writes the [`Self::to_json`] object into a parent document; a
    /// delta campaign's report carries its `delta` as a last member.
    pub fn write_json(&self, w: &mut JsonWriter, delta: Option<&DeltaReport>) {
        w.object(|w| {
            w.key("campaign").object(|w| {
                w.key("master_seed").int(self.master_seed);
                w.key("apps").int(self.apps);
                w.key("shards").int(self.shards);
                w.key("config_digest").int(self.config_digest);
            });
            w.key("verdicts").object(|w| {
                w.key("completed").int(self.completed);
                w.key("suspicious").int(self.suspicious);
                w.key("clean").int(self.clean);
                w.key("unknown").int(self.unknown);
                w.key("quarantined").int(self.quarantined);
                w.key("failed").int(self.failed);
                w.key("leaks").int(self.leaks);
                w.key("retried_apps").int(self.retried_apps);
                w.key("targeted_apps").int(self.targeted_apps);
                w.key("mean_sliced_fraction").fixed(self.mean_sliced_fraction, 6);
                w.key("digest").hex(self.verdict_digest);
            });
            w.key("modeled").object(|w| {
                w.key("serial_ns").fixed(self.modeled_serial_ns, 1);
                w.key("makespan_ns").fixed(self.modeled_makespan_ns, 1);
                w.key("imbalance").fixed(self.imbalance, 4);
                self.app_model.write_json(w.key("app_model"));
            });
            w.key("per_shard").array(|w| {
                for (shard, s) in self.per_shard.iter().enumerate() {
                    w.object(|w| {
                        w.key("shard").int(shard);
                        w.key("apps").int(s.apps());
                        w.key("completed").int(s.completed);
                        w.key("suspicious").int(s.suspicious);
                        w.key("clean").int(s.clean);
                        w.key("unknown").int(s.unknown);
                        w.key("quarantined").int(s.quarantined);
                        w.key("failed").int(s.failed());
                        w.key("leaks").int(s.leaks);
                        w.key("modeled_total_ns").fixed(s.modeled_total_ns, 1);
                        w.key("nodes").int(s.nodes);
                        w.key("rounds").int(s.rounds);
                    });
                }
            });
            w.key("stragglers").array(|w| {
                for s in &self.stragglers {
                    w.object(|w| {
                        w.key("index").int(s.index);
                        w.key("package").string(&s.package);
                        w.key("shard").int(s.shard);
                        w.key("total_ns").fixed(s.total_ns, 1);
                    });
                }
            });
            if let Some(delta) = delta {
                delta.write_json(w.key("delta"));
            }
        })
    }

    /// Human-readable summary (the CLI's default output).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "campaign: {} apps x {} shard(s), seed {:#x}",
            self.apps, self.shards, self.master_seed
        )
        .unwrap();
        writeln!(
            out,
            "verdicts: {} suspicious / {} clean / {} unknown ({} leaks), {} quarantined, {} failed",
            self.suspicious, self.clean, self.unknown, self.leaks, self.quarantined, self.failed
        )
        .unwrap();
        writeln!(
            out,
            "modeled:  serial {:.1} ms, makespan {:.1} ms over {} shard(s), imbalance {:.3}",
            self.modeled_serial_ns / 1e6,
            self.modeled_makespan_ns / 1e6,
            self.shards,
            self.imbalance
        )
        .unwrap();
        for (shard, s) in self.per_shard.iter().enumerate() {
            writeln!(
                out,
                "  shard {}: {} apps, {} suspicious, modeled {:.1} ms",
                shard,
                s.apps(),
                s.suspicious,
                s.modeled_total_ns / 1e6
            )
            .unwrap();
        }
        for s in &self.stragglers {
            writeln!(
                out,
                "  straggler: app {:06} ({}) shard {} modeled {:.2} ms",
                s.index,
                s.package,
                s.shard,
                s.total_ns / 1e6
            )
            .unwrap();
        }
        writeln!(out, "verdict digest: {:016x}", self.verdict_digest).unwrap();
        out
    }
}

/// Folds `records` into `fold` while maintaining the kept-record list
/// under the same superseding semantics: a later record replaces an
/// earlier `Failed` one in place; other duplicates are dropped.
fn fold_keeping_records(
    fold: &mut ShardFold,
    records: Vec<AppRecord>,
) -> Result<Vec<AppRecord>, String> {
    use crate::fold::FoldOutcome;
    let mut kept: Vec<AppRecord> = Vec::new();
    let mut pos_by_index = std::collections::HashMap::new();
    for record in records {
        match fold.fold(&record)? {
            FoldOutcome::Recorded => {
                pos_by_index.insert(record.index, kept.len());
                kept.push(record);
            }
            FoldOutcome::Replaced => match pos_by_index.get(&record.index) {
                Some(&pos) => kept[pos] = record,
                // The superseded failure lives in a carried base rollup,
                // not in this record list — the superseding record is new
                // here.
                None => {
                    pos_by_index.insert(record.index, kept.len());
                    kept.push(record);
                }
            },
            FoldOutcome::Skipped => {}
        }
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::RecordStatus;

    fn record(index: usize, verdict: &str, total_ms: f64) -> AppRecord {
        AppRecord {
            index,
            seed: 0x5000 + index as u64,
            package: format!("com.gen.app{index:04}"),
            status: RecordStatus::Completed,
            verdict: verdict.to_owned(),
            leaks: if verdict == "Suspicious" { 1 } else { 0 },
            report_fnv: 0x9000 + index as u64,
            envgen_ns: total_ms * 1e6 / 4.0,
            callgraph_ns: total_ms * 1e6 / 4.0,
            idfg_ns: total_ms * 1e6 / 4.0,
            taint_ns: total_ms * 1e6 / 4.0,
            nodes: 100 * (index as u64 + 1),
            rounds: 3,
            sliced_micros: None,
            attempts: 1,
        }
    }

    #[test]
    fn fleet_report_folds_shards_and_is_layout_invariant() {
        // 6 apps, strided over 2 shards vs 1 shard: verdict lines and
        // digest must be identical; per-shard rollups differ by design.
        let all: Vec<AppRecord> = (0..6)
            .map(|i| record(i, if i % 2 == 0 { "Suspicious" } else { "Clean" }, (i + 1) as f64))
            .collect();
        let solo = FleetReport::from_records(7, 6, 42, vec![all.clone()]);
        let split = FleetReport::from_records(
            7,
            6,
            42,
            vec![
                all.iter().filter(|r| r.index % 2 == 0).cloned().collect(),
                all.iter().filter(|r| r.index % 2 == 1).cloned().collect(),
            ],
        );
        assert_eq!(solo.verdict_lines(), split.verdict_lines());
        assert_eq!(solo.verdict_digest, split.verdict_digest);
        assert_eq!(split.shards, 2);
        assert_eq!(split.suspicious, 3);
        assert_eq!(split.clean, 3);
        assert_eq!(split.unknown, 0);
        assert_eq!(split.leaks, 3);
        assert!(solo.records_complete && split.records_complete);
        assert_eq!(split.tallied_apps(), 6);
        // Shard 0 holds the even indices: 1 + 3 + 5 ms modeled.
        assert!((split.per_shard[0].modeled_total_ns - 9e6).abs() < 1.0);
        assert!((split.per_shard[1].modeled_total_ns - 12e6).abs() < 1.0);
        assert!((split.modeled_makespan_ns - 12e6).abs() < 1.0);
        assert!((split.modeled_serial_ns - 21e6).abs() < 1.0);
        assert!((split.imbalance - 12.0 / 10.5).abs() < 1e-9);
        // Stragglers: heaviest first, capped at STRAGGLER_COUNT.
        assert_eq!(split.stragglers.len(), 5);
        assert_eq!(split.stragglers[0].index, 5);
        assert_eq!(split.stragglers[0].shard, 1);
        assert_eq!(solo.app_model.count, 6);
        assert_eq!(solo.app_model, split.app_model);
    }

    #[test]
    fn fleet_json_is_deterministic_and_wellformed() {
        let records = vec![record(0, "Clean", 2.0), record(1, "Suspicious", 4.0)];
        let a = FleetReport::from_records(1, 2, 9, vec![records.clone()]);
        let b = FleetReport::from_records(1, 2, 9, vec![records]);
        assert_eq!(a.to_json(), b.to_json());
        let j = a.to_json();
        assert!(j.starts_with("{\"campaign\":{\"master_seed\":1,\"apps\":2,"));
        assert!(j.contains("\"suspicious\":1"));
        assert!(j.contains("\"unknown\":0"));
        assert!(j.contains("\"digest\":\""));
        assert!(j.contains("\"app_model\":{\"count\":2"));
        assert!(a.render().contains("verdict digest"));
    }

    #[test]
    fn duplicate_indices_keep_first_record_and_statuses_tally() {
        let mut dup = record(3, "Clean", 1.0);
        dup.verdict = "Suspicious".into();
        let mut quarantined = record(4, "-", 1.0);
        quarantined.status = RecordStatus::Quarantined;
        quarantined.leaks = 0;
        let r = FleetReport::from_records(
            0,
            5,
            0,
            vec![vec![record(3, "Clean", 1.0), dup, quarantined]],
        );
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].verdict, "Clean");
        assert_eq!(r.completed, 1);
        assert_eq!(r.quarantined, 1);
        assert_eq!(r.clean, 1);
    }

    #[test]
    fn failed_records_are_superseded_and_unknown_verdicts_surface() {
        // Index 2 fails, then completes on resume: the completion wins.
        let mut failed = record(2, "-", 0.0);
        failed.status = RecordStatus::Failed;
        failed.report_fnv = 0;
        let mut odd = record(3, "Malformed?", 1.0);
        odd.leaks = 0;
        let r = FleetReport::from_records(
            0,
            4,
            0,
            vec![vec![failed.clone(), record(2, "Clean", 2.0), odd]],
        );
        assert_eq!(r.failed, 0, "a superseded failure must not tally as failed");
        assert_eq!(r.completed, 2);
        assert_eq!(r.clean, 1);
        assert_eq!(r.unknown, 1, "an unrecognized verdict must surface, not bin as clean");
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].verdict, "Clean");
        // A failure never superseded still tallies as failed.
        let r2 = FleetReport::from_records(0, 1, 0, vec![vec![failed]]);
        assert_eq!(r2.failed, 1);
        assert_eq!(r2.tallied_apps(), 1);
    }

    #[test]
    fn counts_that_overflow_the_fleet_merge_are_corrupt_not_a_panic() {
        // Each shard's tally holds; their fleet-wide sum does not.
        let brim = AppRecord { leaks: usize::MAX, ..record(0, "Suspicious", 1.0) };
        let shards = [vec![brim], vec![record(1, "Suspicious", 1.0)]];
        let tails = shards.into_iter().map(|r| (ShardFold::default(), r)).collect();
        match FleetReport::from_folds(3, 2, 8, tails) {
            Err(JournalError::Corrupt { line: 0, reason }) => {
                assert!(reason.contains("leaks"), "{reason}")
            }
            other => panic!("the merge summed past usize::MAX: {:?}", other.err()),
        }
    }

    #[test]
    fn a_restored_retried_count_that_overflows_is_corrupt_not_a_panic() {
        // A resealed rollup may claim any count; an open retried failure
        // on top of a brim-full tally used to overflow the final sum.
        let mut failed = record(3, "-", 0.0);
        (failed.status, failed.attempts) = (RecordStatus::Failed, 2);
        let mut fold = ShardFold { retried: usize::MAX, ..ShardFold::default() };
        fold.fold(&failed).unwrap();
        let fold = ShardFold::parse_body(&fold.serialize_body(), 4).unwrap();
        match FleetReport::from_folds(0, 4, 0, vec![(fold, Vec::new())]) {
            Err(JournalError::Corrupt { line: 0, reason }) => {
                assert!(reason.contains("retried"), "{reason}")
            }
            other => panic!("the retried tally wrapped: {:?}", other.map(|r| r.retried_apps)),
        }
    }

    #[test]
    fn incremental_fold_matches_monolithic_byte_for_byte() {
        // Split each shard's records at an arbitrary seal point: rollup +
        // tail must produce the same JSON as the full record read.
        let all: Vec<AppRecord> = (0..10)
            .map(|i| record(i, if i % 3 == 0 { "Suspicious" } else { "Clean" }, (i + 1) as f64))
            .collect();
        let shard0: Vec<AppRecord> = all.iter().filter(|r| r.index % 2 == 0).cloned().collect();
        let shard1: Vec<AppRecord> = all.iter().filter(|r| r.index % 2 == 1).cloned().collect();
        let monolithic = FleetReport::from_records(3, 10, 8, vec![shard0.clone(), shard1.clone()]);
        for cut in 0..=3 {
            let seal = |records: &[AppRecord]| {
                let mut fold = ShardFold::default();
                for r in &records[..cut] {
                    fold.fold(r).unwrap();
                }
                // Round-trip through the serialized rollup, as a real
                // sealed segment would.
                let fold = ShardFold::parse_body(&fold.serialize_body(), usize::MAX).unwrap();
                (fold, records[cut..].to_vec())
            };
            let incremental =
                FleetReport::from_folds(3, 10, 8, vec![seal(&shard0), seal(&shard1)]).unwrap();
            // Only a fold that starts from nothing keeps every record.
            assert_eq!(incremental.records_complete, cut == 0);
            assert_eq!(incremental.tallied_apps(), 10);
            assert_eq!(incremental.to_json(), monolithic.to_json(), "cut at {cut}");
        }
    }
}
