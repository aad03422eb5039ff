//! The mergeable per-shard fold state behind the fleet report.
//!
//! A [`ShardFold`] is everything [`crate::report::FleetReport`] needs from
//! one shard's records, accumulated record by record in append order. Both
//! report paths run through it — the monolithic path folds every record of
//! every segment, the incremental path starts from a sealed-segment rollup
//! (a serialized `ShardFold`) and folds only the unsealed tail — so the
//! two are byte-identical by construction, not by coincidence. The
//! fleet-wide totals are the [`ShardFold::merge`] of the shards' folds.
//!
//! Folding implements the superseding-record rule: [`RecordStatus::Failed`]
//! records are *deferred* (held in [`ShardFold::open_failed`], not
//! tallied), and a later record for the same index replaces them. Any
//! other duplicate keeps the first record. A failure that is never
//! superseded is tallied as failed when the report is finished.
//!
//! The fold serializes to (and parses from) a single space-free-token
//! journal line body — the `rollup` footer a sealed segment carries.
//! Floats round-trip exactly (bit-pattern hex), so a fold restored from a
//! footer continues the same f64 accumulation sequence the live fold ran.

use crate::journal::{field_req, hex, parsed, AppRecord, RecordStatus};
use crate::report::STRAGGLER_COUNT;
use gdroid_serve::{fnv1a, Histogram};
use std::collections::{BTreeMap, BTreeSet};

/// What [`ShardFold::fold`] did with a record — the caller uses this to
/// maintain a parallel record list (kept in the monolithic report path)
/// under the same superseding semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldOutcome {
    /// First record for its index: keep it.
    Recorded,
    /// Superseded (or re-failed) an earlier `Failed` record for the same
    /// index: replace the kept record.
    Replaced,
    /// Duplicate of an already-tallied record: drop it.
    Skipped,
}

/// One of a shard's slowest completed apps (a straggler candidate).
#[derive(Clone, Debug, PartialEq)]
pub struct TopApp {
    /// Corpus index.
    pub index: usize,
    /// Package name.
    pub package: String,
    /// Modeled pipeline time (ns).
    pub total_ns: f64,
}

/// A deferred `Failed` record: not tallied until the fold is finished,
/// because a later record for the same index supersedes it.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenFailure {
    /// Package name journaled with the failure.
    pub package: String,
    /// Attempts the failing run made.
    pub attempts: u32,
}

/// Running per-shard aggregate of journal records. Everything the fleet
/// report derives per shard lives here in its raw mergeable form; sealed
/// journal segments persist it as their rollup footer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardFold {
    /// Completed apps.
    pub completed: usize,
    /// Completed apps with a `Suspicious` verdict.
    pub suspicious: usize,
    /// Completed apps with a `Clean` verdict.
    pub clean: usize,
    /// Completed apps whose verdict string is neither `Clean` nor
    /// `Suspicious` — surfaced, never silently binned as clean.
    pub unknown: usize,
    /// Quarantined apps.
    pub quarantined: usize,
    /// Total leaks.
    pub leaks: usize,
    /// Worklist node processings.
    pub nodes: u64,
    /// Fixpoint rounds.
    pub rounds: u64,
    /// Summed modeled pipeline time of completed apps (ns), accumulated
    /// in record order — the same addition sequence in the monolithic and
    /// rollup-resumed paths, so the bits match.
    pub modeled_total_ns: f64,
    /// Tallied (non-deferred) records that needed more than one attempt.
    pub retried: usize,
    /// Targeted (sliced) records.
    pub targeted: usize,
    /// Summed sliced fractions (×1e6) of targeted records.
    pub sliced_micros_sum: u64,
    /// Per-app modeled-time histogram buckets (mirrors
    /// [`gdroid_serve::Histogram`] bucketing of `total_ns().round()`).
    pub hist_buckets: [u64; 17],
    /// Histogram sample sum (ns).
    pub hist_sum: u64,
    /// Histogram max sample (ns).
    pub hist_max: u64,
    /// Order-independent verdict digest contribution: the wrapping sum of
    /// FNV-1a over each tallied record's verdict line. Commutative, so
    /// segment rollups fold and any shard layout yields the same fleet
    /// digest for the same record set.
    pub verdict_fold: u64,
    /// The shard's `STRAGGLER_COUNT` slowest completed apps, sorted
    /// slowest-first (ties broken by lower index). Top-k selection is
    /// associative, so per-segment tops union into the exact shard top.
    pub top: Vec<TopApp>,
    /// Every index with at least one record (tallied or deferred) — the
    /// resume done-set is derived from this minus [`Self::open_failed`].
    pub indices: BTreeSet<usize>,
    /// Deferred failures by index (latest failure wins).
    pub open_failed: BTreeMap<usize, OpenFailure>,
}

/// `$total += $n` for a tally whose operands came out of a journal file:
/// a sealed record or rollup can claim any count, so an overflow is the
/// file's corruption to report, not an arithmetic panic.
macro_rules! tally {
    ($total:expr, $n:expr, $what:literal) => {
        $total = $total.checked_add($n).ok_or(concat!($what, " overflows the running total"))?
    };
}

/// The verdict line of one record, without its trailing newline — the
/// unit the order-independent verdict digest sums over and what
/// [`crate::report::FleetReport::verdict_lines`] prints.
pub fn verdict_line(index: usize, package: &str, verdict: &str, report_fnv: u64) -> String {
    format!("{index:06} {package} {verdict} {report_fnv:016x}")
}

impl ShardFold {
    /// Folds one record under the superseding rule. `Failed` records are
    /// deferred; later records for the same index replace them; any other
    /// duplicate keeps the first record. `Err` is a tally the record
    /// overflows — its counts, or the rollup this fold was restored from,
    /// are not what a campaign wrote; the fold is then unusable.
    pub fn fold(&mut self, record: &AppRecord) -> Result<FoldOutcome, String> {
        if let Some(open) = self.open_failed.get_mut(&record.index) {
            if record.status == RecordStatus::Failed {
                open.package = record.package.clone();
                open.attempts = record.attempts;
            } else {
                self.open_failed.remove(&record.index);
                self.apply(record)?;
            }
            return Ok(FoldOutcome::Replaced);
        }
        if !self.indices.insert(record.index) {
            return Ok(FoldOutcome::Skipped);
        }
        if record.status == RecordStatus::Failed {
            self.open_failed.insert(
                record.index,
                OpenFailure { package: record.package.clone(), attempts: record.attempts },
            );
        } else {
            self.apply(record)?;
        }
        Ok(FoldOutcome::Recorded)
    }

    /// Tallies a non-deferred record.
    fn apply(&mut self, record: &AppRecord) -> Result<(), String> {
        match record.status {
            RecordStatus::Completed => {
                tally!(self.completed, 1, "completed");
                self.modeled_total_ns += record.total_ns();
                match record.verdict.as_str() {
                    "Suspicious" => tally!(self.suspicious, 1, "suspicious"),
                    "Clean" => tally!(self.clean, 1, "clean"),
                    _ => tally!(self.unknown, 1, "unknown"),
                }
                let ns = record.total_ns().round() as u64;
                tally!(self.hist_buckets[Histogram::bucket_for(ns)], 1, "hist");
                tally!(self.hist_sum, ns, "hsum");
                self.hist_max = self.hist_max.max(ns);
                self.push_top(record);
            }
            RecordStatus::Quarantined => tally!(self.quarantined, 1, "quarantined"),
            RecordStatus::Failed => unreachable!("failed records are deferred, never applied"),
        }
        tally!(self.leaks, record.leaks, "leaks");
        tally!(self.nodes, record.nodes, "nodes");
        tally!(self.rounds, record.rounds, "rounds");
        if record.attempts > 1 {
            tally!(self.retried, 1, "retried");
        }
        if let Some(micros) = record.sliced_micros {
            tally!(self.targeted, 1, "targeted");
            tally!(self.sliced_micros_sum, micros, "slicedsum");
        }
        self.verdict_fold = self.verdict_fold.wrapping_add(fnv1a(
            verdict_line(record.index, &record.package, &record.verdict, record.report_fnv)
                .as_bytes(),
        ));
        Ok(())
    }

    fn push_top(&mut self, record: &AppRecord) {
        let ns = record.total_ns();
        let pos = self
            .top
            .iter()
            .position(|t| ns.total_cmp(&t.total_ns).then(t.index.cmp(&record.index)).is_gt())
            .unwrap_or(self.top.len());
        if pos < STRAGGLER_COUNT {
            self.top.insert(
                pos,
                TopApp { index: record.index, package: record.package.clone(), total_ns: ns },
            );
            self.top.truncate(STRAGGLER_COUNT);
        }
    }

    /// Merges `other`, the fold of a disjoint index set (another shard's),
    /// into this one: tallies add — an overflow is `Err`, as in
    /// [`Self::fold`] — indices and open failures unite, and the top apps
    /// of the union are kept (top-k selection is associative).
    pub fn merge(&mut self, other: &ShardFold) -> Result<(), String> {
        tally!(self.completed, other.completed, "completed");
        tally!(self.suspicious, other.suspicious, "suspicious");
        tally!(self.clean, other.clean, "clean");
        tally!(self.unknown, other.unknown, "unknown");
        tally!(self.quarantined, other.quarantined, "quarantined");
        tally!(self.leaks, other.leaks, "leaks");
        tally!(self.nodes, other.nodes, "nodes");
        tally!(self.rounds, other.rounds, "rounds");
        self.modeled_total_ns += other.modeled_total_ns;
        tally!(self.retried, other.retried, "retried");
        tally!(self.targeted, other.targeted, "targeted");
        tally!(self.sliced_micros_sum, other.sliced_micros_sum, "slicedsum");
        for (bucket, &n) in self.hist_buckets.iter_mut().zip(&other.hist_buckets) {
            tally!(*bucket, n, "hist");
        }
        tally!(self.hist_sum, other.hist_sum, "hsum");
        self.hist_max = self.hist_max.max(other.hist_max);
        self.verdict_fold = self.verdict_fold.wrapping_add(other.verdict_fold);
        self.top.extend(other.top.iter().cloned());
        self.top.sort_by(|a, b| b.total_ns.total_cmp(&a.total_ns).then(a.index.cmp(&b.index)));
        self.top.truncate(STRAGGLER_COUNT);
        self.indices.extend(&other.indices);
        self.open_failed.extend(other.open_failed.iter().map(|(&i, o)| (i, o.clone())));
        Ok(())
    }

    /// Every index with a record (the shard's app count).
    pub fn apps(&self) -> usize {
        self.indices.len()
    }

    /// Failures never superseded — the shard's final failed tally.
    pub fn failed(&self) -> usize {
        self.open_failed.len()
    }

    /// Retried-app tally including still-open failures; `Err` when a
    /// restored rollup's count overflows it.
    pub fn final_retried(&self) -> Result<usize, String> {
        let mut retried = self.retried;
        tally!(retried, self.open_failed.values().filter(|o| o.attempts > 1).count(), "retried");
        Ok(retried)
    }

    /// The shard's verdict-digest contribution with open failures folded
    /// in (a failed record's verdict line carries `-` and a zero hash).
    pub fn final_verdict_fold(&self) -> u64 {
        self.open_failed.iter().fold(self.verdict_fold, |acc, (index, open)| {
            acc.wrapping_add(fnv1a(verdict_line(*index, &open.package, "-", 0).as_bytes()))
        })
    }

    /// Serializes the fold as a `rollup` journal-line body (no checksum —
    /// the journal seals it like any other line). Every token is
    /// space-free; floats are bit-pattern hex so they round-trip exactly.
    pub fn serialize_body(&self) -> String {
        let list = |items: Vec<String>| if items.is_empty() { "-".into() } else { items.join(";") };
        let top = list(
            self.top
                .iter()
                .map(|t| format!("{}:{}:{:016x}", t.index, t.package, t.total_ns.to_bits()))
                .collect(),
        );
        let idx = list(index_runs(&self.indices));
        let open = list(
            self.open_failed
                .iter()
                .map(|(i, o)| format!("{}:{}:{}", i, o.package, o.attempts))
                .collect(),
        );
        let hist = self.hist_buckets.map(|c| c.to_string()).join(",");
        format!(
            "rollup completed={} suspicious={} clean={} unknown={} quarantined={} leaks={} \
             nodes={} rounds={} modeled={:016x} retried={} targeted={} slicedsum={} hsum={} \
             hmax={} hist={} vfold={:016x} top={} idx={} open={}",
            self.completed,
            self.suspicious,
            self.clean,
            self.unknown,
            self.quarantined,
            self.leaks,
            self.nodes,
            self.rounds,
            self.modeled_total_ns.to_bits(),
            self.retried,
            self.targeted,
            self.sliced_micros_sum,
            self.hist_sum,
            self.hist_max,
            hist,
            self.verdict_fold,
            top,
            idx,
            open,
        )
    }

    /// Parses a `rollup` line body back into the fold it serialized.
    /// `apps` is the corpus size from the journal's header: an index run
    /// that leaves `0..apps` is refused, not expanded.
    pub fn parse_body(body: &str, apps: usize) -> Result<ShardFold, String> {
        if !body.starts_with("rollup ") {
            return Err("not a rollup line".into());
        }
        let mut hist_buckets = [0u64; 17];
        let hist_text = field_req(body, "hist")?;
        let parts: Vec<&str> = hist_text.split(',').collect();
        if parts.len() != hist_buckets.len() {
            return Err(format!("hist has {} buckets, expected 17", parts.len()));
        }
        for (slot, part) in hist_buckets.iter_mut().zip(parts) {
            *slot = part.parse::<u64>().map_err(|e| format!("hist: {e}"))?;
        }
        let entries = |key: &str| -> Result<Vec<(usize, String, String)>, String> {
            let text = field_req(body, key)?;
            if text == "-" {
                return Ok(Vec::new());
            }
            text.split(';')
                .map(|entry| {
                    let mut it = entry.splitn(3, ':');
                    let index = it
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or_else(|| format!("{key}: bad index in {entry:?}"))?;
                    let package =
                        it.next().ok_or_else(|| format!("{key}: missing package"))?.to_owned();
                    let value =
                        it.next().ok_or_else(|| format!("{key}: missing value"))?.to_owned();
                    Ok((index, package, value))
                })
                .collect()
        };
        let top = entries("top")?
            .into_iter()
            .map(|(index, package, bits)| {
                Ok(TopApp {
                    index,
                    package,
                    total_ns: f64::from_bits(
                        u64::from_str_radix(&bits, 16).map_err(|e| format!("top: {e}"))?,
                    ),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let open = entries("open")?
            .into_iter()
            .map(|(index, package, attempts)| {
                Ok((
                    index,
                    OpenFailure {
                        package,
                        attempts: attempts.parse().map_err(|e| format!("open: {e}"))?,
                    },
                ))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        Ok(ShardFold {
            completed: parsed(body, "completed")?,
            suspicious: parsed(body, "suspicious")?,
            clean: parsed(body, "clean")?,
            unknown: parsed(body, "unknown")?,
            quarantined: parsed(body, "quarantined")?,
            leaks: parsed(body, "leaks")?,
            nodes: parsed(body, "nodes")?,
            rounds: parsed(body, "rounds")?,
            modeled_total_ns: f64::from_bits(hex(body, "modeled")?),
            retried: parsed(body, "retried")?,
            targeted: parsed(body, "targeted")?,
            sliced_micros_sum: parsed(body, "slicedsum")?,
            hist_buckets,
            hist_sum: parsed(body, "hsum")?,
            hist_max: parsed(body, "hmax")?,
            verdict_fold: hex(body, "vfold")?,
            top,
            indices: parse_index_runs(field_req(body, "idx")?, apps)?,
            open_failed: open,
        })
    }
}

/// Greedy run-length encoding of a sorted index set as
/// `start:stride:count` runs — one run for a strided shard slice
/// processed in order, a handful under interleaved completion.
fn index_runs(indices: &BTreeSet<usize>) -> Vec<String> {
    let sorted: Vec<usize> = indices.iter().copied().collect();
    let mut runs = Vec::new();
    let mut at = 0;
    while at < sorted.len() {
        let start = sorted[at];
        if at + 1 == sorted.len() {
            runs.push(format!("{start}:1:1"));
            break;
        }
        let stride = sorted[at + 1] - start;
        let mut count = 2;
        while at + count < sorted.len() && sorted[at + count] - sorted[at + count - 1] == stride {
            count += 1;
        }
        runs.push(format!("{start}:{stride}:{count}"));
        at += count;
    }
    runs
}

/// Expands what [`index_runs`] wrote. The text comes from a file, so a
/// run is checked before it is expanded: its last index must not overflow
/// and must be one of the campaign's `apps`, and only a single-index run
/// may have stride 0 — which bounds every run's `count` by `apps`, never
/// by what the line says.
fn parse_index_runs(text: &str, apps: usize) -> Result<BTreeSet<usize>, String> {
    let mut indices = BTreeSet::new();
    if text == "-" {
        return Ok(indices);
    }
    for run in text.split(';') {
        let mut it = run.splitn(3, ':');
        let parse = |s: Option<&str>| -> Result<usize, String> {
            s.and_then(|v| v.parse::<usize>().ok()).ok_or_else(|| format!("bad idx run {run:?}"))
        };
        let start = parse(it.next())?;
        let stride = parse(it.next())?;
        let count = parse(it.next())?;
        let last = count
            .checked_sub(1)
            .filter(|&steps| stride > 0 || steps == 0)
            .and_then(|steps| stride.checked_mul(steps))
            .and_then(|span| start.checked_add(span))
            .filter(|&last| last < apps)
            .ok_or_else(|| format!("idx run {run:?} is not inside a campaign of {apps} apps"))?;
        indices.extend((start..=last).step_by(stride.max(1)));
    }
    Ok(indices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, status: RecordStatus, verdict: &str, total_ms: f64) -> AppRecord {
        AppRecord {
            index,
            seed: 0x100 + index as u64,
            package: format!("com.gen.app{index:04}"),
            status,
            verdict: verdict.to_owned(),
            leaks: usize::from(verdict == "Suspicious"),
            report_fnv: if verdict == "-" { 0 } else { 0x9000 + index as u64 },
            envgen_ns: total_ms * 1e6 / 4.0,
            callgraph_ns: total_ms * 1e6 / 4.0,
            idfg_ns: total_ms * 1e6 / 4.0,
            taint_ns: total_ms * 1e6 / 4.0,
            nodes: 10 * index as u64,
            rounds: 2,
            sliced_micros: index.is_multiple_of(3).then_some(250_000),
            attempts: 1 + (index % 2) as u32,
        }
    }

    #[test]
    fn fold_tallies_and_roundtrips_through_serialization() {
        let mut fold = ShardFold::default();
        for i in 0..9 {
            let verdict = match i % 3 {
                0 => "Suspicious",
                1 => "Clean",
                _ => "Odd",
            };
            assert_eq!(
                fold.fold(&record(i, RecordStatus::Completed, verdict, (i + 1) as f64)),
                Ok(FoldOutcome::Recorded)
            );
        }
        fold.fold(&record(9, RecordStatus::Quarantined, "-", 1.0)).unwrap();
        fold.fold(&record(10, RecordStatus::Failed, "-", 1.0)).unwrap();
        assert_eq!(fold.completed, 9);
        assert_eq!(fold.suspicious, 3);
        assert_eq!(fold.clean, 3);
        assert_eq!(fold.unknown, 3);
        assert_eq!(fold.quarantined, 1);
        assert_eq!(fold.failed(), 1);
        assert_eq!(fold.apps(), 11);
        assert_eq!(fold.top.len(), STRAGGLER_COUNT);
        assert_eq!(fold.top[0].index, 8);
        let parsed = ShardFold::parse_body(&fold.serialize_body(), usize::MAX).unwrap();
        assert_eq!(parsed, fold);
        assert_eq!(parsed.modeled_total_ns.to_bits(), fold.modeled_total_ns.to_bits());
    }

    #[test]
    fn failed_records_defer_and_are_superseded_by_later_records() {
        let mut fold = ShardFold::default();
        let mut failed = record(4, RecordStatus::Failed, "-", 0.0);
        failed.attempts = 4;
        assert_eq!(fold.fold(&failed), Ok(FoldOutcome::Recorded));
        assert_eq!(fold.completed, 0);
        assert_eq!(fold.failed(), 1);
        assert_eq!(fold.final_retried(), Ok(1));
        // A re-failure replaces the open entry (last failure wins).
        let mut refailed = failed.clone();
        refailed.attempts = 1;
        assert_eq!(fold.fold(&refailed), Ok(FoldOutcome::Replaced));
        assert_eq!(fold.final_retried(), Ok(0));
        // A later completion supersedes the failure entirely.
        let done = record(4, RecordStatus::Completed, "Clean", 2.0);
        assert_eq!(fold.fold(&done), Ok(FoldOutcome::Replaced));
        assert_eq!(fold.failed(), 0);
        assert_eq!(fold.completed, 1);
        assert_eq!(fold.clean, 1);
        // Duplicates of tallied records are skipped (keep-first).
        assert_eq!(fold.fold(&done), Ok(FoldOutcome::Skipped));
        assert_eq!(fold.completed, 1);
    }

    #[test]
    fn rollup_plus_tail_equals_whole_fold_bit_for_bit() {
        let records: Vec<AppRecord> = (0..20)
            .map(|i| {
                let status = match i {
                    7 => RecordStatus::Failed,
                    13 => RecordStatus::Quarantined,
                    _ => RecordStatus::Completed,
                };
                record(i, status, if i % 2 == 0 { "Suspicious" } else { "Clean" }, 0.1 * i as f64)
            })
            .collect();
        let mut whole = ShardFold::default();
        for r in &records {
            whole.fold(r).unwrap();
        }
        for cut in [0, 1, 7, 8, 14, 19, 20] {
            let mut sealed = ShardFold::default();
            for r in &records[..cut] {
                sealed.fold(r).unwrap();
            }
            let mut resumed = ShardFold::parse_body(&sealed.serialize_body(), usize::MAX).unwrap();
            for r in &records[cut..] {
                resumed.fold(r).unwrap();
            }
            assert_eq!(resumed, whole, "cut at {cut}");
            assert_eq!(
                resumed.modeled_total_ns.to_bits(),
                whole.modeled_total_ns.to_bits(),
                "f64 accumulation diverged at cut {cut}"
            );
            assert_eq!(resumed.final_verdict_fold(), whole.final_verdict_fold());
        }
    }

    #[test]
    fn merging_shard_folds_equals_folding_their_union() {
        // Whole-millisecond timings: every f64 sum is exact in any order.
        let records: Vec<AppRecord> = (0..24)
            .map(|i| {
                let status = match i % 7 {
                    3 => RecordStatus::Failed,
                    5 => RecordStatus::Quarantined,
                    _ => RecordStatus::Completed,
                };
                let verdict = match (status, i % 3) {
                    (RecordStatus::Completed, 0) => "Suspicious",
                    (RecordStatus::Completed, 1) => "Clean",
                    (RecordStatus::Completed, _) => "Odd",
                    _ => "-",
                };
                record(i, status, verdict, (i * 37 % 11 + 1) as f64)
            })
            .collect();
        let mut union = ShardFold::default();
        for r in &records {
            union.fold(r).unwrap();
        }
        for shards in [1, 2, 3, 5] {
            let mut merged = ShardFold::default();
            for shard in 0..shards {
                let mut fold = ShardFold::default();
                for r in records.iter().filter(|r| r.index % shards == shard) {
                    fold.fold(r).unwrap();
                }
                merged.merge(&fold).unwrap();
            }
            assert_eq!(merged, union, "{shards} shard(s)");
            assert_eq!(merged.final_verdict_fold(), union.final_verdict_fold());
            assert_eq!(merged.final_retried(), union.final_retried());
        }
        // A tally the merge would overflow is an error, not a wrap.
        let brim = ShardFold { nodes: u64::MAX, ..ShardFold::default() };
        assert!(union.clone().merge(&brim).unwrap_err().contains("nodes"));
    }

    #[test]
    fn index_runs_compress_strided_sets() {
        let strided: BTreeSet<usize> = (3..503).step_by(5).collect();
        let runs = index_runs(&strided);
        assert_eq!(runs, vec!["3:5:100".to_owned()]);
        // 498 is the last index: a campaign of 499 apps is the tightest fit.
        assert_eq!(parse_index_runs(&runs.join(";"), 499).unwrap(), strided);
        assert!(parse_index_runs(&runs.join(";"), 498).is_err());
        let ragged: BTreeSet<usize> = [0, 1, 2, 10, 20, 21].into_iter().collect();
        assert_eq!(parse_index_runs(&index_runs(&ragged).join(";"), 22).unwrap(), ragged);
        assert!(parse_index_runs("-", 0).unwrap().is_empty());
    }

    #[test]
    fn index_runs_from_a_file_are_bounded_by_the_campaign() {
        let max = usize::MAX;
        for hostile in [
            "0:1:4000000".to_owned(),   // expands past the campaign
            format!("1:{max}:3"),       // stride * k overflows
            format!("{max}:1:2"),       // start + span overflows
            "7:0:4000000".to_owned(),   // one index, four million times
            "5:1:0".to_owned(),         // an empty run is never written
            "0:1:10;19:1:2".to_owned(), // second run leaves 0..20
        ] {
            assert!(parse_index_runs(&hostile, 20).is_err(), "{hostile}");
        }
        assert_eq!(parse_index_runs("7:0:1;19:1:1", 20).unwrap(), BTreeSet::from([7, 19]));
    }
}
