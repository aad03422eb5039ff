//! The durable per-shard checkpoint journal.
//!
//! Each shard of a campaign appends one line per terminal app outcome to
//! its journal in the campaign directory. The format is line-oriented
//! `key=value` text (not JSON — the repo has no JSON parser, and a flat
//! record needs none):
//!
//! ```text
//! gdroid-campaign v=2 seed=00000000000d401d … crc=…   ← header, line 1
//! app i=12 pkg=com.gen.app0012 seed=… status=completed verdict=Suspicious …  crc=…
//! ```
//!
//! Every line carries a trailing FNV-1a checksum over the bytes before
//! ` crc=`. Appends are flushed per record, so after a crash the journal
//! is a valid prefix plus at most one torn line; [`read_journal`]
//! tolerates exactly that (the torn tail is dropped and reported), while
//! corruption *before* the tail is a hard error — a half-overwritten
//! journal must not silently masquerade as a checkpoint. A file torn
//! *inside its header line* (no complete line at all) is reported as
//! [`JournalError::TornHeader`] and recreated on open: nothing was ever
//! durably journaled, so there is nothing to lose. Resume truncates the
//! torn tail and re-runs every app without a non-failed record, so a
//! killed campaign converges to the same journal contents — and therefore
//! the byte-identical fleet report — an uninterrupted run produces.
//!
//! ## One journal type, two layouts
//!
//! [`SegmentedJournal`] is the only thing that opens, resumes, appends to
//! and seals a shard's journal. Under rotation (snapshot mode) it writes
//! size-bounded segments `shard-<s>.journal.<k>`: when a segment reaches
//! the rotation threshold it is *sealed* — a `rollup` footer line, a
//! serialized [`ShardFold`] covering **every record of every segment so
//! far**, is appended — and the next segment is created carrying the same
//! rollup as its second line. Resume and the fleet-report fold therefore
//! read only the one unsealed segment ([`read_shard_tail`]): its embedded
//! rollup stands in for all sealed history, byte-exactly
//! ([`crate::fold`]). Without rotation the journal is the same thing with
//! a segment that never seals: one file `shard-<s>.journal`, no
//! `segment=` token, the tail is the whole history.
//!
//! The layout is this module's decision alone. A directory that holds a
//! shard in both layouts, or in the one the opener was not asked for, is
//! refused ([`JournalError::Layout`]) by the opener and by every reader —
//! which file would win is not something to guess.

use crate::fold::ShardFold;
use gdroid_serve::fnv1a;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal format version; bumped on any line-format change. Version 2
/// added the per-record generator seed (`seed=`) and the header's
/// daily-update model fields (`upd=`/`usalt=`).
pub const JOURNAL_VERSION: u32 = 2;

/// Campaign identity pinned in line 1 of every shard journal (and every
/// rotated segment). A resume whose header disagrees is refused: records
/// from a different corpus, shard layout, generator profile, or update
/// model must never be folded together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version.
    pub version: u32,
    /// Corpus master seed.
    pub master_seed: u64,
    /// Corpus size (apps in the whole campaign, all shards).
    pub apps: usize,
    /// Total shards in the campaign.
    pub shards: usize,
    /// This journal's shard index.
    pub shard: usize,
    /// Digest of the generator config and mode flags.
    pub config_digest: u64,
    /// Daily-update model: apps perturbed per million (0 = pristine
    /// corpus). Changes per-app seeds, so it pins resume identity.
    pub update_ppm: u32,
    /// Salt selecting *which* apps the update model perturbs.
    pub update_salt: u64,
}

/// Terminal status of one app, as journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordStatus {
    /// Vetting produced a verdict.
    Completed,
    /// Every allowed attempt failed; the app was quarantined.
    Quarantined,
    /// The app could not be processed at all.
    Failed,
}

impl RecordStatus {
    fn as_str(self) -> &'static str {
        match self {
            RecordStatus::Completed => "completed",
            RecordStatus::Quarantined => "quarantined",
            RecordStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<RecordStatus> {
        match s {
            "completed" => Some(RecordStatus::Completed),
            "quarantined" => Some(RecordStatus::Quarantined),
            "failed" => Some(RecordStatus::Failed),
            _ => None,
        }
    }
}

/// One durable per-app outcome record. Everything the fleet report needs
/// is in here — the report is *always* folded from journal records, never
/// from live service state, so a resumed campaign reproduces the
/// uninterrupted report byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct AppRecord {
    /// Corpus index of the app.
    pub index: usize,
    /// Generator seed the app was vetted under (the effective per-app
    /// seed after the update model) — what delta campaigns compare to
    /// decide whether an app changed since the base snapshot.
    pub seed: u64,
    /// Package name (no embedded whitespace; enforced on write).
    pub package: String,
    /// Terminal status.
    pub status: RecordStatus,
    /// Verdict label (`Clean` / `Suspicious`; `-` when none).
    pub verdict: String,
    /// Leaks found.
    pub leaks: usize,
    /// FNV-1a of the verdict report JSON — the byte-level verdict
    /// fingerprint compared across shard layouts.
    pub report_fnv: u64,
    /// Modeled environment-generation time (ns).
    pub envgen_ns: f64,
    /// Modeled call-graph time (ns).
    pub callgraph_ns: f64,
    /// Modeled IDFG (GPU fixpoint) time (ns).
    pub idfg_ns: f64,
    /// Modeled taint-stage time (ns).
    pub taint_ns: f64,
    /// Worklist node processings.
    pub nodes: u64,
    /// Fixpoint rounds.
    pub rounds: u64,
    /// Sliced fraction ×1e6 for targeted runs; `None` for full runs.
    pub sliced_micros: Option<u64>,
    /// Execution attempts (1 unless faults were injected).
    pub attempts: u32,
}

impl AppRecord {
    /// Total modeled pipeline time (ns).
    pub fn total_ns(&self) -> f64 {
        self.envgen_ns + self.callgraph_ns + self.idfg_ns + self.taint_ns
    }
}

/// Why a journal could not be read or opened.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file holds no complete line at all — empty, or torn inside
    /// its header line before the first `\n` ever reached disk. Nothing
    /// was durably journaled; open recreates the file instead of
    /// hard-failing.
    TornHeader,
    /// Line 1 is complete but unparsable (wrong magic, bad checksum, or
    /// missing fields) — real corruption, never auto-recreated.
    BadHeader(String),
    /// The on-disk header disagrees with the campaign being run.
    HeaderMismatch {
        /// What the campaign expected.
        expected: Box<JournalHeader>,
        /// What the journal holds.
        found: Box<JournalHeader>,
    },
    /// The directory holds the shard's journal in both layouts, or in
    /// the one the caller did not ask for; the message names the files.
    Layout(String),
    /// A line before the final one failed its checksum; a checksummed
    /// line — wherever it stands — does not parse; or checksummed counts
    /// overflow a tally.
    Corrupt {
        /// 1-based line number; `0` when the corruption shows only in a
        /// total over several shards' lines.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::TornHeader => {
                write!(f, "journal torn inside its header line (no complete line on disk)")
            }
            JournalError::BadHeader(r) => write!(f, "bad journal header: {r}"),
            JournalError::HeaderMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign (expected {expected:?}, found {found:?})"
            ),
            JournalError::Layout(r) => write!(f, "journal layout mismatch: {r}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "corrupt journal record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Appends a ` crc=<fnv1a>` suffix to a line body.
fn seal(body: String) -> String {
    let crc = fnv1a(body.as_bytes());
    format!("{body} crc={crc:016x}\n")
}

/// Splits a sealed line back into body and checksum; `None` if the seal
/// is missing or wrong (a torn or corrupt line).
fn unseal(line: &str) -> Option<&str> {
    let (body, crc) = line.rsplit_once(" crc=")?;
    (u64::from_str_radix(crc, 16).ok()? == fnv1a(body.as_bytes())).then_some(body)
}

/// Extracts `key=` fields from a record body.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.split(' ').find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=').or(None))
}

fn field_req<'a>(body: &'a str, key: &str) -> Result<&'a str, String> {
    field(body, key).ok_or_else(|| format!("missing field {key}"))
}

/// Renders the header line; rotated segments append their segment index
/// (an extra token the header parser ignores, so header equality checks
/// compare campaign identity, not segment position).
fn header_line(h: &JournalHeader, segment: Option<usize>) -> String {
    let seg = segment.map(|s| format!(" segment={s}")).unwrap_or_default();
    seal(format!(
        "gdroid-campaign v={} seed={:016x} apps={} shards={} shard={} config={:016x} upd={} \
         usalt={:016x}{}",
        h.version,
        h.master_seed,
        h.apps,
        h.shards,
        h.shard,
        h.config_digest,
        h.update_ppm,
        h.update_salt,
        seg
    ))
}

fn parse_header(body: &str) -> Result<JournalHeader, String> {
    if !body.starts_with("gdroid-campaign ") {
        return Err("not a gdroid-campaign journal".into());
    }
    Ok(JournalHeader {
        version: field_req(body, "v")?.parse().map_err(|e| format!("v: {e}"))?,
        master_seed: u64::from_str_radix(field_req(body, "seed")?, 16)
            .map_err(|e| format!("seed: {e}"))?,
        apps: field_req(body, "apps")?.parse().map_err(|e| format!("apps: {e}"))?,
        shards: field_req(body, "shards")?.parse().map_err(|e| format!("shards: {e}"))?,
        shard: field_req(body, "shard")?.parse().map_err(|e| format!("shard: {e}"))?,
        config_digest: u64::from_str_radix(field_req(body, "config")?, 16)
            .map_err(|e| format!("config: {e}"))?,
        update_ppm: field_req(body, "upd")?.parse().map_err(|e| format!("upd: {e}"))?,
        update_salt: u64::from_str_radix(field_req(body, "usalt")?, 16)
            .map_err(|e| format!("usalt: {e}"))?,
    })
}

fn record_line(r: &AppRecord) -> String {
    debug_assert!(
        !r.package.contains(char::is_whitespace),
        "package {:?} would corrupt the journal line format",
        r.package
    );
    let sliced = match r.sliced_micros {
        Some(m) => format!(" sliced={m}"),
        None => String::new(),
    };
    seal(format!(
        "app i={} pkg={} seed={:016x} status={} verdict={} leaks={} report={:016x} envgen={:.1} \
         cg={:.1} idfg={:.1} taint={:.1} nodes={} rounds={} attempts={}{}",
        r.index,
        r.package,
        r.seed,
        r.status.as_str(),
        r.verdict,
        r.leaks,
        r.report_fnv,
        r.envgen_ns,
        r.callgraph_ns,
        r.idfg_ns,
        r.taint_ns,
        r.nodes,
        r.rounds,
        r.attempts,
        sliced,
    ))
}

fn parse_record(body: &str) -> Result<AppRecord, String> {
    if !body.starts_with("app ") {
        return Err("not an app record".into());
    }
    let f64_field = |key: &str| -> Result<f64, String> {
        field_req(body, key)?.parse::<f64>().map_err(|e| format!("{key}: {e}"))
    };
    Ok(AppRecord {
        index: field_req(body, "i")?.parse().map_err(|e| format!("i: {e}"))?,
        seed: u64::from_str_radix(field_req(body, "seed")?, 16)
            .map_err(|e| format!("seed: {e}"))?,
        package: field_req(body, "pkg")?.to_owned(),
        status: RecordStatus::parse(field_req(body, "status")?)
            .ok_or_else(|| "bad status".to_owned())?,
        verdict: field_req(body, "verdict")?.to_owned(),
        leaks: field_req(body, "leaks")?.parse().map_err(|e| format!("leaks: {e}"))?,
        report_fnv: u64::from_str_radix(field_req(body, "report")?, 16)
            .map_err(|e| format!("report: {e}"))?,
        envgen_ns: f64_field("envgen")?,
        callgraph_ns: f64_field("cg")?,
        idfg_ns: f64_field("idfg")?,
        taint_ns: f64_field("taint")?,
        nodes: field_req(body, "nodes")?.parse().map_err(|e| format!("nodes: {e}"))?,
        rounds: field_req(body, "rounds")?.parse().map_err(|e| format!("rounds: {e}"))?,
        sliced_micros: match field(body, "sliced") {
            Some(m) => Some(m.parse().map_err(|e| format!("sliced: {e}"))?),
            None => None,
        },
        attempts: field_req(body, "attempts")?.parse().map_err(|e| format!("attempts: {e}"))?,
    })
}

/// The parsed contents of one shard journal (or one rotated segment).
#[derive(Debug)]
pub struct JournalContents {
    /// The campaign header.
    pub header: JournalHeader,
    /// Rotated segment index (`None` for a single-file journal).
    pub segment: Option<usize>,
    /// The cumulative rollup a rotated segment ≥ 1 carries as its second
    /// line — the fold of every record in every earlier segment.
    pub base: Option<ShardFold>,
    /// Valid records, in append (completion) order.
    pub records: Vec<AppRecord>,
    /// The sealing footer rollup, present iff this segment was sealed
    /// (covers `base` plus this segment's own records).
    pub sealed: Option<ShardFold>,
    /// Bytes of valid prefix (header + records); anything beyond is a
    /// torn tail.
    pub valid_len: u64,
    /// Whether a torn tail was dropped.
    pub truncated: bool,
}

/// Reads a journal file (single-file or one rotated segment), tolerating
/// a torn final line (reported via [`JournalContents::truncated`]).
/// Corruption before the tail is a [`JournalError::Corrupt`]; a file with
/// no complete line at all is [`JournalError::TornHeader`].
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text).map_err(JournalError::Io)?;
    // Split keeping track of byte offsets; the final segment (after the
    // last '\n') is always a torn tail if nonempty.
    let mut lines: Vec<&str> = text.split('\n').collect();
    let tail = lines.pop().unwrap_or("");
    let mut truncated = !tail.is_empty();
    let Some(first) = lines.first() else {
        // Zero complete lines: either a 0-byte file or one torn inside
        // its header line. Nothing durable is lost by recreating it.
        return Err(JournalError::TornHeader);
    };
    let (header, segment) = match unseal(first) {
        Some(body) => {
            let header = parse_header(body).map_err(JournalError::BadHeader)?;
            let segment = match field(body, "segment") {
                Some(s) => Some(
                    s.parse::<usize>()
                        .map_err(|e| JournalError::BadHeader(format!("segment: {e}")))?,
                ),
                None => None,
            };
            (header, segment)
        }
        None => return Err(JournalError::BadHeader("line 1 failed its checksum".into())),
    };
    let mut base = None;
    let mut records = Vec::new();
    let mut sealed = None;
    let mut valid_len = first.len() as u64 + 1;
    for (k, line) in lines.iter().enumerate().skip(1) {
        let parsed = match unseal(line) {
            Some(body) if body.starts_with("rollup ") => {
                // A rollup whose checksum holds was written whole, so one
                // that does not parse is corruption wherever it stands —
                // never a torn tail to drop.
                let fold = ShardFold::parse_body(body, header.apps)
                    .map_err(|reason| JournalError::Corrupt { line: k + 1, reason })?;
                if k == 1 && segment.is_some_and(|s| s > 0) {
                    // Line 2 of a later segment: the carried base.
                    base = Some(fold);
                } else if k + 1 != lines.len() {
                    // A sealing footer must be the final valid line.
                    return Err(JournalError::Corrupt {
                        line: k + 1,
                        reason: "rollup footer before end of segment".into(),
                    });
                } else {
                    sealed = Some(fold);
                }
                valid_len += line.len() as u64 + 1;
                continue;
            }
            other => other.map(parse_record),
        };
        match parsed {
            Some(Ok(record)) => {
                records.push(record);
                valid_len += line.len() as u64 + 1;
            }
            // A record whose checksum holds was written whole, so — like
            // a rollup — one that does not parse is corruption wherever it
            // stands.
            Some(Err(reason)) => return Err(JournalError::Corrupt { line: k + 1, reason }),
            // Only the final complete line may fail its checksum (a line
            // torn exactly at its '\n'); anything earlier is real
            // corruption.
            None if k + 1 != lines.len() => {
                let reason = "checksum mismatch".into();
                return Err(JournalError::Corrupt { line: k + 1, reason });
            }
            None => truncated = true,
        }
    }
    Ok(JournalContents { header, segment, base, records, sealed, valid_len, truncated })
}

/// A bare append-mode journal file: a header, then records, no resume and
/// no fold. Campaigns write through [`SegmentedJournal`]; this is the
/// writer for callers that lay a journal down by hand.
pub struct Journal {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl Journal {
    /// Creates a fresh journal with `header` (truncating any existing
    /// file).
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, JournalError> {
        let mut file = File::create(path)?;
        file.write_all(header_line(header, None).as_bytes())?;
        file.flush()?;
        Ok(Journal { writer: BufWriter::new(file), path: path.to_owned() })
    }

    /// Appends one record and flushes it to the OS — the checkpoint
    /// granularity is one app.
    pub fn append(&mut self, record: &AppRecord) -> Result<(), JournalError> {
        self.writer.write_all(record_line(record).as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The path of shard `shard`'s journal in the single-file layout.
pub fn journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.journal"))
}

/// The path of rotated segment `segment` of shard `shard`.
pub fn segment_path(dir: &Path, shard: usize, segment: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.journal.{segment}"))
}

/// The file segment `segment` lives in: its own numbered file under
/// rotation (`Some`), the one un-numbered file otherwise.
fn layout_path(dir: &Path, shard: usize, segment: Option<usize>) -> PathBuf {
    segment.map_or_else(|| journal_path(dir, shard), |k| segment_path(dir, shard, k))
}

/// The newest rotated segment of `shard` on disk; `None` when the shard
/// has no rotated journal there.
pub fn newest_segment(dir: &Path, shard: usize) -> Option<usize> {
    let mut last = 0;
    while segment_path(dir, shard, last + 1).exists() {
        last += 1;
    }
    (last > 0 || segment_path(dir, shard, 0).exists()).then_some(last)
}

/// The one file resume and the fleet fold read for `shard` — the single
/// file (`None`) or the newest rotated segment (`Some`) — or `None` when
/// nothing is journaled yet. Both layouts side by side are refused.
fn newest_file(dir: &Path, shard: usize) -> Result<Option<(PathBuf, Option<usize>)>, JournalError> {
    let single = journal_path(dir, shard);
    match (single.exists(), newest_segment(dir, shard)) {
        (true, Some(k)) => Err(layout_error(&single, "sits beside", &segment_path(dir, shard, k))),
        (true, None) => Ok(Some((single, None))),
        (false, newest) => Ok(newest.map(|k| (segment_path(dir, shard, k), Some(k)))),
    }
}

fn layout_error(found: &Path, relation: &str, other: &Path) -> JournalError {
    JournalError::Layout(format!(
        "{} {relation} {}: a shard is journaled in one layout — rerun with the --rotate/--snapshot \
         setting the directory was written under, or with --fresh to discard it",
        found.display(),
        other.display()
    ))
}

fn no_journal(dir: &Path, shard: usize) -> JournalError {
    JournalError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("no journal for shard {shard} in {}", dir.display()),
    ))
}

/// A shard's checkpoint journal, in either layout. Records append to the
/// current segment; under rotation every `rotate` records the segment
/// seals (its cumulative [`ShardFold`] rollup becomes its footer) and the
/// next segment opens carrying that rollup as its second line, so the
/// fold of everything durably journaled is always reconstructible from
/// the newest file alone. Without rotation the one segment never seals.
pub struct SegmentedJournal {
    dir: PathBuf,
    shard: usize,
    header: JournalHeader,
    /// Records per segment; `None` is the single-file layout.
    rotate: Option<usize>,
    writer: BufWriter<File>,
    segment: usize,
    in_segment: usize,
    fold: ShardFold,
}

impl SegmentedJournal {
    /// Opens (resuming) or creates the journal of `shard` under `dir` —
    /// rotated segments sealing every `rotate` records, or with `None`
    /// the single file. Returns the journal plus the fold of everything
    /// already durably on disk (the resume state). The header is checked
    /// against `header`; torn tails are truncated; a newest file torn
    /// inside its header or carried-rollup line is recreated (a later
    /// segment from its predecessor's sealed footer); a directory holding
    /// the other layout is refused.
    pub fn open_or_create(
        dir: &Path,
        shard: usize,
        header: &JournalHeader,
        rotate: Option<usize>,
    ) -> Result<(SegmentedJournal, ShardFold), JournalError> {
        let rotate = rotate.map(|r| r.max(1));
        let with_fold = |journal: SegmentedJournal| {
            let fold = journal.fold.clone();
            (journal, fold)
        };
        let create = |segment, base| {
            SegmentedJournal::create_segment(dir, shard, header, rotate, segment, base)
                .map(with_fold)
        };
        let Some((path, newest)) = newest_file(dir, shard)? else {
            return create(0, ShardFold::default());
        };
        if newest.is_some() != rotate.is_some() {
            let wanted = layout_path(dir, shard, rotate.map(|_| 0));
            return Err(layout_error(&path, "is on disk but this campaign writes", &wanted));
        }
        let last = newest.unwrap_or(0);
        let contents = match read_journal(&path) {
            Ok(c) if last == 0 || c.base.is_some() || c.sealed.is_some() => c,
            // A newest file with no usable prefix (torn header, or a later
            // segment whose carried rollup never hit disk) is recreated —
            // a later segment from its predecessor's sealed footer, which
            // was flushed before this segment was ever created.
            torn @ (Ok(_) | Err(JournalError::TornHeader)) => {
                if torn.is_ok_and(|c| !c.records.is_empty()) {
                    return Err(JournalError::Corrupt {
                        line: 2,
                        reason: "segment holds records but no carried rollup".into(),
                    });
                }
                let base = if last == 0 {
                    ShardFold::default()
                } else {
                    let prev = read_journal(&segment_path(dir, shard, last - 1))?;
                    prev.sealed.ok_or(JournalError::Corrupt {
                        line: 1,
                        reason: format!(
                            "segment {} precedes segment {last} but is unsealed",
                            last - 1
                        ),
                    })?
                };
                return create(last, base);
            }
            Err(e) => return Err(e),
        };
        if contents.header != *header {
            return Err(JournalError::HeaderMismatch {
                expected: Box::new(header.clone()),
                found: Box::new(contents.header),
            });
        }
        // Records follow the header and, past segment 0, the carried base.
        let first_record_line = 2 + usize::from(contents.base.is_some());
        if let Some(sealed) = contents.sealed {
            if rotate.is_none() {
                return Err(JournalError::Corrupt {
                    line: first_record_line + contents.records.len(),
                    reason: "rollup footer in a single-file journal".into(),
                });
            }
            // Sealed but the crash hit before the successor was created:
            // open the successor fresh.
            return create(last + 1, sealed);
        }
        let mut fold = contents.base.unwrap_or_default();
        for (k, record) in contents.records.iter().enumerate() {
            fold.fold(record)
                .map_err(|reason| JournalError::Corrupt { line: first_record_line + k, reason })?;
        }
        let file = OpenOptions::new().write(true).open(&path)?;
        // Drop the torn tail so the next append starts on a clean line.
        file.set_len(contents.valid_len)?;
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::End(0))?;
        let mut journal = SegmentedJournal {
            dir: dir.to_owned(),
            shard,
            header: header.clone(),
            rotate,
            writer,
            segment: last,
            in_segment: contents.records.len(),
            fold,
        };
        // A crash after the threshold but before the footer reached disk:
        // finish the seal now so segments stay bounded.
        journal.seal_if_full()?;
        Ok(with_fold(journal))
    }

    /// Creates segment `segment` fresh: header line, then (for segments
    /// past the first) the carried cumulative rollup.
    fn create_segment(
        dir: &Path,
        shard: usize,
        header: &JournalHeader,
        rotate: Option<usize>,
        segment: usize,
        base: ShardFold,
    ) -> Result<SegmentedJournal, JournalError> {
        let numbered = rotate.map(|_| segment);
        let mut file = File::create(layout_path(dir, shard, numbered))?;
        file.write_all(header_line(header, numbered).as_bytes())?;
        if segment > 0 {
            file.write_all(seal(base.serialize_body()).as_bytes())?;
        }
        file.flush()?;
        Ok(SegmentedJournal {
            dir: dir.to_owned(),
            shard,
            header: header.clone(),
            rotate,
            writer: BufWriter::new(file),
            segment,
            in_segment: 0,
            fold: base,
        })
    }

    /// Appends one record and flushes it to the OS — the checkpoint
    /// granularity is one app — then seals the segment if that filled it.
    pub fn append(&mut self, record: &AppRecord) -> Result<(), JournalError> {
        let line = record_line(record);
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        // Fold the *round-tripped* record, not the in-memory one: journal
        // text is the durable truth (timings are formatted to one
        // decimal), and the sealed rollup must be byte-identical to what
        // a monolithic re-read of the segment would fold.
        let parsed = unseal(line.trim_end())
            .ok_or(())
            .and_then(|body| parse_record(body).map_err(|_| ()))
            .expect("a just-written record line round-trips");
        // Only a hostile carried rollup leaves a tally this close to its
        // ceiling; the line just written is where it shows.
        let line = self.in_segment + 2 + usize::from(self.segment > 0);
        self.fold.fold(&parsed).map_err(|reason| JournalError::Corrupt { line, reason })?;
        self.in_segment += 1;
        self.seal_if_full()
    }

    /// Once the current segment holds `rotate` records, seals it (appends
    /// the cumulative rollup footer) and opens the next one carrying that
    /// rollup.
    fn seal_if_full(&mut self) -> Result<(), JournalError> {
        if self.rotate.is_none_or(|rotate| self.in_segment < rotate) {
            return Ok(());
        }
        self.writer.write_all(seal(self.fold.serialize_body()).as_bytes())?;
        self.writer.flush()?;
        let next = SegmentedJournal::create_segment(
            &self.dir,
            self.shard,
            &self.header,
            self.rotate,
            self.segment + 1,
            self.fold.clone(),
        )?;
        self.writer = next.writer;
        self.segment = next.segment;
        self.in_segment = 0;
        Ok(())
    }

    /// The cumulative fold of every record appended or resumed so far.
    pub fn fold(&self) -> &ShardFold {
        &self.fold
    }

    /// Segments on disk (the current, unsealed one included).
    pub fn segments(&self) -> usize {
        self.segment + 1
    }
}

/// The incremental read of a shard journal in whichever layout is on
/// disk: the carried rollup of all sealed history plus the unsealed
/// tail's records — only the newest file is opened. A single-file journal
/// has no sealed history: its rollup is empty and its tail is everything.
pub fn read_shard_tail(
    dir: &Path,
    shard: usize,
) -> Result<(ShardFold, Vec<AppRecord>), JournalError> {
    let (path, _) = newest_file(dir, shard)?.ok_or_else(|| no_journal(dir, shard))?;
    let contents = read_journal(&path)?;
    if let Some(sealed) = contents.sealed {
        return Ok((sealed, Vec::new()));
    }
    Ok((contents.base.unwrap_or_default(), contents.records))
}

/// Reads every record of one shard, oldest first, across whichever layout
/// the journal uses — the single file `shard-<s>.journal` or the rotated
/// segments `shard-<s>.journal.<k>`. The monolithic view the incremental
/// tail read is gated against.
pub fn read_shard_records(
    dir: &Path,
    shard: usize,
) -> Result<(JournalHeader, Vec<AppRecord>), JournalError> {
    let (_, newest) = newest_file(dir, shard)?.ok_or_else(|| no_journal(dir, shard))?;
    let mut contents = read_journal(&layout_path(dir, shard, newest.map(|_| 0)))?;
    for segment in 1..=newest.unwrap_or(0) {
        contents.records.extend(read_journal(&segment_path(dir, shard, segment))?.records);
    }
    Ok((contents.header, contents.records))
}

/// Reads a whole campaign directory: shard 0's header names the shard
/// count, and every shard's records are returned oldest-first. Used by
/// delta campaigns to load their base snapshot and by monolithic
/// (gate/verdict) reads of rotated campaigns.
pub fn read_campaign_journals(
    dir: &Path,
) -> Result<(JournalHeader, Vec<Vec<AppRecord>>), JournalError> {
    let (header, first) = read_shard_records(dir, 0)?;
    // Grown per shard actually read: the header's count came from a file.
    let mut shards = vec![first];
    for shard in 1..header.shards {
        shards.push(read_shard_records(dir, shard)?.1);
    }
    Ok((header, shards))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("gdroid-campaign-journal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard-0.journal")
    }

    fn header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            master_seed: 0xD401D,
            apps: 8,
            shards: 2,
            shard: 0,
            config_digest: 0xABCD,
            update_ppm: 0,
            update_salt: 0,
        }
    }

    fn record(index: usize) -> AppRecord {
        AppRecord {
            index,
            seed: 0xBEEF ^ index as u64,
            package: format!("com.gen.app{index:04}"),
            status: RecordStatus::Completed,
            verdict: "Suspicious".into(),
            leaks: 2,
            report_fnv: 0x1234_5678_9ABC_DEF0,
            envgen_ns: 1000.5,
            callgraph_ns: 2000.0,
            idfg_ns: 30000.1,
            taint_ns: 400.0,
            nodes: 999,
            rounds: 12,
            sliced_micros: if index % 2 == 1 { Some(123_456) } else { None },
            attempts: 1,
        }
    }

    #[test]
    fn journal_roundtrips_records() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path, &header()).unwrap();
        for i in 0..4 {
            j.append(&record(i)).unwrap();
        }
        drop(j);
        let c = read_journal(&path).unwrap();
        assert_eq!(c.header, header());
        assert!(!c.truncated);
        assert!(c.segment.is_none() && c.base.is_none() && c.sealed.is_none());
        assert_eq!(c.records.len(), 4);
        for (i, r) in c.records.iter().enumerate() {
            assert_eq!(r, &record(i), "record {i} did not round-trip");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_resume_truncates_it() {
        let path = tmp("torn");
        let mut j = Journal::create(&path, &header()).unwrap();
        for i in 0..3 {
            j.append(&record(i)).unwrap();
        }
        drop(j);
        // Simulate a crash mid-append: cut the file inside the last line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let c = read_journal(&path).unwrap();
        assert!(c.truncated, "cut line must be reported as a torn tail");
        assert_eq!(c.records.len(), 2);
        // Resume: the torn tail is truncated away and appends continue.
        let dir = path.parent().unwrap();
        let (mut j, fold) = SegmentedJournal::open_or_create(dir, 0, &header(), None).unwrap();
        assert_eq!(fold.apps(), 2);
        j.append(&record(2)).unwrap();
        j.append(&record(3)).unwrap();
        drop(j);
        let c = read_journal(&path).unwrap();
        assert!(!c.truncated);
        assert!(c.segment.is_none(), "a single-file journal writes no segment= token");
        assert_eq!(c.records.len(), 4);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn header_torn_inside_line_one_is_reported_and_recreated() {
        let path = tmp("torn-header");
        // A header line cut before its '\n' ever reached disk.
        let full = header_line(&header(), None);
        std::fs::write(&path, &full.as_bytes()[..full.len() - 9]).unwrap();
        match read_journal(&path) {
            Err(JournalError::TornHeader) => {}
            other => panic!("expected TornHeader, got {other:?}"),
        }
        // A 0-byte file is the same case (create crashed pre-write).
        let empty = path.parent().unwrap().join("empty.journal");
        std::fs::write(&empty, b"").unwrap();
        match read_journal(&empty) {
            Err(JournalError::TornHeader) => {}
            other => panic!("expected TornHeader for empty file, got {other:?}"),
        }
        // open_or_create recreates instead of hard-failing.
        let dir = path.parent().unwrap();
        let (mut j, fold) = SegmentedJournal::open_or_create(dir, 0, &header(), None).unwrap();
        assert_eq!(fold, ShardFold::default());
        j.append(&record(0)).unwrap();
        drop(j);
        assert_eq!(read_journal(&path).unwrap().records.len(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = tmp("corrupt");
        let mut j = Journal::create(&path, &header()).unwrap();
        for i in 0..3 {
            j.append(&record(i)).unwrap();
        }
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside record 2 of 3 (line 3 of 4).
        let corrupted = text.replacen("leaks=2", "leaks=3", 2).replacen("leaks=3", "leaks=2", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        match read_journal(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn header_mismatch_is_refused() {
        let path = tmp("mismatch");
        Journal::create(&path, &header()).unwrap();
        let mut other = header();
        other.master_seed ^= 1;
        let dir = path.parent().unwrap();
        match SegmentedJournal::open_or_create(dir, 0, &other, None) {
            Err(JournalError::HeaderMismatch { .. }) => {}
            other => panic!("expected HeaderMismatch, got {:?}", other.err()),
        }
        let mut updated = header();
        updated.update_ppm = 5000;
        match SegmentedJournal::open_or_create(dir, 0, &updated, None) {
            Err(JournalError::HeaderMismatch { .. }) => {}
            other => panic!("update model must pin resume identity, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn single_file_resume_fold_equals_folding_read_shard_records() {
        let dir = tmp("single-fold").parent().unwrap().to_owned();
        let (mut j, _) = SegmentedJournal::open_or_create(&dir, 0, &header(), None).unwrap();
        let mut failed = record(1);
        failed.status = RecordStatus::Failed;
        for r in [record(0), failed, record(2), record(1), record(2)] {
            j.append(&r).unwrap();
        }
        assert_eq!(j.segments(), 1, "a single-file journal never seals");
        let live = j.fold().clone();
        drop(j);
        let (_, resumed) = SegmentedJournal::open_or_create(&dir, 0, &header(), None).unwrap();
        let (h, records) = read_shard_records(&dir, 0).unwrap();
        assert_eq!(h, header());
        let mut refold = ShardFold::default();
        for r in &records {
            refold.fold(r).unwrap();
        }
        assert_eq!(resumed, refold);
        assert_eq!(resumed, live);
        // The tail of a journal that never sealed is its whole history.
        assert_eq!(read_shard_tail(&dir, 0).unwrap(), (ShardFold::default(), records));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_directory_in_the_other_layout_or_in_both_is_refused() {
        let layout = |r: Result<_, JournalError>| match r {
            Err(JournalError::Layout(message)) => message,
            Err(other) => panic!("expected a layout refusal, got {other}"),
            Ok(()) => panic!("expected a layout refusal"),
        };
        let dir = tmp("layout").parent().unwrap().to_owned();
        let open = |rotate| SegmentedJournal::open_or_create(&dir, 0, &header(), rotate).map(drop);
        open(None).unwrap();
        let message = layout(open(Some(3)));
        assert!(message.contains("shard-0.journal ") && message.contains("shard-0.journal.0"));
        assert!(message.contains("--fresh"), "{message}");
        // Both at once: no reader guesses which file wins.
        std::fs::copy(journal_path(&dir, 0), segment_path(&dir, 0, 0)).unwrap();
        for message in [
            layout(open(None)),
            layout(open(Some(3))),
            layout(read_shard_tail(&dir, 0).map(drop)),
            layout(read_shard_records(&dir, 0).map(drop)),
            layout(read_campaign_journals(&dir).map(drop)),
        ] {
            assert!(message.contains("shard-0.journal sits beside"), "{message}");
        }
        std::fs::remove_file(journal_path(&dir, 0)).unwrap();
        layout(open(None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_and_tail_read_matches_full_read() {
        let dir = tmp("rotate").parent().unwrap().to_owned();
        let (mut j, fold) = SegmentedJournal::open_or_create(&dir, 0, &header(), Some(3)).unwrap();
        assert_eq!(fold, ShardFold::default());
        for i in 0..8 {
            j.append(&record(i)).unwrap();
        }
        // 8 records at rotate=3: segments 0,1 sealed (3 each), segment 2
        // holds the 2-record unsealed tail.
        assert_eq!(j.segments(), 3);
        let whole_fold = j.fold().clone();
        drop(j);
        let s0 = read_journal(&segment_path(&dir, 0, 0)).unwrap();
        assert_eq!(s0.segment, Some(0));
        assert!(s0.base.is_none());
        assert_eq!(s0.records.len(), 3);
        assert!(s0.sealed.is_some());
        let s2 = read_journal(&segment_path(&dir, 0, 2)).unwrap();
        assert_eq!(s2.records.len(), 2);
        assert!(s2.sealed.is_none());
        // Incremental tail read: base rollup + tail == fold of all 8.
        let (base, tail) = read_shard_tail(&dir, 0).unwrap();
        let mut folded = base;
        for r in &tail {
            folded.fold(r).unwrap();
        }
        assert_eq!(folded, whole_fold);
        // Monolithic read sees all 8 records in order.
        let (h, records) = read_shard_records(&dir, 0).unwrap();
        assert_eq!(h, header());
        assert_eq!(records.len(), 8);
        assert_eq!(records[7], record(7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotated_resume_survives_kills_at_every_awkward_point() {
        let dir = tmp("rotate-kill").parent().unwrap().to_owned();
        let (mut j, _) = SegmentedJournal::open_or_create(&dir, 0, &header(), Some(3)).unwrap();
        for i in 0..7 {
            j.append(&record(i)).unwrap();
        }
        drop(j);
        // Kill 1: torn record in the unsealed tail (segment 2).
        let p2 = segment_path(&dir, 0, 2);
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() - 5]).unwrap();
        let (mut j, fold) = SegmentedJournal::open_or_create(&dir, 0, &header(), Some(3)).unwrap();
        assert_eq!(fold.apps(), 6, "torn record 6 must be truncated");
        j.append(&record(6)).unwrap();
        drop(j);
        // Kill 2: newest segment torn inside its header — recreated from
        // the predecessor's sealed footer.
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..10]).unwrap();
        let (mut j, fold) = SegmentedJournal::open_or_create(&dir, 0, &header(), Some(3)).unwrap();
        assert_eq!(fold.apps(), 6, "segment 2's records were lost with its header");
        j.append(&record(6)).unwrap();
        let whole = j.fold().clone();
        drop(j);
        let (h, records) = read_shard_records(&dir, 0).unwrap();
        assert_eq!(h, header());
        assert_eq!(records.len(), 7);
        let mut refold = ShardFold::default();
        for r in &records {
            refold.fold(r).unwrap();
        }
        assert_eq!(refold, whole);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_segment_without_successor_resumes_into_a_fresh_one() {
        let dir = tmp("rotate-sealed").parent().unwrap().to_owned();
        let (mut j, _) = SegmentedJournal::open_or_create(&dir, 0, &header(), Some(2)).unwrap();
        for i in 0..4 {
            j.append(&record(i)).unwrap();
        }
        assert_eq!(j.segments(), 3);
        drop(j);
        // Simulate a crash right after sealing segment 1 but before
        // segment 2 was created.
        std::fs::remove_file(segment_path(&dir, 0, 2)).unwrap();
        let (j, fold) = SegmentedJournal::open_or_create(&dir, 0, &header(), Some(2)).unwrap();
        assert_eq!(fold.apps(), 4, "sealed rollup carries all four records");
        assert_eq!(j.segments(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 12-record shard journal. Rotated every 5: segment 0 (header, 5
    /// records, footer), segment 1 (header, carried rollup, 5 records,
    /// footer), segment 2 (header, carried rollup, 2 records). Without
    /// rotation: one file, header and 12 records.
    fn twelve(name: &str, rotate: Option<usize>) -> (PathBuf, JournalHeader) {
        let dir = tmp(name).parent().unwrap().to_owned();
        let header = JournalHeader { apps: 12, ..header() };
        let (mut j, _) = SegmentedJournal::open_or_create(&dir, 0, &header, rotate).unwrap();
        for i in 0..12 {
            j.append(&record(i)).unwrap();
        }
        assert_eq!(j.segments(), if rotate.is_some() { 3 } else { 1 });
        (dir, header)
    }

    fn rotated_twelve(name: &str) -> (PathBuf, JournalHeader) {
        twelve(name, Some(5))
    }

    #[test]
    fn a_sealed_segment_posing_as_a_single_file_is_corrupt_not_appended_to() {
        let (dir, header) = rotated_twelve("posing");
        std::fs::rename(segment_path(&dir, 0, 0), journal_path(&dir, 0)).unwrap();
        for k in 1..3 {
            std::fs::remove_file(segment_path(&dir, 0, k)).unwrap();
        }
        match SegmentedJournal::open_or_create(&dir, 0, &header, None).err() {
            Some(JournalError::Corrupt { line: 7, reason }) => {
                assert!(reason.contains("rollup footer"), "{reason}")
            }
            other => panic!("a single-file journal has no footer to resume past: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites line `k` of a journal file through `edit`, which gets the
    /// line without its newline; every other byte is kept.
    fn rewrite_line(path: &Path, k: usize, edit: impl FnOnce(&[u8]) -> Vec<u8>) {
        let bytes = std::fs::read(path).unwrap();
        let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        lines[k] = edit(&lines[k]);
        std::fs::write(path, lines.join(&b'\n')).unwrap();
    }

    /// The line with its body put through `edit` and sealed again, so the
    /// readers' checksum passes and their field parsers see the edit.
    fn resealed(line: &[u8], edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let cut = line.windows(5).rposition(|w| w == b" crc=").expect("a sealed line");
        let mut out = edit(&line[..cut]);
        let crc = fnv1a(&out);
        out.extend_from_slice(format!(" crc={crc:016x}").as_bytes());
        out
    }

    #[test]
    fn rollup_index_runs_outside_the_campaign_are_corrupt_not_expanded() {
        // Both lines carry a valid checksum, so the field parsers see them:
        // one would materialise four million indices, the other overflows
        // `start + stride * k`.
        for hostile in ["idx=0:1:4000000", "idx=1:18446744073709551615:3"] {
            // Segment 0's sealing footer (line 7) and segment 1's carried
            // rollup (line 2).
            for (segment, k) in [(0, 6), (1, 1)] {
                let (dir, _) = rotated_twelve("hostile-idx");
                let path = segment_path(&dir, 0, segment);
                rewrite_line(&path, k, |line| {
                    resealed(line, |body| {
                        let body = std::str::from_utf8(body).unwrap();
                        assert!(body.starts_with("rollup "));
                        let idx = field(body, "idx").unwrap();
                        body.replace(&format!("idx={idx}"), hostile).into_bytes()
                    })
                });
                match read_journal(&path) {
                    Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, k + 1),
                    other => panic!("{hostile} in segment {segment}: {other:?}"),
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn a_resealed_count_that_overflows_the_shard_tally_is_corrupt_not_a_panic() {
        let dir = tmp("hostile-nodes").parent().unwrap().to_owned();
        let (mut j, _) = SegmentedJournal::open_or_create(&dir, 0, &header(), Some(5)).unwrap();
        for i in 0..3 {
            j.append(&record(i)).unwrap();
        }
        drop(j);
        // Line 2 keeps a valid checksum and parses; the tally it fills to
        // the brim overflows on the record after it.
        let path = segment_path(&dir, 0, 0);
        rewrite_line(&path, 1, |line| {
            resealed(line, |body| {
                let body = std::str::from_utf8(body).unwrap();
                body.replace("nodes=999", "nodes=18446744073709551615").into_bytes()
            })
        });
        let records = read_journal(&path).unwrap().records;
        assert_eq!(records[0].nodes, u64::MAX);
        match SegmentedJournal::open_or_create(&dir, 0, &header(), Some(5)).err() {
            Some(JournalError::Corrupt { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("nodes"), "{reason}");
            }
            other => panic!("resume folded an overflowing tally: {other:?}"),
        }
        let fleet = crate::report::FleetReport::try_from_records(0xD401D, 8, 0, vec![records]);
        assert!(matches!(fleet, Err(JournalError::Corrupt { .. })), "{:?}", fleet.err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checksummed_record_that_does_not_parse_is_corrupt_even_on_the_final_line() {
        let path = tmp("sealed-garbage");
        let mut j = Journal::create(&path, &header()).unwrap();
        for i in 0..3 {
            j.append(&record(i)).unwrap();
        }
        drop(j);
        // A torn line cannot carry its own checksum: this one was written
        // whole, so dropping it as a torn tail would lose a record silently.
        rewrite_line(&path, 3, |line| {
            resealed(line, |body| {
                std::str::from_utf8(body).unwrap().replace("rounds=12", "rounds=x").into_bytes()
            })
        });
        match read_journal(&path) {
            Err(JournalError::Corrupt { line, reason }) => {
                assert_eq!(line, 4);
                assert!(reason.contains("rounds"), "{reason}");
            }
            other => panic!("expected Corrupt at line 4, got {other:?}"),
        }
        // Stale checksum on the same line: still a torn tail.
        rewrite_line(&path, 3, |line| line[..line.len() - 1].to_vec());
        assert!(read_journal(&path).unwrap().truncated);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// One hostile edit of a line's bytes: flip, truncate, or splice a
    /// chunk of the line over another place in it.
    fn mangle(bytes: &[u8], op: usize, a: usize, b: usize, byte: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = |i: usize| i % bytes.len();
        match op {
            0 => out[at(a)] ^= byte | 1,
            1 => out.truncate(at(a)),
            _ => {
                let (from, to) = (at(a), at(b));
                let chunk = bytes[from..(from + 1 + usize::from(byte)).min(bytes.len())].to_vec();
                out.splice(to..to, chunk);
            }
        }
        out
    }

    proptest::proptest! {
        /// ROADMAP 4b for journals: whatever happens to a header, a
        /// record, a carried rollup or a sealing footer, the readers
        /// answer `Ok` or `Err` — they never panic. With the checksum left
        /// stale the edit must be noticed; resealed, it reaches the field
        /// parsers.
        #[test]
        fn hostile_journal_bytes_never_panic_the_readers(
            op in 0usize..3,
            pick: usize,
            a: usize,
            b: usize,
            byte: u8,
        ) {
            // (segment, line) of each kind of line in `twelve`, per layout.
            let rotated: &[&[(usize, usize)]] = &[
                &[(0, 0), (1, 0), (2, 0)],                 // headers
                &[(0, 3), (1, 4), (2, 2), (2, 3)],         // records
                &[(1, 1), (2, 1)],                         // carried rollups
                &[(0, 6), (1, 7)],                         // sealing footers
            ];
            let single: &[&[(usize, usize)]] = &[&[(0, 0)], &[(0, 3), (0, 12)]];
            for (rotate, kinds) in [(Some(5), rotated), (None, single)] {
                for (kind, lines) in kinds.iter().enumerate() {
                    let (segment, k) = lines[pick % lines.len()];
                    for reseal in [false, true] {
                        let (dir, header) = twelve(&format!("hostile-{kind}-{reseal}"), rotate);
                        let path = layout_path(&dir, 0, rotate.map(|_| segment));
                        rewrite_line(&path, k, |line| {
                            let edit = |bytes: &[u8]| mangle(bytes, op, a, b, byte);
                            if reseal { resealed(line, edit) } else { edit(line) }
                        });
                        let read = read_journal(&path);
                        if !reseal {
                            // A stale checksum is an error, or — on the
                            // final line — a torn tail that is dropped.
                            let noticed = read.as_ref().map_or(true, |c| c.truncated);
                            proptest::prop_assert!(noticed, "segment {segment} line {k}: {read:?}");
                        }
                        let _ = read_shard_tail(&dir, 0);
                        let _ = SegmentedJournal::open_or_create(&dir, 0, &header, rotate);
                        std::fs::remove_dir_all(&dir).ok();
                    }
                }
            }
        }
    }
}
