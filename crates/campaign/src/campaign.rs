//! Campaign orchestration: one serve fleet per shard, streamed
//! submission with bounded memory, durable per-app checkpointing, and
//! the final journal → [`FleetReport`] fold.
//!
//! Snapshot mode (`rotate_records`) has [`crate::journal`] seal each
//! shard journal into bounded segments, so resume and the fleet fold read
//! one bounded file per shard; `sumstore` builds the corpus's frozen
//! library store once and hands the one `Arc` to every shard service;
//! `delta_base` turns the run into a daily-delta campaign that copies
//! forward the base snapshot's records for apps whose generator seed did
//! not change and re-vets only the rest.

use crate::fold::ShardFold;
use crate::journal::{
    read_campaign_journals, read_shard_tail, AppRecord, JournalError, JournalHeader, RecordStatus,
    SegmentedJournal, JOURNAL_VERSION,
};
use crate::report::FleetReport;
use gdroid_apk::{Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid_serve::{
    fnv1a, job_trace, JobResult, JobSource, JobStatus, Priority, ServiceConfig, ServiceReport,
    VettingService,
};
use gdroid_sumstore::SumStore;
use gdroid_vetting::json::JsonWriter;
use gdroid_vetting::{library_store, Engine, ExecPlan};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Everything that defines a campaign run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Corpus size (apps across all shards).
    pub apps: usize,
    /// Serve fleets to shard across (one simulated multi-GPU node each).
    pub shards: usize,
    /// Corpus master seed.
    pub master_seed: u64,
    /// App generator profile.
    pub gen: GenConfig,
    /// Directory holding the per-shard checkpoint journals.
    pub journal_dir: PathBuf,
    /// Prep workers per shard service.
    pub prep_workers: usize,
    /// Simulated devices per shard service.
    pub devices: usize,
    /// Co-residency degree per device (1 disables batching).
    pub coresident: usize,
    /// Attach the corpus's library store: [`library_store`] of
    /// [`Self::gen`], built once before the first job and read by every
    /// shard. Every reachable library method is pre-solved; verdicts and
    /// journaled timings do not depend on shards, workers, devices or
    /// co-residency.
    pub sumstore: bool,
    /// How every app is vetted: the engine the shard services run under
    /// (CPU-engine jobs bypass the per-shard result cache and co-resident
    /// batching, see [`ExecPlan`]), and
    /// whether apps go through the demand-driven fast lane (backward sink
    /// slices; these bypass the cache and batch only with each other).
    /// Journaled verdicts and leak counts are plan-invariant, but modeled
    /// timings are not, so the plan participates in [`config_digest`].
    pub plan: ExecPlan,
    /// Write per-app modeled-time Chrome traces under
    /// `<dir>/shard-<s>/job-<index>.json`.
    pub trace_dir: Option<PathBuf>,
    /// Snapshot mode: seal each shard journal's newest segment every this
    /// many records (`None`, the default, never seals). Resume and the
    /// fleet fold read only the newest segment per shard either way. The
    /// setting decides nothing about what is already on disk, so a
    /// directory may be resumed under any setting.
    pub rotate_records: Option<usize>,
    /// Daily-delta mode: the journal directory of a finished base
    /// campaign. Apps whose effective per-app seed matches their base
    /// record are copied forward without re-vetting; only changed (and
    /// newly added) apps run.
    pub delta_base: Option<PathBuf>,
    /// Daily-update model: how many apps per million get their generator
    /// seed deterministically perturbed (0 = pristine corpus). Part of
    /// the journal header (it changes per-app seeds), not the config
    /// digest (a delta run against an un-updated base is the point).
    pub update_ppm: u32,
    /// Salt selecting *which* apps the update model perturbs.
    pub update_salt: u64,
}

impl CampaignConfig {
    /// A campaign over the paper corpus seed with serve-default shard
    /// services (2 prep workers + 2 devices each) and the paper's
    /// generator profile.
    pub fn new(apps: usize, shards: usize, journal_dir: PathBuf) -> CampaignConfig {
        CampaignConfig {
            apps,
            shards,
            master_seed: PAPER_MASTER_SEED,
            gen: GenConfig::default(),
            journal_dir,
            prep_workers: 2,
            devices: 2,
            coresident: 1,
            sumstore: false,
            plan: ExecPlan::default(),
            trace_dir: None,
            rotate_records: None,
            delta_base: None,
            update_ppm: 0,
            update_salt: 0,
        }
    }
}

/// Digest over everything that shapes journaled record *content* — the
/// generator profile and the vetting mode. Resuming under a different
/// digest is refused (the records would describe different apps or a
/// different analysis); topology knobs (shard service sizes, coresidency,
/// journal rotation) are deliberately excluded because they change
/// neither a verdict nor a modeled timing.
pub fn config_digest(config: &CampaignConfig) -> u64 {
    // `exec=multi` names the one launch policy left and `shared=false` the
    // retired store-sharing knob; both stay so every store-free journal
    // written before them still resumes. A store-backed journal written
    // against a live store does not: `sumstore=frozen` refuses it rather
    // than resume with mixed timings. The CPU reference once ran targeted
    // jobs on the worklist GPU and ignored the store; `cpu=composed`
    // refuses a journal it wrote so.
    let sumstore = if config.sumstore { "frozen" } else { "false" };
    let cpu = config.plan.engine == Engine::CpuReference;
    let composed =
        if cpu && (config.plan.targeted || config.sumstore) { " cpu=composed" } else { "" };
    fnv1a(
        format!(
            "gen={:?} targeted={} sumstore={sumstore} engine={} exec=multi shared=false{composed}",
            config.gen,
            config.plan.targeted,
            config.plan.engine.name(),
        )
        .as_bytes(),
    )
}

/// The effective generator seed of `index` under the daily-update model:
/// the corpus seed, deterministically perturbed for the `ppm`-fraction of
/// apps the salt selects. A pure function of (corpus, index, ppm, salt),
/// so resumed and delta runs agree app by app on what "changed" means.
pub fn effective_seed(corpus: &Corpus, index: usize, ppm: u32, salt: u64) -> u64 {
    let base = corpus.seed_for(index);
    if ppm == 0 {
        return base;
    }
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&salt.to_le_bytes());
    bytes[8..].copy_from_slice(&(index as u64).to_le_bytes());
    let h = fnv1a(&bytes);
    if h % 1_000_000 < u64::from(ppm) {
        // `| 1` guarantees the perturbed seed differs from the base.
        base ^ (h | 1)
    } else {
        base
    }
}

/// Why a campaign failed.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem failure outside the journal layer.
    Io(std::io::Error),
    /// Journal create/read/append failure (including resume refusal).
    Journal(JournalError),
    /// Invalid campaign configuration.
    Config(String),
    /// A shard failed mid-run.
    Shard(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign I/O error: {e}"),
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::Config(r) => write!(f, "invalid campaign config: {r}"),
            CampaignError::Shard(r) => write!(f, "shard failure: {r}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> CampaignError {
        CampaignError::Io(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

/// What a daily-delta campaign changed relative to its base snapshot.
#[derive(Clone, Copy, Debug)]
pub struct DeltaReport {
    /// Apps in the base snapshot.
    pub base_apps: usize,
    /// Apps in this campaign.
    pub apps: usize,
    /// Apps copied forward from the base unchanged (no re-vetting).
    pub copied: usize,
    /// Apps re-vetted because their effective seed changed (or their base
    /// record was not a completion).
    pub revetted: usize,
    /// Apps with no base record at all (catalog growth).
    pub added: usize,
    /// Re-vetted apps whose verdict differs from their base verdict.
    pub verdict_flips: usize,
}

impl DeltaReport {
    /// Deterministic JSON rendering.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("base_apps").int(self.base_apps);
            w.key("apps").int(self.apps);
            w.key("copied").int(self.copied);
            w.key("revetted").int(self.revetted);
            w.key("added").int(self.added);
            w.key("verdict_flips").int(self.verdict_flips);
        })
    }
}

/// What a finished (or finished-by-resume) campaign hands back.
pub struct CampaignOutcome {
    /// The canonical fleet report, folded from the journals. Byte-stable
    /// across kill/resume and reruns.
    pub fleet: FleetReport,
    /// The merged live service report (wall-clock throughput, cache and
    /// store counters). Non-canonical: resumes and thread interleaving
    /// change it, so it never goes into the report file.
    pub service: ServiceReport,
    /// Apps skipped because a journal already held their terminal
    /// (non-failed) record.
    pub resumed: usize,
    /// Apps executed (and journaled) by this run.
    pub executed: usize,
    /// Apps copied forward from the delta base without re-vetting.
    pub copied: usize,
    /// The delta summary, when this was a `--delta` run.
    pub delta: Option<DeltaReport>,
}

/// Runs (or resumes) a campaign: one serve fleet per shard over the
/// strided index split, streaming generate → vet → journal → discard with
/// memory bounded by each service's in-flight window. Returns the folded
/// fleet report plus the merged live service report.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignOutcome, CampaignError> {
    if config.apps == 0 {
        return Err(CampaignError::Config("campaign needs at least one app".into()));
    }
    if config.shards == 0 {
        return Err(CampaignError::Config("campaign needs at least one shard".into()));
    }
    std::fs::create_dir_all(&config.journal_dir)?;
    let digest = config_digest(config);
    let corpus =
        Corpus { master_seed: config.master_seed, size: config.apps, config: config.gen.clone() };

    // Daily-delta: load the base snapshot up front and refuse bases the
    // per-record seed comparison would be meaningless against.
    let base: Option<(usize, HashMap<usize, AppRecord>)> = match &config.delta_base {
        Some(dir) => {
            let (header, records) = read_campaign_journals(dir)?;
            if header.master_seed != config.master_seed {
                return Err(CampaignError::Config(format!(
                    "delta base has master seed {:#x}, campaign has {:#x}",
                    header.master_seed, config.master_seed
                )));
            }
            if header.config_digest != digest {
                return Err(CampaignError::Config(
                    "delta base was vetted under a different generator/mode config".into(),
                ));
            }
            Some((header.apps, final_records_by_index(&header, records)?))
        }
        None => None,
    };

    // The library store, built once for every shard.
    let store = config.sumstore.then(|| Arc::new(library_store(&config.gen)));

    let shard_outcomes: Vec<Result<ShardOutcome, CampaignError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.shards)
            .map(|shard| {
                let ctx = ShardCtx {
                    config,
                    corpus: &corpus,
                    digest,
                    shard,
                    store: store.clone(),
                    base: base.as_ref().map(|(_, map)| map),
                };
                scope.spawn(move || run_shard(ctx))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(shard, h)| {
                h.join().unwrap_or_else(|_| {
                    Err(CampaignError::Shard(format!("shard {shard} thread panicked")))
                })
            })
            .collect()
    });

    let mut service: Option<ServiceReport> = None;
    let mut resumed = 0;
    let mut executed = 0;
    let mut copied = 0;
    for outcome in shard_outcomes {
        let o = outcome?;
        resumed += o.resumed;
        executed += o.executed;
        copied += o.copied;
        service = Some(match service {
            Some(merged) => merged.merge(&o.report),
            None => o.report,
        });
    }
    let service = service.expect("shards > 0 always yields a service report");

    // The fleet report is folded from what is durably on disk — never
    // from live state — so an uninterrupted run and a kill/resume run
    // produce the byte-identical report: per shard, the newest journal
    // file's carried rollup plus its unsealed tail.
    let mut tails = Vec::with_capacity(config.shards);
    for shard in 0..config.shards {
        tails.push(read_shard_tail(&config.journal_dir, shard)?);
    }
    let fleet = FleetReport::from_folds(config.master_seed, config.apps, digest, tails)?;

    let delta = match base {
        Some((base_apps, base_map)) => {
            // Flip detection needs every final record, so this one read is
            // monolithic even under rotation (delta is a once-a-day path).
            let (header, records) = read_campaign_journals(&config.journal_dir)?;
            let own_map = final_records_by_index(&header, records)?;
            let added = own_map.keys().filter(|i| !base_map.contains_key(i)).count();
            let verdict_flips = own_map
                .iter()
                .filter(|(index, record)| {
                    base_map.get(index).is_some_and(|b| {
                        b.status == RecordStatus::Completed
                            && record.status == RecordStatus::Completed
                            && b.verdict != record.verdict
                    })
                })
                .count();
            Some(DeltaReport {
                base_apps,
                apps: config.apps,
                copied,
                revetted: executed,
                added,
                verdict_flips,
            })
        }
        None => None,
    };

    Ok(CampaignOutcome { fleet, service, resumed, executed, copied, delta })
}

/// The final record per index of a journal directory's per-shard record
/// lists: the records the fleet fold keeps, under its one superseding
/// rule. The counts came from files, so one that overflows a tally is
/// [`JournalError::Corrupt`].
fn final_records_by_index(
    header: &JournalHeader,
    shard_records: Vec<Vec<AppRecord>>,
) -> Result<HashMap<usize, AppRecord>, JournalError> {
    let tails = shard_records.into_iter().map(|r| (ShardFold::default(), r)).collect();
    let fleet =
        FleetReport::from_folds(header.master_seed, header.apps, header.config_digest, tails)?;
    Ok(fleet.records.into_iter().map(|r| (r.index, r)).collect())
}

struct ShardOutcome {
    report: ServiceReport,
    resumed: usize,
    executed: usize,
    copied: usize,
}

/// Everything one shard worker needs.
struct ShardCtx<'a> {
    config: &'a CampaignConfig,
    corpus: &'a Corpus,
    digest: u64,
    shard: usize,
    /// The library store — `Some` iff the campaign attaches one.
    store: Option<Arc<SumStore>>,
    base: Option<&'a HashMap<usize, AppRecord>>,
}

/// Runs one shard: open-or-resume its journal, stream its strided index
/// slice through a fresh [`VettingService`], and checkpoint every
/// terminal result the moment it is harvested.
fn run_shard(ctx: ShardCtx<'_>) -> Result<ShardOutcome, CampaignError> {
    let ShardCtx { config, corpus, digest, shard, store, base } = ctx;
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        master_seed: config.master_seed,
        apps: config.apps,
        shards: config.shards,
        shard,
        config_digest: digest,
        update_ppm: config.update_ppm,
        update_salt: config.update_salt,
    };
    let (mut journal, resume_fold) = SegmentedJournal::open_or_create(
        &config.journal_dir,
        shard,
        &header,
        config.rotate_records,
    )?;
    // The done-set excludes still-open failures: a transiently failed app
    // is re-run on resume, and its later record supersedes the failure in
    // the fold. Quarantined apps stay done — they exhausted their
    // retries under this very config.
    let done: HashSet<usize> = resume_fold
        .indices
        .iter()
        .copied()
        .filter(|i| !resume_fold.open_failed.contains_key(i))
        .collect();
    let resumed = done.len();

    let trace_dir = config.trace_dir.as_ref().map(|d| d.join(format!("shard-{shard}")));
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)?;
    }

    let svc = VettingService::start(ServiceConfig {
        label: format!("shard-{shard}"),
        prep_workers: config.prep_workers,
        devices: config.devices,
        coresident: config.coresident,
        sumstore: store,
        plan: config.plan,
        ..ServiceConfig::default()
    });

    let mut pending: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut executed = 0usize;
    let mut copied = 0usize;
    for index in Corpus::shard_indices(config.apps, shard, config.shards) {
        if done.contains(&index) {
            continue;
        }
        let seed = effective_seed(corpus, index, config.update_ppm, config.update_salt);
        // Daily-delta copy-forward: an identical seed under an identical
        // config digest regenerates the identical app, so the base
        // snapshot's completed record IS this campaign's record.
        if let Some(record) = base
            .and_then(|map| map.get(&index))
            .filter(|r| r.status == RecordStatus::Completed && r.seed == seed && r.index == index)
        {
            journal.append(record)?;
            copied += 1;
            continue;
        }
        let source = JobSource::Seed { index, seed, config: Box::new(config.gen.clone()) };
        let submitted = if config.plan.targeted {
            svc.submit_targeted(source)
        } else {
            svc.submit(Priority::Standard, source)
        };
        let id = submitted
            .map_err(|e| CampaignError::Shard(format!("shard {shard}: submit failed: {e:?}")))?;
        pending.insert(id, (index, seed));
        // Harvest-as-you-go: submission backpressure plus immediate
        // harvesting bounds resident results by the in-flight window, so
        // a 10k-app shard never holds 10k outcomes.
        checkpoint(
            &mut journal,
            &mut pending,
            svc.take_results(),
            trace_dir.as_deref(),
            &mut executed,
        )?;
    }
    let (report, rest) = svc.drain();
    checkpoint(&mut journal, &mut pending, rest, trace_dir.as_deref(), &mut executed)?;
    if !pending.is_empty() {
        return Err(CampaignError::Shard(format!(
            "shard {shard}: {} job(s) never produced a result",
            pending.len()
        )));
    }
    Ok(ShardOutcome { report, resumed, executed, copied })
}

/// Journals a batch of harvested results (and writes their traces),
/// bumping `executed` once per *successfully appended* record — a
/// mid-batch failure leaves the count agreeing with what is durably on
/// disk. The journal append comes before the trace write: a crash (or
/// full disk) between the two loses a redundant trace, never a record.
fn checkpoint(
    journal: &mut SegmentedJournal,
    pending: &mut HashMap<u64, (usize, u64)>,
    results: Vec<JobResult>,
    trace_dir: Option<&Path>,
    executed: &mut usize,
) -> Result<(), CampaignError> {
    for result in results {
        let (index, seed) = pending.remove(&result.id).ok_or_else(|| {
            CampaignError::Shard(format!("result for unknown job id {}", result.id))
        })?;
        journal.append(&to_record(index, seed, &result))?;
        *executed += 1;
        if let Some(dir) = trace_dir {
            std::fs::write(
                dir.join(format!("job-{index:06}.json")),
                job_trace(&result).to_chrome_json(),
            )?;
        }
    }
    Ok(())
}

/// Converts a terminal [`JobResult`] into its durable journal record.
fn to_record(index: usize, seed: u64, result: &JobResult) -> AppRecord {
    let package = if result.package.is_empty() { "-".to_owned() } else { result.package.clone() };
    match (&result.status, &result.outcome) {
        (JobStatus::Completed, Some(outcome)) => AppRecord {
            index,
            seed,
            package,
            status: RecordStatus::Completed,
            verdict: format!("{:?}", outcome.report.verdict),
            leaks: outcome.report.leaks.len(),
            report_fnv: fnv1a(outcome.report.to_json().as_bytes()),
            envgen_ns: outcome.timing.envgen_ns,
            callgraph_ns: outcome.timing.callgraph_ns,
            idfg_ns: outcome.timing.idfg_ns,
            taint_ns: outcome.timing.taint_ns,
            nodes: outcome.telemetry.nodes_processed as u64,
            rounds: outcome.telemetry.rounds as u64,
            sliced_micros: outcome
                .targeted
                .as_ref()
                .map(|t| (t.sliced_fraction * 1e6).round() as u64),
            attempts: result.attempts,
        },
        (status, _) => AppRecord {
            index,
            seed,
            package,
            status: if matches!(status, JobStatus::Quarantined) {
                RecordStatus::Quarantined
            } else {
                RecordStatus::Failed
            },
            verdict: "-".to_owned(),
            leaks: 0,
            report_fnv: 0,
            envgen_ns: 0.0,
            callgraph_ns: 0.0,
            idfg_ns: 0.0,
            taint_ns: 0.0,
            nodes: 0,
            rounds: 0,
            sliced_micros: None,
            attempts: result.attempts,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{journal_path, read_journal};
    use gdroid_serve::CacheDisposition;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("gdroid-campaign-unit-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Journals written before the persistent kernel retired must still
    /// resume: the digests are the ones those builds computed.
    #[test]
    fn config_digests_equal_the_pre_retirement_values() {
        let base = CampaignConfig::new(20, 2, PathBuf::from("j"));
        let digest = |plan| config_digest(&CampaignConfig { plan, ..base.clone() });
        assert_eq!(digest(ExecPlan::default()), 0x33f7_db3a_51e7_2523);
        assert_eq!(
            digest(ExecPlan { targeted: true, ..ExecPlan::default() }),
            0x6985_e501_3543_2086
        );
        assert_eq!(digest(ExecPlan::new(Engine::CpuReference)), 0xc875_70a6_f0c6_7ea8);
        // A journal written against a live store is refused, not resumed
        // with mixed timings.
        let frozen = config_digest(&CampaignConfig { sumstore: true, ..base.clone() });
        let live = format!(
            "gen={:?} targeted=false sumstore=true engine=worklist exec=multi shared=false",
            base.gen
        );
        assert_ne!(frozen, fnv1a(live.as_bytes()));
        assert_ne!(frozen, digest(ExecPlan::default()));

        // The CPU reference's targeted and store-backed plans changed
        // meaning (they used to run on the worklist GPU and store-free):
        // their digests differ from what the old format gave them.
        let old = |targeted: bool, sumstore: &str| {
            let line = format!(
                "gen={:?} targeted={targeted} sumstore={sumstore} engine=cpu exec=multi \
                 shared=false",
                base.gen
            );
            fnv1a(line.as_bytes())
        };
        assert_eq!(old(false, "false"), 0xc875_70a6_f0c6_7ea8, "the old format, unchanged");
        let cpu = ExecPlan::new(Engine::CpuReference);
        let targeted = digest(ExecPlan { targeted: true, ..cpu });
        assert_ne!(targeted, old(true, "false"));
        let store_backed =
            config_digest(&CampaignConfig { sumstore: true, plan: cpu, ..base.clone() });
        assert_ne!(store_backed, old(false, "frozen"));
    }

    fn header(dir_apps: usize) -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            master_seed: 1,
            apps: dir_apps,
            shards: 1,
            shard: 0,
            config_digest: 2,
            update_ppm: 0,
            update_salt: 0,
        }
    }

    fn failed_result(id: u64) -> JobResult {
        JobResult {
            id,
            package: format!("com.gen.app{id:04}"),
            priority: Priority::Standard,
            content_hash: 0,
            status: JobStatus::Failed("injected".into()),
            cache: CacheDisposition::Miss,
            outcome: None,
            attempts: 1,
            faults_seen: 0,
            timeouts_seen: 0,
            queue_wait_ns: 0,
            prep_ns: 0,
            exec_wall_ns: 0,
        }
    }

    #[test]
    fn checkpoint_counts_only_successful_appends() {
        // Regression: the old code took `results.len()` before appending,
        // so an unknown job id mid-batch reported records that were never
        // journaled. The count must track durable appends exactly.
        let dir = tmp_dir("checkpoint-count");
        let (mut journal, _) = SegmentedJournal::open_or_create(&dir, 0, &header(4), None).unwrap();
        let mut pending: HashMap<u64, (usize, u64)> = HashMap::new();
        pending.insert(7, (0, 0xA));
        // Job 8 was never submitted: the batch fails halfway.
        let mut executed = 0usize;
        let err = checkpoint(
            &mut journal,
            &mut pending,
            vec![failed_result(7), failed_result(8)],
            None,
            &mut executed,
        );
        assert!(matches!(err, Err(CampaignError::Shard(_))));
        assert_eq!(executed, 1, "only the journaled record may count");
        drop(journal);
        let contents = read_journal(&journal_path(&dir, 0)).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].index, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_journals_before_the_trace_write() {
        // A failing trace write must not lose the already-durable record
        // or its count.
        let dir = tmp_dir("checkpoint-order");
        let (mut journal, _) = SegmentedJournal::open_or_create(&dir, 0, &header(4), None).unwrap();
        let mut pending: HashMap<u64, (usize, u64)> = HashMap::new();
        pending.insert(7, (0, 0xA));
        // A trace "directory" that is actually a file: the write fails.
        let bogus = dir.join("traces");
        std::fs::write(&bogus, b"not a directory").unwrap();
        let mut executed = 0usize;
        let err = checkpoint(
            &mut journal,
            &mut pending,
            vec![failed_result(7)],
            Some(&bogus),
            &mut executed,
        );
        assert!(matches!(err, Err(CampaignError::Io(_))));
        assert_eq!(executed, 1, "the record was journaled before the trace failed");
        drop(journal);
        assert_eq!(read_journal(&journal_path(&dir, 0)).unwrap().records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn effective_seed_is_deterministic_and_ppm_scales_perturbation() {
        let corpus = Corpus { master_seed: 77, size: 1000, config: GenConfig::tiny() };
        for index in 0..1000 {
            assert_eq!(
                effective_seed(&corpus, index, 0, 9),
                corpus.seed_for(index),
                "ppm=0 must leave every seed pristine"
            );
            assert_eq!(
                effective_seed(&corpus, index, 100_000, 9),
                effective_seed(&corpus, index, 100_000, 9),
                "perturbation must be deterministic"
            );
        }
        let perturbed = (0..1000)
            .filter(|&i| effective_seed(&corpus, i, 100_000, 9) != corpus.seed_for(i))
            .count();
        assert!(
            (50..200).contains(&perturbed),
            "100k ppm should perturb roughly 10% of 1000 apps, got {perturbed}"
        );
        // A different salt selects a different app subset.
        let other_salt = (0..1000)
            .filter(|&i| effective_seed(&corpus, i, 100_000, 10) != corpus.seed_for(i))
            .count();
        let overlap = (0..1000)
            .filter(|&i| {
                effective_seed(&corpus, i, 100_000, 9) != corpus.seed_for(i)
                    && effective_seed(&corpus, i, 100_000, 10) != corpus.seed_for(i)
            })
            .count();
        assert!(overlap < perturbed.min(other_salt), "salts must select different subsets");
    }
}
