//! The four workloads. Each is set up from the seed, then run in whole
//! passes; a pass is the unit every rate and latency is taken over, so
//! every pass of a run does identical work.
//!
//! **What the seed decides.** Per-app vetting cost on this generator is
//! heavy-tailed by *structure*, not size (apps of 30–43 k statements
//! measured 62 ms to 1060 ms), so a pool of freshly drawn apps moves `apps_per_s` by
//! 15–21 % (IQR/median) from seed to seed at any pool size that fits a
//! run — more than any bound worth stating. The pools are therefore
//! fixed prefixes of the paper corpus (`PAPER_MASTER_SEED`), and the seed
//! decides what may vary without changing the amount of work: submission
//! order, which methods the v2 bundles edit, which apps the day-1 delta
//! re-vets, and the synthetic kernel's divergence pattern.
//!
//! **Load shape.** `vet_paper` is single-threaded. The service workloads
//! run one prep worker and one device (two program threads on this
//! 2-core machine) under a closed loop of two outstanding jobs driven
//! from the one harness thread: callers that wait for a verdict.

use crate::oracle::{Oracle, Reported};
use gdroid::apk::{
    generate_app, load_bundle, save_bundle, App, Corpus, GenConfig, Rng, PAPER_MASTER_SEED,
};
use gdroid::campaign::{
    read_shard_records, run_campaign, AppRecord, CampaignConfig, CampaignOutcome,
};
use gdroid::core::OptConfig;
use gdroid::ir::{Expr, Lhs, MethodId, Stmt, StmtIdx};
use gdroid::serve::{
    CacheDisposition, HistogramSnapshot, JobResult, JobSource, JobStatus, Priority, ServiceConfig,
    ServiceReport, VettingService,
};
use gdroid::vetting::{vet_app, Engine};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Outstanding jobs the harness keeps in a service.
const WINDOW: usize = 2;
/// Methods a v2 bundle edits (as `examples/incremental_update.rs` does).
const V2_EDITS: usize = 3;
/// Day-1 update rate of `campaign_libs`, apps per million.
const UPDATE_PPM: u32 = 100_000;
/// Journal rotation of `campaign_libs`, records per segment.
const ROTATE_RECORDS: usize = 32;
/// Journal records of `campaign_libs` checked against the oracle.
const CAMPAIGN_ORACLE_SAMPLE: usize = 24;

/// Pool sizes: how many apps each workload cycles through per pass.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `vet_paper` pool.
    pub vet_paper: usize,
    /// `stream_targeted` pool.
    pub stream_targeted: usize,
    /// `serve_mixed` pool (each app exists in two versions).
    pub serve_mixed: usize,
    /// `campaign_libs` corpus.
    pub campaign_libs: usize,
    /// Untimed warm-up apps vetted during set-up.
    pub warmup: usize,
    /// Apps the traced pass replays through every layer.
    pub trace_sample: usize,
    /// Of those, apps that also run the ladder rungs and `rel`.
    pub ladder_sample: usize,
    /// Verdict-latency samples a run must pool before it may stop: p90
    /// needs 100 to have ten samples beyond it.
    pub min_latency_samples: usize,
    /// Multiplies every workload's generator scale (1.0 = as specified).
    pub app_scale: f64,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs at: one pass is 2–5 s here, so a
    /// run holds three or more passes and ≥ 100 latency samples.
    pub const FULL: Sizes = Sizes {
        vet_paper: 32,
        stream_targeted: 48,
        serve_mixed: 32,
        campaign_libs: 64,
        warmup: 4,
        trace_sample: 8,
        ladder_sample: 2,
        min_latency_samples: 100,
        app_scale: 1.0,
    };

    /// Smoke-test sizes (`--quick`): a tenth of the apps, each a quarter
    /// of the scale, so all four workloads finish in seconds.
    pub const QUICK: Sizes = Sizes {
        vet_paper: 4,
        stream_targeted: 5,
        serve_mixed: 4,
        campaign_libs: 8,
        warmup: 1,
        trace_sample: 2,
        ladder_sample: 1,
        min_latency_samples: 0,
        app_scale: 0.25,
    };
}

/// How an app of the trace sample is regenerated: the arguments of
/// `generate_app`.
#[derive(Clone, Debug)]
pub struct SampleApp {
    /// Generator index (names the package).
    pub index: usize,
    /// Generator seed.
    pub seed: u64,
    /// Generator profile.
    pub config: GenConfig,
    /// Whether the workload vets it on the targeted (sliced) lane.
    pub targeted: bool,
}

impl SampleApp {
    /// Generates the app.
    pub fn generate(&self) -> App {
        generate_app(self.index, self.seed, &self.config)
    }
}

/// Per-app verdict latency of a pass.
pub enum Latency {
    /// Host time (ms) from call/submit to outcome in hand, one per
    /// verdict, keyed by the pool slot of the app it was for.
    Samples(Vec<(usize, f64)>),
    /// `(p50, p90)` in ms, where the program publishes only stage
    /// histograms (campaigns): the sum of the prep and exec stage
    /// quantiles, interpolated inside the service's ×4 buckets.
    Quantiles(f64, f64),
}

/// What one pass measured.
pub struct Pass {
    /// Completed apps (jobs) the rate is taken over.
    pub jobs: u64,
    /// Timed wall seconds the rate is taken over.
    pub seconds: f64,
    /// Whether the pass is a serial loop, its wall time the sum of its
    /// per-app latencies.
    pub serial: bool,
    /// Verdict latencies.
    pub latency: Latency,
    /// Verdicts requested.
    pub attempted: u64,
    /// Verdicts failed, quarantined, refused, or structurally wrong.
    pub failed: u64,
    /// Every verdict the pass produced, for the oracle.
    pub reported: Vec<(AppKey, Reported)>,
    /// Run-specific per-layer values (`serve.*`, `campaign.*`, ...).
    pub layer: BTreeMap<&'static str, f64>,
}

/// Names an input app: pool slot and version, or (for campaigns, which
/// generate their own corpus) generator index and effective seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKey {
    /// Slot `.0` of the workload's pool, version `.1` (0 = v1, 1 = v2).
    Pool(usize, u8),
    /// `generate_app(index, seed, ..)` under the campaign's profile.
    Generated(usize, u64),
}

/// A set-up workload.
pub trait Workload {
    /// Runs one pass (the timed region is inside).
    fn pass(&mut self) -> Pass;
    /// Materializes the input app `key` names, for the oracle.
    fn app(&self, key: AppKey) -> App;
    /// The first `n` inputs in seed order, for the traced pass.
    fn sample(&self, n: usize) -> Vec<SampleApp>;
}

/// Sets `name` up from `seed`: generates inputs, writes what must be on
/// disk, and vets the warm-up apps. Everything here is the `setup_s`
/// metric.
pub fn setup(name: &str, seed: u64, sizes: Sizes, scratch: &Scratch) -> Option<Box<dyn Workload>> {
    Some(match name {
        "vet_paper" => Box::new(VetPaper::setup(seed, sizes)),
        "stream_targeted" => Box::new(StreamTargeted::setup(seed, sizes)),
        "serve_mixed" => Box::new(ServeMixed::setup(seed, sizes, scratch)),
        "campaign_libs" => Box::new(CampaignLibs::setup(seed, sizes, scratch)),
        _ => return None,
    })
}

/// Checks every verdict of `passes` against the CPU reference engine.
/// Returns `(compared, mismatched)`.
pub fn verify(workload: &dyn Workload, passes: &[Pass]) -> (u64, u64) {
    let mut oracle = Oracle::default();
    let mut compared = 0;
    let mut mismatched = 0;
    for (key, reported) in passes.iter().flat_map(|p| &p.reported) {
        compared += 1;
        if !oracle.agrees(*key, || workload.app(*key), reported) {
            mismatched += 1;
        }
    }
    (compared, mismatched)
}

/// Names scratch paths apart: across workloads of one process (tests run
/// several side by side) and across the passes of one workload.
static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A directory under the benchmark's `out/` that is removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `<out>/tmp-<pid>-<n>`.
    pub fn new(out: &Path) -> std::io::Result<Scratch> {
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let root = out.join(format!("tmp-{}-{n}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, not yet created, path under the scratch root.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The first `n` apps of the paper corpus, generated at `scale`.
fn paper_corpus(n: usize, scale: f64) -> Corpus {
    Corpus {
        master_seed: PAPER_MASTER_SEED,
        size: n,
        config: GenConfig { scale, ..GenConfig::default() },
    }
}

/// The order a pool is walked in: shuffled from the seed, and shuffled
/// again before every pass. In a closed loop an app's latency depends on
/// the job it shares the service with; re-pairing every pass keeps the
/// pooled percentiles from hinging on one seed's pairing.
struct Order {
    slots: Vec<usize>,
    rng: Rng,
}

impl Order {
    fn new(n: usize, seed: u64) -> Order {
        let mut order = Order { slots: (0..n).collect(), rng: Rng::new(seed) };
        order.reshuffle();
        order
    }

    fn reshuffle(&mut self) {
        self.rng.shuffle(&mut self.slots);
    }
}

// --- vet_paper ----------------------------------------------------------

struct VetPaper {
    corpus: Corpus,
    apps: Vec<App>,
    order: Order,
}

impl VetPaper {
    fn setup(seed: u64, sizes: Sizes) -> VetPaper {
        let corpus = paper_corpus(sizes.vet_paper, sizes.app_scale);
        let apps: Vec<App> = corpus.iter().collect();
        let order = Order::new(apps.len(), seed);
        // The warm-up vets the same apps whatever the seed, so that set-up
        // is the same work on every seed.
        for app in apps.iter().take(sizes.warmup) {
            std::hint::black_box(vet_app(app.clone(), Engine::Gpu(OptConfig::gdroid())));
        }
        VetPaper { corpus, apps, order }
    }
}

impl Workload for VetPaper {
    fn pass(&mut self) -> Pass {
        // `vet_app` consumes its app; the copies are made before the clock
        // starts.
        self.order.reshuffle();
        let batch: Vec<(usize, App)> =
            self.order.slots.iter().map(|&slot| (slot, self.apps[slot].clone())).collect();
        let mut samples = Vec::with_capacity(batch.len());
        let mut reported = Vec::with_capacity(batch.len());
        let clock = Instant::now();
        for (slot, app) in batch {
            let t = Instant::now();
            let outcome = vet_app(std::hint::black_box(app), Engine::Gpu(OptConfig::gdroid()));
            samples.push((slot, t.elapsed().as_secs_f64() * 1e3));
            reported.push((AppKey::Pool(slot, 0), Reported::Full(outcome.report)));
        }
        let seconds = clock.elapsed().as_secs_f64();
        let jobs = samples.len() as u64;
        Pass {
            jobs,
            seconds,
            serial: true,
            latency: Latency::Samples(samples),
            attempted: jobs,
            failed: 0,
            reported,
            layer: BTreeMap::new(),
        }
    }

    fn app(&self, key: AppKey) -> App {
        match key {
            AppKey::Pool(slot, 0) => self.apps[slot].clone(),
            other => panic!("vet_paper has no input {other:?}"),
        }
    }

    fn sample(&self, n: usize) -> Vec<SampleApp> {
        corpus_sample(&self.corpus, &self.order.slots, n, false)
    }
}

fn corpus_sample(corpus: &Corpus, order: &[usize], n: usize, targeted: bool) -> Vec<SampleApp> {
    order
        .iter()
        .take(n)
        .map(|&i| SampleApp {
            index: i,
            seed: corpus.seed_for(i),
            config: corpus.config.clone(),
            targeted,
        })
        .collect()
}

// --- service plumbing ---------------------------------------------------

fn service() -> VettingService {
    VettingService::start(ServiceConfig { prep_workers: 1, devices: 1, ..ServiceConfig::default() })
}

/// One finished job of a closed loop.
struct Done<J> {
    job: J,
    result: JobResult,
    latency_ms: f64,
}

/// Drives `jobs` through `svc` with [`WINDOW`] outstanding: the next job
/// is submitted only when a verdict is in hand. `submit` returns the job
/// id the service assigned, or `None` if it refused the job.
fn closed_loop<J>(
    svc: &VettingService,
    jobs: impl IntoIterator<Item = J>,
    mut submit: impl FnMut(&VettingService, &J) -> Option<u64>,
) -> (Vec<Done<J>>, u64) {
    let mut jobs = jobs.into_iter();
    let mut pending: HashMap<u64, (J, Instant)> = HashMap::new();
    let mut done = Vec::new();
    let mut refused = 0;
    loop {
        while pending.len() < WINDOW {
            let Some(job) = jobs.next() else { break };
            let at = Instant::now();
            match submit(svc, &job) {
                Some(id) => {
                    pending.insert(id, (job, at));
                }
                None => refused += 1,
            }
        }
        if pending.is_empty() {
            return (done, refused);
        }
        svc.wait_for(1);
        for result in svc.take_results() {
            let (job, at) = pending.remove(&result.id).expect("a result for a job we submitted");
            done.push(Done { job, latency_ms: at.elapsed().as_secs_f64() * 1e3, result });
        }
    }
}

/// Per-layer values every service workload reports from what the service
/// publishes: stage medians from the report, busy shares from the
/// per-job stage times over the timed wall.
fn service_layer(
    layer: &mut BTreeMap<&'static str, f64>,
    report: &ServiceReport,
    results: &[&JobResult],
    wall_s: f64,
) {
    let busy_share = |stage: fn(&JobResult) -> u64| {
        results.iter().map(|r| stage(r) as f64 / 1e9).sum::<f64>() / wall_s
    };
    layer.insert("serve.queue_wait_ms_p50", report.queue_wait.p50_ns as f64 / 1e6);
    layer.insert("serve.prep_ms_p50", report.prep.p50_ns as f64 / 1e6);
    layer.insert("serve.exec_ms_p50", report.exec_wall.p50_ns as f64 / 1e6);
    layer.insert("serve.prep_busy_share", busy_share(|r| r.prep_ns));
    layer.insert("serve.device_busy_share", busy_share(|r| r.exec_wall_ns));
    layer.insert("serve.retries", report.counters.retries as f64);
    let modeled = results.iter().filter_map(|r| r.outcome.as_ref()).map(|o| o.timing.idfg_ns / 1e6);
    layer.insert("serve.modeled_idfg_ms_per_job", order_free_mean(modeled));
}

/// The mean of `values`, summed in ascending order so that the result
/// does not depend on the order jobs happened to complete in.
fn order_free_mean(values: impl Iterator<Item = f64>) -> f64 {
    let values = crate::stats::sorted(&values.collect::<Vec<f64>>());
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Jobs of `done` served verbatim from the result cache.
fn cache_hits<J>(done: &[Done<J>]) -> f64 {
    done.iter().filter(|d| d.result.cache == CacheDisposition::Hit).count() as f64
}

/// Takes the outcome report out of a finished job; `None` (a failure)
/// unless the job completed.
fn completed_report(result: &mut JobResult) -> Option<Reported> {
    match (&result.status, result.outcome.take()) {
        (JobStatus::Completed, Some(outcome)) => Some(Reported::Full(outcome.report)),
        _ => None,
    }
}

// --- stream_targeted ----------------------------------------------------

struct StreamTargeted {
    corpus: Corpus,
    order: Order,
}

impl StreamTargeted {
    fn setup(seed: u64, sizes: Sizes) -> StreamTargeted {
        let corpus = paper_corpus(sizes.stream_targeted, sizes.app_scale);
        let order = Order::new(corpus.size, seed);
        let this = StreamTargeted { corpus, order };
        let svc = service();
        this.drive(&svc, 0..sizes.warmup.min(this.corpus.size));
        svc.drain();
        this
    }

    fn drive(
        &self,
        svc: &VettingService,
        indices: impl IntoIterator<Item = usize>,
    ) -> (Vec<Done<usize>>, u64) {
        closed_loop(svc, indices, |svc, &index| {
            svc.submit_targeted(JobSource::Seed {
                index,
                seed: self.corpus.seed_for(index),
                config: Box::new(self.corpus.config.clone()),
            })
            .ok()
        })
    }
}

impl Workload for StreamTargeted {
    fn pass(&mut self) -> Pass {
        self.order.reshuffle();
        let svc = service();
        let clock = Instant::now();
        let (mut done, refused) = self.drive(&svc, self.order.slots.iter().copied());
        let seconds = clock.elapsed().as_secs_f64();
        let (report, _) = svc.drain();

        let mut layer = BTreeMap::new();
        service_layer(
            &mut layer,
            &report,
            &done.iter().map(|d| &d.result).collect::<Vec<_>>(),
            seconds,
        );
        let samples = done.iter().map(|d| (d.job, d.latency_ms)).collect();
        let mut reported = Vec::new();
        let mut failed = refused;
        for d in &mut done {
            // A fast-lane verdict must carry its slice provenance.
            let sliced = d.result.outcome.as_ref().is_some_and(|o| o.targeted.is_some());
            match completed_report(&mut d.result).filter(|_| sliced) {
                Some(r) => reported.push((AppKey::Pool(d.job, 0), r)),
                None => failed += 1,
            }
        }
        Pass {
            jobs: done.len() as u64,
            seconds,
            serial: false,
            latency: Latency::Samples(samples),
            attempted: self.order.slots.len() as u64,
            failed,
            reported,
            layer,
        }
    }

    fn app(&self, key: AppKey) -> App {
        match key {
            AppKey::Pool(index, 0) => self.corpus.generate(index),
            other => panic!("stream_targeted has no input {other:?}"),
        }
    }

    fn sample(&self, n: usize) -> Vec<SampleApp> {
        corpus_sample(&self.corpus, &self.order.slots, n, true)
    }
}

// --- serve_mixed --------------------------------------------------------

/// What a phase-B job resubmits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Resubmit {
    /// The unchanged v1 bundle: an exact cache hit.
    Same,
    /// The v2 bundle: an incremental warm start from the cached v1.
    Updated,
    /// The v1 bundle on the targeted lane: bypasses the cache.
    Targeted,
}

/// Phase B cycles hit / hit / incremental / targeted over the pool.
const PHASE_B: [Resubmit; 4] =
    [Resubmit::Same, Resubmit::Same, Resubmit::Updated, Resubmit::Targeted];

struct ServeMixed {
    corpus: Corpus,
    /// Per pool slot, the v1 and v2 bundle directories.
    dirs: Vec<[PathBuf; 2]>,
    order: Order,
}

/// The v2 of `app`: [`V2_EDITS`] seed-chosen methods get one allocation
/// inserted before their trailing return.
fn edited(app: &App, rng: &mut Rng) -> App {
    let mut app = app.clone();
    let mut candidates: Vec<MethodId> = app
        .program
        .methods
        .iter_enumerated()
        .filter(|(_, m)| {
            m.len() >= 2
                && matches!(m.body[StmtIdx::new(m.len() - 1)], Stmt::Return { .. })
                && m.vars.iter().any(|d| d.ty.is_reference())
        })
        .map(|(mid, _)| mid)
        .collect();
    rng.shuffle(&mut candidates);
    for &victim in candidates.iter().take(V2_EDITS) {
        let method = &mut app.program.methods[victim];
        let (var, ty) = method
            .vars
            .iter_enumerated()
            .find(|(_, d)| d.ty.is_reference())
            .map(|(v, d)| (v, d.ty))
            .expect("candidates have a reference variable");
        let last = StmtIdx::new(method.len() - 1);
        let ret = method.body[last].clone();
        method.body[last] = Stmt::Assign { lhs: Lhs::Var(var), rhs: Expr::New { ty } };
        method.body.push(ret);
    }
    app.rebuild_lookups();
    app
}

impl ServeMixed {
    fn setup(seed: u64, sizes: Sizes, scratch: &Scratch) -> ServeMixed {
        let corpus = paper_corpus(sizes.serve_mixed, 0.5 * sizes.app_scale);
        let v1: Vec<App> = corpus.iter().collect();
        let mut rng = Rng::new(seed);
        let v2: Vec<App> = v1.iter().map(|app| edited(app, &mut rng)).collect();
        let root = scratch.fresh("bundles");
        let dirs: Vec<[PathBuf; 2]> = (0..v1.len())
            .map(|slot| [root.join(format!("app{slot}-v1")), root.join(format!("app{slot}-v2"))])
            .collect();
        for (slot, [d1, d2]) in dirs.iter().enumerate() {
            save_bundle(&v1[slot], d1).expect("write v1 bundle");
            save_bundle(&v2[slot], d2).expect("write v2 bundle");
        }
        let order = Order::new(v1.len(), rng.next_u64());
        let this = ServeMixed { corpus, dirs, order };
        let svc = service();
        closed_loop(&svc, 0..sizes.warmup.min(this.dirs.len()), |svc, &slot| {
            svc.submit(Priority::Standard, JobSource::Bundle(this.dirs[slot][0].clone())).ok()
        });
        svc.drain();
        this
    }
}

impl Workload for ServeMixed {
    fn pass(&mut self) -> Pass {
        self.order.reshuffle();
        let svc = service();
        let order = &self.order.slots;
        let n = order.len();
        let clock = Instant::now();
        // Phase A: every v1 once — miss, execute, insert.
        let (mut phase_a, refused_a) = closed_loop(&svc, order.iter().copied(), |svc, &slot| {
            svc.submit(Priority::Standard, JobSource::Bundle(self.dirs[slot][0].clone())).ok()
        });
        let a_seconds = clock.elapsed().as_secs_f64();
        // The loop returns only when every phase-A verdict is in hand:
        // that is the fence. Phase B reads what A inserted.
        let jobs_b = order.iter().enumerate().map(|(k, &slot)| (slot, PHASE_B[k % 4]));
        let (mut phase_b, refused_b) = closed_loop(&svc, jobs_b, |svc, &(slot, kind)| {
            let [v1, v2] = &self.dirs[slot];
            match kind {
                Resubmit::Same => svc.submit(Priority::Standard, JobSource::Bundle(v1.clone())),
                Resubmit::Updated => svc.submit(Priority::Standard, JobSource::Bundle(v2.clone())),
                Resubmit::Targeted => svc.submit_targeted(JobSource::Bundle(v1.clone())),
            }
            .ok()
        });
        let seconds = clock.elapsed().as_secs_f64();
        let b_seconds = seconds - a_seconds;
        let (report, _) = svc.drain();

        let mut layer = BTreeMap::new();
        let all: Vec<&JobResult> =
            phase_a.iter().map(|d| &d.result).chain(phase_b.iter().map(|d| &d.result)).collect();
        service_layer(&mut layer, &report, &all, seconds);
        layer.insert("serve.phase_a_jobs_per_s", phase_a.len() as f64 / a_seconds);
        layer.insert("serve.phase_b_jobs_per_s", phase_b.len() as f64 / b_seconds);
        let kind_ms = |kind: Resubmit| -> Vec<f64> {
            phase_b.iter().filter(|d| d.job.1 == kind).map(|d| d.latency_ms).collect()
        };
        layer.insert("serve.hit_ms_p50", crate::stats::median(&kind_ms(Resubmit::Same)));
        layer.insert("serve.incremental_ms_p50", crate::stats::median(&kind_ms(Resubmit::Updated)));
        layer.insert("serve.targeted_ms_p50", crate::stats::median(&kind_ms(Resubmit::Targeted)));
        layer.insert("serve.phase_a_cache_hit_share", cache_hits(&phase_a) / n as f64);
        layer.insert("serve.phase_b_cache_hit_share", cache_hits(&phase_b) / n as f64);
        layer.insert(
            "serve.cache_incremental_share",
            report.counters.cache_incremental as f64 / n as f64,
        );
        let (resolved, reused) = phase_b
            .iter()
            .filter_map(|d| match d.result.cache {
                CacheDisposition::Incremental { resolved, reused } => Some((resolved, reused)),
                _ => None,
            })
            .fold((0, 0), |(a, b), (r, u)| (a + r, b + u));
        layer.insert(
            "analysis.incremental_reuse_share",
            reused as f64 / (resolved + reused).max(1) as f64,
        );

        // New submissions are the latency a caller sees; resubmission
        // latencies are the three per-layer medians above.
        let samples = phase_a.iter().map(|d| (d.job, d.latency_ms)).collect();
        let mut reported = Vec::new();
        let mut failed = refused_a + refused_b;
        for d in &mut phase_a {
            let miss = d.result.cache == CacheDisposition::Miss;
            match completed_report(&mut d.result).filter(|_| miss) {
                Some(r) => reported.push((AppKey::Pool(d.job, 0), r)),
                None => failed += 1,
            }
        }
        for d in &mut phase_b {
            let (slot, kind) = d.job;
            // Each resubmission must take the cache path it exists to
            // exercise; anything else is a failed operation.
            let (version, as_expected) = match kind {
                Resubmit::Same => (0, d.result.cache == CacheDisposition::Hit),
                Resubmit::Updated => {
                    (1, matches!(d.result.cache, CacheDisposition::Incremental { .. }))
                }
                Resubmit::Targeted => (
                    0,
                    d.result.cache == CacheDisposition::Miss
                        && d.result.outcome.as_ref().is_some_and(|o| o.targeted.is_some()),
                ),
            };
            match completed_report(&mut d.result).filter(|_| as_expected) {
                Some(r) => reported.push((AppKey::Pool(slot, version), r)),
                None => failed += 1,
            }
        }
        Pass {
            jobs: (phase_a.len() + phase_b.len()) as u64,
            seconds,
            serial: false,
            latency: Latency::Samples(samples),
            attempted: 2 * n as u64,
            failed,
            reported,
            layer,
        }
    }

    /// The input is the bundle on disk: the text round trip renumbers
    /// methods, so the oracle must read what the service read.
    fn app(&self, key: AppKey) -> App {
        match key {
            AppKey::Pool(slot, version @ (0 | 1)) => {
                load_bundle(&self.dirs[slot][version as usize]).expect("re-read bundle")
            }
            other => panic!("serve_mixed has no input {other:?}"),
        }
    }

    fn sample(&self, n: usize) -> Vec<SampleApp> {
        corpus_sample(&self.corpus, &self.order.slots, n, false)
    }
}

// --- campaign_libs ------------------------------------------------------

struct CampaignLibs {
    apps: usize,
    update_salt: u64,
    gen: GenConfig,
    root: PathBuf,
    passes: usize,
}

impl CampaignLibs {
    fn setup(seed: u64, sizes: Sizes, scratch: &Scratch) -> CampaignLibs {
        let this = CampaignLibs {
            apps: sizes.campaign_libs,
            update_salt: seed,
            gen: GenConfig { scale: 0.5 * sizes.app_scale, ..GenConfig::default() }
                .with_libraries(12, 24),
            root: scratch.fresh("campaign"),
            passes: 0,
        };
        let warm = this.root.join("warmup");
        run_campaign(&this.config(sizes.warmup.max(1), &warm)).expect("warm-up campaign");
        std::fs::remove_dir_all(&warm).expect("remove warm-up journals");
        this
    }

    /// One shard, one prep worker, one device: with a summary store an
    /// app's modeled time depends on completion order, and this is the
    /// shape `CampaignConfig::sumstore` documents as run-stable.
    fn config(&self, apps: usize, journal_dir: &Path) -> CampaignConfig {
        CampaignConfig {
            master_seed: PAPER_MASTER_SEED,
            gen: self.gen.clone(),
            prep_workers: 1,
            devices: 1,
            sumstore: true,
            rotate_records: Some(ROTATE_RECORDS),
            ..CampaignConfig::new(apps, 1, journal_dir.to_owned())
        }
    }
}

/// The `q`-quantile (ns) of a published histogram, interpolated inside
/// the landing bucket exactly as the service computes its own p50/p95.
/// The bucket bounds are the service's (×4 from 1 µs); `tests/declared.rs`
/// checks them against `Histogram::bucket_for`.
pub fn histogram_quantile_ns(h: &HistogramSnapshot, q: f64) -> f64 {
    let rank = q * h.count as f64;
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        let next = seen + c;
        if c > 0 && next as f64 >= rank {
            let lower = if i == 0 { 0 } else { bucket_bound_ns(i - 1) };
            let upper = if i < 16 { bucket_bound_ns(i).min(h.max_ns) } else { h.max_ns };
            let lower = lower.min(upper);
            let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            return lower as f64 + (upper - lower) as f64 * frac;
        }
        seen = next;
    }
    h.max_ns as f64
}

/// Inclusive upper bound (ns) of service histogram bucket `i < 16`.
pub fn bucket_bound_ns(i: usize) -> u64 {
    1_000 << (2 * i)
}

/// Sizes of the files directly inside `dir` (empty if it cannot be read).
pub(crate) fn file_sizes(dir: &Path) -> Vec<u64> {
    std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| Some(e.ok()?.metadata().ok()?.len())).collect())
        .unwrap_or_default()
}

impl Workload for CampaignLibs {
    fn pass(&mut self) -> Pass {
        self.passes += 1;
        let dir = self.root.join(format!("pass-{}", self.passes));
        let (day0_dir, day1_dir) = (dir.join("day0"), dir.join("day1"));
        let day0_config = self.config(self.apps, &day0_dir);
        let day1_config = CampaignConfig {
            delta_base: Some(day0_dir.clone()),
            update_ppm: UPDATE_PPM,
            update_salt: self.update_salt,
            ..self.config(self.apps, &day1_dir)
        };

        let clock = Instant::now();
        let day0 = run_campaign(&day0_config);
        let day0_s = clock.elapsed().as_secs_f64();
        let day1 = run_campaign(&day1_config);
        let delta_s = clock.elapsed().as_secs_f64() - day0_s;
        let resume = run_campaign(&day0_config);
        let resume_s = clock.elapsed().as_secs_f64() - day0_s - delta_s;

        let mut layer = BTreeMap::new();
        layer.insert("campaign.day0_apps_per_s", self.apps as f64 / day0_s);
        layer.insert("campaign.delta_s", delta_s);
        layer.insert("campaign.resume_noop_ms", resume_s * 1e3);
        let journal = file_sizes(&day0_dir);
        layer.insert("campaign.segments", journal.len() as f64);
        layer.insert(
            "campaign.journal_bytes_per_app",
            journal.iter().sum::<u64>() as f64 / self.apps as f64,
        );

        let mut reported = Vec::new();
        let mut latency = Latency::Quantiles(0.0, 0.0);
        let failed = match (&day0, &day1, &resume) {
            (Ok(day0), Ok(day1), Ok(resume)) => {
                let stage = |q| {
                    (histogram_quantile_ns(&day0.service.prep, q)
                        + histogram_quantile_ns(&day0.service.exec_wall, q))
                        / 1e6
                };
                latency = Latency::Quantiles(stage(0.5), stage(0.9));
                let (_, records) = read_shard_records(&day0_dir, 0).expect("re-read day-0 journal");
                self.fold_counters(&mut layer, day0, day1, &records);
                let step = (records.len() / CAMPAIGN_ORACLE_SAMPLE).max(1);
                for record in records.iter().step_by(step).take(CAMPAIGN_ORACLE_SAMPLE) {
                    reported.push((
                        AppKey::Generated(record.index, record.seed),
                        Reported::Digest {
                            verdict: record.verdict.clone(),
                            report_fnv: record.report_fnv,
                        },
                    ));
                }
                self.structural_failures(day0, day1, resume)
            }
            _ => self.apps as u64,
        };
        std::fs::remove_dir_all(&dir).expect("remove the pass's journals");
        Pass {
            jobs: self.apps as u64,
            seconds: day0_s,
            serial: false,
            latency,
            attempted: self.apps as u64,
            failed,
            reported,
            layer,
        }
    }

    fn app(&self, key: AppKey) -> App {
        match key {
            AppKey::Generated(index, seed) => generate_app(index, seed, &self.gen),
            other => panic!("campaign_libs has no input {other:?}"),
        }
    }

    fn sample(&self, n: usize) -> Vec<SampleApp> {
        let corpus =
            Corpus { master_seed: PAPER_MASTER_SEED, size: self.apps, config: self.gen.clone() };
        corpus_sample(&corpus, &(0..self.apps).collect::<Vec<_>>(), n, false)
    }
}

impl CampaignLibs {
    fn fold_counters(
        &self,
        layer: &mut BTreeMap<&'static str, f64>,
        day0: &CampaignOutcome,
        day1: &CampaignOutcome,
        records: &[AppRecord],
    ) {
        let store = day0.service.sumstore;
        layer.insert(
            "sumstore.hit_share",
            store.hits as f64 / (store.hits + store.misses).max(1) as f64,
        );
        layer.insert("sumstore.insertions", store.insertions as f64);
        layer.insert("campaign.copied_share", day1.copied as f64 / self.apps as f64);
        layer.insert(
            "campaign.modeled_idfg_ms_per_app",
            order_free_mean(records.iter().map(|r| r.idfg_ns / 1e6)),
        );
    }

    /// Apps the campaign did not carry to a verdict, plus one per broken
    /// campaign-level invariant.
    fn structural_failures(
        &self,
        day0: &CampaignOutcome,
        day1: &CampaignOutcome,
        resume: &CampaignOutcome,
    ) -> u64 {
        let unfinished =
            |o: &CampaignOutcome| (self.apps - o.fleet.completed.min(self.apps)) as u64;
        let delta_adds_up =
            day1.delta.is_some_and(|d| d.copied + d.revetted == self.apps && d.added == 0);
        let resume_is_noop = resume.executed == 0 && resume.fleet.to_json() == day0.fleet.to_json();
        unfinished(day0)
            + unfinished(day1)
            + u64::from(!delta_adds_up)
            + u64::from(!resume_is_noop)
            + (day0.fleet.failed + day0.fleet.quarantined) as u64
    }
}
