//! The in-process vetting service: prep workers, device executors, and
//! the drain protocol.
//!
//! Thread topology (all `std::thread`, no external runtime); both stages
//! are one bounded best-first queue type, each with its own order:
//!
//! ```text
//! submit() ──► SubmitQueue (bounded; priority class, then admission order)
//!                 │  K prep workers: read → hash → cache lookup →
//!                 │  parse → env/callgraph synthesis → work estimate
//!                 ▼
//!              DispatchHeap (bounded — double-buffers prep vs execution;
//!                 │          aged, then priority, then heaviest)
//!                 │  D executors, one device each: LPT pop → run
//!                 │  (fault/timeout → retry, then quarantine)
//!                 ▼
//!              results + ResultCache + ServiceMetrics
//! ```
//!
//! There is one admission path: [`VettingService::submit`] (and its
//! targeted form) blocks while the submit queue is full, and fails only
//! once the service drains.
//!
//! An executor thread owns its simulated device for the service's whole
//! life: each execution calls [`gdroid_gpusim::Device::reset`] (via the
//! driver) to reclaim the previous app's allocations while keeping the
//! lifetime launch/fault counters, so an injected fault schedule spans
//! the device's service life, and the thread hands the device back
//! through its `JoinHandle` for the report's totals.
//!
//! Every admitted job yields exactly one [`JobResult`]; [`VettingService::drain`]
//! closes the queue, joins every thread, and returns the results with a
//! machine-readable [`ServiceReport`].

use crate::cache::{app_content_hash, bundle_content_hash, ResultCache};
use crate::job::{
    CacheDisposition, JobIdentity, JobResult, JobSource, JobSpec, JobStatus, Priority,
};
use crate::metrics::{Counters, ServiceMetrics, ServiceReport};
use crate::queue::{SubmitError, SubmitQueue};
use crate::scheduler::{block_demand, work_estimate, DispatchHeap, ReadyJob};
use gdroid_apk::{generate_app, parse_bundle, read_bundle, App, BundleError, BundleText};
use gdroid_gpusim::{Device, DeviceConfig, FaultPlan};
use gdroid_sumstore::SumStore;
use gdroid_vetting::{
    execute, execute_coresident, prepare_vetting, Engine, ExecCtx, ExecPlan, PreparedApp,
    VettingRun,
};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`VettingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Label naming this service in the report's per-source attribution
    /// (campaign shards pass `shard-<s>` so merged fleet reports keep
    /// per-shard hit counts).
    pub label: String,
    /// Host-side prep worker threads (K).
    pub prep_workers: usize,
    /// Simulated devices and executor threads (D).
    pub devices: usize,
    /// Submission queue bound: `submit` blocks while this many jobs wait.
    pub queue_capacity: usize,
    /// Failed attempts a job may retry before quarantine (it is
    /// quarantined on failure number `max_retries + 1`).
    pub max_retries: u32,
    /// Optional injected-fault schedule, installed on every device.
    pub fault_plan: Option<FaultPlan>,
    /// Optional cross-app summary store the caller built (a corpus's
    /// `gdroid_vetting::library_store`, or one opened from disk), read by
    /// every executor and written by none: runs pre-solve store-hit
    /// methods. `None` disables the store entirely.
    pub sumstore: Option<Arc<SumStore>>,
    /// Co-residency degree: an executor that pops a job tops the device
    /// up with up to `coresident - 1` further ready jobs under the same
    /// plan whose combined block demand fits the device's block slots,
    /// and runs the group through [`execute_coresident`], against the
    /// summary store when one is configured. `1` (the default) disables
    /// batching; an engine that does not batch (the CPU engines, the
    /// `plain` rung) and a warm start run solo.
    pub coresident: usize,
    /// The plan every submission starts from — its engine; its
    /// `targeted` flag is set per submission. The plan's lane predicates
    /// decide what a job may use: only full worklist-GPU jobs touch the
    /// result cache or warm-start from a cached previous version (cached
    /// outcomes embed that one cost profile). Every engine slices and
    /// reads the store, so a job runs on the engine it was given.
    pub plan: ExecPlan,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            label: "service".to_owned(),
            prep_workers: 2,
            devices: 2,
            queue_capacity: 64,
            max_retries: 3,
            fault_plan: None,
            sumstore: None,
            coresident: 1,
            plan: ExecPlan::default(),
        }
    }
}

/// Host threads each executor device runs a launch's blocks on: the
/// executor thread alone. The service's prep and executor threads already
/// keep the cores busy (and campaign shards run several services at once),
/// so blocks on further threads would compete with them.
pub const EXECUTOR_HOST_THREADS: usize = 1;

/// Wall-clock budget per device attempt.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(30);

impl ServiceConfig {
    /// The executors' devices: `devices` identical ones (at least one),
    /// each with its own copy of the optional fault plan, running blocks
    /// on [`EXECUTOR_HOST_THREADS`].
    fn executor_devices(&self) -> Vec<Device> {
        (0..self.devices.max(1))
            .map(|_| {
                let mut device = Device::new(DeviceConfig::tesla_p40());
                device.set_fault_plan(self.fault_plan);
                device.set_host_threads(EXECUTOR_HOST_THREADS);
                device
            })
            .collect()
    }
}

struct ServiceState {
    label: String,
    dispatch: DispatchHeap,
    cache: ResultCache,
    metrics: ServiceMetrics,
    results: Mutex<Vec<JobResult>>,
    results_cv: std::sync::Condvar,
    max_retries: u32,
    timeout: Duration,
    sumstore: Option<Arc<SumStore>>,
    coresident: usize,
    /// The untargeted plan every submission starts from.
    plan: ExecPlan,
}

impl ServiceState {
    fn deliver(&self, result: JobResult) {
        Counters::bump(&self.metrics.counters.completed);
        self.results
            .lock()
            .expect("results mutex poisoned: a service thread panicked")
            .push(result);
        self.results_cv.notify_all();
    }
}

/// The running service. Submit jobs, then [`VettingService::drain`].
pub struct VettingService {
    queue: Arc<SubmitQueue>,
    state: Arc<ServiceState>,
    prep_handles: Vec<JoinHandle<()>>,
    /// Each executor returns the device it owned.
    exec_handles: Vec<JoinHandle<Device>>,
    next_id: AtomicU64,
}

impl VettingService {
    /// Starts the worker and executor threads.
    pub fn start(config: ServiceConfig) -> VettingService {
        let queue = Arc::new(SubmitQueue::new(config.queue_capacity));
        let devices = config.executor_devices();
        let state = Arc::new(ServiceState {
            label: config.label,
            // One executing plus one buffered app per device.
            dispatch: DispatchHeap::new(2 * devices.len()),
            cache: ResultCache::new(),
            metrics: ServiceMetrics::new(),
            results: Mutex::new(Vec::new()),
            results_cv: std::sync::Condvar::new(),
            max_retries: config.max_retries,
            timeout: JOB_TIMEOUT,
            sumstore: config.sumstore,
            coresident: config.coresident.max(1),
            plan: config.plan,
        });
        let prep_handles = (0..config.prep_workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&state);
                std::thread::spawn(move || prep_loop(&queue, &state))
            })
            .collect();
        let exec_handles = devices
            .into_iter()
            .map(|mut device| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    exec_loop(&state, &mut device);
                    device
                })
            })
            .collect();
        VettingService { queue, state, prep_handles, exec_handles, next_id: AtomicU64::new(0) }
    }

    fn spec(&self, priority: Priority, source: JobSource, targeted: bool) -> JobSpec {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let plan = ExecPlan { targeted, ..self.state.plan };
        // `submitted_at` is stamped again when the queue admits the job.
        JobSpec { id, priority, source, submitted_at: Instant::now(), plan }
    }

    /// Blocking submission (backpressure when the queue is full).
    /// Returns the assigned job id.
    pub fn submit(&self, priority: Priority, source: JobSource) -> Result<u64, SubmitError> {
        let spec = self.spec(priority, source, false);
        let id = spec.id;
        self.queue.submit(spec)?;
        Counters::bump(&self.state.metrics.counters.submitted);
        Ok(id)
    }

    /// Fast-lane submission: the job runs demand-driven (backward sink
    /// slice only) at `Expedited` priority and bypasses the result cache
    /// in both directions — a targeted outcome carries provenance and
    /// zeroed store accounting, so it must never be served for, or cached
    /// as, a full vetting. Targeted jobs also skip the warm start and
    /// share co-resident batches only with other targeted jobs.
    pub fn submit_targeted(&self, source: JobSource) -> Result<u64, SubmitError> {
        let spec = self.spec(Priority::Expedited, source, true);
        let id = spec.id;
        self.queue.submit(spec)?;
        Counters::bump(&self.state.metrics.counters.submitted);
        Ok(id)
    }

    /// Takes every terminal result produced so far, leaving the buffer
    /// empty. Long streaming runs (the campaign layer) harvest between
    /// submissions so resident results stay bounded by the in-flight
    /// window instead of growing O(corpus); a later [`Self::drain`]
    /// returns only the results produced after the last harvest. Note
    /// that [`Self::wait_for`] counts the *buffered* results, so it resets
    /// alongside.
    pub fn take_results(&self) -> Vec<JobResult> {
        std::mem::take(
            &mut *self
                .state
                .results
                .lock()
                .expect("results mutex poisoned: a service thread panicked"),
        )
    }

    /// Blocks until at least `n` jobs have produced terminal results.
    /// Lets a caller fence between submission waves (e.g. to guarantee a
    /// resubmission observes a warm cache).
    pub fn wait_for(&self, n: u64) {
        let mut results =
            self.state.results.lock().expect("results mutex poisoned: a service thread panicked");
        while (results.len() as u64) < n {
            results = self
                .state
                .results_cv
                .wait(results)
                .expect("results mutex poisoned while waiting for completions");
        }
    }

    /// Graceful shutdown: stops admission, drains both queues, joins
    /// every thread, and returns the report plus per-job results sorted
    /// by id.
    pub fn drain(self) -> (ServiceReport, Vec<JobResult>) {
        self.queue.close();
        for h in self.prep_handles {
            h.join().expect("prep worker panicked");
        }
        self.state.dispatch.close();
        let devices: Vec<Device> =
            self.exec_handles.into_iter().map(|h| h.join().expect("executor panicked")).collect();
        let report = self.state.metrics.report(
            &self.state.label,
            self.state.cache.stats(),
            devices.iter().map(Device::launches).sum(),
            devices.iter().map(Device::faults_injected).sum(),
        );
        let mut results = std::mem::take(
            &mut *self.state.results.lock().expect("results mutex poisoned during drain"),
        );
        results.sort_by_key(|r| r.id);
        (report, results)
    }
}

/// Prep worker: queue → read → hash → cache lookup → parse → prepare →
/// dispatch.
///
/// Everything here is host time the device waits behind, so the stage does
/// only what the job's plan reads (DESIGN.md §21): the content hash always
/// (every result publishes it), and the cache lookup for cacheable plans —
/// on a bundle's bytes, before they are parsed.
fn prep_loop(queue: &SubmitQueue, state: &ServiceState) {
    while let Some(job) = queue.pop() {
        let queue_wait_ns = job.submitted_at.elapsed().as_nanos() as u64;
        state.metrics.queue_wait.record(queue_wait_ns);
        let prep_start = Instant::now();
        let mut identity =
            JobIdentity { id: job.id, priority: job.priority, queue_wait_ns, ..Default::default() };
        // A job that cannot be started reports the bundle it named and no
        // content hash.
        let fail = |identity: JobIdentity, (dir, e): (String, BundleError)| {
            let status = JobStatus::Failed(format!("bundle {dir}: {e}"));
            let identity = JobIdentity {
                package: dir,
                content_hash: 0,
                prep_ns: prep_start.elapsed().as_nanos() as u64,
                ..identity
            };
            state.deliver(JobResult::new(identity, status, CacheDisposition::Miss, None, 0));
        };

        let loaded = match Loaded::read(job.source) {
            Ok(loaded) => loaded,
            Err(failure) => {
                fail(identity, failure);
                continue;
            }
        };
        identity.content_hash = loaded.content_hash();

        if job.plan.cacheable() {
            if let Some(outcome) = state.cache.lookup(identity.content_hash) {
                Counters::bump(&state.metrics.counters.cache_hits);
                identity.package = loaded.package().to_owned();
                identity.prep_ns = prep_start.elapsed().as_nanos() as u64;
                state.deliver(JobResult::new(
                    identity,
                    JobStatus::Completed,
                    CacheDisposition::Hit,
                    Some(outcome),
                    0,
                ));
                continue;
            }
        }

        let app = match loaded.into_app() {
            Ok(app) => app,
            Err(failure) => {
                fail(identity, failure);
                continue;
            }
        };
        identity.package = app.manifest.package.clone();

        let prep = prepare_vetting(app);
        let estimate = work_estimate(&prep);
        identity.prep_ns = prep_start.elapsed().as_nanos() as u64;
        state.metrics.prep.record(identity.prep_ns);
        Counters::bump(&state.metrics.counters.prepared);

        let ready = ReadyJob {
            identity,
            plan: job.plan,
            estimate,
            block_demand: block_demand(&prep),
            prep,
            warm: None,
        };
        // Blocks while `2 × devices` apps are already buffered —
        // this is the double-buffer coupling of prep to execution.
        if let Err(lost) = state.dispatch.push(ready) {
            // Only reachable if the heap was closed early (not part of
            // the normal drain order); record the loss explicitly rather
            // than dropping silently.
            let identity = JobIdentity { package: String::new(), ..lost.identity };
            let status = JobStatus::Failed("dispatch heap closed".into());
            state.deliver(JobResult::new(identity, status, CacheDisposition::Miss, None, 0));
        }
    }
}

/// A job's source as far as the cache lookup needs it: an app in memory,
/// or a bundle's bytes — read, not yet parsed.
enum Loaded {
    App(Box<App>),
    Bundle { dir: String, text: BundleText },
}

impl Loaded {
    /// Only a bundle can fail to load: `Err` is `(its directory, why)`.
    fn read(source: JobSource) -> Result<Loaded, (String, BundleError)> {
        match source {
            JobSource::App(app) => Ok(Loaded::App(app)),
            JobSource::Seed { index, seed, config } => {
                Ok(Loaded::App(Box::new(generate_app(index, seed, &config))))
            }
            JobSource::Bundle(path) => {
                let dir = path.display().to_string();
                match read_bundle(&path) {
                    Ok(text) => Ok(Loaded::Bundle { dir, text }),
                    Err(e) => Err((dir, e)),
                }
            }
        }
    }

    /// The result-cache key (see [`bundle_content_hash`] for why the two
    /// arms agree on one app).
    fn content_hash(&self) -> u64 {
        match self {
            Loaded::App(app) => app_content_hash(app),
            Loaded::Bundle { text, .. } => bundle_content_hash(text),
        }
    }

    fn package(&self) -> &str {
        match self {
            Loaded::App(app) => &app.manifest.package,
            Loaded::Bundle { text, .. } => text.package(),
        }
    }

    fn into_app(self) -> Result<App, (String, BundleError)> {
        match self {
            Loaded::App(app) => Ok(*app),
            Loaded::Bundle { dir, text } => parse_bundle(&text).map_err(|e| (dir, e)),
        }
    }
}

/// Executor: LPT pop → warm-start lookup → (co-resident top-up) → run on
/// this executor's device → retry/quarantine on failure.
fn exec_loop(state: &ServiceState, device: &mut Device) {
    // The budget co-resident top-ups must fit into.
    let block_slots = device.config.block_slots() as u64;
    while let Some(mut job) = state.dispatch.pop() {
        try_incremental(state, &mut job);

        // Batch-forming: top the device up with further ready jobs under
        // the same plan whose combined block demand still fits its block
        // slots. A warm start is a solo run against its own store: it
        // neither leads a batch nor joins one, so a job with a cached
        // previous version never pays for a full run just because it was
        // popped as a co-resident.
        let mut group = vec![job];
        let plan = group[0].plan;
        if state.coresident > 1 && plan.engine.batches() && group[0].warm.is_none() {
            let mut demand = group[0].block_demand;
            while group.len() < state.coresident && demand < block_slots {
                let room = block_slots - demand;
                let Some(mut extra) = state.dispatch.try_pop_coresident(room, &plan) else {
                    break;
                };
                try_incremental(state, &mut extra);
                if extra.warm.is_some() {
                    exec_group(state, device, vec![extra]);
                    continue;
                }
                demand += extra.block_demand;
                group.push(extra);
            }
        }
        exec_group(state, device, group);
    }
}

/// The warm-start lookup — only on the first attempt, and only when a
/// previous version of the same package is cached (the stale entry is
/// invalidated): hands the job that version's summary store. A job whose
/// plan is not [`ExecPlan::cacheable`] is left alone: a targeted job's
/// sliced path, say, must neither consume nor invalidate cached entries.
fn try_incremental(state: &ServiceState, job: &mut ReadyJob) {
    if job.identity.attempts == 0 && job.plan.cacheable() {
        job.warm = state.cache.take_previous(&job.identity.package, job.identity.content_hash);
    }
}

/// Runs one attempt of a group on the executor's device: a job alone
/// through [`execute`] (against the previous version's summary store when
/// the lookup found one, else the service's store if any), several through
/// [`execute_coresident`] against the service's store. Members' results equal
/// solo runs' (the batch driver repacks each app's own blocks), so the
/// cache stays coherent. A device fault or an overrun budget fails the
/// whole attempt: every member retries individually. A panic fails every
/// member for good — it would panic again — and the executor resets its
/// device and goes on.
fn exec_group(state: &ServiceState, device: &mut Device, group: Vec<ReadyJob>) {
    let counters = &state.metrics.counters;
    let t = Instant::now();
    let plan = group[0].plan;
    let shared = state.sumstore.as_deref();
    let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if group.iter().any(|job| job.identity.package == tests::PANICKING_PACKAGE) {
            panic!("injected for {}", tests::PANICKING_PACKAGE);
        }
        if let [job] = &group[..] {
            // A warm start does not consult the service's store.
            let ctx = &mut ExecCtx { store: job.warm.as_ref().or(shared), ..ExecCtx::new(device) };
            execute(&job.prep, plan, ctx).map(|done| vec![done])
        } else {
            let preps: Vec<&PreparedApp> = group.iter().map(|j| &j.prep).collect();
            let ctx = &mut ExecCtx { store: shared, ..ExecCtx::new(device) };
            execute_coresident(&preps, plan, ctx).map(|(done, _batch)| {
                Counters::bump(&counters.batches);
                done
            })
        }
    }));
    let elapsed = t.elapsed();
    let exec_wall_ns = elapsed.as_nanos() as u64;
    let batched = group.len() > 1;
    match attempt {
        Ok(Ok(done)) => {
            let timed_out = elapsed > state.timeout;
            for (mut job, done) in group.into_iter().zip(done) {
                let mut cache = CacheDisposition::Miss;
                if let Some(used) = done.store_use {
                    if job.warm.is_some() {
                        // Misses were solved on the device; hits pre-solved.
                        let (resolved, reused) = (used.misses as usize, used.hits as usize);
                        cache = CacheDisposition::Incremental { resolved, reused };
                    } else {
                        // The service's store traffic is what its runs
                        // pre-solved — the one definition of a hit.
                        counters.store_hits.fetch_add(used.hits, Ordering::Relaxed);
                        counters.store_misses.fetch_add(used.misses, Ordering::Relaxed);
                        let relocs = &state.metrics.store_reloc_failures;
                        relocs.fetch_add(used.reloc_failures, Ordering::Relaxed);
                    }
                }
                if timed_out {
                    job.identity.timeouts_seen += 1;
                    Counters::bump(&counters.timeouts);
                    retry_or_quarantine(state, job, exec_wall_ns);
                } else {
                    // A warm start runs solo, so a batched job is a miss.
                    let warm = cache != CacheDisposition::Miss;
                    let counter =
                        if warm { &counters.cache_incremental } else { &counters.executed };
                    Counters::bump(counter);
                    if batched {
                        Counters::bump(&counters.batched_jobs);
                    }
                    finish(state, job, done.run, exec_wall_ns, cache);
                }
            }
        }
        Ok(Err(_fault)) => {
            for mut job in group {
                job.identity.faults_seen += 1;
                Counters::bump(&counters.faults);
                retry_or_quarantine(state, job, exec_wall_ns);
            }
        }
        Err(payload) => {
            device.reset();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-string payload");
            for mut job in group {
                job.identity.attempts += 1;
                let status = JobStatus::Failed(format!("executor panicked: {message}"));
                let result = JobResult::new(
                    job.identity,
                    status,
                    CacheDisposition::Miss,
                    None,
                    exec_wall_ns,
                );
                state.deliver(result);
            }
        }
    }
}

fn finish(
    state: &ServiceState,
    mut job: ReadyJob,
    run: VettingRun,
    exec_wall_ns: u64,
    cache: CacheDisposition,
) {
    state.metrics.exec_wall.record(exec_wall_ns);
    state.metrics.kernel_model.record(run.outcome.timing.idfg_ns as u64);
    state.metrics.taint_model.record(run.outcome.timing.taint_ns as u64);
    if !matches!(job.plan.engine, Engine::Gpu(_)) {
        Counters::bump(&state.metrics.counters.cpu_jobs);
    }
    let outcome = run.outcome.clone();
    if job.plan.targeted {
        // Never cache a targeted outcome as a full one; account the
        // sliced fraction instead (micro-units keep the counter atomic).
        Counters::bump(&state.metrics.counters.targeted_jobs);
        if let Some(prov) = &outcome.targeted {
            state
                .metrics
                .counters
                .sliced_fraction_micros
                .fetch_add((prov.sliced_fraction * 1e6).round() as u64, Ordering::Relaxed);
        }
    } else if job.plan.cacheable() {
        state.cache.insert(job.identity.content_hash, &job.identity.package, &job.prep, run);
    }
    job.identity.attempts += 1;
    state.deliver(JobResult::new(
        job.identity,
        JobStatus::Completed,
        cache,
        Some(outcome),
        exec_wall_ns,
    ))
}

fn retry_or_quarantine(state: &ServiceState, mut job: ReadyJob, exec_wall_ns: u64) {
    job.identity.attempts += 1;
    if job.identity.attempts > state.max_retries {
        Counters::bump(&state.metrics.counters.quarantined);
        state.deliver(JobResult::new(
            job.identity,
            JobStatus::Quarantined,
            CacheDisposition::Miss,
            None,
            exec_wall_ns,
        ));
    } else {
        Counters::bump(&state.metrics.counters.retries);
        state.dispatch.requeue(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::GenConfig;
    use gdroid_core::OptConfig;
    use gdroid_vetting::{library_store, vet_app};

    fn json(report: &ServiceReport) -> String {
        gdroid_trace::JsonWriter::render(|w| report.write_json(w))
    }

    fn seed_source(index: usize, seed: u64) -> JobSource {
        JobSource::Seed { index, seed, config: Box::new(GenConfig::tiny()) }
    }

    #[test]
    fn service_vets_and_caches() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 2,
            devices: 2,
            ..ServiceConfig::default()
        });
        for seed in 0..4u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5000 + seed)).unwrap();
        }
        // Fence: the resubmission wave must observe a fully warm cache.
        svc.wait_for(4);
        for seed in 0..4u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5000 + seed)).unwrap();
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 8);
        assert_eq!(report.counters.completed, 8);
        assert_eq!(report.counters.quarantined, 0);
        assert_eq!(report.cache.hits, 4, "second round must hit the cache");
        // Cached outcome must match the engine-computed one bit for bit.
        for seed in 0..4u64 {
            let reference = vet_app(
                generate_app(seed as usize, 5000 + seed, &GenConfig::tiny()),
                gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
            );
            let matching: Vec<&JobResult> = results
                .iter()
                .filter(|r| {
                    r.outcome.as_ref().map(|o| o.report.to_json())
                        == Some(reference.report.to_json())
                })
                .collect();
            assert!(matching.len() >= 2, "seed {seed}: cached + fresh results expected");
        }
    }

    /// The package whose jobs [`exec_group`] panics on: no real input
    /// panics in `execute`.
    pub(super) const PANICKING_PACKAGE: &str = "com.gen.app9999";

    /// A panic on an executor fails its job, or every member of its group,
    /// once and for all; the executor goes on serving and drain returns.
    #[test]
    fn a_panicking_job_fails_and_the_executor_keeps_serving() {
        for coresident in [1, 4] {
            let svc = VettingService::start(ServiceConfig {
                prep_workers: 1,
                devices: 1,
                coresident,
                ..ServiceConfig::default()
            });
            svc.submit(Priority::Expedited, seed_source(9999, 5400)).unwrap();
            for seed in 0..4u64 {
                svc.submit(Priority::Standard, seed_source(seed as usize, 5401 + seed)).unwrap();
            }
            let (report, results) = svc.drain();
            assert_eq!(results.len(), 5, "coresident {coresident}");
            assert_eq!(report.counters.retries, 0, "a panic is not retried");
            for r in &results {
                let what = format!("coresident {coresident} {}", r.package);
                match &r.status {
                    JobStatus::Failed(reason) => {
                        assert_eq!(reason, "executor panicked: injected for com.gen.app9999");
                        assert_eq!(r.attempts, 1, "{what}");
                        // Alone, only the panicking job fails.
                        assert!(coresident > 1 || r.package == PANICKING_PACKAGE, "{what}");
                    }
                    status => {
                        assert_eq!(*status, JobStatus::Completed, "{what}");
                        assert_ne!(r.package, PANICKING_PACKAGE, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn faults_are_retried_not_dropped() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            fault_plan: Some(FaultPlan { period: 3, budget: 2 }),
            max_retries: 5,
            ..ServiceConfig::default()
        });
        for seed in 0..6u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5100 + seed)).unwrap();
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.counters.faults, 2);
        assert_eq!(report.counters.retries, 2);
        assert_eq!(report.device_faults, 2);
        assert_eq!(report.counters.quarantined, 0);
    }

    #[test]
    fn a_library_store_reports_the_runs_hits_beside_cache() {
        let config = GenConfig::tiny().with_libraries(2, 2);
        let store = Arc::new(library_store(&config));
        let entries = store.len();
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            sumstore: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            svc.submit(
                Priority::Standard,
                JobSource::Seed {
                    index: seed as usize,
                    seed: 5300 + seed,
                    config: Box::new(config.clone()),
                },
            )
            .unwrap();
        }
        let (report, results) = svc.drain();
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(store.len(), entries, "no run writes the store");
        assert_eq!(report.sumstore.insertions, 0);
        assert!(report.sumstore.hits > 0, "shared-library corpus must hit the store");
        // One definition of a hit: the methods the runs pre-solved.
        assert_eq!(report.sumstore.hits, report.counters.store_hits);
        assert_eq!(report.sumstore.misses, report.counters.store_misses);
        assert_eq!(report.per_source.len(), 1);
        assert_eq!(report.per_source[0].store_hits, report.sumstore.hits);
        let j = json(&report);
        assert!(j.contains("\"cache\":{") && j.contains("\"sumstore\":{\"hits\":"));
    }

    #[test]
    fn cpu_engine_jobs_bypass_the_cache_and_match_worklist_reports() {
        // Every CPU engine counts as a cpu job.
        for engine in [Engine::CpuReference, Engine::AmandroidCpu, Engine::MultithreadedCpu] {
            let svc = VettingService::start(ServiceConfig {
                prep_workers: 1,
                devices: 1,
                plan: ExecPlan::new(engine),
                coresident: 4,
                ..ServiceConfig::default()
            });
            for seed in 0..3u64 {
                svc.submit(Priority::Standard, seed_source(seed as usize, 5400 + seed)).unwrap();
            }
            // Resubmit the same apps: a worklist service would serve cache
            // hits, a cpu service must re-analyze every one.
            svc.wait_for(3);
            for seed in 0..3u64 {
                svc.submit(Priority::Standard, seed_source(seed as usize, 5400 + seed)).unwrap();
            }
            let (report, results) = svc.drain();
            assert_eq!(results.len(), 6);
            assert!(results.iter().all(|r| r.status == JobStatus::Completed));
            assert_eq!(report.cache.hits, 0, "cpu jobs must never be served from the cache");
            assert_eq!(report.counters.cpu_jobs, 6);
            assert_eq!(report.counters.batched_jobs, 0, "cpu jobs never join a batch");
            // The vetting report itself is engine-invariant byte for byte.
            for r in &results {
                let reference = vet_app(
                    generate_app(r.id as usize % 3, 5400 + r.id % 3, &GenConfig::tiny()),
                    gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
                );
                assert_eq!(
                    r.outcome.as_ref().unwrap().report.to_json(),
                    reference.report.to_json(),
                    "{engine} job {} diverged from the worklist reference",
                    r.id
                );
            }
            assert!(json(&report).contains("\"cpu_jobs\":6"));
        }
    }

    /// A CPU-engine service composes with its library store and the
    /// targeted lane: every job, targeted or not, runs on the CPU
    /// reference, reads the store, and reports what the worklist engine
    /// reports.
    #[test]
    fn cpu_engine_jobs_slice_and_read_the_library_store() {
        let config = GenConfig::tiny().with_libraries(2, 2);
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            sumstore: Some(Arc::new(library_store(&config))),
            plan: ExecPlan::new(Engine::CpuReference),
            coresident: 4,
            ..ServiceConfig::default()
        });
        let app = |id: u64| generate_app(id as usize, 5500 + id, &config);
        let source = |id: u64| JobSource::Seed {
            index: id as usize,
            seed: 5500 + id,
            config: Box::new(config.clone()),
        };
        for id in 0..6u64 {
            if id % 2 == 1 {
                svc.submit_targeted(source(id)).unwrap();
            } else {
                svc.submit(Priority::Standard, source(id)).unwrap();
            }
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.counters.cpu_jobs, 6, "targeted jobs run on the cpu engine too");
        assert_eq!(report.counters.targeted_jobs, 3);
        assert!(report.sumstore.hits > 0, "cpu jobs must read the library store");
        assert_eq!(report.counters.batched_jobs, 0, "cpu jobs never join a batch");
        for r in &results {
            let outcome = r.outcome.as_ref().unwrap();
            assert_eq!(outcome.targeted.is_some(), r.id % 2 == 1, "job {}", r.id);
            let reference = vet_app(app(r.id), gdroid_vetting::Engine::Gpu(OptConfig::gdroid()));
            assert_eq!(outcome.report.to_json(), reference.report.to_json(), "job {}", r.id);
        }
    }

    fn ready_job(id: u64, seed: u64) -> ReadyJob {
        ready_job_of(id, generate_app(id as usize, seed, &GenConfig::tiny()))
    }

    fn ready_job_of(id: u64, app: App) -> ReadyJob {
        let prep = prepare_vetting(app);
        ReadyJob {
            identity: JobIdentity {
                id,
                package: prep.app.manifest.package.clone(),
                content_hash: app_content_hash(&prep.app),
                ..Default::default()
            },
            plan: ExecPlan::default(),
            estimate: work_estimate(&prep),
            block_demand: block_demand(&prep),
            warm: None,
            prep,
        }
    }

    /// One executor driven directly over a pre-filled, closed heap: with
    /// every job already ready, batch forming is deterministic (no prep
    /// race).
    fn run_executor(
        coresident: usize,
        max_retries: u32,
        timeout: Duration,
        jobs: Vec<ReadyJob>,
    ) -> ServiceState {
        run_executor_on(ResultCache::new(), None, coresident, max_retries, timeout, jobs)
    }

    /// [`run_executor`] with a given result cache (hand a previous run's
    /// `state.cache` on to warm it) and summary store.
    fn run_executor_on(
        cache: ResultCache,
        sumstore: Option<Arc<SumStore>>,
        coresident: usize,
        max_retries: u32,
        timeout: Duration,
        jobs: Vec<ReadyJob>,
    ) -> ServiceState {
        let state = ServiceState {
            label: "test".to_owned(),
            dispatch: DispatchHeap::new(8),
            cache,
            metrics: ServiceMetrics::new(),
            results: Mutex::new(Vec::new()),
            results_cv: std::sync::Condvar::new(),
            max_retries,
            timeout,
            sumstore,
            coresident,
            plan: ExecPlan::default(),
        };
        for job in jobs {
            assert!(state.dispatch.push(job).is_ok());
        }
        state.dispatch.close();
        exec_loop(&state, &mut Device::new(DeviceConfig::tesla_p40()));
        state
    }

    #[test]
    fn batch_executor_groups_ready_jobs_deterministically() {
        // Batching MUST happen — and every batched result must still match
        // the engine reference bit for bit.
        let jobs = (0..5u64).map(|id| ready_job(id, 5500 + id)).collect();
        let state = run_executor(4, 3, Duration::from_millis(30_000), jobs);
        let results = state.results.lock().unwrap();
        assert_eq!(results.len(), 5);
        let c = state.metrics.counters.snapshot();
        assert_eq!(c.executed, 5);
        assert!(
            c.batches >= 1 && c.batched_jobs >= 2,
            "a heap full of ready jobs must form a batch: {c:?}"
        );
        for r in results.iter() {
            let reference = vet_app(
                generate_app(r.id as usize, 5500 + r.id, &GenConfig::tiny()),
                gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
            );
            assert_eq!(
                r.outcome.as_ref().unwrap().report.to_json(),
                reference.report.to_json(),
                "job {} diverged from the engine reference",
                r.id
            );
        }
    }

    #[test]
    fn coresident_groups_share_the_summary_store_without_moving_a_verdict() {
        let config = GenConfig::tiny().with_libraries(2, 2);
        let run = |coresident: usize| {
            let jobs = (0..6u64)
                .map(|id| ready_job_of(id, generate_app(id as usize, 5950 + id, &config)))
                .collect();
            let store = Some(Arc::new(library_store(&config)));
            let state =
                run_executor_on(ResultCache::new(), store, coresident, 3, JOB_TIMEOUT, jobs);
            let mut results = std::mem::take(&mut *state.results.lock().unwrap());
            results.sort_by_key(|r| r.id);
            (state.metrics.counters.snapshot(), results)
        };
        let (solo, solo_results) = run(1);
        let (batched, batched_results) = run(4);
        assert_eq!((solo.batched_jobs, solo.executed), (0, 6), "{solo:?}");
        assert!(batched.batches >= 1 && batched.batched_jobs >= 2, "{batched:?}");
        assert!(batched.store_hits > 0, "grouped jobs never hit the library store: {batched:?}");
        assert_eq!(batched.store_hits, solo.store_hits, "co-residency moved a store hit");
        for (a, b) in solo_results.iter().zip(&batched_results) {
            let report = |r: &JobResult| r.outcome.as_ref().map(|o| o.report.to_json());
            assert_eq!((a.id, report(a)), (b.id, report(b)), "a verdict moved under co-residency");
        }
    }

    #[test]
    fn timed_out_attempts_retry_then_quarantine() {
        // No verb or workload can shorten `JOB_TIMEOUT`, so drive the
        // executor with a zero budget: every attempt, solo or batched,
        // overruns it.
        for coresident in [1, 4] {
            let jobs = (0..4u64).map(|id| ready_job(id, 5900 + id)).collect();
            let state = run_executor(coresident, 2, Duration::ZERO, jobs);
            let results = state.results.lock().unwrap();
            assert_eq!(results.len(), 4);
            for r in results.iter() {
                assert_eq!(r.status, JobStatus::Quarantined, "coresident {coresident}");
                assert_eq!((r.attempts, r.timeouts_seen), (3, 3), "job {}", r.id);
                assert!(r.outcome.is_none());
            }
            let c = state.metrics.counters.snapshot();
            assert_eq!(c.timeouts, 12, "coresident {coresident}: {c:?}");
            assert_eq!((c.executed, c.quarantined, c.retries), (0, 4, 8));
            assert_eq!(c.batched_jobs, 0, "a timed-out member is not a batched job");
            assert_eq!(c.batches > 0, coresident > 1, "coresident {coresident}: {c:?}");
            assert!(state.cache.is_empty(), "a timed-out run must not reach the cache");
        }
    }

    /// Version 2 of an app: one method's trailing return becomes an
    /// allocation into a reference variable, then the return.
    fn updated(mut app: App) -> App {
        use gdroid_ir::{Expr, Lhs, Stmt, StmtIdx};
        let victim = app
            .program
            .methods
            .iter_enumerated()
            .filter(|(_, m)| {
                m.len() >= 2
                    && matches!(m.body[StmtIdx::new(m.len() - 1)], Stmt::Return { .. })
                    && m.vars.iter().any(|d| d.ty.is_reference())
            })
            .map(|(mid, _)| mid)
            .last()
            .expect("some method has a ref var and a trailing return");
        let method = &mut app.program.methods[victim];
        let (var, ty) = method
            .vars
            .iter_enumerated()
            .find(|(_, d)| d.ty.is_reference())
            .map(|(v, d)| (v, d.ty))
            .unwrap();
        let last = StmtIdx::new(method.len() - 1);
        let ret = method.body[last].clone();
        method.body[last] = Stmt::Assign { lhs: Lhs::Var(var), rhs: Expr::New { ty } };
        method.body.push(ret);
        app.program.rebuild_lookups();
        app
    }

    #[test]
    fn a_warm_started_attempt_times_out_retries_and_quarantines_like_any_other() {
        // A v1 run warms the cache; the v2 job then finds its previous
        // version there. With a zero budget its warm-started attempts
        // overrun like a device run's would.
        let base = || generate_app(50, 7777, &GenConfig::tiny());
        let v1 = || vec![ready_job_of(0, base())];
        let v2 = || vec![ready_job_of(1, updated(base()))];
        let budget = Duration::from_secs(30);
        let first = run_executor_on(ResultCache::new(), None, 1, 2, budget, v1());
        assert_eq!(first.results.lock().unwrap()[0].cache, CacheDisposition::Miss);
        assert_eq!(first.cache.len(), 1);

        let state = run_executor_on(first.cache, None, 1, 2, Duration::ZERO, v2());
        let results = state.results.lock().unwrap();
        let [r] = &results[..] else { panic!("one job, one result") };
        assert_eq!(r.status, JobStatus::Quarantined);
        assert_eq!((r.attempts, r.timeouts_seen, r.faults_seen), (3, 3, 0));
        assert!(r.outcome.is_none());
        let c = state.metrics.counters.snapshot();
        assert_eq!((c.timeouts, c.retries, c.quarantined), (3, 2, 1));
        assert_eq!(
            (c.cache_incremental, c.executed),
            (0, 0),
            "a timed-out attempt counts as neither"
        );
        // The lookup consumed the stale entry; the quarantined run left none.
        assert_eq!(state.cache.stats().invalidations, 1);
        assert!(state.cache.is_empty());
        drop(results);

        // With a budget, the same sequence is the soak test's warm start.
        let first = run_executor_on(ResultCache::new(), None, 1, 2, budget, v1());
        let state = run_executor_on(first.cache, None, 1, 2, budget, v2());
        let results = state.results.lock().unwrap();
        // The edited method and its environment caller miss (a canonical
        // hash folds in its callees'); the other 21 are pre-solved.
        assert_eq!(results[0].cache, CacheDisposition::Incremental { resolved: 2, reused: 21 });
        let c = state.metrics.counters.snapshot();
        assert_eq!((c.cache_incremental, c.executed, c.timeouts), (1, 0, 0));
        assert_eq!(state.cache.len(), 1, "the warm-started run is cached like a cold one");
        drop(results);

        // Under co-residency the warm start still runs solo, whether it was
        // popped first or as a top-up; the cold jobs around it batch.
        let first = run_executor_on(ResultCache::new(), None, 1, 2, budget, v1());
        let mut jobs = v2();
        jobs.extend((2..5u64).map(|id| ready_job(id, 5900 + id)));
        let state = run_executor_on(first.cache, None, 4, 2, budget, jobs);
        let c = state.metrics.counters.snapshot();
        assert_eq!((c.cache_incremental, c.executed, c.batched_jobs), (1, 3, 3), "{c:?}");
    }

    #[test]
    fn fault_plan_is_installed_per_device() {
        let config = ServiceConfig {
            devices: 3,
            fault_plan: Some(FaultPlan { period: 1, budget: 1 }),
            ..ServiceConfig::default()
        };
        let mut devices = config.executor_devices();
        assert_eq!(devices.len(), 3);
        // Each device spends its own budget: its first launch faults, and
        // no later one does.
        let noop = || vec![|_: &mut gdroid_gpusim::BlockCtx<'_>| {}];
        for device in &mut devices {
            assert!(device.try_launch(noop()).is_err());
            assert!(device.try_launch(noop()).is_ok());
            assert!(device.try_launch(noop()).is_ok());
            assert_eq!((device.launches(), device.faults_injected()), (3, 1));
        }
    }

    #[test]
    fn coresident_batching_preserves_outcomes() {
        let run = |coresident: usize| {
            let svc = VettingService::start(ServiceConfig {
                prep_workers: 2,
                devices: 1,
                coresident,
                ..ServiceConfig::default()
            });
            for seed in 0..6u64 {
                svc.submit(Priority::Standard, seed_source(seed as usize, 5400 + seed)).unwrap();
            }
            svc.drain()
        };
        let (solo_report, solo) = run(1);
        let (batch_report, batched) = run(4);
        assert_eq!(solo_report.counters.batched_jobs, 0);
        assert_eq!(solo.len(), 6);
        assert_eq!(batched.len(), 6);
        assert!(batched.iter().all(|r| r.status == JobStatus::Completed));
        // Batched execution must not change a single outcome byte.
        for (a, b) in solo.iter().zip(&batched) {
            assert_eq!(a.id, b.id);
            let aj = a.outcome.as_ref().map(|o| o.to_json());
            let bj = b.outcome.as_ref().map(|o| o.to_json());
            assert_eq!(aj, bj, "job {} diverged under coresident batching", a.id);
        }
        let j = json(&batch_report);
        assert!(j.contains("\"batched_jobs\":") && j.contains("\"coresidency\":"), "{j}");
    }

    #[test]
    fn targeted_fast_lane_bypasses_cache_and_agrees_with_full() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        // Full first, so the cache holds this exact app before the
        // targeted wave arrives — the fast lane must not consume it.
        svc.submit(Priority::Standard, seed_source(0, 5600)).unwrap();
        svc.wait_for(1);
        svc.submit_targeted(seed_source(0, 5600)).unwrap();
        svc.submit_targeted(seed_source(0, 5600)).unwrap();
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.counters.cache_hits, 0, "targeted jobs must bypass the cache");
        assert_eq!(report.counters.targeted_jobs, 2);
        assert!(report.mean_sliced_fraction > 0.0 && report.mean_sliced_fraction <= 1.0);
        let full = results[0].outcome.as_ref().expect("full outcome");
        assert!(full.targeted.is_none());
        for r in &results[1..] {
            assert_eq!(r.priority, Priority::Expedited, "fast lane forces Expedited");
            assert_eq!(r.cache, CacheDisposition::Miss);
            let o = r.outcome.as_ref().expect("targeted outcome");
            assert!(o.targeted.is_some(), "targeted outcome must carry provenance");
            assert_eq!(
                o.report.to_json(),
                full.report.to_json(),
                "targeted verdict diverged from the full run"
            );
        }
        let j = json(&report);
        assert!(
            j.contains("\"targeted_jobs\":2") && j.contains("\"mean_sliced_fraction\":"),
            "{j}"
        );
    }

    #[test]
    fn unreadable_bundle_fails_without_poisoning_service() {
        // Every way the read → hash → parse path can refuse a bundle: no
        // such directory, bytes that are not UTF-8, a program cut off
        // mid-file, and a manifest naming classes its program lacks.
        let root = std::env::temp_dir().join(format!("gdroid-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let app = generate_app(0, 5201, &GenConfig::tiny());
        let hostile = |name: &str, file: &str, edit: &dyn Fn(Vec<u8>) -> Vec<u8>| {
            let dir = root.join(name);
            gdroid_apk::save_bundle(&app, &dir).unwrap();
            let bytes = std::fs::read(dir.join(file)).unwrap();
            std::fs::write(dir.join(file), edit(bytes)).unwrap();
            dir
        };
        let sources = [
            "/nonexistent/x".into(),
            hostile("not-utf8", "manifest.txt", &|mut b| {
                b[3] = 0xFF;
                b
            }),
            hostile("cut", "app.jil", &|mut b| {
                b.truncate(b.len() / 2);
                b
            }),
            hostile("empty", "app.jil", &|_| Vec::new()),
        ];

        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        for dir in &sources {
            svc.submit(Priority::Standard, JobSource::Bundle(dir.clone())).unwrap();
        }
        svc.submit(Priority::Standard, seed_source(1, 5200)).unwrap();
        let (report, results) = svc.drain();
        let _ = std::fs::remove_dir_all(&root);

        assert_eq!(results.len(), sources.len() + 1);
        for (r, dir) in results.iter().zip(&sources) {
            assert!(matches!(r.status, JobStatus::Failed(_)), "{}: {:?}", dir.display(), r.status);
            // A job that never started names its source and no content.
            assert_eq!(r.package, dir.display().to_string());
            assert_eq!(r.content_hash, 0);
            assert!(r.outcome.is_none());
        }
        assert_eq!(results[sources.len()].status, JobStatus::Completed);
        assert_eq!(report.counters.completed, results.len() as u64);
        assert_eq!(report.cache.insertions, 1, "no failed job may reach the cache");
    }
}
