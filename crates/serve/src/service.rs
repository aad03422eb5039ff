//! The in-process vetting service: prep workers, device executors, and
//! the drain protocol.
//!
//! Thread topology (all `std::thread`, no external runtime):
//!
//! ```text
//! submit() ──► SubmitQueue (bounded, 3 priority classes)
//!                 │  K prep workers: read → hash → cache lookup →
//!                 │  parse → env/callgraph synthesis → work estimate
//!                 ▼
//!              DispatchHeap (bounded — double-buffers prep vs execution)
//!                 │  D executors, one device each: LPT pop → run
//!                 │  (fault/timeout → retry, then quarantine)
//!                 ▼
//!              results + ResultCache + ServiceMetrics
//! ```
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

use crate::cache::{
    app_content_hash, bundle_content_hash, changed_methods, interner_fingerprint, method_hashes,
    ResultCache,
};
use crate::job::{
    CacheDisposition, JobIdentity, JobResult, JobSource, JobSpec, JobStatus, Priority,
};
use crate::metrics::{Counters, ServiceMetrics, ServiceReport};
use crate::queue::{SubmitError, SubmitQueue};
use crate::scheduler::{block_demand, work_estimate, DispatchHeap, ReadyJob};
use gdroid_apk::{generate_app, parse_bundle, read_bundle, App, BundleError, BundleText};
use gdroid_core::{EngineKind, ExecMode};
use gdroid_gpusim::{Device, DeviceConfig, FaultPlan};
use gdroid_sumstore::SumStore;
use gdroid_vetting::{
    execute, execute_vetting_batch_on_device, prepare_vetting, ExecCtx, ExecPlan, PreparedApp,
    VettingRun,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`VettingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Label naming this service in the report's per-source attribution
    /// (campaign shards pass `shard-<s>` so merged fleet reports keep
    /// per-shard hit counts even when the caches themselves are shared).
    pub label: String,
    /// Host-side prep worker threads (K).
    pub prep_workers: usize,
    /// Simulated devices and executor threads (D).
    pub devices: usize,
    /// Submission queue bound (admission control).
    pub queue_capacity: usize,
    /// Failed attempts a job may retry before quarantine (it is
    /// quarantined on failure number `max_retries + 1`).
    pub max_retries: u32,
    /// Wall-clock budget per device attempt.
    pub job_timeout_ms: u64,
    /// Optional injected-fault schedule, installed on every device.
    pub fault_plan: Option<FaultPlan>,
    /// Simulated device model.
    pub device_config: DeviceConfig,
    /// Optional cross-app summary store shared by every executor. Full
    /// runs pre-solve store-hit methods and feed fresh summaries back;
    /// `None` disables the store entirely.
    pub sumstore: Option<Arc<SumStore>>,
    /// Optional externally shared result cache. Campaign shards hand the
    /// same `Arc` to every shard service so one shard's completed app
    /// serves another's duplicate; `None` gives the service a private
    /// cache (the default, and the previous behavior).
    pub result_cache: Option<Arc<ResultCache>>,
    /// Co-residency degree: an executor that pops a job tops the device
    /// up with up to `coresident - 1` further ready jobs whose combined
    /// block demand fits the device's block slots, and runs the group as
    /// one batched analysis ([`gdroid_core::gpu_analyze_batch_on`]).
    /// `1` (the default) disables batching. Ignored when a summary store
    /// is configured (store pre-solving is a per-app path).
    pub coresident: usize,
    /// The plan every submission starts from — engine and exec mode; its
    /// `targeted` flag is set per submission. The plan's lane predicates
    /// decide what a job may use: only full multi-launch worklist jobs
    /// touch the result cache, warm-start incrementally, or join a
    /// co-resident batch (cached outcomes embed that one cost profile). A
    /// combination the plan would refuse is rerouted by
    /// [`ExecPlan::fallback`], never failed: targeted submissions to a
    /// service whose engine cannot slice (only the CPU reference) run on
    /// the worklist engine, and [`ExecMode::Persistent`] on an engine that
    /// cannot hold a resident kernel runs multi-launch.
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
            job_timeout_ms: 30_000,
            fault_plan: None,
            device_config: DeviceConfig::tesla_p40(),
            sumstore: None,
            result_cache: None,
            coresident: 1,
            plan: ExecPlan::default(),
        }
    }
}

impl ServiceConfig {
    /// The executors' devices: `devices` identical ones (at least one),
    /// each with its own copy of the optional fault plan.
    fn executor_devices(&self) -> Vec<Device> {
        (0..self.devices.max(1))
            .map(|_| {
                let mut device = Device::new(self.device_config);
                device.set_fault_plan(self.fault_plan);
                device
            })
            .collect()
    }
}

struct ServiceState {
    label: String,
    dispatch: DispatchHeap,
    cache: Arc<ResultCache>,
    metrics: ServiceMetrics,
    results: Mutex<Vec<JobResult>>,
    results_cv: std::sync::Condvar,
    max_retries: u32,
    timeout: Duration,
    sumstore: Option<Arc<SumStore>>,
    coresident: usize,
    /// The untargeted plan every submission starts from.
    plan: ExecPlan,
    /// Total block slots of one device (`sm_count × blocks_per_sm`) — the
    /// budget co-resident top-ups must fit into.
    block_slots: u64,
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
        let queue = Arc::new(SubmitQueue::new(config.queue_capacity.max(1)));
        let devices = config.executor_devices();
        let state = Arc::new(ServiceState {
            label: config.label,
            // One executing plus one buffered app per device.
            dispatch: DispatchHeap::new(2 * devices.len()),
            cache: config.result_cache.unwrap_or_else(|| Arc::new(ResultCache::new())),
            metrics: ServiceMetrics::new(),
            results: Mutex::new(Vec::new()),
            results_cv: std::sync::Condvar::new(),
            max_retries: config.max_retries,
            timeout: Duration::from_millis(config.job_timeout_ms.max(1)),
            sumstore: config.sumstore,
            coresident: config.coresident.max(1),
            plan: config.plan,
            block_slots: (config.device_config.sm_count as u64)
                * (config.device_config.blocks_per_sm as u64),
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
        let plan = ExecPlan { targeted, ..self.state.plan }.fallback();
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
    /// as, a full vetting. Targeted jobs also skip the incremental warm
    /// start and never join a co-resident batch.
    pub fn submit_targeted(&self, source: JobSource) -> Result<u64, SubmitError> {
        let spec = self.spec(Priority::Expedited, source, true);
        let id = spec.id;
        self.queue.submit(spec)?;
        Counters::bump(&self.state.metrics.counters.submitted);
        Ok(id)
    }

    /// Admission-controlled submission: sheds the job immediately when
    /// the queue is at capacity.
    pub fn try_submit(&self, priority: Priority, source: JobSource) -> Result<u64, SubmitError> {
        let spec = self.spec(priority, source, false);
        let id = spec.id;
        match self.queue.try_submit(spec) {
            Ok(()) => {
                Counters::bump(&self.state.metrics.counters.submitted);
                Ok(id)
            }
            Err((_, err)) => {
                if err == SubmitError::QueueFull {
                    Counters::bump(&self.state.metrics.counters.rejected);
                }
                Err(err)
            }
        }
    }

    /// Takes every terminal result produced so far, leaving the buffer
    /// empty. Long streaming runs (the campaign layer) harvest between
    /// submissions so resident results stay bounded by the in-flight
    /// window instead of growing O(corpus); a later [`Self::drain`]
    /// returns only the results produced after the last harvest. Note
    /// that [`Self::completed`] and [`Self::wait_for`] count the
    /// *buffered* results, so they reset alongside.
    pub fn take_results(&self) -> Vec<JobResult> {
        std::mem::take(
            &mut *self
                .state
                .results
                .lock()
                .expect("results mutex poisoned: a service thread panicked"),
        )
    }

    /// Terminal results produced so far.
    pub fn completed(&self) -> u64 {
        self.state.results.lock().expect("results mutex poisoned: a service thread panicked").len()
            as u64
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
            self.state.sumstore.as_ref().map(|s| s.stats()).unwrap_or_default(),
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
/// (every result publishes it), the cache lookup for cacheable plans — on a
/// bundle's bytes, before they are parsed — and the per-method hashes only
/// for plans that can reach the warm start or the cache insert.
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
        // Read only by `try_incremental` and the cache insert in `finish`.
        let (hashes, fingerprint) = if job.plan.cacheable() || job.plan.warm_startable() {
            (method_hashes(&prep.app.program), interner_fingerprint(&prep.app.program.interner))
        } else {
            (HashMap::new(), 0)
        };
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
            method_hashes: hashes,
            interner_fingerprint: fingerprint,
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
    while let Some(mut job) = state.dispatch.pop() {
        try_incremental(state, &mut job);

        // Batch-forming: top the device up with further ready jobs whose
        // combined block demand still fits its block slots. A warm start
        // is a solo re-solve of the dirty cone: it neither leads a batch
        // nor joins one, so a warm-startable job never burns device time
        // just because it was popped as a co-resident.
        let mut group = vec![job];
        if state.coresident > 1
            && state.sumstore.is_none()
            && group[0].plan.batchable()
            && group[0].warm.is_none()
        {
            let mut demand = group[0].block_demand;
            while group.len() < state.coresident && demand < state.block_slots {
                let Some(mut extra) = state.dispatch.try_pop_coresident(state.block_slots - demand)
                else {
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
/// invalidated either way): hands the job the previous analysis and the
/// changed-method set for [`ExecCtx::prev`]. A job whose plan is not
/// [`ExecPlan::warm_startable`] is left alone: a targeted job's sliced
/// path, say, must neither consume nor invalidate cached full analyses.
fn try_incremental(state: &ServiceState, job: &mut ReadyJob) {
    if job.identity.attempts == 0 && job.plan.warm_startable() {
        if let Some(prev) =
            state.cache.take_previous(&job.identity.package, job.identity.content_hash)
        {
            // Incomparable versions run cold.
            if let Some(changed) =
                changed_methods(&prev, &job.method_hashes, job.interner_fingerprint)
            {
                job.warm = Some((prev.analysis, changed));
            }
        }
    }
}

/// Runs one attempt of a group on the executor's device: a job alone
/// through [`execute`] (warm-started when the lookup found a previous
/// version), several co-resident as one batched analysis. Per-app batch
/// results are bit-identical to solo runs (the batch driver repacks each
/// app's own blocks), so the cache stays coherent. A device fault or an
/// overrun budget fails the whole attempt: every member retries
/// individually.
fn exec_group(state: &ServiceState, device: &mut Device, group: Vec<ReadyJob>) {
    let counters = &state.metrics.counters;
    let t = Instant::now();
    let attempt = if let [job] = &group[..] {
        // Engines that cannot use the store (only the CPU reference) skip
        // it rather than fault.
        let store = state.sumstore.as_deref().filter(|_| job.plan.engine.caps().sumstore);
        let prev = job.warm.as_ref().map(|(analysis, changed)| (analysis, &changed[..]));
        let ctx = &mut ExecCtx { store, prev, ..ExecCtx::new(device) };
        execute(&job.prep, job.plan, ctx).map(|done| {
            // Store-backed runs report which methods *this* execution hit;
            // the counters keep that attribution service-local, because the
            // store's own global stats can't when the store Arc is shared
            // across shards.
            if let Some(used) = done.store_use {
                counters.store_hits.fetch_add(used.hits, Ordering::Relaxed);
                counters.store_misses.fetch_add(used.misses, Ordering::Relaxed);
            }
            vec![(done.run, done.reuse)]
        })
    } else {
        let preps: Vec<&PreparedApp> = group.iter().map(|j| &j.prep).collect();
        execute_vetting_batch_on_device(&preps, device, group[0].plan).map(|(runs, _batch)| {
            Counters::bump(&counters.batches);
            runs.into_iter().map(|run| (run, None)).collect()
        })
    };
    let elapsed = t.elapsed();
    let exec_wall_ns = elapsed.as_nanos() as u64;
    let batched = group.len() > 1;
    match attempt {
        Ok(runs) => {
            let timed_out = elapsed > state.timeout;
            for (mut job, (run, reuse)) in group.into_iter().zip(runs) {
                if timed_out {
                    job.identity.timeouts_seen += 1;
                    Counters::bump(&counters.timeouts);
                    retry_or_quarantine(state, job, exec_wall_ns);
                } else if let Some(stats) = reuse {
                    Counters::bump(&counters.cache_incremental);
                    let cache = CacheDisposition::Incremental {
                        resolved: stats.resolved,
                        reused: stats.reused,
                    };
                    finish(state, job, run, exec_wall_ns, cache);
                } else {
                    Counters::bump(&counters.executed);
                    if batched {
                        Counters::bump(&counters.batched_jobs);
                    }
                    finish(state, job, run, exec_wall_ns, CacheDisposition::Miss);
                }
            }
        }
        Err(_fault) => {
            for mut job in group {
                job.identity.faults_seen += 1;
                Counters::bump(&counters.faults);
                retry_or_quarantine(state, job, exec_wall_ns);
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
    if job.plan.engine.kind() == Some(EngineKind::Cpu) {
        Counters::bump(&state.metrics.counters.cpu_jobs);
    }
    if job.plan.exec == ExecMode::Persistent {
        Counters::bump(&state.metrics.counters.persistent_jobs);
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
        state.cache.insert(
            job.identity.content_hash,
            &job.identity.package,
            run,
            job.method_hashes,
            job.interner_fingerprint,
        );
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
    use gdroid_vetting::vet_app;

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
    fn shared_sumstore_reports_hits_beside_cache() {
        let store = Arc::new(SumStore::new());
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            sumstore: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        });
        let config = GenConfig::tiny().with_libraries(2, 2);
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
        assert!(report.sumstore.insertions > 0);
        assert!(report.sumstore.hits > 0, "shared-library corpus must hit the store");
        assert_eq!(report.sumstore.hits, store.stats().hits);
        // Service-local attribution must agree with the store's own view
        // when this service is the store's only client.
        assert_eq!(report.counters.store_hits, store.stats().hits);
        assert_eq!(report.counters.store_misses, store.stats().misses);
        assert_eq!(report.per_source.len(), 1);
        assert_eq!(report.per_source[0].store_hits, store.stats().hits);
        let j = json(&report);
        assert!(j.contains("\"cache\":{") && j.contains("\"sumstore\":{\"hits\":"));
    }

    #[test]
    fn shared_result_cache_serves_hits_across_services() {
        // Two sequential services sharing one cache Arc: the second must
        // be served the first's completed apps without executing, and the
        // attribution must say so per service.
        let cache = Arc::new(ResultCache::new());
        let first = VettingService::start(ServiceConfig {
            label: "first".to_owned(),
            prep_workers: 1,
            devices: 1,
            result_cache: Some(Arc::clone(&cache)),
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            first.submit(Priority::Standard, seed_source(seed as usize, 5800 + seed)).unwrap();
        }
        let (first_report, first_results) = first.drain();
        assert_eq!(first_report.counters.cache_hits, 0);
        let second = VettingService::start(ServiceConfig {
            label: "second".to_owned(),
            prep_workers: 1,
            devices: 1,
            result_cache: Some(Arc::clone(&cache)),
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            second.submit(Priority::Standard, seed_source(seed as usize, 5800 + seed)).unwrap();
        }
        let (second_report, second_results) = second.drain();
        assert_eq!(second_report.counters.cache_hits, 3, "shared cache must serve every app");
        assert_eq!(second_report.counters.executed, 0);
        for (a, b) in first_results.iter().zip(&second_results) {
            assert_eq!(
                a.outcome.as_ref().map(|o| o.report.to_json()),
                b.outcome.as_ref().map(|o| o.report.to_json()),
                "cached outcome diverged across services"
            );
        }
        let merged = first_report.merge(&second_report);
        assert_eq!(merged.per_source.len(), 2);
        assert_eq!(merged.per_source[0].label, "first");
        assert_eq!(merged.per_source[1].cache_hits, 3);
    }

    #[test]
    fn cpu_engine_jobs_bypass_the_cache_and_match_worklist_reports() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            plan: ExecPlan::new(EngineKind::Cpu),
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
                "job {} diverged from the worklist reference",
                r.id
            );
        }
        assert!(json(&report).contains("\"cpu_jobs\":6"));
    }

    #[test]
    fn persistent_jobs_bypass_the_cache_and_match_multi_launch_reports() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            plan: ExecPlan { exec: ExecMode::Persistent, ..ExecPlan::default() },
            coresident: 4,
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5700 + seed)).unwrap();
        }
        // Resubmit the same apps: a multi-launch service would serve
        // cache hits, a persistent service must re-analyze every one —
        // cached outcomes embed the multi-launch cost profile.
        svc.wait_for(3);
        for seed in 0..3u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5700 + seed)).unwrap();
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.cache.hits, 0, "persistent jobs must never be served from the cache");
        assert_eq!(report.counters.persistent_jobs, 6);
        assert_eq!(report.counters.batched_jobs, 0, "persistent jobs never join a batch");
        // The vetting report itself is exec-mode-invariant byte for byte.
        for r in &results {
            let reference = vet_app(
                generate_app(r.id as usize % 3, 5700 + r.id % 3, &GenConfig::tiny()),
                gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
            );
            assert_eq!(
                r.outcome.as_ref().unwrap().report.to_json(),
                reference.report.to_json(),
                "job {} diverged from the multi-launch reference",
                r.id
            );
        }
        let j = json(&report);
        assert!(j.contains("\"persistent_jobs\":6"), "{j}");
    }

    fn ready_job(id: u64, seed: u64) -> ReadyJob {
        ready_job_of(id, generate_app(id as usize, seed, &GenConfig::tiny()))
    }

    fn ready_job_of(id: u64, app: App) -> ReadyJob {
        let prep = prepare_vetting(app);
        let hashes = method_hashes(&prep.app.program);
        let fingerprint = interner_fingerprint(&prep.app.program.interner);
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
            method_hashes: hashes,
            interner_fingerprint: fingerprint,
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
        let cache = Arc::new(ResultCache::new());
        run_executor_on(cache, coresident, max_retries, timeout, jobs)
    }

    fn run_executor_on(
        cache: Arc<ResultCache>,
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
            sumstore: None,
            coresident,
            block_slots: 120,
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
    fn timed_out_attempts_retry_then_quarantine() {
        // No verb or workload sets `job_timeout_ms`, so drive the executor
        // with a zero budget: every attempt, solo or batched, overruns it.
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
        // A v1 run warms a shared cache; the v2 job then finds its previous
        // version there. With a zero budget its warm-started attempts
        // overrun like a device run's would.
        let cache = Arc::new(ResultCache::new());
        let base = || generate_app(50, 7777, &GenConfig::tiny());
        let first = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            result_cache: Some(Arc::clone(&cache)),
            ..ServiceConfig::default()
        });
        first.submit(Priority::Standard, JobSource::App(Box::new(base()))).unwrap();
        assert_eq!(first.drain().1[0].cache, CacheDisposition::Miss);
        assert_eq!(cache.len(), 1);

        let v2 = || vec![ready_job_of(1, updated(base()))];
        let state = run_executor_on(Arc::clone(&cache), 1, 2, Duration::ZERO, v2());
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
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
        drop(results);

        // With a budget, the same sequence is the soak test's warm start.
        let cache = Arc::new(ResultCache::new());
        let v1 = || vec![ready_job_of(0, base())];
        run_executor_on(Arc::clone(&cache), 1, 2, Duration::from_secs(30), v1());
        let state = run_executor_on(Arc::clone(&cache), 1, 2, Duration::from_secs(30), v2());
        let results = state.results.lock().unwrap();
        assert!(matches!(results[0].cache, CacheDisposition::Incremental { resolved: 1, .. }));
        let c = state.metrics.counters.snapshot();
        assert_eq!((c.cache_incremental, c.executed, c.timeouts), (1, 0, 0));
        assert_eq!(cache.len(), 1, "the warm-started run is cached like a cold one");
        drop(results);

        // Under co-residency the warm start still runs solo, whether it was
        // popped first or as a top-up; the cold jobs around it batch.
        let cache = Arc::new(ResultCache::new());
        run_executor_on(Arc::clone(&cache), 1, 2, Duration::from_secs(30), v1());
        let mut jobs = v2();
        jobs.extend((2..5u64).map(|id| ready_job(id, 5900 + id)));
        let state = run_executor_on(cache, 4, 2, Duration::from_secs(30), jobs);
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
