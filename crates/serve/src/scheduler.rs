//! Dispatch heap: prepared jobs waiting for a device.
//!
//! Executors pop the highest-priority, *heaviest* ready job — combined
//! with "a free executor pops next", this is exactly greedy LPT
//! (longest-processing-time-first) packing of whole apps: the least
//! loaded device always receives the heaviest pending app.
//!
//! Strict (priority, LPT) ordering starves small `Standard` jobs under a
//! steady heavy/`Expedited` stream, so the key carries bounded age-based
//! promotion: a job that has watched [`STARVATION_BOUND`] pops go by since
//! it entered outranks every non-aged job regardless of priority class
//! (aged jobs still order among themselves by the normal key). The wait
//! is thereby bounded by `STARVATION_BOUND` dispatches instead of being
//! unbounded.
//!
//! The heap is bounded: prep workers block in [`DispatchHeap::push`] once
//! `capacity` prepared apps are waiting, which is the double-buffer
//! overlap — at steady state each device executes one app while the prep
//! workers hold the next few ready behind it, and prep never runs
//! unboundedly ahead of execution. Retries re-enter through
//! [`DispatchHeap::requeue`], which ignores the bound (a retry must never
//! deadlock against a full heap) and still works after close so draining
//! cannot drop a failed job.
//!
//! For co-resident batching, executors top up a popped job with
//! [`DispatchHeap::try_pop_coresident`]: a non-blocking pop restricted to
//! jobs under the popped job's plan whose widest-layer block demand fits
//! the device's remaining block slots.

use crate::job::{JobIdentity, Priority};
use gdroid_icfg::CallLayers;
use gdroid_sumstore::SumStore;
use gdroid_vetting::{ExecPlan, PreparedApp};
use std::sync::{Condvar, Mutex};

/// Pops a job may watch go by before it outranks every non-aged job.
pub const STARVATION_BOUND: u64 = 8;

/// A prepared job, ready for device execution.
pub struct ReadyJob {
    /// Who the job is, what the host measured for it, and what its
    /// execution attempts tallied — carried into the final result.
    pub(crate) identity: JobIdentity,
    /// How the job runs (see [`crate::JobSpec::plan`]).
    pub plan: ExecPlan,
    /// Static work estimate (statements × state width), the LPT key.
    pub estimate: u64,
    /// Widest call-graph layer in blocks — the most block slots one of
    /// this job's kernel launches can demand at once (co-residency fit).
    pub block_demand: u64,
    /// The prepared app (program + environments + call graph + roots).
    pub prep: PreparedApp,
    /// The warm start the executor's cache lookup found, if any: the
    /// previous version's summary store. Kept across retries — the lookup
    /// consumed the cache entry.
    pub(crate) warm: Option<SumStore>,
}

/// Computes the static work estimate of a prepared app: total statements
/// times total variables.
pub fn work_estimate(prep: &PreparedApp) -> u64 {
    let p = &prep.app.program;
    // Both factors are guarded: a degenerate app (zero statements or zero
    // variables) must not carry estimate 0 and sink below every retry.
    (p.total_statements() as u64).max(1) * (p.total_vars() as u64).max(1)
}

/// Computes a prepared app's block demand: the widest call-graph layer,
/// i.e. the most thread blocks any one of its kernel launches can occupy.
pub fn block_demand(prep: &PreparedApp) -> u64 {
    let layers = CallLayers::compute(&prep.cg, &prep.roots);
    layers.layers.iter().map(Vec::len).max().unwrap_or(0).max(1) as u64
}

struct AgedEntry {
    job: ReadyJob,
    /// Value of the pop counter when this entry (re-)entered the heap.
    enqueued_at: u64,
}

impl AgedEntry {
    /// Max key: aged entries first, then priority, then estimate (LPT),
    /// then earliest id. `pops` is the heap's current pop counter.
    fn key(&self, pops: u64) -> (bool, Priority, u64, std::cmp::Reverse<u64>) {
        let aged = pops.saturating_sub(self.enqueued_at) >= STARVATION_BOUND;
        let who = &self.job.identity;
        (aged, who.priority, self.job.estimate, std::cmp::Reverse(who.id))
    }
}

struct HeapInner {
    entries: Vec<AgedEntry>,
    closed: bool,
    /// Successful pops so far — the age clock.
    pops: u64,
}

impl HeapInner {
    /// Index of the best entry among those `fits` accepts, by aged key.
    fn best_index(&self, fits: impl Fn(&ReadyJob) -> bool) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| fits(&e.job))
            .max_by_key(|(_, e)| e.key(self.pops))
            .map(|(i, _)| i)
    }

    /// Removes and returns entry `i`, advancing the age clock.
    fn take(&mut self, i: usize) -> ReadyJob {
        self.pops += 1;
        self.entries.remove(i).job
    }
}

/// The bounded ready-job heap between prep workers and executors.
pub struct DispatchHeap {
    inner: Mutex<HeapInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl DispatchHeap {
    /// Creates a heap holding at most `capacity` ready jobs.
    pub fn new(capacity: usize) -> DispatchHeap {
        DispatchHeap {
            inner: Mutex::new(HeapInner { entries: Vec::new(), closed: false, pops: 0 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Hands a freshly prepared job to the executors; blocks while the
    /// heap is at capacity. Fails (returning the job) once closed.
    // The fat Err *is* the contract: a rejected job must come back whole.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: ReadyJob) -> Result<(), ReadyJob> {
        let mut inner = self.inner.lock().expect("dispatch-heap mutex poisoned: a worker panicked");
        while inner.entries.len() >= self.capacity && !inner.closed {
            inner = self
                .not_full
                .wait(inner)
                .expect("dispatch-heap mutex poisoned while waiting for space");
        }
        if inner.closed {
            return Err(job);
        }
        let at = inner.pops;
        inner.entries.push(AgedEntry { job, enqueued_at: at });
        self.not_empty.notify_one();
        Ok(())
    }

    /// Re-enters a failed job for retry. Not subject to the capacity
    /// bound and accepted even after close — a drain must retry, not
    /// drop. The age clock restarts: a retry is a fresh arrival.
    pub fn requeue(&self, job: ReadyJob) {
        let mut inner = self.inner.lock().expect("dispatch-heap mutex poisoned: a worker panicked");
        let at = inner.pops;
        inner.entries.push(AgedEntry { job, enqueued_at: at });
        self.not_empty.notify_one();
    }

    /// Takes the most urgent ready job (aged first, then priority, then
    /// heaviest — LPT). Blocks while empty; `None` once closed *and*
    /// drained.
    pub fn pop(&self) -> Option<ReadyJob> {
        let mut inner = self.inner.lock().expect("dispatch-heap mutex poisoned: a worker panicked");
        loop {
            if let Some(i) = inner.best_index(|_| true) {
                let job = inner.take(i);
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .expect("dispatch-heap mutex poisoned while waiting for work");
        }
    }

    /// Non-blocking pop of the most urgent ready job under `plan` whose
    /// block demand fits in `max_demand` block slots — how a
    /// batch-forming executor tops up a device with co-resident jobs: a
    /// group runs one plan, so targeted jobs batch with targeted jobs
    /// and full ones with full ones. Returns `None` when no waiting job
    /// fits (never blocks: an empty top-up just means the batch launches
    /// as-is).
    pub fn try_pop_coresident(&self, max_demand: u64, plan: &ExecPlan) -> Option<ReadyJob> {
        let mut inner = self.inner.lock().expect("dispatch-heap mutex poisoned: a worker panicked");
        let i = inner.best_index(|job| job.plan == *plan && job.block_demand <= max_demand)?;
        let job = inner.take(i);
        self.not_full.notify_one();
        Some(job)
    }

    /// Closes the heap: waiting executors drain what remains, then stop.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("dispatch-heap mutex poisoned: a worker panicked");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Ready jobs currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("dispatch-heap mutex poisoned: a worker panicked").entries.len()
    }

    /// Whether no ready jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_vetting::prepare_vetting;

    fn ready(id: u64, priority: Priority, estimate: u64) -> ReadyJob {
        ReadyJob {
            identity: JobIdentity {
                id,
                priority,
                package: format!("p{id}"),
                content_hash: id,
                ..Default::default()
            },
            plan: ExecPlan::default(),
            estimate,
            block_demand: 1,
            prep: prepare_vetting(generate_app(0, 100 + id, &GenConfig::tiny())),
            warm: None,
        }
    }

    #[test]
    fn pops_priority_then_heaviest_then_oldest() {
        let h = DispatchHeap::new(8);
        assert!(h.push(ready(1, Priority::Standard, 10)).is_ok());
        assert!(h.push(ready(2, Priority::Standard, 99)).is_ok());
        assert!(h.push(ready(3, Priority::Expedited, 1)).is_ok());
        assert!(h.push(ready(4, Priority::Standard, 99)).is_ok());
        let order: Vec<u64> = (0..4).map(|_| h.pop().unwrap().identity.id).collect();
        assert_eq!(order, vec![3, 2, 4, 1]);
    }

    #[test]
    fn requeue_ignores_capacity_and_close() {
        let h = DispatchHeap::new(1);
        assert!(h.push(ready(1, Priority::Standard, 5)).is_ok());
        h.requeue(ready(2, Priority::Standard, 50));
        assert_eq!(h.len(), 2);
        h.close();
        assert!(h.push(ready(3, Priority::Standard, 1)).is_err());
        h.requeue(ready(4, Priority::Expedited, 1));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|j| j.identity.id)).collect();
        assert_eq!(order, vec![4, 2, 1]);
    }

    #[test]
    fn estimate_is_positive_and_monotone_in_app_size() {
        let small = prepare_vetting(generate_app(0, 11, &GenConfig::tiny()));
        assert!(work_estimate(&small) > 0);
    }

    #[test]
    fn estimate_never_zero_for_degenerate_apps() {
        // An empty program has zero statements and zero variables; its
        // estimate must still be positive so it can't sink below every
        // other job forever.
        let program = gdroid_ir::ProgramBuilder::new().finish();
        let prep = prepare_vetting(gdroid_apk::App {
            name: "empty".into(),
            category: gdroid_apk::Category::Tools,
            seed: 0,
            program,
            manifest: gdroid_apk::Manifest::default(),
        });
        assert_eq!(prep.app.program.total_statements(), 0, "fixture must be degenerate");
        assert!(work_estimate(&prep) >= 1);
    }

    #[test]
    fn aged_light_job_beats_steady_expedited_stream() {
        // A light Standard job must not starve behind an endless stream
        // of heavy Expedited arrivals: after STARVATION_BOUND pops go by
        // it outranks them all.
        let h = DispatchHeap::new(64);
        assert!(h.push(ready(1, Priority::Standard, 1)).is_ok());
        let mut light_popped_after = None;
        for i in 0..STARVATION_BOUND + 2 {
            assert!(h.push(ready(100 + i, Priority::Expedited, 1_000_000)).is_ok());
            let j = h.pop().unwrap();
            if j.identity.id == 1 {
                light_popped_after = Some(i);
                break;
            }
            assert!(j.identity.priority == Priority::Expedited);
        }
        assert_eq!(
            light_popped_after,
            Some(STARVATION_BOUND),
            "light job must pop right when its age crosses the bound"
        );
    }

    #[test]
    fn try_pop_coresident_respects_block_demand() {
        let h = DispatchHeap::new(8);
        let mut big = ready(1, Priority::Expedited, 1000);
        big.block_demand = 100;
        let mut small = ready(2, Priority::Standard, 10);
        small.block_demand = 3;
        assert!(h.push(big).is_ok());
        assert!(h.push(small).is_ok());
        // Only the small job fits ten remaining slots, despite the big
        // one's higher priority.
        let plan = ExecPlan::default();
        let j = h.try_pop_coresident(10, &plan).expect("small job fits");
        assert_eq!(j.identity.id, 2);
        // Nothing else fits; the big job stays queued, never blocking.
        assert!(h.try_pop_coresident(10, &plan).is_none());
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop().unwrap().identity.id, 1);
    }

    #[test]
    fn a_top_up_joins_only_the_leaders_plan() {
        let h = DispatchHeap::new(8);
        let targeted = ExecPlan { targeted: true, ..ExecPlan::default() };
        let mut fast = ready(1, Priority::Expedited, 1000);
        fast.plan = targeted;
        assert!(h.push(fast).is_ok());
        assert!(h.push(ready(2, Priority::Background, 1)).is_ok());
        let mut fast = ready(3, Priority::Standard, 10);
        fast.plan = targeted;
        assert!(h.push(fast).is_ok());
        // The targeted jobs outrank the full one for a normal pop, but a
        // full leader's top-up must skip them even with ample block slots.
        let full = ExecPlan::default();
        assert_eq!(h.try_pop_coresident(u64::MAX, &full).expect("a full job").identity.id, 2);
        assert!(h.try_pop_coresident(u64::MAX, &full).is_none());
        // A targeted leader's top-up takes only targeted jobs, by urgency.
        assert_eq!(h.try_pop_coresident(u64::MAX, &targeted).expect("targeted").identity.id, 1);
        assert_eq!(h.try_pop_coresident(u64::MAX, &targeted).expect("targeted").identity.id, 3);
        assert!(h.is_empty());
    }

    #[test]
    fn block_demand_is_positive_and_bounded_by_methods() {
        let prep = prepare_vetting(generate_app(0, 12, &GenConfig::tiny()));
        let d = block_demand(&prep);
        assert!(d >= 1);
        assert!(d <= prep.app.program.methods.len() as u64);
    }
}
