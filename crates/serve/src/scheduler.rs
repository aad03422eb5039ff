//! Dispatch stage: prepared jobs waiting for a device.
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
//! The stage is bounded: prep workers block in [`BestFirst::push`] once
//! `capacity` prepared apps are waiting, which is the double-buffer
//! overlap — at steady state each device executes one app while the prep
//! workers hold the next few ready behind it, and prep never runs
//! unboundedly ahead of execution. Retries, and jobs an executor prepped
//! itself, re-enter through [`BestFirst::requeue`].
//!
//! For co-resident batching, executors top up a popped job with
//! [`DispatchHeap::try_pop_coresident`]: a non-blocking pop restricted to
//! jobs under the popped job's plan whose widest-layer block demand fits
//! the device's remaining block slots.

use crate::job::{JobIdentity, Priority};
use crate::queue::{Arrival, BestFirst, Rank};
use gdroid_icfg::CallLayers;
use gdroid_sumstore::SumStore;
use gdroid_vetting::{ExecPlan, PreparedApp};
use std::cmp::Reverse;

/// Pops a job may watch go by before it outranks every non-aged job.
pub(crate) const STARVATION_BOUND: u64 = 8;

/// A prepared job, ready for device execution.
pub(crate) struct ReadyJob {
    /// Who the job is, what the host measured for it, and what its
    /// execution attempts tallied — carried into the final result.
    pub(crate) identity: JobIdentity,
    /// How the job runs (see [`crate::JobSpec::plan`]).
    pub(crate) plan: ExecPlan,
    /// Static work estimate (statements × state width), the LPT key.
    pub(crate) estimate: u64,
    /// Widest call-graph layer in blocks — the most block slots one of
    /// this job's kernel launches can demand at once (co-residency fit).
    pub(crate) block_demand: u64,
    /// The prepared app (program + environments + call graph + roots).
    pub(crate) prep: PreparedApp,
    /// The warm start the executor's cache lookup found, if any: the
    /// previous version's summary store. Kept across retries — the lookup
    /// consumed the cache entry.
    pub(crate) warm: Option<SumStore>,
}

/// Computes the static work estimate of a prepared app: total statements
/// times total variables.
pub(crate) fn work_estimate(prep: &PreparedApp) -> u64 {
    let p = &prep.app.program;
    // Both factors are guarded: a degenerate app (zero statements or zero
    // variables) must not carry estimate 0 and sink below every retry.
    (p.total_statements() as u64).max(1) * (p.total_vars() as u64).max(1)
}

/// Computes a prepared app's block demand: the widest call-graph layer,
/// i.e. the most thread blocks any one of its kernel launches can occupy.
pub(crate) fn block_demand(prep: &PreparedApp) -> u64 {
    let layers = CallLayers::compute(&prep.cg, &prep.roots);
    layers.layers.iter().map(Vec::len).max().unwrap_or(0).max(1) as u64
}

/// Aged entries first, then priority, then estimate (LPT), then earliest
/// id.
impl Rank for ReadyJob {
    type Key = (bool, Priority, u64, Reverse<u64>);

    fn rank(&self, arrival: Arrival) -> Self::Key {
        let aged = arrival.age >= STARVATION_BOUND;
        (aged, self.identity.priority, self.estimate, Reverse(self.identity.id))
    }
}

/// The dispatch stage between prep workers and executors.
pub(crate) type DispatchHeap = BestFirst<ReadyJob>;

impl DispatchHeap {
    /// Non-blocking pop of the most urgent ready job under `plan` whose
    /// block demand fits in `max_demand` block slots — how a
    /// batch-forming executor tops up a device with co-resident jobs: a
    /// group runs one plan, so targeted jobs batch with targeted jobs
    /// and full ones with full ones. Returns `None` when no waiting job
    /// fits (never blocks: an empty top-up just means the batch launches
    /// as-is).
    pub(crate) fn try_pop_coresident(&self, max_demand: u64, plan: &ExecPlan) -> Option<ReadyJob> {
        self.try_pop_where(|job| job.plan == *plan && job.block_demand <= max_demand)
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
