//! One measuring lane of a `figures` experiment: a plan, an optional
//! summary store and a long-lived Tesla P40, with the identity asserts
//! and verdict collection every plan-A-versus-plan-B sweep repeats.
//!
//! Both GPU drivers `Device::reset` before they run, so for the untraced
//! runs measured here a lane's device is equivalent to a fresh one per
//! app; only the lifetime counters ([`Lane::launches`]) accumulate.

use gdroid_campaign::fold::verdict_line;
use gdroid_core::BatchStats;
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_serve::fnv1a;
use gdroid_sumstore::SumStore;
use gdroid_vetting::{
    execute, execute_vetting_batch_on_device, ExecCtx, ExecPlan, Executed, PreparedApp,
    VettingOutcome, VettingRun,
};

/// A plan run app after app on one fault-free device.
pub struct Lane<'s> {
    plan: ExecPlan,
    store: Option<&'s SumStore>,
    device: Device,
    /// Summed modeled IDFG time of every [`Lane::run`] so far (ns).
    pub idfg_ns: f64,
}

impl<'s> Lane<'s> {
    /// A store-free lane.
    pub fn new(plan: ExecPlan) -> Lane<'s> {
        Lane { plan, store: None, device: Device::new(DeviceConfig::tesla_p40()), idfg_ns: 0.0 }
    }

    /// A lane whose runs consult and feed `store`.
    pub fn with_store(plan: ExecPlan, store: &'s SumStore) -> Lane<'s> {
        Lane { store: Some(store), ..Lane::new(plan) }
    }

    /// Vets one app under the lane's plan.
    pub fn run(&mut self, prep: &PreparedApp) -> Executed {
        let ctx = &mut ExecCtx { store: self.store, ..ExecCtx::new(&mut self.device) };
        let done = execute(prep, self.plan, ctx).expect("no fault plan installed");
        self.idfg_ns += done.run.outcome.timing.idfg_ns;
        done
    }

    /// Vets `preps` as one co-resident group, asserting every member's
    /// outcome byte-identical to its `solo` outcome and the group makespan
    /// no worse than the members' summed solo makespans (launch and
    /// transfer overheads are shared, never added).
    pub fn run_group(&mut self, preps: &[&PreparedApp], solo: &[VettingOutcome]) -> BatchStats {
        let (runs, batch) = execute_vetting_batch_on_device(preps, &mut self.device, self.plan)
            .expect("no fault plan installed");
        for (run, solo) in runs.iter().zip(solo) {
            assert_eq!(run.outcome.to_json(), solo.to_json(), "a batched app diverged from solo");
        }
        let solo_ns: f64 = solo.iter().map(|o| o.timing.idfg_ns).sum();
        assert!(
            batch.makespan_ns <= solo_ns * 1.000001,
            "group makespan {} exceeds summed solo {solo_ns}",
            batch.makespan_ns
        );
        batch
    }

    /// Kernel launches the lane's device has performed.
    pub fn launches(&self) -> u64 {
        self.device.launches()
    }
}

/// Asserts two runs of one app reached the byte-identical report.
pub fn assert_same_report(a: &VettingRun, b: &VettingRun, what: std::fmt::Arguments<'_>) {
    assert_eq!(a.outcome.report.to_json(), b.outcome.report.to_json(), "{what}: verdict diverged");
}

/// The per-app verdict lines of a streamed sweep, in campaign format.
#[derive(Default)]
pub struct Verdicts {
    lines: String,
    /// Apps with at least one leak.
    pub suspicious: usize,
}

impl Verdicts {
    /// Records corpus app `index`'s verdict.
    pub fn push(&mut self, index: usize, prep: &PreparedApp, run: &VettingRun) {
        let report = &run.outcome.report;
        self.suspicious += usize::from(!report.leaks.is_empty());
        let hash = fnv1a(report.to_json().as_bytes());
        let verdict = format!("{:?}", report.verdict);
        self.lines += &verdict_line(index, &prep.app.manifest.package, &verdict, hash);
        self.lines.push('\n');
    }

    /// FNV-1a over the lines pushed so far.
    pub fn digest(&self) -> u64 {
        fnv1a(self.lines.as_bytes())
    }
}
