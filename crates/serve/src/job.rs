//! Job descriptions, priorities, and per-job results.

use gdroid_apk::{App, GenConfig};
use gdroid_trace::JsonWriter;
use gdroid_vetting::{ExecPlan, VettingOutcome};
use std::path::PathBuf;
use std::time::Instant;

/// Priority classes of the submission queue. Higher classes are always
/// dispatched before lower ones; within a class jobs are FIFO.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Bulk re-scans; served only when nothing else waits.
    Background,
    /// The default class for newly submitted apps.
    #[default]
    Standard,
    /// Jump-the-queue re-checks (e.g. a reviewer waiting on a verdict).
    Expedited,
}

impl Priority {
    /// All classes, lowest first (indexable by `as usize`).
    pub const ALL: [Priority; 3] = [Priority::Background, Priority::Standard, Priority::Expedited];

    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Background => "background",
            Priority::Standard => "standard",
            Priority::Expedited => "expedited",
        }
    }
}

/// Where the app bytes of a job come from.
pub enum JobSource {
    /// An already-loaded app (in-process submission).
    App(Box<App>),
    /// A synthetic app, generated by the prep worker from a seed.
    Seed {
        /// App index passed to the generator (determines the package name).
        index: usize,
        /// Generator seed.
        seed: u64,
        /// Generator configuration.
        config: Box<GenConfig>,
    },
    /// An on-disk bundle directory (`app.jil` + `manifest.txt`).
    Bundle(PathBuf),
}

/// One accepted submission, as it sits in the queue.
pub struct JobSpec {
    /// Service-assigned id (dense, submission order).
    pub id: u64,
    /// Priority class.
    pub priority: Priority,
    /// The app source.
    pub source: JobSource,
    /// When the submit queue admitted the job (queue-wait clock starts
    /// here): stamped under the queue's lock, so a submitter's wait for
    /// space is not queue wait.
    pub submitted_at: Instant,
    /// How the job runs: engine, and whether it takes the
    /// demand-driven fast lane. The plan's lane predicates
    /// ([`ExecPlan::cacheable`] and friends) decide which of the result
    /// cache, the warm start and co-resident batching the job
    /// may use; verdicts and facts are byte-identical under every plan.
    pub plan: ExecPlan,
}

/// How the result cache participated in a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// No usable previous state; full analysis ran.
    Miss,
    /// Content hash matched; the cached outcome was returned verbatim.
    Hit,
    /// Same package, different content: a warm start against the previous
    /// version's summary store, whose hits were pre-solved and whose misses
    /// alone were scheduled on the device.
    Incremental {
        /// Store misses: reachable methods solved on the device.
        resolved: usize,
        /// Store hits: reachable methods pre-solved, never scheduled.
        reused: usize,
    },
}

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced a vetting outcome.
    Completed,
    /// The job failed (fault or timeout) on every allowed attempt and was
    /// set aside as a poison job.
    Quarantined,
    /// The job could not be started at all (e.g. unreadable bundle).
    Failed(String),
}

/// Everything the service reports back for one job. Exactly one result is
/// produced per admitted job.
pub struct JobResult {
    /// The id assigned at submission.
    pub id: u64,
    /// App package name (empty if the source never loaded).
    pub package: String,
    /// Priority class the job ran under.
    pub priority: Priority,
    /// FNV-1a content hash of the app bundle (0 if never loaded).
    pub content_hash: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// Cache participation.
    pub cache: CacheDisposition,
    /// The vetting outcome (present iff `status == Completed`).
    pub outcome: Option<VettingOutcome>,
    /// Execution attempts made (failures plus the final success, if any).
    pub attempts: u32,
    /// Injected device faults this job observed.
    pub faults_seen: u32,
    /// Wall-clock timeouts this job observed.
    pub timeouts_seen: u32,
    /// Wall-clock wait between admission and a prep worker picking it up.
    pub queue_wait_ns: u64,
    /// Wall-clock host-side prep time (load + hash + env/cg synthesis).
    pub prep_ns: u64,
    /// Wall-clock time of the final execution attempt.
    pub exec_wall_ns: u64,
}

/// What a [`JobResult`] takes from the job rather than from how it ended:
/// who the job is, what the host measured before dispatch, and what its
/// execution attempts have tallied so far. Created when a prep worker
/// picks the job up and carried by the [`crate::scheduler::ReadyJob`]
/// from then on.
#[derive(Default)]
pub(crate) struct JobIdentity {
    pub(crate) id: u64,
    pub(crate) priority: Priority,
    pub(crate) package: String,
    pub(crate) content_hash: u64,
    pub(crate) queue_wait_ns: u64,
    pub(crate) prep_ns: u64,
    /// Execution attempts finished so far, failed or not.
    pub(crate) attempts: u32,
    pub(crate) faults_seen: u32,
    pub(crate) timeouts_seen: u32,
}

impl JobResult {
    /// The one place a result is assembled.
    pub(crate) fn new(
        job: JobIdentity,
        status: JobStatus,
        cache: CacheDisposition,
        outcome: Option<VettingOutcome>,
        exec_wall_ns: u64,
    ) -> JobResult {
        JobResult {
            id: job.id,
            package: job.package,
            priority: job.priority,
            content_hash: job.content_hash,
            status,
            cache,
            outcome,
            attempts: job.attempts,
            faults_seen: job.faults_seen,
            timeouts_seen: job.timeouts_seen,
            queue_wait_ns: job.queue_wait_ns,
            prep_ns: job.prep_ns,
            exec_wall_ns,
        }
    }

    /// Deterministic-keyed JSON rendering (wall-clock fields vary run to
    /// run; the embedded `outcome` JSON is byte-stable per app).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("id").int(self.id);
            w.key("package").string(&self.package);
            w.key("priority").string(self.priority.as_str());
            w.key("content_hash").int(self.content_hash);
            w.key("status");
            match &self.status {
                JobStatus::Completed => w.string("completed"),
                JobStatus::Quarantined => w.string("quarantined"),
                JobStatus::Failed(reason) => w.object(|w| w.key("failed").string(reason)),
            }
            w.key("cache");
            match self.cache {
                CacheDisposition::Miss => w.string("miss"),
                CacheDisposition::Hit => w.string("hit"),
                CacheDisposition::Incremental { resolved, reused } => w.object(|w| {
                    w.key("incremental").object(|w| {
                        w.key("resolved").int(resolved);
                        w.key("reused").int(reused);
                    })
                }),
            }
            w.key("attempts").int(self.attempts);
            w.key("faults_seen").int(self.faults_seen);
            w.key("timeouts_seen").int(self.timeouts_seen);
            w.key("queue_wait_ns").int(self.queue_wait_ns);
            w.key("prep_ns").int(self.prep_ns);
            w.key("exec_wall_ns").int(self.exec_wall_ns);
            match &self.outcome {
                Some(outcome) => outcome.write_json(w.key("outcome")),
                None => w.key("outcome").null(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_and_labels() {
        assert!(Priority::Expedited > Priority::Standard);
        assert!(Priority::Standard > Priority::Background);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert!(!p.as_str().is_empty());
        }
    }

    #[test]
    fn result_json_shape() {
        let r = JobResult {
            id: 7,
            package: "com.gen.app0001".into(),
            priority: Priority::Standard,
            content_hash: 42,
            status: JobStatus::Completed,
            cache: CacheDisposition::Incremental { resolved: 2, reused: 9 },
            outcome: None,
            attempts: 1,
            faults_seen: 0,
            timeouts_seen: 0,
            queue_wait_ns: 10,
            prep_ns: 20,
            exec_wall_ns: 30,
        };
        let j = JsonWriter::render(|w| r.write_json(w));
        assert!(j.contains("\"id\":7"));
        assert!(j.contains("\"status\":\"completed\""));
        assert!(j.contains("\"resolved\":2"));
        assert!(j.ends_with("\"outcome\":null}"));
    }
}
