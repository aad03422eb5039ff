//! The `figures serve` experiment: service-throughput scaling.
//!
//! Two sweeps over the in-process vetting service, emitted as
//! `BENCH_serve.json`:
//!
//! 1. **Scaling** — apps/sec for a fixed job stream across a grid of
//!    (prep workers × devices), demonstrating that prep/execute overlap
//!    and the per-device executors actually scale.
//! 2. **Cache-hit sweep** — the same stream re-submitted with increasing
//!    duplication factors, showing throughput as a function of hit rate.
//!
//! Wall-clock throughput is machine-dependent; the emitted JSON is for
//! plotting shape, not for byte-stable comparison.

use gdroid_apk::GenConfig;
use gdroid_serve::{JobSource, Priority, ServiceConfig, ServiceReport, VettingService};
use gdroid_trace::JsonWriter;

/// One measured service run.
pub struct ServePoint {
    /// Prep (host-side) worker threads.
    pub workers: usize,
    /// Simulated devices in the pool.
    pub devices: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Distinct apps behind those jobs (jobs / distinct = duplication).
    pub distinct: usize,
    /// The drained service report.
    pub report: ServiceReport,
}

impl ServePoint {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("workers").int(self.workers);
            w.key("devices").int(self.devices);
            w.key("jobs").int(self.jobs);
            w.key("distinct").int(self.distinct);
            w.key("apps_per_sec").fixed(self.report.apps_per_sec, 3);
            w.key("cache_hit_rate")
                .fixed(self.report.cache.hits as f64 / self.jobs.max(1) as f64, 3);
            self.report.write_json(w.key("report"));
        })
    }
}

/// Runs `jobs` submissions spread over `distinct` apps on a service with
/// the given worker/device counts and returns the drained report.
///
/// When `jobs > distinct`, the distinct prefix is submitted first and the
/// service is fenced (`wait_for`) before the duplicates go in, so every
/// duplicate is a guaranteed cache hit — the hit *rate* is the controlled
/// variable of the sweep, not a race outcome.
pub fn run_service(workers: usize, devices: usize, jobs: usize, distinct: usize) -> ServePoint {
    let svc = VettingService::start(ServiceConfig {
        prep_workers: workers,
        devices,
        queue_capacity: jobs.max(1),
        ..ServiceConfig::default()
    });
    let source = |i: usize| JobSource::Seed {
        index: i % distinct,
        seed: 0x5eed ^ (i % distinct) as u64,
        config: Box::new(GenConfig::tiny()),
    };
    for i in 0..distinct.min(jobs) {
        svc.submit(Priority::Standard, source(i)).expect("queue sized for the whole run");
    }
    if jobs > distinct {
        svc.wait_for(distinct as u64);
        for i in distinct..jobs {
            svc.submit(Priority::ALL[i % Priority::ALL.len()], source(i))
                .expect("queue sized for the whole run");
        }
    }
    let (report, results) = svc.drain();
    assert_eq!(results.len(), jobs, "service lost or duplicated jobs");
    ServePoint { workers, devices, jobs, distinct, report }
}

/// Runs both sweeps and returns `(json, human_summary)`.
pub fn serve_benchmark(jobs: usize) -> (String, String) {
    let jobs = jobs.max(8);
    let mut scaling = Vec::new();
    for (workers, devices) in [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)] {
        scaling.push(run_service(workers, devices, jobs, jobs));
    }
    // Duplication factors 1, 2, 4, 8 → hit rates ~0, .5, .75, .875.
    let mut cache = Vec::new();
    for dup in [1usize, 2, 4, 8] {
        cache.push(run_service(2, 2, jobs, (jobs / dup).max(1)));
    }

    let mut summary = String::from("apps/sec vs workers x devices\n");
    for p in &scaling {
        summary.push_str(&format!(
            "  {}w x {}d: {:>8.2} apps/s  (exec p95 {:.2} ms)\n",
            p.workers,
            p.devices,
            p.report.apps_per_sec,
            p.report.exec_wall.p95_ns as f64 / 1e6,
        ));
    }
    summary.push_str("cache-hit sweep (2w x 2d)\n");
    for p in &cache {
        summary.push_str(&format!(
            "  {:>3} distinct / {} jobs: hit rate {:.2}, {:>8.2} apps/s\n",
            p.distinct,
            p.jobs,
            p.report.cache.hits as f64 / p.jobs as f64,
            p.report.apps_per_sec,
        ));
    }

    let json = JsonWriter::render(|w| {
        w.object(|w| {
            w.key("scaling").array(|w| scaling.iter().for_each(|p| p.write_json(w)));
            w.key("cache_sweep").array(|w| cache.iter().for_each(|p| p.write_json(w)));
        })
    });
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_service_completes_all_jobs() {
        let p = run_service(2, 2, 6, 3);
        assert_eq!(p.report.counters.completed, 6);
        assert_eq!(p.report.counters.quarantined, 0);
        // The duplicate half is fenced behind `wait_for`, so it must hit.
        assert_eq!(p.report.cache.hits, 3);
        assert!(JsonWriter::render(|w| p.write_json(w)).contains("\"cache_hit_rate\":0.500"));
    }
}
