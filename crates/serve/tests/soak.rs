//! Soak test: 100 jobs through the service under injected device faults.
//!
//! Checks the service's core contracts end to end:
//! * every admitted job completes exactly once;
//! * every verdict is bit-identical to a sequential `vet_app` run;
//! * cache hits return reports identical to computed ones;
//! * injected faults are retried, not dropped, and nothing is
//!   quarantined when the retry budget covers the fault budget;
//! * an updated app takes the incremental path and still matches a
//!   from-scratch run;
//! * a job's identity does not depend on how it arrived or which lane it
//!   takes: an on-disk bundle is keyed by its bytes and shares the entry
//!   of the seed job that generated it, an updated bundle warm-starts, and
//!   every lane publishes the same content hash.

use gdroid_apk::{generate_app, App, GenConfig};
use gdroid_core::OptConfig;
use gdroid_gpusim::FaultPlan;
use gdroid_serve::{
    CacheDisposition, JobSource, JobStatus, Priority, ServiceConfig, VettingService,
};
use gdroid_vetting::{vet_app, Engine, ExecPlan};
use std::collections::{HashMap, HashSet};

const DISTINCT_APPS: usize = 12;
const JOBS: usize = 100;

fn corpus_app(i: usize) -> App {
    generate_app(i, 9000 + i as u64, &GenConfig::tiny())
}

#[test]
fn soak_100_jobs_with_faults() {
    // Sequential reference verdicts, one per distinct app.
    let reference: Vec<String> = (0..DISTINCT_APPS)
        .map(|i| vet_app(corpus_app(i), Engine::Gpu(OptConfig::gdroid())).report.to_json())
        .collect();

    // 2 devices × fault budget 3 → at most 6 faults; retry budget 8 per
    // job makes quarantine impossible while guaranteeing retries happen.
    let svc = VettingService::start(ServiceConfig {
        prep_workers: 3,
        devices: 2,
        queue_capacity: 32,
        max_retries: 8,
        fault_plan: Some(FaultPlan { period: 11, budget: 3 }),
        ..ServiceConfig::default()
    });

    let mut expected_ids = HashSet::new();
    for j in 0..JOBS {
        let i = j % DISTINCT_APPS;
        let priority = Priority::ALL[j % Priority::ALL.len()];
        let id = svc
            .submit(
                priority,
                JobSource::Seed {
                    index: i,
                    seed: 9000 + i as u64,
                    config: Box::new(GenConfig::tiny()),
                },
            )
            .expect("queue accepts with backpressure");
        assert!(expected_ids.insert(id), "duplicate job id {id}");
    }

    let (report, results) = svc.drain();

    // Exactly once: one terminal result per admitted id.
    assert_eq!(results.len(), JOBS, "every job must produce exactly one result");
    let result_ids: HashSet<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(result_ids, expected_ids, "result ids must match submitted ids");
    assert_eq!(report.counters.submitted, JOBS as u64);
    assert_eq!(report.counters.completed, JOBS as u64);

    // No job may be dropped or quarantined under this fault/retry budget.
    assert_eq!(report.counters.quarantined, 0, "quarantine must be impossible here");
    for r in &results {
        assert_eq!(r.status, JobStatus::Completed, "job {} not completed", r.id);
    }

    // Verdict parity: service outcomes (computed, cached, or incremental)
    // are bit-identical to the sequential reference.
    let mut hits = 0u64;
    for r in &results {
        // Recover the app index from the package the job reported.
        let i = (0..DISTINCT_APPS)
            .find(|&i| corpus_app(i).manifest.package == r.package)
            .unwrap_or_else(|| panic!("job {} has unknown package {}", r.id, r.package));
        let outcome = r.outcome.as_ref().expect("completed job carries an outcome");
        assert_eq!(
            outcome.report.to_json(),
            reference[i],
            "job {} (app {i}) verdict diverges from sequential vet_app",
            r.id
        );
        if r.cache == CacheDisposition::Hit {
            hits += 1;
            assert_eq!(r.attempts, 0, "cache hits never touch a device");
        }
    }

    // 100 jobs over 12 distinct apps must produce plenty of cache hits.
    // (Duplicates racing in flight before the first copy lands in the
    // cache legitimately miss, so the bound is loose.)
    assert!(hits >= 20, "only {hits} cache hits across {JOBS} jobs of {DISTINCT_APPS} apps");
    assert_eq!(report.cache.hits, hits);

    // Faults were injected and every one was retried, not dropped.
    assert!(report.device_faults > 0, "fault plan never fired");
    assert_eq!(report.counters.faults, report.device_faults);
    assert_eq!(
        report.counters.retries, report.counters.faults,
        "every fault must be retried (no timeouts, no quarantine here)"
    );
    let faults_seen: u64 = results.iter().map(|r| u64::from(r.faults_seen)).sum();
    assert_eq!(faults_seen, report.device_faults, "fault attribution must add up");
}

/// Simulates an app update the way the incremental-analysis tests do:
/// rewrites the tail of one method (alloc into a ref var, then return).
fn mutated(mut app: App) -> App {
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
    let ret = method.body[StmtIdx::new(method.len() - 1)].clone();
    let (ref_var, ty) = method
        .vars
        .iter_enumerated()
        .find(|(_, d)| d.ty.is_reference())
        .map(|(v, d)| (v, d.ty))
        .unwrap();
    let last = StmtIdx::new(method.body.len() - 1);
    method.body[last] = Stmt::Assign { lhs: Lhs::Var(ref_var), rhs: Expr::New { ty } };
    method.body.push(ret);
    app.program.rebuild_lookups();
    app
}

#[test]
fn updated_app_takes_incremental_path_and_matches() {
    let base = || generate_app(50, 7777, &GenConfig::tiny());
    let reference_updated =
        vet_app(mutated(base()), Engine::Gpu(OptConfig::gdroid())).report.to_json();

    let svc = VettingService::start(ServiceConfig {
        prep_workers: 1,
        devices: 1,
        ..ServiceConfig::default()
    });
    svc.submit(Priority::Standard, JobSource::App(Box::new(base()))).unwrap();
    svc.wait_for(1); // the update must observe the cached first version
    svc.submit(Priority::Standard, JobSource::App(Box::new(mutated(base())))).unwrap();
    let (report, results) = svc.drain();

    assert_eq!(results.len(), 2);
    let by_id: HashMap<u64, _> = results.iter().map(|r| (r.id, r)).collect();
    assert_eq!(by_id[&0].cache, CacheDisposition::Miss);
    let updated = by_id[&1];
    let CacheDisposition::Incremental { resolved, reused } = updated.cache else {
        panic!("update did not take the incremental path: {:?}", updated.cache);
    };
    assert!(resolved >= 1, "the mutated method must be re-solved");
    assert!(reused > 0, "unchanged methods must be reused");
    assert_eq!(
        updated.outcome.as_ref().unwrap().report.to_json(),
        reference_updated,
        "incremental verdict diverges from a from-scratch run"
    );
    assert_eq!(report.cache.invalidations, 1, "the stale entry must be invalidated");
    assert_eq!(report.counters.cache_incremental, 1);
}

/// A fresh scratch directory for one test's bundles.
fn bundle_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gdroid-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn one_worker_service() -> VettingService {
    VettingService::start(ServiceConfig { prep_workers: 1, devices: 1, ..ServiceConfig::default() })
}

#[test]
fn a_bundle_is_keyed_by_its_bytes_and_shares_the_seed_jobs_entry() {
    let seed_job =
        || JobSource::Seed { index: 51, seed: 7778, config: Box::new(GenConfig::tiny()) };
    let app = generate_app(51, 7778, &GenConfig::tiny());
    let root = bundle_root("bytes-key");
    let (canonical, reformatted) = (root.join("canonical"), root.join("reformatted"));
    gdroid_apk::save_bundle(&app, &canonical).unwrap();
    gdroid_apk::save_bundle(&app, &reformatted).unwrap();
    // The same program, one blank line longer: parses identically, but is
    // not the byte string `save_bundle` writes.
    let jil = std::fs::read_to_string(reformatted.join("app.jil")).unwrap();
    std::fs::write(reformatted.join("app.jil"), format!("\n{jil}")).unwrap();

    let svc = one_worker_service();
    svc.submit(Priority::Standard, seed_job()).unwrap();
    svc.wait_for(1);
    svc.submit(Priority::Standard, JobSource::Bundle(canonical)).unwrap();
    svc.wait_for(2);
    svc.submit(Priority::Standard, JobSource::Bundle(reformatted)).unwrap();
    let (report, results) = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();

    assert!(results.iter().all(|r| r.status == JobStatus::Completed));
    let [seeded, hit, miss] = &results[..] else { panic!("three jobs, three results") };
    assert_eq!(seeded.cache, CacheDisposition::Miss);
    assert_eq!(seeded.content_hash, gdroid_serve::app_content_hash(&app));
    // Bytes on disk == the generated app's canonical content: one entry.
    assert_eq!(hit.cache, CacheDisposition::Hit);
    assert_eq!(hit.content_hash, seeded.content_hash);
    assert_eq!(hit.package, app.manifest.package, "a hit reads its package off the manifest");
    // Other bytes are another key: never a wrong hit, and the same verdict
    // (from a full run — the generated and the parsed program intern in
    // different orders, so the stale entry cannot seed a warm start).
    assert_eq!(miss.cache, CacheDisposition::Miss);
    assert_ne!(miss.content_hash, seeded.content_hash);
    assert_eq!(miss.package, app.manifest.package);
    assert_eq!(
        miss.outcome.as_ref().unwrap().report.to_json(),
        hit.outcome.as_ref().unwrap().report.to_json(),
    );
    assert_eq!((report.cache.hits, report.cache.misses), (1, 2));
}

#[test]
fn an_updated_bundle_still_warm_starts_from_the_cached_version() {
    let base = generate_app(50, 7777, &GenConfig::tiny());
    let root = bundle_root("v2");
    let (v1, v2) = (root.join("v1"), root.join("v2"));
    gdroid_apk::save_bundle(&base, &v1).unwrap();
    gdroid_apk::save_bundle(&mutated(base), &v2).unwrap();

    let svc = one_worker_service();
    svc.submit(Priority::Standard, JobSource::Bundle(v1)).unwrap();
    svc.wait_for(1);
    svc.submit(Priority::Standard, JobSource::Bundle(v2)).unwrap();
    let (report, results) = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();

    assert_eq!(results[0].cache, CacheDisposition::Miss);
    // Pinned from the commit before the bundle's content hash became its
    // bytes: the warm start diffs the same per-method hashes as ever.
    assert_eq!(results[1].cache, CacheDisposition::Incremental { resolved: 1, reused: 22 });
    assert_eq!(report.counters.cache_incremental, 1);
}

#[test]
fn every_lane_publishes_the_content_hash_of_its_source() {
    let source = || JobSource::Seed { index: 52, seed: 7779, config: Box::new(GenConfig::tiny()) };
    let want = gdroid_serve::app_content_hash(&generate_app(52, 7779, &GenConfig::tiny()));
    assert_ne!(want, 0);

    let classic = one_worker_service();
    classic.submit(Priority::Standard, source()).unwrap();
    // The fast lane skips the per-method hashes; the content hash is not
    // theirs to skip.
    classic.submit_targeted(source()).unwrap();
    let persistent = VettingService::start(ServiceConfig {
        prep_workers: 1,
        devices: 1,
        plan: ExecPlan { exec: gdroid_core::ExecMode::Persistent, ..ExecPlan::default() },
        ..ServiceConfig::default()
    });
    persistent.submit(Priority::Standard, source()).unwrap();

    let (_, mut results) = classic.drain();
    results.extend(persistent.drain().1);
    assert_eq!(results.len(), 3);
    for r in &results {
        assert_eq!(r.status, JobStatus::Completed);
        assert_eq!(r.content_hash, want, "job {} ({:?})", r.id, r.cache);
    }
}
