//! Tier-1 gate for store-scale campaigns: every journaled verdict must
//! match the single-app engine reference byte for byte (via the report
//! FNV fingerprint), a rerun over the same directory must resume without
//! re-executing anything, and the fleet report must be byte-stable
//! across reruns.

use gdroid::apk::{generate_app, GenConfig};
use gdroid::campaign::{run_campaign, CampaignConfig, RecordStatus};
use gdroid::core::OptConfig;
use gdroid::serve::fnv1a;
use gdroid::vetting::{vet_app, Engine};
use std::path::PathBuf;

const APPS: usize = 8;
const SHARDS: usize = 2;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdroid-campaign-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn campaign_config(dir: PathBuf) -> CampaignConfig {
    CampaignConfig {
        gen: GenConfig::tiny(),
        prep_workers: 1,
        devices: 1,
        ..CampaignConfig::new(APPS, SHARDS, dir)
    }
}

#[test]
fn campaign_verdicts_match_the_engine_reference() {
    let dir = tmp_dir("reference");
    let config = campaign_config(dir.clone());
    let outcome = run_campaign(&config).unwrap();
    assert_eq!(outcome.fleet.completed, APPS);
    assert_eq!(outcome.fleet.records.len(), APPS);

    // Every record's report fingerprint must equal a from-scratch
    // sequential vet of the same (index, seed, profile) app.
    let corpus = gdroid::apk::Corpus {
        master_seed: config.master_seed,
        size: APPS,
        config: config.gen.clone(),
    };
    for record in &outcome.fleet.records {
        let app = generate_app(record.index, corpus.seed_for(record.index), &config.gen);
        assert_eq!(record.package, app.manifest.package);
        let reference = vet_app(app, Engine::Gpu(OptConfig::gdroid()));
        assert_eq!(
            record.report_fnv,
            fnv1a(reference.report.to_json().as_bytes()),
            "app {}: journaled verdict diverged from the engine reference",
            record.index
        );
        assert_eq!(record.verdict, format!("{:?}", reference.report.verdict));
        assert_eq!(record.leaks, reference.report.leaks.len());
        assert_eq!(record.status, RecordStatus::Completed);
        assert!(
            (record.idfg_ns - reference.timing.idfg_ns).abs() < 0.1,
            "app {}: journaled modeled time diverged",
            record.index
        );
    }

    // Rerunning over the same journals executes nothing and reproduces
    // the report byte for byte.
    let rerun = run_campaign(&config).unwrap();
    assert_eq!(rerun.executed, 0);
    assert_eq!(rerun.resumed, APPS);
    assert_eq!(rerun.fleet.to_json(), outcome.fleet.to_json());

    // The merged live report still accounts every result exactly once
    // per run (this run's services saw zero submissions).
    assert_eq!(outcome.service.counters.completed, APPS as u64);
    assert_eq!(rerun.service.counters.completed, 0);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn campaign_traces_cover_every_executed_app() {
    let dir = tmp_dir("traces");
    let trace_dir = tmp_dir("traces-out");
    let mut config = campaign_config(dir.clone());
    config.trace_dir = Some(trace_dir.clone());
    run_campaign(&config).unwrap();
    for shard in 0..SHARDS {
        let shard_dir = trace_dir.join(format!("shard-{shard}"));
        let mut traces: Vec<_> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        traces.sort();
        let expected: Vec<String> =
            (shard..APPS).step_by(SHARDS).map(|i| format!("job-{i:06}.json")).collect();
        assert_eq!(traces, expected, "shard {shard} trace files");
        let body = std::fs::read_to_string(shard_dir.join(&traces[0])).unwrap();
        assert!(body.contains("\"traceEvents\""), "trace must be Chrome-format JSON");
    }
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(trace_dir).ok();
}

/// With the library store attached, an app's journaled record is a
/// function of the app alone: the frozen store is built once and read by
/// every shard, so one shard, worker, device and no co-residency journal
/// the same timings, counts and report fingerprints as two shards of four
/// workers, two devices and groups of four.
#[test]
fn frozen_store_records_do_not_depend_on_the_topology() {
    let journal = |shards: usize, workers: usize, devices: usize, coresident: usize| {
        let dir = tmp_dir(&format!("topology-{shards}-{workers}-{devices}-{coresident}"));
        let config = CampaignConfig {
            gen: GenConfig::tiny().with_libraries(3, 6),
            prep_workers: workers,
            devices,
            coresident,
            sumstore: true,
            ..CampaignConfig::new(16, shards, dir.clone())
        };
        let outcome = run_campaign(&config).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(outcome.fleet.completed, 16);
        assert!(outcome.service.sumstore.hits > 0, "the library store was never hit");
        let mut records: Vec<_> = outcome
            .fleet
            .records
            .iter()
            .map(|r| {
                let timing = (r.idfg_ns.to_bits(), r.taint_ns.to_bits());
                (r.index, timing, r.rounds, r.nodes, r.report_fnv)
            })
            .collect();
        records.sort_unstable();
        (records, outcome.service.sumstore.hits)
    };
    let (one, one_hits) = journal(1, 1, 1, 1);
    let (wide, wide_hits) = journal(2, 4, 2, 4);
    assert_eq!(one.len(), 16);
    assert_eq!(one, wide, "a journaled record moved with the topology");
    assert_eq!(one_hits, wide_hits);
}
