//! Campaign gates: kill/resume byte-identity and shard-layout
//! invariance, driven through the public API over real (tiny) corpora —
//! plus the snapshot-mode gates (rotated journals, incremental folds,
//! failed-record re-runs, and daily-delta campaigns).

use gdroid_apk::{Corpus, GenConfig};
use gdroid_campaign::{
    config_digest, effective_seed, journal_path, newest_segment, read_shard_records,
    read_shard_tail, run_campaign, segment_path, AppRecord, CampaignConfig, CampaignError,
    FleetReport, Journal, JournalError, JournalHeader, RecordStatus, SegmentedJournal, ShardFold,
    JOURNAL_VERSION,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gdroid-campaign-gate-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn tiny_campaign(dir: PathBuf, apps: usize, shards: usize) -> CampaignConfig {
    CampaignConfig {
        gen: GenConfig::tiny(),
        prep_workers: 1,
        devices: 1,
        ..CampaignConfig::new(apps, shards, dir)
    }
}

#[test]
fn killed_campaign_resumes_to_byte_identical_fleet_report() {
    // Uninterrupted reference run.
    let ref_dir = tmp_dir("resume-ref");
    let reference = run_campaign(&tiny_campaign(ref_dir.clone(), 10, 2)).unwrap();
    assert_eq!(reference.executed, 10);
    assert_eq!(reference.resumed, 0);
    assert_eq!(reference.fleet.completed, 10);

    // "Killed" run: complete once, then cut the shard-0 journal mid-line
    // (simulating a crash during an append) and resume.
    let kill_dir = tmp_dir("resume-kill");
    run_campaign(&tiny_campaign(kill_dir.clone(), 10, 2)).unwrap();
    let journal = journal_path(&kill_dir, 0);
    let bytes = std::fs::read(&journal).unwrap();
    // Drop the last ~1.5 records: everything after must be re-vetted.
    let cut = bytes.len() - 250;
    std::fs::write(&journal, &bytes[..cut]).unwrap();

    let resumed = run_campaign(&tiny_campaign(kill_dir.clone(), 10, 2)).unwrap();
    assert!(resumed.executed >= 1, "the truncated records must be re-executed");
    assert!(resumed.resumed >= 1, "the surviving records must be skipped");
    assert_eq!(resumed.executed + resumed.resumed, 10);
    assert_eq!(
        resumed.fleet.to_json(),
        reference.fleet.to_json(),
        "kill/resume must reproduce the uninterrupted fleet report byte for byte"
    );
    assert_eq!(resumed.fleet.verdict_lines(), reference.fleet.verdict_lines());

    std::fs::remove_dir_all(ref_dir).ok();
    std::fs::remove_dir_all(kill_dir).ok();
}

#[test]
fn shard_count_never_changes_a_verdict() {
    let solo_dir = tmp_dir("layout-1");
    let solo = run_campaign(&tiny_campaign(solo_dir.clone(), 9, 1)).unwrap();
    for shards in [2, 3] {
        let dir = tmp_dir(&format!("layout-{shards}"));
        let split = run_campaign(&tiny_campaign(dir.clone(), 9, shards)).unwrap();
        assert_eq!(split.fleet.shards, shards);
        assert_eq!(
            split.fleet.verdict_lines(),
            solo.fleet.verdict_lines(),
            "{shards}-shard campaign diverged from the 1-shard verdicts"
        );
        assert_eq!(split.fleet.verdict_digest, solo.fleet.verdict_digest);
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_dir_all(solo_dir).ok();
}

#[test]
fn resume_under_a_different_profile_is_refused() {
    let dir = tmp_dir("profile");
    run_campaign(&tiny_campaign(dir.clone(), 4, 1)).unwrap();
    let mut other = tiny_campaign(dir.clone(), 4, 1);
    other.plan.targeted = true;
    match run_campaign(&other) {
        Err(CampaignError::Journal(_)) => {}
        other => panic!(
            "a mode change must refuse the old journals, got {:?}",
            other.as_ref().map(|o| o.fleet.to_json()).map_err(|e| e.to_string())
        ),
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A journal record with the campaign's terminal-failure shape, crafted
/// through the public journal API so resume sees exactly what a crashed
/// run would have left behind.
fn stub_record(index: usize, status: RecordStatus, attempts: u32) -> AppRecord {
    AppRecord {
        index,
        seed: 0,
        package: format!("com.gen.app{index:04}"),
        status,
        verdict: "-".to_owned(),
        leaks: 0,
        report_fnv: 0,
        envgen_ns: 0.0,
        callgraph_ns: 0.0,
        idfg_ns: 0.0,
        taint_ns: 0.0,
        nodes: 0,
        rounds: 0,
        sliced_micros: None,
        attempts,
    }
}

#[test]
fn failed_records_rerun_on_resume_but_quarantined_stay_done() {
    // Regression for the resume done-set bug: a journaled `Failed` record
    // used to mark its app permanently done, so a transient host failure
    // silently shrank every resumed campaign. Failed apps must re-run
    // (their fresh record superseding the failure in the fold);
    // quarantined apps — which exhausted their retries — must not.
    let ref_dir = tmp_dir("failed-ref");
    let reference = run_campaign(&tiny_campaign(ref_dir.clone(), 6, 1)).unwrap();

    let dir = tmp_dir("failed-rerun");
    let config = tiny_campaign(dir.clone(), 6, 1);
    std::fs::create_dir_all(&dir).unwrap();
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        master_seed: config.master_seed,
        apps: config.apps,
        shards: config.shards,
        shard: 0,
        config_digest: config_digest(&config),
        update_ppm: 0,
        update_salt: 0,
    };
    {
        let mut journal = Journal::create(&journal_path(&dir, 0), &header).unwrap();
        journal.append(&stub_record(2, RecordStatus::Failed, 1)).unwrap();
        journal.append(&stub_record(4, RecordStatus::Quarantined, 3)).unwrap();
    }

    let outcome = run_campaign(&config).unwrap();
    assert_eq!(outcome.resumed, 1, "only the quarantined app is done");
    assert_eq!(outcome.executed, 5, "the failed app must be re-vetted");
    assert_eq!(outcome.fleet.failed, 0, "the re-run record supersedes the failure");
    assert_eq!(outcome.fleet.quarantined, 1);
    assert_eq!(outcome.fleet.completed, 5);
    // The superseding record carries the real verdict, byte-identical to
    // the uninterrupted run's.
    let verdict_of = |fleet: &FleetReport, index: usize| {
        fleet.records.iter().find(|r| r.index == index).map(|r| r.verdict.clone()).unwrap()
    };
    assert_eq!(verdict_of(&outcome.fleet, 2), verdict_of(&reference.fleet, 2));

    std::fs::remove_dir_all(ref_dir).ok();
    std::fs::remove_dir_all(dir).ok();
}

fn rotated_campaign(dir: PathBuf, apps: usize, shards: usize, rotate: usize) -> CampaignConfig {
    CampaignConfig { rotate_records: Some(rotate), ..tiny_campaign(dir, apps, shards) }
}

#[test]
fn rotated_campaign_folds_incrementally_and_survives_kills() {
    // Uninterrupted non-rotated reference: rotation must never change a
    // report byte.
    let plain_dir = tmp_dir("rotate-plain");
    let plain = run_campaign(&tiny_campaign(plain_dir.clone(), 10, 2)).unwrap();

    let ref_dir = tmp_dir("rotate-ref");
    let config = rotated_campaign(ref_dir.clone(), 10, 2, 3);
    let reference = run_campaign(&config).unwrap();
    assert!(segment_path(&ref_dir, 0, 1).exists(), "rotation must actually produce segments");
    assert_eq!(reference.fleet.to_json(), plain.fleet.to_json());
    // Incremental fold gate: the sealed-rollup fast path must be
    // byte-identical to the monolithic re-read of every segment.
    let mut all_records = Vec::new();
    for shard in 0..config.shards {
        all_records.push(read_shard_records(&ref_dir, shard).unwrap().1);
    }
    let monolithic = FleetReport::from_records(
        config.master_seed,
        config.apps,
        config_digest(&config),
        all_records,
    );
    assert_eq!(reference.fleet.to_json(), monolithic.to_json());

    // Kill inside the unsealed tail: cut the newest segment mid-record.
    let kill_dir = tmp_dir("rotate-kill-tail");
    let kill_cfg = rotated_campaign(kill_dir.clone(), 10, 2, 3);
    run_campaign(&kill_cfg).unwrap();
    let newest = newest_segment(&kill_dir, 0).unwrap();
    let tail = segment_path(&kill_dir, 0, newest);
    let bytes = std::fs::read(&tail).unwrap();
    std::fs::write(&tail, &bytes[..bytes.len().saturating_sub(40)]).unwrap();
    let resumed = run_campaign(&kill_cfg).unwrap();
    assert_eq!(resumed.fleet.to_json(), reference.fleet.to_json());

    // Kill at a segment boundary: the newest segment vanishes entirely
    // (crash between seal and successor creation, then the file lost);
    // resume recreates it from the predecessor's sealed footer and
    // re-vets exactly the lost records.
    let lost = read_shard_records(&kill_dir, 0).unwrap().1.len();
    std::fs::remove_file(segment_path(&kill_dir, 0, newest)).unwrap();
    let survivors = read_shard_records(&kill_dir, 0).unwrap().1.len();
    let resumed = run_campaign(&kill_cfg).unwrap();
    assert!(resumed.executed >= lost - survivors);
    assert_eq!(resumed.fleet.to_json(), reference.fleet.to_json());

    // Kill inside the newest segment's header line: recreated from the
    // predecessor footer, same outcome.
    let newest = newest_segment(&kill_dir, 0).unwrap();
    std::fs::write(segment_path(&kill_dir, 0, newest), b"gdroid-camp").unwrap();
    let resumed = run_campaign(&kill_cfg).unwrap();
    assert_eq!(resumed.fleet.to_json(), reference.fleet.to_json());

    std::fs::remove_dir_all(plain_dir).ok();
    std::fs::remove_dir_all(ref_dir).ok();
    std::fs::remove_dir_all(kill_dir).ok();
}

#[test]
fn from_folds_over_a_single_file_campaign_is_records_complete() {
    // One fold path for both layouts: a journal that never sealed hands
    // the fold every record, so the report can print its own verdicts; a
    // sealed segment's rollup cannot.
    let dir = tmp_dir("complete-single");
    let config = tiny_campaign(dir.clone(), 10, 2);
    let single = run_campaign(&config).unwrap();
    assert!(single.fleet.records_complete);
    let records = (0..2).map(|shard| read_shard_records(&dir, shard).unwrap().1).collect();
    let monolithic =
        FleetReport::from_records(config.master_seed, 10, config_digest(&config), records);
    assert_eq!(single.fleet.verdict_lines(), monolithic.verdict_lines());
    assert_eq!(single.fleet.to_json(), monolithic.to_json());

    let rotated_dir = tmp_dir("complete-rotated");
    let rotated = run_campaign(&rotated_campaign(rotated_dir.clone(), 10, 2, 3)).unwrap();
    assert!(!rotated.fleet.records_complete);
    assert_eq!(rotated.fleet.to_json(), monolithic.to_json());

    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(rotated_dir).ok();
}

#[test]
fn a_directory_in_the_other_layout_is_refused_not_read_past() {
    // Regression: `campaign --apps 12 --journal-dir D` followed by
    // `campaign --apps 12 --rotate 4 --scale 0.1 --journal-dir D
    // --verdicts V` used to exit 0 — the rotated writer never looked at
    // `shard-0.journal`, no header check saw the profile change, and the
    // verdict dump re-read the stale single file.
    let refused = |config: &CampaignConfig| match run_campaign(config) {
        Err(CampaignError::Journal(JournalError::Layout(message))) => message,
        other => panic!(
            "a mixed-layout directory must be refused, got {:?}",
            other.map(|o| o.fleet.verdict_lines()).map_err(|e| e.to_string())
        ),
    };
    let dir = tmp_dir("mixed");
    let plain = tiny_campaign(dir.clone(), 12, 1);
    let stale = run_campaign(&plain).unwrap().fleet.verdict_lines();
    let mut rotated = rotated_campaign(dir.clone(), 12, 1, 4);
    rotated.gen.scale *= 0.1;
    let message = refused(&rotated);
    assert!(message.contains("shard-0.journal ") && message.contains("--fresh"), "{message}");
    assert!(!segment_path(&dir, 0, 0).exists(), "a refused campaign journals nothing");
    // The directory is still the first campaign's, untouched.
    assert_eq!(run_campaign(&plain).unwrap().fleet.verdict_lines(), stale);

    // A delta base holding a shard in both layouts is refused the same
    // way: which file's records would be copied forward is not a guess.
    std::fs::copy(journal_path(&dir, 0), segment_path(&dir, 0, 0)).unwrap();
    let delta_dir = tmp_dir("mixed-delta");
    let mut delta = tiny_campaign(delta_dir.clone(), 12, 1);
    delta.delta_base = Some(dir.clone());
    let message = refused(&delta);
    assert!(message.contains("shard-0.journal.0"), "{message}");

    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(delta_dir).ok();
}

#[test]
fn delta_campaign_copies_unchanged_apps_and_revets_updates() {
    let base_dir = tmp_dir("delta-base");
    let base = run_campaign(&tiny_campaign(base_dir.clone(), 8, 1)).unwrap();

    // No updates: every app's effective seed matches the base, so the
    // whole campaign is a copy-forward and the report is byte-identical.
    let same_dir = tmp_dir("delta-same");
    let mut same_cfg = tiny_campaign(same_dir.clone(), 8, 1);
    same_cfg.delta_base = Some(base_dir.clone());
    let same = run_campaign(&same_cfg).unwrap();
    assert_eq!(same.copied, 8);
    assert_eq!(same.executed, 0);
    assert_eq!(same.fleet.to_json(), base.fleet.to_json());
    let delta = same.delta.expect("delta campaigns report their delta");
    assert_eq!((delta.copied, delta.revetted, delta.added, delta.verdict_flips), (8, 0, 0, 0));

    // A daily update perturbing some seeds: exactly the perturbed apps
    // re-vet; the rest copy forward.
    let corpus = Corpus { master_seed: same_cfg.master_seed, size: 8, config: GenConfig::tiny() };
    let (salt, changed) = (0u64..256)
        .map(|salt| {
            let changed = (0..8)
                .filter(|&i| effective_seed(&corpus, i, 400_000, salt) != corpus.seed_for(i))
                .count();
            (salt, changed)
        })
        .find(|&(_, changed)| (1..=7).contains(&changed))
        .expect("some salt perturbs a strict subset of 8 apps");
    let upd_dir = tmp_dir("delta-upd");
    let mut upd_cfg = tiny_campaign(upd_dir.clone(), 8, 1);
    upd_cfg.delta_base = Some(base_dir.clone());
    upd_cfg.update_ppm = 400_000;
    upd_cfg.update_salt = salt;
    let upd = run_campaign(&upd_cfg).unwrap();
    assert_eq!(upd.copied, 8 - changed);
    assert_eq!(upd.executed, changed);
    let delta = upd.delta.expect("delta campaigns report their delta");
    assert_eq!((delta.copied, delta.revetted, delta.added), (8 - changed, changed, 0));
    assert!(delta.verdict_flips <= changed);
    assert_eq!(upd.fleet.completed, 8);

    std::fs::remove_dir_all(base_dir).ok();
    std::fs::remove_dir_all(same_dir).ok();
    std::fs::remove_dir_all(upd_dir).ok();
}

#[test]
fn targeted_campaign_records_slices_and_agrees_on_verdicts() {
    let full_dir = tmp_dir("targeted-full");
    let full = run_campaign(&tiny_campaign(full_dir.clone(), 6, 1)).unwrap();
    let fast_dir = tmp_dir("targeted-fast");
    let mut cfg = tiny_campaign(fast_dir.clone(), 6, 1);
    cfg.plan.targeted = true;
    let fast = run_campaign(&cfg).unwrap();
    assert_eq!(fast.fleet.targeted_apps, 6);
    assert!(fast.fleet.mean_sliced_fraction > 0.0 && fast.fleet.mean_sliced_fraction <= 1.0);
    // The sliced fast lane must reach the full pipeline's verdicts.
    let verdicts = |r: &gdroid_campaign::FleetReport| {
        r.records.iter().map(|a| (a.index, a.verdict.clone(), a.leaks)).collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&fast.fleet), verdicts(&full.fleet));
    std::fs::remove_dir_all(full_dir).ok();
    std::fs::remove_dir_all(fast_dir).ok();
}

/// Expands one sampled tuple into a full journal record. Timings step by
/// 0.5 so the one-decimal journal formatting round-trips bit-exactly;
/// everything else derives deterministically from the tuple.
fn record_from(raw: &(usize, u8, u64, u32, u64)) -> AppRecord {
    let &(index, status, mix, timing, nodes) = raw;
    let status = match status {
        0 => RecordStatus::Completed,
        1 => RecordStatus::Failed,
        _ => RecordStatus::Quarantined,
    };
    let verdict = if status == RecordStatus::Completed {
        ["Benign", "Suspicious", "Suspicious(2)", "Odd?"][(mix % 4) as usize].to_owned()
    } else {
        "-".to_owned()
    };
    AppRecord {
        index,
        seed: 0xABC0 ^ index as u64,
        package: format!("com.gen.app{index:04}"),
        status,
        verdict,
        leaks: (mix % 5) as usize,
        report_fnv: nodes.wrapping_mul(0x9E37_79B9),
        envgen_ns: f64::from(timing) * 0.5,
        callgraph_ns: f64::from(timing % 37) * 0.5,
        idfg_ns: f64::from(timing % 11) * 0.5,
        taint_ns: f64::from(timing % 53) * 0.5,
        nodes,
        rounds: nodes / 7,
        sliced_micros: (mix % 3 == 0).then_some(mix * 1000),
        attempts: 1 + (mix % 3) as u32,
    }
}

fn proptest_header() -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        master_seed: 0xDEAD,
        apps: 30,
        shards: 1,
        shard: 0,
        config_digest: 0xFEED,
        update_ppm: 0,
        update_salt: 0,
    }
}

/// Fleet report of shard 0's rotated journal via the incremental
/// (sealed-rollup + tail) path.
fn incremental_report(dir: &std::path::Path) -> FleetReport {
    let tail = read_shard_tail(dir, 0).unwrap();
    FleetReport::from_folds(0xDEAD, 30, 0xFEED, vec![tail]).unwrap()
}

/// Fleet report of the same journal via the monolithic every-segment
/// re-read.
fn monolithic_report(dir: &std::path::Path) -> FleetReport {
    let records = read_shard_records(dir, 0).unwrap().1;
    FleetReport::from_records(0xDEAD, 30, 0xFEED, vec![records])
}

proptest! {
    /// Satellite gate: for random record sets, random rotation
    /// thresholds, and a random kill point anywhere in the newest
    /// segment (any boundary, torn tail, torn header, torn carried
    /// rollup), the rotated incremental fold stays byte-identical to the
    /// monolithic re-read — before the kill, and after recovery.
    #[test]
    fn rotated_fold_equals_monolithic_under_random_kills(
        raw in proptest::collection::vec(
            (0usize..30, 0u8..3, 0u64..4096, 0u32..100, 0u64..1000), 0..40),
        rotate in 1usize..8,
        case in 0u64..u64::MAX,
        kill_pm in 0u64..1000,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("gdroid-rotate-prop-{}-{case:016x}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let header = proptest_header();

        let (mut journal, resumed) =
            SegmentedJournal::open_or_create(&dir, 0, &header, Some(rotate)).unwrap();
        prop_assert_eq!(resumed, ShardFold::default());
        let mut expected = ShardFold::default();
        for tuple in &raw {
            let record = record_from(tuple);
            journal.append(&record).unwrap();
            expected.fold(&record).unwrap();
        }
        prop_assert_eq!(journal.fold().serialize_body(), expected.serialize_body());
        drop(journal);

        // Incremental == monolithic on the intact journal.
        prop_assert_eq!(incremental_report(&dir).to_json(), monolithic_report(&dir).to_json());

        // Kill: chop the newest segment at a random byte offset, recover
        // by reopening, and re-compare.
        let tail_path = segment_path(&dir, 0, newest_segment(&dir, 0).unwrap());
        let bytes = std::fs::read(&tail_path).unwrap();
        let cut = (bytes.len() * kill_pm as usize) / 1000;
        std::fs::write(&tail_path, &bytes[..cut]).unwrap();
        let (journal, recovered) =
            SegmentedJournal::open_or_create(&dir, 0, &header, Some(rotate)).unwrap();
        drop(journal);
        let incremental = incremental_report(&dir);
        prop_assert_eq!(incremental.to_json(), monolithic_report(&dir).to_json());
        // The recovered resume fold must describe exactly the surviving
        // records (what the incremental report tallies).
        prop_assert_eq!(recovered.apps(), incremental.tallied_apps());

        std::fs::remove_dir_all(&dir).ok();
    }
}
