//! The `figures snapshot10k` experiment: store-snapshot campaigns at
//! 10k-app scale.
//!
//! Two lanes, both modeled/counted so `BENCH_snapshot10k.json` is
//! byte-deterministic for a fixed seed:
//!
//! * **campaign** — a rotated-journal campaign streamed through
//!   [`gdroid_campaign::run_campaign`] (memory bounded by each shard
//!   service's in-flight window, journals bounded by the rotation
//!   threshold), with the incremental sealed-rollup fold asserted
//!   byte-identical to the monolithic every-segment re-read;
//! * **delta** — a daily-delta campaign against the first lane's
//!   journals under a deterministic update model: unchanged apps copy
//!   forward, perturbed apps re-vet, verdict flips are counted.
//!
//! Campaign journals live in a scratch directory that never appears in
//! the emitted JSON; it is removed before returning.

use gdroid_apk::GenConfig;
use gdroid_campaign::{
    config_digest, newest_segment, read_shard_records, CampaignConfig, FleetReport,
};
use gdroid_trace::JsonWriter;
use std::path::{Path, PathBuf};

/// Journal rotation threshold (records per segment) at full 10k scale.
pub const SNAPSHOT_ROTATE: usize = 256;

/// Rotation threshold for an `apps`-sized snapshot run: scaled down at
/// reduced N so segment sealing and the carried-rollup resume path are
/// always exercised, capped at [`SNAPSHOT_ROTATE`].
pub fn snapshot_rotate(apps: usize) -> usize {
    (apps / 8).clamp(4, SNAPSHOT_ROTATE)
}
/// Shard services in the snapshot campaign.
pub const SNAPSHOT_SHARDS: usize = 4;
/// Apps-per-million perturbed by the delta lane's update model.
const DELTA_PPM: u32 = 100_000;
/// Salt selecting which apps the update model perturbs.
const DELTA_SALT: u64 = 7;
/// A snapshot campaign config over `apps` apps rotating every
/// [`snapshot_rotate`]`(apps)` records, deterministic timings (one
/// worker and one device per shard).
fn snapshot_config(apps: usize, dir: PathBuf) -> CampaignConfig {
    CampaignConfig {
        gen: GenConfig::tiny(),
        prep_workers: 1,
        devices: 1,
        rotate_records: Some(snapshot_rotate(apps)),
        ..CampaignConfig::new(apps, SNAPSHOT_SHARDS.min(apps), dir)
    }
}

/// Segments currently on disk for each shard of a rotated campaign.
fn segments_per_shard(dir: &Path, shards: usize) -> Vec<usize> {
    let newest = |shard| newest_segment(dir, shard).expect("snapshot journals are readable");
    (0..shards).map(|shard| newest(shard).map_or(0, |newest| newest + 1)).collect()
}

/// The incremental-fold gate: re-reads every segment monolithically and
/// asserts the rotated campaign's report is byte-identical.
fn assert_incremental_matches(config: &CampaignConfig, fleet: &FleetReport) {
    let mut shard_records = Vec::with_capacity(config.shards);
    for shard in 0..config.shards {
        shard_records.push(
            read_shard_records(&config.journal_dir, shard).expect("snapshot journals re-read").1,
        );
    }
    let monolithic = FleetReport::from_records(
        config.master_seed,
        config.apps,
        config_digest(config),
        shard_records,
    );
    assert_eq!(
        fleet.to_json(),
        monolithic.to_json(),
        "incremental sealed-rollup fold diverged from the monolithic re-read"
    );
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gdroid-snapshot-bench-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn write_campaign(fleet: &FleetReport, rotate: usize, segments: &[usize], w: &mut JsonWriter) {
    w.object(|w| {
        w.key("apps").int(fleet.tallied_apps());
        w.key("shards").int(fleet.shards);
        w.key("rotate").int(rotate);
        w.key("segments").array(|w| segments.iter().for_each(|&n| w.int(n)));
        w.key("completed").int(fleet.completed);
        w.key("suspicious").int(fleet.suspicious);
        w.key("clean").int(fleet.clean);
        w.key("unknown").int(fleet.unknown);
        w.key("quarantined").int(fleet.quarantined);
        w.key("failed").int(fleet.failed);
        w.key("leaks").int(fleet.leaks);
        w.key("verdict_digest").hex(fleet.verdict_digest);
        w.key("makespan_ns").fixed(fleet.modeled_makespan_ns, 1);
        w.key("incremental_fold_matches").bool(true);
    })
}

/// Runs both snapshot lanes and returns `(json, human_summary)`.
pub fn snapshot_benchmark(apps: usize) -> (String, String) {
    let apps = apps.max(SNAPSHOT_SHARDS);

    // Lane 1: the rotated snapshot campaign, plus the incremental gate.
    let base_dir = scratch_dir("base");
    let base_cfg = snapshot_config(apps, base_dir.clone());
    let base = gdroid_campaign::run_campaign(&base_cfg).expect("snapshot campaign");
    assert_incremental_matches(&base_cfg, &base.fleet);
    let segments = segments_per_shard(&base_dir, base_cfg.shards);

    // Lane 2: the daily delta against lane 1's journals.
    let delta_dir = scratch_dir("delta");
    let delta_cfg = CampaignConfig {
        delta_base: Some(base_dir.clone()),
        update_ppm: DELTA_PPM,
        update_salt: DELTA_SALT,
        ..snapshot_config(apps, delta_dir.clone())
    };
    let delta_run = gdroid_campaign::run_campaign(&delta_cfg).expect("delta campaign");
    assert_incremental_matches(&delta_cfg, &delta_run.fleet);
    let delta = delta_run.delta.expect("delta campaigns report their delta");
    assert_eq!(delta.copied + delta.revetted, apps, "every app is copied or re-vetted");

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&delta_dir).ok();

    let rotate = snapshot_rotate(apps);
    let json = JsonWriter::render(|w| {
        w.object(|w| {
            write_campaign(&base.fleet, rotate, &segments, w.key("campaign"));
            delta.write_json(w.key("delta"));
        })
    });

    let mut summary = format!(
        "snapshot campaign: {} apps over {} shards, rotated every {rotate} records\n",
        apps, base_cfg.shards
    );
    summary.push_str(&format!(
        "  segments/shard {:?}, verdicts {} suspicious / {} clean / {} unknown, \
         incremental fold == monolithic re-read\n",
        segments, base.fleet.suspicious, base.fleet.clean, base.fleet.unknown
    ));
    summary.push_str(&format!(
        "  daily delta at {} ppm: {} copied forward, {} re-vetted, {} verdict flip(s)\n",
        DELTA_PPM, delta.copied, delta.revetted, delta.verdict_flips
    ));
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_benchmark_is_byte_deterministic() {
        let (a, summary) = snapshot_benchmark(12);
        let (b, _) = snapshot_benchmark(12);
        assert_eq!(a, b, "snapshot JSON must be byte-deterministic");
        assert!(a.contains("\"incremental_fold_matches\":true"));
        assert!(summary.contains("daily delta"));
    }
}
