//! Tier-1 replay gate: a recursive SCC's re-launch replays a member whose
//! merged call sites did not change — the host reports the block's
//! recorded stats and telemetry instead of solving it again — and that
//! must change no modeled number and no fact.
//!
//! A sanitizing device never replays (its sanitizer must see every
//! access), so it is the reference: every run below is made on a plain
//! and on a sanitizing traced device, solo and as one co-resident group,
//! and the two must agree on `GpuRunStats`, trace events, summaries, fact
//! words and telemetry. The plain device must replay on every rung free
//! of device `malloc`, the sanitizing one never; replays are counted host-side (`EngineAnalysis::replayed`),
//! never in the modeled stats.

use gdroid::apk::{generate_app, App, Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid::core::{gpu_analyze_app_on, gpu_analyze_batch_on, AppInput, EngineAnalysis, OptConfig};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::icfg::{prepare_app, CallGraph};
use gdroid::ir::MethodId;
use gdroid::trace::Tracer;

struct Case {
    name: String,
    app: App,
    cg: CallGraph,
    roots: Vec<MethodId>,
}

fn prepared(name: String, mut app: App) -> Case {
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    Case { name, app, cg, roots }
}

/// Two recursion-heavy tiny apps and one paper-profile app, each with at
/// least one replayable re-launch.
fn cases() -> Vec<Case> {
    let recursive = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
    let mut cases: Vec<Case> = [0x7e1u64, 0x7e2]
        .into_iter()
        .map(|seed| prepared(format!("recursive {seed:#x}"), generate_app(0, seed, &recursive)))
        .collect();
    let paper = Corpus {
        master_seed: PAPER_MASTER_SEED,
        size: PAPER_APP + 1,
        config: GenConfig { scale: 0.2, ..GenConfig::default() },
    };
    cases.push(prepared(format!("paper app {PAPER_APP}"), paper.generate(PAPER_APP)));
    cases
}

const PAPER_APP: usize = 13;

/// `(reference, plain)`: a sanitizing and a plain traced device.
fn devices() -> (Device, Device) {
    let traced = |config| {
        let mut device = Device::new(config);
        device.set_tracer(Tracer::enabled_new());
        device
    };
    (traced(DeviceConfig::tiny().with_sanitizer()), traced(DeviceConfig::tiny()))
}

fn input(c: &Case) -> AppInput<'_> {
    AppInput::new(&c.app.program, &c.cg, &c.roots)
}

fn assert_replay_invisible(row: &str, reference: &EngineAnalysis, replaying: &EngineAnalysis) {
    assert!(reference.sanitizer.is_some(), "{row}: the reference device sanitizes");
    assert_eq!(reference.replayed, 0, "{row}: a sanitizing device replayed");
    assert_eq!(replaying.stats, reference.stats, "{row}: GpuRunStats");
    assert_eq!(replaying.summaries, reference.summaries, "{row}: summaries");
    assert_eq!(replaying.facts.len(), reference.facts.len(), "{row}: fact-map size");
    for (mid, facts) in &reference.facts {
        assert_eq!(
            replaying.facts[mid].flat_words(),
            facts.flat_words(),
            "{row}: facts of {mid:?}"
        );
    }
    assert_eq!(
        format!("{:?}", replaying.telemetry),
        format!("{:?}", reference.telemetry),
        "{row}: telemetry"
    );
}

fn assert_same_trace(row: &str, reference: &Device, replaying: &Device) {
    assert_eq!(replaying.tracer().events(), reference.tracer().events(), "{row}: trace events");
}

/// Every ladder rung, solo. The plain rung `malloc`s on the device, so
/// its blocks' stats depend on the heap and it never replays.
#[test]
fn solo_replays_change_no_modeled_number_and_no_fact() {
    for c in &cases() {
        for opts in OptConfig::ladder() {
            let (mut reference, mut plain) = devices();
            let run = |device: &mut Device| {
                gpu_analyze_app_on(device, &input(c), opts).expect("no fault plan")
            };
            let (want, got) = (run(&mut reference), run(&mut plain));
            let row = format!("{} {opts}", c.name);
            if opts.mat {
                assert!(got.replayed > 0, "{row}: the plain device replayed no block");
            } else {
                assert_eq!(got.replayed, 0, "{row}: a block that mallocs replayed");
            }
            assert_replay_invisible(&row, &want, &got);
            assert_same_trace(&row, &reference, &plain);
        }
    }
}

#[test]
fn coresident_replays_change_no_modeled_number_and_no_fact() {
    let cases = cases();
    let group: Vec<AppInput<'_>> = cases.iter().map(input).collect();
    let (mut reference, mut plain) = devices();
    let (want, want_batch) =
        gpu_analyze_batch_on(&mut reference, &group, OptConfig::gdroid()).expect("no fault plan");
    let (got, got_batch) =
        gpu_analyze_batch_on(&mut plain, &group, OptConfig::gdroid()).expect("no fault plan");
    assert_eq!(got_batch, want_batch, "batch stats");
    for ((c, want), got) in cases.iter().zip(&want).zip(&got) {
        let row = format!("co-resident {}", c.name);
        assert!(got.replayed > 0, "{row}: the plain device replayed no block");
        assert_replay_invisible(&row, want, got);
    }
    assert_same_trace("co-resident", &reference, &plain);
}
