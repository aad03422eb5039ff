//! Tier-1 gate for the tracing layer: traces are byte-deterministic in
//! modeled time, and tracing — enabled or disabled — never perturbs the
//! analysis results the rest of the stack depends on.

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::trace::Tracer;
use gdroid::vetting::{
    execute, prepare_vetting, vet_prepared, ExecCtx, ExecPlan, PreparedApp, VettingRun,
};

fn corpus_app(index: usize) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &GenConfig::tiny()))
}

/// Full GDroid on a fresh device, recording into `tracer`.
fn traced(prep: &PreparedApp, tracer: &Tracer) -> VettingRun {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let ctx = &mut ExecCtx { tracer, ..ExecCtx::new(&mut device) };
    execute(prep, ExecPlan::default(), ctx).expect("a fresh device has no fault plan").run
}

/// Two traced runs of the same seed write byte-identical Chrome JSON, and
/// the trace covers every instrumented layer of the stack.
#[test]
fn same_seed_traces_are_byte_identical_across_layers() {
    let prep = corpus_app(3);
    let ta = Tracer::enabled_new();
    let tb = Tracer::enabled_new();
    traced(&prep, &ta);
    traced(&prep, &tb);
    let ja = ta.to_chrome_json();
    assert_eq!(ja, tb.to_chrome_json(), "same-seed traces must be byte-identical");
    for cat in ["\"cat\":\"gpusim\"", "\"cat\":\"driver\"", "\"cat\":\"vetting\""] {
        assert!(ja.contains(cat), "trace must cover layer {cat}");
    }
    assert!(ja.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
}

/// Tracing off leaves results bit-identical to the plain path: the traced
/// entry point with a disabled tracer, the traced entry point with an
/// enabled tracer, and the plain engine all render the same outcome JSON
/// (which digests timing, telemetry, report, and verdict).
#[test]
fn tracing_never_perturbs_outcomes() {
    for index in [0usize, 5, 11] {
        let prep = corpus_app(index);
        let plain = vet_prepared(&prep, ExecPlan::default()).outcome;
        let off = Tracer::disabled();
        let disabled = traced(&prep, &off);
        let on = Tracer::enabled_new();
        let enabled = traced(&prep, &on);
        assert_eq!(
            plain.to_json(),
            disabled.outcome.to_json(),
            "disabled tracer must not perturb app {index}"
        );
        assert_eq!(
            plain.to_json(),
            enabled.outcome.to_json(),
            "enabled tracer must not perturb app {index}"
        );
        assert_eq!(
            off.to_chrome_json(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n",
            "disabled tracer must record nothing"
        );
        assert!(!on.events().is_empty(), "enabled tracer must record events for app {index}");
    }
}

/// Modeled timestamps nest the GPU work inside the pipeline's `idfg`
/// stage: every gpusim/driver event starts at or after the end of the
/// host-side prep (envgen + callgraph) and before the idfg stage ends.
#[test]
fn gpu_events_nest_inside_the_idfg_stage() {
    let prep = corpus_app(7);
    let tracer = Tracer::enabled_new();
    let run = traced(&prep, &tracer);
    let t = &run.outcome.timing;
    let prep_ns = (t.envgen_ns + t.callgraph_ns).round() as u64;
    let idfg_end_ns = prep_ns + t.idfg_ns.round() as u64;
    for ev in tracer.events() {
        if ev.cat == "gpusim" || ev.cat == "driver" {
            assert!(ev.ts_ns >= prep_ns, "{} {} starts before prep ends", ev.cat, ev.name);
            assert!(
                ev.ts_ns <= idfg_end_ns + 1,
                "{} {} starts after the idfg stage ends",
                ev.cat,
                ev.name
            );
        }
    }
}
