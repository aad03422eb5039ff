//! The `figures trace` experiment: tracing-overhead invariance and
//! per-phase modeled-time breakdowns.
//!
//! Every app of a 20-app corpus is vetted twice on the GPU engine — once
//! untraced, once with an enabled tracer — and the two outcomes are
//! compared byte-for-byte: identical JSON proves the trace layer never
//! perturbs the analysis (the zero-overhead-when-disabled contract, plus
//! its stronger sibling: enabled tracing only *observes*). Per app, the
//! trace is folded into per-layer span totals (gpusim / driver / vetting)
//! and hashed, so `BENCH_trace.json` is byte-deterministic for the fixed
//! corpus seed: every number is modeled or counted, never wall clock.

use crate::corpus::corpus_prep;
use gdroid_apk::GenConfig;
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_serve::fnv1a;
use gdroid_trace::{JsonWriter, Phase, Tracer};
use gdroid_vetting::{execute, vet_prepared, ExecCtx, ExecPlan};

/// Per-app result of the invariance + breakdown run.
pub struct TracePoint {
    /// Corpus index.
    pub index: usize,
    /// Package name.
    pub package: String,
    /// Traced and untraced outcome JSONs are byte-identical.
    pub invariant: bool,
    /// Events recorded by the traced run.
    pub events: usize,
    /// Summed span ns per layer: (gpusim, driver, vetting).
    pub layer_ns: (u64, u64, u64),
    /// Kernel launches (gpusim `launch` spans).
    pub launches: usize,
    /// Worklist rounds (driver `layer … round …` spans).
    pub rounds: usize,
    /// FNV-1a hash of the Chrome-trace JSON (re-run stability handle).
    pub trace_fnv: u64,
}

impl TracePoint {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("index").int(self.index);
            w.key("package").string(&self.package);
            w.key("invariant").bool(self.invariant);
            w.key("events").int(self.events);
            w.key("gpusim_ns").int(self.layer_ns.0);
            w.key("driver_ns").int(self.layer_ns.1);
            w.key("vetting_ns").int(self.layer_ns.2);
            w.key("launches").int(self.launches);
            w.key("rounds").int(self.rounds);
            w.key("trace_fnv").int(self.trace_fnv);
        })
    }
}

/// Vets one prepared corpus app traced and untraced; folds the trace.
fn run_point(index: usize, cfg: &GenConfig) -> TracePoint {
    let prep = corpus_prep(index, cfg);
    let untraced = vet_prepared(&prep, ExecPlan::default()).outcome;
    let tracer = Tracer::enabled_new();
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let ctx = &mut ExecCtx { tracer: &tracer, ..ExecCtx::new(&mut device) };
    let traced =
        execute(&prep, ExecPlan::default(), ctx).expect("a fresh device has no fault plan").run;

    let events = tracer.events();
    let mut layer_ns = (0u64, 0u64, 0u64);
    let mut launches = 0usize;
    let mut rounds = 0usize;
    for ev in &events {
        if ev.ph != Phase::Span {
            continue;
        }
        match ev.cat {
            "gpusim" => {
                layer_ns.0 += ev.dur_ns;
                if ev.name.starts_with("launch") {
                    launches += 1;
                }
            }
            "driver" => {
                layer_ns.1 += ev.dur_ns;
                rounds += 1;
            }
            "vetting" => layer_ns.2 += ev.dur_ns,
            _ => {}
        }
    }
    TracePoint {
        index,
        package: prep.app.name.clone(),
        invariant: traced.outcome.to_json() == untraced.to_json(),
        events: events.len(),
        layer_ns,
        launches,
        rounds,
        trace_fnv: fnv1a(tracer.to_chrome_json().as_bytes()),
    }
}

/// Runs the invariance + breakdown experiment over the corpus and
/// returns `(json, human_summary)`; the JSON is what `figures trace`
/// writes to `BENCH_trace.json`.
pub fn trace_benchmark(apps: usize) -> (String, String) {
    let apps = apps.clamp(4, 20);
    let cfg = GenConfig::tiny();
    let points: Vec<TracePoint> = (0..apps).map(|i| run_point(i, &cfg)).collect();

    let invariant = points.iter().filter(|p| p.invariant).count();
    let total = |f: fn(&TracePoint) -> u64| points.iter().map(f).sum::<u64>();
    let corpus_fnv = fnv1a(
        points.iter().map(|p| p.trace_fnv.to_string()).collect::<Vec<_>>().join(",").as_bytes(),
    );

    let launches = points.iter().map(|p| p.launches).sum::<usize>();
    let rounds = points.iter().map(|p| p.rounds).sum::<usize>();
    let mut json = JsonWriter::render(|w| {
        w.object(|w| {
            w.key("experiment").string("trace");
            w.key("apps").int(apps);
            w.key("invariant_apps").int(invariant);
            w.key("gpusim_ns").int(total(|p| p.layer_ns.0));
            w.key("driver_ns").int(total(|p| p.layer_ns.1));
            w.key("vetting_ns").int(total(|p| p.layer_ns.2));
            w.key("launches").int(launches);
            w.key("rounds").int(rounds);
            w.key("corpus_trace_fnv").int(corpus_fnv);
            w.key("points").array(|w| points.iter().for_each(|p| p.write_json(w)));
        })
    });
    json.push('\n');

    let mut summary = format!(
        "trace invariance over {apps} corpus apps: {invariant}/{apps} byte-identical \
         traced vs untraced\n  modeled span time per layer:\n"
    );
    for (label, ns) in [
        ("gpusim (launches + blocks)", total(|p| p.layer_ns.0)),
        ("driver (worklist rounds)", total(|p| p.layer_ns.1)),
        ("vetting (pipeline stages)", total(|p| p.layer_ns.2)),
    ] {
        summary.push_str(&format!("    {label:<28} {:>12.3} ms\n", ns as f64 / 1e6));
    }
    summary.push_str(&format!(
        "  {launches} kernel launches across {rounds} worklist rounds; \
         corpus trace fnv {corpus_fnv:016x}\n",
    ));
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_package_names_are_escaped() {
        let point = TracePoint {
            index: 0,
            package: "a\"b\\c\n".into(),
            invariant: true,
            events: 1,
            layer_ns: (1, 2, 3),
            launches: 1,
            rounds: 1,
            trace_fnv: 7,
        };
        let doc = JsonWriter::render(|w| point.write_json(w));
        assert!(doc.starts_with(r#"{"index":0,"package":"a\"b\\c\n","invariant":true,"#), "{doc}");
    }

    #[test]
    fn trace_benchmark_is_invariant_and_deterministic() {
        let (json_a, summary) = trace_benchmark(4);
        let (json_b, _) = trace_benchmark(4);
        assert_eq!(json_a, json_b, "BENCH_trace.json must be byte-deterministic");
        assert!(json_a.contains("\"invariant_apps\":4"), "{summary}");
        assert!(json_a.contains("\"experiment\":\"trace\""));
        assert!(summary.contains("4/4 byte-identical"));
    }
}
