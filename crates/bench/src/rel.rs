//! The `figures rel` experiment: the relational (semi-naive) GPU engine
//! against the worklist ladder.
//!
//! Two sections, both byte-deterministic:
//!
//! * **ladder** — a detailed per-app comparison on the tiny-profile
//!   corpus: the MAT and MAT+GRP worklist rungs, then all three
//!   [`EngineKind`]s (worklist / rel / cpu) behind the engine trait.
//!   Facts (FNV digest over the sorted per-method bitmap words) and
//!   verdict reports are asserted identical across the three engines for
//!   every app — the trait contract, measured.
//! * **corpus** — the worklist and rel engines streamed window by window
//!   (`WINDOW` apps resident at a time) over the `small`-profile corpus
//!   at N, with per-app report and fact-digest identity asserted in-run.
//!   The CPU reference is omitted here (its modeled time is thousands of
//!   times the GPU engines'; the ladder section already pins it).
//!
//! One extra solo run of app 0 through the rel driver surfaces the new
//! relational cost-path counters (hash-join probes, relation-scan rows)
//! that the vetting-level outcome does not carry.

use crate::corpus::corpus_prep;
use gdroid_apk::{Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid_core::{EngineKind, OptConfig};
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_ir::MethodId;
use gdroid_serve::fnv1a;
use gdroid_vetting::{
    execute, prepare_vetting, vet_prepared, Engine, ExecCtx, ExecPlan, VettingRun,
};

/// Window size of the streamed corpus section.
pub const REL_WINDOW: usize = 8;

/// How many tiny-profile apps the detailed ladder section compares.
pub const REL_DETAIL_APPS: usize = 20;

/// One app's ladder-vs-engines measurement.
pub struct RelPoint {
    /// Corpus index.
    pub app: usize,
    /// MAT-rung modeled IDFG time (ns).
    pub mat_ns: f64,
    /// MAT+GRP-rung modeled IDFG time (ns).
    pub matgrp_ns: f64,
    /// Worklist engine (full GDroid rung) modeled IDFG time (ns).
    pub worklist_ns: f64,
    /// Relational engine modeled IDFG time (ns).
    pub rel_ns: f64,
    /// CPU reference engine modeled time (ns).
    pub cpu_ns: f64,
    /// Semi-naive delta rounds summed over the rel run's layers.
    pub rel_rounds: usize,
    /// Leaks in the (byte-identical) verdicts.
    pub leaks: usize,
}

impl RelPoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"app\":{},\"mat_ns\":{:.1},\"matgrp_ns\":{:.1},\"worklist_ns\":{:.1},\
             \"rel_ns\":{:.1},\"cpu_ns\":{:.1},\"rel_rounds\":{},\"leaks\":{}}}",
            self.app,
            self.mat_ns,
            self.matgrp_ns,
            self.worklist_ns,
            self.rel_ns,
            self.cpu_ns,
            self.rel_rounds,
            self.leaks,
        )
    }
}

/// FNV-1a digest over the per-method fixpoint bitmaps, sorted by method
/// id — the engine-invariant facts, as one comparable number.
pub fn fact_digest(run: &VettingRun) -> u64 {
    let mut mids: Vec<MethodId> = run.analysis.facts.keys().copied().collect();
    mids.sort_unstable();
    let mut line = String::new();
    for mid in mids {
        use std::fmt::Write;
        write!(line, "{mid:?}:").expect("writing to String cannot fail");
        for w in run.analysis.facts[&mid].flat_words() {
            write!(line, "{w:x},").expect("writing to String cannot fail");
        }
        line.push(';');
    }
    fnv1a(line.as_bytes())
}

/// Runs one detailed ladder point: two worklist rungs, then the three
/// engines, with fact and verdict identity asserted across the engines.
pub fn run_rel_point(app: usize) -> RelPoint {
    let prep = corpus_prep(app, &GenConfig::tiny());
    let mat = vet_prepared(&prep, ExecPlan::new(Engine::Gpu(OptConfig::mat()))).outcome;
    let matgrp = vet_prepared(&prep, ExecPlan::new(Engine::Gpu(OptConfig::mat_grp()))).outcome;

    let mut runs = Vec::with_capacity(EngineKind::ALL.len());
    for kind in EngineKind::ALL {
        runs.push(vet_prepared(&prep, ExecPlan::new(kind)));
    }
    let [worklist, rel, cpu] = <[VettingRun; 3]>::try_from(runs)
        .unwrap_or_else(|_| unreachable!("EngineKind::ALL has three kinds"));
    let reference = worklist.outcome.report.to_json();
    let reference_facts = fact_digest(&worklist);
    for (kind, run) in EngineKind::ALL.iter().zip([&worklist, &rel, &cpu]) {
        assert_eq!(
            run.outcome.report.to_json(),
            reference,
            "app {app}: engine {kind} verdict diverged from worklist"
        );
        assert_eq!(
            fact_digest(run),
            reference_facts,
            "app {app}: engine {kind} facts diverged from worklist"
        );
    }
    RelPoint {
        app,
        mat_ns: mat.timing.idfg_ns,
        matgrp_ns: matgrp.timing.idfg_ns,
        worklist_ns: worklist.outcome.timing.idfg_ns,
        rel_ns: rel.outcome.timing.idfg_ns,
        cpu_ns: cpu.outcome.timing.idfg_ns,
        rel_rounds: rel.outcome.telemetry.rounds,
        leaks: worklist.outcome.report.leaks.len(),
    }
}

/// Runs the ladder and corpus sections and returns `(json, summary)`.
/// `detail_apps` sizes the ladder section (the canonical run uses
/// [`REL_DETAIL_APPS`]), `corpus_apps` the streamed section.
pub fn rel_benchmark(detail_apps: usize, corpus_apps: usize, scale: f64) -> (String, String) {
    let detail_apps = detail_apps.max(2);
    let corpus_apps = corpus_apps.max(REL_WINDOW);
    let points: Vec<RelPoint> = (0..detail_apps).map(run_rel_point).collect();

    // The rel cost paths, from one solo driver run: the vetting outcome
    // does not carry GPU run stats, so app 0 is re-run directly.
    let profile = {
        let prep = corpus_prep(0, &GenConfig::tiny());
        let gpu = gdroid_rel::rel_analyze_app(
            &prep.app.program,
            &prep.cg,
            &prep.roots,
            DeviceConfig::tesla_p40(),
        );
        format!(
            "{{\"app\":0,\"join_probes\":{},\"scan_rows\":{},\"rounds\":{}}}",
            gpu.stats.join_probes, gpu.stats.scan_rows, gpu.telemetry.rounds,
        )
    };

    // Streamed corpus section: worklist vs rel on long-lived devices.
    let mut gen = GenConfig::small();
    gen.scale *= scale;
    let corpus = Corpus { master_seed: PAPER_MASTER_SEED, size: corpus_apps, config: gen };
    let mut worklist_device = Device::new(DeviceConfig::tesla_p40());
    let mut rel_device = Device::new(DeviceConfig::tesla_p40());
    let mut corpus_worklist_ns = 0.0;
    let mut corpus_rel_ns = 0.0;
    let mut suspicious = 0usize;
    let mut verdict_lines = String::new();
    let mut stream = corpus.stream_all().peekable();
    while stream.peek().is_some() {
        let window: Vec<_> = stream.by_ref().take(REL_WINDOW).collect();
        for (index, app) in window {
            let prep = prepare_vetting(app);
            let on = |device: &mut Device, kind: EngineKind| {
                execute(&prep, ExecPlan::new(kind), &mut ExecCtx::new(device))
                    .expect("no fault plan installed")
                    .run
            };
            let w = on(&mut worklist_device, EngineKind::Worklist);
            let r = on(&mut rel_device, EngineKind::Rel);
            assert_eq!(
                r.outcome.report.to_json(),
                w.outcome.report.to_json(),
                "app {index}: rel verdict diverged from worklist"
            );
            assert_eq!(
                fact_digest(&r),
                fact_digest(&w),
                "app {index}: rel facts diverged from worklist"
            );
            corpus_worklist_ns += w.outcome.timing.idfg_ns;
            corpus_rel_ns += r.outcome.timing.idfg_ns;
            suspicious += usize::from(!w.outcome.report.leaks.is_empty());
            use std::fmt::Write;
            writeln!(
                verdict_lines,
                "{:06} {} {:?} {:016x}",
                index,
                prep.app.manifest.package,
                w.outcome.report.verdict,
                fnv1a(w.outcome.report.to_json().as_bytes())
            )
            .expect("writing to String cannot fail");
        }
    }

    let sum = |f: fn(&RelPoint) -> f64| points.iter().map(f).sum::<f64>();
    let (mat_ns, matgrp_ns) = (sum(|p| p.mat_ns), sum(|p| p.matgrp_ns));
    let (worklist_ns, rel_ns, cpu_ns) =
        (sum(|p| p.worklist_ns), sum(|p| p.rel_ns), sum(|p| p.cpu_ns));
    let rel_rounds: usize = points.iter().map(|p| p.rel_rounds).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 1.0 };

    let rungs = [
        ("mat", mat_ns),
        ("matgrp", matgrp_ns),
        ("worklist", worklist_ns),
        ("rel", rel_ns),
        ("cpu", cpu_ns),
    ];
    let rung_json: Vec<String> = rungs
        .iter()
        .map(|(label, ns)| {
            format!(
                "{{\"engine\":\"{label}\",\"idfg_ns\":{ns:.1},\"speedup_vs_mat\":{:.4}}}",
                ratio(mat_ns, *ns)
            )
        })
        .collect();
    let rows = points.iter().map(RelPoint::to_json).collect::<Vec<_>>().join(",");
    let json = format!(
        "{{\"ladder\":{{\"apps\":{detail_apps},\"profile\":\"tiny\",\"rungs\":[{}],\
         \"rel_rounds\":{rel_rounds},\"rel_vs_worklist\":{:.4},\"kernel_profile\":{profile},\
         \"per_app\":[{rows}]}},\"corpus\":{{\"apps\":{corpus_apps},\"profile\":\"small\",\
         \"scale\":{scale:.3},\"worklist_ns\":{corpus_worklist_ns:.1},\
         \"rel_ns\":{corpus_rel_ns:.1},\"rel_vs_worklist\":{:.4},\"suspicious\":{suspicious},\
         \"clean\":{},\"verdict_digest\":\"{:016x}\"}}}}",
        rung_json.join(","),
        ratio(worklist_ns, rel_ns),
        ratio(corpus_worklist_ns, corpus_rel_ns),
        corpus_apps - suspicious,
        fnv1a(verdict_lines.as_bytes()),
    );

    let mut summary = format!(
        "relational engine vs the worklist ladder ({detail_apps} tiny apps; \
         facts and verdicts asserted engine-identical)\n"
    );
    for (label, ns) in rungs {
        summary.push_str(&format!(
            "  {label:<9} {:>12.3} ms  ({:.2}x vs mat)\n",
            ns / 1e6,
            ratio(mat_ns, ns)
        ));
    }
    summary.push_str(&format!(
        "  corpus ({corpus_apps} small apps): worklist {:.1} ms, rel {:.1} ms ({:.2}x), \
         {suspicious} suspicious\n",
        corpus_worklist_ns / 1e6,
        corpus_rel_ns / 1e6,
        ratio(corpus_worklist_ns, corpus_rel_ns),
    ));
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_benchmark_is_deterministic_and_engine_identical() {
        let (a, summary) = rel_benchmark(2, 8, 0.02);
        let (b, _) = rel_benchmark(2, 8, 0.02);
        assert_eq!(a, b, "BENCH_rel.json must be byte-deterministic");
        assert!(a.contains("\"engine\":\"rel\"") && a.contains("\"engine\":\"cpu\""));
        assert!(a.contains("\"kernel_profile\":{\"app\":0,\"join_probes\":"));
        assert!(a.contains("\"verdict_digest\":\""));
        assert!(summary.contains("relational engine vs the worklist ladder"));
    }

    #[test]
    fn rel_point_reports_ladder_times_and_rounds() {
        let p = run_rel_point(1);
        assert!(p.mat_ns > 0.0 && p.rel_ns > 0.0 && p.cpu_ns > 0.0);
        assert!(p.rel_rounds > 0);
        assert!(p.cpu_ns > p.rel_ns, "the CPU reference must model slower than rel");
    }
}
