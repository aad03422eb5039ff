//! The declared metrics: the single list the harness emits from and that
//! `BENCHMARK.json` and `README.md` are checked against (see
//! `tests/declared.rs`).

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which of the two ledgers a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ledger {
    /// Host wall-clock (or host memory): noisy, compared within a bound.
    Host,
    /// Modeled (simulated) time or an exact count: a function of the
    /// inputs only, so two runs on one seed must agree bit for bit.
    Modeled,
}

/// A metric a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of one layer, from the traced run.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `layer.metric`; the layer is a crate name (`bench` = the harness).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Ledger.
    pub ledger: Ledger,
}

/// The four workloads, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "vet_paper",
        "paper-profile apps through vet_app on the simulated GPU one at a time: the paper's headline path, ~85% core+gpusim+analysis",
    ),
    (
        "stream_targeted",
        "seed jobs through the service's targeted lane: generate+prep+slice dominate, the GPU simulation shrinks to a minor share",
    ),
    (
        "serve_mixed",
        "on-disk bundles in two versions: phase A fills the result cache, phase B reads it (hit, incremental, targeted bypass)",
    ),
    (
        "campaign_libs",
        "library-heavy campaign with summary store and rotated journals: day 0 writes, day-1 delta and no-op resume read",
    ),
];

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "apps_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "verdict_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "verdict_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, ledger: Ledger::Host }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, ledger: Ledger::Modeled }
}

use Better::{Higher, Lower};

/// Per-layer metrics, emitted by every workload with `--trace 1`. A
/// workload that never runs a layer reports 0 for that layer's
/// run-specific metrics (`serve.*` on `vet_paper`, ...). `README.md` says
/// which end-to-end metric, on which workload, each one should move.
pub const PER_LAYER: &[PerLayer] = &[
    host("apk.generate_ms", "ms", Lower),
    exact("apk.stmts", "count", Higher),
    host("ir.jil_write_ms", "ms", Lower),
    host("ir.jil_parse_ms", "ms", Lower),
    exact("ir.jil_bytes", "bytes", Lower),
    host("icfg.prepare_ms", "ms", Lower),
    host("icfg.layers_ms", "ms", Lower),
    exact("icfg.reachable_methods", "count", Higher),
    host("analysis.cpu_solve_ms", "ms", Lower),
    host("analysis.mtcpu_solve_ms", "ms", Lower),
    exact("analysis.nodes_processed", "count", Lower),
    exact("analysis.word_ops", "count", Lower),
    host("analysis.slice_ms", "ms", Lower),
    exact("analysis.sliced_fraction", "share", Lower),
    exact("analysis.incremental_reuse_share", "share", Higher),
    host("gpusim.synth_host_ms", "ms", Lower),
    host("gpusim.synth_lane_steps_per_host_us", "1/us", Higher),
    exact("gpusim.synth_modeled_cycles", "cycles", Lower),
    exact("gpusim.synth_transactions", "count", Lower),
    host("core.analyze_ms", "ms", Lower),
    host("core.persistent_analyze_ms", "ms", Lower),
    host("core.sim_ns_per_host_us", "sim_ns/us", Higher),
    exact("core.modeled_idfg_ms", "sim_ms", Lower),
    exact("core.modeled_persistent_ms", "sim_ms", Lower),
    exact("core.launches", "count", Lower),
    exact("core.blocks", "count", Lower),
    exact("core.kernel_ns", "sim_ns", Lower),
    exact("core.exposed_copy_ns", "sim_ns", Lower),
    exact("core.divergence_factor", "ratio", Lower),
    exact("core.coalescing", "share", Higher),
    exact("core.utilization", "share", Higher),
    exact("core.device_allocations", "count", Lower),
    exact("core.rounds", "count", Lower),
    exact("core.modeled_plain_ms", "sim_ms", Lower),
    exact("core.modeled_mat_ms", "sim_ms", Lower),
    exact("core.modeled_matgrp_ms", "sim_ms", Lower),
    host("rel.analyze_ms", "ms", Lower),
    exact("rel.modeled_idfg_ms", "sim_ms", Lower),
    exact("rel.join_probes", "count", Lower),
    exact("rel.scan_rows", "count", Lower),
    host("vetting.taint_ms", "ms", Lower),
    exact("vetting.taint_rows_read", "count", Lower),
    host("vetting.report_json_ms", "ms", Lower),
    exact("vetting.report_bytes", "bytes", Lower),
    host("sumstore.hash_ms", "ms", Lower),
    host("sumstore.save_ms", "ms", Lower),
    host("sumstore.open_ms", "ms", Lower),
    exact("sumstore.file_bytes", "bytes", Lower),
    exact("sumstore.sample_insertions", "count", Higher),
    host("sumstore.hit_share", "share", Higher),
    host("sumstore.insertions", "count", Higher),
    host("serve.queue_wait_ms_p50", "ms", Lower),
    host("serve.prep_ms_p50", "ms", Lower),
    host("serve.exec_ms_p50", "ms", Lower),
    host("serve.prep_busy_share", "share", Lower),
    host("serve.device_busy_share", "share", Lower),
    host("serve.phase_a_jobs_per_s", "1/s", Higher),
    host("serve.phase_b_jobs_per_s", "1/s", Higher),
    host("serve.hit_ms_p50", "ms", Lower),
    host("serve.incremental_ms_p50", "ms", Lower),
    host("serve.targeted_ms_p50", "ms", Lower),
    exact("serve.phase_a_cache_hit_share", "share", Higher),
    exact("serve.phase_b_cache_hit_share", "share", Higher),
    exact("serve.cache_incremental_share", "share", Higher),
    exact("serve.retries", "count", Lower),
    exact("serve.modeled_idfg_ms_per_job", "sim_ms", Lower),
    host("campaign.journal_append_us", "us", Lower),
    host("campaign.journal_read_ms", "ms", Lower),
    host("campaign.fold_ms", "ms", Lower),
    exact("campaign.journal_bytes_per_app", "bytes", Lower),
    host("campaign.day0_apps_per_s", "1/s", Higher),
    host("campaign.delta_s", "s", Lower),
    host("campaign.resume_noop_ms", "ms", Lower),
    exact("campaign.segments", "count", Lower),
    exact("campaign.copied_share", "share", Higher),
    host("campaign.modeled_idfg_ms_per_app", "sim_ms", Lower),
    host("trace.traced_analyze_ms", "ms", Lower),
    exact("trace.events_per_app", "count", Lower),
    host("bench.span_overhead_share", "share", Lower),
    host("bench.accounted_share", "share", Higher),
    host("bench.vet_ms_p50", "ms", Lower),
    host("bench.counted_apps_per_s", "1/s", Higher),
    exact("bench.counted_jobs", "count", Higher),
    exact("bench.trace_sample_apps", "count", Higher),
    exact("bench.ladder_sample_apps", "count", Higher),
    exact("bench.spans", "count", Lower),
    host("bench.traced_pass_s", "s", Lower),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Whether `name` is a legal workload/metric name: starts with a letter
/// or digit, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_charset() {
        for good in ["a", "apps_per_s", "core.analyze_ms", "p99.9", "0x", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_a", ".a", "-a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for good in ["ms", "1/s", "sim_ns/us", "%", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", "12345678901234567"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_names_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| (w.0, "-"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        // Every per-layer metric names its layer, and the layer is a
        // crate of the repository (or the harness itself).
        const LAYERS: [&str; 13] = [
            "apk", "ir", "icfg", "analysis", "gpusim", "core", "rel", "vetting", "sumstore",
            "serve", "campaign", "trace", "bench",
        ];
        for m in PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(LAYERS.contains(&layer), "{}: unknown layer", m.name);
        }
    }
}
