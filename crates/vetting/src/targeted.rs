//! Demand-driven (targeted) vetting: slice-then-analyze.
//!
//! Most vetting queries are "does anything flow into these sinks?" — the
//! BackDroid observation. Instead of building the full IDFG, the targeted
//! path ([`crate::ExecPlan::targeted`]) computes a [`BackwardSlice`] from
//! the taint registry's sink call sites and runs the engine over slice
//! members only. Because the slice
//! over-approximates everything that can influence a sink verdict (see
//! `gdroid_analysis::slice` for the argument), the report is byte-identical
//! to a full run — enforced by the tier-1 gate `tests/targeted_gate.rs` —
//! while the modeled IDFG time shrinks with the sliced fraction.

use crate::json::JsonWriter;
use crate::pipeline::PreparedApp;
use crate::registry::SourceSinkRegistry;
use gdroid_analysis::BackwardSlice;
use gdroid_ir::{MethodId, Program, Stmt, StmtIdx};

/// Provenance of a targeted run, rendered into the outcome JSON as the
/// `"targeted"` block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TargetedProvenance {
    /// Slice members analyzed.
    pub slice_methods: usize,
    /// Reachable methods the slice skipped.
    pub methods_skipped: usize,
    /// Size of the full reachable method set.
    pub total_reachable: usize,
    /// `slice_methods / total_reachable` (0 for an empty reachable set).
    pub sliced_fraction: f64,
    /// Methods containing a reachable sink statement.
    pub sink_methods: usize,
    /// Partial roots (members analyzed for their relevant region only).
    pub partial_roots: usize,
}

impl TargetedProvenance {
    /// Summarizes a computed slice.
    pub fn of(slice: &BackwardSlice) -> TargetedProvenance {
        TargetedProvenance {
            slice_methods: slice.len(),
            methods_skipped: slice.methods_skipped(),
            total_reachable: slice.total_reachable,
            sliced_fraction: slice.sliced_fraction(),
            sink_methods: slice.sink_methods.len(),
            partial_roots: slice.roots.len(),
        }
    }

    /// Writes the `"targeted"` provenance object into an outcome document.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("targeted").bool(true);
            w.key("slice_methods").int(self.slice_methods);
            w.key("methods_skipped").int(self.methods_skipped);
            w.key("total_reachable").int(self.total_reachable);
            w.key("sliced_fraction").fixed(self.sliced_fraction, 6);
            w.key("sink_methods").int(self.sink_methods);
            w.key("partial_roots").int(self.partial_roots);
        })
    }
}

/// Every call site of `program` whose signature the registry knows as a
/// sink — the slice targets.
pub(crate) fn sink_sites(
    program: &Program,
    registry: &SourceSinkRegistry,
) -> Vec<(MethodId, StmtIdx)> {
    let mut sites = Vec::new();
    for (mid, method) in program.methods.iter_enumerated() {
        for (idx, stmt) in method.body.iter_enumerated() {
            if let Stmt::Call { sig, .. } = stmt {
                if registry.sink_of(sig).is_some() {
                    sites.push((mid, idx));
                }
            }
        }
    }
    sites
}

/// Sink call sites that no source call site can reach — the findings
/// behind the `sink-reachability` lint pass
/// ([`gdroid_ir::SinkReachability`]).
///
/// Reuses the slicer core: every method is treated as a root (lint runs
/// on the raw program, before environment synthesis), one backward slice
/// is computed per sink site, and the site is dead iff no source call
/// site lies in the slice's relevant region
/// ([`BackwardSlice::contains_site`]). Returned in (method, statement)
/// order; the lint runner re-sorts by declaring class anyway.
pub fn sink_reachability_findings(program: &Program) -> Vec<(MethodId, StmtIdx, String)> {
    let registry = SourceSinkRegistry::for_program(program);
    let cg = gdroid_icfg::CallGraph::build(program);
    let roots: Vec<MethodId> = program.methods.indices().collect();
    let mut source_sites: Vec<(MethodId, StmtIdx)> = Vec::new();
    for (mid, method) in program.methods.iter_enumerated() {
        for (idx, stmt) in method.body.iter_enumerated() {
            if let Stmt::Call { sig, .. } = stmt {
                if registry.source_of(sig).is_some() {
                    source_sites.push((mid, idx));
                }
            }
        }
    }
    let mut findings = Vec::new();
    for (mid, method) in program.methods.iter_enumerated() {
        for (idx, stmt) in method.body.iter_enumerated() {
            let Stmt::Call { sig, .. } = stmt else { continue };
            let Some(sink) = registry.sink_of(sig) else { continue };
            let slice = BackwardSlice::compute(program, &cg, &roots, &[(mid, idx)]);
            let reached = source_sites.iter().any(|&(m, i)| slice.contains_site(m, i));
            if !reached {
                findings.push((mid, idx, sink.to_owned()));
            }
        }
    }
    findings
}

/// Computes the backward sink slice of a prepared app.
pub fn compute_vetting_slice(prep: &PreparedApp) -> BackwardSlice {
    let registry = SourceSinkRegistry::for_program(&prep.app.program);
    let sites = sink_sites(&prep.app.program, &registry);
    BackwardSlice::compute(&prep.app.program, &prep.cg, &prep.roots, &sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::prepare_vetting;
    use crate::plan::{vet_prepared, ExecPlan};
    use gdroid_apk::{generate_app, GenConfig};

    fn targeted_plan() -> ExecPlan {
        ExecPlan { targeted: true, ..ExecPlan::default() }
    }

    #[test]
    fn targeted_report_matches_full_and_carries_provenance() {
        for seed in [7100u64, 7101, 7102] {
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let full = vet_prepared(&prep, ExecPlan::default()).outcome;
            let targeted = vet_prepared(&prep, targeted_plan());
            assert_eq!(
                targeted.outcome.report.to_json(),
                full.report.to_json(),
                "targeted verdict diverged on seed {seed}"
            );
            let prov = targeted.outcome.targeted.expect("provenance missing");
            assert!(prov.slice_methods <= prov.total_reachable);
            assert_eq!(prov.slice_methods + prov.methods_skipped, prov.total_reachable);
            assert!(full.targeted.is_none(), "full runs must not claim provenance");
            let json = targeted.outcome.to_json();
            assert!(json.contains("\"targeted\":{\"targeted\":true"), "{json}");
            assert!(!full.to_json().contains("targeted"), "full JSON must be unchanged");
        }
    }

    #[test]
    fn targeted_is_deterministic() {
        let prep = prepare_vetting(generate_app(0, 7103, &GenConfig::tiny()));
        let a = vet_prepared(&prep, targeted_plan());
        let b = vet_prepared(&prep, targeted_plan());
        assert_eq!(a.outcome.to_json(), b.outcome.to_json());
    }

    #[test]
    fn dead_sinks_are_real_sink_sites_and_never_leak() {
        for seed in [7120u64, 7121, 7122, 7123] {
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let program = &prep.app.program;
            let findings = sink_reachability_findings(program);
            let registry = SourceSinkRegistry::for_program(program);
            for (mid, idx, name) in &findings {
                let Stmt::Call { sig, .. } = &program.methods[*mid].body[*idx] else {
                    panic!("finding does not point at a call site");
                };
                assert_eq!(registry.sink_of(sig), Some(name.as_str()));
            }
            // A sink flagged as source-unreachable must never appear as a
            // leak — the slice over-approximates every possible flow.
            let full = vet_prepared(&prep, ExecPlan::default()).outcome;
            for leak in &full.report.leaks {
                assert!(
                    !findings.iter().any(|(m, i, _)| *m == leak.method && *i == leak.stmt),
                    "leaking sink flagged as dead, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn slice_covers_all_leaking_methods() {
        // Every reported leak sits in a sink method, which is a slice
        // member by construction.
        for seed in 7104..7112u64 {
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let slice = compute_vetting_slice(&prep);
            let full = vet_prepared(&prep, ExecPlan::default()).outcome;
            for leak in &full.report.leaks {
                assert!(slice.members.contains(&leak.method), "leak outside slice, seed {seed}");
            }
        }
    }
}
