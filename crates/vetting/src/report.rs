//! Vetting verdicts and leak reports.

use crate::json::JsonWriter;
use crate::registry::SourceId;
use gdroid_ir::{MethodId, StmtIdx};
use serde::{Deserialize, Serialize};

/// One detected source→sink flow.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Leak {
    /// Method containing the sink call.
    pub method: MethodId,
    /// The sink call statement.
    pub stmt: StmtIdx,
    /// Sink API name (`class.method`).
    pub sink: String,
    /// Source labels that reach the sink.
    pub sources: Vec<SourceId>,
}

/// Overall verdict for one app.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// No tainted flow reached a sink.
    Clean,
    /// Tainted data reaches exfiltration sinks.
    Suspicious,
}

/// The vetting report for one app.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VettingReport {
    /// All detected leaks, ordered by (method, statement).
    pub leaks: Vec<Leak>,
    /// Source display names (index = [`SourceId`]).
    pub source_names: Vec<String>,
    /// The verdict.
    pub verdict: Verdict,
}

impl VettingReport {
    /// Builds a report from detected leaks.
    pub fn new(leaks: Vec<Leak>, source_names: &[String]) -> VettingReport {
        let verdict = if leaks.is_empty() { Verdict::Clean } else { Verdict::Suspicious };
        VettingReport { leaks, source_names: source_names.to_vec(), verdict }
    }

    /// Locates the call sites that could have produced a leak's source
    /// labels — the witness endpoints of the flow. Post-hoc and
    /// API-granular: every call site of a matching source API is listed.
    pub fn origin_sites(
        &self,
        leak: &Leak,
        program: &gdroid_ir::Program,
        registry: &crate::registry::SourceSinkRegistry,
    ) -> Vec<(gdroid_ir::MethodId, StmtIdx)> {
        let mut sites = Vec::new();
        for (mid, method) in program.methods.iter_enumerated() {
            for (idx, stmt) in method.body.iter_enumerated() {
                if let gdroid_ir::Stmt::Call { sig, .. } = stmt {
                    if let Some(id) = registry.source_of(sig) {
                        if leak.sources.contains(&id) {
                            sites.push((mid, idx));
                        }
                    }
                }
            }
        }
        sites
    }

    /// Deterministic JSON rendering (stable key order, no whitespace).
    ///
    /// Source labels are resolved to display names so the document stands
    /// alone without the registry. Byte-identical across engines and runs
    /// for the same app — the serving cache's parity checks compare these
    /// strings directly.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Writes the [`Self::to_json`] object into a parent document.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("verdict").string(&format!("{:?}", self.verdict));
            w.key("leaks").array(|w| {
                for leak in &self.leaks {
                    w.object(|w| {
                        w.key("method").int(leak.method.0);
                        w.key("stmt").int(leak.stmt.0);
                        w.key("sink").string(&leak.sink);
                        w.key("sources").array(|w| {
                            for s in &leak.sources {
                                w.string(&self.source_names[usize::from(s.0)]);
                            }
                        });
                    });
                }
            });
        })
    }

    /// Human-readable one-line-per-leak rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "verdict: {:?} ({} leak(s))", self.verdict, self.leaks.len()).unwrap();
        for leak in &self.leaks {
            let sources: Vec<&str> =
                leak.sources.iter().map(|s| self.source_names[usize::from(s.0)].as_str()).collect();
            writeln!(
                out,
                "  {}:{} {} <- {}",
                leak.method,
                leak.stmt,
                leak.sink,
                sources.join(", ")
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let r = VettingReport::new(vec![], &[]);
        assert_eq!(r.verdict, Verdict::Clean);
        assert!(r.render().contains("Clean"));
    }

    #[test]
    fn leaky_report_is_suspicious_and_renders_names() {
        let names = vec!["android/telephony/TelephonyManager.getDeviceId".to_owned()];
        let r = VettingReport::new(
            vec![Leak {
                method: MethodId(3),
                stmt: StmtIdx(7),
                sink: "android/util/Log.d".into(),
                sources: vec![SourceId(0)],
            }],
            &names,
        );
        assert_eq!(r.verdict, Verdict::Suspicious);
        let text = r.render();
        assert!(text.contains("Log.d"));
        assert!(text.contains("getDeviceId"));
        assert!(text.contains("M3:L7"));
    }
}

#[cfg(test)]
mod origin_tests {
    use crate::registry::SourceSinkRegistry;
    use crate::taint::TaintAnalysis;
    use gdroid_analysis::{analyze_app, StoreKind};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    #[test]
    fn origin_sites_point_at_source_calls() {
        // Find a leaky app and check every leak has at least one origin
        // call site whose API matches a reported label.
        for seed in 0..25u64 {
            let mut app = generate_app(0, 8600 + seed, &GenConfig::tiny());
            let (envs, cg) = prepare_app(&mut app);
            let roots: Vec<gdroid_ir::MethodId> = envs.iter().map(|e| e.method).collect();
            let analysis = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
            let registry = SourceSinkRegistry::for_program(&app.program);
            let (report, _) = TaintAnalysis::new(
                &app.program,
                &cg,
                &analysis.facts,
                &analysis.spaces,
                &analysis.cfgs,
                &registry,
            )
            .run();
            if report.leaks.is_empty() {
                continue;
            }
            for leak in &report.leaks {
                let origins = report.origin_sites(leak, &app.program, &registry);
                assert!(!origins.is_empty(), "leak without any source call site");
                for (mid, idx) in origins {
                    let stmt = &app.program.methods[mid].body[idx];
                    assert!(matches!(stmt, gdroid_ir::Stmt::Call { .. }));
                }
            }
            return;
        }
        panic!("no leaky app in 25 seeds");
    }
}
