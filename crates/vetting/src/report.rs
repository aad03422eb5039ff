//! Vetting verdicts and leak reports.

use crate::json::JsonWriter;
use crate::registry::SourceId;
use gdroid_ir::{MethodId, StmtIdx};

/// One detected source→sink flow.
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No tainted flow reached a sink.
    Clean,
    /// Tainted data reaches exfiltration sinks.
    Suspicious,
}

/// The vetting report for one app.
#[derive(Clone, Debug)]
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
