//! Composite risk assessment — the verdict an app store's vetting queue
//! would act on, aggregating every IDFG plugin into one scored report.
//!
//! Scoring is transparent and additive; each signal cites its plugin so a
//! human reviewer can audit the verdict (the paper's motivation is
//! *vetting*, which implies a reviewer workflow, not just a classifier).

use crate::json::JsonWriter;
use crate::pipeline::prepare_vetting;
use crate::plan::{vet_prepared, ExecPlan};

use crate::plugins::{hardcoded_payloads, intent_exposure, permission_audit};
use crate::registry::SourceSinkRegistry;
use gdroid_apk::App;
use gdroid_core::Engine;

/// One scored signal contributing to the verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Signal {
    /// Which plugin raised it.
    pub plugin: String,
    /// Human-readable description.
    pub detail: String,
    /// Contribution to the risk score.
    pub weight: u32,
}

/// Risk bands for triage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RiskBand {
    /// No signals.
    Low,
    /// Signals worth a look (score 1–19).
    Medium,
    /// Likely malicious or badly broken (score ≥ 20).
    High,
}

/// The composite assessment.
#[derive(Clone, Debug)]
pub struct Assessment {
    /// App package name.
    pub package: String,
    /// All contributing signals, sorted by weight descending.
    pub signals: Vec<Signal>,
    /// Total score.
    pub score: u32,
    /// Triage band.
    pub band: RiskBand,
}

impl Assessment {
    /// Deterministic JSON rendering (stable key order, no whitespace).
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| {
            w.object(|w| {
                w.key("package").string(&self.package);
                w.key("score").int(self.score);
                w.key("band").string(&format!("{:?}", self.band));
                w.key("signals").array(|w| {
                    for s in &self.signals {
                        w.object(|w| {
                            w.key("plugin").string(&s.plugin);
                            w.key("detail").string(&s.detail);
                            w.key("weight").int(s.weight);
                        });
                    }
                });
            })
        })
    }

    /// Renders a reviewer-facing report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{} — risk {:?} (score {})", self.package, self.band, self.score).unwrap();
        for s in &self.signals {
            writeln!(out, "  [{:>2}] {}: {}", s.weight, s.plugin, s.detail).unwrap();
        }
        if self.signals.is_empty() {
            writeln!(out, "  no signals").unwrap();
        }
        out
    }
}

/// Runs every plugin over one app and aggregates the verdict.
///
/// The IDFG is built once, by the pipeline's CPU reference engine; the
/// taint report is that run's, and the other plugins read its facts.
pub fn assess_app(app: App) -> Assessment {
    let package = app.manifest.package.clone();
    let prep = prepare_vetting(app);
    let run = vet_prepared(&prep, ExecPlan::new(Engine::CpuReference));
    let (app, cg, envs) = (&prep.app, &prep.cg, &prep.envs);
    let (report, analysis) = (&run.outcome.report, &run.analysis);
    let registry = SourceSinkRegistry::for_program(&app.program);

    let mut signals = Vec::new();

    // Taint leaks: the strongest signal, weighted by distinct sinks.
    for leak in &report.leaks {
        let sources: Vec<&str> =
            leak.sources.iter().map(|s| report.source_names[usize::from(s.0)].as_str()).collect();
        signals.push(Signal {
            plugin: "taint".into(),
            detail: format!("{} receives {}", leak.sink, sources.join(", ")),
            weight: 12,
        });
    }

    // Intent exposure: externally triggerable flows.
    for f in intent_exposure(app, cg, envs, analysis, &registry) {
        signals.push(Signal {
            plugin: "intent-exposure".into(),
            detail: format!("exported {} lets Intent data reach {}", f.component, f.sink),
            weight: 6,
        });
    }

    // Hardcoded payloads.
    for f in hardcoded_payloads(app, analysis, &registry) {
        signals.push(Signal {
            plugin: "hardcoded-payload".into(),
            detail: format!("constant data shipped to {}", f.sink),
            weight: 2,
        });
    }

    // Permission audit.
    let audit = permission_audit(app, analysis);
    for p in &audit.over_privileged {
        signals.push(Signal {
            plugin: "permission-audit".into(),
            detail: format!("declares but never exercises {}", p.manifest_name()),
            weight: 1,
        });
    }
    for api in &audit.under_privileged {
        signals.push(Signal {
            plugin: "permission-audit".into(),
            detail: format!("calls {api} without its permission"),
            weight: 3,
        });
    }

    signals.sort_by(|a, b| b.weight.cmp(&a.weight).then_with(|| a.detail.cmp(&b.detail)));
    let score: u32 = signals.iter().map(|s| s.weight).sum();
    let band = match score {
        0 => RiskBand::Low,
        1..=19 => RiskBand::Medium,
        _ => RiskBand::High,
    };
    Assessment { package, signals, score, band }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, Corpus, GenConfig};

    #[test]
    fn assessment_is_deterministic_and_ranked() {
        let a1 = assess_app(generate_app(0, 9701, &GenConfig::tiny()));
        let a2 = assess_app(generate_app(0, 9701, &GenConfig::tiny()));
        assert_eq!(a1.score, a2.score);
        assert_eq!(a1.signals, a2.signals);
        // Signals sorted by weight descending.
        for w in a1.signals.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        // Band consistent with score.
        match a1.band {
            RiskBand::Low => assert_eq!(a1.score, 0),
            RiskBand::Medium => assert!((1..=19).contains(&a1.score)),
            RiskBand::High => assert!(a1.score >= 20),
        }
    }

    #[test]
    fn corpus_has_a_spread_of_bands() {
        let corpus = Corpus::test_corpus(12);
        let mut bands = std::collections::BTreeSet::new();
        for i in 0..12 {
            bands.insert(assess_app(corpus.generate(i)).band);
        }
        assert!(bands.len() >= 2, "all apps in one band: {bands:?}");
    }

    #[test]
    fn render_mentions_plugins() {
        for seed in 0..10 {
            let a = assess_app(generate_app(0, 9800 + seed, &GenConfig::tiny()));
            let text = a.render();
            assert!(text.contains("risk"));
            if !a.signals.is_empty() {
                assert!(text.contains(a.signals[0].plugin.as_str()));
                return;
            }
        }
    }
}
