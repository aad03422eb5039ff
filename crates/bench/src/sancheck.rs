//! `figures sancheck` — the sanitizer/lint sweep over a corpus.
//!
//! Runs every app of a corpus through all four kernel variants with the
//! `simcheck` sanitizer enabled, plus the IR lint pipeline, and renders a
//! pass/fail report. A non-clean outcome makes `figures` exit nonzero, so
//! CI can gate on kernel discipline the same way it gates on tests.

use gdroid_apk::Corpus;
use gdroid_core::OptConfig;
use gdroid_gpusim::{Device, DeviceConfig, SanReport};
use gdroid_ir::Severity;
use gdroid_vetting::{execute, prepare_vetting, Engine, ExecCtx, ExecPlan};
use std::fmt;

/// Result of one sanitizer sweep.
pub struct SancheckOutcome {
    /// Apps checked.
    pub apps: usize,
    /// Per-variant merged sanitizer reports, in ladder order.
    pub reports: Vec<(OptConfig, SanReport)>,
    /// Lint diagnostics counted over all apps: (errors, warnings).
    pub lint: (usize, usize),
}

impl SancheckOutcome {
    /// Clean = no sanitizer findings and no error-severity lints.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|(_, r)| r.is_clean()) && self.lint.0 == 0
    }
}

impl fmt::Display for SancheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sancheck: {} app(s), all kernel variants, sanitizer on", self.apps)?;
        for (opts, report) in &self.reports {
            writeln!(
                f,
                "  {:<20} {:>12} accesses  {:>8} words  {} finding(s)",
                opts.to_string(),
                report.accesses_checked,
                report.words_tracked,
                report.total()
            )?;
            if !report.is_clean() {
                for line in report.to_string().lines() {
                    writeln!(f, "    {line}")?;
                }
            }
        }
        writeln!(f, "  lint: {} error(s), {} warning(s)", self.lint.0, self.lint.1)?;
        write!(f, "  verdict: {}", if self.is_clean() { "CLEAN" } else { "NOT CLEAN" })
    }
}

/// Sweeps the first `apps` apps of `corpus`.
pub fn sancheck_corpus(corpus: &Corpus, apps: usize) -> SancheckOutcome {
    let apps = apps.min(corpus.size);
    let mut reports: Vec<(OptConfig, SanReport)> =
        OptConfig::ladder().into_iter().map(|o| (o, SanReport::default())).collect();
    let mut lint = (0usize, 0usize);

    for index in 0..apps {
        let app = corpus.generate(index);
        for d in gdroid_ir::lint_program(&app.program) {
            match d.severity {
                Severity::Error => lint.0 += 1,
                Severity::Warning => lint.1 += 1,
            }
        }
        let prep = prepare_vetting(app);
        for (opts, merged) in reports.iter_mut() {
            let mut device = Device::new(DeviceConfig::tesla_p40().with_sanitizer());
            execute(&prep, ExecPlan::new(Engine::Gpu(*opts)), &mut ExecCtx::new(&mut device))
                .expect("a fresh device has no fault plan");
            merged.merge(&device.san_report().expect("sanitizer was enabled"));
        }
    }
    SancheckOutcome { apps, reports, lint }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corpus_is_clean() {
        let outcome = sancheck_corpus(&Corpus::test_corpus(3), 3);
        assert!(outcome.is_clean(), "{outcome}");
        assert_eq!(outcome.reports.len(), 4);
        for (_, r) in &outcome.reports {
            assert!(r.accesses_checked > 0);
        }
        // The rendering mentions the verdict.
        assert!(outcome.to_string().contains("CLEAN"));
    }
}
