//! Generator parameters.
//!
//! The defaults are calibrated so that a 1000-app corpus reproduces the
//! paper's Table I dataset characteristics (≈6217 CFG nodes, ≈268 methods
//! per app on average) and the worklist-dynamics profile of Table II.
//! `corpus_stats` tests in this crate pin the calibration.

/// Parameters of the synthetic app generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Global size multiplier applied to class counts. `1.0` reproduces
    /// Table I; smaller values give fast test corpora.
    pub scale: f64,
    /// Median number of app classes (log-normal).
    pub classes_median: f64,
    /// Log-normal shape for the class count.
    pub classes_sigma: f64,
    /// Uniform range of methods per class.
    pub methods_per_class: (usize, usize),
    /// Median statements per method body (log-normal).
    pub stmts_median: f64,
    /// Log-normal shape for statements per method.
    pub stmts_sigma: f64,
    /// Uniform range of reference-typed locals per method.
    pub ref_locals: (usize, usize),
    /// Uniform range of primitive locals per method.
    pub prim_locals: (usize, usize),
    /// Maximum parameters per generated method.
    pub max_params: usize,
    /// Relative weight of `if` diamonds among structured constructs.
    pub branch_weight: u32,
    /// Relative weight of loops (back edges → fixed-point revisits).
    pub loop_weight: u32,
    /// Relative weight of switches (wide fan-out → worklist width).
    pub switch_weight: u32,
    /// Relative weight of straight-line statements.
    pub simple_weight: u32,
    /// Fraction of simple statements that are call statements.
    pub call_fraction: f64,
    /// Of call statements, the fraction that target the framework API
    /// rather than app methods.
    pub api_call_fraction: f64,
    /// Probability that a call targets the *same* call-graph layer,
    /// creating recursion (SCCs the SBDA layering must handle).
    pub recursion_prob: f64,
    /// Number of call-graph layers below the lifecycle roots.
    pub layers: usize,
    /// Uniform range of manifest components.
    pub components: (usize, usize),
    /// Uniform range of fields per class.
    pub fields_per_class: (usize, usize),
    /// Fraction of fields that are reference-typed.
    pub ref_field_fraction: f64,
    /// Probability that an app contains a deliberate source→sink data-flow
    /// (a "leak" the vetting layer should flag).
    pub leak_prob: f64,
    /// Shared-library packages drawn per app from the common pool.
    /// `0` (the default) disables library generation entirely.
    pub lib_packages_per_app: usize,
    /// Size of the common library-package pool the corpus draws from.
    /// The expected cross-app duplication factor is
    /// `apps × lib_packages_per_app / lib_pool_size`.
    pub lib_pool_size: usize,
    /// Seed of the shared pool. Library package `k` is generated from
    /// `Rng::new(lib_pool_seed).derive(k)` regardless of which app
    /// materializes it, so the same package is byte-identical in every
    /// app of a corpus (the summary store's premise).
    pub lib_pool_seed: u64,
    /// Uniform range of classes per library package.
    pub lib_classes_per_package: (usize, usize),
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            classes_median: 55.0,
            classes_sigma: 0.55,
            methods_per_class: (4, 12),
            stmts_median: 20.0,
            stmts_sigma: 0.8,
            ref_locals: (5, 12),
            prim_locals: (2, 6),
            max_params: 4,
            branch_weight: 20,
            loop_weight: 11,
            switch_weight: 21,
            simple_weight: 48,
            call_fraction: 0.26,
            api_call_fraction: 0.38,
            recursion_prob: 0.04,
            layers: 5,
            components: (2, 6),
            fields_per_class: (4, 10),
            ref_field_fraction: 0.7,
            leak_prob: 0.35,
            lib_packages_per_app: 0,
            lib_pool_size: 0,
            lib_pool_seed: 0x5d_1b00,
            lib_classes_per_package: (3, 6),
        }
    }
}

impl GenConfig {
    /// A small configuration for unit tests: apps with a handful of classes
    /// that still exercise every statement shape.
    pub fn tiny() -> Self {
        Self { scale: 0.08, classes_median: 8.0, ..Self::default() }
    }

    /// A mid-size configuration for integration tests.
    pub fn small() -> Self {
        Self { scale: 0.25, ..Self::default() }
    }

    /// Enables the shared-library pool: each app draws `per_app` packages
    /// from a pool of `pool` packages generated from this config's
    /// `lib_pool_seed`.
    pub fn with_libraries(self, per_app: usize, pool: usize) -> Self {
        Self { lib_packages_per_app: per_app, lib_pool_size: pool, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_scale() {
        let c = GenConfig::default();
        assert!((c.scale - 1.0).abs() < f64::EPSILON);
        assert!(c.methods_per_class.0 <= c.methods_per_class.1);
        assert!(c.components.0 >= 1);
    }

    #[test]
    fn tiny_is_smaller() {
        assert!(GenConfig::tiny().scale < GenConfig::small().scale);
        assert!(GenConfig::small().scale < GenConfig::default().scale);
    }
}
