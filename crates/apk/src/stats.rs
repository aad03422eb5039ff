//! Corpus statistics — the data behind the paper's Table I.

use crate::app::App;
use gdroid_ir::Stmt;

/// Per-app structural statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppStats {
    /// Number of statements = intra-procedural CFG nodes (entry/exit nodes
    /// added by the ICFG layer are excluded here, as in the paper's
    /// Table I which reports CFG nodes).
    pub cfg_nodes: usize,
    /// Number of methods (incl. lifecycle callbacks; environment methods
    /// are synthesized later).
    pub methods: usize,
    /// Number of classes (app classes only; framework stubs excluded).
    pub app_classes: usize,
    /// Total declared variables.
    pub variables: usize,
    /// Reference-typed variables (points-to slot candidates).
    pub ref_variables: usize,
    /// Allocation sites (`new` + string literals).
    pub allocation_sites: usize,
    /// Call statements.
    pub call_sites: usize,
    /// Branch statements (if/switch) — divergence drivers.
    pub branches: usize,
    /// Back-edge candidates (gotos with target before the statement) —
    /// fixed-point revisit drivers.
    pub back_edges: usize,
}

impl AppStats {
    /// Computes statistics for one app.
    pub fn of(app: &App) -> Self {
        let p = &app.program;
        let mut s = AppStats {
            cfg_nodes: p.total_statements(),
            methods: p.methods.len(),
            variables: p.total_vars(),
            ..Default::default()
        };
        s.app_classes = p
            .classes
            .iter()
            .filter(|c| {
                let name = p.interner.resolve(c.name);
                !name.starts_with("android/")
                    && !name.starts_with("java/")
                    && !name.starts_with("org/")
            })
            .count();
        for m in p.methods.iter() {
            s.ref_variables += m.reference_var_count();
            s.allocation_sites += m.allocation_site_count();
            for (idx, stmt) in m.body.iter_enumerated() {
                match stmt {
                    Stmt::Call { .. } => s.call_sites += 1,
                    Stmt::If { target, .. } => {
                        s.branches += 1;
                        if target.index() <= idx.index() {
                            s.back_edges += 1;
                        }
                    }
                    Stmt::Switch { .. } => s.branches += 1,
                    Stmt::Goto { target } if target.index() <= idx.index() => {
                        s.back_edges += 1;
                    }
                    _ => {}
                }
            }
        }
        s
    }
}

/// Aggregate statistics over a corpus — Table I's rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct CorpusStats {
    /// Number of apps aggregated.
    pub apps: usize,
    /// Mean CFG nodes per app (paper: 6217).
    pub mean_cfg_nodes: f64,
    /// Mean methods per app (paper: 268).
    pub mean_methods: f64,
    /// Mean reference variables per method — the slot-pool proxy
    /// (paper's "no. of Variable": 116; see EXPERIMENTS.md for the
    /// interpretation).
    pub mean_ref_vars_per_app_hundreds: f64,
    /// Largest single-app CFG node count.
    pub max_cfg_nodes: usize,
    /// Mean allocation sites per app.
    pub mean_alloc_sites: f64,
    /// Mean call sites per app.
    pub mean_call_sites: f64,
    /// Mean back edges per app.
    pub mean_back_edges: f64,
}

impl CorpusStats {
    /// Aggregates a set of per-app statistics.
    pub fn aggregate(stats: &[AppStats]) -> Self {
        let n = stats.len().max(1) as f64;
        CorpusStats {
            apps: stats.len(),
            mean_cfg_nodes: stats.iter().map(|s| s.cfg_nodes as f64).sum::<f64>() / n,
            mean_methods: stats.iter().map(|s| s.methods as f64).sum::<f64>() / n,
            mean_ref_vars_per_app_hundreds: stats
                .iter()
                .map(|s| s.ref_variables as f64 / (s.methods.max(1)) as f64)
                .sum::<f64>()
                / n,
            max_cfg_nodes: stats.iter().map(|s| s.cfg_nodes).max().unwrap_or(0),
            mean_alloc_sites: stats.iter().map(|s| s.allocation_sites as f64).sum::<f64>() / n,
            mean_call_sites: stats.iter().map(|s| s.call_sites as f64).sum::<f64>() / n,
            mean_back_edges: stats.iter().map(|s| s.back_edges as f64).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use crate::corpus::Corpus;
    use crate::generator::generate_app;

    #[test]
    fn stats_count_basic_features() {
        let app = generate_app(0, 777, &GenConfig::tiny());
        let s = AppStats::of(&app);
        assert!(s.cfg_nodes > 0);
        assert!(s.methods > 0);
        assert!(s.variables >= s.ref_variables);
        assert!(s.app_classes >= 2);
        assert!(s.allocation_sites > 0, "every method seeds an allocation");
    }

    #[test]
    fn loops_produce_back_edges() {
        // Over a few apps there should be at least one loop.
        let total: usize = (0..5)
            .map(|i| {
                let app = generate_app(i, 100 + i as u64, &GenConfig::small());
                AppStats::of(&app).back_edges
            })
            .sum();
        assert!(total > 0, "no back edges in 5 apps");
    }

    #[test]
    fn aggregate_means() {
        let c = Corpus::test_corpus(4);
        let stats: Vec<AppStats> = c.iter().map(|a| AppStats::of(&a)).collect();
        let agg = CorpusStats::aggregate(&stats);
        assert_eq!(agg.apps, 4);
        assert!(agg.mean_cfg_nodes > 0.0);
        assert!(agg.max_cfg_nodes as f64 >= agg.mean_cfg_nodes);
    }

    #[test]
    fn aggregate_of_empty_is_zeroed() {
        let agg = CorpusStats::aggregate(&[]);
        assert_eq!(agg.apps, 0);
        assert_eq!(agg.mean_cfg_nodes, 0.0);
    }
}
