//! Optimization configuration: which of the paper's three optimizations a
//! run enables.

use std::fmt;

/// The GDroid optimization flags (§IV).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct OptConfig {
    /// MAT — matrix/bitmask data structure for data-facts instead of
    /// dynamically allocated sets (§IV-A).
    pub mat: bool,
    /// GRP — memory-access-pattern node grouping: 3 branch partitions
    /// instead of 25, group-sorted worklists, group-major node storage
    /// (§IV-B).
    pub grp: bool,
    /// MER — worklist merging: process only the warp-sized head list,
    /// merge destinations with the postponed tail (§IV-C).
    pub mer: bool,
}

impl OptConfig {
    /// The plain GPU implementation (Alg. 2): no optimizations.
    pub fn plain() -> OptConfig {
        OptConfig::default()
    }

    /// MAT only — the Fig. 9 configuration.
    pub fn mat() -> OptConfig {
        OptConfig { mat: true, ..Default::default() }
    }

    /// MAT + GRP — the Fig. 11 configuration.
    pub fn mat_grp() -> OptConfig {
        OptConfig { mat: true, grp: true, mer: false }
    }

    /// MAT + GRP + MER — full GDroid (Alg. 3, Figs. 8 and 12).
    pub fn gdroid() -> OptConfig {
        OptConfig { mat: true, grp: true, mer: true }
    }

    /// All four ladder configurations in evaluation order.
    pub fn ladder() -> [OptConfig; 4] {
        [OptConfig::plain(), OptConfig::mat(), OptConfig::mat_grp(), OptConfig::gdroid()]
    }
}

impl fmt::Display for OptConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mat, self.grp, self.mer) {
            (false, false, false) => write!(f, "plain"),
            (true, false, false) => write!(f, "MAT"),
            (true, true, false) => write!(f, "MAT+GRP"),
            (true, true, true) => write!(f, "GDroid(MAT+GRP+MER)"),
            _ => write!(
                f,
                "custom({}{}{})",
                if self.mat { "M" } else { "-" },
                if self.grp { "G" } else { "-" },
                if self.mer { "R" } else { "-" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let [plain, mat, mat_grp, gdroid] = OptConfig::ladder();
        assert_eq!(plain, OptConfig::plain());
        assert!(mat.mat && !mat.grp && !mat.mer);
        assert!(mat_grp.mat && mat_grp.grp && !mat_grp.mer);
        assert!(gdroid.mat && gdroid.grp && gdroid.mer);
    }

    #[test]
    fn display_names() {
        assert_eq!(OptConfig::plain().to_string(), "plain");
        assert_eq!(OptConfig::mat().to_string(), "MAT");
        assert_eq!(OptConfig::mat_grp().to_string(), "MAT+GRP");
        assert_eq!(OptConfig::gdroid().to_string(), "GDroid(MAT+GRP+MER)");
        let odd = OptConfig { mat: false, grp: true, mer: true };
        assert_eq!(odd.to_string(), "custom(-GR)");
    }
}
