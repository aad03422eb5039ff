//! Small statistics helpers for aggregate reporting.

/// A sortable series of per-app values with the summary operations the
/// paper's figures use.
#[derive(Clone, Debug, Default)]
pub struct Series {
    values: Vec<f64>,
}

impl Series {
    /// Builds from raw values.
    pub fn new(values: Vec<f64>) -> Series {
        Series { values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Maximum.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The values sorted descending — the x-axis ordering of every figure.
    pub fn sorted_desc(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        v
    }

    /// `p`-th percentile (0–100) of the ascending ordering.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = (p / 100.0 * (v.len() - 1) as f64).round() as usize;
        v[rank.min(v.len() - 1)]
    }

    /// Fraction (0–1) of values strictly below `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        percent_below(&self.values, x)
    }

    /// Fraction of values in `[lo, hi)`.
    pub fn fraction_between(&self, lo: f64, hi: f64) -> f64 {
        percent_between(&self.values, lo, hi)
    }

    /// Raw access.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Fraction of values strictly below `x`.
pub fn percent_below(values: &[f64], x: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v < x).count() as f64 / values.len() as f64
}

/// Fraction of values in `[lo, hi)`.
pub fn percent_between(values: &[f64], lo: f64, hi: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v >= lo && v < hi).count() as f64 / values.len() as f64
}

/// `baseline_ns / candidate_ns`, or 1.0 when the candidate took no modeled
/// time at all (nothing ran) — the guard every printed speedup shares.
pub fn speedup(baseline_ns: f64, candidate_ns: f64) -> f64 {
    if candidate_ns > 0.0 {
        baseline_ns / candidate_ns
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        Series::new(vec![1.0, 2.0, 3.0, 4.0, 5.0])
    }

    #[test]
    fn summary_stats() {
        let s = series();
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn sorted_desc_and_percentiles() {
        let s = series();
        assert_eq!(s.sorted_desc(), vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
    }

    #[test]
    fn fractions() {
        let s = series();
        assert_eq!(s.fraction_below(3.0), 0.4);
        assert_eq!(s.fraction_between(2.0, 4.0), 0.4);
        assert_eq!(percent_below(&[], 1.0), 0.0);
        assert_eq!(percent_between(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn speedup_is_guarded_against_an_empty_candidate() {
        assert_eq!(speedup(6.0, 2.0), 3.0);
        assert_eq!(speedup(6.0, 0.0), 1.0);
        assert_eq!(speedup(0.0, 0.0), 1.0);
    }
}
