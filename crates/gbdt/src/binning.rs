//! Quantile binning for the histogram method (XGBoost's hist).
//!
//! Each feature gets a set of *cut points* — midpoints between adjacent
//! distinct values at (approximately) equal quantile ranks — and every
//! value an in-band code: a feature with `c` cuts codes present values
//! `0..=c` (the count of cuts at or below the value, matching the
//! tree's `v < threshold` rule) and missing values `c + 1`, so a node
//! histogram of `c + 2` slots can be accumulated straight off a row's
//! codes with the missing mass landing in the last slot. The codes live
//! in a [`crate::ChunkedMatrix`]; [`crate::ChunkedMatrix::fit`] bins a
//! whole matrix with the functions here.

use msaw_tabular::Matrix;
use std::cell::Cell;

thread_local! {
    /// Number of whole-matrix cut fits on this thread. Tests use the
    /// delta across a grid run to prove each variant's matrix is
    /// quantised exactly once. Thread-local (not atomic) so a test's
    /// count cannot be polluted by other tests running in parallel;
    /// contexts are built on the calling thread, so the grid's fits all
    /// land on the counter of the thread that invoked it.
    static FIT_COUNT: Cell<usize> = const { Cell::new(0) };

    /// Number of per-*column* quantisations (cut fitting + encoding) on
    /// this thread. A whole-matrix fit bumps it once per column; the
    /// cross-variant `ContextCache` bumps it only on cache misses, so
    /// grid tests can pin the number of **distinct** columns quantised.
    static COLUMN_FIT_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Total whole-matrix quantisations ([`crate::ChunkedMatrix::fit`])
/// made by the current thread.
pub fn fit_count() -> usize {
    FIT_COUNT.with(|c| c.get())
}

/// Total per-column quantisations performed by the current thread
/// (cache hits in a `ContextCache` do not count).
pub fn column_fit_count() -> usize {
    COLUMN_FIT_COUNT.with(|c| c.get())
}

pub(crate) fn bump_column_fit_count(by: usize) {
    COLUMN_FIT_COUNT.with(|c| c.set(c.get() + by));
}

/// Every column's cut points for at most `max_bins` bins, from its
/// exact distinct values. Counts as one whole-matrix fit.
pub(crate) fn fit_cuts(data: &Matrix, max_bins: u16) -> Vec<Vec<f64>> {
    assert!(max_bins >= 2, "need at least 2 bins");
    FIT_COUNT.with(|c| c.set(c.get() + 1));
    let ncols = data.ncols();
    bump_column_fit_count(ncols);
    (0..ncols).map(|j| cuts_from_distinct(&distinct_values(&data.column(j)), max_bins)).collect()
}

/// In-band code of one value against one feature's cuts.
#[inline]
pub(crate) fn encode_value(v: f64, cuts: &[f64]) -> u16 {
    if v.is_nan() {
        // In-band missing sentinel: one past the last present bin.
        cuts.len() as u16 + 1
    } else {
        // Count of cuts <= v = index of the bin containing v.
        cuts.partition_point(|&c| c <= v) as u16
    }
}

/// In-band codes for a whole column.
pub(crate) fn encode_column(col: &[f64], cuts: &[f64]) -> Vec<u16> {
    col.iter().map(|&v| encode_value(v, cuts)).collect()
}

/// Sorted distinct present values of a column — the shared first step of
/// both the exact rank index and cut fitting (and the unit the
/// cross-variant cache keys on).
pub(crate) fn distinct_values(col: &[f64]) -> Vec<f64> {
    let mut present: Vec<f64> = col.iter().copied().filter(|v| !v.is_nan()).collect();
    present.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    present.dedup();
    present
}

/// Cut points from a column's sorted distinct present values — shared
/// by the whole-matrix fit, the `ContextCache` (which already holds the
/// distinct set for the exact index) and the streaming `CutSketch`.
pub(crate) fn cuts_from_distinct(present: &[f64], max_bins: u16) -> Vec<f64> {
    if present.len() < 2 {
        return Vec::new();
    }
    let max_cuts = (max_bins - 1) as usize;
    if present.len() - 1 <= max_cuts {
        // Few distinct values: exact midpoints, identical to the exact finder.
        return present.windows(2).map(|w| w[0] + (w[1] - w[0]) * 0.5).collect();
    }
    // Evenly spaced ranks over the distinct values.
    let mut cuts = Vec::with_capacity(max_cuts);
    for k in 1..=max_cuts {
        let idx = k * (present.len() - 1) / (max_cuts + 1);
        let idx = idx.min(present.len() - 2);
        let cut = present[idx] + (present[idx + 1] - present[idx]) * 0.5;
        if cuts.last().is_none_or(|&last| cut > last) {
            cuts.push(cut);
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_column(values: &[f64], max_bins: u16) -> (Vec<f64>, Vec<u16>) {
        let x = Matrix::from_rows(&values.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let cuts = fit_cuts(&x, max_bins).remove(0);
        let codes = encode_column(values, &cuts);
        (cuts, codes)
    }

    #[test]
    fn few_distinct_values_get_exact_cuts() {
        let (cuts, codes) = single_column(&[1.0, 2.0, 4.0, 2.0], 256);
        assert_eq!(cuts, [1.5, 3.0]);
        assert_eq!(codes, [0, 1, 2, 1]);
    }

    #[test]
    fn missing_values_get_the_in_band_sentinel() {
        let (cuts, codes) = single_column(&[1.0, f64::NAN], 4);
        assert!(cuts.is_empty());
        // One past the last present bin.
        assert_eq!(codes, [0, 1]);
    }

    #[test]
    fn constant_feature_has_no_cuts() {
        let (cuts, codes) = single_column(&[3.0, 3.0, 3.0], 8);
        assert!(cuts.is_empty());
        assert_eq!(codes, [0, 0, 0]);
    }

    #[test]
    fn bin_count_respects_max_bins() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let (cuts, _) = single_column(&values, 16);
        assert!(cuts.len() <= 15);
        assert!(cuts.len() >= 8, "should use most of the budget");
    }

    #[test]
    fn cuts_are_strictly_ascending() {
        let values: Vec<f64> = (0..500).map(|i| (i % 37) as f64).collect();
        let (cuts, _) = single_column(&values, 8);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn binning_is_order_consistent() {
        // If v1 < cut <= v2 then code(v1) < code(v2).
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let (_, codes) = single_column(&values, 10);
        assert!(codes.windows(2).all(|w| w[0] <= w[1]), "codes must be monotone in value");
    }

    #[test]
    fn values_respect_their_bin_boundaries() {
        let values: Vec<f64> = (0..256).map(|i| ((i * 7) % 101) as f64).collect();
        let (cuts, codes) = single_column(&values, 8);
        for (&v, &code) in values.iter().zip(&codes) {
            let bin = code as usize;
            if bin > 0 {
                assert!(v >= cuts[bin - 1], "value below its bin's lower cut");
            }
            if bin < cuts.len() {
                assert!(v < cuts[bin], "value at/above its bin's upper cut");
            }
        }
    }

    #[test]
    fn fit_bumps_the_column_counter_per_column() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let before = (fit_count(), column_fit_count());
        fit_cuts(&x, 8);
        assert_eq!((fit_count() - before.0, column_fit_count() - before.1), (1, 3));
    }
}
