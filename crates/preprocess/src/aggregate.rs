//! Temporal aggregation: weekly/daily series into monthly values.

/// Average a regular series into blocks of `block_len` (e.g. 4 weeks →
/// 1 month), skipping `NaN`s, writing one mean per block into `out`. A
/// block with no present values is `NaN`. The series length must be a
/// multiple of `block_len`, and `out` must hold exactly one slot per
/// block.
pub fn monthly_means(series: &[f64], block_len: usize, out: &mut [f64]) {
    assert!(block_len > 0, "block length must be positive");
    assert_eq!(
        series.len() % block_len,
        0,
        "series length {} not a multiple of block {}",
        series.len(),
        block_len
    );
    assert_eq!(out.len(), series.len() / block_len, "one output slot per block");
    for (slot, chunk) in out.iter_mut().zip(series.chunks_exact(block_len)) {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &v in chunk {
            // Branch-free skip: `sum` starts at +0.0 and so is never
            // −0.0, which makes adding +0.0 for a missing value exact.
            let present = !v.is_nan();
            sum += if present { v } else { 0.0 };
            n += usize::from(present);
        }
        *slot = if n == 0 { f64::NAN } else { sum / n as f64 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn means(series: &[f64], block_len: usize) -> Vec<f64> {
        let mut out = vec![0.0; series.len() / block_len];
        monthly_means(series, block_len, &mut out);
        out
    }

    #[test]
    fn averages_complete_blocks() {
        let out = means(&[1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], 4);
        assert_eq!(out, vec![2.5, 10.0]);
    }

    #[test]
    fn skips_nans_within_block() {
        let out = means(&[2.0, f64::NAN, 4.0, f64::NAN], 4);
        assert_eq!(out, vec![3.0]);
    }

    #[test]
    fn all_missing_block_is_nan() {
        let out = means(&[f64::NAN, f64::NAN, 1.0, 1.0], 2);
        assert!(out[0].is_nan());
        assert_eq!(out[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_series_panics() {
        means(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn empty_series_gives_no_blocks() {
        assert!(means(&[], 4).is_empty());
    }
}
