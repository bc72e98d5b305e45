//! Isotonic regression for noisy dose-response curves.

use crate::error::ensure_sample;
use crate::{Result, StatsError};

/// Weighted isotonic regression (pool-adjacent-violators): the closest
/// non-decreasing sequence to `values` in weighted least squares.
///
/// Used to impose monotonicity on noisy dose-response curves (e.g. failure
/// rate vs temperature, where physics says hotter cannot mean fewer
/// temperature-driven failures).
///
/// # Errors
///
/// Returns an error for empty/mismatched inputs, non-finite values, or a
/// non-positive weight.
pub fn isotonic_regression(values: &[f64], weights: &[f64]) -> Result<Vec<f64>> {
    ensure_sample(values)?;
    if values.len() != weights.len() {
        return Err(StatsError::LengthMismatch { left: values.len(), right: weights.len() });
    }
    for (index, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w <= 0.0 {
            return Err(StatsError::NonFiniteInput { index });
        }
    }
    // Blocks of pooled (mean, weight, extent).
    let mut means: Vec<f64> = Vec::with_capacity(values.len());
    let mut block_w: Vec<f64> = Vec::with_capacity(values.len());
    let mut extent: Vec<usize> = Vec::with_capacity(values.len());
    for (&v, &w) in values.iter().zip(weights) {
        means.push(v);
        block_w.push(w);
        extent.push(1);
        // Pool while the ordering is violated.
        while means.len() > 1 {
            let n = means.len();
            if means[n - 2] <= means[n - 1] {
                break;
            }
            let w_total = block_w[n - 2] + block_w[n - 1];
            let pooled = (means[n - 2] * block_w[n - 2] + means[n - 1] * block_w[n - 1]) / w_total;
            means[n - 2] = pooled;
            block_w[n - 2] = w_total;
            extent[n - 2] += extent[n - 1];
            means.pop();
            block_w.pop();
            extent.pop();
        }
    }
    let mut out = Vec::with_capacity(values.len());
    for (m, e) in means.iter().zip(&extent) {
        out.extend(std::iter::repeat_n(*m, *e));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotonic_leaves_monotone_input_unchanged() {
        let v = vec![1.0, 2.0, 2.0, 5.0];
        let w = vec![1.0; 4];
        assert_eq!(isotonic_regression(&v, &w).unwrap(), v);
    }

    #[test]
    fn isotonic_pools_violators_by_weight() {
        // Heavy first point dominates the pooled block.
        let fit = isotonic_regression(&[3.0, 1.0], &[3.0, 1.0]).unwrap();
        assert_eq!(fit.len(), 2);
        assert_eq!(fit[0], fit[1]);
        assert!((fit[0] - 2.5).abs() < 1e-12, "weighted mean (3*3+1)/4");
        // A noisy low-weight spike cannot poison the tail.
        let v = [10.0, 1.0, 2.0, 3.0];
        let w = [0.01, 10.0, 10.0, 10.0];
        let fit = isotonic_regression(&v, &w).unwrap();
        assert!(fit[3] <= 3.01 && fit[3] >= 2.9, "{fit:?}");
        for pair in fit.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
    }

    #[test]
    fn isotonic_preserves_weighted_mean() {
        let v = [5.0, 4.0, 6.0, 2.0, 7.0];
        let w = [1.0, 2.0, 1.0, 3.0, 1.0];
        let fit = isotonic_regression(&v, &w).unwrap();
        let before: f64 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
        let after: f64 = fit.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((before - after).abs() < 1e-9, "PAVA conserves the weighted sum");
    }

    #[test]
    fn isotonic_rejects_bad_inputs() {
        assert!(isotonic_regression(&[], &[]).is_err());
        assert!(isotonic_regression(&[1.0], &[]).is_err());
        assert!(isotonic_regression(&[1.0], &[0.0]).is_err());
        assert!(isotonic_regression(&[1.0], &[-1.0]).is_err());
    }
}
