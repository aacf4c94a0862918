//! Loss functions: first- and second-order derivatives, base-score
//! initialisation, and the raw→output transform.

use crate::error::TrainError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// The training objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// `L = ½(y − ŷ)²` — used for QoL and SPPB regression.
    SquaredError,
    /// Binary logistic loss on raw scores; positive examples have their
    /// gradient and hessian multiplied by `scale_pos_weight` to counter
    /// class imbalance (the Falls outcome is ~6:1 negative:positive).
    Logistic {
        /// Weight multiplier for positive (label 1) rows.
        scale_pos_weight: f64,
    },
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl Objective {
    /// Check label validity for this objective.
    pub fn validate_labels(&self, labels: &[f64]) -> Result<(), TrainError> {
        if let Objective::Logistic { .. } = self {
            for (row, &y) in labels.iter().enumerate() {
                if y != 0.0 && y != 1.0 {
                    return Err(TrainError::NonBinaryLabel { row, value: y });
                }
            }
        }
        Ok(())
    }

    /// The constant raw score minimising the loss over the labels —
    /// the mean for squared error, the log-odds for logistic.
    pub fn base_score(&self, labels: &[f64]) -> f64 {
        match self {
            Objective::SquaredError => labels.iter().sum::<f64>() / labels.len() as f64,
            Objective::Logistic { scale_pos_weight } => {
                let pos: f64 = labels.iter().sum();
                let neg = labels.len() as f64 - pos;
                // Weighted prevalence; clamp away from {0,1} so the
                // log-odds stay finite even for single-class folds.
                let wpos = pos * scale_pos_weight;
                let p = (wpos / (wpos + neg)).clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
        }
    }

    /// Fill `grad` and `hess` for the current raw predictions.
    pub fn grad_hess(&self, labels: &[f64], raw: &[f64], grad: &mut [f64], hess: &mut [f64]) {
        debug_assert_eq!(labels.len(), raw.len());
        match self {
            Objective::SquaredError => {
                for i in 0..labels.len() {
                    grad[i] = raw[i] - labels[i];
                    hess[i] = 1.0;
                }
            }
            Objective::Logistic { scale_pos_weight } => {
                for i in 0..labels.len() {
                    let p = sigmoid(raw[i]);
                    let w = if labels[i] > 0.5 { *scale_pos_weight } else { 1.0 };
                    grad[i] = w * (p - labels[i]);
                    hess[i] = w * (p * (1.0 - p)).max(1e-16);
                }
            }
        }
    }

    /// Map a raw score to the output space (identity / probability).
    #[inline]
    pub fn transform(&self, raw: f64) -> f64 {
        match self {
            Objective::SquaredError => raw,
            Objective::Logistic { .. } => sigmoid(raw),
        }
    }

    /// Mean loss of raw predictions (the per-round training loss).
    pub fn loss(&self, labels: &[f64], raw: &[f64]) -> f64 {
        debug_assert_eq!(labels.len(), raw.len());
        let n = labels.len() as f64;
        match self {
            Objective::SquaredError => {
                labels.iter().zip(raw).map(|(y, r)| 0.5 * (y - r) * (y - r)).sum::<f64>() / n
            }
            Objective::Logistic { scale_pos_weight } => {
                labels
                    .iter()
                    .zip(raw)
                    .map(|(y, r)| {
                        let p = sigmoid(*r).clamp(1e-15, 1.0 - 1e-15);
                        if *y > 0.5 {
                            -scale_pos_weight * p.ln()
                        } else {
                            -(1.0 - p).ln()
                        }
                    })
                    .sum::<f64>()
                    / n
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_error_gradients() {
        let obj = Objective::SquaredError;
        let mut g = vec![0.0; 2];
        let mut h = vec![0.0; 2];
        obj.grad_hess(&[1.0, 3.0], &[2.0, 2.0], &mut g, &mut h);
        assert_eq!(g, vec![1.0, -1.0]);
        assert_eq!(h, vec![1.0, 1.0]);
    }

    #[test]
    fn squared_error_base_is_mean() {
        assert_eq!(Objective::SquaredError.base_score(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn logistic_base_is_logodds() {
        let obj = Objective::Logistic { scale_pos_weight: 1.0 };
        // 25% positive → logit(0.25) = ln(1/3)
        let base = obj.base_score(&[1.0, 0.0, 0.0, 0.0]);
        assert!((base - (0.25f64 / 0.75).ln()).abs() < 1e-9);
        // And the transform must take it back to the prevalence.
        assert!((obj.transform(base) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn logistic_base_finite_for_single_class() {
        let obj = Objective::Logistic { scale_pos_weight: 1.0 };
        assert!(obj.base_score(&[0.0, 0.0]).is_finite());
        assert!(obj.base_score(&[1.0, 1.0]).is_finite());
    }

    #[test]
    fn logistic_gradient_at_raw_zero() {
        let obj = Objective::Logistic { scale_pos_weight: 1.0 };
        let mut g = vec![0.0; 2];
        let mut h = vec![0.0; 2];
        obj.grad_hess(&[1.0, 0.0], &[0.0, 0.0], &mut g, &mut h);
        assert!((g[0] + 0.5).abs() < 1e-12); // p - y = 0.5 - 1
        assert!((g[1] - 0.5).abs() < 1e-12);
        assert!((h[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scale_pos_weight_scales_positive_rows_only() {
        let obj = Objective::Logistic { scale_pos_weight: 4.0 };
        let mut g = vec![0.0; 2];
        let mut h = vec![0.0; 2];
        obj.grad_hess(&[1.0, 0.0], &[0.0, 0.0], &mut g, &mut h);
        assert!((g[0] + 2.0).abs() < 1e-12); // 4 * (0.5 - 1)
        assert!((g[1] - 0.5).abs() < 1e-12); // unweighted
        assert!((h[0] - 1.0).abs() < 1e-12); // 4 * 0.25
    }

    #[test]
    fn non_binary_label_is_rejected() {
        let obj = Objective::Logistic { scale_pos_weight: 1.0 };
        let err = obj.validate_labels(&[0.0, 0.5]).unwrap_err();
        assert!(matches!(err, TrainError::NonBinaryLabel { row: 1, .. }));
        assert!(Objective::SquaredError.validate_labels(&[0.5]).is_ok());
    }

    #[test]
    fn loss_decreases_toward_truth() {
        let obj = Objective::SquaredError;
        assert!(obj.loss(&[1.0], &[0.9]) < obj.loss(&[1.0], &[0.0]));
        let lobj = Objective::Logistic { scale_pos_weight: 1.0 };
        assert!(lobj.loss(&[1.0], &[2.0]) < lobj.loss(&[1.0], &[-2.0]));
    }

    #[test]
    fn transform_is_identity_or_sigmoid() {
        assert_eq!(Objective::SquaredError.transform(1.3), 1.3);
        let p = Objective::Logistic { scale_pos_weight: 1.0 }.transform(0.0);
        assert!((p - 0.5).abs() < 1e-12);
    }
}
