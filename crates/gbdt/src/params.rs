//! Hyper-parameters for the booster.

use crate::error::TrainError;
use crate::objective::Objective;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Histogram resolution a [`crate::TrainingContext`] uses when the
/// caller does not specify one. 256 matches XGBoost's `max_bin` default
/// and is lossless for the reproduction's feature cardinalities.
pub const DEFAULT_CONTEXT_BINS: u16 = 256;

/// Which split finder grows the trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TreeMethod {
    /// Enumerate every distinct feature value (XGBoost "exact").
    #[default]
    Exact,
    /// Scan quantile-sketch histogram bins (XGBoost "hist").
    Hist {
        /// Maximum number of bins per feature (XGBoost's `max_bin`).
        max_bins: u16,
    },
}

/// Booster hyper-parameters. Field names and defaults mirror XGBoost so
/// the configuration in the paper ("well-established gradient boosting")
/// translates directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to every leaf weight (XGBoost `eta`).
    pub learning_rate: f64,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularisation on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum loss reduction required to make a split (XGBoost `gamma`).
    pub gamma: f64,
    /// Minimum sum of hessians required in each child.
    pub min_child_weight: f64,
    /// Fraction of rows sampled (without replacement) per tree.
    pub subsample: f64,
    /// Fraction of columns sampled per tree.
    pub colsample_bytree: f64,
    /// Loss function.
    pub objective: Objective,
    /// Split finder.
    pub tree_method: TreeMethod,
    /// Seed driving all subsampling.
    pub seed: u64,
    /// Grow exact-method trees with per-feature parallel split search
    /// once a node has at least this many rows. `usize::MAX` forces
    /// single-threaded.
    pub parallel_split_threshold: usize,
}

impl Params {
    /// Sensible defaults for the paper's regression outcomes (QoL, SPPB).
    pub fn regression() -> Self {
        Params {
            n_estimators: 200,
            learning_rate: 0.1,
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample_bytree: 1.0,
            objective: Objective::SquaredError,
            tree_method: TreeMethod::Exact,
            seed: 42,
            parallel_split_threshold: 4096,
        }
    }

    /// Sensible defaults for the imbalanced Falls classification.
    pub fn binary(scale_pos_weight: f64) -> Self {
        Params { objective: Objective::Logistic { scale_pos_weight }, ..Params::regression() }
    }

    /// Validate ranges; called once at the top of training.
    pub fn validate(&self) -> Result<(), TrainError> {
        fn check(cond: bool, name: &'static str, message: &str) -> Result<(), TrainError> {
            if cond {
                Ok(())
            } else {
                Err(TrainError::InvalidParam { name, message: message.to_string() })
            }
        }
        check(self.n_estimators > 0, "n_estimators", "must be positive")?;
        check(
            self.learning_rate > 0.0 && self.learning_rate <= 1.0,
            "learning_rate",
            "must be in (0, 1]",
        )?;
        check(self.max_depth >= 1, "max_depth", "must be at least 1")?;
        check(self.lambda >= 0.0, "lambda", "must be non-negative")?;
        check(self.gamma >= 0.0, "gamma", "must be non-negative")?;
        check(self.min_child_weight >= 0.0, "min_child_weight", "must be non-negative")?;
        check(self.subsample > 0.0 && self.subsample <= 1.0, "subsample", "must be in (0, 1]")?;
        check(
            self.colsample_bytree > 0.0 && self.colsample_bytree <= 1.0,
            "colsample_bytree",
            "must be in (0, 1]",
        )?;
        if let TreeMethod::Hist { max_bins } = self.tree_method {
            check(max_bins >= 2, "max_bins", "must be at least 2")?;
        }
        if let Objective::Logistic { scale_pos_weight } = self.objective {
            check(scale_pos_weight > 0.0, "scale_pos_weight", "must be positive")?;
        }
        Ok(())
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::regression()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(Params::regression().validate().is_ok());
        assert!(Params::binary(5.0).validate().is_ok());
    }

    #[test]
    fn zero_estimators_rejected() {
        let p = Params { n_estimators: 0, ..Params::default() };
        assert!(matches!(p.validate(), Err(TrainError::InvalidParam { name: "n_estimators", .. })));
    }

    #[test]
    fn bad_learning_rate_rejected() {
        for lr in [0.0, -0.5, 1.5] {
            let p = Params { learning_rate: lr, ..Params::default() };
            assert!(p.validate().is_err(), "learning_rate {lr} should be rejected");
        }
    }

    #[test]
    fn bad_subsample_rejected() {
        let p = Params { subsample: 0.0, ..Params::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn hist_needs_two_bins() {
        let p = Params { tree_method: TreeMethod::Hist { max_bins: 1 }, ..Params::default() };
        assert!(p.validate().is_err());
        let p = Params { tree_method: TreeMethod::Hist { max_bins: 2 }, ..Params::default() };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn negative_scale_pos_weight_rejected() {
        let p = Params::binary(-1.0);
        assert!(p.validate().is_err());
    }
}
