//! Split scoring shared by the exact grower (`engine.rs`) and the
//! histogram grower (`chunked.rs`), sparsity-aware (XGBoost §3.3–3.4).
//!
//! For every candidate threshold the finder evaluates *two* routings of
//! the missing-value mass — all-missing-left and all-missing-right — and
//! keeps the better one as the split's learned default direction.

/// The best split found for a node, with the child gradient statistics
/// needed to seed the recursion without rescanning.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCandidate {
    /// Feature to test.
    pub feature: usize,
    /// `value < threshold` goes left.
    pub threshold: f64,
    /// Side receiving missing values.
    pub default_left: bool,
    /// Loss reduction (γ already subtracted).
    pub gain: f64,
    /// Gradient sum of the left child (including missing if routed left).
    pub left_grad: f64,
    /// Hessian sum of the left child.
    pub left_hess: f64,
    /// Gradient sum of the right child.
    pub right_grad: f64,
    /// Hessian sum of the right child.
    pub right_hess: f64,
}

/// Regularised score `G²/(H+λ)` of a node holding gradient mass `(g, h)`.
#[inline]
pub fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Shared split-search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// L2 leaf regularisation.
    pub lambda: f64,
    /// Minimum loss reduction for a split to be kept.
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
}

/// Candidate bookkeeping shared by the exact and histogram scans: given
/// left/right statistics for both missing routings, keep the best. The
/// tie-break is a total order on (gain, feature, threshold), so the
/// winner does not depend on the order features are scanned in.
pub(crate) struct BestTracker {
    cfg: SplitConfig,
    parent_score: f64,
    pub(crate) best: Option<SplitCandidate>,
}

impl BestTracker {
    pub(crate) fn new(cfg: SplitConfig, total_g: f64, total_h: f64) -> Self {
        BestTracker { cfg, parent_score: score(total_g, total_h, cfg.lambda), best: None }
    }

    /// Offer one (feature, threshold, missing-direction) candidate.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &mut self,
        feature: usize,
        threshold: f64,
        default_left: bool,
        lg: f64,
        lh: f64,
        rg: f64,
        rh: f64,
    ) {
        if lh < self.cfg.min_child_weight || rh < self.cfg.min_child_weight {
            return;
        }
        let gain = 0.5
            * (score(lg, lh, self.cfg.lambda) + score(rg, rh, self.cfg.lambda) - self.parent_score)
            - self.cfg.gamma;
        if gain <= 0.0 {
            return;
        }
        let better = match &self.best {
            None => true,
            // Deterministic tie-breaking keeps parallel search reproducible.
            Some(b) => {
                gain > b.gain
                    || (gain == b.gain
                        && (feature < b.feature
                            || (feature == b.feature && threshold < b.threshold)))
            }
        };
        if better {
            self.best = Some(SplitCandidate {
                feature,
                threshold,
                default_left,
                gain,
                left_grad: lg,
                left_hess: lh,
                right_grad: rg,
                right_hess: rh,
            });
        }
    }

    /// Offer both missing routings for a present-value prefix `(gl, hl)`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn offer_both(
        &mut self,
        feature: usize,
        threshold: f64,
        gl: f64,
        hl: f64,
        g_miss: f64,
        h_miss: f64,
        g_total: f64,
        h_total: f64,
    ) {
        // Missing right: left keeps only the present prefix.
        self.offer(feature, threshold, false, gl, hl, g_total - gl, h_total - hl);
        if h_miss > 0.0 || g_miss != 0.0 {
            // Missing left: the missing mass joins the prefix.
            let lg = gl + g_miss;
            let lh = hl + h_miss;
            self.offer(feature, threshold, true, lg, lh, g_total - lg, h_total - lh);
        }
    }

    pub(crate) fn merge(self, other: Option<SplitCandidate>) -> Option<SplitCandidate> {
        match (self.best, other) {
            (None, b) => b,
            (a, None) => a,
            (Some(a), Some(b)) => {
                let a_wins = a.gain > b.gain
                    || (a.gain == b.gain
                        && (a.feature < b.feature
                            || (a.feature == b.feature && a.threshold <= b.threshold)));
                Some(if a_wins { a } else { b })
            }
        }
    }
}

/// Deterministically fold per-chunk winners into one best candidate,
/// applying the same tie-break order as the serial scan — the merge
/// behind the exact engine's feature-parallel scans.
pub(crate) fn merge_chunks(
    cfg: SplitConfig,
    total_g: f64,
    total_h: f64,
    results: Vec<Option<SplitCandidate>>,
) -> Option<SplitCandidate> {
    let mut best = None;
    for r in results {
        let mut tracker = BestTracker::new(cfg, total_g, total_h);
        tracker.best = best;
        best = tracker.merge(r);
    }
    best
}

/// Scan the bin boundaries of one feature's prebuilt histogram and
/// offer every candidate to `tracker`. `hist` carries one slot per bin
/// plus a trailing missing slot (the in-band layout the histogram grower
/// accumulates).
pub(crate) fn scan_hist(
    feature: usize,
    cuts: &[f64],
    hist: &[[f64; 2]],
    total_g: f64,
    total_h: f64,
    tracker: &mut BestTracker,
) {
    if cuts.is_empty() {
        return;
    }
    let [g_miss, h_miss] = hist[hist.len() - 1];
    scan_boundaries(feature, cuts, hist, g_miss, h_miss, total_g, total_h, tracker);
}

/// The boundary accumulation itself, dispatched on the active SIMD
/// level. Both paths fold the bins into the running `(gl, hl)` prefix
/// in ascending bin order, so the offered candidates are bitwise
/// identical whichever path runs.
#[allow(clippy::too_many_arguments)]
fn scan_boundaries(
    feature: usize,
    cuts: &[f64],
    hist: &[[f64; 2]],
    g_miss: f64,
    h_miss: f64,
    total_g: f64,
    total_h: f64,
    tracker: &mut BestTracker,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::active_level() != crate::simd::SimdLevel::Scalar {
        scan_boundaries_simd(feature, cuts, hist, g_miss, h_miss, total_g, total_h, tracker);
        return;
    }
    let mut gl = 0.0;
    let mut hl = 0.0;
    // Boundary after bin i corresponds to threshold cuts[i].
    for (i, &cut) in cuts.iter().enumerate() {
        gl += hist[i][0];
        hl += hist[i][1];
        tracker.offer_both(feature, cut, gl, hl, g_miss, h_miss, total_g, total_h);
    }
}

/// The vector boundary pass: the running `(gl, hl)` prefix lives in one
/// 128-bit register and each bin folds in with a single pair-add — two
/// independent IEEE additions per boundary, in the same ascending bin
/// order as the scalar loop, so every offered candidate is bitwise
/// identical to the scalar pass.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn scan_boundaries_simd(
    feature: usize,
    cuts: &[f64],
    hist: &[[f64; 2]],
    g_miss: f64,
    h_miss: f64,
    total_g: f64,
    total_h: f64,
    tracker: &mut BestTracker,
) {
    use crate::simd::x86::{load_pair, pair_add};
    let mut acc = [0.0f64; 2];
    // Boundary after bin i corresponds to threshold cuts[i].
    for (i, &cut) in cuts.iter().enumerate() {
        pair_add(&mut acc, load_pair(&hist[i]));
        tracker.offer_both(feature, cut, acc[0], acc[1], g_miss, h_miss, total_g, total_h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SplitConfig {
        SplitConfig { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 }
    }

    /// Scan one feature's histogram (bins then the missing slot) with a
    /// fresh tracker over the histogram's own totals.
    fn scan(cuts: &[f64], hist: &[[f64; 2]], cfg: SplitConfig) -> Option<SplitCandidate> {
        let total_g: f64 = hist.iter().map(|c| c[0]).sum();
        let total_h: f64 = hist.iter().map(|c| c[1]).sum();
        let mut tracker = BestTracker::new(cfg, total_g, total_h);
        scan_hist(0, cuts, hist, total_g, total_h, &mut tracker);
        tracker.best
    }

    /// Values {0, 1} (grad +1 each) against {10, 11} (grad −1 each),
    /// one bin per distinct value, nothing missing.
    fn separable() -> (Vec<f64>, Vec<[f64; 2]>) {
        let cuts = vec![0.5, 5.5, 10.5];
        let hist = vec![[1.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]];
        (cuts, hist)
    }

    #[test]
    fn scan_finds_the_obvious_split() {
        let (cuts, hist) = separable();
        let best = scan(&cuts, &hist, cfg()).unwrap();
        assert_eq!(best.feature, 0);
        assert_eq!(best.threshold, 5.5);
        // Left has grads +2, right -2 → gain = 0.5*(4/3 + 4/3 - 0) = 4/3
        assert!((best.gain - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(best.left_grad, 2.0);
        assert_eq!(best.right_grad, -2.0);
    }

    #[test]
    fn missing_left_wins_when_it_matches_signs() {
        // Present: low value +1 grad, high value -1. Missing rows grad +1
        // belong with the low side (left).
        let cuts = [5.0];
        let hist = [[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0]];
        let best = scan(&cuts, &hist, cfg()).unwrap();
        assert!(best.default_left);
        assert_eq!(best.left_grad, 2.0);
        assert_eq!(best.right_grad, -1.0);
    }

    #[test]
    fn min_child_weight_blocks_thin_children() {
        let (cuts, hist) = separable();
        assert!(scan(&cuts, &hist, SplitConfig { min_child_weight: 3.0, ..cfg() }).is_none());
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let (cuts, hist) = separable();
        assert!(scan(&cuts, &hist, SplitConfig { gamma: 10.0, ..cfg() }).is_none());
    }

    #[test]
    fn featureless_histogram_yields_no_split() {
        // A constant feature has no cuts, hence no boundary to offer.
        assert!(scan(&[], &[[1.0, 3.0], [0.0, 0.0]], cfg()).is_none());
    }

    #[test]
    fn merge_keeps_the_serial_winner() {
        let (cuts, hist) = separable();
        let best = scan(&cuts, &hist, cfg());
        let weaker = SplitCandidate { gain: 0.1, feature: 7, ..best.clone().unwrap() };
        for order in [vec![best.clone(), Some(weaker.clone())], vec![Some(weaker), best.clone()]] {
            assert_eq!(merge_chunks(cfg(), 0.0, 4.0, order), best);
        }
    }

    #[test]
    fn simd_boundary_scan_matches_scalar_bitwise() {
        // The vector boundary pass folds bins in the same ascending
        // order as the scalar loop, so the winning candidate must be
        // bitwise identical — gain, threshold, and child stats alike.
        // Safe to force levels here even with tests running in
        // parallel: every dispatch path is bit-identical by contract.
        let n_bins = 33usize; // cuts.len() + 1; odd, so the tail isn't lane-aligned
        let cuts: Vec<f64> = (0..n_bins - 1).map(|i| i as f64 * 0.75 + 0.1).collect();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2_000) as f64 / 500.0 - 2.0
        };
        // One slot per bin plus the trailing in-band missing slot.
        let mut hist: Vec<[f64; 2]> = (0..=n_bins).map(|_| [next(), next().abs() + 0.1]).collect();
        hist[n_bins] = [0.7, 1.3]; // non-trivial missing mass
        let total_g: f64 = hist.iter().map(|s| s[0]).sum();
        let total_h: f64 = hist.iter().map(|s| s[1]).sum();

        let scan_at = |level: crate::simd::SimdLevel| {
            crate::simd::force_level(Some(level));
            let mut tracker = BestTracker::new(cfg(), total_g, total_h);
            scan_hist(3, &cuts, &hist, total_g, total_h, &mut tracker);
            crate::simd::force_level(None);
            tracker.best.expect("a split must clear gamma=0 on this data")
        };

        let scalar = scan_at(crate::simd::SimdLevel::Scalar);
        assert_eq!(scalar.feature, 3);
        for level in [crate::simd::SimdLevel::Avx2, crate::simd::SimdLevel::Avx512]
            .into_iter()
            .filter(|&l| l <= crate::simd::detected_level())
        {
            let vector = scan_at(level);
            assert_eq!(scalar, vector, "boundary scan diverged at {level:?}");
            assert_eq!(scalar.gain.to_bits(), vector.gain.to_bits());
            assert_eq!(scalar.left_grad.to_bits(), vector.left_grad.to_bits());
            assert_eq!(scalar.left_hess.to_bits(), vector.left_hess.to_bits());
        }
    }
}
