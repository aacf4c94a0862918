//! Deterministic substream derivation.
//!
//! Every simulated quantity draws from an `StdRng` seeded by mixing the
//! master seed with a `(stream, patient, item)` triple, so adding or
//! reordering generation steps never perturbs unrelated streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Named noise streams (the values are part of the reproducibility
/// contract — reordering them changes generated cohorts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Patient demographics and baseline latent state.
    Baseline = 1,
    /// Monthly latent trajectory innovations.
    Trajectory = 2,
    /// PRO answer noise.
    Pro = 3,
    /// PRO missingness gaps.
    Gaps = 4,
    /// Activity tracker noise.
    Activity = 5,
    /// Clinical deficit draws.
    Clinical = 6,
    /// Outcome noise.
    Outcomes = 7,
}

/// SplitMix64 finaliser — decorrelates structured seed inputs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An RNG for `(master seed, stream, patient, item)`.
pub fn substream(seed: u64, stream: Stream, patient: u64, item: u64) -> StdRng {
    let mixed = splitmix64(
        splitmix64(seed ^ (stream as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            ^ patient.wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ item.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    StdRng::seed_from_u64(mixed)
}

/// Standard-normal draw via Box–Muller (avoids needing `rand_distr`).
pub fn normal(rng: &mut StdRng) -> f64 {
    let (u1, u2) = normal_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one [`normal`] draw consumes, in draw order:
/// `u1 ∈ [f64::MIN_POSITIVE, 1)` (never zero, never subnormal) and
/// `u2 ∈ [0, 1)`, both on the generator's 2⁻⁵³ grid (where the grid
/// point is 0, `u1` is `MIN_POSITIVE` instead).
pub(crate) fn normal_uniforms(rng: &mut StdRng) -> (f64, f64) {
    use rand::RngExt;
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (u1, u2)
}

/// The Box–Muller transform `√(−2 ln u1) · cos(2π u2)` — the one exact
/// formula every standard-normal draw in the simulator goes through.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Proven bound on `|box_muller_approx(u1, u2) − box_muller(u1, u2)|`
/// over the whole domain of [`normal_uniforms`] (DESIGN.md §13 derives
/// it: `r·(ε_ln/2 + ε_cos + rounding)` with `r ≤ √(−2 ln MIN_POSITIVE)
/// ≈ 37.65`, `ε_ln ≤ 5.2e-11` relative, `ε_cos ≤ 6.1e-12` absolute).
pub(crate) const BOX_MULLER_APPROX_ERR: f64 = 1.25e-9;

/// A cheap Box–Muller: [`box_muller`] with `ln` and `cos` replaced by
/// the truncated series [`ln_approx`] and [`cos_tau_approx`]. Within
/// [`BOX_MULLER_APPROX_ERR`] of the exact formula for every
/// `(u1, u2)` [`normal_uniforms`] can return; not bit-identical to it,
/// so callers that need exact bits use it only as a filter.
pub(crate) fn box_muller_approx(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_approx(u1)).sqrt() * cos_tau_approx(u2)
}

/// `ln x` for positive normal finite `x`, with relative error at most
/// `5.2e-11` when `x < 1`. Range reduction `x = m·2^e` with
/// `m ∈ [√½, √2]` is exact; then `ln m = 2·atanh(s)`, `s = (m−1)/(m+1)`,
/// `|s| ≤ 3 − 2√2`, summed through `s¹¹` (truncation `< s¹²/13/(1−s²)`
/// relative).
fn ln_approx(x: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    // 2⁵², whose bit pattern ORed with an 11-bit integer `k` reads as
    // `2⁵² + k` exactly: the biased exponent as an f64 without an
    // int→float conversion (which keeps the callers' loops vectorisable).
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let bits = x.to_bits();
    let biased = f64::from_bits((bits >> 52) | TWO_52.to_bits());
    let m = f64::from_bits((bits & MANTISSA) | 1f64.to_bits());
    // Re-centre on 1 (`m·½` is exact), so the series converges fast.
    let high = m > std::f64::consts::SQRT_2;
    let m = if high { m * 0.5 } else { m };
    let e = (biased - TWO_52) - if high { 1022.0 } else { 1023.0 };
    // `m − 1` is exact (Sterbenz); all terms below are positive.
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let p = 1.0
        + s2 * (1.0 / 3.0
            + s2 * (1.0 / 5.0 + s2 * (1.0 / 7.0 + s2 * (1.0 / 9.0 + s2 * (1.0 / 11.0)))));
    e * std::f64::consts::LN_2 + 2.0 * s * p
}

/// `cos(2π u)` for `u ∈ [0, 1)`, with absolute error at most `6.1e-12`.
/// Reflection `w = min(u, 1−u)` and `y = 4w − 1 ∈ [−1, 1]` are exact on
/// the 2⁻⁵³ grid, and `cos(2πw) = −sin(πy/2)`; the sine series is
/// summed through `t¹⁵` (truncation `≤ (π/2)¹⁷/17!` since the series
/// alternates with shrinking terms on `|t| ≤ π/2`).
fn cos_tau_approx(u: f64) -> f64 {
    let y = 4.0 * u.min(1.0 - u) - 1.0;
    let t = y * std::f64::consts::FRAC_PI_2;
    let t2 = t * t;
    // 1/n! for the odd n of the series.
    const F3: f64 = 1.0 / 6.0;
    const F5: f64 = 1.0 / 120.0;
    const F7: f64 = 1.0 / 5_040.0;
    const F9: f64 = 1.0 / 362_880.0;
    const F11: f64 = 1.0 / 39_916_800.0;
    const F13: f64 = 1.0 / 6_227_020_800.0;
    const F15: f64 = 1.0 / 1_307_674_368_000.0;
    let q =
        1.0 - t2 * (F3 - t2 * (F5 - t2 * (F7 - t2 * (F9 - t2 * (F11 - t2 * (F13 - t2 * F15))))));
    -(t * q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn substreams_are_deterministic() {
        let a: f64 = substream(42, Stream::Pro, 1, 2).random();
        let b: f64 = substream(42, Stream::Pro, 1, 2).random();
        assert_eq!(a, b);
    }

    #[test]
    fn substreams_differ_across_axes() {
        let base: f64 = substream(42, Stream::Pro, 1, 2).random();
        assert_ne!(base, substream(43, Stream::Pro, 1, 2).random::<f64>());
        assert_ne!(base, substream(42, Stream::Gaps, 1, 2).random::<f64>());
        assert_ne!(base, substream(42, Stream::Pro, 2, 2).random::<f64>());
        assert_ne!(base, substream(42, Stream::Pro, 1, 3).random::<f64>());
    }

    /// Uniform pairs at the edges of [`normal_uniforms`]' domain, then
    /// `n` random ones.
    fn uniform_pairs(n: usize) -> Vec<(f64, f64)> {
        let top = 1.0 - f64::EPSILON / 2.0;
        let edges = [f64::MIN_POSITIVE, f64::EPSILON / 2.0, 0.5, top];
        let angles = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, top];
        let mut pairs: Vec<(f64, f64)> =
            edges.iter().flat_map(|&u1| angles.iter().map(move |&u2| (u1, u2))).collect();
        let mut rng = substream(5, Stream::Pro, 0, 0);
        pairs.extend((0..n).map(|_| normal_uniforms(&mut rng)));
        pairs
    }

    #[test]
    fn approximations_stay_within_their_proven_bounds() {
        let (mut ln_rel, mut cos_abs, mut bm_abs) = (0.0f64, 0.0f64, 0.0f64);
        for (u1, u2) in uniform_pairs(200_000) {
            ln_rel = ln_rel.max(((ln_approx(u1) - u1.ln()) / u1.ln()).abs());
            cos_abs = cos_abs.max((cos_tau_approx(u2) - (std::f64::consts::TAU * u2).cos()).abs());
            bm_abs = bm_abs.max((box_muller_approx(u1, u2) - box_muller(u1, u2)).abs());
        }
        assert!(ln_rel <= 5.2e-11, "ln relative error {ln_rel:e}");
        assert!(cos_abs <= 6.1e-12, "cos absolute error {cos_abs:e}");
        assert!(bm_abs <= BOX_MULLER_APPROX_ERR, "Box–Muller absolute error {bm_abs:e}");
    }

    #[test]
    fn ln_approx_is_exact_at_one_and_tracks_powers_of_two() {
        assert_eq!(ln_approx(1.0), 0.0);
        for k in 1..=1022 {
            let x = f64::powi(2.0, -k);
            let rel = ((ln_approx(x) - x.ln()) / x.ln()).abs();
            assert!(rel <= 4.0 * f64::EPSILON, "2^-{k}: {rel:e}");
        }
    }

    #[test]
    fn normal_is_box_muller_of_its_uniforms() {
        let mut a = substream(9, Stream::Outcomes, 3, 1);
        let mut b = a.clone();
        for _ in 0..100 {
            let (u1, u2) = normal_uniforms(&mut b);
            assert_eq!(normal(&mut a).to_bits(), box_muller(u1, u2).to_bits());
        }
    }

    #[test]
    fn normal_has_roughly_standard_moments() {
        let mut rng = substream(7, Stream::Outcomes, 0, 0);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
