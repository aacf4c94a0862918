//! The batched PRO answer kernel against the week-by-week exact model.
//!
//! [`ProQuestion::answer_series`] computes each readout with a cheap
//! bounded-error Box–Muller and recomputes only near-cut readouts
//! exactly. These tests pin that it is bit-identical to calling
//! [`ProQuestion::answer`] once per week on the same substream — draw
//! for draw, gaps included — and that adversarial readouts placed
//! within 1e-9 of every cut point take (and survive) the exact
//! fallback.

use msaw_cohort::pro::{CUT_POINTS, FALLBACK_MARGIN};
use msaw_cohort::rng::{box_muller, substream, Stream};
use msaw_cohort::QUESTION_BANK;
use proptest::prelude::*;

/// The clinics' observation-noise multipliers.
const NOISES: [f64; 3] = [1.0, 1.05, 1.35];

/// The answer model written out longhand: readout, the ordered cut
/// chain, then item polarity.
fn oracle(q: usize, theta: f64, noise: f64, u1: f64, u2: f64) -> u8 {
    let question = &QUESTION_BANK[q];
    let z = question.discrimination * (theta - 0.5) * 4.0 - question.difficulty
        + noise * box_muller(u1, u2);
    let raw = match z {
        z if z < -1.5 => 1u8,
        z if z < -0.5 => 2,
        z if z < 0.5 => 3,
        z if z < 1.5 => 4,
        _ => 5,
    };
    if question.positive {
        raw
    } else {
        6 - raw
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn answer_series_equals_week_by_week_answers(
        (q, seed, noise) in (0usize..56, any::<u64>(), 0usize..3),
        thetas in collection::vec(0.0..1.0f64, 1..150),
        gap_seed in any::<u64>(),
    ) {
        let question = &QUESTION_BANK[q];
        let noise = NOISES[noise];
        // Roughly one week in eight is a gap: still drawn for, never answered.
        let mut out: Vec<Option<u8>> = (0..thetas.len())
            .map(|w| (gap_seed.rotate_left(w as u32) & 7 != 0).then_some(0))
            .collect();
        let mut rng = substream(seed, Stream::Pro, q as u64, seed >> 7);
        let mut reference = rng.clone();
        question.answer_series(&thetas, noise, &mut rng, &mut out);
        for (w, &theta) in thetas.iter().enumerate() {
            let want = question.answer(theta, noise, &mut reference);
            prop_assert_eq!(out[w], out[w].map(|_| want), "week {}", w);
        }
        prop_assert!(rng == reference, "the kernel consumed a different number of draws");
    }
}

#[test]
fn readouts_within_1e_9_of_every_cut_take_the_exact_fallback() {
    // u2 values whose cosine is far from zero, by sign.
    let positive_u2 = [0.0, 0.0625, 0.9375];
    let negative_u2 = [0.5, 0.4375, 0.5625];
    let offsets = [-1e-9, -3e-10, 0.0, 3e-10, 1e-9];
    let mut cases = 0;
    let mut near_cut = 0;
    for (q, question) in QUESTION_BANK.iter().enumerate() {
        let (mut thetas, mut u1s, mut u2s) = (Vec::new(), Vec::new(), Vec::new());
        for &noise in &NOISES {
            thetas.clear();
            u1s.clear();
            u2s.clear();
            for theta in [0.0, 0.2, 0.5, 0.7, 1.0] {
                let a = question.discrimination * (theta - 0.5) * 4.0 - question.difficulty;
                for &cut in &CUT_POINTS {
                    for &offset in &offsets {
                        // Solve a + noise·√(−2 ln u1)·cos(2π u2) = cut + offset for u1.
                        let n = (cut + offset - a) / noise;
                        let u2s_for_sign = if n >= 0.0 { positive_u2 } else { negative_u2 };
                        for u2 in u2s_for_sign {
                            let r = n / (std::f64::consts::TAU * u2).cos();
                            let u1 = (-0.5 * r * r).exp();
                            if !(f64::MIN_POSITIVE..1.0).contains(&u1) {
                                continue;
                            }
                            let z = a + noise * box_muller(u1, u2);
                            if (z - cut).abs() <= 2e-9 {
                                near_cut += 1;
                            }
                            thetas.push(theta);
                            u1s.push(u1);
                            u2s.push(u2);
                        }
                    }
                }
            }
            let mut out = vec![Some(0); thetas.len()];
            let fallbacks = question.answers_from_uniforms(&thetas, noise, &u1s, &u2s, &mut out);
            for w in 0..thetas.len() {
                let want = oracle(q, thetas[w], noise, u1s[w], u2s[w]);
                assert_eq!(out[w], Some(want), "item {q}, noise {noise}, case {w}");
            }
            // Every case sits far inside the margin, so each one must
            // have been recomputed exactly.
            assert_eq!(fallbacks, thetas.len(), "item {q}, noise {noise}");
            cases += thetas.len();
        }
    }
    assert!(near_cut * 10 >= cases * 9, "only {near_cut} of {cases} cases landed near a cut");
    assert!(cases > 10_000, "{cases} adversarial cases");
}

#[test]
fn gap_weeks_are_drawn_for_but_never_answered_or_counted() {
    let question = &QUESTION_BANK[3];
    let thetas = [0.5; 8];
    // Readouts on the top cut would all fall back if answered.
    let a = question.discrimination * (0.5 - 0.5) * 4.0 - question.difficulty;
    let u1 = (-0.5 * (1.5 - a) * (1.5 - a)).exp();
    let mut out = [None; 8];
    let fallbacks = question.answers_from_uniforms(&thetas, 1.0, &[u1; 8], &[0.0; 8], &mut out);
    assert_eq!(fallbacks, 0);
    assert!(out.iter().all(Option::is_none));
}

#[test]
fn margin_scales_with_the_noise() {
    // A readout two unit margins from a cut is outside the margin at
    // noise 1 but inside it at noise 10, so only the latter falls back.
    let question = &QUESTION_BANK[0];
    let a = question.discrimination * (0.5 - 0.5) * 4.0 - question.difficulty;
    for (noise, want) in [(1.0, 0), (10.0, 1)] {
        let n = (0.5 + 2.0 * FALLBACK_MARGIN - a) / noise;
        let u1 = (-0.5 * n * n).exp();
        let mut out = [Some(0)];
        let fallbacks = question.answers_from_uniforms(&[0.5], noise, &[u1], &[0.0], &mut out);
        assert_eq!(fallbacks, want, "noise {noise}");
        assert_eq!(out[0], Some(oracle(0, 0.5, noise, u1, 0.0)));
    }
}
