//! The 56-item PRO (Patient-Related Outcomes) question bank and the
//! answer model.
//!
//! The MySAwH app asked 56 categorical questions spanning the five IC
//! domains. We reproduce that structure: each item has a domain, a
//! human-readable label, a polarity (whether a higher answer means
//! better capacity), and a discrimination (how tightly the answer tracks
//! the latent domain). Answers are Likert 1–5, generated by a graded
//! response model: a noisy linear readout of the latent capacity cut at
//! fixed thresholds.

use crate::domains::Domain;
use crate::rng::{box_muller, box_muller_approx, normal_uniforms, BOX_MULLER_APPROX_ERR};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// Number of PRO items (as in the paper).
pub const N_PRO: usize = 56;

/// The graded-response cut points on the latent readout `z`: the raw
/// category is `1 +` the number of cut points at or below `z`.
pub const CUT_POINTS: [f64; 4] = [-1.5, -0.5, 0.5, 1.5];

/// Half-width of the band around each cut point inside which
/// [`ProQuestion::answer_series`] recomputes the readout with the exact
/// Box–Muller, per unit of noise scale (at least 1). DESIGN.md §13
/// proves the filtered readout within `1.02·σ·1.25e-9 + 7e-16` of the
/// exact one; this margin is over 750× that bound.
pub const FALLBACK_MARGIN: f64 = 1e-6;

// The margin must dominate the proven filter error at least tenfold.
const _: () = assert!(FALLBACK_MARGIN >= 10.0 * (1.02 * BOX_MULLER_APPROX_ERR + 7e-16));

/// [`CUT_POINTS`] padded with infinities: category `k` spans
/// `BRACKETS[k-1] <= z < BRACKETS[k]`.
const BRACKETS: [f64; 6] =
    [f64::NEG_INFINITY, CUT_POINTS[0], CUT_POINTS[1], CUT_POINTS[2], CUT_POINTS[3], f64::INFINITY];

/// Weeks answered per batch of pre-drawn uniforms (stack scratch).
const BLOCK: usize = 32;

/// The raw category 1–5 of a readout: `5 −` the number of cut points
/// above it. Equal to the ordered `z < −1.5 → 1, …, else 5` chain for
/// every `z`, `NaN` (→ 5) included.
fn category(z: f64) -> u8 {
    5 - CUT_POINTS.iter().map(|&c| u8::from(z < c)).sum::<u8>()
}

/// One questionnaire item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProQuestion {
    /// Stable variable name, e.g. `pro_locomotion_walk_distance`.
    pub name: String,
    /// IC domain the item probes.
    pub domain: Domain,
    /// `true` when a higher answer indicates better capacity.
    pub positive: bool,
    /// Readout strength: how tightly the answer tracks the latent domain
    /// (higher = less noisy item).
    pub discrimination: f64,
    /// Item difficulty: shifts where on the latent scale the answer
    /// categories sit.
    pub difficulty: f64,
    /// How much the item reads the patient's *balance* trait instead of
    /// the domain capacity (0 for most items; high for the balance-
    /// specific locomotion items).
    pub balance_loading: f64,
}

/// Items that read the balance trait, with their loading.
const BALANCE_ITEMS: [(&str, f64); 3] = [
    ("pro_locomotion_balance_confidence", 0.6),
    ("pro_locomotion_gait_steadiness", 0.6),
    ("pro_locomotion_fear_of_falling", 0.55),
];

/// Per-domain item labels (counts: 12 + 10 + 12 + 12 + 10 = 56).
const LOCOMOTION_ITEMS: [(&str, bool); 12] = [
    ("walk_distance", true),
    ("stair_climb", true),
    ("chair_rise", true),
    ("balance_confidence", true),
    ("outdoor_mobility", true),
    ("gait_steadiness", true),
    ("joint_pain", false),
    ("walking_aid_need", false),
    ("physical_activity_freq", true),
    ("household_tasks", true),
    ("fear_of_falling", false),
    ("exercise_tolerance", true),
];

const COGNITION_ITEMS: [(&str, bool); 10] = [
    ("memory_recall", true),
    ("concentration", true),
    ("word_finding", true),
    ("orientation", true),
    ("decision_making", true),
    ("forgetfulness", false),
    ("mental_fatigue", false),
    ("planning_ability", true),
    ("medication_adherence", true),
    ("confusion_episodes", false),
];

const PSYCHOLOGICAL_ITEMS: [(&str, bool); 12] = [
    ("mood", true),
    ("stress_level", false),
    ("anxiety", false),
    ("sleep_quality", true),
    ("loneliness", false),
    ("social_engagement", true),
    ("life_satisfaction", true),
    ("depressive_feelings", false),
    ("coping_ability", true),
    ("irritability", false),
    ("sense_of_purpose", true),
    ("relaxation", true),
];

const VITALITY_ITEMS: [(&str, bool); 12] = [
    ("energy_level", true),
    ("appetite", true),
    ("fatigue", false),
    ("physical_stamina", true),
    ("morning_freshness", true),
    ("weight_stability", true),
    ("recovery_speed", true),
    ("breathlessness", false),
    ("muscle_strength_felt", true),
    ("daytime_sleepiness", false),
    ("thirst_hydration", true),
    ("general_health_felt", true),
];

const SENSORY_ITEMS: [(&str, bool); 10] = [
    ("vision_near", true),
    ("vision_far", true),
    ("hearing_conversation", true),
    ("hearing_noisy_env", true),
    ("taste_smell", true),
    ("eye_strain", false),
    ("tinnitus", false),
    ("night_vision", true),
    ("reading_difficulty", false),
    ("device_text_readability", true),
];

fn build_bank() -> Vec<ProQuestion> {
    let mut bank = Vec::with_capacity(N_PRO);
    let mut add = |items: &[(&str, bool)], domain: Domain| {
        for (i, (label, positive)) in items.iter().enumerate() {
            // Deterministic per-item psychometrics: spread discrimination
            // over [0.7, 1.5] and difficulty over [-0.3, 0.3].
            let t = i as f64 / items.len().max(1) as f64;
            let name = format!("pro_{}_{}", domain.name(), label);
            let balance_loading =
                BALANCE_ITEMS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l).unwrap_or(0.0);
            bank.push(ProQuestion {
                name,
                domain,
                positive: *positive,
                discrimination: 0.7 + 0.8 * ((t * 7.13).sin() * 0.5 + 0.5),
                difficulty: 0.3 * ((t * 11.7).cos()),
                balance_loading,
            });
        }
    };
    add(&LOCOMOTION_ITEMS, Domain::Locomotion);
    add(&COGNITION_ITEMS, Domain::Cognition);
    add(&PSYCHOLOGICAL_ITEMS, Domain::Psychological);
    add(&VITALITY_ITEMS, Domain::Vitality);
    add(&SENSORY_ITEMS, Domain::Sensory);
    debug_assert_eq!(bank.len(), N_PRO);
    bank
}

/// The 56-item bank, in canonical order (feature order of the DD models).
pub static QUESTION_BANK: LazyLock<Vec<ProQuestion>> = LazyLock::new(build_bank);

impl ProQuestion {
    /// Draw a Likert 1–5 answer given the latent capacity of the item's
    /// domain (`theta` in `[0,1]`) and an observation-noise multiplier.
    pub fn answer(&self, theta: f64, noise_scale: f64, rng: &mut StdRng) -> u8 {
        let (u1, u2) = normal_uniforms(rng);
        self.oriented(category(self.readout(theta) + noise_scale * box_muller(u1, u2)))
    }

    /// Answer a weekly series in one batch: week `w` reads `thetas[w]`,
    /// and its answer lands in `out[w]`. Bit-identical to calling
    /// [`Self::answer`] once per week on the same `rng`: every week's
    /// `(u1, u2)` is drawn, in order, even for weeks whose `out` slot is
    /// already `None` (a gap) — those are left `None` without computing
    /// a category. Returns how many answers took the exact fallback.
    pub fn answer_series(
        &self,
        thetas: &[f64],
        noise_scale: f64,
        rng: &mut StdRng,
        out: &mut [Option<u8>],
    ) -> usize {
        assert_eq!(thetas.len(), out.len(), "one theta per output week");
        let (mut u1, mut u2) = ([0.0; BLOCK], [0.0; BLOCK]);
        let mut fallbacks = 0;
        for (thetas, out) in thetas.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let n = thetas.len();
            for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
                (*a, *b) = normal_uniforms(rng);
            }
            fallbacks += self.answers_from_uniforms(thetas, noise_scale, &u1[..n], &u2[..n], out);
        }
        fallbacks
    }

    /// The body of [`Self::answer_series`] on pre-drawn uniforms
    /// (`u1[w]`, `u2[w]` as [`crate::rng::normal`] draws them): each
    /// readout is computed with the cheap filtered Box–Muller, and only
    /// one that lands within the fallback margin of a cut point (or is
    /// `NaN`) is recomputed with the exact formula. `Some` slots of
    /// `out` are overwritten, `None` slots skipped. Returns the number
    /// of exact fallbacks taken.
    pub fn answers_from_uniforms(
        &self,
        thetas: &[f64],
        noise_scale: f64,
        u1: &[f64],
        u2: &[f64],
        out: &mut [Option<u8>],
    ) -> usize {
        let n = thetas.len();
        assert!(
            u1.len() == n && u2.len() == n && out.len() == n,
            "one theta and one uniform pair per output week"
        );
        let margin = FALLBACK_MARGIN * noise_scale.abs().max(1.0);
        let mut z = [0.0; BLOCK];
        let mut fallbacks = 0;
        for start in (0..n).step_by(BLOCK) {
            let end = (start + BLOCK).min(n);
            let (thetas, u1, u2) = (&thetas[start..end], &u1[start..end], &u2[start..end]);
            let z = &mut z[..end - start];
            self.filtered_readouts(thetas, noise_scale, u1, u2, z);
            for (w, slot) in out[start..end].iter_mut().enumerate() {
                if slot.is_none() {
                    continue;
                }
                // Only the two cut points bracketing the category can be
                // the nearest; a NaN or infinite readout fails a test.
                let raw = category(z[w]);
                let (below, above) = (BRACKETS[raw as usize - 1], BRACKETS[raw as usize]);
                let raw = if z[w] - below > margin && above - z[w] > margin {
                    raw
                } else {
                    fallbacks += 1;
                    category(self.readout(thetas[w]) + noise_scale * box_muller(u1[w], u2[w]))
                };
                *slot = Some(self.oriented(raw));
            }
        }
        fallbacks
    }

    /// The branch-free filtered pass (a loop the compiler vectorises):
    /// `z[w] = readout(thetas[w]) + σ·box_muller_approx(u1[w], u2[w])`.
    fn filtered_readouts(
        &self,
        thetas: &[f64],
        noise_scale: f64,
        u1: &[f64],
        u2: &[f64],
        z: &mut [f64],
    ) {
        for (((z, &theta), &u1), &u2) in z.iter_mut().zip(thetas).zip(u1).zip(u2) {
            *z = self.readout(theta) + noise_scale * box_muller_approx(u1, u2);
        }
    }

    /// The noise-free graded-response readout, centred at capacity 0.5.
    fn readout(&self, theta: f64) -> f64 {
        self.discrimination * (theta - 0.5) * 4.0 - self.difficulty
    }

    /// A raw category as an answer: reversed for negatively keyed items.
    fn oriented(&self, raw: u8) -> u8 {
        if self.positive {
            raw
        } else {
            6 - raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{substream, Stream};

    #[test]
    fn bank_has_56_items_with_unique_names() {
        assert_eq!(QUESTION_BANK.len(), N_PRO);
        let names: std::collections::HashSet<_> =
            QUESTION_BANK.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(names.len(), N_PRO);
    }

    #[test]
    fn every_domain_is_represented() {
        for d in Domain::ALL {
            let count = QUESTION_BANK.iter().filter(|q| q.domain == d).count();
            assert!(count >= 10, "{} has only {count} items", d.name());
        }
    }

    #[test]
    fn answers_are_in_likert_range() {
        let mut rng = substream(1, Stream::Pro, 0, 0);
        for q in QUESTION_BANK.iter() {
            for theta in [0.0, 0.3, 0.7, 1.0] {
                let a = q.answer(theta, 1.0, &mut rng);
                assert!((1..=5).contains(&a));
            }
        }
    }

    #[test]
    fn positive_items_increase_with_capacity() {
        // With noise off, a positive item must answer higher at high
        // capacity than at low capacity.
        let mut rng = substream(2, Stream::Pro, 0, 0);
        let q = QUESTION_BANK.iter().find(|q| q.positive).unwrap();
        let low = q.answer(0.1, 0.0, &mut rng);
        let high = q.answer(0.9, 0.0, &mut rng);
        assert!(high > low, "{high} !> {low}");
    }

    #[test]
    fn negative_items_decrease_with_capacity() {
        let mut rng = substream(3, Stream::Pro, 0, 0);
        let q = QUESTION_BANK.iter().find(|q| !q.positive).unwrap();
        let low = q.answer(0.1, 0.0, &mut rng);
        let high = q.answer(0.9, 0.0, &mut rng);
        assert!(high < low, "{high} !< {low}");
    }

    #[test]
    fn answers_correlate_with_latent_on_average() {
        // Noisy, but over many draws mean answer must be monotone in θ.
        let q = &QUESTION_BANK[0];
        let mean_at = |theta: f64| {
            let mut rng = substream(4, Stream::Pro, 0, 0);
            (0..2000).map(|_| q.answer(theta, 1.0, &mut rng) as f64).sum::<f64>() / 2000.0
        };
        assert!(mean_at(0.8) > mean_at(0.5));
        assert!(mean_at(0.5) > mean_at(0.2));
    }

    #[test]
    fn category_matches_the_ordered_cut_chain() {
        let chain = |z: f64| match z {
            z if z < -1.5 => 1u8,
            z if z < -0.5 => 2,
            z if z < 0.5 => 3,
            z if z < 1.5 => 4,
            _ => 5,
        };
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let around_cuts = CUT_POINTS.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]);
        for z in specials.into_iter().chain(around_cuts).chain((-40..=40).map(|k| k as f64 * 0.1)) {
            assert_eq!(category(z), chain(z), "z = {z}");
        }
    }

    #[test]
    fn discrimination_and_difficulty_in_design_ranges() {
        for q in QUESTION_BANK.iter() {
            assert!((0.7..=1.5).contains(&q.discrimination), "{}", q.name);
            assert!(q.difficulty.abs() <= 0.3, "{}", q.name);
        }
    }
}
