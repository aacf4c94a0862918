//! Golden simulator digests: an FNV-1a hash over the bits of every
//! field of every generated [`PatientRecord`], pinned as constants.
//!
//! The streamed-vs-materialised equivalence suite compares two paths
//! that share the one generator, so it cannot notice the generator
//! itself drifting. These constants were computed with the exact
//! Box–Muller PRO answer model (one `normal` draw per answer, cut at
//! the four category thresholds) before the batched answer kernel
//! existed; any change to a single bit of the simulated cohort — a
//! reordered draw, a mis-filtered category, a changed gap — fails here.

use msaw_cohort::stream::CohortStream;
use msaw_cohort::{CohortConfig, DomainVector, PatientRecord};

/// 64-bit FNV-1a over a byte stream.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn domains(&mut self, d: &DomainVector) {
        self.f64s(&d.values);
    }
}

/// Fold one record into the digest, field by field.
fn absorb(h: &mut Fnv1a, r: &PatientRecord) {
    let p = &r.patient;
    h.u64(u64::from(p.id.0));
    h.bytes(p.clinic.name().as_bytes());
    h.f64(p.age);
    h.f64(p.years_with_hiv);
    h.domains(&p.baseline_capacity);
    h.f64(p.baseline_frailty);

    h.u64(r.latent.capacity.len() as u64);
    for c in &r.latent.capacity {
        h.domains(c);
    }
    h.f64s(&r.latent.frailty);

    h.u64(r.pro.len() as u64);
    for series in &r.pro {
        h.u64(series.len() as u64);
        // Answers are 1..=5, so 0 cannot collide with a real answer.
        let weeks: Vec<u8> = series.iter().map(|a| a.unwrap_or(0)).collect();
        h.bytes(&weeks);
    }

    h.f64s(&r.activity.steps);
    h.f64s(&r.activity.sleep_hours);
    h.f64s(&r.activity.calories);

    h.u64(r.clinical.len() as u64);
    for a in &r.clinical {
        h.u64(u64::from(a.patient.0));
        h.u64(a.month as u64);
        h.f64s(&a.deficits);
    }

    h.u64(r.outcomes.len() as u64);
    for o in &r.outcomes {
        h.u64(u64::from(o.patient.0));
        h.u64(o.month as u64);
        h.f64(o.qol);
        h.bytes(&[o.sppb, u8::from(o.falls)]);
    }
}

/// Digest of every record `config` generates, in id order.
fn digest(config: &CohortConfig) -> u64 {
    let mut h = Fnv1a::new();
    for record in CohortStream::new(config) {
        absorb(&mut h, &record);
    }
    h.0
}

#[test]
fn paper_cohort_seed_42_matches_golden_digest() {
    let got = digest(&CohortConfig::paper(42));
    assert_eq!(got, 0x1cb5_30c3_00f0_9289, "paper(seed 42): got {got:#018x}");
}

#[test]
fn scaled_cohorts_match_golden_digests() {
    for (seed, want) in [
        (7u64, 0x2264_afb1_f3d7_fdcdu64),
        (42, 0x4445_0579_77ac_9241),
        (1234, 0xb09b_8c79_23a9_59c9),
    ] {
        let got = digest(&CohortConfig::scaled(seed, 2000));
        assert_eq!(got, want, "scaled(seed {seed}, 2000): got {got:#018x}");
    }
}
