//! The traced run's span accounting, kept entirely in the benchmark:
//! each call into a workspace crate's public function is timed here,
//! around the call, and charged to that crate's layer.
//!
//! Two records come out of a traced run:
//!
//! * a [`Tally`] per thread — busy seconds and call counts per span
//!   name (`"cohort.generate"`, `"gbdt.encode"`, …), merged in job
//!   order, from which the per-layer busy metrics are read;
//! * a [`Ledger`] — the traced wall time split across layers so that
//!   the parts add up to the wall exactly. Serial calls on the driving
//!   thread are charged at their duration; a parallel region of wall
//!   `W` on `n` workers charges each layer its busy seconds over `n`,
//!   and the rest of `W` (spawn, join, idle workers) to `parallel`.
//!   Whatever no span covers is `other`.
//!
//! Spans never nest, so a span's self time is its duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers of the system — one per workspace crate the benchmark
/// calls into, plus `other` for the uncovered remainder — each with
/// the metric its self seconds are reported under.
pub const LAYERS: [(&str, &str); 9] = [
    ("cohort", "cohort.self_s"),
    ("preprocess", "preprocess.self_s"),
    ("kd", "kd.self_s"),
    ("gbdt", "gbdt.self_s"),
    ("shap", "shap.self_s"),
    ("core", "core.self_s"),
    ("serve", "serve.self_s"),
    ("parallel", "parallel.self_s"),
    ("other", "other.self_s"),
];

/// Busy seconds and call counts per span name.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    spans: BTreeMap<&'static str, (f64, u64)>,
}

impl Tally {
    /// Record one call of `name` that took `secs`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        let entry = self.spans.entry(name).or_insert((0.0, 0));
        entry.0 += secs;
        entry.1 += 1;
    }

    /// Time `f` as one call of `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        for (&name, &(secs, calls)) in &other.spans {
            let entry = self.spans.entry(name).or_insert((0.0, 0));
            entry.0 += secs;
            entry.1 += calls;
        }
    }

    /// Busy seconds recorded under `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |e| e.0)
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |e| e.1)
    }

    /// Busy seconds summed over every span.
    pub fn total_secs(&self) -> f64 {
        self.spans.values().map(|e| e.0).sum()
    }

    fn by_layer(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.spans.iter().map(|(&name, &(secs, _))| (layer_of(name), secs))
    }
}

/// The layer a span name belongs to: the part before the first dot.
fn layer_of(name: &'static str) -> &'static str {
    let layer = name.split('.').next().unwrap_or(name);
    LAYERS.iter().map(|&(l, _)| l).find(|&l| l == layer).unwrap_or("other")
}

/// The traced wall time, split across [`LAYERS`].
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    self_secs: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Charge serial spans on the driving thread at their durations.
    pub fn serial(&mut self, tally: &Tally) {
        for (layer, secs) in tally.by_layer() {
            *self.self_secs.entry(layer).or_insert(0.0) += secs;
        }
    }

    /// Charge a parallel region of `wall` seconds on `workers` threads
    /// whose jobs recorded `busy`: each layer gets its busy share of
    /// the wall, `parallel` the rest.
    pub fn region(&mut self, wall: f64, workers: usize, busy: &Tally) {
        let n = workers.max(1) as f64;
        for (layer, secs) in busy.by_layer() {
            *self.self_secs.entry(layer).or_insert(0.0) += secs / n;
        }
        *self.self_secs.entry("parallel").or_insert(0.0) += wall - busy.total_secs() / n;
    }

    /// Per-layer self seconds, keyed by their metric names, with
    /// `other` set so the parts sum to `wall` exactly.
    pub fn reconcile(&self, wall: f64) -> Vec<(&'static str, f64)> {
        let covered: f64 =
            self.self_secs.iter().filter(|(&l, _)| l != "other").map(|(_, &s)| s).sum();
        LAYERS
            .iter()
            .map(|&(layer, metric)| {
                let secs = if layer == "other" {
                    wall - covered
                } else {
                    self.self_secs.get(layer).copied().unwrap_or(0.0)
                };
                (metric, secs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_parts_sum_to_the_wall() {
        let mut serial = Tally::default();
        serial.add("preprocess.featurize", 0.5);
        serial.add("gbdt.bin", 0.25);
        let mut busy = Tally::default();
        busy.add("gbdt.fit", 3.0);
        busy.add("cohort.generate", 1.0);
        let mut ledger = Ledger::default();
        ledger.serial(&serial);
        ledger.region(2.5, 2, &busy);
        let parts = ledger.reconcile(4.0);
        let get = |m: &str| parts.iter().find(|(n, _)| *n == m).unwrap().1;
        assert_eq!(get("gbdt.self_s"), 0.25 + 1.5);
        assert_eq!(get("cohort.self_s"), 0.5);
        assert_eq!(get("parallel.self_s"), 0.5);
        assert_eq!(get("other.self_s"), 4.0 - 0.5 - 1.75 - 0.5 - 0.5);
        let sum: f64 = parts.iter().map(|(_, s)| s).sum();
        assert!((sum - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_prefixes_fall_to_other() {
        let mut t = Tally::default();
        t.add("bench.check", 1.0);
        t.add("kd.variants", 2.0);
        let mut ledger = Ledger::default();
        ledger.serial(&t);
        let parts = ledger.reconcile(3.0);
        let get = |m: &str| parts.iter().find(|(n, _)| *n == m).unwrap().1;
        assert_eq!(get("kd.self_s"), 2.0);
        assert_eq!(get("other.self_s"), 1.0);
    }
}
