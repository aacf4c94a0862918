//! `paper_grid`: reproduce the paper on the 261-patient cohort — the
//! exact 12-model DD-vs-KD grid (Fig. 4) and the Fig. 7 SHAP reading
//! of the SPPB-DD model.
//!
//! Set-up generates the cohort; one pass is the grid plus the
//! interpretation. The untraced pass makes the calls `fig4_dd_vs_kd`
//! and `fig7_global_dependence` make; the traced pass rebuilds the grid
//! from its plan → fit → finish steps on the worker pool.

use crate::heap;
use crate::stats::{approx_eq, median};
use crate::trace::{Ledger, Tally};
use crate::{machine_line, peak_rss_line, Args, Outcome};
use msaw_cohort::{generate, CohortConfig, CohortData};
use msaw_core::experiment::{
    finish_variant, try_fit_final_model, try_plan_variant_cached, try_run_fit_job_with, Approach,
    FitJob, FitOutput, VariantPlan, VariantResult,
};
use msaw_core::grid::VariantSets;
use msaw_core::interpret::{DependenceReport, ShapReport};
use msaw_core::{try_run_full_grid_on, ExperimentConfig};
use msaw_gbdt::{Booster, ContextCache, TreeScratch};
use msaw_kd::{attach_fi, default_ici_spec, ici_sample_set};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind, SampleSet};
use msaw_tabular::Matrix;
use std::time::Instant;

/// Cohort generations timed in set-up; the median is reported.
const SETUP_REPEATS: usize = 15;
/// Passes aimed for even past `--seconds`, so that the median drops a
/// pass slowed by a stretch of host noise (passes of 9.8 and 14.8 s were
/// seen in one run).
const MIN_PASSES: usize = 3;
/// No pass starts that would end after this multiple of `--seconds`,
/// which bounds the run on a slow host.
const MAX_OVERRUN: f64 = 1.5;
/// The seed whose outputs are archived under `results/`.
const ARCHIVE_SEED: u64 = 42;
const FIG4_ARCHIVE: &str = include_str!("../../results/fig4_dd_vs_kd.txt");
const FIG7_ARCHIVE: &str = include_str!("../../results/fig7_global_dependence.txt");

/// What the Fig. 7 interpretation produced, plus its own check.
struct Interpretation {
    ranking: Vec<(String, f64)>,
    dependence: DependenceReport,
    /// Rows whose SHAP values do not add up to their prediction.
    additivity_violations: usize,
    shap_rows: usize,
    /// Wall seconds of the work, the check excluded.
    work_secs: f64,
}

/// What one reproduction produced.
struct Reproduction {
    results: Vec<VariantResult>,
    interp: Interpretation,
    /// Wall seconds of the work, checks excluded.
    work_secs: f64,
}

impl Reproduction {
    /// Every output, rendered so that equal strings mean equal bits.
    fn fingerprint(&self) -> (Vec<String>, String) {
        let grid = self.results.iter().map(|r| format!("{r:?}")).collect();
        (grid, format!("{:?} {:?}", self.interp.ranking, self.interp.dependence))
    }

    /// Sample rows each pass evaluates: every variant's train + test rows.
    fn rows(&self) -> usize {
        self.results.iter().map(|r| r.n_train + r.n_test).sum()
    }
}

fn span<T>(tally: &mut Option<&mut Tally>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tally {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// Fig. 7: the SPPB-DD final model, its SHAP matrix, the global
/// ranking and the dependence report of the top PRO item. The returned
/// seconds exclude the additivity check.
fn interpret(
    data: &CohortData,
    cfg: &ExperimentConfig,
    mut tally: Option<&mut Tally>,
) -> Result<Interpretation, String> {
    let start = Instant::now();
    let panel =
        span(&mut tally, "preprocess.featurize", || FeaturePanel::build(data, &cfg.pipeline));
    let set = span(&mut tally, "preprocess.featurize", || {
        build_samples(data, &panel, OutcomeKind::Sppb, &cfg.pipeline)
    });
    let model = span(&mut tally, "gbdt.final_fit", || try_fit_final_model(&set, cfg))
        .map_err(|e| e.to_string())?;
    let shap = span(&mut tally, "shap.matrix", || ShapReport::try_new(&model, &set))
        .map_err(|e| e.to_string())?;
    let ranking = span(&mut tally, "shap.ranking", || shap.global_ranking(8));
    let feature = ranking
        .iter()
        .map(|(n, _)| n.clone())
        .find(|n| n.starts_with("pro_"))
        .ok_or("no PRO item ranks among the top 8 features")?;
    let dependence = span(&mut tally, "shap.dependence", || shap.try_dependence_report(&feature))
        .map_err(|e| e.to_string())?;
    let work_secs = start.elapsed().as_secs_f64();
    let additivity_violations =
        additivity_violations(&model, &set, shap.shap_matrix(), shap.explainer().expected_value());
    Ok(Interpretation {
        ranking,
        dependence,
        additivity_violations,
        shap_rows: set.len(),
        work_secs,
    })
}

/// Rows where `base + Σφ` differs from the raw prediction by more than
/// float error.
fn additivity_violations(model: &Booster, set: &SampleSet, shap: &Matrix, base: f64) -> usize {
    let raw = model.flat_forest().predict_raw_batch(&set.features);
    (0..set.len())
        .filter(|&i| {
            let total = base + shap.row(i).iter().sum::<f64>();
            !approx_eq(total, raw[i])
        })
        .count()
}

/// The untraced reproduction: the public calls the figure binaries make.
fn reproduce(data: &CohortData, cfg: &ExperimentConfig) -> Result<Reproduction, String> {
    let start = Instant::now();
    let results = try_run_full_grid_on(0, data, cfg).map_err(|e| e.to_string())?;
    let grid_secs = start.elapsed().as_secs_f64();
    let interp = interpret(data, cfg, None)?;
    Ok(Reproduction { results, work_secs: grid_secs + interp.work_secs, interp })
}

/// The grid's variant order: KD, KD+FI, DD, DD+FI.
fn variant_specs(sets: &VariantSets) -> [(&SampleSet, Approach, bool); 4] {
    [
        (&sets.kd, Approach::KnowledgeDriven, false),
        (&sets.kd_fi, Approach::KnowledgeDriven, true),
        (&sets.dd, Approach::DataDriven, false),
        (&sets.dd_fi, Approach::DataDriven, true),
    ]
}

/// Per-layer figures of one traced reproduction.
struct TracedRun {
    out: Reproduction,
    serial: Tally,
    fit_busy: Tally,
    ledger: Ledger,
    workers: usize,
    fits: usize,
    fit_wall: f64,
    row_trees: f64,
    featurized_rows: usize,
    wall: f64,
}

/// The grid rebuilt from its public steps, each call timed.
fn reproduce_traced(data: &CohortData, cfg: &ExperimentConfig) -> Result<TracedRun, String> {
    let start = Instant::now();
    let mut serial = Tally::default();
    let panel = serial.time("preprocess.featurize", || FeaturePanel::build(data, &cfg.pipeline));
    let spec = serial.time("kd.variants", default_ici_spec);
    let mut all_sets = Vec::new();
    for outcome in OutcomeKind::ALL {
        let dd = serial
            .time("preprocess.featurize", || build_samples(data, &panel, outcome, &cfg.pipeline));
        let dd_fi = serial.time("kd.variants", || attach_fi(&dd, data));
        let kd = serial.time("kd.variants", || ici_sample_set(&dd, &spec));
        let kd_fi = serial.time("kd.variants", || attach_fi(&kd, data));
        all_sets.push(VariantSets { dd, dd_fi, kd, kd_fi });
    }
    let mut featurized_rows: usize = all_sets.iter().map(|s| s.dd.len()).sum();

    let mut cache = ContextCache::new();
    let mut plans: Vec<VariantPlan<'_>> = Vec::new();
    for sets in &all_sets {
        for (set, approach, with_fi) in variant_specs(sets) {
            let plan = serial
                .time("gbdt.bin", || {
                    try_plan_variant_cached(set, approach, with_fi, cfg, &mut cache)
                })
                .map_err(|e| e.to_string())?;
            plans.push(plan);
        }
    }
    let jobs: Vec<(usize, FitJob)> =
        plans.iter().enumerate().flat_map(|(p, plan)| plan.jobs().map(move |j| (p, j))).collect();
    let workers = msaw_parallel::default_workers(jobs.len());
    let fit_start = Instant::now();
    let outs =
        msaw_parallel::try_run_scratch_on(workers, jobs.len(), TreeScratch::new, |scratch, i| {
            let (p, job) = jobs[i];
            let t = Instant::now();
            let out = try_run_fit_job_with(&plans[p], job, cfg, scratch);
            (out, t.elapsed().as_secs_f64())
        })
        .map_err(|e| e.to_string())?;
    let fit_wall = fit_start.elapsed().as_secs_f64();
    let mut fit_busy = Tally::default();
    let mut outputs: Vec<Vec<FitOutput>> = plans.iter().map(|_| Vec::new()).collect();
    for (&(p, _), (out, secs)) in jobs.iter().zip(outs) {
        fit_busy.add("gbdt.fit", secs);
        outputs[p].push(out.map_err(|e| e.to_string())?);
    }
    let mut results = Vec::with_capacity(plans.len());
    for (plan, out) in plans.iter().zip(outputs) {
        results.push(serial.time("core.finish", || finish_variant(plan, out)));
    }
    // Each fold fits all training rows but its validation fold, and
    // the final fit all of them: cv_folds × n_train rows per variant.
    let row_trees: f64 = results
        .iter()
        .map(|r| {
            let trees = cfg.params_for(r.outcome).n_estimators;
            (cfg.cv_folds * r.n_train * trees) as f64
        })
        .sum();

    let grid_secs = start.elapsed().as_secs_f64();
    let interp = interpret(data, cfg, Some(&mut serial))?;
    featurized_rows += interp.shap_rows;
    // As in the untraced pass, the additivity check is not part of the
    // wall: its time is in no span, so it must not land in `other`.
    let wall = grid_secs + interp.work_secs;

    let mut ledger = Ledger::default();
    ledger.serial(&serial);
    ledger.region(fit_wall, workers, &fit_busy);
    Ok(TracedRun {
        out: Reproduction { results, interp, work_secs: wall },
        serial,
        fit_busy,
        ledger,
        workers,
        fits: jobs.len(),
        fit_wall,
        row_trees,
        featurized_rows,
        wall,
    })
}

/// The archived seed-42 lines a reproduction must match: Fig. 4's
/// per-variant detail and Fig. 7's ranking.
fn archive_lines() -> (Vec<&'static str>, Vec<&'static str>) {
    let fig4 = FIG4_ARCHIVE
        .lines()
        .skip_while(|l| !l.starts_with("Full per-variant detail"))
        .skip(1)
        .filter_map(|l| l.strip_prefix("  "))
        .collect();
    let fig7 = FIG7_ARCHIVE
        .lines()
        .skip_while(|l| !l.starts_with("Globally most influential"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    (fig4, fig7)
}

/// Check one reproduction: SHAP additivity at any seed, the archived
/// figures at the archive seed, and bit-equality with the first pass.
fn check(
    outcome: &mut Outcome,
    seed: u64,
    rep: &Reproduction,
    reference: Option<&(Vec<String>, String)>,
) {
    let fp = rep.fingerprint();
    let (fig4, fig7) = archive_lines();
    for (i, r) in rep.results.iter().enumerate() {
        let archived = seed != ARCHIVE_SEED || fig4.get(i) == Some(&r.summary_line().as_str());
        let repeatable = reference.is_none_or(|(grid, _)| grid.get(i) == fp.0.get(i));
        outcome.check(rep.results.len() == 12 && archived && repeatable, || {
            format!(
                "grid variant {i}: `{}` (archived {archived}, repeatable {repeatable})",
                r.summary_line()
            )
        });
    }
    let ranking: Vec<String> = rep
        .interp
        .ranking
        .iter()
        .map(|(name, value)| format!("  {name:<42} {value:>8.4}"))
        .collect();
    let archived = seed != ARCHIVE_SEED || ranking == fig7;
    let repeatable = reference.is_none_or(|(_, interp)| *interp == fp.1);
    outcome.check(rep.interp.additivity_violations == 0 && archived && repeatable, || {
        format!(
            "Fig. 7 interpretation: {} of {} SHAP rows not additive, archived {archived}, repeatable {repeatable}",
            rep.interp.additivity_violations, rep.interp.shap_rows
        )
    });
}

fn setup(seed: u64) -> (CohortData, f64) {
    let config = CohortConfig::paper(seed);
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let generated = generate(&config);
        times.push(start.elapsed().as_secs_f64());
        data = Some(generated);
    }
    (data.expect("at least one set-up"), median(&times))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = ExperimentConfig { seed: args.seed, ..ExperimentConfig::default() };
    let (data, setup_s) = setup(args.seed);
    let workers = msaw_parallel::default_workers(72);
    println!("{}", machine_line(workers, 0));
    let mut outcome = Outcome::default();

    if args.trace {
        let plain = reproduce(&data, &cfg)?;
        let reference = plain.fingerprint();
        check(&mut outcome, args.seed, &plain, None);
        let traced = reproduce_traced(&data, &cfg)?;
        check(&mut outcome, args.seed, &traced.out, Some(&reference));
        report_traced(&mut outcome, &traced, plain.work_secs);
        println!(
            "# input: seed={} patients={} rows={} fits={}",
            args.seed,
            data.patients.len(),
            plain.rows(),
            traced.fits
        );
        return Ok(outcome);
    }

    let budget = args.seconds.as_secs_f64();
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut interp_rates = Vec::new();
    let mut peaks = Vec::new();
    let mut reference = None;
    let rows = loop {
        heap::reset_peak();
        let rep = reproduce(&data, &cfg)?;
        peaks.push(heap::peak_mib());
        check(&mut outcome, args.seed, &rep, reference.as_ref());
        walls.push(rep.work_secs);
        interp_rates.push(rep.interp.shap_rows as f64 / rep.interp.work_secs);
        reference.get_or_insert_with(|| rep.fingerprint());
        // Stop before a pass that would overrun the budget, unless
        // MIN_PASSES are not done and it still ends within MAX_OVERRUN.
        let next_end = started.elapsed().as_secs_f64() + rep.work_secs;
        if next_end > budget * 1.05
            && (walls.len() >= MIN_PASSES || next_end > budget * MAX_OVERRUN)
        {
            break rep.rows();
        }
    };
    let paper_s = median(&walls);
    let interp_rows_per_s = median(&interp_rates);
    println!(
        "# input: seed={} patients={} rows={rows} passes={}",
        args.seed,
        data.patients.len(),
        walls.len()
    );
    println!("# setup_s = {setup_s:.6} s (cohort generation, median of {SETUP_REPEATS})");
    println!(
        "# paper_s = {paper_s:.4} s (grid + Fig. 7 interpretation, median; passes {walls:.4?})"
    );
    println!(
        "# interpret_rows_per_s = {interp_rows_per_s:.1} rows/s (Fig. 7 SHAP rows over interpretation seconds, median; passes {interp_rates:.1?})"
    );
    println!(
        "# peak_heap_mib = {:.2} MiB (per-pass peak, median; passes {peaks:.2?})",
        median(&peaks)
    );
    println!("{}", peak_rss_line());
    println!("# fail_ratio = {}/{}", outcome.failed, outcome.attempted);
    outcome.set("setup_s", setup_s);
    outcome.set("latency_ms", paper_s * 1e3);
    outcome.set("rows_per_s", interp_rows_per_s);
    outcome.set("peak_heap_mib", median(&peaks));
    Ok(outcome)
}

fn report_traced(outcome: &mut Outcome, t: &TracedRun, untraced: f64) {
    let s = &t.serial;
    let fit_busy = t.fit_busy.total_secs();
    let metrics = [
        ("trace.wall_s", t.wall),
        ("trace.untraced_wall_s", untraced),
        ("trace.overhead_s", t.wall - untraced),
        ("preprocess.featurize_s", s.secs("preprocess.featurize")),
        ("preprocess.rows", t.featurized_rows as f64),
        ("kd.variants_s", s.secs("kd.variants")),
        ("gbdt.bin_s", s.secs("gbdt.bin")),
        ("gbdt.fit_busy_s", fit_busy),
        ("gbdt.fits", t.fits as f64),
        ("gbdt.fit_row_trees_per_s", t.row_trees / fit_busy),
        ("core.finish_s", s.secs("core.finish")),
        ("parallel.idle_share", 1.0 - fit_busy / (t.workers as f64 * t.fit_wall)),
        ("shap.matrix_s", s.secs("shap.matrix")),
        ("shap.us_per_row", s.secs("shap.matrix") / t.out.interp.shap_rows as f64 * 1e6),
        ("shap.dependence_s", s.secs("shap.dependence")),
    ];
    for (name, value) in metrics {
        outcome.set(name, value);
    }
    for (metric, secs) in t.ledger.reconcile(t.wall) {
        outcome.set(metric, secs);
    }
    println!(
        "# traced wall {:.4} s, untraced {:.4} s; fit phase {:.4} s on {} workers, final fit {:.4} s",
        t.wall,
        untraced,
        t.fit_wall,
        t.workers,
        s.secs("gbdt.final_fit")
    );
}
