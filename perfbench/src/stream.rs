//! `population_stream`: the out-of-core population fit — `run_scale`
//! over a 20,000-patient cohort (about 200k sample rows), QoL, default
//! `ScaleConfig`, row blocks spilled to a file.
//!
//! Set-up is a warm-up fit of a 512-patient cohort (spawns the pool,
//! creates the spill file, faults in the allocator), checked bit for
//! bit against the in-memory trainer. One pass is one `run_scale`.
//! The traced pass rebuilds `run_scale` from its public steps:
//! `CohortStream::range` → `patient_samples` → `CutSketch` →
//! `encode_rows` / `ChunkedMatrixBuilder` → `train_chunked`.

use crate::heap;
use crate::stats::median;
use crate::trace::{Ledger, Tally};
use crate::{machine_line, peak_rss_line, Args, Outcome, ScratchDir};
use msaw_cohort::stream::CohortStream;
use msaw_cohort::{generate, CohortConfig};
use msaw_core::{run_scale, ScaleConfig};
use msaw_gbdt::{
    encode_rows, train_chunked, Booster, ChunkedMatrixBuilder, CutSketch, TrainReport, TreeMethod,
};
use msaw_parallel::try_run_waves_on;
use msaw_preprocess::{build_samples, patient_samples, FeaturePanel, OutcomeKind};
use std::path::Path;
use std::time::Instant;

/// Patients in the streamed cohort.
const PATIENTS: usize = 20_000;
/// Patients in the set-up warm-up fit.
const WARMUP_PATIENTS: usize = 512;
/// Passes timed however long they take; the median is reported.
const MIN_PASSES: usize = 2;
/// Warm-up fits timed in set-up; the median is reported.
const SETUP_REPEATS: usize = 7;

fn scale_config(spill: &Path) -> ScaleConfig {
    ScaleConfig { spill_path: Some(spill.to_path_buf()), ..ScaleConfig::new(OutcomeKind::Qol) }
}

/// The set-up: a warm-up population fit, timed, then checked against
/// the in-memory trainer on the materialised cohort.
fn setup(seed: u64, cfg: &ScaleConfig, outcome: &mut Outcome) -> Result<f64, String> {
    let cohort = CohortConfig::scaled(seed, WARMUP_PATIENTS);
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let report = run_scale(&cohort, cfg).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64());
        model = Some(report.train.booster);
    }
    let data = generate(&cohort);
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = build_samples(&data, &panel, cfg.outcome, &cfg.pipeline);
    let reference =
        Booster::train(&cfg.params, &set.features, &set.labels).map_err(|e| e.to_string())?;
    outcome.check(model.as_ref() == Some(&reference), || {
        format!("the {WARMUP_PATIENTS}-patient streamed fit differs from the in-memory fit")
    });
    Ok(median(&times))
}

/// The traced rebuild of one `run_scale` pass.
struct Traced {
    train: TrainReport,
    serial: Tally,
    busy: Tally,
    ledger: Ledger,
    n_rows: usize,
    generated: usize,
    sketch_exact: bool,
    spill_bytes: u64,
    busy_share: [f64; 2],
    wall: f64,
}

/// Generate and featurize patients `start..end`, timing each call.
fn chunk_rows(
    cohort: &CohortConfig,
    cfg: &ScaleConfig,
    (start, end): (u32, u32),
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>, usize) {
    let mut stream = tally.time("cohort.generate", || CohortStream::range(cohort, start, end));
    let (mut rows, mut labels, mut generated) = (Vec::new(), Vec::new(), 0);
    while let Some(record) = tally.time("cohort.generate", || stream.next()) {
        generated += 1;
        let part = tally
            .time("preprocess.featurize", || patient_samples(&record, cfg.outcome, &cfg.pipeline));
        rows.extend_from_slice(&part.rows);
        labels.extend(part.labels);
    }
    (rows, labels, generated)
}

fn run_traced(cohort: &CohortConfig, cfg: &ScaleConfig) -> Result<Traced, String> {
    let start = Instant::now();
    let n_features = FeaturePanel::feature_names().len();
    let workers = cfg.workers.max(1);
    let chunk = cfg.chunk_patients.max(1);
    let n_patients = cohort.total_patients();
    let n_chunks = n_patients.div_ceil(chunk);
    let wave = workers * 2;
    let range = |c: usize| ((c * chunk) as u32, ((c + 1) * chunk).min(n_patients) as u32);
    let TreeMethod::Hist { max_bins } = cfg.params.tree_method else {
        return Err("the population fit needs TreeMethod::Hist".into());
    };
    let mut serial = Tally::default();
    let mut busy = Tally::default();
    let mut ledger = Ledger::default();
    let mut generated = 0;
    let mut busy_share = [0.0; 2];

    // Pass 1: sketch cuts and collect labels.
    let mut sketch = CutSketch::with_capacity(n_features, cfg.sketch_capacity);
    let mut labels: Vec<f64> = Vec::new();
    let mut fold = Tally::default();
    let mut pass_busy = Tally::default();
    let pass_start = Instant::now();
    try_run_waves_on(
        workers,
        n_chunks,
        wave,
        |c| {
            let mut tally = Tally::default();
            let (rows, labels, generated) = chunk_rows(cohort, cfg, range(c), &mut tally);
            let mut part = CutSketch::with_capacity(n_features, cfg.sketch_capacity);
            tally.time("gbdt.sketch", || part.update(&rows));
            (part, labels, generated, tally)
        },
        |_, (part, chunk_labels, chunk_generated, tally)| {
            fold.time("core.fold", || sketch.merge(&part));
            labels.extend(chunk_labels);
            generated += chunk_generated;
            pass_busy.merge(&tally);
            Ok::<(), String>(())
        },
    )
    .map_err(|e| e.to_string())?;
    let region = pass_start.elapsed().as_secs_f64() - fold.total_secs();
    ledger.region(region, workers, &pass_busy);
    busy_share[0] = pass_busy.total_secs() / (workers as f64 * region);
    busy.merge(&pass_busy);
    serial.merge(&fold);
    let sketch_exact = sketch.is_exact();
    let cuts = serial.time("gbdt.sketch", || sketch.cuts(max_bins));

    // Pass 2: regenerate, encode, append in chunk order.
    let spill = cfg.spill_path.as_ref().ok_or("the population fit spills its blocks")?;
    let mut builder = serial
        .time("gbdt.encode", || ChunkedMatrixBuilder::spilled(cuts.clone(), cfg.block_rows, spill))
        .map_err(|e| e.to_string())?;
    let mut fold = Tally::default();
    let mut pass_busy = Tally::default();
    let pass_start = Instant::now();
    try_run_waves_on(
        workers,
        n_chunks,
        wave,
        |c| {
            let mut tally = Tally::default();
            let (rows, _, generated) = chunk_rows(cohort, cfg, range(c), &mut tally);
            let codes = tally.time("gbdt.encode", || encode_rows(&cuts, &rows));
            (codes, generated, tally)
        },
        |_, (codes, chunk_generated, tally)| {
            fold.time("core.fold", || builder.push_encoded(&codes)).map_err(|e| e.to_string())?;
            generated += chunk_generated;
            pass_busy.merge(&tally);
            Ok::<(), String>(())
        },
    )
    .map_err(|e| e.to_string())?;
    let region = pass_start.elapsed().as_secs_f64() - fold.total_secs();
    ledger.region(region, workers, &pass_busy);
    busy_share[1] = pass_busy.total_secs() / (workers as f64 * region);
    busy.merge(&pass_busy);
    serial.merge(&fold);
    let mut matrix = serial.time("gbdt.encode", || builder.finish()).map_err(|e| e.to_string())?;
    let spill_bytes = std::fs::metadata(spill).map_or(0, |m| m.len());

    // Pass 3: the out-of-core fit.
    let train = serial
        .time("gbdt.fit", || train_chunked(&cfg.params, &mut matrix, &labels, workers))
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    ledger.serial(&serial);
    Ok(Traced {
        train,
        serial,
        busy,
        ledger,
        n_rows: labels.len(),
        generated,
        sketch_exact,
        spill_bytes,
        busy_share,
        wall,
    })
}

pub fn run(args: &Args, scratch: &ScratchDir) -> Result<Outcome, String> {
    let cfg = scale_config(&scratch.0.join("blocks.mscb"));
    let cohort = CohortConfig::scaled(args.seed, PATIENTS);
    println!("{}", machine_line(cfg.workers, 0));
    let mut outcome = Outcome::default();
    let setup_s = setup(args.seed, &cfg, &mut outcome)?;

    if args.trace {
        let start = Instant::now();
        let plain = run_scale(&cohort, &cfg).map_err(|e| e.to_string())?;
        let untraced = start.elapsed().as_secs_f64();
        let traced = run_traced(&cohort, &cfg)?;
        outcome.check(
            traced.train.booster == plain.train.booster && traced.n_rows == plain.n_rows,
            || "the traced population fit differs from run_scale's".into(),
        );
        report_traced(&mut outcome, &traced, &cfg, cohort.total_patients(), untraced);
        println!(
            "# input: seed={} patients={} rows={}",
            args.seed,
            cohort.total_patients(),
            plain.n_rows
        );
        return Ok(outcome);
    }

    let budget = args.seconds.as_secs_f64();
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut fit_rates = Vec::new();
    let mut peaks = Vec::new();
    let mut reference: Option<Booster> = None;
    let n_rows = loop {
        heap::reset_peak();
        let start = Instant::now();
        let report = run_scale(&cohort, &cfg).map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        walls.push(wall);
        fit_rates.push(report.n_rows as f64 / report.fit_secs);
        peaks.push(heap::peak_mib());
        let booster = report.train.booster;
        let complete =
            booster.trees().len() == cfg.params.n_estimators && booster.base_score().is_finite();
        let repeatable = reference.as_ref().is_none_or(|r| *r == booster);
        outcome.check(report.spilled && complete && repeatable && report.n_rows > 0, || {
            format!(
                "population fit: spilled {}, {} trees, repeatable {repeatable}",
                report.spilled,
                booster.trees().len()
            )
        });
        reference.get_or_insert(booster);
        if walls.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + wall > budget * 1.05 {
            break report.n_rows;
        }
    };
    let wall = median(&walls);
    let stream_rows_per_s = n_rows as f64 / wall;
    let fit_rows_per_s = median(&fit_rates);
    println!(
        "# input: seed={} patients={} rows={n_rows} passes={}",
        args.seed,
        cohort.total_patients(),
        walls.len()
    );
    println!("# setup_s = {setup_s:.6} s (warm-up {WARMUP_PATIENTS}-patient fit, median of {SETUP_REPEATS})");
    println!("# stream_rows_per_s = {stream_rows_per_s:.1} rows/s (generation through fit; passes {walls:.4?} s)");
    println!("# fit_rows_per_s = {fit_rows_per_s:.1} rows/s (sample rows over the seconds of train_chunked, median; passes {fit_rates:.1?})");
    println!(
        "# peak_heap_mib = {:.2} MiB (per-pass peak, median; passes {peaks:.2?})",
        median(&peaks)
    );
    println!("{}", peak_rss_line());
    println!("# fail_ratio = {}/{}", outcome.failed, outcome.attempted);
    outcome.set("setup_s", setup_s);
    outcome.set("latency_ms", wall * 1e3);
    outcome.set("rows_per_s", fit_rows_per_s);
    outcome.set("peak_heap_mib", median(&peaks));
    Ok(outcome)
}

fn report_traced(
    outcome: &mut Outcome,
    t: &Traced,
    cfg: &ScaleConfig,
    patients: usize,
    untraced: f64,
) {
    let s = &t.serial;
    let b = &t.busy;
    let fit_s = s.secs("gbdt.fit");
    let metrics = [
        ("trace.wall_s", t.wall),
        ("trace.untraced_wall_s", untraced),
        ("trace.overhead_s", t.wall - untraced),
        ("cohort.generate_s", b.secs("cohort.generate")),
        ("cohort.generated", t.generated as f64),
        ("cohort.regen_ratio", t.generated as f64 / patients as f64),
        ("preprocess.featurize_s", b.secs("preprocess.featurize")),
        ("preprocess.rows", t.n_rows as f64),
        ("gbdt.sketch_s", b.secs("gbdt.sketch") + s.secs("gbdt.sketch")),
        ("gbdt.sketch_exact", f64::from(u8::from(t.sketch_exact))),
        ("gbdt.encode_s", b.secs("gbdt.encode") + s.secs("gbdt.encode")),
        ("gbdt.spill_mib", t.spill_bytes as f64 / (1024.0 * 1024.0)),
        ("gbdt.fit_s", fit_s),
        ("gbdt.fit_row_trees_per_s", (t.n_rows * cfg.params.n_estimators) as f64 / fit_s),
        ("parallel.busy_share_sketch", t.busy_share[0]),
        ("parallel.busy_share_encode", t.busy_share[1]),
        ("core.fold_s", s.secs("core.fold")),
    ];
    for (name, value) in metrics {
        outcome.set(name, value);
    }
    for (metric, secs) in t.ledger.reconcile(t.wall) {
        outcome.set(metric, secs);
    }
    println!(
        "# traced wall {:.4} s, untraced {:.4} s; generate {:.3} s busy over {} calls, workers {}",
        t.wall,
        untraced,
        b.secs("cohort.generate"),
        b.calls("cohort.generate"),
        cfg.workers
    );
}
