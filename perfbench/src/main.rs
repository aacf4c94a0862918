//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|population_stream|serve_open_loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every line but the last is a human
//! report (`# …`); the last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end set of [`END_TO_END`], measured with
//! no tracing; with `--trace 1` they are the per-layer set of
//! [`PER_LAYER`], from a traced rebuild of the same work that must be
//! bit-identical to the untraced call. A failed correctness check
//! prints `"correct": false` and exits with code 1.

mod heap;
mod paper;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The end-to-end metrics every workload reports with `--trace 0`:
/// `(name, unit)`. Each workload defines them for its own job; see
/// `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("latency_ms", "ms"), ("rows_per_s", "rows/s"), ("peak_heap_mib", "MiB")];

/// The per-layer metrics every workload reports with `--trace 1`:
/// `(name, unit)`. A layer a workload does not exercise reads 0 — the
/// workload is that layer's control.
pub const PER_LAYER: [(&str, &str); 48] = [
    // Reconciliation: layer self seconds + other = traced wall.
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("cohort.self_s", "s"),
    ("preprocess.self_s", "s"),
    ("kd.self_s", "s"),
    ("gbdt.self_s", "s"),
    ("shap.self_s", "s"),
    ("core.self_s", "s"),
    ("serve.self_s", "s"),
    ("parallel.self_s", "s"),
    ("other.self_s", "s"),
    // cohort
    ("cohort.generate_s", "s"),
    ("cohort.generated", "count"),
    ("cohort.regen_ratio", "ratio"),
    // preprocess
    ("preprocess.featurize_s", "s"),
    ("preprocess.rows", "count"),
    // kd
    ("kd.variants_s", "s"),
    // gbdt
    ("gbdt.bin_s", "s"),
    ("gbdt.fit_busy_s", "s"),
    ("gbdt.fits", "count"),
    ("gbdt.fit_row_trees_per_s", "1/s"),
    ("gbdt.sketch_s", "s"),
    ("gbdt.sketch_exact", "bool"),
    ("gbdt.encode_s", "s"),
    ("gbdt.spill_mib", "MiB"),
    ("gbdt.fit_s", "s"),
    ("gbdt.predict_us_per_row", "us"),
    // shap
    ("shap.matrix_s", "s"),
    ("shap.us_per_row", "us"),
    ("shap.dependence_s", "s"),
    ("shap.explain_us_per_row", "us"),
    // core
    ("core.finish_s", "s"),
    ("core.fold_s", "s"),
    ("core.registry_store_s", "s"),
    ("core.registry_load_s", "s"),
    // parallel
    ("parallel.idle_share", "ratio"),
    ("parallel.busy_share_sketch", "ratio"),
    ("parallel.busy_share_encode", "ratio"),
    // serve
    ("serve.submit_us_p50", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.reloads", "count"),
    ("serve.reload_failures", "count"),
    ("serve.explain_served_ratio", "ratio"),
    ("serve.degraded", "count"),
    ("serve.answered", "count"),
    ("serve.shed_total", "count"),
    ("gen.late_p99_ms", "ms"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (fit results, population fits, requests).
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// `(name, value)`; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: correctness check failed: {}", what());
        }
    }

    /// Record `n` checked operations of which `bad` failed.
    pub fn check_many(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            eprintln!("perfbench: correctness check failed: {}", what());
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("`{flag} {value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("`{flag}`: {e}"))?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("`--trace {t}`: expected 0 or 1")),
    };
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: Duration::from_secs(seconds.ok_or("missing `--seconds`")?.max(1)),
        trace,
    })
}

/// A per-run scratch directory inside the working directory (spill
/// files, the model registry), removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    fn create(workload: &str) -> std::io::Result<ScratchDir> {
        let path =
            PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while a
        // sibling run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// The report line of the process's peak resident set size (`VmHWM`).
pub fn peak_rss_line() -> String {
    format!("# peak_rss_mib = {:.2} MiB (process VmHWM)", msaw_core::peak_rss_mb().unwrap_or(0.0))
}

/// The machine line every result carries.
pub fn machine_line(pool_workers: usize, generator_threads: usize) -> String {
    format!(
        "# machine: nproc={} simd_kernel={} pool_workers={pool_workers} generator_threads={generator_threads}",
        msaw_parallel::available_workers(),
        msaw_gbdt::simd::kernel_name(),
    )
}

fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let value = outcome.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric `{name}` is not finite ({v})")),
            // Per-layer metrics of layers a workload never calls read 0.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    if outcome.attempted == 0 {
        return Err("no operation was checked".into());
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = ScratchDir::create(&args.workload)
        .map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    match args.workload.as_str() {
        "paper_grid" => paper::run(args),
        "population_stream" => stream::run(args, &scratch),
        "serve_open_loop" => serve::run(args, &scratch),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_grid|population_stream|serve_open_loop> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    match render(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn render_fills_unmeasured_layers_with_zero() {
        let mut outcome = Outcome { attempted: 1, ..Outcome::default() };
        outcome.set("cohort.generate_s", 1.5);
        let line = render(&outcome, true).unwrap();
        assert!(line.contains("\"cohort.generate_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"shap.matrix_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(render(&outcome, false).is_err(), "end-to-end metrics may not be missing");
    }
}
