//! Fault-injection suite: prove the pipeline is fault-isolated, not
//! merely fault-free on happy paths.
//!
//! Two fault families, per the robustness design (DESIGN.md):
//!
//! * **Injected panics** — the `failpoint` feature arms a named site
//!   inside the grid's pooled fit jobs; the suite asserts a detonation
//!   surfaces as `PipelineError::Pool` carrying the *lowest* failing
//!   job index, identically at 1, 2 and 8 workers. (That the pool
//!   leaks no threads and stays usable afterwards is checked in
//!   `tests/pool_thread_leaks.rs`, alone in its process.)
//! * **Corrupted inputs** — sample CSVs with out-of-domain cells go
//!   through the validating ingest: strict mode names the first bad
//!   row, lenient mode quarantines exactly the corrupted rows and the
//!   grid completes on the clean remainder.
//!
//! Failpoint plans belong to the thread that arms them (and the pool
//! workers it starts), so armed sites never fire in concurrently
//! running tests; the panic hook is process-global, so every test that
//! arms one still runs under a single mutex with failpoint panics kept
//! off stderr (any other panic still prints).

mod common;

use common::with_faults;
use msaw_cohort::validate::ViolationReason;
use msaw_cohort::{generate, CohortConfig, CohortData};
use msaw_core::{grid, Approach, ExperimentConfig, PipelineError};
use msaw_parallel::failpoint;
use msaw_preprocess::{
    build_samples, read_sample_csv, FeaturePanel, IngestMode, OutcomeKind, PipelineConfig,
    SampleError, SampleSet,
};
use std::io::Cursor;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn cohort() -> CohortData {
    generate(&CohortConfig::small(42))
}

fn qol_set(data: &CohortData) -> SampleSet {
    let cfg = PipelineConfig::default();
    let panel = FeaturePanel::build(data, &cfg);
    build_samples(data, &panel, OutcomeKind::Qol, &cfg)
}

#[test]
fn injected_panic_is_the_same_typed_error_at_every_worker_count() {
    with_faults(|| {
        let data = cohort();
        let cfg = ExperimentConfig::fast();
        let mut seen: Vec<PipelineError> = Vec::new();
        for workers in WORKER_COUNTS {
            failpoint::disarm_all();
            // Two armed jobs: the pool must drain and report the lower
            // index no matter which worker detonates first.
            failpoint::arm("grid_fit", 5);
            failpoint::arm("grid_fit", 17);
            let err = grid::try_run_full_grid_on(workers, &data, &cfg)
                .expect_err("armed failpoints must fail the grid");
            match &err {
                PipelineError::Pool(p) => {
                    assert_eq!(p.job, 5, "workers={workers}");
                    assert!(p.message.contains("failpoint `grid_fit` fired at job 5"), "{p}");
                }
                other => panic!("expected a pool error, got {other}"),
            }
            seen.push(err);
        }
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "error must be identical at every worker count: {seen:?}"
        );
    });
}

/// Corrupt one cell of one data row of an exported sample CSV.
fn corrupt(csv: &[u8], data_row: usize, column: &str, value: &str) -> Vec<u8> {
    let text = std::str::from_utf8(csv).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let col = lines[0].split(',').position(|c| c == column).unwrap();
    let mut cells: Vec<String> = lines[1 + data_row].split(',').map(String::from).collect();
    cells[col] = value.to_string();
    lines[1 + data_row] = cells.join(",");
    (lines.join("\n") + "\n").into_bytes()
}

fn exported_csv(set: &SampleSet) -> Vec<u8> {
    let mut buf = Vec::new();
    msaw_tabular::csv::write_csv(&set.to_frame(), &mut buf).unwrap();
    buf
}

#[test]
fn lenient_ingest_quarantines_exactly_the_corrupted_rows_and_the_grid_completes() {
    let data = cohort();
    let set = qol_set(&data);
    let csv = exported_csv(&set);
    let bad = corrupt(&corrupt(&csv, 4, "label_QoL", "3.5"), 9, "steps_monthly_mean", "-250");

    let got = read_sample_csv(Cursor::new(&bad), IngestMode::Lenient).unwrap();
    let report = got.quarantine.expect("lenient mode always reports");
    assert_eq!(
        report.quarantined,
        vec![(4, ViolationReason::VasOutOfRange), (9, ViolationReason::NegativeActivity)]
    );
    assert_eq!(got.set.len(), set.len() - 2);

    // The clean remainder still carries a full experiment.
    let r = msaw_core::try_run_variant(
        &got.set,
        Approach::DataDriven,
        false,
        &ExperimentConfig::fast(),
    )
    .expect("grid must complete on the quarantined-clean subset");
    assert!(r.primary_metric().is_finite());
    assert_eq!(r.n_train + r.n_test, set.len() - 2);
}

#[test]
fn strict_ingest_names_the_first_corrupted_row() {
    let data = cohort();
    let csv = exported_csv(&qol_set(&data));
    let bad = corrupt(&corrupt(&csv, 11, "label_QoL", "2.0"), 3, "sleep_hours_monthly_mean", "-1");
    let err = read_sample_csv(Cursor::new(&bad), IngestMode::Strict).unwrap_err();
    match err {
        SampleError::Validation(msaw_cohort::validate::ValidateError::Violation(v)) => {
            assert_eq!(v.row, 3, "strict mode must report the lowest bad row");
            assert_eq!(v.reason, ViolationReason::NegativeActivity);
        }
        other => panic!("expected a strict violation, got {other}"),
    }
}

#[test]
fn clean_ingest_feeds_the_grid_identically_to_the_in_memory_set() {
    // End-to-end sanity for the no-fault path: parse → validate → grid
    // must agree with the in-memory pipeline bit for bit.
    let data = cohort();
    let set = qol_set(&data);
    let csv = exported_csv(&set);
    let cfg = ExperimentConfig::fast();

    let got = read_sample_csv(Cursor::new(&csv), IngestMode::Strict).unwrap();
    let from_disk =
        msaw_core::try_run_variant(&got.set, Approach::DataDriven, false, &cfg).unwrap();
    let in_memory = msaw_core::try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap();
    assert_eq!(from_disk.cv_scores, in_memory.cv_scores);
    assert_eq!(from_disk.regression, in_memory.regression);
}
