//! The grid's worker pool survives injected panics: no thread outlives
//! a failed grid, and clean reruns afterwards agree bit for bit at
//! every worker count.
//!
//! The leak check counts every thread of the process, so this is the
//! only test in its binary: no sibling test can start or stop a thread
//! while it runs.

mod common;

use common::with_faults;
use msaw_cohort::{generate, CohortConfig};
use msaw_core::{grid, ExperimentConfig, PipelineError};
use msaw_parallel::failpoint;

/// This process's live thread count (the suite only runs on Linux CI,
/// where /proc is authoritative).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .and_then(|v| v.parse().ok())
        .expect("readable /proc/self/status")
}

#[test]
fn pool_survives_faults_with_no_thread_leaks_and_clean_reruns() {
    with_faults(|| {
        let data = generate(&CohortConfig::small(42));
        let cfg = ExperimentConfig::fast();
        let threads_before = thread_count();
        for round in 0..3 {
            failpoint::disarm_all();
            failpoint::arm("grid_fit", round);
            let err = grid::try_run_full_grid_on(8, &data, &cfg).unwrap_err();
            assert!(matches!(err, PipelineError::Pool(_)));
        }
        failpoint::disarm_all();
        // Scoped workers all joined: nothing left running.
        assert_eq!(thread_count(), threads_before, "worker threads leaked");
        // And the pool is not poisoned: clean runs complete and agree
        // bit-for-bit at every worker count.
        let baseline = grid::try_run_full_grid_on(1, &data, &cfg).unwrap();
        assert_eq!(baseline.len(), 12);
        for workers in [1, 2, 8] {
            let got = grid::try_run_full_grid_on(workers, &data, &cfg).unwrap();
            assert_eq!(got.len(), baseline.len());
            for (a, b) in got.iter().zip(&baseline) {
                assert_eq!(a.outcome, b.outcome);
                assert_eq!(a.regression, b.regression, "workers={workers}");
                assert_eq!(a.classification, b.classification, "workers={workers}");
                assert_eq!(a.cv_scores, b.cv_scores, "workers={workers}");
            }
        }
    });
}
