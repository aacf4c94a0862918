//! Serving robustness suite: prove the prediction service survives the
//! four failure modes it is designed around — slow clients (deadlines),
//! greedy clients (quotas), model republish (hot reload), and batcher
//! panics (supervision) — at every worker count, with typed errors and
//! bit-identical predictions throughout.
//!
//! Determinism strategy: the `failpoint` feature compiles two seams
//! into the batcher — `serve::batch` (fires after the first request of
//! a dequeue cycle is taken, before coalescing) and `serve::predict`
//! (fires after a batch is assembled, before inference). A *sleep*
//! action at `serve::batch` wedges the batcher so tests can pile queue
//! pressure deterministically; a *panic* action at either site
//! detonates exactly the dequeue cycle it is armed for. A failpoint
//! plan belongs to the test thread that arms it and the batcher it
//! spawns, so an armed site never fires in a concurrently running
//! test's service; the panic hook is process-global, so armed tests
//! still serialize under one mutex with failpoint panics kept off
//! stderr (any other panic still prints).

mod common;

use common::with_faults;
use msaw_core::{Approach, ModelKey, ModelRegistry};
use msaw_gbdt::{Booster, ModelArtifact, Params};
use msaw_parallel::failpoint;
use msaw_preprocess::OutcomeKind;
use msaw_serve::{
    ClientId, PredictionService, RequestOptions, ServeConfig, ServeError, ServiceStats,
};
use msaw_tabular::Matrix;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A small deterministic model; `n_estimators` varies the fit so two
/// calls with different values produce observably different predictions
/// (the "retrained artifact" of the reload tests).
fn artifact(n_estimators: usize) -> ModelArtifact {
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|i| vec![(i % 17) as f64, if i % 9 == 0 { f64::NAN } else { (i % 6) as f64 }])
        .collect();
    let labels: Vec<f64> = rows
        .iter()
        .map(|r| r[0] - if r[1].is_nan() { 3.0 } else { r[1].clamp(0.0, 3.0) })
        .collect();
    let params = Params { n_estimators, ..Params::regression() };
    let model = Booster::train(&params, &Matrix::from_rows(&rows), &labels).unwrap();
    ModelArtifact::from_booster(model, None)
}

fn query_rows(n: usize) -> Matrix {
    Matrix::from_rows(
        &(0..n)
            .map(|i| vec![(i % 13) as f64, if i % 5 == 0 { f64::NAN } else { i as f64 }])
            .collect::<Vec<_>>(),
    )
}

fn model_key() -> ModelKey {
    ModelKey { outcome: OutcomeKind::Qol, variant: Approach::DataDriven, cohort_hash: 0xFEED }
}

fn temp_registry(tag: &str) -> ModelRegistry {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("msaw_serve_robust_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ModelRegistry::open(dir).unwrap()
}

/// Poll `probe` until it returns true or `timeout` elapses.
fn eventually(timeout: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_bits_equal(got: &[f64], want: &[f64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length mismatch");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.to_bits(), w.to_bits(), "{context}: prediction diverged");
    }
}

#[test]
fn expired_deadline_is_shed_typed_at_every_worker_count() {
    let a = artifact(8);
    let expected = a.forest.predict_batch(&query_rows(12));
    for workers in WORKER_COUNTS {
        let config = ServeConfig { workers, ..ServeConfig::default() };
        let service = PredictionService::spawn(artifact(8), config).unwrap();
        let handle = service.handle();
        // A zero deadline is already expired when the batcher dequeues
        // it: shed, never predicted.
        let stale = RequestOptions { deadline: Some(Duration::ZERO), ..RequestOptions::default() };
        let err = handle.submit(&query_rows(12), stale).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded, "workers={workers}");
        // A generous deadline never fires; the answer is exact, and
        // wait_timeout bounds the caller side without triggering.
        let fresh = RequestOptions {
            deadline: Some(Duration::from_secs(3600)),
            ..RequestOptions::default()
        };
        let out = handle
            .submit(&query_rows(12), fresh)
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert_bits_equal(&out.predictions, &expected, &format!("workers={workers}"));
        let stats = service.stats();
        assert_eq!(stats.shed_deadline, 1, "workers={workers}");
        assert_eq!(stats.answered, 1, "workers={workers}");
        service.shutdown();
    }
}

#[test]
fn quota_isolates_the_greedy_client_from_the_polite_one() {
    with_faults(|| {
        for workers in WORKER_COUNTS {
            failpoint::disarm_all();
            // Wedge the batcher's first dequeue cycle so nothing is
            // answered while the clients submit: in-flight counts are
            // then exactly what was submitted.
            failpoint::arm_sleep("serve::batch", 0, Duration::from_millis(400));
            let config =
                ServeConfig { workers, max_in_flight_per_client: 2, ..ServeConfig::default() };
            let service = PredictionService::spawn(artifact(8), config).unwrap();
            let handle = service.handle();
            let rows = query_rows(3);
            let probe = handle.submit(&rows, RequestOptions::default()).unwrap();

            let greedy = RequestOptions { client: ClientId(1), ..RequestOptions::default() };
            let polite = RequestOptions { client: ClientId(2), ..RequestOptions::default() };
            let g1 = handle.submit(&rows, greedy).unwrap();
            let g2 = handle.submit(&rows, greedy).unwrap();
            assert_eq!(
                handle.submit(&rows, greedy).unwrap_err(),
                ServeError::QuotaExceeded { limit: 2 },
                "workers={workers}: greedy client's third in-flight request"
            );
            // The polite client is untouched by the greedy client's cap.
            let p1 = handle.submit(&rows, polite).unwrap();
            assert_eq!(service.stats().shed_quota, 1, "workers={workers}");

            // Once the wedge lifts, every admitted request is answered
            // — quota rejects at the door, never corrupts the queue.
            for (name, ticket) in [("probe", probe), ("g1", g1), ("g2", g2), ("p1", p1)] {
                let out = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
                assert_eq!(out.predictions.len(), 3, "workers={workers}, {name}");
            }
            // And the freed slots admit the greedy client again.
            handle.submit(&rows, greedy).unwrap().wait().unwrap();
            service.shutdown();
        }
    });
}

#[test]
fn degradation_sheds_shap_first_and_recovers_when_pressure_drops() {
    with_faults(|| {
        let reference = artifact(8);
        let expected = reference.forest.predict_batch(&query_rows(5));
        for workers in WORKER_COUNTS {
            failpoint::disarm_all();
            // Wedge cycle 0 while two more requests pile up behind the
            // probe; max_batch_rows=1 keeps them out of the probe's
            // batch, so the probe runs with a backlog of 2 — exactly at
            // the watermark.
            failpoint::arm_sleep("serve::batch", 0, Duration::from_millis(400));
            let config = ServeConfig {
                workers,
                max_batch_rows: 1,
                degrade_queue_depth: 2,
                ..ServeConfig::default()
            };
            let service = PredictionService::spawn(artifact(8), config).unwrap();
            let handle = service.handle();
            let explain = RequestOptions { explain: true, ..RequestOptions::default() };
            let probe = handle.submit(&query_rows(5), explain).unwrap();
            let trailing: Vec<_> =
                (0..2).map(|_| handle.submit(&query_rows(5), explain).unwrap()).collect();

            let out = probe.wait_timeout(Duration::from_secs(30)).unwrap();
            assert!(out.degraded, "workers={workers}: probe ran at the watermark");
            assert!(out.explanations.is_none(), "workers={workers}: SHAP was shed");
            assert_bits_equal(
                &out.predictions,
                &expected,
                &format!("workers={workers}: degraded predictions stay exact"),
            );
            // The backlog drains below the watermark, so the service
            // recovers full fidelity: the last request is explained.
            let mut results = Vec::new();
            for ticket in trailing {
                results.push(ticket.wait_timeout(Duration::from_secs(30)).unwrap());
            }
            let last = results.last().unwrap();
            assert!(!last.degraded, "workers={workers}: pressure dropped, no degradation");
            assert!(last.explanations.is_some(), "workers={workers}: SHAP is back");
            assert!(service.stats().degraded >= 1, "workers={workers}");
            service.shutdown();
        }
    });
}

#[test]
fn republished_identical_artifact_swaps_with_bit_identical_outputs_under_load() {
    let registry = temp_registry("bitident");
    let key = model_key();
    let a = artifact(8);
    registry.store(&key, &a).unwrap();
    let expected = Arc::new(a.forest.predict_batch(&query_rows(20)));

    for workers in WORKER_COUNTS {
        let config = ServeConfig { workers, ..ServeConfig::default() };
        let service = PredictionService::spawn(registry.load(&key).unwrap(), config).unwrap();
        let watcher = service
            .watch_registry(registry.clone(), key.group_name(), Duration::from_millis(10))
            .unwrap();

        // Sustained multi-client load across the swap: every single
        // request must be answered, bit-identical to the offline path —
        // a republished identical artifact is invisible to clients.
        let stop = Arc::new(AtomicBool::new(false));
        let mut clients = Vec::new();
        for c in 0..4u64 {
            let handle = service.handle();
            let stop = stop.clone();
            let expected = expected.clone();
            clients.push(std::thread::spawn(move || {
                let rows = query_rows(20);
                let options = RequestOptions { client: ClientId(c), ..RequestOptions::default() };
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let out = handle
                        .submit(&rows, options)
                        .expect("admission under default limits")
                        .wait_timeout(Duration::from_secs(30))
                        .expect("every in-flight request is answered across the swap");
                    assert_bits_equal(&out.predictions, &expected, "across republish");
                    answered += 1;
                }
                answered
            }));
        }

        std::thread::sleep(Duration::from_millis(30));
        registry.store(&key, &a).unwrap(); // identical bytes, new generation
        eventually(Duration::from_secs(10), "the watcher to install the republish", || {
            service.stats().reloads >= 1
        });
        stop.store(true, Ordering::Relaxed);
        let answered: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(answered > 0, "workers={workers}: load ran across the swap");

        let stats = service.stats();
        assert_eq!(stats.reload_failures, 0, "workers={workers}");
        assert_eq!(
            stats.shed_total(),
            0,
            "workers={workers}: zero dropped requests across republish"
        );
        watcher.stop();
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(registry.root());
}

#[test]
fn corrupt_republish_keeps_the_old_model_then_a_good_retrain_swaps_in() {
    let registry = temp_registry("corrupt");
    let key = model_key();
    let old = artifact(8);
    let retrained = artifact(4);
    let rows = query_rows(15);
    let expected_old = old.forest.predict_batch(&rows);
    let expected_new = retrained.forest.predict_batch(&rows);
    assert_ne!(
        expected_old.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        expected_new.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "the retrained model must be observably different"
    );

    registry.store(&key, &old).unwrap();
    let config = ServeConfig { workers: 2, ..ServeConfig::default() };
    let service = PredictionService::spawn(registry.load(&key).unwrap(), config).unwrap();
    let watcher = service
        .watch_registry(registry.clone(), key.group_name(), Duration::from_millis(10))
        .unwrap();
    let handle = service.handle();

    // A corrupt republish — the torn-write case the registry's atomic
    // rename cannot rule out when an operator copies files by hand —
    // must never interrupt serving: the failure is counted and the old
    // model keeps answering, bit-identical.
    std::fs::write(registry.path_for(&key), b"not a model artifact").unwrap();
    eventually(Duration::from_secs(10), "the watcher to reject the corrupt artifact", || {
        service.stats().reload_failures >= 1
    });
    let out = handle.submit(&rows, RequestOptions::default()).unwrap().wait().unwrap();
    assert_bits_equal(&out.predictions, &expected_old, "old model serves through corruption");

    // A good retrained artifact then swaps in without a restart.
    registry.store(&key, &retrained).unwrap();
    eventually(Duration::from_secs(10), "the watcher to install the retrain", || {
        service.stats().reloads >= 1
    });
    let out = handle.submit(&rows, RequestOptions::default()).unwrap().wait().unwrap();
    assert_bits_equal(&out.predictions, &expected_new, "retrained model serves after swap");

    let stats = service.stats();
    assert!(stats.reload_failures >= 1);
    assert!(stats.reloads >= 1);
    assert_eq!(stats.shed_total(), 0, "no request was dropped across failure and swap");
    watcher.stop();
    service.shutdown();
    let _ = std::fs::remove_dir_all(registry.root());
}

#[test]
fn injected_batcher_panic_fails_only_the_in_flight_batch() {
    with_faults(|| {
        let reference = artifact(8);
        let expected = reference.forest.predict_batch(&query_rows(10));
        for workers in WORKER_COUNTS {
            failpoint::disarm_all();
            // Detonate dequeue cycle 0 after its batch is assembled:
            // the worst spot, a whole coalesced batch in flight.
            failpoint::arm("serve::predict", 0);
            let config = ServeConfig {
                workers,
                restart_backoff: Duration::from_millis(1),
                ..ServeConfig::default()
            };
            let service = PredictionService::spawn(artifact(8), config).unwrap();
            let handle = service.handle();
            let doomed = handle.submit(&query_rows(10), RequestOptions::default()).unwrap();
            assert_eq!(
                doomed.wait_timeout(Duration::from_secs(30)).unwrap_err(),
                ServeError::BatcherPanic,
                "workers={workers}: the in-flight batch fails typed"
            );
            // The supervisor restarts the batcher; the very next
            // request succeeds, bit-identical.
            let out = handle
                .submit(&query_rows(10), RequestOptions::default())
                .unwrap()
                .wait_timeout(Duration::from_secs(30))
                .unwrap();
            assert_bits_equal(&out.predictions, &expected, &format!("workers={workers}"));
            let stats = service.stats();
            assert_eq!(stats.batcher_restarts, 1, "workers={workers}");
            assert_eq!(stats.answered, 1, "workers={workers}");
            service.shutdown();
        }
    });
}

#[test]
fn exhausted_restart_budget_drains_the_queue_typed() {
    with_faults(|| {
        failpoint::disarm_all();
        // Every dequeue cycle detonates: the supervisor burns its whole
        // budget, then must fail the backlog loudly instead of leaving
        // tickets hanging.
        for seq in 0..16 {
            failpoint::arm("serve::batch", seq);
        }
        let config = ServeConfig {
            workers: 1,
            max_batcher_restarts: 2,
            restart_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        };
        let service = PredictionService::spawn(artifact(8), config).unwrap();
        let handle = service.handle();
        let rows = query_rows(2);
        let tickets: Vec<_> =
            (0..4).map(|_| handle.submit(&rows, RequestOptions::default())).collect();

        let mut panicked = 0;
        let mut drained = 0;
        for ticket in tickets {
            let err = match ticket {
                Ok(ticket) => ticket.wait_timeout(Duration::from_secs(30)).unwrap_err(),
                Err(err) => err,
            };
            match err {
                ServeError::BatcherPanic => panicked += 1,
                ServeError::ShuttingDown => drained += 1,
                other => panic!("expected a typed failure, got {other:?}"),
            }
        }
        // max_batcher_restarts=2 allows exactly 3 detonating cycles
        // (the initial run plus two restarts), each consuming one
        // queued request; the rest drain as ShuttingDown.
        assert_eq!(panicked, 3, "one request per detonating cycle");
        assert_eq!(drained, 1, "the backlog drains typed");
        assert_eq!(service.stats().batcher_restarts, 2);
        // The service is now over: submits are refused at the door.
        assert_eq!(
            handle.submit(&rows, RequestOptions::default()).unwrap_err(),
            ServeError::ShuttingDown
        );
        service.shutdown();
    });
}

#[test]
fn stats_snapshot_reports_every_shed_reason() {
    // One service, one of each shed, all visible in the snapshot — the
    // observability contract bench_serve builds on.
    let config = ServeConfig { workers: 1, max_in_flight_per_client: 1, ..ServeConfig::default() };
    let service = PredictionService::spawn(artifact(8), config).unwrap();
    let handle = service.handle();
    let rows = query_rows(2);
    let stale = RequestOptions { deadline: Some(Duration::ZERO), ..RequestOptions::default() };
    let shed = handle.submit(&rows, stale).unwrap();
    assert_eq!(shed.wait().unwrap_err(), ServeError::DeadlineExceeded);
    let ok = handle.submit(&rows, RequestOptions::default()).unwrap();
    assert_eq!(ok.wait().unwrap().predictions.len(), 2);
    let stats = service.stats();
    assert_eq!(
        (stats.shed_deadline, stats.answered, stats.queue_depth),
        (1, 1, 0),
        "sheds and answers are attributed: {stats:?}"
    );
    assert_eq!(stats.shed_total(), 1);
    assert_eq!(ServiceStats::default().shed_total(), 0);
    service.shutdown();
}
