//! Allocation regression guard for the training hot path.
//!
//! The scratch-arena contract: after the first boosting round has
//! paid the worst-case arena allocations, every later round of the
//! same [`FitRun`] (exact) or [`ChunkedFitRun`] (histogram) — and every
//! later fit reusing the same [`TreeScratch`] — performs **zero** heap
//! allocations. This test
//! binary installs a counting `#[global_allocator]` (test binaries get
//! their own process, so the hook is invisible to the rest of the
//! suite) and pins that contract for both tree methods and for pooled
//! execution at several worker counts.
//!
//! The counter is thread-local: a worker thread's metered window only
//! sees its own allocations, so the pool's own bookkeeping (done on
//! the spawning thread) never leaks into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use msaw_gbdt::{
    ChunkedFitRun, ChunkedMatrix, ChunkedMatrixBuilder, CutSketch, FitRun, Params, TrainingContext,
    TreeMethod, TreeScratch,
};
use msaw_tabular::Matrix;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is an allocation for our purposes: the
        // arenas are supposed to be at worst-case capacity already.
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// A deterministic training problem big enough to exercise multi-level
/// trees, missing values, and both subsampling paths.
fn problem(nrows: usize, ncols: usize) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..nrows)
        .map(|i| {
            (0..ncols)
                .map(|j| {
                    if (i * 7 + j * 13) % 11 == 0 {
                        f64::NAN
                    } else {
                        ((i * 31 + j * 17) % 97) as f64 * 0.25
                    }
                })
                .collect()
        })
        .collect();
    let labels: Vec<f64> =
        (0..nrows).map(|i| rows[i][0].max(0.0) + ((i % 5) as f64) * 0.5).collect();
    (Matrix::from_rows(&rows), labels)
}

fn params(method: TreeMethod) -> Params {
    Params {
        n_estimators: 12,
        max_depth: 4,
        subsample: 0.8,
        colsample_bytree: 0.8,
        tree_method: method,
        ..Params::regression()
    }
}

/// Drive one fit round-by-round, asserting every round after the first
/// allocates nothing. Returns the final booster's tree count so the
/// caller can sanity-check training actually happened.
fn assert_rounds_allocation_free(
    params: &Params,
    ctx: &TrainingContext<'_>,
    rows: &[usize],
    labels: &[f64],
    scratch: &mut TreeScratch,
    label: &str,
) -> usize {
    let mut run = FitRun::new(params, ctx, rows, labels, scratch).expect("valid fit");
    assert!(run.round(), "at least one round must run");
    let mut rounds = 1;
    while {
        let before = alloc_count();
        let more = run.round();
        let delta = alloc_count() - before;
        if more {
            rounds += 1;
            assert_eq!(
                delta, 0,
                "{label}: boosting round {rounds} allocated {delta} times; \
                 the scratch arenas must absorb every round after the first"
            );
        }
        more
    } {}
    let report = run.finish();
    report.booster.trees().len()
}

#[test]
fn rounds_after_the_first_do_not_allocate_exact() {
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..data.nrows()).collect();
    let params = params(TreeMethod::Exact);
    let mut scratch = TreeScratch::new();
    let n_trees =
        assert_rounds_allocation_free(&params, &ctx, &rows, &labels, &mut scratch, "exact");
    assert_eq!(n_trees, params.n_estimators);
}

#[test]
fn rounds_after_the_first_do_not_allocate_hist() {
    // In-memory histogram training: the context's one-block matrix, a
    // shuffled row view, row and column subsampling below 1 — every
    // round after the first draws its samples, walks them and routes
    // the rows outside the sample without touching the heap.
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::with_max_bins(&data, 32);
    let rows: Vec<u32> = (0..data.nrows() as u32).rev().collect();
    let y: Vec<f64> = rows.iter().map(|&r| labels[r as usize]).collect();
    let params = params(TreeMethod::Hist { max_bins: 32 });
    let mut scratch = TreeScratch::new();
    for fit in 0..2 {
        let mut run =
            ChunkedFitRun::new(&params, ctx.binned().view(), Some(&rows), &y, 1, &mut scratch)
                .expect("valid hist fit");
        let n_trees =
            assert_chunked_run_allocation_free(&mut run, fit == 1, &format!("hist fit {fit}"));
        assert_eq!(n_trees, params.n_estimators);
        assert_eq!(run.finish().booster.trees().len(), params.n_estimators);
    }
}

#[test]
fn a_second_fit_on_a_used_scratch_is_allocation_free_from_round_one() {
    // Steady-state across fits, not just across rounds: once a scratch
    // has seen a problem of this shape, a whole new fit of the same
    // shape allocates only in `FitRun::new` bookkeeping — its rounds
    // allocate nothing, including the first.
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..data.nrows()).collect();
    let params = params(TreeMethod::Exact);
    let mut scratch = TreeScratch::new();
    let mut run = FitRun::new(&params, &ctx, &rows, &labels, &mut scratch).expect("valid fit");
    while run.round() {}
    let _ = run.finish();

    let mut run = FitRun::new(&params, &ctx, &rows, &labels, &mut scratch).expect("valid fit");
    let mut rounds = 0;
    while {
        let before = alloc_count();
        let more = run.round();
        let delta = alloc_count() - before;
        if more {
            rounds += 1;
            assert_eq!(delta, 0, "warm-scratch round {rounds} allocated {delta} times");
        }
        more
    } {}
    assert_eq!(rounds, params.n_estimators);
}

/// The multi-block problem: same synthetic data, stream-compatible
/// params (no subsampling — several blocks require 1.0), and an
/// in-memory chunked matrix so the meter sees only trainer work.
fn chunked_problem(nrows: usize, ncols: usize, block_rows: usize) -> (ChunkedMatrix, Vec<f64>) {
    let (data, labels) = problem(nrows, ncols);
    let mut sketch = CutSketch::new(ncols);
    sketch.update(data.as_slice());
    let mut b = ChunkedMatrixBuilder::in_memory(sketch.cuts(32), block_rows);
    b.push_rows(data.as_slice()).unwrap();
    (b.finish().unwrap(), labels)
}

fn chunked_params() -> Params {
    Params {
        n_estimators: 12,
        max_depth: 4,
        tree_method: TreeMethod::Hist { max_bins: 32 },
        ..Params::regression()
    }
}

/// Drive a histogram fit to completion, asserting every round after
/// the first (or every round, when `from_round_one`) allocates nothing.
/// Returns the number of rounds run.
fn assert_chunked_run_allocation_free(
    run: &mut ChunkedFitRun<'_>,
    from_round_one: bool,
    label: &str,
) -> usize {
    let mut rounds = 0;
    if !from_round_one {
        assert!(run.round().expect("round"), "at least one round must run");
        rounds = 1;
    }
    while {
        let before = alloc_count();
        let more = run.round().expect("round");
        let delta = alloc_count() - before;
        if more {
            rounds += 1;
            assert_eq!(
                delta, 0,
                "{label}: chunked round {rounds} allocated {delta} times; \
                 the chunk arenas must absorb every round after the first"
            );
        }
        more
    } {}
    rounds
}

/// Drive one chunked fit round-by-round, asserting every round after
/// the first allocates nothing.
fn assert_chunked_rounds_allocation_free(
    params: &Params,
    matrix: &ChunkedMatrix,
    labels: &[f64],
    scratch: &mut TreeScratch,
    label: &str,
) -> usize {
    let mut run = ChunkedFitRun::new(params, matrix.view(), None, labels, 1, scratch)
        .expect("valid chunked fit");
    assert_chunked_run_allocation_free(&mut run, false, label);
    run.finish().booster.trees().len()
}

#[test]
fn chunked_rounds_after_the_first_do_not_allocate() {
    // The out-of-core contract: once round one has sized the chunk
    // pools, every later round streams blocks, builds histograms,
    // partitions and emits trees without touching the heap — across
    // several block sizes, since block count shapes the visit lists.
    let params = chunked_params();
    for block_rows in [16usize, 48, 200] {
        let (matrix, labels) = chunked_problem(120, 8, block_rows);
        let mut scratch = TreeScratch::new();
        let n_trees = assert_chunked_rounds_allocation_free(
            &params,
            &matrix,
            &labels,
            &mut scratch,
            &format!("chunked block_rows={block_rows}"),
        );
        assert_eq!(n_trees, params.n_estimators);
    }
}

#[test]
fn a_second_chunked_fit_on_a_used_scratch_is_allocation_free_from_round_one() {
    // Steady state across fits — the sharded grid's execution shape:
    // a worker's scratch sees many fits of the same shape, and every
    // fit after the first must run allocation-free from round one.
    let params = chunked_params();
    let (matrix, labels) = chunked_problem(120, 8, 48);
    let mut scratch = TreeScratch::new();
    let mut run =
        ChunkedFitRun::new(&params, matrix.view(), None, &labels, 1, &mut scratch).unwrap();
    while run.round().unwrap() {}
    let _ = run.finish();

    let mut run =
        ChunkedFitRun::new(&params, matrix.view(), None, &labels, 1, &mut scratch).unwrap();
    let rounds = assert_chunked_run_allocation_free(&mut run, true, "warm-scratch chunked");
    assert_eq!(rounds, params.n_estimators);
}

#[test]
fn pooled_workers_stay_allocation_free_at_every_width() {
    // The grid's execution shape: `try_run_scratch_on` hands each
    // worker one scratch for its whole drain. Whatever the worker
    // count, each worker's rounds after its first must allocate
    // nothing — the thread-local counter meters exactly its thread.
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..data.nrows()).collect();
    let params = params(TreeMethod::Exact);
    for workers in [1usize, 2, 8] {
        let reports =
            msaw_parallel::try_run_scratch_on(workers, 8, TreeScratch::new, |scratch, job| {
                assert_rounds_allocation_free(
                    &params,
                    &ctx,
                    &rows,
                    &labels,
                    scratch,
                    &format!("worker pool width {workers}, job {job}"),
                )
            })
            .expect("no job panics");
        assert!(reports.iter().all(|&n| n == params.n_estimators));
    }
}
