//! Golden histogram-model digests: an FNV-1a hash over every bit of
//! every tree a `TreeMethod::Hist` fit produces, pinned as constants.
//!
//! The chunked equivalence suite compares block layouts and stores of
//! the one histogram grower against each other, so it cannot notice
//! the grower itself drifting. These constants were computed with the
//! recursive in-memory histogram grower the chunked trainer replaced,
//! over the cross product of the knobs that shape a fit: row subsample
//! {1, 0.9} × column subsample {1, 0.8} × objective {squared,
//! logistic} × `max_bins` {16, 256} × entry point (plain
//! `Booster::train`, an ascending row view and a shuffled row view of a
//! shared `TrainingContext`), on data with missing cells. Any change to
//! a single bit of any model fails here.
//!
//! The in-memory entry points fit on one thread; the same cases are
//! also fitted through `train_chunked_on` at 2 and 8 workers (the
//! node-parallel level passes), and a larger matrix checks the
//! feature-parallel passes against the one-worker fit.

use msaw_gbdt::{
    train_chunked_on, Booster, Node, Params, TrainingContext, TreeMethod, TreeScratch,
};
use msaw_tabular::Matrix;

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
}

/// Fold a model into a digest, node by node.
fn digest(model: &Booster) -> u64 {
    let mut h = Fnv1a::new();
    h.f64(model.base_score());
    h.u64(model.n_features() as u64);
    h.u64(model.trees().len() as u64);
    for tree in model.trees() {
        h.u64(tree.nodes().len() as u64);
        for node in tree.nodes() {
            match *node {
                Node::Split { feature, threshold, default_left, left, right, cover, gain } => {
                    h.u64(0);
                    h.u64(feature as u64);
                    h.f64(threshold);
                    h.u64(u64::from(default_left));
                    h.u64(left as u64);
                    h.u64(right as u64);
                    h.f64(cover);
                    h.f64(gain);
                }
                Node::Leaf { weight, cover } => {
                    h.u64(1);
                    h.f64(weight);
                    h.f64(cover);
                }
            }
        }
    }
    h.0
}

const NROWS: usize = 600;
const NCOLS: usize = 9;

/// Rows of the larger matrix: a shuffled view of three quarters of
/// them, subsampled at 0.9, still spans more cells at the root than the
/// grower's feature-parallel cut-off (2^15).
const NROWS_WIDE: usize = 6000;

/// Deterministic features: ~8% missing cells, a few low-cardinality
/// columns (exact cuts at any budget) and continuous ones with more
/// distinct values than 256 bins can hold.
fn features(nrows: usize) -> Matrix {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut cells = Vec::with_capacity(nrows * NCOLS);
    for i in 0..nrows {
        for j in 0..NCOLS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = if state.is_multiple_of(13) {
                f64::NAN
            } else if j % 3 == 0 {
                ((state >> 24) % 7) as f64
            } else {
                ((state >> 16) % 100_000) as f64 / 97.0 + (i % 11) as f64 * 0.25
            };
            cells.push(v);
        }
    }
    Matrix::from_vec(cells, nrows, NCOLS)
}

/// Regression labels with signal in the present features.
fn regression_labels(x: &Matrix) -> Vec<f64> {
    (0..x.nrows())
        .map(|i| {
            let row = x.row(i);
            let mut acc = (i % 5) as f64 * 0.3;
            for (j, &v) in row.iter().enumerate() {
                if !v.is_nan() {
                    acc += v * ((j % 4) as f64 + 1.0) * 0.002;
                }
            }
            acc
        })
        .collect()
}

/// Binary labels: the regression target above its median.
fn binary_labels(x: &Matrix) -> Vec<f64> {
    let reg = regression_labels(x);
    let mut sorted = reg.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    reg.iter().map(|&v| if v > median { 1.0 } else { 0.0 }).collect()
}

/// An ascending subset: every row except each fourth.
fn ascending_view(nrows: usize) -> Vec<usize> {
    (0..nrows).filter(|i| i % 4 != 1).collect()
}

/// The same rows in a deterministic scrambled order.
fn shuffled_view(nrows: usize) -> Vec<usize> {
    let mut rows = ascending_view(nrows);
    let n = rows.len();
    for i in 0..n {
        rows.swap(i, (i * 7919 + 13) % n);
    }
    rows
}

/// A histogram fit over the context's one-block matrix at `workers`
/// threads; `rows` is a row view (labels position-indexed) or the
/// whole matrix.
fn fit_on(
    params: &Params,
    ctx: &TrainingContext<'_>,
    rows: Option<&[usize]>,
    labels: &[f64],
    workers: usize,
    scratch: &mut TreeScratch,
) -> Booster {
    let rows: Option<Vec<u32>> = rows.map(|r| r.iter().map(|&i| i as u32).collect());
    train_chunked_on(params, ctx.binned().view(), rows.as_deref(), labels, workers, scratch)
        .unwrap()
        .booster
}

/// Every case's digest, in a fixed order, labelled for failure output.
/// One worker fits through the public in-memory entry points; more go
/// through `train_chunked_on` over the same one-block matrix.
fn case_digests(workers: usize) -> Vec<(String, u64)> {
    let x = features(NROWS);
    let mut scratch = TreeScratch::new();
    let mut out = Vec::new();
    for logistic in [false, true] {
        let labels = if logistic { binary_labels(&x) } else { regression_labels(&x) };
        for max_bins in [16u16, 256] {
            let ctx = TrainingContext::with_max_bins(&x, max_bins);
            for subsample in [1.0, 0.9] {
                for colsample_bytree in [1.0, 0.8] {
                    let base = if logistic { Params::binary(2.0) } else { Params::regression() };
                    let params = Params {
                        n_estimators: 15,
                        max_depth: 4,
                        subsample,
                        colsample_bytree,
                        tree_method: TreeMethod::Hist { max_bins },
                        seed: 7,
                        ..base
                    };
                    let tag = format!(
                        "logistic={logistic} max_bins={max_bins} subsample={subsample} \
                         colsample={colsample_bytree}"
                    );
                    let plain = if workers == 1 {
                        Booster::train(&params, &x, &labels).unwrap()
                    } else {
                        fit_on(&params, &ctx, None, &labels, workers, &mut scratch)
                    };
                    out.push((format!("{tag} plain"), digest(&plain)));
                    for (name, rows) in
                        [("ascending", ascending_view(NROWS)), ("shuffled", shuffled_view(NROWS))]
                    {
                        let y: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
                        let model = if workers == 1 {
                            Booster::train_on_rows_with(&params, &ctx, &rows, &y, &mut scratch)
                                .unwrap()
                        } else {
                            fit_on(&params, &ctx, Some(&rows), &y, workers, &mut scratch)
                        };
                        out.push((format!("{tag} {name}"), digest(&model)));
                    }
                }
            }
        }
    }
    out
}

fn assert_golden(workers: usize) {
    let got = case_digests(workers);
    assert_eq!(got.len(), GOLDEN.len(), "case count changed");
    for ((tag, d), want) in got.iter().zip(GOLDEN) {
        assert_eq!(*d, want, "workers={workers} {tag}: digest {d:#018x}, golden {want:#018x}");
    }
}

#[test]
fn hist_models_match_their_golden_digests() {
    assert_golden(1);
}

#[test]
fn node_parallel_fits_match_the_golden_digests() {
    assert_golden(2);
    assert_golden(8);
}

/// Root and single-target levels of this matrix are wide enough for
/// feature-parallel accumulation, so these fits take every multi-worker
/// path; each must be the one-worker fit's bits.
#[test]
fn feature_parallel_fits_match_the_one_worker_fit() {
    let x = features(NROWS_WIDE);
    let labels = regression_labels(&x);
    let ctx = TrainingContext::with_max_bins(&x, 256);
    let rows = shuffled_view(NROWS_WIDE);
    let y: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
    let mut scratch = TreeScratch::new();
    for subsample in [1.0, 0.9] {
        for colsample_bytree in [1.0, 0.8] {
            let params = Params {
                n_estimators: 4,
                max_depth: 4,
                subsample,
                colsample_bytree,
                tree_method: TreeMethod::Hist { max_bins: 256 },
                seed: 7,
                ..Params::regression()
            };
            let want = digest(
                &Booster::train_on_rows_with(&params, &ctx, &rows, &y, &mut scratch).unwrap(),
            );
            for workers in [2, 8] {
                let got = fit_on(&params, &ctx, Some(&rows), &y, workers, &mut scratch);
                assert_eq!(
                    digest(&got),
                    want,
                    "subsample={subsample} colsample={colsample_bytree} workers={workers}"
                );
            }
        }
    }
}

/// Digests in `case_digests` order, computed with the recursive grower.
#[rustfmt::skip]
const GOLDEN: [u64; 48] = [
    0xa05e1a4c15ed742b, // logistic=false max_bins=16 subsample=1 colsample=1 plain
    0xd13c101e3f757107, // logistic=false max_bins=16 subsample=1 colsample=1 ascending
    0x563847e933d59ad2, // logistic=false max_bins=16 subsample=1 colsample=1 shuffled
    0xbf3b5c615ccfd61c, // logistic=false max_bins=16 subsample=1 colsample=0.8 plain
    0x19b1a94ffdb744e3, // logistic=false max_bins=16 subsample=1 colsample=0.8 ascending
    0x6277d9db496129c7, // logistic=false max_bins=16 subsample=1 colsample=0.8 shuffled
    0x22774a995599dde4, // logistic=false max_bins=16 subsample=0.9 colsample=1 plain
    0xbca56171183a5e01, // logistic=false max_bins=16 subsample=0.9 colsample=1 ascending
    0xc20410eae9407086, // logistic=false max_bins=16 subsample=0.9 colsample=1 shuffled
    0xb8858defc08c508f, // logistic=false max_bins=16 subsample=0.9 colsample=0.8 plain
    0x6a45e84bf0439308, // logistic=false max_bins=16 subsample=0.9 colsample=0.8 ascending
    0xebea6e6c7857d39e, // logistic=false max_bins=16 subsample=0.9 colsample=0.8 shuffled
    0x5d720e6bc4a5eaa7, // logistic=false max_bins=256 subsample=1 colsample=1 plain
    0x14bd6a0c57570510, // logistic=false max_bins=256 subsample=1 colsample=1 ascending
    0xd1c7a91a09541cc8, // logistic=false max_bins=256 subsample=1 colsample=1 shuffled
    0xf61b528a2f8df1a2, // logistic=false max_bins=256 subsample=1 colsample=0.8 plain
    0x92e010c5792a77f3, // logistic=false max_bins=256 subsample=1 colsample=0.8 ascending
    0x1e63d775e8f0ecc4, // logistic=false max_bins=256 subsample=1 colsample=0.8 shuffled
    0x97a93a2641bff11d, // logistic=false max_bins=256 subsample=0.9 colsample=1 plain
    0xed8e3be58c65d07b, // logistic=false max_bins=256 subsample=0.9 colsample=1 ascending
    0x01d7d52b085bcff0, // logistic=false max_bins=256 subsample=0.9 colsample=1 shuffled
    0xedb4948d9994e4b0, // logistic=false max_bins=256 subsample=0.9 colsample=0.8 plain
    0xfa0e172c6742d4ec, // logistic=false max_bins=256 subsample=0.9 colsample=0.8 ascending
    0xb241bd37acbd26a5, // logistic=false max_bins=256 subsample=0.9 colsample=0.8 shuffled
    0xf593d54f4f220d15, // logistic=true max_bins=16 subsample=1 colsample=1 plain
    0x3411e39cc964c880, // logistic=true max_bins=16 subsample=1 colsample=1 ascending
    0x1f6a43ae7e4fd591, // logistic=true max_bins=16 subsample=1 colsample=1 shuffled
    0xd31f33d55ce0ab5b, // logistic=true max_bins=16 subsample=1 colsample=0.8 plain
    0xb7fe533c33228045, // logistic=true max_bins=16 subsample=1 colsample=0.8 ascending
    0x55b5cf56f77e7141, // logistic=true max_bins=16 subsample=1 colsample=0.8 shuffled
    0x9c402ecd0643d3f1, // logistic=true max_bins=16 subsample=0.9 colsample=1 plain
    0x8a4e8088c6386d37, // logistic=true max_bins=16 subsample=0.9 colsample=1 ascending
    0x938e2aed4d0e0225, // logistic=true max_bins=16 subsample=0.9 colsample=1 shuffled
    0xfb053aba36cb2114, // logistic=true max_bins=16 subsample=0.9 colsample=0.8 plain
    0x59bbe8fad084ba62, // logistic=true max_bins=16 subsample=0.9 colsample=0.8 ascending
    0xba362d787c24e227, // logistic=true max_bins=16 subsample=0.9 colsample=0.8 shuffled
    0xeb63caa6c52553fd, // logistic=true max_bins=256 subsample=1 colsample=1 plain
    0x6df522b4bf02172d, // logistic=true max_bins=256 subsample=1 colsample=1 ascending
    0xb2a618ed3c201401, // logistic=true max_bins=256 subsample=1 colsample=1 shuffled
    0x5e4133c6277839a7, // logistic=true max_bins=256 subsample=1 colsample=0.8 plain
    0x8db4a0ed1bb74896, // logistic=true max_bins=256 subsample=1 colsample=0.8 ascending
    0x89f70ee0e051ed98, // logistic=true max_bins=256 subsample=1 colsample=0.8 shuffled
    0xd6c3c8bcd23bbac2, // logistic=true max_bins=256 subsample=0.9 colsample=1 plain
    0xa1f79ec14abf4b2b, // logistic=true max_bins=256 subsample=0.9 colsample=1 ascending
    0x8bfaeac483cd26b5, // logistic=true max_bins=256 subsample=0.9 colsample=1 shuffled
    0x446378b1af4995e9, // logistic=true max_bins=256 subsample=0.9 colsample=0.8 plain
    0xe87b34565dc2f808, // logistic=true max_bins=256 subsample=0.9 colsample=0.8 ascending
    0x3bdc0774eef47ba8, // logistic=true max_bins=256 subsample=0.9 colsample=0.8 shuffled
];
