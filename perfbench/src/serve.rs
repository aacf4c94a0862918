//! `serve_open_loop`: the SPPB-DD model served by `PredictionService`
//! to independent users arriving on a fixed schedule.
//!
//! Set-up trains the model on the paper cohort, publishes it to a
//! `ModelRegistry`, loads it back and spawns the service (default
//! `ServeConfig`) with a registry watcher. The timed phase then runs:
//!
//! 1. a warm-up;
//! 2. an open-loop ladder of fixed request rates, each sent for
//!    [`RUNG_SECS`]. Request `i` of a rung is due at `i / rate`; latency
//!    is timed from that due time, so a stall also charges the requests
//!    queued behind it. One request in [`EXPLAIN_EVERY`] is a 1-row
//!    `explain: true` request. The top rung is past capacity: the
//!    admission queue fills and refuses requests, which count as misses
//!    for that rung;
//! 3. [`CYCLES`] cycles of a capacity burst — 16-row predict requests
//!    from one thread with [`BURST_WINDOW`] in flight, as fast as the
//!    service answers — and a segment at the nominal rate, so both are
//!    sampled across the whole run. The identical artifact is
//!    republished half-way through the middle segment, so a hot reload
//!    runs beside the reads.
//!
//! Requests are folded into counts as they are answered; only the
//! nominal segments keep a sample per request, in a buffer reserved
//! before the heap peak is reset, so the timed phase's heap peak is the
//! service's.
//!
//! Every answered prediction must be bit-equal to offline `FlatForest`
//! prediction of the same rows, and every delivered explanation must
//! add up to its prediction.

use crate::heap;
use crate::stats::{approx_eq, median, quantile, quantile_sorted};
use crate::trace::{Ledger, Tally};
use crate::{machine_line, peak_rss_line, Args, Outcome, ScratchDir};
use msaw_cohort::{generate, CohortConfig};
use msaw_core::experiment::try_fit_final_model;
use msaw_core::{Approach, ExperimentConfig, ModelKey, ModelRegistry};
use msaw_gbdt::ModelArtifact;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};
use msaw_serve::{
    ClientId, PredictionOutput, PredictionService, ReloadWatcher, RequestOptions, ServeConfig,
    ServeError, ServiceHandle, Ticket,
};
use msaw_shap::TreeExplainer;
use msaw_tabular::Matrix;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Set-ups timed; the median is reported.
const SETUP_REPEATS: usize = 7;
/// Rows of a predict request.
const ROWS_PER_REQUEST: usize = 16;
/// One request in this many is a 1-row explain request.
const EXPLAIN_EVERY: usize = 20;
/// The latency limit `serve_max_rps` is judged against.
const LATENCY_LIMIT_SECS: f64 = 0.005;
/// Open-loop rates, requests per second, ascending; the top one is
/// past the burst capacity.
const LADDER: [f64; 8] =
    [500.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0];
/// The rate the headline latency is measured at.
const NOMINAL_RATE: f64 = 2_000.0;
/// Seconds each ladder rung sends for: long enough that the 1,024-deep
/// admission queue cannot absorb a rung past capacity.
const RUNG_SECS: f64 = 0.75;
/// Requests of one capacity burst (under a second of work).
const BURST_REQUESTS: usize = 32_000;
/// Burst + nominal-rate segment cycles in the timed phase.
const CYCLES: usize = 8;
/// Requests in flight during a burst: enough to keep the batcher's
/// batches full.
const BURST_WINDOW: usize = 256;
/// Slots of each generator's channel to its collector: more than the
/// service holds unanswered (queue plus one batch), so a generator
/// never waits for its collector.
const CHANNEL_SLOTS: usize = 4_096;
/// Closed-loop requests sent before anything is timed.
const WARMUP_REQUESTS: usize = 400;
/// Distinct request bodies cycled through.
const BODIES: usize = 64;
/// How long a client waits for an answer before calling it failed.
const WAIT_LIMIT: Duration = Duration::from_secs(10);
/// How often the watcher polls the registry.
const POLL: Duration = Duration::from_millis(10);

/// A spawned service with everything needed to republish its model.
struct Served {
    service: PredictionService,
    watcher: ReloadWatcher,
    registry: ModelRegistry,
    key: ModelKey,
    artifact: ModelArtifact,
    bodies: Bodies,
}

impl Served {
    fn shutdown(self) {
        self.watcher.stop();
        self.service.shutdown();
    }
}

/// Request bodies and the offline answers they must get.
struct Bodies {
    windows: Vec<Matrix>,
    window_expected: Vec<Vec<f64>>,
    singles: Vec<Matrix>,
    single_expected: Vec<f64>,
    rows: usize,
}

impl Bodies {
    fn build(features: &Matrix, artifact: &ModelArtifact) -> Bodies {
        let offline = artifact.forest.predict_batch(features);
        let n = features.nrows();
        let starts: Vec<usize> = (0..BODIES).map(|k| (k * 613) % (n - ROWS_PER_REQUEST)).collect();
        let windows = starts
            .iter()
            .map(|&lo| features.take_rows(&(lo..lo + ROWS_PER_REQUEST).collect::<Vec<_>>()))
            .collect();
        let window_expected =
            starts.iter().map(|&lo| offline[lo..lo + ROWS_PER_REQUEST].to_vec()).collect();
        let single_rows: Vec<usize> = (0..BODIES).map(|k| (k * 389 + 7) % n).collect();
        let singles = single_rows.iter().map(|&r| features.take_rows(&[r])).collect();
        let single_expected = single_rows.iter().map(|&r| offline[r]).collect();
        Bodies { windows, window_expected, singles, single_expected, rows: n }
    }
}

/// Train, publish, load and spawn; every call is a span in `tally`.
fn set_up(seed: u64, dir: &Path, tally: &mut Tally) -> Result<Served, String> {
    let data = tally.time("cohort.generate", || generate(&CohortConfig::paper(seed)));
    let cfg = ExperimentConfig { seed, ..ExperimentConfig::default() };
    let set = tally.time("preprocess.featurize", || {
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline)
    });
    let model = tally
        .time("gbdt.final_fit", || try_fit_final_model(&set, &cfg))
        .map_err(|e| e.to_string())?;
    let registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
    let key = ModelKey::for_samples(&set, Approach::DataDriven);
    let published = ModelArtifact::from_booster(model, None);
    tally
        .time("core.registry_store", || registry.store(&key, &published))
        .map_err(|e| e.to_string())?;
    let artifact =
        tally.time("core.registry_load", || registry.load(&key)).map_err(|e| e.to_string())?;
    let service = tally
        .time("serve.spawn", || PredictionService::spawn(artifact.clone(), ServeConfig::default()))
        .map_err(|e| e.to_string())?;
    let watcher = tally
        .time("serve.spawn", || service.watch_registry(registry.clone(), key.group_name(), POLL))
        .map_err(|e| e.to_string())?;
    let bodies = Bodies::build(&set.features, &artifact);
    Ok(Served { service, watcher, registry, key, artifact, bodies })
}

/// One request handed from its generator to its collector.
struct Pending {
    index: usize,
    due: Instant,
    late: f64,
    submit: f64,
    ticket: Result<Ticket, ServeError>,
}

/// One request of a nominal-rate segment — the only requests the
/// harness keeps a record of, in a buffer reserved before the timed
/// phase starts.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Seconds from the segment start to the due time.
    due: f64,
    late: f64,
    submit: f64,
    explain: bool,
    /// Seconds from due time to answer; `None` when not answered.
    latency: Option<f64>,
}

/// What the requests of one phase saw, folded as they are answered.
#[derive(Debug, Default)]
struct Counts {
    sent: usize,
    answered: usize,
    /// Refused at admission because the queue was full.
    refused: usize,
    /// Failed in any other way.
    failed: usize,
    /// Answered wrongly (values, shape or explanation).
    wrong: usize,
    explains: usize,
    explained: usize,
    predicts: usize,
    /// Predict requests answered within [`LATENCY_LIMIT_SECS`] of
    /// their due time.
    within: usize,
    /// The same two for the requests of the phase's last quarter.
    tail_predicts: usize,
    tail_within: usize,
    latency_sum: f64,
    late_max: f64,
    /// Seconds from the phase start to the last answer.
    last_answer: f64,
    /// The first failure or wrong answer.
    problem: Option<String>,
}

impl Counts {
    fn merge(&mut self, other: Counts) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.refused += other.refused;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.explains += other.explains;
        self.explained += other.explained;
        self.predicts += other.predicts;
        self.within += other.within;
        self.tail_predicts += other.tail_predicts;
        self.tail_within += other.tail_within;
        self.latency_sum += other.latency_sum;
        self.late_max = self.late_max.max(other.late_max);
        self.last_answer = self.last_answer.max(other.last_answer);
        if self.problem.is_none() {
            self.problem = other.problem;
        }
    }

    /// Share of predict requests (or of the last quarter's) answered
    /// within the latency limit; a refused or failed request misses.
    fn within_share(&self, tail: bool) -> f64 {
        let (within, of) = if tail {
            (self.tail_within, self.tail_predicts)
        } else {
            (self.within, self.predicts)
        };
        if of == 0 {
            1.0
        } else {
            within as f64 / of as f64
        }
    }

    /// Count the phase's requests as checked operations. A refusal is
    /// a failure only where the load is within capacity.
    fn account(&self, outcome: &mut Outcome, label: &str, refusal_fails: bool) {
        let bad = self.wrong + self.failed + if refusal_fails { self.refused } else { 0 };
        outcome.check_many(self.sent as u64, bad as u64, || {
            format!(
                "{label}: {bad} of {} requests failed, were refused or were answered wrongly (first: {})",
                self.sent,
                self.problem.as_deref().unwrap_or("refused at admission")
            )
        });
    }
}

fn is_explain(index: usize, open_loop: bool) -> bool {
    open_loop && index % EXPLAIN_EVERY == EXPLAIN_EVERY - 1
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The requests of one phase.
#[derive(Debug, Clone, Copy)]
struct Plan {
    generators: usize,
    requests: usize,
    /// Requests per second on the open-loop schedule; `None` sends a
    /// closed burst with [`BURST_WINDOW`] in flight per generator.
    rate: Option<f64>,
    /// Time each `submit` call.
    traced: bool,
    /// Keep a [`Sample`] of every request.
    keep: bool,
}

fn generate_requests(
    g: usize,
    plan: Plan,
    start: Instant,
    handle: &ServiceHandle,
    bodies: &Bodies,
    tx: mpsc::SyncSender<Pending>,
) {
    let Plan { generators, requests, rate, traced, .. } = plan;
    for index in (g..requests).step_by(generators) {
        let due = match rate {
            Some(r) => start + Duration::from_secs_f64(index as f64 / r),
            None => start,
        };
        wait_until(due);
        let late = due.elapsed().as_secs_f64();
        let explain = is_explain(index, rate.is_some());
        let body =
            if explain { &bodies.singles[index % BODIES] } else { &bodies.windows[index % BODIES] };
        // Every request comes from its own user, so no per-client
        // quota binds.
        let client = ClientId(index as u64);
        let options = RequestOptions { explain, deadline: None, client };
        let (ticket, submit) = if traced {
            let submitted = Instant::now();
            let ticket = handle.submit(body, options);
            (ticket, submitted.elapsed().as_secs_f64())
        } else {
            (handle.submit(body, options), 0.0)
        };
        if tx.send(Pending { index, due, late, submit, ticket }).is_err() {
            return;
        }
    }
}

/// Whether an answer is exactly the offline one, and whether it
/// carried an explanation.
fn answer_is_right(
    out: &PredictionOutput,
    index: usize,
    explain: bool,
    bodies: &Bodies,
) -> (bool, bool) {
    let expected: &[f64] = if explain {
        std::slice::from_ref(&bodies.single_expected[index % BODIES])
    } else {
        &bodies.window_expected[index % BODIES]
    };
    let values_equal = out.predictions.len() == expected.len()
        && out.predictions.iter().zip(expected).all(|(a, b)| a.to_bits() == b.to_bits());
    if !explain {
        return (values_equal && out.explanations.is_none(), false);
    }
    match &out.explanations {
        Some(e) => {
            let additive = e.len() == 1 && {
                let total = e[0].base_value + e[0].values.iter().sum::<f64>();
                approx_eq(total, e[0].prediction)
            };
            (values_equal && additive && !out.degraded, true)
        }
        // A shed explanation must say so.
        None => (values_equal && out.degraded, false),
    }
}

/// Wait for each request's answer in turn, check it and fold it into
/// the counts (and, for a kept phase, a sample).
fn collect(
    rx: mpsc::Receiver<Pending>,
    plan: Plan,
    start: Instant,
    bodies: &Bodies,
) -> (Counts, Vec<Sample>) {
    let open_loop = plan.rate.is_some();
    let mut counts = Counts::default();
    let mut samples = Vec::new();
    for p in rx {
        let explain = is_explain(p.index, open_loop);
        let answer = p.ticket.and_then(|t| t.wait_timeout(WAIT_LIMIT));
        let done = Instant::now();
        counts.sent += 1;
        counts.explains += usize::from(explain);
        counts.late_max = counts.late_max.max(p.late);
        let latency = match answer {
            Ok(out) => {
                let (right, explained) = answer_is_right(&out, p.index, explain, bodies);
                counts.answered += 1;
                counts.explained += usize::from(explained);
                if !right {
                    counts.wrong += 1;
                    counts
                        .problem
                        .get_or_insert_with(|| format!("request {} answered wrongly", p.index));
                }
                counts.last_answer = counts.last_answer.max((done - start).as_secs_f64());
                let latency = (done - p.due).as_secs_f64();
                counts.latency_sum += latency;
                Some(latency)
            }
            Err(ServeError::Overloaded) => {
                counts.refused += 1;
                None
            }
            Err(e) => {
                counts.failed += 1;
                counts.problem.get_or_insert_with(|| format!("request {} failed: {e}", p.index));
                None
            }
        };
        if !explain {
            let within = usize::from(latency.is_some_and(|l| l <= LATENCY_LIMIT_SECS));
            counts.predicts += 1;
            counts.within += within;
            if p.index >= plan.requests * 3 / 4 {
                counts.tail_predicts += 1;
                counts.tail_within += within;
            }
        }
        if plan.keep {
            let due = (p.due - start).as_secs_f64();
            samples.push(Sample { due, late: p.late, submit: p.submit, explain, latency });
        }
    }
    (counts, samples)
}

/// One phase's counts and the deepest queue seen meanwhile.
struct Phase {
    counts: Counts,
    queue_max: usize,
}

/// Send a phase's requests from its generator threads, appending the
/// samples of a kept phase to `sink` and calling `tick` about every
/// millisecond with the seconds since the phase start.
fn run_phase(
    served: &Served,
    plan: Plan,
    sink: &mut Vec<Sample>,
    mut tick: impl FnMut(f64),
) -> Phase {
    let start = Instant::now() + Duration::from_millis(2);
    let generators = plan.generators;
    let slots = if plan.rate.is_some() { CHANNEL_SLOTS } else { BURST_WINDOW };
    let finished = AtomicUsize::new(0);
    let mut queue_max = 0;
    let mut counts = Counts::default();
    std::thread::scope(|scope| {
        let collectors: Vec<_> = (0..generators)
            .map(|g| {
                let (tx, rx) = mpsc::sync_channel(slots);
                let handle = served.service.handle();
                let bodies = &served.bodies;
                scope.spawn(move || generate_requests(g, plan, start, &handle, bodies, tx));
                let finished = &finished;
                scope.spawn(move || {
                    let collected = collect(rx, plan, start, bodies);
                    finished.fetch_add(1, Ordering::SeqCst);
                    collected
                })
            })
            .collect();
        while finished.load(Ordering::SeqCst) < generators {
            queue_max = queue_max.max(served.service.stats().queue_depth);
            tick(start.elapsed().as_secs_f64());
            std::thread::sleep(Duration::from_millis(1));
        }
        for collector in collectors {
            let (part, samples) = collector.join().expect("collector thread");
            counts.merge(part);
            sink.extend(samples);
        }
    });
    Phase { counts, queue_max }
}

/// Latency figures of a set of samples.
struct Summary {
    sent: usize,
    answered: usize,
    p50: f64,
    p99: f64,
    within_limit: f64,
}

fn summarize<'a>(samples: impl Iterator<Item = &'a Sample>) -> Summary {
    let mut sent = 0;
    let mut latencies = Vec::new();
    for s in samples {
        sent += 1;
        latencies.extend(s.latency);
    }
    latencies.sort_by(f64::total_cmp);
    let within = latencies.iter().filter(|&&l| l <= LATENCY_LIMIT_SECS).count();
    Summary {
        sent,
        answered: latencies.len(),
        p50: quantile_sorted(&latencies, 0.5),
        p99: quantile_sorted(&latencies, 0.99),
        within_limit: if sent == 0 { 0.0 } else { within as f64 / sent as f64 },
    }
}

fn print_summary(label: &str, s: &Summary, extra: &str) {
    println!(
        "# {label}: sent {} ok {} failed {}; p50 {:.3} ms p99 {:.3} ms; within 5 ms {:.2}%{extra}",
        s.sent,
        s.answered,
        s.sent - s.answered,
        s.p50 * 1e3,
        s.p99 * 1e3,
        s.within_limit * 100.0
    );
}

/// What the timed phase measured.
struct Timed {
    capacity_rows_per_s: f64,
    nominal_p50: f64,
    nominal_p99: f64,
    explain_p99: f64,
    max_rps: f64,
    late_p99: f64,
    submit_p50: f64,
    queue_max: usize,
    /// Every request of the phase.
    total: Counts,
    /// Heap live when the phase started and its high-water mark, MiB.
    heap_live: f64,
    heap_peak: f64,
    wall: f64,
    serial: Tally,
}

/// Warm-up, ladder, then bursts interleaved with the nominal rate and
/// its reload. The harness keeps no per-request state but the nominal
/// samples, reserved up front, so the heap peak is the service's.
fn timed_phase(
    served: &Served,
    generators: usize,
    nominal_secs: f64,
    traced: bool,
    outcome: &mut Outcome,
) -> Timed {
    let segment_secs = nominal_secs / CYCLES as f64;
    let per_segment = (NOMINAL_RATE * segment_secs) as usize;
    let mut nominal: Vec<Sample> = Vec::with_capacity(CYCLES * per_segment);
    let mut bursts = Vec::with_capacity(CYCLES);
    let mut serial = Tally::default();
    let mut total = Counts::default();
    heap::reset_peak();
    let heap_live = heap::live_mib();
    let started = Instant::now();
    // A closed burst is sent from one thread, so the client side leaves
    // the cores to the service.
    let plan = |requests, rate: Option<f64>, keep| Plan {
        generators: if rate.is_some() { generators } else { 1 },
        requests,
        rate,
        traced,
        keep,
    };

    let warmup = run_phase(served, plan(WARMUP_REQUESTS, None, false), &mut Vec::new(), |_| {});
    warmup.counts.account(outcome, "warm-up", true);
    total.merge(warmup.counts);

    let mut max_rps = 0.0;
    let mut queue_max = 0;
    for rate in LADDER {
        let n = ((rate * RUNG_SECS) as usize).max(1);
        let phase = run_phase(served, plan(n, Some(rate), false), &mut Vec::new(), |_| {});
        let c = &phase.counts;
        let meets = c.within_share(false) >= 0.99 && c.within_share(true) >= 0.99;
        if meets && rate > max_rps {
            max_rps = rate;
        }
        queue_max = queue_max.max(phase.queue_max);
        println!(
            "# rung {rate:.0} req/s for {RUNG_SECS} s: sent {} ok {} refused {} failed {} wrong {}; mean {:.3} ms; within 5 ms {:.2}% (last quarter {:.2}%); queue max {}; late max {:.3} ms; meets {meets}",
            c.sent,
            c.answered,
            c.refused,
            c.failed,
            c.wrong,
            c.latency_sum / c.answered.max(1) as f64 * 1e3,
            c.within_share(false) * 100.0,
            c.within_share(true) * 100.0,
            phase.queue_max,
            c.late_max * 1e3
        );
        // A rung past capacity may refuse requests: each is a miss for
        // the rung, not a fault of the service.
        c.account(outcome, &format!("rung {rate:.0} req/s"), false);
        total.merge(phase.counts);
    }

    // Capacity bursts interleaved with nominal-rate segments, so both
    // figures are sampled across the whole run; the identical artifact
    // is republished half-way through the middle segment.
    let reload_cycle = CYCLES / 2;
    let reloads_before = served.service.stats().reloads;
    let mut reload_window = None;
    let mut store_error = None;
    for cycle in 0..CYCLES {
        let burst = run_phase(served, plan(BURST_REQUESTS, None, false), &mut Vec::new(), |_| {});
        bursts.push((BURST_REQUESTS * ROWS_PER_REQUEST) as f64 / burst.counts.last_answer);
        burst.counts.account(outcome, "capacity burst", true);
        total.merge(burst.counts);

        let first = nominal.len();
        let mut published_at = None;
        let mut reloaded_at = None;
        let phase =
            run_phase(served, plan(per_segment, Some(NOMINAL_RATE), true), &mut nominal, |t| {
                if cycle != reload_cycle {
                    return;
                }
                if published_at.is_none() && t >= segment_secs / 2.0 {
                    if let Err(e) = serial.time("core.registry_store", || {
                        served.registry.store(&served.key, &served.artifact)
                    }) {
                        store_error = Some(e.to_string());
                    }
                    published_at = Some(t);
                }
                if published_at.is_some()
                    && reloaded_at.is_none()
                    && served.service.stats().reloads > reloads_before
                {
                    reloaded_at = Some(t);
                }
            });
        queue_max = queue_max.max(phase.queue_max);
        if let (Some(from), Some(to)) = (published_at, reloaded_at) {
            let window =
                summarize(nominal[first..].iter().filter(|s| s.due >= from && s.due <= to + 0.1));
            reload_window = Some((from, to, window));
        }
        phase.counts.account(outcome, "nominal segment", true);
        total.merge(phase.counts);
    }
    let heap_peak = heap::peak_mib();
    let wall = started.elapsed().as_secs_f64();

    let capacity_rows_per_s = median(&bursts);
    println!("# capacity bursts: {capacity_rows_per_s:.0} rows/s (median of {bursts:.0?})");
    let top = LADDER[LADDER.len() - 1];
    let rows_per_request =
        (ROWS_PER_REQUEST * (EXPLAIN_EVERY - 1) + 1) as f64 / EXPLAIN_EVERY as f64;
    println!(
        "# ladder top rung {top:.0} req/s offers {:.0} rows/s; burst capacity {capacity_rows_per_s:.0} rows/s is {:.0} req/s of {ROWS_PER_REQUEST} rows",
        top * rows_per_request,
        capacity_rows_per_s / ROWS_PER_REQUEST as f64
    );

    let stats = served.service.stats();
    outcome.check(
        store_error.is_none() && stats.reloads == reloads_before + 1 && stats.reload_failures == 0,
        || {
            format!(
                "republish: store error {store_error:?}, {} reloads (expected {}), {} reload failures",
                stats.reloads,
                reloads_before + 1,
                stats.reload_failures
            )
        },
    );
    let predicts = summarize(nominal.iter().filter(|s| !s.explain));
    let explains = summarize(nominal.iter().filter(|s| s.explain));
    let late_p99 = quantile(&nominal.iter().map(|s| s.late).collect::<Vec<_>>(), 0.99);
    if late_p99 > LATENCY_LIMIT_SECS {
        // Latency counts from the due time, so lateness is charged to
        // the requests; the figures are still an upper bound.
        println!(
            "# WARNING: generators fell behind the nominal schedule (late p99 {:.3} ms)",
            late_p99 * 1e3
        );
    }
    print_summary(
        &format!("nominal {NOMINAL_RATE:.0} req/s predict"),
        &predicts,
        &format!("; late p99 {:.3} ms", late_p99 * 1e3),
    );
    print_summary(&format!("nominal {NOMINAL_RATE:.0} req/s explain"), &explains, "");
    match &reload_window {
        Some((from, to, window)) => print_summary(
            "reload window",
            window,
            &format!("; published at {from:.3} s, reloaded at {to:.3} s of segment {reload_cycle}"),
        ),
        None => println!("# reload window: the republish was not reloaded during its segment"),
    }

    let submits: Vec<f64> = nominal.iter().map(|s| s.submit).collect();
    Timed {
        capacity_rows_per_s,
        nominal_p50: predicts.p50,
        nominal_p99: predicts.p99,
        explain_p99: explains.p99,
        max_rps,
        late_p99,
        submit_p50: median(&submits),
        queue_max,
        total,
        heap_live,
        heap_peak,
        wall,
        serial,
    }
}

/// Offline kernel floors on the served rows: flat-forest prediction
/// and TreeSHAP explanation, microseconds per row.
fn offline_floors(served: &Served) -> (f64, f64) {
    let forest = &served.artifact.forest;
    let start = Instant::now();
    let mut rows = 0;
    while start.elapsed() < Duration::from_millis(300) {
        for body in &served.bodies.windows {
            std::hint::black_box(forest.predict_batch(body));
            rows += body.nrows();
        }
    }
    let predict_us = start.elapsed().as_secs_f64() / rows as f64 * 1e6;
    let explainer = TreeExplainer::new(&served.artifact.booster);
    let start = Instant::now();
    let mut rows = 0;
    while start.elapsed() < Duration::from_millis(300) {
        for body in &served.bodies.singles {
            std::hint::black_box(explainer.shap_values_row(body.row(0)));
            rows += 1;
        }
    }
    (predict_us, start.elapsed().as_secs_f64() / rows as f64 * 1e6)
}

pub fn run(args: &Args, scratch: &ScratchDir) -> Result<Outcome, String> {
    let generators = msaw_parallel::available_workers().min(2);
    let pool_workers = msaw_parallel::available_workers();
    println!("{}", machine_line(pool_workers, generators));
    let mut outcome = Outcome::default();
    // The ladder (8 rungs of 0.75 s) and the bursts (8 of under a
    // second) take a fixed 12 s or so; the nominal-rate segments get 40%
    // of the budget.
    let nominal_secs = (0.4 * args.seconds.as_secs_f64()).max(4.0);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut served = None;
    let mut setup_tally = Tally::default();
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = served.take() {
            Served::shutdown(previous);
        }
        let start = Instant::now();
        setup_tally = Tally::default();
        let s = set_up(args.seed, &scratch.0.join(format!("registry-{k}")), &mut setup_tally)?;
        setups.push(start.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let setup_s = median(&setups);
    println!(
        "# input: seed={} patients=261 rows={} rows_per_request={ROWS_PER_REQUEST} explain_every={EXPLAIN_EVERY} nominal_rate={NOMINAL_RATE} ladder={LADDER:?}",
        args.seed, served.bodies.rows
    );

    if args.trace {
        let untraced = timed_phase(&served, generators, nominal_secs, false, &mut outcome).wall;
        let before = served.service.stats();
        let t = timed_phase(&served, generators, nominal_secs, true, &mut outcome);
        let after = served.service.stats();
        let (predict_us, explain_us) = offline_floors(&served);
        let mut ledger = Ledger::default();
        ledger.serial(&t.serial);
        // The open-loop schedule sets the wall: all of it is serving.
        let mut serving = Tally::default();
        serving.add("serve.open_loop", t.wall - t.serial.total_secs());
        ledger.serial(&serving);
        let metrics = [
            ("trace.wall_s", t.wall),
            ("trace.untraced_wall_s", untraced),
            ("trace.overhead_s", t.wall - untraced),
            ("core.registry_store_s", setup_tally.secs("core.registry_store")),
            ("core.registry_load_s", setup_tally.secs("core.registry_load")),
            ("serve.submit_us_p50", t.submit_p50 * 1e6),
            ("gbdt.predict_us_per_row", predict_us),
            ("serve.queue_depth_max", t.queue_max as f64),
            ("serve.reloads", (after.reloads - before.reloads) as f64),
            ("serve.reload_failures", (after.reload_failures - before.reload_failures) as f64),
            (
                "serve.explain_served_ratio",
                t.total.explained as f64 / t.total.explains.max(1) as f64,
            ),
            ("serve.degraded", (after.degraded - before.degraded) as f64),
            ("shap.explain_us_per_row", explain_us),
            ("serve.answered", (after.answered - before.answered) as f64),
            ("serve.shed_total", (after.shed_total() - before.shed_total()) as f64),
            ("gen.late_p99_ms", t.late_p99 * 1e3),
        ];
        for (name, value) in metrics {
            outcome.set(name, value);
        }
        for (metric, secs) in ledger.reconcile(t.wall) {
            outcome.set(metric, secs);
        }
        println!("# traced wall {:.4} s, untraced {:.4} s", t.wall, untraced);
        Served::shutdown(served);
        return Ok(outcome);
    }

    let t = timed_phase(&served, generators, nominal_secs, false, &mut outcome);
    let stats = served.service.stats();
    Served::shutdown(served);
    println!("# setup_s = {setup_s:.6} s (train + publish + load + spawn, median of {SETUP_REPEATS}: {setups:.4?})");
    println!(
        "# serve_p50_ms = {:.4} ms, serve_p99_ms = {:.4} ms (predict at {NOMINAL_RATE:.0} req/s)",
        t.nominal_p50 * 1e3,
        t.nominal_p99 * 1e3
    );
    println!("# explain_p99_ms = {:.4} ms", t.explain_p99 * 1e3);
    println!(
        "# serve_max_rps = {:.0} req/s (>= 99% of predicts within 5 ms of due time)",
        t.max_rps
    );
    println!("# capacity_rows_per_s = {:.0} rows/s", t.capacity_rows_per_s);
    println!(
        "# peak_heap_mib = {:.4} MiB (timed phase; {:.4} MiB live at its start)",
        t.heap_peak, t.heap_live
    );
    println!("{}", peak_rss_line());
    println!(
        "# service: answered {} shed {} degraded {} reloads {} reload_failures {}; requests {} explained {}/{}",
        stats.answered,
        stats.shed_total(),
        stats.degraded,
        stats.reloads,
        stats.reload_failures,
        t.total.sent,
        t.total.explained,
        t.total.explains
    );
    println!(
        "# fail_ratio = {}/{} ({} requests refused at admission, misses on ladder rungs past capacity)",
        outcome.failed, outcome.attempted, t.total.refused
    );
    outcome.set("setup_s", setup_s);
    outcome.set("latency_ms", t.nominal_p50 * 1e3);
    outcome.set("rows_per_s", t.capacity_rows_per_s);
    outcome.set("peak_heap_mib", t.heap_peak);
    Ok(outcome)
}
