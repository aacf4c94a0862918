//! # msaw-serve
//!
//! The serving front-end over persisted model artifacts: a
//! [`PredictionService`] owns a loaded [`ModelArtifact`] and accepts
//! concurrent prediction requests from any number of client threads,
//! coalescing them into large batches so the flat-forest block kernel
//! runs at batch throughput even when every caller submits a handful
//! of rows.
//!
//! ## Architecture
//!
//! No async runtime is available (dependencies are vendored), so the
//! service is built on threads and channels — the same shape an async
//! executor would reduce to for a CPU-bound model server:
//!
//! ```text
//! client threads           supervisor ▸ batcher            worker pool
//! ServiceHandle ─┐
//! ServiceHandle ─┼─ mpsc ─► coalesce ≤ max_batch ───────► try_predict_batch_on
//! ServiceHandle ─┘          split per request              (256-row blocks)
//!      ▲                        │               ▲
//!      └── Ticket::wait ◄───────┘               │ Arc-swap between batches
//!          (per-request reply channel)     ReloadWatcher ◄─ registry poll
//! ```
//!
//! * [`ServiceHandle::submit`] validates the request's feature count,
//!   checks the submitting client's in-flight quota, enqueues, and
//!   returns a [`Ticket`] immediately — submission never blocks on
//!   inference.
//! * The batcher drains whatever is queued (up to
//!   [`ServeConfig::max_batch_rows`]), sheds requests whose deadline
//!   already expired, stacks the surviving rows into one matrix, and
//!   predicts through [`FlatForest::try_predict_batch_on`], which runs
//!   256-row blocks on the panic-containing worker pool — a poisoned
//!   row yields a typed [`ServeError`], never a crashed server.
//! * Results are split back per request and delivered on each ticket's
//!   private channel; a request with [`explain`](RequestOptions) set
//!   also carries exact TreeSHAP attributions for each row — unless
//!   the queue is past [`ServeConfig::degrade_queue_depth`], in which
//!   case the SHAP work is shed first and the output is flagged
//!   [`degraded`](PredictionOutput::degraded) so predictions stay
//!   available under load that would otherwise mean
//!   [`ServeError::Overloaded`].
//!
//! ## Robustness contract
//!
//! Four failure modes the service survives by construction:
//!
//! * **Slow clients** — a per-request deadline
//!   ([`RequestOptions::deadline`]) is checked when the batcher
//!   dequeues the request: work that nobody is waiting for any more is
//!   shed with [`ServeError::DeadlineExceeded`] instead of burning
//!   batch capacity. [`Ticket::wait_timeout`] bounds the caller side,
//!   so no client ever hangs on a wedged service.
//! * **Greedy clients** — every submit carries a [`ClientId`]; a
//!   client with [`ServeConfig::max_in_flight_per_client`] requests
//!   already unanswered is rejected with [`ServeError::QuotaExceeded`]
//!   while other clients keep their full share of the queue.
//! * **Model republish** — a [`ReloadWatcher`] polls the registry and
//!   atomically swaps the loaded artifact *between* batches: in-flight
//!   requests finish on the model they were admitted under, the next
//!   batch runs on the new one, and a corrupt or truncated republished
//!   artifact keeps the old model serving (surfaced as a typed
//!   [`ReloadError`] and counted in [`ServiceStats`]).
//! * **Batcher panics** — a supervisor thread wraps the batcher loop
//!   in `catch_unwind` with bounded exponential-backoff restarts. Only
//!   the in-flight batch fails (each of its tickets resolves to
//!   [`ServeError::BatcherPanic`] — the reply is sent from the request
//!   guard's `Drop` while the panic unwinds); queued requests survive
//!   the restart and the next batch serves normally.
//!
//! Shutdown is never silent: requests accepted before
//! [`PredictionService::shutdown`] are answered in full, and anything
//! still queued after the shutdown marker resolves to a typed
//! [`ServeError::ShuttingDown`] — every ticket issued by the service
//! resolves, always.
//!
//! Determinism: predictions go through the same block kernel as the
//! offline path, so served scores are bit-identical to
//! `FlatForest::predict_batch` at any worker count and any request
//! interleaving — batching, degradation, and reload change latency and
//! explanation availability, never prediction values.

use msaw_gbdt::{FlatForest, ModelArtifact, PredictError};
use msaw_shap::{Explanation, PathArena, TreeExplainer};
use msaw_tabular::Matrix;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod reload;

pub use reload::{ReloadError, ReloadWatcher};

/// Tuning knobs for a [`PredictionService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads for the prediction pool (0 = the pool default).
    pub workers: usize,
    /// Coalescing ceiling: the batcher stops draining the queue once
    /// this many rows are pending. One flat-forest block is 256 rows,
    /// so multiples of 256 keep the kernel's lanes full.
    pub max_batch_rows: usize,
    /// Admission ceiling: how many requests may wait in the queue
    /// before [`ServiceHandle::submit`] starts rejecting with
    /// [`ServeError::Overloaded`]. Bounding the queue keeps a stalled
    /// batcher from letting submissions grow memory without limit;
    /// clamped to at least 1 at spawn.
    pub max_queued_requests: usize,
    /// Per-client fairness cap: how many requests one [`ClientId`] may
    /// have in flight (submitted, not yet answered) before its submits
    /// are rejected with [`ServeError::QuotaExceeded`]. A single greedy
    /// client saturating the queue starves everyone; this cap keeps the
    /// shared queue shared. Clamped to at least 1 at spawn; use
    /// `usize::MAX` to disable.
    pub max_in_flight_per_client: usize,
    /// Degradation watermark: once this many requests are still queued
    /// *after* a batch has been assembled, the batch is served without
    /// optional per-row SHAP (outputs flagged
    /// [`degraded`](PredictionOutput::degraded)). Shedding the
    /// explanation work — easily 10× the prediction cost — keeps
    /// predictions flowing under load that would otherwise escalate to
    /// whole-request shedding. `usize::MAX` disables the tier.
    pub degrade_queue_depth: usize,
    /// Supervisor budget: how many times the batcher loop may be
    /// restarted after a panic before the service gives up and drains
    /// the queue with [`ServeError::ShuttingDown`].
    pub max_batcher_restarts: usize,
    /// Base delay of the supervisor's exponential backoff: restart `k`
    /// waits `restart_backoff << min(k, 6)` before the batcher runs
    /// again, so a deterministically-crashing model cannot spin the
    /// supervisor hot.
    pub restart_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            max_batch_rows: 4096,
            max_queued_requests: 1024,
            max_in_flight_per_client: 64,
            degrade_queue_depth: 512,
            max_batcher_restarts: 8,
            restart_backoff: Duration::from_millis(10),
        }
    }
}

impl ServeConfig {
    /// The config actually enforced: zero-valued knobs that would wedge
    /// the service are clamped to their minimum useful value.
    fn normalised(mut self) -> Self {
        self.max_batch_rows = self.max_batch_rows.max(1);
        self.max_queued_requests = self.max_queued_requests.max(1);
        self.max_in_flight_per_client = self.max_in_flight_per_client.max(1);
        self
    }
}

/// Identifies the submitting client for per-client quota accounting.
///
/// Any scheme works — one id per connection, per tenant, per thread —
/// as long as callers that should be throttled *together* share an id.
/// [`RequestOptions::default`] uses `ClientId(0)`, so untagged callers
/// share one anonymous budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClientId(pub u64);

/// Per-request options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOptions {
    /// Attach an exact TreeSHAP [`Explanation`] to every row of the
    /// response (slower; runs over the booster trees, not the flat
    /// forest). Under queue pressure the service may shed this work —
    /// see [`ServeConfig::degrade_queue_depth`].
    pub explain: bool,
    /// Server-side freshness bound, relative to submission: a request
    /// still queued when its deadline passes is shed at dequeue with
    /// [`ServeError::DeadlineExceeded`] instead of being predicted for
    /// a caller who has moved on. `None` means wait forever.
    pub deadline: Option<Duration>,
    /// Who is asking — the unit of quota accounting.
    pub client: ClientId,
}

/// Failures a serving client can observe.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The submitted rows have the wrong width for the model.
    FeatureCount { expected: usize, actual: usize },
    /// The submitted batch was empty.
    EmptyRequest,
    /// Inference failed (a contained panic in the worker pool).
    Predict(PredictError),
    /// The admission queue is full; the request was rejected without
    /// being enqueued. Retry after draining, or raise
    /// [`ServeConfig::max_queued_requests`].
    Overloaded,
    /// The submitting [`ClientId`] already has
    /// [`ServeConfig::max_in_flight_per_client`] requests in flight;
    /// this one was rejected so other clients keep their share.
    QuotaExceeded {
        /// The configured per-client in-flight cap.
        limit: usize,
    },
    /// The request's [`deadline`](RequestOptions::deadline) passed
    /// while it was still queued; it was shed without being predicted.
    DeadlineExceeded,
    /// [`Ticket::wait_timeout`] elapsed before the service answered.
    /// The request may still complete server-side; its answer is
    /// discarded.
    WaitTimeout,
    /// The batcher panicked while this request was in its in-flight
    /// batch. Only that batch failed; the service restarts and later
    /// requests are served normally.
    BatcherPanic,
    /// The service is shutting down; the request was answered without
    /// being predicted.
    ShuttingDown,
    /// The service shut down before answering.
    Closed,
    /// The batcher thread could not be started.
    Spawn {
        /// The OS error from [`std::thread::Builder::spawn`].
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::FeatureCount { expected, actual } => {
                write!(f, "model expects {expected} features, request rows have {actual}")
            }
            ServeError::EmptyRequest => write!(f, "request contains no rows"),
            ServeError::Predict(e) => write!(f, "inference failed: {e}"),
            ServeError::Overloaded => write!(f, "prediction queue is full, request rejected"),
            ServeError::QuotaExceeded { limit } => {
                write!(f, "client already has {limit} requests in flight, request rejected")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline expired while queued, request shed")
            }
            ServeError::WaitTimeout => {
                write!(f, "timed out waiting for the service to answer")
            }
            ServeError::BatcherPanic => {
                write!(f, "batcher panicked while this request was in flight")
            }
            ServeError::ShuttingDown => {
                write!(f, "prediction service is shutting down, request not predicted")
            }
            ServeError::Closed => write!(f, "prediction service is shut down"),
            ServeError::Spawn { message } => {
                write!(f, "could not start batcher thread: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Predict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PredictError> for ServeError {
    fn from(e: PredictError) -> Self {
        ServeError::Predict(e)
    }
}

/// One request's answer: a prediction per submitted row, in submission
/// order, plus per-row explanations when asked for.
#[derive(Debug, Clone)]
pub struct PredictionOutput {
    /// Objective-transformed predictions (probabilities for logistic
    /// models), one per row.
    pub predictions: Vec<f64>,
    /// Exact TreeSHAP attributions per row, present iff the request
    /// set [`RequestOptions::explain`] *and* the service was not
    /// degrading when the batch ran.
    pub explanations: Option<Vec<Explanation>>,
    /// `true` when requested explanations were shed because the queue
    /// was past [`ServeConfig::degrade_queue_depth`] — the predictions
    /// themselves are exact and bit-identical to the undegraded path.
    pub degraded: bool,
}

/// A point-in-time operational snapshot of a [`PredictionService`].
///
/// Counters are cumulative since spawn; `queue_depth` is the current
/// admission-queue backlog. Obtain with [`PredictionService::stats`] or
/// [`ServiceHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests currently queued, awaiting the batcher.
    pub queue_depth: usize,
    /// Requests answered with predictions.
    pub answered: u64,
    /// Requests rejected at submit because the queue was full.
    pub shed_overloaded: u64,
    /// Requests rejected at submit by the per-client in-flight cap.
    pub shed_quota: u64,
    /// Requests shed at dequeue because their deadline had passed.
    pub shed_deadline: u64,
    /// Requests answered [`ServeError::ShuttingDown`] during drain.
    pub shed_shutdown: u64,
    /// Responses whose requested explanations were shed under queue
    /// pressure (the degradation tier).
    pub degraded: u64,
    /// Successful artifact swaps (watcher-driven or manual
    /// [`PredictionService::install`]).
    pub reloads: u64,
    /// Failed reload attempts (corrupt artifact, feature mismatch,
    /// registry I/O); the previous model kept serving through each.
    pub reload_failures: u64,
    /// Times the supervisor restarted the batcher after a panic.
    pub batcher_restarts: u64,
}

impl ServiceStats {
    /// Requests shed for any reason (overload, quota, deadline,
    /// shutdown) — the "work refused" headline next to `answered`.
    pub fn shed_total(&self) -> u64 {
        self.shed_overloaded + self.shed_quota + self.shed_deadline + self.shed_shutdown
    }
}

/// Lock a mutex, ignoring poisoning: every critical section below is a
/// handful of pointer/counter operations that cannot leave the guarded
/// state inconsistent, and the service must keep operating after a
/// panicked batcher iteration (that is the supervisor's whole job).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Cumulative event counters backing [`ServiceStats`].
#[derive(Debug, Default)]
struct Counters {
    answered: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_quota: AtomicU64,
    shed_deadline: AtomicU64,
    shed_shutdown: AtomicU64,
    degraded: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    batcher_restarts: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by every handle, the batcher, its supervisor, and any
/// reload watcher.
#[derive(Debug)]
pub(crate) struct Shared {
    /// The artifact batches predict through. Swapped atomically (under
    /// the mutex) by [`Shared::install`]; the batcher clones the `Arc`
    /// once per batch, so a swap never affects a batch already running.
    model: Mutex<Arc<ModelArtifact>>,
    /// Feature width the service was spawned with; every installed
    /// artifact must match (handles validated against it at submit).
    n_features: usize,
    /// The enforced (normalised) configuration.
    config: ServeConfig,
    /// Requests currently sitting in the admission queue.
    queue_depth: AtomicUsize,
    /// Dequeue cycles the batcher has started — the failpoint job
    /// index for `serve::batch`/`serve::predict` sites, and a monotonic
    /// progress marker across supervisor restarts.
    batch_seq: AtomicU64,
    /// Set once shutdown begins (or the restart budget is exhausted):
    /// submits are rejected at the door and drained requests resolve to
    /// [`ServeError::ShuttingDown`].
    shutting_down: AtomicBool,
    /// In-flight request count per [`ClientId`].
    in_flight: Mutex<HashMap<u64, usize>>,
    counters: Counters,
}

impl Shared {
    fn new(artifact: ModelArtifact, config: ServeConfig) -> Self {
        Shared {
            n_features: artifact.forest.n_features(),
            model: Mutex::new(Arc::new(artifact)),
            config,
            queue_depth: AtomicUsize::new(0),
            batch_seq: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            in_flight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// Current model for the next batch.
    fn current_model(&self) -> Arc<ModelArtifact> {
        lock_unpoisoned(&self.model).clone()
    }

    /// Swap in a freshly loaded artifact; in-flight batches finish on
    /// the model they started with. A width mismatch is rejected —
    /// handles have already validated requests against the spawn-time
    /// width, so installing a differently-shaped model would turn
    /// admitted requests into prediction errors.
    pub(crate) fn install(&self, artifact: ModelArtifact) -> Result<(), ReloadError> {
        let actual = artifact.forest.n_features();
        if actual != self.n_features {
            Counters::bump(&self.counters.reload_failures);
            return Err(ReloadError::FeatureMismatch { expected: self.n_features, actual });
        }
        *lock_unpoisoned(&self.model) = Arc::new(artifact);
        Counters::bump(&self.counters.reloads);
        Ok(())
    }

    /// Record a reload attempt that failed before an artifact could be
    /// installed (corrupt file, registry I/O).
    pub(crate) fn note_reload_failure(&self) {
        Counters::bump(&self.counters.reload_failures);
    }

    fn snapshot(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            answered: c.answered.load(Ordering::Relaxed),
            shed_overloaded: c.shed_overloaded.load(Ordering::Relaxed),
            shed_quota: c.shed_quota.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            shed_shutdown: c.shed_shutdown.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            reloads: c.reloads.load(Ordering::Relaxed),
            reload_failures: c.reload_failures.load(Ordering::Relaxed),
            batcher_restarts: c.batcher_restarts.load(Ordering::Relaxed),
        }
    }

    /// Try to reserve one in-flight slot for `client`.
    fn acquire_quota(&self, client: ClientId) -> Result<(), ServeError> {
        let limit = self.config.max_in_flight_per_client;
        let mut in_flight = lock_unpoisoned(&self.in_flight);
        let count = in_flight.entry(client.0).or_insert(0);
        if *count >= limit {
            drop(in_flight);
            Counters::bump(&self.counters.shed_quota);
            return Err(ServeError::QuotaExceeded { limit });
        }
        *count += 1;
        Ok(())
    }

    /// Release `client`'s in-flight slot (called exactly once per
    /// admitted request, from the responder's drop).
    fn release_quota(&self, client: ClientId) {
        let mut in_flight = lock_unpoisoned(&self.in_flight);
        if let Some(count) = in_flight.get_mut(&client.0) {
            *count -= 1;
            if *count == 0 {
                in_flight.remove(&client.0);
            }
        }
    }

    /// Attribute a delivered outcome to its stats counter.
    fn count_outcome(&self, result: &Result<PredictionOutput, ServeError>) {
        let c = &self.counters;
        match result {
            Ok(out) => {
                Counters::bump(&c.answered);
                if out.degraded {
                    Counters::bump(&c.degraded);
                }
            }
            Err(ServeError::DeadlineExceeded) => Counters::bump(&c.shed_deadline),
            Err(ServeError::ShuttingDown) => Counters::bump(&c.shed_shutdown),
            Err(_) => {}
        }
    }
}

/// The delivery guard for one admitted request: owns the reply channel
/// and the client's quota slot.
///
/// The invariant that makes shutdown and panics non-silent lives here:
/// however an admitted request's life ends — answered, shed, dropped
/// mid-batch by an unwinding panic, or still queued when the receiver
/// is torn down — this guard's `Drop` runs, releases the quota slot,
/// and (if no reply was sent yet) resolves the ticket with a typed
/// error instead of letting it dangle.
struct Responder {
    reply: Option<mpsc::Sender<Result<PredictionOutput, ServeError>>>,
    /// The quota slot held on the client's behalf; `Some` until
    /// released exactly once.
    slot: Option<ClientId>,
    shared: Arc<Shared>,
}

impl Responder {
    fn send(mut self, result: Result<PredictionOutput, ServeError>) {
        self.shared.count_outcome(&result);
        // Release the quota slot *before* delivering the reply: a
        // caller that alternates wait-then-submit strictly must never
        // see QuotaExceeded for a request it has already been answered
        // for.
        if let Some(client) = self.slot.take() {
            self.shared.release_quota(client);
        }
        if let Some(tx) = self.reply.take() {
            let _ = tx.send(result);
        }
    }

    /// Disarm the guard without answering — only for requests that were
    /// never admitted (their rejection is returned to the caller
    /// directly, so no ticket exists to resolve).
    fn defuse(&mut self) {
        self.reply = None;
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(tx) = self.reply.take() {
            // Reached only when the request was dropped instead of
            // answered: the batcher panicked with it in flight, or the
            // service tore down the queue. Resolve the ticket typed.
            let error = if self.shared.shutting_down.load(Ordering::SeqCst) {
                ServeError::ShuttingDown
            } else {
                ServeError::BatcherPanic
            };
            self.shared.count_outcome(&Err(error.clone()));
            if let Some(client) = self.slot.take() {
                self.shared.release_quota(client);
            }
            let _ = tx.send(Err(error));
        } else if let Some(client) = self.slot.take() {
            self.shared.release_quota(client);
        }
    }
}

/// A queued request travelling to the batcher thread.
struct Request {
    /// Row-major feature values, `nrows × n_features`.
    values: Vec<f64>,
    nrows: usize,
    explain: bool,
    /// Absolute shed point, resolved from the relative
    /// [`RequestOptions::deadline`] at submit.
    deadline: Option<Instant>,
    responder: Responder,
}

/// What travels over the service queue. `Shutdown` is enqueued by
/// [`PredictionService::shutdown`]; FIFO order means every request
/// accepted before it is still answered, and everything after it is
/// drained with [`ServeError::ShuttingDown`].
enum Message {
    Predict(Request),
    Shutdown,
}

/// A pending response. Obtain with [`ServiceHandle::submit`], redeem
/// with [`Ticket::wait`] or [`Ticket::wait_timeout`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<PredictionOutput, ServeError>>,
}

impl Ticket {
    /// Block until the service answers.
    pub fn wait(self) -> Result<PredictionOutput, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Block until the service answers or `timeout` elapses — the
    /// caller-side bound that guarantees no client ever hangs on a
    /// wedged service. On [`ServeError::WaitTimeout`] the ticket is
    /// consumed; a late answer is computed and discarded server-side.
    pub fn wait_timeout(self, timeout: Duration) -> Result<PredictionOutput, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }
}

/// A cloneable client endpoint; every clone feeds the same batcher.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    tx: mpsc::SyncSender<Message>,
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Feature width the model expects.
    pub fn n_features(&self) -> usize {
        self.shared.n_features
    }

    /// A point-in-time operational snapshot (queue depth, sheds by
    /// reason, reloads, restarts).
    pub fn stats(&self) -> ServiceStats {
        self.shared.snapshot()
    }

    /// Enqueue `rows` for prediction. Validates the width up front and
    /// returns immediately; the returned [`Ticket`] resolves once the
    /// batcher has run the rows through the model.
    ///
    /// Admission is non-blocking and layered — each rejection is typed
    /// so callers can react differently:
    ///
    /// 1. [`ServeError::ShuttingDown`] once shutdown has begun;
    /// 2. [`ServeError::QuotaExceeded`] when this [`ClientId`] already
    ///    has its configured share of requests in flight;
    /// 3. [`ServeError::Overloaded`] when the shared queue is full —
    ///    load-shedding happens at the door, not after memory has
    ///    grown.
    pub fn submit(&self, rows: &Matrix, options: RequestOptions) -> Result<Ticket, ServeError> {
        if rows.ncols() != self.shared.n_features {
            return Err(ServeError::FeatureCount {
                expected: self.shared.n_features,
                actual: rows.ncols(),
            });
        }
        if rows.nrows() == 0 {
            return Err(ServeError::EmptyRequest);
        }
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            Counters::bump(&self.shared.counters.shed_shutdown);
            return Err(ServeError::ShuttingDown);
        }
        self.shared.acquire_quota(options.client)?;
        let (reply, rx) = mpsc::channel();
        let responder = Responder {
            reply: Some(reply),
            slot: Some(options.client),
            shared: self.shared.clone(),
        };
        let request = Request {
            values: rows.as_slice().to_vec(),
            nrows: rows.nrows(),
            explain: options.explain,
            deadline: options.deadline.map(|d| Instant::now() + d),
            responder,
        };
        self.shared.queue_depth.fetch_add(1, Ordering::SeqCst);
        match self.tx.try_send(Message::Predict(request)) {
            Ok(()) => Ok(Ticket { rx }),
            Err(e) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                let (rejection, message) = match e {
                    mpsc::TrySendError::Full(m) => {
                        Counters::bump(&self.shared.counters.shed_overloaded);
                        (ServeError::Overloaded, m)
                    }
                    mpsc::TrySendError::Disconnected(m) => (ServeError::Closed, m),
                };
                if let Message::Predict(mut request) = message {
                    // The rejection goes back to the caller directly;
                    // the guard must not also answer the dead ticket.
                    request.responder.defuse();
                }
                Err(rejection)
            }
        }
    }

    /// Convenience: submit one row and wait for its prediction.
    pub fn predict_row(&self, row: &[f64]) -> Result<f64, ServeError> {
        let matrix = Matrix::from_rows(std::slice::from_ref(&row.to_vec()));
        let out = self.submit(&matrix, RequestOptions::default())?.wait()?;
        Ok(out.predictions[0])
    }
}

/// The serving process: a loaded model plus its supervised batcher
/// thread.
///
/// Dropping the service (or calling [`shutdown`](Self::shutdown))
/// closes the queue; requests already accepted are answered first, and
/// anything admitted after the shutdown marker resolves to
/// [`ServeError::ShuttingDown`].
#[derive(Debug)]
pub struct PredictionService {
    handle: ServiceHandle,
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl PredictionService {
    /// Start serving `artifact` with the given configuration.
    ///
    /// The admission queue is bounded at
    /// [`ServeConfig::max_queued_requests`] (clamped to at least 1). A
    /// batcher thread that cannot be started — resource exhaustion at
    /// the OS level — surfaces as [`ServeError::Spawn`] instead of a
    /// panic, so an embedding server can degrade gracefully.
    pub fn spawn(
        artifact: ModelArtifact,
        config: ServeConfig,
    ) -> Result<PredictionService, ServeError> {
        let config = config.normalised();
        let shared = Arc::new(Shared::new(artifact, config));
        let (tx, rx) = mpsc::sync_channel::<Message>(config.max_queued_requests);
        let supervisor = {
            let shared = shared.clone();
            // The batcher fires the spawning thread's failpoints only.
            #[cfg(feature = "failpoint")]
            let plan = msaw_parallel::failpoint::inherit();
            std::thread::Builder::new()
                .name("msaw-serve-supervisor".into())
                .spawn(move || {
                    #[cfg(feature = "failpoint")]
                    plan.install();
                    supervisor_loop(&shared, rx)
                })
                .map_err(|e| ServeError::Spawn { message: e.to_string() })?
        };
        Ok(PredictionService {
            handle: ServiceHandle { tx, shared: shared.clone() },
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// A new client endpoint.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// A point-in-time operational snapshot (queue depth, sheds by
    /// reason, reloads, restarts).
    pub fn stats(&self) -> ServiceStats {
        self.shared.snapshot()
    }

    /// Atomically swap in a freshly loaded artifact. In-flight batches
    /// finish on the model they started with; the next batch predicts
    /// through the new one. The artifact must have the same feature
    /// width the service was spawned with.
    pub fn install(&self, artifact: ModelArtifact) -> Result<(), ReloadError> {
        self.shared.install(artifact)
    }

    /// Start a [`ReloadWatcher`] that polls `registry` every `poll`
    /// interval for a new generation in `group` (see
    /// `ModelKey::group_name`) and installs it on change. Corrupt or
    /// vanished artifacts never interrupt serving — see the watcher
    /// docs for the full policy.
    pub fn watch_registry(
        &self,
        registry: msaw_core::ModelRegistry,
        group: impl Into<String>,
        poll: Duration,
    ) -> Result<ReloadWatcher, ServeError> {
        ReloadWatcher::spawn(self.shared.clone(), registry, group.into(), poll)
    }

    /// Begin a graceful shutdown without waiting for it to finish: new
    /// submits are rejected with [`ServeError::ShuttingDown`] from this
    /// call on, while everything already queued ahead of the marker is
    /// still answered. Call [`shutdown`](Self::shutdown) (or drop the
    /// service) to join the batcher.
    pub fn begin_shutdown(&self) {
        if !self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            // Blocking send: on a full queue the batcher is mid-drain
            // and a slot frees up; if the batcher is already gone the
            // send fails, which is equally final.
            let _ = self.handle.tx.send(Message::Shutdown);
        }
    }

    /// Stop accepting requests, answer everything already queued, and
    /// join the batcher thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(thread) = self.supervisor.take() {
            self.begin_shutdown();
            let _ = thread.join();
        }
    }
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The batcher's keeper: runs [`batcher_loop`] under `catch_unwind`,
/// restarting it with bounded exponential backoff after a panic. The
/// admission queue lives outside the protected region, so queued
/// requests survive a restart — only the batch that was in flight
/// resolves to [`ServeError::BatcherPanic`] (sent by each request's
/// responder as the panic unwinds). When the loop exits normally or
/// the restart budget runs out, whatever is still queued is drained
/// with a typed [`ServeError::ShuttingDown`] — no ticket is ever left
/// to dangle.
fn supervisor_loop(shared: &Arc<Shared>, rx: mpsc::Receiver<Message>) {
    let config = shared.config;
    let mut restarts = 0usize;
    loop {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batcher_loop(shared, &rx);
        }));
        match run {
            Ok(()) => break,
            Err(_panic) => {
                if restarts >= config.max_batcher_restarts {
                    break;
                }
                Counters::bump(&shared.counters.batcher_restarts);
                let exponent = restarts.min(6) as u32;
                std::thread::sleep(config.restart_backoff.saturating_mul(1 << exponent));
                restarts += 1;
            }
        }
    }
    // From here on the service is over, whichever exit was taken:
    // answer every still-queued request typed instead of letting the
    // receiver's teardown void the tickets silently.
    shared.shutting_down.store(true, Ordering::SeqCst);
    while let Ok(message) = rx.try_recv() {
        if let Message::Predict(request) = message {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            request.responder.send(Err(ServeError::ShuttingDown));
        }
    }
}

/// The batcher: block on the first request, drain whatever else is
/// queued up to the row ceiling (shedding expired deadlines at
/// dequeue), predict once on the current model, split the answers.
fn batcher_loop(shared: &Arc<Shared>, rx: &mpsc::Receiver<Message>) {
    let config = shared.config;
    let mut arena = PathArena::new();
    while let Ok(first) = rx.recv() {
        let first = match first {
            Message::Predict(request) => request,
            Message::Shutdown => return,
        };
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        #[cfg_attr(not(feature = "failpoint"), allow(unused_variables))]
        let seq = shared.batch_seq.fetch_add(1, Ordering::SeqCst);
        // Fault-injection seam before coalescing: a panic here has
        // exactly one request in flight; a stall here piles queue
        // pressure deterministically. Disarmed sites are free.
        #[cfg(feature = "failpoint")]
        msaw_parallel::failpoint::hit("serve::batch", seq as usize);
        let mut batch: Vec<Request> = Vec::new();
        let mut total_rows = 0usize;
        admit(shared, first, &mut batch, &mut total_rows);
        let mut stop = false;
        while total_rows < config.max_batch_rows {
            match rx.try_recv() {
                Ok(Message::Predict(request)) => {
                    shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    admit(shared, request, &mut batch, &mut total_rows);
                }
                Ok(Message::Shutdown) => {
                    stop = true;
                    break;
                }
                Err(_) => break,
            }
        }
        if !batch.is_empty() {
            // Backlog still waiting after this batch filled up: the
            // degradation signal. Past the watermark, optional SHAP is
            // shed (outputs flagged) before any whole request is.
            let pressure = shared.queue_depth.load(Ordering::SeqCst);
            let degrade = pressure >= config.degrade_queue_depth;
            // Fault-injection seam after coalescing: a panic here takes
            // down a whole assembled batch — every one of its tickets
            // must still resolve typed.
            #[cfg(feature = "failpoint")]
            msaw_parallel::failpoint::hit("serve::predict", seq as usize);
            let model = shared.current_model();
            run_batch(&model, config, &mut arena, batch, total_rows, degrade);
        }
        if stop {
            return;
        }
    }
}

/// Deadline gate at dequeue: an expired request is shed typed instead
/// of occupying batch capacity nobody is waiting on.
fn admit(shared: &Arc<Shared>, request: Request, batch: &mut Vec<Request>, total_rows: &mut usize) {
    let _ = shared;
    if request.deadline.is_some_and(|d| d <= Instant::now()) {
        request.responder.send(Err(ServeError::DeadlineExceeded));
        return;
    }
    *total_rows += request.nrows;
    batch.push(request);
}

/// Predict one coalesced batch and deliver each request's slice.
fn run_batch(
    model: &ModelArtifact,
    config: ServeConfig,
    arena: &mut PathArena,
    batch: Vec<Request>,
    total_rows: usize,
    degrade: bool,
) {
    let forest: &FlatForest = &model.forest;
    let n_features = forest.n_features();
    let mut values = Vec::with_capacity(total_rows * n_features);
    for request in &batch {
        values.extend_from_slice(&request.values);
    }
    let matrix = Matrix::from_vec(values, total_rows, n_features);
    let workers = if config.workers == 0 {
        msaw_parallel::default_workers(total_rows.div_ceil(256))
    } else {
        config.workers
    };
    let predictions = match forest.try_predict_batch_on(workers, &matrix) {
        Ok(p) => p,
        Err(e) => {
            // A contained panic poisons only this coalesced batch;
            // every caller in it learns which block failed, and the
            // service keeps running for the next batch.
            for request in batch {
                request.responder.send(Err(ServeError::Predict(e.clone())));
            }
            return;
        }
    };
    // The explainer is rebuilt per explaining batch because the model
    // can change between batches (hot reload); construction is one
    // cover-weighted pass over the trees, trivial next to TreeSHAP
    // itself.
    let explainer =
        (!degrade && batch.iter().any(|r| r.explain)).then(|| TreeExplainer::new(&model.booster));
    let mut offset = 0;
    for request in batch {
        let slice = &predictions[offset..offset + request.nrows];
        offset += request.nrows;
        let degraded = request.explain && degrade;
        let explanations = (request.explain && !degrade).then(|| {
            let explainer = explainer.as_ref().expect("explainer built for explaining batch");
            (0..request.nrows)
                .map(|i| {
                    let row = &request.values[i * n_features..(i + 1) * n_features];
                    explainer.shap_values_row_with(row, arena)
                })
                .collect()
        });
        request.responder.send(Ok(PredictionOutput {
            predictions: slice.to_vec(),
            explanations,
            degraded,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_gbdt::{Booster, Params};

    fn artifact() -> ModelArtifact {
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 17) as f64, if i % 9 == 0 { f64::NAN } else { (i % 6) as f64 }])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| r[0] - if r[1].is_nan() { 3.0 } else { r[1].clamp(0.0, 3.0) })
            .collect();
        let params = Params { n_estimators: 8, ..Params::regression() };
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

    /// A handle over a raw queue with no batcher draining it — the
    /// fixture for deterministic admission-path tests (overload,
    /// quota, shutdown drain).
    fn direct_handle(
        queue: usize,
        config: ServeConfig,
    ) -> (ServiceHandle, mpsc::Receiver<Message>, Arc<Shared>) {
        let shared = Arc::new(Shared::new(artifact(), config.normalised()));
        let (tx, rx) = mpsc::sync_channel::<Message>(queue);
        (ServiceHandle { tx, shared: shared.clone() }, rx, shared)
    }

    #[test]
    fn served_predictions_match_the_offline_batch_path() {
        let a = artifact();
        let expected = a.forest.predict_batch(&query_rows(700));
        let service = PredictionService::spawn(a, ServeConfig::default()).unwrap();
        let out = service
            .handle()
            .submit(&query_rows(700), RequestOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.predictions.len(), 700);
        assert!(!out.degraded);
        for (got, want) in out.predictions.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let stats = service.stats();
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.shed_total(), 0);
        service.shutdown();
    }

    #[test]
    fn concurrent_clients_each_get_their_own_rows_back() {
        let a = artifact();
        let forest = a.forest.clone();
        let service = PredictionService::spawn(a, ServeConfig::default()).unwrap();
        let mut clients = Vec::new();
        for c in 0..8usize {
            let handle = service.handle();
            clients.push(std::thread::spawn(move || {
                let rows = query_rows(40 + c * 7);
                let options =
                    RequestOptions { client: ClientId(c as u64), ..RequestOptions::default() };
                let out = handle.submit(&rows, options).unwrap().wait().unwrap();
                (rows, out)
            }));
        }
        for client in clients {
            let (rows, out) = client.join().unwrap();
            let expected = forest.predict_batch(&rows);
            assert_eq!(out.predictions.len(), rows.nrows());
            for (got, want) in out.predictions.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        assert_eq!(service.stats().answered, 8);
        service.shutdown();
    }

    #[test]
    fn explanations_reconstruct_the_raw_prediction() {
        let a = artifact();
        let forest = a.forest.clone();
        let service = PredictionService::spawn(a, ServeConfig::default()).unwrap();
        let rows = query_rows(5);
        let out = service
            .handle()
            .submit(&rows, RequestOptions { explain: true, ..RequestOptions::default() })
            .unwrap()
            .wait()
            .unwrap();
        assert!(!out.degraded);
        let explanations = out.explanations.expect("asked for explanations");
        assert_eq!(explanations.len(), 5);
        for (i, e) in explanations.iter().enumerate() {
            let raw = forest.predict_raw_row(rows.row(i));
            let reconstructed = e.base_value + e.values.iter().sum::<f64>();
            assert!((reconstructed - raw).abs() < 1e-9);
        }
        service.shutdown();
    }

    #[test]
    fn wrong_width_and_empty_requests_are_rejected_at_submit() {
        let service = PredictionService::spawn(artifact(), ServeConfig::default()).unwrap();
        let handle = service.handle();
        let wide = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert_eq!(
            handle.submit(&wide, RequestOptions::default()).unwrap_err(),
            ServeError::FeatureCount { expected: 2, actual: 3 }
        );
        let empty = Matrix::zeros(0, 2);
        assert_eq!(
            handle.submit(&empty, RequestOptions::default()).unwrap_err(),
            ServeError::EmptyRequest
        );
        service.shutdown();
    }

    #[test]
    fn handles_outliving_the_service_observe_shutdown() {
        let service = PredictionService::spawn(artifact(), ServeConfig::default()).unwrap();
        let handle = service.handle();
        service.shutdown();
        let rows = query_rows(1);
        match handle.submit(&rows, RequestOptions::default()) {
            Err(ServeError::ShuttingDown) | Err(ServeError::Closed) => {}
            Ok(ticket) => {
                let err = ticket.wait().unwrap_err();
                assert!(matches!(err, ServeError::ShuttingDown | ServeError::Closed));
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn tiny_batch_ceiling_still_answers_everyone() {
        // Force many small coalesced batches to exercise the split path.
        let a = artifact();
        let forest = a.forest.clone();
        let config = ServeConfig { workers: 2, max_batch_rows: 8, ..ServeConfig::default() };
        let service = PredictionService::spawn(a, config).unwrap();
        let handle = service.handle();
        let rows = query_rows(30);
        let tickets: Vec<Ticket> =
            (0..6).map(|_| handle.submit(&rows, RequestOptions::default()).unwrap()).collect();
        let expected = forest.predict_batch(&rows);
        for ticket in tickets {
            let out = ticket.wait().unwrap();
            for (got, want) in out.predictions.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        service.shutdown();
    }

    #[test]
    fn full_admission_queue_rejects_with_overloaded() {
        // Drive the admission path directly: a handle over a held
        // 2-slot queue with no batcher draining it. The first two
        // submissions are admitted, the third is shed at the door.
        let (handle, rx, shared) = direct_handle(2, ServeConfig::default());
        let rows = query_rows(1);
        let t1 = handle.submit(&rows, RequestOptions::default());
        let t2 = handle.submit(&rows, RequestOptions::default());
        assert!(t1.is_ok() && t2.is_ok(), "submissions within capacity are admitted");
        assert_eq!(
            handle.submit(&rows, RequestOptions::default()).unwrap_err(),
            ServeError::Overloaded
        );
        assert_eq!(shared.snapshot().shed_overloaded, 1);
        assert_eq!(shared.snapshot().queue_depth, 2);
        // Draining one slot re-opens admission.
        assert!(matches!(rx.try_recv(), Ok(Message::Predict(_))));
        assert!(handle.submit(&rows, RequestOptions::default()).is_ok());
    }

    #[test]
    fn per_client_quota_rejects_the_greedy_client_only() {
        // Deterministic fixture: nothing drains the queue, so in-flight
        // counts are exactly what was submitted.
        let config = ServeConfig { max_in_flight_per_client: 2, ..ServeConfig::default() };
        let (handle, rx, shared) = direct_handle(64, config);
        let rows = query_rows(1);
        let greedy = RequestOptions { client: ClientId(7), ..RequestOptions::default() };
        let polite = RequestOptions { client: ClientId(8), ..RequestOptions::default() };
        let _g1 = handle.submit(&rows, greedy).unwrap();
        let _g2 = handle.submit(&rows, greedy).unwrap();
        assert_eq!(
            handle.submit(&rows, greedy).unwrap_err(),
            ServeError::QuotaExceeded { limit: 2 },
            "the greedy client's third in-flight request is rejected"
        );
        // The polite client is untouched by the greedy client's cap.
        let _p1 = handle.submit(&rows, polite).unwrap();
        assert_eq!(shared.snapshot().shed_quota, 1);

        // Answering (here: dropping) one greedy request frees its slot.
        match rx.try_recv() {
            Ok(Message::Predict(request)) => request.responder.send(Err(ServeError::Closed)),
            other => panic!("expected a queued request, got recv result {:?}", other.is_ok()),
        }
        assert!(handle.submit(&rows, greedy).is_ok());
    }

    #[test]
    fn shutdown_marker_drains_later_requests_with_typed_error() {
        // Regression: requests enqueued after the shutdown marker used
        // to vanish when the receiver was torn down — their tickets
        // resolved to an untyped Closed at best. The supervisor must
        // drain them with ShuttingDown.
        let (handle, rx, shared) = direct_handle(8, ServeConfig::default());
        let rows = query_rows(3);
        let before = handle.submit(&rows, RequestOptions::default()).unwrap();
        handle.tx.send(Message::Shutdown).unwrap();
        let after = handle.submit(&rows, RequestOptions::default()).unwrap();
        supervisor_loop(&shared, rx);
        let out = before.wait().expect("request ahead of the marker is answered");
        assert_eq!(out.predictions.len(), 3);
        assert_eq!(after.wait().unwrap_err(), ServeError::ShuttingDown);
        let stats = shared.snapshot();
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.shed_shutdown, 1);
        assert_eq!(stats.queue_depth, 0);
        // Quota slots were released by both paths.
        assert!(lock_unpoisoned(&shared.in_flight).is_empty());
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue() {
        let (handle, rx, shared) = direct_handle(8, ServeConfig::default());
        let rows = query_rows(2);
        let expired = handle
            .submit(
                &rows,
                RequestOptions { deadline: Some(Duration::ZERO), ..RequestOptions::default() },
            )
            .unwrap();
        let fresh = handle
            .submit(
                &rows,
                RequestOptions {
                    deadline: Some(Duration::from_secs(3600)),
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        handle.tx.send(Message::Shutdown).unwrap();
        supervisor_loop(&shared, rx);
        assert_eq!(expired.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(fresh.wait().unwrap().predictions.len(), 2);
        let stats = shared.snapshot();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn degradation_watermark_sheds_shap_but_not_predictions() {
        // degrade_queue_depth = 0 degrades every batch: the pure-logic
        // path for the tier (the pressure-driven path is exercised
        // end-to-end in tests/serve_robustness.rs).
        let a = artifact();
        let forest = a.forest.clone();
        let config = ServeConfig { degrade_queue_depth: 0, ..ServeConfig::default() };
        let service = PredictionService::spawn(a, config).unwrap();
        let rows = query_rows(6);
        let out = service
            .handle()
            .submit(&rows, RequestOptions { explain: true, ..RequestOptions::default() })
            .unwrap()
            .wait()
            .unwrap();
        assert!(out.degraded, "explain request under degradation is flagged");
        assert!(out.explanations.is_none(), "SHAP was shed");
        let expected = forest.predict_batch(&rows);
        for (got, want) in out.predictions.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits(), "degraded predictions stay bit-identical");
        }
        // A request that never asked for SHAP is not "degraded".
        let plain =
            service.handle().submit(&rows, RequestOptions::default()).unwrap().wait().unwrap();
        assert!(!plain.degraded);
        assert_eq!(service.stats().degraded, 1);
        service.shutdown();
    }

    #[test]
    fn wait_timeout_bounds_a_wedged_wait() {
        // No batcher drains the direct queue, so the wait can only end
        // by timeout — previously the caller would hang forever.
        let (handle, rx, _shared) = direct_handle(4, ServeConfig::default());
        let ticket = handle.submit(&query_rows(1), RequestOptions::default()).unwrap();
        let start = Instant::now();
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(30)).unwrap_err(),
            ServeError::WaitTimeout
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        drop(rx);
    }

    #[test]
    fn install_swaps_models_and_rejects_mismatched_width() {
        let a = artifact();
        let service = PredictionService::spawn(a.clone(), ServeConfig::default()).unwrap();
        // Same artifact re-installed: outputs stay bit-identical.
        let rows = query_rows(40);
        let before =
            service.handle().submit(&rows, RequestOptions::default()).unwrap().wait().unwrap();
        service.install(a).unwrap();
        let after =
            service.handle().submit(&rows, RequestOptions::default()).unwrap().wait().unwrap();
        for (b, c) in before.predictions.iter().zip(&after.predictions) {
            assert_eq!(b.to_bits(), c.to_bits());
        }
        // A model with a different feature width is refused, typed.
        let wide_rows: Vec<Vec<f64>> =
            (0..60).map(|i| vec![i as f64, (i % 5) as f64, (i % 3) as f64]).collect();
        let labels: Vec<f64> = wide_rows.iter().map(|r| r[0] + r[2]).collect();
        let params = Params { n_estimators: 3, ..Params::regression() };
        let wide = Booster::train(&params, &Matrix::from_rows(&wide_rows), &labels).unwrap();
        let err = service.install(ModelArtifact::from_booster(wide, None)).unwrap_err();
        assert_eq!(err, ReloadError::FeatureMismatch { expected: 2, actual: 3 });
        let stats = service.stats();
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.reload_failures, 1);
        service.shutdown();
    }

    #[test]
    fn overload_recovers_once_the_batcher_catches_up() {
        // End-to-end: a 1-slot queue against a live batcher sheds load
        // under a burst but keeps answering, and admits again later.
        let a = artifact();
        let config = ServeConfig { max_queued_requests: 1, ..ServeConfig::default() };
        let service = PredictionService::spawn(a, config).unwrap();
        let handle = service.handle();
        let rows = query_rows(4);
        let mut answered = 0;
        let mut shed = 0;
        for _ in 0..200 {
            match handle.submit(&rows, RequestOptions::default()) {
                Ok(ticket) => {
                    assert_eq!(ticket.wait().unwrap().predictions.len(), 4);
                    answered += 1;
                }
                Err(ServeError::Overloaded) => shed += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(answered > 0, "a live service must answer admitted requests");
        let stats = service.stats();
        assert_eq!(stats.answered, answered);
        assert_eq!(stats.shed_overloaded, shed); // bursty schedulers may or may not shed
        service.shutdown();
    }

    #[test]
    fn spawn_reports_errors_as_values() {
        // The happy path returns Ok; the point of the signature is that
        // thread-spawn failure would arrive as ServeError::Spawn rather
        // than a panic. Exercise the new errors' Display while here.
        let service = PredictionService::spawn(artifact(), ServeConfig::default());
        assert!(service.is_ok());
        let e = ServeError::Spawn { message: "out of threads".into() };
        assert!(e.to_string().contains("out of threads"));
        assert!(ServeError::QuotaExceeded { limit: 4 }.to_string().contains('4'));
        for e in [
            ServeError::DeadlineExceeded,
            ServeError::WaitTimeout,
            ServeError::BatcherPanic,
            ServeError::ShuttingDown,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn stats_snapshot_starts_clean_and_sheds_sum() {
        let stats = ServiceStats {
            shed_overloaded: 1,
            shed_quota: 2,
            shed_deadline: 3,
            shed_shutdown: 4,
            ..ServiceStats::default()
        };
        assert_eq!(stats.shed_total(), 10);
        let service = PredictionService::spawn(artifact(), ServeConfig::default()).unwrap();
        assert_eq!(service.stats(), ServiceStats::default());
        service.shutdown();
    }
}
