//! Micro-batching inference serving: many clients, few big batches.
//!
//! The paper's setup/replay split means a planned network is fastest
//! when every `forward` replays a *full* minibatch — but real serving
//! traffic arrives as single images from many independent callers. This
//! module closes that gap with the classic batching-server shape
//! (DESIGN.md §5):
//!
//! * a [`BatchingFrontend`] accepts requests of any sample count from
//!   any number of threads and appends them to one FIFO queue;
//! * a dispatcher thread coalesces queued samples into batches of the
//!   planned minibatch — **splitting** requests larger than a
//!   minibatch across consecutive batches and **padding** the tail of
//!   a partial batch with zeros — and hands batches to replicas in
//!   round-robin order;
//! * a **deadline flush** bounds tail latency: once the oldest queued
//!   sample has waited [`ServeConfig::max_wait`], a partial batch is
//!   dispatched rather than stalling a lone request forever;
//! * `N` replica threads each own an [`InferenceSession`] on a private
//!   [`parallel::ThreadPool`] (named, pinned to a disjoint core range)
//!   while sharing one [`conv::PlanCache`] and the process-wide kernel
//!   code cache — so N replicas cost **one** JIT + dryrun pass and
//!   only replicate activation buffers.
//!
//! Results are routed back to the submitting caller through a
//! per-request completion slot; [`BatchingFrontend::stats`] snapshots
//! throughput, batch occupancy, latency percentiles and both cache
//! tiers.
//!
//! Because samples are computed independently inside a batch (the
//! batch dimension is the outermost loop of every kernel), a
//! frontend-served output is bit-identical to a direct
//! [`InferenceSession::run`] of the same sample — regardless of which
//! batch or batch position it landed in. That includes bn-graphs:
//! inference executes batch norm with *frozen* running statistics
//! (folded into the producer convolutions wherever the fusion pass
//! applies — see DESIGN.md §5.3), so no operator in the serving path
//! reads across samples.
//!
//! ## Supervision (DESIGN.md §13)
//!
//! A panic in the serving pipeline is a recoverable event, not a slow
//! outage. Every replica runs its batches under `catch_unwind`: a
//! panic fails **only the in-flight batch's requests** (each waiter
//! gets a typed [`Error::Serve`] naming the replica panic), the panic
//! is counted in [`ServerStats::replica_panics`], and the replica
//! thread rebuilds its [`InferenceSession`] — through the same shared
//! [`PlanCache`], re-applying the current [`HotSwap`] weight
//! generation and any int8 calibration — under capped exponential
//! backoff. After [`ServeConfig::max_restart_attempts`] consecutive
//! rebuild failures the frontend enters a **terminal Failed state**
//! ([`ServerStats::failed`]): the queue is drained (every queued
//! request fails typed) and [`BatchingFrontend::submit`] returns an
//! error immediately instead of queueing work that can never
//! complete. The dispatcher is supervised the same way, minus the
//! rebuild (it owns no session).
//!
//! Waits are bounded on the client side too:
//! [`PendingRequest::wait_timeout`] / [`PendingRequest::wait_deadline`]
//! (both returning [`Error::Timeout`]) cancel the completion slot on
//! expiry, so a late result is dropped rather than written into a
//! slot nobody will read.

use crate::{fault, Error, InferenceOutput, InferenceSession, IntoModelSpec, Precision, StateDict};
use conv::{CombinedCacheStats, PlanCache};
use gxm::{HotSwap, ModelSpec};
use parallel::{pin_current_thread, PoolOptions, ThreadPool};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`BatchingFrontend`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of session replicas (each on its own thread pool).
    pub replicas: usize,
    /// Thread-team size of each replica's pool. Keep it identical
    /// across replicas — the plan cache keys on the thread count, so
    /// uniform replicas share one set of plans.
    pub threads_per_replica: usize,
    /// The planned batch size every replica executes.
    pub minibatch: usize,
    /// How long the dispatcher lets a *partial* batch wait for more
    /// samples before flushing it (measured from the oldest queued
    /// sample's submission).
    pub max_wait: Duration,
    /// Pin replica `r`'s team to cores starting at
    /// `r * threads_per_replica` (best effort). Disable on
    /// oversubscribed hosts.
    pub pin_replicas: bool,
    /// Admission cap: the maximum number of *samples* the frontend
    /// queues. A [`BatchingFrontend::submit`] that would push the
    /// queue past this cap is load-shed with a typed [`Error::Busy`]
    /// instead of growing the backlog (and the latency of everything
    /// behind it) without bound. Requests larger than the cap can
    /// never be admitted.
    pub queue_cap: usize,
    /// Plan-time autotuning level for the replicas' convolutions (see
    /// [`conv::TuneLevel`]). All replicas share one plan cache, so the
    /// search runs once regardless of the replica count; `Measured`
    /// micro-benches on replica 0's pool during its build.
    pub tune: conv::TuneLevel,
    /// Numeric execution mode of every replica (see
    /// [`crate::Precision`]). At [`Precision::Int8`] each replica
    /// serves the quantized convolution path where the input range is
    /// derivable, falling back to f32 plans elsewhere; supply
    /// representative samples via [`ServeConfig::with_calibration`]
    /// to widen coverage and tighten scales.
    pub precision: Precision,
    /// Representative calibration samples (a multiple of the model's
    /// `c × h × w`, NCHW f32). At [`Precision::Int8`] every replica
    /// calibrates on these after loading weights — including after
    /// every hot-swap reload, so published weight sets are requantized
    /// against the same measured activation ranges. Ignored at f32.
    pub calibration: Vec<f32>,
    /// How many *consecutive* failed session rebuilds a crashed
    /// replica may accumulate before the frontend gives up and enters
    /// the terminal Failed state (see the [module docs](self)). A
    /// successful rebuild resets the count. Panics themselves are not
    /// attempts — a replica that crashes and rebuilds cleanly can do
    /// so indefinitely.
    pub max_restart_attempts: usize,
    /// Backoff before the first rebuild attempt of a crash; doubles
    /// per consecutive failure up to
    /// [`ServeConfig::restart_backoff_cap`].
    pub restart_backoff: Duration,
    /// Upper bound of the rebuild backoff.
    pub restart_backoff_cap: Duration,
}

impl ServeConfig {
    /// A config with the given shape and defaults of `max_wait = 2ms`,
    /// best-effort replica pinning, and an admission cap of eight
    /// batches' worth of samples per replica (at least 64).
    pub fn new(replicas: usize, threads_per_replica: usize, minibatch: usize) -> Self {
        Self {
            replicas,
            threads_per_replica,
            minibatch,
            max_wait: Duration::from_millis(2),
            pin_replicas: true,
            queue_cap: (8 * replicas * minibatch).max(64),
            tune: conv::TuneLevel::Heuristic,
            precision: Precision::F32,
            calibration: Vec::new(),
            max_restart_attempts: 5,
            restart_backoff: Duration::from_millis(10),
            restart_backoff_cap: Duration::from_millis(500),
        }
    }

    /// Set the plan-time autotuning level (see [`conv::TuneLevel`]).
    pub fn with_tune(mut self, tune: conv::TuneLevel) -> Self {
        self.tune = tune;
        self
    }

    /// Set the replicas' numeric execution mode (see
    /// [`ServeConfig::precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Supply representative calibration samples (see
    /// [`ServeConfig::calibration`]).
    pub fn with_calibration(mut self, samples: Vec<f32>) -> Self {
        self.calibration = samples;
        self
    }

    /// Override the deadline-flush window.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Enable/disable best-effort core pinning of the replica pools.
    pub fn with_pinning(mut self, pin: bool) -> Self {
        self.pin_replicas = pin;
        self
    }

    /// Override the admission cap (queued samples; see
    /// [`ServeConfig::queue_cap`]).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Override the replica restart policy: `max_attempts` consecutive
    /// rebuild failures before the terminal Failed state, starting
    /// from `backoff` and doubling up to `cap` between attempts.
    pub fn with_restart_policy(
        mut self,
        max_attempts: usize,
        backoff: Duration,
        cap: Duration,
    ) -> Self {
        self.max_restart_attempts = max_attempts;
        self.restart_backoff = backoff;
        self.restart_backoff_cap = cap;
        self
    }
}

/// Why a request failed before completing — the typed poison a
/// queued sample applies to its completion slot when it is dropped
/// unserved, and the reason behind every serving-side
/// [`Error::Serve`] returned by [`PendingRequest::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// The serving pipeline panicked (replica batch execution or the
    /// dispatcher) while this request was in flight. The pipeline
    /// restarts; resubmitting is reasonable.
    ReplicaPanic,
    /// The frontend shut down — orderly teardown or the terminal
    /// Failed state — before this request completed.
    Shutdown,
    /// The waiter cancelled the request (its
    /// [`PendingRequest::wait_timeout`] /
    /// [`PendingRequest::wait_deadline`] expired); a late result is
    /// dropped, not delivered.
    Cancelled,
}

impl FailReason {
    fn to_error(self) -> Error {
        Error::Serve(
            match self {
                FailReason::ReplicaPanic => {
                    "serving pipeline panicked while the request was in flight; \
                     the replica restarts — resubmit"
                }
                FailReason::Shutdown => "frontend shut down before the request completed",
                FailReason::Cancelled => "request was cancelled by its waiter's deadline",
            }
            .to_string(),
        )
    }
}

/// Lock-free failure counters shared by the frontend, every queued
/// sample and every request handle (a separate allocation from
/// [`Shared`] so a [`Pending`] sitting in `Shared.queue` never holds a
/// strong reference back to the queue that holds it).
#[derive(Default)]
struct ServeCounters {
    replica_panics: AtomicUsize,
    replica_restarts: AtomicUsize,
    requests_failed: AtomicUsize,
    request_timeouts: AtomicUsize,
}

/// One queued sample: its pixels, where its result goes, and when it
/// arrived (the latency clock and the deadline-flush anchor).
struct Pending {
    image: Box<[f32]>,
    slot: Arc<ResponseState>,
    index: usize,
    enqueued: Instant,
    /// Set once the sample's result has been written to its slot.
    done: bool,
    /// The poison applied if this sample is dropped unserved. Defaults
    /// to [`FailReason::Shutdown`] (a drained queue); the pipeline
    /// upgrades it to [`FailReason::ReplicaPanic`] the moment the
    /// sample enters a batch that could die with its executor.
    fail_reason: FailReason,
    counters: Arc<ServeCounters>,
}

impl Drop for Pending {
    /// A sample dropped before completion (replica panicked mid-batch,
    /// or the pipeline drained on failure) poisons its request so the
    /// waiting client wakes up and fails instead of blocking forever.
    /// The first poison of a slot wins (and counts the request as
    /// failed); a slot already failed — or cancelled by its waiter —
    /// keeps its original reason.
    fn drop(&mut self) {
        if !self.done {
            if let Ok(mut g) = self.slot.inner.lock() {
                if g.failed.is_none() {
                    g.failed = Some(self.fail_reason);
                    self.counters.requests_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.slot.cv.notify_all();
        }
    }
}

/// Completion slot shared between a request's samples and its waiting
/// client.
struct ResponseState {
    inner: Mutex<ResponseInner>,
    cv: Condvar,
}

struct ResponseInner {
    probs: Vec<f32>,
    top1: Vec<usize>,
    remaining: usize,
    /// Set when a sample of this request was abandoned (see
    /// [`Pending::drop`]) or the waiter cancelled; waiters get a typed
    /// error rather than hanging, and replicas drop late results
    /// rather than writing into a slot nobody will read.
    failed: Option<FailReason>,
}

/// Handle to an in-flight request; [`PendingRequest::wait`] blocks
/// until every sample of the request has been served (and
/// [`PendingRequest::wait_timeout`] / [`PendingRequest::wait_deadline`]
/// bound that wait).
pub struct PendingRequest {
    slot: Arc<ResponseState>,
    count: usize,
    counters: Arc<ServeCounters>,
}

impl PendingRequest {
    /// Number of samples this request covers.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Block until the whole request is served and return its results
    /// in submission order.
    ///
    /// # Errors
    /// [`Error::Serve`] if the serving pipeline failed before this
    /// request completed (the message names the failure mode: pipeline
    /// panic vs. shutdown) — the alternative would be to block
    /// forever.
    pub fn wait(self) -> Result<InferenceOutput, Error> {
        self.wait_inner(None)
    }

    /// [`Self::wait`], giving up after `timeout`.
    ///
    /// On expiry the request is **cancelled**: the completion slot is
    /// poisoned so any sample still in flight drops its late result
    /// instead of delivering it, and the frontend counts a
    /// [`ServerStats::request_timeouts`]. The samples already admitted
    /// still occupy the queue/batch they landed in (cancellation stops
    /// the *delivery*, it does not recall the work).
    ///
    /// # Errors
    /// [`Error::Timeout`] when the bound expires first; otherwise as
    /// [`Self::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<InferenceOutput, Error> {
        self.wait_inner(Some(Instant::now() + timeout))
    }

    /// [`Self::wait_timeout`] with an absolute deadline — the form a
    /// server propagating one overall request budget across several
    /// waits wants. A deadline already in the past cancels and times
    /// out immediately.
    ///
    /// # Errors
    /// As [`Self::wait_timeout`].
    pub fn wait_deadline(self, deadline: Instant) -> Result<InferenceOutput, Error> {
        self.wait_inner(Some(deadline))
    }

    fn wait_inner(self, deadline: Option<Instant>) -> Result<InferenceOutput, Error> {
        let start = Instant::now();
        let mut g = self.slot.inner.lock().unwrap();
        loop {
            if let Some(reason) = g.failed {
                return Err(reason.to_error());
            }
            if g.remaining == 0 {
                break;
            }
            match deadline {
                None => g = self.slot.cv.wait(g).unwrap(),
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        // cancel under the slot lock: late results
                        // check `failed` under the same lock, so after
                        // this point none can be delivered
                        g.failed = Some(FailReason::Cancelled);
                        self.counters.request_timeouts.fetch_add(1, Ordering::Relaxed);
                        return Err(Error::Timeout { waited: start.elapsed() });
                    }
                    g = self.slot.cv.wait_timeout(g, dl - now).unwrap().0;
                }
            }
        }
        Ok(InferenceOutput {
            probs: std::mem::take(&mut g.probs),
            top1: std::mem::take(&mut g.top1),
        })
    }
}

/// Latency samples kept for percentile estimation; older samples are
/// overwritten ring-buffer style so a long-lived frontend's stats stay
/// bounded (the percentiles then describe the most recent window).
const LATENCY_WINDOW: usize = 1 << 16;

#[derive(Default)]
struct StatsInner {
    requests: usize,
    images: usize,
    batches: usize,
    batched_images: usize,
    deadline_flushes: usize,
    busy_rejections: usize,
    reloads: usize,
    reload_failures: usize,
    latencies_us: Vec<u64>,
    latency_next: usize,
}

impl StatsInner {
    fn record_latency(&mut self, us: u64) {
        if self.latencies_us.len() < LATENCY_WINDOW {
            self.latencies_us.push(us);
        } else {
            self.latencies_us[self.latency_next] = us;
        }
        self.latency_next = (self.latency_next + 1) % LATENCY_WINDOW;
    }
}

/// Snapshot of a frontend's serving counters.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Replica count of the frontend.
    pub replicas: usize,
    /// The planned batch size.
    pub minibatch: usize,
    /// Client requests accepted so far.
    pub requests: usize,
    /// Samples accepted so far (a request may carry several).
    pub images: usize,
    /// Batches dispatched to replicas so far.
    pub batches: usize,
    /// Mean fraction of batch slots holding real samples (1.0 = every
    /// dispatched batch was full; padding pulls it below 1).
    pub mean_occupancy: f64,
    /// Batches flushed partially filled by the `max_wait` deadline.
    pub deadline_flushes: usize,
    /// Requests load-shed with [`Error::Busy`] because admitting them
    /// would have pushed the queue past [`ServeConfig::queue_cap`].
    pub busy_rejections: usize,
    /// The admission cap ([`ServeConfig::queue_cap`]).
    pub queue_cap: usize,
    /// Samples queued (admitted, not yet dispatched) at snapshot time.
    pub queue_depth: usize,
    /// Generation of the currently published hot-swap weights (0 =
    /// the replicas still serve the weights they were built with; see
    /// [`BatchingFrontend::publish_weights`]).
    pub weight_generation: u64,
    /// Successful [`BatchingFrontend::publish_weights`] calls.
    pub reloads: usize,
    /// Published weight sets a replica failed to apply (the replica
    /// keeps serving its previous weights). Always 0 unless a dict
    /// that passed schema validation fails the network's stricter
    /// load-time checks.
    pub reload_failures: usize,
    /// Serving-thread panics caught by the supervisor (replica batch
    /// execution or the dispatcher). Each failed only its in-flight
    /// batch; see [`ServerStats::replica_restarts`] for the
    /// recoveries.
    pub replica_panics: usize,
    /// Successful replica session rebuilds after a panic.
    pub replica_restarts: usize,
    /// Requests that resolved with a serving-side [`Error::Serve`]
    /// (pipeline panic or shutdown poison). Waiter-side cancellations
    /// are counted separately in
    /// [`ServerStats::request_timeouts`], never here.
    pub requests_failed: usize,
    /// Bounded waits ([`PendingRequest::wait_timeout`] /
    /// [`PendingRequest::wait_deadline`]) that expired and cancelled
    /// their request.
    pub request_timeouts: usize,
    /// True once the frontend entered the terminal Failed state
    /// (replica restarts exhausted): every queued request was failed
    /// and [`BatchingFrontend::submit`] returns a typed error.
    pub failed: bool,
    /// Median submit-to-result latency over the most recent completed
    /// samples (a bounded window of 65536).
    pub p50_latency: Duration,
    /// 99th-percentile submit-to-result latency over the same window.
    pub p99_latency: Duration,
    /// Plan-cache + kernel-code-cache counters (the shared tiers all
    /// replicas sit on).
    pub caches: CombinedCacheStats,
}

/// State shared by clients, the dispatcher and the replicas.
struct Shared {
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    /// Signalled by the dispatcher whenever it drains samples — the
    /// wait side of [`BatchingFrontend::submit_within`].
    space_cv: Condvar,
    shutdown: AtomicBool,
    /// The terminal Failed state (set together with `shutdown`, under
    /// the queue lock, by [`enter_failed_state`]): replica restarts
    /// exhausted, every queued request failed, `submit` rejects.
    failed: AtomicBool,
    counters: Arc<ServeCounters>,
    stats: Mutex<StatsInner>,
    /// The published-weights cell replicas poll at batch boundaries.
    swap: Arc<HotSwap>,
    sample_elems: usize,
    minibatch: usize,
    classes: usize,
    queue_cap: usize,
    /// The replicas' numeric execution mode.
    precision: Precision,
    /// Calibration samples re-applied by every replica after a weight
    /// hot swap (empty at f32 or when none were supplied) — so
    /// reloaded weights requantize against the same measured ranges
    /// the replicas were built with.
    calibration: Arc<Vec<f32>>,
}

/// A multi-client micro-batching front-end over replicated
/// [`InferenceSession`]s (see the [module docs](self) for the
/// architecture).
///
/// ```
/// use anatomy::serve::{BatchingFrontend, ServeConfig};
/// use anatomy::{ConvOpts, GraphBuilder};
/// use std::time::Duration;
///
/// let model = GraphBuilder::new()
///     .input("data", 3, 8, 8)
///     .conv("c1", ConvOpts::k(16).rs(3).pad(1).bias().relu())
///     .gap("g")
///     .fc("logits", 4)
///     .softmax("loss")
///     .build()
///     .unwrap();
/// let cfg = ServeConfig::new(1, 1, 4).with_max_wait(Duration::from_millis(1));
/// let frontend = BatchingFrontend::new(&model, cfg).unwrap();
///
/// // a lone image: padded to the planned batch after the deadline
/// let image = vec![0.25f32; 3 * 8 * 8];
/// let out = frontend.infer(&image).unwrap();
/// assert_eq!(out.top1.len(), 1);
/// assert_eq!(out.probs.len(), frontend.classes());
///
/// // wrong-sized payloads are typed errors, not panics
/// assert!(frontend.submit(&image[..5]).is_err());
///
/// let stats = frontend.shutdown();
/// assert_eq!(stats.images, 1);
/// assert!(stats.batches >= 1);
/// ```
pub struct BatchingFrontend {
    shared: Arc<Shared>,
    cache: PlanCache,
    replicas: usize,
    /// `(name, dims)` of every parameter tensor the served network
    /// expects — the schema [`Self::publish_weights`] validates
    /// candidate dicts against before publishing.
    schema: Vec<(String, Vec<usize>)>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchingFrontend {
    /// Build a frontend with a private [`PlanCache`]. `model` is
    /// anything [`IntoModelSpec`]: a spec, a builder, or topology
    /// text.
    pub fn new(model: impl IntoModelSpec, cfg: ServeConfig) -> Result<Self, Error> {
        Self::with_cache_and_weights(model, cfg, PlanCache::new(), None)
    }

    /// Build a frontend whose replicas plan through `cache` (share one
    /// cache across frontends to JIT each distinct layer shape once
    /// per process) and, when `weights` is given, serve trained
    /// weights: every replica loads the [`StateDict`] (exported by
    /// [`gxm::Network::state_dict`]) before serving — the constructor
    /// a multi-model host uses.
    ///
    /// All replicas are built through the same cache with identical
    /// thread counts, so replica 1..N hit the plans replica 0 built:
    /// N replicas cost one JIT + dryrun pass. Replicas are
    /// deterministic in the weights alone — every replica serves the
    /// identical bits, and bn-graph predictions use the dict's frozen
    /// running statistics (batch-composition-independent).
    pub fn with_cache_and_weights(
        model: impl IntoModelSpec,
        cfg: ServeConfig,
        cache: PlanCache,
        weights: Option<&StateDict>,
    ) -> Result<Self, Error> {
        let spec = model.into_model_spec()?;
        Self::build(&spec, cfg, cache, weights)
    }

    fn build(
        spec: &ModelSpec,
        cfg: ServeConfig,
        cache: PlanCache,
        weights: Option<&StateDict>,
    ) -> Result<Self, Error> {
        if cfg.replicas == 0 || cfg.threads_per_replica == 0 || cfg.minibatch == 0 {
            return Err(Error::BadInput(
                "replicas, threads_per_replica and minibatch must be >= 1".to_string(),
            ));
        }
        if cfg.queue_cap < cfg.minibatch {
            return Err(Error::BadInput(format!(
                "queue_cap ({}) must be >= minibatch ({}) or full batches could never form",
                cfg.queue_cap, cfg.minibatch
            )));
        }
        let calibration = Arc::new(if cfg.precision == Precision::Int8 {
            cfg.calibration.clone()
        } else {
            Vec::new()
        });
        let initial_weights = weights.map(|w| Arc::new(w.clone()));
        // Build every replica's session up front through the factory
        // its supervisor will rebuild it with (cheap after the first:
        // shared plan cache), then move each pair into its thread.
        let mut replicas = Vec::with_capacity(cfg.replicas);
        for r in 0..cfg.replicas {
            let factory = ReplicaFactory {
                spec: spec.clone(),
                minibatch: cfg.minibatch,
                threads: cfg.threads_per_replica,
                pin_offset: cfg.pin_replicas.then_some(r * cfg.threads_per_replica),
                pool_name: format!("serve-r{r}"),
                cache: cache.clone(),
                tune: cfg.tune,
                precision: cfg.precision,
                initial_weights: initial_weights.clone(),
            };
            let mut session = factory.session()?;
            apply_weights(&mut session, weights, &calibration)?;
            replicas.push((factory, session));
        }
        let first = &replicas[0].1;
        let schema: Vec<(String, Vec<usize>)> = first
            .network()
            .state_dict()
            .iter()
            .map(|(name, entry)| (name.to_string(), entry.dims.clone()))
            .collect();
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            space_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            counters: Arc::new(ServeCounters::default()),
            stats: Mutex::new(StatsInner::default()),
            swap: Arc::new(HotSwap::new()),
            sample_elems: first.sample_elems(),
            minibatch: cfg.minibatch,
            classes: first.classes(),
            queue_cap: cfg.queue_cap,
            precision: cfg.precision,
            calibration,
        });
        let restart = RestartPolicy {
            max_attempts: cfg.max_restart_attempts,
            backoff: cfg.restart_backoff,
            cap: cfg.restart_backoff_cap,
        };
        let mut txs = Vec::with_capacity(cfg.replicas);
        let mut workers = Vec::with_capacity(cfg.replicas);
        for (r, (factory, session)) in replicas.into_iter().enumerate() {
            // bound 1: the dispatcher stays at most one batch ahead of
            // each replica, which keeps round-robin assignment fair
            // and bounds queued-but-undelivered work
            let (tx, rx) = sync_channel::<Vec<Pending>>(1);
            let sh = Arc::clone(&shared);
            let pin = factory.pin_offset;
            let handle = std::thread::Builder::new()
                .name(format!("serve-replica-{r}"))
                .spawn(move || {
                    // the replica thread participates in its pool's
                    // regions as tid 0 — keep it on the team's range
                    if let Some(core) = pin {
                        pin_current_thread(core);
                    }
                    replica_loop(session, rx, sh, factory, restart);
                })
                .map_err(|e| Error::Serve(format!("spawn replica {r}: {e}")))?;
            txs.push(tx);
            workers.push(handle);
        }
        let dispatcher = {
            let sh = Arc::clone(&shared);
            let max_wait = cfg.max_wait;
            std::thread::Builder::new()
                .name("serve-dispatch".to_string())
                .spawn(move || dispatcher_loop(sh, txs, max_wait))
                .map_err(|e| Error::Serve(format!("spawn dispatcher: {e}")))?
        };
        Ok(Self {
            shared,
            cache,
            replicas: cfg.replicas,
            schema,
            dispatcher: Some(dispatcher),
            workers,
        })
    }

    /// Submit a request of one or more samples (`len` must be a
    /// non-zero multiple of [`Self::sample_elems`], in NCHW f32) and
    /// return a handle to wait on.
    ///
    /// Requests larger than the planned minibatch are split across
    /// consecutive batches; the handle completes when the last piece
    /// is served. Samples of one request stay in submission order.
    ///
    /// Admission control is immediate: a request that does not fit
    /// the bounded queue right now is load-shed (use
    /// [`Self::submit_within`] to wait for space instead).
    ///
    /// # Errors
    /// [`Error::BadInput`] for empty or non-sample-multiple payloads;
    /// [`Error::Busy`] when admitting the request would push the
    /// queue past [`ServeConfig::queue_cap`]; [`Error::Serve`] if the
    /// pipeline has shut down (a replica died) — new work could never
    /// complete.
    pub fn submit(&self, images: &[f32]) -> Result<PendingRequest, Error> {
        self.submit_within(images, Duration::ZERO)
    }

    /// [`Self::submit`], but willing to wait up to `admission_wait`
    /// for queue space before load-shedding with [`Error::Busy`].
    ///
    /// The wait is for *admission only* — once admitted, the returned
    /// handle behaves exactly like one from [`Self::submit`], and the
    /// sample's latency clock starts at admission. A request larger
    /// than [`ServeConfig::queue_cap`] samples can never be admitted
    /// and is shed immediately regardless of `admission_wait`.
    pub fn submit_within(
        &self,
        images: &[f32],
        admission_wait: Duration,
    ) -> Result<PendingRequest, Error> {
        let se = self.shared.sample_elems;
        if images.is_empty() || !images.len().is_multiple_of(se) {
            return Err(Error::BadInput(format!(
                "request must be a non-zero multiple of sample_elems ({se}) f32s, got {}",
                images.len()
            )));
        }
        let count = images.len() / se;
        let slot = Arc::new(ResponseState {
            inner: Mutex::new(ResponseInner {
                probs: vec![0.0; count * self.shared.classes],
                top1: vec![0; count],
                remaining: count,
                failed: None,
            }),
            cv: Condvar::new(),
        });
        // slice + copy the samples before taking the queue lock so a
        // large request doesn't stall the dispatcher's deadline clock
        let mut pendings: Vec<Pending> = (0..count)
            .map(|i| Pending {
                image: images[i * se..(i + 1) * se].into(),
                slot: Arc::clone(&slot),
                index: i,
                enqueued: Instant::now(),
                done: false,
                fail_reason: FailReason::Shutdown,
                counters: Arc::clone(&self.shared.counters),
            })
            .collect();
        let deadline = Instant::now() + admission_wait;
        {
            let mut q = self.shared.queue.lock().unwrap();
            loop {
                // checked under the queue lock: the failure paths set
                // their flags and clear the queue under this same
                // lock, so a request can never slip in behind the
                // drained dispatcher and strand its client
                if self.shared.shutdown.load(Ordering::Acquire) {
                    // dropping `pendings` would poison the fresh slot
                    // and mark the request failed — return the typed
                    // error directly instead
                    pendings.iter_mut().for_each(|p| p.done = true);
                    let failed = self.shared.failed.load(Ordering::Acquire);
                    return Err(Error::Serve(if failed {
                        "frontend is in the terminal Failed state (replica restarts \
                         exhausted); rebuild the frontend"
                            .to_string()
                    } else {
                        "frontend is shut down; new requests would never complete".to_string()
                    }));
                }
                if q.len() + count <= self.shared.queue_cap {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    let queued = q.len();
                    drop(q);
                    pendings.iter_mut().for_each(|p| p.done = true);
                    self.shared.stats.lock().unwrap().busy_rejections += 1;
                    return Err(Error::Busy { queued, capacity: self.shared.queue_cap });
                }
                q = self.shared.space_cv.wait_timeout(q, deadline - now).unwrap().0;
            }
            // the latency clock and the deadline-flush anchor start at
            // *admission*, not at the start of an admission wait
            let now = Instant::now();
            pendings.iter_mut().for_each(|p| p.enqueued = now);
            q.extend(pendings.drain(..));
        }
        self.shared.queue_cv.notify_all();
        {
            let mut s = self.shared.stats.lock().unwrap();
            s.requests += 1;
            s.images += count;
        }
        Ok(PendingRequest { slot, count, counters: Arc::clone(&self.shared.counters) })
    }

    /// Submit and block: `submit(images)?.wait()`.
    pub fn infer(&self, images: &[f32]) -> Result<InferenceOutput, Error> {
        self.submit(images)?.wait()
    }

    /// Class count of the served model.
    pub fn classes(&self) -> usize {
        self.shared.classes
    }

    /// Elements per sample (`c × h × w` of the model input).
    pub fn sample_elems(&self) -> usize {
        self.shared.sample_elems
    }

    /// The planned batch size.
    pub fn minibatch(&self) -> usize {
        self.shared.minibatch
    }

    /// Number of session replicas.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The replicas' numeric execution mode.
    pub fn precision(&self) -> Precision {
        self.shared.precision
    }

    /// The plan cache all replicas share.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Publish a new weight set for zero-downtime hot swap.
    ///
    /// The dict is validated against the served network's parameter
    /// schema (same tensor names and dims), then atomically installed
    /// in the shared [`gxm::HotSwap`] cell. Each replica notices the
    /// new generation at its next batch boundary (one atomic load per
    /// batch) and applies it via
    /// [`load_state_dict`](crate::InferenceSession::load_state_dict)
    /// — which refolds the fused-BN weights — before running the
    /// batch. In-flight batches finish on the weights they started
    /// with; no request is dropped or paused by a swap (DESIGN.md
    /// §9.3).
    ///
    /// Returns the new weight generation (monotonic from 1).
    ///
    /// # Errors
    /// [`Error::StateDict`] when the dict's tensor names/dims do not
    /// match the served model — nothing is published on error.
    pub fn publish_weights(&self, weights: StateDict) -> Result<u64, Error> {
        {
            let mut want = self.schema.iter();
            let mut got = weights.iter();
            loop {
                match (want.next(), got.next()) {
                    (None, None) => break,
                    (Some((name, dims)), Some((gname, gentry))) => {
                        if name != gname || dims != &gentry.dims {
                            return Err(Error::StateDict(format!(
                                "dict does not match the served model: expected tensor '{name}' \
                                 dims {dims:?}, got '{gname}' dims {:?}",
                                gentry.dims
                            )));
                        }
                    }
                    (Some((name, _)), None) => {
                        return Err(Error::StateDict(format!(
                            "dict does not match the served model: missing tensor '{name}'"
                        )));
                    }
                    (None, Some((gname, _))) => {
                        return Err(Error::StateDict(format!(
                            "dict does not match the served model: unexpected tensor '{gname}'"
                        )));
                    }
                }
            }
        }
        let generation = self.shared.swap.publish(Arc::new(weights));
        self.shared.stats.lock().unwrap().reloads += 1;
        Ok(generation)
    }

    /// Generation of the most recently published weights (0 until the
    /// first [`Self::publish_weights`]).
    pub fn weight_generation(&self) -> u64 {
        self.shared.swap.generation()
    }

    /// Samples admitted but not yet dispatched to a replica.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// The admission cap ([`ServeConfig::queue_cap`]).
    pub fn queue_cap(&self) -> usize {
        self.shared.queue_cap
    }

    /// True once the frontend has entered the terminal Failed state
    /// (consecutive replica rebuilds exhausted — see the
    /// [module docs](self)). [`Self::submit`] rejects with a typed
    /// [`Error::Serve`] from then on; the only recovery is building a
    /// new frontend.
    pub fn failed(&self) -> bool {
        self.shared.failed.load(Ordering::Acquire)
    }

    /// Snapshot the serving counters (latency percentiles cover
    /// completed samples only).
    pub fn stats(&self) -> ServerStats {
        // copy everything out, then drop the guard before the sort so
        // replicas recording latencies never wait on a stats poll
        let (mut lat, s) = {
            let s = self.shared.stats.lock().unwrap();
            (
                s.latencies_us.clone(),
                StatsInner {
                    requests: s.requests,
                    images: s.images,
                    batches: s.batches,
                    batched_images: s.batched_images,
                    deadline_flushes: s.deadline_flushes,
                    busy_rejections: s.busy_rejections,
                    reloads: s.reloads,
                    reload_failures: s.reload_failures,
                    latencies_us: Vec::new(),
                    latency_next: 0,
                },
            )
        };
        lat.sort_unstable();
        let pct = |q: f64| {
            if lat.is_empty() {
                Duration::ZERO
            } else {
                let idx = ((lat.len() - 1) as f64 * q).round() as usize;
                Duration::from_micros(lat[idx])
            }
        };
        ServerStats {
            replicas: self.replicas,
            minibatch: self.shared.minibatch,
            requests: s.requests,
            images: s.images,
            batches: s.batches,
            mean_occupancy: if s.batches == 0 {
                0.0
            } else {
                s.batched_images as f64 / (s.batches * self.shared.minibatch) as f64
            },
            deadline_flushes: s.deadline_flushes,
            busy_rejections: s.busy_rejections,
            queue_cap: self.shared.queue_cap,
            queue_depth: self.queue_depth(),
            weight_generation: self.shared.swap.generation(),
            reloads: s.reloads,
            reload_failures: s.reload_failures,
            replica_panics: self.shared.counters.replica_panics.load(Ordering::Relaxed),
            replica_restarts: self.shared.counters.replica_restarts.load(Ordering::Relaxed),
            requests_failed: self.shared.counters.requests_failed.load(Ordering::Relaxed),
            request_timeouts: self.shared.counters.request_timeouts.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Acquire),
            p50_latency: pct(0.50),
            p99_latency: pct(0.99),
            caches: self.cache.combined_stats(),
        }
    }

    /// Zero every serving counter and drop the recorded latencies
    /// (cache counters are unaffected — they describe setup, not
    /// traffic). Benchmarks call this after warmup so percentiles and
    /// occupancy describe only the measured traffic.
    pub fn reset_stats(&self) {
        *self.shared.stats.lock().unwrap() = StatsInner::default();
        let c = &self.shared.counters;
        c.replica_panics.store(0, Ordering::Relaxed);
        c.replica_restarts.store(0, Ordering::Relaxed);
        c.requests_failed.store(0, Ordering::Relaxed);
        c.request_timeouts.store(0, Ordering::Relaxed);
    }

    /// Drain the queue, stop the dispatcher and every replica, and
    /// return the final counters. Dropping the frontend performs the
    /// same orderly shutdown (minus the returned stats).
    pub fn shutdown(mut self) -> ServerStats {
        self.join_workers();
        self.stats()
    }

    fn join_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        self.shared.space_cv.notify_all();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for BatchingFrontend {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// Everything a replica thread needs to rebuild its session after a
/// panic: the spec, the pool shape, the shared plan cache, and the
/// initial weights (used only until the first hot-swap publish — a
/// rebuild always prefers the freshest published generation).
struct ReplicaFactory {
    spec: ModelSpec,
    minibatch: usize,
    threads: usize,
    pin_offset: Option<usize>,
    pool_name: String,
    cache: PlanCache,
    tune: conv::TuneLevel,
    precision: Precision,
    initial_weights: Option<Arc<StateDict>>,
}

impl ReplicaFactory {
    /// A session on a fresh thread pool (the replica's name/pinning),
    /// planned through the shared cache — so only the first build of a
    /// layer shape JITs.
    fn session(&self) -> Result<InferenceSession, Error> {
        let mut opts = PoolOptions::new(self.threads).with_name(self.pool_name.clone());
        opts = match self.pin_offset {
            Some(off) => opts.with_core_offset(off),
            None => opts.without_pinning(),
        };
        InferenceSession::with_shared_quantized(
            &self.spec,
            self.minibatch,
            Arc::new(ThreadPool::with_options(opts)),
            self.cache.clone(),
            self.tune,
            self.precision,
        )
    }

    /// Rebuild a crashed replica's session from scratch (the old pool
    /// may have died with the panic) with the current weights — the
    /// freshest published generation, else the initial ones — and
    /// re-calibration at int8. Returns the session and the weight
    /// generation it serves.
    fn rebuild(&self, shared: &Shared) -> Result<(InferenceSession, u64), Error> {
        fault::point("replica.rebuild");
        let mut session = self.session()?;
        let (published, gen) = shared.swap.snapshot();
        let weights = published.as_deref().or(self.initial_weights.as_deref());
        apply_weights(&mut session, weights, &shared.calibration)?;
        Ok((session, gen))
    }
}

/// Put `weights` (when given) into `session`, then — at int8, where
/// `calibration` is non-empty — requantize against the measured ranges
/// (a load by itself only sees BN-derived bounds).
fn apply_weights(
    session: &mut InferenceSession,
    weights: Option<&StateDict>,
    calibration: &[f32],
) -> Result<(), Error> {
    if let Some(sd) = weights {
        session.load_state_dict(sd)?;
    }
    if !calibration.is_empty() {
        let se = session.sample_elems();
        if !calibration.len().is_multiple_of(se) {
            return Err(Error::BadInput(format!(
                "calibration must be a multiple of sample_elems ({se}) f32s, got {}",
                calibration.len()
            )));
        }
        session.calibrate(calibration, calibration.len() / se)?;
    }
    Ok(())
}

/// The replica restart policy of [`ServeConfig::with_restart_policy`].
#[derive(Clone, Copy)]
struct RestartPolicy {
    max_attempts: usize,
    backoff: Duration,
    cap: Duration,
}

/// Put the frontend into the terminal Failed state: flag it and drain
/// the queue under the queue lock (so no submit can slip in behind
/// the drain), then poison every drained request and wake everyone —
/// admission waiters, the dispatcher, and clients blocked in `wait`.
/// Idempotent; callable from any serving thread.
fn enter_failed_state(shared: &Shared) {
    let drained: Vec<Pending> = {
        let mut q = shared.queue.lock().unwrap();
        shared.failed.store(true, Ordering::Release);
        shared.shutdown.store(true, Ordering::Release);
        q.drain(..).collect()
    };
    // dropping outside the queue lock: each Pending takes its slot
    // lock to poison the request
    drop(drained);
    shared.queue_cv.notify_all();
    shared.space_cv.notify_all();
}

/// Sleep for `total`, waking early (in ≤25ms slices) if the frontend
/// shuts down — a replica in restart backoff must not stall teardown.
fn sleep_unless_shutdown(shared: &Shared, total: Duration) {
    let deadline = Instant::now() + total;
    while !shared.shutdown.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(25)));
    }
}

/// The dispatcher's supervisor: run [`dispatch_batches`] until clean
/// shutdown, restarting it after a caught panic. A dispatcher panic
/// fails only the batch in hand (its `Pending`s unwind and poison
/// their requests); the dispatcher owns no session, so the restart
/// itself is free and unlimited.
fn dispatcher_loop(shared: Arc<Shared>, txs: Vec<SyncSender<Vec<Pending>>>, max_wait: Duration) {
    let mut rr = 0usize;
    loop {
        match catch_unwind(AssertUnwindSafe(|| dispatch_batches(&shared, &txs, max_wait, &mut rr)))
        {
            Ok(()) => return,
            Err(_) => {
                shared.counters.replica_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One dispatcher incarnation: form batches (full, or partial at the
/// deadline / shutdown) and hand them to replicas round-robin.
/// Returns on shutdown; panics propagate to [`dispatcher_loop`].
fn dispatch_batches(
    shared: &Shared,
    txs: &[SyncSender<Vec<Pending>>],
    max_wait: Duration,
    rr: &mut usize,
) {
    loop {
        let (batch, flushed_early) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if q.len() >= shared.minibatch || shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match q.front() {
                    None => q = shared.queue_cv.wait(q).unwrap(),
                    Some(front) => {
                        // partial batch: wait for more samples, but no
                        // longer than the oldest sample's deadline
                        let deadline = front.enqueued + max_wait;
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        q = shared.queue_cv.wait_timeout(q, deadline - now).unwrap().0;
                    }
                }
            }
            let draining = shared.shutdown.load(Ordering::Acquire);
            if q.is_empty() {
                if draining {
                    return;
                }
                continue; // spurious wakeup
            }
            let take = q.len().min(shared.minibatch);
            let mut batch: Vec<Pending> = q.drain(..take).collect();
            // from here until a replica owns the batch, a dispatcher
            // panic kills it — poison as a pipeline panic, not as a
            // shutdown drain
            for p in &mut batch {
                p.fail_reason = FailReason::ReplicaPanic;
            }
            // a partial batch drained at shutdown is not a *deadline*
            // flush — don't let teardown skew the batching stats
            let flushed_early = batch.len() < shared.minibatch && !draining;
            (batch, flushed_early)
        };
        // queue space was just freed — wake admission waiters
        shared.space_cv.notify_all();
        {
            let mut s = shared.stats.lock().unwrap();
            s.batches += 1;
            s.batched_images += batch.len();
            if flushed_early {
                s.deadline_flushes += 1;
            }
        }
        fault::point("dispatcher.batch");
        // round-robin over replicas; `send` blocks when the target is
        // busy (bound-1 channel), which is the frontend's backpressure
        if txs[*rr].send(batch).is_err() {
            // a replica's receiver is gone — it exhausted its restart
            // budget (or exited terminally some other way), so the
            // frontend cannot promise capacity any more: enter the
            // terminal Failed state. The batch inside the SendError
            // and everything still queued drop and poison their
            // request slots, so every waiting client wakes and fails
            // instead of hanging.
            enter_failed_state(shared);
            return;
        }
        *rr = (*rr + 1) % txs.len();
    }
}

/// A replica thread's supervisor: run [`serve_batches`] on the owned
/// session until clean shutdown; on a caught panic, count it and
/// rebuild the session through the [`ReplicaFactory`] under capped
/// exponential backoff. Consecutive rebuild failures beyond the
/// [`RestartPolicy`] budget put the whole frontend into the terminal
/// Failed state (see the [module docs](self)).
fn replica_loop(
    session: InferenceSession,
    rx: Receiver<Vec<Pending>>,
    shared: Arc<Shared>,
    factory: ReplicaFactory,
    restart: RestartPolicy,
) {
    let mut flat = vec![0.0f32; shared.minibatch * shared.sample_elems];
    let mut session = session;
    let mut weight_gen = 0u64;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_batches(&mut session, &rx, &shared, &mut weight_gen, &mut flat)
        }));
        if outcome.is_ok() {
            return; // channel closed: orderly shutdown
        }
        // the panic unwound the in-flight batch inside serve_batches:
        // its Pendings dropped and poisoned their requests as
        // ReplicaPanic. Only that batch is lost — rebuild and go on.
        shared.counters.replica_panics.fetch_add(1, Ordering::Relaxed);
        let mut attempts = 0usize;
        let mut delay = restart.backoff;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                // teardown (or another thread's terminal failure) won
                // the race — dropping `rx` fails whatever batch is
                // still parked in the channel instead of serving it
                return;
            }
            if attempts >= restart.max_attempts {
                enter_failed_state(&shared);
                return;
            }
            sleep_unless_shutdown(&shared, delay);
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(|| factory.rebuild(&shared))) {
                Ok(Ok((fresh, gen))) => {
                    // assignment drops the crashed session (and its
                    // pool) now that the replacement is live
                    session = fresh;
                    weight_gen = gen;
                    shared.counters.replica_restarts.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Ok(Err(_)) | Err(_) => {
                    delay = (delay * 2).min(restart.cap);
                }
            }
        }
    }
}

/// One replica incarnation: execute batches on the owned session and
/// route every sample's result back to its request slot. Returns when
/// the dispatcher closes the channel; panics propagate to
/// [`replica_loop`], which fails the in-flight batch and rebuilds.
///
/// Between batches the replica polls the shared [`HotSwap`] cell (one
/// `Acquire` load); when a new weight generation has been published it
/// loads the dict — refolding the fused-BN weights — before running
/// the batch. The batch that triggered the poll therefore runs
/// entirely on the *new* weights, and the previous batch ran entirely
/// on the old ones: a swap never tears a batch.
fn serve_batches(
    session: &mut InferenceSession,
    rx: &Receiver<Vec<Pending>>,
    shared: &Shared,
    weight_gen: &mut u64,
    flat: &mut [f32],
) {
    let se = shared.sample_elems;
    let classes = shared.classes;
    while let Ok(mut batch) = rx.recv() {
        // from here until delivery, a panic dies with this batch —
        // upgrade the poison before anything fallible runs
        for p in &mut batch {
            p.fail_reason = FailReason::ReplicaPanic;
        }
        fault::point("replica.batch");
        if shared.swap.generation() != *weight_gen {
            let (published, gen) = shared.swap.snapshot();
            if let Some(sd) = published {
                // schema-validated at publish time; a residual load or
                // recalibration failure keeps the previous weights (or
                // their BN-derived ranges) serving
                if apply_weights(session, Some(&sd), &shared.calibration).is_err() {
                    shared.stats.lock().unwrap().reload_failures += 1;
                }
            }
            *weight_gen = gen;
        }
        let n = batch.len();
        for (i, p) in batch.iter().enumerate() {
            flat[i * se..(i + 1) * se].copy_from_slice(&p.image);
        }
        let out = session
            .run_samples(&flat[..n * se], n)
            .expect("dispatcher batches always fit the planned minibatch");
        let done = Instant::now();
        let mut latencies = Vec::with_capacity(n);
        for (i, mut p) in batch.into_iter().enumerate() {
            let mut g = p.slot.inner.lock().unwrap();
            if g.failed.is_some() {
                // the waiter cancelled (deadline) or a sibling sample
                // already poisoned the request — drop the late result
                // instead of writing into a slot nobody will read
                p.done = true;
                continue;
            }
            g.probs[p.index * classes..(p.index + 1) * classes]
                .copy_from_slice(&out.probs[i * classes..(i + 1) * classes]);
            g.top1[p.index] = out.top1[i];
            g.remaining -= 1;
            p.done = true;
            latencies.push(done.duration_since(p.enqueued).as_micros() as u64);
            if g.remaining == 0 {
                drop(g);
                p.slot.cv.notify_all();
            }
        }
        let mut s = shared.stats.lock().unwrap();
        for us in latencies {
            s.record_latency(us);
        }
    }
}
