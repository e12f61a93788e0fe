//! The batched inference service: model registration, request
//! submission with backpressure and deadlines, a coalescing worker pool
//! with per-batch panic isolation, and the drain/shutdown protocol. See
//! the crate docs for the determinism contract and the failure model.

use crate::cache::{CacheError, CacheStats, ModelCache};
use crate::fault::{FaultAction, FaultPlan, FaultPoint};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, ModelMetrics};
use crate::queue::{BoundedQueue, Popped, PushError};
use crate::supervisor::Supervisor;
use nm_compiler::{BatchPlan, ExecTier, Options, PreparedGraph};
use nm_core::{Error, Tensor};
use nm_nn::graph::Graph;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, Weak};
use std::time::{Duration, Instant};

/// Handle to a registered model (an index into the service's model
/// table; stable for the service's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub usize);

/// Service sizing and fault-tolerance knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound of the submission queue; a submit against a full queue is
    /// shed ([`SubmitError::Shed`]), never buffered without limit.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch (same model,
    /// consecutive in the queue). `1` disables coalescing.
    pub max_batch: usize,
    /// Worker threads executing batches.
    pub workers: usize,
    /// The [`ExecTier`] every model in this service executes on. It is
    /// authoritative: [`Service::register`] overrides `Options::tier`
    /// with this value, so the cache key, the prepared artifact and
    /// every result of one service agree on a single tier. On
    /// [`ExecTier::Reference`]/[`ExecTier::Bulk`] results carry
    /// simulated cycles ([`InferenceResult::sim_cycles`] is `Some`); on
    /// [`ExecTier::Native`] cycles are not simulated and `sim_cycles`
    /// is `None`.
    pub tier: ExecTier,
    /// Worker respawns allowed over the service lifetime. Per-batch
    /// panics are contained without touching this budget; it is spent
    /// only when a worker *thread* dies (a panic escaping the batch
    /// isolation). Exhausting it poisons the service (admissions close,
    /// queued requests cancel) — see `crates/serve`'s failure model.
    pub restart_budget: u32,
    /// Base delay before a respawned worker starts; doubled per
    /// consecutive restart, capped at 32×. Kept small by default so
    /// tests stay fast — a production deployment facing real crash
    /// loops wants tens of milliseconds or more.
    pub restart_backoff: Duration,
    /// Deterministic fault injection plan ([`crate::fault`]); `None`
    /// (the default) costs nothing and injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Resident-byte budget for the prepared-model cache
    /// ([`crate::ModelCache`]); `None` (the default) is unbounded. With
    /// a budget, registering or re-resolving a model may evict the
    /// least-recently-used *unpinned* cached artifact — in-flight work
    /// keeps its own `Arc` and is never invalidated — and a model that
    /// cannot fit at all is refused with
    /// [`ServeError::CacheOverBudget`].
    pub cache_budget: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 8,
            workers: 2,
            tier: ExecTier::Bulk,
            restart_budget: 8,
            restart_backoff: Duration::from_millis(1),
            fault_plan: None,
            cache_budget: None,
        }
    }
}

/// A [`ServiceConfig`] value [`Service::try_start`] refuses: each
/// variant names the field that would deadlock the service or reject
/// every request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: nothing would ever pop the queue.
    ZeroWorkers,
    /// `max_batch == 0`: no dispatch could carry a request.
    ZeroMaxBatch,
    /// `queue_capacity == 0`: every submit would shed.
    ZeroQueueCapacity,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "need at least one worker"),
            ConfigError::ZeroMaxBatch => write!(f, "batch limit must be positive"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue capacity must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A request's scheduling class. Dispatch is earliest-deadline-first
/// *within* a class, classes in this order; under capacity pressure the
/// queue sheds strictly lower classes first — a full queue displaces
/// queued [`BestEffort`](Priority::BestEffort) work to admit an
/// [`Interactive`](Priority::Interactive) request
/// ([`ServeError::Preempted`] for the victim), and an Interactive
/// request is only ever shed when no lower-class request occupies a
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground traffic: dispatched first, shed
    /// last.
    Interactive,
    /// The default class — plain [`Service::submit`] traffic.
    #[default]
    Batch,
    /// Opportunistic background work: first to yield its queue slot.
    BestEffort,
}

impl Priority {
    /// Every class, most to least urgent.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// The class's scheduling band: 0 is most urgent. Also the index
    /// into [`ServiceStats::shed_full_by_class`].
    pub fn rank(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }

    /// Short stable label for logs and bench summaries.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::BestEffort => "best-effort",
        }
    }
}

/// Why a submission was rejected. Every rejection is reported to the
/// caller — the service never accepts a request it will not answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full of same-or-higher-priority work; the
    /// request was shed (backpressure). Counted in
    /// [`ServiceStats::shed`] (the `full` shed class, broken down per
    /// priority in [`ServiceStats::shed_full_by_class`]). A full queue
    /// holding strictly lower-priority work displaces a victim instead
    /// of shedding the newcomer.
    Shed {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The service is shutting down cleanly and admits no new work.
    Closed,
    /// The service poisoned itself (restart-budget exhaustion or a
    /// failed respawn): admissions are closed for good and queued work
    /// was canceled. Distinct from [`Closed`](SubmitError::Closed) so
    /// a caller can tell orderly shutdown from a service that died
    /// under it.
    Poisoned,
    /// The input does not match the model's input shape.
    InvalidInput(String),
    /// No model is registered under this id.
    UnknownModel(ModelId),
    /// The model is registered but its evicted artifact could not be
    /// re-prepared at submit time (the cache's byte budget is fully
    /// pinned, or preparation failed). The request was not accepted.
    ModelUnavailable {
        /// The model whose artifact could not be resolved.
        model: ModelId,
        /// Why the re-preparation failed.
        reason: String,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Shed { capacity } => {
                write!(f, "request shed: queue at capacity {capacity}")
            }
            SubmitError::Closed => write!(f, "service closed"),
            SubmitError::Poisoned => write!(f, "service poisoned: restart budget exhausted"),
            SubmitError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            SubmitError::UnknownModel(id) => write!(f, "unknown model {id:?}"),
            SubmitError::ModelUnavailable { model, reason } => {
                write!(f, "model {model:?} unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted request did not produce a result. Every accepted
/// request resolves to exactly one of a result or one of these — never
/// a hang (enforced by the chaos suite, `tests/tests/serve_chaos.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The emulated execution failed (staging/kernel error).
    Run(Error),
    /// The request was canceled after acceptance: its worker died with
    /// the batch in hand, or the service shut down / was poisoned
    /// before executing it. Counted in [`ServiceStats::shed_canceled`].
    Canceled,
    /// Execution of *this request* panicked — both the coalesced batch
    /// pass and the request's individual isolation re-run. Carries the
    /// re-run's panic message. Other requests of the same batch are
    /// unaffected (re-run individually, bit+cycle identical results).
    WorkerPanic(String),
    /// The request's deadline expired before dispatch (shed at the
    /// queue, counted in [`ServiceStats::shed_expired`]) — or, from
    /// [`Ticket::wait_timeout`], the caller's wait bound elapsed first.
    DeadlineExceeded,
    /// The request's queue slot was displaced by a strictly
    /// higher-priority submit under capacity pressure (counted in
    /// [`ServiceStats::shed_preempted`]). The request never ran;
    /// resubmitting later (or at a higher class) is the caller's call.
    Preempted,
    /// Registration-time refusal: the prepared model cannot fit the
    /// cache's byte budget ([`ServiceConfig::cache_budget`]) even after
    /// evicting every unpinned entry. Returned by [`Service::register`];
    /// an accepted request never resolves to this.
    CacheOverBudget {
        /// Resident bytes the refused model needs
        /// (`PreparedGraph::resident_bytes`).
        required: usize,
        /// The configured cache budget.
        budget: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Run(e) => write!(f, "execution failed: {e}"),
            ServeError::Canceled => write!(f, "request canceled before execution"),
            ServeError::WorkerPanic(msg) => write!(f, "execution panicked: {msg}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Preempted => {
                write!(f, "queue slot displaced by a higher-priority request")
            }
            ServeError::CacheOverBudget { required, budget } => write!(
                f,
                "model needs {required} resident bytes but the cache budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Maps a cache refusal onto the service's error vocabulary.
fn serve_error_from_cache(e: CacheError) -> ServeError {
    match e {
        CacheError::Prepare(e) => ServeError::Run(e),
        CacheError::OverBudget { required, budget } => {
            ServeError::CacheOverBudget { required, budget }
        }
    }
}

/// One fulfilled request.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The request id ([`Ticket::id`]).
    pub id: u64,
    /// The model that served it.
    pub model: ModelId,
    /// The network output — bit-identical to a sequential
    /// [`PreparedGraph::run`] of the same input.
    pub output: Tensor<i8>,
    /// Deterministic per-request simulated compute cycles — identical
    /// to a sequential run's, whatever batch the request rode in.
    /// `Some` on the cycle-accurate tiers ([`ExecTier::Reference`],
    /// [`ExecTier::Bulk`]); `None` on [`ExecTier::Native`], where
    /// cycles are not simulated (wall-clock [`InferenceResult::latency`]
    /// is the only timing quantity there).
    pub sim_cycles: Option<u64>,
    /// Requests that rode in the batch that served this one
    /// (informational; `1` when the request was re-run individually
    /// after a batch-level panic). A batch size above one does **not**
    /// by itself mean any work was shared — `mode` is the authority on
    /// that.
    pub batch_size: usize,
    /// The [`BatchPlan`] the batch actually executed under:
    /// [`BatchPlan::Sequential`] (with the reason) when the requests
    /// ran one by one, the sharing plan otherwise.
    pub mode: BatchPlan,
    /// Wall-clock submit-to-completion latency (informational,
    /// host-dependent — the deterministic quantity is `sim_cycles`).
    ///
    /// Attribution is the same on every fulfill path: measured at
    /// fulfill time, so it covers the queue wait plus the *whole*
    /// coalesced batch's compute — every rider of one batch is charged
    /// the full batch pass, not a per-request slice. On the
    /// panic-isolation path the re-run's latency additionally includes
    /// the failed batch pass and any earlier re-runs of the same batch.
    /// Within one batch, requests fulfill in queue order, so their
    /// fulfill instants (submit time plus latency) are monotone
    /// non-decreasing in fulfill order; each latency is trivially
    /// non-negative (`Instant::elapsed` saturates). The same reading
    /// feeds the per-model histogram exported by
    /// [`Service::metrics_text`].
    pub latency: Duration,
}

#[derive(Debug, Default)]
struct TicketSlot {
    result: Mutex<Option<Result<InferenceResult, ServeError>>>,
    done: Condvar,
}

/// The caller's handle to an accepted request; [`wait`](Ticket::wait)
/// blocks until a worker fulfills it, [`wait_timeout`](Ticket::wait_timeout)
/// bounds the wait.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    model: ModelId,
    slot: Arc<TicketSlot>,
}

impl Ticket {
    /// The service-assigned request id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The model the request targets.
    pub fn model(&self) -> ModelId {
        self.model
    }

    /// Blocks until the request completes.
    ///
    /// A poisoned slot lock (the fulfilling side panicked at exactly
    /// the wrong instant) is recovered, not propagated: fulfillment is
    /// a single `Option` store, so the recovered state is always either
    /// "not yet" or a complete result.
    ///
    /// # Errors
    /// [`ServeError::Run`]/[`ServeError::WorkerPanic`] when execution
    /// failed, [`ServeError::DeadlineExceeded`] when the request's
    /// deadline shed it, [`ServeError::Canceled`] when the service
    /// stopped before running it.
    pub fn wait(self) -> Result<InferenceResult, ServeError> {
        let mut slot = self
            .slot
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .slot
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`wait`](Ticket::wait) bounded by `timeout`: resolves to
    /// [`ServeError::DeadlineExceeded`] if no result arrives in time.
    ///
    /// Giving up does **not** cancel the request server-side — it still
    /// runs (or sheds on its own deadline) and its eventual result is
    /// discarded when the last slot reference drops; nothing leaks and
    /// no waiter hangs. Pair with
    /// [`Service::submit_with_deadline`] to also stop the service from
    /// spending compute on it.
    ///
    /// # Errors
    /// As [`wait`](Ticket::wait), plus [`ServeError::DeadlineExceeded`]
    /// on timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<InferenceResult, ServeError> {
        // A timeout too large to represent as an instant (`Duration::MAX`
        // as "no timeout") saturates to an unbounded wait instead of
        // overflowing — `Instant + Duration` would panic here.
        let Some(give_up) = Instant::now().checked_add(timeout) else {
            return self.wait();
        };
        let mut slot = self
            .slot
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            // Spurious-wakeup discipline: the predicate re-checks above
            // and the *remaining* time is recomputed from the absolute
            // deadline — a storm of stray notifies can never extend the
            // wait past `timeout` (pinned by
            // `spurious_wakeups_do_not_extend_the_timeout`).
            let now = Instant::now();
            if now >= give_up {
                return Err(ServeError::DeadlineExceeded);
            }
            let (guard, _timed_out) = self
                .slot
                .done
                .wait_timeout(slot, give_up - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }
}

/// An accepted request travelling through the queue. Fulfillment is
/// linear: exactly one of [`fulfill`](Pending::fulfill) or the drop
/// guard (which reports [`ServeError::Canceled`] and counts the
/// `canceled` shed class) resolves the ticket, so a waiting caller can
/// never hang on a dropped request — even when the drop happens inside
/// a dying worker's unwind.
#[derive(Debug)]
pub(crate) struct Pending {
    id: u64,
    model: ModelId,
    input: Tensor<i8>,
    /// The prepared artifact resolved at submit time. Carrying it here
    /// (instead of re-resolving `model` in the worker) lets the batcher
    /// coalesce by *artifact* identity: two [`ModelId`]s aliasing the
    /// same cached model — re-registrations share one prepared graph —
    /// still batch together, and the worker needs no model-table lock.
    prepared: Arc<PreparedGraph<'static>>,
    slot: Option<Arc<TicketSlot>>,
    submitted: Instant,
    /// Shed the request instead of dispatching it past this instant.
    deadline: Option<Instant>,
    /// Scheduling class: dispatch order and shed policy (see
    /// [`Priority`]).
    priority: Priority,
    /// Shared counters, so the drop guard can record the cancellation
    /// wherever it fires (worker unwind, queue cancel, service drop).
    stats: Arc<AtomicStats>,
    /// The request's per-model metric slot (same lifetime rationale as
    /// `stats`: the drop guard and the fulfill paths count into it
    /// wherever they run).
    metrics: Arc<ModelMetrics>,
}

/// The queue dispatch order: priority class first, then
/// earliest-deadline-first within the class (deadline-less requests
/// rank after deadlined ones of their class, FIFO by submit time), with
/// the unique request id as the final tiebreak so the order is total
/// and two identical queues always dispatch identically.
fn dispatch_order(p: &Pending) -> (usize, bool, Instant, u64) {
    (
        p.priority.rank(),
        p.deadline.is_none(),
        p.deadline.unwrap_or(p.submitted),
        p.id,
    )
}

impl Pending {
    fn fulfill(mut self, result: Result<InferenceResult, ServeError>) {
        let Some(slot) = self.slot.take() else { return };
        *slot.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        slot.done.notify_all();
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.stats.shed_canceled.fetch_add(1, Ordering::SeqCst);
            self.metrics.record_canceled();
            *slot.result.lock().unwrap_or_else(PoisonError::into_inner) =
                Some(Err(ServeError::Canceled));
            slot.done.notify_all();
        }
    }
}

/// Monotonic service counters; read them as a consistent snapshot via
/// [`Service::stats`] after [`Service::drain`] (mid-flight reads are
/// individually accurate but may straddle a batch).
///
/// Accounting invariant (after a drain): every *accepted* request lands
/// in exactly one of `completed`, `failed`, `shed_expired`,
/// `shed_canceled` or `shed_preempted`, so `submitted == completed +
/// failed + shed_expired + shed_canceled + shed_preempted`; rejected
/// submissions are the caller's tally (`shed` for the `full` class,
/// plus the returned `Closed`/`Poisoned`/validation errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests fulfilled with a result.
    pub completed: u64,
    /// Requests fulfilled with an execution error
    /// ([`ServeError::Run`] or [`ServeError::WorkerPanic`]).
    pub failed: u64,
    /// Shed class `full`: requests refused at the full queue (reported
    /// to the submitter, see [`SubmitError::Shed`]; never accepted).
    pub shed: u64,
    /// `shed` broken down by the rejected request's [`Priority`]
    /// (indexed by [`Priority::rank`]). The displacement policy makes
    /// `shed_full_by_class[0]` structurally zero while any lower class
    /// occupies a queue slot — the overload soak pins exactly that.
    pub shed_full_by_class: [u64; 3],
    /// Shed class `expired`: accepted requests shed at dispatch because
    /// their deadline had passed ([`ServeError::DeadlineExceeded`]).
    pub shed_expired: u64,
    /// Shed class `canceled`: accepted requests resolved
    /// [`ServeError::Canceled`] (worker death with the batch in hand,
    /// poisoning, or shutdown racing the queue).
    pub shed_canceled: u64,
    /// Shed class `preempted`: accepted requests whose queue slot was
    /// displaced by a higher-priority submit ([`ServeError::Preempted`]).
    pub shed_preempted: u64,
    /// Panics caught by the per-batch isolation (batch passes and
    /// individual re-runs).
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor.
    pub restarts: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch coalesced so far.
    pub max_coalesced: u64,
}

#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    shed_full_by_class: [AtomicU64; 3],
    shed_expired: AtomicU64,
    shed_canceled: AtomicU64,
    shed_preempted: AtomicU64,
    worker_panics: AtomicU64,
    pub(crate) restarts: AtomicU64,
    batches: AtomicU64,
    max_coalesced: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ServiceStats {
        // Read order matters for a mid-flight snapshot: terminal classes
        // before `submitted` (which writers pre-increment), and the
        // per-class breakdown before the `shed` aggregate — so the
        // snapshot can undercount late arrivals but never shows a
        // terminal sum exceeding `submitted` or a breakdown exceeding
        // its aggregate.
        let completed = self.completed.load(Ordering::SeqCst);
        let failed = self.failed.load(Ordering::SeqCst);
        let shed_full_by_class = [
            self.shed_full_by_class[0].load(Ordering::SeqCst),
            self.shed_full_by_class[1].load(Ordering::SeqCst),
            self.shed_full_by_class[2].load(Ordering::SeqCst),
        ];
        let shed = self.shed.load(Ordering::SeqCst);
        let shed_expired = self.shed_expired.load(Ordering::SeqCst);
        let shed_canceled = self.shed_canceled.load(Ordering::SeqCst);
        let shed_preempted = self.shed_preempted.load(Ordering::SeqCst);
        let worker_panics = self.worker_panics.load(Ordering::SeqCst);
        let restarts = self.restarts.load(Ordering::SeqCst);
        let batches = self.batches.load(Ordering::SeqCst);
        let max_coalesced = self.max_coalesced.load(Ordering::SeqCst);
        let submitted = self.submitted.load(Ordering::SeqCst);
        ServiceStats {
            submitted,
            completed,
            failed,
            shed,
            shed_full_by_class,
            shed_expired,
            shed_canceled,
            shed_preempted,
            worker_panics,
            restarts,
            batches,
            max_coalesced,
        }
    }
}

/// One registered model. The table keeps everything needed to
/// *re-resolve* the artifact — name, graph, final options — and only a
/// [`Weak`] to the artifact itself, so an idle registered model does
/// not pin its cache entry: the cache's byte budget governs artifact
/// lifetime, and a model evicted while idle is transparently
/// re-prepared (a cache miss) on its next submit.
#[derive(Debug)]
struct ModelSlot {
    name: String,
    graph: Arc<Graph>,
    opts: Options,
    prepared: Mutex<Weak<PreparedGraph<'static>>>,
    /// The per-model metric slot, shared with every in-flight request
    /// of this model. Keyed by name in the registry, so aliased
    /// registrations feed one series.
    metrics: Arc<ModelMetrics>,
}

#[derive(Debug)]
pub(crate) struct ServiceInner {
    pub(crate) config: ServiceConfig,
    pub(crate) queue: BoundedQueue<Pending>,
    models: RwLock<Vec<ModelSlot>>,
    cache: ModelCache,
    next_id: AtomicU64,
    pub(crate) stats: Arc<AtomicStats>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) supervisor: Supervisor,
}

/// The batched inference service. Construction spawns the supervised
/// worker pool; [`register`](Service::register) adds models (cached by
/// (model, format, options)), [`submit`](Service::submit) /
/// [`submit_with_deadline`](Service::submit_with_deadline) enqueue
/// requests, [`shutdown`](Service::shutdown) closes admissions, drains
/// and joins. Dropping the service performs the same orderly shutdown —
/// including during another panic's unwind, where it must not
/// double-panic or leave a waiter parked.
#[derive(Debug)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Starts the supervised worker pool.
    ///
    /// # Panics
    /// Panics on a zero `workers`, `max_batch` or `queue_capacity` —
    /// all three would deadlock or reject everything; use
    /// [`try_start`](Self::try_start) to get the refusal as a
    /// [`ConfigError`] instead — and if the initial worker threads
    /// cannot be spawned at all.
    pub fn start(config: ServiceConfig) -> Self {
        match Self::try_start(config) {
            Ok(service) => service,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`start`](Self::start) that reports an unusable configuration as
    /// a [`ConfigError`] instead of panicking — the embeddable entry
    /// point for hosts that assemble configs from external input.
    ///
    /// # Errors
    /// One [`ConfigError`] variant per refused field; nothing is
    /// spawned on failure.
    ///
    /// # Panics
    /// Still panics if the initial worker threads cannot be spawned at
    /// all (thread creation failing at startup is an environment
    /// failure, not a configuration one).
    pub fn try_start(config: ServiceConfig) -> Result<Self, ConfigError> {
        if config.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if config.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if config.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        let inner = Arc::new(ServiceInner {
            queue: BoundedQueue::new(config.queue_capacity),
            models: RwLock::new(Vec::new()),
            cache: ModelCache::configured(config.cache_budget, config.fault_plan.clone()),
            next_id: AtomicU64::new(0),
            stats: Arc::new(AtomicStats::default()),
            metrics: MetricsRegistry::default(),
            supervisor: Supervisor::new(),
            config,
        });
        for _ in 0..inner.config.workers {
            Supervisor::spawn_worker(&inner, Duration::ZERO)
                .unwrap_or_else(|e| panic!("spawn initial worker: {e}"));
        }
        Ok(Service { inner })
    }

    /// Registers `graph` under `name` with compilation `opts`, preparing
    /// it through the service's model cache (a re-registration with the
    /// same name and options reuses the cached artifact and returns a
    /// new id aliasing it). `opts.tier` is overridden by
    /// [`ServiceConfig::tier`] — one service runs one execution tier —
    /// so two registrations differing only in tier alias the same
    /// cached artifact.
    ///
    /// # Errors
    /// [`ServeError::Run`] propagates preparation failures (e.g.
    /// [`Error::OutOfMemory`] for a model whose minimum tile exceeds
    /// the L1 budget); [`ServeError::CacheOverBudget`] refuses a model
    /// that cannot fit [`ServiceConfig::cache_budget`] even after
    /// evicting every unpinned cached artifact. Nothing is registered
    /// in either case, and the cache and model table stay fully usable
    /// for subsequent registrations.
    pub fn register(
        &self,
        name: &str,
        graph: &Arc<Graph>,
        opts: &Options,
    ) -> Result<ModelId, ServeError> {
        let mut opts = *opts;
        opts.tier = self.inner.config.tier;
        let prepared = self
            .inner
            .cache
            .get_or_prepare(name, graph, &opts)
            .map_err(serve_error_from_cache)?;
        let mut models = self
            .inner
            .models
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        models.push(ModelSlot {
            name: name.to_string(),
            graph: Arc::clone(graph),
            opts,
            // Downgraded on purpose: a registered-but-idle model keeps
            // no strong ref, so the cache may evict it under budget
            // pressure; `resolve` re-prepares on demand.
            prepared: Mutex::new(Arc::downgrade(&prepared)),
            metrics: self.inner.metrics.handle(name),
        });
        Ok(ModelId(models.len() - 1))
    }

    /// The model's prepared artifact, upgraded from the slot's weak ref
    /// or — after an eviction — re-resolved through the cache (a miss
    /// that may itself evict colder models). The slot mutex serializes
    /// concurrent re-resolves of one model so an eviction storm costs
    /// one prepare, not one per waiter. Lock order is always models →
    /// slot → cache; the cache never takes the model table lock, so
    /// this cannot deadlock with `register`.
    fn resolve(
        &self,
        model: ModelId,
    ) -> Result<(Arc<PreparedGraph<'static>>, Arc<ModelMetrics>), SubmitError> {
        let models = self
            .inner
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = models
            .get(model.0)
            .ok_or(SubmitError::UnknownModel(model))?;
        let metrics = Arc::clone(&slot.metrics);
        let mut weak = slot.prepared.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(prepared) = weak.upgrade() {
            return Ok((prepared, metrics));
        }
        match self
            .inner
            .cache
            .get_or_prepare(&slot.name, &slot.graph, &slot.opts)
        {
            Ok(prepared) => {
                *weak = Arc::downgrade(&prepared);
                Ok((prepared, metrics))
            }
            Err(e) => Err(SubmitError::ModelUnavailable {
                model,
                reason: e.to_string(),
            }),
        }
    }

    /// Submits one inference request at the default [`Priority::Batch`]
    /// class, returning a [`Ticket`] to wait on.
    ///
    /// # Errors
    /// See [`SubmitError`]; in particular a full queue sheds the request
    /// (reported, counted, never silently dropped) unless displacing a
    /// strictly lower-priority queued request can make room.
    pub fn submit(&self, model: ModelId, input: Tensor<i8>) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(model, input, None, Priority::Batch)
    }

    /// [`submit`](Service::submit) with an optional deadline and an
    /// explicit [`Priority`] class. A request still queued when
    /// `deadline` passes is shed at the next dispatch instead of
    /// executed — its ticket resolves [`ServeError::DeadlineExceeded`]
    /// and the shed lands in the `expired` class
    /// ([`ServiceStats::shed_expired`]). A request already handed to a
    /// worker runs to completion (dispatch is the shed point, not a
    /// preemption point). Dispatch is earliest-deadline-first within
    /// priority bands; a full queue displaces a strictly lower-priority
    /// queued request (resolved [`ServeError::Preempted`], counted in
    /// [`ServiceStats::shed_preempted`]) before shedding the newcomer.
    /// Pair with [`Ticket::wait_timeout`] to bound the caller side too.
    ///
    /// # Errors
    /// See [`SubmitError`]. An already-expired deadline is still
    /// accepted (and then shed at dispatch): the asynchronous shed path
    /// keeps one set of semantics instead of racing the clock at two
    /// admission points.
    pub fn submit_with_deadline(
        &self,
        model: ModelId,
        input: Tensor<i8>,
        deadline: Option<Instant>,
        priority: Priority,
    ) -> Result<Ticket, SubmitError> {
        let (prepared, metrics) = self.resolve(model)?;
        if input.shape() != prepared.graph().input_shape() {
            return Err(SubmitError::InvalidInput(format!(
                "input shape {:?} != model input {:?}",
                input.shape(),
                prepared.graph().input_shape()
            )));
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let slot = Arc::new(TicketSlot::default());
        let pending = Pending {
            id,
            model,
            input,
            prepared,
            slot: Some(Arc::clone(&slot)),
            submitted: Instant::now(),
            deadline,
            priority,
            stats: Arc::clone(&self.inner.stats),
            metrics: Arc::clone(&metrics),
        };
        // `submitted` is pre-incremented (global before per-model)
        // *before* the push: once the request is in the queue a worker
        // may complete it immediately, and a scrape racing that must
        // never see a terminal counter exceed `submitted`. A rejected
        // push undoes the increments in the opposite order (per-model
        // before global), keeping per-model <= global at every instant.
        self.inner.stats.submitted.fetch_add(1, Ordering::SeqCst);
        metrics.record_submitted();
        let push =
            self.inner
                .queue
                .push_or_displace(pending, |p| p.priority.rank(), dispatch_order);
        match push {
            Ok((_, displaced)) => {
                if let Some(victim) = displaced {
                    // The victim was accepted earlier (counted
                    // submitted); it resolves Preempted here, keeping
                    // the accounting invariant exact.
                    self.inner
                        .stats
                        .shed_preempted
                        .fetch_add(1, Ordering::SeqCst);
                    victim.metrics.record_preempted();
                    victim.fulfill(Err(ServeError::Preempted));
                }
                Ok(Ticket { id, model, slot })
            }
            Err(PushError::Full(rejected)) => {
                // Disarm the drop guard: the caller holds no ticket, so
                // nothing must be fulfilled — but the shed is counted
                // and reported, never silent.
                let mut rejected = rejected;
                rejected.slot = None;
                metrics.unrecord_submitted();
                self.inner.stats.submitted.fetch_sub(1, Ordering::SeqCst);
                self.inner.stats.shed.fetch_add(1, Ordering::SeqCst);
                self.inner.stats.shed_full_by_class[priority.rank()].fetch_add(1, Ordering::SeqCst);
                Err(SubmitError::Shed {
                    capacity: self.inner.config.queue_capacity,
                })
            }
            Err(PushError::Closed(rejected)) => {
                let mut rejected = rejected;
                rejected.slot = None;
                metrics.unrecord_submitted();
                self.inner.stats.submitted.fetch_sub(1, Ordering::SeqCst);
                if self.inner.supervisor.is_poisoned() {
                    Err(SubmitError::Poisoned)
                } else {
                    Err(SubmitError::Closed)
                }
            }
        }
    }

    /// Blocks until every accepted request has been fulfilled (queue
    /// empty, no batch in flight). Admissions stay open.
    pub fn drain(&self) {
        self.inner.queue.wait_idle();
    }

    /// Closes admissions without blocking: subsequent submits fail with
    /// [`SubmitError::Closed`], already-accepted requests still run to
    /// completion. The first half of the shutdown protocol, usable from
    /// any thread holding a shared reference.
    pub fn close(&self) {
        self.inner.queue.close();
    }

    /// Pauses the worker pool: submissions keep landing (up to the
    /// queue bound) but nothing is popped until [`resume`](Self::resume).
    /// This is the batch-shaping gate — enqueue a whole wave while
    /// paused and the coalescer sees the full same-model run at once,
    /// instead of whatever prefix won the race against the workers.
    /// Used by the serving benchmarks for comparable waves and by the
    /// deterministic coalescing tests; also the warm-up pattern for
    /// accepting traffic while models finish registering. Deadline
    /// shedding happens at dispatch, so a paused queue sheds nothing
    /// until resumed. [`close`](Self::close)/shutdown override a pause,
    /// so a paused service still drains and exits cleanly.
    pub fn pause(&self) {
        self.inner.queue.pause();
    }

    /// Resumes a [`pause`](Self::pause)d worker pool.
    pub fn resume(&self) {
        self.inner.queue.resume();
    }

    /// Orderly shutdown: closes admissions, lets the workers drain the
    /// queue, joins them and returns the final counters. Guaranteed to
    /// leave the queue empty with nothing in flight.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        let stats = self.inner.stats.snapshot();
        debug_assert!(self.inner.queue.is_empty());
        debug_assert_eq!(self.inner.queue.in_flight(), 0);
        stats
    }

    /// Current counters (see [`ServiceStats`] for read-consistency
    /// caveats while requests are in flight).
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats.snapshot()
    }

    /// One consistent scrape of everything the service exports: the
    /// per-model counters and latency histograms, the queue-depth
    /// gauges (sampled under the queue mutex), the cache ledger and the
    /// service ledger. The read order (per-model first, `submitted`
    /// last) pairs with the increment order so even a scrape racing
    /// live traffic satisfies
    /// [`MetricsSnapshot::check_internal`]; after a
    /// [`drain`](Self::drain) the snapshot reconciles exactly
    /// ([`MetricsSnapshot::check_quiesced`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let models = self.inner.metrics.snapshot_models();
        let (depth, high_water) = self.inner.queue.depth_stats();
        let cache = self.inner.cache.stats();
        let service = self.inner.stats.snapshot();
        MetricsSnapshot {
            models,
            queue_depth: depth as u64,
            queue_depth_high_water: high_water as u64,
            cache,
            service,
        }
    }

    /// [`metrics_snapshot`](Self::metrics_snapshot) rendered in the
    /// Prometheus text exposition format — the scrapeable surface. The
    /// export is *gated*, not just printed:
    /// [`parse_text`](crate::metrics::parse_text) recovers the snapshot
    /// from the text, and the serving test suites assert the parsed
    /// ledgers equal [`stats`](Self::stats)/[`cache_stats`](Self::cache_stats)
    /// exactly. See the crate-level "Observability" section for the
    /// metric names and determinism caveats.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render()
    }

    /// Whether a worker death exhausted
    /// [`ServiceConfig::restart_budget`] (or a respawn failed) and the
    /// service poisoned itself: admissions are closed, queued requests
    /// were canceled. A poisoned service is safe to query, drain and
    /// shut down — it just serves nothing anymore.
    pub fn is_poisoned(&self) -> bool {
        self.inner.supervisor.is_poisoned()
    }

    /// Models registered.
    pub fn model_count(&self) -> usize {
        self.inner
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Waiting requests (excludes batches already handed to workers).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }

    /// Prepared-artifact cache counters and byte gauges, keyed by
    /// (model, format, options) — see [`CacheStats`] for the field
    /// semantics (a registration whose prepare *fails* counts in
    /// `failed_prepares`, never as a miss). Replaces the old positional
    /// `cache_counters() -> (u64, u64)` tuple.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Never panics: runs during `Drop`, which may itself run during
    /// another panic's unwind — a second panic there would abort the
    /// process and eat the original message. Worker panics were already
    /// accounted (contained per batch, or respawn/poison at the thread
    /// level), so the join swallows them instead of resurfacing.
    fn close_and_join(&mut self) {
        self.inner.queue.close();
        self.inner.supervisor.join_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Acknowledges a popped batch on every exit path — panics included.
/// [`BoundedQueue::wait_idle`]'s drain guarantee assumes `task_done`
/// always runs for popped items; without this guard, a dying worker
/// would leave `in_flight` stuck and wedge every drainer (its tickets
/// are canceled separately by the [`Pending`] drop guard).
struct AckOnDrop<'a> {
    queue: &'a BoundedQueue<Pending>,
    n: usize,
}

impl Drop for AckOnDrop<'_> {
    fn drop(&mut self) {
        self.queue.task_done(self.n);
    }
}

/// Closes `queue` and cancels every request still in it (their
/// [`Pending`] drop guards resolve the tickets `Canceled` and count the
/// `canceled` shed class), leaving the queue closed, empty and — once
/// live batches acknowledge — idle. The supervisor's poisoning path and
/// the tests share this.
pub(crate) fn cancel_queued(queue: &BoundedQueue<Pending>) {
    queue.close();
    // All items share the unit key, so each pop drains a maximal run;
    // the loop ends when the closed queue reports empty.
    while let Some(batch) = queue.pop_batch(usize::MAX, |_| ()) {
        let n = batch.len();
        drop(batch);
        queue.task_done(n);
    }
}

/// Best-effort text of a panic payload, for [`ServeError::WorkerPanic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The worker loop: pop a coalesced same-model batch (shedding expired
/// requests at dispatch), execute it under panic isolation, fulfill
/// every ticket, acknowledge. Runs under the supervisor's respawn guard
/// — anything escaping this function's containment kills only this
/// thread, and the supervisor decides between respawn and poisoning.
pub(crate) fn worker_loop(inner: &ServiceInner) {
    let plan = inner.config.fault_plan.as_deref();
    // Coalescing keys on the prepared *artifact*, not the ModelId:
    // aliased registrations of one cached model batch together.
    while let Some(popped) = inner.queue.pop_batch_or_shed(
        inner.config.max_batch,
        |p: &Pending| Arc::as_ptr(&p.prepared),
        |p: &Pending| p.deadline.is_some_and(|d| Instant::now() >= d),
        dispatch_order,
    ) {
        let Popped { batch, expired } = popped;
        let ack = AckOnDrop {
            queue: &inner.queue,
            n: batch.len() + expired.len(),
        };
        for pending in expired {
            inner.stats.shed_expired.fetch_add(1, Ordering::SeqCst);
            pending.metrics.record_expired();
            pending.fulfill(Err(ServeError::DeadlineExceeded));
        }
        if !batch.is_empty() {
            let injected = plan.and_then(|p| p.check(FaultPoint::BatchRun));
            if injected == Some(FaultAction::KillWorker) {
                // Deliberately outside the batch isolation: this panic
                // unwinds the worker thread. The held batch cancels via
                // the Pending drop guards, the ack guard releases the
                // in-flight count, and the supervisor's respawn guard
                // spends restart budget on a replacement.
                panic!("injected fault: batch_run kill-worker");
            }
            run_batch_isolated(inner, batch, injected);
        }
        drop(ack); // acknowledge (also runs if the above panics)
    }
}

/// Executes one coalesced batch with panic isolation: a panic anywhere
/// in the batch pass fails nobody outright — every request is re-run
/// individually (bit+cycle identical to a sequential run by the
/// determinism contract), and only a request whose *own* re-run panics
/// resolves [`ServeError::WorkerPanic`].
fn run_batch_isolated(inner: &ServiceInner, batch: Vec<Pending>, injected: Option<FaultAction>) {
    let n = batch.len();
    let Some(first) = batch.first() else { return };
    let prepared = Arc::clone(&first.prepared);
    // Cycles are only defined on the cycle-accurate tiers; the native
    // tier reports `None` rather than a meaningless zero.
    let cycle_accurate = inner.config.tier.is_cycle_accurate();
    inner.stats.batches.fetch_add(1, Ordering::SeqCst);
    inner
        .stats
        .max_coalesced
        .fetch_max(n as u64, Ordering::SeqCst);
    let outcome = {
        let inputs: Vec<&Tensor<i8>> = batch.iter().map(|p| &p.input).collect();
        match injected {
            Some(FaultAction::Error) => Ok(Err(Error::Unsupported(
                "injected fault: batch_run".to_string(),
            ))),
            Some(_) => catch_unwind(AssertUnwindSafe(|| -> nm_core::Result<_> {
                panic!("injected fault: batch_run")
            })),
            None => catch_unwind(AssertUnwindSafe(|| prepared.run_batch(&inputs))),
        }
    };
    match outcome {
        Ok(Ok(runs)) => {
            let mode = prepared.batch_plan().executed(n);
            for (pending, run) in batch.into_iter().zip(runs) {
                // One reading per request: the same latency feeds the
                // result and the per-model histogram (global counter
                // first, then the per-model slot — the torn-scrape
                // write order).
                let latency = pending.submitted.elapsed();
                inner.stats.completed.fetch_add(1, Ordering::SeqCst);
                pending.metrics.record_completed(latency);
                let result = InferenceResult {
                    id: pending.id,
                    model: pending.model,
                    output: run.output,
                    sim_cycles: cycle_accurate.then_some(run.matmul_compute_cycles),
                    batch_size: n,
                    mode,
                    latency,
                };
                pending.fulfill(Ok(result));
            }
        }
        Ok(Err(e)) => {
            // Submit-time shape validation leaves staging/kernel errors
            // as the only failures here; every rider of the batch
            // learns about it.
            for pending in batch {
                inner.stats.failed.fetch_add(1, Ordering::SeqCst);
                pending.metrics.record_failed();
                pending.fulfill(Err(ServeError::Run(e.clone())));
            }
        }
        Err(_batch_panic) => {
            // The batch pass panicked. Isolate: each request runs alone
            // (its result then bit+cycle identical to the sequential
            // baseline), and only a request that panics *again* on its
            // own fails — with its own message.
            inner.stats.worker_panics.fetch_add(1, Ordering::SeqCst);
            let plan = inner.config.fault_plan.as_deref();
            for pending in batch {
                let one = catch_unwind(AssertUnwindSafe(|| {
                    // Re-runs are batch_run occurrences too, so a plan
                    // can target the retry path deterministically. Any
                    // armed action panics here — inside the isolation.
                    if let Some(plan) = plan {
                        if plan.check(FaultPoint::BatchRun).is_some() {
                            panic!("injected fault: batch_run (isolation re-run)");
                        }
                    }
                    prepared.run(&pending.input)
                }));
                match one {
                    Ok(Ok(run)) => {
                        // Same attribution as the batch path: measured
                        // at fulfill, so it additionally covers the
                        // failed batch pass and earlier re-runs of the
                        // same batch (see `InferenceResult::latency`).
                        let latency = pending.submitted.elapsed();
                        inner.stats.completed.fetch_add(1, Ordering::SeqCst);
                        pending.metrics.record_completed(latency);
                        let result = InferenceResult {
                            id: pending.id,
                            model: pending.model,
                            output: run.output,
                            sim_cycles: cycle_accurate.then_some(run.matmul_compute_cycles),
                            batch_size: 1,
                            mode: prepared.batch_plan().executed(1),
                            latency,
                        };
                        pending.fulfill(Ok(result));
                    }
                    Ok(Err(e)) => {
                        inner.stats.failed.fetch_add(1, Ordering::SeqCst);
                        pending.metrics.record_failed();
                        pending.fulfill(Err(ServeError::Run(e)));
                    }
                    Err(payload) => {
                        inner.stats.worker_panics.fetch_add(1, Ordering::SeqCst);
                        inner.stats.failed.fetch_add(1, Ordering::SeqCst);
                        pending.metrics.record_failed();
                        pending.fulfill(Err(ServeError::WorkerPanic(panic_message(&*payload))));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_compiler::Target;
    use nm_core::quant::Requant;
    use nm_core::FcGeom;
    use nm_nn::layer::LinearLayer;
    use nm_nn::rng::XorShift;
    use nm_nn::GraphBuilder;

    fn tiny_prepared() -> Arc<PreparedGraph<'static>> {
        let mut b = GraphBuilder::new(&[16]);
        let layer = LinearLayer::new(
            FcGeom::new(16, 8).unwrap(),
            XorShift::new(3).fill_weights(16 * 8, 30),
            Requant::for_dot_len(16),
        )
        .unwrap();
        let out = b.linear(b.input(), layer).unwrap();
        let graph = Arc::new(b.finish(out).unwrap());
        let opts = Options::new(Target::DensePulpNn);
        Arc::new(PreparedGraph::prepare_shared(graph, &opts).unwrap())
    }

    fn queued_pending(queue: &BoundedQueue<Pending>, stats: &Arc<AtomicStats>, id: u64) -> Ticket {
        let prepared = tiny_prepared();
        let slot = Arc::new(TicketSlot::default());
        let ticket = Ticket {
            id,
            model: ModelId(0),
            slot: Arc::clone(&slot),
        };
        assert!(
            queue
                .push(Pending {
                    id,
                    model: ModelId(0),
                    input: Tensor::from_vec(&[16], vec![0i8; 16]).unwrap(),
                    prepared,
                    slot: Some(slot),
                    submitted: Instant::now(),
                    deadline: None,
                    priority: Priority::Batch,
                    stats: Arc::clone(stats),
                    metrics: MetricsRegistry::default().handle("test"),
                })
                .is_ok(),
            "queue admits the request"
        );
        ticket
    }

    /// The dead-consumer recovery path (supervisor poisoning →
    /// [`cancel_queued`]): queued requests are canceled — their waiters
    /// unblock with [`ServeError::Canceled`] instead of hanging, the
    /// `canceled` shed class counts them — and the queue ends closed,
    /// empty and drainable.
    #[test]
    fn cancel_queued_unblocks_waiters_with_canceled() {
        let queue: BoundedQueue<Pending> = BoundedQueue::new(4);
        let stats = Arc::new(AtomicStats::default());
        let ticket = queued_pending(&queue, &stats, 7);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || ticket.wait());
            cancel_queued(&queue);
            assert!(matches!(waiter.join().unwrap(), Err(ServeError::Canceled)));
        });
        assert!(queue.is_closed());
        assert!(queue.is_empty());
        assert_eq!(stats.snapshot().shed_canceled, 1, "canceled class counted");
        queue.wait_idle(); // nothing in flight: returns immediately
    }

    /// `wait_timeout` must bound the wait on an unfulfilled ticket with
    /// [`ServeError::DeadlineExceeded`], and the eventual fulfillment
    /// of the abandoned request must not hang or leak — the slot simply
    /// absorbs the discarded result.
    #[test]
    fn wait_timeout_bounds_the_wait_without_leaking() {
        let queue: BoundedQueue<Pending> = BoundedQueue::new(4);
        let stats = Arc::new(AtomicStats::default());
        let ticket = queued_pending(&queue, &stats, 1);
        let t = Instant::now();
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(20)),
            Err(ServeError::DeadlineExceeded)
        ));
        assert!(t.elapsed() >= Duration::from_millis(20));
        // The abandoned request is still resolvable: cancel it and
        // observe nothing panics with the ticket side already gone.
        cancel_queued(&queue);
        assert_eq!(stats.snapshot().shed_canceled, 1);
    }

    /// Regression for the `Instant + Duration` overflow panic:
    /// `wait_timeout(Duration::MAX)` must behave as "no timeout" — the
    /// waiter blocks (no panic at call time) until the request resolves.
    /// Here the resolution is a cancellation arriving well after the
    /// call, proving the waiter survived the interval where the old
    /// code had already panicked.
    #[test]
    fn wait_timeout_duration_max_means_wait_forever() {
        let queue: BoundedQueue<Pending> = BoundedQueue::new(4);
        let stats = Arc::new(AtomicStats::default());
        let ticket = queued_pending(&queue, &stats, 42);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || ticket.wait_timeout(Duration::MAX));
            std::thread::sleep(Duration::from_millis(30));
            assert!(!waiter.is_finished(), "the huge timeout must not fire");
            cancel_queued(&queue);
            assert!(matches!(waiter.join().unwrap(), Err(ServeError::Canceled)));
        });
    }

    /// Pins the spurious-wakeup discipline of `wait_timeout`: a waiter
    /// bombarded with stray notifies (no result stored) must still time
    /// out on the original schedule — each wakeup re-checks the
    /// predicate and re-waits only the *remaining* time, never the full
    /// timeout again.
    #[test]
    fn spurious_wakeups_do_not_extend_the_timeout() {
        let slot = Arc::new(TicketSlot::default());
        let ticket = Ticket {
            id: 9,
            model: ModelId(0),
            slot: Arc::clone(&slot),
        };
        let timeout = Duration::from_millis(100);
        std::thread::scope(|scope| {
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let notifier = {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        slot.done.notify_all();
                        std::thread::sleep(Duration::from_millis(2));
                    }
                })
            };
            let start = Instant::now();
            let got = ticket.wait_timeout(timeout);
            let waited = start.elapsed();
            stop.store(true, Ordering::SeqCst);
            notifier.join().expect("notifier exits");
            assert!(matches!(got, Err(ServeError::DeadlineExceeded)));
            assert!(waited >= timeout, "timed out early at {waited:?}");
            // ~50 notifies land during the wait; re-waiting the full
            // timeout per notify would take seconds. Generous bound for
            // loaded CI hosts.
            assert!(
                waited < Duration::from_secs(5),
                "stray notifies extended the wait to {waited:?}"
            );
        });
    }

    /// One regression per refused field: `try_start` names the exact
    /// zero knob instead of panicking, and a valid config still starts.
    #[test]
    fn try_start_refuses_each_zero_field_by_name() {
        let base = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let cases = [
            (
                ServiceConfig {
                    workers: 0,
                    ..base.clone()
                },
                ConfigError::ZeroWorkers,
            ),
            (
                ServiceConfig {
                    max_batch: 0,
                    ..base.clone()
                },
                ConfigError::ZeroMaxBatch,
            ),
            (
                ServiceConfig {
                    queue_capacity: 0,
                    ..base.clone()
                },
                ConfigError::ZeroQueueCapacity,
            ),
        ];
        for (config, want) in cases {
            match Service::try_start(config) {
                Err(got) => assert_eq!(got, want),
                Ok(_) => panic!("expected {want:?}"),
            }
        }
        let service = Service::try_start(base).expect("valid config starts");
        drop(service); // orderly shutdown of the zero-model service
    }

    /// `start` routes through `try_start`: a zero field still panics
    /// (the documented legacy contract) with the ConfigError's message.
    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn start_panics_on_zero_workers() {
        let _ = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
    }
}
