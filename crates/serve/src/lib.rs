// The serving layer must never take the process down on a recoverable
// failure, so production code here forbids implicit panic sites; tests
// are exempt (an unwrap in a test IS the assertion).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # nm-serve
//!
//! A batched inference service over pooled, compile-once
//! [`PreparedGraph`]s — the serving layer the emulation stack feeds:
//! many requests share one prepared model (weights packed and kernel
//! programs decoded exactly once per (model, format, options) cache
//! key), a bounded submission queue applies backpressure by shedding,
//! and a worker pool coalesces same-model requests into batches that
//! run layer-major: each Conv/Linear tile's packed weights are staged
//! once per batch and every request sweeps through them. A graph
//! without such layers, or a batch of one, shares no work — the
//! executed [`BatchPlan`] is reported on every result
//! ([`InferenceResult::mode`]).
//!
//! ```no_run
//! # use nm_serve::{Service, ServiceConfig};
//! # use std::sync::Arc;
//! # fn demo(graph: Arc<nm_nn::graph::Graph>, inputs: Vec<nm_core::Tensor<i8>>) {
//! let service = Service::start(ServiceConfig::default());
//! let opts = nm_compiler::Options::new(nm_compiler::Target::SparseIsa);
//! let model = service.register("mlp", &graph, &opts).unwrap();
//! let tickets: Vec<_> = inputs
//!     .into_iter()
//!     .map(|x| service.submit(model, x).expect("not shed"))
//!     .collect();
//! for t in tickets {
//!     let r = t.wait().unwrap();
//!     // `sim_cycles` is `Some` on the cycle-accurate tiers, `None`
//!     // when the service runs on `ExecTier::Native`.
//!     println!("request {}: {:?} sim cycles", r.id, r.sim_cycles);
//! }
//! service.shutdown();
//! # }
//! ```
//!
//! ## Determinism contract
//!
//! Concurrency and batching are **amortizations, never semantic
//! changes**. A service runs on exactly one execution tier
//! ([`ServiceConfig::tier`], an [`ExecTier`]), and the contract is
//! tiered to match:
//!
//! * **Outputs are gated on every tier.** For any interleaving of
//!   submissions, any worker count, any batch limit and any tier,
//!   every request's output tensor ([`InferenceResult::output`]) is
//!   bit-identical to running the same input through a sequential
//!   [`PreparedGraph::run`] loop on the same prepared model — and the
//!   native tier's outputs are bit-identical to the bulk tier's, since
//!   both tiers execute the *same* kernel bodies (charging is a
//!   zero-sized policy parameter compiled out on native, never a
//!   forked copy of the loop).
//! * **Cycles are gated on the cycle-accurate tiers only.** On
//!   [`ExecTier::Reference`] and [`ExecTier::Bulk`], every request's
//!   simulated cycle total ([`InferenceResult::sim_cycles`], `Some`)
//!   is bit-identical to the sequential run's and to the analytic
//!   plan. On [`ExecTier::Native`] cycles are not simulated at all:
//!   `sim_cycles` is `None`, and the only timing quantities are
//!   wall-clock ([`InferenceResult::latency`]) — faster, but carrying
//!   no simulated meaning.
//!
//! The per-request determinism holds because:
//!
//! * requests are independent — a request's result is a pure function
//!   of (model, options, input), and workers never share mutable
//!   execution state (scratchpads come from a per-model
//!   `nm_platform::ScratchpadPool` that resets pads to the fresh state
//!   on checkin);
//! * batch coalescing routes through [`PreparedGraph::run_batch`],
//!   the same walk as [`PreparedGraph::run`]. Under
//!   [`BatchPlan::LayerMajor`] ([`PreparedGraph::batch_plan`]) each
//!   request is its own sweep over every conv tile's held weight
//!   staging, and its own tokens in every Linear layer's token stream,
//!   with per-request kernel statistics threaded out of the batched
//!   kernels. Each request is a separate sequence of kernel invocations
//!   on the shared staged weights — kernel cycle counts depend only on
//!   geometry and weights, never on activation values — so per-request
//!   outputs and cycle attribution match the sequential run bit for
//!   bit. Under [`BatchPlan::Sequential`] nothing is shared at all;
//! * scheduling affects only *wall-clock* quantities, which are
//!   reported separately ([`InferenceResult::latency`],
//!   [`InferenceResult::batch_size`]) and carry no simulated meaning.
//!   The plan a batch actually executed under is reported as
//!   [`InferenceResult::mode`] — `batch_size > 1` alone does not imply
//!   shared work (see [`BatchPlan::shares_work`]).
//!
//! The contract is enforced end to end by the repo's differential test
//! (`tests/tests/serve_parity.rs`): random graphs × random
//! interleavings × worker counts {1, 2, 3, 8} × batch limits
//! {1, 4, 16} × execution tiers, compared request-by-request against
//! the sequential loop (outputs on every tier, cycles on the
//! cycle-accurate ones) — plus a conv sweep serving the pruned
//! ResNet-18 model under [`BatchPlan::LayerMajor`] across the same
//! grid.
//!
//! ## Overload and shutdown
//!
//! The queue is bounded ([`ServiceConfig::queue_capacity`]); a submit
//! against a full queue first tries to **displace** a queued request of
//! a strictly lower [`Priority`] class (the victim resolves
//! [`ServeError::Preempted`]) and is otherwise **shed**: the caller
//! gets [`SubmitError::Shed`] and the shed is counted in
//! [`ServiceStats::shed`] — requests are refused loudly, never dropped
//! after acceptance. Dispatch is earliest-deadline-first within
//! priority bands. [`Service::drain`] waits for the queue and every
//! in-flight batch; [`Service::shutdown`] (and `Drop`) closes
//! admissions, drains, joins the workers and leaves the queue provably
//! empty.
//!
//! ## Failure model
//!
//! The service promises that **every accepted request resolves** — to a
//! result or a documented error, never a hang — that **failures are
//! isolated to the requests they touch**, and that **degradation under
//! pressure is by design**: overload sheds the least valuable work
//! first, and memory pressure evicts the coldest idle model, never
//! in-flight work. Concretely:
//!
//! * **A panic during batch execution fails at most its own request.**
//!   Batches run under `catch_unwind`; when a batch pass panics, every
//!   rider is re-run individually (results then bit+cycle identical to
//!   the sequential baseline, per the determinism contract above), and
//!   only a request whose *own* re-run panics resolves
//!   [`ServeError::WorkerPanic`] with the panic message. Caught panics
//!   are counted in [`ServiceStats::worker_panics`].
//! * **A worker thread death is survived, within a budget.** A panic
//!   escaping the batch isolation kills only that thread: its held
//!   requests resolve [`ServeError::Canceled`], and a supervisor
//!   respawns a replacement with exponential backoff, spending one unit
//!   of [`ServiceConfig::restart_budget`] per respawn
//!   ([`ServiceStats::restarts`]). Only exhausting the budget (or
//!   failing to spawn a replacement) **poisons** the service
//!   ([`Service::is_poisoned`]): admissions close, queued requests
//!   cancel, and the service stays safe to query and shut down —
//!   further submits return [`SubmitError::Poisoned`], distinct from
//!   the orderly [`SubmitError::Closed`].
//! * **Overload and lateness shed, loudly, by priority.** Requests
//!   carry a [`Priority`] class (`Interactive` > `Batch` >
//!   `BestEffort`); the shed taxonomy is:
//!   `full` — a submit against a queue full of same-or-higher-priority
//!   work is refused with [`SubmitError::Shed`] ([`ServiceStats::shed`],
//!   per class in [`ServiceStats::shed_full_by_class`]); capacity
//!   pressure takes lower classes first, so an `Interactive` request is
//!   never shed while `BestEffort` work occupies a queue slot.
//!   `preempted` — the displaced victim of such a submit resolves
//!   [`ServeError::Preempted`] ([`ServiceStats::shed_preempted`]).
//!   `expired` — a request whose [`Service::submit_with_deadline`]
//!   deadline passes while queued is shed at dispatch with
//!   [`ServeError::DeadlineExceeded`] ([`ServiceStats::shed_expired`]).
//!   `canceled` — a request accepted but never executed (worker death,
//!   poisoning, shutdown race) resolves [`ServeError::Canceled`]
//!   ([`ServiceStats::shed_canceled`]). After a drain, `submitted ==
//!   completed + failed + shed_expired + shed_canceled +
//!   shed_preempted` — nothing is ever silently lost.
//! * **Memory pressure evicts idle models, never in-flight work.** With
//!   a cache byte budget ([`ServiceConfig::cache_budget`]), each
//!   prepared artifact's resident cost (`PreparedGraph::resident_bytes`)
//!   is accounted and inserts evict least-recently-used **unpinned**
//!   entries. The pinning rule: an entry is pinned while any `Arc` to
//!   its artifact lives outside the cache — queued and executing
//!   requests hold one — and eviction only ever drops the cache's own
//!   reference, so running work is never invalidated; an evicted idle
//!   model is transparently re-prepared (a cache miss, possibly
//!   evicting colder models) on its next submit. A model that cannot
//!   fit even after evicting everything unpinned is refused:
//!   [`ServeError::CacheOverBudget`] at registration, or
//!   [`SubmitError::ModelUnavailable`] when re-resolving at submit.
//!   Eviction decisions are a deterministic function of the lookup
//!   sequence ([`CacheStats`] counts `evictions`, `resident_bytes` and
//!   the high-water mark).
//! * **Registration failures don't wedge the service.** A model whose
//!   preparation fails (e.g. [`nm_core::Error::OutOfMemory`] when its
//!   minimum tile exceeds the L1 budget) or panics leaves the cache and
//!   the model table fully usable.
//! * **Lock poisoning is recovered, not cascaded.** Every lock in the
//!   crate is acquired poison-tolerantly
//!   (`unwrap_or_else(PoisonError::into_inner)`); each critical section
//!   is written to leave state consistent at every panic point, so a
//!   poisoned lock degrades at most the panicking request.
//! * **`Drop` is unwind-safe.** Dropping a [`Service`] — including
//!   during another panic's unwind — performs the orderly
//!   close/drain/join without double-panicking or leaving a parked
//!   waiter.
//!
//! The model is exercised deterministically by the [`fault`] module's
//! seeded, counted-occurrence injection plans
//! ([`ServiceConfig::fault_plan`]), the chaos suite in
//! `tests/tests/serve_chaos.rs`, and the Zipf/Poisson overload soak in
//! `tests/tests/serve_overload.rs` (driven by `nm-bench`'s load
//! generator).
//!
//! ## Observability
//!
//! [`Service::metrics_text`] exports everything the service counts in
//! the Prometheus text exposition format — and the export is *gated*:
//! [`metrics::parse_text`] parses it back into a [`MetricsSnapshot`],
//! and the serving suites assert the parsed ledgers equal
//! [`Service::stats`]/[`Service::cache_stats`] exactly, with the
//! five-term shed reconciliation holding on the exported numbers.
//!
//! The exported families:
//!
//! * `nm_serve_requests_{submitted,completed,failed}_total`,
//!   `nm_serve_shed_{full,expired,canceled,preempted}_total` and
//!   `nm_serve_shed_full_by_class_total{class=…}` — the
//!   [`ServiceStats`] ledger, plus `nm_serve_worker_panics_total`,
//!   `nm_serve_worker_restarts_total`, `nm_serve_batches_total` and
//!   the `nm_serve_batch_max_coalesced` gauge;
//! * `nm_serve_cache_{hits,misses,failed_prepares,evictions}_total`
//!   and the `nm_serve_cache_resident_bytes{,_high_water}` gauges —
//!   the [`CacheStats`] ledger;
//! * `nm_serve_queue_depth{,_high_water}` — sampled inside the queue
//!   mutex ([`BoundedQueue::depth_stats`]), never a racy re-count;
//! * `nm_serve_model_requests_{submitted,completed,failed}_total{model=…}`
//!   and `nm_serve_model_shed_{expired,canceled,preempted}_total{model=…}`
//!   — per-model breakdowns, keyed by registered name (aliased
//!   registrations merge into one series);
//! * `nm_serve_request_latency_seconds` — per-model histograms of
//!   wall-clock submit-to-fulfill latency over the static log-spaced
//!   bounds in [`metrics::LATENCY_BUCKETS`] (100 µs → 10 s on a
//!   1–2.5–5 ladder, plus `+Inf`).
//!
//! Determinism caveat: counter values mirror the exactly-reconciling
//! ledgers and the bucket *bounds* are compile-time constants, so for a
//! given request set every line except the histogram *counts* and
//! `_sum` is deterministic; the histogram observations are wall-clock
//! and therefore host-dependent. A scrape may race live traffic — the
//! crate's increment/read ordering guarantees such a scrape is
//! internally consistent ([`MetricsSnapshot::check_internal`]), and a
//! post-drain scrape reconciles exactly
//! ([`MetricsSnapshot::check_quiesced`]).

pub mod cache;
pub mod fault;
pub mod metrics;
pub mod queue;
pub mod service;
mod supervisor;

pub use cache::{CacheError, CacheStats, ModelCache, ModelKey};
pub use fault::{FaultAction, FaultPlan, FaultPoint};
pub use metrics::{MetricsRegistry, MetricsSnapshot, ModelMetricsSnapshot, LATENCY_BUCKETS};
pub use queue::{BoundedQueue, Popped, PushError};
pub use service::{
    ConfigError, InferenceResult, ModelId, Priority, ServeError, Service, ServiceConfig,
    ServiceStats, SubmitError, Ticket,
};

/// Re-exported from `nm_compiler` so serving callers can match on
/// [`InferenceResult::mode`] without a direct compiler dependency.
pub use nm_compiler::BatchPlan;

/// Re-exported from `nm_compiler` so serving callers can pick
/// [`ServiceConfig::tier`] without a direct compiler dependency.
pub use nm_compiler::ExecTier;

#[allow(unused_imports)] // doc links above resolve through this import
use nm_compiler::PreparedGraph;

#[cfg(test)]
mod tests {
    use super::*;
    use nm_compiler::{Options, Target};
    use nm_core::sparsity::Nm;
    use nm_core::Tensor;
    use nm_models::mlp_serve_sparse;
    use nm_nn::rng::XorShift;
    use std::sync::Arc;

    fn inputs(n: usize, c: usize, seed: u64) -> Vec<Tensor<i8>> {
        let mut rng = XorShift::new(seed);
        (0..n)
            .map(|_| Tensor::from_vec(&[c], rng.fill_weights(c, 50)).unwrap())
            .collect()
    }

    /// The crate-level smoke test: an MLP model served at batch
    /// limit 4 matches the sequential baseline per request, and the
    /// batcher actually coalesced something.
    #[test]
    fn coalesced_service_matches_sequential_runs() {
        let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
        let opts = Options::new(Target::SparseIsa);
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        let xs = inputs(8, 64, 9);
        let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();

        let service = Service::start(ServiceConfig {
            queue_capacity: 16,
            max_batch: 4,
            workers: 1,
            ..ServiceConfig::default()
        });
        let model = service.register("mlp", &graph, &opts).unwrap();
        // Shape the batches deterministically: enqueue the whole wave
        // while the worker is paused, so the coalescer must see runs of
        // exactly `max_batch` instead of whatever prefix raced in.
        service.pause();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| service.submit(model, x.clone()).unwrap())
            .collect();
        service.resume();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let got = ticket.wait().unwrap();
            assert_eq!(got.output, want.output);
            assert_eq!(got.sim_cycles, Some(want.matmul_compute_cycles));
            assert_eq!(got.batch_size, 4, "8 queued requests over max_batch 4");
            assert_eq!(got.mode, BatchPlan::LayerMajor, "MLP batches share staging");
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.max_coalesced, 4, "coalescing is exact when shaped");
    }

    /// A service on [`ExecTier::Native`] serves outputs bit-identical
    /// to the bulk sequential baseline and reports no simulated cycles.
    #[test]
    fn native_tier_service_matches_bulk_outputs_without_cycles() {
        let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
        let opts = Options::new(Target::SparseIsa);
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap(); // bulk tier
        let xs = inputs(6, 64, 31);
        let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();
        let service = Service::start(ServiceConfig {
            tier: ExecTier::Native,
            ..ServiceConfig::default()
        });
        let model = service.register("mlp", &graph, &opts).unwrap();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| service.submit(model, x.clone()).unwrap())
            .collect();
        for (t, want) in tickets.into_iter().zip(&expected) {
            let r = t.wait().unwrap();
            assert_eq!(r.output, want.output, "native outputs == bulk outputs");
            assert_eq!(r.sim_cycles, None, "cycles are undefined on native");
        }
        service.shutdown();
    }

    #[test]
    fn full_queue_sheds_and_reports() {
        let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
        let opts = Options::new(Target::SparseIsa);
        // One worker, capacity 2: the worker can hold at most one batch
        // in flight, so pushing many requests at once must shed some.
        let service = Service::start(ServiceConfig {
            queue_capacity: 2,
            max_batch: 1,
            workers: 1,
            ..ServiceConfig::default()
        });
        let model = service.register("mlp", &graph, &opts).unwrap();
        let mut accepted = Vec::new();
        let mut shed = 0u64;
        for x in inputs(64, 64, 11) {
            match service.submit(model, x) {
                Ok(t) => accepted.push(t),
                Err(SubmitError::Shed { capacity }) => {
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected submit error {e:?}"),
            }
        }
        let n = accepted.len() as u64;
        for t in accepted {
            t.wait().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.shed, shed);
        assert_eq!(stats.submitted, n);
        assert_eq!(stats.completed, n);
        assert_eq!(n + shed, 64, "every request accounted for");
    }

    #[test]
    fn submit_validates_model_and_shape() {
        let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
        let opts = Options::new(Target::SparseIsa);
        let service = Service::start(ServiceConfig::default());
        let model = service.register("mlp", &graph, &opts).unwrap();
        let bad_shape = Tensor::from_vec(&[32], vec![0i8; 32]).unwrap();
        assert!(matches!(
            service.submit(model, bad_shape),
            Err(SubmitError::InvalidInput(_))
        ));
        let ok = Tensor::from_vec(&[64], vec![0i8; 64]).unwrap();
        assert!(matches!(
            service.submit(ModelId(7), ok),
            Err(SubmitError::UnknownModel(ModelId(7)))
        ));
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 0);
    }

    /// Coalescing keys on the prepared artifact, not the ModelId:
    /// requests submitted under two ids that alias one cached model
    /// must still batch together (an id-keyed batcher would silently
    /// produce size-1 batches for interleaved aliased traffic).
    #[test]
    fn aliased_registrations_coalesce_into_one_batch() {
        let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
        let opts = Options::new(Target::SparseIsa);
        let service = Service::start(ServiceConfig {
            queue_capacity: 16,
            max_batch: 8,
            workers: 1,
            ..ServiceConfig::default()
        });
        let a = service.register("mlp", &graph, &opts).unwrap();
        let b = service.register("mlp", &graph, &opts).unwrap();
        assert_ne!(a, b);
        service.pause();
        let tickets: Vec<_> = inputs(8, 64, 23)
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                let id = if i % 2 == 0 { a } else { b };
                service.submit(id, x).unwrap()
            })
            .collect();
        service.resume();
        for t in tickets {
            let r = t.wait().unwrap();
            assert_eq!(r.batch_size, 8, "aliased ids must share one batch");
            assert!(r.mode.shares_work(), "a shared batch reports its plan");
        }
        let stats = service.shutdown();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_coalesced, 8);
    }

    /// Registering the same (name, options) twice shares one prepared
    /// artifact through the cache; a different options key prepares a
    /// second one. The tier is *not* part of the caller-visible key:
    /// [`ServiceConfig::tier`] overrides it at registration, so options
    /// differing only in tier alias one artifact.
    #[test]
    fn registration_routes_through_the_model_cache() {
        let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
        let opts = Options::new(Target::SparseIsa);
        let service = Service::start(ServiceConfig::default());
        let a = service.register("mlp", &graph, &opts).unwrap();
        let b = service.register("mlp", &graph, &opts).unwrap();
        assert_ne!(a, b, "ids are distinct handles");
        let stats = service.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "one prepare, one hit");
        assert!(stats.resident_bytes > 0, "the artifact's bytes are gauged");
        assert_eq!(stats.resident_high_water, stats.resident_bytes);
        let mut tiered = opts;
        tiered.tier = ExecTier::Reference;
        service.register("mlp", &graph, &tiered).unwrap();
        let stats = service.cache_stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (1, 2),
            "the service tier overrides Options::tier in the cache key"
        );
        let other = Options::new(Target::SparseSw);
        service.register("mlp", &graph, &other).unwrap();
        let stats = service.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 2));
        assert_eq!(stats.evictions, 0, "unbounded cache never evicts");
        assert_eq!(service.model_count(), 4);
        service.shutdown();
    }

    /// Dropping the service without an explicit shutdown still performs
    /// the orderly close-drain-join (no hang, no lost request).
    #[test]
    fn drop_is_an_orderly_shutdown() {
        let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
        let opts = Options::new(Target::SparseIsa);
        let service = Service::start(ServiceConfig {
            queue_capacity: 32,
            max_batch: 4,
            workers: 2,
            ..ServiceConfig::default()
        });
        let model = service.register("mlp", &graph, &opts).unwrap();
        let tickets: Vec<_> = inputs(6, 64, 13)
            .into_iter()
            .map(|x| service.submit(model, x).unwrap())
            .collect();
        drop(service);
        for t in tickets {
            t.wait().unwrap();
        }
    }
}
