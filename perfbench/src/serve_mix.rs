//! The open-loop `serve-mix` workload: one `nm_serve::Service` serving
//! three models, one per `BatchPlan` shape, under seeded Poisson
//! arrivals at a fixed absolute rate, driven from a single thread.
//!
//! Every request is charged from its due time ([`due_latency`]). The
//! service's own submit-to-completion latency is measured at fulfil
//! time, so tickets are collected after the last send without adding
//! any wait to a request.

use crate::config::{input_pool, OpenSpec};
use crate::layers::{batch_ms, set_metrics, walk, ModelLayers};
use crate::report::Report;
use crate::schedule::{drive, due_latency, poisson_schedule};
use crate::stats::{median, percentile, tail_note};
use crate::steal::{least_stolen, note, Windows};
use crate::trace::Tracer;
use crate::Res;
use crate::{mb, ms, peak_rss_bytes};
use nm_compiler::{compile, Options, PreparedGraph, Target};
use nm_core::Tensor;
use nm_nn::graph::Graph;
use nm_serve::{
    CacheStats, InferenceResult, MetricsSnapshot, ModelId, Priority, Service, ServiceConfig,
    ServiceStats, SubmitError, Ticket,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The counters of `b` accrued since `a`.
pub fn delta(a: &ServiceStats, b: &ServiceStats) -> ServiceStats {
    ServiceStats {
        submitted: b.submitted - a.submitted,
        completed: b.completed - a.completed,
        failed: b.failed - a.failed,
        shed: b.shed - a.shed,
        shed_expired: b.shed_expired - a.shed_expired,
        shed_canceled: b.shed_canceled - a.shed_canceled,
        shed_preempted: b.shed_preempted - a.shed_preempted,
        batches: b.batches - a.batches,
        ..*b
    }
}

type Deployment = (Vec<Arc<Graph>>, Service, Vec<ModelId>);

/// What the serving layer reported for one completed request.
pub struct Served {
    model: &'static str,
    batch: usize,
    sojourn: Duration,
    shares_work: bool,
}

impl Served {
    pub fn of(model: &'static str, r: &InferenceResult) -> Self {
        Served {
            model,
            batch: r.batch_size,
            sojourn: r.latency,
            shares_work: r.mode.shares_work(),
        }
    }
}

/// Sets the `serve.*` per-layer metrics from the requests the service
/// completed (`served`), its counters over the same requests (`d`, a
/// delta of [`ServiceStats`]) and the export after the drain. A
/// request's queue wait is its sojourn minus the median `run_batch` wall
/// of its model and batch size measured on an idle host — an estimate,
/// since the service's own batch ran beside other work.
pub fn set_serve_metrics(
    report: &mut Report,
    tracer: &Tracer,
    served: &[Served],
    d: &ServiceStats,
    snapshot: &MetricsSnapshot,
    cache: &CacheStats,
) {
    let sojourn: Vec<f64> = served.iter().map(|s| ms(s.sojourn)).collect();
    let queue_wait: Vec<f64> = served
        .iter()
        .map(|s| ms(s.sojourn) - batch_ms(tracer, s.model, s.batch))
        .collect();
    let shared = served.iter().filter(|s| s.shares_work).count();
    report.set(
        "serve.submit_us_p50",
        median(&tracer.ms("serve", "submit", None)) * 1e3,
    );
    report.set("serve.queue_wait_ms_p50", median(&queue_wait));
    report.set("serve.queue_wait_ms_p99", percentile(&queue_wait, 990));
    report.set("serve.latency_p50_ms", median(&sojourn));
    report.set("serve.latency_p99_ms", percentile(&sojourn, 990));
    report.set("serve.batch_mean", d.completed as f64 / d.batches as f64);
    report.set("serve.batches", d.batches as f64);
    report.set(
        "serve.queue_depth_max",
        snapshot.queue_depth_high_water as f64,
    );
    report.set("serve.shared_frac", shared as f64 / served.len() as f64);
    report.set("serve.cache_misses", cache.misses as f64);
}

/// Checks the service's ledgers after a drain: over the measured
/// requests (`d`, a delta), completed + failed + expired + canceled +
/// preempted = submitted = `sent`, nothing shed at the full queue; and
/// the export reconciles exactly with the ledgers
/// (`MetricsSnapshot::check_quiesced`). Returns the export.
pub fn check_ledgers(
    svc: &Service,
    d: &ServiceStats,
    sent: u64,
    problems: &mut Vec<String>,
) -> (MetricsSnapshot, CacheStats) {
    if d.completed + d.failed + d.shed_expired + d.shed_canceled + d.shed_preempted != d.submitted
        || d.submitted != sent
        || d.shed != 0
    {
        problems.push(format!(
            "five-term reconciliation failed over {sent} requests: {d:?}"
        ));
    }
    let cache = svc.cache_stats();
    let snapshot = svc.metrics_snapshot();
    if let Err(e) = snapshot.check_quiesced(&svc.stats(), &cache) {
        problems.push(format!(
            "metrics export does not reconcile after the drain: {e}"
        ));
    }
    (snapshot, cache)
}

/// Runs `serve-mix` and fills `report`.
pub fn run(
    spec: &OpenSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: &mut Report,
) -> Res<Option<Tracer>> {
    let opts = Options::new(Target::SparseIsa);
    let mut tracer = Tracer::default();
    let labels = spec.models.map(|m| m.label);
    let weights = spec
        .shares
        .map(|s| f64::from(s) / f64::from(spec.shares.iter().sum::<u32>()));

    // Set-up: build the graphs, start the service, register the models
    // (which prepares them through the service's cache); repeated, the
    // last deployment is kept.
    let mut setup_s = Vec::with_capacity(spec.setup_reps);
    let mut deployment: Option<Deployment> = None;
    for rep in 0..spec.setup_reps {
        let req = rep as u64;
        let t0 = Instant::now();
        let graphs = spec
            .models
            .iter()
            .map(|m| {
                tracer.time(req, "models", "build", m.label, None, || {
                    (m.build)().map(Arc::new)
                })
            })
            .collect::<nm_core::Result<Vec<_>>>()?;
        let svc = tracer.time(req, "serve", "start", "", None, || {
            Service::start(ServiceConfig {
                queue_capacity: spec.queue_capacity,
                max_batch: spec.max_batch,
                workers: spec.workers,
                ..ServiceConfig::default()
            })
        });
        let mut ids = Vec::with_capacity(graphs.len());
        for (m, g) in spec.models.iter().zip(&graphs) {
            ids.push(tracer.time(req, "serve", "register", m.label, None, || {
                svc.register(m.label, g, &opts)
            })?);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        deployment = Some((graphs, svc, ids));
    }
    let (graphs, svc, ids) = deployment.expect("at least one set-up");

    // Inputs and golden outputs, outside every timed span.
    let pools: Vec<Vec<Tensor<i8>>> = spec
        .models
        .iter()
        .zip(&graphs)
        .map(|(m, g)| input_pool(m, g.input_shape(), seed))
        .collect();
    let mut gold: Vec<Vec<Tensor<i8>>> = Vec::new();
    for (m, (g, pool)) in graphs.iter().zip(&pools).enumerate() {
        let mut outs = Vec::with_capacity(pool.len());
        for (i, x) in pool.iter().enumerate() {
            outs.push(tracer.time(i as u64, "nn", "execute", labels[m], None, || {
                nm_nn::execute(g, x)
            })?);
        }
        gold.push(outs);
    }

    // Warm-up through the service, one request per pool input; the
    // first result of each model fixes the cycle count all its later
    // requests must repeat.
    let mut ref_cycles = vec![None::<u64>; graphs.len()];
    for (m, pool) in pools.iter().enumerate() {
        for (i, x) in pool.iter().enumerate() {
            let ok = match svc.submit(ids[m], x.clone())?.wait() {
                Ok(r) => {
                    let cycles = *ref_cycles[m].get_or_insert(r.sim_cycles.unwrap_or(0));
                    r.output == gold[m][i] && r.sim_cycles == Some(cycles)
                }
                Err(_) => false,
            };
            if !ok {
                report.problems.push(format!(
                    "{}: warm-up request {i} failed or disagrees with the golden output",
                    labels[m]
                ));
            }
        }
    }
    let ref_cycles: Vec<u64> = ref_cycles.into_iter().map(|c| c.unwrap_or(0)).collect();
    let before = svc.stats();

    // The measured schedule. With tracing, its second half is traced.
    let n = (spec.rate_per_s * seconds as f64).round() as usize;
    let pool_sizes: Vec<usize> = pools.iter().map(Vec::len).collect();
    let schedule = poisson_schedule(seed, spec.rate_per_s, n, &spec.shares, &pool_sizes);
    let traced_from = if trace { n / 2 } else { n };
    let mut tickets: Vec<std::result::Result<Ticket, SubmitError>> = Vec::with_capacity(n);
    let start = Instant::now();
    let mut windows = Windows::start(spec.quiet.window_s, start);
    let sends = drive(&schedule, start, |i, a| {
        let input = pools[a.model][a.input].clone();
        let submit = || svc.submit_with_deadline(ids[a.model], input, None, Priority::Batch);
        tickets.push(if i >= traced_from {
            tracer.time(i as u64, "serve", "submit", labels[a.model], None, submit)
        } else {
            submit()
        });
        windows.after(i + 1, Instant::now());
    });
    let windows = windows.finish(n, Instant::now());
    svc.drain();

    // Collect, check and charge every request from its due time.
    report.attempted = n as u64;
    let mut lat_ms = Vec::with_capacity(n);
    // Each request's latency by schedule index; `None` when it failed.
    let mut lat_of = vec![None; n];
    let mut lat_by_half = [Vec::new(), Vec::new()];
    let mut sim_cycles = 0u64;
    let mut last_done = start;
    let mut served: Vec<Served> = Vec::new();
    let accepted = tickets.iter().filter(|t| t.is_ok()).count() as u64;
    for (i, ((a, s), t)) in schedule.iter().zip(&sends).zip(tickets).enumerate() {
        let result = t
            .map_err(|e| e.to_string())
            .and_then(|t| t.wait().map_err(|e| e.to_string()));
        let r = match result {
            Ok(r)
                if r.model == ids[a.model]
                    && r.output == gold[a.model][a.input]
                    && r.sim_cycles == Some(ref_cycles[a.model]) =>
            {
                r
            }
            _ => {
                report.failed += 1;
                continue;
            }
        };
        let l = due_latency(s.due, s.sent, r.latency);
        let l_ms = ms(l);
        lat_ms.push(l_ms);
        lat_of[i] = Some(l_ms);
        lat_by_half[usize::from(i >= n / 2)].push(l_ms);
        sim_cycles += ref_cycles[a.model];
        last_done = last_done.max(s.sent + r.latency);
        if i >= traced_from {
            tracer.record(
                i as u64,
                "serve",
                "request",
                labels[a.model],
                Some(r.batch_size),
                s.due,
                s.due + l,
            );
            served.push(Served::of(labels[a.model], &r));
        }
    }
    let completed = lat_ms.len();

    // Server-side reconciliation over the measured schedule, then the
    // exported metrics against the ledgers with nothing in flight.
    let d = delta(&before, &svc.stats());
    if accepted != n as u64 {
        report.problems.push(format!(
            "{} of {n} submits were refused",
            n as u64 - accepted
        ));
    }
    let (snapshot, cache) = check_ledgers(&svc, &d, n as u64, &mut report.problems);
    if completed == 0 {
        report.problems.push("no request completed".to_string());
        return Ok(None);
    }

    if !trace {
        let mut dense = 0.0;
        let mut sparse = 0.0;
        for (m, g) in graphs.iter().enumerate() {
            let count = schedule.iter().filter(|a| a.model == m).count() as f64;
            dense += count * compile(g, &Options::new(Target::DensePulpNn))?.total_cycles() as f64;
            sparse += count * compile(g, &opts)?.total_cycles() as f64;
        }
        let span_s = (last_done - start).as_secs_f64();
        // Latencies come from the requests sent in the least-stolen
        // windows only (see `steal`); failed ones miss the SLO.
        let quiet = least_stolen(&windows, &spec.quiet);
        let sent_quiet = quiet.iter().map(|w| w.end - w.start).sum::<usize>();
        let lat: Vec<f64> = quiet
            .iter()
            .flat_map(|w| lat_of[w.start..w.end].iter().flatten().copied())
            .collect();
        if lat.is_empty() {
            report
                .problems
                .push("no request sent in the quiet windows completed".to_string());
            return Ok(None);
        }
        let within_slo = lat.iter().filter(|&&l| l <= spec.slo_ms).count();
        report.set("setup_s", median(&setup_s));
        report.set("infer_per_s", completed as f64 / span_s);
        report.set("latency_p50_ms", median(&lat));
        report.set("latency_tail_ms", percentile(&lat, spec.tail.per_mille()));
        report.set("slo_attain", within_slo as f64 / sent_quiet as f64);
        report.set("sim_cycles_per_inf", sim_cycles as f64 / completed as f64);
        report.set("sim_speedup_vs_dense", dense / sparse);
        report.set("resident_mb", mb(cache.resident_bytes));
        report.set("peak_rss_mb", mb(peak_rss_bytes()));
        report.note(
            "samples",
            format!("{completed} in all, {} in the quiet windows", lat.len()),
        );
        report.note("quiet_windows", note(&windows, &quiet, &spec.quiet));
        report.note("tail", tail_note(spec.tail, lat.len()));
        report.note("rate_per_s", spec.rate_per_s);
        report.note("sim_cycles_per_inf", sim_cycles as f64 / completed as f64);
        return Ok(None);
    }

    // Per-layer pass: the node walk and `run_batch` of each model, on
    // artifacts prepared with the service's options.
    let mut layers: Vec<ModelLayers> = Vec::new();
    for (m, g) in graphs.iter().enumerate() {
        let prepared = PreparedGraph::prepare_shared(Arc::clone(g), &opts)?;
        layers.push(walk(
            &mut tracer,
            (n + m * (spec.walk_reps + 1)) as u64,
            labels[m],
            g,
            &prepared,
            &pools[m],
            &gold[m],
            ref_cycles[m],
            spec.walk_reps,
            spec.max_batch,
            &mut report.problems,
        )?);
    }
    let parts: Vec<(f64, &ModelLayers)> = weights.iter().copied().zip(&layers).collect();
    set_metrics(report, &parts);
    let per_model_median = |layer: &str, name: &str| -> Vec<f64> {
        labels
            .iter()
            .map(|l| median(&tracer.ms(layer, name, Some(l))))
            .collect()
    };
    report.set(
        "models.build_ms",
        per_model_median("models", "build").iter().sum(),
    );
    report.set(
        "compiler.prepare_ms",
        per_model_median("serve", "register").iter().sum(),
    );
    report.set(
        "nn.execute_ms",
        per_model_median("nn", "execute")
            .iter()
            .zip(&weights)
            .map(|(t, w)| t * w)
            .sum(),
    );
    set_serve_metrics(report, &tracer, &served, &d, &snapshot, &cache);
    let lag: Vec<f64> = sends.iter().map(|s| ms(s.sent - s.due)).collect();
    report.set("gen.lag_ms_p99", percentile(&lag, 990));
    report.set("gen.sent", n as f64);
    report.set(
        "trace.overhead_frac",
        median(&lat_by_half[1]) / median(&lat_by_half[0]) - 1.0,
    );
    report.note("samples", completed);
    report.note("rate_per_s", spec.rate_per_s);
    report.note("sim_cycles_per_inf", sim_cycles as f64 / completed as f64);
    Ok(Some(tracer))
}
