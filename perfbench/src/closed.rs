//! Closed-loop single-model workloads (`resnet18-b1`, `vit-tiny-b1`):
//! one client calls `PreparedGraph::run` on the model prepared with
//! `Options::new(Target::SparseIsa)` defaults and sends its next request
//! when the previous one returns.

use crate::config::{input_pool, ClosedSpec};
use crate::layers::{set_metrics, walk};
use crate::report::Report;
use crate::serve_mix::{check_ledgers, delta, set_serve_metrics, Served};
use crate::stats::{mean, median, percentile, tail_note};
use crate::steal::{least_stolen, note, Window, Windows};
use crate::trace::Tracer;
use crate::Res;
use crate::{mb, ms, peak_rss_bytes};
use nm_compiler::{compile, Options, PreparedGraph, Target};
use nm_core::Tensor;
use nm_nn::graph::Graph;
use nm_nn::rng::XorShift;
use nm_serve::{Service, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latencies (ms) of a closed loop that ran for `budget`, in request
/// order, whether each was correct and within the SLO, the loop's steal
/// windows, and the client's gap (ms) from each reply to its next send.
struct LoopOutcome {
    lat_ms: Vec<f64>,
    within_slo: Vec<bool>,
    windows: Vec<Window>,
    gap_ms: Vec<f64>,
}

/// Calls `prepared.run` on seeded pool picks until `budget` has passed,
/// checking every output and cycle count against the oracle. With a
/// tracer, each call is also recorded as a `compiler.run` span.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    prepared: &PreparedGraph<'_>,
    pool: &[Tensor<i8>],
    gold: &[Tensor<i8>],
    ref_cycles: u64,
    spec: &ClosedSpec,
    rng: &mut XorShift,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> LoopOutcome {
    let mut lat_ms = Vec::new();
    let mut within_slo = Vec::new();
    let mut gap_ms = Vec::new();
    let start = Instant::now();
    let mut windows = Windows::start(spec.quiet.window_s, start);
    let mut last_reply = None;
    while start.elapsed() < budget {
        let i = (rng.next_u64() % pool.len() as u64) as usize;
        let t0 = Instant::now();
        if let Some(r) = last_reply {
            gap_ms.push(ms(t0 - r));
        }
        let run = prepared.run(&pool[i]);
        let t1 = Instant::now();
        let req = report.attempted;
        report.attempted += 1;
        if let Some(t) = tracer.as_deref_mut() {
            t.record(req, "compiler", "run", spec.model.label, None, t0, t1);
        }
        let l = ms(t1 - t0);
        lat_ms.push(l);
        let ok =
            matches!(&run, Ok(r) if r.output == gold[i] && r.matmul_compute_cycles == ref_cycles);
        if !ok {
            report.failed += 1;
        }
        within_slo.push(ok && l <= spec.slo_ms);
        windows.after(lat_ms.len(), t1);
        last_reply = Some(t1);
    }
    let windows = windows.finish(lat_ms.len(), Instant::now());
    LoopOutcome {
        lat_ms,
        within_slo,
        windows,
        gap_ms,
    }
}

/// The batch sizes `run_batch` is timed at: those the serving probe's
/// service (`ServiceConfig::default`) can form.
const MAX_BATCH: usize = 8;

/// Serves `spec.serve_probe` pool inputs one at a time (a single client
/// that waits for each reply) through an `nm_serve::Service` at its
/// default configuration, checking every output, the ledgers and the
/// export, and sets the `serve.*` per-layer metrics: what the serving
/// layer adds to this model's `run`.
#[allow(clippy::too_many_arguments)]
fn serve_probe(
    spec: &ClosedSpec,
    graph: &Arc<Graph>,
    opts: &Options,
    pool: &[Tensor<i8>],
    gold: &[Tensor<i8>],
    ref_cycles: u64,
    req0: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Res<()> {
    let label = spec.model.label;
    let svc = Service::start(ServiceConfig::default());
    let id = svc.register(label, graph, opts)?;
    let before = svc.stats();
    let mut served = Vec::with_capacity(spec.serve_probe);
    for k in 0..spec.serve_probe {
        let i = k % pool.len();
        let x = pool[i].clone();
        let ticket = tracer.time(req0 + k as u64, "serve", "submit", label, None, || {
            svc.submit(id, x)
        })?;
        match ticket.wait() {
            Ok(r) if r.output == gold[i] && r.sim_cycles == Some(ref_cycles) => {
                served.push(Served::of(label, &r));
            }
            _ => report.problems.push(format!(
                "{label}: served request {k} failed or disagrees with the golden output"
            )),
        }
    }
    svc.drain();
    if served.is_empty() {
        return Err(format!("{label}: no request served").into());
    }
    let d = delta(&before, &svc.stats());
    let (snapshot, cache) = check_ledgers(&svc, &d, spec.serve_probe as u64, &mut report.problems);
    set_serve_metrics(report, tracer, &served, &d, &snapshot, &cache);
    Ok(())
}

/// Runs one closed-loop workload and fills `report`.
pub fn run(
    spec: &ClosedSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: &mut Report,
) -> Res<Option<Tracer>> {
    let label = spec.model.label;
    let opts = Options::new(Target::SparseIsa);
    let mut tracer = Tracer::default();

    // Set-up: graph build + prepare, repeated; the last one is kept.
    let mut setup_s = Vec::with_capacity(spec.setup_reps);
    let mut model: Option<(Arc<Graph>, PreparedGraph<'static>)> = None;
    for rep in 0..spec.setup_reps {
        let t0 = Instant::now();
        let graph = Arc::new((spec.model.build)()?);
        let t1 = Instant::now();
        let prepared = PreparedGraph::prepare_shared(Arc::clone(&graph), &opts)?;
        let t2 = Instant::now();
        setup_s.push((t2 - t0).as_secs_f64());
        tracer.record(rep as u64, "models", "build", label, None, t0, t1);
        tracer.record(rep as u64, "compiler", "prepare", label, None, t1, t2);
        model = Some((graph, prepared));
    }
    let (graph, prepared) = model.expect("at least one set-up");

    // Inputs and the golden oracle, outside every timed span of the
    // end-to-end metrics.
    let pool = input_pool(&spec.model, graph.input_shape(), seed);
    let mut gold = Vec::with_capacity(pool.len());
    for (i, x) in pool.iter().enumerate() {
        gold.push(tracer.time(i as u64, "nn", "execute", label, None, || {
            nm_nn::execute(&graph, x)
        })?);
    }
    // Warm-up, one run per pool input; it also fixes the reference
    // cycle count every later run must repeat.
    let ref_cycles = prepared.run(&pool[0])?.matmul_compute_cycles;
    for (x, g) in pool.iter().zip(&gold) {
        let r = prepared.run(x)?;
        if &r.output != g || r.matmul_compute_cycles != ref_cycles {
            report.problems.push(format!(
                "{label}: warm-up run disagrees with the golden output"
            ));
        }
    }

    let mut rng = XorShift::new(seed ^ 0x00C1_05ED_100F);
    let budget = Duration::from_secs(seconds);
    if !trace {
        let out = closed_loop(
            &prepared, &pool, &gold, ref_cycles, spec, &mut rng, budget, None, report,
        );
        let n = out.lat_ms.len();
        let dense = compile(&graph, &Options::new(Target::DensePulpNn))?.total_cycles();
        let sparse = compile(&graph, &opts)?.total_cycles();
        // Timings come from the least-stolen windows only (see `steal`).
        let quiet = least_stolen(&out.windows, &spec.quiet);
        let picked: Vec<usize> = quiet.iter().flat_map(|w| w.start..w.end).collect();
        let lat: Vec<f64> = picked.iter().map(|&i| out.lat_ms[i]).collect();
        let within = picked.iter().filter(|&&i| out.within_slo[i]).count();
        let quiet_s: f64 = quiet.iter().map(|w| w.secs).sum();
        report.set("setup_s", median(&setup_s));
        report.set("infer_per_s", lat.len() as f64 / quiet_s);
        report.set("latency_p50_ms", median(&lat));
        report.set("latency_tail_ms", percentile(&lat, spec.tail.per_mille()));
        report.set("slo_attain", within as f64 / lat.len() as f64);
        report.set("sim_cycles_per_inf", ref_cycles as f64);
        report.set("sim_speedup_vs_dense", dense as f64 / sparse as f64);
        report.set("resident_mb", mb(prepared.resident_bytes() as u64));
        report.set("peak_rss_mb", mb(peak_rss_bytes()));
        report.note(
            "samples",
            format!("{n} in all, {} in the quiet windows", lat.len()),
        );
        report.note("quiet_windows", note(&out.windows, &quiet, &spec.quiet));
        report.note("tail", tail_note(spec.tail, lat.len()));
        report.note("sim_cycles_per_inf", ref_cycles);
        return Ok(None);
    }

    // Traced pass: half the budget untraced, half traced (the overhead
    // comparison), then the node-by-node walk.
    let half = budget / 2;
    let plain = closed_loop(
        &prepared, &pool, &gold, ref_cycles, spec, &mut rng, half, None, report,
    );
    let sent_before = report.attempted;
    let traced = closed_loop(
        &prepared,
        &pool,
        &gold,
        ref_cycles,
        spec,
        &mut rng,
        half,
        Some(&mut tracer),
        report,
    );
    let req0 = report.attempted;
    let layers = walk(
        &mut tracer,
        req0,
        label,
        &graph,
        &prepared,
        &pool,
        &gold,
        ref_cycles,
        spec.walk_reps,
        MAX_BATCH,
        &mut report.problems,
    )?;
    set_metrics(report, &[(1.0, &layers)]);
    serve_probe(
        spec,
        &graph,
        &opts,
        &pool,
        &gold,
        ref_cycles,
        req0 + spec.walk_reps as u64 + 1,
        &mut tracer,
        report,
    )?;
    report.set(
        "models.build_ms",
        median(&tracer.ms("models", "build", None)),
    );
    report.set(
        "compiler.prepare_ms",
        median(&tracer.ms("compiler", "prepare", None)),
    );
    report.set("nn.execute_ms", median(&tracer.ms("nn", "execute", None)));
    report.set("gen.sent", (report.attempted - sent_before) as f64);
    report.set("gen.lag_ms_p99", percentile(&traced.gap_ms, 990));
    report.set(
        "trace.overhead_frac",
        mean(&traced.lat_ms) / mean(&plain.lat_ms) - 1.0,
    );
    report.note("samples", traced.lat_ms.len() + plain.lat_ms.len());
    report.note("sim_cycles_per_inf", ref_cycles);
    Ok(Some(tracer))
}
