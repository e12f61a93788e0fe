//! Differential property tests for the batched inference service: for
//! any request interleaving, worker count, batch limit and execution
//! tier, every request's output through `nm_serve::Service` must be
//! bit-identical to a sequential `PreparedGraph::run` loop over the
//! same requests — and on the cycle-accurate tiers the simulated cycle
//! totals too. This is the determinism contract documented at the top
//! of `nm-serve`.

use nm_compiler::{BatchPlan, ExecTier, Options, PreparedGraph, Target};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{FcGeom, Tensor};
use nm_integration::{make_exact_nm, random_i8, sparse_conv_fc_graph};
use nm_models::vit::vit_tiny_sparse_for_tests;
use nm_models::{mlp_serve_sparse, resnet18_cifar_serve_sparse};
use nm_nn::graph::Graph;
use nm_nn::layer::LinearLayer;
use nm_nn::rng::XorShift;
use nm_nn::GraphBuilder;
use nm_serve::{Service, ServiceConfig};
use std::sync::Arc;

/// A small conv+fc graph: conv tiles stage once per batch through the
/// layer-major walk.
fn conv_fc_graph(nm: Nm) -> Arc<Graph> {
    Arc::new(sparse_conv_fc_graph(10, 6, nm, 3))
}

/// A sparse MLP: each request is one token of the Linear layers' token
/// stream.
fn mlp_graph(nm: Nm) -> Arc<Graph> {
    Arc::new(mlp_serve_sparse(&[64, 48, 32], nm, 5).unwrap())
}

fn random_inputs(shape: &[usize], n: usize, seed: u64) -> Vec<Tensor<i8>> {
    let elems: usize = shape.iter().product();
    let mut rng = XorShift::new(seed);
    (0..n)
        .map(|_| Tensor::from_vec(shape, rng.fill_weights(elems, 50)).unwrap())
        .collect()
}

/// A deterministic pseudo-random interleaving of `counts.len()` request
/// streams: returns a sequence of model indices, each appearing exactly
/// `counts[i]` times, shuffled by `seed`.
fn interleaving(counts: &[usize], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(m, &n)| std::iter::repeat_n(m, n))
        .collect();
    let mut rng = XorShift::new(seed);
    // Fisher–Yates with the test RNG.
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The full differential sweep: two models (an MLP and a conv graph)
/// served concurrently under every worker count / batch limit /
/// cycle-accurate tier combination, with a different pseudo-random
/// interleaving per configuration, compared request-by-request against
/// sequential `PreparedGraph::run` baselines.
#[test]
fn service_matches_sequential_runs_for_any_configuration() {
    let nm = Nm::ONE_OF_EIGHT;
    let graphs = [mlp_graph(nm), conv_fc_graph(nm)];
    let per_model = 8;
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        // Sequential ground truth, one prepared model per graph.
        let inputs: Vec<Vec<Tensor<i8>>> = graphs
            .iter()
            .enumerate()
            .map(|(m, g)| random_inputs(g.input_shape(), per_model, 100 + m as u64))
            .collect();
        let expected: Vec<Vec<_>> = graphs
            .iter()
            .zip(&inputs)
            .map(|(g, xs)| {
                let prepared = PreparedGraph::prepare(g, &opts).unwrap();
                xs.iter().map(|x| prepared.run(x).unwrap()).collect()
            })
            .collect();

        for workers in [1, 2, 3, 8] {
            for max_batch in [1, 4, 16] {
                let service = Service::start(ServiceConfig {
                    queue_capacity: 2 * graphs.len() * per_model,
                    max_batch,
                    workers,
                    tier,
                    ..ServiceConfig::default()
                });
                let ids: Vec<_> = graphs
                    .iter()
                    .enumerate()
                    .map(|(m, g)| service.register(&format!("model-{m}"), g, &opts).unwrap())
                    .collect();
                // A configuration-specific interleaving of the two
                // request streams.
                let seed = 1000
                    + workers as u64 * 100
                    + max_batch as u64 * 10
                    + u64::from(tier == ExecTier::Bulk);
                let mut next = vec![0usize; graphs.len()];
                let mut tickets = Vec::new();
                for m in interleaving(&[per_model; 2], seed) {
                    let x = inputs[m][next[m]].clone();
                    tickets.push((m, next[m], service.submit(ids[m], x).unwrap()));
                    next[m] += 1;
                }
                for (m, i, ticket) in tickets {
                    let got = ticket.wait().unwrap();
                    let want = &expected[m][i];
                    assert_eq!(
                        got.output, want.output,
                        "output diverged: model {m} req {i} workers={workers} \
                         max_batch={max_batch} {tier:?}"
                    );
                    assert_eq!(
                        got.sim_cycles,
                        Some(want.matmul_compute_cycles),
                        "cycles diverged: model {m} req {i} workers={workers} \
                         max_batch={max_batch} {tier:?}"
                    );
                }
                let stats = service.shutdown();
                assert_eq!(stats.completed, (graphs.len() * per_model) as u64);
                assert_eq!(stats.shed, 0, "queue was sized to admit everything");
            }
        }
    }
}

/// The determinism contract across priority classes: priority-band /
/// earliest-deadline-first dispatch reorders *when* a request runs,
/// never *what* it computes. A wave mixing all three [`Priority`]
/// classes with assorted (far-future or absent) deadlines — enqueued
/// against a paused pool so the EDF sort sees the whole wave at once —
/// must complete every request with outputs and cycle totals
/// bit-identical to the sequential baseline, across worker counts and
/// batch limits. The queue admits the entire wave, so no shed class is
/// exercised: scheduling policy alone is under test.
#[test]
fn priority_mixes_preserve_bit_and_cycle_determinism() {
    use nm_serve::Priority;
    use std::time::{Duration, Instant};

    let nm = Nm::ONE_OF_EIGHT;
    let graphs = [mlp_graph(nm), conv_fc_graph(nm)];
    let per_model = 9;
    let mut opts = Options::new(Target::SparseIsa);
    opts.tier = ExecTier::Bulk;
    let inputs: Vec<Vec<Tensor<i8>>> = graphs
        .iter()
        .enumerate()
        .map(|(m, g)| random_inputs(g.input_shape(), per_model, 500 + m as u64))
        .collect();
    let expected: Vec<Vec<_>> = graphs
        .iter()
        .zip(&inputs)
        .map(|(g, xs)| {
            let prepared = PreparedGraph::prepare(g, &opts).unwrap();
            xs.iter().map(|x| prepared.run(x).unwrap()).collect()
        })
        .collect();

    for workers in [1, 2] {
        for max_batch in [1, 4] {
            let service = Service::start(ServiceConfig {
                queue_capacity: 2 * graphs.len() * per_model,
                max_batch,
                workers,
                tier: ExecTier::Bulk,
                ..ServiceConfig::default()
            });
            let ids: Vec<_> = graphs
                .iter()
                .enumerate()
                .map(|(m, g)| service.register(&format!("model-{m}"), g, &opts).unwrap())
                .collect();
            // Pause so the whole mixed wave is queued before dispatch:
            // the priority/deadline sort then reorders maximally.
            service.pause();
            let far = Instant::now() + Duration::from_secs(3600);
            let farther = Instant::now() + Duration::from_secs(7200);
            let mut next = vec![0usize; graphs.len()];
            let mut tickets = Vec::new();
            for m in interleaving(
                &[per_model; 2],
                4242 + workers as u64 * 10 + max_batch as u64,
            ) {
                let i = next[m];
                next[m] += 1;
                let priority = Priority::ALL[(m + i) % Priority::ALL.len()];
                // Deadlines are generous or absent: ordering hints, not
                // shed triggers.
                let deadline = match i % 3 {
                    0 => Some(far),
                    1 => Some(farther),
                    _ => None,
                };
                let x = inputs[m][i].clone();
                let ticket = service
                    .submit_with_deadline(ids[m], x, deadline, priority)
                    .unwrap();
                tickets.push((m, i, ticket));
            }
            service.resume();
            for (m, i, ticket) in tickets {
                let got = ticket.wait().unwrap();
                let want = &expected[m][i];
                assert_eq!(
                    got.output, want.output,
                    "output diverged: model {m} req {i} workers={workers} \
                     max_batch={max_batch}"
                );
                assert_eq!(
                    got.sim_cycles,
                    Some(want.matmul_compute_cycles),
                    "cycles diverged: model {m} req {i} workers={workers} \
                     max_batch={max_batch}"
                );
            }
            let stats = service.shutdown();
            assert_eq!(stats.completed, (graphs.len() * per_model) as u64);
            assert_eq!(stats.shed, 0, "the queue admits the whole wave");
            assert_eq!(stats.shed_preempted, 0, "nothing was displaced");
            assert_eq!(stats.shed_expired, 0, "deadlines were generous");
        }
    }
}

/// The MLP's multi-token pass with K-tiling forced (small L1
/// budget): batched execution through the service must still match the
/// sequential loop exactly — this is the configuration where weights
/// genuinely stage once per batch across several K-tiles.
#[test]
fn coalesced_k_tiled_mlp_matches_sequential() {
    let nm = Nm::ONE_OF_EIGHT;
    let graph = mlp_graph(nm);
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        opts.l1_budget = 512; // forces K-tiling of every layer
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        assert_eq!(prepared.batch_plan(), BatchPlan::LayerMajor);
        let xs = random_inputs(graph.input_shape(), 16, 33);
        let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();

        let service = Service::start(ServiceConfig {
            queue_capacity: 32,
            max_batch: 16,
            workers: 1,
            tier,
            ..ServiceConfig::default()
        });
        let model = service.register("mlp-ktiled", &graph, &opts).unwrap();
        // Deterministic batch shaping: the paused queue accumulates the
        // whole wave, so resuming hands the worker exactly one
        // 16-request batch — the configuration where tile weights stage
        // once for all sixteen requests.
        service.pause();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| service.submit(model, x.clone()).unwrap())
            .collect();
        service.resume();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let got = ticket.wait().unwrap();
            assert_eq!(got.output, want.output, "{tier:?}");
            assert_eq!(got.sim_cycles, Some(want.matmul_compute_cycles), "{tier:?}");
            assert_eq!(got.batch_size, 16, "{tier:?}: one full coalesced batch");
        }
        service.shutdown();
    }
}

/// The native tier through the service: outputs stay bit-identical to
/// the bulk-tier sequential baseline for both graphs, but no cycle
/// assertions are possible — `sim_cycles` is `None` on every response
/// because the native tier compiles simulation charging out.
#[test]
fn native_tier_service_matches_bulk_outputs() {
    let nm = Nm::ONE_OF_EIGHT;
    for graph in [mlp_graph(nm), conv_fc_graph(nm)] {
        let opts = Options::new(Target::SparseIsa);
        assert_eq!(opts.tier, ExecTier::Bulk, "bulk tier is the default");
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        let xs = random_inputs(graph.input_shape(), 8, 91);
        let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();

        let service = Service::start(ServiceConfig {
            queue_capacity: 16,
            max_batch: 4,
            workers: 2,
            tier: ExecTier::Native,
            ..ServiceConfig::default()
        });
        let model = service.register("native-model", &graph, &opts).unwrap();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| service.submit(model, x.clone()).unwrap())
            .collect();
        for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
            let got = ticket.wait().unwrap();
            assert_eq!(got.output, want.output, "native output diverged: req {i}");
            assert_eq!(
                got.sim_cycles, None,
                "native tier must not report simulated cycles: req {i}"
            );
        }
        service.shutdown();
    }
}

/// `run_batch` itself (no service): the batched entry point must equal
/// per-request `run` calls on a conv graph, an MLP and a ViT, return
/// nothing for an empty batch, and reject shape mismatches atomically —
/// naming the failing request. The ViT is where the Linear layers'
/// token stream straddles request boundaries: its `[T, C]` tokens of
/// several requests share one stream, chunked across `host_threads`.
#[test]
fn run_batch_matches_individual_runs() {
    let nm = Nm::ONE_OF_EIGHT;
    let vit = Arc::new(vit_tiny_sparse_for_tests(nm, 7).unwrap());
    for (g, graph) in [mlp_graph(nm), conv_fc_graph(nm), vit]
        .into_iter()
        .enumerate()
    {
        let opts = Options::new(Target::SparseIsa);
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        assert_eq!(prepared.batch_plan(), BatchPlan::LayerMajor);
        let label = format!("graph {g}");
        let xs = random_inputs(graph.input_shape(), 5, 77);
        let refs: Vec<&Tensor<i8>> = xs.iter().collect();
        let batched = prepared.run_batch(&refs).unwrap();
        assert_eq!(batched.len(), xs.len());
        for (x, b) in xs.iter().zip(&batched) {
            let solo = prepared.run(x).unwrap();
            assert_eq!(b.output, solo.output, "{label}");
            assert_eq!(
                b.matmul_compute_cycles, solo.matmul_compute_cycles,
                "{label}"
            );
        }
        assert!(
            prepared.run_batch(&[]).unwrap().is_empty(),
            "an empty batch yields no runs"
        );
        // A wrong-shaped rider poisons the whole batch up front, and
        // the error names which request it was.
        let bad = Tensor::from_vec(&[3], vec![0i8; 3]).unwrap();
        let mut with_bad = refs.clone();
        with_bad.push(&bad);
        let err = prepared.run_batch(&with_bad).unwrap_err();
        assert!(
            err.to_string().contains("batch request 5"),
            "error must name the failing request: {err}"
        );

        // Batch sizes around the conv sweep's width, on every tile
        // thread count; the reference tier keeps to small batches.
        for (tier, sizes) in [
            (ExecTier::Bulk, &[1, 3, 8, 9, 17][..]),
            (ExecTier::Reference, &[1, 3][..]),
        ] {
            for threads in [1, 2, 4] {
                let mut opts = Options::new(Target::SparseIsa);
                opts.tier = tier;
                opts.host_threads = threads;
                let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
                let max = sizes.iter().copied().max().unwrap();
                let xs = random_inputs(graph.input_shape(), max, 79);
                let solo: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();
                for &b in sizes {
                    let refs: Vec<&Tensor<i8>> = xs[..b].iter().collect();
                    let batched = prepared.run_batch(&refs).unwrap();
                    assert_eq!(batched.len(), b);
                    for (i, (got, want)) in batched.iter().zip(&solo).enumerate() {
                        let at = format!("{label} {tier:?} threads={threads} b={b} req {i}");
                        assert_eq!(got.output, want.output, "output diverged: {at}");
                        assert_eq!(
                            got.matmul_compute_cycles, want.matmul_compute_cycles,
                            "cycles diverged: {at}"
                        );
                    }
                }
            }
        }
    }
}

/// A graph of pure Linear nodes that is a DAG (here: two linears both
/// reading the input node, one of them dead) shares staging like any
/// other matmul graph: the layer-major walk keeps a value table per
/// request, so each Linear reads its own input and every request still
/// matches its own sequential run.
#[test]
fn linear_dag_shares_staging_and_batches_correctly() {
    let nm = Nm::ONE_OF_EIGHT;
    let (c, k) = (64, 32);
    let mut w1 = random_i8(k * c, 41);
    make_exact_nm(&mut w1, k, c, nm);
    let l1 = LinearLayer::new(FcGeom::new(c, k).unwrap(), w1, Requant::for_dot_len(c)).unwrap();
    let mut w2 = random_i8(k * c, 43);
    make_exact_nm(&mut w2, k, c, nm);
    let l2 = LinearLayer::new(FcGeom::new(c, k).unwrap(), w2, Requant::for_dot_len(c)).unwrap();
    let mut b = GraphBuilder::new(&[c]);
    let _dead = b.linear(b.input(), l1).unwrap();
    let out = b.linear(b.input(), l2).unwrap();
    let graph = b.finish(out).unwrap();
    let opts = Options::new(Target::SparseIsa);
    let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
    assert_eq!(prepared.batch_plan(), BatchPlan::LayerMajor);
    let xs = random_inputs(&[c], 4, 47);
    let refs: Vec<&Tensor<i8>> = xs.iter().collect();
    for (x, run) in xs.iter().zip(prepared.run_batch(&refs).unwrap()) {
        let solo = prepared.run(x).unwrap();
        assert_eq!(run.output, solo.output);
        assert_eq!(run.matmul_compute_cycles, solo.matmul_compute_cycles);
    }
}

// The layer-major walk at model scale: the pruned ResNet-18
// serving model (16 sparse convs, residual Adds, pools, a final FC)
// served across worker counts × batch limits × both cycle-accurate
// tiers, every request's output and cycle total compared bit-for-bit
// against the sequential baseline. This is the configuration where conv
// tile weights genuinely stage once per batch — the tentpole
// determinism contract end to end.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "serves ResNet-18 many times; runs in release CI (cargo test --release)"
)]
fn resnet_conv_batch_major_matches_sequential() {
    let nm = Nm::ONE_OF_EIGHT;
    let graph = Arc::new(resnet18_cifar_serve_sparse(10, nm, 1).unwrap());
    let per_wave = 16;
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        assert_eq!(prepared.batch_plan(), BatchPlan::LayerMajor);
        let seed = 200 + u64::from(tier == ExecTier::Bulk);
        let xs = random_inputs(graph.input_shape(), per_wave, seed);
        let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();

        for workers in [1, 2, 8] {
            for max_batch in [1, 4, 16] {
                let service = Service::start(ServiceConfig {
                    queue_capacity: 2 * per_wave,
                    max_batch,
                    workers,
                    tier,
                    ..ServiceConfig::default()
                });
                let model = service.register("resnet18", &graph, &opts).unwrap();
                // Queue the whole wave before the workers see any of it
                // so batch limits, not arrival timing, shape the batches.
                service.pause();
                let tickets: Vec<_> = xs
                    .iter()
                    .map(|x| service.submit(model, x.clone()).unwrap())
                    .collect();
                service.resume();
                for (ticket, want) in tickets.into_iter().zip(&expected) {
                    let got = ticket.wait().unwrap();
                    assert_eq!(
                        got.output, want.output,
                        "output diverged: workers={workers} max_batch={max_batch} {tier:?}"
                    );
                    assert_eq!(
                        got.sim_cycles,
                        Some(want.matmul_compute_cycles),
                        "cycles diverged: workers={workers} max_batch={max_batch} {tier:?}"
                    );
                    match got.mode {
                        BatchPlan::LayerMajor => assert!(got.batch_size > 1),
                        BatchPlan::Sequential { .. } => assert!(
                            got.batch_size <= 1 || max_batch == 1,
                            "sequential mode with a shared batch: workers={workers} \
                             max_batch={max_batch} batch_size={}",
                            got.batch_size
                        ),
                    }
                }
                let stats = service.shutdown();
                assert_eq!(stats.completed, per_wave as u64);
                assert_eq!(stats.shed, 0, "queue was sized to admit everything");
                if workers == 1 && max_batch == 16 {
                    assert_eq!(
                        stats.max_coalesced, 16,
                        "one worker over a paused full wave coalesces it whole ({tier:?})"
                    );
                }
            }
        }
    }
}

/// Shared prepared models: `prepare_shared` hands out a `'static`
/// artifact that multiple threads can run concurrently with sequential
/// results (the primitive under the service's worker pool).
#[test]
fn shared_prepared_graph_is_concurrently_reusable() {
    let nm = Nm::ONE_OF_EIGHT;
    let graph = mlp_graph(nm);
    let opts = Options::new(Target::SparseIsa);
    let prepared = Arc::new(PreparedGraph::prepare_shared(Arc::clone(&graph), &opts).unwrap());
    let xs = random_inputs(graph.input_shape(), 6, 55);
    let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (prepared, xs, expected) = (Arc::clone(&prepared), &xs, &expected);
            scope.spawn(move || {
                for (x, want) in xs.iter().zip(expected) {
                    let got = prepared.run(x).unwrap();
                    assert_eq!(got.output, want.output);
                    assert_eq!(got.matmul_compute_cycles, want.matmul_compute_cycles);
                }
            });
        }
    });
}
