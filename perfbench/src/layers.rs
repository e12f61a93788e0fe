//! The per-layer pass: one model's graph walked node by node through the
//! crates' public entry points, every call timed from outside as a span.
//!
//! * `kernels`: each Conv/Linear node runs as a one-node graph (built
//!   with `GraphBuilder`, prepared once) through `PreparedGraph::run` at
//!   `host_threads = 1`, on the real activation the walk produced for
//!   it — once on the bulk tier and once on the native tier.
//! * `nn`: every other node runs through its public `nm_nn` op.
//! * `compiler`: whole-graph `run` at default options and at
//!   `host_threads = 1`, `run_batch`, and the `compile` planner.
//! * `platform`: the planner's per-layer cycle, DMA and L2 accounting.
//!
//! The walk is itself an execution path: its output must equal the
//! golden `nm_nn::execute` output, the per-node emulated cycles must sum
//! to the whole-graph `matmul_compute_cycles`, and the native tier must
//! match the bulk tier bit for bit.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use nm_compiler::{compile, ExecTier, ModelReport, PreparedGraph};
use nm_core::{Result, Tensor};
use nm_nn::graph::{Graph, GraphBuilder, Node, OpKind};
use nm_nn::ops;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the walk executes one node.
enum Step {
    /// Input node (nothing to run).
    Input,
    /// A Conv/Linear node as one-node graphs on the bulk and native
    /// tiers.
    Matmul {
        conv: bool,
        bulk: Box<PreparedGraph<'static>>,
        native: Box<PreparedGraph<'static>>,
    },
    /// A host-executed `nm_nn` op, with its metric label.
    Host(&'static str),
}

/// The `nn.*` metric a host op is charged to.
fn nn_label(op: &OpKind) -> &'static str {
    match op {
        OpKind::Attention(_) => "attention",
        OpKind::Gelu => "gelu",
        OpKind::LayerNorm => "layernorm",
        _ => "other",
    }
}

/// A graph holding just `op` on an input of `in_shape`.
fn one_node_graph(in_shape: &[usize], op: &OpKind) -> Result<Graph> {
    let mut b = GraphBuilder::new(in_shape);
    let x = b.input();
    let y = match op {
        OpKind::Conv2d(l) => b.conv(x, l.clone())?,
        OpKind::Linear(l) => b.linear(x, l.clone())?,
        _ => unreachable!("only matmul nodes run as one-node graphs"),
    };
    b.finish(y)
}

/// Runs a host node through the public `nm_nn` op.
fn host_op(node: &Node, values: &[Option<Tensor<i8>>]) -> Result<Tensor<i8>> {
    let get = |i: usize| values[node.inputs[i]].as_ref().expect("topological order");
    Ok(match &node.op {
        OpKind::Attention(a) => nm_nn::exec::attention(get(0), a),
        OpKind::Relu => ops::relu(get(0)),
        OpKind::Gelu => ops::gelu(get(0)),
        OpKind::LayerNorm => ops::layer_norm(get(0)),
        OpKind::MaxPool { k, s } => ops::max_pool(get(0), *k, *s),
        OpKind::AvgPool { k, s } => ops::avg_pool(get(0), *k, *s),
        OpKind::GlobalAvgPool => ops::global_avg_pool(get(0)),
        OpKind::Add => ops::add(get(0), get(1)),
        OpKind::Flatten => {
            let t = get(0).clone();
            let len = t.len();
            t.reshape(&[len])?
        }
        OpKind::Tokens => get(0).clone().reshape(&node.out_shape)?,
        OpKind::Input | OpKind::Conv2d(_) | OpKind::Linear(_) => {
            unreachable!("input and matmul nodes are not host ops")
        }
    })
}

/// Planner totals summed over every layer of a [`ModelReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCounts {
    pub compute_cycles: u64,
    pub dma_cycles: u64,
    pub weight_dma_txns: u64,
    pub l2_weight_bytes: u64,
    pub total_cycles: u64,
}

impl PlanCounts {
    pub fn of(report: &ModelReport) -> Self {
        let mut c = PlanCounts::default();
        for l in &report.layers {
            c.compute_cycles += l.compute_cycles;
            c.dma_cycles += l.dma_cycles;
            c.weight_dma_txns += l.weight_dma_transactions;
            c.l2_weight_bytes += l.weight_mem_bytes as u64;
            c.total_cycles += l.cycles;
        }
        c
    }
}

/// One model's per-layer figures (times are medians over the walk's
/// repetitions; per-node times are summed over nodes).
#[derive(Debug, Clone, Default)]
pub struct ModelLayers {
    pub run_ms: f64,
    pub run_t1_ms: f64,
    pub plan_ms: f64,
    /// `run_batch` wall per request at batch sizes 1 and 8.
    pub batch_b1_ms: f64,
    pub batch_b8_ms: f64,
    pub conv_ms: f64,
    pub fc_ms: f64,
    pub conv_native_ms: f64,
    pub fc_native_ms: f64,
    pub conv_cycles: u64,
    pub fc_cycles: u64,
    pub matmul_dense_macs: u64,
    pub attention_ms: f64,
    pub gelu_ms: f64,
    pub layernorm_ms: f64,
    pub other_ms: f64,
    pub plan_cycle_err: u64,
    pub plan: PlanCounts,
}

impl ModelLayers {
    /// Σ node walls at `host_threads = 1` (kernels and nn rows).
    pub fn node_ms(&self) -> f64 {
        self.conv_ms
            + self.fc_ms
            + self.attention_ms
            + self.gelu_ms
            + self.layernorm_ms
            + self.other_ms
    }
}

/// Median wall (ms) of the model's `run_batch` calls at batch size `b`.
pub fn batch_ms(tracer: &Tracer, label: &str, b: usize) -> f64 {
    let v: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "run_batch" && s.model == label && s.arg == Some(b))
        .map(|s| s.ms())
        .collect();
    median(&v)
}

/// Sum over nodes of each node's median span duration.
fn per_node_median_sum(tracer: &Tracer, layer: &str, name: &str, model: &str) -> f64 {
    let mut by_node: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in tracer.spans() {
        if s.layer == layer && s.name == name && s.model == model {
            by_node
                .entry(s.arg.expect("node spans carry the node id"))
                .or_default()
                .push(s.ms());
        }
    }
    by_node.values().map(|v| median(v)).sum()
}

/// Walks `graph` `reps` times (request ids `req0..`), cycling through
/// `pool`, and aggregates the spans into a [`ModelLayers`]. `prepared`
/// is the model at default options; `gold[i]` is the golden output of
/// `pool[i]` and `ref_cycles` the model's emulated cycles per inference.
/// Every disagreement is pushed to `problems`.
#[allow(clippy::too_many_arguments)]
pub fn walk(
    tracer: &mut Tracer,
    req0: u64,
    label: &'static str,
    graph: &Arc<Graph>,
    prepared: &PreparedGraph<'_>,
    pool: &[Tensor<i8>],
    gold: &[Tensor<i8>],
    ref_cycles: u64,
    reps: usize,
    max_batch: usize,
    problems: &mut Vec<String>,
) -> Result<ModelLayers> {
    let opts = *prepared.options();
    let mut t1 = opts;
    t1.host_threads = 1;
    let mut native = t1;
    native.tier = ExecTier::Native;
    let p1 = PreparedGraph::prepare_shared(Arc::clone(graph), &t1)?;
    let nodes = graph.nodes();
    let steps = nodes
        .iter()
        .map(|node| {
            Ok(match &node.op {
                OpKind::Input => Step::Input,
                op @ (OpKind::Conv2d(_) | OpKind::Linear(_)) => {
                    let g = Arc::new(one_node_graph(&nodes[node.inputs[0]].out_shape, op)?);
                    Step::Matmul {
                        conv: matches!(op, OpKind::Conv2d(_)),
                        bulk: Box::new(PreparedGraph::prepare_shared(Arc::clone(&g), &t1)?),
                        native: Box::new(PreparedGraph::prepare_shared(g, &native)?),
                    }
                }
                op => Step::Host(nn_label(op)),
            })
        })
        .collect::<Result<Vec<Step>>>()?;

    let mut node_cycles = vec![None::<u64>; nodes.len()];
    for rep in 0..reps {
        let req = req0 + rep as u64;
        let i = rep % pool.len();
        let x = &pool[i];
        for (name, p) in [("run", prepared), ("run_t1", &p1)] {
            let r = tracer.time(req, "compiler", name, label, None, || p.run(x))?;
            if r.output != gold[i] || r.matmul_compute_cycles != ref_cycles {
                problems.push(format!(
                    "{label}: compiler.{name} disagrees with the golden run"
                ));
            }
        }
        let mut values: Vec<Option<Tensor<i8>>> = vec![None; nodes.len()];
        values[0] = Some(x.clone());
        let mut cycles = 0u64;
        for (id, (node, step)) in nodes.iter().zip(&steps).enumerate() {
            let out = match step {
                Step::Input => continue,
                Step::Matmul { conv, bulk, native } => {
                    let (name, native_name) = if *conv {
                        ("conv", "conv_native")
                    } else {
                        ("fc", "fc_native")
                    };
                    let input = values[node.inputs[0]].as_ref().expect("topological order");
                    let r =
                        tracer.time(req, "kernels", name, label, Some(id), || bulk.run(input))?;
                    let n = tracer.time(req, "kernels", native_name, label, Some(id), || {
                        native.run(input)
                    })?;
                    if n.output != r.output {
                        problems.push(format!("{label}: node {id} native output != bulk output"));
                    }
                    if *node_cycles[id].get_or_insert(r.matmul_compute_cycles)
                        != r.matmul_compute_cycles
                    {
                        problems.push(format!(
                            "{label}: node {id} emulated cycles vary across runs"
                        ));
                    }
                    cycles += r.matmul_compute_cycles;
                    r.output
                }
                Step::Host(lbl) => {
                    tracer.time(req, "nn", lbl, label, Some(id), || host_op(node, &values))?
                }
            };
            values[id] = Some(out);
        }
        if values[graph.output()].as_ref() != Some(&gold[i]) {
            problems.push(format!(
                "{label}: node-by-node walk output != golden output"
            ));
        }
        if cycles != ref_cycles {
            problems.push(format!(
                "{label}: Σ node emulated cycles {cycles} != run matmul_compute_cycles {ref_cycles}"
            ));
        }
    }

    let plan_req = req0 + reps as u64;
    let mut report = None;
    for _ in 0..3 {
        report = Some(tracer.time(plan_req, "compiler", "plan", label, None, || {
            compile(graph, &opts)
        })?);
    }
    let report = report.expect("planned at least once");

    // `run_batch` at every batch size a service can form, three times each.
    for b in 1..=max_batch {
        let batch: Vec<&Tensor<i8>> = (0..b).map(|i| &pool[i % pool.len()]).collect();
        for _ in 0..3 {
            let runs = tracer.time(plan_req, "compiler", "run_batch", label, Some(b), || {
                prepared.run_batch(&batch)
            })?;
            if runs.iter().enumerate().any(|(i, r)| {
                r.output != gold[i % pool.len()] || r.matmul_compute_cycles != ref_cycles
            }) {
                problems.push(format!(
                    "{label}: run_batch({b}) disagrees with the golden outputs"
                ));
            }
        }
    }

    let mut out = ModelLayers {
        run_ms: median(&tracer.ms("compiler", "run", Some(label))),
        run_t1_ms: median(&tracer.ms("compiler", "run_t1", Some(label))),
        plan_ms: median(&tracer.ms("compiler", "plan", Some(label))),
        conv_ms: per_node_median_sum(tracer, "kernels", "conv", label),
        fc_ms: per_node_median_sum(tracer, "kernels", "fc", label),
        conv_native_ms: per_node_median_sum(tracer, "kernels", "conv_native", label),
        fc_native_ms: per_node_median_sum(tracer, "kernels", "fc_native", label),
        attention_ms: per_node_median_sum(tracer, "nn", "attention", label),
        gelu_ms: per_node_median_sum(tracer, "nn", "gelu", label),
        layernorm_ms: per_node_median_sum(tracer, "nn", "layernorm", label),
        other_ms: per_node_median_sum(tracer, "nn", "other", label),
        batch_b1_ms: batch_ms(tracer, label, 1),
        batch_b8_ms: batch_ms(tracer, label, 8) / 8.0,
        plan: PlanCounts::of(&report),
        ..ModelLayers::default()
    };
    for (id, step) in steps.iter().enumerate() {
        if let Step::Matmul { conv, .. } = step {
            let c = node_cycles[id].unwrap_or(0);
            if *conv {
                out.conv_cycles += c;
            } else {
                out.fc_cycles += c;
            }
        }
    }
    for l in report.layers.iter().filter(|l| l.choice.is_some()) {
        let emulated = node_cycles[l.node].unwrap_or(0);
        out.plan_cycle_err += l.compute_cycles.abs_diff(emulated);
        out.matmul_dense_macs += l.dense_macs;
    }
    Ok(out)
}

/// Sets every per-layer metric a [`ModelLayers`] carries from
/// `(weight, model)` parts: each is `Σ weight × value` (weight 1 for a
/// single model; the mix share of each model on `serve-mix`, so the
/// figures there are per average request). The ratios are taken of the
/// weighted sums.
pub fn set_metrics(report: &mut Report, parts: &[(f64, &ModelLayers)]) {
    let sum = |f: &dyn Fn(&ModelLayers) -> f64| parts.iter().map(|(w, l)| w * f(l)).sum::<f64>();
    let kernel_ms = sum(&|l| l.conv_ms + l.fc_ms);
    let sim_cycles = sum(&|l| (l.conv_cycles + l.fc_cycles) as f64);
    report.set("compiler.run_ms_p50", sum(&|l| l.run_ms));
    report.set("compiler.run_ms_t1_p50", sum(&|l| l.run_t1_ms));
    report.set("compiler.exec_self_ms", sum(&|l| l.run_t1_ms - l.node_ms()));
    report.set("compiler.plan_ms", sum(&|l| l.plan_ms));
    report.set("compiler.run_batch_ms_per_req.b1", sum(&|l| l.batch_b1_ms));
    report.set("compiler.run_batch_ms_per_req.b8", sum(&|l| l.batch_b8_ms));
    report.set("compiler.plan_cycle_err", sum(&|l| l.plan_cycle_err as f64));
    report.set("kernels.conv_ms", sum(&|l| l.conv_ms));
    report.set("kernels.fc_ms", sum(&|l| l.fc_ms));
    report.set("kernels.conv_sim_cycles", sum(&|l| l.conv_cycles as f64));
    report.set("kernels.fc_sim_cycles", sum(&|l| l.fc_cycles as f64));
    report.set("kernels.ns_per_sim_cycle", kernel_ms * 1e6 / sim_cycles);
    report.set(
        "kernels.dense_gmac_per_s",
        sum(&|l| l.matmul_dense_macs as f64) / (kernel_ms * 1e-3) / 1e9,
    );
    report.set(
        "kernels.native_speedup",
        kernel_ms / sum(&|l| l.conv_native_ms + l.fc_native_ms),
    );
    let host_ms = sum(&|l| l.attention_ms + l.gelu_ms + l.layernorm_ms + l.other_ms);
    report.set("nn.host_ms", host_ms);
    report.set("nn.attention_share", sum(&|l| l.attention_ms) / host_ms);
    report.set("nn.gelu_share", sum(&|l| l.gelu_ms) / host_ms);
    report.set("nn.layernorm_share", sum(&|l| l.layernorm_ms) / host_ms);
    report.set(
        "platform.compute_cycles",
        sum(&|l| l.plan.compute_cycles as f64),
    );
    report.set("platform.dma_cycles", sum(&|l| l.plan.dma_cycles as f64));
    report.set(
        "platform.weight_dma_txns",
        sum(&|l| l.plan.weight_dma_txns as f64),
    );
    report.set(
        "platform.l2_weight_kb",
        sum(&|l| l.plan.l2_weight_bytes as f64) / 1024.0,
    );
    report.set(
        "platform.plan_total_cycles",
        sum(&|l| l.plan.total_cycles as f64),
    );
}
