//! The fixed workload definitions. Every number here is part of the
//! benchmark, not of the program under test: none is calibrated against
//! a measurement, so a faster program is measured under exactly the same
//! load as a slower one. Change one only in a change that redefines the
//! benchmark (and re-measure the baseline after it).

use crate::stats::Tail;
use crate::steal::Quiet;
use nm_core::sparsity::Nm;
use nm_core::{Result, Tensor};
use nm_models::vit::VitConfig;
use nm_nn::graph::Graph;
use nm_nn::prune::{prune_graph, vit_ff_policy};
use nm_nn::rng::XorShift;

/// The sparsity every model is pruned to.
pub const NM: Nm = Nm::ONE_OF_EIGHT;
/// Seed of the synthetic weights: part of each model's definition, not
/// of the workload's inputs (those come from `--seed`).
pub const WEIGHT_SEED: u64 = 1;

/// A model the benchmark builds through `nm_models`.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// Name in metrics, spans and the service's model table.
    pub label: &'static str,
    /// Graph construction (the `models` layer).
    pub build: fn() -> Result<Graph>,
    /// Distinct inputs in the seeded pool. Each one costs one golden
    /// `nm_nn::execute` walk per run (about 1.5 s for ResNet18 on a
    /// 2-vCPU x86-64 host), so the big models keep small pools.
    pub pool: usize,
}

fn resnet18() -> Result<Graph> {
    nm_models::resnet::resnet18_cifar_sparse(100, NM, WEIGHT_SEED)
}

fn vit_tiny() -> Result<Graph> {
    nm_models::vit::vit_tiny_sparse_for_tests(NM, WEIGHT_SEED)
}

fn serve_resnet18() -> Result<Graph> {
    nm_models::resnet18_cifar_serve_sparse(10, NM, WEIGHT_SEED)
}

fn serve_mlp() -> Result<Graph> {
    nm_models::mlp_serve_sparse(&[1024, 512, 256, 64], NM, WEIGHT_SEED)
}

/// ViT on a 32×32 image (patch 4, dim 64, depth 4, 4 heads, FF ratio 4,
/// 10 classes) with its feed-forward layers pruned.
fn vit_cifar() -> Result<Graph> {
    let cfg = VitConfig {
        image: 32,
        patch: 4,
        dim: 64,
        depth: 4,
        heads: 4,
        mlp_ratio: 4,
        classes: 10,
    };
    let mut g = nm_models::vit_small(&cfg, WEIGHT_SEED)?;
    prune_graph(&mut g, NM, vit_ff_policy(NM, 16))?;
    Ok(g)
}

/// A closed-loop workload: one client sends its next request when the
/// previous one returns.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSpec {
    pub model: ModelSpec,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Traced walks of the graph node by node (per-layer pass).
    pub walk_reps: usize,
    /// The percentile reported as `latency_tail_ms`, over the requests
    /// of the quiet windows.
    pub tail: Tail,
    /// The windows the timings and `slo_attain` are taken from.
    pub quiet: Quiet,
    /// Latency limit of `slo_attain`, in milliseconds.
    pub slo_ms: f64,
    /// Requests the traced run sends one at a time through an
    /// `nm_serve::Service` for the `serve.*` per-layer metrics.
    pub serve_probe: usize,
}

/// The open-loop serving workload.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpec {
    pub models: [ModelSpec; 3],
    /// Popularity mix, in percent of requests per model.
    pub shares: [u32; 3],
    /// Fixed absolute Poisson arrival rate (requests per second).
    pub rate_per_s: f64,
    pub workers: usize,
    pub max_batch: usize,
    /// Deep enough that nothing is ever shed at the full queue.
    pub queue_capacity: usize,
    pub setup_reps: usize,
    pub walk_reps: usize,
    /// As for [`ClosedSpec`]; the windows are cut by send time.
    pub tail: Tail,
    pub quiet: Quiet,
    pub slo_ms: f64,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Closed(&'static str, ClosedSpec),
    Open(&'static str, OpenSpec),
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Closed(n, _) | Workload::Open(n, _) => n,
        }
    }
}

pub const RESNET18: ModelSpec = ModelSpec {
    label: "resnet18",
    build: resnet18,
    pool: 2,
};
pub const VIT_TINY: ModelSpec = ModelSpec {
    label: "vit-tiny",
    build: vit_tiny,
    pool: 16,
};
pub const SERVE_RESNET18: ModelSpec = ModelSpec {
    label: "serve-resnet18",
    build: serve_resnet18,
    pool: 4,
};
pub const SERVE_MLP: ModelSpec = ModelSpec {
    label: "serve-mlp",
    build: serve_mlp,
    pool: 16,
};
pub const VIT_CIFAR: ModelSpec = ModelSpec {
    label: "vit-cifar",
    build: vit_cifar,
    pool: 8,
};

/// Every workload: those of `BENCHMARK.json`, in its order, then
/// `vit-tiny-b1`, which it leaves out because its figures do not hold
/// steady on a shared 2-vCPU host (see `perfbench/README.md`); it runs
/// by hand with the same command.
pub const WORKLOADS: [Workload; 3] = [
    Workload::Closed(
        "resnet18-b1",
        ClosedSpec {
            model: RESNET18,
            setup_reps: 3,
            walk_reps: 7,
            tail: Tail::P90,
            quiet: Quiet {
                window_s: 0.1,
                share: 0.05,
                samples: 100,
            },
            slo_ms: 60.0,
            serve_probe: 40,
        },
    ),
    Workload::Open(
        "serve-mix",
        OpenSpec {
            models: [SERVE_RESNET18, SERVE_MLP, VIT_CIFAR],
            shares: [20, 75, 5],
            rate_per_s: 70.0,
            workers: 2,
            max_batch: 8,
            queue_capacity: 8192,
            setup_reps: 5,
            walk_reps: 7,
            tail: Tail::P90,
            quiet: Quiet {
                window_s: 0.2,
                share: 0.05,
                samples: 500,
            },
            slo_ms: 50.0,
        },
    ),
    Workload::Closed(
        "vit-tiny-b1",
        ClosedSpec {
            model: VIT_TINY,
            setup_reps: 101,
            walk_reps: 301,
            tail: Tail::P90,
            quiet: Quiet {
                window_s: 0.1,
                share: 0.05,
                samples: 100,
            },
            slo_ms: 2.0,
            serve_probe: 1000,
        },
    ),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name() == name)
}

/// The seeded input pool of one model: `model.pool` distinct int8
/// tensors of the graph's input shape, uniform over the full int8 range.
pub fn input_pool(model: &ModelSpec, shape: &[usize], seed: u64) -> Vec<Tensor<i8>> {
    let label_hash = model.label.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    let mut rng = XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label_hash);
    let len: usize = shape.iter().product();
    let pool: Vec<Tensor<i8>> = (0..model.pool)
        .map(|_| {
            let data = (0..len).map(|_| rng.next_i8(127)).collect();
            Tensor::from_vec(shape, data).expect("data length matches the shape")
        })
        .collect();
    for (i, a) in pool.iter().enumerate() {
        assert!(
            pool[..i].iter().all(|b| b.data() != a.data()),
            "input pool tensors are distinct"
        );
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_replay_per_seed_and_differ_across_seeds() {
        let shape = [4, 4, 3];
        let a = input_pool(&VIT_TINY, &shape, 5);
        assert_eq!(a.len(), VIT_TINY.pool);
        assert_eq!(a, input_pool(&VIT_TINY, &shape, 5));
        assert_ne!(a, input_pool(&VIT_TINY, &shape, 6));
        assert_ne!(a, input_pool(&SERVE_MLP, &shape, 5)[..VIT_TINY.pool]);
    }

    #[test]
    fn each_tail_is_the_highest_its_samples_support() {
        for w in WORKLOADS {
            let (tail, samples) = match w {
                Workload::Closed(_, c) => (c.tail, c.quiet.samples),
                Workload::Open(_, o) => (o.tail, o.quiet.samples),
            };
            assert_eq!(Tail::highest_supported(samples), Some(tail), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name()).map(|x| x.name()), Some(w.name()));
        }
        assert!(workload("nope").is_none());
    }
}
