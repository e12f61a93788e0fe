//! Native-tier parity: `ExecTier::Native` is the bulk tier with cycles
//! withheld. Kernels run exactly as on `ExecTier::Bulk`; the compiled
//! executor reports zero cycles for the tier. The contract, checked end
//! to end through `PreparedGraph` on the ViT-tiny and ResNet-18/CIFAR
//! serving models (the graphs behind the bench suite's `net-*-native`
//! rows):
//!
//! * **outputs** — bit-identical to the bulk tier's;
//! * **cycles** — `matmul_compute_cycles` is zero, since cycles are only
//!   reported on the cycle-accurate tiers.

use nm_compiler::{ExecTier, Options, PreparedGraph, Target};
use nm_core::sparsity::Nm;
use nm_core::Tensor;
use nm_models::resnet18_cifar_serve_sparse;
use nm_models::vit::vit_tiny_sparse_for_tests;
use nm_nn::rng::XorShift;

/// End to end through the compiled executor: a native-tier
/// `PreparedGraph` of the graph behind the `net-vit-tiny-native` bench
/// row must reproduce the bulk tier's output bits exactly and report
/// zero cycles, for every target and a couple of thread counts.
#[test]
fn vit_tiny_prepared_native_parity() {
    let g = vit_tiny_sparse_for_tests(Nm::ONE_OF_EIGHT, 4).unwrap();
    let mut rng = XorShift::new(21);
    let input = Tensor::from_vec(&[16, 16, 3], rng.fill_weights(16 * 16 * 3, 50)).unwrap();
    for target in [Target::SparseIsa, Target::SparseSw, Target::DensePulpNn] {
        let mut opts = Options::new(target);
        let bulk = PreparedGraph::prepare(&g, &opts)
            .unwrap()
            .run(&input)
            .unwrap();
        opts.tier = ExecTier::Native;
        for threads in [1, 4] {
            opts.host_threads = threads;
            let native = PreparedGraph::prepare(&g, &opts)
                .unwrap()
                .run(&input)
                .unwrap();
            assert_eq!(
                native.output, bulk.output,
                "{target:?} threads={threads} native output diverged"
            );
            assert_eq!(
                native.matmul_compute_cycles, 0,
                "{target:?} threads={threads} native cycles must be zero"
            );
        }
    }
}

/// The ResNet-18/CIFAR serving model (the graph behind
/// `net-resnet18-cifar-native`) end to end: native output bits equal
/// bulk's, cycles zero.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs ResNet-18 inference; runs in release CI (cargo test --release)"
)]
fn resnet18_prepared_native_parity() {
    let g = resnet18_cifar_serve_sparse(10, Nm::ONE_OF_EIGHT, 1).unwrap();
    let mut rng = XorShift::new(5);
    let elems: usize = g.input_shape().iter().product();
    let input = Tensor::from_vec(g.input_shape(), rng.fill_weights(elems, 50)).unwrap();
    let mut opts = Options::new(Target::SparseIsa);
    let bulk = PreparedGraph::prepare(&g, &opts)
        .unwrap()
        .run(&input)
        .unwrap();
    opts.tier = ExecTier::Native;
    let native = PreparedGraph::prepare(&g, &opts)
        .unwrap()
        .run(&input)
        .unwrap();
    assert_eq!(native.output, bulk.output, "native output diverged");
    assert_eq!(native.matmul_compute_cycles, 0);
}
