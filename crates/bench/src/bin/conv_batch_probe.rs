//! Microbenchmark behind the batch-major conv design decision: for a
//! batch of B requests over one conv tile, is it faster to (a) restage
//! the tile's packed weights per request (the old sequential loop), or
//! (b) stage them once and sweep all B inputs through the held staging,
//! rewriting only the input buffer between requests (the conv arm of
//! the executor's layer-major walk, `BatchPlan::LayerMajor`)?
//!
//! Usage: `conv_batch_probe [reps]` (default 200; one rep = one
//! 16-request batch per strategy).
//!
//! A third candidate — stacking the B im2col'd inputs into one
//! `[B·ox·oy, k]` patch matrix and running a single big kernel
//! invocation — is rejected without a bench, on correctness and
//! capacity grounds rather than speed:
//!
//! * **correctness**: the partial-im2col driver materializes patches by
//!   sliding over *adjacent* output positions; concatenating requests
//!   along the spatial axis makes the boundary patches of request r+1
//!   slide over request r's last rows — activations bleed across
//!   requests, so the result would not be bit-identical to sequential
//!   runs (and per-request cycle attribution inside one fused
//!   invocation has no kernel-level meaning);
//! * **capacity**: the sweep holds ONE request's tile input in L1
//!   (~tens of KB for serving-ResNet tiles); a stacked variant holds B
//!   of them — 16 × ~37 KB ≈ 590 KB against a 128 KB scratchpad budget,
//!   so realistic tiles simply do not fit.
//!
//! The probe runs the sparse-ISA family (the serving benchmark's
//! target) on the bulk path with a prepared decimation program, on a
//! ResNet-18-like tile. Expected outcome (and why `net-serve-resnet18`
//! b16 ≥ 1.10 × b1 is a reasonable snapshot floor): held staging skips
//! the per-request scratchpad reset, weight/offset staging writes and
//! program validation; requests after the first skip cycle accounting
//! entirely, reusing request 0's input-value-independent statistics
//! (`drive_conv_batch`'s charge flag); and — the larger share —
//! those requests run request-inner through the transposed-patch
//! sweep, where each weight byte and decimation index is loaded once
//! per eight requests instead of re-walked per request (profiled on
//! this tile: the gather/dot is ~94 % of a sequential request's time,
//! so that amortization, not the charge skip, is what moves the
//! ratio).

use nm_compiler::Target;
use nm_core::format::{NmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::ConvGeom;
use nm_isa::CostModel;
use nm_kernels::conv::sparse_isa::conv_sparse_isa_prepared_batch;
use nm_kernels::conv::sparse_sw::SparseConvJob;
use nm_kernels::conv::{ConvBatch, ConvJob, DecimProgram};
use nm_kernels::layout::stage_conv_sparse;
use nm_kernels::Ctx;
use nm_nn::rng::XorShift;
use nm_platform::{Cluster, Scratchpad};
use std::time::Instant;

const BATCH: usize = 16;

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    let nm = Nm::ONE_OF_EIGHT;
    // A serving-ResNet-like tile: 32 channels in/out, 16×16 spatial,
    // 3×3 kernel (the halo-materialized tile geometry has pad 0).
    let geom = ConvGeom::square(32, 32, 18, 3, 1, 0).unwrap();
    let mut rng = XorShift::new(7);
    let dense = rng.fill_weights(geom.weight_elems(), 60);
    let weights = NmMatrix::prune_from_dense(
        &dense,
        geom.k,
        geom.patch_len(),
        nm,
        OffsetLayout::Duplicated,
    )
    .unwrap();
    let program = DecimProgram::from_matrix(&weights).unwrap();
    let cluster = Cluster::new(8, CostModel::default());
    let inputs: Vec<Vec<i8>> = (0..BATCH)
        .map(|_| rng.fill_weights(geom.input_elems(), 50))
        .collect();
    let refs: Vec<&[i8]> = inputs.iter().map(|v| v.as_slice()).collect();
    let mut mem = Scratchpad::new("l1", 512 * 1024);
    let job_for = |bufs| SparseConvJob {
        conv: ConvJob {
            geom,
            requant: Requant::for_dot_len(geom.patch_len() / nm.m()),
            bufs,
        },
        nm,
    };

    // (a) restage per request — the sequential loop's per-tile work.
    let t = Instant::now();
    let mut sink = 0u64;
    for _ in 0..reps {
        for input in &refs {
            mem.reset();
            let bufs = stage_conv_sparse(&mut mem, &geom, input, &weights, cluster.n_cores())
                .expect("tile fits");
            let mut ctx = Ctx::MemBulk(&mut mem);
            let run = conv_sparse_isa_prepared_batch(
                &mut ctx,
                &job_for(bufs),
                &cluster,
                Some(&program),
                &ConvBatch { inputs: &[input] },
            )
            .expect("kernel runs");
            sink = sink.wrapping_add(run.stats[0].cycles());
        }
    }
    let restage_s = t.elapsed().as_secs_f64();

    // (b) stage once, sweep the batch through the held staging.
    let t = Instant::now();
    for _ in 0..reps {
        mem.reset();
        let bufs = stage_conv_sparse(&mut mem, &geom, refs[0], &weights, cluster.n_cores())
            .expect("tile fits");
        let mut ctx = Ctx::MemBulk(&mut mem);
        let run = conv_sparse_isa_prepared_batch(
            &mut ctx,
            &job_for(bufs),
            &cluster,
            Some(&program),
            &ConvBatch { inputs: &refs },
        )
        .expect("kernel runs");
        sink = sink.wrapping_add(run.stats.iter().map(|s| s.cycles()).sum::<u64>());
    }
    let held_s = t.elapsed().as_secs_f64();

    println!(
        "== conv batch-major probe (target {:?}) ==",
        Target::SparseIsa
    );
    println!(
        "tile {}x{} k={} patch={}, batch {BATCH}, {reps} reps, sink {sink}",
        geom.ix,
        geom.iy,
        geom.k,
        geom.patch_len()
    );
    println!("restage per request : {restage_s:8.3} s");
    println!("held staging (sweep): {held_s:8.3} s");
    println!("speedup             : {:8.3}x", restage_s / held_s);
}
