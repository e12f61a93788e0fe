//! Fully-connected kernels (paper Sec. 4.2).
//!
//! FC layers have no weight reuse, so the dense baseline unrolls over two
//! output channels (K) instead of two patches; multicore parallelization
//! is over K. The sparse kernels reuse the convolution inner-loop shapes
//! on a single input buffer.
//!
//! * [`dense::fc_dense`] — 1×2 dense baseline (peak 1.6 MACs/instr/core);
//! * [`sparse_sw::fc_sparse_sw`] — software N:M kernel, 16 inner
//!   instructions for 4 MACs (peak 0.25);
//! * [`sparse_isa::fc_sparse_isa`] — `xDecimate` kernel with offsets of
//!   two consecutive channels interleaved offline (Fig. 6), 13 inner
//!   instructions for 8 MACs (peak 0.61).
//! * [`per_channel::fc_channel_mixed`] — per-channel variable patterns
//!   (future-work extension), pairing adjacent dense channels and
//!   decimating sparse ones.

pub mod dense;
pub mod per_channel;
pub mod sparse_isa;
pub mod sparse_sw;

use crate::layout::FcBufs;
use crate::stats::KernelStats;
use nm_core::quant::Requant;
use nm_core::FcGeom;
use nm_isa::Core;
use nm_platform::{Cluster, ClusterStats};

/// One fully-connected invocation: geometry, requantization, L1 buffers.
#[derive(Debug, Clone, Copy)]
pub struct FcJob {
    /// Layer (or tile) geometry.
    pub geom: FcGeom,
    /// Output requantization.
    pub requant: Requant,
    /// L1 buffer addresses (unused in analytic mode).
    pub bufs: FcBufs,
}

/// Instructions charged per produced output during requantization
/// (bias add, shift, clip) — the byte store is charged separately.
pub(crate) const EPILOGUE_ALU: u64 = 3;

/// Shared per-core driver: runs `body(core_id, core)` on every cluster
/// core and assembles the stats.
pub(crate) fn run_fc<F>(name: String, geom: &FcGeom, cluster: &Cluster, mut body: F) -> KernelStats
where
    F: FnMut(usize, &mut Core),
{
    let mut per_core = Vec::with_capacity(cluster.n_cores());
    for core_id in 0..cluster.n_cores() {
        let mut core = Core::new(cluster.costs());
        core.kernel_overhead();
        body(core_id, &mut core);
        per_core.push(core.stats());
    }
    KernelStats {
        name,
        cluster: ClusterStats::from_cores(per_core, cluster.costs().barrier_cycles),
        dense_macs: geom.macs() as u64,
    }
}
