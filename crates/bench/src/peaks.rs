//! Sec. 4 — theoretical inner-loop peaks (MACs/instruction/core).
//!
//! Derived from the same kernels the benchmarks run: two geometries
//! differing by exactly one inner chunk isolate the per-chunk instruction
//! count, from which the peak follows (the guard tests in `nm-kernels`
//! pin these to the paper's numbers).

use nm_compiler::plan::{conv_tile_stats, fc_tile_stats};
use nm_compiler::KernelChoice;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, FcGeom};
use nm_isa::CostModel;
use nm_platform::Cluster;

/// One peak row.
#[derive(Debug, Clone)]
pub struct PeakRow {
    /// Kernel label.
    pub kernel: String,
    /// Instructions per inner iteration.
    pub instrs: u64,
    /// Effective MACs per iteration.
    pub macs: u64,
    /// MACs per instruction (effective).
    pub peak: f64,
    /// Dense-equivalent MACs/instruction (× M for sparse kernels).
    pub dense_equivalent: f64,
}

fn conv_instret(choice: &KernelChoice, c: usize) -> u64 {
    let cluster = Cluster::new(1, CostModel::default());
    // PULP-NN processes channels in quads; K=1 would fall back to 1x2.
    let k = if matches!(choice, KernelChoice::ConvDensePulpNn) {
        4
    } else {
        1
    };
    let geom = ConvGeom::square(c, k, 2, 1, 1, 0).unwrap();
    conv_tile_stats(choice, &geom, &cluster)
        .unwrap()
        .cluster
        .total_instret()
}

fn fc_instret(choice: &KernelChoice, c: usize) -> u64 {
    let cluster = Cluster::new(1, CostModel::default());
    let k = if matches!(choice, KernelChoice::FcSparseIsa(_) | KernelChoice::FcDense) {
        2
    } else {
        1
    };
    let geom = FcGeom::new(c, k).unwrap();
    fc_tile_stats(choice, &geom, &cluster)
        .unwrap()
        .cluster
        .total_instret()
}

/// Derives the per-chunk instruction count of a kernel by differencing
/// two geometries one chunk apart, then forms the peak rows.
pub fn rows() -> Vec<PeakRow> {
    let mut out = Vec::new();
    // (label, choice-as-conv, macs/iter at 2 patches, dense multiplier)
    let conv_cases: Vec<(String, KernelChoice, u64, f64)> = {
        let mut v = vec![
            (
                "conv dense 1x2".to_string(),
                KernelChoice::ConvDense1x2,
                8,
                1.0,
            ),
            (
                "conv PULP-NN 4x2".to_string(),
                KernelChoice::ConvDensePulpNn,
                32,
                1.0,
            ),
        ];
        for nm in Nm::KERNEL_PATTERNS {
            v.push((
                format!("conv sparse SW {nm}"),
                KernelChoice::ConvSparseSw(nm),
                8,
                nm.m() as f64,
            ));
        }
        for nm in Nm::KERNEL_PATTERNS {
            v.push((
                format!("conv sparse ISA {nm}"),
                KernelChoice::ConvSparseIsa(nm),
                8,
                nm.m() as f64,
            ));
        }
        v
    };
    for (label, choice, macs, mult) in conv_cases {
        let unit = match &choice {
            KernelChoice::ConvSparseSw(nm) | KernelChoice::ConvSparseIsa(nm) => 4 * nm.m(),
            _ => 4,
        };
        let i1 = conv_instret(&choice, unit);
        let i2 = conv_instret(&choice, 2 * unit);
        // Remove the im2col delta (copy of `unit` extra bytes x 2 patches,
        // one load + one store per word).
        let positions = 4u64; // 2x2 outputs = 2 pairs
        let pairs = positions / 2;
        let im2col_delta = 2 * (unit as u64 / 4) * 2;
        let instrs = (i2 - i1) / pairs - im2col_delta;
        out.push(PeakRow {
            kernel: label,
            instrs,
            macs,
            peak: macs as f64 / instrs as f64,
            dense_equivalent: macs as f64 / instrs as f64 * mult,
        });
    }
    let fc_cases: Vec<(String, KernelChoice, u64, f64)> = {
        let mut v = vec![("fc dense 1x2".to_string(), KernelChoice::FcDense, 8, 1.0)];
        for nm in Nm::KERNEL_PATTERNS {
            v.push((
                format!("fc sparse SW {nm}"),
                KernelChoice::FcSparseSw(nm),
                4,
                nm.m() as f64,
            ));
        }
        for nm in Nm::KERNEL_PATTERNS {
            v.push((
                format!("fc sparse ISA {nm}"),
                KernelChoice::FcSparseIsa(nm),
                8,
                nm.m() as f64,
            ));
        }
        v
    };
    for (label, choice, macs, mult) in fc_cases {
        let unit = match &choice {
            KernelChoice::FcSparseSw(nm) | KernelChoice::FcSparseIsa(nm) => 4 * nm.m(),
            _ => 4,
        };
        let i1 = fc_instret(&choice, unit);
        let i2 = fc_instret(&choice, 2 * unit);
        let instrs = i2 - i1;
        out.push(PeakRow {
            kernel: label,
            instrs,
            macs,
            peak: macs as f64 / instrs as f64,
            dense_equivalent: macs as f64 / instrs as f64 * mult,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_match_paper_section_4() {
        let rows = rows();
        let get = |k: &str| rows.iter().find(|r| r.kernel == k).unwrap();
        assert_eq!(get("conv dense 1x2").instrs, 5);
        assert_eq!(get("conv PULP-NN 4x2").instrs, 14);
        assert_eq!(get("conv sparse SW 1:8").instrs, 22);
        assert_eq!(get("conv sparse SW 1:4").instrs, 23);
        assert_eq!(get("conv sparse ISA 1:8").instrs, 12);
        assert_eq!(get("conv sparse ISA 1:16").instrs, 12);
        assert_eq!(get("fc dense 1x2").instrs, 5);
        assert_eq!(get("fc sparse SW 1:8").instrs, 16);
        assert_eq!(get("fc sparse ISA 1:8").instrs, 13);
        // Peaks (paper: 2.28, 1.6, 0.36, 0.66, 0.25, 0.61).
        assert!((get("conv PULP-NN 4x2").peak - 2.28).abs() < 0.01);
        assert!((get("conv sparse SW 1:8").peak - 0.36).abs() < 0.01);
        assert!((get("conv sparse ISA 1:8").peak - 0.66).abs() < 0.01);
        assert!((get("fc sparse SW 1:16").peak - 0.25).abs() < 0.01);
        assert!((get("fc sparse ISA 1:16").peak - 0.61).abs() < 0.01);
        // Dense equivalents at 1:16: 5.76 SW conv; the paper quotes
        // 10.56 for ISA (0.66 x 16, with 0.66 already rounded); the
        // unrounded 8/12 x 16 = 10.67.
        assert!((get("conv sparse SW 1:16").dense_equivalent - 5.76).abs() < 0.1);
        assert!((get("conv sparse ISA 1:16").dense_equivalent - 10.67).abs() < 0.1);
    }
}
