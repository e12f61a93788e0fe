//! F2 — kernel-level energy estimation (the paper's future work on
//! energy savings; see DESIGN.md substitutions).
//!
//! Runs the Fig. 8 reference layers through the emulated kernels (so the
//! per-class instruction histograms are real) and applies the
//! activity-based [`EnergyModel`].

use nm_core::format::{NmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::FcGeom;
use nm_isa::{CostModel, EnergyModel};
use nm_kernels::fc::dense::fc_dense;
use nm_kernels::fc::sparse_isa::fc_sparse_isa;
use nm_kernels::fc::sparse_sw::{fc_sparse_sw, SparseFcJob};
use nm_kernels::fc::FcJob;
use nm_kernels::layout::{stage_fc_dense, stage_fc_sparse};
use nm_kernels::{Ctx, KernelStats};
use nm_nn::rng::XorShift;
use nm_platform::{Cluster, Scratchpad};

/// One energy row.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Kernel label.
    pub kernel: String,
    /// Cluster cycles.
    pub cycles: u64,
    /// Estimated energy in nanojoules.
    pub energy_nj: f64,
    /// Energy-delay product (nJ · Mcycles).
    pub edp: f64,
    /// Energy relative to the dense baseline.
    pub vs_dense: f64,
}

fn rows_from(stats: &[(String, KernelStats, usize)], model: &EnergyModel) -> Vec<EnergyRow> {
    let dense_energy = {
        let (_, s, dma) = &stats[0];
        model.execution_energy_pj(&s.cluster.per_core, s.cycles(), *dma)
    };
    stats
        .iter()
        .map(|(name, s, dma)| {
            let pj = model.execution_energy_pj(&s.cluster.per_core, s.cycles(), *dma);
            EnergyRow {
                kernel: name.clone(),
                cycles: s.cycles(),
                energy_nj: pj / 1e3,
                edp: pj / 1e3 * s.cycles() as f64 / 1e6,
                vs_dense: dense_energy / pj,
            }
        })
        .collect()
}

/// Energy comparison on the Fig. 8 FC layer (C = 1024, K = 256), with
/// real emulated instruction histograms. The first row is the dense
/// baseline.
pub fn fc_energy_rows(c: usize) -> Vec<EnergyRow> {
    let geom = FcGeom::new(c, 256).expect("geometry");
    let cluster = Cluster::new(8, CostModel::default());
    let model = EnergyModel::default();
    let mut rng = XorShift::new(11);
    let input = rng.fill_weights(geom.c, 50);
    let dense_w = rng.fill_weights(geom.weight_elems(), 40);
    let mut stats: Vec<(String, KernelStats, usize)> = Vec::new();

    let mut l1 = Scratchpad::new("L1", 1024 * 1024);
    let bufs = stage_fc_dense(&mut l1, &geom, &input, &dense_w).expect("stage dense");
    let job = FcJob {
        geom,
        requant: Requant::for_dot_len(geom.c),
        bufs,
    };
    let s = fc_dense(&mut Ctx::Mem(&mut l1), &job, &cluster).expect("dense kernel");
    stats.push(("dense-1x2".into(), s, geom.weight_elems() + geom.c));

    for nm in Nm::KERNEL_PATTERNS {
        for isa in [false, true] {
            let layout = if isa {
                OffsetLayout::Interleaved
            } else {
                OffsetLayout::Plain
            };
            let w =
                NmMatrix::prune_from_dense(&dense_w, geom.k, geom.c, nm, layout).expect("prune");
            let dma = w.memory_bits_nominal() / 8 + geom.c;
            let mut l1 = Scratchpad::new("L1", 1024 * 1024);
            let bufs = stage_fc_sparse(&mut l1, &geom, &input, &w).expect("stage sparse");
            let job = SparseFcJob {
                fc: FcJob {
                    geom,
                    requant: Requant::for_dot_len(geom.c / nm.m()),
                    bufs,
                },
                nm,
            };
            let s = if isa {
                fc_sparse_isa(&mut Ctx::Mem(&mut l1), &job, &cluster).expect("isa kernel")
            } else {
                fc_sparse_sw(&mut Ctx::Mem(&mut l1), &job, &cluster).expect("sw kernel")
            };
            let label = format!("{}-{nm}", if isa { "isa" } else { "sw" });
            stats.push((label, s, dma));
        }
    }
    rows_from(&stats, &model)
}

/// One end-to-end model energy row.
#[derive(Debug, Clone)]
pub struct ModelEnergyRow {
    /// Configuration label (`"dense"`, `"sw-1:8"`, ...).
    pub config: String,
    /// Planned model latency in Mcycles.
    pub mcycles: f64,
    /// Estimated energy in microjoules.
    pub energy_uj: f64,
    /// Energy relative to the dense baseline (higher = more saving).
    pub vs_dense: f64,
}

/// End-to-end energy estimate for a compiled model (`"resnet18"` or
/// `"dscnn"`), extending the F2 study from single kernels to networks.
///
/// Per layer: dynamic instruction energy from a full-layer analytic
/// kernel run (the tiled schedule retires the same inner-loop stream;
/// per-tile prologues are second-order), DMA energy from the exact
/// operand byte counts, idle energy over the planned layer cycles.
/// Element-wise/attention layers charge their compute cycles at the ALU
/// rate (no kernel histogram exists for them) — a small, sparsity-
/// independent term.
///
/// # Errors
/// Propagates compilation errors; [`nm_core::Error::Unsupported`] for an
/// unknown model name.
pub fn model_energy_rows(seed: u64, model_name: &str) -> nm_core::Result<Vec<ModelEnergyRow>> {
    use nm_compiler::plan::{conv_tile_stats, fc_tile_stats};
    use nm_compiler::{compile, KernelChoice, Options, Target};
    use nm_isa::{CoreStats, InstrClass};
    use nm_nn::graph::{Graph, OpKind};
    use nm_nn::prune::{prune_graph, resnet_policy};

    fn build(model_name: &str, seed: u64) -> nm_core::Result<Graph> {
        match model_name {
            "resnet18" => nm_models::resnet18_cifar(100, seed),
            "dscnn" => nm_models::ds_cnn_kws(seed),
            other => Err(nm_core::Error::Unsupported(format!(
                "unknown model {other}"
            ))),
        }
    }

    // Full-layer analytic kernel stats for the layer'"'"'s selected kernel.
    fn layer_stats(
        graph: &Graph,
        node: usize,
        choice: &KernelChoice,
        opts: &Options,
    ) -> nm_core::Result<Vec<CoreStats>> {
        let cluster = opts.cluster();
        match &graph.node(node).op {
            OpKind::Conv2d(l) => Ok(conv_tile_stats(choice, &l.geom, &cluster)?.cluster.per_core),
            OpKind::Linear(l) => {
                let tokens = if graph.node(node).out_shape.len() == 2 {
                    graph.node(node).out_shape[0]
                } else {
                    1
                };
                let mut per_core = fc_tile_stats(choice, &l.geom, &cluster)?.cluster.per_core;
                for s in &mut per_core {
                    s.cycles *= tokens as u64;
                    s.instret *= tokens as u64;
                    s.macs *= tokens as u64;
                    for c in &mut s.class_counts {
                        *c *= tokens as u64;
                    }
                }
                Ok(per_core)
            }
            _ => Ok(Vec::new()),
        }
    }

    let model = EnergyModel::default();
    let mut rows: Vec<ModelEnergyRow> = Vec::new();
    let mut configs: Vec<(String, Option<Nm>, Target)> =
        vec![("dense".into(), None, Target::DensePulpNn)];
    for nm in Nm::KERNEL_PATTERNS {
        configs.push((format!("sw-{nm}"), Some(nm), Target::SparseSw));
        configs.push((format!("isa-{nm}"), Some(nm), Target::SparseIsa));
    }
    for (label, nm, target) in configs {
        let mut g = build(model_name, seed)?;
        if let Some(nm) = nm {
            prune_graph(&mut g, nm, resnet_policy(nm))?;
        }
        let opts = Options::new(target);
        let report = compile(&g, &opts)?;
        let mut total_pj = 0.0;
        for plan in &report.layers {
            let node = &g.node(plan.node);
            let in_elems: usize = node
                .inputs
                .first()
                .map(|&i| g.node(i).out_shape.iter().product())
                .unwrap_or(0);
            let out_elems: usize = node.out_shape.iter().product();
            let dma_bytes = in_elems + out_elems + plan.weight_mem_bytes;
            let per_core = match &plan.choice {
                Some(choice) => layer_stats(&g, plan.node, choice, &opts)?,
                None => {
                    // Element-wise / attention: compute cycles at ALU rate.
                    let mut s = CoreStats::default();
                    s.class_counts[InstrClass::Alu as usize] = plan.compute_cycles;
                    vec![s]
                }
            };
            total_pj += model.execution_energy_pj(&per_core, plan.cycles, dma_bytes);
        }
        rows.push(ModelEnergyRow {
            config: label,
            mcycles: report.total_cycles() as f64 / 1e6,
            energy_uj: total_pj / 1e6,
            vs_dense: if rows.is_empty() {
                1.0
            } else {
                rows[0].energy_uj * 1e6 / total_pj
            },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_energy_orders_like_the_kernel_study() {
        let rows = model_energy_rows(1, "dscnn").unwrap();
        let get = |k: &str| rows.iter().find(|r| r.config == k).unwrap();
        assert!((get("dense").vs_dense - 1.0).abs() < 1e-9);
        // Sparsity saves energy end-to-end, more with the ISA extension.
        assert!(get("sw-1:8").vs_dense > 1.0);
        assert!(get("isa-1:8").vs_dense > get("sw-1:8").vs_dense);
        assert!(get("isa-1:16").vs_dense > get("isa-1:8").vs_dense);
        // Unknown model errors.
        assert!(model_energy_rows(1, "alexnet").is_err());
    }

    #[test]
    fn sparse_kernels_save_energy() {
        let rows = fc_energy_rows(512);
        let get = |k: &str| rows.iter().find(|r| r.kernel == k).unwrap();
        // Every sparse config at 1:8+ beats dense on energy (fewer
        // instructions, fewer bytes moved).
        assert!(get("sw-1:8").vs_dense > 1.0, "{:?}", get("sw-1:8"));
        assert!(get("isa-1:8").vs_dense > get("sw-1:8").vs_dense);
        assert!(get("isa-1:16").vs_dense > get("isa-1:8").vs_dense);
        // EDP strictly improves with the ISA extension at every pattern.
        for nm in ["1:4", "1:8", "1:16"] {
            assert!(
                get(&format!("isa-{nm}")).edp < get(&format!("sw-{nm}")).edp,
                "{nm}"
            );
        }
    }
}
