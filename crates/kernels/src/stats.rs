//! Kernel execution context and result statistics.

use nm_platform::{ClusterStats, Scratchpad};

/// The execution tier a caller selects for emulated runs.
///
/// * [`ExecTier::Reference`] — golden per-instruction model: every
///   charged operation performs its architectural effect one
///   instruction at a time. Slowest, fully cycle-accurate.
/// * [`ExecTier::Bulk`] — fast path: outputs from zero-copy scratchpad
///   slices, accounting via whole [`nm_isa::InstrBlock`] charges.
///   **Bit- and cycle-identical** to `Reference` (enforced by
///   `tests/bulk_parity.rs`).
/// * [`ExecTier::Native`] — the bulk tier with cycles withheld: kernels
///   run exactly as on `Bulk` ([`Ctx::tiered`] maps both to
///   [`Ctx::MemBulk`]), and the layers above the kernels report no
///   cycles/instret on this tier (zero in the compiler, `None` in
///   serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// Per-instruction reference emulation.
    Reference,
    /// Bulk fast-path emulation (slices + block charging).
    #[default]
    Bulk,
    /// Bulk execution with cycles withheld (outputs only).
    Native,
}

impl ExecTier {
    /// Whether this tier produces defined cycle/instret statistics.
    pub fn is_cycle_accurate(self) -> bool {
        !matches!(self, ExecTier::Native)
    }

    /// Parses the tier names used by benches and configs.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "reference" => Some(ExecTier::Reference),
            "bulk" => Some(ExecTier::Bulk),
            "native" => Some(ExecTier::Native),
            _ => None,
        }
    }

    /// The bench/config name of this tier.
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Reference => "reference",
            ExecTier::Bulk => "bulk",
            ExecTier::Native => "native",
        }
    }
}

/// Execution context: emulation against a real L1 scratchpad (bit-exact
/// outputs), or analytic mode (cycle charging only, no memory traffic).
///
/// [`Ctx::Mem`] is the golden reference: every charged operation performs
/// its architectural effect one instruction at a time. [`Ctx::MemBulk`]
/// produces **identical outputs and identical statistics** (enforced by
/// the parity tests in `tests/bulk_parity.rs`) but computes outputs from
/// zero-copy scratchpad slices and charges whole instruction blocks via
/// [`nm_isa::Core::charge_block`], which makes host emulation several
/// times faster. Use `Mem` when validating the model and `MemBulk` for
/// sweeps, benches and serving.
#[derive(Debug)]
pub enum Ctx<'a> {
    /// Emulate per-instruction against this L1 scratchpad (reference).
    Mem(&'a mut Scratchpad),
    /// Emulate against this L1 scratchpad on the bulk fast path.
    MemBulk(&'a mut Scratchpad),
    /// Charge cycles without touching memory.
    Analytic,
}

impl<'a> Ctx<'a> {
    /// The emulation context for `tier` over `mem`. [`ExecTier::Native`]
    /// runs the bulk tier; withholding its cycles is the caller's job.
    pub fn tiered(tier: ExecTier, mem: &'a mut Scratchpad) -> Self {
        match tier {
            ExecTier::Reference => Ctx::Mem(mem),
            ExecTier::Bulk | ExecTier::Native => Ctx::MemBulk(mem),
        }
    }

    /// Whether this context carries a memory (any emulation tier).
    pub fn is_mem(&self) -> bool {
        matches!(self, Ctx::Mem(_) | Ctx::MemBulk(_))
    }

    /// The scratchpad, if emulating (any tier).
    pub fn mem(&mut self) -> Option<&mut Scratchpad> {
        match self {
            Ctx::Mem(m) | Ctx::MemBulk(m) => Some(m),
            Ctx::Analytic => None,
        }
    }
}

/// The result of one kernel invocation on the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel name (e.g. `"conv-sparse-isa-1:8"`).
    pub name: String,
    /// Cluster-level statistics (latency = slowest core + barrier).
    pub cluster: ClusterStats,
    /// Dense-equivalent MAC count of the layer (sparse kernels execute
    /// fewer effective MACs; the paper reports dense equivalents).
    pub dense_macs: u64,
}

impl KernelStats {
    /// Cluster latency in cycles.
    pub fn cycles(&self) -> u64 {
        self.cluster.cycles
    }

    /// Dense-equivalent MACs per cycle — the paper's Fig. 8 metric.
    pub fn macs_per_cycle(&self) -> f64 {
        self.dense_macs as f64 / self.cluster.cycles as f64
    }

    /// Effective (executed) MACs per cycle.
    pub fn effective_macs_per_cycle(&self) -> f64 {
        self.cluster.total_macs() as f64 / self.cluster.cycles as f64
    }

    /// Speedup of `self` over `other` (cycles ratio).
    pub fn speedup_over(&self, other: &KernelStats) -> f64 {
        other.cluster.cycles as f64 / self.cluster.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_isa::CoreStats;

    fn stats(cycles: u64) -> KernelStats {
        KernelStats {
            name: "test".into(),
            cluster: ClusterStats::from_cores(
                vec![CoreStats {
                    cycles,
                    instret: 10,
                    macs: 100,
                    ..Default::default()
                }],
                0,
            ),
            dense_macs: 800,
        }
    }

    #[test]
    fn metrics() {
        let a = stats(100);
        let b = stats(200);
        assert_eq!(a.cycles(), 100);
        assert_eq!(a.macs_per_cycle(), 8.0);
        assert_eq!(a.effective_macs_per_cycle(), 1.0);
        assert_eq!(a.speedup_over(&b), 2.0);
        assert_eq!(b.speedup_over(&a), 0.5);
    }

    #[test]
    fn ctx_mem_access() {
        let mut l1 = Scratchpad::new("l1", 16);
        let mut ctx = Ctx::Mem(&mut l1);
        assert!(ctx.is_mem());
        assert!(ctx.mem().is_some());
        let mut ctx = Ctx::MemBulk(&mut l1);
        assert!(ctx.is_mem());
        assert!(ctx.mem().is_some());
        let mut ctx = Ctx::Analytic;
        assert!(!ctx.is_mem());
        assert!(ctx.mem().is_none());
    }

    #[test]
    fn tiered_constructor_and_names() {
        let mut l1 = Scratchpad::new("l1", 16);
        assert!(matches!(
            Ctx::tiered(ExecTier::Reference, &mut l1),
            Ctx::Mem(_)
        ));
        assert!(matches!(
            Ctx::tiered(ExecTier::Bulk, &mut l1),
            Ctx::MemBulk(_)
        ));
        assert!(matches!(
            Ctx::tiered(ExecTier::Native, &mut l1),
            Ctx::MemBulk(_)
        ));
        for tier in [ExecTier::Reference, ExecTier::Bulk, ExecTier::Native] {
            assert_eq!(ExecTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(ExecTier::from_name("analytic"), None);
        assert_eq!(ExecTier::default(), ExecTier::Bulk);
        assert!(ExecTier::Bulk.is_cycle_accurate());
        assert!(!ExecTier::Native.is_cycle_accurate());
    }
}
