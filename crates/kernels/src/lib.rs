//! # nm-kernels
//!
//! The paper's kernel library (Sec. 4): dense PULP-NN baselines and N:M
//! sparse convolution / fully-connected kernels for 1:4, 1:8 and 1:16
//! sparsity, in both software-only (XpulpV2) and ISA-extended
//! (`xDecimate`) variants.
//!
//! Every kernel is written against the charged-operation API of
//! [`nm_isa::Core`], so one implementation serves two purposes:
//!
//! * **Emulation** ([`Ctx::Mem`]): the kernel reads and writes real int8
//!   data in the simulated L1 scratchpad, producing bit-exact outputs
//!   (verified against [`mod@reference`]) while counting cycles.
//! * **Analytic** ([`Ctx::Analytic`]): the same loop structure runs
//!   without touching memory, charging identical per-chunk instruction
//!   counts in O(output positions) — used for end-to-end networks, where
//!   emulating every MAC of a ViT would be needlessly slow. Property
//!   tests pin `analytic cycles == emulated cycles` exactly.
//!
//! Inner-loop instruction budgets match the paper's Sec. 4 analysis and
//! are locked by guard tests:
//!
//! | kernel | instrs/inner iter | MACs | peak MACs/instr |
//! |---|---|---|---|
//! | conv dense 4x2 (PULP-NN) | 14 | 32 | 2.28 |
//! | conv dense 1x2 | 5 | 8 | 1.6 |
//! | conv sparse SW 1:8, 1:16 | 22 | 8 | 0.36 |
//! | conv sparse SW 1:4 | 23 | 8 | 0.35 |
//! | conv sparse ISA | 12 | 8 | 0.66 |
//! | FC dense 1x2 | 5 | 8 | 1.6 |
//! | FC sparse SW | 16 | 4 | 0.25 |
//! | FC sparse ISA | 13 | 8 | 0.61 |

// Indexed loops in this crate deliberately mirror the register-level
// structure of the kernels / math notation of the paper.
#![allow(clippy::needless_range_loop)]

pub mod ablation;
pub mod baseline;
pub(crate) mod bulk;
pub mod conv;
pub mod fc;
pub mod im2col;
pub mod layout;
pub mod reference;
pub mod stats;
pub mod testdata;

pub use stats::{Ctx, ExecTier, KernelStats};
