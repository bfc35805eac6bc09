//! Per-query solve plans: one resolution of every pluggable axis.
//!
//! A [`SolvePlan`] pins the χ-storage backend × counter-slab backend ×
//! word-kernel combination a solve runs under — all
//! `Auto` selections resolved against the seeded candidate density (χ,
//! slab) and the host CPU (kernel) — **once**, at [`crate::DeltaSolver`]
//! construction / re-evaluation solve entry, instead of re-deciding
//! inside the hot loops. Everything downstream is monomorphized against
//! the plan:
//!
//! * the plan's concrete χ backend fixes which `ChiVec` variant every
//!   vector holds for the whole solve (enum dispatch on a known variant
//!   is a predictable branch, and the run-aware drain flag is derived
//!   here once rather than re-checked per round);
//! * the concrete slab backend fixes every support slab's representation
//!   up front, and the fused `CounterSlab::decrement_collect` drain
//!   hoists the remaining representation match out of the per-entry
//!   decrement loop;
//! * installing the plan ([`SolvePlan::install_kernel`]) selects the
//!   word-kernel instantiation process-wide, so every `BitVec` /
//!   `BitMatrix` inner loop below the solve runs the resolved scalar /
//!   unrolled / AVX2 code with one relaxed-load dispatch per operation
//!   (hoisted to one per multiply in the `×b` kernels).
//!
//! Every plan combination is bit-identical in χ and in the logical
//! [`crate::SolveStats`] projection — the parity harness sweeps the full
//! plan space (kernel × χ × slab) and pins it.

use crate::solver::{auto_prefers_compressed, SolverConfig};
use dualsim_bitmatrix::{ChiBackend, ChiVec, KernelBackend, SlabBackend};

/// The per-query resolved execution plan: every pluggable axis pinned
/// to a concrete choice for the duration of one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolvePlan {
    /// Concrete χ storage backend (never [`ChiBackend::Auto`]).
    pub chi: ChiBackend,
    /// Concrete support-counter backend (never [`SlabBackend::Auto`]).
    pub slab: SlabBackend,
    /// Concrete word-kernel instantiation (never [`KernelBackend::Auto`];
    /// `Simd` only when the CPU supports it).
    pub kernel: KernelBackend,
    /// Whether the delta drain walks removal *runs* against the matrix
    /// CSR instead of single rows — derived from the χ backend (RLE χ
    /// coalesces one round's removals into runs).
    pub run_aware: bool,
}

impl SolvePlan {
    /// Resolves a configuration into a concrete plan against the exact
    /// seeded candidate count: χ `Auto` and slab `Auto` use the shared
    /// density bound (`initial_candidates / (nv · n)` at most
    /// 1/`AUTO_RLE_DENSITY_DIVISOR` picks the compressed/sparse
    /// representation), kernel `Auto`/`Simd` resolve against the host
    /// CPU's feature set.
    pub fn resolve(
        config: &SolverConfig,
        initial_candidates: usize,
        nv: usize,
        n: usize,
    ) -> SolvePlan {
        let compressed = auto_prefers_compressed(initial_candidates, nv * n);
        let chi = match config.chi_backend {
            ChiBackend::Dense => ChiBackend::Dense,
            ChiBackend::Rle => ChiBackend::Rle,
            ChiBackend::Auto => {
                if compressed {
                    ChiBackend::Rle
                } else {
                    ChiBackend::Dense
                }
            }
        };
        let slab = match config.slab_backend {
            SlabBackend::Dense => SlabBackend::Dense,
            SlabBackend::Sparse => SlabBackend::Sparse,
            SlabBackend::Auto => {
                if compressed {
                    SlabBackend::Sparse
                } else {
                    SlabBackend::Dense
                }
            }
        };
        SolvePlan {
            chi,
            slab,
            kernel: config.kernel_backend.resolve(),
            run_aware: chi == ChiBackend::Rle,
        }
    }

    /// Installs the plan's word kernel as the process-wide active
    /// instantiation (one relaxed atomic store). Concurrent solves with
    /// different plans can only ever change each other's wall time, not
    /// results — every kernel instantiation is bit-identical.
    pub fn install_kernel(&self) {
        self.kernel.install();
    }

    /// Converts every χ vector to the plan's concrete backend (a no-op
    /// for vectors already there).
    pub fn apply_chi(&self, chi: &mut [ChiVec]) {
        for c in chi.iter_mut() {
            c.convert_to(self.chi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_pins_every_axis_concrete() {
        let config = SolverConfig {
            chi_backend: ChiBackend::Auto,
            slab_backend: SlabBackend::Auto,
            kernel_backend: KernelBackend::Auto,
            ..SolverConfig::default()
        };
        // Dense seeding: 1000 candidates over a 10×100 space.
        let dense = SolvePlan::resolve(&config, 1000, 10, 100);
        assert_eq!(dense.chi, ChiBackend::Dense);
        assert_eq!(dense.slab, SlabBackend::Dense);
        assert!(!dense.run_aware);
        assert_ne!(dense.kernel, KernelBackend::Auto);
        // Sparse seeding: 1 candidate over the same space.
        let sparse = SolvePlan::resolve(&config, 1, 10, 100);
        assert_eq!(sparse.chi, ChiBackend::Rle);
        assert_eq!(sparse.slab, SlabBackend::Sparse);
        assert!(sparse.run_aware);
        assert_eq!(sparse.kernel, dense.kernel, "kernel is density-blind");
    }

    #[test]
    fn explicit_backends_pass_through() {
        let config = SolverConfig {
            chi_backend: ChiBackend::Rle,
            slab_backend: SlabBackend::Dense,
            kernel_backend: KernelBackend::Unrolled,
            ..SolverConfig::default()
        };
        let plan = SolvePlan::resolve(&config, 1_000_000, 10, 100);
        assert_eq!(plan.chi, ChiBackend::Rle);
        assert_eq!(plan.slab, SlabBackend::Dense);
        assert_eq!(plan.kernel, KernelBackend::Unrolled);
        assert!(plan.run_aware);
    }
}
