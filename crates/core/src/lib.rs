//! Dual simulation processing as a system of inequalities (SOI).
//!
//! This crate is the primary contribution of *Fast Dual Simulation
//! Processing of Graph Database Queries* (Mennicke et al., ICDE 2019):
//!
//! * [`Soi`] — the system-of-inequalities representation of a union-free
//!   S-query (Sect. 3.2 for BGPs; Sect. 4 for `AND`/`OPTIONAL`, including
//!   the optional-variable renaming of Lemmas 4/5 and the
//!   syntactically-closest rule of Sect. 4.4, and the Eq.-(12) alteration
//!   for constants of Sect. 4.5);
//! * [`solve`] — the fixpoint solver of Sect. 3.2 with the dynamically
//!   interchangeable evaluation strategies of Sect. 3.3 (row-wise vs.
//!   column-wise `×b`, sparsity-driven inequality ordering), configured
//!   by [`SolverConfig`]; two convergence engines are available
//!   ([`FixpointMode`]): whole-inequality re-evaluation and
//!   delta-counting removal propagation — with lazy per-inequality
//!   counter seeding and a round-based worklist drain — which also
//!   powers truly incremental deletion maintenance in
//!   [`IncrementalDualSim`]; χ storage is pluggable per solve
//!   ([`ChiBackend`]: dense bit vectors or run-length encoded ones,
//!   with bit-identical solutions and logical work counters);
//! * [`baseline`] — the comparison algorithms: the passive dual-simulation
//!   algorithm of Ma et al. \[20\] and an HHK-style \[17\] worklist
//!   algorithm with removal counters, both adjusted to labeled graphs;
//! * [`prune`] — per-query database pruning (Sect. 5.2): only triples
//!   that can participate in some dual simulation survive, which by the
//!   soundness theorems (Thm. 1/2) preserves every SPARQL match;
//! * [`check::is_dual_simulation`] — a direct Def.-2 checker used by the
//!   test suite to validate every algorithm against the definition.
//!
//! ```
//! use dualsim_graph::GraphDbBuilder;
//! use dualsim_query::parse;
//! use dualsim_core::{prune, SolverConfig};
//!
//! let mut b = GraphDbBuilder::new();
//! b.add_triple("B. De Palma", "directed", "Mission: Impossible").unwrap();
//! b.add_triple("B. De Palma", "worked_with", "D. Koepp").unwrap();
//! b.add_triple("T. Young", "directed", "Thunderball").unwrap();
//! let db = b.finish();
//!
//! let q = parse("SELECT * WHERE { ?d directed ?m . ?d worked_with ?c }").unwrap();
//! let report = prune(&db, &q, &SolverConfig::default());
//! // T. Young has no worked_with edge, so only De Palma's triples remain.
//! assert_eq!(report.num_kept(), 2);
//! ```

#![warn(missing_docs)]
// Robustness gate: library code must not panic on reachable input
// paths — maintenance errors flow through `MaintainError` and the
// epoch rollback instead. Structural invariants (e.g. peeked-iterator
// advances) carry scoped `expect` allows with a justification at the
// site. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod check;
mod delta;
mod durability;
mod errors;
pub mod failpoints;
mod incremental;
mod plan;
mod pruning;
mod quotient;
mod session;
mod soi;
mod solver;
mod strong;

#[cfg(test)]
mod proptests;

pub use durability::{DurabilityOptions, Recovered, RecoveryReport};
pub use errors::{MaintainError, SessionError};
pub use incremental::IncrementalDualSim;
pub use session::{
    BatchReport, HealPath, QueryHealth, QueryOutcome, QueryRecovery, QuerySession,
    SessionDurability, SessionOptions, SessionRecovery, SessionStats,
};
pub use pruning::{prune, prune_with, solve_query, solve_query_with, PruneReport};
pub use plan::SolvePlan;
pub use quotient::QuotientIndex;
pub use soi::{build_sois, build_sois_with, Inequality, PatternEdge, SimulationKind, Soi, SoiVar};
pub use dualsim_bitmatrix::{ChiBackend, ChiVec, KernelBackend, SlabBackend};
pub use solver::{
    solve, solve_from, EvalStrategy, FixpointMode, IneqOrdering, InitMode, Solution, SolveStats,
    SolverConfig,
};
pub use strong::{strong_kept_triples, strong_simulation, StrongSimulation, StrongStats};
