//! # dualsim — Fast Dual Simulation Processing of Graph Database Queries
//!
//! Facade crate re-exporting the whole workspace. See the repository
//! README for a tour and the workspace layout.

#![warn(missing_docs)]

mod pruned;

pub use dualsim_bitmatrix as bitmatrix;
pub use dualsim_core as core;
pub use dualsim_datagen as datagen;
pub use dualsim_engine as engine;
pub use dualsim_graph as graph;
pub use dualsim_query as query;
pub use pruned::PrunedEngine;

/// One-stop imports for the common pipeline: build or load a database,
/// parse a query, solve/prune, evaluate.
///
/// ```
/// use dualsim::prelude::*;
///
/// let mut b = GraphDbBuilder::new();
/// b.add_triple("a", "p", "b").unwrap();
/// let db = b.finish();
/// let q = parse("{ ?x p ?y }").unwrap();
/// let report = prune(&db, &q, &SolverConfig::default());
/// assert_eq!(report.num_kept(), 1);
/// assert_eq!(NestedLoopEngine.count(&report.pruned_db(&db), &q), 1);
/// ```
pub mod prelude {
    pub use crate::pruned::PrunedEngine;
    pub use dualsim_core::{
        build_sois, prune, solve, solve_query, PruneReport, Soi, Solution, SolverConfig,
    };
    pub use dualsim_engine::{Engine, HashJoinEngine, NestedLoopEngine, ResultSet};
    pub use dualsim_graph::{
        parse_ntriples, write_ntriples, GraphDb, GraphDbBuilder, GraphView, PrunedView, Triple,
    };
    pub use dualsim_query::{parse, Query, Term, TriplePattern};
}
