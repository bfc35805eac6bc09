//! Dual-simulation pruning as a built-in query-processing stage.
//!
//! The paper's conclusion argues that "most database systems would
//! benefit from a direct integration of our proposal into their query
//! processor". [`PrunedEngine`] is that integration for the in-house
//! engines: it wraps any [`Engine`] and evaluates every query on the
//! per-query pruned view of the database instead of the full one.
//!
//! For well-designed queries the wrapper is observationally equivalent
//! to the inner engine (Thm. 2 and the well-designedness argument in
//! `dualsim-core::pruning`); for non-well-designed queries it may return
//! a superset of rows, so [`PrunedEngine::new`] rejects those unless
//! explicitly allowed with [`PrunedEngine::allowing_overapproximation`].

use dualsim_core::{prune, SolverConfig};
use dualsim_engine::{Engine, ResultSet};
use dualsim_graph::GraphDb;
use dualsim_query::Query;

/// An [`Engine`] wrapper that prunes the database per query before
/// delegating to the inner engine. Pruning solves against a
/// [`GraphDb`], so the wrapper takes one where an [`Engine`] takes any
/// view.
#[derive(Debug, Clone)]
pub struct PrunedEngine<E> {
    inner: E,
    config: SolverConfig,
    allow_overapproximation: bool,
}

impl<E: Engine> PrunedEngine<E> {
    /// Wraps `inner` with default solver configuration.
    pub fn new(inner: E) -> Self {
        PrunedEngine {
            inner,
            config: SolverConfig::default(),
            allow_overapproximation: false,
        }
    }

    /// Overrides the solver configuration.
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Permits non-well-designed queries, whose pruned evaluation may
    /// contain spurious rows (a sound over-approximation per Def. 3;
    /// callers must re-check candidate rows).
    pub fn allowing_overapproximation(mut self) -> Self {
        self.allow_overapproximation = true;
        self
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Engine name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        "pruned"
    }

    /// Evaluates via prune-then-delegate.
    ///
    /// # Panics
    /// Panics on non-well-designed queries unless
    /// [`PrunedEngine::allowing_overapproximation`] was called.
    pub fn evaluate(&self, db: &GraphDb, query: &Query) -> ResultSet {
        assert!(
            self.allow_overapproximation || query.is_well_designed(),
            "pruned evaluation of a non-well-designed query may \
             over-approximate; opt in with allowing_overapproximation()"
        );
        let pruned = prune(db, query, &self.config).pruned_db(db);
        self.inner.evaluate(&pruned, query)
    }

    /// Convenience: number of matches.
    pub fn count(&self, db: &GraphDb, query: &Query) -> usize {
        self.evaluate(db, query).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualsim_datagen::paper::{fig1_db, query_x1, query_x2, query_x3};
    use dualsim_engine::{HashJoinEngine, NestedLoopEngine};

    #[test]
    fn pruned_engine_is_observationally_equivalent_on_wd_queries() {
        let db = fig1_db();
        for q in [query_x1(), query_x2()] {
            let direct = NestedLoopEngine.evaluate(&db, &q);
            let pruned = PrunedEngine::new(NestedLoopEngine).evaluate(&db, &q);
            assert_eq!(direct, pruned);
        }
    }

    #[test]
    #[should_panic(expected = "over-approximate")]
    fn non_well_designed_queries_are_rejected_by_default() {
        let db = fig1_db();
        let _ = PrunedEngine::new(HashJoinEngine).evaluate(&db, &query_x3());
    }

    #[test]
    fn opt_in_allows_non_well_designed_queries() {
        let db = dualsim_datagen::paper::fig5_db();
        let engine = PrunedEngine::new(HashJoinEngine).allowing_overapproximation();
        let rows = engine.evaluate(&db, &query_x3());
        // On this instance the over-approximation happens to be exact.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn builder_knobs_compose() {
        let db = fig1_db();
        let engine = PrunedEngine::new(NestedLoopEngine).with_config(SolverConfig::default());
        let q = query_x1();
        assert_eq!(engine.count(&db, &q), 2);
        assert_eq!(engine.name(), "pruned");
        assert_eq!(engine.inner().name(), "nested-loop");
    }
}
