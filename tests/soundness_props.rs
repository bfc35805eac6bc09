//! Property-based end-to-end soundness: random databases × random
//! S-queries must satisfy the paper's theorems.
//!
//! * Theorem 2 / Def. 3 (soundness): every binding of every match lies in
//!   the solution of its query variable.
//! * Pruning safety: evaluating on the pruned database returns exactly
//!   the full-database result set, for both engines.
//! * The pruned view is the pruning: it answers every question the join
//!   engines ask exactly as a database built from the Sect. 5.2 triple set
//!   does.
//! * Algorithm agreement on BGPs: SOI solver ≡ Ma et al. ≡ HHK ≡ the
//!   definitional oracle.

use dualsim::core::baseline::{dual_simulation_hhk, dual_simulation_ma};
use dualsim::core::check::is_largest_solution;
use dualsim::core::{build_sois, prune, solve, solve_query, ChiBackend, SolverConfig};
use dualsim::engine::{Engine, HashJoinEngine, NestedLoopEngine};
use dualsim::graph::{GraphDb, GraphDbBuilder, GraphView, Triple};
use dualsim::query::{Query, Term, TriplePattern};
use proptest::prelude::*;

const NODES: u8 = 12;
const LABELS: u8 = 3;

fn arb_db() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec((0..NODES, 0..LABELS, 0..NODES), 1..40).prop_map(|triples| {
        let mut b = GraphDbBuilder::new();
        // Intern all nodes first so identifiers are stable.
        for i in 0..NODES {
            b.add_node(&format!("n{i}"), dualsim::graph::NodeKind::Iri)
                .unwrap();
        }
        for (s, p, o) in triples {
            b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"))
                .unwrap();
        }
        b.finish()
    })
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        8 => (0u8..4).prop_map(|i| Term::Var(format!("v{i}"))),
        1 => (0..NODES).prop_map(|i| Term::Iri(format!("n{i}"))),
    ]
}

fn arb_tp() -> impl Strategy<Value = TriplePattern> {
    (arb_term(), 0..LABELS, arb_term())
        .prop_map(|(s, p, o)| TriplePattern::new(s, format!("p{p}"), o))
}

fn arb_bgp() -> impl Strategy<Value = Query> {
    proptest::collection::vec(arb_tp(), 1..4).prop_map(Query::Bgp)
}

fn arb_query() -> impl Strategy<Value = Query> {
    arb_bgp().prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.optional(b)),
            1 => (inner.clone(), inner).prop_map(|(a, b)| a.union(b)),
        ]
    })
}

/// Regression: the non-monotone counterexample found by property testing.
///
/// Query `({(v2,p1,v1)} OPT {(v0,p0,v0)}) AND ({(v0,p2,v2)} OPT …)` is
/// non-well-designed: `v0` occurs inside the first optional part and
/// outside it, but not in its mandatory side. On the full database the
/// optional extension binds `v0 = n1`, which is *incompatible* with the
/// only conjunct row (`v0 = n9`), so the result set is empty. The
/// self-loop `(n1, p0, n1)` witnesses no match, gets pruned, and the
/// pruned evaluation then produces a (spurious) row. This is exactly the
/// over-approximation the paper accepts for non-well-designed patterns
/// (§5.3); the sound guarantee is Def. 3, not result-set equality.
#[test]
fn nonmonotone_counterexample_behaves_as_documented() {
    let mut b = GraphDbBuilder::new();
    for i in 0..12 {
        b.add_node(&format!("n{i}"), dualsim::graph::NodeKind::Iri)
            .unwrap();
    }
    b.add_triple("n0", "p1", "n1").unwrap();
    b.add_triple("n9", "p2", "n0").unwrap();
    b.add_triple("n1", "p0", "n1").unwrap();
    let db = b.finish();
    let q =
        dualsim::query::parse("{ { ?v2 p1 ?v1 OPTIONAL { ?v0 p0 ?v0 } } { ?v0 p2 ?v2 } }").unwrap();
    assert!(!q.is_well_designed());
    let report = prune(&db, &q, &SolverConfig::default());
    let full = NestedLoopEngine.evaluate(&db, &q);
    let pruned_rs = NestedLoopEngine.evaluate(&report.pruned_db(&db), &q);
    // Full evaluation: the optional extension blocks the join.
    assert!(full.is_empty());
    // Pruned evaluation over-approximates: one spurious row appears.
    assert_eq!(pruned_rs.len(), 1);
    // Every *true* match (there are none) is trivially preserved, and
    // Def. 3 soundness holds (checked in the property above); what the
    // pruning does NOT promise for non-well-designed queries is result
    // equality under re-evaluation.
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2: for every match μ and variable v, μ(v) lies in the
    /// union of the per-branch solutions for v.
    #[test]
    fn solution_contains_every_match_binding(db in arb_db(), q in arb_query()) {
        let results = NestedLoopEngine.evaluate(&db, &q);
        let branches = solve_query(&db, &q, &SolverConfig::default());
        for (row_idx, row) in results.rows.iter().enumerate() {
            for (var_idx, binding) in row.iter().enumerate() {
                let Some(node) = binding else { continue };
                let var = &results.vars.names()[var_idx];
                let covered = branches.iter().any(|(soi, sol)| {
                    sol.var_solution(soi, var).get(*node as usize)
                });
                prop_assert!(
                    covered,
                    "row {row_idx}: ?{var} = {} escaped the solution of {q}",
                    db.node_name(*node)
                );
            }
        }
    }

    /// Pruning safety for **well-designed** queries: both engines return
    /// identical result sets on the full and the pruned database.
    ///
    /// For non-well-designed queries this equality does not hold in
    /// general: a pruned-away triple may have witnessed an optional
    /// extension whose binding *blocked* a join elsewhere, so removing it
    /// can create spurious rows (SPARQL's non-monotonicity; see the
    /// regression test `nonmonotone_counterexample` and §5.3's
    /// "possibly unwanted results" discussion). The paper's soundness
    /// theorem (Def. 3) is the binding-level property tested above.
    #[test]
    fn pruned_database_preserves_well_designed_result_sets(db in arb_db(), q in arb_query()) {
        if !q.is_well_designed() {
            return Ok(());
        }
        let report = prune(&db, &q, &SolverConfig::default());
        let pruned = report.pruned_db(&db);
        for engine in [&NestedLoopEngine as &dyn Engine, &HashJoinEngine] {
            let full_rs = engine.evaluate(&db, &q);
            let pruned_rs = engine.evaluate(&pruned, &q);
            prop_assert_eq!(
                &full_rs, &pruned_rs,
                "{} changed results for {} (kept {}/{})",
                engine.name(), q, report.num_kept(), db.num_triples()
            );
        }
    }

    /// For arbitrary (possibly non-well-designed) queries, no *true*
    /// match disappears under pruning as long as no spurious sub-match
    /// interferes: every full-database row whose witnesses are kept
    /// remains derivable. We assert the weaker, always-valid form here:
    /// monotone queries (no OPTIONAL anywhere) evaluate identically.
    #[test]
    fn pruned_database_preserves_monotone_result_sets(db in arb_db(), q in arb_query()) {
        fn optional_free(q: &Query) -> bool {
            match q {
                Query::Bgp(_) => true,
                Query::And(a, b) | Query::Union(a, b) => optional_free(a) && optional_free(b),
                Query::Optional(..) => false,
            }
        }
        if !optional_free(&q) {
            return Ok(());
        }
        let report = prune(&db, &q, &SolverConfig::default());
        let pruned = report.pruned_db(&db);
        let full_rs = NestedLoopEngine.evaluate(&db, &q);
        let pruned_rs = NestedLoopEngine.evaluate(&pruned, &q);
        prop_assert_eq!(full_rs, pruned_rs, "monotone query {} changed", q);
    }

    /// The zero-copy view against the one oracle: a database built from
    /// the triples Sect. 5.2 keeps, computed here from the definition (a
    /// pattern edge of a non-empty branch admits the triple). The two agree
    /// on membership, out/in rows, pair sets and per-label counts for every
    /// label and node, and both engines return equal result sets on them —
    /// for UNION, OPTIONAL, a label used by several patterns, constants
    /// and `?v p ?v`, well-designed or not, under both χ backends.
    #[test]
    fn pruned_view_equals_the_materialized_pruning(db in arb_db(), q in arb_query()) {
        for chi_backend in [ChiBackend::Dense, ChiBackend::Rle] {
            let cfg = SolverConfig { chi_backend, ..SolverConfig::default() };
            let branches = solve_query(&db, &q, &cfg);
            let mut expected: Vec<Triple> = db
                .triples()
                .filter(|t| {
                    branches.iter().any(|(soi, sol)| {
                        !sol.is_certainly_empty()
                            && soi.edges.iter().any(|e| {
                                e.label == Some(t.p)
                                    && sol.chi[e.src].get(t.s as usize)
                                    && sol.chi[e.dst].get(t.o as usize)
                            })
                    })
                })
                .collect();
            expected.sort_unstable();
            let report = prune(&db, &q, &cfg);
            prop_assert_eq!(&report.kept_triples(&db), &expected, "{:?} {}", chi_backend, q);
            prop_assert_eq!(report.num_kept(), expected.len());

            let oracle = db.with_triples(&expected).unwrap();
            let view = report.pruned_db(&db);
            let nodes = db.num_nodes() as u32;
            for label in 0..db.num_labels() as u32 {
                let (v, o) = (view.label(label), oracle.label(label));
                prop_assert_eq!(v.num_triples(), o.num_triples(), "count of p{}", label);
                let mut pairs: Vec<(u32, u32)> = v.pairs().collect();
                pairs.sort_unstable();
                prop_assert_eq!(&pairs, &o.pairs().collect::<Vec<_>>(), "pairs of p{}", label);
                for a in 0..nodes {
                    prop_assert_eq!(
                        v.out_row(a).collect::<Vec<_>>(),
                        o.out_row(a).collect::<Vec<_>>(),
                        "out row of n{} under p{} for {}", a, label, q
                    );
                    prop_assert_eq!(
                        v.in_row(a).collect::<Vec<_>>(),
                        o.in_row(a).collect::<Vec<_>>(),
                        "in row of n{} under p{} for {}", a, label, q
                    );
                    for b in 0..nodes {
                        prop_assert_eq!(v.contains(a, b), o.contains(a, b));
                    }
                }
            }
            for engine in [&NestedLoopEngine as &dyn Engine, &HashJoinEngine] {
                prop_assert_eq!(
                    engine.evaluate(&view, &q),
                    engine.evaluate(&oracle, &q),
                    "{} on view and oracle for {}", engine.name(), q
                );
            }
        }
    }

    /// Required triples are always a subset of the kept triples.
    #[test]
    fn required_triples_survive_pruning(db in arb_db(), q in arb_query()) {
        let required = dualsim::engine::required_triples(&db, &q);
        let kept = prune(&db, &q, &SolverConfig::default()).kept_triples(&db);
        for t in &required {
            prop_assert!(
                kept.contains(t),
                "required triple {t:?} was pruned for {q}"
            );
        }
    }

    /// On BGPs all four algorithms agree, and the result is certified
    /// against the definitional oracle.
    #[test]
    fn algorithms_agree_on_bgps(db in arb_db(), q in arb_bgp()) {
        let soi = build_sois(&db, &q).remove(0);
        let cfg = SolverConfig { early_exit: false, ..SolverConfig::default() };
        let sol = solve(&db, &soi, &cfg);
        let (ma, _) = dual_simulation_ma(&db, &soi);
        let (hhk, _) = dual_simulation_hhk(&db, &soi);
        prop_assert_eq!(&sol.chi, &ma, "solver vs Ma on {}", &q);
        prop_assert_eq!(&sol.chi, &hhk, "solver vs HHK on {}", &q);
        prop_assert!(is_largest_solution(&db, &soi, &sol.chi), "oracle on {}", &q);
    }

    /// On arbitrary *union-free* queries — including OPTIONAL with its
    /// renamed surrogate variables and subset inequalities — the solver
    /// computes exactly the largest solution certified by the
    /// definitional oracle.
    #[test]
    fn solver_equals_oracle_on_union_free_queries(db in arb_db(), q in arb_query()) {
        if !q.is_union_free() {
            return Ok(());
        }
        let cfg = SolverConfig { early_exit: false, ..SolverConfig::default() };
        for (soi, sol) in solve_query(&db, &q, &cfg) {
            prop_assert!(
                is_largest_solution(&db, &soi, &sol.chi),
                "solver is not the largest solution for {}",
                q
            );
        }
    }

    /// The full simulation spectrum on connected BGPs:
    /// `matches ⊆ strong ⊆ dual ⊆ forward` per variable.
    #[test]
    fn simulation_spectrum_is_ordered(db in arb_db(), q in arb_bgp()) {
        use dualsim::core::{
            build_sois, build_sois_with, solve, strong_simulation, SimulationKind,
        };
        let soi = build_sois(&db, &q).remove(0);
        if !soi.pattern_is_connected() {
            return Ok(());
        }
        let cfg = SolverConfig::default();
        let strong = strong_simulation(&db, &soi, &cfg);
        let dual = solve(&db, &soi, &cfg);
        let fsoi = build_sois_with(&db, &q, SimulationKind::Forward).remove(0);
        let forward = solve(&db, &fsoi, &cfg);
        for i in 0..soi.vars.len() {
            prop_assert!(
                dual.chi[i].covers_dense(&strong.chi[i]),
                "strong ⊆ dual fails at var {i} for {}",
                q
            );
            if !dual.stats.emptied_mandatory {
                prop_assert!(
                    dual.chi[i].is_subset_of(&forward.chi[i]),
                    "dual ⊆ forward fails at var {i} for {}",
                    q
                );
            }
        }
        // Every match binding is inside the strong simulation.
        let results = NestedLoopEngine.evaluate(&db, &q);
        for (row_idx, row) in results.rows.iter().enumerate() {
            for (var_idx, binding) in row.iter().enumerate() {
                let Some(node) = binding else { continue };
                let var = &results.vars.names()[var_idx];
                let soi_var = soi.vars_for(var)[0];
                prop_assert!(
                    strong.chi[soi_var].get(*node as usize),
                    "row {row_idx}: ?{var} escaped strong simulation for {}",
                    q
                );
            }
        }
    }

    /// Plain forward simulation subsumes dual simulation: dropping the
    /// Def. 2(ii) inequalities can only enlarge the largest solution
    /// (the Sect.-6 comparison against Panda-style pruning).
    #[test]
    fn forward_simulation_subsumes_dual(db in arb_db(), q in arb_query()) {
        use dualsim::core::{solve_query_with, SimulationKind};
        if !q.is_union_free() {
            return Ok(());
        }
        let cfg = SolverConfig { early_exit: false, ..SolverConfig::default() };
        let dual = solve_query_with(&db, &q, &cfg, SimulationKind::Dual);
        let forward = solve_query_with(&db, &q, &cfg, SimulationKind::Forward);
        for ((dsoi, dsol), (fsoi, fsol)) in dual.iter().zip(forward.iter()) {
            // Forward systems are certified against the kind-aware oracle.
            prop_assert!(
                is_largest_solution(&db, fsoi, &fsol.chi),
                "forward solution is not largest for {}",
                q
            );
            for var in q.vars() {
                let d = dsol.var_solution(dsoi, var);
                let f = fsol.var_solution(fsoi, var);
                prop_assert!(
                    d.is_subset_of(&f),
                    "dual ?{} must be within forward for {}",
                    var, q
                );
            }
        }
    }

    /// Engine agreement on arbitrary S-queries (differential testing of
    /// the two join strategies).
    #[test]
    fn engines_agree(db in arb_db(), q in arb_query()) {
        let a = NestedLoopEngine.evaluate(&db, &q);
        let b = HashJoinEngine.evaluate(&db, &q);
        prop_assert_eq!(a, b, "engines disagree on {}", q);
    }

    /// Quotient fingerprints (the Sect. 6 extension) are fully abstract
    /// for constant-free queries: solving over the bisimulation quotient
    /// and expanding equals solving over the original database.
    #[test]
    fn quotient_solving_is_fully_abstract(db in arb_db(), q in arb_query()) {
        use dualsim::core::QuotientIndex;
        // Constants would be over-approximated by their blocks; restrict
        // to variable-only queries for the equality claim.
        fn constant_free(q: &Query) -> bool {
            match q {
                Query::Bgp(tps) => tps
                    .iter()
                    .all(|t| !t.s.is_constant() && !t.o.is_constant()),
                Query::And(a, b) | Query::Optional(a, b) | Query::Union(a, b) => {
                    constant_free(a) && constant_free(b)
                }
            }
        }
        if !constant_free(&q) {
            return Ok(());
        }
        let cfg = SolverConfig { early_exit: false, ..SolverConfig::default() };
        let index = QuotientIndex::build(&db);
        let direct = solve_query(&db, &q, &cfg);
        let quotiented = solve_query(index.quotient(), &q, &cfg);
        prop_assert_eq!(direct.len(), quotiented.len());
        for ((soi, sol), (qsoi, qsol)) in direct.iter().zip(quotiented.iter()) {
            for var in q.vars() {
                let expanded = index.expand(&qsol.var_solution(qsoi, var));
                prop_assert_eq!(
                    expanded,
                    sol.var_solution(soi, var),
                    "?{} of {} (quotient {} blocks / {} nodes)",
                    var, q, index.num_blocks(), db.num_nodes()
                );
            }
        }
    }

    /// Warm-start maintenance under deletions equals a cold solve: the
    /// previous solution is a valid upper bound after any subset of
    /// triples disappears.
    #[test]
    fn incremental_deletions_match_cold_solve(
        db in arb_db(),
        q in arb_query(),
        keep_mask in proptest::collection::vec(any::<bool>(), 40),
    ) {
        use dualsim::core::IncrementalDualSim;
        if !q.is_union_free() {
            return Ok(());
        }
        let cfg = SolverConfig { early_exit: false, ..SolverConfig::default() };
        let soi = build_sois(&db, &q).remove(0);
        let mut inc = IncrementalDualSim::new(&db, soi.clone(), cfg.clone());
        let all: Vec<dualsim::graph::Triple> = db.triples().collect();
        let kept: Vec<dualsim::graph::Triple> = all
            .iter()
            .zip(keep_mask.iter().cycle())
            .filter_map(|(t, &keep)| keep.then_some(*t))
            .collect();
        let deleted: Vec<dualsim::graph::Triple> = all
            .iter()
            .filter(|t| !kept.contains(t))
            .copied()
            .collect();
        let db_after = db.with_triples(&kept).unwrap();
        inc.apply_deletions(&db_after, &deleted).unwrap();
        let cold = solve(&db_after, &soi, &cfg);
        prop_assert_eq!(&inc.solution().chi, &cold.chi, "warm != cold for {}", q);
    }

    /// Pruning is *narrowing*: re-pruning the pruned database with the
    /// same query removes nothing further (idempotence).
    #[test]
    fn pruning_is_idempotent(db in arb_db(), q in arb_query()) {
        let cfg = SolverConfig::default();
        let once = prune(&db, &q, &cfg);
        let pruned = once.pruned_db(&db).materialize();
        let twice = prune(&pruned, &q, &cfg);
        prop_assert_eq!(once.kept_triples(&db), twice.kept_triples(&pruned), "{}", q);
    }

    /// All solver strategy configurations — including both fixpoint
    /// engines — compute the same fixpoint.
    #[test]
    fn strategies_compute_the_same_fixpoint(db in arb_db(), q in arb_query()) {
        use dualsim::core::{EvalStrategy, FixpointMode, IneqOrdering, InitMode};
        let reference: Vec<_> = solve_query(&db, &q, &SolverConfig {
            early_exit: false,
            ..SolverConfig::default()
        }).into_iter().map(|(_, s)| s.chi).collect();
        for strategy in [EvalStrategy::RowWise, EvalStrategy::ColumnWise] {
            for init in [InitMode::AllOnes, InitMode::Summaries] {
                for fixpoint in [FixpointMode::Reevaluate, FixpointMode::DeltaCounting] {
                    let cfg = SolverConfig {
                        strategy,
                        ordering: IneqOrdering::QueryOrder,
                        init,
                        fixpoint,
                        early_exit: false,
                        ..SolverConfig::default()
                    };
                    let other: Vec<_> = solve_query(&db, &q, &cfg)
                        .into_iter().map(|(_, s)| s.chi).collect();
                    prop_assert_eq!(
                        &other, &reference,
                        "{:?}/{:?}/{:?} on {}", strategy, init, fixpoint, &q
                    );
                }
            }
        }
    }
}
