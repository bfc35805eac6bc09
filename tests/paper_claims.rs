//! Integration tests pinning the paper's worked examples and named
//! claims, across all crates.

use dualsim::core::check::{is_dual_simulation, is_largest_solution};
use dualsim::core::{build_sois, prune, solve, solve_query, SolverConfig};
use dualsim::datagen::paper::{
    fig1_db, fig2a_pattern, fig2b_pattern, fig4_db, fig4_pattern, fig5_db, query_x1, query_x2,
    query_x3,
};
use dualsim::datagen::workloads::lubm_queries;
use dualsim::datagen::{generate_lubm, LubmConfig};
use dualsim::engine::{required_triples, Engine, HashJoinEngine, NestedLoopEngine};
use dualsim::graph::{GraphDb, GraphDbBuilder};

mod common;
use common::best_of_three;

fn no_early_exit() -> SolverConfig {
    SolverConfig {
        early_exit: false,
        ..SolverConfig::default()
    }
}

/// The Fig. 2(b) pattern *as a database*: the paper uses it as the graph
/// `G2` that dual simulates Fig. 2(a).
fn fig2b_as_db() -> GraphDb {
    let mut b = GraphDbBuilder::new();
    b.add_triple("director", "born_in", "place").unwrap();
    b.add_triple("director", "worked_with", "coworker").unwrap();
    b.add_triple("director", "directed", "movie").unwrap();
    b.finish()
}

/// The Fig. 2(a) pattern *as a database*.
fn fig2a_as_db() -> GraphDb {
    let mut b = GraphDbBuilder::new();
    b.add_triple("director1", "born_in", "place").unwrap();
    b.add_triple("director2", "born_in", "place").unwrap();
    b.add_triple("director1", "worked_with", "coworker")
        .unwrap();
    b.add_triple("director2", "directed", "movie").unwrap();
    b.finish()
}

/// Sect. 2, relation (1): Fig. 2(b) dual simulates Fig. 2(a), relating
/// nodes with the same role; both director1 and director2 map to
/// director.
#[test]
fn relation_1_fig2b_dual_simulates_fig2a() {
    let db = fig2b_as_db();
    let soi = build_sois(&db, &fig2a_pattern()).remove(0);
    let sol = solve(&db, &soi, &SolverConfig::default());
    assert!(is_largest_solution(&db, &soi, &sol.chi));
    let expect = [
        ("place", "place"),
        ("director1", "director"),
        ("director2", "director"),
        ("coworker", "coworker"),
        ("movie", "movie"),
    ];
    for (var, node) in expect {
        let chi = sol.var_solution(&soi, var);
        assert_eq!(chi.count_ones(), 1, "?{var}");
        assert!(
            chi.get(db.node_id(node).unwrap() as usize),
            "?{var} ↦ {node}"
        );
    }
}

/// Sect. 2: "the graph in Fig. 2(a) neither dual simulates nor is dual
/// simulated by the graph in Fig. 1(b)" — both directions give the empty
/// largest dual simulation.
#[test]
fn fig2a_and_fig1b_do_not_dual_simulate_each_other() {
    // Fig. 1(b) is the (X1) pattern. Direction 1: (X1) against Fig. 2(a):
    // no node of Fig. 2(a) has both directed and worked_with edges.
    let db_a = fig2a_as_db();
    let soi = build_sois(&db_a, &query_x1()).remove(0);
    let sol = solve(&db_a, &soi, &no_early_exit());
    assert!(sol.chi.iter().all(|c| c.none_set()));
    // Direction 2: Fig. 2(a) as pattern against the (X1) pattern graph as
    // database: born_in does not occur there.
    let mut b = GraphDbBuilder::new();
    b.add_triple("director", "directed", "movie").unwrap();
    b.add_triple("director", "worked_with", "coworker").unwrap();
    let db_x1 = b.finish();
    let soi = build_sois(&db_x1, &fig2a_pattern()).remove(0);
    let sol = solve(&db_x1, &soi, &no_early_exit());
    assert!(sol.chi.iter().all(|c| c.none_set()));
}

/// Sect. 2: Fig. 2(b) dual simulates the (X1) pattern "by ignoring node
/// place" — the largest dual simulation is non-empty although place has
/// no counterpart requirement.
#[test]
fn fig2b_dual_simulates_the_x1_pattern() {
    let db = fig2b_as_db();
    let soi = build_sois(&db, &query_x1()).remove(0);
    let sol = solve(&db, &soi, &SolverConfig::default());
    assert!(!sol.is_certainly_empty());
    assert!(sol
        .var_solution(&soi, "director")
        .get(db.node_id("director").unwrap() as usize));
}

/// Theorem 1 on Fig. 1(a): every node bound by a match of (X1) is in the
/// largest dual simulation, and here the converse also holds (the paper's
/// relation (2)).
#[test]
fn theorem1_containment_on_fig1() {
    let db = fig1_db();
    let query = query_x1();
    let results = NestedLoopEngine.evaluate(&db, &query);
    let branches = solve_query(&db, &query, &SolverConfig::default());
    let (soi, sol) = &branches[0];
    for (row_idx, _) in results.rows.iter().enumerate() {
        for var in ["director", "movie", "coworker"] {
            let node = results.binding(row_idx, var).expect("BGP binds all vars");
            assert!(
                sol.var_solution(soi, var).get(node as usize),
                "match binding ?{var} = {} must be in the largest dual simulation",
                db.node_name(node)
            );
        }
    }
}

/// Sect. 4.1: the Fig. 4 counterexample — p4 survives dual simulation
/// although it belongs to no match ("non-transitive relationships
/// sometimes appear transitive under dual simulation").
#[test]
fn fig4_overapproximation_is_visible_in_the_pruning() {
    let db = fig4_db();
    let pattern = fig4_pattern();
    let report = prune(&db, &pattern, &SolverConfig::default());
    let p4 = db.node_id("p4").unwrap();
    // p4's edges survive the pruning …
    let kept = report.kept_triples(&db);
    assert!(kept.iter().any(|t| t.s == p4 || t.o == p4));
    // … yet p4 appears in no match.
    let req = required_triples(&db, &pattern);
    assert!(req.iter().all(|t| t.s != p4 && t.o != p4));
    // Still, the required triples are a subset of the kept ones (Thm. 1).
    for t in &req {
        assert!(kept.contains(t));
    }
}

/// The (X2) optional query: matches with and without coworkers, all
/// preserved by pruning.
#[test]
fn x2_pruning_preserves_optional_matches() {
    let db = fig1_db();
    let q = query_x2();
    let report = prune(&db, &q, &SolverConfig::default());
    let full = HashJoinEngine.evaluate(&db, &q);
    let pruned = HashJoinEngine.evaluate(&report.pruned_db(&db), &q);
    assert_eq!(full, pruned);
    assert_eq!(full.len(), 5, "five directed triples, two with coworkers");
}

/// (X3) on Fig. 5: non-well-designed patterns are handled without
/// telling them apart (Sect. 4.5).
#[test]
fn x3_pruning_is_sound_for_non_well_designed_patterns() {
    let db = fig5_db();
    let q = query_x3();
    assert!(!q.is_well_designed());
    let report = prune(&db, &q, &SolverConfig::default());
    for engine in [&NestedLoopEngine as &dyn Engine, &HashJoinEngine] {
        let full = engine.evaluate(&db, &q);
        let pruned = engine.evaluate(&report.pruned_db(&db), &q);
        assert_eq!(full, pruned, "{}", engine.name());
        assert_eq!(full.len(), 2, "Fig. 5(b) and 5(c)");
    }
    // The d-edge is irrelevant and pruned away.
    let d = db.label_id("d").unwrap();
    assert!(report.kept_triples(&db).iter().all(|t| t.p != d));
}

/// Def. 2 sanity across every algorithm on the Fig. 1 database.
#[test]
fn all_algorithms_return_dual_simulations_on_fig1() {
    use dualsim::core::baseline::{dual_simulation_hhk, dual_simulation_ma};
    let db = fig1_db();
    for text in [
        "{ ?d directed ?m }",
        "{ ?d directed ?m . ?d worked_with ?c }",
        "{ ?d born_in ?c . ?c population ?p }",
    ] {
        let q = dualsim::query::parse(text).unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let sol = solve(&db, &soi, &no_early_exit());
        let (ma, _) = dual_simulation_ma(&db, &soi);
        let (hhk, _) = dual_simulation_hhk(&db, &soi);
        assert!(is_dual_simulation(&db, &soi, &sol.chi));
        assert_eq!(sol.chi, ma, "{text}");
        assert_eq!(sol.chi, hhk, "{text}");
        assert!(is_largest_solution(&db, &soi, &sol.chi), "{text}");
    }
}

/// The Fig. 2(b) pattern is also evaluable against Fig. 1(a) — the
/// narrower three-edge star keeps only De Palma and Hamilton, like (X1)
/// plus the born_in requirement.
#[test]
fn fig2b_pattern_against_fig1() {
    let db = fig1_db();
    let soi = build_sois(&db, &fig2b_pattern()).remove(0);
    let sol = solve(&db, &soi, &SolverConfig::default());
    let directors = sol.var_solution(&soi, "director");
    let mut names: Vec<&str> = directors
        .iter_ones()
        .map(|i| db.node_name(i as u32))
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["B. De Palma", "G. Hamilton"]);
}

/// Tables 4/5, the paper's end-to-end claim, as a measured inequality:
/// `t_SPARQLSIM + t_DB pruned < t_DB` — pruning and then joining on the
/// pruning takes less time than joining on the database. The pruned side
/// is the whole pipeline (`prune`, `pruned_db`, nested-loop join on the
/// view), best of three against best of three.
///
/// Asserted for L3 and L5, with a factor of two: their optional parts
/// scan whole labels on the database and a handful of candidate rows on
/// the view, 1.4 ms against 14 to 20 ms at LUBM(300), so the factor leaves
/// a loaded machine a 5x margin. L4 wins by about 3.5x and is printed, not
/// asserted. L0 is the paper's own loss (§5.3: low selectivity, more than
/// thirty iterations): the solve alone outlasts the join it would spare.
/// L1 and L2 are near ties, the join on the view costing what it costs on
/// the database. Result sets are equal for all six.
#[test]
fn pruned_pipeline_beats_the_full_join_on_selective_lubm_queries() {
    let db = generate_lubm(&LubmConfig {
        universities: 30,
        seed: 1,
    });
    let cfg = SolverConfig::default();
    for bench in lubm_queries() {
        let (full, t_full) = best_of_three(|| NestedLoopEngine.evaluate(&db, &bench.query));
        let (pruned, t_pruned) = best_of_three(|| {
            let report = prune(&db, &bench.query, &cfg);
            NestedLoopEngine.evaluate(&report.pruned_db(&db), &bench.query)
        });
        assert_eq!(full, pruned, "{}", bench.id);
        println!(
            "{}: prune + join on the view {t_pruned:?}, join on the database {t_full:?}",
            bench.id
        );
        if matches!(bench.id, "L3" | "L5") {
            assert!(
                t_pruned * 2 <= t_full,
                "{}: prune + join on the view took {t_pruned:?}, the join on the database {t_full:?}",
                bench.id
            );
        }
    }
}
