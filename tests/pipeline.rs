//! End-to-end pipeline tests on generated benchmark data: the claims of
//! Sect. 5 must hold qualitatively at laptop scale.

use dualsim::core::baseline::dual_simulation_ma;
use dualsim::core::{build_sois, prune, solve, SolverConfig};
use dualsim::datagen::workloads::{all_queries, dbsb_queries, lubm_queries, Dataset};
use dualsim::datagen::{generate_dbpedia, generate_lubm, DbpediaConfig, LubmConfig};
use dualsim::engine::{required_triples, Engine, HashJoinEngine, NestedLoopEngine};
use dualsim::graph::GraphDb;
use dualsim::query::Query;

fn lubm() -> GraphDb {
    generate_lubm(&LubmConfig {
        universities: 3,
        seed: 7,
    })
}

fn dbpedia() -> GraphDb {
    generate_dbpedia(&DbpediaConfig {
        entities: 3_000,
        relation_labels: 40,
        attribute_labels: 10,
        classes: 15,
        avg_degree: 3.0,
        seed: 11,
    })
}

fn db_for(dataset: Dataset, lubm: &GraphDb, dbp: &GraphDb) -> GraphDb {
    match dataset {
        Dataset::Lubm => lubm.clone(),
        Dataset::Dbpedia => dbp.clone(),
    }
}

/// Sect. 5.2: pruning never loses a match, across the entire workload.
#[test]
fn pruning_is_sound_for_every_workload_query() {
    let lubm = lubm();
    let dbp = dbpedia();
    let cfg = SolverConfig::default();
    for bench in all_queries() {
        let db = db_for(bench.dataset, &lubm, &dbp);
        let report = prune(&db, &bench.query, &cfg);
        let pruned = report.pruned_db(&db);
        let full_rs = NestedLoopEngine.evaluate(&db, &bench.query);
        let pruned_rs = NestedLoopEngine.evaluate(&pruned, &bench.query);
        assert_eq!(full_rs, pruned_rs, "{}", bench.id);
        if bench.expect_empty {
            assert_eq!(
                report.num_kept(),
                0,
                "{}: empty rows prune everything",
                bench.id
            );
        }
    }
}

/// ISSUE 2: both fixpoint engines converge to the identical largest
/// solution — and therefore identical prunings — on every workload
/// query, end to end on generated benchmark data.
#[test]
fn delta_fixpoint_matches_reevaluate_on_every_workload_query() {
    use dualsim::core::{solve_query, FixpointMode};
    let lubm = lubm();
    let dbp = dbpedia();
    for bench in all_queries() {
        let db = db_for(bench.dataset, &lubm, &dbp);
        for early_exit in [true, false] {
            let mut per_mode = Vec::new();
            for fixpoint in [FixpointMode::Reevaluate, FixpointMode::DeltaCounting] {
                let cfg = SolverConfig {
                    fixpoint,
                    early_exit,
                    ..SolverConfig::default()
                };
                per_mode.push(
                    solve_query(&db, &bench.query, &cfg)
                        .into_iter()
                        .map(|(_, s)| (s.chi.clone(), s.is_certainly_empty()))
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(
                per_mode[0], per_mode[1],
                "{} (early_exit={early_exit}): engines disagree",
                bench.id
            );
        }
        // Pruning through the delta engine is byte-identical too.
        let delta_cfg = SolverConfig {
            fixpoint: FixpointMode::DeltaCounting,
            ..SolverConfig::default()
        };
        let reev = prune(&db, &bench.query, &SolverConfig::default());
        let delta = prune(&db, &bench.query, &delta_cfg);
        assert_eq!(
            reev.kept_triples(&db),
            delta.kept_triples(&db),
            "{}",
            bench.id
        );
    }
}

/// Sect. 5.2: "over all tested queries we prune at least 95% of the
/// original database" — our DBpedia-style workload reproduces that for
/// the selective B/D queries (the high-volume rows D0/D4/B14/B17 are the
/// documented exceptions, as in the paper's L-rows).
#[test]
fn dbpedia_pruning_rates_are_high() {
    let dbp = dbpedia();
    let cfg = SolverConfig::default();
    let mut high = 0usize;
    let mut total = 0usize;
    for bench in dbsb_queries() {
        let report = prune(&dbp, &bench.query, &cfg);
        total += 1;
        if report.prune_ratio(&dbp) >= 0.95 {
            high += 1;
        }
    }
    assert!(
        high * 10 >= total * 7,
        "at least 70% of the B queries should prune ≥95% at this scale ({high}/{total})"
    );
}

/// Table 2's qualitative claim: the SOI solver beats the Ma et al.
/// baseline on (the BGP cores of) the B queries, measured in raw work:
/// Ma performs strictly more candidate checks than the solver performs
/// χ-updates, usually by orders of magnitude.
#[test]
fn solver_does_less_work_than_ma() {
    let dbp = dbpedia();
    let cfg = SolverConfig::default();
    let mut solver_work = 0usize;
    let mut ma_work = 0usize;
    for bench in dbsb_queries() {
        let core = Query::Bgp(bench.query.mandatory_core());
        for soi in build_sois(&dbp, &core) {
            let sol = solve(&dbp, &soi, &cfg);
            solver_work += sol.stats.rowwise + sol.stats.colwise;
            let (_, stats) = dual_simulation_ma(&dbp, &soi);
            ma_work += stats.checks;
        }
    }
    assert!(
        ma_work > 20 * solver_work.max(1),
        "Ma et al. checks ({ma_work}) should dwarf solver multiplications ({solver_work})"
    );
}

/// §5.3: the L1 shape stabilizes in few iterations but keeps many more
/// triples than required (the over-approximation), while L0 needs more
/// iterations.
#[test]
fn l0_l1_iteration_and_overapproximation_contrast() {
    let lubm = generate_lubm(&LubmConfig {
        universities: 6,
        seed: 7,
    });
    let cfg = SolverConfig::default();
    let queries = lubm_queries();
    let l0 = prune(&lubm, &queries[0].query, &cfg);
    let l1 = prune(&lubm, &queries[1].query, &cfg);
    assert!(
        l0.iterations() > l1.iterations(),
        "L0 ({}) must need more iterations than L1 ({})",
        l0.iterations(),
        l1.iterations()
    );
    // L1 keeps well more triples than its matches require.
    let required = required_triples(&lubm, &queries[1].query).len();
    assert!(
        l1.num_kept() > 2 * required.max(1),
        "L1 over-approximation: kept {} vs required {required}",
        l1.num_kept()
    );
}

/// Tables 4/5 qualitative claim: for the L1 shape, evaluating on the
/// pruned database is cheaper than on the full database for the
/// syntactic-order hash-join engine.
#[test]
fn pruning_accelerates_the_hash_join_engine_on_l1() {
    let lubm = generate_lubm(&LubmConfig {
        universities: 6,
        seed: 7,
    });
    let cfg = SolverConfig::default();
    let l1 = &lubm_queries()[1];
    let report = prune(&lubm, &l1.query, &cfg);
    let pruned = report.pruned_db(&lubm);
    let engine = HashJoinEngine;
    let t0 = std::time::Instant::now();
    let full_rs = engine.evaluate(&lubm, &l1.query);
    let t_full = t0.elapsed();
    let t1 = std::time::Instant::now();
    let pruned_rs = engine.evaluate(&pruned, &l1.query);
    let t_pruned = t1.elapsed();
    assert_eq!(full_rs, pruned_rs);
    assert!(
        t_pruned < t_full,
        "pruned evaluation ({t_pruned:?}) should beat full evaluation ({t_full:?})"
    );
}

/// N-Triples round trip at pipeline scale: serialize a generated LUBM
/// instance and re-parse it into a semantically identical database.
#[test]
fn ntriples_round_trip_on_generated_data() {
    let db = lubm();
    let text = dualsim::graph::write_ntriples(&db);
    let db2 = dualsim::graph::parse_ntriples(&text).unwrap();
    assert_eq!(db.num_triples(), db2.num_triples());
    assert_eq!(db.num_nodes(), db2.num_nodes());
    // A query returns identically-named results on both instances.
    let q = &lubm_queries()[0].query;
    let a = NestedLoopEngine.evaluate(&db, q).to_named_rows(&db);
    let b = NestedLoopEngine.evaluate(&db2, q).to_named_rows(&db2);
    let norm = |mut v: Vec<Vec<(String, String)>>| {
        v.iter_mut().for_each(|r| r.sort());
        v.sort();
        v
    };
    assert_eq!(norm(a), norm(b));
}
