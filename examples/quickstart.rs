//! Quickstart: the paper's running example end to end.
//!
//! Builds the Fig. 1(a) movie database, runs query (X1) through the SOI
//! solver, prints the largest dual simulation (relation (2) of the
//! paper), prunes the database, and evaluates the query on both the full
//! and the pruned instance.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dualsim::core::{prune, solve_query, SolverConfig};
use dualsim::datagen::paper::{fig1_db, query_x1};
use dualsim::engine::{Engine, NestedLoopEngine};

fn main() {
    let db = fig1_db();
    let query = query_x1();
    println!(
        "database : {} triples, {} nodes",
        db.num_triples(),
        db.num_nodes()
    );
    println!("query    : {query}\n");

    // 1. The largest dual simulation (Sect. 3).
    let cfg = SolverConfig::default();
    let branches = solve_query(&db, &query, &cfg);
    for (soi, solution) in &branches {
        println!("largest dual simulation (paper relation (2)):");
        for var in ["director", "movie", "coworker"] {
            let nodes = solution.var_solution(soi, var);
            let names: Vec<&str> = nodes.iter_ones().map(|i| db.node_name(i as u32)).collect();
            println!("  ?{var:<9} ↦ {names:?}");
        }
        println!(
            "  ({} iterations, {} χ-updates)\n",
            solution.stats.iterations, solution.stats.updates
        );
    }

    // 2. Per-query pruning (Sect. 5.2).
    let report = prune(&db, &query, &cfg);
    println!(
        "pruning  : {} of {} triples survive ({:.1}% pruned) in {:?}",
        report.num_kept(),
        db.num_triples(),
        100.0 * report.prune_ratio(&db),
        report.total_time()
    );

    // 3. Soundness: the pruned database — a view of `db` through χ, no
    //    copy is built — yields the same result set.
    let engine = NestedLoopEngine;
    let full = engine.evaluate(&db, &query);
    let pruned = engine.evaluate(&report.pruned_db(&db), &query);
    assert_eq!(full, pruned, "Theorem 2: pruning preserves all matches");
    println!("\nresults on pruned database ({} matches):", pruned.len());
    for row in pruned.to_named_rows(&db) {
        let rendered: Vec<String> = row.iter().map(|(v, n)| format!("?{v}={n}")).collect();
        println!("  {}", rendered.join("  "));
    }
}
