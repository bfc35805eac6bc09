//! Per-query database pruning (Sect. 5.2).
//!
//! Given the largest solution of every union-free branch of a query, a
//! database triple `(o, a, o')` survives iff some pattern edge
//! `(v, a, w)` admits it, i.e. `o ∈ χ(v)` and `o' ∈ χ(w)`. By the
//! soundness results (Thm. 1/2) every triple witnessing any SPARQL match
//! is admitted, so no match is lost (Def. 3).
//!
//! The surviving triples are never copied: [`prune`] keeps the χ and one
//! counting walk's per-label totals, and [`PruneReport::pruned_db`] is a
//! [`PrunedView`] of the original database through them. The triple list
//! ([`PruneReport::kept_triples`]) and a database of its own
//! ([`PrunedView::materialize`]) are built on demand.
//!
//! For **well-designed** queries (and all OPTIONAL-free ones) this makes
//! re-evaluation on the pruned database return *exactly* the original
//! result set — what Tables 4/5 exploit. For non-well-designed queries
//! the pruned evaluation is an over-approximation: removing a triple that
//! witnessed no match can unblock a compatibility conflict and create
//! spurious rows (cf. the §5.3 "possibly unwanted results" discussion and
//! the `nonmonotone_counterexample` integration test). Downstream
//! processing must re-check candidate rows in that fragment.

use crate::{solve, Soi, Solution, SolveStats, SolverConfig};
use dualsim_graph::{ChiFilter, GraphDb, PrunedView, Triple};
use dualsim_query::Query;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of pruning a database for one query.
///
/// The pruning is kept as what defines it — the solutions' χ, grouped per
/// label into the `(χ(src), χ(dst))` pairs of the pattern edges — not as a
/// list of triples: [`PruneReport::pruned_db`] hands the join engines a
/// view of the original database through those pairs.
#[derive(Debug, Clone)]
pub struct PruneReport {
    /// Solver statistics per union-free branch.
    pub branch_stats: Vec<SolveStats>,
    /// Time spent computing the largest solutions (the dominant part of
    /// `t_SPARQLSIM` in Table 3).
    pub solve_time: Duration,
    /// Time spent counting the surviving triples per label.
    pub extract_time: Duration,
    filter: Arc<ChiFilter>,
}

impl PruneReport {
    /// Number of triples after pruning (the last column of Table 3).
    pub fn num_kept(&self) -> usize {
        self.filter.num_kept()
    }

    /// Total pruning time (`t_SPARQLSIM`).
    pub fn total_time(&self) -> Duration {
        self.solve_time + self.extract_time
    }

    /// Fraction of the database removed by pruning, in `[0, 1]`.
    pub fn prune_ratio(&self, db: &GraphDb) -> f64 {
        if db.num_triples() == 0 {
            return 0.0;
        }
        1.0 - self.num_kept() as f64 / db.num_triples() as f64
    }

    /// The pruned database: a view of `db` (the database that was pruned)
    /// admitting exactly the surviving triples. Builds nothing; the view
    /// shares the report's χ and borrows only `db`.
    pub fn pruned_db<'a>(&self, db: &'a GraphDb) -> PrunedView<'a> {
        PrunedView::new(db, Arc::clone(&self.filter))
    }

    /// The surviving triples of `db`, sorted. Enumerated on demand: the
    /// join engines never need the list.
    pub fn kept_triples(&self, db: &GraphDb) -> Vec<Triple> {
        let mut kept: Vec<Triple> = self.pruned_db(db).triples().collect();
        kept.sort_unstable();
        kept
    }

    /// Sum of solver iterations across branches (the §5.3 metric: two for
    /// L1, more than thirty for L0).
    pub fn iterations(&self) -> usize {
        self.branch_stats.iter().map(|s| s.iterations).sum()
    }
}

/// Solves every union-free branch of `query` against `db` and returns the
/// per-branch systems and solutions. The building block for [`prune`]
/// and for experiment harnesses that need χ or solver statistics.
pub fn solve_query(db: &GraphDb, query: &Query, config: &SolverConfig) -> Vec<(Soi, Solution)> {
    solve_query_with(db, query, config, crate::SimulationKind::Dual)
}

/// Like [`solve_query`] with an explicit [`crate::SimulationKind`].
pub fn solve_query_with(
    db: &GraphDb,
    query: &Query,
    config: &SolverConfig,
    kind: crate::SimulationKind,
) -> Vec<(Soi, Solution)> {
    crate::build_sois_with(db, query, kind)
        .into_iter()
        .map(|soi| {
            let solution = solve(db, &soi, config);
            (soi, solution)
        })
        .collect()
}

/// Prunes `db` for `query`: keeps exactly the triples admitted by some
/// pattern edge of some union-free branch under the branch's largest
/// solution.
pub fn prune(db: &GraphDb, query: &Query, config: &SolverConfig) -> PruneReport {
    prune_with(db, query, config, crate::SimulationKind::Dual)
}

/// Pruning with an explicit simulation kind.
/// [`crate::SimulationKind::Forward`] prunes by plain simulation (the
/// Panda \[31\] notion), which keeps at least as many triples as dual
/// simulation — an ablation for the paper's claim that dual simulation
/// prunes more effectively.
pub fn prune_with(
    db: &GraphDb,
    query: &Query,
    config: &SolverConfig,
    kind: crate::SimulationKind,
) -> PruneReport {
    let solve_start = Instant::now();
    let branches = solve_query_with(db, query, config, kind);
    let solve_time = solve_start.elapsed();

    let extract_start = Instant::now();
    let mut branch_stats = Vec::with_capacity(branches.len());
    let mut chi = Vec::new();
    let mut edges = Vec::new();
    for (soi, solution) in branches {
        // A certainly empty branch admits no matches: nothing to keep.
        if !solution.is_certainly_empty() {
            let base = chi.len();
            edges.extend(
                soi.edges
                    .iter()
                    .filter_map(|e| e.label.map(|a| (a, base + e.src, base + e.dst))),
            );
            chi.extend(solution.chi);
        }
        branch_stats.push(solution.stats);
    }
    let filter = Arc::new(ChiFilter::new(db, chi, &edges));
    let extract_time = extract_start.elapsed();

    PruneReport {
        branch_stats,
        solve_time,
        extract_time,
        filter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualsim_graph::{GraphDbBuilder, GraphView};
    use dualsim_query::parse;

    /// The Fig. 1(a) database (see `solver::tests` for the edge
    /// directions rationale).
    fn fig1_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("B. De Palma", "directed", "Mission: Impossible")
            .unwrap();
        b.add_triple("B. De Palma", "worked_with", "D. Koepp")
            .unwrap();
        b.add_triple("B. De Palma", "born_in", "Newark").unwrap();
        b.add_triple("Mission: Impossible", "awarded", "Oscar")
            .unwrap();
        b.add_triple("Mission: Impossible", "genre", "Action")
            .unwrap();
        b.add_triple("Goldfinger", "genre", "Action").unwrap();
        b.add_triple("G. Hamilton", "directed", "Goldfinger")
            .unwrap();
        b.add_triple("G. Hamilton", "born_in", "Paris").unwrap();
        b.add_triple("G. Hamilton", "worked_with", "H. Saltzman")
            .unwrap();
        b.add_triple("Thunderball", "sequel_of", "Goldfinger")
            .unwrap();
        b.add_triple("From Russia with Love", "prequel_of", "Goldfinger")
            .unwrap();
        b.add_triple("Thunderball", "awarded", "BAFTA Awards")
            .unwrap();
        b.add_triple("H. Saltzman", "born_in", "Saint John")
            .unwrap();
        b.add_triple("T. Young", "directed", "From Russia with Love")
            .unwrap();
        b.add_triple("T. Young", "directed", "Thunderball").unwrap();
        b.add_triple("P.R. Hunt", "worked_with", "T. Young")
            .unwrap();
        b.add_triple("D. Koepp", "directed", "Mortdecai").unwrap();
        b.add_attribute("Newark", "population", "277140").unwrap();
        b.add_attribute("Paris", "population", "2220445").unwrap();
        b.add_attribute("Saint John", "population", "70063")
            .unwrap();
        b.finish()
    }

    #[test]
    fn x1_pruning_keeps_the_two_bold_subgraphs() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m . ?d worked_with ?c }").unwrap();
        let report = prune(&db, &q, &SolverConfig::default());
        // Exactly the four triples of the two (X1) matches survive.
        assert_eq!(report.num_kept(), 4);
        let pruned = report.pruned_db(&db);
        assert_eq!(pruned.num_triples(), 4);
        let directed = pruned.label(db.label_id("directed").unwrap());
        assert!(directed.contains(
            db.node_id("B. De Palma").unwrap(),
            db.node_id("Mission: Impossible").unwrap(),
        ));
        assert!(!directed.contains(
            db.node_id("T. Young").unwrap(),
            db.node_id("Thunderball").unwrap(),
        ));
        assert!(report.prune_ratio(&db) > 0.7);
    }

    #[test]
    fn unsatisfiable_queries_prune_everything() {
        let db = fig1_db();
        let q = parse("{ ?m awarded ?a . ?m born_in ?p }").unwrap();
        let report = prune(&db, &q, &SolverConfig::default());
        assert_eq!(report.num_kept(), 0);
        assert_eq!(report.prune_ratio(&db), 1.0);
        assert!(report.branch_stats[0].emptied_mandatory);
    }

    #[test]
    fn union_pruning_is_the_union_of_branch_prunings() {
        let db = fig1_db();
        let q_union = parse("{ { ?d directed ?m } UNION { ?x sequel_of ?y } }").unwrap();
        let report = prune(&db, &q_union, &SolverConfig::default());
        let directed = prune(
            &db,
            &parse("{ ?d directed ?m }").unwrap(),
            &SolverConfig::default(),
        );
        let sequel = prune(
            &db,
            &parse("{ ?x sequel_of ?y }").unwrap(),
            &SolverConfig::default(),
        );
        let mut expected = directed.kept_triples(&db);
        expected.extend(sequel.kept_triples(&db));
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(report.kept_triples(&db), expected);
        assert_eq!(report.branch_stats.len(), 2);
    }

    #[test]
    fn optional_pruning_keeps_optional_evidence() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m OPTIONAL { ?d worked_with ?c } }").unwrap();
        let report = prune(&db, &q, &SolverConfig::default());
        // All directed triples survive (every director matches), plus the
        // worked_with triples of directors.
        let directed = db.label_id("directed").unwrap();
        let worked_with = db.label_id("worked_with").unwrap();
        let kept = report.kept_triples(&db);
        let kept_directed = kept.iter().filter(|t| t.p == directed).count();
        let kept_ww = kept.iter().filter(|t| t.p == worked_with).count();
        assert_eq!(kept_directed, 5, "all five directed triples survive");
        assert_eq!(kept_ww, 2, "De Palma's and Hamilton's coworker edges");
        // P.R. Hunt's worked_with edge points at T. Young, who is a
        // director, so it survives as optional evidence? No: the renamed
        // optional subject ?d@… must itself be a director (subset
        // inequality), and P.R. Hunt directed nothing.
        let hunt = db.node_id("P.R. Hunt").unwrap();
        assert!(!kept.iter().any(|t| t.p == worked_with && t.s == hunt));
    }

    #[test]
    fn pruning_is_idempotent() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m . ?d worked_with ?c }").unwrap();
        let cfg = SolverConfig::default();
        let once = prune(&db, &q, &cfg);
        let pruned = once.pruned_db(&db).materialize();
        let twice = prune(&pruned, &q, &cfg);
        assert_eq!(once.kept_triples(&db), twice.kept_triples(&pruned));
    }

    #[test]
    fn forward_simulation_prunes_no_more_than_dual() {
        let db = fig1_db();
        let cfg = SolverConfig::default();
        for text in [
            "{ ?d directed ?m . ?d worked_with ?c }",
            "{ ?d directed ?m . ?m awarded ?prize }",
            "{ ?d born_in ?c . ?c population ?p }",
        ] {
            let q = parse(text).unwrap();
            let dual = prune(&db, &q, &cfg);
            let forward = prune_with(&db, &q, &cfg, crate::SimulationKind::Forward);
            let forward_kept = forward.kept_triples(&db);
            for t in dual.kept_triples(&db) {
                assert!(
                    forward_kept.contains(&t),
                    "{text}: dual keeps {t:?} that forward pruned"
                );
            }
            assert!(
                forward.num_kept() >= dual.num_kept(),
                "{text}: forward ({}) must keep at least as much as dual ({})",
                forward.num_kept(),
                dual.num_kept()
            );
        }
    }

    #[test]
    fn forward_pruning_is_strictly_weaker_somewhere() {
        // ?m awarded ?prize: dual requires prizes to have incoming
        // awarded edges from movie candidates; forward-only places no
        // requirement on ?prize at all — and crucially none on ?m's
        // objects, so the unreachable 'Oscar'/'BAFTA' stay while dual
        // restricts further up the chain too.
        let db = fig1_db();
        let cfg = SolverConfig::default();
        let q = parse("{ ?d directed ?m . ?m genre ?g . ?p prequel_of ?m }").unwrap();
        let dual = prune(&db, &q, &cfg);
        let forward = prune_with(&db, &q, &cfg, crate::SimulationKind::Forward);
        assert!(
            forward.num_kept() > dual.num_kept(),
            "forward {} vs dual {}",
            forward.num_kept(),
            dual.num_kept()
        );
    }

    #[test]
    fn timings_are_populated() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m }").unwrap();
        let report = prune(&db, &q, &SolverConfig::default());
        assert!(report.total_time() >= report.solve_time);
        assert_eq!(report.iterations(), report.branch_stats[0].iterations);
    }
}
