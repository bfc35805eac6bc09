//! The benchmark query workloads of Sect. 5.
//!
//! The paper uses LUBM queries L0–L5 and DBpedia queries D0–D5 from Atre
//! \[4\] and B0–B19 from the DBpedia SPARQL benchmark \[23\]. The exact
//! texts are not printed (except the Fig. 6 cores of L0/L1), so this
//! module provides equivalents over the synthetic generators that
//! reproduce each row's documented behaviour: L0 is the Fig. 6(a)
//! triangle (cyclic, low-selectivity, many iterations), L1 the Fig. 6(b)
//! core with the `ub:Publication` constant (two iterations, heavy
//! over-approximation), B4/B5/B15 and D1 are empty-result queries,
//! B14/B17/D0/D4 are high-volume queries, several queries carry
//! `OPTIONAL` parts, and B17 exercises `UNION`.

use dualsim_query::{parse, Query};

/// Which generated dataset a benchmark query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The LUBM-style database ([`crate::generate_lubm`]).
    Lubm,
    /// The DBpedia-style database ([`crate::generate_dbpedia`]).
    Dbpedia,
}

/// One benchmark query with its metadata.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// Paper row identifier (`L0` … `B19`).
    pub id: &'static str,
    /// Dataset the query runs against.
    pub dataset: Dataset,
    /// Concrete syntax (kept for display).
    pub text: &'static str,
    /// Parsed query.
    pub query: Query,
    /// `true` for rows whose result set is empty by construction
    /// (B4, B5, B15, D1 — the paper's zero rows).
    pub expect_empty: bool,
}

fn q(id: &'static str, dataset: Dataset, text: &'static str, expect_empty: bool) -> BenchQuery {
    BenchQuery {
        id,
        dataset,
        text,
        query: parse(text).unwrap_or_else(|e| panic!("workload {id}: {e}")),
        expect_empty,
    }
}

/// LUBM queries L0–L5 (Atre's optional-heavy LUBM set; L0/L1 follow the
/// Fig. 6 cores literally).
pub fn lubm_queries() -> Vec<BenchQuery> {
    vec![
        // Fig. 6(a): the cyclic advisor/teacher/course triangle. All
        // three predicates have low selectivity, which drives the solver
        // through many iterations (§5.3).
        q(
            "L0",
            Dataset::Lubm,
            "{ ?student ub:advisor ?professor . ?professor ub:teacherOf ?course . \
               ?student ub:takesCourse ?course }",
            false,
        ),
        // Fig. 6(b): publications with a student author and a professor
        // author affiliated with the same department, where the student
        // got their degree from the department's university. Converges in
        // very few iterations but over-approximates heavily (§5.3).
        q(
            "L1",
            Dataset::Lubm,
            "{ ?pub rdf:type ub:Publication . \
               ?pub ub:publicationAuthor ?student . \
               ?pub ub:publicationAuthor ?professor . \
               ?student ub:memberOf ?dept . \
               ?professor ub:worksFor ?dept . \
               ?dept ub:subOrganizationOf ?univ . \
               ?student ub:undergraduateDegreeFrom ?univ }",
            false,
        ),
        // A second cyclic, low-selectivity query with a huge result set.
        q(
            "L2",
            Dataset::Lubm,
            "{ ?x ub:memberOf ?dept . ?x ub:takesCourse ?course . \
               ?teacher ub:teacherOf ?course . ?teacher ub:worksFor ?dept }",
            false,
        ),
        // Selective constant-anchored queries with OPTIONAL parts — the
        // split-second rows of Table 3.
        q(
            "L3",
            Dataset::Lubm,
            "{ ?prof ub:headOf uni0/dept0 . ?prof ub:emailAddress ?email \
               OPTIONAL { ?prof ub:telephone ?tel } }",
            false,
        ),
        q(
            "L4",
            Dataset::Lubm,
            "{ ?student ub:advisor ?prof . ?prof ub:headOf uni0/dept1 \
               OPTIONAL { ?student ub:teachingAssistantOf ?course } }",
            false,
        ),
        q(
            "L5",
            Dataset::Lubm,
            "{ ?prof rdf:type ub:FullProfessor . ?prof ub:worksFor uni0/dept0 \
               OPTIONAL { ?prof ub:doctoralDegreeFrom ?uni \
                          OPTIONAL { ?uni rdf:type ub:University } } }",
            false,
        ),
    ]
}

/// DBpedia queries D0–D5 (Atre's optional-pattern set).
pub fn dbpedia_atre_queries() -> Vec<BenchQuery> {
    vec![
        // High-volume: every entity of the most common class, with its
        // optional rel0 links.
        q(
            "D0",
            Dataset::Dbpedia,
            "{ ?x rdf:type class0 OPTIONAL { ?x rel0 ?y } }",
            false,
        ),
        // Empty by construction: attr0 objects are literals, class0 is
        // an IRI, so no triple can match.
        q("D1", Dataset::Dbpedia, "{ ?x attr0 class0 }", true),
        // Selective star with an optional attribute.
        q(
            "D2",
            Dataset::Dbpedia,
            "{ ?x rdf:type class3 . ?x rel1 ?y . ?y rdf:type class0 \
               OPTIONAL { ?x attr1 ?v } }",
            false,
        ),
        // Hub join: two entities pointing at the same rel2 target.
        q(
            "D3",
            Dataset::Dbpedia,
            "{ ?x rel2 ?h . ?y rel2 ?h . ?x rdf:type class1 . ?y rdf:type class2 }",
            false,
        ),
        // High-volume chain with optional extension.
        q(
            "D4",
            Dataset::Dbpedia,
            "{ ?x rel0 ?y OPTIONAL { ?y rel1 ?z } }",
            false,
        ),
        q(
            "D5",
            Dataset::Dbpedia,
            "{ ?x rel3 ?y . ?y rel0 ?z OPTIONAL { ?z attr0 ?name } }",
            false,
        ),
    ]
}

/// DBpedia SPARQL benchmark queries B0–B19 \[23\]: star, chain, cyclic,
/// optional, union, and empty-result shapes.
pub fn dbsb_queries() -> Vec<BenchQuery> {
    vec![
        q(
            "B0",
            Dataset::Dbpedia,
            "{ ?x rdf:type class5 . ?x rel0 ?y . ?x rel1 ?z }",
            false,
        ),
        q(
            "B1",
            Dataset::Dbpedia,
            "{ ?x rel0 ?y . ?y rdf:type class0 }",
            false,
        ),
        // Tree-shaped: a hub with a branch of its own.
        q(
            "B2",
            Dataset::Dbpedia,
            "{ ?x rel0 ?y . ?x rel2 ?z . ?z rel1 ?w . ?z rdf:type ?c }",
            false,
        ),
        q(
            "B3",
            Dataset::Dbpedia,
            "{ ?x rdf:type class2 OPTIONAL { ?x attr2 ?v } }",
            false,
        ),
        // Unknown predicate: the solver disqualifies everything at
        // initialization (the 0.000-second rows of Table 2/3).
        q(
            "B4",
            Dataset::Dbpedia,
            "{ ?x rel0 ?y . ?x dbo:nonexistent ?z }",
            true,
        ),
        // Unknown literal constant.
        q(
            "B5",
            Dataset::Dbpedia,
            "{ ?x attr1 \"no such value\" . ?x rel0 ?y }",
            true,
        ),
        q(
            "B6",
            Dataset::Dbpedia,
            "{ ?a rel0 ?h . ?b rel1 ?h . ?a rdf:type class1 }",
            false,
        ),
        q(
            "B7",
            Dataset::Dbpedia,
            "{ ?x rel4 ?y . ?y rel4 ?z . ?z rel4 ?w }",
            false,
        ),
        q(
            "B8",
            Dataset::Dbpedia,
            "{ ?x rdf:type class0 . ?x rel5 ?y OPTIONAL { ?y attr0 ?n } }",
            false,
        ),
        q(
            "B9",
            Dataset::Dbpedia,
            "{ ?x rel6 ?y . ?x rdf:type class3 }",
            false,
        ),
        q(
            "B10",
            Dataset::Dbpedia,
            "{ ?x rel7 ?y . ?y rdf:type class1 }",
            false,
        ),
        q(
            "B11",
            Dataset::Dbpedia,
            "{ ?x rel10 ?y OPTIONAL { ?x rel11 ?z } }",
            false,
        ),
        q(
            "B12",
            Dataset::Dbpedia,
            "{ ?x rel12 ?y . ?x attr1 ?v }",
            false,
        ),
        q(
            "B13",
            Dataset::Dbpedia,
            "{ ?x rel1 ?y . ?y rel2 ?z . ?x rdf:type class4 OPTIONAL { ?z attr0 ?n } }",
            false,
        ),
        q(
            "B14",
            Dataset::Dbpedia,
            "{ ?x rel0 ?y OPTIONAL { ?x rel1 ?z } }",
            false,
        ),
        // Unknown IRI constant.
        q("B15", Dataset::Dbpedia, "{ ?x rel0 no_such_entity }", true),
        // Constant-anchored hub lookup (e17 is the rel0 hub).
        q(
            "B16",
            Dataset::Dbpedia,
            "{ ?x rel0 e17 . ?x rdf:type class0 }",
            false,
        ),
        // The UNION row.
        q(
            "B17",
            Dataset::Dbpedia,
            "{ { ?x rel0 ?y } UNION { ?x rel1 ?y } }",
            false,
        ),
        q(
            "B18",
            Dataset::Dbpedia,
            "{ ?x rel8 ?y . ?y rel9 ?z }",
            false,
        ),
        q(
            "B19",
            Dataset::Dbpedia,
            "{ ?x rdf:type class1 . ?x rel3 ?y . ?y rdf:type class2 \
               OPTIONAL { ?y rel0 ?z } }",
            false,
        ),
    ]
}

/// All workloads in table order (L, D, B).
pub fn all_queries() -> Vec<BenchQuery> {
    let mut out = lubm_queries();
    out.extend(dbpedia_atre_queries());
    out.extend(dbsb_queries());
    out
}

/// Adversarial dense-saturation scenarios, *outside* the paper's
/// table order (they stress the implementation, not the paper's
/// workload): queries built to keep χ near-full and the multiplied
/// matrix rows wide, so the word-level inner loops dominate wall time.
/// S4 joins two `rdf:type`-with-variable-object patterns — every typed
/// entity stays a candidate for `?x`/`?y`, and the backward `rdf:type`
/// rows of the class nodes span whole entity populations — against the
/// broad `ub:memberOf` containment. Used by the `solve-sweep` workload
/// of `benchmark/` on the LUBM database (not part of [`all_queries`],
/// so the paper-table workload is unaffected).
pub fn adversarial_queries() -> Vec<BenchQuery> {
    vec![q(
        "S4-dense-saturated",
        Dataset::Lubm,
        "{ ?x rdf:type ?t . ?y rdf:type ?t . \
           ?x ub:memberOf ?d . ?y ub:memberOf ?d }",
        false,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_dbpedia, generate_lubm, DbpediaConfig, LubmConfig};
    use dualsim_engine::{Engine, NestedLoopEngine};

    fn small_lubm() -> dualsim_graph::GraphDb {
        generate_lubm(&LubmConfig {
            universities: 2,
            seed: 7,
        })
    }

    fn small_dbpedia() -> dualsim_graph::GraphDb {
        generate_dbpedia(&DbpediaConfig {
            entities: 2_000,
            relation_labels: 40,
            attribute_labels: 10,
            classes: 15,
            avg_degree: 3.0,
            seed: 11,
        })
    }

    #[test]
    fn ids_are_unique_and_counts_match_the_paper() {
        let all = all_queries();
        assert_eq!(all.len(), 6 + 6 + 20);
        let mut ids: Vec<_> = all.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32);
    }

    #[test]
    fn adversarial_ids_are_disjoint_from_the_paper_tables() {
        let paper: Vec<_> = all_queries().iter().map(|b| b.id).collect();
        for bench in adversarial_queries() {
            assert!(!paper.contains(&bench.id), "{}", bench.id);
            assert_eq!(bench.dataset, Dataset::Lubm, "{}", bench.id);
            assert!(!bench.expect_empty, "{}", bench.id);
        }
    }

    #[test]
    fn l0_and_l1_follow_the_fig6_cores() {
        let l = lubm_queries();
        assert_eq!(l[0].query.num_triple_patterns(), 3);
        assert_eq!(l[1].query.num_triple_patterns(), 7);
        assert!(l[0].query.is_well_designed());
    }

    #[test]
    fn lubm_queries_have_matches_on_a_small_instance() {
        let db = small_lubm();
        let engine = NestedLoopEngine;
        for bench in lubm_queries() {
            let n = engine.count(&db, &bench.query);
            if bench.expect_empty {
                assert_eq!(n, 0, "{} should be empty", bench.id);
            } else {
                assert!(n > 0, "{} should have matches, got 0", bench.id);
            }
        }
    }

    #[test]
    fn dbpedia_queries_respect_their_empty_flags() {
        let db = small_dbpedia();
        let engine = NestedLoopEngine;
        for bench in dbpedia_atre_queries().into_iter().chain(dbsb_queries()) {
            let n = engine.count(&db, &bench.query);
            if bench.expect_empty {
                assert_eq!(n, 0, "{} should be empty, got {n}", bench.id);
            } else {
                assert!(n > 0, "{} should have matches, got 0", bench.id);
            }
        }
    }

    /// All workload queries are well designed, which is what licenses the
    /// Table-4/5 harness to assert full-vs-pruned result equality (for
    /// non-well-designed queries the pruning only guarantees Def.-3
    /// soundness; see `dualsim-core::pruning`).
    #[test]
    fn workload_queries_are_well_designed() {
        for bench in all_queries() {
            assert!(bench.query.is_well_designed(), "{}", bench.id);
        }
    }

    #[test]
    fn optional_and_union_shapes_are_present() {
        let all = all_queries();
        let optionals = all
            .iter()
            .filter(|b| !b.query.is_well_designed() || b.text.contains("OPTIONAL"))
            .count();
        assert!(optionals >= 10, "the workloads must stress OPTIONAL");
        assert!(all.iter().any(|b| !b.query.is_union_free()));
    }

    #[test]
    fn workload_covers_the_paper_shape_spectrum() {
        use dualsim_query::{analyze, Shape};
        let shapes: Vec<(Shape, &str)> = all_queries()
            .iter()
            .map(|b| (analyze(&b.query).shape, b.id))
            .collect();
        // The §5 narrative hinges on cyclic (L0/L2), star (B-set) and
        // chain (B7-like) shapes all being present.
        let has = |s: Shape| shapes.iter().any(|&(sh, _)| sh == s);
        assert!(has(Shape::Cycle), "{shapes:?}");
        assert!(has(Shape::Star), "{shapes:?}");
        assert!(has(Shape::Chain), "{shapes:?}");
        assert!(has(Shape::Tree), "{shapes:?}");
        // L0 specifically is the Fig. 6(a) cycle.
        assert_eq!(
            shapes.iter().find(|&&(_, id)| id == "L0").unwrap().0,
            Shape::Cycle
        );
    }
}
