//! The S-operators (`AND`, `OPTIONAL`, `UNION`) over binding tables, the
//! public [`Engine`] trait, and the required-triple accounting of
//! Table 3.
//!
//! Evaluation is generic over a per-row payload: plain evaluation uses
//! `()`, while [`required_triples`] uses a provenance payload recording
//! exactly which database triples witness each match. Provenance is the
//! semantically precise notion of "required triple": a triple counts iff
//! it takes part in some witness of some result mapping — coincidental
//! instantiations of unmatched optional patterns (possible in
//! non-well-designed queries like (X3)) do not count.

use crate::bgp::{eval_bgp_hash_join, eval_bgp_nested_loop, BgpPayload, Provenance};
use crate::{ResultSet, Row, VarTable};
use dualsim_graph::{GraphView, NodeId, Triple};
use dualsim_query::Query;
use std::collections::{HashMap, HashSet};

/// A query evaluation engine with exact S-semantics.
pub trait Engine {
    /// Human-readable engine name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Evaluates `query` against `db` — a [`dualsim_graph::GraphDb`] or a
    /// pruned view of one — returning `⟦query⟧_DB` under set semantics.
    fn evaluate(&self, db: &dyn GraphView, query: &Query) -> ResultSet;

    /// Convenience: number of matches.
    fn count(&self, db: &dyn GraphView, query: &Query) -> usize {
        self.evaluate(db, query).len()
    }
}

/// Index nested-loop engine with greedy join ordering (the Virtuoso
/// stand-in of Table 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedLoopEngine;

/// Materializing hash-join engine without join reordering (the RDFox
/// stand-in of Table 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashJoinEngine;

impl Engine for NestedLoopEngine {
    fn name(&self) -> &'static str {
        "nested-loop"
    }

    fn evaluate(&self, db: &dyn GraphView, query: &Query) -> ResultSet {
        let vt = VarTable::new(query.var_names());
        let rows = eval::<()>(db, query, &vt, eval_bgp_nested_loop::<()>);
        ResultSet::new(vt, rows.into_iter().map(|(r, ())| r).collect())
    }
}

impl Engine for HashJoinEngine {
    fn name(&self) -> &'static str {
        "hash-join"
    }

    fn evaluate(&self, db: &dyn GraphView, query: &Query) -> ResultSet {
        let vt = VarTable::new(query.var_names());
        let rows = eval::<()>(db, query, &vt, eval_bgp_hash_join::<()>);
        ResultSet::new(vt, rows.into_iter().map(|(r, ())| r).collect())
    }
}

type BgpFn<P> = fn(&dyn GraphView, &[dualsim_query::TriplePattern], &VarTable) -> Vec<(Row, P)>;

fn eval<P: BgpPayload>(
    db: &dyn GraphView,
    q: &Query,
    vt: &VarTable,
    bgp: BgpFn<P>,
) -> Vec<(Row, P)> {
    let rows = match q {
        Query::Bgp(tps) => bgp(db, tps, vt),
        Query::And(a, b) => {
            let left = eval(db, a, vt, bgp);
            let right = eval(db, b, vt, bgp);
            let keys = join_keys(a, b, vt);
            compatible_join(&left, &right, &keys, false)
        }
        Query::Optional(a, b) => {
            let left = eval(db, a, vt, bgp);
            let right = eval(db, b, vt, bgp);
            let keys = join_keys(a, b, vt);
            compatible_join(&left, &right, &keys, true)
        }
        Query::Union(a, b) => {
            let mut rows = eval(db, a, vt, bgp);
            rows.extend(eval(db, b, vt, bgp));
            rows
        }
    };
    normalize(rows)
}

/// Set semantics (`⟦·⟧` is a set of mappings): sort, merge payloads of
/// duplicate rows. Applied after every operator so duplicates cannot
/// multiply through joins.
fn normalize<P: BgpPayload>(mut rows: Vec<(Row, P)>) -> Vec<(Row, P)> {
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(Row, P)> = Vec::with_capacity(rows.len());
    for (row, payload) in rows {
        match out.last_mut() {
            Some((last, last_payload)) if *last == row => last_payload.merge(&payload),
            _ => out.push((row, payload)),
        }
    }
    out
}

/// Join key: variables certainly bound on both sides (`mand(a) ∩
/// mand(b)`), as positions in the global var table.
fn join_keys(a: &Query, b: &Query, vt: &VarTable) -> Vec<usize> {
    let mand_a = a.mand();
    b.mand()
        .iter()
        .filter(|v| mand_a.contains(*v))
        .filter_map(|v| vt.position(v))
        .collect()
}

/// The compatibility predicate `μ1 ⇋ μ2` of Sect. 4.2: both mappings
/// agree on every shared *bound* variable. Returns the merged mapping.
fn try_merge(l: &Row, r: &Row) -> Option<Row> {
    let mut out = Vec::with_capacity(l.len());
    for (a, b) in l.iter().zip(r.iter()) {
        match (a, b) {
            (Some(x), Some(y)) if x != y => return None,
            (a, b) => out.push(a.or(*b)),
        }
    }
    Some(out)
}

/// Inner (`AND`) or left-outer (`OPTIONAL`) join of compatible mappings.
/// The hash index on `keys` only accelerates lookup; full compatibility
/// is checked on every candidate pair, so optionally-bound shared
/// variables are handled exactly per the SPARQL semantics.
fn compatible_join<P: BgpPayload>(
    left: &[(Row, P)],
    right: &[(Row, P)],
    keys: &[usize],
    outer: bool,
) -> Vec<(Row, P)> {
    let mut out = Vec::new();
    let merge_payload = |l: &P, r: &P| {
        let mut p = l.clone();
        p.merge(r);
        p
    };
    if keys.is_empty() {
        for (lrow, lp) in left {
            let mut matched = false;
            for (rrow, rp) in right {
                if let Some(m) = try_merge(lrow, rrow) {
                    out.push((m, merge_payload(lp, rp)));
                    matched = true;
                }
            }
            if outer && !matched {
                out.push((lrow.clone(), lp.clone()));
            }
        }
        return out;
    }
    let mut index: HashMap<Vec<NodeId>, Vec<&(Row, P)>> = HashMap::new();
    for entry in right {
        let key: Vec<NodeId> = keys
            .iter()
            .map(|&v| entry.0[v].expect("mandatory vars are bound"))
            .collect();
        index.entry(key).or_default().push(entry);
    }
    for (lrow, lp) in left {
        let key: Vec<NodeId> = keys
            .iter()
            .map(|&v| lrow[v].expect("mandatory vars are bound"))
            .collect();
        let mut matched = false;
        if let Some(bucket) = index.get(&key) {
            for (rrow, rp) in bucket {
                if let Some(m) = try_merge(lrow, rrow) {
                    out.push((m, merge_payload(lp, rp)));
                    matched = true;
                }
            }
        }
        if outer && !matched {
            out.push((lrow.clone(), lp.clone()));
        }
    }
    out
}

/// The triples required to produce the query's result set (the "No. Req.
/// Triples" column of Table 3): a triple counts iff it witnesses some
/// result mapping, computed by provenance-tracking evaluation (exact
/// even for non-well-designed queries, where a bare optional part must
/// *not* contribute coincidental triples).
pub fn required_triples(db: &dyn GraphView, query: &Query) -> HashSet<Triple> {
    let vt = VarTable::new(query.var_names());
    let rows = eval::<Provenance>(db, query, &vt, eval_bgp_nested_loop::<Provenance>);
    rows.into_iter().flat_map(|(_, p)| p.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualsim_graph::{GraphDb, GraphDbBuilder};
    use dualsim_query::parse;

    /// The Fig. 1(a) database (cf. `dualsim-core` for the directions).
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

    /// The Fig. 5(a) database of the (X3) discussion.
    fn fig5_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("1", "a", "2").unwrap();
        b.add_triple("1", "a", "3").unwrap();
        b.add_triple("4", "b", "2").unwrap();
        b.add_triple("4", "c", "5").unwrap();
        b.add_triple("5", "d", "6").unwrap();
        b.finish()
    }

    #[test]
    fn x1_has_exactly_the_two_paper_matches() {
        let db = fig1_db();
        let q = parse("{ ?director directed ?movie . ?director worked_with ?coworker }").unwrap();
        for engine in [&NestedLoopEngine as &dyn Engine, &HashJoinEngine] {
            let r = engine.evaluate(&db, &q);
            assert_eq!(r.len(), 2, "engine {}", engine.name());
            assert!(r.contains_named(
                &db,
                &[
                    ("director", "B. De Palma"),
                    ("movie", "Mission: Impossible"),
                    ("coworker", "D. Koepp"),
                ],
            ));
            assert!(r.contains_named(
                &db,
                &[
                    ("director", "G. Hamilton"),
                    ("movie", "Goldfinger"),
                    ("coworker", "H. Saltzman"),
                ],
            ));
        }
    }

    #[test]
    fn x2_adds_directors_without_coworkers() {
        let db = fig1_db();
        let q = parse("{ ?director directed ?movie OPTIONAL { ?director worked_with ?coworker } }")
            .unwrap();
        let r = NestedLoopEngine.evaluate(&db, &q);
        // 5 directed triples; De Palma and Hamilton get their coworker,
        // D. Koepp and T. Young (twice) stay bare.
        assert_eq!(r.len(), 5);
        assert!(r.contains_named(&db, &[("director", "D. Koepp"), ("movie", "Mortdecai")]));
        assert!(r.contains_named(
            &db,
            &[
                ("director", "B. De Palma"),
                ("movie", "Mission: Impossible"),
                ("coworker", "D. Koepp"),
            ],
        ));
    }

    #[test]
    fn x3_reproduces_fig5_matches() {
        let db = fig5_db();
        let q = parse("{ { ?v1 a ?v2 OPTIONAL { ?v3 b ?v2 } } { ?v3 c ?v4 } }").unwrap();
        for engine in [&NestedLoopEngine as &dyn Engine, &HashJoinEngine] {
            let r = engine.evaluate(&db, &q);
            assert_eq!(r.len(), 2, "engine {}", engine.name());
            // Fig. 5(b): the fully bound match.
            assert!(r.contains_named(&db, &[("v1", "1"), ("v2", "2"), ("v3", "4"), ("v4", "5")],));
            // Fig. 5(c): the non-well-designed cross-product match with
            // v2 = 3 and no b-edge.
            assert!(r.contains_named(&db, &[("v1", "1"), ("v2", "3"), ("v3", "4"), ("v4", "5")],));
        }
    }

    #[test]
    fn union_concatenates_result_sets() {
        let db = fig1_db();
        let q = parse("{ { ?x sequel_of ?y } UNION { ?x prequel_of ?y } }").unwrap();
        let r = HashJoinEngine.evaluate(&db, &q);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn incompatible_matches_are_not_joined() {
        // The Sect. 4.2 example: G1 = {(v,knows,w)}, G2 = {(w,knows,v)}
        // on the Fig. 4(b) database K.
        let mut b = GraphDbBuilder::new();
        b.add_triple("p1", "knows", "p2").unwrap();
        b.add_triple("p2", "knows", "p1").unwrap();
        b.add_triple("p3", "knows", "p2").unwrap();
        b.add_triple("p2", "knows", "p3").unwrap();
        b.add_triple("p3", "knows", "p4").unwrap();
        b.add_triple("p4", "knows", "p1").unwrap();
        let db = b.finish();
        let q = parse("{ { ?v knows ?w } { ?w knows ?v } }").unwrap();
        let r = NestedLoopEngine.evaluate(&db, &q);
        // Only the 2-cycles p1↔p2 and p2↔p3 (both orientations).
        assert_eq!(r.len(), 4);
        assert!(!r.contains_named(&db, &[("v", "p4"), ("w", "p1")]));
    }

    #[test]
    fn engines_agree_on_a_query_mix() {
        let db = fig1_db();
        for text in [
            "{ ?d directed ?m }",
            "{ ?d directed ?m . ?m genre ?g }",
            "{ ?d directed ?m OPTIONAL { ?m awarded ?a } }",
            "{ { ?x sequel_of ?y } UNION { ?x prequel_of ?y } }",
            "{ ?d born_in ?c . ?c population ?p }",
            "{ ?d directed ?m . ?d worked_with ?c OPTIONAL { ?c born_in ?t } }",
        ] {
            let q = parse(text).unwrap();
            let a = NestedLoopEngine.evaluate(&db, &q);
            let b = HashJoinEngine.evaluate(&db, &q);
            assert_eq!(a, b, "{text}");
        }
    }

    #[test]
    fn required_triples_for_x1() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m . ?d worked_with ?c }").unwrap();
        let req = required_triples(&db, &q);
        assert_eq!(req.len(), 4, "two triples per match");
    }

    #[test]
    fn required_triples_excludes_unmatched_optional_coincidences() {
        let db = fig5_db();
        let q = parse("{ { ?v1 a ?v2 OPTIONAL { ?v3 b ?v2 } } { ?v3 c ?v4 } }").unwrap();
        let req = required_triples(&db, &q);
        // (1,a,2), (4,b,2), (4,c,5) from Fig. 5(b); (1,a,3) from 5(c).
        assert_eq!(req.len(), 4);
        let d = db.label_id("d").unwrap();
        assert!(req.iter().all(|t| t.p != d), "the d-edge is never used");
    }

    #[test]
    fn required_triples_counts_optional_evidence_when_matched() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m OPTIONAL { ?d worked_with ?c } }").unwrap();
        let req = required_triples(&db, &q);
        // 5 directed + the 2 worked_with edges of De Palma and Hamilton.
        assert_eq!(req.len(), 7);
        let ww = db.label_id("worked_with").unwrap();
        let hunt = db.node_id("P.R. Hunt").unwrap();
        assert!(
            !req.iter().any(|t| t.p == ww && t.s == hunt),
            "P.R. Hunt's edge extends no director match"
        );
    }

    #[test]
    fn empty_query_has_the_empty_match() {
        let db = fig1_db();
        let q = parse("{ }").unwrap();
        let r = NestedLoopEngine.evaluate(&db, &q);
        assert_eq!(r.len(), 1);
        assert!(r.vars.is_empty());
    }

    #[test]
    fn leading_optional_over_empty_mandatory_part() {
        let db = fig1_db();
        let q = parse("{ OPTIONAL { ?x sequel_of ?y } }").unwrap();
        let r = NestedLoopEngine.evaluate(&db, &q);
        // μ∅ extended by the single sequel_of match.
        assert_eq!(r.len(), 1);
        assert!(r.contains_named(&db, &[("x", "Thunderball"), ("y", "Goldfinger")]));
    }
}
