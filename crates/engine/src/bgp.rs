//! Basic-graph-pattern evaluation: the two join strategies, generic over
//! a per-row payload so the same machinery supports plain evaluation and
//! provenance tracking (which database triples witness each match).

use crate::{Row, VarTable};
use dualsim_graph::{GraphView, LabelView, NodeId, NodeKind, Triple};
use dualsim_query::{Term, TriplePattern};
use std::collections::HashMap;

/// Per-row payload carried through evaluation.
///
/// `()` is the plain no-overhead payload; [`Provenance`] records the set
/// of database triples that witness the row (used for the required-triple
/// accounting of Table 3).
pub(crate) trait BgpPayload: Clone {
    /// Payload of a fresh BGP match produced from the given triple trail.
    fn from_trail(trail: &[Triple]) -> Self;
    /// Combines the payloads of two witnesses of the same row.
    fn merge(&mut self, other: &Self);
}

impl BgpPayload for () {
    #[inline]
    fn from_trail(_: &[Triple]) -> Self {}
    #[inline]
    fn merge(&mut self, _: &Self) {}
}

/// Sorted, deduplicated set of witnessing triples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Provenance(pub Vec<Triple>);

impl BgpPayload for Provenance {
    fn from_trail(trail: &[Triple]) -> Self {
        let mut v = trail.to_vec();
        v.sort_unstable();
        v.dedup();
        Provenance(v)
    }

    fn merge(&mut self, other: &Self) {
        if other.0.is_empty() {
            return;
        }
        self.0.extend(other.0.iter().copied());
        self.0.sort_unstable();
        self.0.dedup();
    }
}

/// A triple-pattern position resolved against database and var table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Query variable at this var-table position.
    Var(usize),
    /// Constant resolved to a node; `None` if absent from the database
    /// (the pattern then has no matches).
    Const(Option<NodeId>),
}

/// A triple pattern with resolved endpoints and label: the label's edges
/// in the graph view, or `None` for a predicate outside the vocabulary.
#[derive(Clone, Copy)]
pub(crate) struct ResolvedPattern<'a> {
    pub s: Slot,
    pub label: Option<LabelView<'a>>,
    pub o: Slot,
}

impl ResolvedPattern<'_> {
    /// `true` iff the pattern can never match (unknown label/constant).
    fn is_dead(&self) -> bool {
        self.label.is_none()
            || matches!(self.s, Slot::Const(None))
            || matches!(self.o, Slot::Const(None))
    }
}

pub(crate) fn resolve_term(db: &dyn GraphView, term: &Term, vt: &VarTable) -> Slot {
    let vocab = db.vocab();
    match term {
        Term::Var(v) => Slot::Var(
            vt.position(v)
                .expect("var table covers all query variables"),
        ),
        Term::Iri(iri) => Slot::Const(
            vocab
                .node_id(iri)
                .filter(|&n| vocab.node_kind(n) == NodeKind::Iri),
        ),
        Term::Literal(l) => Slot::Const(
            vocab
                .node_id(l)
                .filter(|&n| vocab.node_kind(n) == NodeKind::Literal),
        ),
    }
}

pub(crate) fn resolve_patterns<'a>(
    db: &'a dyn GraphView,
    tps: &[TriplePattern],
    vt: &VarTable,
) -> Vec<ResolvedPattern<'a>> {
    tps.iter()
        .map(|tp| ResolvedPattern {
            s: resolve_term(db, &tp.s, vt),
            label: db.vocab().label_id(&tp.p).map(|a| db.label(a)),
            o: resolve_term(db, &tp.o, vt),
        })
        .collect()
}

/// Index nested-loop evaluation with greedy selectivity ordering — the
/// "Virtuoso-like" strategy: patterns with bound endpoints and rare
/// labels are matched first, each further pattern extends the current
/// partial match through the adjacency indexes.
pub(crate) fn eval_bgp_nested_loop<P: BgpPayload>(
    db: &dyn GraphView,
    tps: &[TriplePattern],
    vt: &VarTable,
) -> Vec<(Row, P)> {
    let patterns = resolve_patterns(db, tps, vt);
    if patterns.iter().any(ResolvedPattern::is_dead) {
        return Vec::new();
    }
    if patterns.is_empty() {
        return vec![(vec![None; vt.len()], P::from_trail(&[]))]; // μ∅
    }
    let order = greedy_order(&patterns);
    let mut row: Row = vec![None; vt.len()];
    let mut trail: Vec<Triple> = Vec::with_capacity(patterns.len());
    let mut out = Vec::new();
    extend(&patterns, &order, 0, &mut row, &mut trail, &mut out);
    out
}

/// Plain-row convenience wrapper (drops the payload).
#[cfg(test)]
pub(crate) fn nested_loop_rows(
    db: &dyn GraphView,
    tps: &[TriplePattern],
    vt: &VarTable,
) -> Vec<Row> {
    eval_bgp_nested_loop::<()>(db, tps, vt)
        .into_iter()
        .map(|(r, ())| r)
        .collect()
}

/// Chooses a static pattern order: at each step the pattern with the
/// fewest free endpoints, breaking ties by label cardinality.
fn greedy_order(patterns: &[ResolvedPattern]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut bound_vars = std::collections::HashSet::new();
    let mut order = Vec::with_capacity(patterns.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| {
                let p = &patterns[i];
                let free = |s: &Slot| match s {
                    Slot::Var(v) => !bound_vars.contains(v) as usize,
                    Slot::Const(_) => 0,
                };
                let mut free_count = free(&p.s) + free(&p.o);
                if let (Slot::Var(a), Slot::Var(b)) = (&p.s, &p.o) {
                    if a == b && free_count == 2 {
                        free_count = 1; // one variable to enumerate
                    }
                }
                let card = p.label.map_or(0, |l| l.num_triples());
                (free_count, card, i)
            })
            .map(|(pos, &i)| (pos, i))
            .expect("remaining is non-empty");
        remaining.swap_remove(best.0);
        let p = &patterns[best.1];
        if let Slot::Var(v) = p.s {
            bound_vars.insert(v);
        }
        if let Slot::Var(v) = p.o {
            bound_vars.insert(v);
        }
        order.push(best.1);
    }
    order
}

fn slot_value(slot: Slot, row: &Row) -> Option<NodeId> {
    match slot {
        Slot::Const(c) => c,
        Slot::Var(v) => row[v],
    }
}

fn extend<P: BgpPayload>(
    patterns: &[ResolvedPattern],
    order: &[usize],
    depth: usize,
    row: &mut Row,
    trail: &mut Vec<Triple>,
    out: &mut Vec<(Row, P)>,
) {
    if depth == order.len() {
        out.push((row.clone(), P::from_trail(trail)));
        return;
    }
    let p = &patterns[order[depth]];
    let a = p.label.expect("dead patterns filtered earlier");
    // Recurse with the chosen triple on the provenance trail.
    macro_rules! descend {
        ($s:expr, $o:expr) => {{
            trail.push(Triple::new($s, a.id(), $o));
            extend(patterns, order, depth + 1, row, trail, out);
            trail.pop();
        }};
    }
    match (slot_value(p.s, row), slot_value(p.o, row)) {
        (Some(s), Some(o)) => {
            if a.contains(s, o) {
                descend!(s, o);
            }
        }
        // The two probes iterate internally: `Neighbors::fold` picks the
        // row's filter once, outside the loop.
        (Some(s), None) => {
            let Slot::Var(ov) = p.o else { unreachable!() };
            a.out_row(s).for_each(|o| {
                row[ov] = Some(o);
                descend!(s, o);
            });
            row[ov] = None;
        }
        (None, Some(o)) => {
            let Slot::Var(sv) = p.s else { unreachable!() };
            a.in_row(o).for_each(|s| {
                row[sv] = Some(s);
                descend!(s, o);
            });
            row[sv] = None;
        }
        (None, None) => {
            let (Slot::Var(sv), Slot::Var(ov)) = (p.s, p.o) else {
                unreachable!()
            };
            if sv == ov {
                // Self-loop pattern (v, a, v).
                for (s, o) in a.pairs() {
                    if s == o {
                        row[sv] = Some(s);
                        descend!(s, o);
                    }
                }
                row[sv] = None;
            } else {
                for (s, o) in a.pairs() {
                    row[sv] = Some(s);
                    row[ov] = Some(o);
                    descend!(s, o);
                }
                row[sv] = None;
                row[ov] = None;
            }
        }
    }
}

/// Materialized hash-join evaluation in syntactic order — the
/// "RDFox-like" strategy: one binding table per triple pattern, folded
/// left to right. Deliberately no join reordering; queries whose early
/// patterns are unselective build huge intermediate tables, which is the
/// behaviour dual-simulation pruning targets (Sect. 5.3 on L1).
pub(crate) fn eval_bgp_hash_join<P: BgpPayload>(
    db: &dyn GraphView,
    tps: &[TriplePattern],
    vt: &VarTable,
) -> Vec<(Row, P)> {
    hash_join_rows(db, tps, vt)
        .into_iter()
        .map(|r| (r, P::from_trail(&[])))
        .collect()
}

/// Plain hash-join evaluation (provenance is only supported by the
/// nested-loop strategy; [`eval_bgp_hash_join`] attaches empty payloads
/// and is therefore only used with `P = ()`).
pub(crate) fn hash_join_rows(db: &dyn GraphView, tps: &[TriplePattern], vt: &VarTable) -> Vec<Row> {
    let patterns = resolve_patterns(db, tps, vt);
    if patterns.iter().any(ResolvedPattern::is_dead) {
        return Vec::new();
    }
    if patterns.is_empty() {
        return vec![vec![None; vt.len()]];
    }
    let mut acc: Option<(Vec<Row>, Vec<usize>)> = None; // (rows, bound var positions)
    for p in &patterns {
        let (table, bound) = scan_pattern(p, vt);
        acc = Some(match acc {
            None => (table, bound),
            Some((left_rows, left_bound)) => {
                let shared: Vec<usize> = left_bound
                    .iter()
                    .copied()
                    .filter(|v| bound.contains(v))
                    .collect();
                let joined = hash_join(&left_rows, &table, &shared);
                let mut all_bound = left_bound;
                for v in bound {
                    if !all_bound.contains(&v) {
                        all_bound.push(v);
                    }
                }
                (joined, all_bound)
            }
        });
    }
    acc.expect("at least one pattern").0
}

/// Scans one pattern into a binding table over the global row width.
fn scan_pattern(p: &ResolvedPattern, vt: &VarTable) -> (Vec<Row>, Vec<usize>) {
    let a = p.label.expect("dead patterns filtered earlier");
    let mut bound = Vec::new();
    if let Slot::Var(v) = p.s {
        bound.push(v);
    }
    if let Slot::Var(v) = p.o {
        if !bound.contains(&v) {
            bound.push(v);
        }
    }
    let width = vt.len();
    let mut rows = Vec::new();
    let emit = |s: NodeId, o: NodeId, rows: &mut Vec<Row>| {
        let mut row: Row = vec![None; width];
        match (p.s, p.o) {
            (Slot::Var(sv), Slot::Var(ov)) if sv == ov => {
                if s != o {
                    return;
                }
                row[sv] = Some(s);
            }
            _ => {
                if let Slot::Var(sv) = p.s {
                    row[sv] = Some(s);
                }
                if let Slot::Var(ov) = p.o {
                    row[ov] = Some(o);
                }
            }
        }
        rows.push(row);
    };
    match (p.s, p.o) {
        (Slot::Const(Some(s)), Slot::Const(Some(o))) => {
            if a.contains(s, o) {
                rows.push(vec![None; width]);
            }
        }
        (Slot::Const(Some(s)), _) => {
            for o in a.out_row(s) {
                emit(s, o, &mut rows);
            }
        }
        (_, Slot::Const(Some(o))) => {
            for s in a.in_row(o) {
                emit(s, o, &mut rows);
            }
        }
        _ => {
            for (s, o) in a.pairs() {
                emit(s, o, &mut rows);
            }
        }
    }
    (rows, bound)
}

/// Inner hash join of two tables on `shared` (positions bound in both).
/// With no shared variables this is the cross product.
fn hash_join(left: &[Row], right: &[Row], shared: &[usize]) -> Vec<Row> {
    let mut out = Vec::new();
    if shared.is_empty() {
        for l in left {
            for r in right {
                out.push(merge_disjoint(l, r));
            }
        }
        return out;
    }
    let mut index: HashMap<Vec<NodeId>, Vec<&Row>> = HashMap::new();
    for r in right {
        let key: Vec<NodeId> = shared
            .iter()
            .map(|&v| r[v].expect("shared vars are bound"))
            .collect();
        index.entry(key).or_default().push(r);
    }
    for l in left {
        let key: Vec<NodeId> = shared
            .iter()
            .map(|&v| l[v].expect("shared vars are bound"))
            .collect();
        if let Some(bucket) = index.get(&key) {
            for r in bucket {
                out.push(merge_disjoint(l, r));
            }
        }
    }
    out
}

/// Merges two rows whose bound positions agree on the shared columns.
fn merge_disjoint(l: &Row, r: &Row) -> Row {
    l.iter().zip(r.iter()).map(|(a, b)| a.or(*b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualsim_graph::{GraphDb, GraphDbBuilder};
    use dualsim_query::{parse, Query};

    fn db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("a", "p", "b").unwrap();
        b.add_triple("b", "p", "c").unwrap();
        b.add_triple("a", "q", "c").unwrap();
        b.add_triple("x", "p", "x").unwrap();
        b.finish()
    }

    fn eval_both(db: &GraphDb, text: &str) -> (Vec<Row>, Vec<Row>) {
        let q = parse(text).unwrap();
        let Query::Bgp(tps) = &q else {
            panic!("BGP only")
        };
        let vt = VarTable::new(q.var_names());
        let mut a = nested_loop_rows(db, tps, &vt);
        let mut b = hash_join_rows(db, tps, &vt);
        a.sort_unstable();
        b.sort_unstable();
        (a, b)
    }

    #[test]
    fn single_pattern_enumerates_label_pairs() {
        let db = db();
        let (a, b) = eval_both(&db, "{ ?s p ?o }");
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn chain_join() {
        let db = db();
        let (a, b) = eval_both(&db, "{ ?x p ?y . ?y p ?z }");
        // a→b→c and x→x→x.
        assert_eq!(a.len(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn self_loop_variable() {
        let db = db();
        let (a, b) = eval_both(&db, "{ ?v p ?v }");
        assert_eq!(a.len(), 1, "only x→x");
        assert_eq!(a, b);
    }

    #[test]
    fn constants_restrict() {
        let db = db();
        let (a, b) = eval_both(&db, "{ a p ?o }");
        assert_eq!(a.len(), 1);
        assert_eq!(a, b);
        let (a, _) = eval_both(&db, "{ a p b }");
        assert_eq!(a.len(), 1, "ground pattern with one (empty) match");
        let (a, _) = eval_both(&db, "{ a p c }");
        assert!(a.is_empty());
    }

    #[test]
    fn unknown_label_or_constant_kills_the_bgp() {
        let db = db();
        assert!(eval_both(&db, "{ ?s nolabel ?o }").0.is_empty());
        assert!(eval_both(&db, "{ nonode p ?o }").0.is_empty());
    }

    #[test]
    fn empty_bgp_yields_the_empty_match() {
        let db = db();
        let (a, b) = eval_both(&db, "{ }");
        assert_eq!(a, vec![Vec::<Option<u32>>::new()]);
        assert_eq!(a, b);
    }

    #[test]
    fn cross_product_of_disconnected_patterns() {
        let db = db();
        let (a, b) = eval_both(&db, "{ ?x p ?y . ?u q ?v }");
        assert_eq!(a.len(), 3, "3 p-edges × 1 q-edge");
        assert_eq!(a, b);
    }

    #[test]
    fn provenance_records_the_witnessing_triples() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y p ?z }").unwrap();
        let Query::Bgp(tps) = &q else { unreachable!() };
        let vt = VarTable::new(q.var_names());
        let rows = eval_bgp_nested_loop::<Provenance>(&db, tps, &vt);
        assert_eq!(rows.len(), 2);
        for (_, prov) in &rows {
            assert!(!prov.0.is_empty());
            for t in &prov.0 {
                assert!(db.contains_triple(*t), "provenance must cite real triples");
            }
        }
        // The a→b→c chain cites exactly its two triples.
        let p = db.label_id("p").unwrap();
        let chain: Vec<Triple> = vec![
            Triple::new(db.node_id("a").unwrap(), p, db.node_id("b").unwrap()),
            Triple::new(db.node_id("b").unwrap(), p, db.node_id("c").unwrap()),
        ];
        assert!(rows.iter().any(|(_, prov)| prov.0 == chain));
    }

    #[test]
    fn provenance_merge_unions_witness_sets() {
        let mut a = Provenance(vec![Triple::new(0, 0, 1)]);
        let b = Provenance(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
        a.merge(&b);
        assert_eq!(a.0.len(), 2);
    }
}
