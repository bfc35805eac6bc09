//! Property tests for the graph substrate: adjacency-map duality,
//! N-Triples round trips, the in-place mutation against a rebuild, and
//! pruning-view invariants.

use crate::{parse_ntriples, write_ntriples, GraphDb, GraphDbBuilder, GraphError, Triple};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_db() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec((0u8..15, 0u8..4, 0u8..15), 0..60).prop_map(|triples| {
        let mut b = GraphDbBuilder::new();
        for (s, p, o) in triples {
            b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"))
                .unwrap();
        }
        b.finish()
    })
}

/// Literal texts that need every escape the writer emits, non-ASCII
/// characters and the empty string; none is also an IRI name.
const LITERALS: [&str; 10] = [
    "",
    "plain",
    "say \"hi\"",
    "back\\slash",
    "two\nlines",
    "tab\there",
    "cr\r",
    "café",
    "日本語 😀",
    "\\\"\n\t\r",
];

/// Lines `(subject, label, object, literal object)` over the IRIs `n0` to
/// `n11`, four labels and [`LITERALS`].
fn arb_lines() -> impl Strategy<Value = Vec<(u8, u8, u8, bool)>> {
    proptest::collection::vec((0u8..12, 0u8..4, 0u8..12, any::<bool>()), 0..50)
}

/// Feeds `lines` to a builder, in order.
fn build_lines(lines: &[(u8, u8, u8, bool)]) -> GraphDb {
    let mut b = GraphDbBuilder::new();
    for &(s, p, o, literal) in lines {
        let (s, p) = (format!("n{s}"), format!("p{p}"));
        if literal {
            b.add_attribute(&s, &p, LITERALS[o as usize % LITERALS.len()])
                .unwrap();
        } else {
            b.add_triple(&s, &p, &format!("n{o}")).unwrap();
        }
    }
    b.finish()
}

/// A literal's text as N-Triples, written differently from
/// [`write_ntriples`] by `style`: tabs and non-ASCII characters either
/// raw or as `\u`/`\U` escapes.
fn escape_by(text: &str, style: u8) -> String {
    let mut out = String::new();
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' if style & 1 == 0 => out.push_str("\\u0009"),
            c if !c.is_ascii() && style & 1 == 0 => {
                if u32::from(c) > 0xffff {
                    out.push_str(&format!("\\U{:08X}", u32::from(c)));
                } else {
                    out.push_str(&format!("\\u{:04x}", u32::from(c)));
                }
            }
            c => out.push(c),
        }
    }
    out
}

/// Graphs over 128 nodes whose four labels get the triples in shares of
/// 8:4:2:1, so that a label's matrices come with either row index: the
/// ranked one below 8 non-empty rows (one in 16), the dense one above.
fn arb_wide_db() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec((0u32..128, 0u32..15, 0u32..128), 0..90).prop_map(|triples| {
        let mut b = GraphDbBuilder::new();
        for v in 0..128 {
            b.add_node(&format!("n{v}"), crate::NodeKind::Iri).unwrap();
        }
        for p in 0..4 {
            b.intern_label(&format!("p{p}"));
        }
        for (s, share, o) in triples {
            let p = match share {
                0..8 => 0,
                8..12 => 1,
                12..14 => 2,
                _ => 3,
            };
            b.add_triple_ids(s, p, o).unwrap();
        }
        b.finish()
    })
}

/// [`arb_wide_db`] builds matrices of both row indexes: per label and
/// direction, fewer than one non-empty row in 16 is the ranked index.
/// Prints the shares.
#[test]
fn wide_graphs_reach_both_indexes() {
    let mut rng = proptest::test_runner::TestRng::deterministic("wide-db-coverage");
    let dbs = arb_wide_db();
    let (mut ranked, mut dense) = (0usize, 0usize);
    for _ in 0..64 {
        let db = dbs.generate(&mut rng);
        for p in 0..db.num_labels() as u32 {
            let stats = db.label_stats(p);
            for rows in [stats.distinct_subjects, stats.distinct_objects] {
                if rows * 16 < db.num_nodes() {
                    ranked += 1;
                } else {
                    dense += 1;
                }
            }
        }
    }
    println!("64 graphs: {ranked} ranked and {dense} dense label matrices");
    assert!(ranked * 4 >= ranked + dense && dense * 4 >= ranked + dense);
}

/// A name is an IRI or a literal for the whole text: whichever kind it
/// meets second, as subject or object, is a `KindConflict`.
#[test]
fn a_name_of_both_kinds_is_a_kind_conflict() {
    for text in [
        "<a> <p> <x> .\n<b> <p> \"x\" .\n",
        "<b> <p> \"x\" .\n<a> <p> <x> .\n",
        "<b> <p> \"x\" .\n<x> <p> <a> .\n",
    ] {
        assert_eq!(
            parse_ntriples(text).unwrap_err(),
            GraphError::KindConflict("x".into()),
            "{text}"
        );
    }
}

/// Every reader of `db` agrees with `with_triples` of `model`.
fn assert_equals_rebuild(db: &GraphDb, model: &BTreeSet<Triple>) {
    let triples: Vec<Triple> = model.iter().copied().collect();
    let expected = db.with_triples(&triples).unwrap();
    prop_assert!(db.same_triples(&expected) && expected.same_triples(db));
    if let Some((_, rest)) = triples.split_first() {
        // One triple fewer, or one moved elsewhere: not the same.
        prop_assert!(!db.same_triples(&db.with_triples(rest).unwrap()));
        let n = db.num_nodes() as u32;
        let moved = (0..n * n)
            .map(|k| Triple::new(k / n, triples[0].p, k % n))
            .find(|t| !model.contains(t));
        if let Some(moved) = moved {
            let mut other = rest.to_vec();
            other.push(moved);
            prop_assert!(!db.same_triples(&db.with_triples(&other).unwrap()));
        }
    }
    prop_assert_eq!(db.num_triples(), expected.num_triples());
    prop_assert_eq!(
        db.triples().collect::<Vec<_>>(),
        expected.triples().collect::<Vec<_>>()
    );
    for p in 0..db.num_labels() as u32 {
        prop_assert_eq!(db.f_summary(p), expected.f_summary(p));
        prop_assert_eq!(db.b_summary(p), expected.b_summary(p));
        prop_assert_eq!(db.label_stats(p), expected.label_stats(p));
        prop_assert_eq!(db.num_label_triples(p), expected.num_label_triples(p));
        prop_assert_eq!(
            db.label_pairs(p).collect::<Vec<_>>(),
            expected.label_pairs(p).collect::<Vec<_>>()
        );
        for v in 0..db.num_nodes() as u32 {
            prop_assert_eq!(db.out_neighbors(v, p), expected.out_neighbors(v, p));
            prop_assert_eq!(db.in_neighbors(v, p), expected.in_neighbors(v, p));
            for o in 0..db.num_nodes() as u32 {
                let t = Triple::new(v, p, o);
                prop_assert_eq!(db.contains_triple(t), model.contains(&t));
            }
        }
    }
}

proptest! {
    /// The oracle of the in-place mutation: after any sequence of
    /// `apply` calls — with repeats and no-ops in the batches, on labels
    /// of either row index — the store is indistinguishable from
    /// `with_triples` of the resulting set, each call returns exactly the
    /// set difference it made and the batch's distinct count, and a
    /// batch holding a foreign triple is rejected whole.
    #[test]
    fn apply_sequences_equal_a_rebuild(
        db in arb_wide_db(),
        script in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u32..128, 0u32..4, 0u32..128), 0..25)),
            1..8,
        ),
        foreign_step in 0usize..8,
        foreign_kind in 0usize..3,
    ) {
        if db.num_triples() == 0 {
            return Ok(());
        }
        let (n, labels) = (db.num_nodes() as u32, db.num_labels() as u32);
        let mut db = db;
        let mut model: BTreeSet<Triple> = db.triples().collect();
        let foreign_step = foreign_step % script.len();
        for (step, (insert, raw)) in script.into_iter().enumerate() {
            let mut batch: Vec<Triple> = raw
                .into_iter()
                .map(|(s, p, o)| Triple::new(s % n, p % labels, o % n))
                .collect();
            // Repeat the head so that every non-empty batch has a duplicate.
            batch.extend(batch.first().copied());

            if step == foreign_step {
                let foreign = [
                    Triple::new(n, 0, 0),
                    Triple::new(0, labels, 0),
                    Triple::new(0, 0, n + 3),
                ][foreign_kind];
                let at = batch.len() / 2;
                let mut poisoned = batch.clone();
                poisoned.insert(at, foreign);
                match db.apply(insert, &poisoned) {
                    Err(GraphError::ForeignTriple { triple, index, .. }) => {
                        prop_assert_eq!(triple, foreign);
                        prop_assert_eq!(index, at + 1);
                    }
                    other => prop_assert!(false, "expected ForeignTriple, got {:?}", other),
                }
                assert_equals_rebuild(&db, &model);
            }

            let before = model.clone();
            for t in &batch {
                if insert {
                    model.insert(*t);
                } else {
                    model.remove(t);
                }
            }
            let applied = db.apply(insert, &batch).unwrap();
            prop_assert_eq!(applied.distinct, batch.iter().collect::<BTreeSet<_>>().len());
            let effective = applied.effective;
            let expected: BTreeSet<Triple> = before.symmetric_difference(&model).copied().collect();
            prop_assert_eq!(effective.len(), expected.len(), "no repeats in the effective batch");
            prop_assert_eq!(effective.iter().copied().collect::<BTreeSet<_>>(), expected);
            assert_equals_rebuild(&db, &model);
        }
    }

    /// Forward and backward adjacency maps are transposes of each other:
    /// `w ∈ F^a(v) ⟺ v ∈ B^a(w)`.
    #[test]
    fn adjacency_maps_are_dual(db in arb_db()) {
        for t in db.triples() {
            prop_assert!(db.out_neighbors(t.s, t.p).contains(&t.o));
            prop_assert!(db.in_neighbors(t.o, t.p).contains(&t.s));
            prop_assert!(db.contains_triple(t));
        }
        for label in 0..db.num_labels() as u32 {
            let fwd: usize = (0..db.num_nodes() as u32)
                .map(|v| db.out_neighbors(v, label).len())
                .sum();
            let bwd: usize = (0..db.num_nodes() as u32)
                .map(|v| db.in_neighbors(v, label).len())
                .sum();
            prop_assert_eq!(fwd, bwd);
            prop_assert_eq!(fwd, db.num_label_triples(label));
        }
    }

    /// Summary vectors mark exactly the nodes with incident edges.
    #[test]
    fn summaries_match_adjacency(db in arb_db()) {
        for label in 0..db.num_labels() as u32 {
            for v in 0..db.num_nodes() {
                prop_assert_eq!(
                    db.f_summary(label).get(v),
                    !db.out_neighbors(v as u32, label).is_empty()
                );
                prop_assert_eq!(
                    db.b_summary(label).get(v),
                    !db.in_neighbors(v as u32, label).is_empty()
                );
            }
        }
    }

    /// Serializing and re-parsing preserves the triple multiset at the
    /// name level, literals with escapes included.
    #[test]
    fn ntriples_round_trip(lines in arb_lines()) {
        let db = build_lines(&lines);
        let text = write_ntriples(&db);
        let db2 = parse_ntriples(&text).unwrap();
        prop_assert_eq!(db.num_triples(), db2.num_triples());
        let names = |db: &GraphDb| {
            let mut v: Vec<(String, String, String)> = db
                .triples()
                .map(|t| (
                    db.node_name(t.s).to_owned(),
                    db.label_name(t.p).to_owned(),
                    db.node_name(t.o).to_owned(),
                ))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(names(&db), names(&db2));
    }

    /// The dictionary of a parse is the builder's: `parse_ntriples` of
    /// some lines gives every node and label the id, name and kind that
    /// feeding the same terms in the same order to `add_triple` and
    /// `add_attribute` gives, whatever the spacing, escapes, comments and
    /// blank lines of the text.
    #[test]
    fn parse_assigns_the_builders_ids(
        lines in arb_lines(),
        styles in proptest::collection::vec(0u8..8, 50),
    ) {
        let mut text = String::new();
        for (&(s, p, o, literal), &style) in lines.iter().zip(&styles) {
            let object = if literal {
                format!("\"{}\"", escape_by(LITERALS[o as usize % LITERALS.len()], style))
            } else {
                format!("<n{o}>")
            };
            let gap = if style & 2 == 0 { " " } else { "\t " };
            let end = if style & 4 == 0 { " ." } else { ". # comment" };
            text.push_str(&format!("{gap}<n{s}>{gap}<p{p}>{gap}{object}{end}\n"));
            if style == 7 {
                text.push_str("# a comment line\n\n");
            }
        }
        let parsed = parse_ntriples(&text).unwrap();
        let built = build_lines(&lines);
        prop_assert_eq!(parsed.num_nodes(), built.num_nodes());
        prop_assert_eq!(parsed.num_labels(), built.num_labels());
        for v in 0..built.num_nodes() as u32 {
            prop_assert_eq!(parsed.node_name(v), built.node_name(v));
            prop_assert_eq!(parsed.node_kind(v), built.node_kind(v));
            prop_assert_eq!(parsed.node_id(built.node_name(v)), Some(v));
        }
        for p in 0..built.num_labels() as u32 {
            prop_assert_eq!(parsed.label_name(p), built.label_name(p));
        }
        prop_assert!(parsed.same_triples(&built));
    }

    /// `with_triples` behaves as a filter: the derived database contains
    /// exactly the requested subset, over the same vocabulary.
    #[test]
    fn with_triples_is_a_filter(db in arb_db(), keep_mask in proptest::collection::vec(any::<bool>(), 60)) {
        let all: Vec<Triple> = db.triples().collect();
        let kept: Vec<Triple> = all
            .iter()
            .zip(keep_mask.iter().cycle())
            .filter_map(|(t, &keep)| keep.then_some(*t))
            .collect();
        let derived = db.with_triples(&kept).unwrap();
        prop_assert_eq!(derived.num_triples(), kept.len());
        prop_assert_eq!(derived.num_nodes(), db.num_nodes());
        for t in &kept {
            prop_assert!(derived.contains_triple(*t));
        }
        for t in &all {
            if !kept.contains(t) {
                prop_assert!(!derived.contains_triple(*t));
            }
        }
    }

    /// Memory accounting is consistent and grows with edges.
    #[test]
    fn memory_footprint_is_additive(db in arb_db()) {
        let total: usize = (0..db.num_labels() as u32)
            .map(|l| db.label_memory(l))
            .sum();
        prop_assert_eq!(db.memory_footprint(), total);
    }
}
