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

/// Every reader of `db` agrees with `with_triples` of `model`.
fn assert_equals_rebuild(db: &GraphDb, model: &BTreeSet<Triple>) {
    let triples: Vec<Triple> = model.iter().copied().collect();
    let expected = db.with_triples(&triples).unwrap();
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
    /// `apply` calls — with repeats and no-ops in the batches — the
    /// store is indistinguishable from `with_triples` of the resulting
    /// set, each call returns exactly the set difference it made, and a
    /// batch holding a foreign triple is rejected whole.
    #[test]
    fn apply_sequences_equal_a_rebuild(
        db in arb_db(),
        script in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u32..15, 0u32..4, 0u32..15), 0..25)),
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
            let effective = db.apply(insert, &batch).unwrap();
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
    /// name level.
    #[test]
    fn ntriples_round_trip(db in arb_db()) {
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
