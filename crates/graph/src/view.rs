//! Read-only graph access for the join engines, and the zero-copy pruned
//! view.
//!
//! [`GraphView`] is what basic-graph-pattern evaluation needs from a graph
//! and nothing else: the vocabulary, and per label a [`LabelView`] with
//! membership, out/in rows, pair enumeration and the edge count.
//! [`GraphDb`] implements it by handing out its adjacency matrices.
//! [`PrunedView`] implements it by handing out the *same* matrices of the
//! *same* database together with a filter: a triple `(s, a, o)` belongs to
//! the view iff the database holds it and some pair `(χ(src), χ(dst))`
//! recorded for label `a` has `s ∈ χ(src)` and `o ∈ χ(dst)`. No per-query
//! copy of the graph is ever built; [`PrunedView::materialize`] is the
//! explicit way to get one.
//!
//! A [`LabelView`] is a plain struct with inherent methods, so a caller
//! holding a `&dyn GraphView` pays one virtual call per pattern it
//! resolves and none per probe or neighbour.

use crate::{GraphDb, LabelId, NodeId, Triple, Vocabulary};
use dualsim_bitmatrix::{BitMatrix, ChiOnes, ChiVec};
use std::sync::Arc;

/// The read-only graph interface of the join engines.
pub trait GraphView {
    /// The vocabulary shared by the database and every view of it.
    fn vocab(&self) -> &Arc<Vocabulary>;

    /// The `label`-edges of the view.
    ///
    /// # Panics
    /// Panics if `label` is not in the vocabulary.
    fn label(&self, label: LabelId) -> LabelView<'_>;
}

impl GraphView for GraphDb {
    fn vocab(&self) -> &Arc<Vocabulary> {
        GraphDb::vocab(self)
    }

    fn label(&self, label: LabelId) -> LabelView<'_> {
        LabelView {
            id: label,
            forward: self.forward(label),
            backward: self.backward(label),
            filter: None,
            triples: self.num_label_triples(label),
        }
    }
}

/// One candidate set χ(v) with its cardinality (counted once, read by
/// every probe that weighs a candidate walk against a row walk).
#[derive(Debug)]
struct Candidates {
    bits: ChiVec,
    ones: usize,
}

/// One admitting pair of a label: indices into [`ChiFilter::sets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ChiPair {
    src: u32,
    dst: u32,
}

/// The admitting pairs of one label, with the sets they index.
#[derive(Clone, Copy)]
struct PairFilter<'a> {
    sets: &'a [Candidates],
    pairs: &'a [ChiPair],
}

impl PairFilter<'_> {
    #[inline]
    fn admits(self, s: NodeId, o: NodeId) -> bool {
        let in_set = |set: u32, node: NodeId| self.sets[set as usize].bits.get(node as usize);
        self.pairs
            .iter()
            .any(|p| in_set(p.src, s) && in_set(p.dst, o))
    }

    /// [`PairFilter::admits`] for a probe's bound endpoint and one of its
    /// neighbours.
    #[inline]
    fn admits_beside(self, bound: NodeId, bound_is_src: bool, x: NodeId) -> bool {
        if bound_is_src {
            self.admits(bound, x)
        } else {
            self.admits(x, bound)
        }
    }
}

/// The pairs of one label, as a range of [`ChiFilter::pairs`], and how
/// many database triples they admit.
#[derive(Debug)]
struct LabelGroup {
    label: LabelId,
    start: usize,
    end: usize,
    kept: usize,
}

/// Which triples of a database a pruning keeps: per label the
/// `(χ(src), χ(dst))` pairs of the pattern edges carrying that label. A
/// label no pair mentions keeps nothing. Owns its candidate sets, so a
/// [`PrunedView`] shares it behind an [`Arc`] and borrows only the
/// database.
#[derive(Debug)]
pub struct ChiFilter {
    sets: Vec<Candidates>,
    pairs: Vec<ChiPair>,
    /// Sorted by label; one entry per label some pair mentions.
    groups: Vec<LabelGroup>,
    kept: usize,
}

impl ChiFilter {
    /// Builds the filter from candidate sets over the nodes of `db` and
    /// pattern edges `(label, src, dst)` indexing into them, and counts
    /// per label the triples of `db` it admits: one walk per pair from its
    /// smaller side, a triple that several pairs admit counted at the
    /// first.
    ///
    /// # Panics
    /// Panics if a set's length is not `db.num_nodes()`, an edge indexes
    /// past `sets`, or a label is not in `db`'s vocabulary.
    pub fn new(db: &GraphDb, sets: Vec<ChiVec>, edges: &[(LabelId, usize, usize)]) -> Self {
        let sets: Vec<Candidates> = sets
            .into_iter()
            .map(|bits| {
                assert_eq!(
                    bits.len(),
                    db.num_nodes(),
                    "candidate set over another graph"
                );
                let ones = bits.count_ones();
                Candidates { bits, ones }
            })
            .collect();
        let mut keyed: Vec<(LabelId, ChiPair)> = edges
            .iter()
            .map(|&(label, src, dst)| {
                assert!(src < sets.len() && dst < sets.len(), "edge past the sets");
                let (src, dst) = (src as u32, dst as u32);
                (label, ChiPair { src, dst })
            })
            .collect();
        keyed.sort_unstable();
        keyed.dedup();
        let mut groups: Vec<LabelGroup> = Vec::new();
        for (i, &(label, _)) in keyed.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.label == label => g.end = i + 1,
                _ => groups.push(LabelGroup {
                    label,
                    start: i,
                    end: i + 1,
                    kept: 0,
                }),
            }
        }
        let pairs: Vec<ChiPair> = keyed.into_iter().map(|(_, pair)| pair).collect();
        let mut kept = 0;
        for g in &mut groups {
            let filter = PairFilter {
                sets: &sets,
                pairs: &pairs[g.start..g.end],
            };
            g.kept = LabelPairs::filtered(db.forward(g.label), db.backward(g.label), filter, false)
                .count();
            kept += g.kept;
        }
        ChiFilter {
            sets,
            pairs,
            groups,
            kept,
        }
    }

    /// Number of triples kept, over all labels.
    pub fn num_kept(&self) -> usize {
        self.kept
    }

    /// The pairs of `label` and the number of triples they admit.
    fn label(&self, label: LabelId) -> (PairFilter<'_>, usize) {
        let group = self
            .groups
            .binary_search_by_key(&label, |g| g.label)
            .ok()
            .map(|i| &self.groups[i]);
        let filter = PairFilter {
            sets: &self.sets,
            pairs: group.map_or(&[], |g| &self.pairs[g.start..g.end]),
        };
        (filter, group.map_or(0, |g| g.kept))
    }
}

/// A [`GraphDb`] seen through a [`ChiFilter`]: the per-query pruning of
/// Sect. 5.2 without a per-query graph. Node and label identifiers are
/// those of the database.
#[derive(Debug, Clone)]
pub struct PrunedView<'a> {
    db: &'a GraphDb,
    filter: Arc<ChiFilter>,
}

impl<'a> PrunedView<'a> {
    /// The view of `db` through `filter`, which must have been built over
    /// `db` (or a database with the same vocabulary).
    ///
    /// # Panics
    /// Panics if the filter's candidate sets are not over `db`'s nodes.
    pub fn new(db: &'a GraphDb, filter: Arc<ChiFilter>) -> Self {
        assert!(
            filter.sets.iter().all(|s| s.bits.len() == db.num_nodes()),
            "filter built over another graph"
        );
        PrunedView { db, filter }
    }

    /// Number of triples in the view.
    pub fn num_triples(&self) -> usize {
        self.filter.num_kept()
    }

    /// Every triple of the view, each once, label by label.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.filter.groups.iter().flat_map(move |g| {
            self.label(g.label)
                .pairs()
                .map(move |(s, o)| Triple::new(s, g.label, o))
        })
    }

    /// Builds the view's triples into a database of their own (shared
    /// vocabulary, stable ids): for consumers that need a [`GraphDb`],
    /// such as the N-Triples writer or a second pruning pass. Costs a
    /// whole graph build; evaluation does not need it.
    pub fn materialize(&self) -> GraphDb {
        let triples: Vec<Triple> = self.triples().collect();
        // Structural invariant: every triple was read out of `db`, so it
        // lies inside the shared vocabulary.
        #[allow(clippy::expect_used)]
        self.db
            .with_triples(&triples)
            .expect("view triples come from the database itself")
    }
}

impl GraphView for PrunedView<'_> {
    fn vocab(&self) -> &Arc<Vocabulary> {
        self.db.vocab()
    }

    fn label(&self, label: LabelId) -> LabelView<'_> {
        let (filter, triples) = self.filter.label(label);
        LabelView {
            id: label,
            forward: self.db.forward(label),
            backward: self.db.backward(label),
            // A label the pruning keeps whole is read as the database
            // reads it: the pairs admit every one of its triples.
            filter: (triples < self.db.num_label_triples(label)).then_some(filter),
            triples,
        }
    }
}

/// The edges of one label in a [`GraphView`]: the database's adjacency
/// matrices and, for a pruned view, the pairs that admit a triple.
#[derive(Clone, Copy)]
pub struct LabelView<'a> {
    id: LabelId,
    forward: &'a BitMatrix,
    backward: &'a BitMatrix,
    /// `None`: every triple of the matrices.
    filter: Option<PairFilter<'a>>,
    triples: usize,
}

impl<'a> LabelView<'a> {
    /// The label.
    #[inline]
    pub fn id(&self) -> LabelId {
        self.id
    }

    /// Number of edges (the join-order cardinality; exact for a pruned
    /// view too).
    #[inline]
    pub fn num_triples(&self) -> usize {
        self.triples
    }

    /// Membership test for `(s, label, o)`.
    #[inline]
    pub fn contains(&self, s: NodeId, o: NodeId) -> bool {
        self.filter.is_none_or(|f| f.admits(s, o)) && self.forward.get(s as usize, o as usize)
    }

    /// The objects `o` with `(s, label, o)` in the view, ascending.
    #[inline]
    pub fn out_row(&self, s: NodeId) -> Neighbors<'a> {
        self.probe(s, true, self.forward.row(s as usize))
    }

    /// The subjects `s` with `(s, label, o)` in the view, ascending.
    #[inline]
    pub fn in_row(&self, o: NodeId) -> Neighbors<'a> {
        self.probe(o, false, self.backward.row(o as usize))
    }

    /// All `(s, o)` pairs in the view, each once: a database yields them
    /// ascending by subject, a pruned view in one such run per admitting
    /// pair.
    pub fn pairs(&self) -> LabelPairs<'a> {
        match self.filter {
            None => LabelPairs::unfiltered(self.forward, self.backward),
            Some(filter) => LabelPairs::filtered(self.forward, self.backward, filter, true),
        }
    }

    /// The neighbours of `bound` in its adjacency `row` that the view
    /// admits; `bound` is the subject iff `bound_is_src`.
    #[inline]
    fn probe(&self, bound: NodeId, bound_is_src: bool, row: &'a [u32]) -> Neighbors<'a> {
        let Some(filter) = self.filter else {
            return Neighbors(Probe::All(row.iter()));
        };
        let sides = |p: &ChiPair| {
            if bound_is_src {
                (p.src, p.dst)
            } else {
                (p.dst, p.src)
            }
        };
        let mut active = filter
            .pairs
            .iter()
            .map(sides)
            .filter(|&(near, _)| filter.sets[near as usize].bits.get(bound as usize));
        let (first, second) = (active.next(), active.next());
        let Some((_, far)) = first else {
            return Neighbors(Probe::All([].iter()));
        };
        if second.is_some() {
            return Neighbors(Probe::AnyPair {
                ids: row.iter(),
                filter,
                bound,
                bound_is_src,
            });
        }
        let far = &filter.sets[far as usize];
        // A candidate walk scans the set's storage and pays a binary
        // search of the row per candidate; a row walk pays one bit test
        // per neighbour.
        if far.bits.storage_words() + far.ones.saturating_mul(16) < row.len() {
            Neighbors(Probe::Candidates {
                ones: far.bits.iter_ones(),
                row,
            })
        } else {
            Neighbors(Probe::In {
                ids: row.iter(),
                far: &far.bits,
            })
        }
    }
}

/// The neighbours of one node under one label, ascending
/// ([`LabelView::out_row`], [`LabelView::in_row`]).
pub struct Neighbors<'a>(Probe<'a>);

enum Probe<'a> {
    /// The whole adjacency row.
    All(std::slice::Iter<'a, u32>),
    /// One pair has the bound endpoint among its candidates: the row's
    /// ids that are in that pair's other set.
    In {
        ids: std::slice::Iter<'a, u32>,
        far: &'a ChiVec,
    },
    /// The same neighbours, walked from the other set: its candidates
    /// that the row holds.
    Candidates { ones: ChiOnes<'a>, row: &'a [u32] },
    /// Several pairs have the bound endpoint among their candidates: the
    /// row's ids that some pair admits together with it.
    AnyPair {
        ids: std::slice::Iter<'a, u32>,
        filter: PairFilter<'a>,
        bound: NodeId,
        bound_is_src: bool,
    },
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match &mut self.0 {
            Probe::All(ids) => ids.next().copied(),
            Probe::In { ids, far } => ids.copied().find(|&x| far.get(x as usize)),
            Probe::Candidates { ones, row } => ones
                .map(|x| x as NodeId)
                .find(|x| row.binary_search(x).is_ok()),
            Probe::AnyPair {
                ids,
                filter,
                bound,
                bound_is_src,
            } => ids
                .copied()
                .find(|&x| filter.admits_beside(*bound, *bound_is_src, x)),
        }
    }

    /// Internal iteration picks the variant once, outside the loop.
    #[inline]
    fn fold<B, F: FnMut(B, NodeId) -> B>(self, init: B, f: F) -> B {
        match self.0 {
            Probe::All(ids) => ids.copied().fold(init, f),
            Probe::In { ids, far } => ids.copied().filter(|&x| far.get(x as usize)).fold(init, f),
            Probe::Candidates { ones, row } => ones
                .map(|x| x as NodeId)
                .filter(|x| row.binary_search(x).is_ok())
                .fold(init, f),
            Probe::AnyPair {
                ids,
                filter,
                bound,
                bound_is_src,
            } => ids
                .copied()
                .filter(|&x| filter.admits_beside(bound, bound_is_src, x))
                .fold(init, f),
        }
    }
}

/// The `(s, o)` pairs of one label, each triple once
/// ([`LabelView::pairs`]).
///
/// One walk per admitting pair, from one of its two candidate sets
/// through that side's adjacency rows; a triple an earlier pair already
/// produced is skipped, so no deduplication is needed afterwards. The
/// unfiltered database is the one-walk case: every subject of the label,
/// no far-side test.
pub struct LabelPairs<'a> {
    forward: &'a BitMatrix,
    backward: &'a BitMatrix,
    /// The label's pairs; `pairs[started - 1]` is being walked.
    filter: PairFilter<'a>,
    started: usize,
    /// Walk every pair from its subjects, so each walk is ascending by
    /// subject as the database's own rows are (the join engines sort
    /// their rows afterwards, and sorted input is what they get from a
    /// database); otherwise from the smaller of the pair's two sets.
    by_subject: bool,
    /// The current walk: its driving nodes, whether they are subjects,
    /// the node whose row is open, what is left of that row, and the set
    /// the far endpoint must be in.
    nodes: Option<ChiOnes<'a>>,
    from_src: bool,
    node: NodeId,
    row: std::slice::Iter<'a, u32>,
    far: Option<&'a ChiVec>,
}

impl<'a> LabelPairs<'a> {
    pub(crate) fn unfiltered(forward: &'a BitMatrix, backward: &'a BitMatrix) -> Self {
        let none = PairFilter {
            sets: &[],
            pairs: &[],
        };
        LabelPairs {
            nodes: Some(ChiOnes::Dense(forward.row_summary().iter_ones())),
            ..LabelPairs::filtered(forward, backward, none, true)
        }
    }

    fn filtered(
        forward: &'a BitMatrix,
        backward: &'a BitMatrix,
        filter: PairFilter<'a>,
        by_subject: bool,
    ) -> Self {
        LabelPairs {
            forward,
            backward,
            filter,
            started: 0,
            by_subject,
            nodes: None,
            from_src: true,
            node: 0,
            row: [].iter(),
            far: None,
        }
    }
}

impl Iterator for LabelPairs<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let sets = self.filter.sets;
        loop {
            let earlier = PairFilter {
                sets,
                pairs: &self.filter.pairs[..self.started.saturating_sub(1)],
            };
            for &x in self.row.by_ref() {
                let (s, o) = if self.from_src {
                    (self.node, x)
                } else {
                    (x, self.node)
                };
                if self.far.is_none_or(|far| far.get(x as usize)) && !earlier.admits(s, o) {
                    return Some((s, o));
                }
            }
            if let Some(node) = self.nodes.as_mut().and_then(Iterator::next) {
                self.node = node as NodeId;
                let rows = if self.from_src {
                    self.forward
                } else {
                    self.backward
                };
                self.row = rows.row(node).iter();
                continue;
            }
            let pair = self.filter.pairs.get(self.started)?;
            self.started += 1;
            let (src, dst) = (&sets[pair.src as usize], &sets[pair.dst as usize]);
            self.from_src = self.by_subject || src.ones <= dst.ones;
            let (near, far) = if self.from_src {
                (src, dst)
            } else {
                (dst, src)
            };
            self.nodes = Some(near.bits.iter_ones());
            self.far = Some(&far.bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphDbBuilder;
    use dualsim_bitmatrix::ChiBackend;

    const N: u32 = 48;

    /// 48 nodes; `p`: a hub `n0` pointing at `n1..n36`, a chain
    /// `n41 -> n42 -> n43`, a loop at `n44`; `q`: `n41 -> n1`; `r`:
    /// `n42 -> n43`.
    fn hub_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        for i in 0..N {
            b.add_node(&format!("n{i}"), crate::NodeKind::Iri).unwrap();
        }
        for i in 1..=36 {
            b.add_triple("n0", "p", &format!("n{i}")).unwrap();
        }
        b.add_triple("n41", "p", "n42").unwrap();
        b.add_triple("n42", "p", "n43").unwrap();
        b.add_triple("n44", "p", "n44").unwrap();
        b.add_triple("n41", "q", "n1").unwrap();
        b.add_triple("n42", "r", "n43").unwrap();
        b.finish()
    }

    fn set(db: &GraphDb, ids: &[u32], backend: ChiBackend) -> ChiVec {
        ChiVec::from_indices(db.num_nodes(), ids, backend)
    }

    /// Everything a [`LabelView`] answers, by brute force over all nodes.
    fn observe(view: &dyn GraphView, label: LabelId, n: u32) -> (Vec<(u32, u32)>, usize) {
        let l = view.label(label);
        let mut pairs: Vec<(u32, u32)> = l.pairs().collect();
        let unsorted = pairs.clone();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), unsorted.len(), "pairs() repeated a triple");
        for s in 0..n {
            let out: Vec<u32> = l.out_row(s).collect();
            let folded = l.out_row(s).fold(Vec::new(), |mut v, o| {
                v.push(o);
                v
            });
            assert_eq!(out, folded, "next() and fold() disagree");
            let expected: Vec<u32> = pairs.iter().filter(|p| p.0 == s).map(|p| p.1).collect();
            assert_eq!(out, expected, "out_row({s})");
            for o in 0..n {
                assert_eq!(
                    l.contains(s, o),
                    pairs.contains(&(s, o)),
                    "contains({s},{o})"
                );
            }
        }
        for o in 0..n {
            let got: Vec<u32> = l.in_row(o).collect();
            let expected: Vec<u32> = pairs.iter().filter(|p| p.1 == o).map(|p| p.0).collect();
            assert_eq!(got, expected, "in_row({o})");
        }
        (pairs, l.num_triples())
    }

    #[test]
    fn a_database_is_its_own_unfiltered_view() {
        let db = hub_db();
        let p = db.label_id("p").unwrap();
        let (pairs, count) = observe(&db, p, N);
        assert_eq!(count, 39);
        assert_eq!(pairs, db.label_pairs(p).collect::<Vec<_>>());
    }

    #[test]
    fn the_view_is_the_database_restricted_to_the_pairs() {
        let db = hub_db();
        let [p, q, r] = ["p", "q", "r"].map(|name| db.label_id(name).unwrap());
        for backend in [ChiBackend::Dense, ChiBackend::Rle] {
            // Two overlapping pairs on `p` (the hub's edges into n1..n3
            // are admitted by both), one on `q` that keeps the label
            // whole, nothing on `r`.
            let sets = vec![
                set(&db, &[0, 41], backend),
                set(&db, &[1, 2, 3, 42], backend),
                set(&db, &[0, 44], backend),
                set(&db, &[2, 3, 4, 44], backend),
            ];
            let filter = Arc::new(ChiFilter::new(
                &db,
                sets,
                &[(p, 0, 1), (p, 2, 3), (p, 0, 1), (q, 0, 1)],
            ));
            let view = PrunedView::new(&db, Arc::clone(&filter));
            let (pairs, count) = observe(&view, p, N);
            assert_eq!(
                pairs,
                [(0, 1), (0, 2), (0, 3), (0, 4), (41, 42), (44, 44)],
                "{backend:?}"
            );
            assert_eq!(count, 6, "a triple two pairs admit counts once");
            assert_eq!(observe(&view, q, N), (vec![(41, 1)], 1), "whole label");
            assert_eq!(observe(&view, r, N), (vec![], 0), "unmentioned label");
            assert_eq!(filter.num_kept(), 7);
            assert_eq!(view.num_triples(), 7);
            let built = view.materialize();
            assert_eq!(observe(&built, p, N), (pairs, 6));
            assert_eq!(built.num_triples(), 7);
        }
    }

    #[test]
    fn a_long_row_is_probed_from_the_candidates() {
        let db = hub_db();
        let p = db.label_id("p").unwrap();
        for backend in [ChiBackend::Dense, ChiBackend::Rle] {
            // Two candidates, one of them a neighbour, against the hub's
            // 36-entry row.
            let sets = vec![set(&db, &[0], backend), set(&db, &[7, 45], backend)];
            let view = PrunedView::new(&db, Arc::new(ChiFilter::new(&db, sets, &[(p, 0, 1)])));
            let row = view.label(p).out_row(0);
            assert!(matches!(row.0, Probe::Candidates { .. }), "{backend:?}");
            assert_eq!(row.collect::<Vec<_>>(), [7]);
            assert_eq!(observe(&view, p, N), (vec![(0, 7)], 1));
        }
    }

    #[test]
    #[should_panic(expected = "another graph")]
    fn a_filter_over_another_graph_is_refused() {
        let db = hub_db();
        let other = GraphDbBuilder::new().finish();
        let filter = Arc::new(ChiFilter::new(&db, vec![], &[]));
        let sets = vec![set(&db, &[0], ChiBackend::Dense)];
        let _ = PrunedView::new(&db, filter);
        let _ = ChiFilter::new(&other, sets, &[]);
    }
}
