//! The in-memory graph database: per-label adjacency bit matrices plus a
//! shared vocabulary.

use crate::{GraphError, LabelId, LabelPairs, NodeId, NodeKind, Vocabulary};
use dualsim_bitmatrix::{BitMatrix, BitVec, CsrError};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A dictionary-encoded RDF triple `(s, p, o)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject node (always an IRI object, never a literal).
    pub s: NodeId,
    /// Predicate label.
    pub p: LabelId,
    /// Object node (IRI object or literal).
    pub o: NodeId,
}

impl Triple {
    /// Convenience constructor.
    pub fn new(s: NodeId, p: LabelId, o: NodeId) -> Self {
        Triple { s, p, o }
    }
}

/// Per-label cardinality statistics used by join-order and inequality-order
/// heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelStats {
    /// Number of `a`-labeled edges.
    pub edges: usize,
    /// Number of distinct subjects with an outgoing `a`-edge
    /// (`|f^a|` in Eq. (13) terms).
    pub distinct_subjects: usize,
    /// Number of distinct objects with an incoming `a`-edge (`|b^a|`).
    pub distinct_objects: usize,
}

#[derive(Debug, Clone)]
struct LabelData {
    forward: BitMatrix,
    backward: BitMatrix,
}

/// A graph database `DB = (O_DB, Σ, E_DB)` (Def. 1) over a fixed
/// vocabulary.
///
/// For every label the database stores both the forward adjacency matrix
/// `F^a` and the backward adjacency matrix `B^a`; the row summaries of
/// those matrices are the `f^a` / `b^a` vectors used for initialization
/// (Eq. (13)). The triple set changes through one mutation,
/// [`GraphDb::apply`], which merges a signed batch into the matrices of
/// the labels it names; `O_DB` and `Σ` never change. Databases derived
/// from this one (materialized prunings built by
/// [`GraphDb::with_triples`]) share the same [`Vocabulary`], so node
/// identifiers are stable across original and derived instances.
/// Per-query prunings are normally not derived databases at all but
/// [`crate::PrunedView`]s of this one.
#[derive(Debug, Clone)]
pub struct GraphDb {
    vocab: Arc<Vocabulary>,
    labels: Vec<LabelData>,
    n_triples: usize,
}

impl GraphDb {
    fn build(vocab: Arc<Vocabulary>, per_label: Vec<Vec<(u32, u32)>>) -> Self {
        let n = vocab.num_nodes();
        debug_assert_eq!(per_label.len(), vocab.num_labels());
        let mut labels = Vec::with_capacity(per_label.len());
        let mut n_triples = 0usize;
        for edges in &per_label {
            let forward = BitMatrix::from_edges(n, edges);
            let backward = forward.transpose();
            n_triples += forward.nnz();
            labels.push(LabelData { forward, backward });
        }
        GraphDb {
            vocab,
            labels,
            n_triples,
        }
    }

    /// Rebuilds a database from its image: the vocabulary plus, for every
    /// non-empty label, the compressed rows of its forward matrix `F^a`
    /// ([`ForwardCsr`]), listed by strictly ascending label id. Each
    /// matrix goes through [`BitMatrix::from_csr`], which checks it in
    /// `O(rows + nnz)` with no sort; `B^a` is derived as its transpose,
    /// so the two are transposes by construction. Labels not listed are
    /// empty. The result equals [`GraphDb::with_triples`] of the same
    /// triples on every reader, memory accounting included.
    ///
    /// # Errors
    /// [`GraphError::ForeignTriple`] for a triple whose label or node lies
    /// outside `vocab` (its `index` is its 1-based position in `(p, s,
    /// o)` order), [`GraphError::LiteralSubject`] for a literal row, and
    /// [`GraphError::Image`] for a label listed out of order, a listed
    /// label with no rows, or a matrix that breaks a CSR invariant.
    pub fn from_forward_csr(
        vocab: Arc<Vocabulary>,
        forward: Vec<(LabelId, ForwardCsr)>,
    ) -> Result<GraphDb, GraphError> {
        let n = vocab.num_nodes();
        let image = |label: LabelId, detail: String| GraphError::Image { label, detail };
        let mut matrices: Vec<Option<BitMatrix>> = vec![None; vocab.num_labels()];
        let mut n_triples = 0usize;
        let mut prev: Option<LabelId> = None;
        for (label, csr) in forward {
            if prev.is_some_and(|p| p >= label) {
                return Err(image(label, "listed out of order".into()));
            }
            prev = Some(label);
            let (Some(&row), Some(&col)) = (csr.rows.first(), csr.targets.first()) else {
                return Err(image(label, "listed without rows".into()));
            };
            if label as usize >= matrices.len() {
                return Err(vocab
                    .check_triple(Triple::new(row, label, col), n_triples + 1)
                    .err()
                    .unwrap_or_else(|| image(label, "outside the alphabet".into())));
            }
            let m =
                BitMatrix::from_csr(n, &csr.rows, &csr.ends, csr.targets).map_err(|e| match e {
                    CsrError::OutOfBounds { row, col, entry } => vocab
                        .check_triple(Triple::new(row, label, col), n_triples + entry + 1)
                        .err()
                        .unwrap_or_else(|| image(label, e.to_string())),
                    CsrError::Malformed(detail) => image(label, detail),
                })?;
            if let Some(&lit) = csr
                .rows
                .iter()
                .find(|&&row| vocab.node_kind(row) == NodeKind::Literal)
            {
                return Err(GraphError::LiteralSubject(vocab.node_name(lit).to_owned()));
            }
            n_triples += m.nnz();
            matrices[label as usize] = Some(m);
        }
        let labels = matrices
            .into_iter()
            .map(|m| {
                let forward = m.unwrap_or_else(|| BitMatrix::from_edges(n, &[]));
                let backward = forward.transpose();
                LabelData { forward, backward }
            })
            .collect();
        Ok(GraphDb {
            vocab,
            labels,
            n_triples,
        })
    }

    /// The shared vocabulary (dictionaries of nodes and labels).
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// Number of nodes `|O_DB|` (objects and literals).
    pub fn num_nodes(&self) -> usize {
        self.vocab.num_nodes()
    }

    /// Size of the label alphabet `|Σ|`.
    pub fn num_labels(&self) -> usize {
        self.vocab.num_labels()
    }

    /// Number of triples `|E_DB|`.
    pub fn num_triples(&self) -> usize {
        self.n_triples
    }

    /// Looks up a label by predicate name.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.vocab.label_id(name)
    }

    /// Looks up a node by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.vocab.node_id(name)
    }

    /// The name of node `id`.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.vocab.node_name(id)
    }

    /// The kind (IRI or literal) of node `id`.
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.vocab.node_kind(id)
    }

    /// The name of label `id`.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.vocab.label_name(id)
    }

    /// The forward adjacency matrix `F^a`.
    pub fn forward(&self, label: LabelId) -> &BitMatrix {
        &self.labels[label as usize].forward
    }

    /// The backward adjacency matrix `B^a`.
    pub fn backward(&self, label: LabelId) -> &BitMatrix {
        &self.labels[label as usize].backward
    }

    /// Summary vector `f^a`: bit `v` set iff `v` has an outgoing `a`-edge.
    pub fn f_summary(&self, label: LabelId) -> &BitVec {
        self.labels[label as usize].forward.row_summary()
    }

    /// Summary vector `b^a`: bit `v` set iff `v` has an incoming `a`-edge.
    pub fn b_summary(&self, label: LabelId) -> &BitVec {
        self.labels[label as usize].backward.row_summary()
    }

    /// Successors of `v` via `a`-labeled edges (`F^a(v)`), sorted.
    pub fn out_neighbors(&self, v: NodeId, label: LabelId) -> &[u32] {
        self.labels[label as usize].forward.row(v as usize)
    }

    /// Predecessors of `v` via `a`-labeled edges (`B^a(v)`), sorted.
    pub fn in_neighbors(&self, v: NodeId, label: LabelId) -> &[u32] {
        self.labels[label as usize].backward.row(v as usize)
    }

    /// Membership test for a triple (`false` for one outside the
    /// vocabulary).
    pub fn contains_triple(&self, t: Triple) -> bool {
        (t.p as usize) < self.labels.len()
            && (t.s as usize) < self.num_nodes()
            && self.labels[t.p as usize]
                .forward
                .get(t.s as usize, t.o as usize)
    }

    /// Number of `a`-labeled edges.
    pub fn num_label_triples(&self, label: LabelId) -> usize {
        self.labels[label as usize].forward.nnz()
    }

    /// Heap bytes of the adjacency matrices of one label (forward plus
    /// backward).
    pub fn label_memory(&self, label: LabelId) -> usize {
        let data = &self.labels[label as usize];
        data.forward.heap_bytes() + data.backward.heap_bytes()
    }

    /// Total heap bytes of all adjacency matrices — the §5.1 memory
    /// accounting ("the space our tool allocates for storing the
    /// adjacency matrices").
    pub fn memory_footprint(&self) -> usize {
        (0..self.labels.len() as u32)
            .map(|l| self.label_memory(l))
            .sum()
    }

    /// Cardinality statistics for a label.
    pub fn label_stats(&self, label: LabelId) -> LabelStats {
        let data = &self.labels[label as usize];
        LabelStats {
            edges: data.forward.nnz(),
            distinct_subjects: data.forward.nonempty_rows(),
            distinct_objects: data.backward.nonempty_rows(),
        }
    }

    /// All `(s, o)` pairs of `a`-labeled edges, ascending by subject.
    pub fn label_pairs(&self, label: LabelId) -> LabelPairs<'_> {
        LabelPairs::unfiltered(self.forward(label), self.backward(label))
    }

    /// Iterator over every triple of the database.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.labels.len() as u32).flat_map(move |p| {
            self.labels[p as usize]
                .forward
                .entries()
                .map(move |(s, o)| Triple { s, p, o })
        })
    }

    /// Whether both databases hold the same triples over dictionaries of
    /// the same size: label by label, their forward matrices hold the
    /// same entries ([`BitMatrix::same_entries`]) — one pass over the
    /// arrays, whatever row index each matrix carries. Names are not
    /// compared.
    pub fn same_triples(&self, other: &GraphDb) -> bool {
        self.num_nodes() == other.num_nodes()
            && self.n_triples == other.n_triples
            && self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|(a, b)| a.forward.same_entries(&b.forward))
    }

    /// Builds a database over the same vocabulary containing exactly the
    /// given triples. This is how per-query prunings and update-stream
    /// snapshots are materialized: identifiers remain valid across both
    /// instances.
    ///
    /// A triple mentioning a label or node unknown to this database is
    /// rejected with [`GraphError::ForeignTriple`]: it cannot be
    /// expressed over the shared vocabulary, and dropping it silently
    /// (the historical behavior in release builds) made corrupt update
    /// streams vanish instead of surfacing.
    pub fn with_triples(&self, triples: &[Triple]) -> Result<GraphDb, GraphError> {
        self.check_vocabulary(triples)?;
        let mut per_label: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.vocab.num_labels()];
        for t in triples {
            per_label[t.p as usize].push((t.s, t.o));
        }
        Ok(GraphDb::build(Arc::clone(&self.vocab), per_label))
    }

    /// Rejects the first triple of `batch` that mentions a label or node
    /// outside the vocabulary, with its 1-based position.
    fn check_vocabulary(&self, batch: &[Triple]) -> Result<(), GraphError> {
        batch
            .iter()
            .enumerate()
            .try_for_each(|(idx, t)| self.vocab.check_triple(*t, idx + 1))
    }

    /// Inserts (`insert`) or deletes (`!insert`) the triples of `batch`
    /// in place and returns the *effective* batch — the triples that
    /// actually changed the database, in first-occurrence order, with
    /// repeats and no-ops (inserts of present, deletes of absent
    /// triples) dropped — together with the number of distinct triples
    /// in `batch`. Applying the effective batch with the opposite sign
    /// restores the database exactly.
    ///
    /// The whole batch is validated first: a triple outside the
    /// vocabulary is rejected with [`GraphError::ForeignTriple`] (same
    /// 1-based index as [`GraphDb::with_triples`]) and nothing is
    /// touched. Only the labels the effective batch names are written:
    /// per label the pairs are merged into `F^a` and, transposed, into
    /// `B^a` ([`BitMatrix::apply_sorted`]), so a batch costs
    /// `O(Σ_{touched a} (nnz_a + r_a + |O_DB|/64))` word moves at worst,
    /// where `r_a` is the label's non-empty row count if its matrix has
    /// the ranked row index and `|O_DB|` if it has the dense one — its
    /// labels' arrays, not the `|Σ| × |O_DB|` rebuild of
    /// [`GraphDb::with_triples`], and not `O(|batch|)` either.
    pub fn apply(&mut self, insert: bool, batch: &[Triple]) -> Result<Applied, GraphError> {
        self.check_vocabulary(batch)?;
        let mut seen = BTreeSet::new();
        let effective: Vec<Triple> = batch
            .iter()
            .copied()
            .filter(|t| seen.insert(*t) && self.contains_triple(*t) != insert)
            .collect();
        let mut by_label = effective.clone();
        by_label.sort_unstable_by_key(|t| (t.p, t.s, t.o));
        for group in by_label.chunk_by(|a, b| a.p == b.p) {
            let forward: Vec<(u32, u32)> = group.iter().map(|t| (t.s, t.o)).collect();
            let mut backward: Vec<(u32, u32)> = group.iter().map(|t| (t.o, t.s)).collect();
            backward.sort_unstable();
            let data = &mut self.labels[group[0].p as usize];
            data.forward.apply_sorted(insert, &forward);
            data.backward.apply_sorted(insert, &backward);
        }
        if insert {
            self.n_triples += effective.len();
        } else {
            self.n_triples -= effective.len();
        }
        Ok(Applied {
            effective,
            distinct: seen.len(),
        })
    }
}

/// One label's forward matrix `F^a` in the parts a graph image stores
/// ([`GraphDb::from_forward_csr`]): the ids of its non-empty rows
/// ascending, where each of those rows ends in `targets`, and the
/// concatenated sorted column ids of the rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardCsr {
    /// Non-empty row ids (subjects), strictly ascending.
    pub rows: Vec<u32>,
    /// End of each listed row in `targets`, strictly ascending; the last
    /// is `targets.len()`.
    pub ends: Vec<u32>,
    /// Column ids (objects) of every row, back to back.
    pub targets: Vec<u32>,
}

/// What [`GraphDb::apply`] did with a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Applied {
    /// The triples that changed the database, in first-occurrence order.
    pub effective: Vec<Triple>,
    /// Number of distinct triples in the batch: the effective ones plus
    /// the no-ops.
    pub distinct: usize,
}

/// Incremental builder for [`GraphDb`].
#[derive(Debug, Default)]
pub struct GraphDbBuilder {
    vocab: Vocabulary,
    per_label: Vec<Vec<(u32, u32)>>,
    /// Triples added so far, repeats included.
    added: usize,
}

impl GraphDbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node without adding edges (useful for isolated objects).
    pub fn add_node(&mut self, name: &str, kind: NodeKind) -> Result<NodeId, GraphError> {
        self.vocab.intern_node(name, kind)
    }

    /// Adds an object-to-object triple `(s, p, o)`.
    pub fn add_triple(&mut self, s: &str, p: &str, o: &str) -> Result<(), GraphError> {
        let s = self.vocab.intern_node(s, NodeKind::Iri)?;
        let o = self.vocab.intern_node(o, NodeKind::Iri)?;
        let p = self.vocab.intern_label(p);
        self.push_edge(s, p, o);
        Ok(())
    }

    /// Adds an attribute triple `(s, p, literal)`; the object is a
    /// literal and can never occur in subject position (Def. 1).
    pub fn add_attribute(&mut self, s: &str, p: &str, literal: &str) -> Result<(), GraphError> {
        let s = self.vocab.intern_node(s, NodeKind::Iri)?;
        let o = self.vocab.intern_node(literal, NodeKind::Literal)?;
        let p = self.vocab.intern_label(p);
        self.push_edge(s, p, o);
        Ok(())
    }

    /// Adds a triple with pre-interned identifiers.
    ///
    /// # Errors
    /// Returns [`GraphError::ForeignTriple`] if an id is outside the
    /// vocabulary built so far (`index` is the triple's 1-based position
    /// among those added to this builder), and
    /// [`GraphError::LiteralSubject`] if `s` is a literal.
    pub fn add_triple_ids(&mut self, s: NodeId, p: LabelId, o: NodeId) -> Result<(), GraphError> {
        self.vocab
            .check_triple(Triple::new(s, p, o), self.added + 1)?;
        if self.vocab.node_kind(s) == NodeKind::Literal {
            return Err(GraphError::LiteralSubject(
                self.vocab.node_name(s).to_owned(),
            ));
        }
        self.push_edge(s, p, o);
        Ok(())
    }

    /// Interns a label without adding edges.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        let id = self.vocab.intern_label(name);
        self.ensure_label(id);
        id
    }

    /// Read access to the vocabulary under construction.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    fn push_edge(&mut self, s: NodeId, p: LabelId, o: NodeId) {
        self.ensure_label(p);
        self.per_label[p as usize].push((s, o));
        self.added += 1;
    }

    fn ensure_label(&mut self, p: LabelId) {
        if self.per_label.len() <= p as usize {
            self.per_label.resize(p as usize + 1, Vec::new());
        }
    }

    /// Finalizes the database: builds all adjacency matrices.
    pub fn finish(mut self) -> GraphDb {
        // Nodes may have been interned after the last label was created;
        // make sure the per-label table covers the whole alphabet.
        self.per_label.resize(self.vocab.num_labels(), Vec::new());
        GraphDb::build(Arc::new(self.vocab), self.per_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fragment of the Fig. 1(a) movie database.
    fn movie_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("B. De Palma", "directed", "Mission: Impossible")
            .unwrap();
        b.add_triple("B. De Palma", "worked_with", "D. Koepp")
            .unwrap();
        b.add_triple("G. Hamilton", "directed", "Goldfinger")
            .unwrap();
        b.add_triple("G. Hamilton", "worked_with", "H. Saltzman")
            .unwrap();
        b.add_triple("B. De Palma", "born_in", "Newark").unwrap();
        b.add_attribute("Saint John", "population", "70063")
            .unwrap();
        b.finish()
    }

    #[test]
    fn builder_counts_triples_nodes_labels() {
        let db = movie_db();
        assert_eq!(db.num_triples(), 6);
        assert_eq!(db.num_labels(), 4);
        assert_eq!(db.num_nodes(), 9);
    }

    #[test]
    fn adjacency_maps_agree_with_triples() {
        let db = movie_db();
        let directed = db.label_id("directed").unwrap();
        let depalma = db.node_id("B. De Palma").unwrap();
        let mi = db.node_id("Mission: Impossible").unwrap();
        assert_eq!(db.out_neighbors(depalma, directed), &[mi]);
        assert_eq!(db.in_neighbors(mi, directed), &[depalma]);
        assert!(db.contains_triple(Triple::new(depalma, directed, mi)));
        assert!(!db.contains_triple(Triple::new(mi, directed, depalma)));
    }

    #[test]
    fn summaries_mark_edge_endpoints() {
        let db = movie_db();
        let directed = db.label_id("directed").unwrap();
        let depalma = db.node_id("B. De Palma").unwrap();
        let hamilton = db.node_id("G. Hamilton").unwrap();
        let f = db.f_summary(directed);
        assert!(f.get(depalma as usize) && f.get(hamilton as usize));
        assert_eq!(f.count_ones(), 2);
        let goldfinger = db.node_id("Goldfinger").unwrap();
        assert!(db.b_summary(directed).get(goldfinger as usize));
    }

    #[test]
    fn literal_subject_is_rejected() {
        let mut b = GraphDbBuilder::new();
        b.add_attribute("s", "population", "42").unwrap();
        let lit = b.vocab().node_id("42").unwrap();
        let p = b.vocab().label_id("population").unwrap();
        let err = b.add_triple_ids(lit, p, 0).unwrap_err();
        assert!(matches!(err, GraphError::LiteralSubject(_)));
    }

    /// `add_triple_ids` checks its ids against the vocabulary built so
    /// far: a label, subject or object outside it is a `ForeignTriple`
    /// at the triple's position among those added, not a silently
    /// dropped label or a panic in `finish()`.
    fn assert_foreign_ids_are_rejected(s: NodeId, p: LabelId, o: NodeId, term: &str) {
        let mut b = GraphDbBuilder::new();
        b.add_triple("a", "p", "b").unwrap();
        let err = b.add_triple_ids(s, p, o).unwrap_err();
        let GraphError::ForeignTriple { triple, index, .. } = &err else {
            panic!("expected ForeignTriple, got {err:?}");
        };
        assert_eq!(*triple, Triple::new(s, p, o));
        assert_eq!(*index, 2);
        assert!(err.to_string().contains(term), "{err}");
        let db = b.finish();
        assert_eq!(db.num_triples(), 1);
        assert_eq!(db.num_labels(), 1);
    }

    #[test]
    fn add_triple_ids_rejects_a_label_outside_the_vocabulary() {
        assert_foreign_ids_are_rejected(0, 1, 1, "(a, #1, b)");
    }

    #[test]
    fn add_triple_ids_rejects_a_subject_outside_the_vocabulary() {
        assert_foreign_ids_are_rejected(2, 0, 1, "(#2, p, b)");
    }

    #[test]
    fn add_triple_ids_rejects_an_object_outside_the_vocabulary() {
        assert_foreign_ids_are_rejected(0, 0, 9, "(a, p, #9)");
    }

    #[test]
    fn duplicate_triples_are_stored_once() {
        let mut b = GraphDbBuilder::new();
        b.add_triple("a", "p", "b").unwrap();
        b.add_triple("a", "p", "b").unwrap();
        let db = b.finish();
        assert_eq!(db.num_triples(), 1);
    }

    #[test]
    fn with_triples_shares_vocabulary_and_filters_edges() {
        let db = movie_db();
        let keep: Vec<Triple> = db
            .triples()
            .filter(|t| db.label_name(t.p) == "directed")
            .collect();
        let pruned = db.with_triples(&keep).unwrap();
        assert_eq!(pruned.num_triples(), 2);
        assert_eq!(pruned.num_nodes(), db.num_nodes());
        assert_eq!(
            pruned.node_id("B. De Palma"),
            db.node_id("B. De Palma"),
            "identifiers must be stable across pruning"
        );
        let ww = db.label_id("worked_with").unwrap();
        assert_eq!(pruned.num_label_triples(ww), 0);
    }

    #[test]
    fn label_stats_report_cardinalities() {
        let db = movie_db();
        let directed = db.label_id("directed").unwrap();
        let stats = db.label_stats(directed);
        assert_eq!(stats.edges, 2);
        assert_eq!(stats.distinct_subjects, 2);
        assert_eq!(stats.distinct_objects, 2);
    }

    #[test]
    fn memory_footprint_sums_label_matrices() {
        let db = movie_db();
        let total: usize = (0..db.num_labels() as u32)
            .map(|l| db.label_memory(l))
            .sum();
        assert_eq!(db.memory_footprint(), total);
        assert!(total > 0);
        // The biggest label holds the most edges, hence the most memory.
        let directed = db.label_id("directed").unwrap();
        let population = db.label_id("population").unwrap();
        assert!(db.label_memory(directed) >= db.label_memory(population) - 16);
    }

    #[test]
    fn apply_returns_the_effective_batch_in_first_occurrence_order() {
        let mut db = movie_db();
        let all: Vec<Triple> = db.triples().collect();
        let (a, b) = (all[3], all[0]);
        let absent = Triple::new(a.o, a.p, a.s);
        let applied = |effective: Vec<Triple>, distinct| Applied {
            effective,
            distinct,
        };
        assert_eq!(
            db.apply(false, &[a, absent, b, a]).unwrap(),
            applied(vec![a, b], 3)
        );
        assert_eq!(db.num_triples(), all.len() - 2);
        assert!(!db.contains_triple(a) && !db.contains_triple(b));
        assert_eq!(
            db.apply(true, &[b, all[1], a]).unwrap(),
            applied(vec![b, a], 3)
        );
        assert_eq!(db.triples().collect::<Vec<_>>(), all);
    }

    #[test]
    fn delete_then_reinsert_leaves_the_memory_footprint_unchanged() {
        let mut db = movie_db();
        let before = db.memory_footprint();
        let directed = db.label_id("directed").unwrap();
        let batch: Vec<Triple> = db.triples().filter(|t| t.p == directed).collect();
        let removed = db.apply(false, &batch).unwrap().effective;
        assert_eq!(removed, batch);
        assert_eq!(
            db.memory_footprint(),
            before,
            "a delete keeps the allocation, and the accounting says so"
        );
        db.apply(true, &removed).unwrap();
        assert_eq!(db.memory_footprint(), before);
        // A new triple grows its label by that entry (forward and
        // backward), not by doubling the arrays.
        let fresh = Triple::new(batch[0].o, directed, batch[0].s);
        db.apply(true, &[fresh]).unwrap();
        let grown = db.memory_footprint();
        assert!(before < grown && grown <= before + 2 * std::mem::size_of::<u32>());
    }

    #[test]
    fn triples_iterator_round_trips() {
        let db = movie_db();
        let all: Vec<Triple> = db.triples().collect();
        assert_eq!(all.len(), db.num_triples());
        let rebuilt = db.with_triples(&all).unwrap();
        assert_eq!(rebuilt.num_triples(), db.num_triples());
        for t in all {
            assert!(rebuilt.contains_triple(t));
        }
    }

    #[test]
    fn with_triples_rejects_out_of_vocabulary_triples() {
        let db = movie_db();
        let n = db.num_nodes() as u32;
        let p = db.label_id("directed").unwrap();
        for foreign in [
            Triple::new(n, p, 0),
            Triple::new(0, db.num_labels() as u32, 1),
            Triple::new(0, p, n + 7),
        ] {
            let err = db.with_triples(&[foreign]).unwrap_err();
            let GraphError::ForeignTriple { triple, index, .. } = &err else {
                panic!("expected ForeignTriple, got {err:?}");
            };
            assert_eq!(*triple, foreign);
            assert_eq!(*index, 1);
            assert!(err.to_string().contains("outside the shared vocabulary"));
        }
    }

    #[test]
    fn foreign_triple_reports_terms_and_batch_position() {
        let db = movie_db();
        let n = db.num_nodes() as u32;
        let p = db.label_id("directed").unwrap();
        let ok: Triple = db.triples().next().unwrap();
        // The in-range ids resolve to their interned names; the
        // out-of-range object becomes a placeholder; the index is the
        // 1-based position within the batch.
        let bad = Triple::new(0, p, n + 7);
        let err = db.with_triples(&[ok, bad]).unwrap_err();
        let GraphError::ForeignTriple {
            subject,
            predicate,
            object,
            index,
            ..
        } = &err
        else {
            panic!("expected ForeignTriple, got {err:?}");
        };
        assert_eq!(subject, db.node_name(0));
        assert_eq!(predicate, "directed");
        assert_eq!(object, &format!("#{}", n + 7));
        assert_eq!(*index, 2);
        let msg = err.to_string();
        assert!(msg.contains("triple 2"), "{msg}");
        assert!(msg.contains("directed"), "{msg}");
    }

    #[test]
    fn empty_database_is_well_behaved() {
        let db = GraphDbBuilder::new().finish();
        assert_eq!(db.num_nodes(), 0);
        assert_eq!(db.num_triples(), 0);
        assert_eq!(db.triples().count(), 0);
    }
}
