//! Dictionary encoding of node names and edge labels.

use crate::{GraphError, LabelId, NodeId, Triple};
use std::collections::HashMap;

/// Whether a node is a database object (IRI) or a literal value.
///
/// Literals stem from arbitrary data domains and may only occur in the
/// object position of triples (Def. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A database object, addressable by IRI.
    Iri,
    /// A literal attribute value.
    Literal,
}

#[derive(Debug, Default, Clone)]
struct Interner {
    map: HashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

impl Interner {
    fn get_or_insert(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.map.insert(boxed, id);
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.map.get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// The shared dictionary of a graph database: node names with their
/// kinds, and the label alphabet `Σ`.
///
/// Vocabularies are shared (via `Arc`) between a database and databases
/// derived from it, e.g. per-query prunings, so node identifiers remain
/// comparable across the original and the pruned instance.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    nodes: Interner,
    kinds: Vec<NodeKind>,
    labels: Interner,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node name with the given kind.
    ///
    /// # Errors
    /// Returns [`GraphError::KindConflict`] if the name was previously
    /// interned with the other kind.
    pub fn intern_node(&mut self, name: &str, kind: NodeKind) -> Result<NodeId, GraphError> {
        let id = self.nodes.get_or_insert(name);
        if id as usize == self.kinds.len() {
            self.kinds.push(kind);
        } else if self.kinds[id as usize] != kind {
            return Err(GraphError::KindConflict(name.to_owned()));
        }
        Ok(id)
    }

    /// Interns an edge label (predicate).
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        self.labels.get_or_insert(name)
    }

    /// Looks up a node by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.nodes.get(name)
    }

    /// Looks up a label by name.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name)
    }

    /// The name of node `id`.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.nodes.name(id)
    }

    /// The kind (IRI or literal) of node `id`.
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id as usize]
    }

    /// The name of label `id`.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.labels.name(id)
    }

    /// Rejects a triple that mentions a label or node outside the
    /// vocabulary with [`GraphError::ForeignTriple`] at the 1-based
    /// `index`.
    pub(crate) fn check_triple(&self, t: Triple, index: usize) -> Result<(), GraphError> {
        let n = self.num_nodes() as u32;
        let labels = self.num_labels() as u32;
        if t.p < labels && t.s < n && t.o < n {
            return Ok(());
        }
        let node = |id: u32| {
            if id < n {
                self.node_name(id).to_owned()
            } else {
                format!("#{id}")
            }
        };
        let predicate = if t.p < labels {
            self.label_name(t.p).to_owned()
        } else {
            format!("#{}", t.p)
        };
        Err(GraphError::ForeignTriple {
            triple: t,
            subject: node(t.s),
            predicate,
            object: node(t.o),
            index,
        })
    }

    /// Number of interned nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of interned labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern_node("a", NodeKind::Iri).unwrap();
        let a2 = v.intern_node("a", NodeKind::Iri).unwrap();
        assert_eq!(a, a2);
        assert_eq!(v.num_nodes(), 1);
        assert_eq!(v.node_name(a), "a");
        assert_eq!(v.node_kind(a), NodeKind::Iri);
    }

    #[test]
    fn kind_conflicts_are_rejected() {
        let mut v = Vocabulary::new();
        v.intern_node("x", NodeKind::Iri).unwrap();
        let err = v.intern_node("x", NodeKind::Literal).unwrap_err();
        assert_eq!(err, GraphError::KindConflict("x".into()));
    }

    #[test]
    fn labels_and_nodes_are_separate_namespaces() {
        let mut v = Vocabulary::new();
        let n = v.intern_node("directed", NodeKind::Iri).unwrap();
        let l = v.intern_label("directed");
        assert_eq!(n, 0);
        assert_eq!(l, 0);
        assert_eq!(v.num_nodes(), 1);
        assert_eq!(v.num_labels(), 1);
    }

    #[test]
    fn lookup_of_unknown_names_is_none() {
        let v = Vocabulary::new();
        assert_eq!(v.node_id("nope"), None);
        assert_eq!(v.label_id("nope"), None);
    }
}
