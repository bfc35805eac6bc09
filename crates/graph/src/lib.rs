//! Edge-labeled directed graphs and RDF-style graph databases.
//!
//! Implements the data model of Sect. 2 of *Fast Dual Simulation
//! Processing of Graph Database Queries*: a graph database
//! `DB = (O_DB, Σ, E_DB)` with a finite set of database objects and
//! literals, a finite property alphabet, and a labeled edge relation in
//! which literals may only appear in object position (Def. 1).
//!
//! Nodes and labels are dictionary-encoded to dense `u32` identifiers.
//! For every label `a` the database keeps both adjacency maps of the
//! paper — the forward map `F^a` and the backward map `B^a` — as
//! compressed bit matrices ([`dualsim_bitmatrix::BitMatrix`]), which is
//! exactly the storage layout the SOI solver multiplies against.
//!
//! ```
//! use dualsim_graph::GraphDbBuilder;
//!
//! let mut b = GraphDbBuilder::new();
//! b.add_triple("B. De Palma", "directed", "Mission: Impossible").unwrap();
//! b.add_attribute("Saint John", "population", "70063").unwrap();
//! let db = b.finish();
//! assert_eq!(db.num_triples(), 2);
//! let directed = db.label_id("directed").unwrap();
//! let depalma = db.node_id("B. De Palma").unwrap();
//! assert_eq!(db.out_neighbors(depalma, directed).len(), 1);
//! ```

#![warn(missing_docs)]
// Robustness gate (shared with `dualsim-core`): library code must not
// panic on reachable input paths — errors flow through [`GraphError`].
// Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod db;
mod ntriples;
mod view;
mod vocab;

#[cfg(test)]
mod proptests;

pub use db::{GraphDb, GraphDbBuilder, LabelStats, Triple};
pub use ntriples::{parse_ntriples, write_ntriples};
pub use view::{ChiFilter, GraphView, LabelPairs, LabelView, Neighbors, PrunedView};
pub use vocab::{NodeKind, Vocabulary};

/// Dense identifier of a database node (object or literal).
pub type NodeId = u32;
/// Dense identifier of an edge label (RDF predicate).
pub type LabelId = u32;

/// Errors raised while constructing or parsing graph databases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A literal was used in subject position, violating Def. 1.
    LiteralSubject(String),
    /// The same name was used both as an IRI object and as a literal;
    /// the paper assumes the universes `O`, `L` and `P` to be disjoint.
    KindConflict(String),
    /// An N-Triples line could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A triple mentions a node or label id outside the shared
    /// vocabulary ([`GraphDb::with_triples`]): derived databases reuse
    /// their parent's dictionary, so such a triple is inexpressible —
    /// usually a sign of a corrupt or misrouted update stream. Carries
    /// the offending terms (resolved against the vocabulary where the
    /// id is in range, a `#<id>` placeholder where it is not) and the
    /// triple's 1-based position in the batch, so stream tooling can
    /// point at the exact line.
    ForeignTriple {
        /// The offending triple, raw ids.
        triple: Triple,
        /// Subject term (node name, or `#<id>` if out of range).
        subject: String,
        /// Predicate term (label name, or `#<id>` if out of range).
        predicate: String,
        /// Object term (node name, or `#<id>` if out of range).
        object: String,
        /// 1-based index of the triple within the rejected batch.
        index: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::LiteralSubject(name) => {
                write!(f, "literal {name:?} may not occur in subject position")
            }
            GraphError::KindConflict(name) => {
                write!(f, "node {name:?} used both as IRI and as literal")
            }
            GraphError::Parse { line, message } => {
                write!(f, "N-Triples parse error on line {line}: {message}")
            }
            GraphError::ForeignTriple {
                subject,
                predicate,
                object,
                index,
                ..
            } => {
                write!(
                    f,
                    "triple {index} ({subject}, {predicate}, {object}) lies outside the shared vocabulary"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}
