//! Dictionary encoding of node names and edge labels.
//!
//! Each of the two dictionaries (nodes, labels) is one [`Interner`]: the
//! names live once, back to back, in a byte arena, and `ends[id]` is
//! where name `id` ends in it, so a name is one slice of the arena and
//! costs four bytes of bookkeeping. Ids are dense and given out in first
//! occurrence order (GQ-Fast's dense-id dictionary; Lin et al., arXiv
//! 1602.00033), so the same names in the same order always get the same
//! ids.
//!
//! Lookup by name goes through an open-addressed table of ids, sized to
//! a power of two at most half full, probed linearly. A slot keeps its
//! id and the high 32 bits of the name's hash, so a probe that meets
//! another name compares the arena only when those bits agree, and the
//! table grows without hashing a name again. The hash is an in-repo
//! Fx-style hash (rotate, xor a word, multiply): one multiply per eight
//! bytes. Its multiply carries every input bit upwards only, so the
//! table is indexed by the hash's *high* bits; indexed by the low bits,
//! names that differ only in their last characters (the
//! `…/resource/Entity12345` shape) pile into a few runs. The hash is not
//! keyed, so text crafted to collide makes the probes long; the loaded
//! text is trusted to that extent.

use crate::{GraphError, LabelId, NodeId, Triple};

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

/// A slot of [`Interner::table`] that holds no id.
const EMPTY: u32 = u32::MAX;

/// The multiplier of the Fx hash (as in rustc's `FxHasher`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The high 32 bits of the Fx-style hash of a name: per eight bytes,
/// little-endian, rotate the state, xor the word in and multiply; a
/// shorter last word is padded with zeros. Only the high bits are well
/// mixed (see the module docs).
fn fx_hash(name: &str) -> u32 {
    let step =
        |h: u64, word: [u8; 8]| (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(FX_SEED);
    let mut chunks = name.as_bytes().chunks_exact(8);
    let mut h = 0u64;
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = step(h, word);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = step(h, word);
    }
    (h >> 32) as u32
}

/// One slot of the id table: an id ([`EMPTY`] for none) and the high 32
/// bits of its name's hash.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// A dense-id dictionary: names in one arena, found through an
/// open-addressed id table (see the module docs).
#[derive(Debug, Default, Clone)]
struct Interner {
    /// Every name, back to back, in id order.
    arena: String,
    /// `ends[id]`: where name `id` ends in `arena`; it starts where name
    /// `id - 1` ends.
    ends: Vec<u32>,
    /// The id table: a power of two of slots (none before the first
    /// name), at most half of them taken.
    table: Vec<Slot>,
    /// `32 - log2(table.len())`: a hash's slot is `hash >> shift`.
    shift: u32,
}

impl Interner {
    fn get_or_insert(&mut self, name: &str) -> u32 {
        if 2 * self.ends.len() >= self.table.len() {
            self.grow();
        }
        let hash = fx_hash(name);
        let at = match self.find(name, hash) {
            Ok(id) => return id,
            Err(at) => at,
        };
        let end = self.arena.len() + name.len();
        assert!(
            end <= u32::MAX as usize,
            "vocabulary arena past u32::MAX bytes"
        );
        let id = self.ends.len() as u32;
        self.arena.push_str(name);
        self.ends.push(end as u32);
        self.table[at] = Slot { hash, id };
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.find(name, fx_hash(name)).ok()
    }

    /// The id of `name`, or the empty slot where it goes. The table must
    /// have a free slot.
    fn find(&self, name: &str, hash: u32) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        loop {
            let slot = self.table[at];
            if slot.id == EMPTY {
                return Err(at);
            }
            if slot.hash == hash && self.name(slot.id) == name {
                return Ok(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the id table (16 slots at first) and places every id
    /// again by its stored hash bits.
    fn grow(&mut self) {
        let len = (2 * self.table.len()).max(16);
        let bits = len.trailing_zeros();
        assert!(bits <= 32, "more than 2^31 names in one dictionary");
        let shift = 32 - bits;
        let mut table = vec![Slot { hash: 0, id: EMPTY }; len];
        for &slot in self.table.iter().filter(|s| s.id != EMPTY) {
            let mut at = (slot.hash >> shift) as usize;
            while table[at].id != EMPTY {
                at = (at + 1) & (len - 1);
            }
            table[at] = slot;
        }
        self.table = table;
        self.shift = shift;
    }

    fn name(&self, id: u32) -> &str {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.arena[start..self.ends[id] as usize]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The probe length of every id: one plus its slot's distance from
    /// the slot its hash points at.
    #[cfg(test)]
    fn probe_lengths(&self) -> Vec<usize> {
        let len = self.table.len();
        (0..len)
            .filter(|&at| self.table[at].id != EMPTY)
            .map(|at| {
                let home = (self.table[at].hash >> self.shift) as usize;
                (at + len - home) % len + 1
            })
            .collect()
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

    #[test]
    fn names_live_once_and_read_back_by_id() {
        let mut v = Vocabulary::new();
        let names = [
            "",
            "a",
            "ab",
            "über",
            "a",
            "",
            "ab\u{0}",
            "x".repeat(40).as_str(),
        ]
        .map(str::to_owned);
        let ids: Vec<u32> = names.iter().map(|n| v.intern_label(n)).collect();
        assert_eq!(ids, [0, 1, 2, 3, 1, 0, 4, 5]);
        for (name, &id) in names.iter().zip(&ids) {
            assert_eq!(v.label_name(id), name);
            assert_eq!(v.label_id(name), Some(id));
        }
        assert_eq!(v.labels.arena.len(), "aabüberab\u{0}".len() + 40);
        assert_eq!(v.label_id("b"), None);
    }

    /// The DBpedia-like shape (a long shared prefix, trailing digits) and
    /// names that differ only in their last byte keep the probes short. A
    /// table indexed by the hash's low bits instead of its high bits
    /// fails this: the Fx multiply never carries the last bytes down.
    #[test]
    fn probe_lengths_stay_short_on_shared_prefixes() {
        let mut v = Vocabulary::new();
        for i in 0..200_000 {
            v.intern_node(
                &format!("http://dbpedia.org/resource/Entity{i}"),
                NodeKind::Iri,
            )
            .unwrap();
        }
        for b in 0..=255u8 {
            let name = format!("http://example.org/ontology/p{}", char::from(b));
            v.intern_node(&name, NodeKind::Iri).unwrap();
        }
        let probes = v.nodes.probe_lengths();
        assert_eq!(probes.len(), v.num_nodes());
        let max = probes.iter().copied().max().unwrap();
        let mean = probes.iter().sum::<usize>() as f64 / probes.len() as f64;
        println!("{} names: mean probe {mean:.3}, max {max}", probes.len());
        assert!(mean < 1.5, "mean probe length {mean}");
        assert!(max <= 32, "max probe length {max}");
        assert_eq!(
            v.node_id("http://dbpedia.org/resource/Entity199999"),
            Some(199_999)
        );
    }
}
