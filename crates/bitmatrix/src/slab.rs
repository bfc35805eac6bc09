//! Support-counter slabs for delta-counting fixpoint engines.
//!
//! A [`CounterSlab`] holds one `u32` counter per matrix column — the
//! per-(inequality, candidate) *support* array of an HHK-style counting
//! engine: `slab[w] = |column w of M ∩ χ(source)|`. Slabs are plain
//! owned data, disjoint *per inequality*, so a drain round can
//! `std::mem::take` each touched inequality's slab into its shard unit
//! and put it back at the merge point.
//!
//! Storage is pluggable the same way χ storage is ([`SlabBackend`],
//! mirroring `ChiBackend`):
//!
//! * [`SlabBackend::Dense`] — one `u32` per matrix column, O(|V|) words
//!   per inequality regardless of how few columns ever have support;
//! * [`SlabBackend::Sparse`] — hash counters keyed by column index, one
//!   `u64`-equivalent word per *supported* column in the logical
//!   storage model. Should the supported population ever cross half
//!   the dense word cost, the slab spills to a dense array mid-seed
//!   (checked per inserted entry), so a sparse slab **never stores
//!   more words than dense** — the margin of two covers the hash
//!   table's physical overhead (load factor, control bytes,
//!   power-of-two capacity), making the bound hold for real memory
//!   too, the hard counterpart of the χ `Auto` divisor-64 guarantee;
//! * [`SlabBackend::Auto`] — resolved per solve from the same seeded
//!   candidate-density bound the χ `Auto` uses (`dualsim-core` resolves
//!   it before constructing any slab).
//!
//! The two concrete backends are logically interchangeable: `seed`
//! performs the identical increments in the identical order (and reports
//! the identical increment count), `count`/`decrement` observe identical
//! values — only [`CounterSlab::storage_words`] differs, which is the
//! gauge `SolveStats::slab_peak_words` tracks.
//!
//! A slab starts *unseeded* (no storage) and is seeded on demand from a
//! matrix and a selector vector ([`CounterSlab::seed`]); engines use the
//! unseeded state to defer seeding cost for inequalities that are never
//! violated.

use crate::{BitMatrix, RowSelector};
use std::collections::HashMap;

/// Support-counter storage backend selection, configured per solve
/// (`SolverConfig::slab_backend` in `dualsim-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlabBackend {
    /// One dense `u32` counter per matrix column: constant-time access,
    /// O(|V|) words per seeded inequality — the right choice when most
    /// columns carry support.
    #[default]
    Dense,
    /// Hash counters below a population threshold: one word per
    /// *supported* column, spilling to dense storage once the
    /// population crosses half the dense word cost (the margin covers
    /// the hash table's physical overhead) — the right choice when
    /// only a few columns ever have support (rare predicates,
    /// selective labels).
    Sparse,
    /// Decide per solve from the seeded candidate density, using the
    /// same bound as `ChiBackend::Auto` (density ≤
    /// 1/`AUTO_RLE_DENSITY_DIVISOR` picks sparse).
    Auto,
}

impl SlabBackend {
    /// Parses a backend name (`dense` / `sparse` / `auto`), as accepted
    /// by the `sparqlsim --slab-backend` flag.
    pub fn from_name(name: &str) -> Option<SlabBackend> {
        match name {
            "dense" => Some(SlabBackend::Dense),
            "sparse" => Some(SlabBackend::Sparse),
            "auto" => Some(SlabBackend::Auto),
            _ => None,
        }
    }

    /// The backend's display name.
    pub fn name(self) -> &'static str {
        match self {
            SlabBackend::Dense => "dense",
            SlabBackend::Sparse => "sparse",
            SlabBackend::Auto => "auto",
        }
    }
}

/// Dense counter cost of a `dim`-column matrix in `u64`-equivalent
/// words (`u32` counters, two per word).
#[inline]
fn dense_words(dim: usize) -> usize {
    dim.div_ceil(2)
}

/// The sparse slab spills to dense storage once its population exceeds
/// `dense_words(dim) / SPARSE_SPILL_DIVISOR`. The divisor of 2 is the
/// safety margin for the hash table's real allocation (load factor,
/// control bytes, power-of-two capacity — roughly 2 words per entry in
/// the worst case versus the 1 word per entry the *logical* storage
/// gauge counts), so at the spill point even the physical sparse
/// memory is about the dense cost, never a multiple of it.
const SPARSE_SPILL_DIVISOR: usize = 2;

#[inline]
fn spill_threshold(dim: usize) -> usize {
    dense_words(dim) / SPARSE_SPILL_DIVISOR
}

/// Hash-counter storage of a sparse slab: `map[w] = support of column
/// w`, with a dense spill once the distinct-column population reaches
/// the dense word cost (the slab then costs exactly as much as a dense
/// one, never more).
#[derive(Debug, Clone, Default)]
struct SparseCounters {
    map: HashMap<u32, u32>,
    /// Dense spill storage; `Some` once the population exceeded
    /// [`dense_words`] during seeding.
    dense: Option<Vec<u32>>,
    dim: usize,
}

impl SparseCounters {
    #[inline]
    fn count(&self, w: usize) -> u32 {
        assert!(w < self.dim, "candidate {w} out of bounds {}", self.dim);
        match &self.dense {
            Some(d) => d[w],
            None => self.map.get(&(w as u32)).copied().unwrap_or(0),
        }
    }

    #[inline]
    fn decrement(&mut self, w: usize) -> u32 {
        assert!(w < self.dim, "candidate {w} out of bounds {}", self.dim);
        match &mut self.dense {
            Some(d) => {
                let c = &mut d[w];
                debug_assert!(*c > 0, "support underflow on candidate {w}");
                *c = c.wrapping_sub(1);
                *c
            }
            None => match self.map.get_mut(&(w as u32)) {
                Some(c) => {
                    debug_assert!(*c > 0, "support underflow on candidate {w}");
                    *c = c.wrapping_sub(1);
                    *c
                }
                None => {
                    // Keep the dense wrapping semantics (0 − 1 =
                    // u32::MAX) so a hypothetical engine underflow bug
                    // cannot make release-build backends diverge: a
                    // wrapped counter proposes no removal either way.
                    debug_assert!(false, "support underflow on candidate {w}");
                    self.map.insert(w as u32, u32::MAX);
                    u32::MAX
                }
            },
        }
    }

    #[inline]
    fn increment(&mut self, w: usize) -> u32 {
        assert!(w < self.dim, "candidate {w} out of bounds {}", self.dim);
        if self.dense.is_none() {
            let c = self.map.entry(w as u32).or_insert(0);
            *c += 1;
            let new = *c;
            // The same population bound the seeding pass enforces:
            // insertion maintenance must not grow a sparse slab past
            // the dense cost either.
            if self.map.len() > spill_threshold(self.dim) {
                let mut d = vec![0u32; self.dim];
                for (&k, &c) in &self.map {
                    d[k as usize] = c;
                }
                self.map.clear();
                self.dense = Some(d);
            }
            return new;
        }
        let d = self.dense.as_mut().expect("spilled storage");
        d[w] += 1;
        d[w]
    }

    fn storage_words(&self) -> usize {
        match &self.dense {
            Some(_) => dense_words(self.dim),
            // One word per entry: a u32 column index plus a u32 count.
            None => self.map.len(),
        }
    }
}

/// Counter storage state: unseeded slabs remember which concrete
/// backend to materialize on first seed.
#[derive(Debug, Clone)]
enum Repr {
    Unseeded { sparse: bool },
    Dense(Vec<u32>),
    Sparse(SparseCounters),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Unseeded { sparse: false }
    }
}

/// Serializable state of a seeded [`CounterSlab`] as returned by
/// [`CounterSlab::export_state`]: counter dimension, sparse-spill flag,
/// and the non-zero `(column, count)` entries in ascending column order.
pub type SeededSlabState = (usize, bool, Vec<(u32, u32)>);

/// A slab of per-column support counters, lazily seeded, stored densely
/// or as hash counters per [`SlabBackend`].
#[derive(Debug, Clone, Default)]
pub struct CounterSlab {
    repr: Repr,
}

impl CounterSlab {
    /// An unseeded slab: no storage, no counters; seeds into the given
    /// concrete backend on first [`CounterSlab::seed`].
    ///
    /// # Panics
    /// Panics on [`SlabBackend::Auto`] — the caller resolves `Auto`
    /// before constructing slabs (mirroring the χ `Auto` contract).
    pub fn unseeded(backend: SlabBackend) -> Self {
        let sparse = match backend {
            SlabBackend::Dense => false,
            SlabBackend::Sparse => true,
            SlabBackend::Auto => {
                panic!("Auto must be resolved to a concrete backend before constructing slabs")
            }
        };
        CounterSlab {
            repr: Repr::Unseeded { sparse },
        }
    }

    /// `true` once [`CounterSlab::seed`] ran.
    #[inline]
    pub fn is_seeded(&self) -> bool {
        !matches!(self.repr, Repr::Unseeded { .. })
    }

    /// The slab's storage backend (unseeded slabs report the backend
    /// they will seed into; a spilled sparse slab still reports
    /// `Sparse` — the spill is a storage bound, not a backend change).
    pub fn backend(&self) -> SlabBackend {
        match &self.repr {
            Repr::Unseeded { sparse: false } | Repr::Dense(_) => SlabBackend::Dense,
            Repr::Unseeded { sparse: true } | Repr::Sparse(_) => SlabBackend::Sparse,
        }
    }

    /// Storage footprint in `u64`-equivalent words: 0 while unseeded,
    /// `⌈dim/2⌉` for dense counters, one word per supported column for
    /// sparse ones (capped at the dense cost by the spill). The gauge
    /// behind `SolveStats::slab_peak_words`.
    ///
    /// Like `RleBitVec::storage_words` (one word per run, `Vec`
    /// capacity ignored), this counts the *logical* storage model:
    /// sparse entries are one `u32` key plus one `u32` count, the hash
    /// table's physical overhead (capacity slack, control bytes) is
    /// not included. The spill threshold's margin of two keeps even
    /// the physical sparse footprint at or below the dense cost.
    pub fn storage_words(&self) -> usize {
        match &self.repr {
            Repr::Unseeded { .. } => 0,
            Repr::Dense(counts) => dense_words(counts.len()),
            Repr::Sparse(s) => s.storage_words(),
        }
    }

    /// (Re-)seeds the slab to `slab[w] = |column w of matrix ∩ x|`. The
    /// selector is any [`RowSelector`] — dense or run-length encoded χ
    /// alike; a run-length selector is walked run by run, touching one
    /// CSR segment per run ([`BitMatrix::rows_segment`]) instead of one
    /// row per bit. The increments performed (and the returned count —
    /// the seeding work measure) are identical for every selector
    /// representation and every slab backend.
    ///
    /// Reseeding reuses the existing allocation: a dense slab of the
    /// same dimension is `fill(0)`-reset instead of freed and
    /// re-grown, a sparse slab keeps its map capacity.
    ///
    /// # Panics
    /// Panics if `x` does not have the matrix dimension.
    pub fn seed<S: RowSelector>(&mut self, matrix: &BitMatrix, x: &S) -> usize {
        let dim = matrix.dim();
        match &mut self.repr {
            Repr::Unseeded { sparse: false } => {
                let mut counts = vec![0u32; dim];
                let inits = matrix.count_into(x, &mut counts);
                self.repr = Repr::Dense(counts);
                inits
            }
            Repr::Dense(counts) => {
                // Reseed fast path: reuse the allocation, re-zeroing in
                // place when the dimension is unchanged.
                if counts.len() == dim {
                    counts.fill(0);
                } else {
                    counts.clear();
                    counts.resize(dim, 0);
                }
                matrix.count_into(x, counts)
            }
            repr @ Repr::Unseeded { sparse: true } => {
                let (sparse, inits) = seed_sparse(SparseCounters::default(), matrix, x);
                *repr = Repr::Sparse(sparse);
                inits
            }
            Repr::Sparse(s) => {
                let mut prev = std::mem::take(s);
                prev.map.clear();
                prev.dense = None;
                let (sparse, inits) = seed_sparse(prev, matrix, x);
                self.repr = Repr::Sparse(sparse);
                inits
            }
        }
    }

    /// Current support of candidate `w`.
    ///
    /// # Panics
    /// Panics if the slab is unseeded or `w` is out of bounds.
    #[inline]
    pub fn count(&self, w: usize) -> u32 {
        match &self.repr {
            Repr::Unseeded { .. } => panic!("count on an unseeded slab"),
            Repr::Dense(counts) => counts[w],
            Repr::Sparse(s) => s.count(w),
        }
    }

    /// Increments the support of candidate `w` and returns the new
    /// value; `1` means the candidate just gained its *first* witness —
    /// the 0→1 transition that makes it a re-activation candidate
    /// under insertion maintenance. A sparse slab whose population
    /// crosses the spill threshold spills to dense storage here too
    /// (callers re-observe [`CounterSlab::storage_words`] after
    /// increments — insertion maintenance can grow the footprint).
    ///
    /// # Panics
    /// Panics if the slab is unseeded or `w` is out of bounds.
    #[inline]
    pub fn increment(&mut self, w: usize) -> u32 {
        match &mut self.repr {
            Repr::Unseeded { .. } => panic!("increment on an unseeded slab"),
            Repr::Dense(counts) => {
                counts[w] += 1;
                counts[w]
            }
            Repr::Sparse(s) => s.increment(w),
        }
    }

    /// Decrements the support of candidate `w` and returns the new
    /// value; `0` means the candidate just lost its last witness.
    ///
    /// # Panics
    /// Panics if the slab is unseeded or `w` is out of bounds; debug
    /// builds additionally assert against underflow.
    #[inline]
    pub fn decrement(&mut self, w: usize) -> u32 {
        match &mut self.repr {
            Repr::Unseeded { .. } => panic!("decrement on an unseeded slab"),
            Repr::Dense(counts) => {
                let c = &mut counts[w];
                debug_assert!(*c > 0, "support underflow on candidate {w}");
                *c = c.wrapping_sub(1);
                *c
            }
            Repr::Sparse(s) => s.decrement(w),
        }
    }

    /// Fused decrement + zero-test drain: decrements the support of
    /// every column in `columns` (in order, with exactly the semantics
    /// of [`CounterSlab::decrement`] per entry) and calls `zeroed` for
    /// each column whose support reaches exactly zero, in the order the
    /// zeros occur. The representation match is hoisted out of the
    /// per-entry loop — one dispatch per batch instead of one per
    /// decrement — and zero-support columns are collected *during* the
    /// decrement walk instead of by a follow-up probe pass.
    ///
    /// A column appearing multiple times in `columns` is decremented
    /// once per occurrence and reported at most once (at the occurrence
    /// that hits zero), identical to a per-entry
    /// `decrement(w) == 0` loop.
    ///
    /// # Panics
    /// Panics if the slab is unseeded or any column is out of bounds;
    /// debug builds additionally assert against underflow.
    #[inline]
    pub fn decrement_collect(&mut self, columns: &[u32], mut zeroed: impl FnMut(u32)) {
        match &mut self.repr {
            Repr::Unseeded { .. } => panic!("decrement on an unseeded slab"),
            Repr::Dense(counts) => {
                for &w in columns {
                    let c = &mut counts[w as usize];
                    debug_assert!(*c > 0, "support underflow on candidate {w}");
                    *c = c.wrapping_sub(1);
                    if *c == 0 {
                        zeroed(w);
                    }
                }
            }
            Repr::Sparse(s) => match &mut s.dense {
                Some(d) => {
                    for &w in columns {
                        assert!((w as usize) < s.dim, "candidate {w} out of bounds {}", s.dim);
                        let c = &mut d[w as usize];
                        debug_assert!(*c > 0, "support underflow on candidate {w}");
                        *c = c.wrapping_sub(1);
                        if *c == 0 {
                            zeroed(w);
                        }
                    }
                }
                None => {
                    for &w in columns {
                        assert!((w as usize) < s.dim, "candidate {w} out of bounds {}", s.dim);
                        if s.decrement(w as usize) == 0 {
                            zeroed(w);
                        }
                    }
                }
            },
        }
    }

    /// Drops the seeded storage, returning the slab to the unseeded
    /// state for its current backend — the rollback-journal inverse of
    /// a lazy-seed promotion. A spilled sparse slab unseeds back to
    /// plain sparse (the spill is storage-local and reproduced
    /// deterministically on re-seed). No-op on an unseeded slab.
    pub fn unseed(&mut self) {
        let sparse = self.backend() == SlabBackend::Sparse;
        self.repr = Repr::Unseeded { sparse };
    }

    /// Serializable view of the slab: `None` while unseeded, otherwise
    /// the counter dimension, whether a sparse slab has spilled to
    /// dense storage, and every non-zero `(column, count)` entry in
    /// ascending column order. Together with [`CounterSlab::backend`]
    /// this captures the slab exactly — [`CounterSlab::restore`]
    /// rebuilds a bit-identical slab (same backend, same spill state,
    /// same counters, same [`CounterSlab::storage_words`]).
    pub fn export_state(&self) -> Option<SeededSlabState> {
        match &self.repr {
            Repr::Unseeded { .. } => None,
            Repr::Dense(counts) => {
                let entries = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(w, &c)| (w as u32, c))
                    .collect();
                Some((counts.len(), false, entries))
            }
            Repr::Sparse(s) => {
                let spilled = s.dense.is_some();
                let mut entries: Vec<(u32, u32)> = match &s.dense {
                    Some(d) => d
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c != 0)
                        .map(|(w, &c)| (w as u32, c))
                        .collect(),
                    None => s.map.iter().map(|(&w, &c)| (w, c)).collect(),
                };
                entries.sort_unstable();
                Some((s.dim, spilled, entries))
            }
        }
    }

    /// Rebuilds a seeded slab from an [`CounterSlab::export_state`]
    /// view: `backend` selects the representation, `spilled` restores a
    /// sparse slab's dense spill storage (so the restored slab reports
    /// the exact pre-export [`CounterSlab::storage_words`] and spills —
    /// or doesn't — at the same future increments).
    ///
    /// # Panics
    /// Panics on [`SlabBackend::Auto`] (resolved before slabs exist)
    /// and on an entry column at or past `dim`.
    pub fn restore(backend: SlabBackend, dim: usize, spilled: bool, entries: &[(u32, u32)]) -> Self {
        assert!(
            entries.iter().all(|&(w, _)| (w as usize) < dim),
            "slab entry column out of bounds"
        );
        let repr = match backend {
            SlabBackend::Dense => {
                let mut counts = vec![0u32; dim];
                for &(w, c) in entries {
                    counts[w as usize] = c;
                }
                Repr::Dense(counts)
            }
            SlabBackend::Sparse => {
                let mut s = SparseCounters {
                    dim,
                    ..SparseCounters::default()
                };
                if spilled {
                    let mut d = vec![0u32; dim];
                    for &(w, c) in entries {
                        d[w as usize] = c;
                    }
                    s.dense = Some(d);
                } else {
                    s.map = entries.iter().map(|&(w, c)| (w, c)).collect();
                }
                Repr::Sparse(s)
            }
            SlabBackend::Auto => {
                panic!("Auto must be resolved to a concrete backend before constructing slabs")
            }
        };
        CounterSlab { repr }
    }
}

/// The sparse seeding pass: hash-counter increments per selected run's
/// CSR segment, spilling to a dense array the moment the population
/// crosses [`spill_threshold`] — checked per *entry*, not per run, so
/// even one long all-ones run cannot grow the map past the bound
/// before the spill triggers (identical increments either way).
fn seed_sparse<S: RowSelector>(
    mut sparse: SparseCounters,
    matrix: &BitMatrix,
    x: &S,
) -> (SparseCounters, usize) {
    let dim = matrix.dim();
    sparse.dim = dim;
    let spill_at = spill_threshold(dim);
    let mut inits = 0usize;
    x.for_each_selected_run(|start, end| {
        let segment = matrix.rows_segment(start, end);
        inits += segment.len();
        match &mut sparse.dense {
            Some(d) => {
                for &j in segment {
                    d[j as usize] += 1;
                }
            }
            None => {
                let mut idx = 0usize;
                while idx < segment.len() {
                    *sparse.map.entry(segment[idx]).or_insert(0) += 1;
                    idx += 1;
                    if sparse.map.len() > spill_at {
                        let mut d = vec![0u32; dim];
                        for (&k, &c) in &sparse.map {
                            d[k as usize] = c;
                        }
                        sparse.map.clear();
                        // Finish the segment on the dense path; later
                        // runs re-dispatch through the outer match.
                        for &r in &segment[idx..] {
                            d[r as usize] += 1;
                        }
                        sparse.dense = Some(d);
                        break;
                    }
                }
            }
        }
    });
    (sparse, inits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitVec, RleBitVec};

    const BACKENDS: [SlabBackend; 2] = [SlabBackend::Dense, SlabBackend::Sparse];

    #[test]
    fn slab_starts_unseeded_and_seeds_on_demand() {
        for backend in BACKENDS {
            let mut slab = CounterSlab::unseeded(backend);
            assert!(!slab.is_seeded());
            assert_eq!(slab.storage_words(), 0);
            // 0 -> {1, 2}, 1 -> {0}, 3 -> {3}
            let m = BitMatrix::from_edges(5, &[(0, 1), (0, 2), (1, 0), (3, 3)]);
            let x = BitVec::from_indices(5, &[0, 1]);
            let inits = slab.seed(&m, &x);
            assert!(slab.is_seeded());
            assert_eq!(slab.backend(), backend);
            assert_eq!(inits, 3);
            assert_eq!(
                (0..5).map(|w| slab.count(w)).collect::<Vec<_>>(),
                vec![1, 1, 1, 0, 0]
            );
        }
    }

    #[test]
    #[should_panic(expected = "Auto must be resolved")]
    fn auto_cannot_construct_a_slab() {
        let _ = CounterSlab::unseeded(SlabBackend::Auto);
    }

    #[test]
    fn decrement_reports_the_zero_crossing() {
        for backend in BACKENDS {
            let mut slab = CounterSlab::unseeded(backend);
            let m = BitMatrix::from_edges(3, &[(0, 2), (1, 2)]);
            slab.seed(&m, &BitVec::ones(3));
            assert_eq!(slab.count(2), 2);
            assert_eq!(slab.decrement(2), 1);
            assert_eq!(slab.decrement(2), 0);
        }
    }

    #[test]
    fn reseeding_overwrites_previous_counters() {
        for backend in BACKENDS {
            let mut slab = CounterSlab::unseeded(backend);
            let m = BitMatrix::from_edges(3, &[(0, 1), (2, 1)]);
            slab.seed(&m, &BitVec::ones(3));
            assert_eq!(slab.count(1), 2);
            slab.seed(&m, &BitVec::from_indices(3, &[0]));
            assert_eq!(slab.count(1), 1);
        }
    }

    #[test]
    fn dense_reseed_reuses_the_allocation() {
        let mut slab = CounterSlab::unseeded(SlabBackend::Dense);
        let m = BitMatrix::from_edges(200, &[(0, 1), (5, 199), (63, 64)]);
        slab.seed(&m, &BitVec::ones(200));
        let capacity = match &slab.repr {
            Repr::Dense(c) => c.capacity(),
            _ => unreachable!(),
        };
        // Same-dimension reseed: fill(0) in place, no reallocation.
        let inits = slab.seed(&m, &BitVec::from_indices(200, &[5]));
        assert_eq!(inits, 1);
        assert_eq!(slab.count(199), 1);
        assert_eq!(slab.count(1), 0, "stale counters were re-zeroed");
        // Smaller-dimension reseed also stays within the allocation.
        let small = BitMatrix::from_edges(100, &[(1, 2)]);
        slab.seed(&small, &BitVec::ones(100));
        assert_eq!(slab.count(2), 1);
        let after = match &slab.repr {
            Repr::Dense(c) => c.capacity(),
            _ => unreachable!(),
        };
        assert_eq!(capacity, after, "reseeding must not grow the allocation");
    }

    #[test]
    fn sparse_counts_one_word_per_supported_column() {
        let mut slab = CounterSlab::unseeded(SlabBackend::Sparse);
        // 1000 columns, support lands on exactly 3 of them.
        let m = BitMatrix::from_edges(1000, &[(0, 7), (1, 7), (2, 500), (3, 999)]);
        slab.seed(&m, &BitVec::ones(1000));
        assert_eq!(slab.count(7), 2);
        assert_eq!(slab.count(500), 1);
        assert_eq!(slab.count(4), 0, "unsupported columns read as zero");
        assert_eq!(slab.storage_words(), 3);
        let dense_cost = {
            let mut d = CounterSlab::unseeded(SlabBackend::Dense);
            d.seed(&m, &BitVec::ones(1000));
            d.storage_words()
        };
        assert_eq!(dense_cost, 500);
        assert!(slab.storage_words() * 100 < dense_cost);
    }

    #[test]
    fn sparse_spills_to_dense_and_never_costs_more() {
        // Every column of a 10-column matrix gets support: the sparse
        // population (10) exceeds the spill threshold (half the dense
        // word cost of 5, i.e. 2), so the slab spills and caps its
        // storage at the dense cost.
        let dim = 10;
        let edges: Vec<(u32, u32)> = (0..dim as u32).map(|j| (0, j)).collect();
        let m = BitMatrix::from_edges(dim, &edges);
        let mut sparse = CounterSlab::unseeded(SlabBackend::Sparse);
        sparse.seed(&m, &BitVec::ones(dim));
        assert_eq!(sparse.backend(), SlabBackend::Sparse);
        assert_eq!(sparse.storage_words(), dense_words(dim));
        for w in 0..dim {
            assert_eq!(sparse.count(w), 1);
        }
        assert_eq!(sparse.decrement(9), 0, "spilled slabs still decrement");
    }

    #[test]
    fn increment_reports_the_first_witness() {
        for backend in BACKENDS {
            let mut slab = CounterSlab::unseeded(backend);
            let m = BitMatrix::from_edges(3, &[(0, 2)]);
            slab.seed(&m, &BitVec::ones(3));
            assert_eq!(slab.increment(1), 1, "0→1 is the re-activation signal");
            assert_eq!(slab.increment(1), 2);
            assert_eq!(slab.increment(2), 2, "existing support just grows");
            assert_eq!(slab.decrement(1), 1);
        }
    }

    #[test]
    fn increment_spills_a_sparse_slab_at_the_population_bound() {
        let dim = 100; // dense cost 50 words, spill threshold 25
        let m = BitMatrix::from_edges(dim, &[(0, 0)]);
        let mut slab = CounterSlab::unseeded(SlabBackend::Sparse);
        slab.seed(&m, &BitVec::ones(dim));
        assert_eq!(slab.storage_words(), 1);
        for w in 1..40 {
            assert_eq!(slab.increment(w), 1);
        }
        // Population 40 > 25: spilled, capped at the dense cost.
        assert_eq!(slab.storage_words(), dense_words(dim));
        assert_eq!(slab.backend(), SlabBackend::Sparse);
        for w in 0..40 {
            assert_eq!(slab.count(w), 1, "column {w} survives the spill");
        }
        assert_eq!(slab.increment(0), 2, "spilled slabs still increment");
    }

    #[test]
    fn backends_agree_on_counts_increments_and_decrements() {
        let m = BitMatrix::from_edges(130, &[(0, 64), (1, 64), (63, 129), (64, 0), (129, 64)]);
        for x in [
            BitVec::ones(130),
            BitVec::from_indices(130, &[0, 1, 129]),
            BitVec::zeros(130),
        ] {
            let mut dense = CounterSlab::unseeded(SlabBackend::Dense);
            let mut sparse = CounterSlab::unseeded(SlabBackend::Sparse);
            assert_eq!(dense.seed(&m, &x), sparse.seed(&m, &x));
            for w in 0..130 {
                assert_eq!(dense.count(w), sparse.count(w), "column {w}");
            }
            if dense.count(64) > 0 {
                assert_eq!(dense.decrement(64), sparse.decrement(64));
            }
            assert!(sparse.storage_words() <= dense.storage_words());
        }
    }

    #[test]
    fn rle_selectors_seed_identically_to_dense_selectors() {
        let m = BitMatrix::from_edges(130, &[(0, 1), (1, 1), (2, 5), (64, 5), (65, 129)]);
        let indices = [0u32, 1, 2, 64, 65, 100];
        let dense_x = BitVec::from_indices(130, &indices);
        let rle_x = RleBitVec::from_indices(130, &indices);
        for backend in BACKENDS {
            let mut a = CounterSlab::unseeded(backend);
            let mut b = CounterSlab::unseeded(backend);
            assert_eq!(a.seed(&m, &dense_x), b.seed(&m, &rle_x));
            for w in 0..130 {
                assert_eq!(a.count(w), b.count(w), "column {w} ({backend:?})");
            }
            assert_eq!(a.storage_words(), b.storage_words());
        }
    }

    #[test]
    fn unseed_reverses_a_lazy_seed_promotion() {
        for backend in BACKENDS {
            let mut slab = CounterSlab::unseeded(backend);
            let m = BitMatrix::from_edges(5, &[(0, 1), (0, 2), (1, 0)]);
            slab.seed(&m, &BitVec::ones(5));
            assert!(slab.is_seeded());
            slab.unseed();
            assert!(!slab.is_seeded());
            assert_eq!(slab.storage_words(), 0);
            assert_eq!(slab.backend(), backend, "backend survives the unseed");
            // Re-seeding after an unseed reproduces the original state.
            let inits = slab.seed(&m, &BitVec::ones(5));
            assert_eq!(inits, 3);
            assert_eq!(slab.count(1), 1);
        }
    }

    #[test]
    fn export_restore_round_trips_every_representation() {
        // Unseeded slabs export None for either backend.
        for backend in BACKENDS {
            assert_eq!(CounterSlab::unseeded(backend).export_state(), None);
        }
        let m = BitMatrix::from_edges(100, &[(0, 3), (1, 3), (2, 97)]);
        for backend in BACKENDS {
            let mut slab = CounterSlab::unseeded(backend);
            slab.seed(&m, &BitVec::ones(100));
            let (dim, spilled, entries) = slab.export_state().unwrap();
            assert_eq!(dim, 100);
            assert!(!spilled);
            assert_eq!(entries, vec![(3, 2), (97, 1)]);
            let restored = CounterSlab::restore(backend, dim, spilled, &entries);
            assert_eq!(restored.backend(), backend);
            assert_eq!(restored.storage_words(), slab.storage_words());
            for w in 0..100 {
                assert_eq!(restored.count(w), slab.count(w), "column {w}");
            }
        }
        // A spilled sparse slab restores as spilled: dense storage cost,
        // still reporting the sparse backend.
        let dim = 10;
        let edges: Vec<(u32, u32)> = (0..dim as u32).map(|j| (0, j)).collect();
        let wide = BitMatrix::from_edges(dim, &edges);
        let mut sparse = CounterSlab::unseeded(SlabBackend::Sparse);
        sparse.seed(&wide, &BitVec::ones(dim));
        let (d, spilled, entries) = sparse.export_state().unwrap();
        assert!(spilled);
        let restored = CounterSlab::restore(SlabBackend::Sparse, d, spilled, &entries);
        assert_eq!(restored.backend(), SlabBackend::Sparse);
        assert_eq!(restored.storage_words(), dense_words(dim));
        for w in 0..dim {
            assert_eq!(restored.count(w), 1);
        }
    }

    #[test]
    fn restored_slabs_keep_mutating_like_the_original() {
        let m = BitMatrix::from_edges(100, &[(0, 0), (1, 1)]);
        for backend in BACKENDS {
            let mut a = CounterSlab::unseeded(backend);
            a.seed(&m, &BitVec::ones(100));
            let (dim, spilled, entries) = a.export_state().unwrap();
            let mut b = CounterSlab::restore(backend, dim, spilled, &entries);
            // Drive both through the same mutation trace, incl. enough
            // increments to cross a sparse slab's spill threshold.
            for w in 0..40 {
                assert_eq!(a.increment(w), b.increment(w), "column {w}");
            }
            assert_eq!(a.decrement(0), b.decrement(0));
            assert_eq!(a.storage_words(), b.storage_words());
            assert_eq!(a.export_state(), b.export_state());
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in [SlabBackend::Dense, SlabBackend::Sparse, SlabBackend::Auto] {
            assert_eq!(SlabBackend::from_name(backend.name()), Some(backend));
        }
        assert_eq!(SlabBackend::from_name("rle"), None);
    }
}
