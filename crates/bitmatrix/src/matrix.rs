//! Square boolean adjacency matrices with compressed rows.
//!
//! A [`BitMatrix`] stores one adjacency matrix `F^a` (or `B^a`) of
//! Sect. 3.2 in compressed sparse row form: row `i` is the sorted run of
//! column indices whose bit is one. This is the same information as the
//! paper's gap-length encoded bit rows and keeps the memory footprint
//! proportional to the number of edges rather than `|V|²`.

use crate::{kernels, BitVec, ChiRead, ChiVec, RleBitVec};

/// A row selector for [`BitMatrix`] multiplications: any χ
/// representation that can enumerate its set bits drives the row-wise
/// multiply, the counter-seeding multiply and the column-wise probe.
/// Implemented by the dense [`BitVec`] (with the block-skip fast path),
/// the run-length encoded [`RleBitVec`] (walking runs directly, so an
/// RLE χ never densifies to select rows) and the backend-dispatching
/// [`ChiVec`].
pub trait RowSelector {
    /// Number of bits of the selector (must equal the matrix dimension).
    fn selector_len(&self) -> usize;

    /// Calls `f` for every selected row index, in ascending order,
    /// exactly once per set bit — the work-counter contract: the number
    /// of calls is `count_ones()` for every implementation, so solver
    /// statistics are identical across χ backends.
    fn for_each_selected(&self, f: impl FnMut(usize));

    /// `true` iff any of the sorted indices is a set bit (`row ∩ self ≠
    /// ∅` for a compressed matrix row) — the column-wise probe.
    fn selects_any(&self, indices: &[u32]) -> bool;

    /// Calls `f` once per maximal run `[start, end)` of consecutive
    /// selected indices, in ascending order. Runs partition exactly the
    /// indices [`RowSelector::for_each_selected`] visits, in the same
    /// order, so any per-run consumer that walks
    /// [`BitMatrix::rows_segment`] performs the identical per-entry
    /// work (and work *counts*) as the per-bit walk — only the number
    /// of CSR offset lookups differs. The default implementation
    /// coalesces the per-bit walk; [`RleBitVec`] overrides it to emit
    /// its runs directly, with no per-bit decode.
    fn for_each_selected_run(&self, mut f: impl FnMut(usize, usize))
    where
        Self: Sized,
    {
        let mut start = usize::MAX;
        let mut prev = usize::MAX;
        self.for_each_selected(|i| {
            if start == usize::MAX {
                start = i;
            } else if i != prev + 1 {
                f(start, prev + 1);
                start = i;
            }
            prev = i;
        });
        if start != usize::MAX {
            f(start, prev + 1);
        }
    }
}

impl RowSelector for BitVec {
    #[inline]
    fn selector_len(&self) -> usize {
        self.len()
    }

    /// Walks the selector with the dense block-skip fast path: when more
    /// than half the bits are set, all-ones blocks dispatch their 64
    /// rows with no per-bit decode and all-zeros blocks skip 64 rows at
    /// once — the fast path for barely-filtered χ vectors right after
    /// Eq. (12)/(13) initialization.
    #[inline]
    fn for_each_selected(&self, mut f: impl FnMut(usize)) {
        const B: usize = crate::bitvec::BLOCK_BITS;
        if 2 * self.count_ones() > self.len() {
            for (bi, &block) in self.blocks().iter().enumerate() {
                if block == 0 {
                    continue;
                }
                let base = bi * B;
                if block == !0u64 {
                    let end = (base + B).min(self.len());
                    for i in base..end {
                        f(i);
                    }
                } else {
                    let mut bits = block;
                    while bits != 0 {
                        let i = base + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        f(i);
                    }
                }
            }
        } else {
            for i in self.iter_ones() {
                f(i);
            }
        }
    }

    #[inline]
    fn selects_any(&self, indices: &[u32]) -> bool {
        self.intersects_indices(indices)
    }
}

impl RowSelector for RleBitVec {
    #[inline]
    fn selector_len(&self) -> usize {
        self.len()
    }

    /// Walks the runs directly — one range loop per run, no per-bit
    /// decode and no densification.
    #[inline]
    fn for_each_selected(&self, mut f: impl FnMut(usize)) {
        for i in self.iter_ones() {
            f(i);
        }
    }

    #[inline]
    fn selects_any(&self, indices: &[u32]) -> bool {
        self.intersects_indices(indices)
    }

    /// One call per stored run — the run-aware fast path: no per-bit
    /// decode at all.
    #[inline]
    fn for_each_selected_run(&self, mut f: impl FnMut(usize, usize)) {
        for (start, end) in self.iter_runs() {
            f(start as usize, end as usize);
        }
    }
}

impl RowSelector for ChiVec {
    #[inline]
    fn selector_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn for_each_selected(&self, f: impl FnMut(usize)) {
        match self {
            ChiVec::Dense(v) => v.for_each_selected(f),
            ChiVec::Rle(v) => v.for_each_selected(f),
        }
    }

    #[inline]
    fn selects_any(&self, indices: &[u32]) -> bool {
        self.intersects_indices(indices)
    }

    #[inline]
    fn for_each_selected_run(&self, f: impl FnMut(usize, usize)) {
        match self {
            ChiVec::Dense(v) => v.for_each_selected_run(f),
            ChiVec::Rle(v) => v.for_each_selected_run(f),
        }
    }
}

/// A `dim × dim` boolean matrix with compressed (sorted, deduplicated)
/// rows.
#[derive(Clone, Debug)]
pub struct BitMatrix {
    dim: usize,
    /// CSR offsets: row `i` occupies `targets[offsets[i]..offsets[i+1]]`.
    offsets: Box<[u32]>,
    /// Concatenated sorted column indices of all rows. A `Vec` so that
    /// [`BitMatrix::apply_sorted`] can grow and shrink it in place; it
    /// may hold slack capacity after a delete.
    targets: Vec<u32>,
    /// Row summary: bit `i` set iff row `i` is non-empty. For a forward
    /// matrix `F^a` this is the vector `f^a` of Eq. (13).
    summary: BitVec,
}

impl BitMatrix {
    /// Builds a matrix from an edge list of `(row, col)` pairs.
    /// Duplicates are removed; the input order is irrelevant.
    ///
    /// # Panics
    /// Panics if any index is `>= dim` or if the number of entries
    /// overflows `u32`.
    pub fn from_edges(dim: usize, edges: &[(u32, u32)]) -> Self {
        let mut counts = vec![0u32; dim + 1];
        for &(r, c) in edges {
            assert!(
                (r as usize) < dim && (c as usize) < dim,
                "edge ({r},{c}) out of bounds {dim}"
            );
            counts[r as usize + 1] += 1;
        }
        for i in 0..dim {
            counts[i + 1] += counts[i];
        }
        let nnz = counts[dim] as usize;
        assert!(nnz <= u32::MAX as usize, "too many matrix entries");
        let mut targets = vec![0u32; nnz];
        let mut cursor = counts.clone();
        for &(r, c) in edges {
            let slot = cursor[r as usize] as usize;
            targets[slot] = c;
            cursor[r as usize] += 1;
        }
        // Sort and deduplicate each row, then re-compact the CSR arrays.
        let mut dedup_targets = Vec::with_capacity(nnz);
        let mut offsets = vec![0u32; dim + 1];
        for i in 0..dim {
            let row = &mut targets[counts[i] as usize..counts[i + 1] as usize];
            row.sort_unstable();
            let start = dedup_targets.len();
            for &c in row.iter() {
                if dedup_targets.len() == start || *dedup_targets.last().unwrap() != c {
                    dedup_targets.push(c);
                }
            }
            offsets[i + 1] = dedup_targets.len() as u32;
        }
        let mut summary = BitVec::zeros(dim);
        for i in 0..dim {
            if offsets[i] != offsets[i + 1] {
                summary.set(i);
            }
        }
        dedup_targets.shrink_to_fit();
        BitMatrix {
            dim,
            offsets: offsets.into_boxed_slice(),
            targets: dedup_targets,
            summary,
        }
    }

    /// Merges a batch of entries into the matrix in place: sets
    /// (`insert`) or clears (`!insert`) every `(row, col)` of `entries`,
    /// which must be sorted ascending by `(row, col)`. Entries that are
    /// already in the requested state, and repeats, are skipped; returns
    /// the number of entries that changed.
    ///
    /// The CSR layout is kept exactly (every reader still gets plain
    /// slices): each entry's slot is found by binary search in its row,
    /// `targets` is shifted once for the whole batch — back to front for
    /// inserts, front to back for deletes — and the `offsets` behind the
    /// first touched row move by the running count. The cost is
    /// therefore `O(|entries| log d + nnz + dim)` word moves at worst
    /// (everything behind the first touched slot and row), not a rebuild
    /// and not `O(|entries|)`.
    ///
    /// # Panics
    /// Panics if `entries` is not sorted, if any index is `>= dim`, or
    /// if the number of entries would overflow `u32`.
    pub fn apply_sorted(&mut self, insert: bool, entries: &[(u32, u32)]) -> usize {
        assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "entries must be sorted by (row, col)"
        );
        // Resolve every effective entry to its slot in `targets` first,
        // against the unmodified arrays: slots ascend with the entries.
        let mut edits: Vec<(usize, u32, u32)> = Vec::with_capacity(entries.len());
        for (i, &(r, c)) in entries.iter().enumerate() {
            assert!(
                (r as usize) < self.dim && (c as usize) < self.dim,
                "edge ({r},{c}) out of bounds {}",
                self.dim
            );
            if i > 0 && entries[i - 1] == (r, c) {
                continue;
            }
            let start = self.offsets[r as usize] as usize;
            match (self.row(r as usize).binary_search(&c), insert) {
                (Err(pos), true) | (Ok(pos), false) => edits.push((start + pos, r, c)),
                _ => {}
            }
        }
        let Some(&(first_slot, ..)) = edits.first() else {
            return 0;
        };
        let old_len = self.targets.len();
        if insert {
            let new_len = old_len + edits.len();
            assert!(new_len <= u32::MAX as usize, "too many matrix entries");
            // Exact growth: a label must not double on its first insert.
            self.targets.reserve_exact(edits.len());
            self.targets.resize(new_len, 0);
            let (mut src_end, mut dst_end) = (old_len, new_len);
            for &(slot, _, c) in edits.iter().rev() {
                let moved = src_end - slot;
                self.targets.copy_within(slot..src_end, dst_end - moved);
                dst_end -= moved + 1;
                self.targets[dst_end] = c;
                src_end = slot;
            }
            debug_assert_eq!(src_end, dst_end);
        } else {
            let mut dst = first_slot;
            for (i, &(slot, ..)) in edits.iter().enumerate() {
                let src_end = edits.get(i + 1).map_or(old_len, |next| next.0);
                self.targets.copy_within(slot + 1..src_end, dst);
                dst += src_end - (slot + 1);
            }
            self.targets.truncate(dst);
        }
        // `offsets[j]` counts the entries of rows `< j`: behind the i-th
        // edit (and up to the next edit's row) it moves by `i + 1`.
        for (i, &(_, r, _)) in edits.iter().enumerate() {
            let delta = i as u32 + 1;
            let next_row = edits.get(i + 1).map_or(self.dim, |next| next.1 as usize);
            for offset in &mut self.offsets[r as usize + 1..=next_row] {
                if insert {
                    *offset += delta;
                } else {
                    *offset -= delta;
                }
            }
        }
        for &(_, r, _) in &edits {
            let r = r as usize;
            if insert {
                self.summary.set(r);
            } else if self.offsets[r] == self.offsets[r + 1] {
                self.summary.clear(r);
            }
        }
        edits.len()
    }

    /// Matrix dimension (rows == columns == data-graph node count).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored one-entries (== number of `a`-labeled edges).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// The sorted column indices of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of one-entries in row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The concatenated entries of the consecutive rows `[start, end)` —
    /// CSR rows are laid out back to back, so a whole *run* of rows is
    /// one contiguous slice reachable through a single offset-pair
    /// lookup. This is the run-aware counterpart of [`BitMatrix::row`]:
    /// walking `rows_segment(a, b)` visits exactly the entries of
    /// `row(a), row(a+1), …, row(b-1)` in that order, with one
    /// row-pointer load for the whole run instead of one per row (the
    /// saving `SolveStats::row_lookups` makes measurable).
    #[inline]
    pub fn rows_segment(&self, start: usize, end: usize) -> &[u32] {
        &self.targets[self.offsets[start] as usize..self.offsets[end] as usize]
    }

    /// Entry test `A(i, j) == 1`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.row(i).binary_search(&(j as u32)).is_ok()
    }

    /// Row summary vector: bit `i` set iff row `i` is non-empty
    /// (the `f^a` / `b^a` vectors of the Eq. (13) initialization).
    #[inline]
    pub fn row_summary(&self) -> &BitVec {
        &self.summary
    }

    /// Number of rows with at least one entry.
    pub fn nonempty_rows(&self) -> usize {
        self.summary.count_ones()
    }

    /// Row-wise bit-matrix multiplication `out = x ×b A` (Eq. (9)):
    /// `out` is the union of the rows of `A` selected by the set bits of
    /// `x`. The selector is any [`RowSelector`] — a dense [`BitVec`]
    /// (walked with the block-skip fast path), an [`RleBitVec`] (runs
    /// walked directly, no densification) or a [`ChiVec`]. Returns the
    /// number of rows OR-ed (a work measure for the solver statistics,
    /// identical across selector representations).
    ///
    /// # Panics
    /// Panics if the vector lengths differ from `dim`.
    pub fn multiply_into<S: RowSelector>(&self, x: &S, out: &mut BitVec) -> usize {
        assert_eq!(x.selector_len(), self.dim);
        assert_eq!(out.len(), self.dim);
        out.clear_all();
        // Hoist the kernel dispatch out of the per-row loop: one lookup
        // per multiply, not one per selected row.
        let kernel = kernels::active();
        let mut rows = 0usize;
        x.for_each_selected(|i| {
            kernels::or_scatter_with(kernel, out.blocks_mut(), self.row(i));
            rows += 1;
        });
        rows
    }

    /// Fused row-OR + subset test: computes `out = x ×b self` exactly as
    /// [`BitMatrix::multiply_into`] and immediately tests `within ≤ out`
    /// while the product words are still cache-hot, with the kernel
    /// dispatch hoisted and an early exit on the first violating word.
    /// Returns `(rows_ored, subset_holds)`.
    ///
    /// This is the one-pass form of the Def. 2 conditions: with
    /// `self = B^a` and `x = χ(w)`, `subset_holds` says every candidate
    /// of `within = χ(v)` has an `a`-successor in `χ(w)` — candidates
    /// that would die are detected without a second full scan, and the
    /// re-evaluation engine uses the same call to skip the intersection
    /// write-back entirely when an inequality is already stable.
    ///
    /// # Panics
    /// Panics if the vector lengths differ from `dim`.
    pub fn multiply_subset_into<S: RowSelector, C: ChiRead>(
        &self,
        x: &S,
        out: &mut BitVec,
        within: &C,
    ) -> (usize, bool) {
        assert_eq!(within.bits(), self.dim);
        let rows = self.multiply_into(x, out);
        (rows, within.is_subset_of_bits(out))
    }

    /// Counter-initializing multiply for the delta-counting fixpoint
    /// engine: for every set bit `i` of `x` and every entry `j` of row
    /// `i`, increments `counts[j]`. Afterwards each `counts[j]` has grown
    /// by `|column j of self ∩ x|` — the *support* of candidate `j` with
    /// respect to the source set `x`. Returns the number of increments
    /// performed (the initialization work measure).
    ///
    /// The selector is walked *run by run*
    /// ([`RowSelector::for_each_selected_run`]): each maximal run of
    /// selected rows resolves to one contiguous CSR segment
    /// ([`BitMatrix::rows_segment`]), so an RLE selector seeds with one
    /// offset lookup per run instead of one per bit (dense selectors
    /// coalesce their set bits into runs and keep the block-skip fast
    /// path underneath). The increments performed (and their count) are
    /// identical to the per-bit definition for every representation.
    ///
    /// # Panics
    /// Panics if `x` or `counts` do not have length `dim`.
    pub fn count_into<S: RowSelector>(&self, x: &S, counts: &mut [u32]) -> usize {
        assert_eq!(x.selector_len(), self.dim);
        assert_eq!(counts.len(), self.dim);
        let kernel = kernels::active();
        let mut increments = 0usize;
        x.for_each_selected_run(|start, end| {
            let segment = self.rows_segment(start, end);
            kernels::increment_scatter_with(kernel, counts, segment);
            increments += segment.len();
        });
        increments
    }

    /// Column-wise evaluation helper: clears every bit `j` of `keep` whose
    /// row `j` of `self` does **not** intersect `probe`.
    ///
    /// With `self = B^a` (the transpose of `F^a`) and `probe = χ_S(v)`,
    /// this computes `keep ∧ (χ_S(v) ×b F^a)` without materializing the
    /// product — the column-wise strategy of Sect. 3.3. Returns
    /// `(changed, rows_probed)`.
    ///
    /// `removed` is a caller-provided scratch buffer (cleared on entry);
    /// on return it holds the indices of the cleared bits, so hot loops
    /// reuse one allocation across calls and delta engines can feed the
    /// removal set straight into their worklist.
    pub fn retain_intersecting_rows(
        &self,
        keep: &mut BitVec,
        probe: &BitVec,
        removed: &mut Vec<u32>,
    ) -> (bool, usize) {
        assert_eq!(keep.len(), self.dim);
        assert_eq!(probe.len(), self.dim);
        let probed = self.probe_kept_rows(keep.iter_ones(), probe, removed);
        for &j in removed.iter() {
            keep.clear(j as usize);
        }
        (!removed.is_empty(), probed)
    }

    /// [`BitMatrix::retain_intersecting_rows`] over the χ-storage
    /// abstraction: `keep` and `probe` are [`ChiVec`]s of either
    /// backend. The probe order (ascending candidates of `keep`), the
    /// probe count and the removal list are identical to the dense
    /// version (both run through [`BitMatrix::probe_kept_rows`]), so
    /// solver work counters do not depend on the backend.
    pub fn retain_intersecting_chi(
        &self,
        keep: &mut ChiVec,
        probe: &ChiVec,
        removed: &mut Vec<u32>,
    ) -> (bool, usize) {
        assert_eq!(keep.len(), self.dim);
        assert_eq!(probe.len(), self.dim);
        let probed = self.probe_kept_rows(keep.iter_ones(), probe, removed);
        for &j in removed.iter() {
            keep.clear(j as usize);
        }
        (!removed.is_empty(), probed)
    }

    /// The shared probe phase of the column-wise evaluation: walks the
    /// kept candidates in ascending order, counts one probe per
    /// candidate, and collects (into the cleared `removed` buffer) the
    /// candidates whose matrix row does not intersect `probe`. One
    /// implementation for every (keep, probe) representation pair keeps
    /// the probe-count and removal-order contract — which the backend
    /// parity gates pin — in exactly one place.
    fn probe_kept_rows<S: RowSelector>(
        &self,
        kept: impl Iterator<Item = usize>,
        probe: &S,
        removed: &mut Vec<u32>,
    ) -> usize {
        removed.clear();
        let mut probed = 0usize;
        for j in kept {
            probed += 1;
            if !probe.selects_any(self.row(j)) {
                removed.push(j as u32);
            }
        }
        probed
    }

    /// Heap bytes held by the CSR arrays and the summary vector — the
    /// per-label matrix memory the paper's §5.1 accounting reports.
    /// Counts the allocation (`capacity`), not the entries: `targets`
    /// keeps its slack after [`BitMatrix::apply_sorted`] deletes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<u32>()
            + self.summary.heap_bytes()
    }

    /// Builds the transposed matrix.
    pub fn transpose(&self) -> BitMatrix {
        let mut edges = Vec::with_capacity(self.nnz());
        for i in 0..self.dim {
            for &j in self.row(i) {
                edges.push((j, i as u32));
            }
        }
        BitMatrix::from_edges(self.dim, &edges)
    }

    /// Iterator over all `(row, col)` one-entries.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.dim).flat_map(move |i| self.row(i).iter().map(move |&j| (i as u32, j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BitMatrix {
        // 0 -> {1, 2}, 1 -> {0}, 3 -> {3}; row 2 and 4 empty.
        BitMatrix::from_edges(5, &[(0, 2), (0, 1), (1, 0), (3, 3), (0, 1)])
    }

    #[test]
    fn rows_are_sorted_and_deduplicated() {
        let m = sample();
        assert_eq!(m.row(0), &[1, 2]);
        assert_eq!(m.row(1), &[0]);
        assert_eq!(m.row(2), &[] as &[u32]);
        assert_eq!(m.row(3), &[3]);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn get_checks_membership() {
        let m = sample();
        assert!(m.get(0, 1) && m.get(0, 2) && m.get(1, 0) && m.get(3, 3));
        assert!(!m.get(0, 0) && !m.get(2, 2) && !m.get(4, 4));
    }

    #[test]
    fn row_summary_marks_nonempty_rows() {
        let m = sample();
        assert_eq!(m.row_summary().to_indices(), vec![0, 1, 3]);
        assert_eq!(m.nonempty_rows(), 3);
    }

    #[test]
    fn multiply_matches_paper_example() {
        // The born_in forward matrix of Fig. 2(a): rows director1 (1) and
        // director2 (2) point at place (0).
        let f = BitMatrix::from_edges(5, &[(1, 0), (2, 0)]);
        let b = f.transpose();
        let all = BitVec::ones(5);
        let mut r = BitVec::zeros(5);
        // χ(director) ×b F^born_in = (1,0,0,0,0)
        f.multiply_into(&all, &mut r);
        assert_eq!(r.to_indices(), vec![0]);
        // χ(place) ×b B^born_in = (0,1,1,0,0)
        b.multiply_into(&all, &mut r);
        assert_eq!(r.to_indices(), vec![1, 2]);
    }

    #[test]
    fn multiply_with_empty_vector_is_empty() {
        let m = sample();
        let x = BitVec::zeros(5);
        let mut out = BitVec::ones(5);
        m.multiply_into(&x, &mut out);
        assert!(out.none_set());
    }

    #[test]
    fn retain_intersecting_rows_equals_column_wise_product() {
        let f = sample();
        let b = f.transpose();
        let x = BitVec::from_indices(5, &[0, 3]);
        // Row-wise product.
        let mut rowwise = BitVec::zeros(5);
        f.multiply_into(&x, &mut rowwise);
        // Column-wise: start from all candidates, retain those whose
        // B-row intersects x.
        let mut colwise = BitVec::ones(5);
        let mut removed = vec![99u32]; // stale scratch must be cleared
        b.retain_intersecting_rows(&mut colwise, &x, &mut removed);
        assert_eq!(rowwise, colwise);
        // The scratch buffer reports exactly the cleared bits.
        for &j in &removed {
            assert!(!colwise.get(j as usize));
        }
        assert_eq!(removed.len(), 5 - colwise.count_ones());
    }

    #[test]
    fn dense_and_sparse_multiply_paths_agree() {
        // 130 nodes forces several blocks, incl. a ragged tail; a chain
        // plus fan-out gives non-trivial rows.
        let dim = 130;
        let mut edges: Vec<(u32, u32)> = (0..dim as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.extend([(0, 64), (5, 129), (77, 3), (129, 0)]);
        let m = BitMatrix::from_edges(dim, &edges);
        for x in [
            BitVec::ones(dim),                              // all-ones blocks
            BitVec::from_indices(dim, &[0, 63, 64, 129]),   // sparse path
            {
                let mut v = BitVec::ones(dim);
                v.clear(7);
                v.clear(70);
                v                                            // dense, not all-ones
            },
        ] {
            let mut out = BitVec::zeros(dim);
            let rows = m.multiply_into(&x, &mut out);
            assert_eq!(rows, x.count_ones());
            // Reference: per-bit definition.
            let mut expected = BitVec::zeros(dim);
            for i in 0..dim {
                if x.get(i) {
                    expected.set_indices(m.row(i));
                }
            }
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn count_into_counts_column_support() {
        let m = sample(); // 0 -> {1, 2}, 1 -> {0}, 3 -> {3}
        let x = BitVec::from_indices(5, &[0, 1]);
        let mut counts = vec![0u32; 5];
        let increments = m.count_into(&x, &mut counts);
        assert_eq!(counts, vec![1, 1, 1, 0, 0]);
        assert_eq!(increments, 3);
        // Counting is additive over repeated calls.
        let y = BitVec::from_indices(5, &[3]);
        m.count_into(&y, &mut counts);
        assert_eq!(counts, vec![1, 1, 1, 1, 0]);
    }

    #[test]
    fn rows_segment_concatenates_consecutive_rows() {
        let m = sample(); // 0 -> {1, 2}, 1 -> {0}, 3 -> {3}
        assert_eq!(m.rows_segment(0, 2), &[1, 2, 0]);
        assert_eq!(m.rows_segment(0, 5), &[1, 2, 0, 3]);
        assert_eq!(m.rows_segment(2, 3), &[] as &[u32]);
        assert_eq!(m.rows_segment(3, 3), &[] as &[u32]);
        // One segment per run visits exactly the per-row entries.
        let mut per_row = Vec::new();
        for i in 1..4 {
            per_row.extend_from_slice(m.row(i));
        }
        assert_eq!(m.rows_segment(1, 4), per_row.as_slice());
    }

    #[test]
    fn selected_runs_partition_the_selected_bits() {
        let indices = [0u32, 1, 2, 63, 64, 66, 129];
        let dense = BitVec::from_indices(130, &indices);
        let rle = RleBitVec::from_indices(130, &indices);
        let mut dense_runs = Vec::new();
        dense.for_each_selected_run(|a, b| dense_runs.push((a, b)));
        let mut rle_runs = Vec::new();
        rle.for_each_selected_run(|a, b| rle_runs.push((a, b)));
        assert_eq!(dense_runs, vec![(0, 3), (63, 65), (66, 67), (129, 130)]);
        assert_eq!(dense_runs, rle_runs);
        // The runs flatten back to the per-bit walk.
        let flat: Vec<usize> = dense_runs.iter().flat_map(|&(a, b)| a..b).collect();
        assert_eq!(
            flat,
            indices.iter().map(|&i| i as usize).collect::<Vec<_>>()
        );
    }

    #[test]
    fn transpose_is_involutive() {
        let m = sample();
        let tt = m.transpose().transpose();
        for i in 0..5 {
            assert_eq!(m.row(i), tt.row(i));
        }
    }

    #[test]
    fn entries_round_trip() {
        let m = sample();
        let entries: Vec<_> = m.entries().collect();
        let m2 = BitMatrix::from_edges(5, &entries);
        for i in 0..5 {
            assert_eq!(m.row(i), m2.row(i));
        }
    }

    #[test]
    fn apply_sorted_merges_a_batch_in_place() {
        // 0 -> {1, 2}, 1 -> {0}, 3 -> {3}
        let mut m = sample();
        // (0,1) is present and (4,4) repeats: two entries change.
        assert_eq!(m.apply_sorted(true, &[(0, 0), (0, 1), (4, 4), (4, 4)]), 2);
        assert_eq!(m.rows_segment(0, 5), &[0, 1, 2, 0, 3, 4]);
        assert_eq!(m.row(4), &[4]);
        assert_eq!(m.row_summary().to_indices(), vec![0, 1, 3, 4]);
        // (2,2) is absent; row 1 empties and leaves the summary.
        assert_eq!(m.apply_sorted(false, &[(0, 1), (1, 0), (2, 2)]), 2);
        assert_eq!(m.rows_segment(0, 5), &[0, 2, 3, 4]);
        assert_eq!(m.row(0), &[0, 2]);
        assert_eq!(m.row_summary().to_indices(), vec![0, 3, 4]);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn apply_sorted_rejects_unsorted_entries() {
        sample().apply_sorted(true, &[(1, 1), (0, 0)]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = BitMatrix::from_edges(4, &[]);
        assert_eq!(m.nnz(), 0);
        assert!(m.row_summary().none_set());
        let mut out = BitVec::ones(4);
        m.multiply_into(&BitVec::ones(4), &mut out);
        assert!(out.none_set());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        BitMatrix::from_edges(3, &[(0, 3)]);
    }
}
