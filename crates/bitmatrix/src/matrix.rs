//! Square boolean adjacency matrices with compressed rows.
//!
//! A [`BitMatrix`] stores one adjacency matrix `F^a` (or `B^a`) of
//! Sect. 3.2 in compressed sparse row form: row `i` is the sorted run of
//! column indices whose bit is one, and the runs of all rows lie back to
//! back in one array. This is the same information as the paper's
//! gap-length encoded bit rows. A row index finds a row's run; each
//! matrix gets one of two, picked from its own share of non-empty rows
//! when it is built and kept through [`BitMatrix::apply_sorted`]:
//!
//! * **dense** (at least one non-empty row in 16): `dim + 1` offsets, one
//!   load pair per row. Memory: `4·(nnz + dim + 1)` bytes plus the
//!   `dim`-bit row summary.
//! * **ranked** (fewer): offsets for the non-empty rows only, reached by
//!   rank over the row summary — one `u32` per 64 rows counts the
//!   non-empty rows before them, a popcount the ones below a row in its
//!   block. This is GQ-Fast's layout (dense ids, offsets only for present
//!   keys; Lin et al., arXiv 1602.00033). Memory:
//!   `4·(nnz + non-empty rows + 1) + 12·⌈dim/64⌉` bytes.
//!
//! With the dense index alone, a graph pays `2·|Σ|·|O_DB|` offset words
//! whatever its edges: 72.8 MB of adjacency for the 166k-triple
//! DBpedia-like graph of 151 labels over 57k nodes, about 440 bytes per
//! triple. With the split it is 7.5 MB (11 of its 302 matrices stay
//! dense), and memory is again proportional to the edges plus `|O_DB|/8`
//! bytes per matrix for the summary. Why not rank every matrix: the rank
//! lookup costs a popcount and a dependent load on every row access,
//! which is most of the work where a query walks tens of thousands of
//! one-entry rows. Measured per solve on the 554k-triple DBpedia-like
//! graph (2-core x86-64 VM, best of 30), ranking every matrix made D0,
//! D4, B14 and B17 45–51% slower, because their labels fill most rows;
//! with the split the 33-query sweep costs what it did before (+1% in
//! sum), and the queries that walk mid-sized ranked labels pay 15–25%
//! (B9–B11: 3.5 ns more per multiplied row, 2 ns more per probed row).

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

/// A matrix with fewer than one non-empty row in `RANKED_BELOW_ONE_IN`
/// gets the ranked row index when it is built; the others keep the
/// dense one.
const RANKED_BELOW_ONE_IN: usize = 16;

/// Evaluates `$body` with `$index` bound to the row index of the matrix
/// `$m`, resolved to its kind ([`DenseIndex`] or [`RankedIndex`]): the
/// body is compiled once per kind, so a walk over many rows dispatches
/// once, not once per row.
macro_rules! with_index {
    ($m:expr, $index:ident => $body:expr) => {
        match &$m.rank {
            None => {
                let $index = DenseIndex {
                    offsets: &$m.offsets,
                };
                $body
            }
            Some(rank) => {
                let $index = RankedIndex {
                    offsets: &$m.offsets,
                    rank,
                    summary: $m.summary.blocks(),
                };
                $body
            }
        }
    };
}

/// Row lookups of one row index kind (see [`with_index!`]).
trait RowIndex: Copy {
    /// Row `i`'s entry in `offsets` (`0 <= i <= dim`); for an empty row
    /// of a ranked index, where its entry would go.
    fn entry(self, i: usize) -> usize;

    /// Where row `i` starts in `targets` (`0 <= i <= dim`); for an empty
    /// row, where its entries would go.
    fn start(self, i: usize) -> usize;

    /// Where row `i` (`i < dim`) lies in `targets`.
    fn bounds(self, i: usize) -> std::ops::Range<usize>;
}

/// The dense index: `dim + 1` offsets.
#[derive(Clone, Copy)]
struct DenseIndex<'a> {
    offsets: &'a [u32],
}

impl RowIndex for DenseIndex<'_> {
    #[inline(always)]
    fn entry(self, i: usize) -> usize {
        i
    }

    #[inline(always)]
    fn start(self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    #[inline(always)]
    fn bounds(self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }
}

/// The ranked index: offsets of the non-empty rows, reached by rank over
/// the row summary.
#[derive(Clone, Copy)]
struct RankedIndex<'a> {
    offsets: &'a [u32],
    rank: &'a [u32],
    summary: &'a [u64],
}

impl RowIndex for RankedIndex<'_> {
    #[inline(always)]
    fn entry(self, i: usize) -> usize {
        const B: usize = crate::bitvec::BLOCK_BITS;
        match self.summary.get(i / B) {
            Some(&block) => {
                let below = block & ((1u64 << (i % B)) - 1);
                self.rank[i / B] as usize + below.count_ones() as usize
            }
            None => self.offsets.len() - 1,
        }
    }

    #[inline(always)]
    fn start(self, i: usize) -> usize {
        self.offsets[self.entry(i)] as usize
    }

    #[inline(always)]
    fn bounds(self, i: usize) -> std::ops::Range<usize> {
        const B: usize = crate::bitvec::BLOCK_BITS;
        let block = self.summary[i / B];
        let bit = 1u64 << (i % B);
        if block & bit == 0 {
            return 0..0;
        }
        let at = self.rank[i / B] as usize + (block & (bit - 1)).count_ones() as usize;
        self.offsets[at] as usize..self.offsets[at + 1] as usize
    }
}

/// A `dim × dim` boolean matrix with compressed (sorted, deduplicated)
/// rows.
#[derive(Clone, Debug)]
pub struct BitMatrix {
    dim: usize,
    /// Where the rows start in `targets`, plus a last entry `nnz`. Dense
    /// index (`rank` is `None`): one entry per row, so row `i` occupies
    /// `targets[offsets[i]..offsets[i + 1]]`. Ranked index: one entry per
    /// non-empty row, in row order. A `Vec` because a ranked index grows
    /// and shrinks with [`BitMatrix::apply_sorted`].
    offsets: Vec<u32>,
    /// The ranked index's directory, one entry per block of `summary`:
    /// `rank[b]` counts the non-empty rows before block `b`, so row `i`'s
    /// entry in `offsets` is `rank[i / 64]` plus the non-empty rows below
    /// it in its block. `None` for the dense index.
    rank: Option<Box<[u32]>>,
    /// Concatenated sorted column indices of all rows. A `Vec` so that
    /// [`BitMatrix::apply_sorted`] can grow and shrink it in place; it
    /// may hold slack capacity after a delete.
    targets: Vec<u32>,
    /// Row summary: bit `i` set iff row `i` is non-empty. For a forward
    /// matrix `F^a` this is the vector `f^a` of Eq. (13).
    summary: BitVec,
}

/// Moves the offsets `range` to start at `to` and raises (`insert`) or
/// lowers them by `by`: at most one `memmove` and one vectorizable pass.
fn move_offsets(
    offsets: &mut [u32],
    range: std::ops::Range<usize>,
    to: usize,
    by: u32,
    insert: bool,
) {
    let len = range.len();
    if to != range.start {
        offsets.copy_within(range, to);
    }
    let moved = &mut offsets[to..to + len];
    if insert {
        moved.iter_mut().for_each(|offset| *offset += by);
    } else {
        moved.iter_mut().for_each(|offset| *offset -= by);
    }
}

/// A row that a batch of [`BitMatrix::apply_sorted`] changes, as the
/// row index saw it before the batch.
struct TouchedRow {
    row: usize,
    /// The row's entry in `offsets`; for an empty row of a ranked index,
    /// where its entry goes.
    entry: usize,
    /// Entries the row gains or loses.
    edits: u32,
    /// The row becomes non-empty (insert) or empty (delete).
    flips: bool,
}

/// Why [`BitMatrix::from_csr`] refused its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// Entry `(row, col)`, at position `entry` of `targets`, has an index
    /// `>= dim`.
    OutOfBounds {
        /// The entry's row.
        row: u32,
        /// The entry's column.
        col: u32,
        /// The entry's 0-based position in `targets`.
        entry: usize,
    },
    /// Any other broken invariant, described.
    Malformed(String),
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::OutOfBounds { row, col, entry } => {
                write!(f, "entry {entry} ({row}, {col}) out of bounds")
            }
            CsrError::Malformed(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for CsrError {}

impl BitMatrix {
    /// Builds a matrix from an edge list of `(row, col)` pairs.
    /// Duplicates are removed; the input order is irrelevant.
    ///
    /// A counting sort buckets the edges by row, with one counter per
    /// non-empty row; each row is then sorted and deduplicated in place.
    /// No step sorts the whole list: `O(|edges| + dim/64)` plus the
    /// per-row sorts.
    ///
    /// # Panics
    /// Panics if any index is `>= dim` or if the number of edges
    /// overflows `u32`.
    pub fn from_edges(dim: usize, edges: &[(u32, u32)]) -> Self {
        assert!(edges.len() <= u32::MAX as usize, "too many matrix entries");
        let mut summary = BitVec::zeros(dim);
        for &(r, c) in edges {
            assert!(
                (r as usize) < dim && (c as usize) < dim,
                "edge ({r},{c}) out of bounds {dim}"
            );
            summary.set(r as usize);
        }
        let rank = rank_directory(&summary);
        let (mut targets, mut ends) = bucket_by_row(
            &summary,
            &rank,
            edges.len(),
            edges.iter().map(|&(r, _)| r),
            edges.iter().copied(),
        );
        let (mut start, mut kept) = (0usize, 0usize);
        for end in &mut ends {
            let row_end = *end as usize;
            targets[start..row_end].sort_unstable();
            let first = kept;
            for k in start..row_end {
                let col = targets[k];
                if kept == first || targets[kept - 1] != col {
                    targets[kept] = col;
                    kept += 1;
                }
            }
            start = row_end;
            *end = kept as u32;
        }
        if kept < targets.len() {
            targets.truncate(kept);
            targets.shrink_to_fit();
        }
        BitMatrix::assemble(dim, summary, rank, &ends, targets)
    }

    /// Builds a matrix from its compressed rows as a graph image stores
    /// them: the ids of the non-empty rows, ascending; where each of those
    /// rows ends in `targets`; and the concatenated column indices. The
    /// parts are untrusted, so they are checked in `O(rows + nnz)`, with
    /// no sort: every listed row id is below `dim` and greater than the
    /// one before; every row is non-empty, its end above the previous end
    /// (the first above 0), and the last end is `targets.len()`; within a
    /// row the columns are strictly ascending and below `dim`. The row
    /// index is picked by the rule [`BitMatrix::from_edges`] uses, so the
    /// result equals `from_edges` of the same entries, and so does its
    /// allocation when `targets` has no spare capacity.
    ///
    /// # Errors
    /// [`CsrError::OutOfBounds`] names the first entry with an index
    /// `>= dim`; [`CsrError::Malformed`] describes any other broken
    /// invariant.
    pub fn from_csr(
        dim: usize,
        rows: &[u32],
        ends: &[u32],
        targets: Vec<u32>,
    ) -> Result<Self, CsrError> {
        let malformed = |detail: String| Err(CsrError::Malformed(detail));
        if rows.len() != ends.len() {
            return malformed(format!(
                "{} row ids but {} row ends",
                rows.len(),
                ends.len()
            ));
        }
        if targets.len() > u32::MAX as usize {
            return malformed(format!("{} entries overflow u32", targets.len()));
        }
        let mut start = 0usize;
        for (k, (&row, &end)) in rows.iter().zip(ends).enumerate() {
            let end = end as usize;
            if end <= start || end > targets.len() {
                return malformed(format!(
                    "row {row} ends at {end}: not in ({start}, {}]",
                    targets.len()
                ));
            }
            if k > 0 && rows[k - 1] >= row {
                return malformed(format!("row {row} listed after row {}", rows[k - 1]));
            }
            let run = &targets[start..end];
            for (i, &col) in run.iter().enumerate() {
                if row as usize >= dim || col as usize >= dim {
                    return Err(CsrError::OutOfBounds {
                        row,
                        col,
                        entry: start + i,
                    });
                }
                if i > 0 && run[i - 1] >= col {
                    return malformed(format!("row {row}: column {col} after {}", run[i - 1]));
                }
            }
            start = end;
        }
        if start != targets.len() {
            return malformed(format!(
                "row ends cover {start} of {} entries",
                targets.len()
            ));
        }
        let mut summary = BitVec::zeros(dim);
        for &row in rows {
            summary.set(row as usize);
        }
        let rank = rank_directory(&summary);
        Ok(BitMatrix::assemble(dim, summary, rank, ends, targets))
    }

    /// Lays out a matrix from checked parts: `summary` marks the
    /// non-empty rows, `rank` is its [`rank_directory`], and `ends[k]` is
    /// where the `k`-th non-empty row ends in `targets`. Picks the row
    /// index from the share of non-empty rows and allocates every array
    /// at its exact size.
    fn assemble(
        dim: usize,
        summary: BitVec,
        rank: Box<[u32]>,
        ends: &[u32],
        targets: Vec<u32>,
    ) -> Self {
        let nonempty = ends.len();
        debug_assert_eq!(summary.count_ones(), nonempty);
        let ranked = nonempty * RANKED_BELOW_ONE_IN < dim;
        let entries = if ranked { nonempty } else { dim } + 1;
        let mut offsets = Vec::with_capacity(entries);
        offsets.push(0);
        if ranked {
            offsets.extend_from_slice(ends);
        } else {
            for (row, &end) in summary.iter_ones().zip(ends) {
                // The empty rows before this one start where it does.
                offsets.resize(row + 1, offsets[offsets.len() - 1]);
                offsets.push(end);
            }
            offsets.resize(entries, targets.len() as u32);
        }
        BitMatrix {
            dim,
            offsets,
            rank: ranked.then_some(rank),
            targets,
            summary,
        }
    }

    /// Merges a batch of entries into the matrix in place: sets
    /// (`insert`) or clears (`!insert`) every `(row, col)` of `entries`,
    /// which must be sorted ascending by `(row, col)`. Entries that are
    /// already in the requested state, and repeats, are skipped; returns
    /// the number of entries that changed.
    ///
    /// Every reader still gets plain slices, and the row index stays the
    /// kind it was built as: each entry's slot is found by binary search
    /// in its row, `targets` is shifted once for the whole batch — back
    /// to front for inserts, front to back for deletes — and the
    /// `offsets` behind the first touched row move by the running count.
    /// A ranked index also splices in the entries of rows that appear and
    /// drops those of rows that vanish, and recounts its rank directory
    /// from the first block whose summary bit flipped. The cost is
    /// therefore `O(|entries| log d + nnz + r + dim/64)` word moves at
    /// worst, where `r` is the number of non-empty rows for a ranked
    /// index and `dim` for a dense one — not a rebuild and not
    /// `O(|entries|)`.
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
            let start = with_index!(self, index => index.start(r as usize));
            match (self.row(r as usize).binary_search(&c), insert) {
                (Err(pos), true) | (Ok(pos), false) => edits.push((start + pos, r, c)),
                _ => {}
            }
        }
        let Some(&(first_slot, ..)) = edits.first() else {
            return 0;
        };
        let touched: Vec<TouchedRow> = edits
            .chunk_by(|a, b| a.1 == b.1)
            .map(|run| {
                let row = run[0].1 as usize;
                TouchedRow {
                    row,
                    entry: with_index!(self, index => index.entry(row)),
                    edits: run.len() as u32,
                    flips: if insert {
                        !self.summary.get(row)
                    } else {
                        self.row(row).len() == run.len()
                    },
                }
            })
            .collect();
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
        self.shift_offsets(insert, &touched);
        let mut first_flipped = None;
        for t in touched.iter().filter(|t| t.flips) {
            if insert {
                self.summary.set(t.row);
            } else {
                self.summary.clear(t.row);
            }
            first_flipped.get_or_insert(t.row / crate::bitvec::BLOCK_BITS);
        }
        if let (Some(rank), Some(first)) = (self.rank.as_mut(), first_flipped) {
            let blocks = self.summary.blocks();
            for b in first..rank.len() - 1 {
                rank[b + 1] = rank[b] + blocks[b].count_ones();
            }
        }
        edits.len()
    }

    /// The `offsets` half of [`BitMatrix::apply_sorted`], after `targets`
    /// has moved: an entry starts its row, so it moves by the edits of
    /// the rows before that row, and by the entries that appear (insert)
    /// or vanish (delete) before it. A ranked index gains the entries of
    /// rows that become non-empty and loses those of rows that become
    /// empty; a dense index keeps every entry. `touched` ascends by row.
    fn shift_offsets(&mut self, insert: bool, touched: &[TouchedRow]) {
        let ranked = self.rank.is_some();
        let offsets = &mut self.offsets;
        let old_len = offsets.len();
        if insert {
            // Back to front, the array growing by the new rows' entries.
            let mut edits: u32 = touched.iter().map(|t| t.edits).sum();
            let mut added = touched.iter().filter(|t| ranked && t.flips).count();
            offsets.reserve_exact(added);
            offsets.resize(old_len + added, 0);
            let mut end = old_len;
            for t in touched.iter().rev() {
                let appears = ranked && t.flips;
                let start = t.entry + usize::from(!appears);
                move_offsets(offsets, start..end, start + added, edits, true);
                edits -= t.edits;
                added -= usize::from(appears);
                offsets[t.entry + added] = offsets[t.entry] + edits;
                end = t.entry;
            }
        } else {
            // Front to back, the array shrinking by the emptied rows' entries.
            let (mut edits, mut removed) = (0u32, 0usize);
            let mut start = touched[0].entry;
            for t in touched {
                move_offsets(offsets, start..t.entry, start - removed, edits, false);
                let vanishes = ranked && t.flips;
                if !vanishes {
                    offsets[t.entry - removed] = offsets[t.entry] - edits;
                }
                edits += t.edits;
                removed += usize::from(vanishes);
                start = t.entry + 1;
            }
            move_offsets(offsets, start..old_len, start - removed, edits, false);
            offsets.truncate(old_len - removed);
        }
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
        debug_assert!(i < self.dim, "row {i} out of bounds {}", self.dim);
        with_index!(self, index => &self.targets[index.bounds(i)])
    }

    /// Number of one-entries in row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        self.row(i).len()
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
        with_index!(self, index => &self.targets[index.start(start)..index.start(end)])
    }

    /// Entry test `A(i, j) == 1`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.row(i).binary_search(&(j as u32)).is_ok()
    }

    /// Whether both matrices hold the same entries, whatever their row
    /// index kinds and spare capacity: equal summaries, equal
    /// concatenated rows, and equal row boundaries — compared as whole
    /// arrays where both indexes are of one kind.
    pub fn same_entries(&self, other: &BitMatrix) -> bool {
        if self.dim != other.dim
            || self.summary != other.summary
            || self.rows_segment(0, self.dim) != other.rows_segment(0, other.dim)
        {
            return false;
        }
        if self.rank.is_some() == other.rank.is_some() {
            return self.offsets == other.offsets;
        }
        self.summary
            .iter_ones()
            .all(|i| self.row_len(i) == other.row_len(i))
    }

    /// Row summary vector: bit `i` set iff row `i` is non-empty
    /// (the `f^a` / `b^a` vectors of the Eq. (13) initialization).
    #[inline]
    pub fn row_summary(&self) -> &BitVec {
        &self.summary
    }

    /// Whether the matrix carries the ranked row index.
    #[cfg(test)]
    pub(crate) fn is_ranked(&self) -> bool {
        self.rank.is_some()
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
        with_index!(self, index => x.for_each_selected(|i| {
            kernels::or_scatter_with(kernel, out.blocks_mut(), &self.targets[index.bounds(i)]);
            rows += 1;
        }));
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
        with_index!(self, index => x.for_each_selected_run(|start, end| {
            let segment = &self.targets[index.start(start)..index.start(end)];
            kernels::increment_scatter_with(kernel, counts, segment);
            increments += segment.len();
        }));
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
    /// version (both run through the same private probe loop), so
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
        with_index!(self, index => for j in kept {
            probed += 1;
            if !probe.selects_any(&self.targets[index.bounds(j)]) {
                removed.push(j as u32);
            }
        });
        probed
    }

    /// Heap bytes held by the CSR arrays, the rank directory and the
    /// summary vector — the per-label matrix memory the paper's §5.1
    /// accounting reports. Counts the allocation (`capacity`), not the
    /// entries: `targets` and a ranked `offsets` keep their slack after
    /// [`BitMatrix::apply_sorted`] deletes.
    pub fn heap_bytes(&self) -> usize {
        let rank = self.rank.as_ref().map_or(0, |rank| rank.len());
        (self.offsets.capacity() + self.targets.capacity() + rank) * std::mem::size_of::<u32>()
            + self.summary.heap_bytes()
    }

    /// Builds the transposed matrix by a counting sort: the output's
    /// summary is the set of columns, each column gets a counter reached
    /// by rank over it, and the rows are scattered in ascending order, so
    /// every output row comes out sorted. `O(nnz + dim/64)`, with no
    /// histogram of `dim` entries.
    pub fn transpose(&self) -> BitMatrix {
        let mut summary = BitVec::zeros(self.dim);
        for &col in &self.targets {
            summary.set(col as usize);
        }
        let rank = rank_directory(&summary);
        let (targets, ends) = bucket_by_row(
            &summary,
            &rank,
            self.nnz(),
            self.targets.iter().copied(),
            self.entries().map(|(i, j)| (j, i)),
        );
        BitMatrix::assemble(self.dim, summary, rank, &ends, targets)
    }

    /// Iterator over all `(row, col)` one-entries.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rows()
            .flat_map(|(i, row)| row.iter().map(move |&j| (i as u32, j)))
    }

    /// The non-empty rows, ascending, each with its columns: one walk of
    /// the summary and the offsets, with no rank lookup.
    fn rows(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let ranked = self.rank.is_some();
        self.summary.iter_ones().enumerate().map(move |(k, i)| {
            let at = if ranked { k } else { i };
            let bounds = self.offsets[at] as usize..self.offsets[at + 1] as usize;
            (i, &self.targets[bounds])
        })
    }
}

/// `rank[b]` counts the set bits of `summary` before block `b`: the
/// ranked index's directory.
fn rank_directory(summary: &BitVec) -> Box<[u32]> {
    let mut before = 0u32;
    summary
        .blocks()
        .iter()
        .map(|block| {
            let here = before;
            before += block.count_ones();
            here
        })
        .collect()
}

/// Counting sort of `len` entries by row. `summary` marks exactly the
/// rows the entries name, and `rank` is its [`rank_directory`]; `rows`
/// yields every entry's row (the counting pass) and `entries` every
/// `(row, col)` (the scatter pass). Returns the columns grouped by row,
/// ascending by row and in `entries` order within a row, and where each
/// non-empty row ends. One counter per non-empty row, reached by rank
/// over `summary`: `O(len + dim/64)` time and memory, however many rows
/// are empty.
fn bucket_by_row(
    summary: &BitVec,
    rank: &[u32],
    len: usize,
    rows: impl Iterator<Item = u32>,
    entries: impl Iterator<Item = (u32, u32)>,
) -> (Vec<u32>, Vec<u32>) {
    const B: usize = crate::bitvec::BLOCK_BITS;
    let blocks = summary.blocks();
    let slot = |row: u32| {
        let (block, bit) = (row as usize / B, row as usize % B);
        rank[block] as usize + (blocks[block] & ((1u64 << bit) - 1)).count_ones() as usize
    };
    let nonempty = rank.last().map_or(0, |&before| before as usize)
        + blocks.last().map_or(0, |last| last.count_ones() as usize);
    let mut next = vec![0u32; nonempty];
    for row in rows {
        next[slot(row)] += 1;
    }
    let mut start = 0u32;
    for count in &mut next {
        start += std::mem::replace(count, start);
    }
    let mut cols = vec![0u32; len];
    for (row, col) in entries {
        let k = slot(row);
        cols[next[k] as usize] = col;
        next[k] += 1;
    }
    (cols, next)
}

/// The sorted-key constructions the counting sorts replaced, kept as the
/// tests' reference: pack every entry as `row << 32 | col`, sort and
/// deduplicate.
#[cfg(test)]
impl BitMatrix {
    pub(crate) fn from_edges_by_sorting(dim: usize, edges: &[(u32, u32)]) -> Self {
        let mut keys: Vec<u64> = edges
            .iter()
            .map(|&(r, c)| (u64::from(r) << 32) | u64::from(c))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut summary = BitVec::zeros(dim);
        let mut ends = Vec::new();
        for (k, key) in keys.iter().enumerate() {
            if keys.get(k + 1).is_none_or(|next| next >> 32 != key >> 32) {
                summary.set((key >> 32) as usize);
                ends.push(k as u32 + 1);
            }
        }
        let targets = keys.iter().map(|&k| k as u32).collect();
        let rank = rank_directory(&summary);
        BitMatrix::assemble(dim, summary, rank, &ends, targets)
    }

    pub(crate) fn transpose_by_sorting(&self) -> Self {
        let swapped: Vec<(u32, u32)> = self.entries().map(|(i, j)| (j, i)).collect();
        BitMatrix::from_edges_by_sorting(self.dim, &swapped)
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
    fn the_index_is_picked_by_the_share_of_nonempty_rows() {
        // 9 of 160 rows: below one in 16, ranked; 10 of 160: dense.
        let nine: Vec<(u32, u32)> = (0..9).map(|i| (i * 17, i)).collect();
        let ten: Vec<(u32, u32)> = (0..10).map(|i| (i * 16, i)).collect();
        let ranked = BitMatrix::from_edges(160, &nine);
        let dense = BitMatrix::from_edges(160, &ten);
        assert!(ranked.is_ranked() && !dense.is_ranked());
        // 9 targets, 10 offsets, 3 summary words and 3 rank entries.
        assert_eq!(ranked.heap_bytes(), 4 * (9 + 10) + 8 * 3 + 4 * 3);
        assert_eq!(dense.heap_bytes(), 4 * (10 + 161) + 8 * 3);
        assert_eq!(ranked.nonempty_rows(), 9);
        assert_eq!(ranked.entries().collect::<Vec<_>>(), nine);
    }

    #[test]
    fn a_ranked_index_splices_rows_in_and_out() {
        // Rows 3, 64 and 130 of 192 (three whole blocks): ranked.
        let mut m = BitMatrix::from_edges(192, &[(130, 1), (3, 7), (64, 0), (64, 5)]);
        assert!(m.is_ranked());
        assert_eq!(m.row(64), &[0, 5]);
        assert_eq!(m.row(63), &[] as &[u32]);
        assert_eq!(m.rows_segment(4, 131), &[0, 5, 1]);
        assert_eq!(m.rows_segment(0, 192), &[7, 0, 5, 1]);
        // Rows 0 and 70 appear, row 64 grows.
        assert_eq!(
            m.apply_sorted(true, &[(0, 9), (64, 2), (70, 4), (70, 6)]),
            4
        );
        assert_eq!(m.rows_segment(0, 192), &[9, 7, 0, 2, 5, 4, 6, 1]);
        assert_eq!(m.row(70), &[4, 6]);
        assert_eq!(m.row_summary().to_indices(), vec![0, 3, 64, 70, 130]);
        // Rows 3 and 130 vanish, row 64 shrinks.
        assert_eq!(m.apply_sorted(false, &[(3, 7), (64, 0), (130, 1)]), 3);
        assert_eq!(m.rows_segment(0, 192), &[9, 2, 5, 4, 6]);
        assert_eq!(m.row(130), &[] as &[u32]);
        assert_eq!(m.rows_segment(65, 192), &[4, 6]);
        assert_eq!(m.row_summary().to_indices(), vec![0, 64, 70]);
        assert_eq!(m.nonempty_rows(), 3);
        assert!(m.is_ranked());
    }

    /// The compressed rows of `m` in the parts [`BitMatrix::from_csr`]
    /// takes.
    fn csr_parts(m: &BitMatrix) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let rows: Vec<u32> = m.row_summary().iter_ones().map(|i| i as u32).collect();
        let mut end = 0;
        let ends = rows
            .iter()
            .map(|&i| {
                end += m.row_len(i as usize) as u32;
                end
            })
            .collect();
        (rows, ends, m.rows_segment(0, m.dim()).to_vec())
    }

    #[test]
    fn from_csr_equals_from_edges_with_either_index() {
        let nine: Vec<(u32, u32)> = (0..9).map(|i| (i * 17, i)).collect();
        let ten: Vec<(u32, u32)> = (0..10).map(|i| (i * 16, 159 - i)).collect();
        for (dim, edges) in [(160, nine), (160, ten), (5, vec![]), (0, vec![])] {
            let m = BitMatrix::from_edges(dim, &edges);
            let (rows, ends, targets) = csr_parts(&m);
            let back = BitMatrix::from_csr(dim, &rows, &ends, targets).unwrap();
            assert_eq!(back.is_ranked(), m.is_ranked());
            assert_eq!(back.heap_bytes(), m.heap_bytes());
            assert_eq!(back.entries().collect::<Vec<_>>(), edges);
            assert_eq!(back.row_summary(), m.row_summary());
            for i in 0..dim {
                assert_eq!(back.row(i), m.row(i));
            }
        }
    }

    #[test]
    fn same_entries_ignores_the_index_kind_but_not_row_boundaries() {
        let nine: Vec<(u32, u32)> = (0..9).map(|i| (i * 17, i)).collect();
        let mut grown = BitMatrix::from_edges(160, &nine);
        let more = [(1, 3), (2, 4), (3, 5)];
        grown.apply_sorted(true, &more);
        let mut all = nine.clone();
        all.extend(more);
        let rebuilt = BitMatrix::from_edges(160, &all);
        assert!(grown.is_ranked() && !rebuilt.is_ranked());
        assert!(grown.same_entries(&rebuilt) && rebuilt.same_entries(&grown));
        assert!(!grown.same_entries(&BitMatrix::from_edges(160, &nine)));
        // Equal summaries and equal concatenated rows, other boundaries.
        for dim in [5, 160] {
            let a = BitMatrix::from_edges(dim, &[(0, 1), (0, 2), (1, 3)]);
            let b = BitMatrix::from_edges(dim, &[(0, 1), (1, 2), (1, 3)]);
            assert_eq!(a.rows_segment(0, dim), b.rows_segment(0, dim));
            assert!(!a.same_entries(&b));
        }
        let ranked_b = BitMatrix::from_edges(160, &[(0, 1), (1, 2), (1, 3)]);
        let mut dense_a =
            BitMatrix::from_edges(160, &(0..10).map(|i| (i * 16, 0)).collect::<Vec<_>>());
        dense_a.apply_sorted(false, &(2..10).map(|i| (i * 16, 0)).collect::<Vec<_>>());
        dense_a.apply_sorted(false, &[(0, 0), (16, 0)]);
        dense_a.apply_sorted(true, &[(0, 1), (0, 2), (1, 3)]);
        assert!(!dense_a.is_ranked() && ranked_b.is_ranked());
        assert!(!dense_a.same_entries(&ranked_b));
    }

    #[test]
    fn from_csr_rejects_every_broken_invariant() {
        // Rows 0 -> {1, 2}, 1 -> {0}, 3 -> {3} of a 5 x 5 matrix.
        let (rows, ends, targets) = csr_parts(&sample());
        assert_eq!((&rows[..], &ends[..]), (&[0, 1, 3][..], &[2, 3, 4][..]));
        let check = |rows: &[u32], ends: &[u32], targets: &[u32]| {
            BitMatrix::from_csr(5, rows, ends, targets.to_vec()).unwrap_err()
        };
        let malformed = |e: CsrError| matches!(e, CsrError::Malformed(_));
        assert!(
            malformed(check(&rows, &ends, &[2, 1, 0, 3])),
            "unsorted row"
        );
        assert!(
            malformed(check(&rows, &ends, &[1, 1, 0, 3])),
            "duplicate target"
        );
        assert!(
            malformed(check(&[1, 0, 3], &ends, &targets)),
            "rows out of order"
        );
        assert!(
            malformed(check(&[0, 0, 3], &ends, &targets)),
            "row listed twice"
        );
        assert!(
            malformed(check(&[0, 1, 2, 3], &[2, 3, 3, 4], &targets)),
            "empty row"
        );
        assert!(
            malformed(check(&rows, &[3, 2, 4], &targets)),
            "ends not monotone"
        );
        assert!(
            malformed(check(&rows, &[2, 3, 3], &targets)),
            "ends short of nnz"
        );
        assert!(
            malformed(check(&rows, &[2, 3, 5], &targets)),
            "ends past nnz"
        );
        assert!(
            malformed(check(&rows, &[2, 4], &targets)),
            "fewer ends than rows"
        );
        assert_eq!(
            check(&rows, &ends, &[1, 2, 0, 5]),
            CsrError::OutOfBounds {
                row: 3,
                col: 5,
                entry: 3
            }
        );
        assert_eq!(
            check(&[0, 1, 7], &ends, &targets),
            CsrError::OutOfBounds {
                row: 7,
                col: 3,
                entry: 3
            }
        );
        // u32 ends near the top of the range do not wrap into validity.
        assert!(malformed(check(&rows, &[2, 3, u32::MAX], &targets)));
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
