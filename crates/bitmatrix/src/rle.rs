//! Gap-length (run-length) encoded bit vectors.
//!
//! Sect. 3.3 of the paper notes that "due to bit-vector storage
//! techniques, such as gap-length encoding, the worst memory consumption
//! might not occur with the label storing the most bits", referring to
//! the BitMat storage structure of Atre et al. This module provides that
//! representation: a sorted list of `[start, start+len)` runs of one
//! bits. It is the storage of choice for χ rows that are either very
//! sparse or consist of long contiguous runs (dictionary-encoded
//! databases cluster nodes of one type in contiguous id ranges, which is
//! exactly when run-length encoding shines).
//!
//! [`RleBitVec`] supports the operations the SOI solver needs —
//! intersection, union, subset and intersection tests, popcount — and
//! converts losslessly to and from [`BitVec`].

use crate::BitVec;

/// A run of consecutive one bits `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    #[inline]
    fn end(&self) -> u32 {
        self.start + self.len
    }
}

/// A fixed-length bit vector stored as sorted, non-adjacent runs of one
/// bits (gap-length encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleBitVec {
    runs: Vec<Run>,
    len: usize,
}

impl RleBitVec {
    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        RleBitVec {
            runs: Vec::new(),
            len,
        }
    }

    /// Creates a vector of `len` one bits (a single run).
    pub fn ones(len: usize) -> Self {
        let runs = if len == 0 {
            Vec::new()
        } else {
            vec![Run {
                start: 0,
                len: len as u32,
            }]
        };
        RleBitVec { runs, len }
    }

    /// Builds from sorted-or-unsorted indices.
    pub fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut runs: Vec<Run> = Vec::new();
        for &i in &sorted {
            assert!((i as usize) < len, "bit index {i} out of bounds {len}");
            match runs.last_mut() {
                Some(run) if run.end() == i => run.len += 1,
                _ => runs.push(Run { start: i, len: 1 }),
            }
        }
        RleBitVec { runs, len }
    }

    /// Lossless conversion from a dense vector.
    pub fn from_bitvec(v: &BitVec) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        for i in v.iter_ones() {
            let i = i as u32;
            match runs.last_mut() {
                Some(run) if run.end() == i => run.len += 1,
                _ => runs.push(Run { start: i, len: 1 }),
            }
        }
        RleBitVec { runs, len: v.len() }
    }

    /// Lossless conversion to a dense vector.
    pub fn to_bitvec(&self) -> BitVec {
        let mut out = BitVec::zeros(self.len);
        for run in &self.runs {
            for i in run.start..run.end() {
                out.set(i as usize);
            }
        }
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs — the compressed size (2 × u32 per run).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.runs.iter().map(|r| r.len as usize).sum()
    }

    /// `true` iff no bit is set.
    pub fn none_set(&self) -> bool {
        self.runs.is_empty()
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        let i = i as u32;
        // Last run starting at or before i.
        match self.runs.partition_point(|r| r.start <= i) {
            0 => false,
            p => i < self.runs[p - 1].end(),
        }
    }

    /// Iterator over set-bit indices in ascending order.
    pub fn iter_ones(&self) -> RleOnes<'_> {
        RleOnes {
            runs: &self.runs,
            run_idx: 0,
            next: self.runs.first().map(|r| r.start).unwrap_or(0),
        }
    }

    /// Iterator over the stored maximal runs as `(start, end)` pairs
    /// (half-open, ascending) — the run-level access the run-aware
    /// matrix kernels build on (`BitMatrix::rows_segment` resolves one
    /// CSR segment per run instead of one row per bit).
    pub fn iter_runs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.runs.iter().map(|r| (r.start, r.end()))
    }

    /// Collects the set-bit indices into a vector (`u32` indices,
    /// matching [`BitVec::to_indices`]).
    pub fn to_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for r in &self.runs {
            out.extend(r.start..r.end());
        }
        out
    }

    /// Storage words in `u64` equivalents: one per run (a run is two
    /// `u32`s) — the RLE side of the χ-storage accounting behind
    /// `SolveStats::chi_peak_words`. Compare with
    /// [`BitVec::storage_words`].
    pub fn storage_words(&self) -> usize {
        self.runs.len()
    }

    /// Sets bit `i` to zero, splitting its run if it sits in the middle.
    /// A no-op when the bit is already zero.
    pub fn clear(&mut self, i: usize) {
        let i = i as u32;
        let p = self.runs.partition_point(|r| r.start <= i);
        if p == 0 {
            return;
        }
        let run = self.runs[p - 1];
        if i >= run.end() {
            return;
        }
        if run.len == 1 {
            self.runs.remove(p - 1);
        } else if i == run.start {
            self.runs[p - 1].start += 1;
            self.runs[p - 1].len -= 1;
        } else if i == run.end() - 1 {
            self.runs[p - 1].len -= 1;
        } else {
            // Interior bit: split [start, i) / [i+1, end).
            self.runs[p - 1].len = i - run.start;
            self.runs.insert(
                p,
                Run {
                    start: i + 1,
                    len: run.end() - i - 1,
                },
            );
        }
    }

    /// Sets bit `i` to one, merging with an adjacent run (or bridging
    /// two) so runs stay maximal. A no-op when the bit is already set.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds {}", self.len);
        let i = i as u32;
        // First run starting strictly after i; the run before it (if
        // any) is the only one that can already contain i.
        let p = self.runs.partition_point(|r| r.start <= i);
        let touches_prev = p > 0 && {
            let prev = self.runs[p - 1];
            if i < prev.end() {
                return; // already set
            }
            prev.end() == i
        };
        let touches_next = p < self.runs.len() && self.runs[p].start == i + 1;
        match (touches_prev, touches_next) {
            (true, true) => {
                // Bridge: [prev.start, i] ∪ {i} ∪ [i+1, next.end).
                self.runs[p - 1].len += 1 + self.runs[p].len;
                self.runs.remove(p);
            }
            (true, false) => self.runs[p - 1].len += 1,
            (false, true) => {
                self.runs[p].start -= 1;
                self.runs[p].len += 1;
            }
            (false, false) => self.runs.insert(p, Run { start: i, len: 1 }),
        }
    }

    /// Sets every bit to zero.
    pub fn clear_all(&mut self) {
        self.runs.clear();
    }

    /// Copies `other` into `self`, reusing the run storage.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &RleBitVec) {
        self.check_len(other);
        self.runs.clear();
        self.runs.extend_from_slice(&other.runs);
    }

    /// In-place intersection `self ∧= other`; returns `true` iff `self`
    /// changed (the in-place form of [`RleBitVec::and`], mirroring
    /// [`BitVec::and_assign`]).
    pub fn and_assign(&mut self, other: &RleBitVec) -> bool {
        let before = self.count_ones();
        *self = self.and(other);
        // The result is a subset of the old value, so equality is
        // exactly popcount preservation.
        self.count_ones() != before
    }

    /// In-place intersection with a *dense* vector; returns `true` iff
    /// `self` changed. This is the hot χ-update verb of the solver under
    /// the RLE backend: the multiply product and the Eq.-(13) summaries
    /// stay dense, and the RLE χ intersects against them run by run
    /// without densifying itself.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_assign_dense(&mut self, other: &BitVec) -> bool {
        assert_eq!(
            self.len,
            other.len(),
            "bit-vector length mismatch: {} vs {}",
            self.len,
            other.len()
        );
        let before = self.count_ones();
        let mut out: Vec<Run> = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            push_dense_ones_in_range(other, run.start as usize, run.end() as usize, &mut out);
        }
        self.runs = out;
        self.count_ones() != before
    }

    /// In-place intersection that records the removals, mirroring
    /// [`BitVec::drain_cleared`]: `self ∧= other`, appending every
    /// cleared bit index to `removed` in ascending order (the buffer is
    /// *not* cleared first). Returns `true` iff `self` changed.
    pub fn drain_cleared(&mut self, other: &RleBitVec, removed: &mut Vec<u32>) -> bool {
        self.check_len(other);
        let before = removed.len();
        let mut out: Vec<Run> = Vec::with_capacity(self.runs.len());
        let mut j = 0usize;
        for a in &self.runs {
            let mut pos = a.start;
            let aend = a.end();
            while pos < aend {
                while j < other.runs.len() && other.runs[j].end() <= pos {
                    j += 1;
                }
                match other.runs.get(j) {
                    Some(b) if b.start < aend => {
                        if b.start > pos {
                            removed.extend(pos..b.start);
                            pos = b.start;
                        }
                        let kept_end = b.end().min(aend);
                        out.push(Run {
                            start: pos,
                            len: kept_end - pos,
                        });
                        pos = kept_end;
                        // Do not advance past a run that may cover the
                        // next self-run too; the while above handles it.
                    }
                    _ => {
                        removed.extend(pos..aend);
                        pos = aend;
                    }
                }
            }
        }
        self.runs = out;
        removed.len() != before
    }

    /// Subset test `self ≤ other` against a *dense* vector: every run
    /// must be fully set in `other` (block-walked, no densification).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn is_subset_of_dense(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len(), "bit-vector length mismatch");
        self.runs
            .iter()
            .all(|r| other.all_in_range(r.start as usize, r.end() as usize))
    }

    /// Superset test `other ≤ self` against a *dense* vector: the gaps
    /// between runs must contain no set bit of `other` (block-walked).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn covers_dense(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len(), "bit-vector length mismatch");
        let mut gap_start = 0usize;
        for r in &self.runs {
            if other.any_in_range(gap_start, r.start as usize) {
                return false;
            }
            gap_start = r.end() as usize;
        }
        !other.any_in_range(gap_start, self.len)
    }

    /// `true` iff any of the (sorted matrix-row) indices is a set bit —
    /// the RLE counterpart of [`BitVec::intersects_indices`]. Both the
    /// indices and the runs are sorted, so one merge pass suffices.
    pub fn intersects_indices(&self, indices: &[u32]) -> bool {
        let mut j = 0usize;
        for &i in indices {
            while j < self.runs.len() && self.runs[j].end() <= i {
                j += 1;
            }
            match self.runs.get(j) {
                Some(r) if r.start <= i => return true,
                Some(_) => {}
                None => return false,
            }
        }
        false
    }

    /// Expands `self` into a dense accumulator: `out ∨= self`, one
    /// [`BitVec::set_range`] per run.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn or_into(&self, out: &mut BitVec) {
        assert_eq!(self.len, out.len(), "bit-vector length mismatch");
        for r in &self.runs {
            out.set_range(r.start as usize, r.end() as usize);
        }
    }

    /// Intersection with another RLE vector.
    pub fn and(&self, other: &RleBitVec) -> RleBitVec {
        self.check_len(other);
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.runs.len() && j < other.runs.len() {
            let (a, b) = (&self.runs[i], &other.runs[j]);
            let start = a.start.max(b.start);
            let end = a.end().min(b.end());
            if start < end {
                out.push(Run {
                    start,
                    len: end - start,
                });
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        RleBitVec {
            runs: out,
            len: self.len,
        }
    }

    /// Union with another RLE vector.
    pub fn or(&self, other: &RleBitVec) -> RleBitVec {
        self.check_len(other);
        let mut out: Vec<Run> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let push = |run: Run, out: &mut Vec<Run>| match out.last_mut() {
            Some(last) if last.end() >= run.start => {
                let end = last.end().max(run.end());
                last.len = end - last.start;
            }
            _ => out.push(run),
        };
        while i < self.runs.len() || j < other.runs.len() {
            let take_left = match (self.runs.get(i), other.runs.get(j)) {
                (Some(a), Some(b)) => a.start <= b.start,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_left {
                push(self.runs[i], &mut out);
                i += 1;
            } else {
                push(other.runs[j], &mut out);
                j += 1;
            }
        }
        RleBitVec {
            runs: out,
            len: self.len,
        }
    }

    /// Subset test `self ≤ other`.
    pub fn is_subset_of(&self, other: &RleBitVec) -> bool {
        self.check_len(other);
        // Every run of self must be covered by a single run of other
        // (runs are maximal, so a covering run cannot be split).
        let mut j = 0usize;
        for a in &self.runs {
            while j < other.runs.len() && other.runs[j].end() < a.end() {
                j += 1;
            }
            match other.runs.get(j) {
                Some(b) if b.start <= a.start && a.end() <= b.end() => {}
                _ => return false,
            }
        }
        true
    }

    /// `true` iff `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &RleBitVec) -> bool {
        self.check_len(other);
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.runs.len() && j < other.runs.len() {
            let (a, b) = (&self.runs[i], &other.runs[j]);
            if a.start.max(b.start) < a.end().min(b.end()) {
                return true;
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    fn check_len(&self, other: &RleBitVec) {
        assert_eq!(
            self.len, other.len,
            "bit-vector length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

/// Appends the maximal one-runs of `dense` within `[start, end)` to
/// `out`, coalescing with the last run when adjacent. Block-walked: an
/// all-zeros block inside the range is skipped in one step.
fn push_dense_ones_in_range(dense: &BitVec, start: usize, end: usize, out: &mut Vec<Run>) {
    const B: usize = crate::bitvec::BLOCK_BITS;
    if start >= end {
        return;
    }
    let blocks = dense.blocks();
    let (first, last) = (start / B, (end - 1) / B);
    for (bi, &block) in blocks.iter().enumerate().take(last + 1).skip(first) {
        let mut word = block;
        if bi == first {
            word &= !0u64 << (start % B);
        }
        if bi == last {
            word &= !0u64 >> (B - 1 - (end - 1) % B);
        }
        while word != 0 {
            // Lowest run of consecutive ones inside the word.
            let lo = word.trailing_zeros();
            let ones = (word >> lo).trailing_ones();
            let run_start = (bi * B) as u32 + lo;
            match out.last_mut() {
                Some(r) if r.end() == run_start => r.len += ones,
                _ => out.push(Run {
                    start: run_start,
                    len: ones,
                }),
            }
            if lo + ones >= 64 {
                break;
            }
            word &= !0u64 << (lo + ones);
        }
    }
}

/// Iterator over the set-bit indices of an [`RleBitVec`], in ascending
/// order.
pub struct RleOnes<'a> {
    runs: &'a [Run],
    run_idx: usize,
    next: u32,
}

impl Iterator for RleOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let run = self.runs.get(self.run_idx)?;
        let i = self.next;
        if i + 1 < run.end() {
            self.next = i + 1;
        } else {
            self.run_idx += 1;
            if let Some(next_run) = self.runs.get(self.run_idx) {
                self.next = next_run.start;
            }
        }
        Some(i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_coalesced() {
        let v = RleBitVec::from_indices(20, &[3, 4, 5, 9, 10, 15]);
        assert_eq!(v.num_runs(), 3);
        assert_eq!(v.count_ones(), 6);
    }

    #[test]
    fn get_honours_run_boundaries() {
        let v = RleBitVec::from_indices(20, &[3, 4, 5, 9]);
        assert!(!v.get(2));
        assert!(v.get(3) && v.get(4) && v.get(5));
        assert!(!v.get(6) && !v.get(8));
        assert!(v.get(9));
        assert!(!v.get(19));
    }

    #[test]
    fn bitvec_round_trip() {
        let dense = BitVec::from_indices(130, &[0, 1, 2, 64, 65, 129]);
        let rle = RleBitVec::from_bitvec(&dense);
        assert_eq!(rle.num_runs(), 3);
        assert_eq!(rle.to_bitvec(), dense);
    }

    #[test]
    fn and_intersects_runs() {
        let a = RleBitVec::from_indices(30, &[0, 1, 2, 3, 10, 11, 12]);
        let b = RleBitVec::from_indices(30, &[2, 3, 4, 11]);
        let c = a.and(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![2, 3, 11]);
    }

    #[test]
    fn or_merges_adjacent_runs() {
        let a = RleBitVec::from_indices(30, &[0, 1, 2]);
        let b = RleBitVec::from_indices(30, &[3, 4, 5]);
        let c = a.or(&b);
        assert_eq!(c.num_runs(), 1, "adjacent runs must coalesce");
        assert_eq!(c.count_ones(), 6);
    }

    #[test]
    fn subset_and_intersects() {
        let big = RleBitVec::from_indices(30, &[1, 2, 3, 4, 5, 20, 21]);
        let small = RleBitVec::from_indices(30, &[2, 3, 21]);
        let other = RleBitVec::from_indices(30, &[10]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.intersects(&big));
        assert!(!other.intersects(&big));
        assert!(RleBitVec::zeros(30).is_subset_of(&other));
    }

    #[test]
    fn ones_is_a_single_run() {
        let v = RleBitVec::ones(100);
        assert_eq!(v.num_runs(), 1);
        assert_eq!(v.count_ones(), 100);
        assert_eq!(RleBitVec::ones(0).num_runs(), 0);
    }

    #[test]
    fn clear_splits_runs_like_dense_clear() {
        let indices = [3u32, 4, 5, 6, 9, 64, 65, 66];
        for victim in [3usize, 5, 6, 9, 65, 7 /* already clear */] {
            let mut rle = RleBitVec::from_indices(130, &indices);
            let mut dense = BitVec::from_indices(130, &indices);
            rle.clear(victim);
            dense.clear(victim);
            assert_eq!(rle.to_bitvec(), dense, "clearing {victim}");
            // Runs stay maximal after the split.
            assert_eq!(
                RleBitVec::from_bitvec(&rle.to_bitvec()).num_runs(),
                rle.num_runs(),
                "clearing {victim}"
            );
        }
    }

    #[test]
    fn set_fills_runs_like_dense_set() {
        let indices = [3u32, 4, 5, 9, 11, 64, 66];
        // 10 bridges 9..11, 65 bridges 64..66, 2/6 extend run edges,
        // 20/0 insert isolated runs, 4 is already set.
        for newcomer in [10usize, 65, 2, 6, 20, 0, 4] {
            let mut rle = RleBitVec::from_indices(130, &indices);
            let mut dense = BitVec::from_indices(130, &indices);
            rle.set(newcomer);
            dense.set(newcomer);
            assert_eq!(rle.to_bitvec(), dense, "setting {newcomer}");
            // Runs stay maximal after the merge.
            assert_eq!(
                RleBitVec::from_bitvec(&rle.to_bitvec()).num_runs(),
                rle.num_runs(),
                "setting {newcomer}"
            );
        }
    }

    #[test]
    fn set_then_clear_round_trips() {
        let mut v = RleBitVec::zeros(100);
        for i in [7usize, 8, 9, 50, 99, 0] {
            v.set(i);
            assert!(v.get(i));
        }
        assert_eq!(v.to_indices(), vec![0, 7, 8, 9, 50, 99]);
        v.clear(8);
        v.set(8);
        assert_eq!(v.num_runs(), 4, "7..10 re-coalesces into one run");
    }

    #[test]
    fn copy_from_overwrites_reusing_runs() {
        let mut v = RleBitVec::from_indices(30, &[1, 2, 3]);
        let other = RleBitVec::from_indices(30, &[10, 20, 21]);
        v.copy_from(&other);
        assert_eq!(v, other);
    }

    #[test]
    fn clear_all_empties() {
        let mut v = RleBitVec::from_indices(20, &[1, 2, 3, 10]);
        v.clear_all();
        assert!(v.none_set());
        assert_eq!(v.num_runs(), 0);
    }

    #[test]
    fn and_assign_matches_and() {
        let a = RleBitVec::from_indices(30, &[0, 1, 2, 3, 10, 11, 12]);
        let b = RleBitVec::from_indices(30, &[2, 3, 4, 11]);
        let mut c = a.clone();
        assert!(c.and_assign(&b));
        assert_eq!(c, a.and(&b));
        assert!(!c.and_assign(&b), "second intersection is a no-op");
    }

    #[test]
    fn and_assign_dense_matches_dense_and() {
        let a_idx = [0u32, 1, 2, 3, 63, 64, 65, 100, 129];
        let b_idx = [1u32, 3, 63, 64, 100, 101];
        let mut rle = RleBitVec::from_indices(130, &a_idx);
        let dense_b = BitVec::from_indices(130, &b_idx);
        assert!(rle.and_assign_dense(&dense_b));
        let mut expected = BitVec::from_indices(130, &a_idx);
        expected.and_assign(&dense_b);
        assert_eq!(rle.to_bitvec(), expected);
        assert!(!rle.and_assign_dense(&dense_b), "idempotent");
    }

    #[test]
    fn drain_cleared_matches_dense_drain() {
        let a_idx = [1u32, 63, 64, 100, 129];
        let b_idx = [1u32, 64, 77];
        let mut rle = RleBitVec::from_indices(130, &a_idx);
        let rle_b = RleBitVec::from_indices(130, &b_idx);
        let mut removed = vec![42u32]; // pre-existing content must survive
        assert!(rle.drain_cleared(&rle_b, &mut removed));
        assert_eq!(rle.to_indices(), vec![1, 64]);
        assert_eq!(removed, vec![42, 63, 100, 129]);
        removed.clear();
        assert!(!rle.drain_cleared(&rle_b, &mut removed));
        assert!(removed.is_empty());
    }

    #[test]
    fn dense_subset_and_cover_tests() {
        let rle = RleBitVec::from_indices(130, &[3, 4, 5, 64, 65]);
        let superset = BitVec::from_indices(130, &[2, 3, 4, 5, 64, 65, 129]);
        let partial = BitVec::from_indices(130, &[3, 4, 64]);
        assert!(rle.is_subset_of_dense(&superset));
        assert!(!rle.is_subset_of_dense(&partial));
        assert!(rle.covers_dense(&partial));
        assert!(!rle.covers_dense(&superset));
        assert!(RleBitVec::zeros(130).is_subset_of_dense(&partial));
        assert!(rle.covers_dense(&BitVec::zeros(130)));
    }

    #[test]
    fn intersects_indices_merges_sorted_rows() {
        let v = RleBitVec::from_indices(130, &[5, 6, 7, 100]);
        assert!(v.intersects_indices(&[1, 6, 99]));
        assert!(v.intersects_indices(&[100]));
        assert!(!v.intersects_indices(&[0, 4, 8, 99, 101]));
        assert!(!v.intersects_indices(&[]));
    }

    #[test]
    fn or_into_expands_runs() {
        let v = RleBitVec::from_indices(130, &[3, 4, 5, 64, 129]);
        let mut out = BitVec::from_indices(130, &[0]);
        v.or_into(&mut out);
        assert_eq!(out.to_indices(), vec![0, 3, 4, 5, 64, 129]);
    }

    #[test]
    fn iter_runs_reports_maximal_half_open_runs() {
        let v = RleBitVec::from_indices(130, &[0, 1, 2, 64, 100, 101]);
        assert_eq!(
            v.iter_runs().collect::<Vec<_>>(),
            vec![(0, 3), (64, 65), (100, 102)]
        );
        assert_eq!(RleBitVec::zeros(10).iter_runs().count(), 0);
    }

    #[test]
    fn iter_ones_walks_runs_in_order() {
        let idx = [0u32, 1, 63, 64, 65, 127, 128];
        let v = RleBitVec::from_indices(129, &idx);
        assert_eq!(v.to_indices(), idx.to_vec());
        assert_eq!(
            v.iter_ones().collect::<Vec<_>>(),
            idx.iter().map(|&i| i as usize).collect::<Vec<_>>()
        );
    }

    #[test]
    fn compression_wins_on_clustered_ids() {
        // A type-cluster: 10 000 consecutive nodes share a class. Dense
        // storage: 100 000 bits = 12.5 kB; RLE: one run = 8 bytes.
        let dense = {
            let mut v = BitVec::zeros(100_000);
            for i in 40_000..50_000 {
                v.set(i);
            }
            v
        };
        let rle = RleBitVec::from_bitvec(&dense);
        assert_eq!(rle.num_runs(), 1);
        assert_eq!(rle.count_ones(), 10_000);
    }
}
