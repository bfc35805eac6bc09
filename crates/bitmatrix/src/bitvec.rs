//! Dense, fixed-length bit vectors.
//!
//! [`BitVec`] is the representation of the characteristic function rows
//! `χ_S(v)` of Sect. 3.2: one bit per data-graph node. All mutating set
//! operations report whether they changed the vector, which is what the
//! fixpoint solver uses to decide when inequalities must be re-marked
//! unstable.
//!
//! The word-level inner loops (`∧`, `∨`, `∧¬`, subset, popcount, drain)
//! route through the pluggable [`kernels`](crate::kernels) layer, so the
//! per-solve [`KernelBackend`](crate::KernelBackend) selection applies
//! to every `BitVec` operation uniformly.

use crate::kernels;

pub(crate) const BLOCK_BITS: usize = 64;

/// A fixed-length vector of bits backed by `u64` blocks.
///
/// Bits beyond `len` inside the last block are always kept at zero, so
/// whole-block operations (`count_ones`, equality, subset tests) need no
/// special casing.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    blocks: Box<[u64]>,
    len: usize,
}

impl BitVec {
    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        let nblocks = len.div_ceil(BLOCK_BITS);
        BitVec {
            blocks: vec![0u64; nblocks].into_boxed_slice(),
            len,
        }
    }

    /// Creates a vector of `len` one bits (the vector `1` of Eq. (12)).
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        v.set_all();
        v
    }

    /// Creates a vector with exactly the given bit indices set.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut v = Self::zeros(len);
        for &i in indices {
            v.set(i as usize);
        }
        v
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff no bit is set (the empty relation row).
    #[inline]
    pub fn none_set(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// `true` iff at least one bit is set.
    #[inline]
    pub fn any_set(&self) -> bool {
        !self.none_set()
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of bounds {}", self.len);
        (self.blocks[i / BLOCK_BITS] >> (i % BLOCK_BITS)) & 1 == 1
    }

    /// Sets bit `i` to one.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds {}", self.len);
        self.blocks[i / BLOCK_BITS] |= 1u64 << (i % BLOCK_BITS);
    }

    /// Sets bit `i` to zero.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds {}", self.len);
        self.blocks[i / BLOCK_BITS] &= !(1u64 << (i % BLOCK_BITS));
    }

    /// Sets every bit to one.
    pub fn set_all(&mut self) {
        self.blocks.fill(!0u64);
        self.mask_tail();
    }

    /// Sets every bit to zero.
    pub fn clear_all(&mut self) {
        self.blocks.fill(0);
    }

    /// Number of set bits (`|χ_S(v)|`), used by the adaptive row/column
    /// strategy choice.
    #[inline]
    pub fn count_ones(&self) -> usize {
        kernels::count_ones_words(&self.blocks)
    }

    /// In-place intersection `self ∧= other`; returns `true` iff `self`
    /// changed. This is the update step 2(b) of the solver algorithm.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) -> bool {
        self.check_len(other);
        kernels::and_assign_words(&mut self.blocks, &other.blocks)
    }

    /// In-place union `self ∨= other`; returns `true` iff `self` changed.
    pub fn or_assign(&mut self, other: &BitVec) -> bool {
        self.check_len(other);
        kernels::or_assign_words(&mut self.blocks, &other.blocks)
    }

    /// In-place intersection that *records* the removals: `self ∧= other`,
    /// appending the index of every bit this clears to `removed` (the
    /// buffer is not cleared first, so callers can accumulate deltas from
    /// several intersections into one reusable buffer). Returns `true`
    /// iff `self` changed.
    ///
    /// This is the removal-event primitive of the delta-counting fixpoint
    /// engine: instead of re-evaluating an inequality after a shrink, the
    /// engine drains exactly the cleared bits into its worklist.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn drain_cleared(&mut self, other: &BitVec, removed: &mut Vec<u32>) -> bool {
        self.check_len(other);
        kernels::drain_cleared_words(&mut self.blocks, &other.blocks, removed)
    }

    /// In-place difference `self ∧= ¬other`; returns `true` iff `self`
    /// changed.
    pub fn and_not_assign(&mut self, other: &BitVec) -> bool {
        self.check_len(other);
        kernels::and_not_assign_words(&mut self.blocks, &other.blocks)
    }

    /// Subset test `self ≤ other` (component-wise, as in the inequalities
    /// of Eq. (10)/(11)).
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        self.check_len(other);
        kernels::is_subset_words(&self.blocks, &other.blocks)
    }

    /// `true` iff `self ∩ other ≠ ∅` (the test of Eq. (4)).
    pub fn intersects(&self, other: &BitVec) -> bool {
        self.check_len(other);
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .any(|(&a, &b)| a & b != 0)
    }

    /// Index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (bi, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some(bi * BLOCK_BITS + b.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterator over the indices of set bits, in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Collects the set-bit indices into a vector (`u32` indices, matching
    /// the node-id width used throughout the workspace).
    ///
    /// Walks whole blocks with the same all-zero block skip the dense
    /// fast path of `BitMatrix::multiply_into` uses (plus an all-ones
    /// run emit), instead of probing bit by bit through the iterator.
    pub fn to_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (bi, &block) in self.blocks.iter().enumerate() {
            if block == 0 {
                continue;
            }
            let base = (bi * BLOCK_BITS) as u32;
            if block == !0u64 {
                out.extend(base..base + BLOCK_BITS as u32);
                continue;
            }
            let mut b = block;
            while b != 0 {
                out.push(base + b.trailing_zeros());
                b &= b - 1;
            }
        }
        out
    }

    /// Copies `other` into `self` without reallocating.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.check_len(other);
        self.blocks.copy_from_slice(&other.blocks);
    }

    /// Sets the bits listed in `indices` (used for OR-ing a compressed
    /// matrix row into an accumulator).
    #[inline]
    pub fn set_indices(&mut self, indices: &[u32]) {
        #[cfg(debug_assertions)]
        for &i in indices {
            debug_assert!((i as usize) < self.len);
        }
        kernels::or_scatter(&mut self.blocks, indices);
    }

    /// `true` iff any index in the sorted run is a set bit
    /// (`row ∩ self ≠ ∅` for a compressed matrix row).
    #[inline]
    pub fn intersects_indices(&self, indices: &[u32]) -> bool {
        indices.iter().any(|&i| self.get(i as usize))
    }

    /// Sets every bit in `[start, end)` to one — the dense counterpart
    /// of appending one RLE run, used when expanding run-length encoded
    /// χ vectors into dense accumulators.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        assert!(start <= end && end <= self.len, "range [{start}, {end}) out of bounds");
        if start == end {
            return;
        }
        let (first, last) = (start / BLOCK_BITS, (end - 1) / BLOCK_BITS);
        let head = !0u64 << (start % BLOCK_BITS);
        let tail = !0u64 >> (BLOCK_BITS - 1 - (end - 1) % BLOCK_BITS);
        if first == last {
            self.blocks[first] |= head & tail;
        } else {
            self.blocks[first] |= head;
            for b in &mut self.blocks[first + 1..last] {
                *b = !0u64;
            }
            self.blocks[last] |= tail;
        }
    }

    /// `true` iff some bit in `[start, end)` is set. Walks whole blocks,
    /// so run-length encoded vectors can test their gaps against a dense
    /// vector in O(range / 64).
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len`.
    pub fn any_in_range(&self, start: usize, end: usize) -> bool {
        assert!(start <= end && end <= self.len, "range [{start}, {end}) out of bounds");
        if start == end {
            return false;
        }
        let (first, last) = (start / BLOCK_BITS, (end - 1) / BLOCK_BITS);
        let head = !0u64 << (start % BLOCK_BITS);
        let tail = !0u64 >> (BLOCK_BITS - 1 - (end - 1) % BLOCK_BITS);
        if first == last {
            return self.blocks[first] & head & tail != 0;
        }
        self.blocks[first] & head != 0
            || self.blocks[first + 1..last].iter().any(|&b| b != 0)
            || self.blocks[last] & tail != 0
    }

    /// `true` iff every bit in `[start, end)` is set — the dense subset
    /// test for one RLE run.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len`.
    pub fn all_in_range(&self, start: usize, end: usize) -> bool {
        assert!(start <= end && end <= self.len, "range [{start}, {end}) out of bounds");
        if start == end {
            return true;
        }
        let (first, last) = (start / BLOCK_BITS, (end - 1) / BLOCK_BITS);
        let head = !0u64 << (start % BLOCK_BITS);
        let tail = !0u64 >> (BLOCK_BITS - 1 - (end - 1) % BLOCK_BITS);
        if first == last {
            let mask = head & tail;
            return self.blocks[first] & mask == mask;
        }
        self.blocks[first] & head == head
            && self.blocks[first + 1..last].iter().all(|&b| b == !0u64)
            && self.blocks[last] & tail == tail
    }

    /// Heap bytes held by the block storage.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u64>()
    }

    /// Storage words (`u64` blocks) — the dense side of the χ-storage
    /// accounting behind `SolveStats::chi_peak_words`.
    pub fn storage_words(&self) -> usize {
        self.blocks.len()
    }

    /// The raw `u64` blocks (low bit of block 0 is bit 0); tail bits
    /// beyond `len` are guaranteed zero. Used by the dense fast path of
    /// `BitMatrix::multiply_into`.
    #[inline]
    pub(crate) fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Mutable view of the raw blocks, for callers that hoist the kernel
    /// dispatch out of their own loops (`BitMatrix::multiply_into`).
    /// Writers must preserve the zero-tail invariant.
    #[inline]
    pub(crate) fn blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }

    fn mask_tail(&mut self) {
        let rem = self.len % BLOCK_BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    #[inline]
    fn check_len(&self, other: &BitVec) {
        assert_eq!(
            self.len, other.len,
            "bit-vector length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitVec")
            .field("len", &self.len)
            .field("ones", &self.to_indices())
            .finish()
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct Ones<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.block_idx * BLOCK_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_bits_set() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(v.none_set());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.first_one(), None);
    }

    #[test]
    fn ones_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 128, 200] {
            let v = BitVec::ones(len);
            assert_eq!(v.count_ones(), len, "len={len}");
            assert_eq!(v.iter_ones().count(), len);
        }
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec::zeros(100);
        v.set(0);
        v.set(63);
        v.set(64);
        v.set(99);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(99));
        assert!(!v.get(1) && !v.get(65));
        assert_eq!(v.count_ones(), 4);
        v.clear(63);
        assert!(!v.get(63));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut v = BitVec::zeros(10);
        v.set(10);
    }

    #[test]
    fn and_assign_reports_change() {
        let mut a = BitVec::from_indices(70, &[1, 5, 69]);
        let b = BitVec::from_indices(70, &[1, 5, 69]);
        assert!(!a.and_assign(&b), "intersection with superset is a no-op");
        let c = BitVec::from_indices(70, &[5]);
        assert!(a.and_assign(&c));
        assert_eq!(a.to_indices(), vec![5]);
    }

    #[test]
    fn or_and_not_assign() {
        let mut a = BitVec::from_indices(70, &[1]);
        let b = BitVec::from_indices(70, &[2, 69]);
        assert!(a.or_assign(&b));
        assert_eq!(a.to_indices(), vec![1, 2, 69]);
        assert!(!a.or_assign(&b));
        assert!(a.and_not_assign(&b));
        assert_eq!(a.to_indices(), vec![1]);
        assert!(!a.and_not_assign(&b));
    }

    #[test]
    fn drain_cleared_records_exactly_the_removed_bits() {
        let mut a = BitVec::from_indices(130, &[1, 63, 64, 100, 129]);
        let b = BitVec::from_indices(130, &[1, 64, 77]);
        let mut removed = vec![42u32]; // pre-existing content must survive
        assert!(a.drain_cleared(&b, &mut removed));
        assert_eq!(a.to_indices(), vec![1, 64]);
        assert_eq!(removed, vec![42, 63, 100, 129]);
        // A second drain against the same superset is a recorded no-op.
        removed.clear();
        assert!(!a.drain_cleared(&b, &mut removed));
        assert!(removed.is_empty());
    }

    #[test]
    fn subset_and_intersects() {
        let small = BitVec::from_indices(100, &[3, 50]);
        let big = BitVec::from_indices(100, &[3, 50, 99]);
        let other = BitVec::from_indices(100, &[4]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.intersects(&big));
        assert!(!small.intersects(&other));
        let empty = BitVec::zeros(100);
        assert!(empty.is_subset_of(&small));
        assert!(!empty.intersects(&small));
    }

    #[test]
    fn iter_ones_crosses_block_boundaries() {
        let idx = [0u32, 1, 63, 64, 65, 127, 128, 191];
        let v = BitVec::from_indices(192, &idx);
        assert_eq!(v.to_indices(), idx.to_vec());
    }

    #[test]
    fn first_one_finds_lowest() {
        let v = BitVec::from_indices(200, &[130, 140]);
        assert_eq!(v.first_one(), Some(130));
    }

    #[test]
    fn set_indices_and_intersects_indices() {
        let mut v = BitVec::zeros(128);
        v.set_indices(&[7, 64, 100]);
        assert_eq!(v.to_indices(), vec![7, 64, 100]);
        assert!(v.intersects_indices(&[1, 2, 100]));
        assert!(!v.intersects_indices(&[1, 2, 3]));
        assert!(!v.intersects_indices(&[]));
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = BitVec::from_indices(70, &[1, 2, 3]);
        let b = BitVec::from_indices(70, &[69]);
        a.copy_from(&b);
        assert_eq!(a.to_indices(), vec![69]);
    }

    #[test]
    fn zero_length_vector_is_well_behaved() {
        let mut v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert!(v.none_set());
        v.set_all();
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.iter_ones().count(), 0);
    }

    #[test]
    fn set_range_spans_blocks() {
        for (start, end) in [(0, 0), (3, 9), (60, 70), (0, 130), (63, 64), (64, 128), (129, 130)] {
            let mut v = BitVec::zeros(130);
            v.set_range(start, end);
            for i in 0..130 {
                assert_eq!(v.get(i), (start..end).contains(&i), "bit {i} of [{start},{end})");
            }
        }
    }

    #[test]
    fn range_queries_match_per_bit_scans() {
        let v = BitVec::from_indices(130, &[3, 4, 5, 64, 65, 129]);
        for (start, end) in [(0, 3), (3, 6), (4, 64), (6, 64), (64, 66), (66, 129), (0, 130), (7, 7)] {
            let any = (start..end).any(|i| v.get(i));
            let all = (start..end).all(|i| v.get(i));
            assert_eq!(v.any_in_range(start, end), any, "[{start},{end})");
            assert_eq!(v.all_in_range(start, end), all, "[{start},{end})");
        }
    }

    #[test]
    fn set_all_masks_tail_bits() {
        let mut v = BitVec::zeros(65);
        v.set_all();
        assert_eq!(v.count_ones(), 65);
        // Equality with an independently built all-ones vector must hold,
        // which requires the tail of the last block to stay masked.
        assert_eq!(v, BitVec::ones(65));
    }
}
