//! Property-based tests for the bit kernel: algebraic laws of the vector
//! operations, equivalence of the two `×b` evaluation strategies,
//! dense-vs-RLE agreement of every χ-storage verb, and differential
//! fuzzing of every word-kernel backend against `Scalar`.

use crate::{
    kernels, BitMatrix, BitVec, ChiBackend, ChiRead, ChiVec, CounterSlab, RleBitVec, RowSelector,
    SlabBackend,
};
use proptest::prelude::*;

const LEN: usize = 150;

fn arb_bitvec() -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(0u32..LEN as u32, 0..60)
        .prop_map(|idx| BitVec::from_indices(LEN, &idx))
}

fn arb_matrix() -> impl Strategy<Value = BitMatrix> {
    proptest::collection::vec((0u32..LEN as u32, 0u32..LEN as u32), 0..400)
        .prop_map(|edges| BitMatrix::from_edges(LEN, &edges))
}

/// A selector that is mostly ones (a few bits cleared), exercising the
/// dense block-skip fast paths — including whole all-ones blocks.
fn arb_dense_bitvec() -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(0u32..LEN as u32, 0..12).prop_map(|cleared| {
        let mut v = BitVec::ones(LEN);
        for i in cleared {
            v.clear(i as usize);
        }
        v
    })
}

/// A script of [`BitMatrix::apply_sorted`] calls: per call a sign and raw
/// entries `(row, col, k)`. An odd `k` redirects the entry to the
/// `k`-th present one, so deletes (and inserts of present entries) hit
/// far more often than uniform cells of a sparse matrix would.
type EditScript = Vec<(bool, Vec<(u32, u32, usize)>)>;

fn arb_edit_script() -> impl Strategy<Value = EditScript> {
    let entry = (0u32..LEN as u32, 0u32..LEN as u32, any::<usize>());
    proptest::collection::vec(
        (any::<bool>(), proptest::collection::vec(entry, 0..40)),
        1..8,
    )
}

/// Every reader of `m` agrees with a fresh `from_edges` of `model`.
fn assert_equals_rebuild(m: &BitMatrix, model: &std::collections::BTreeSet<(u32, u32)>) {
    let edges: Vec<(u32, u32)> = model.iter().copied().collect();
    let expected = BitMatrix::from_edges(m.dim(), &edges);
    prop_assert_eq!(m.nnz(), expected.nnz());
    prop_assert_eq!(m.nonempty_rows(), expected.nonempty_rows());
    prop_assert_eq!(m.row_summary(), expected.row_summary());
    for i in 0..m.dim() {
        prop_assert_eq!(m.row(i), expected.row(i), "row {}", i);
        prop_assert_eq!(m.row_len(i), expected.row_len(i));
        let end = (i + 7).min(m.dim());
        prop_assert_eq!(m.rows_segment(i, end), expected.rows_segment(i, end));
    }
    prop_assert_eq!(
        m.rows_segment(0, m.dim()),
        expected.rows_segment(0, m.dim())
    );
    prop_assert_eq!(m.entries().collect::<Vec<_>>(), edges);
    let (t, expected_t) = (m.transpose(), expected.transpose());
    for i in 0..m.dim() {
        prop_assert_eq!(t.row(i), expected_t.row(i), "transposed row {}", i);
    }
}

/// Reference implementation of the counter-initializing multiply: one
/// increment per (set bit of `x`, row entry) pair.
fn naive_count_into(m: &BitMatrix, x: &BitVec) -> (Vec<u32>, usize) {
    let mut counts = vec![0u32; m.dim()];
    let mut increments = 0usize;
    for i in 0..m.dim() {
        if x.get(i) {
            for &j in m.row(i) {
                counts[j as usize] += 1;
            }
            increments += m.row_len(i);
        }
    }
    (counts, increments)
}

/// Reference implementation of `x ×b A` straight from the footnote-2
/// definition: `out(j) = 1` iff `∃i. x(i) ∧ A(i,j)`.
fn naive_multiply(m: &BitMatrix, x: &BitVec) -> BitVec {
    let mut out = BitVec::zeros(m.dim());
    for i in 0..m.dim() {
        if x.get(i) {
            for &j in m.row(i) {
                out.set(j as usize);
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn and_is_intersection(a in arb_bitvec(), b in arb_bitvec()) {
        let mut c = a.clone();
        c.and_assign(&b);
        for i in 0..LEN {
            prop_assert_eq!(c.get(i), a.get(i) && b.get(i));
        }
        prop_assert!(c.is_subset_of(&a) && c.is_subset_of(&b));
    }

    #[test]
    fn or_is_union(a in arb_bitvec(), b in arb_bitvec()) {
        let mut c = a.clone();
        c.or_assign(&b);
        for i in 0..LEN {
            prop_assert_eq!(c.get(i), a.get(i) || b.get(i));
        }
        prop_assert!(a.is_subset_of(&c) && b.is_subset_of(&c));
    }

    #[test]
    fn and_not_is_difference(a in arb_bitvec(), b in arb_bitvec()) {
        let mut c = a.clone();
        c.and_not_assign(&b);
        for i in 0..LEN {
            prop_assert_eq!(c.get(i), a.get(i) && !b.get(i));
        }
        prop_assert!(!c.intersects(&b));
    }

    #[test]
    fn change_reporting_is_accurate(a in arb_bitvec(), b in arb_bitvec()) {
        let mut c = a.clone();
        let changed = c.and_assign(&b);
        prop_assert_eq!(changed, c != a);
    }

    #[test]
    fn subset_iff_intersection_is_identity(a in arb_bitvec(), b in arb_bitvec()) {
        let mut c = a.clone();
        c.and_assign(&b);
        prop_assert_eq!(a.is_subset_of(&b), c == a);
    }

    #[test]
    fn intersects_iff_nonempty_intersection(a in arb_bitvec(), b in arb_bitvec()) {
        let mut c = a.clone();
        c.and_assign(&b);
        prop_assert_eq!(a.intersects(&b), c.any_set());
    }

    #[test]
    fn iter_ones_round_trips(a in arb_bitvec()) {
        let idx = a.to_indices();
        let rebuilt = BitVec::from_indices(LEN, &idx);
        prop_assert_eq!(&rebuilt, &a);
        prop_assert_eq!(idx.len(), a.count_ones());
        prop_assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending, no dups");
    }

    #[test]
    fn rowwise_multiply_matches_definition(m in arb_matrix(), x in arb_bitvec()) {
        let mut out = BitVec::zeros(LEN);
        m.multiply_into(&x, &mut out);
        prop_assert_eq!(out, naive_multiply(&m, &x));
    }

    #[test]
    fn columnwise_equals_rowwise(m in arb_matrix(), x in arb_bitvec(), keep in arb_bitvec()) {
        // Row-wise: keep ∧ (x ×b m)
        let mut product = BitVec::zeros(LEN);
        m.multiply_into(&x, &mut product);
        let mut expected = keep.clone();
        expected.and_assign(&product);
        // Column-wise via the transpose.
        let t = m.transpose();
        let mut actual = keep.clone();
        let mut removed = Vec::new();
        t.retain_intersecting_rows(&mut actual, &x, &mut removed);
        prop_assert_eq!(&actual, &expected);
        // The scratch reports exactly keep \ result.
        let mut diff = keep.clone();
        diff.and_not_assign(&actual);
        prop_assert_eq!(removed, diff.to_indices());
    }

    /// `drain_cleared` is `and_assign` plus an exact removal log.
    #[test]
    fn drain_cleared_matches_and_assign(a in arb_bitvec(), b in arb_bitvec()) {
        let mut drained = a.clone();
        let mut removed = Vec::new();
        let changed = drained.drain_cleared(&b, &mut removed);
        let mut anded = a.clone();
        let changed_ref = anded.and_assign(&b);
        prop_assert_eq!(&drained, &anded);
        prop_assert_eq!(changed, changed_ref);
        let mut diff = a.clone();
        diff.and_not_assign(&b);
        prop_assert_eq!(removed, diff.to_indices());
    }

    /// The counter-init multiply counts exactly |column ∩ x| per column,
    /// and a column's count is zero iff the product bit is zero.
    #[test]
    fn count_into_matches_column_intersections(m in arb_matrix(), x in arb_bitvec()) {
        let mut counts = vec![0u32; LEN];
        let increments = m.count_into(&x, &mut counts);
        prop_assert_eq!(increments, counts.iter().map(|&c| c as usize).sum::<usize>());
        let t = m.transpose();
        let mut product = BitVec::zeros(LEN);
        m.multiply_into(&x, &mut product);
        for (j, &c) in counts.iter().enumerate() {
            // column j of m == row j of the transpose
            let expected = t.row(j).iter().filter(|&&i| x.get(i as usize)).count();
            prop_assert_eq!(c as usize, expected);
            prop_assert_eq!(c > 0, product.get(j));
        }
    }

    /// The dense block-skip fast path of `count_into` performs exactly
    /// the increments of the naive per-bit definition — for sparse,
    /// dense and all-ones selectors alike.
    #[test]
    fn count_into_fast_path_matches_naive(
        m in arb_matrix(),
        sparse in arb_bitvec(),
        dense in arb_dense_bitvec(),
    ) {
        for x in [&sparse, &dense, &BitVec::ones(LEN), &BitVec::zeros(LEN)] {
            let (expected, expected_increments) = naive_count_into(&m, x);
            let mut counts = vec![0u32; LEN];
            let increments = m.count_into(x, &mut counts);
            prop_assert_eq!(&counts, &expected, "selector {:?}", x);
            prop_assert_eq!(increments, expected_increments);
        }
    }

    #[test]
    fn transpose_flips_entries(m in arb_matrix()) {
        let t = m.transpose();
        for (i, j) in m.entries() {
            prop_assert!(t.get(j as usize, i as usize));
        }
        prop_assert_eq!(m.nnz(), t.nnz());
    }

    #[test]
    fn row_summary_matches_rows(m in arb_matrix()) {
        for i in 0..m.dim() {
            prop_assert_eq!(m.row_summary().get(i), !m.row(i).is_empty());
        }
    }

    /// The oracle of the in-place mutation: after any sequence of
    /// `apply_sorted` calls — with repeats, inserts of present entries
    /// and deletes of absent ones — the matrix is indistinguishable from
    /// `from_edges` of the resulting entry set, and each call reports
    /// how many entries it changed.
    #[test]
    fn apply_sorted_sequences_equal_a_rebuild(m in arb_matrix(), script in arb_edit_script()) {
        let mut m = m;
        let mut model: std::collections::BTreeSet<(u32, u32)> = m.entries().collect();
        for (insert, raw) in script {
            let mut entries: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(r, c, k)| match model.iter().nth(k % model.len().max(1)) {
                    Some(&present) if k % 2 == 1 => present,
                    _ => (r, c),
                })
                .collect();
            entries.sort_unstable();
            let before = model.len();
            for &e in &entries {
                if insert {
                    model.insert(e);
                } else {
                    model.remove(&e);
                }
            }
            let changed = m.apply_sorted(insert, &entries);
            prop_assert_eq!(changed, before.abs_diff(model.len()));
            assert_equals_rebuild(&m, &model);
        }
    }

    /// RLE ↔ dense conversion is lossless.
    #[test]
    fn rle_round_trips(a in arb_bitvec()) {
        let rle = RleBitVec::from_bitvec(&a);
        prop_assert_eq!(rle.to_bitvec(), a.clone());
        prop_assert_eq!(rle.count_ones(), a.count_ones());
        prop_assert_eq!(rle.iter_ones().collect::<Vec<_>>(), a.iter_ones().collect::<Vec<_>>());
        for i in 0..LEN {
            prop_assert_eq!(rle.get(i), a.get(i));
        }
    }

    /// Every RLE set operation agrees with its dense counterpart.
    #[test]
    fn rle_operations_match_dense(a in arb_bitvec(), b in arb_bitvec()) {
        let (ra, rb) = (RleBitVec::from_bitvec(&a), RleBitVec::from_bitvec(&b));
        let mut and_dense = a.clone();
        and_dense.and_assign(&b);
        prop_assert_eq!(ra.and(&rb).to_bitvec(), and_dense);
        let mut or_dense = a.clone();
        or_dense.or_assign(&b);
        prop_assert_eq!(ra.or(&rb).to_bitvec(), or_dense);
        prop_assert_eq!(ra.is_subset_of(&rb), a.is_subset_of(&b));
        prop_assert_eq!(ra.intersects(&rb), a.intersects(&b));
    }

    /// Runs are maximal: consecutive indices never split across runs, so
    /// the run count is exactly the number of 0→1 transitions.
    #[test]
    fn rle_runs_are_maximal(a in arb_bitvec()) {
        let rle = RleBitVec::from_bitvec(&a);
        let mut transitions = 0usize;
        let mut prev = false;
        for i in 0..LEN {
            let cur = a.get(i);
            if cur && !prev {
                transitions += 1;
            }
            prev = cur;
        }
        prop_assert_eq!(rle.num_runs(), transitions);
    }

    /// Every in-place RLE verb matches its dense counterpart — result
    /// bits, change flag, and (for the draining verb) the exact removal
    /// order.
    #[test]
    fn rle_in_place_verbs_match_dense(a in arb_bitvec(), b in arb_bitvec(), i in 0usize..LEN) {
        // and_assign (RLE × RLE).
        let mut rd = a.clone();
        let dense_changed = rd.and_assign(&b);
        let mut rr = RleBitVec::from_bitvec(&a);
        let rle_changed = rr.and_assign(&RleBitVec::from_bitvec(&b));
        prop_assert_eq!(rr.to_bitvec(), rd.clone());
        prop_assert_eq!(rle_changed, dense_changed);
        // and_assign_dense (RLE × dense).
        let mut rr = RleBitVec::from_bitvec(&a);
        prop_assert_eq!(rr.and_assign_dense(&b), dense_changed);
        prop_assert_eq!(rr.to_bitvec(), rd);
        // drain_cleared: same survivors, same removal log, same order.
        let mut dd = a.clone();
        let mut dense_removed = vec![7u32];
        let dc = dd.drain_cleared(&b, &mut dense_removed);
        let mut rr = RleBitVec::from_bitvec(&a);
        let mut rle_removed = vec![7u32];
        let rc = rr.drain_cleared(&RleBitVec::from_bitvec(&b), &mut rle_removed);
        prop_assert_eq!(rr.to_bitvec(), dd);
        prop_assert_eq!(rle_removed, dense_removed);
        prop_assert_eq!(rc, dc);
        // clear: run splitting equals dense bit clearing.
        let mut dd = a.clone();
        dd.clear(i);
        let mut rr = RleBitVec::from_bitvec(&a);
        rr.clear(i);
        prop_assert_eq!(rr.to_bitvec(), dd);
        // Dense-side subset / cover / equality views.
        let rle_a = RleBitVec::from_bitvec(&a);
        prop_assert_eq!(rle_a.is_subset_of_dense(&b), a.is_subset_of(&b));
        prop_assert_eq!(rle_a.covers_dense(&b), b.is_subset_of(&a));
        // or_into is dense or_assign.
        let mut dense_acc = b.clone();
        dense_acc.or_assign(&a);
        let mut rle_acc = b.clone();
        rle_a.or_into(&mut rle_acc);
        prop_assert_eq!(rle_acc, dense_acc);
    }

    /// RLE and dense selectors drive identical multiplications: same
    /// product, same row count, same counter increments, same probes.
    #[test]
    fn rle_selector_matches_dense_selector(m in arb_matrix(), x in arb_bitvec(), keep in arb_bitvec()) {
        let rle_x = RleBitVec::from_bitvec(&x);
        let mut dense_out = BitVec::zeros(LEN);
        let dense_rows = m.multiply_into(&x, &mut dense_out);
        let mut rle_out = BitVec::zeros(LEN);
        let rle_rows = m.multiply_into(&rle_x, &mut rle_out);
        prop_assert_eq!(&rle_out, &dense_out);
        prop_assert_eq!(rle_rows, dense_rows);

        let mut dense_counts = vec![0u32; LEN];
        let dense_incs = m.count_into(&x, &mut dense_counts);
        let mut rle_counts = vec![0u32; LEN];
        let rle_incs = m.count_into(&rle_x, &mut rle_counts);
        prop_assert_eq!(rle_counts, dense_counts);
        prop_assert_eq!(rle_incs, dense_incs);

        // intersects_indices over sorted matrix rows.
        for j in 0..LEN {
            prop_assert_eq!(
                rle_x.intersects_indices(m.row(j)),
                x.intersects_indices(m.row(j)),
                "row {}", j
            );
        }

        // The ChiVec column-wise probe matches the dense one for both
        // backends: same survivors, same removal log, same probe count.
        let t = m.transpose();
        let mut dense_keep = keep.clone();
        let mut dense_removed = Vec::new();
        let dense_res = t.retain_intersecting_rows(&mut dense_keep, &x, &mut dense_removed);
        for backend in [ChiBackend::Dense, ChiBackend::Rle] {
            let mut chi_keep = ChiVec::from_indices(LEN, &keep.to_indices(), backend);
            let probe = ChiVec::from_indices(LEN, &x.to_indices(), backend);
            let mut chi_removed = Vec::new();
            let chi_res = t.retain_intersecting_chi(&mut chi_keep, &probe, &mut chi_removed);
            prop_assert_eq!(&chi_keep, &dense_keep);
            prop_assert_eq!(&chi_removed, &dense_removed);
            prop_assert_eq!(chi_res, dense_res, "{:?}", backend);
        }
    }

    /// `ChiVec` semantic equality is backend-blind and agrees with the
    /// dense representation.
    #[test]
    fn chivec_equality_is_semantic(a in arb_bitvec(), b in arb_bitvec()) {
        let da = ChiVec::Dense(a.clone());
        let ra = ChiVec::Rle(RleBitVec::from_bitvec(&a));
        let rb = ChiVec::Rle(RleBitVec::from_bitvec(&b));
        prop_assert_eq!(&da, &ra);
        prop_assert_eq!(&ra, &a);
        prop_assert_eq!(da == rb, a == b);
        prop_assert_eq!(ra.storage_words() <= a.count_ones().max(1), true);
    }

    /// `for_each_selected_run` partitions the selection into maximal
    /// runs, and `rows_segment` over those runs visits exactly the
    /// per-row entries in the per-bit order — for dense and RLE
    /// selectors alike.
    #[test]
    fn selected_runs_flatten_to_the_per_bit_walk(m in arb_matrix(), x in arb_bitvec()) {
        let rle_x = RleBitVec::from_bitvec(&x);
        let mut per_bit: Vec<u32> = Vec::new();
        let mut bit_lookups = 0usize;
        x.for_each_selected(|i| {
            per_bit.extend_from_slice(m.row(i));
            bit_lookups += 1;
        });
        for (name, runs) in [("dense", {
            let mut r = Vec::new();
            x.for_each_selected_run(|a, b| r.push((a, b)));
            r
        }), ("rle", {
            let mut r = Vec::new();
            rle_x.for_each_selected_run(|a, b| r.push((a, b)));
            r
        })] {
            // Maximal, ascending, non-adjacent runs covering count_ones bits.
            prop_assert!(runs.windows(2).all(|w| w[0].1 < w[1].0), "{}", name);
            let covered: usize = runs.iter().map(|&(a, b)| b - a).sum();
            prop_assert_eq!(covered, x.count_ones(), "{}", name);
            prop_assert!(runs.len() <= bit_lookups.max(1), "{}", name);
            let mut per_run: Vec<u32> = Vec::new();
            for &(a, b) in &runs {
                per_run.extend_from_slice(m.rows_segment(a, b));
            }
            prop_assert_eq!(&per_run, &per_bit, "{}", name);
        }
    }

    /// The two slab backends are logically interchangeable: identical
    /// seeding increments, identical counts per column, identical
    /// decrement results — and the sparse slab never stores more words
    /// than the dense one (the spill guarantee).
    #[test]
    fn slab_backends_agree(m in arb_matrix(), x in arb_bitvec(), picks in proptest::collection::vec(0usize..LEN, 0..10)) {
        let mut dense = CounterSlab::unseeded(SlabBackend::Dense);
        let mut sparse = CounterSlab::unseeded(SlabBackend::Sparse);
        prop_assert_eq!(dense.seed(&m, &x), sparse.seed(&m, &x));
        for w in 0..LEN {
            prop_assert_eq!(dense.count(w), sparse.count(w), "column {}", w);
        }
        prop_assert!(sparse.storage_words() <= dense.storage_words());
        for w in picks {
            if dense.count(w) > 0 {
                prop_assert_eq!(dense.decrement(w), sparse.decrement(w), "column {}", w);
            }
        }
        // RLE selectors seed both backends identically too.
        let rle_x = RleBitVec::from_bitvec(&x);
        let mut dense_rle = CounterSlab::unseeded(SlabBackend::Dense);
        let mut sparse_rle = CounterSlab::unseeded(SlabBackend::Sparse);
        let inits = dense_rle.seed(&m, &rle_x);
        prop_assert_eq!(inits, sparse_rle.seed(&m, &rle_x));
        let mut reference = vec![0u32; LEN];
        prop_assert_eq!(inits, m.count_into(&x, &mut reference));
        for (w, &c) in reference.iter().enumerate() {
            prop_assert_eq!(dense_rle.count(w), c);
            prop_assert_eq!(sparse_rle.count(w), c);
        }
    }

    #[test]
    fn multiply_result_within_row_summary_of_transpose(m in arb_matrix(), x in arb_bitvec()) {
        // Every node reachable by a forward product has an incoming edge,
        // i.e. the product is bounded by b^a = row summary of the transpose.
        let mut out = BitVec::zeros(LEN);
        m.multiply_into(&x, &mut out);
        prop_assert!(out.is_subset_of(m.transpose().row_summary()));
    }

    /// Differential fuzz of the word kernels: every backend agrees with
    /// `Scalar` on result words, change flags, subset verdicts, counts
    /// and the (ordered) drain log — on random word-array lengths,
    /// including the unrolled/SIMD tail boundaries (lengths not a
    /// multiple of 4) and all-zero/all-one words.
    #[test]
    fn kernel_backends_match_scalar_wordwise(pair in arb_word_pair()) {
        use crate::KernelBackend::Scalar;
        let (a, b) = pair;
        for k in kernels::testable_backends() {
            for op in [
                kernels::and_assign_words_with as fn(crate::KernelBackend, &mut [u64], &[u64]) -> bool,
                kernels::or_assign_words_with,
                kernels::and_not_assign_words_with,
            ] {
                let mut reference = a.clone();
                let ref_changed = op(Scalar, &mut reference, &b);
                let mut words = a.clone();
                let changed = op(k, &mut words, &b);
                prop_assert_eq!(&words, &reference, "{:?}", k);
                prop_assert_eq!(changed, ref_changed, "{:?}", k);
            }
            prop_assert_eq!(
                kernels::is_subset_words_with(k, &a, &b),
                kernels::is_subset_words_with(Scalar, &a, &b),
                "{:?}", k
            );
            prop_assert_eq!(
                kernels::count_ones_words_with(k, &a),
                kernels::count_ones_words_with(Scalar, &a),
                "{:?}", k
            );
            let mut ref_words = a.clone();
            let mut ref_removed = vec![7u32]; // pre-existing content must survive
            let ref_changed = kernels::drain_cleared_words_with(Scalar, &mut ref_words, &b, &mut ref_removed);
            let mut words = a.clone();
            let mut removed = vec![7u32];
            let changed = kernels::drain_cleared_words_with(k, &mut words, &b, &mut removed);
            prop_assert_eq!(&words, &ref_words, "{:?}", k);
            prop_assert_eq!(&removed, &ref_removed, "{:?}", k);
            prop_assert_eq!(changed, ref_changed, "{:?}", k);
        }
    }

    /// The scatter kernels (row-OR accumulate, counter increments) are
    /// backend-invariant too, including repeated indices.
    #[test]
    fn kernel_scatter_matches_scalar(indices in proptest::collection::vec(0u32..=255, 0..40)) {
        use crate::KernelBackend::Scalar;
        for k in kernels::testable_backends() {
            let mut ref_blocks = vec![0u64; 4];
            kernels::or_scatter_with(Scalar, &mut ref_blocks, &indices);
            let mut blocks = vec![0u64; 4];
            kernels::or_scatter_with(k, &mut blocks, &indices);
            prop_assert_eq!(&blocks, &ref_blocks, "{:?}", k);

            let mut ref_counts = vec![0u32; 256];
            kernels::increment_scatter_with(Scalar, &mut ref_counts, &indices);
            let mut counts = vec![0u32; 256];
            kernels::increment_scatter_with(k, &mut counts, &indices);
            prop_assert_eq!(&counts, &ref_counts, "{:?}", k);
        }
    }

    /// The fused multiply+subset kernel returns exactly the unfused
    /// pair (product, subset verdict) — for dense and RLE `within`
    /// vectors alike.
    #[test]
    fn multiply_subset_into_matches_unfused(m in arb_matrix(), x in arb_bitvec(), within in arb_bitvec()) {
        let mut expected = BitVec::zeros(LEN);
        let expected_rows = m.multiply_into(&x, &mut expected);
        let expected_ok = within.is_subset_of(&expected);
        let mut out = BitVec::zeros(LEN);
        let (rows, ok) = m.multiply_subset_into(&x, &mut out, &within);
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(rows, expected_rows);
        prop_assert_eq!(ok, expected_ok);
        for backend in [ChiBackend::Dense, ChiBackend::Rle] {
            let chi_within = ChiVec::from_indices(LEN, &within.to_indices(), backend);
            let mut out = BitVec::zeros(LEN);
            let (rows, ok) = m.multiply_subset_into(&x, &mut out, &chi_within);
            prop_assert_eq!(&out, &expected, "{:?}", backend);
            prop_assert_eq!(rows, expected_rows, "{:?}", backend);
            prop_assert_eq!(ok, expected_ok, "{:?}", backend);
        }
    }

    /// The fused decrement+zero-test drain performs exactly the
    /// per-entry `decrement(w) == 0` walk: same final counters, same
    /// zero events, same order — for both slab backends (including the
    /// spilled sparse representation).
    #[test]
    fn decrement_collect_matches_per_entry_decrement(
        m in arb_matrix(),
        x in arb_bitvec(),
        picks in proptest::collection::vec(0usize..LEN, 0..30),
    ) {
        for backend in [SlabBackend::Dense, SlabBackend::Sparse] {
            let mut fused = CounterSlab::unseeded(backend);
            let mut per_entry = CounterSlab::unseeded(backend);
            fused.seed(&m, &x);
            per_entry.seed(&m, &x);
            // Cap occurrences by the live count so debug underflow
            // asserts stay quiet — exactly what the delta engine's
            // support invariant guarantees in production.
            let mut columns = Vec::new();
            for &w in &picks {
                if fused.count(w) > columns.iter().filter(|&&c| c == w as u32).count() as u32 {
                    columns.push(w as u32);
                }
            }
            let mut expected_zeroed = Vec::new();
            for &w in &columns {
                if per_entry.decrement(w as usize) == 0 {
                    expected_zeroed.push(w);
                }
            }
            let mut zeroed = Vec::new();
            let () = fused.decrement_collect(&columns, |w| zeroed.push(w));
            prop_assert_eq!(&zeroed, &expected_zeroed, "{:?}", backend);
            for w in 0..LEN {
                prop_assert_eq!(fused.count(w), per_entry.count(w), "{:?} column {}", backend, w);
            }
        }
    }

    /// `ChiRead::is_subset_of_bits` (the fused kernel's subset side)
    /// agrees with the dense subset test for every χ backend.
    #[test]
    fn chi_subset_of_bits_matches_dense(a in arb_bitvec(), b in arb_bitvec()) {
        let expected = a.is_subset_of(&b);
        prop_assert_eq!(ChiRead::is_subset_of_bits(&a, &b), expected);
        for backend in [ChiBackend::Dense, ChiBackend::Rle] {
            let chi = ChiVec::from_indices(LEN, &a.to_indices(), backend);
            prop_assert_eq!(chi.is_subset_of_bits(&b), expected, "{:?}", backend);
        }
    }
}

/// Random equal-length word arrays for the kernel differential fuzz:
/// lengths 0–12 cover the empty case, sub-chunk tails and multi-chunk
/// bodies; words are biased toward the all-zero/all-one fast-path
/// triggers.
fn arb_word_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    let word = || prop_oneof![Just(0u64), Just(!0u64), any::<u64>()];
    (
        proptest::collection::vec(word(), 12..13),
        proptest::collection::vec(word(), 12..13),
        0usize..13,
    )
        .prop_map(|(mut a, mut b, n)| {
            a.truncate(n);
            b.truncate(n);
            (a, b)
        })
}
