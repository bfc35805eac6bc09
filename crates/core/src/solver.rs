//! The SOI fixpoint solvers (Sect. 3.2) with the Sect. 3.3 evaluation
//! strategies.
//!
//! Two complete convergence engines share the entry points [`solve`] and
//! [`solve_from`], selected by [`FixpointMode`]:
//!
//! * [`FixpointMode::Reevaluate`] — the paper's algorithm: starting from
//!   the initial assignment (Eq. (12), or the tighter Eq. (13) summary
//!   initialization), repeatedly pick an *unstable* inequality,
//!   re-evaluate it as a whole bit-matrix multiplication, intersect the
//!   target variable with the product, and re-mark every inequality
//!   whose right-hand side mentions the updated variable;
//! * [`FixpointMode::DeltaCounting`] — the counting engine of
//!   [`crate::delta`]: per-(inequality, candidate) support counters turn
//!   each candidate removal into O(degree) counter decrements instead of
//!   a whole-inequality re-evaluation.
//!
//! Both terminate in the unique largest solution — the largest dual
//! simulation (Prop. 2).
//!
//! For the re-evaluation engine, two degrees of freedom are exposed,
//! matching the paper's discussion:
//!
//! * the **order** in which unstable inequalities are evaluated
//!   ([`IneqOrdering`]): syntactic query order, or matrices with more
//!   empty columns first (sparsity ⇒ early shrinking);
//! * the **evaluation strategy** per multiplication ([`EvalStrategy`]):
//!   row-wise, column-wise, or the adaptive rule "row-wise iff the
//!   source χ has fewer bits set than the target χ".

use crate::plan::SolvePlan;
use crate::{Inequality, Soi};
use dualsim_bitmatrix::{
    BitVec, ChiBackend, ChiVec, KernelBackend, SlabBackend, AUTO_RLE_DENSITY_DIVISOR,
};
use dualsim_graph::GraphDb;

/// How each bit-matrix multiplication is evaluated (Sect. 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Always OR together the matrix rows selected by the source χ.
    RowWise,
    /// Always probe candidate bits of the target χ against the transpose.
    ColumnWise,
    /// Row-wise iff `|χ(source)| ≤ |χ(target)|` — the paper's dynamic
    /// fewer-iterations heuristic.
    Adaptive,
}

/// Order in which unstable inequalities are picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IneqOrdering {
    /// The syntactic order of the query's triple patterns.
    QueryOrder,
    /// Inequalities whose matrix has more empty columns first, aiming to
    /// shrink the simulation as early as possible (Sect. 3.3).
    SparsityFirst,
}

/// Initialization of the candidate relation `S₀`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMode {
    /// `v ≤ 1` for every variable (Eq. (12)).
    AllOnes,
    /// The syntactic optimization of Eq. (13): only nodes supporting the
    /// incident edge labels are candidates.
    Summaries,
}

/// Which convergence engine drives the fixpoint computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FixpointMode {
    /// Re-evaluate a whole inequality whenever its right-hand-side
    /// variable shrank (the Sect. 3.2 algorithm, and the historical
    /// behavior of this crate).
    #[default]
    Reevaluate,
    /// Maintain per-(inequality, candidate) support counters and
    /// propagate only the *removed* bits through a worklist: clearing bit
    /// `u` from χ(source) walks `matrix.row(u)` once and decrements the
    /// support of the affected targets — O(degree) per removal, in the
    /// style of HHK removal counters. Reaches the identical largest
    /// solution.
    DeltaCounting,
}

/// Solver configuration; [`SolverConfig::default`] is the configuration
/// used for all headline experiments (adaptive strategy, sparsity-first
/// ordering, summary initialization, early exit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfig {
    /// Multiplication strategy.
    pub strategy: EvalStrategy,
    /// Inequality evaluation order.
    pub ordering: IneqOrdering,
    /// Initial candidate relation.
    pub init: InitMode,
    /// Convergence engine (whole-inequality re-evaluation vs.
    /// delta-counting removal propagation). Both reach the same largest
    /// solution; they differ only in how much work each shrink costs.
    pub fixpoint: FixpointMode,
    /// χ storage backend: dense bit vectors, run-length encoded ones,
    /// or an automatic per-solve choice from the seeded candidate
    /// density. Both concrete backends produce bit-identical χ and
    /// identical logical work counters ([`SolveStats::logical`]); they
    /// differ only in χ memory ([`SolveStats::chi_peak_words`]) and
    /// constant factors.
    pub chi_backend: ChiBackend,
    /// Support-counter storage backend of the delta-counting engine:
    /// dense `u32` arrays, sparse hash counters, or an automatic
    /// per-solve choice resolved from the *same* seeded-density bound
    /// the χ `Auto` uses. Like the χ backends, the slab backends are
    /// logically interchangeable — identical χ and identical logical
    /// work counters — and differ only in counter memory
    /// ([`SolveStats::slab_peak_words`]). Ignored by
    /// [`FixpointMode::Reevaluate`].
    pub slab_backend: SlabBackend,
    /// Abort as soon as a *mandatory* variable loses all candidates: the
    /// query then has no matches and everything can be pruned. Turn this
    /// off to obtain the mathematical largest solution even for
    /// unsatisfiable (components of) queries.
    pub early_exit: bool,
    /// Cooperative work budget for *maintenance* drains (epochs), in
    /// logical work ops ([`SolveStats::work_ops`] spent within the
    /// batch). Checked at drain round boundaries only — a runaway drain
    /// is cancelled between rounds, never mid-shard. On cancellation
    /// the epoch rolls back, the batch reports
    /// `MaintainError::BudgetExceeded`, and the engine is poisoned
    /// (the degradation ladder falls back to a cold solve). `None`
    /// (the default) never cancels. Cold solves ignore the budget —
    /// it bounds incremental maintenance, not initial convergence.
    pub drain_budget: Option<usize>,
    /// Record a rollback journal of the support counters during
    /// maintenance epochs so an erroring batch can be aborted back to
    /// the exact pre-batch state. An abort restores χ, its candidate
    /// counts and liveness in every case (the engine lends its χ as the
    /// published solution); the journal adds the counters and the stats.
    /// Journaling performs **zero** additional logical work (it only
    /// appends undo records, counted by the `journal_entries` gauge, on
    /// mutations that already happen), so its cost is a constant factor
    /// of wall time. Disabling it forgoes the counter rollback: an
    /// erroring batch still leaves the pre-batch χ in place, but the
    /// counters cannot be trusted, so the engine is poisoned and the
    /// next batch rebuilds it with a cold solve. On by default.
    pub journal: bool,
    /// Word-level kernel instantiation for the bit-vector/-matrix inner
    /// loops: portable scalar, 4×-unrolled, SIMD (AVX2 where the CPU
    /// supports it), or an automatic pick of the best available. All
    /// instantiations are bit-identical in χ and in every logical work
    /// counter — the kernel moves the same words faster, it never
    /// changes *which* words move — so every parity gate holds across
    /// backends. Resolved once per solve into the [`SolvePlan`].
    pub kernel_backend: KernelBackend,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            strategy: EvalStrategy::Adaptive,
            ordering: IneqOrdering::SparsityFirst,
            init: InitMode::Summaries,
            fixpoint: FixpointMode::Reevaluate,
            chi_backend: ChiBackend::Dense,
            slab_backend: SlabBackend::Dense,
            early_exit: true,
            drain_budget: None,
            journal: true,
            kernel_backend: KernelBackend::Auto,
        }
    }
}

/// Work counters of one solver run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Full stabilization passes over the inequality list — the paper's
    /// "iterations" (L1 needs 2, L0 more than 30).
    pub iterations: usize,
    /// Individual inequality evaluations.
    pub evaluations: usize,
    /// Evaluations that shrank a variable.
    pub updates: usize,
    /// Multiplications evaluated row-wise.
    pub rowwise: usize,
    /// Multiplications evaluated column-wise.
    pub colwise: usize,
    /// Matrix rows OR-ed by row-wise multiplications.
    pub rows_ored: usize,
    /// Candidate rows probed by column-wise evaluations.
    pub bits_probed: usize,
    /// Support-counter increments while seeding the delta engine.
    pub counter_inits: usize,
    /// Support-counter decrements during delta removal propagation.
    pub counter_decrements: usize,
    /// Support-counter increments during delta *insertion* maintenance
    /// (the counter walk over each inserted triple's matching
    /// inequalities — zero on cold solves and deletion-only streams).
    pub counter_increments: usize,
    /// Candidates optimistically re-admitted into χ by insertion
    /// maintenance (the 0→1 re-activation frontier plus the inserted
    /// endpoints); the subsequent drain culls the over-approximation,
    /// so re-admissions are an upper bound on the candidates gained.
    pub reactivations: usize,
    /// Matrix CSR row/segment lookups performed by the delta drain: the
    /// per-bit drain pays one per removed node (`M.row(u)`), the
    /// run-aware drain under RLE χ pays one per *run* of consecutive
    /// removed nodes (`M.rows_segment`). The entries walked — and hence
    /// `counter_decrements` — are identical either way; this gauge
    /// counts the row-pointer loads the run-aware drain saves. Like the
    /// storage gauges it is **not** a logical work counter: it is
    /// deterministic per χ backend (identical across slab backends)
    /// but differs *between* χ backends, so parity gates compare
    /// [`SolveStats::logical`].
    pub row_lookups: usize,
    /// `(variable, node)` removal events drained from the delta worklist.
    pub delta_removals: usize,
    /// Removal-propagation rounds of the delta drain — the points at
    /// which one round's merged removals become visible to the next.
    pub drain_rounds: usize,
    /// Per-inequality shard units processed across all drain rounds.
    pub shard_units: usize,
    /// Edge inequalities whose counter seeding was skipped at
    /// initialization because the seeded χ provably satisfies them.
    pub seeds_deferred: usize,
    /// Deferred inequalities seeded on first touch (a source shrink or a
    /// retraction reaching them) later on.
    pub lazy_seeds: usize,
    /// Total candidates after initialization (Σ|χ(v)|).
    pub initial_candidates: usize,
    /// Total candidates at the fixpoint.
    pub final_candidates: usize,
    /// Peak χ storage across the solve, in `u64`-equivalent words
    /// (dense: one per 64-bit block and variable; RLE: one per run),
    /// sampled after initialization and at every stabilization pass /
    /// drain round. This is a **storage metric, not a logical work
    /// counter**: it is deterministic for a fixed backend but differs
    /// *between* χ backends — backend-parity gates therefore compare
    /// the [`SolveStats::logical`] projection.
    pub chi_peak_words: usize,
    /// Peak support-counter storage across the solve, in
    /// `u64`-equivalent words summed over all inequalities (dense: two
    /// `u32` counters per word and matrix column; sparse: one word per
    /// supported column), sampled after eager seeding, at every drain
    /// round and after every retraction — the counter-side mirror of
    /// [`SolveStats::chi_peak_words`]. A **storage metric, not a
    /// logical work counter**: deterministic for a fixed slab backend
    /// but different *between* backends, so parity gates compare
    /// [`SolveStats::logical`]. Always 0 under
    /// [`crate::FixpointMode::Reevaluate`] and for inequalities whose
    /// seeding stayed deferred.
    pub slab_peak_words: usize,
    /// Maintenance epochs aborted and rolled back to their pre-batch
    /// state (failpoints, out-of-vocabulary batches, budget
    /// cancellations). A rollback restores χ, counters and the logical
    /// stats exactly; this counter (carried outside the restored
    /// snapshot) is how the degradation stays observable.
    pub rollbacks: usize,
    /// Times the engine was marked poisoned — after a budget
    /// cancellation or a failed rollback — forcing the next query onto
    /// the cold-solve fallback. Carried across the rebuild by
    /// [`crate::IncrementalDualSim`].
    pub poisonings: usize,
    /// Maintenance drains cancelled at a round boundary by
    /// [`SolverConfig::drain_budget`] (each one also counts a rollback
    /// and a poisoning).
    pub budget_aborts: usize,
    /// Undo records appended to the rollback journal across the run —
    /// the journal's size gauge. Journaling adds **no** logical work
    /// (every entry shadows a mutation that already happened), so like
    /// the storage gauges this is excluded from
    /// [`SolveStats::logical`]; unlike them it is identical across
    /// backends, but it differs with [`SolverConfig::journal`] on/off,
    /// which the parity gates must not see.
    pub journal_entries: usize,
    /// A mandatory variable lost all candidates (no matches exist).
    pub emptied_mandatory: bool,
}

impl SolveStats {
    /// Unified engine-work measure: rows OR-ed + candidate rows probed
    /// (the re-evaluation engine's costs) + support-counter increments
    /// and decrements (the delta engine's costs). One unit ≈ one CSR
    /// row visit or one counter touch, so the two engines are directly
    /// comparable — this is what `benchmark/` reports as
    /// `core.solver.work_ops` and `core.delta.work_ops`.
    pub fn work_ops(&self) -> usize {
        self.rows_ored
            + self.bits_probed
            + self.counter_inits
            + self.counter_decrements
            + self.counter_increments
    }

    /// The logical-work projection: every counter except the
    /// backend-dependent gauges — χ storage (`chi_peak_words`), counter
    /// storage (`slab_peak_words`) and the drain's row-pointer loads
    /// (`row_lookups`, which the run-aware RLE-χ drain compresses) —
    /// and the robustness bookkeeping (`rollbacks`, `poisonings`,
    /// `budget_aborts`, `journal_entries`), which records degradation
    /// *events* rather than fixpoint work: an aborted epoch restores
    /// the logical counters exactly, and the journal gauge depends on
    /// [`SolverConfig::journal`], so neither belongs in a parity
    /// comparison. All χ-backend × slab-backend combinations must agree
    /// on this projection bit for bit (the backend parity discipline).
    pub fn logical(&self) -> SolveStats {
        SolveStats {
            chi_peak_words: 0,
            slab_peak_words: 0,
            row_lookups: 0,
            rollbacks: 0,
            poisonings: 0,
            budget_aborts: 0,
            journal_entries: 0,
            ..self.clone()
        }
    }

    /// Folds a χ-storage sample into the peak metric.
    pub(crate) fn observe_chi_words(&mut self, words: usize) {
        self.chi_peak_words = self.chi_peak_words.max(words);
    }

    /// Folds a counter-storage sample into the peak metric.
    pub(crate) fn observe_slab_words(&mut self, words: usize) {
        self.slab_peak_words = self.slab_peak_words.max(words);
    }
}

/// Current χ storage footprint in `u64`-equivalent words.
pub(crate) fn chi_words(chi: &[ChiVec]) -> usize {
    chi.iter().map(ChiVec::storage_words).sum()
}

/// The largest solution of a system of inequalities.
#[derive(Debug, Clone)]
pub struct Solution {
    /// χ per SOI variable (indexed like `soi.vars`), behind the
    /// pluggable storage abstraction — dense or run-length encoded per
    /// [`SolverConfig::chi_backend`]. Equality is semantic, so
    /// solutions compare across backends.
    pub chi: Vec<ChiVec>,
    /// Work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// Union of the χ of all SOI variables exposed for query variable
    /// `var` — the paper's final solution per query variable (renamed
    /// surrogates are subsumed via their subset inequalities, extreme
    /// cases expose several independent surrogates, Sect. 4.4). The
    /// union is materialized densely regardless of the χ backend.
    pub fn var_solution(&self, soi: &Soi, var: &str) -> BitVec {
        let n = self.chi.first().map(ChiVec::len).unwrap_or(0);
        let mut out = BitVec::zeros(n);
        for &idx in soi.vars_for(var) {
            self.chi[idx].or_into(&mut out);
        }
        out
    }

    /// `true` iff some mandatory variable has no candidates, i.e. the
    /// query's result set is certainly empty.
    pub fn is_certainly_empty(&self) -> bool {
        self.stats.emptied_mandatory
    }
}

/// Computes the largest solution of `soi` over `db` (Sect. 3.2
/// algorithm). See [`SolverConfig`] for the tunable heuristics.
pub fn solve(db: &GraphDb, soi: &Soi, config: &SolverConfig) -> Solution {
    solve_from(db, soi, config, seed_chi(db, soi, config))
}

/// Upper bound on the seeded candidate count (Σ per variable), computed
/// from summary popcounts *without materializing any χ vector*: pinned
/// variables contribute 0/1, free variables at most the smallest
/// incident Eq.-(13) summary (or |V| under [`InitMode::AllOnes`]).
fn seeded_candidates_bound(db: &GraphDb, soi: &Soi, config: &SolverConfig) -> usize {
    let n = db.num_nodes();
    let mut bound: Vec<usize> = soi
        .vars
        .iter()
        .map(|var| match var.pinned {
            Some(Some(_)) => 1,
            Some(None) => 0,
            None => n,
        })
        .collect();
    if config.init == InitMode::Summaries {
        let dual = soi.kind == crate::SimulationKind::Dual;
        for e in &soi.edges {
            match e.label {
                Some(a) => {
                    bound[e.src] = bound[e.src].min(db.f_summary(a).count_ones());
                    if dual {
                        bound[e.dst] = bound[e.dst].min(db.b_summary(a).count_ones());
                    }
                }
                None => {
                    bound[e.src] = 0;
                    if dual {
                        bound[e.dst] = 0;
                    }
                }
            }
        }
    }
    bound.iter().sum()
}

/// The shared `Auto` predicate of the χ and counter-slab backends: a
/// compressed representation is worth it when the seeded candidate
/// density `candidates / space` is at most
/// 1/[`AUTO_RLE_DENSITY_DIVISOR`]. One definition, three call sites
/// (χ pre-seed estimate, χ exact resolution, slab resolution), so the
/// documented "same bound" invariant cannot drift.
#[inline]
pub(crate) fn auto_prefers_compressed(candidates: usize, space: usize) -> bool {
    space > 0 && candidates * AUTO_RLE_DENSITY_DIVISOR <= space
}

/// The χ backend the *seeding* phase materializes in. `Auto` decides
/// here, before any χ vector exists, from the summary-popcount upper
/// bound on the seeded candidate count — so a solve that resolves to
/// dense never pays a fragmented RLE seed, and one that resolves to RLE
/// never pays a dense allocation. The engines re-resolve against the
/// *exact* seeded counts after initialization
/// ([`SolvePlan::resolve`]); that second decision can only tighten
/// dense → RLE, whose conversion is bounded (runs ≤ candidates ≤
/// space / [`AUTO_RLE_DENSITY_DIVISOR`] = the dense block count).
fn seeding_backend(db: &GraphDb, soi: &Soi, config: &SolverConfig) -> ChiBackend {
    match config.chi_backend {
        ChiBackend::Dense => ChiBackend::Dense,
        ChiBackend::Rle => ChiBackend::Rle,
        ChiBackend::Auto => {
            let space = soi.vars.len() * db.num_nodes();
            let bound = seeded_candidates_bound(db, soi, config);
            if auto_prefers_compressed(bound, space) {
                ChiBackend::Rle
            } else {
                ChiBackend::Dense
            }
        }
    }
}

/// The Eq.-(12) starting relation with the Sect.-4.5 constant alteration:
/// all ones per variable, except constants pinned to their singleton (or
/// emptied when the constant is absent from the database).
pub(crate) fn seed_chi(db: &GraphDb, soi: &Soi, config: &SolverConfig) -> Vec<ChiVec> {
    let n = db.num_nodes();
    let backend = seeding_backend(db, soi, config);
    soi.vars
        .iter()
        .map(|var| match var.pinned {
            Some(Some(node)) => ChiVec::from_indices(n, &[node], backend),
            Some(None) => ChiVec::zeros(n, backend), // constant absent from the DB
            None => ChiVec::ones(n, backend),
        })
        .collect()
}

/// Applies the Eq.-(13) summary tightening in place (no-op under
/// [`InitMode::AllOnes`]). Shared by both fixpoint engines.
pub(crate) fn apply_summary_init(db: &GraphDb, soi: &Soi, config: &SolverConfig, chi: &mut [ChiVec]) {
    if config.init != InitMode::Summaries {
        return;
    }
    let dual = soi.kind == crate::SimulationKind::Dual;
    for e in &soi.edges {
        match e.label {
            Some(a) => {
                chi[e.src].and_assign_dense(db.f_summary(a));
                if dual {
                    // Forward-only simulation puts no incoming-edge
                    // requirement on objects (Def. 2(ii) is dropped).
                    chi[e.dst].and_assign_dense(db.b_summary(a));
                }
            }
            None => {
                // The predicate does not occur in the database: no
                // node supports the edge.
                chi[e.src].clear_all();
                if dual {
                    chi[e.dst].clear_all();
                }
            }
        }
    }
}

/// The order in which inequalities are (re-)evaluated, honoring
/// [`IneqOrdering`]. Shared by both engines (the delta engine uses it
/// for its one-time seeding pass).
pub(crate) fn evaluation_order(db: &GraphDb, soi: &Soi, config: &SolverConfig) -> Vec<u32> {
    let mut order: Vec<u32> = (0..soi.ineqs.len() as u32).collect();
    if config.ordering == IneqOrdering::SparsityFirst {
        // Fewer non-empty columns of the multiplied matrix first. The
        // columns of F^a that contain a bit are exactly the set bits of
        // b^a (and vice versa), so the key is the popcount of the
        // opposite-direction summary. The keys are materialized up
        // front: sort_by_key re-evaluates its key function O(m log m)
        // times, and each popcount is a full pass over a summary vector.
        let keys: Vec<usize> = soi
            .ineqs
            .iter()
            .map(|ineq| match *ineq {
                Inequality::Subset { .. } => 0,
                Inequality::Edge { label: None, .. } => 0,
                Inequality::Edge {
                    label: Some(a),
                    forward,
                    ..
                } => {
                    if forward {
                        db.b_summary(a).count_ones()
                    } else {
                        db.f_summary(a).count_ones()
                    }
                }
            })
            .collect();
        order.sort_by_key(|&i| (keys[i as usize], i));
    }
    order
}

/// Runs the fixpoint from a caller-provided starting relation.
///
/// `initial_chi` must be a *superset* of the largest solution (e.g. the
/// previous solution after triples were **deleted** — the largest dual
/// simulation is monotone in the database edges, so it can only shrink);
/// the fixpoint then converges to the new largest solution without
/// re-seeding from `V₁ × V₂`. This is the warm-start primitive behind
/// incremental maintenance.
///
/// # Panics
/// Panics if `initial_chi` has the wrong arity or vector lengths.
pub fn solve_from(
    db: &GraphDb,
    soi: &Soi,
    config: &SolverConfig,
    initial_chi: Vec<ChiVec>,
) -> Solution {
    let n = db.num_nodes();
    assert_eq!(initial_chi.len(), soi.vars.len(), "one χ per SOI variable");
    for c in &initial_chi {
        assert_eq!(c.len(), n, "χ length must match the node count");
    }
    match config.fixpoint {
        FixpointMode::Reevaluate => solve_reevaluate(db, soi, config, initial_chi),
        FixpointMode::DeltaCounting => crate::delta::solve_delta(db, soi, config, initial_chi),
    }
}

/// The whole-inequality re-evaluation engine ([`FixpointMode::Reevaluate`]).
fn solve_reevaluate(
    db: &GraphDb,
    soi: &Soi,
    config: &SolverConfig,
    initial_chi: Vec<ChiVec>,
) -> Solution {
    let n = db.num_nodes();
    let nv = soi.vars.len();
    let mut stats = SolveStats::default();

    // ---- Initialization: Eq. (12) / Eq. (13) plus constant pinning. ----
    let mut chi = initial_chi;
    apply_summary_init(db, soi, config, &mut chi);
    let mut counts: Vec<usize> = chi.iter().map(ChiVec::count_ones).collect();
    stats.initial_candidates = counts.iter().sum();
    let plan = SolvePlan::resolve(config, stats.initial_candidates, nv, n);
    plan.install_kernel();
    plan.apply_chi(&mut chi);
    stats.observe_chi_words(chi_words(&chi));

    if let Some(result) = check_empty_mandatory(soi, &mut chi, &counts, &mut stats, config) {
        return result;
    }

    // ---- Dependency lists: ineqs to re-mark when a variable shrinks. ----
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); nv];
    for (i, ineq) in soi.ineqs.iter().enumerate() {
        let rhs = match *ineq {
            Inequality::Edge { source, .. } => source,
            Inequality::Subset { sup, .. } => sup,
        };
        dependents[rhs].push(i as u32);
    }

    // ---- Evaluation order. ----
    let order = evaluation_order(db, soi, config);

    // ---- Fixpoint loop (step 2 of the Sect. 3.2 algorithm). ----
    let mut unstable = vec![true; soi.ineqs.len()];
    let mut n_unstable = soi.ineqs.len();
    let mut scratch = BitVec::zeros(n);
    let mut removed_scratch: Vec<u32> = Vec::new();
    // Lazily-created snapshot buffer for self-loop pattern edges,
    // reused across evaluations (allocated in the resolved χ backend on
    // first use).
    let mut snapshot_scratch: Option<ChiVec> = None;
    while n_unstable > 0 {
        stats.iterations += 1;
        for &i in &order {
            if !unstable[i as usize] {
                continue;
            }
            unstable[i as usize] = false;
            n_unstable -= 1;
            stats.evaluations += 1;
            let updated = match soi.ineqs[i as usize] {
                Inequality::Edge {
                    target,
                    source,
                    label,
                    forward,
                } => {
                    let changed = match label {
                        None => {
                            let had = counts[target] > 0;
                            chi[target].clear_all();
                            had
                        }
                        Some(a) => {
                            let row_wise = match config.strategy {
                                EvalStrategy::RowWise => true,
                                EvalStrategy::ColumnWise => false,
                                EvalStrategy::Adaptive => counts[source] <= counts[target],
                            };
                            if row_wise {
                                stats.rowwise += 1;
                                let matrix = if forward {
                                    db.forward(a)
                                } else {
                                    db.backward(a)
                                };
                                // The selector is walked in its own
                                // representation (RLE runs never
                                // densify); only the shared product
                                // scratch is dense. Fused product +
                                // subset test: a target already inside
                                // the product is stable without a
                                // second intersection pass.
                                let (rows, stable) = matrix.multiply_subset_into(
                                    &chi[source],
                                    &mut scratch,
                                    &chi[target],
                                );
                                stats.rows_ored += rows;
                                if stable {
                                    false
                                } else {
                                    chi[target].and_assign_dense(&scratch)
                                }
                            } else {
                                stats.colwise += 1;
                                // Column j of F^a is row j of B^a: probe
                                // the transpose.
                                let transpose = if forward {
                                    db.backward(a)
                                } else {
                                    db.forward(a)
                                };
                                let (changed, probed) = if source == target {
                                    // Self-loop pattern edge (v, a, v):
                                    // probe against a snapshot so the
                                    // evaluation reads the pre-update χ.
                                    let snapshot = match snapshot_scratch.as_mut() {
                                        Some(s) => {
                                            s.copy_from(&chi[source]);
                                            &*s
                                        }
                                        None => snapshot_scratch.insert(chi[source].clone()),
                                    };
                                    transpose.retain_intersecting_chi(
                                        &mut chi[target],
                                        snapshot,
                                        &mut removed_scratch,
                                    )
                                } else {
                                    let (probe, target_chi) = split_pair(&mut chi, source, target);
                                    transpose.retain_intersecting_chi(
                                        target_chi,
                                        probe,
                                        &mut removed_scratch,
                                    )
                                };
                                stats.bits_probed += probed;
                                changed
                            }
                        }
                    };
                    changed.then_some(target)
                }
                Inequality::Subset { sub, sup } => {
                    let (sup_chi, sub_chi) = split_pair(&mut chi, sup, sub);
                    sub_chi.and_assign(sup_chi).then_some(sub)
                }
            };
            if let Some(v) = updated {
                stats.updates += 1;
                counts[v] = chi[v].count_ones();
                if counts[v] == 0 && soi.vars[v].mandatory {
                    stats.emptied_mandatory = true;
                    if config.early_exit {
                        return empty_solution(&mut chi, stats);
                    }
                }
                // Re-mark every inequality whose right-hand side mentions
                // the shrunk variable — including the current one for
                // self-loop patterns (v, a, v), whose product may have
                // shrunk along with χ(v).
                for &j in &dependents[v] {
                    if !unstable[j as usize] {
                        unstable[j as usize] = true;
                        n_unstable += 1;
                    }
                }
            }
        }
        // χ-storage sample per stabilization pass: interior clears can
        // *grow* the RLE run count (splits), so the peak is not at
        // initialization.
        stats.observe_chi_words(chi_words(&chi));
    }
    stats.final_candidates = counts.iter().sum();
    Solution { chi, stats }
}

/// Immutable/mutable split borrow of two distinct vector slots.
pub(crate) fn split_pair<T>(chi: &mut [T], read: usize, write: usize) -> (&T, &mut T) {
    assert_ne!(read, write, "inequality with identical sides");
    if read < write {
        let (lo, hi) = chi.split_at_mut(write);
        (&lo[read], &mut hi[0])
    } else {
        let (lo, hi) = chi.split_at_mut(read);
        (&hi[0], &mut lo[write])
    }
}

fn check_empty_mandatory(
    soi: &Soi,
    chi: &mut [ChiVec],
    counts: &[usize],
    stats: &mut SolveStats,
    config: &SolverConfig,
) -> Option<Solution> {
    for (v, var) in soi.vars.iter().enumerate() {
        if counts[v] == 0 && var.mandatory {
            stats.emptied_mandatory = true;
            if config.early_exit {
                return Some(empty_solution(chi, stats.clone()));
            }
        }
    }
    None
}

pub(crate) fn empty_solution(chi: &mut [ChiVec], mut stats: SolveStats) -> Solution {
    for v in chi.iter_mut() {
        v.clear_all();
    }
    stats.final_candidates = 0;
    Solution {
        chi: chi.to_vec(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_sois;
    use dualsim_graph::{GraphDb, GraphDbBuilder};
    use dualsim_query::parse;

    /// The example database of Fig. 1(a). Edge directions follow the
    /// paper's narrative: only B. De Palma and G. Hamilton have both an
    /// outgoing `directed` and an outgoing `worked_with` edge, so the
    /// largest dual simulation of (X1) is exactly relation (2).
    fn fig1_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("B. De Palma", "directed", "Mission: Impossible")
            .unwrap();
        b.add_triple("B. De Palma", "worked_with", "D. Koepp")
            .unwrap();
        b.add_triple("B. De Palma", "born_in", "Newark").unwrap();
        b.add_triple("Mission: Impossible", "awarded", "Oscar")
            .unwrap();
        b.add_triple("Mission: Impossible", "genre", "Action")
            .unwrap();
        b.add_triple("Goldfinger", "genre", "Action").unwrap();
        b.add_triple("G. Hamilton", "directed", "Goldfinger")
            .unwrap();
        b.add_triple("G. Hamilton", "born_in", "Paris").unwrap();
        b.add_triple("G. Hamilton", "worked_with", "H. Saltzman")
            .unwrap();
        b.add_triple("Thunderball", "sequel_of", "Goldfinger")
            .unwrap();
        b.add_triple("From Russia with Love", "prequel_of", "Goldfinger")
            .unwrap();
        b.add_triple("Thunderball", "awarded", "BAFTA Awards")
            .unwrap();
        b.add_triple("H. Saltzman", "born_in", "Saint John")
            .unwrap();
        b.add_triple("T. Young", "directed", "From Russia with Love")
            .unwrap();
        b.add_triple("T. Young", "directed", "Thunderball").unwrap();
        b.add_triple("P.R. Hunt", "worked_with", "T. Young")
            .unwrap();
        b.add_triple("D. Koepp", "directed", "Mortdecai").unwrap();
        b.add_attribute("Newark", "population", "277140").unwrap();
        b.add_attribute("Paris", "population", "2220445").unwrap();
        b.add_attribute("Saint John", "population", "70063")
            .unwrap();
        b.finish()
    }

    fn names(db: &GraphDb, v: &dualsim_bitmatrix::BitVec) -> Vec<String> {
        v.iter_ones()
            .map(|i| db.node_name(i as u32).to_owned())
            .collect()
    }

    /// Dual simulation (2) of the paper: solving (X1) against Fig. 1(a)
    /// keeps exactly the two bold subgraphs.
    #[test]
    fn x1_against_fig1_reproduces_simulation_2() {
        let db = fig1_db();
        let q = parse("{ ?director directed ?movie . ?director worked_with ?coworker }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(&db, soi, &SolverConfig::default());
        assert!(!sol.is_certainly_empty());
        let mut directors = names(&db, &sol.var_solution(soi, "director"));
        directors.sort();
        assert_eq!(directors, vec!["B. De Palma", "G. Hamilton"]);
        let mut movies = names(&db, &sol.var_solution(soi, "movie"));
        movies.sort();
        assert_eq!(movies, vec!["Goldfinger", "Mission: Impossible"]);
        let mut coworkers = names(&db, &sol.var_solution(soi, "coworker"));
        coworkers.sort();
        assert_eq!(coworkers, vec!["D. Koepp", "H. Saltzman"]);
    }

    /// The Fig. 4 example (adapted from Ma et al.): the largest dual
    /// simulation of P = {(v,knows,w),(w,knows,v)} in K contains p4 for v
    /// even though p4 belongs to no homomorphic match.
    #[test]
    fn fig4_p4_is_not_discriminated() {
        let mut b = GraphDbBuilder::new();
        b.add_triple("p1", "knows", "p2").unwrap();
        b.add_triple("p2", "knows", "p1").unwrap();
        b.add_triple("p3", "knows", "p2").unwrap();
        b.add_triple("p2", "knows", "p3").unwrap();
        b.add_triple("p3", "knows", "p4").unwrap();
        b.add_triple("p4", "knows", "p1").unwrap();
        let db = b.finish();
        let q = parse("{ ?v knows ?w . ?w knows ?v }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(&db, soi, &SolverConfig::default());
        let v = sol.var_solution(soi, "v");
        assert!(v.get(db.node_id("p4").unwrap() as usize));
        assert_eq!(v.count_ones(), 4, "all four nodes dual-simulate v");
    }

    #[test]
    fn unsatisfiable_query_empties_everything_with_early_exit() {
        let db = fig1_db();
        // `awarded` sources are movies; movies are never born anywhere.
        let q = parse("{ ?m awarded ?a . ?m born_in ?p }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(&db, soi, &SolverConfig::default());
        assert!(sol.is_certainly_empty());
        assert!(sol.chi.iter().all(|c| c.none_set()));
    }

    #[test]
    fn disconnected_components_survive_without_early_exit() {
        let db = fig1_db();
        let q = parse("{ ?m awarded ?a . ?m born_in ?p . ?x genre ?g }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let cfg = SolverConfig {
            early_exit: false,
            ..SolverConfig::default()
        };
        let sol = solve(&db, soi, &cfg);
        assert!(sol.stats.emptied_mandatory);
        // The satisfiable genre-component keeps its candidates in the
        // largest solution even though the query as a whole has no match.
        assert!(sol.var_solution(soi, "x").any_set());
        assert!(sol.var_solution(soi, "m").none_set());
    }

    #[test]
    fn unknown_predicate_empties_incident_variables() {
        let db = fig1_db();
        let q = parse("{ ?x no_such_predicate ?y }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(&db, soi, &SolverConfig::default());
        assert!(sol.is_certainly_empty());
    }

    #[test]
    fn constants_restrict_solutions() {
        let db = fig1_db();
        let q = parse("{ ?d directed <Mission: Impossible> }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(&db, soi, &SolverConfig::default());
        assert_eq!(names(&db, &sol.var_solution(soi, "d")), vec!["B. De Palma"]);
    }

    #[test]
    fn all_strategies_agree() {
        let db = fig1_db();
        let queries = [
            "{ ?d directed ?m . ?d worked_with ?c }",
            "{ ?d directed ?m . ?m awarded ?prize . ?d born_in ?city }",
            "{ ?a directed ?m . ?m sequel_of ?m2 . ?b directed ?m2 }",
        ];
        for text in queries {
            let q = parse(text).unwrap();
            let soi = &build_sois(&db, &q)[0];
            let mut solutions = Vec::new();
            for strategy in [
                EvalStrategy::RowWise,
                EvalStrategy::ColumnWise,
                EvalStrategy::Adaptive,
            ] {
                for ordering in [IneqOrdering::QueryOrder, IneqOrdering::SparsityFirst] {
                    for init in [InitMode::AllOnes, InitMode::Summaries] {
                        for fixpoint in [FixpointMode::Reevaluate, FixpointMode::DeltaCounting] {
                            let cfg = SolverConfig {
                                strategy,
                                ordering,
                                init,
                                fixpoint,
                                early_exit: false,
                                ..SolverConfig::default()
                            };
                            solutions.push(solve(&db, soi, &cfg).chi);
                        }
                    }
                }
            }
            for s in &solutions[1..] {
                assert_eq!(s, &solutions[0], "strategies disagree on {text}");
            }
        }
    }

    #[test]
    fn summary_init_starts_tighter_than_all_ones() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m . ?d worked_with ?c }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let ones = solve(
            &db,
            soi,
            &SolverConfig {
                init: InitMode::AllOnes,
                ..SolverConfig::default()
            },
        );
        let summ = solve(&db, soi, &SolverConfig::default());
        assert!(summ.stats.initial_candidates < ones.stats.initial_candidates);
        assert_eq!(summ.stats.final_candidates, ones.stats.final_candidates);
    }

    #[test]
    fn optional_subset_inequality_is_enforced() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m OPTIONAL { ?d worked_with ?c } }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(&db, soi, &SolverConfig::default());
        // The mandatory director solution contains T. Young (directed),
        // and the optional surrogate is a subset of it.
        let d = soi.vars_for("d")[0];
        let surrogate = (0..soi.vars.len())
            .find(|&i| i != d && soi.vars[i].origin.as_deref() == Some("d"))
            .expect("renamed optional occurrence of d");
        assert!(sol.chi[surrogate].is_subset_of(&sol.chi[d]));
        assert!(sol.var_solution(soi, "d").count_ones() >= 4);
    }

    #[test]
    fn stats_reflect_the_chosen_strategy() {
        let db = fig1_db();
        let q = parse("{ ?d directed ?m . ?d worked_with ?c }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let row = solve(
            &db,
            soi,
            &SolverConfig {
                strategy: EvalStrategy::RowWise,
                ..SolverConfig::default()
            },
        );
        assert!(row.stats.rowwise > 0);
        assert_eq!(row.stats.colwise, 0);
        let col = solve(
            &db,
            soi,
            &SolverConfig {
                strategy: EvalStrategy::ColumnWise,
                ..SolverConfig::default()
            },
        );
        assert!(col.stats.colwise > 0);
        assert_eq!(col.stats.rowwise, 0);
        // Evaluations cover at least every inequality once; updates never
        // exceed evaluations; the fixpoint shrinks or keeps candidates.
        for sol in [&row, &col] {
            assert!(sol.stats.evaluations >= soi.ineqs.len());
            assert!(sol.stats.updates <= sol.stats.evaluations);
            assert!(sol.stats.final_candidates <= sol.stats.initial_candidates);
            assert!(sol.stats.iterations >= 1);
        }
    }

    #[test]
    fn colwise_handles_self_loop_patterns() {
        // Regression: the column-wise path on (v, a, v) needs a snapshot
        // instead of an aliased split borrow.
        let mut b = GraphDbBuilder::new();
        b.add_triple("x", "p", "x").unwrap();
        b.add_triple("a", "p", "b").unwrap();
        let db = b.finish();
        let q = parse("{ ?v p ?v }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(
            &db,
            soi,
            &SolverConfig {
                strategy: EvalStrategy::ColumnWise,
                early_exit: false,
                ..SolverConfig::default()
            },
        );
        let v = soi.vars_for("v")[0];
        assert_eq!(sol.chi[v].to_indices(), vec![db.node_id("x").unwrap()]);
    }

    #[test]
    fn empty_bgp_solves_trivially() {
        let db = fig1_db();
        let q = parse("{ }").unwrap();
        let soi = &build_sois(&db, &q)[0];
        let sol = solve(&db, soi, &SolverConfig::default());
        assert!(sol.chi.is_empty());
        assert!(!sol.is_certainly_empty());
    }
}
