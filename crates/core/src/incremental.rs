//! Incremental maintenance of the largest dual simulation under triple
//! deletions **and insertions**.
//!
//! The largest dual simulation is *monotone in the database edges*: any
//! dual simulation w.r.t. a sub-database is also one w.r.t. the original,
//! so deleting triples can only shrink the largest solution. The current
//! solution therefore remains a valid **starting relation** for the
//! fixpoint after deletions — the solver converges to the new largest
//! solution without re-seeding from `V₁ × V₂` (see
//! [`crate::solve_from`]), typically touching only the neighbourhood of
//! the deleted triples.
//!
//! Insertions are the hard direction: the solution can *grow*, so the
//! previous χ is no longer an upper bound and warm-starting the
//! shrink-only solver from it would miss every regained candidate. Under
//! [`FixpointMode::Reevaluate`] a cold re-solve is the only sound
//! option (the classic split in incremental simulation maintenance, cf.
//! Fan et al.'s incremental graph pattern matching line of work the
//! paper builds on). Under [`FixpointMode::DeltaCounting`], however,
//! the persistent support counters tell exactly *which* candidates may
//! return: an inserted triple increments the counters of the
//! inequalities it feeds, and the **re-activation frontier** — the
//! candidates whose support went **0→1**, plus the inserted endpoints —
//! is optimistically re-admitted into χ and cascaded to closure; the
//! standard removal drain then culls the over-approximation. Both
//! update directions thus touch only the changed triples'
//! neighbourhood, and neither ever re-evaluates an inequality
//! wholesale.
//!
//! Deletions under [`FixpointMode::DeltaCounting`] are fed *directly
//! into the delta worklist* (one counter decrement per deleted triple
//! and affected inequality) instead of re-running the solver over the
//! previous χ — the fully incremental path the `resident-*` benchmark
//! workloads measure.

use crate::delta::DeltaSolver;
use crate::durability::{self, Durability, DurabilityOptions, Recovered, SnapshotState};
use crate::{solve, solve_from, FixpointMode, MaintainError, Soi, Solution, SolverConfig};
use dualsim_graph::{GraphDb, Triple};

/// The one owner of a maintained χ. (One per instance, so the size of
/// the engine variant costs nothing worth an indirection.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Resident {
    /// The persistent delta engine (support counters included), which
    /// lends its solution ([`FixpointMode::DeltaCounting`]).
    Engine(DeltaSolver),
    /// A solution with no engine behind it ([`FixpointMode::Reevaluate`]).
    Solved(Solution),
}

/// A maintained largest-solution instance for one SOI.
#[derive(Debug)]
pub struct IncrementalDualSim {
    soi: Soi,
    config: SolverConfig,
    resident: Resident,
    /// `true` iff the last update was served incrementally.
    warm: bool,
    /// Write-ahead log + snapshot handle; `Some` iff the instance was
    /// created with [`Self::new_durable`] or by [`Self::recover`].
    durability: Option<Durability>,
    /// Committed update count: 0 after the initial solve, +1 per served
    /// batch (warm or cold). WAL record ids — each committed batch logs
    /// exactly one record carrying this epoch.
    epoch: u64,
}

impl Clone for IncrementalDualSim {
    /// Clones the resident state only: the clone is *not* durable (a
    /// WAL file handle cannot be shared by two writers). It continues
    /// from the same epoch with durability detached; attach a fresh
    /// directory via [`Self::new_durable`] if the copy must persist.
    fn clone(&self) -> Self {
        IncrementalDualSim {
            soi: self.soi.clone(),
            config: self.config.clone(),
            resident: self.resident.clone(),
            warm: self.warm,
            durability: None,
            epoch: self.epoch,
        }
    }
}

impl IncrementalDualSim {
    /// Solves from scratch and starts maintenance.
    pub fn new(db: &GraphDb, soi: Soi, config: SolverConfig) -> Self {
        let resident = match config.fixpoint {
            FixpointMode::Reevaluate => Resident::Solved(solve(db, &soi, &config)),
            FixpointMode::DeltaCounting => Resident::Engine(DeltaSolver::new(db, &soi, &config)),
        };
        IncrementalDualSim {
            soi,
            config,
            resident,
            // The initial solve is a cold solve by definition; `warm`
            // reports on *updates*, of which there have been none.
            warm: false,
            durability: None,
            epoch: 0,
        }
    }

    /// Solves from scratch and starts **durable** maintenance: a
    /// write-ahead log is created in `opts.dir` (any previous WAL or
    /// snapshots there are discarded — use [`Self::recover`] to resume
    /// an existing instance instead), every committed batch appends one
    /// checksummed record before `apply_insertions`/`apply_deletions`
    /// returns, and an initial epoch-0 snapshot of the full resident
    /// state is written so recovery always has a base to replay from.
    ///
    /// # Errors
    ///
    /// [`MaintainError::Io`] if the durability directory, the WAL, or
    /// the initial snapshot cannot be written.
    pub fn new_durable(
        db: &GraphDb,
        soi: Soi,
        config: SolverConfig,
        opts: &DurabilityOptions,
    ) -> Result<Self, MaintainError> {
        let mut sim = Self::new(db, soi, config);
        sim.durability = Some(Durability::create(opts)?);
        sim.snapshot_now(db)?;
        Ok(sim)
    }

    /// Recovers a durable instance from its directory: loads the newest
    /// snapshot whose checksum verifies, truncates any torn WAL tail,
    /// replays the WAL records past the snapshot's epoch through the
    /// ordinary maintenance paths, and resumes warm with durability
    /// re-attached. The replay is deterministic: the recovered χ and
    /// logical [`crate::SolveStats`] are bit-identical to an
    /// uninterrupted run over the same committed batch prefix.
    ///
    /// # Errors
    ///
    /// [`MaintainError::Io`] if the directory cannot be read, and
    /// [`MaintainError::Corrupt`] if no snapshot passes validation or
    /// the WAL cannot extend any verified snapshot gap-free.
    pub fn recover(opts: &DurabilityOptions) -> Result<Recovered, MaintainError> {
        durability::recover(opts, &mut durability::SharedVocab::default())
    }

    /// Rebuilds an instance from decoded snapshot state (the recovery
    /// path; durability is attached separately once the WAL tail has
    /// been replayed).
    pub(crate) fn from_restored(
        soi: Soi,
        config: SolverConfig,
        resident: Resident,
        warm: bool,
        epoch: u64,
    ) -> Self {
        IncrementalDualSim {
            soi,
            config,
            resident,
            warm,
            durability: None,
            epoch,
        }
    }

    /// Re-attaches the WAL of a recovered instance (called by
    /// [`durability::recover`] after the replay, so the replayed batches
    /// are not appended a second time).
    pub(crate) fn attach_recovered(&mut self, durability: Durability) {
        self.durability = Some(durability);
    }

    /// The committed update count: 0 after the initial solve, +1 per
    /// batch served by `apply_insertions`/`apply_deletions`. Doubles as
    /// the WAL record id of the last committed batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` iff this instance persists its updates to a write-ahead
    /// log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Writes a checksummed snapshot of the full resident state (graph,
    /// SOI, configuration, χ, support counters, statistics) to the
    /// durability directory, atomically. A no-op without durability.
    /// Older snapshots are kept: recovery falls back to them (replaying
    /// a longer WAL tail) if the newest fails its checksum.
    ///
    /// # Errors
    ///
    /// [`MaintainError::Io`] if the snapshot cannot be written; the
    /// resident state and the WAL are unaffected, so the failure costs
    /// only recovery time, never committed data.
    pub fn snapshot_now(&mut self, db: &GraphDb) -> Result<(), MaintainError> {
        let Some(durability) = &mut self.durability else {
            return Ok(());
        };
        let meta = durability.meta().to_string();
        let (engine_state, solution) = match &self.resident {
            Resident::Engine(engine) => (Some(engine.export_state()), None),
            Resident::Solved(solution) => (None, Some((&solution.chi[..], &solution.stats))),
        };
        let state = SnapshotState {
            epoch: self.epoch,
            meta: &meta,
            config: &self.config,
            db,
            soi: &self.soi,
            warm: self.warm,
            engine: engine_state,
            solution,
        };
        durability.write_snapshot(&state)
    }

    /// Applies the automatic snapshot policy
    /// ([`DurabilityOptions::snapshot_every`]) after a committed batch.
    fn snapshot_if_due(&mut self, db: &GraphDb) -> Result<(), MaintainError> {
        let Some(every) = self.durability.as_ref().and_then(Durability::snapshot_every) else {
            return Ok(());
        };
        if self.epoch.is_multiple_of(every.max(1)) {
            self.snapshot_now(db)
        } else {
            Ok(())
        }
    }

    /// The maintained solution (the engine's own χ, lent — never a
    /// copy).
    pub fn solution(&self) -> &Solution {
        match &self.resident {
            Resident::Engine(engine) => engine.solution(),
            Resident::Solved(solution) => solution,
        }
    }

    /// `Σ |χ(v)|` of [`Self::solution`] without a popcount: the delta
    /// engine's per-variable counts, or the final count of the last
    /// solve.
    pub(crate) fn candidates(&self) -> usize {
        match &self.resident {
            Resident::Engine(engine) => engine.candidates(),
            Resident::Solved(solution) => solution.stats.final_candidates,
        }
    }

    /// The maintained system.
    pub fn soi(&self) -> &Soi {
        &self.soi
    }

    /// The solver configuration this instance maintains under.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Re-establishes the largest solution after triples were **deleted**
    /// (`db_after` must be the old database minus `deleted`; duplicates
    /// within the batch are ignored).
    ///
    /// Under [`FixpointMode::Reevaluate`] this warm-starts the solver
    /// from the previous solution; under [`FixpointMode::DeltaCounting`]
    /// the deletions are pushed straight into the persistent delta
    /// queue, touching only the counters the deleted triples supported.
    ///
    /// Returns the number of candidates dropped by the update.
    ///
    /// # Errors
    ///
    /// The delta engine runs each batch inside an update epoch, so an
    /// erroring batch was rolled back to the pre-batch state before the
    /// error surfaces here. Degradations the engine can recover from on
    /// its own — a poisoned engine ([`MaintainError::Poisoned`]) or a
    /// drain-budget abort ([`MaintainError::BudgetExceeded`]) — are
    /// handled *transparently*: the update is served by a cold rebuild
    /// instead (`last_update_was_warm` reports `false`, the robustness
    /// counters carry over) and no error is returned. Only errors the
    /// caller must act on propagate: an out-of-vocabulary triple in the
    /// batch, an injected failpoint under the chaos harness, or — for a
    /// durable instance — a failed WAL append ([`MaintainError::Io`]),
    /// which rolls the in-memory batch back with it (a batch commits
    /// iff its WAL record is fully on disk). The one exception to
    /// "error ⟹ rolled back" is a failed *snapshot* after the batch
    /// committed: the error surfaces, but the batch is already durable
    /// in the WAL and [`Self::epoch`] has advanced past it.
    pub fn apply_deletions(
        &mut self,
        db_after: &GraphDb,
        deleted: &[Triple],
    ) -> Result<usize, MaintainError> {
        // Out-of-vocabulary triples are a recoverable input error the
        // engine reports itself — skip them here so the consistency
        // assert never indexes past the interned range.
        debug_assert!(
            deleted
                .iter()
                .all(|t| !in_vocabulary(db_after, t) || !db_after.contains_triple(*t)),
            "deleted triples must be absent from db_after"
        );
        let before = self.candidates();
        let epoch_next = self.epoch + 1;
        match &mut self.resident {
            Resident::Engine(engine) => {
                // The WAL append runs as the epoch's commit hook, between
                // a successful batch body and the commit: if it errors
                // the batch rolls back with it, so memory and log agree.
                let durability = &mut self.durability;
                let mut hook = || wal_append(durability, epoch_next, false, deleted);
                match engine.retract_triples_durable(
                    db_after,
                    &self.soi,
                    &self.config,
                    deleted,
                    Some(&mut hook),
                ) {
                    Ok(()) => self.warm = true,
                    Err(e) if Self::degrades_to_cold(&e) => {
                        // Served by a cold rebuild instead: log the
                        // record *before* rebuilding, so a failed append
                        // leaves the batch unserved rather than unlogged.
                        wal_append(&mut self.durability, epoch_next, false, deleted)?;
                        self.rebuild_cold(db_after);
                    }
                    Err(e) => return Err(e),
                }
            }
            Resident::Solved(solution) => {
                wal_append(&mut self.durability, epoch_next, false, deleted)?;
                // The previous χ is an upper bound of the new largest
                // solution; early exit stays valid because emptiness is
                // monotone too.
                let initial = std::mem::take(&mut solution.chi);
                *solution = solve_from(db_after, &self.soi, &self.config, initial);
                self.warm = true;
            }
        }
        self.epoch = epoch_next;
        self.snapshot_if_due(db_after)?;
        Ok(before.saturating_sub(self.candidates()))
    }

    /// Re-establishes the largest solution after triples were
    /// **inserted** (`db_after` must be the old database plus
    /// `inserted`; a triple already present before the update must not
    /// be listed, duplicates within the batch are ignored).
    ///
    /// Under [`FixpointMode::DeltaCounting`] the insertions are walked
    /// against the persistent support counters: the candidates whose
    /// support went 0→1 — plus the inserted endpoints — form the
    /// re-activation frontier, are optimistically re-admitted, and the
    /// over-approximation is culled by the standard removal drain, so
    /// the update costs work proportional to the inserted triples'
    /// neighbourhood. Under [`FixpointMode::Reevaluate`] the previous χ
    /// is no upper bound any more (the solution can grow), so the
    /// update falls back to a cold re-solve — as it does for a delta
    /// engine that a previous early exit emptied for good (the rebuild
    /// restores the counters, so later updates are incremental again).
    ///
    /// Returns the number of candidates gained by the update.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::apply_deletions`]: engine-internal
    /// degradations (poisoned engine, drain-budget abort) are served by
    /// a transparent cold rebuild, while out-of-vocabulary batches and
    /// injected failpoints roll back and propagate.
    pub fn apply_insertions(
        &mut self,
        db_after: &GraphDb,
        inserted: &[Triple],
    ) -> Result<usize, MaintainError> {
        // See `apply_deletions` on the vocabulary guard.
        debug_assert!(
            inserted
                .iter()
                .all(|t| !in_vocabulary(db_after, t) || db_after.contains_triple(*t)),
            "inserted triples must be present in db_after"
        );
        let before = self.candidates();
        let epoch_next = self.epoch + 1;
        let mut warm = false;
        if let Resident::Engine(engine) = &mut self.resident {
            // See `apply_deletions`: the WAL append is the commit hook.
            let durability = &mut self.durability;
            let mut hook = || wal_append(durability, epoch_next, true, inserted);
            match engine.insert_triples_durable(
                db_after,
                &self.soi,
                &self.config,
                inserted,
                Some(&mut hook),
            ) {
                Ok(w) => warm = w,
                Err(e) if Self::degrades_to_cold(&e) => {
                    wal_append(&mut self.durability, epoch_next, true, inserted)?;
                    self.rebuild_cold(db_after);
                    self.epoch = epoch_next;
                    self.snapshot_if_due(db_after)?;
                    return Ok(self.candidates().saturating_sub(before));
                }
                Err(e) => return Err(e),
            }
        }
        if !warm {
            // Cold serving paths commit without running the engine's
            // hook (a dead engine declines insertions before opening an
            // epoch; re-evaluation has no engine at all) — log directly,
            // before mutating, under the same append-then-serve order.
            wal_append(&mut self.durability, epoch_next, true, inserted)?;
            match self.config.fixpoint {
                FixpointMode::Reevaluate => {
                    self.resident = Resident::Solved(solve(db_after, &self.soi, &self.config));
                }
                FixpointMode::DeltaCounting => {
                    self.rebuild_cold(db_after);
                }
            }
        }
        self.warm = warm;
        self.epoch = epoch_next;
        self.snapshot_if_due(db_after)?;
        Ok(self.candidates().saturating_sub(before))
    }

    /// `true` iff the last update was served by the warm-start path
    /// (`false` before any update: the initial solve is cold).
    pub fn last_update_was_warm(&self) -> bool {
        self.warm
    }

    /// `true` iff the resident delta engine is poisoned (an aborted
    /// batch without a trustworthy rollback). The next update heals it
    /// transparently through a cold rebuild; this accessor only exists
    /// so harnesses can observe the degradation in between.
    pub fn engine_is_poisoned(&self) -> bool {
        matches!(&self.resident, Resident::Engine(engine) if engine.is_poisoned())
    }

    /// The live maintenance statistics: the stats of [`Self::solution`],
    /// which the resident delta engine keeps as it works. After a
    /// rolled-back batch they are the pre-batch stats plus the
    /// robustness counters the rollback bumped; after an abort that
    /// poisoned the engine they also keep the aborted batch's work,
    /// since only χ was restored.
    pub fn maintenance_stats(&self) -> &crate::SolveStats {
        &self.solution().stats
    }

    /// The errors [`Self::apply_insertions`] / [`Self::apply_deletions`]
    /// absorb by degrading to a cold rebuild instead of propagating:
    /// the engine poisoned itself (now or in an earlier batch), so the
    /// resident state is gone either way and a fresh solve is the
    /// serving path. Input errors and injected faults stay visible to
    /// the caller.
    fn degrades_to_cold(e: &MaintainError) -> bool {
        matches!(
            e,
            MaintainError::Poisoned | MaintainError::BudgetExceeded { .. }
        )
    }

    /// Replaces the resident engine (and solution) with a cold solve of
    /// `db_after`, carrying the robustness counters across the rebuild
    /// so `rollbacks`/`poisonings`/`budget_aborts` remain cumulative
    /// over the instance's lifetime. Serves both the dead-engine
    /// insertion fallback and the poisoned-engine degradation path.
    fn rebuild_cold(&mut self, db_after: &GraphDb) {
        let mut engine = DeltaSolver::new(db_after, &self.soi, &self.config);
        engine.carry_robustness_from(&self.solution().stats);
        self.resident = Resident::Engine(engine);
        self.warm = false;
    }
}

/// Appends one update record to the WAL, if durability is attached. A
/// free function (not a method) so the apply paths can capture the
/// `durability` field in a commit-hook closure while the `engine` field
/// is mutably borrowed — the borrows are disjoint.
fn wal_append(
    durability: &mut Option<Durability>,
    epoch: u64,
    insert: bool,
    batch: &[Triple],
) -> Result<(), MaintainError> {
    match durability {
        Some(d) => d.append(epoch, insert, batch),
        None => Ok(()),
    }
}

/// `true` iff the triple's node and label ids lie inside the database's
/// interned vocabulary (the debug consistency asserts must not index
/// past it — out-of-vocabulary triples are reported, not assumed away).
/// Not `cfg(debug_assertions)`-gated: `debug_assert!` bodies are
/// type-checked in release builds too, where the optimizer drops the
/// dead call.
pub(crate) fn in_vocabulary(db: &GraphDb, t: &Triple) -> bool {
    (t.s as usize) < db.num_nodes()
        && (t.o as usize) < db.num_nodes()
        && (t.p as usize) < db.num_labels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_sois;
    use dualsim_graph::GraphDbBuilder;
    use dualsim_query::parse;

    fn db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("a", "p", "b").unwrap();
        b.add_triple("b", "q", "c").unwrap();
        b.add_triple("d", "p", "e").unwrap();
        b.add_triple("e", "q", "f").unwrap();
        b.add_triple("g", "p", "h").unwrap();
        b.finish()
    }

    const MODES: [FixpointMode; 2] = [FixpointMode::Reevaluate, FixpointMode::DeltaCounting];

    fn cfg(fixpoint: FixpointMode) -> SolverConfig {
        SolverConfig {
            early_exit: false,
            fixpoint,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn deletion_warm_start_matches_cold_solve() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let configs = [
            cfg(FixpointMode::Reevaluate),
            cfg(FixpointMode::DeltaCounting),
        ];
        for config in configs {
            let mut inc = IncrementalDualSim::new(&db, soi.clone(), config.clone());

            // Delete the (d,p,e) edge: the d→e→f chain dies.
            let deleted: Vec<Triple> = db.triples().filter(|t| db.node_name(t.s) == "d").collect();
            let remaining: Vec<Triple> =
                db.triples().filter(|t| db.node_name(t.s) != "d").collect();
            let db_after = db.with_triples(&remaining).unwrap();

            let dropped = inc.apply_deletions(&db_after, &deleted).unwrap();
            assert!(dropped > 0);
            assert!(inc.last_update_was_warm());
            let cold = solve(&db_after, &soi, &config);
            assert_eq!(
                inc.solution().chi,
                cold.chi,
                "warm == cold after deletion ({config:?})"
            );
        }
    }

    #[test]
    fn chained_deletions_stay_consistent() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        for mode in MODES {
            let mut inc = IncrementalDualSim::new(&db, soi.clone(), cfg(mode));

            let mut triples: Vec<Triple> = db.triples().collect();
            // Remove one triple at a time; warm result must always equal
            // cold.
            while let Some(victim) = triples.pop() {
                let db_after = db.with_triples(&triples).unwrap();
                inc.apply_deletions(&db_after, &[victim]).unwrap();
                let cold = solve(&db_after, &soi, &cfg(mode));
                assert_eq!(
                    inc.solution().chi,
                    cold.chi,
                    "after removing {victim:?} ({mode:?})"
                );
            }
            assert!(inc.solution().chi.iter().all(|c| c.none_set()));
        }
    }

    #[test]
    fn delta_mode_deletions_skip_reevaluation_work() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let mut inc =
            IncrementalDualSim::new(&db, soi, cfg(FixpointMode::DeltaCounting));
        let base = inc.solution().stats.clone();
        let victim: Triple = db.triples().next().unwrap();
        let remaining: Vec<Triple> = db.triples().skip(1).collect();
        inc.apply_deletions(&db.with_triples(&remaining).unwrap(), &[victim])
            .unwrap();
        let after = inc.solution().stats.clone();
        // The update decremented counters and never multiplied a whole
        // inequality. Seeding work may grow only through the lazy first
        // touch of an inequality whose seeding was deferred at the cold
        // solve — never through a wholesale re-seed.
        assert!(after.counter_inits >= base.counter_inits);
        assert_eq!(
            after.lazy_seeds > base.lazy_seeds,
            after.counter_inits > base.counter_inits,
            "init growth is exactly lazy first-touch seeding"
        );
        assert_eq!(after.rows_ored, 0);
        assert_eq!(after.bits_probed, 0);
        assert!(after.counter_decrements > base.counter_decrements);
    }

    #[test]
    fn a_fresh_instance_reports_cold() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        for mode in MODES {
            let inc = IncrementalDualSim::new(&db, soi.clone(), cfg(mode));
            assert!(
                !inc.last_update_was_warm(),
                "the initial solve is cold by definition ({mode:?})"
            );
        }
    }

    #[test]
    fn duplicated_deletions_decrement_once() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        for mode in MODES {
            let mut inc = IncrementalDualSim::new(&db, soi.clone(), cfg(mode));
            let victim: Triple = db.triples().find(|t| db.node_name(t.s) == "d").unwrap();
            let remaining: Vec<Triple> = db.triples().filter(|&t| t != victim).collect();
            let db_after = db.with_triples(&remaining).unwrap();
            // The same triple listed three times must count once — a
            // double decrement would wrongly zero other candidates'
            // support and over-prune.
            inc.apply_deletions(&db_after, &[victim, victim, victim])
                .unwrap();
            let cold = solve(&db_after, &soi, &cfg(mode));
            assert_eq!(inc.solution().chi, cold.chi, "{mode:?}");
        }
    }

    fn mini_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_node("a", dualsim_graph::NodeKind::Iri).unwrap();
        b.add_node("b", dualsim_graph::NodeKind::Iri).unwrap();
        b.add_node("c", dualsim_graph::NodeKind::Iri).unwrap();
        b.intern_label("p");
        b.intern_label("q");
        b.add_triple("a", "p", "b").unwrap();
        b.finish()
    }

    #[test]
    fn insertions_track_cold_solves_in_both_modes() {
        let small = mini_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&small, &q).remove(0);
        for mode in MODES {
            let mut inc = IncrementalDualSim::new(&small, soi.clone(), cfg(mode));
            assert!(
                inc.solution().chi.iter().all(|c| c.none_set()),
                "no q edge yet"
            );

            // Insert (b,q,c): the chain appears. The delta engine serves
            // this from its counters; re-evaluation must cold-solve.
            let inserted = Triple::new(
                small.node_id("b").unwrap(),
                small.label_id("q").unwrap(),
                small.node_id("c").unwrap(),
            );
            let mut triples: Vec<Triple> = small.triples().collect();
            triples.push(inserted);
            let db_after = small.with_triples(&triples).unwrap();
            let gained = inc.apply_insertions(&db_after, &[inserted]).unwrap();
            assert!(gained > 0, "the chain a→b→c appeared ({mode:?})");
            assert_eq!(
                inc.last_update_was_warm(),
                mode == FixpointMode::DeltaCounting,
                "delta serves insertions incrementally, re-evaluation cold-solves"
            );
            let cold = solve(&db_after, &soi, &cfg(mode));
            assert_eq!(inc.solution().chi, cold.chi, "{mode:?}");
            let x = soi.vars_for("x")[0];
            assert!(inc.solution().chi[x].get(small.node_id("a").unwrap() as usize));

            // And further deletions keep working on the same instance.
            let deleted: Vec<Triple> = db_after.triples().skip(1).collect();
            let kept: Vec<Triple> = db_after.triples().take(1).collect();
            let db_final = db_after.with_triples(&kept).unwrap();
            inc.apply_deletions(&db_final, &deleted).unwrap();
            let cold = solve(&db_final, &soi, &cfg(mode));
            assert_eq!(inc.solution().chi, cold.chi, "{mode:?}");
        }
    }

    #[test]
    fn delta_mode_insertions_skip_reevaluation_work() {
        let small = mini_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&small, &q).remove(0);
        let mut inc = IncrementalDualSim::new(&small, soi.clone(), cfg(FixpointMode::DeltaCounting));
        let base = inc.solution().stats.clone();
        let inserted = Triple::new(
            small.node_id("b").unwrap(),
            small.label_id("q").unwrap(),
            small.node_id("c").unwrap(),
        );
        let mut triples: Vec<Triple> = small.triples().collect();
        triples.push(inserted);
        let db_after = small.with_triples(&triples).unwrap();
        inc.apply_insertions(&db_after, &[inserted]).unwrap();
        assert!(inc.last_update_was_warm());
        let after = inc.solution().stats.clone();
        // Zero wholesale re-seeds: the only evaluation-engine work is
        // whatever the cold solve already paid. Counter work grew only
        // by the inserted neighbourhood's increments (plus lazy first
        // touches of deferred inequalities) and the frontier was
        // re-admitted rather than recomputed.
        assert_eq!(after.rows_ored, 0, "no whole-inequality multiplies");
        assert_eq!(after.bits_probed, 0);
        assert_eq!(after.evaluations, base.evaluations, "no new evaluations");
        assert!(after.reactivations > 0, "the frontier was re-admitted");
        let final_count: usize = inc.solution().chi.iter().map(|c| c.count_ones()).sum();
        assert!(final_count > 0);
    }

    use crate::failpoints;

    #[test]
    fn failpoint_errors_propagate_and_leave_the_solution_unchanged() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let mut inc = IncrementalDualSim::new(&db, soi, cfg(FixpointMode::DeltaCounting));
        let pre = inc.solution().clone();
        let deleted: Vec<Triple> = db.triples().filter(|t| db.node_name(t.s) == "d").collect();
        let remaining: Vec<Triple> = db.triples().filter(|t| db.node_name(t.s) != "d").collect();
        let db_after = db.with_triples(&remaining).unwrap();
        failpoints::disarm_all();
        failpoints::arm("pre-drain", 0);
        assert_eq!(
            inc.apply_deletions(&db_after, &deleted),
            Err(MaintainError::Failpoint { point: "pre-drain" })
        );
        failpoints::disarm_all();
        assert_eq!(inc.solution().chi, pre.chi, "rolled back, not half-applied");
        assert!(!inc.engine_is_poisoned());
        // Retrying the same batch succeeds and matches a cold solve.
        let dropped = inc.apply_deletions(&db_after, &deleted).unwrap();
        assert!(dropped > 0);
        assert!(inc.last_update_was_warm());
        assert_eq!(
            inc.solution().chi,
            solve(&db_after, &inc.soi().clone(), &cfg(FixpointMode::DeltaCounting)).chi
        );
        assert_eq!(inc.solution().stats.rollbacks, 1);
    }

    #[test]
    fn budget_exhaustion_degrades_to_a_transparent_cold_rebuild() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let config = SolverConfig {
            drain_budget: Some(0),
            ..cfg(FixpointMode::DeltaCounting)
        };
        let mut inc = IncrementalDualSim::new(&db, soi.clone(), config.clone());
        let deleted: Vec<Triple> = db.triples().filter(|t| db.node_name(t.s) == "d").collect();
        let remaining: Vec<Triple> = db.triples().filter(|t| db.node_name(t.s) != "d").collect();
        let db_after = db.with_triples(&remaining).unwrap();
        // The engine aborts on budget, poisons itself — and the update
        // is still served, by the cold rebuild.
        let dropped = inc.apply_deletions(&db_after, &deleted).unwrap();
        assert!(dropped > 0);
        assert!(!inc.last_update_was_warm(), "served cold, not warm");
        assert!(!inc.engine_is_poisoned(), "the rebuild healed the engine");
        assert_eq!(inc.solution().chi, solve(&db_after, &soi, &config).chi);
        // The degradation is observable in the carried counters.
        let stats = &inc.solution().stats;
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(stats.budget_aborts, 1);
        assert_eq!(stats.poisonings, 1);
        // The rebuilt engine has fresh counters: later updates are warm
        // again (the cold solve ran without a budget — it is not a
        // maintenance drain).
        let mut triples = remaining.clone();
        let victim = triples.pop().unwrap();
        let db_final = db.with_triples(&triples).unwrap();
        inc.apply_deletions(&db_final, &[victim]).unwrap();
        assert_eq!(inc.solution().chi, solve(&db_final, &soi, &config).chi);
    }

    #[test]
    fn a_poisoned_engine_heals_on_the_next_update() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let config = cfg(FixpointMode::DeltaCounting);
        let mut inc = IncrementalDualSim::new(&db, soi.clone(), config.clone());
        let deleted: Vec<Triple> = db.triples().filter(|t| db.node_name(t.s) == "d").collect();
        let remaining: Vec<Triple> = db.triples().filter(|t| db.node_name(t.s) != "d").collect();
        let db_after = db.with_triples(&remaining).unwrap();
        // A failing rollback (both the batch and its rollback crash)
        // poisons the resident engine.
        failpoints::disarm_all();
        failpoints::arm("pre-drain", 0);
        failpoints::arm("rollback", 0);
        assert_eq!(
            inc.apply_deletions(&db_after, &deleted),
            Err(MaintainError::Failpoint { point: "pre-drain" })
        );
        failpoints::disarm_all();
        assert!(inc.engine_is_poisoned());
        // The next update heals transparently: Ok, served cold, correct.
        let dropped = inc.apply_deletions(&db_after, &deleted).unwrap();
        assert!(dropped > 0);
        assert!(!inc.last_update_was_warm());
        assert!(!inc.engine_is_poisoned());
        assert_eq!(inc.solution().chi, solve(&db_after, &soi, &config).chi);
        assert_eq!(inc.solution().stats.poisonings, 1, "carried across rebuild");
        assert_eq!(inc.solution().stats.rollbacks, 0, "the rollback failed");
    }

    use crate::DurabilityOptions;

    /// A unique scratch directory per test invocation — the container
    /// has no tempfile crate, so process id + a static counter stand in.
    fn tmpdir() -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dualsim-durability-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_updates_recover_bit_identical() {
        let db0 = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db0, &q).remove(0);
        for mode in MODES {
            let dir = tmpdir();
            let opts = DurabilityOptions::new(&dir);
            let mut durable =
                IncrementalDualSim::new_durable(&db0, soi.clone(), cfg(mode), &opts).unwrap();
            let mut plain = IncrementalDualSim::new(&db0, soi.clone(), cfg(mode));

            // Batch 1: delete the d-chain. Batch 2: insert it back.
            let batch: Vec<Triple> =
                db0.triples().filter(|t| db0.node_name(t.s) == "d").collect();
            let remaining: Vec<Triple> =
                db0.triples().filter(|t| db0.node_name(t.s) != "d").collect();
            let db1 = db0.with_triples(&remaining).unwrap();
            durable.apply_deletions(&db1, &batch).unwrap();
            plain.apply_deletions(&db1, &batch).unwrap();
            durable.apply_insertions(&db0, &batch).unwrap();
            plain.apply_insertions(&db0, &batch).unwrap();
            assert_eq!(durable.epoch(), 2);
            assert!(durable.is_durable() && !plain.is_durable());
            drop(durable); // "crash": only the durability directory survives

            let rec = IncrementalDualSim::recover(&opts).unwrap();
            assert_eq!(rec.report.snapshot_epoch, 0, "only the initial snapshot");
            assert_eq!(rec.report.records_replayed, 2);
            assert_eq!(rec.report.torn_bytes, 0);
            assert_eq!(rec.report.epoch, 2);
            assert_eq!(rec.sim.epoch(), 2);
            assert_eq!(rec.sim.solution().chi, plain.solution().chi, "{mode:?}");
            assert_eq!(
                rec.sim.maintenance_stats().logical(),
                plain.maintenance_stats().logical(),
                "recovered logical stats are bit-identical ({mode:?})"
            );
            assert_eq!(rec.db.num_triples(), db0.num_triples());
            // The recovered instance keeps serving durable updates.
            let mut rec_sim = rec.sim;
            rec_sim.apply_deletions(&db1, &batch).unwrap();
            assert_eq!(rec_sim.epoch(), 3);
            assert_eq!(
                rec_sim.solution().chi,
                solve(&db1, &soi, &cfg(mode)).chi,
                "{mode:?}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn recovery_starts_from_the_newest_snapshot() {
        let db0 = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db0, &q).remove(0);
        let dir = tmpdir();
        let mut opts = DurabilityOptions::new(&dir);
        opts.snapshot_every = Some(1);
        opts.meta = "branch 0 of { ?x p ?y }".to_string();
        let mut durable = IncrementalDualSim::new_durable(
            &db0,
            soi.clone(),
            cfg(FixpointMode::DeltaCounting),
            &opts,
        )
        .unwrap();
        let mut triples: Vec<Triple> = db0.triples().collect();
        for _ in 0..3 {
            let victim = triples.pop().unwrap();
            let db_after = db0.with_triples(&triples).unwrap();
            durable.apply_deletions(&db_after, &[victim]).unwrap();
        }
        drop(durable);
        let rec = IncrementalDualSim::recover(&opts).unwrap();
        assert_eq!(rec.report.snapshot_epoch, 3, "snapshot after every batch");
        assert_eq!(rec.report.records_replayed, 0);
        assert_eq!(rec.meta, "branch 0 of { ?x p ?y }", "meta round-trips");
        let db_after = db0.with_triples(&triples).unwrap();
        assert_eq!(
            rec.sim.solution().chi,
            solve(&db_after, &soi, &cfg(FixpointMode::DeltaCounting)).chi
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_retention_prunes_old_files_and_recovery_falls_back_across_retained() {
        let db0 = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db0, &q).remove(0);
        let dir = tmpdir();
        let mut opts = DurabilityOptions::new(&dir);
        opts.snapshot_every = Some(1);
        assert_eq!(opts.keep_snapshots, 2, "default retention window");
        let mut durable = IncrementalDualSim::new_durable(
            &db0,
            soi.clone(),
            cfg(FixpointMode::DeltaCounting),
            &opts,
        )
        .unwrap();
        let mut triples: Vec<Triple> = db0.triples().collect();
        for _ in 0..4 {
            let victim = triples.pop().unwrap();
            let db_after = db0.with_triples(&triples).unwrap();
            durable.apply_deletions(&db_after, &[victim]).unwrap();
        }
        drop(durable);
        // Five snapshots were written (epochs 0..=4); the GC kept the
        // newest two.
        let snapshot_epochs = |dir: &std::path::Path| -> Vec<u64> {
            let mut epochs: Vec<u64> = std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| {
                    let name = e.unwrap().file_name().to_string_lossy().into_owned();
                    name.strip_prefix("snapshot-")?
                        .strip_suffix(".snap")?
                        .parse()
                        .ok()
                })
                .collect();
            epochs.sort_unstable();
            epochs
        };
        assert_eq!(snapshot_epochs(&dir), vec![3, 4]);
        // Corrupt the newest retained snapshot: recovery must fall back
        // across the retention window to the older retained one and
        // replay the WAL tail past it.
        let newest = dir.join(format!("snapshot-{:020}.snap", 4));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        let rec = IncrementalDualSim::recover(&opts).unwrap();
        assert_eq!(rec.report.snapshots_skipped, 1);
        assert_eq!(rec.report.snapshot_epoch, 3);
        assert_eq!(rec.report.records_replayed, 1);
        assert_eq!(rec.report.epoch, 4);
        let db_after = db0.with_triples(&triples).unwrap();
        assert_eq!(
            rec.sim.solution().chi,
            solve(&db_after, &soi, &cfg(FixpointMode::DeltaCounting)).chi
        );
        std::fs::remove_dir_all(&dir).ok();

        // keep_snapshots = 0 disables pruning entirely.
        let dir = tmpdir();
        let mut opts = DurabilityOptions::new(&dir);
        opts.snapshot_every = Some(1);
        opts.keep_snapshots = 0;
        let mut durable = IncrementalDualSim::new_durable(
            &db0,
            soi.clone(),
            cfg(FixpointMode::DeltaCounting),
            &opts,
        )
        .unwrap();
        let mut triples: Vec<Triple> = db0.triples().collect();
        for _ in 0..3 {
            let victim = triples.pop().unwrap();
            let db_after = db0.with_triples(&triples).unwrap();
            durable.apply_deletions(&db_after, &[victim]).unwrap();
        }
        drop(durable);
        assert_eq!(snapshot_epochs(&dir), vec![0, 1, 2, 3], "all kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_wal_tail_is_truncated_to_the_last_committed_record() {
        let db0 = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db0, &q).remove(0);
        let dir = tmpdir();
        let opts = DurabilityOptions::new(&dir);
        let mut durable = IncrementalDualSim::new_durable(
            &db0,
            soi.clone(),
            cfg(FixpointMode::DeltaCounting),
            &opts,
        )
        .unwrap();
        let batch: Vec<Triple> = db0.triples().filter(|t| db0.node_name(t.s) == "d").collect();
        let remaining: Vec<Triple> =
            db0.triples().filter(|t| db0.node_name(t.s) != "d").collect();
        let db1 = db0.with_triples(&remaining).unwrap();
        durable.apply_deletions(&db1, &batch).unwrap();
        drop(durable);
        // A crash mid-append leaves a torn frame behind the committed
        // records; recovery must land on the last committed epoch.
        use std::io::Write;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        wal.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(wal);
        let rec = IncrementalDualSim::recover(&opts).unwrap();
        assert_eq!(rec.report.torn_bytes, 3);
        assert_eq!(rec.report.records_replayed, 1);
        assert_eq!(rec.report.epoch, 1);
        assert_eq!(
            rec.sim.solution().chi,
            solve(&db1, &soi, &cfg(FixpointMode::DeltaCounting)).chi
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_wal_append_rolls_back_the_batch() {
        let db0 = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db0, &q).remove(0);
        let dir = tmpdir();
        let opts = DurabilityOptions::new(&dir);
        let mut durable = IncrementalDualSim::new_durable(
            &db0,
            soi.clone(),
            cfg(FixpointMode::DeltaCounting),
            &opts,
        )
        .unwrap();
        let pre = durable.solution().clone();
        let batch: Vec<Triple> = db0.triples().filter(|t| db0.node_name(t.s) == "d").collect();
        let remaining: Vec<Triple> =
            db0.triples().filter(|t| db0.node_name(t.s) != "d").collect();
        let db1 = db0.with_triples(&remaining).unwrap();
        failpoints::disarm_all();
        failpoints::arm("wal-append", 0);
        assert_eq!(
            durable.apply_deletions(&db1, &batch),
            Err(MaintainError::Failpoint { point: "wal-append" })
        );
        failpoints::disarm_all();
        assert_eq!(durable.solution().chi, pre.chi, "rolled back with the log");
        assert_eq!(durable.epoch(), 0, "the batch never committed");
        assert!(!durable.engine_is_poisoned());
        // Retrying succeeds, and the WAL holds exactly one record.
        durable.apply_deletions(&db1, &batch).unwrap();
        assert_eq!(durable.epoch(), 1);
        drop(durable);
        let rec = IncrementalDualSim::recover(&opts).unwrap();
        assert_eq!(rec.report.records_replayed, 1);
        assert_eq!(
            rec.sim.solution().chi,
            solve(&db1, &soi, &cfg(FixpointMode::DeltaCounting)).chi
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_snapshot_leaves_the_batch_committed_and_durable() {
        let db0 = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db0, &q).remove(0);
        let dir = tmpdir();
        let mut opts = DurabilityOptions::new(&dir);
        opts.snapshot_every = Some(1);
        let mut durable = IncrementalDualSim::new_durable(
            &db0,
            soi.clone(),
            cfg(FixpointMode::DeltaCounting),
            &opts,
        )
        .unwrap();
        let batch: Vec<Triple> = db0.triples().filter(|t| db0.node_name(t.s) == "d").collect();
        let remaining: Vec<Triple> =
            db0.triples().filter(|t| db0.node_name(t.s) != "d").collect();
        let db1 = db0.with_triples(&remaining).unwrap();
        failpoints::disarm_all();
        failpoints::arm("snapshot-write", 0);
        // The documented exception: the snapshot error surfaces, but
        // the batch is already in the WAL and the epoch advanced.
        assert_eq!(
            durable.apply_deletions(&db1, &batch),
            Err(MaintainError::Failpoint {
                point: "snapshot-write"
            })
        );
        failpoints::disarm_all();
        assert_eq!(durable.epoch(), 1, "committed before the snapshot failed");
        drop(durable);
        let rec = IncrementalDualSim::recover(&opts).unwrap();
        assert_eq!(rec.report.snapshot_epoch, 0, "fell back to the initial snapshot");
        assert_eq!(rec.report.records_replayed, 1);
        assert_eq!(
            rec.sim.solution().chi,
            solve(&db1, &soi, &cfg(FixpointMode::DeltaCounting)).chi
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_vocabulary_updates_propagate_in_delta_mode() {
        let db = db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let mut inc = IncrementalDualSim::new(&db, soi, cfg(FixpointMode::DeltaCounting));
        let pre = inc.solution().clone();
        let alien = Triple::new(db.num_nodes() as u32, 0, 0);
        assert_eq!(
            inc.apply_insertions(&db, &[alien]),
            Err(MaintainError::OutOfVocabulary { triple: alien })
        );
        assert_eq!(inc.solution().chi, pre.chi);
        assert_eq!(inc.solution().stats, pre.stats, "not even an epoch opened");
    }
}
