//! Resident multi-query sessions: shared-batch maintenance with
//! per-query fault isolation, deterministic retry/backoff healing, and
//! stale-serving degradation.
//!
//! [`QuerySession`] is the server half of the resident-query direction:
//! a registry of N standing queries over **one** mutable [`GraphDb`].
//! Each registered query owns one [`IncrementalDualSim`] per union
//! branch; [`QuerySession::apply_batch`] validates and dedups a signed
//! triple batch **once**, then fans it out to every registered query,
//! collecting per-query match-set deltas (candidates gained/dropped).
//!
//! The robustness contract is the headline:
//!
//! * **Isolation** — every query's engines run inside their own update
//!   epochs with their own rollback journals, so a failure in one query
//!   (failpoint, drain-budget abort, I/O error, poisoned engine) rolls
//!   back and degrades **only that query**. All other queries commit
//!   the batch normally and stay bit-identical — χ *and* logical
//!   [`crate::SolveStats`] — to an uninterrupted run (proptest-gated).
//! * **Health ladder** — `Healthy → Degraded → Quarantined`
//!   ([`QueryHealth`]). A degraded query keeps serving its last
//!   committed match set, marked stale; missed batches accumulate in a
//!   bounded backlog.
//! * **Healing** — deterministic retry with attempt-count-driven
//!   backoff (no wall clocks anywhere in the logic): after a failure at
//!   session epoch `E`, attempt `a` becomes due at epoch
//!   `E + backoff_base · 2^(a-1)`. A due attempt replays the backlog
//!   through the ordinary maintenance paths (bit-identical to the
//!   uninterrupted run, because the rollback journal restored the
//!   pre-batch state exactly); after [`SessionOptions::max_retries`]
//!   failed replays — or when the backlog overflowed — the attempt
//!   escalates to a **cold rebuild** against the current graph. Only a
//!   rebuild that itself fails (durable state that cannot be recreated)
//!   quarantines the query; a quarantined query still serves its stale
//!   set and can be revived with an explicit [`QuerySession::heal`].
//! * **Durability composes per query** — with a
//!   [`SessionDurability`] root, every branch gets its own WAL/snapshot
//!   directory (`<root>/query-<name>/branch-<i>/`), and
//!   [`QuerySession::recover`] recovers every branch independently,
//!   quarantining unrecoverable queries instead of failing the session.

use crate::durability::{self, DurabilityOptions, SharedVocab};
use crate::errors::SessionError;
use crate::failpoints;
use crate::incremental::IncrementalDualSim;
use crate::{build_sois, MaintainError, Soi, Solution, SolveStats, SolverConfig};
use dualsim_graph::{GraphDb, GraphError, Triple};
use dualsim_query::parse;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

/// Per-query durability policy of a session (the per-branch
/// [`DurabilityOptions`] are derived from this root).
#[derive(Debug, Clone)]
pub struct SessionDurability {
    /// Root directory; each query gets `<root>/query-<name>/branch-<i>`.
    pub root: PathBuf,
    /// Automatic snapshot cadence per branch
    /// ([`DurabilityOptions::snapshot_every`]).
    pub snapshot_every: Option<u64>,
    /// Whether WAL appends and snapshots fsync.
    pub fsync: bool,
    /// Snapshot retention per branch
    /// ([`DurabilityOptions::keep_snapshots`]).
    pub keep_snapshots: usize,
}

impl SessionDurability {
    /// Durability under `root` with the library defaults (fsync on, no
    /// automatic snapshots, two retained snapshots).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        SessionDurability {
            root: root.into(),
            snapshot_every: None,
            fsync: true,
            keep_snapshots: 2,
        }
    }

    fn branch_opts(&self, name: &str, branch: usize, meta: &str) -> DurabilityOptions {
        DurabilityOptions {
            dir: branch_dir(&query_dir(&self.root, name), branch),
            snapshot_every: self.snapshot_every,
            fsync: self.fsync,
            meta: meta.to_string(),
            keep_snapshots: self.keep_snapshots,
        }
    }
}

/// The durability directory of one registered query.
pub fn query_dir(root: &Path, name: &str) -> PathBuf {
    root.join(format!("query-{name}"))
}

/// The durability directory of one union branch of a query.
pub fn branch_dir(query_dir: &Path, branch: usize) -> PathBuf {
    query_dir.join(format!("branch-{branch}"))
}

/// Session policy knobs. All healing is attempt-count-driven: the only
/// "clock" is the session epoch counter, so every run is deterministic.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Backlog-replay attempts before a due heal escalates to a cold
    /// rebuild (0 = rebuild on the first due attempt).
    pub max_retries: u32,
    /// Base of the exponential backoff, in session epochs: failed
    /// attempt `a` schedules the next one `backoff_base · 2^(a-1)`
    /// epochs later (minimum 1).
    pub backoff_base: u64,
    /// Missed batches a degraded query may accumulate for replay
    /// healing; past this the backlog is dropped and the next due
    /// attempt goes straight to a cold rebuild.
    pub max_backlog: usize,
    /// `false` sends a failed query straight to `Quarantined` (serving
    /// stale until an explicit [`QuerySession::heal`]) instead of the
    /// degrade/retry ladder.
    pub auto_heal: bool,
    /// Per-query durability; `None` keeps the session memory-only.
    pub durability: Option<SessionDurability>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            max_retries: 2,
            backoff_base: 1,
            max_backlog: 32,
            auto_heal: true,
            durability: None,
        }
    }
}

/// Where a registered query sits on the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryHealth {
    /// Tracking the session graph; its match set is current.
    Healthy,
    /// A batch failed: the query serves its last committed match set
    /// (stale), missed batches accumulate in the backlog, and healing
    /// retries are scheduled by attempt-count backoff.
    Degraded {
        /// The last session epoch this query's match set fully reflects.
        stale_since_epoch: u64,
        /// Failed healing attempts so far.
        attempts: u32,
        /// The session epoch at which the next healing attempt is due.
        next_attempt_epoch: u64,
    },
    /// Healing gave up (a cold rebuild itself failed) or recovery could
    /// not reconstruct the query. Serves its stale set — possibly a
    /// subset of branches, possibly nothing — until an explicit
    /// [`QuerySession::heal`] succeeds.
    Quarantined {
        /// The last session epoch this query's match set fully reflects.
        stale_since_epoch: u64,
        /// Why the query was quarantined.
        detail: String,
    },
}

impl QueryHealth {
    /// `true` iff the query's served match set tracks the session graph.
    pub fn is_healthy(&self) -> bool {
        matches!(self, QueryHealth::Healthy)
    }
}

impl std::fmt::Display for QueryHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryHealth::Healthy => write!(f, "healthy"),
            QueryHealth::Degraded {
                stale_since_epoch,
                attempts,
                next_attempt_epoch,
            } => write!(
                f,
                "degraded (serving epoch {stale_since_epoch} stale, {attempts} failed \
                 attempt(s), next attempt at epoch {next_attempt_epoch})"
            ),
            QueryHealth::Quarantined {
                stale_since_epoch,
                detail,
            } => write!(
                f,
                "quarantined (serving epoch {stale_since_epoch} stale: {detail})"
            ),
        }
    }
}

/// How one query fared in one shared batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The batch applied; the match-set delta and whether every branch
    /// was served warm (incrementally).
    Committed {
        /// Candidates that entered the match set.
        gained: usize,
        /// Candidates that left the match set.
        dropped: usize,
        /// `true` iff every branch served the batch incrementally.
        warm: bool,
    },
    /// The query failed this batch and was degraded (or quarantined);
    /// its engines were rolled back to the pre-batch state, which it
    /// keeps serving as stale.
    Failed {
        /// The per-query maintenance error.
        error: MaintainError,
        /// The health the failure left the query in.
        health: QueryHealth,
    },
    /// The query was already degraded/quarantined and no healing
    /// attempt was due: the batch went to its backlog (or was dropped
    /// past the backlog bound) and it keeps serving stale.
    Stale {
        /// The query's (unchanged) health.
        health: QueryHealth,
    },
    /// A due healing attempt succeeded: the query is `Healthy` again
    /// and current through this batch. The delta is measured against
    /// the stale set it served before healing.
    Healed {
        /// Which escalation rung healed it.
        via: HealPath,
        /// Candidates gained relative to the stale served set.
        gained: usize,
        /// Candidates dropped relative to the stale served set.
        dropped: usize,
    },
}

/// Which rung of the healing escalation succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealPath {
    /// The missed-batch backlog replayed through the ordinary
    /// maintenance paths (bit-identical to the uninterrupted run).
    Replay,
    /// Fresh engines were cold-built against the current graph.
    Rebuild,
}

/// What one [`QuerySession::apply_batch`] call did.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The session epoch this batch committed as.
    pub epoch: u64,
    /// `true` for an insertion batch, `false` for a deletion batch.
    pub insert: bool,
    /// Triples actually applied after dedup and no-op filtering.
    pub applied: usize,
    /// Duplicate triples dropped by the shared dedup.
    pub deduped: usize,
    /// No-op triples dropped (inserts of present / deletes of absent).
    pub noops: usize,
    /// Per-query outcome, in registry (name) order.
    pub outcomes: BTreeMap<String, QueryOutcome>,
}

/// Cumulative session-level counters (engine-level work lives in each
/// branch's [`SolveStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Batches committed by [`QuerySession::apply_batch`].
    pub batches: usize,
    /// Triples validated by the shared vocabulary check (once per
    /// batch, not once per query — the amortization the session buys).
    pub triples_validated: usize,
    /// Duplicates dropped by the shared dedup.
    pub duplicates_dropped: usize,
    /// No-op triples dropped by the shared filter.
    pub noops_dropped: usize,
    /// Per-branch engine applications fanned out (commits and the
    /// replay applications of healing).
    pub fanout_applications: usize,
    /// Per-query batch failures (each one degraded or quarantined a
    /// query).
    pub failures: usize,
    /// Backlog-replay healing attempts that failed and re-scheduled.
    pub failed_retries: usize,
    /// Queries healed by backlog replay.
    pub replay_heals: usize,
    /// Queries healed by cold rebuild.
    pub rebuild_heals: usize,
    /// Transitions into `Quarantined`.
    pub quarantines: usize,
}

/// One registered standing query: its per-branch engines plus the
/// healing state machine around them.
#[derive(Debug)]
struct RegisteredQuery {
    /// The query text (also each branch's durability metadata) —
    /// rebuilds re-derive the SOIs from it.
    text: String,
    config: SolverConfig,
    /// One engine per union branch. Normally `build_sois(text).len()`
    /// long; a quarantined query recovered from partial durable state
    /// may hold fewer (heal rebuilds the full set from `text`).
    branches: Vec<IncrementalDualSim>,
    health: QueryHealth,
    /// Every effective batch the session committed since this query
    /// degraded, oldest first. The graph the query still reflects — its
    /// replay base — is the session graph with these batches undone, so
    /// no copy of it is kept. `None` once replay is forfeited (backlog
    /// overflow, inconsistent undo, quarantine): the next due heal is a
    /// cold rebuild.
    backlog: Option<VecDeque<(bool, Vec<Triple>)>>,
}

impl RegisteredQuery {
    /// Total candidates over every branch's current χ — the served
    /// match-set size.
    fn candidates(&self) -> usize {
        self.branches.iter().map(IncrementalDualSim::candidates).sum()
    }
}

/// How one query came out of [`QuerySession::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryRecovery {
    /// Every branch recovered and agrees with the session graph; the
    /// query serves current results.
    Recovered {
        /// Sum of WAL records replayed across branches.
        records_replayed: usize,
        /// Sum of snapshots skipped (corrupt, fell back) across branches.
        snapshots_skipped: usize,
    },
    /// Every branch recovered but the query's graph lags the session's
    /// (e.g. the crash hit mid-fan-out): registered `Degraded`, serving
    /// its recovered state as stale; the next batch (or an explicit
    /// heal) cold-rebuilds it against the session graph.
    Stale,
    /// One or more branches were unrecoverable: registered
    /// `Quarantined`, serving whatever branches did recover (possibly
    /// none) as stale until an explicit heal rebuilds from the query
    /// text.
    Quarantined {
        /// The first unrecoverable branch's error.
        detail: String,
    },
}

/// The result of [`QuerySession::recover`]: the serving session plus a
/// per-query account of how recovery went.
#[derive(Debug)]
pub struct SessionRecovery {
    /// The recovered session, serving immediately.
    pub session: QuerySession,
    /// Per-query recovery outcome, in registry order.
    pub reports: BTreeMap<String, QueryRecovery>,
}

/// A registry of standing queries maintained against one shared mutable
/// graph — see the module docs for the full contract.
#[derive(Debug)]
pub struct QuerySession {
    db: GraphDb,
    queries: BTreeMap<String, RegisteredQuery>,
    /// Committed shared batches.
    epoch: u64,
    opts: SessionOptions,
    stats: SessionStats,
}

impl QuerySession {
    /// Opens a session over `db` with no registered queries.
    pub fn new(db: GraphDb, opts: SessionOptions) -> Self {
        QuerySession {
            db,
            queries: BTreeMap::new(),
            epoch: 0,
            opts,
            stats: SessionStats::default(),
        }
    }

    /// Registers a standing query under `name`: parses `text`, builds
    /// its union-branch SOIs against the current graph, cold-solves
    /// each branch (durably, when the session has a durability root —
    /// any previous durable state under the query's directory is
    /// discarded), and starts maintaining it from the current epoch.
    /// Returns the number of union branches.
    ///
    /// # Errors
    ///
    /// [`SessionError::DuplicateQuery`], [`SessionError::InvalidName`],
    /// [`SessionError::Parse`], or [`SessionError::Query`] if durable
    /// initial state cannot be written.
    pub fn register(
        &mut self,
        name: &str,
        text: &str,
        config: SolverConfig,
    ) -> Result<usize, SessionError> {
        if self.queries.contains_key(name) {
            return Err(SessionError::DuplicateQuery { name: name.into() });
        }
        validate_name(name)?;
        let branches = build_branches(&self.db, name, text, &config, self.opts.durability.as_ref())?;
        let n = branches.len();
        self.queries.insert(
            name.to_string(),
            RegisteredQuery {
                text: text.to_string(),
                config,
                branches,
                health: QueryHealth::Healthy,
                backlog: None,
            },
        );
        Ok(n)
    }

    /// Removes a standing query from the registry. Durable state on
    /// disk is left in place (recovery will report it; re-registering
    /// the name discards it).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn deregister(&mut self, name: &str) -> Result<(), SessionError> {
        self.queries
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })
    }

    /// Applies one signed batch to the whole registry: validates and
    /// dedups **once**, merges it into the session graph in place
    /// ([`GraphDb::apply`]: the labels of the batch, not the graph), and
    /// fans the effective batch out to every registered query in name
    /// order — healthy queries apply it under their own epoch/journal,
    /// degraded queries backlog it or run a due healing attempt,
    /// quarantined queries keep serving stale. Per-query failures never
    /// surface here: they degrade only the affected query and are
    /// reported in the returned [`BatchReport`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Batch`] if a triple fails vocabulary validation
    /// — the whole batch is rejected and **no** query (and no session
    /// state) is touched.
    pub fn apply_batch(
        &mut self,
        insert: bool,
        triples: &[Triple],
    ) -> Result<BatchReport, SessionError> {
        // One shared validation + dedup + no-op filter for all queries:
        // the graph itself answers presence and returns what changed.
        let applied = self.db.apply(insert, triples).map_err(|e| match e {
            GraphError::ForeignTriple { triple, .. } => SessionError::Batch {
                error: MaintainError::OutOfVocabulary { triple },
            },
            other => SessionError::Batch {
                error: MaintainError::Corrupt {
                    detail: other.to_string(),
                },
            },
        })?;
        self.stats.triples_validated += triples.len();
        let batch = applied.effective;
        let deduped = triples.len() - applied.distinct;
        let noops = applied.distinct - batch.len();
        self.stats.duplicates_dropped += deduped;
        self.stats.noops_dropped += noops;
        if batch.is_empty() {
            // Nothing effective: no epoch, no fan-out — every engine
            // sees exactly the same call sequence as a session fed
            // pre-filtered batches.
            return Ok(BatchReport {
                epoch: self.epoch,
                insert,
                applied: 0,
                deduped,
                noops,
                outcomes: BTreeMap::new(),
            });
        }
        let target_epoch = self.epoch + 1;

        let mut outcomes = BTreeMap::new();
        for (name, q) in self.queries.iter_mut() {
            let outcome = match &q.health {
                QueryHealth::Healthy => fan_healthy(
                    q,
                    &mut self.db,
                    insert,
                    &batch,
                    target_epoch,
                    &self.opts,
                    &mut self.stats,
                ),
                QueryHealth::Degraded {
                    next_attempt_epoch, ..
                } if target_epoch >= *next_attempt_epoch => heal_due(
                    q,
                    name,
                    &self.db,
                    insert,
                    &batch,
                    target_epoch,
                    &self.opts,
                    &mut self.stats,
                ),
                QueryHealth::Degraded { .. } => {
                    push_backlog(q, insert, &batch, self.opts.max_backlog);
                    QueryOutcome::Stale {
                        health: q.health.clone(),
                    }
                }
                QueryHealth::Quarantined { .. } => QueryOutcome::Stale {
                    health: q.health.clone(),
                },
            };
            outcomes.insert(name.clone(), outcome);
        }

        self.epoch = target_epoch;
        self.stats.batches += 1;
        Ok(BatchReport {
            epoch: target_epoch,
            insert,
            applied: batch.len(),
            deduped,
            noops,
            outcomes,
        })
    }

    /// Forces a healing attempt for one query, out of band: a degraded
    /// query with a replay base replays its backlog; otherwise (or on a
    /// quarantined query) its engines are cold-rebuilt from the query
    /// text against the current graph. On success the query is
    /// `Healthy` and current.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`]; [`SessionError::Query`] if the
    /// attempt failed (the query keeps its previous health and stale
    /// serving).
    pub fn heal(&mut self, name: &str) -> Result<(), SessionError> {
        let q = self
            .queries
            .get_mut(name)
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })?;
        if q.health.is_healthy() {
            return Ok(());
        }
        if q.backlog.is_some() {
            if replay_backlog(q, &self.db, &mut self.stats) {
                q.health = QueryHealth::Healthy;
                self.stats.replay_heals += 1;
                return Ok(());
            }
            self.stats.failed_retries += 1;
        }
        match rebuild(q, name, &self.db, &self.opts) {
            Ok(()) => {
                self.stats.rebuild_heals += 1;
                Ok(())
            }
            Err(error) => {
                quarantine(q, &mut self.stats, error.to_string());
                Err(SessionError::Query {
                    name: name.into(),
                    error,
                })
            }
        }
    }

    /// Recovers a durable session from its root directory: every
    /// `query-<name>/branch-<i>` directory is recovered independently,
    /// as [`IncrementalDualSim::recover`] does, except that branches
    /// whose snapshots carry the same vocabulary share one decoded copy.
    /// The first fully recovered query (in name order — the fan-out
    /// order, so it is the furthest-committed one after a mid-fan-out
    /// crash) defines the session graph; queries lagging it come back `Degraded`
    /// (stale-serving, healed by rebuild on the next batch), and
    /// queries with unrecoverable branches come back `Quarantined`
    /// instead of failing the session.
    ///
    /// # Errors
    ///
    /// [`SessionError::Recovery`] if `opts` has no durability root, the
    /// root has no query directories, or no query recovers fully (there
    /// is then no graph to serve against; the detail names the first
    /// query's failure).
    pub fn recover(opts: SessionOptions) -> Result<SessionRecovery, SessionError> {
        let sd = opts
            .durability
            .clone()
            .ok_or_else(|| SessionError::Recovery {
                detail: "session options carry no durability root".into(),
            })?;
        let names = scan_query_dirs(&sd.root)?;
        if names.is_empty() {
            return Err(SessionError::Recovery {
                detail: format!("{}: no query-* directories", sd.root.display()),
            });
        }

        // The session graph is the first fully recovered query's, in name
        // order. Every later query is compared with it as soon as it has
        // recovered, and its own graph is dropped then.
        let mut vocab = SharedVocab::default();
        let mut canonical: Option<GraphDb> = None;
        let mut first_failure: Option<String> = None;
        let mut queries = Vec::with_capacity(names.len());
        for name in names {
            let set = recover_branches(&sd, &name, &mut vocab);
            let recovered = QueryRecovery::Recovered {
                records_replayed: set.records_replayed,
                snapshots_skipped: set.snapshots_skipped,
            };
            let report = match (set.failure, set.db) {
                (None, Some(db)) => match &canonical {
                    Some(session_db) if !db.same_triples(session_db) => QueryRecovery::Stale,
                    Some(_) => recovered,
                    None => {
                        canonical = Some(db);
                        recovered
                    }
                },
                (failure, _) => {
                    let detail = failure.unwrap_or_else(|| "unrecoverable branch".into());
                    first_failure.get_or_insert_with(|| format!("query `{name}`: {detail}"));
                    QueryRecovery::Quarantined { detail }
                }
            };
            queries.push((name, set.sims, set.text, report));
        }
        let canonical = canonical.ok_or_else(|| SessionError::Recovery {
            detail: format!(
                "{}: no query recovered fully ({})",
                sd.root.display(),
                first_failure.unwrap_or_default()
            ),
        })?;

        let mut session = QuerySession::new(canonical, opts);
        let mut reports = BTreeMap::new();
        for (name, sims, text, report) in queries {
            let config = sims.first().map(|s| s.config().clone()).unwrap_or_default();
            let health = match &report {
                QueryRecovery::Recovered { .. } => QueryHealth::Healthy,
                // Recovered, but against an older graph than the
                // session's: serve stale, rebuild on the next batch.
                QueryRecovery::Stale => QueryHealth::Degraded {
                    stale_since_epoch: 0,
                    attempts: u32::MAX,
                    next_attempt_epoch: 0,
                },
                QueryRecovery::Quarantined { detail } => {
                    session.stats.quarantines += 1;
                    QueryHealth::Quarantined {
                        stale_since_epoch: 0,
                        detail: detail.clone(),
                    }
                }
            };
            session.queries.insert(
                name.clone(),
                RegisteredQuery {
                    text,
                    config,
                    branches: sims,
                    health,
                    backlog: None,
                },
            );
            reports.insert(name, report);
        }
        Ok(SessionRecovery { session, reports })
    }

    /// The registered query names, in registry (fan-out) order.
    pub fn query_names(&self) -> Vec<&str> {
        self.queries.keys().map(String::as_str).collect()
    }

    /// The number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` iff no query is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The committed shared-batch count.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current session graph.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// Cumulative session-level counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// One query's health.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn health(&self, name: &str) -> Result<&QueryHealth, SessionError> {
        self.queries
            .get(name)
            .map(|q| &q.health)
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })
    }

    /// `true` iff the query's served match set does *not* track the
    /// session graph (degraded or quarantined).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn is_stale(&self, name: &str) -> Result<bool, SessionError> {
        self.health(name).map(|h| !h.is_healthy())
    }

    /// One query's registered text.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn query_text(&self, name: &str) -> Result<&str, SessionError> {
        self.queries
            .get(name)
            .map(|q| q.text.as_str())
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })
    }

    /// The per-union-branch solutions a query currently serves (the
    /// last committed ones — stale iff [`Self::is_stale`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn solutions(&self, name: &str) -> Result<Vec<&Solution>, SessionError> {
        self.queries
            .get(name)
            .map(|q| q.branches.iter().map(IncrementalDualSim::solution).collect())
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })
    }

    /// The per-union-branch SOIs of a query (parallel to
    /// [`Self::solutions`] — a quarantined query recovered from partial
    /// durable state may expose fewer branches than its text implies).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn sois(&self, name: &str) -> Result<Vec<&Soi>, SessionError> {
        self.queries
            .get(name)
            .map(|q| q.branches.iter().map(IncrementalDualSim::soi).collect())
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })
    }

    /// Total candidates across every branch χ of a query — the size of
    /// its served match set.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn candidates(&self, name: &str) -> Result<usize, SessionError> {
        self.queries
            .get(name)
            .map(RegisteredQuery::candidates)
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })
    }

    /// The per-branch maintenance statistics of a query (see
    /// [`IncrementalDualSim::maintenance_stats`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownQuery`].
    pub fn maintenance_stats(&self, name: &str) -> Result<Vec<&SolveStats>, SessionError> {
        self.queries
            .get(name)
            .map(|q| {
                q.branches
                    .iter()
                    .map(IncrementalDualSim::maintenance_stats)
                    .collect()
            })
            .ok_or_else(|| SessionError::UnknownQuery { name: name.into() })
    }
}

/// Deterministic exponential backoff: epochs until attempt `attempt`
/// (1-based) is due, `backoff_base · 2^(attempt-1)`, saturating.
fn backoff(base: u64, attempt: u32) -> u64 {
    base.max(1)
        .saturating_mul(1u64.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX))
}

/// `[A-Za-z0-9._-]+` — names double as durability path components.
fn validate_name(name: &str) -> Result<(), SessionError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(SessionError::InvalidName { name: name.into() })
    }
}

/// Parses a query and cold-builds one engine per union branch
/// (durably when the session is durable).
fn build_branches(
    db: &GraphDb,
    name: &str,
    text: &str,
    config: &SolverConfig,
    durability: Option<&SessionDurability>,
) -> Result<Vec<IncrementalDualSim>, SessionError> {
    let query = parse(text).map_err(|e| SessionError::Parse {
        name: name.into(),
        message: e.to_string(),
    })?;
    let sois = build_sois(db, &query);
    if sois.is_empty() {
        return Err(SessionError::Parse {
            name: name.into(),
            message: "query yields no SOI branches".into(),
        });
    }
    let mut branches = Vec::with_capacity(sois.len());
    for (i, soi) in sois.into_iter().enumerate() {
        let sim = match durability {
            Some(sd) => {
                let bopts = sd.branch_opts(name, i, text);
                IncrementalDualSim::new_durable(db, soi, config.clone(), &bopts).map_err(
                    |error| SessionError::Query {
                        name: name.into(),
                        error,
                    },
                )?
            }
            None => IncrementalDualSim::new(db, soi, config.clone()),
        };
        branches.push(sim);
    }
    Ok(branches)
}

/// The isolation workhorse: applies one effective batch to every branch
/// of a query; `db` already holds the batch. If a branch fails *rolled
/// back*, the branches that had already committed this batch are undone
/// with the inverse batch, so the whole query lands back on its
/// pre-batch state — for that undo alone `db` is flipped to the
/// pre-batch graph and back. A branch error whose epoch still advanced
/// (the documented post-commit snapshot failure) counts as committed.
/// Returns `Ok(warm)` or the error plus whether the undo itself failed
/// (leaving branches inconsistent — a replay can no longer fix that
/// query, only a rebuild can).
fn fan_branches(
    q: &mut RegisteredQuery,
    db: &mut GraphDb,
    insert: bool,
    batch: &[Triple],
    stats: &mut SessionStats,
) -> Result<bool, (MaintainError, bool)> {
    let pre_epochs: Vec<u64> = q.branches.iter().map(IncrementalDualSim::epoch).collect();
    let mut warm = true;
    let mut failure: Option<MaintainError> = None;
    for (b, pre) in q.branches.iter_mut().zip(&pre_epochs) {
        stats.fanout_applications += 1;
        let res = if insert {
            b.apply_insertions(db, batch).map(|_| ())
        } else {
            b.apply_deletions(db, batch).map(|_| ())
        };
        match res {
            Ok(()) => warm &= b.last_update_was_warm(),
            Err(e) if b.epoch() > *pre => {
                // Committed; only the post-commit snapshot failed. The
                // branch state is the post-batch one and durable.
                warm &= b.last_update_was_warm();
                let _ = e;
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let Some(error) = failure else {
        return Ok(warm);
    };
    // Undo the sibling branches that already committed this batch, so
    // every branch of the query serves the same (pre-batch) state.
    let committed = |b: &IncrementalDualSim, pre: &u64| b.epoch() > *pre;
    let mut siblings = q.branches.iter().zip(&pre_epochs);
    if !siblings.any(|(b, pre)| committed(b, pre)) {
        return Err((error, false));
    }
    // The inverse of an effective batch is effective and in vocabulary,
    // so the two flips cannot fail; should one, the branches stay as
    // they are and only a rebuild can heal the query.
    if db.apply(!insert, batch).is_err() {
        return Err((error, true));
    }
    let mut undo_failed = false;
    for (b, pre) in q.branches.iter_mut().zip(&pre_epochs) {
        if !committed(b, pre) {
            continue;
        }
        stats.fanout_applications += 1;
        let undo_pre = b.epoch();
        let res = if insert {
            b.apply_deletions(db, batch).map(|_| ())
        } else {
            b.apply_insertions(db, batch).map(|_| ())
        };
        match res {
            Ok(()) => {}
            Err(_) if b.epoch() > undo_pre => {} // committed, snapshot-only failure
            Err(_) => undo_failed = true,
        }
    }
    undo_failed |= db.apply(insert, batch).is_err();
    Err((error, undo_failed))
}

/// A healthy query's share of the fan-out: the session failpoint, then
/// the batch through every branch, with the health transition on
/// failure.
fn fan_healthy(
    q: &mut RegisteredQuery,
    db: &mut GraphDb,
    insert: bool,
    batch: &[Triple],
    target_epoch: u64,
    opts: &SessionOptions,
    stats: &mut SessionStats,
) -> QueryOutcome {
    let pre = q.candidates();
    // The session-layer kill site: fires before any engine is touched,
    // so the query degrades without even a rollback.
    let fanned = failpoints::check("session-fanout")
        .map_err(|e| (e, false))
        .and_then(|()| fan_branches(q, db, insert, batch, stats));
    match fanned {
        Ok(warm) => {
            let post = q.candidates();
            QueryOutcome::Committed {
                gained: post.saturating_sub(pre),
                dropped: pre.saturating_sub(post),
                warm,
            }
        }
        Err((error, undo_failed)) => {
            stats.failures += 1;
            let stale_since = target_epoch - 1;
            if opts.auto_heal {
                // A cleanly rolled-back query still reflects the
                // pre-batch graph: the failed batch opens its backlog.
                // An inconsistent undo forfeits replay.
                q.backlog = (!undo_failed).then(|| VecDeque::from([(insert, batch.to_vec())]));
                q.health = QueryHealth::Degraded {
                    stale_since_epoch: stale_since,
                    attempts: 0,
                    next_attempt_epoch: target_epoch + backoff(opts.backoff_base, 1),
                };
            } else {
                quarantine_at(q, stats, stale_since, error.to_string());
            }
            QueryOutcome::Failed {
                error,
                health: q.health.clone(),
            }
        }
    }
}

/// Appends a missed batch to a degraded query's backlog; past the bound
/// replay is forfeited — the next due heal goes straight to a rebuild.
fn push_backlog(q: &mut RegisteredQuery, insert: bool, batch: &[Triple], max_backlog: usize) {
    let Some(backlog) = &mut q.backlog else {
        return;
    };
    backlog.push_back((insert, batch.to_vec()));
    if backlog.len() > max_backlog.max(1) {
        q.backlog = None;
    }
}

/// A due healing attempt during a batch: the current batch joins the
/// backlog, then the ladder runs — backlog replay while retry attempts
/// remain and the backlog is intact, cold rebuild once they are
/// exhausted (or replay was forfeited), quarantine only if the rebuild
/// itself fails.
#[allow(clippy::too_many_arguments)]
fn heal_due(
    q: &mut RegisteredQuery,
    name: &str,
    db_after: &GraphDb,
    insert: bool,
    batch: &[Triple],
    target_epoch: u64,
    opts: &SessionOptions,
    stats: &mut SessionStats,
) -> QueryOutcome {
    let QueryHealth::Degraded {
        stale_since_epoch,
        attempts,
        ..
    } = q.health.clone()
    else {
        return QueryOutcome::Stale {
            health: q.health.clone(),
        };
    };
    let pre = q.candidates();
    push_backlog(q, insert, batch, opts.max_backlog);
    let attempt = attempts.saturating_add(1);
    if attempt <= opts.max_retries && q.backlog.is_some() {
        if replay_backlog(q, db_after, stats) {
            q.health = QueryHealth::Healthy;
            stats.replay_heals += 1;
            let post = q.candidates();
            return QueryOutcome::Healed {
                via: HealPath::Replay,
                gained: post.saturating_sub(pre),
                dropped: pre.saturating_sub(post),
            };
        }
        stats.failed_retries += 1;
        if q.backlog.is_some() {
            // The replay rolled back cleanly: stay degraded, back off
            // further, and keep serving the stale set.
            q.health = QueryHealth::Degraded {
                stale_since_epoch,
                attempts: attempt,
                next_attempt_epoch: target_epoch
                    + backoff(opts.backoff_base, attempt.saturating_add(1)),
            };
            return QueryOutcome::Stale {
                health: q.health.clone(),
            };
        }
        // Inconsistent undo during the replay forfeited it: fall
        // through to the rebuild rung immediately.
    }
    // Escalation: cold rebuild against the post-batch graph.
    match rebuild(q, name, db_after, opts) {
        Ok(()) => {
            stats.rebuild_heals += 1;
            let post = q.candidates();
            QueryOutcome::Healed {
                via: HealPath::Rebuild,
                gained: post.saturating_sub(pre),
                dropped: pre.saturating_sub(post),
            }
        }
        Err(error) => {
            quarantine_at(q, stats, stale_since_epoch, error.to_string());
            QueryOutcome::Failed {
                error,
                health: q.health.clone(),
            }
        }
    }
}

/// Replays a degraded query's backlog through the ordinary maintenance
/// paths — so a successfully replayed query is bit-identical (χ *and*
/// logical stats) to one that never failed. `current` is the session
/// graph, which holds every backlog batch: one working copy of it is
/// rewound to the replay base by undoing the backlog newest first, then
/// takes each batch again in front of the engines. Batches leave the
/// backlog as they land. Returns `true` iff it drained fully (the
/// backlog is then gone); on `false` the rest stays for the next
/// attempt, unless an inconsistent undo forfeited replay.
fn replay_backlog(q: &mut RegisteredQuery, current: &GraphDb, stats: &mut SessionStats) -> bool {
    let Some(mut backlog) = q.backlog.take() else {
        return false;
    };
    let mut work = current.clone();
    // Backlog batches are effective and in vocabulary, so `apply` cannot
    // reject them; should it, replay is forfeited.
    let rewound = backlog
        .iter()
        .rev()
        .all(|(insert, batch)| work.apply(!insert, batch).is_ok());
    if !rewound {
        return false;
    }
    while let Some((insert, batch)) = backlog.front() {
        if work.apply(*insert, batch).is_err() {
            return false;
        }
        match fan_branches(q, &mut work, *insert, batch, stats) {
            Ok(_) => {
                backlog.pop_front();
            }
            Err((_, undo_failed)) => {
                if !undo_failed {
                    q.backlog = Some(backlog);
                }
                return false;
            }
        }
    }
    true
}

/// Cold-rebuilds every branch of a query from its registered text
/// against `db` (durably when the session is durable — the query's
/// branch directories restart from a fresh epoch-0 snapshot). The
/// per-branch engine counters restart with the engines; the session's
/// `rebuild_heals` counter records the event.
fn rebuild(
    q: &mut RegisteredQuery,
    name: &str,
    db: &GraphDb,
    opts: &SessionOptions,
) -> Result<(), MaintainError> {
    let branches = build_branches(db, name, &q.text, &q.config, opts.durability.as_ref())
        .map_err(|e| match e {
            SessionError::Query { error, .. } => error,
            other => MaintainError::Corrupt {
                detail: other.to_string(),
            },
        })?;
    q.branches = branches;
    q.health = QueryHealth::Healthy;
    q.backlog = None;
    Ok(())
}

/// The transition into `Quarantined`.
fn quarantine(q: &mut RegisteredQuery, stats: &mut SessionStats, detail: String) {
    let stale_since = match &q.health {
        QueryHealth::Degraded {
            stale_since_epoch, ..
        }
        | QueryHealth::Quarantined {
            stale_since_epoch, ..
        } => *stale_since_epoch,
        QueryHealth::Healthy => 0,
    };
    quarantine_at(q, stats, stale_since, detail);
}

fn quarantine_at(
    q: &mut RegisteredQuery,
    stats: &mut SessionStats,
    stale_since_epoch: u64,
    detail: String,
) {
    if !matches!(q.health, QueryHealth::Quarantined { .. }) {
        stats.quarantines += 1;
    }
    q.health = QueryHealth::Quarantined {
        stale_since_epoch,
        detail,
    };
    q.backlog = None;
}

/// One query's branches as [`QuerySession::recover`] found them.
struct RecoveredBranches {
    sims: Vec<IncrementalDualSim>,
    /// Branch 0's graph; later branches are checked against it.
    db: Option<GraphDb>,
    text: String,
    /// Summed over the branches.
    records_replayed: usize,
    snapshots_skipped: usize,
    /// The first reason the query did not recover fully.
    failure: Option<String>,
}

/// Recovers every `branch-<i>` directory of query `name`; branches of one
/// query must agree on the graph they reflect (their epochs may differ,
/// undo histories being per branch).
fn recover_branches(
    sd: &SessionDurability,
    name: &str,
    vocab: &mut SharedVocab,
) -> RecoveredBranches {
    let dir = query_dir(&sd.root, name);
    let (branch_count, failure) = match scan_branch_dirs(&dir) {
        Ok(0) => (
            0,
            Some(format!("{}: no branch-* directories", dir.display())),
        ),
        Ok(n) => (n, None),
        Err(e) => (0, Some(e.to_string())),
    };
    let mut set = RecoveredBranches {
        sims: Vec::new(),
        db: None,
        text: String::new(),
        records_replayed: 0,
        snapshots_skipped: 0,
        failure,
    };
    for i in 0..branch_count {
        match durability::recover(&sd.branch_opts(name, i, ""), vocab) {
            Ok(rec) => {
                match &set.db {
                    Some(db) if !db.same_triples(&rec.db) => {
                        set.failure.get_or_insert(format!(
                            "branch {i} disagrees with branch 0 on the recovered graph"
                        ));
                    }
                    Some(_) => {}
                    None => set.db = Some(rec.db),
                }
                set.text = rec.meta;
                set.records_replayed += rec.report.records_replayed;
                set.snapshots_skipped += rec.report.snapshots_skipped;
                set.sims.push(rec.sim);
            }
            Err(e) => {
                set.failure.get_or_insert(format!("branch {i}: {e}"));
            }
        }
    }
    set
}

/// The `query-<name>` directories under a session durability root, in
/// name order.
fn scan_query_dirs(root: &Path) -> Result<Vec<String>, SessionError> {
    let entries = std::fs::read_dir(root).map_err(|e| SessionError::Recovery {
        detail: format!("{}: {e}", root.display()),
    })?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| SessionError::Recovery {
            detail: format!("{}: {e}", root.display()),
        })?;
        let file_name = entry.file_name();
        let file_name = file_name.to_string_lossy();
        if let Some(name) = file_name.strip_prefix("query-") {
            if entry.path().is_dir() && validate_name(name).is_ok() {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// The number of contiguous `branch-<i>` directories under a query
/// directory (branch ids start at 0; a gap ends the count — the
/// missing branch will surface as unrecoverable).
fn scan_branch_dirs(dir: &Path) -> Result<usize, SessionError> {
    let entries = std::fs::read_dir(dir).map_err(|e| SessionError::Recovery {
        detail: format!("{}: {e}", dir.display()),
    })?;
    let mut ids = BTreeSet::new();
    for entry in entries {
        let entry = entry.map_err(|e| SessionError::Recovery {
            detail: format!("{}: {e}", dir.display()),
        })?;
        let file_name = entry.file_name();
        let file_name = file_name.to_string_lossy();
        if let Some(id) = file_name.strip_prefix("branch-") {
            if let Ok(id) = id.parse::<usize>() {
                if entry.path().is_dir() {
                    ids.insert(id);
                }
            }
        }
    }
    let mut count = 0;
    while ids.contains(&count) {
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::FixpointMode;
    use crate::{solve, SolverConfig};
    use dualsim_graph::GraphDbBuilder;

    const CHAIN: &str = "{ ?x p ?y . ?y q ?z }";
    const EDGE: &str = "{ ?x p ?y }";
    const UNION: &str = "{ { ?x p ?y } UNION { ?x q ?y } }";

    fn db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("a", "p", "b").unwrap();
        b.add_triple("b", "q", "c").unwrap();
        b.add_triple("d", "p", "e").unwrap();
        b.add_triple("e", "q", "f").unwrap();
        b.add_triple("g", "p", "h").unwrap();
        b.finish()
    }

    fn cfg() -> SolverConfig {
        SolverConfig {
            early_exit: false,
            fixpoint: FixpointMode::DeltaCounting,
            ..SolverConfig::default()
        }
    }

    fn t(db: &GraphDb, s: &str, p: &str, o: &str) -> Triple {
        Triple::new(
            db.node_id(s).unwrap(),
            db.label_id(p).unwrap(),
            db.node_id(o).unwrap(),
        )
    }

    fn tmpdir() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dualsim-session-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The cold-solved candidate total of `text` on `db` — what a
    /// healthy registered query must serve.
    fn cold_candidates(db: &GraphDb, text: &str) -> usize {
        let q = parse(text).unwrap();
        build_sois(db, &q)
            .into_iter()
            .map(|soi| {
                solve(db, &soi, &cfg())
                    .chi
                    .iter()
                    .map(|v| v.count_ones())
                    .sum::<usize>()
            })
            .sum()
    }

    fn session(opts: SessionOptions) -> QuerySession {
        QuerySession::new(db(), opts)
    }

    #[test]
    fn registration_validates_names_texts_and_duplicates() {
        let mut s = session(SessionOptions::default());
        assert_eq!(s.register("chain", CHAIN, cfg()).unwrap(), 1);
        assert!(matches!(
            s.register("chain", EDGE, cfg()),
            Err(SessionError::DuplicateQuery { .. })
        ));
        assert!(matches!(
            s.register("bad name", EDGE, cfg()),
            Err(SessionError::InvalidName { .. })
        ));
        assert!(matches!(
            s.register("broken", "{ ?x p", cfg()),
            Err(SessionError::Parse { .. })
        ));
        assert_eq!(s.register("union", UNION, cfg()).unwrap(), 2, "one engine per branch");
        assert_eq!(s.query_names(), vec!["chain", "union"]);
        assert_eq!(s.query_text("chain").unwrap(), CHAIN);
        s.deregister("chain").unwrap();
        assert!(matches!(
            s.deregister("chain"),
            Err(SessionError::UnknownQuery { .. })
        ));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn one_shared_batch_fans_out_and_tracks_cold_solves() {
        let base = db();
        let mut s = session(SessionOptions::default());
        s.register("chain", CHAIN, cfg()).unwrap();
        s.register("union", UNION, cfg()).unwrap();
        for name in ["chain", "union"] {
            assert_eq!(
                s.candidates(name).unwrap(),
                cold_candidates(&base, s.query_text(name).unwrap()),
                "{name} serves its cold solve at registration"
            );
        }

        // One batch: a real deletion, a duplicate of it, and a no-op
        // (delete of an absent triple) — validated and filtered once.
        let del = t(&base, "b", "q", "c");
        let report = s
            .apply_batch(false, &[del, del, t(&base, "a", "p", "a")])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.applied, 1);
        assert_eq!(report.deduped, 1);
        assert_eq!(report.noops, 1);
        let after = base
            .with_triples(&base.triples().filter(|x| *x != del).collect::<Vec<_>>())
            .unwrap();
        for name in ["chain", "union"] {
            assert!(matches!(
                report.outcomes[name],
                QueryOutcome::Committed { .. }
            ));
            assert!(s.health(name).unwrap().is_healthy());
            assert_eq!(
                s.candidates(name).unwrap(),
                cold_candidates(&after, s.query_text(name).unwrap()),
                "{name} tracks the post-batch graph"
            );
        }
        match report.outcomes["chain"] {
            QueryOutcome::Committed { gained, dropped, .. } => {
                assert_eq!(gained, 0);
                assert!(dropped > 0, "the a→b→c chain lost its q edge");
            }
            ref other => panic!("chain: expected Committed, got {other:?}"),
        }

        // Re-inserting restores the original match sets.
        s.apply_batch(true, &[del]).unwrap();
        for name in ["chain", "union"] {
            assert_eq!(
                s.candidates(name).unwrap(),
                cold_candidates(&base, s.query_text(name).unwrap())
            );
        }

        // The shared pipeline validated each incoming triple once —
        // not once per query.
        assert_eq!(s.stats().triples_validated, 4);
        assert_eq!(s.stats().duplicates_dropped, 1);
        assert_eq!(s.stats().noops_dropped, 1);
        assert_eq!(s.stats().batches, 2);

        // A fully no-op batch commits nothing: no epoch, no fan-out.
        let fanouts = s.stats().fanout_applications;
        let r = s.apply_batch(true, &[del]).unwrap();
        assert_eq!(r.applied, 0);
        assert_eq!(r.epoch, 2, "epoch unchanged");
        assert_eq!(s.epoch(), 2);
        assert!(r.outcomes.is_empty());
        assert_eq!(s.stats().fanout_applications, fanouts);
    }

    #[test]
    fn out_of_vocabulary_batches_are_rejected_before_any_query_is_touched() {
        let base = db();
        let mut s = session(SessionOptions::default());
        s.register("chain", CHAIN, cfg()).unwrap();
        let bad = Triple::new(base.num_nodes() as u32, 0, 0);
        let err = s.apply_batch(true, &[t(&base, "a", "p", "a"), bad]);
        assert!(matches!(
            err,
            Err(SessionError::Batch {
                error: MaintainError::OutOfVocabulary { .. }
            })
        ));
        assert_eq!(s.epoch(), 0);
        assert!(s.health("chain").unwrap().is_healthy());
        assert_eq!(s.stats().fanout_applications, 0);
    }

    #[test]
    fn a_killed_query_degrades_alone_and_heals_by_replay() {
        failpoints::disarm_all();
        let base = db();
        let mut s = session(SessionOptions::default());
        let mut reference = session(SessionOptions::default());
        for sess in [&mut s, &mut reference] {
            sess.register("a-chain", CHAIN, cfg()).unwrap();
            sess.register("b-union", UNION, cfg()).unwrap();
        }

        // Kill the first query (fan-out runs in name order) mid-drain.
        let d1 = t(&base, "b", "q", "c");
        failpoints::arm("pre-drain", 0);
        let report = s.apply_batch(false, &[d1]).unwrap();
        failpoints::disarm_all();
        reference.apply_batch(false, &[d1]).unwrap();

        match &report.outcomes["a-chain"] {
            QueryOutcome::Failed {
                error: MaintainError::Failpoint { point },
                health:
                    QueryHealth::Degraded {
                        stale_since_epoch: 0,
                        attempts: 0,
                        next_attempt_epoch: 2,
                    },
            } => assert_eq!(*point, "pre-drain"),
            other => panic!("a-chain: expected a degraded failpoint kill, got {other:?}"),
        }
        assert!(matches!(
            report.outcomes["b-union"],
            QueryOutcome::Committed { .. }
        ));
        assert_eq!(s.stats().failures, 1);

        // The killed query serves its pre-batch match set, marked stale;
        // the other query is bit-identical to the uninterrupted session.
        assert!(s.is_stale("a-chain").unwrap());
        assert_eq!(s.candidates("a-chain").unwrap(), cold_candidates(&base, CHAIN));
        for (mine, theirs) in s
            .solutions("b-union")
            .unwrap()
            .iter()
            .zip(reference.solutions("b-union").unwrap())
        {
            assert_eq!(mine.chi, theirs.chi);
        }
        for (mine, theirs) in s
            .maintenance_stats("b-union")
            .unwrap()
            .iter()
            .zip(reference.maintenance_stats("b-union").unwrap())
        {
            assert_eq!(mine.logical(), theirs.logical());
        }

        // Next batch: the backoff has elapsed, the backlog (failed batch
        // + this one) replays, and the query is current again —
        // bit-identical in χ *and* logical stats to the reference.
        let d2 = t(&base, "d", "p", "e");
        let r2 = s.apply_batch(false, &[d2]).unwrap();
        reference.apply_batch(false, &[d2]).unwrap();
        assert!(matches!(
            r2.outcomes["a-chain"],
            QueryOutcome::Healed {
                via: HealPath::Replay,
                ..
            }
        ));
        assert!(s.health("a-chain").unwrap().is_healthy());
        assert_eq!(s.stats().replay_heals, 1);
        for name in ["a-chain", "b-union"] {
            for (mine, theirs) in s
                .solutions(name)
                .unwrap()
                .iter()
                .zip(reference.solutions(name).unwrap())
            {
                assert_eq!(mine.chi, theirs.chi, "{name}");
            }
            for (mine, theirs) in s
                .maintenance_stats(name)
                .unwrap()
                .iter()
                .zip(reference.maintenance_stats(name).unwrap())
            {
                assert_eq!(mine.logical(), theirs.logical(), "{name}");
            }
        }
    }

    #[test]
    fn a_session_fanout_kill_degrades_before_any_engine_runs() {
        failpoints::disarm_all();
        let base = db();
        let mut s = session(SessionOptions::default());
        s.register("only", CHAIN, cfg()).unwrap();
        let d1 = t(&base, "b", "q", "c");

        failpoints::arm("session-fanout", 0);
        let r = s.apply_batch(false, &[d1]).unwrap();
        failpoints::disarm_all();
        assert!(matches!(
            r.outcomes["only"],
            QueryOutcome::Failed {
                error: MaintainError::Failpoint {
                    point: "session-fanout"
                },
                ..
            }
        ));
        assert_eq!(
            s.stats().fanout_applications,
            0,
            "the kill fired before any engine was touched"
        );
        assert_eq!(s.candidates("only").unwrap(), cold_candidates(&base, CHAIN));

        // The session graph still committed; re-inserting and letting
        // the due replay run brings the query back to the same state.
        let r2 = s.apply_batch(true, &[d1]).unwrap();
        assert!(matches!(
            r2.outcomes["only"],
            QueryOutcome::Healed {
                via: HealPath::Replay,
                ..
            }
        ));
        assert_eq!(s.candidates("only").unwrap(), cold_candidates(&base, CHAIN));
    }

    #[test]
    fn a_late_branch_kill_undoes_its_siblings_on_the_pre_batch_graph() {
        failpoints::disarm_all();
        let base = db();
        let mut s = session(SessionOptions::default());
        s.register("union", UNION, cfg()).unwrap();

        // Both branches have work; the kill fires in the second one,
        // after the first committed the batch.
        let batch = [t(&base, "a", "p", "b"), t(&base, "b", "q", "c")];
        failpoints::arm("pre-drain", 1);
        let r = s.apply_batch(false, &batch).unwrap();
        failpoints::disarm_all();
        assert!(matches!(
            r.outcomes["union"],
            QueryOutcome::Failed {
                health: QueryHealth::Degraded { .. },
                ..
            }
        ));
        assert_eq!(
            s.stats().fanout_applications,
            3,
            "two applications and one sibling undo"
        );
        // The whole query is back on its pre-batch match set, while the
        // session graph was flipped back and holds the batch.
        assert_eq!(
            s.candidates("union").unwrap(),
            cold_candidates(&base, UNION)
        );
        let kept: Vec<Triple> = base.triples().filter(|x| !batch.contains(x)).collect();
        assert_eq!(s.db().triples().collect::<Vec<_>>(), kept);

        // The due replay rewinds a copy of the session graph over the
        // backlog and brings both branches up to date.
        let r2 = s.apply_batch(true, &batch[..1]).unwrap();
        assert!(matches!(
            r2.outcomes["union"],
            QueryOutcome::Healed {
                via: HealPath::Replay,
                ..
            }
        ));
        assert_eq!(
            s.candidates("union").unwrap(),
            cold_candidates(s.db(), UNION)
        );
        assert_eq!(s.db().num_triples(), base.num_triples() - 1);
    }

    #[test]
    fn missed_batches_accumulate_and_replay_heals_across_them() {
        failpoints::disarm_all();
        let base = db();
        let opts = SessionOptions {
            backoff_base: 4,
            ..SessionOptions::default()
        };
        let mut s = QuerySession::new(base.clone(), opts.clone());
        let mut reference = QuerySession::new(base.clone(), opts);
        s.register("chain", CHAIN, cfg()).unwrap();
        reference.register("chain", CHAIN, cfg()).unwrap();

        let d1 = t(&base, "b", "q", "c");
        let d2 = t(&base, "d", "p", "e");
        let d3 = t(&base, "a", "p", "b");
        failpoints::arm("pre-drain", 0);
        let r1 = s.apply_batch(false, &[d1]).unwrap();
        failpoints::disarm_all();
        reference.apply_batch(false, &[d1]).unwrap();
        assert!(matches!(r1.outcomes["chain"], QueryOutcome::Failed { .. }));

        // Three more batches arrive before the backoff (4 epochs)
        // elapses: each goes to the backlog, the query serves stale.
        for (insert, tr) in [(true, d1), (false, d2), (false, d3)] {
            let r = s.apply_batch(insert, &[tr]).unwrap();
            reference.apply_batch(insert, &[tr]).unwrap();
            assert!(
                matches!(r.outcomes["chain"], QueryOutcome::Stale { .. }),
                "epoch {}: backoff has not elapsed",
                r.epoch
            );
            assert_eq!(s.candidates("chain").unwrap(), cold_candidates(&base, CHAIN));
        }

        // Epoch 5 = 1 + backoff(4, attempt 1): the whole backlog replays.
        let r5 = s.apply_batch(true, &[d2]).unwrap();
        reference.apply_batch(true, &[d2]).unwrap();
        assert!(matches!(
            r5.outcomes["chain"],
            QueryOutcome::Healed {
                via: HealPath::Replay,
                ..
            }
        ));
        for (mine, theirs) in s
            .solutions("chain")
            .unwrap()
            .iter()
            .zip(reference.solutions("chain").unwrap())
        {
            assert_eq!(mine.chi, theirs.chi);
        }
        for (mine, theirs) in s
            .maintenance_stats("chain")
            .unwrap()
            .iter()
            .zip(reference.maintenance_stats("chain").unwrap())
        {
            assert_eq!(mine.logical(), theirs.logical());
        }
    }

    #[test]
    fn exhausted_retries_escalate_to_a_cold_rebuild() {
        failpoints::disarm_all();
        let base = db();
        let mut s = QuerySession::new(
            base.clone(),
            SessionOptions {
                max_retries: 0,
                ..SessionOptions::default()
            },
        );
        s.register("chain", CHAIN, cfg()).unwrap();
        let d1 = t(&base, "b", "q", "c");
        failpoints::arm("pre-drain", 0);
        s.apply_batch(false, &[d1]).unwrap();
        failpoints::disarm_all();

        // With zero replay retries the first due attempt rebuilds cold.
        let d2 = t(&base, "d", "p", "e");
        let r = s.apply_batch(false, &[d2]).unwrap();
        assert!(matches!(
            r.outcomes["chain"],
            QueryOutcome::Healed {
                via: HealPath::Rebuild,
                ..
            }
        ));
        assert!(s.health("chain").unwrap().is_healthy());
        assert_eq!(s.stats().rebuild_heals, 1);
        assert_eq!(s.candidates("chain").unwrap(), cold_candidates(s.db(), CHAIN));
    }

    #[test]
    fn a_backlog_overflow_forfeits_replay_and_rebuilds() {
        failpoints::disarm_all();
        let base = db();
        let mut s = QuerySession::new(
            base.clone(),
            SessionOptions {
                max_backlog: 1,
                backoff_base: 2,
                ..SessionOptions::default()
            },
        );
        s.register("chain", CHAIN, cfg()).unwrap();
        let d1 = t(&base, "b", "q", "c");
        failpoints::arm("pre-drain", 0);
        s.apply_batch(false, &[d1]).unwrap();
        failpoints::disarm_all();

        // Epoch 2 (not yet due): the second backlogged batch overflows
        // the bound of 1 — replay is forfeited.
        let r2 = s.apply_batch(true, &[d1]).unwrap();
        assert!(matches!(r2.outcomes["chain"], QueryOutcome::Stale { .. }));

        // Epoch 3 = 1 + backoff(2, attempt 1): due, and with no backlog
        // the ladder goes straight to the rebuild rung.
        let d2 = t(&base, "d", "p", "e");
        let r3 = s.apply_batch(false, &[d2]).unwrap();
        assert!(matches!(
            r3.outcomes["chain"],
            QueryOutcome::Healed {
                via: HealPath::Rebuild,
                ..
            }
        ));
        assert_eq!(s.candidates("chain").unwrap(), cold_candidates(s.db(), CHAIN));
    }

    #[test]
    fn auto_heal_off_quarantines_and_an_explicit_heal_revives() {
        failpoints::disarm_all();
        let base = db();
        let mut s = QuerySession::new(
            base.clone(),
            SessionOptions {
                auto_heal: false,
                ..SessionOptions::default()
            },
        );
        s.register("chain", CHAIN, cfg()).unwrap();
        let d1 = t(&base, "b", "q", "c");
        failpoints::arm("pre-drain", 0);
        let r = s.apply_batch(false, &[d1]).unwrap();
        failpoints::disarm_all();
        assert!(matches!(
            r.outcomes["chain"],
            QueryOutcome::Failed {
                health: QueryHealth::Quarantined { .. },
                ..
            }
        ));
        assert_eq!(s.stats().quarantines, 1);

        // Quarantined queries never auto-heal: further batches leave
        // them serving the stale set.
        let d2 = t(&base, "d", "p", "e");
        let r2 = s.apply_batch(false, &[d2]).unwrap();
        assert!(matches!(r2.outcomes["chain"], QueryOutcome::Stale { .. }));
        assert_eq!(s.candidates("chain").unwrap(), cold_candidates(&base, CHAIN));

        // An explicit heal rebuilds against the current graph.
        s.heal("chain").unwrap();
        assert!(s.health("chain").unwrap().is_healthy());
        assert_eq!(s.candidates("chain").unwrap(), cold_candidates(s.db(), CHAIN));
    }

    #[test]
    fn backoff_doubles_per_attempt_and_saturates() {
        assert_eq!(backoff(1, 1), 1);
        assert_eq!(backoff(1, 2), 2);
        assert_eq!(backoff(1, 4), 8);
        assert_eq!(backoff(3, 3), 12);
        assert_eq!(backoff(0, 1), 1, "a zero base is clamped to 1");
        assert_eq!(backoff(2, 100), u64::MAX, "shift saturates");
    }

    #[test]
    fn a_durable_session_recovers_every_query_independently() {
        failpoints::disarm_all();
        let root = tmpdir();
        let base = db();
        let opts = SessionOptions {
            durability: Some(SessionDurability::new(&root)),
            ..SessionOptions::default()
        };
        let mut s = QuerySession::new(base.clone(), opts.clone());
        s.register("chain", CHAIN, cfg()).unwrap();
        s.register("union", UNION, cfg()).unwrap();
        let d1 = t(&base, "b", "q", "c");
        let d2 = t(&base, "d", "p", "e");
        s.apply_batch(false, &[d1]).unwrap();
        s.apply_batch(false, &[d2]).unwrap();
        s.apply_batch(true, &[d1]).unwrap();
        let expected: BTreeMap<&str, Vec<Vec<crate::ChiVec>>> = ["chain", "union"]
            .into_iter()
            .map(|n| {
                (
                    n,
                    s.solutions(n)
                        .unwrap()
                        .iter()
                        .map(|sol| sol.chi.clone())
                        .collect(),
                )
            })
            .collect();
        drop(s);

        let rec = QuerySession::recover(opts).unwrap();
        for name in ["chain", "union"] {
            assert!(
                matches!(rec.reports[name], QueryRecovery::Recovered { .. }),
                "{name}: {:?}",
                rec.reports[name]
            );
        }
        let mut s2 = rec.session;
        assert_eq!(s2.query_text("chain").unwrap(), CHAIN, "meta round-trips");
        for (name, chis) in &expected {
            assert!(s2.health(name).unwrap().is_healthy());
            let got: Vec<Vec<crate::ChiVec>> = s2
                .solutions(name)
                .unwrap()
                .iter()
                .map(|sol| sol.chi.clone())
                .collect();
            assert_eq!(&got, chis, "{name} recovered bit-identical");
        }

        // The recovered session keeps maintaining.
        let d3 = t(s2.db(), "a", "p", "b");
        let r = s2.apply_batch(false, &[d3]).unwrap();
        for name in ["chain", "union"] {
            assert!(matches!(r.outcomes[name], QueryOutcome::Committed { .. }));
            assert_eq!(
                s2.candidates(name).unwrap(),
                cold_candidates(s2.db(), s2.query_text(name).unwrap())
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recovery_quarantines_unrecoverable_queries_instead_of_failing() {
        failpoints::disarm_all();
        let root = tmpdir();
        let base = db();
        let opts = SessionOptions {
            durability: Some(SessionDurability::new(&root)),
            ..SessionOptions::default()
        };
        let mut s = QuerySession::new(base.clone(), opts.clone());
        s.register("chain", CHAIN, cfg()).unwrap();
        s.register("union", UNION, cfg()).unwrap();
        let d1 = t(&base, "b", "q", "c");
        s.apply_batch(false, &[d1]).unwrap();
        drop(s);

        // Wreck every file of chain's only branch: its WAL header and
        // its snapshot are both unusable.
        let chain_branch = branch_dir(&query_dir(&root, "chain"), 0);
        for entry in std::fs::read_dir(&chain_branch).unwrap() {
            let path = entry.unwrap().path();
            std::fs::write(&path, b"garbage").unwrap();
        }

        let rec = QuerySession::recover(opts).unwrap();
        assert!(matches!(
            rec.reports["chain"],
            QueryRecovery::Quarantined { .. }
        ));
        assert!(matches!(
            rec.reports["union"],
            QueryRecovery::Recovered { .. }
        ));
        let mut s2 = rec.session;
        assert!(matches!(
            s2.health("chain").unwrap(),
            QueryHealth::Quarantined { .. }
        ));

        // The survivor keeps serving and maintaining; the quarantined
        // query is revived by re-registering (its durable state was
        // unusable, so its text is gone too).
        let d2 = t(s2.db(), "d", "p", "e");
        let r = s2.apply_batch(false, &[d2]).unwrap();
        assert!(matches!(r.outcomes["union"], QueryOutcome::Committed { .. }));
        assert!(matches!(r.outcomes["chain"], QueryOutcome::Stale { .. }));
        s2.deregister("chain").unwrap();
        s2.register("chain", CHAIN, cfg()).unwrap();
        assert_eq!(
            s2.candidates("chain").unwrap(),
            cold_candidates(s2.db(), CHAIN)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Rewrites the format version in the header of every file under a
    /// query's branch directories, as a directory written by the version
    /// 2 format has it.
    fn downgrade_headers(root: &Path, name: &str, version: u32) {
        let branches = std::fs::read_dir(query_dir(root, name)).unwrap();
        for branch in branches {
            for file in std::fs::read_dir(branch.unwrap().path()).unwrap() {
                let path = file.unwrap().path();
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[4..8].copy_from_slice(&version.to_le_bytes());
                std::fs::write(&path, bytes).unwrap();
            }
        }
    }

    /// No version 2 reader exists: a query whose snapshots are version 2
    /// comes back `Quarantined`, and a directory that is version 2
    /// throughout fails recovery; both details name the version.
    #[test]
    fn version_2_directories_are_reported_not_read() {
        failpoints::disarm_all();
        let root = tmpdir();
        let base = db();
        let opts = SessionOptions {
            durability: Some(SessionDurability::new(&root)),
            ..SessionOptions::default()
        };
        let mut s = QuerySession::new(base.clone(), opts.clone());
        s.register("chain", CHAIN, cfg()).unwrap();
        s.register("union", UNION, cfg()).unwrap();
        s.apply_batch(false, &[t(&base, "b", "q", "c")]).unwrap();
        drop(s);

        downgrade_headers(&root, "union", 2);
        let rec = QuerySession::recover(opts.clone()).unwrap();
        assert!(matches!(
            rec.reports["chain"],
            QueryRecovery::Recovered { .. }
        ));
        let QueryRecovery::Quarantined { detail } = &rec.reports["union"] else {
            panic!("expected Quarantined, got {:?}", rec.reports["union"]);
        };
        assert!(detail.contains("unsupported version 2"), "{detail}");
        drop(rec);

        downgrade_headers(&root, "chain", 2);
        match QuerySession::recover(opts) {
            Err(SessionError::Recovery { detail }) => {
                assert!(detail.contains("unsupported version 2"), "{detail}");
            }
            other => panic!("expected SessionError::Recovery, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
