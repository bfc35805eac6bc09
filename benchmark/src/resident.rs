//! `resident-churn` and `resident-durable`: one `QuerySession` with eight
//! standing LUBM queries under a stream of update batches; one op is one
//! `apply_batch`. A pair of batches deletes a chunk of victim triples and
//! inserts it back, so the graph keeps its generated size.
//!
//! The durable variant adds a WAL with fsync and periodic snapshots and is
//! timed in whole snapshot cycles, so that every run carries the same share
//! of snapshot batches whatever the machine's speed.
//!
//! Oracles, all outside the timed ops: every batch applies all its triples
//! and every query commits it; every `oracle_every` batches and at the end
//! each standing query's chi equals a cold solve of `session.db()`.

use crate::inputs;
use crate::json::Json;
use crate::run::{repeat_setup, Meter, Outcome, RunArgs};
use crate::stats::median;
use crate::trace::Tracer;
use dualsim_core::{
    build_sois, solve, IncrementalDualSim, QueryOutcome, QuerySession, SessionDurability,
    SessionOptions, SolverConfig,
};
use dualsim_graph::{GraphDb, Triple};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A fresh directory under the run's output directory; removed on drop,
/// also when a workload panics.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(args: &RunArgs) -> Self {
        let dir = args
            .out_dir
            .join(format!("tmp-{}-{}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn durability(root: &Path, snapshot_every: u64) -> SessionDurability {
    SessionDurability {
        root: root.to_owned(),
        snapshot_every: Some(snapshot_every),
        fsync: true,
        keep_snapshots: 2,
    }
}

/// Opens a session over `db` and registers the fleet, each call in a span.
pub fn open_session(
    tr: &mut Tracer,
    db: &GraphDb,
    durability: Option<SessionDurability>,
) -> QuerySession {
    let opts = SessionOptions {
        durability,
        ..SessionOptions::default()
    };
    let mut session = tr.span("core.session.new", |_| QuerySession::new(db.clone(), opts));
    tr.span("core.session.register", |_| {
        for (name, text) in inputs::fleet() {
            session
                .register(&name, text, inputs::resident_config())
                .expect("fleet query registers");
        }
    });
    session
}

/// Applies one batch and checks that all of it took effect everywhere.
/// Returns the complaint, if any.
pub fn apply_checked(
    session: &mut QuerySession,
    insert: bool,
    batch: &[Triple],
) -> Result<(), String> {
    let report = session
        .apply_batch(insert, batch)
        .map_err(|e| format!("apply_batch: {e}"))?;
    if report.applied != batch.len() {
        return Err(format!(
            "batch applied {} of {} triples",
            report.applied,
            batch.len()
        ));
    }
    match report
        .outcomes
        .iter()
        .find(|(_, o)| !matches!(o, QueryOutcome::Committed { .. }))
    {
        Some((name, outcome)) => Err(format!("`{name}` did not commit: {outcome:?}")),
        None => Ok(()),
    }
}

/// The reference semantics: every standing query's chi equals a cold solve
/// of the session's current graph by the re-evaluation engine.
pub fn check_against_cold_solve(session: &QuerySession, meter: &mut Meter) {
    let config = SolverConfig {
        early_exit: false,
        ..inputs::cold_config()
    };
    for (name, text) in inputs::fleet() {
        let query = dualsim_query::parse(text).expect("workload query parses");
        let cold: Vec<_> = build_sois(session.db(), &query)
            .iter()
            .map(|soi| solve(session.db(), soi, &config).chi)
            .collect();
        let healthy = session.health(&name).is_ok_and(|h| h.is_healthy());
        let same = session.solutions(&name).is_ok_and(|resident| {
            resident.len() == cold.len() && resident.iter().zip(&cold).all(|(r, c)| r.chi == *c)
        });
        if !healthy || !same {
            meter.fail(format!(
                "`{name}` at epoch {}: healthy {healthy}, equals cold solve {same}",
                session.epoch()
            ));
        }
    }
}

/// Bytes of every `wal.log`, and of the newest `snapshot-*.snap` of every
/// directory, under `root`.
fn disk_usage(root: &Path) -> (u64, u64) {
    let (mut wal, mut snapshots) = (0, 0);
    let mut newest: Option<(String, u64)> = None;
    for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        let name = entry.file_name().to_string_lossy().into_owned();
        if meta.is_dir() {
            let (w, s) = disk_usage(&entry.path());
            wal += w;
            snapshots += s;
        } else if name == "wal.log" {
            wal += meta.len();
        } else if name.starts_with("snapshot-")
            && name.ends_with(".snap")
            && newest.as_ref().is_none_or(|(n, _)| name > *n)
        {
            // Epochs are zero-padded, so the newest name sorts last.
            newest = Some((name, meta.len()));
        }
    }
    (wal, snapshots + newest.map_or(0, |(_, len)| len))
}

struct Inputs {
    db: GraphDb,
    script: Vec<Vec<Triple>>,
    session: QuerySession,
}

/// What the traced run keeps beside the session to size its layers.
struct Beside<'a> {
    /// The generated graph, whose vocabulary every rebuild shares.
    base: &'a GraphDb,
    /// One independent engine per branch of every fleet query, fed the
    /// post-batch graph built beside the session.
    engines: Vec<IncrementalDualSim>,
    /// Their work ops before the first batch: the cold solves.
    work_ops_when_new: usize,
    /// The same fleet in a memory-only session, for the durable workload.
    twin: Option<QuerySession>,
    twin_ms: Vec<f64>,
    traced_batch_ms: Vec<f64>,
    negative_self: usize,
}

pub fn run(args: &RunArgs, durable: bool) -> Outcome {
    let scale = args.scale();
    let universities = if durable {
        scale.durable_lubm_universities
    } else {
        scale.churn_lubm_universities
    };
    let scratch = ScratchDir::new(args);
    let mut meter = Meter::default();
    let mut tr = Tracer::new();
    let root = scratch.path().join("state");
    let (inputs, setup_s) = repeat_setup(
        &mut meter,
        &mut tr,
        args.trace,
        scale.setup_repetitions,
        |tr| {
            let db = tr.span("datagen.generate", |_| inputs::lubm(universities));
            let script =
                inputs::update_script(&db, scale.script_chunks, scale.batch_triples, args.seed);
            // The previous repetition's session is gone; so is what it wrote.
            let _ = std::fs::remove_dir_all(&root);
            let session = open_session(
                tr,
                &db,
                durable.then(|| durability(&root, scale.snapshot_every)),
            );
            Inputs {
                db,
                script,
                session,
            }
        },
    );
    let Inputs {
        db,
        script,
        mut session,
    } = inputs;

    let mut beside = args.trace.then(|| {
        tr.set_recording(true);
        let mut engines = Vec::new();
        let mut new_s = 0.0;
        for (_, text) in inputs::fleet() {
            let query = dualsim_query::parse(text).expect("workload query parses");
            for soi in build_sois(&db, &query) {
                let (engine, secs) = tr.timed_span("core.incremental.new", |_| {
                    IncrementalDualSim::new(&db, soi, inputs::resident_config())
                });
                engines.push(engine);
                new_s += secs;
            }
        }
        meter.sample("core.incremental.new", new_s);
        let twin = durable.then(|| open_session(&mut Tracer::new(), &db, None));
        tr.set_recording(false);
        let work_ops_when_new = engines
            .iter()
            .map(|e| e.maintenance_stats().work_ops())
            .sum();
        Beside {
            base: &db,
            engines,
            work_ops_when_new,
            twin,
            twin_ms: Vec::new(),
            traced_batch_ms: Vec::new(),
            negative_self: 0,
        }
    });

    // The k-th batch of the stream: pair k/2 deletes its chunk, then
    // inserts it back.
    let batch_at = |k: usize| (k % 2 == 1, &script[(k / 2) % script.len()]);
    let mut next = 0usize;
    for _ in 0..2 * scale.warmup_pairs {
        let (insert, batch) = batch_at(next);
        next += 1;
        if let Err(why) = apply_checked(&mut session, insert, batch) {
            meter.fail(format!("warm-up: {why}"));
        }
        if let Some(b) = &mut beside {
            b.mirror(session.db(), insert, batch, &mut meter, &mut tr, None);
        }
    }
    if let Some(b) = &beside {
        // The warm-up is the same batches in every run of one seed, so the
        // engines' work on it is a count that repeats exactly.
        meter.sample(
            "core.incremental.work_ops",
            (b.work_ops() - b.work_ops_when_new) as f64 / scale.warmup_pairs as f64,
        );
    }

    // A round of the durable run is a snapshot cycle, one of the
    // memory-only run a fixed number of pairs.
    let cycle = if durable {
        scale.snapshot_every as usize
    } else {
        2 * scale.churn_round_pairs
    };
    let (wal_before, _) = disk_usage(&root);
    let first_timed = next;
    let mut snapshot_batch_ms = Vec::new();
    let start = Instant::now();
    while next == first_timed || start.elapsed().as_secs_f64() < args.seconds {
        let round = meter.begin_round();
        for _ in 0..cycle {
            let (insert, batch) = batch_at(next);
            next += 1;
            let unit = meter.begin_unit(&mut tr, args.trace, 2);
            let applied = meter.op(&mut tr, |tr| {
                tr.span("core.session.apply_batch", |_| {
                    apply_checked(&mut session, insert, batch)
                })
            });
            let traced = meter.end_unit(&mut tr, unit);
            let Some((checked, secs)) = applied else {
                continue;
            };
            if let Err(why) = checked {
                meter.fail(format!("batch {next}: {why}"));
            }
            if durable && session.epoch() % scale.snapshot_every == 0 {
                snapshot_batch_ms.push(secs * 1e3);
            }
            if let Some(b) = &mut beside {
                let batch_s = traced.then_some(secs);
                b.mirror(session.db(), insert, batch, &mut meter, &mut tr, batch_s);
                if traced && insert {
                    // Inserting what is present: validation and dedup only.
                    let noop = Instant::now();
                    let report = session.apply_batch(true, batch);
                    meter.sample(
                        "core.session.noop_batch_ms",
                        noop.elapsed().as_secs_f64() * 1e3,
                    );
                    if !report.is_ok_and(|r| r.applied == 0 && r.noops == batch.len()) {
                        meter.fail(format!("batch {next}: re-insert was not a no-op"));
                    }
                }
            }
            if (next - first_timed).is_multiple_of(scale.oracle_every) {
                check_against_cold_solve(&session, &mut meter);
            }
        }
        meter.end_round(round);
    }
    check_against_cold_solve(&session, &mut meter);
    let timed_batches = next - first_timed;

    let stats = session.stats().clone();
    let maintenance_ops: usize = inputs::fleet()
        .iter()
        .flat_map(|(name, _)| session.maintenance_stats(name).unwrap_or_default())
        .map(|s| s.work_ops())
        .sum();
    let mut disk = Json::Null;
    if let Some(b) = &beside {
        meter.sample("graph.memory_bytes", session.db().memory_footprint() as f64);
        meter.sample(
            "core.session.updates_per_s",
            (timed_batches * scale.batch_triples) as f64 / meter.timed_s(),
        );
        meter.sample("core.session.failures", stats.failures as f64);
        meter.sample("core.session.replay_heals", stats.replay_heals as f64);
        meter.sample("core.session.rebuild_heals", stats.rebuild_heals as f64);
        meter.sample("core.session.quarantines", stats.quarantines as f64);
        if durable {
            meter.sample(
                "core.durability.batch_overhead_ms",
                median(&b.traced_batch_ms) - median(&b.twin_ms),
            );
            meter.sample(
                "core.durability.snapshot_batch_ms",
                median(&snapshot_batch_ms),
            );
            let (wal_after, snapshot_bytes) = disk_usage(&root);
            let wal_per_batch = (wal_after - wal_before) as f64 / timed_batches as f64;
            let every = scale.snapshot_every as f64;
            let per_update = (wal_per_batch * every + snapshot_bytes as f64)
                / (every * scale.batch_triples as f64);
            meter.sample("core.durability.wal_bytes_per_batch", wal_per_batch);
            meter.sample("core.durability.snapshot_bytes", snapshot_bytes as f64);
            meter.sample("core.durability.disk_bytes_per_update", per_update);
            disk = Json::obj([
                ("wal_bytes", Json::Num(wal_after as f64)),
                ("newest_snapshot_bytes", Json::Num(snapshot_bytes as f64)),
            ]);
        }
    }
    drop(session);

    // The op is one library call; its layers are sized beside it.
    let shares = beside.as_ref().map(|_| {
        let batch_ms = median(meter.samples("core.session.apply_batch")) * 1e3;
        let mut shares = vec![
            (
                "graph.rebuild_per_batch",
                meter.layer_value("graph.rebuild_per_batch_ms") / batch_ms,
            ),
            (
                "core.incremental.apply",
                meter.layer_value("core.incremental.apply_ms") / batch_ms,
            ),
            (
                "core.session.self",
                meter.layer_value("core.session.self_ms") / batch_ms,
            ),
        ];
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    });

    let detail = Json::obj([
        ("graph", inputs::graph_json(&db)),
        (
            "fleet",
            Json::Arr(
                inputs::fleet()
                    .into_iter()
                    .map(|(n, _)| Json::str(n))
                    .collect(),
            ),
        ),
        ("timed_batches", Json::Num(timed_batches as f64)),
        (
            "snapshot_batches",
            Json::Num(snapshot_batch_ms.len() as f64),
        ),
        (
            "snapshot_batch_p50_ms",
            Json::Num(median(&snapshot_batch_ms)),
        ),
        (
            "session_maintenance_work_ops",
            Json::Num(maintenance_ops as f64),
        ),
        (
            "session_self_negative_batches",
            Json::Num(beside.as_ref().map_or(0, |b| b.negative_self) as f64),
        ),
        (
            "twin_batch_p50_ms",
            Json::Num(beside.as_ref().map_or(0.0, |b| median(&b.twin_ms))),
        ),
        ("disk", disk),
    ]);
    Outcome {
        meter,
        setup_s,
        tracer: tr,
        shares,
        detail,
    }
}

impl Beside<'_> {
    /// Work ops of the independent engines' maintenance so far.
    fn work_ops(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.maintenance_stats().work_ops())
            .sum()
    }

    /// Repeats a batch beside the session, outside its op: the graph rebuild on
    /// the post-batch triple list, then the engines' maintenance on independent
    /// instances given that graph, then the memory-only twin. For a traced
    /// batch (`batch_s` is its latency) the parts are kept as samples, and what
    /// is left of the batch is the session's own share.
    fn mirror(
        &mut self,
        current: &GraphDb,
        insert: bool,
        batch: &[Triple],
        meter: &mut Meter,
        tr: &mut Tracer,
        batch_s: Option<f64>,
    ) {
        tr.set_recording(batch_s.is_some());
        let post: Vec<Triple> = current.triples().collect();
        let (after, rebuild_s) = tr.timed_span("graph.rebuild_per_batch", |_| {
            self.base
                .with_triples(&post)
                .expect("session graph rebuilds")
        });
        let (result, apply_s) = tr.timed_span("core.incremental.apply", |_| {
            self.engines.iter_mut().try_for_each(|engine| {
                if insert {
                    engine.apply_insertions(&after, batch).map(|_| ())
                } else {
                    engine.apply_deletions(&after, batch).map(|_| ())
                }
            })
        });
        if let Err(e) = result {
            meter.fail(format!("independent engine: {e}"));
        }
        let twin_s = self.twin.as_mut().map(|twin| {
            let start = Instant::now();
            if let Err(why) = apply_checked(twin, insert, batch) {
                meter.fail(format!("memory-only twin: {why}"));
            }
            start.elapsed().as_secs_f64()
        });
        tr.set_recording(false);
        let Some(batch_s) = batch_s else { return };
        meter.sample("graph.rebuild_per_batch", rebuild_s);
        meter.sample("core.incremental.apply", apply_s);
        let own_ms = (batch_s - rebuild_s - apply_s) * 1e3;
        meter.sample("core.session.self_ms", own_ms);
        self.negative_self += usize::from(own_ms < 0.0);
        self.traced_batch_ms.push(batch_s * 1e3);
        self.twin_ms.extend(twin_s.map(|s| s * 1e3));
    }
}
