//! `restart-durable`: one op is `QuerySession::recover` on a copy of the
//! directory a durable session left behind when it was dropped without a
//! shutdown: per branch the newest snapshot plus a short WAL tail.
//!
//! Set-up runs the durable session that leaves the directory. Oracle: every
//! query comes back `Recovered` and healthy, having replayed exactly the
//! tail, with the chi it had before the drop.

use crate::inputs;
use crate::json::Json;
use crate::resident::{apply_checked, durability, open_session, ScratchDir};
use crate::run::{repeat_setup, Meter, Outcome, RunArgs};
use crate::stats::median;
use crate::trace::Tracer;
use dualsim_core::{
    ChiVec, DurabilityOptions, IncrementalDualSim, QueryRecovery, QuerySession, SessionError,
    SessionOptions, SessionRecovery,
};
use dualsim_graph::GraphDb;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a dropped session left on disk, and what it served when dropped.
struct Crashed {
    root: PathBuf,
    solutions: Vec<(String, Vec<Vec<ChiVec>>)>,
    /// Complaints of the batches that led here; each is a failed op.
    failures: Vec<String>,
}

/// Runs a durable session for `batches` batches under `root`, then drops it.
fn crash_after(
    tr: &mut Tracer,
    db: &GraphDb,
    args: &RunArgs,
    root: PathBuf,
    batches: u64,
) -> Crashed {
    let scale = args.scale();
    let _ = std::fs::remove_dir_all(&root);
    let script = inputs::update_script(db, scale.script_chunks, scale.batch_triples, args.seed);
    let mut session = open_session(
        tr,
        db,
        Some(durability(&root, scale.restart_snapshot_every)),
    );
    let mut failures = Vec::new();
    for k in 0..batches as usize {
        let (insert, batch) = (k % 2 == 1, &script[(k / 2) % script.len()]);
        if let Err(why) = apply_checked(&mut session, insert, batch) {
            failures.push(format!("set-up batch {k}: {why}"));
        }
    }
    let solutions = inputs::fleet()
        .into_iter()
        .map(|(name, _)| {
            let chi = session
                .solutions(&name)
                .expect("registered query")
                .iter()
                .map(|s| s.chi.clone())
                .collect();
            (name, chi)
        })
        .collect();
    drop(session);
    Crashed {
        root,
        solutions,
        failures,
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Every directory under `root` that holds a WAL: one per branch.
fn branch_dirs(root: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            branch_dirs(&entry.path(), out);
        } else if entry.file_name() == "wal.log" {
            out.push(root.to_owned());
        }
    }
}

fn recover_options(root: &Path, snapshot_every: u64) -> SessionOptions {
    SessionOptions {
        durability: Some(durability(root, snapshot_every)),
        ..SessionOptions::default()
    }
}

/// Complains unless recovery succeeded and the recovered session serves
/// what the dropped one did, having replayed `tail` records per branch.
fn judge(
    recovered: Result<SessionRecovery, SessionError>,
    crashed: &Crashed,
    tail: u64,
) -> Result<(), String> {
    let SessionRecovery { session, reports } = recovered.map_err(|e| format!("recover: {e}"))?;
    for (name, chi) in &crashed.solutions {
        let branches = chi.len();
        match reports.get(name) {
            Some(QueryRecovery::Recovered {
                records_replayed, ..
            }) if *records_replayed == tail as usize * branches => {}
            other => {
                return Err(format!(
                    "`{name}` recovered as {other:?}, expected {tail} records per branch"
                ))
            }
        }
        if !session.health(name).is_ok_and(|h| h.is_healthy()) {
            return Err(format!("`{name}` is not healthy after recovery"));
        }
        let same = session.solutions(name).is_ok_and(|recovered| {
            recovered.len() == branches && recovered.iter().zip(chi).all(|(r, c)| r.chi == *c)
        });
        if !same {
            return Err(format!("`{name}` serves another chi than before the drop"));
        }
    }
    Ok(())
}

pub fn run(args: &RunArgs) -> Outcome {
    let scale = args.scale();
    let every = scale.restart_snapshot_every;
    let tail = scale.restart_wal_tail;
    let scratch = ScratchDir::new(args);
    let mut meter = Meter::default();
    let mut tr = Tracer::new();
    let ((db, crashed), setup_s) = repeat_setup(
        &mut meter,
        &mut tr,
        args.trace,
        scale.setup_repetitions,
        |tr| {
            let db = tr.span("datagen.generate", |_| {
                inputs::lubm(scale.restart_lubm_universities)
            });
            let root = scratch.path().join("crashed");
            let crashed = crash_after(tr, &db, args, root, every + tail);
            (db, crashed)
        },
    );
    // Traced runs only: the same script stopped where the snapshot has just
    // fired and the WAL tail is empty.
    let no_tail = args.trace.then(|| {
        let root = scratch.path().join("crashed-no-tail");
        crash_after(&mut Tracer::new(), &db, args, root, every)
    });
    for why in crashed
        .failures
        .iter()
        .chain(no_tail.iter().flat_map(|c| &c.failures))
    {
        meter.fail(why);
    }

    let work = scratch.path().join("work");
    let fresh_copy = |from: &Path| {
        let _ = std::fs::remove_dir_all(&work);
        copy_dir(from, &work).expect("copy of the crashed directory");
    };
    let mut no_tail_s = Vec::new();
    let mut traced_s = Vec::new();
    let start = Instant::now();
    while meter.ops_timed() == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let round = meter.begin_round();
        for _ in 0..scale.restart_round_ops {
            fresh_copy(&crashed.root);
            let unit = meter.begin_unit(&mut tr, args.trace, 1);
            let recovered = meter.op(&mut tr, |tr| {
                tr.span("core.session.recover", |_| {
                    QuerySession::recover(recover_options(&work, every))
                })
            });
            let traced = meter.end_unit(&mut tr, unit);
            let Some((recovered, secs)) = recovered else {
                continue;
            };
            if let Err(why) = judge(recovered, &crashed, tail) {
                meter.fail(why);
            }
            if !traced {
                continue;
            }
            traced_s.push(secs);

            // Beside the op: each branch on its own, then the whole session
            // from the directory without a WAL tail.
            tr.set_recording(true);
            fresh_copy(&crashed.root);
            let mut branches = Vec::new();
            branch_dirs(&work, &mut branches);
            let mut branch_s = 0.0;
            for dir in branches {
                let opts = DurabilityOptions {
                    snapshot_every: Some(every),
                    ..DurabilityOptions::new(dir)
                };
                let (result, secs) = tr.timed_span("core.durability.recover_branch", |_| {
                    IncrementalDualSim::recover(&opts)
                });
                if let Err(e) = result {
                    meter.fail(format!("branch recovery: {e}"));
                }
                branch_s += secs;
            }
            meter.sample("core.durability.recover_branch", branch_s);
            if let Some(no_tail) = &no_tail {
                fresh_copy(&no_tail.root);
                let (result, secs) = tr.timed_span("core.session.recover_no_tail", |_| {
                    QuerySession::recover(recover_options(&work, every))
                });
                if let Err(why) = judge(result, no_tail, 0) {
                    meter.fail(format!("without tail: {why}"));
                }
                no_tail_s.push(secs);
            }
            tr.set_recording(false);
        }
        meter.end_round(round);
    }

    // The op is one library call; the branches recovered on their own beside
    // it say how much of it is the durability layer's.
    let shares = args.trace.then(|| {
        meter.sample("graph.memory_bytes", db.memory_footprint() as f64);
        meter.sample(
            "core.durability.replay_per_record_ms",
            (median(&traced_s) - median(&no_tail_s)) * 1e3 / tail as f64,
        );
        let branches = meter.layer_value("core.durability.recover_branch_s") / median(&traced_s);
        vec![
            ("core.durability.recover_branch", branches),
            ("core.session.recover_self", 1.0 - branches),
        ]
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
        ("batches_before_drop", Json::Num((every + tail) as f64)),
        ("wal_tail_records_per_branch", Json::Num(tail as f64)),
        ("recoveries", Json::Num(meter.ops_timed() as f64)),
        ("recover_no_tail_p50_s", Json::Num(median(&no_tail_s))),
    ]);
    Outcome {
        meter,
        setup_s,
        tracer: tr,
        shares,
        detail,
    }
}
