//! `cold-lubm` and `cold-dbpedia`: the paper's pipeline from query text to
//! the complete result set, with nothing kept from one query to the next.
//!
//! One op answers one query: `parse -> prune -> pruned_db ->
//! NestedLoopEngine::evaluate`. A pass answers every query of the mix, in an
//! order drawn from the seed. Every answer is compared with the answer of
//! the same engine on the unpruned graph, computed once outside the timed
//! region. Loading the graph is the `load-*` workloads' op, not this one's.

use crate::inputs::{self, Dataset, MixQuery};
use crate::json::Json;
use crate::run::{repeat_setup, Meter, Outcome, RunArgs, OP_SPAN};
use crate::stats::median;
use crate::trace::Tracer;
use dualsim_core::prune;
use dualsim_engine::{Engine, HashJoinEngine, NestedLoopEngine, ResultSet};
use dualsim_graph::GraphDb;
use std::collections::BTreeMap;
use std::time::Instant;

/// One answered query and the counts that explain its cost.
struct Answer {
    results: ResultSet,
    iterations: usize,
    work_ops: usize,
    kept: usize,
    solve_s: f64,
    extract_s: f64,
}

/// The pruned pipeline for one query text, each layer call in its own span.
fn answer(tr: &mut Tracer, db: &GraphDb, text: &str) -> Answer {
    let query = tr
        .span("query.parse", |_| dualsim_query::parse(text))
        .expect("workload query parses");
    let report = tr.span("core.pruning.prune", |_| {
        prune(db, &query, &inputs::cold_config())
    });
    let pruned = tr.span("core.pruning.materialize", |_| report.pruned_db(db));
    let results = tr.span("engine.nl_pruned", |_| {
        NestedLoopEngine.evaluate(&pruned, &query)
    });
    // Freeing the per-query graph is part of what the caller waits for.
    tr.span("graph.drop", |_| drop(pruned));
    Answer {
        results,
        iterations: report.iterations(),
        work_ops: report.branch_stats.iter().map(|s| s.work_ops()).sum(),
        kept: report.num_kept(),
        solve_s: report.solve_time.as_secs_f64(),
        extract_s: report.extract_time.as_secs_f64(),
    }
}

/// What is kept per query for the run record.
#[derive(Default)]
struct QueryRow {
    latencies_ms: Vec<f64>,
    phases_ms: BTreeMap<&'static str, Vec<f64>>,
    iterations: usize,
    work_ops: usize,
    kept: usize,
    results: usize,
    full_ms: f64,
    hash_ms: f64,
}

pub fn run(args: &RunArgs, dataset: Dataset) -> Outcome {
    let scale = args.scale();
    let size = match dataset {
        Dataset::Lubm => scale.cold_lubm_universities,
        Dataset::Dbpedia => scale.cold_dbpedia_entities,
    };
    let mut meter = Meter::default();
    let mut tr = Tracer::new();
    let ((db, mix), setup_s) = repeat_setup(
        &mut meter,
        &mut tr,
        args.trace,
        scale.setup_repetitions,
        |tr| {
            let db = tr.span("datagen.generate", |_| dataset.generate(size));
            (db, inputs::shuffled(dataset.mix(), args.seed))
        },
    );

    // The oracle: the same engine on the unpruned graph (the paper's t_DB).
    let mut rows: Vec<QueryRow> = mix.iter().map(|_| QueryRow::default()).collect();
    let mut oracle = Vec::with_capacity(mix.len());
    for (q, row) in mix.iter().zip(&mut rows) {
        let query = dualsim_query::parse(q.text).expect("workload query parses");
        let start = Instant::now();
        let full = NestedLoopEngine.evaluate(&db, &query);
        row.full_ms = start.elapsed().as_secs_f64() * 1e3;
        oracle.push(full);
    }
    let total_triples = db.num_triples();

    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        let round = meter.begin_round();
        let unit = meter.begin_unit(&mut tr, args.trace, 1);
        let (mut iterations, mut work_ops, mut kept, mut results) = (0, 0, 0, 0);
        let (mut solve_s, mut extract_s) = (0.0, 0.0);
        for ((q, row), expected) in mix.iter().zip(&mut rows).zip(&oracle) {
            let mark = tr.mark();
            let Some((a, secs)) = meter.op(&mut tr, |tr| answer(tr, &db, q.text)) else {
                continue;
            };
            if a.results != *expected {
                meter.fail(format!(
                    "{}: pruned pipeline gave {} rows, the full graph {}",
                    q.id,
                    a.results.len(),
                    expected.len()
                ));
            }
            row.latencies_ms.push(secs * 1e3);
            for (name, s) in tr.self_seconds_since(mark, OP_SPAN).in_op {
                row.phases_ms.entry(name).or_default().push(s * 1e3);
            }
            (row.iterations, row.work_ops) = (a.iterations, a.work_ops);
            (row.kept, row.results) = (a.kept, a.results.len());
            iterations += a.iterations;
            work_ops += a.work_ops;
            kept += a.kept;
            results += a.results.len();
            solve_s += a.solve_s;
            extract_s += a.extract_s;
        }
        meter.end_round(round);
        if meter.end_unit(&mut tr, unit) {
            // The library's own split of `prune` into solving (with SOI
            // construction) and extraction, and the counts of the pass.
            meter.sample("core.solver.solve", solve_s);
            meter.sample("core.pruning.extract", extract_s);
            meter.sample("core.solver.iterations", iterations as f64);
            meter.sample("core.solver.work_ops", work_ops as f64);
            meter.sample("engine.results", results as f64);
            meter.sample(
                "core.pruning.kept_ratio",
                kept as f64 / (total_triples * mix.len()) as f64,
            );
        }
    }

    if args.trace {
        meter.sample("trace.attributed_share", meter.attributed_share());
        beside(&mut meter, &mut tr, &db, &mix, &oracle, &mut rows);
    }

    let detail = Json::obj([
        ("graph", inputs::graph_json(&db)),
        ("passes", Json::Num(passes as f64)),
        (
            "queries",
            Json::Arr(
                mix.iter()
                    .zip(&rows)
                    .map(|(q, row)| query_row_json(q, row))
                    .collect(),
            ),
        ),
    ]);
    Outcome {
        meter,
        setup_s,
        tracer: tr,
        shares: None,
        detail,
    }
}

/// The two reference rows of a traced run, beside the pipeline: the
/// unpruned join (already timed for the oracle) and the hash-join engine on
/// the pruned graph.
fn beside(
    meter: &mut Meter,
    tr: &mut Tracer,
    reference: &GraphDb,
    mix: &[MixQuery],
    oracle: &[ResultSet],
    rows: &mut [QueryRow],
) {
    tr.set_recording(true);
    meter.sample("graph.memory_bytes", reference.memory_footprint() as f64);
    meter.sample(
        "engine.nl_full_s",
        rows.iter().map(|r| r.full_ms).sum::<f64>() / 1e3,
    );

    let mut hash_s = 0.0;
    for ((q, row), expected) in mix.iter().zip(rows.iter_mut()).zip(oracle) {
        let query = dualsim_query::parse(q.text).expect("workload query parses");
        let pruned = prune(reference, &query, &inputs::cold_config()).pruned_db(reference);
        let (results, secs) = tr.timed_span("engine.hash_pruned", |_| {
            HashJoinEngine.evaluate(&pruned, &query)
        });
        row.hash_ms = secs * 1e3;
        hash_s += secs;
        if results != *expected {
            meter.fail(format!("{}: hash join on the pruned graph disagrees", q.id));
        }
    }
    meter.sample("engine.hash_pruned", hash_s);
    tr.set_recording(false);
}

fn query_row_json(q: &MixQuery, row: &QueryRow) -> Json {
    Json::obj([
        ("id", Json::str(q.id)),
        ("answers", Json::Num(row.latencies_ms.len() as f64)),
        ("p50_ms", Json::Num(median(&row.latencies_ms))),
        ("iterations", Json::Num(row.iterations as f64)),
        ("work_ops", Json::Num(row.work_ops as f64)),
        ("kept_triples", Json::Num(row.kept as f64)),
        ("results", Json::Num(row.results as f64)),
        ("full_graph_ms", Json::Num(row.full_ms)),
        ("hash_pruned_ms", Json::Num(row.hash_ms)),
        (
            "phase_ms",
            Json::obj(
                row.phases_ms
                    .iter()
                    .map(|(name, ms)| (*name, Json::Num(median(ms)))),
            ),
        ),
    ])
}
