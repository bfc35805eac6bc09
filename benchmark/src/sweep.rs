//! `solve-sweep`: both graphs resident, one op per query of the sweep:
//! `parse -> build_sois -> solve` with the default configuration. A pass
//! solves every query once, in an order drawn from the seed. No graph is
//! built and no join runs inside the timed region, so the solver, the SOI
//! construction and the word kernels under them are the whole wall.
//!
//! Oracle: the chi of every solve equals the chi of a delta-counting solve
//! of the same system, computed once outside the timed region.

use crate::inputs::{self, MixQuery};
use crate::json::Json;
use crate::run::{repeat_setup, Meter, Outcome, RunArgs};
use crate::stats::median;
use crate::trace::Tracer;
use dualsim_bitmatrix::BitVec;
use dualsim_core::baseline::dual_simulation_ma;
use dualsim_core::{build_sois, solve, FixpointMode, Solution, SolverConfig};
use dualsim_graph::GraphDb;
use std::time::Instant;

struct Inputs {
    lubm: GraphDb,
    dbpedia: GraphDb,
}

/// L0-L5 and S4 on the LUBM graph, D0-D5 and B0-B19 on the DBpedia-like one.
fn sweep_mix() -> Vec<(bool, MixQuery)> {
    let on_lubm = inputs::lubm_mix().into_iter().chain(inputs::dense_mix());
    on_lubm
        .map(|q| (true, q))
        .chain(inputs::dbpedia_mix().into_iter().map(|q| (false, q)))
        .collect()
}

/// One op: every union-free branch of the query, solved cold.
fn solve_query(tr: &mut Tracer, db: &GraphDb, text: &str, config: &SolverConfig) -> Vec<Solution> {
    let query = tr
        .span("query.parse", |_| dualsim_query::parse(text))
        .expect("workload query parses");
    let sois = tr.span("core.soi.build", |_| build_sois(db, &query));
    sois.iter()
        .map(|soi| tr.span("core.solver.solve", |_| solve(db, soi, config)))
        .collect()
}

/// Two solutions of one system agree if both found the query certainly
/// empty (early exit stops the engines at different points) or their chi
/// are equal.
fn agree(a: &Solution, b: &Solution) -> bool {
    if a.is_certainly_empty() || b.is_certainly_empty() {
        a.is_certainly_empty() == b.is_certainly_empty()
    } else {
        a.chi == b.chi
    }
}

#[derive(Default)]
struct QueryRow {
    latencies_ms: Vec<f64>,
    iterations: usize,
    work_ops: usize,
    delta_ms: f64,
    delta_work_ops: usize,
    ma_ms: Option<f64>,
}

pub fn run(args: &RunArgs) -> Outcome {
    let scale = args.scale();
    let mut meter = Meter::default();
    let mut tr = Tracer::new();
    let (inputs, setup_s) = repeat_setup(
        &mut meter,
        &mut tr,
        args.trace,
        scale.setup_repetitions,
        |tr| {
            tr.span("datagen.generate", |_| Inputs {
                lubm: inputs::lubm(scale.sweep_lubm_universities),
                dbpedia: inputs::dbpedia(scale.sweep_dbpedia_entities),
            })
        },
    );
    let mix = inputs::shuffled(sweep_mix(), args.seed);
    let graph = |on_lubm: bool| {
        if on_lubm {
            &inputs.lubm
        } else {
            &inputs.dbpedia
        }
    };
    let config = inputs::cold_config();

    // The oracle, and at the same time the cold cost of the counting engine
    // that every standing query pays at registration.
    let delta_config = SolverConfig {
        fixpoint: FixpointMode::DeltaCounting,
        ..inputs::cold_config()
    };
    let mut rows: Vec<QueryRow> = mix.iter().map(|_| QueryRow::default()).collect();
    let mut oracle = Vec::with_capacity(mix.len());
    for ((on_lubm, q), row) in mix.iter().zip(&mut rows) {
        let db = graph(*on_lubm);
        let query = dualsim_query::parse(q.text).expect("workload query parses");
        let sois = build_sois(db, &query);
        let start = Instant::now();
        let solutions: Vec<Solution> = sois.iter().map(|s| solve(db, s, &delta_config)).collect();
        row.delta_ms = start.elapsed().as_secs_f64() * 1e3;
        row.delta_work_ops = solutions.iter().map(|s| s.stats.work_ops()).sum();
        oracle.push(solutions);
    }

    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        let round = meter.begin_round();
        let unit = meter.begin_unit(&mut tr, args.trace, 1);
        let (mut iterations, mut work_ops) = (0, 0);
        for (((on_lubm, q), row), expected) in mix.iter().zip(&mut rows).zip(&oracle) {
            let db = graph(*on_lubm);
            let Some((solutions, secs)) =
                meter.op(&mut tr, |tr| solve_query(tr, db, q.text, &config))
            else {
                continue;
            };
            if solutions.len() != expected.len()
                || !solutions.iter().zip(expected).all(|(a, b)| agree(a, b))
            {
                meter.fail(format!(
                    "{}: re-evaluation and delta counting disagree",
                    q.id
                ));
            }
            row.latencies_ms.push(secs * 1e3);
            row.iterations = solutions.iter().map(|s| s.stats.iterations).sum();
            row.work_ops = solutions.iter().map(|s| s.stats.work_ops()).sum();
            iterations += row.iterations;
            work_ops += row.work_ops;
        }
        meter.end_round(round);
        if meter.end_unit(&mut tr, unit) {
            meter.sample("core.solver.iterations", iterations as f64);
            meter.sample("core.solver.work_ops", work_ops as f64);
        }
    }

    if args.trace {
        meter.sample("trace.attributed_share", meter.attributed_share());
        meter.sample(
            "core.delta.solve_s",
            rows.iter().map(|r| r.delta_ms).sum::<f64>() / 1e3,
        );
        meter.sample(
            "core.delta.work_ops",
            rows.iter().map(|r| r.delta_work_ops).sum::<usize>() as f64,
        );
        meter.sample(
            "graph.memory_bytes",
            (inputs.lubm.memory_footprint() + inputs.dbpedia.memory_footprint()) as f64,
        );
        tr.set_recording(true);
        baseline(&mut meter, &mut tr, &mix, &graph, &mut rows);
        kernels(&mut meter, &mut tr, &[&inputs.lubm, &inputs.dbpedia]);
        tr.set_recording(false);
    }

    let detail = Json::obj([
        (
            "graphs",
            Json::obj([
                ("lubm", inputs::graph_json(&inputs.lubm)),
                ("dbpedia", inputs::graph_json(&inputs.dbpedia)),
            ]),
        ),
        ("passes", Json::Num(passes as f64)),
        (
            "queries",
            Json::Arr(
                mix.iter()
                    .zip(&rows)
                    .map(|((_, q), row)| {
                        Json::obj([
                            ("id", Json::str(q.id)),
                            ("solves", Json::Num(row.latencies_ms.len() as f64)),
                            ("p50_ms", Json::Num(median(&row.latencies_ms))),
                            ("iterations", Json::Num(row.iterations as f64)),
                            ("work_ops", Json::Num(row.work_ops as f64)),
                            ("delta_ms", Json::Num(row.delta_ms)),
                            ("delta_work_ops", Json::Num(row.delta_work_ops as f64)),
                            ("ma_ms", row.ma_ms.map_or(Json::Null, Json::Num)),
                        ])
                    })
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

/// The algorithm of Ma et al. on the plain-BGP systems of the sweep: the
/// paper's Table 2 comparator, a reference row that nothing is bound to.
fn baseline<'a>(
    meter: &mut Meter,
    tr: &mut Tracer,
    mix: &[(bool, MixQuery)],
    graph: &impl Fn(bool) -> &'a GraphDb,
    rows: &mut [QueryRow],
) {
    let mut total = 0.0;
    for ((on_lubm, q), row) in mix.iter().zip(rows) {
        let db = graph(*on_lubm);
        let query = dualsim_query::parse(q.text).expect("workload query parses");
        let sois = build_sois(db, &query);
        if !sois.iter().all(|s| s.is_plain_bgp()) {
            continue;
        }
        let secs: f64 = sois
            .iter()
            .map(|soi| {
                tr.timed_span("core.baseline.ma", |_| dual_simulation_ma(db, soi))
                    .1
            })
            .sum();
        row.ma_ms = Some(secs * 1e3);
        total += secs;
    }
    meter.sample("core.baseline.ma", total);
}

/// The two matrix kernels under the solvers, on every label's forward
/// matrix selected by its own row summary (all non-empty rows).
fn kernels(meter: &mut Meter, tr: &mut Tracer, graphs: &[&GraphDb]) {
    for _ in 0..3 {
        let (mut rows, mut multiply_s, mut count_s) = (0usize, 0.0, 0.0);
        for db in graphs {
            let n = db.num_nodes();
            let mut out = BitVec::zeros(n);
            let mut counts = vec![0u32; n];
            for label in 0..db.num_labels() as u32 {
                let matrix = db.forward(label);
                let selector = matrix.row_summary();
                let (selected, secs) = tr.timed_span("bitmatrix.multiply_into", |_| {
                    matrix.multiply_into(selector, &mut out)
                });
                rows += selected;
                multiply_s += secs;
                count_s += tr
                    .timed_span("bitmatrix.count_into", |_| {
                        matrix.count_into(selector, &mut counts)
                    })
                    .1;
            }
        }
        let per_row = 1e9 / rows.max(1) as f64;
        meter.sample("bitmatrix.multiply_ns_per_row", multiply_s * per_row);
        meter.sample("bitmatrix.count_into_ns_per_row", count_s * per_row);
    }
}
