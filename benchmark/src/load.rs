//! `load-lubm` and `load-dbpedia`: one op is `parse_ntriples` from N-Triples
//! text in memory to a queryable `GraphDb`, the step between a dump and the
//! first query, which no other workload times. The text holds the generated
//! graph's lines in an order drawn from the seed.
//!
//! Oracle, outside the timed op: the loaded graph has the sizes and the
//! triples, id for id, of the first load of the same text, and that first
//! load written back to N-Triples has exactly the lines of the text. Only a
//! fingerprint of the first load is kept, so that one graph is alive at a
//! time, as for a caller who loads once, and `peak_rss_mb` is the load's.

use crate::inputs::{self, Dataset};
use crate::json::Json;
use crate::run::{repeat_setup, Meter, Outcome, RunArgs};
use crate::stats::median;
use crate::trace::Tracer;
use dualsim_graph::{parse_ntriples, write_ntriples, GraphDb, Triple};
use std::time::Instant;

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

pub fn run(args: &RunArgs, dataset: Dataset) -> Outcome {
    let scale = args.scale();
    let size = match dataset {
        Dataset::Lubm => scale.load_lubm_universities,
        Dataset::Dbpedia => scale.load_dbpedia_entities,
    };
    let mut meter = Meter::default();
    let mut tr = Tracer::new();
    let (text, setup_s) = repeat_setup(
        &mut meter,
        &mut tr,
        args.trace,
        scale.setup_repetitions,
        |tr| {
            let db = tr.span("datagen.generate", |_| dataset.generate(size));
            tr.span("datagen.serialize", |_| {
                inputs::shuffled_lines(&write_ntriples(&db), args.seed)
            })
        },
    );

    let expected = {
        let first = parse_ntriples(&text).expect("generated N-Triples parse");
        if sorted_lines(&write_ntriples(&first)) != sorted_lines(&text) {
            meter.fail("the loaded graph written back is not the text that was loaded");
        }
        Fingerprint::of(&first)
    };

    let start = Instant::now();
    while meter.ops_timed() == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let round = meter.begin_round();
        for _ in 0..scale.load_round_ops {
            let unit = meter.begin_unit(&mut tr, args.trace, 1);
            let loaded = meter.op(&mut tr, |tr| {
                tr.span("graph.load", |_| parse_ntriples(&text))
            });
            meter.end_unit(&mut tr, unit);
            match loaded {
                Some((Err(e), _)) => meter.fail(format!("load: {e}")),
                Some((Ok(db), _)) if Fingerprint::of(&db) != expected => {
                    meter.fail("two loads of one text gave different graphs");
                }
                _ => {}
            }
        }
        meter.end_round(round);
    }

    let reference = parse_ntriples(&text).expect("generated N-Triples parse");
    if args.trace {
        // Beside the ops: the CSR build alone, on the id triples the load
        // ends with, so that text scan and interning are what is left.
        tr.set_recording(true);
        let triples: Vec<Triple> = reference.triples().collect();
        for _ in 0..3 {
            let (_, secs) = tr.timed_span("graph.build", |_| {
                reference.with_triples(&triples).expect("own triples")
            });
            meter.sample("graph.build", secs);
        }
        tr.set_recording(false);
        let load = median(meter.samples("graph.load"));
        let build = median(meter.samples("graph.build"));
        meter.sample("graph.dictionary_s", load - build);
        meter.sample("graph.memory_bytes", reference.memory_footprint() as f64);
    }

    let detail = Json::obj([
        ("graph", inputs::graph_json(&reference)),
        ("text_bytes", Json::Num(text.len() as f64)),
        ("loads", Json::Num(meter.ops_timed() as f64)),
    ]);
    Outcome {
        meter,
        setup_s,
        tracer: tr,
        shares: None,
        detail,
    }
}

/// The sizes of a graph and a hash of its id triples in iteration order.
#[derive(PartialEq, Eq)]
struct Fingerprint {
    nodes: usize,
    labels: usize,
    triples: usize,
    hash: u64,
}

impl Fingerprint {
    fn of(db: &GraphDb) -> Self {
        // FNV-1a over the three ids of every triple.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for t in db.triples() {
            for id in [t.s, t.p, t.o] {
                hash = (hash ^ u64::from(id)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Fingerprint {
            nodes: db.num_nodes(),
            labels: db.num_labels(),
            triples: db.num_triples(),
            hash,
        }
    }
}
