//! The names, units and bounds of everything the benchmark reports, and
//! the `BENCHMARK.json` manifest built from them. A unit test keeps the
//! committed `BENCHMARK.json` equal to [`manifest`].

use crate::json::Json;

/// How long one run measures; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const LOAD_LUBM: &str = "load-lubm";
pub const LOAD_DBPEDIA: &str = "load-dbpedia";
pub const COLD_LUBM: &str = "cold-lubm";
pub const COLD_DBPEDIA: &str = "cold-dbpedia";
pub const SOLVE_SWEEP: &str = "solve-sweep";
pub const RESIDENT_CHURN: &str = "resident-churn";
pub const RESIDENT_DURABLE: &str = "resident-durable";
pub const RESTART_DURABLE: &str = "restart-durable";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: LOAD_LUBM,
        why: "op = parse_ntriples of the LUBM text, lines in seeded order: text scan, interning and CSR build on \
              18 large labels. Every other workload hides this step in set-up; bypasses query, core and engine.",
    },
    Workload {
        name: LOAD_DBPEDIA,
        why: "The same op on the DBpedia-like text: 151 mostly small labels, whose per-label matrices weigh more \
              than the text (73 MB of adjacency from 5 MB), so a triple costs twice as much to load.",
    },
    Workload {
        name: COLD_LUBM,
        why: "Paper pipeline on the few-label, low-selectivity graph: op = one of L0-L5 through parse, prune, \
              pruned_db, nested-loop join, nothing kept between ops; solver, extraction, rebuild and join all show.",
    },
    Workload {
        name: COLD_DBPEDIA,
        why: "Same pipeline on 151 labels with D0-D5 and B0-B19: solves are sub-millisecond, so the \
              per-label rebuild in pruned_db is the op; a solver gain must show no change here.",
    },
    Workload {
        name: SOLVE_SWEEP,
        why: "Both graphs resident, op = parse + build_sois + solve for the 32 paper queries plus the dense S4: \
              bypasses graph and engine, so solver and kernel work is judged here and nowhere else.",
    },
    Workload {
        name: RESIDENT_CHURN,
        why: "Memory-only QuerySession, 8 standing LUBM queries, op = apply_batch of 64 seeded victim triples, \
              alternating delete and re-insert: the graph layer as point-update writer; bypasses durability.",
    },
    Workload {
        name: RESIDENT_DURABLE,
        why: "Same fleet and script with WAL, fsync on and a snapshot every 64 batches, timed in whole snapshot \
              cycles: isolates logging and snapshot cost from the rebuild cost resident-churn already shows.",
    },
    Workload {
        name: RESTART_DURABLE,
        why: "op = QuerySession::recover from a snapshot plus a 4-record WAL tail per branch, on copies of one \
              crashed session's directory: the read-back side of durability, next to a cold register.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a caller of the library sees. Every workload reports all of them;
/// what an op is differs per workload and is stated in `README.md`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly between runs with one seed; `check`
    /// fails if it differs at all.
    pub exact: bool,
}

/// A time or size measured by a clock or a gauge: it varies between runs.
const fn measured(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// A count the program makes that repeats exactly.
const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Per-layer metrics of the traced run. Times are span self time summed
/// per pass (cold, sweep), per batch (resident) or per recovery (restart),
/// then the median; a metric a workload does not exercise reads 0.
pub const PER_LAYER: &[Layer] = &[
    measured("datagen.generate_s", "s"),
    measured("datagen.serialize_s", "s"),
    measured("graph.load_s", "s"),
    measured("graph.build_s", "s"),
    measured("graph.dictionary_s", "s"),
    measured("graph.rebuild_per_batch_ms", "ms"),
    measured("graph.drop_s", "s"),
    count("graph.memory_bytes", "B"),
    measured("query.parse_s", "s"),
    measured("core.soi.build_s", "s"),
    measured("core.solver.solve_s", "s"),
    count("core.solver.iterations", "count"),
    count("core.solver.work_ops", "count"),
    measured("core.delta.solve_s", "s"),
    count("core.delta.work_ops", "count"),
    measured("core.baseline.ma_s", "s"),
    measured("core.pruning.prune_s", "s"),
    measured("core.pruning.extract_s", "s"),
    measured("core.pruning.materialize_s", "s"),
    count("core.pruning.kept_ratio", "ratio"),
    measured("engine.nl_pruned_s", "s"),
    count("engine.results", "count"),
    measured("engine.nl_full_s", "s"),
    measured("engine.hash_pruned_s", "s"),
    measured("core.incremental.new_s", "s"),
    measured("core.incremental.apply_ms", "ms"),
    count("core.incremental.work_ops", "count"),
    measured("core.session.new_s", "s"),
    measured("core.session.register_s", "s"),
    measured("core.session.self_ms", "ms"),
    measured("core.session.noop_batch_ms", "ms"),
    Layer {
        name: "core.session.updates_per_s",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
    count("core.session.failures", "count"),
    count("core.session.replay_heals", "count"),
    count("core.session.rebuild_heals", "count"),
    count("core.session.quarantines", "count"),
    measured("core.session.recover_s", "s"),
    measured("core.durability.batch_overhead_ms", "ms"),
    measured("core.durability.snapshot_batch_ms", "ms"),
    count("core.durability.wal_bytes_per_batch", "B"),
    count("core.durability.snapshot_bytes", "B"),
    count("core.durability.disk_bytes_per_update", "B"),
    measured("core.durability.recover_branch_s", "s"),
    measured("core.durability.replay_per_record_ms", "ms"),
    measured("bitmatrix.multiply_ns_per_row", "ns"),
    measured("bitmatrix.count_into_ns_per_row", "ns"),
    measured("trace.overhead_ratio", "ratio"),
    Layer {
        name: "trace.attributed_share",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
    },
];

/// `BENCHMARK.json`, in the shape the driver's contract prescribes.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                        Json::obj([("name", Json::str(w.name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(
                why.chars().count() <= 200,
                "{}: why has {} chars",
                w.name,
                why.chars().count()
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn metric_names_survive_a_json_round_trip() {
        let line = manifest().to_line();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, manifest());
        let names: Vec<Json> = back
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").cloned().unwrap())
            .collect();
        let declared: Vec<Json> = PER_LAYER.iter().map(|m| Json::str(m.name)).collect();
        assert_eq!(names, declared);
    }

    #[test]
    fn committed_manifest_equals_the_one_the_code_builds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).unwrap(),
            manifest(),
            "run `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }
}
