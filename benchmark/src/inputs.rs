//! Everything the workloads are fed: the generated graphs, the query mixes,
//! the standing-query fleet and the update script. The program under test
//! receives only what is built here.
//!
//! The graphs are the same in every run ([`DATA_SEED`]); `--seed` draws what
//! is done to them: the order of the N-Triples lines a load reads, the order
//! in which a pass asks its queries, and the victim triples of the update
//! batches. A graph drawn from `--seed` would make two seeds two different
//! problems (L0 takes 8 to 12 solver iterations on LUBM(300) depending on
//! the generator seed), and the spread between seeds would measure the
//! generator, not the library.

use crate::json::Json;
use dualsim_core::{FixpointMode, SolverConfig};
use dualsim_datagen::workloads::{
    adversarial_queries, dbpedia_atre_queries, dbsb_queries, lubm_queries, BenchQuery,
};
use dualsim_datagen::{generate_dbpedia, generate_lubm, DbpediaConfig, LubmConfig};
use dualsim_graph::{GraphDb, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `LubmConfig::seed` and `DbpediaConfig::seed` of every generated graph.
pub const DATA_SEED: u64 = 1;

/// The scale constants of one run. They are fixed per build, recorded in
/// every output, and shrunk together by `--smoke`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// LUBM universities of `load-lubm`.
    pub load_lubm_universities: usize,
    /// DBpedia-like entities of `load-dbpedia`.
    pub load_dbpedia_entities: usize,
    /// LUBM universities of `cold-lubm`.
    pub cold_lubm_universities: usize,
    /// DBpedia-like entities of `cold-dbpedia`.
    pub cold_dbpedia_entities: usize,
    /// Both graphs of `solve-sweep`; the sweep does no rebuild and no
    /// join, so it affords the largest graphs.
    pub sweep_lubm_universities: usize,
    pub sweep_dbpedia_entities: usize,
    /// LUBM universities of `resident-churn`.
    pub churn_lubm_universities: usize,
    /// LUBM universities of `resident-durable`, whose every 64th batch
    /// writes the whole fleet's snapshots.
    pub durable_lubm_universities: usize,
    /// LUBM universities of `restart-durable`.
    pub restart_lubm_universities: usize,
    /// Triples per update batch.
    pub batch_triples: usize,
    /// Distinct victim chunks before the script wraps around.
    pub script_chunks: usize,
    /// Delete/insert pairs applied before the timed region of the resident
    /// workloads.
    pub warmup_pairs: usize,
    /// Batches between oracle checks of the resident workloads.
    pub oracle_every: usize,
    /// `SessionDurability::snapshot_every` of `resident-durable`.
    pub snapshot_every: u64,
    /// `restart-durable`: snapshot cadence, and WAL records per branch
    /// past the last snapshot when the session is dropped.
    pub restart_snapshot_every: u64,
    pub restart_wal_tail: u64,
    /// Ops per round where the script has no cycle of its own: loads,
    /// delete/insert pairs and recoveries. (A round of `cold-*` and
    /// `solve-sweep` is a pass over the mix, one of `resident-durable` a
    /// snapshot cycle.)
    pub load_round_ops: usize,
    pub churn_round_pairs: usize,
    pub restart_round_ops: usize,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_repetitions: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            load_lubm_universities: 100,
            load_dbpedia_entities: 30_000,
            cold_lubm_universities: 300,
            cold_dbpedia_entities: 30_000,
            sweep_lubm_universities: 300,
            sweep_dbpedia_entities: 100_000,
            churn_lubm_universities: 300,
            durable_lubm_universities: 100,
            restart_lubm_universities: 30,
            batch_triples: 64,
            script_chunks: 256,
            warmup_pairs: 5,
            oracle_every: 50,
            snapshot_every: 64,
            restart_snapshot_every: 16,
            restart_wal_tail: 4,
            load_round_ops: 8,
            churn_round_pairs: 8,
            restart_round_ops: 5,
            setup_repetitions: 5,
        }
    }

    /// Seconds instead of minutes for the whole suite; used by the unit
    /// tests and `--smoke`.
    pub fn smoke() -> Self {
        Scale {
            load_lubm_universities: 2,
            load_dbpedia_entities: 2_000,
            cold_lubm_universities: 2,
            cold_dbpedia_entities: 2_000,
            sweep_lubm_universities: 2,
            sweep_dbpedia_entities: 2_000,
            churn_lubm_universities: 2,
            durable_lubm_universities: 2,
            restart_lubm_universities: 2,
            batch_triples: 16,
            script_chunks: 32,
            warmup_pairs: 1,
            oracle_every: 10,
            snapshot_every: 8,
            restart_snapshot_every: 4,
            restart_wal_tail: 2,
            load_round_ops: 2,
            churn_round_pairs: 2,
            restart_round_ops: 2,
            setup_repetitions: 2,
        }
    }

    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        Json::obj([
            ("data_seed", n(DATA_SEED as usize)),
            ("load_lubm_universities", n(self.load_lubm_universities)),
            ("load_dbpedia_entities", n(self.load_dbpedia_entities)),
            ("cold_lubm_universities", n(self.cold_lubm_universities)),
            ("cold_dbpedia_entities", n(self.cold_dbpedia_entities)),
            ("sweep_lubm_universities", n(self.sweep_lubm_universities)),
            ("sweep_dbpedia_entities", n(self.sweep_dbpedia_entities)),
            ("churn_lubm_universities", n(self.churn_lubm_universities)),
            (
                "durable_lubm_universities",
                n(self.durable_lubm_universities),
            ),
            (
                "restart_lubm_universities",
                n(self.restart_lubm_universities),
            ),
            ("batch_triples", n(self.batch_triples)),
            ("script_chunks", n(self.script_chunks)),
            ("warmup_pairs", n(self.warmup_pairs)),
            ("oracle_every", n(self.oracle_every)),
            ("snapshot_every", n(self.snapshot_every as usize)),
            (
                "restart_snapshot_every",
                n(self.restart_snapshot_every as usize),
            ),
            ("restart_wal_tail", n(self.restart_wal_tail as usize)),
            ("load_round_ops", n(self.load_round_ops)),
            ("churn_round_pairs", n(self.churn_round_pairs)),
            ("restart_round_ops", n(self.restart_round_ops)),
            ("setup_repetitions", n(self.setup_repetitions)),
        ])
    }
}

pub fn lubm(universities: usize) -> GraphDb {
    generate_lubm(&LubmConfig {
        universities,
        seed: DATA_SEED,
    })
}

/// The generator's default label counts (151 labels with `rdf:type`) at
/// the given entity count.
pub fn dbpedia(entities: usize) -> GraphDb {
    generate_dbpedia(&DbpediaConfig {
        entities,
        seed: DATA_SEED,
        ..DbpediaConfig::default()
    })
}

/// The two graph families: few labels and low selectivity, or many labels
/// and high selectivity.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Lubm,
    Dbpedia,
}

impl Dataset {
    /// `size` is universities or entities.
    pub fn generate(self, size: usize) -> GraphDb {
        match self {
            Dataset::Lubm => lubm(size),
            Dataset::Dbpedia => dbpedia(size),
        }
    }

    /// L0-L5, or D0-D5 and B0-B19.
    pub fn mix(self) -> Vec<MixQuery> {
        match self {
            Dataset::Lubm => lubm_mix(),
            Dataset::Dbpedia => dbpedia_mix(),
        }
    }
}

pub fn graph_json(db: &GraphDb) -> Json {
    Json::obj([
        ("triples", Json::Num(db.num_triples() as f64)),
        ("nodes", Json::Num(db.num_nodes() as f64)),
        ("labels", Json::Num(db.num_labels() as f64)),
        ("memory_bytes", Json::Num(db.memory_footprint() as f64)),
    ])
}

/// `items` in an order drawn from `seed` (Fisher-Yates).
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
    items
}

/// The lines of an N-Triples document in an order drawn from `seed`.
pub fn shuffled_lines(text: &str, seed: u64) -> String {
    let mut out = String::with_capacity(text.len() + 1);
    for line in shuffled(text.lines().collect(), seed) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// One query of a mix: the paper's row id and the concrete syntax. The
/// program under test gets the text and parses it itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixQuery {
    pub id: &'static str,
    pub text: &'static str,
}

fn mix(queries: Vec<BenchQuery>) -> Vec<MixQuery> {
    queries
        .into_iter()
        .map(|b| MixQuery {
            id: b.id,
            text: b.text,
        })
        .collect()
}

/// L0-L5.
pub fn lubm_mix() -> Vec<MixQuery> {
    mix(lubm_queries())
}

/// D0-D5 and B0-B19.
pub fn dbpedia_mix() -> Vec<MixQuery> {
    let mut queries = dbpedia_atre_queries();
    queries.extend(dbsb_queries());
    mix(queries)
}

/// `S4-dense-saturated`, the LUBM query built to keep chi near-full.
pub fn dense_mix() -> Vec<MixQuery> {
    mix(adversarial_queries())
}

/// The configuration of every cold solve: the library default.
pub fn cold_config() -> SolverConfig {
    SolverConfig::default()
}

/// The configuration of every standing query, as `experiments session`
/// uses it: persistent counters, and the largest solution even where a
/// mandatory variable empties.
pub fn resident_config() -> SolverConfig {
    SolverConfig {
        fixpoint: FixpointMode::DeltaCounting,
        early_exit: false,
        ..SolverConfig::default()
    }
}

/// The standing-query fleet: L0-L5, then L0 and L1 again under their own
/// names, so two pairs of queries share all of their work.
pub fn fleet() -> Vec<(String, &'static str)> {
    let lubm = lubm_mix();
    (0..8)
        .map(|i| {
            let q = &lubm[i % lubm.len()];
            (format!("q{i:02}-{}", q.id), q.text)
        })
        .collect()
}

/// The update script of the resident workloads: `chunks` disjoint victim
/// sets of `batch` triples each. A pair deletes one chunk and inserts it
/// back, so the graph has its generated size before every pair.
///
/// The triple list (sorted by label, then subject) is cut into as many
/// equal strata as there are victims and `seed` draws one victim from each;
/// chunk `i` takes every `chunks`-th victim, so each batch touches all
/// labels in proportion to their size.
pub fn update_script(db: &GraphDb, chunks: usize, batch: usize, seed: u64) -> Vec<Vec<Triple>> {
    let all: Vec<Triple> = db.triples().collect();
    let victims = chunks * batch;
    assert!(
        all.len() >= victims,
        "graph of {} triples is too small for {victims} victims",
        all.len()
    );
    let stride = all.len() / victims;
    let mut rng = StdRng::seed_from_u64(seed);
    let drawn: Vec<Triple> = (0..victims)
        .map(|stratum| all[stratum * stride + rng.gen_range(0..stride)])
        .collect();
    (0..chunks)
        .map(|chunk| (0..batch).map(|k| drawn[k * chunks + chunk]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualsim_graph::write_ntriples;
    use std::collections::BTreeSet;

    #[test]
    fn equal_seeds_give_byte_identical_inputs_and_other_seeds_differ() {
        let scale = Scale::smoke();
        for (dataset, size) in [
            (Dataset::Lubm, scale.load_lubm_universities),
            (Dataset::Dbpedia, scale.load_dbpedia_entities),
        ] {
            let graph = || write_ntriples(&dataset.generate(size));
            assert_eq!(graph(), graph());
            let text = |seed| shuffled_lines(&graph(), seed);
            assert_eq!(text(5), text(5));
            assert_ne!(text(5), text(6));
            // Another order of the same lines.
            let lines = |t: &str| t.lines().map(str::to_owned).collect::<BTreeSet<_>>();
            assert_eq!(lines(&text(5)), lines(&graph()));
            assert_eq!(text(5).len(), graph().len());

            let order = |seed| shuffled(dataset.mix(), seed);
            assert_eq!(order(5), order(5));
            assert_ne!(order(5), order(6));
        }

        let db = lubm(scale.churn_lubm_universities);
        let script = |seed| update_script(&db, scale.script_chunks, scale.batch_triples, seed);
        assert_eq!(script(5), script(5));
        assert_ne!(script(5), script(6));
    }

    #[test]
    fn script_chunks_are_disjoint_present_and_of_the_stated_size() {
        let scale = Scale::smoke();
        let db = lubm(scale.churn_lubm_universities);
        let script = update_script(&db, scale.script_chunks, scale.batch_triples, 9);
        assert_eq!(script.len(), scale.script_chunks);
        let mut seen = BTreeSet::new();
        for chunk in &script {
            assert_eq!(chunk.len(), scale.batch_triples);
            for t in chunk {
                assert!(db.contains_triple(*t));
                assert!(seen.insert(*t), "victim {t:?} is in two chunks");
            }
        }
        // Every chunk reaches across the label-sorted triple list.
        let labels: BTreeSet<u32> = script[0].iter().map(|t| t.p).collect();
        assert!(labels.len() > 4, "{labels:?}");
    }

    #[test]
    fn mixes_hold_the_paper_rows() {
        assert_eq!(lubm_mix().len(), 6);
        assert_eq!(dbpedia_mix().len(), 26);
        assert_eq!(dense_mix()[0].id, "S4-dense-saturated");
        let fleet = fleet();
        assert_eq!(fleet.len(), 8);
        assert_eq!(fleet[6].0, "q06-L0");
        assert_eq!(fleet[6].1, fleet[0].1);
    }
}
