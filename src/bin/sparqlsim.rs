//! `sparqlsim` — command-line dual simulation processing, mirroring the
//! paper's prototype of the same name.
//!
//! ```text
//! sparqlsim stats    --data DB.nt
//! sparqlsim solve    --data DB.nt (--query Q.rq | --query-text '…') [--strategy S] [--no-early-exit]
//! sparqlsim prune    --data DB.nt (--query Q.rq | --query-text '…') [--output PRUNED.nt]
//! sparqlsim eval     --data DB.nt (--query Q.rq | --query-text '…') [--engine nested|hash] [--limit N] [--pruned]
//! sparqlsim maintain --data DB.nt (--query Q.rq | --query-text '…') --updates U.txt [--fixpoint delta] [--wal DIR [--snapshot-every N]]
//! sparqlsim maintain --resume --wal DIR [--updates MORE.txt]
//! sparqlsim serve    --data DB.nt --queries DIR --updates U.txt [--wal DIR] [--on-error P]
//! ```
//!
//! `solve` prints the largest dual simulation per query variable,
//! `prune` writes/reports the per-query pruning (Sect. 5.2), `eval`
//! runs one of the reference engines, optionally on the pruned database,
//! and `maintain` keeps one solution alive across a signed update stream
//! (N-Triples lines prefixed `+`/`-`; consecutive same-sign lines form a
//! batch) — with `--fixpoint delta` every batch is absorbed by the warm
//! counter-driven maintenance paths instead of a cold re-solve. With
//! `--wal DIR` the resident solution is durable: every committed batch
//! is written ahead to a checksummed log and full-state snapshots are
//! kept, so a later `--resume` run recovers the database, the query and
//! the warm solution from disk instead of `--data`/`--query`.
//!
//! `serve` is the multi-query resident session: every `.rq` file under
//! `--queries DIR` becomes a standing query over one shared database,
//! each shared update batch is validated and deduplicated once and
//! fanned out to every query, and a failure in one query degrades only
//! that query (it keeps serving its last committed match set, marked
//! stale, and heals by deterministic retry/backoff escalating to a cold
//! rebuild) while the others commit normally.

use dualsim::core::{
    build_sois, prune, solve_query, ChiBackend, DrainStrategy, DurabilityOptions, EvalStrategy,
    FixpointMode, IncrementalDualSim, KernelBackend, QueryOutcome, QuerySession,
    SessionDurability, SessionOptions, SlabBackend, SolverConfig,
};
use dualsim::engine::{Engine, HashJoinEngine, NestedLoopEngine};
use dualsim::graph::{parse_ntriples, write_ntriples, GraphDb, GraphView};
use dualsim::query::{parse, Query};
use std::process::ExitCode;

/// Restores the default `SIGPIPE` disposition so `sparqlsim … | head`
/// terminates quietly instead of panicking on a closed stdout.
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

fn main() -> ExitCode {
    restore_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: sparqlsim <command> --data FILE.nt [options]

commands:
  stats        print database statistics
  solve        compute the largest dual simulation for a query
  prune        prune the database for a query (Sect. 5.2)
  eval         evaluate a query with a reference engine
  maintain     maintain one solution across a +/- update stream
  serve        maintain many standing queries across one shared stream
  fingerprint  build the simulation-quotient index (Sect. 6 extension)

options:
  --data FILE.nt        N-Triples database (required)
  --query FILE.rq       query file (SPARQL-S concrete syntax)
  --query-text 'Q'      query given inline
  --strategy S          rowwise | colwise | adaptive   (default adaptive)
  --fixpoint F          reeval | delta                 (default reeval)
  --fixpoint-threads N  delta: drain the removal worklist sharded over N
                        scoped threads (default 1 = sequential; identical
                        solution and work counts for every N)
  --chi-backend B       dense | rle | auto             (default dense)
                        χ storage: dense bit vectors, run-length encoded
                        ones, or a per-solve choice from the seeded
                        candidate density — identical solution and work
                        counts for every backend
  --slab-backend B      dense | sparse | auto          (default dense)
                        delta: support-counter storage — dense u32 arrays,
                        sparse hash counters, or a per-solve choice from
                        the same density bound the χ auto uses; identical
                        solution and logical work counts for every backend
  --seed-threads N      delta: fan the eager counter seeds out over N
                        scoped threads (default 1; identical solution and
                        work counts for every N)
  --kernel-backend K    scalar | unrolled | simd | auto (default auto)
                        word-level kernel instantiation for the bit-vector
                        inner loops: portable scalar, 4x-unrolled, SIMD
                        (AVX2 with runtime detection and scalar fallback),
                        or the best available; identical solution and work
                        counts for every kernel
  --no-early-exit       keep solving after a mandatory variable empties
  --updates FILE        maintain: signed update stream — N-Triples lines
                        prefixed '+' (insert) or '-' (delete); terms must
                        come from the database's fixed vocabulary
  --on-error P          maintain: skip | abort | rollback (default abort)
                        what to do when an update line fails to parse or
                        a batch fails to apply — skip it and continue,
                        abort the run, or roll the batch back and keep
                        the recovered pre-batch solution
  --wal DIR             maintain: durable mode — append every committed
                        batch to a checksummed write-ahead log and keep
                        full-state snapshots under DIR (one branch-<i>/
                        subdirectory per union branch)
  --snapshot-every N    maintain: with --wal, also write a snapshot after
                        every N committed batches (default: only the
                        initial post-solve snapshot; N must be > 0)
  --keep-snapshots N    with --wal, retain only the newest N snapshots
                        per branch, pruning older ones after each
                        successful write (default 2 so recovery can fall
                        back across one corrupted newest; 0 keeps all)
  --queries DIR         serve: register every .rq file under DIR as a
                        standing query (named by file stem) over the
                        shared database; --on-error maps to the session
                        ladder — skip heals degraded queries by
                        retry/backoff (default), rollback quarantines
                        them at the first failure (still serving their
                        last committed match set), abort stops the run
  --resume              maintain: recover database, query and resident
                        solution from --wal DIR (newest snapshot whose
                        checksum verifies, plus the WAL tail; a torn
                        final record is truncated) instead of loading
                        --data/--query, then apply --updates (optional
                        here) on top of the recovered state
  --drain-budget N      delta: cancel any maintenance drain that exceeds
                        N logical ops in one batch; the engine rolls the
                        batch back and the next update falls back to a
                        cold re-solve (default unlimited)
  --no-journal          delta: disable the per-batch rollback journal
                        (errors then poison the engine instead of
                        restoring the pre-batch solution)
  --output FILE.nt      prune: write the pruned database as N-Triples
  --engine E            eval: nested | hash            (default nested)
  --limit N             eval: print at most N rows     (default 20)
  --pruned              eval: evaluate on the pruned view of the database (warns when
                        the query is not well-designed: rows may then be spurious)
  --exclude-labels L,M  fingerprint: predicates to leave out of the index";

/// What `maintain` does when an update line fails to parse or a batch
/// fails to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnError {
    /// Report the failure and continue with the next line / batch.
    Skip,
    /// Stop immediately with a non-zero exit (default).
    Abort,
    /// Report, roll the failing batch back (every union branch restored
    /// to its pre-batch solution), drop the rest of the stream, and
    /// still print the recovered solution with a zero exit.
    Rollback,
}

/// Parsed command line.
struct Opts {
    command: String,
    data: Option<String>,
    query: Option<String>,
    query_text: Option<String>,
    strategy: EvalStrategy,
    fixpoint: FixpointMode,
    fixpoint_threads: usize,
    chi_backend: ChiBackend,
    slab_backend: SlabBackend,
    kernel_backend: KernelBackend,
    seed_threads: usize,
    early_exit: bool,
    updates: Option<String>,
    wal: Option<String>,
    snapshot_every: Option<u64>,
    keep_snapshots: usize,
    queries_dir: Option<String>,
    resume: bool,
    on_error: OnError,
    drain_budget: Option<usize>,
    journal: bool,
    output: Option<String>,
    engine: String,
    limit: usize,
    pruned: bool,
    exclude_labels: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: args.first().cloned().ok_or("missing command")?,
        data: None,
        query: None,
        query_text: None,
        strategy: EvalStrategy::Adaptive,
        fixpoint: FixpointMode::Reevaluate,
        fixpoint_threads: 1,
        chi_backend: ChiBackend::Dense,
        slab_backend: SlabBackend::Dense,
        kernel_backend: KernelBackend::Auto,
        seed_threads: 1,
        early_exit: true,
        updates: None,
        wal: None,
        snapshot_every: None,
        keep_snapshots: 2,
        queries_dir: None,
        resume: false,
        on_error: OnError::Abort,
        drain_budget: None,
        journal: true,
        output: None,
        engine: "nested".to_owned(),
        limit: 20,
        pruned: false,
        exclude_labels: Vec::new(),
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--data" => opts.data = Some(value()?),
            "--updates" => opts.updates = Some(value()?),
            "--wal" => opts.wal = Some(value()?),
            "--snapshot-every" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
                if n == 0 {
                    return Err("--snapshot-every must be at least 1".into());
                }
                opts.snapshot_every = Some(n);
            }
            "--keep-snapshots" => {
                opts.keep_snapshots = value()?
                    .parse()
                    .map_err(|e| format!("--keep-snapshots: {e}"))?;
            }
            "--queries" => opts.queries_dir = Some(value()?),
            "--resume" => opts.resume = true,
            "--on-error" => {
                opts.on_error = match value()?.as_str() {
                    "skip" => OnError::Skip,
                    "abort" => OnError::Abort,
                    "rollback" => OnError::Rollback,
                    other => return Err(format!("unknown on-error policy {other:?}")),
                };
            }
            "--drain-budget" => {
                opts.drain_budget = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--drain-budget: {e}"))?,
                );
            }
            "--no-journal" => opts.journal = false,
            "--query" => opts.query = Some(value()?),
            "--query-text" => opts.query_text = Some(value()?),
            "--output" => opts.output = Some(value()?),
            "--engine" => opts.engine = value()?,
            "--limit" => {
                opts.limit = value()?.parse().map_err(|e| format!("--limit: {e}"))?;
            }
            "--strategy" => {
                opts.strategy = match value()?.as_str() {
                    "rowwise" => EvalStrategy::RowWise,
                    "colwise" => EvalStrategy::ColumnWise,
                    "adaptive" => EvalStrategy::Adaptive,
                    other => return Err(format!("unknown strategy {other:?}")),
                };
            }
            "--fixpoint" => {
                opts.fixpoint = match value()?.as_str() {
                    "reeval" | "reevaluate" => FixpointMode::Reevaluate,
                    "delta" => FixpointMode::DeltaCounting,
                    other => return Err(format!("unknown fixpoint engine {other:?}")),
                };
            }
            "--fixpoint-threads" => {
                opts.fixpoint_threads = value()?
                    .parse()
                    .map_err(|e| format!("--fixpoint-threads: {e}"))?;
                if opts.fixpoint_threads == 0 {
                    return Err("--fixpoint-threads must be at least 1".into());
                }
            }
            "--chi-backend" => {
                let name = value()?;
                opts.chi_backend = ChiBackend::from_name(&name)
                    .ok_or_else(|| format!("unknown chi backend {name:?}"))?;
            }
            "--slab-backend" => {
                let name = value()?;
                opts.slab_backend = SlabBackend::from_name(&name)
                    .ok_or_else(|| format!("unknown slab backend {name:?}"))?;
            }
            "--kernel-backend" => {
                let name = value()?;
                opts.kernel_backend = KernelBackend::from_name(&name)
                    .ok_or_else(|| format!("unknown kernel backend {name:?}"))?;
            }
            "--seed-threads" => {
                opts.seed_threads = value()?
                    .parse()
                    .map_err(|e| format!("--seed-threads: {e}"))?;
                if opts.seed_threads == 0 {
                    return Err("--seed-threads must be at least 1".into());
                }
            }
            "--no-early-exit" => opts.early_exit = false,
            "--pruned" => opts.pruned = true,
            "--exclude-labels" => {
                opts.exclude_labels = value()?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    if opts.resume {
        if opts.command != "maintain" {
            return Err("--resume only applies to the maintain command".into());
        }
        // The database, the query and the solution all come from the
        // durability directory — no --data/--query cold load.
        return cmd_maintain_resume(&opts);
    }
    if opts.snapshot_every.is_some() && opts.wal.is_none() {
        return Err("--snapshot-every requires --wal DIR".into());
    }
    let data_path = opts.data.as_deref().ok_or("--data is required")?;
    let text =
        std::fs::read_to_string(data_path).map_err(|e| format!("reading {data_path}: {e}"))?;
    let db = parse_ntriples(&text).map_err(|e| e.to_string())?;

    match opts.command.as_str() {
        "stats" => cmd_stats(&db),
        "solve" => cmd_solve(&db, &load_query(&opts)?, &config(&opts)),
        "prune" => cmd_prune(
            &db,
            &load_query(&opts)?,
            &config(&opts),
            opts.output.as_deref(),
        ),
        "eval" => cmd_eval(&db, &load_query(&opts)?, &opts),
        "maintain" => cmd_maintain(db, &load_query(&opts)?, &opts),
        "serve" => cmd_serve(&db, &opts),
        "fingerprint" => cmd_fingerprint(&db, &opts),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// One update batch: the sign (`true` = insert) and its triples.
type UpdateBatch = (bool, Vec<dualsim::graph::Triple>);

/// Parses one signed update line (`+`/`-` sign, three IRI terms, `.`).
fn parse_update_line(
    line: &str,
    line_no: usize,
    db: &GraphDb,
) -> Result<(bool, dualsim::graph::Triple), String> {
    use dualsim::graph::Triple;
    let (insert, mut rest) = if let Some(r) = line.strip_prefix('+') {
        (true, r)
    } else if let Some(r) = line.strip_prefix('-') {
        (false, r)
    } else {
        return Err(format!(
            "updates line {line_no}: expected a '+' or '-' sign before the triple"
        ));
    };
    let mut term = |what: &str| -> Result<String, String> {
        let t = rest
            .trim_start()
            .strip_prefix('<')
            .ok_or_else(|| format!("updates line {line_no}: expected '<' opening the {what}"))?;
        let end = t
            .find('>')
            .ok_or_else(|| format!("updates line {line_no}: unterminated {what}"))?;
        rest = &t[end + 1..];
        Ok(t[..end].to_owned())
    };
    let (s, p, o) = (term("subject")?, term("predicate")?, term("object")?);
    if rest.trim() != "." {
        return Err(format!("updates line {line_no}: expected terminating '.'"));
    }
    let node = |name: &str| {
        db.node_id(name).ok_or_else(|| {
            format!(
                "updates line {line_no}: node <{name}> is outside the database's \
                 vocabulary (fixed at load time)"
            )
        })
    };
    let label = db.label_id(&p).ok_or_else(|| {
        format!(
            "updates line {line_no}: predicate <{p}> is outside the database's \
             vocabulary (fixed at load time)"
        )
    })?;
    Ok((insert, Triple::new(node(&s)?, label, node(&o)?)))
}

/// Parses a signed update stream: N-Triples lines (IRI terms only)
/// prefixed `+` or `-`; consecutive lines with the same sign form one
/// batch. Every term must resolve in `db`'s fixed vocabulary.
///
/// With `skip_bad_lines` each unparsable line is collected (with its
/// 1-based line number) instead of failing the whole stream; otherwise
/// the first bad line aborts parsing. The returned `Vec<String>` holds
/// the reports for the skipped lines, in stream order.
fn parse_update_batches(
    text: &str,
    db: &GraphDb,
    skip_bad_lines: bool,
) -> Result<(Vec<UpdateBatch>, Vec<String>), String> {
    let mut batches: Vec<UpdateBatch> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (insert, t) = match parse_update_line(line, idx + 1, db) {
            Ok(parsed) => parsed,
            Err(msg) if skip_bad_lines => {
                skipped.push(msg);
                continue;
            }
            Err(msg) => return Err(msg),
        };
        match batches.last_mut() {
            Some((sign, batch)) if *sign == insert => batch.push(t),
            _ => batches.push((insert, vec![t])),
        }
    }
    Ok((batches, skipped))
}

/// The resident-solution loop: one initial solve, then every update
/// batch maintained in place. Under `--fixpoint delta` insertions ride
/// the counter-driven re-activation frontier and deletions the support
/// countdown, so no batch triggers a cold re-solve; under the default
/// re-evaluation engine insertions fall back to a cold solve — the
/// per-batch `warm`/`cold` tag makes the difference visible.
fn cmd_maintain(db: GraphDb, query: &Query, opts: &Opts) -> Result<(), String> {
    let path = opts.updates.as_deref().ok_or("--updates is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (batches, bad_lines) = parse_update_batches(&text, &db, opts.on_error == OnError::Skip)?;
    for msg in &bad_lines {
        eprintln!("warning: {msg} — line skipped");
    }
    let cfg = config(opts);
    let started = std::time::Instant::now();
    let sois = build_sois(&db, query);
    let mut engines: Vec<IncrementalDualSim> = Vec::with_capacity(sois.len());
    match opts.wal.as_deref() {
        None => {
            for soi in sois {
                engines.push(IncrementalDualSim::new(&db, soi, cfg.clone()));
            }
        }
        Some(wal) => {
            // The snapshot carries the query text as opaque metadata so
            // `--resume` can rebuild the printable query without a
            // --query flag.
            let meta = query_source_text(opts)?;
            for (i, soi) in sois.into_iter().enumerate() {
                let mut d = DurabilityOptions::new(branch_dir(wal, i));
                d.snapshot_every = opts.snapshot_every;
                d.keep_snapshots = opts.keep_snapshots;
                d.meta = meta.clone();
                let sim = IncrementalDualSim::new_durable(&db, soi, cfg.clone(), &d)
                    .map_err(|e| format!("durability for union branch {i}: {e}"))?;
                engines.push(sim);
            }
        }
    }
    println!(
        "initial solve in {:?} ({} union branch(es){})",
        started.elapsed(),
        engines.len(),
        if opts.wal.is_some() { ", durable" } else { "" }
    );
    maintain_stream(db, query, engines, &batches, opts)
}

/// Per-union-branch durability directory under the `--wal` root.
fn branch_dir(wal: &str, branch: usize) -> std::path::PathBuf {
    std::path::Path::new(wal).join(format!("branch-{branch}"))
}

/// The `maintain --resume` path: every `branch-<i>/` directory under
/// `--wal` is recovered (newest verified snapshot + WAL tail), the
/// database and the query are rebuilt from the snapshot, and an optional
/// `--updates` stream is applied on top of the recovered state.
fn cmd_maintain_resume(opts: &Opts) -> Result<(), String> {
    let wal = opts.wal.as_deref().ok_or("--resume requires --wal DIR")?;
    if opts.data.is_some() || opts.query.is_some() || opts.query_text.is_some() {
        return Err(
            "--resume restores the database and the query from the snapshot; \
             drop --data/--query/--query-text"
                .into(),
        );
    }
    let mut engines: Vec<IncrementalDualSim> = Vec::new();
    let mut db: Option<GraphDb> = None;
    let mut meta: Option<String> = None;
    for i in 0usize.. {
        let dir = branch_dir(wal, i);
        if !dir.is_dir() {
            break;
        }
        let mut d = DurabilityOptions::new(&dir);
        d.snapshot_every = opts.snapshot_every;
        d.keep_snapshots = opts.keep_snapshots;
        let rec = IncrementalDualSim::recover(&d)
            .map_err(|e| format!("recovering union branch {i} from {}: {e}", dir.display()))?;
        print!(
            "branch {i}: recovered at epoch {} (snapshot epoch {}, {} WAL record(s) replayed",
            rec.report.epoch, rec.report.snapshot_epoch, rec.report.records_replayed,
        );
        if rec.report.torn_bytes > 0 {
            print!(", {} torn byte(s) truncated", rec.report.torn_bytes);
        }
        if rec.report.snapshots_skipped > 0 {
            print!(", {} corrupt snapshot(s) skipped", rec.report.snapshots_skipped);
        }
        println!(")");
        db = Some(rec.db);
        meta = Some(rec.meta);
        engines.push(rec.sim);
    }
    let (Some(db), Some(meta)) = (db, meta) else {
        return Err(format!(
            "nothing to resume: no {} directory under {wal}",
            branch_dir(wal, 0).display()
        ));
    };
    // A kill between the per-branch commits of one batch leaves the
    // branches at different epochs; their recovered databases disagree,
    // so resuming the shared update stream would be unsound.
    let epochs: Vec<u64> = engines.iter().map(IncrementalDualSim::epoch).collect();
    if epochs.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "union branches recovered at different epochs {epochs:?}; \
             the crash hit between branch commits — restart cold from --data"
        ));
    }
    let query = parse(&meta).map_err(|e| format!("query stored in snapshot: {e}"))?;
    let batches = match opts.updates.as_deref() {
        None => Vec::new(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let (batches, bad_lines) =
                parse_update_batches(&text, &db, opts.on_error == OnError::Skip)?;
            for msg in &bad_lines {
                eprintln!("warning: {msg} — line skipped");
            }
            batches
        }
    };
    maintain_stream(db, &query, engines, &batches, opts)
}

/// The shared maintenance loop: merges every update batch into the
/// resident database in place and applies it to every union branch
/// (flipping the database back to the pre-batch graph, with
/// inverse-batch undo of the branches, on error), then prints the
/// per-branch solution and work counters. `db` is the resident database
/// the engines currently reflect — the freshly loaded one for a cold
/// start, the recovered one under `--resume`.
fn maintain_stream(
    mut db: GraphDb,
    query: &Query,
    mut engines: Vec<IncrementalDualSim>,
    batches: &[UpdateBatch],
    opts: &Opts,
) -> Result<(), String> {
    for (i, (insert, batch)) in batches.iter().enumerate() {
        // Check the batch before touching anything: a rejected batch
        // must leave the resident database exactly as it was.
        let mut seen = std::collections::BTreeSet::new();
        let mut problem: Option<String> = batch
            .iter()
            .find(|t| !seen.insert(**t) || db.contains_triple(**t) == *insert)
            .map(|t| {
                format!(
                    "update batch {}: triple (<{}> <{}> <{}>) is {} the database",
                    i + 1,
                    db.node_name(t.s),
                    db.label_name(t.p),
                    db.node_name(t.o),
                    if *insert { "already in" } else { "not in" }
                )
            });
        let started = std::time::Instant::now();
        let mut changed = 0usize;
        let mut warm = true;
        // Union branches that committed the batch before a later branch
        // failed — they must be walked back so every branch reflects
        // the same database again.
        let mut committed = 0usize;
        let mut merged = false;
        if problem.is_none() {
            match db.apply(*insert, batch) {
                Err(e) => problem = Some(format!("update batch {}: {e}", i + 1)),
                Ok(_) => {
                    merged = true;
                    for engine in &mut engines {
                        let applied = if *insert {
                            engine.apply_insertions(&db, batch)
                        } else {
                            engine.apply_deletions(&db, batch)
                        };
                        match applied {
                            Ok(n) => {
                                changed += n;
                                warm &= engine.last_update_was_warm();
                                committed += 1;
                            }
                            Err(e) => {
                                problem = Some(format!("update batch {}: {e}", i + 1));
                                break;
                            }
                        }
                    }
                }
            }
        }
        let msg = match problem {
            None => {
                println!(
                    "batch {}: {}{} triple(s), {} candidate(s) {}, {} in {:?}",
                    i + 1,
                    if *insert { "+" } else { "-" },
                    batch.len(),
                    changed,
                    if *insert { "gained" } else { "dropped" },
                    if warm { "warm maintenance" } else { "cold re-solve" },
                    started.elapsed()
                );
                continue;
            }
            Some(msg) if opts.on_error == OnError::Abort => return Err(msg),
            Some(msg) => msg,
        };
        // The failing branch rolled its own epoch back; flip the
        // database back to the pre-batch graph and undo the branches
        // that had already committed by applying the inverse batch (the
        // largest dual simulation is unique per database, so this
        // restores the pre-batch solution exactly).
        if merged {
            db.apply(!*insert, batch)
                .map_err(|e| format!("undoing batch {}: {e}", i + 1))?;
            for engine in engines.iter_mut().take(committed) {
                let undone = if *insert {
                    engine.apply_deletions(&db, batch)
                } else {
                    engine.apply_insertions(&db, batch)
                };
                undone.map_err(|e| format!("undoing batch {}: {e}", i + 1))?;
            }
        }
        if opts.on_error == OnError::Skip {
            eprintln!("warning: {msg} — batch rolled back, continuing");
        } else {
            eprintln!("warning: {msg} — batch rolled back, dropping the rest of the stream");
            break;
        }
    }
    for (i, engine) in engines.iter().enumerate() {
        if engines.len() > 1 {
            println!("— union branch {i} —");
        }
        let (soi, solution) = (engine.soi(), engine.solution());
        for var in query.vars() {
            let chi = solution.var_solution(soi, var);
            let count = chi.count_ones();
            let preview: Vec<&str> = chi
                .iter_ones()
                .take(5)
                .map(|n| db.node_name(n as u32))
                .collect();
            let ellipsis = if count > 5 { ", …" } else { "" };
            println!(
                "?{var}: {count} candidates [{}{ellipsis}]",
                preview.join(", ")
            );
        }
        let s = engine.maintenance_stats();
        println!(
            "maintenance work: counter_increments={} reactivations={} counter_decrements={} \
             delta_removals={} ops={}",
            s.counter_increments,
            s.reactivations,
            s.counter_decrements,
            s.delta_removals,
            s.work_ops()
        );
        println!(
            "robustness: rollbacks={} poisonings={} budget_aborts={} journal_entries={}",
            s.rollbacks, s.poisonings, s.budget_aborts, s.journal_entries
        );
    }
    Ok(())
}

/// The resident multi-query session loop: every `.rq` file under
/// `--queries DIR` is registered as a standing query, then each shared
/// update batch is validated once and fanned out to all of them. The
/// per-query outcome of every batch is reported, and a final summary
/// prints each query's health, per-variable candidates and maintenance
/// work.
fn cmd_serve(db: &GraphDb, opts: &Opts) -> Result<(), String> {
    let dir = opts
        .queries_dir
        .as_deref()
        .ok_or("serve requires --queries DIR")?;
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rq"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .rq query files under {dir}"));
    }

    let sopts = SessionOptions {
        // `rollback` maps to the quarantine-at-first-failure rung of
        // the session ladder: the query keeps serving its rolled-back
        // (stale) match set, but is never retried automatically.
        auto_heal: opts.on_error != OnError::Rollback,
        durability: opts.wal.as_deref().map(|wal| SessionDurability {
            root: wal.into(),
            snapshot_every: opts.snapshot_every,
            fsync: true,
            keep_snapshots: opts.keep_snapshots,
        }),
        ..SessionOptions::default()
    };
    let cfg = config(opts);
    let started = std::time::Instant::now();
    let mut session = QuerySession::new(db.clone(), sopts);
    for path in &files {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let branches = session
            .register(&name, &text, cfg.clone())
            .map_err(|e| e.to_string())?;
        println!(
            "registered `{name}` ({branches} union branch(es), {} candidate(s))",
            session.candidates(&name).map_err(|e| e.to_string())?
        );
    }
    println!(
        "session of {} quer(ies) solved in {:?}{}",
        session.len(),
        started.elapsed(),
        if opts.wal.is_some() { ", durable" } else { "" }
    );

    let path = opts.updates.as_deref().ok_or("--updates is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (batches, bad_lines) = parse_update_batches(&text, db, opts.on_error == OnError::Skip)?;
    for msg in &bad_lines {
        eprintln!("warning: {msg} — line skipped");
    }
    'stream: for (i, (insert, batch)) in batches.iter().enumerate() {
        let started = std::time::Instant::now();
        let report = session
            .apply_batch(*insert, batch)
            .map_err(|e| format!("update batch {}: {e}", i + 1))?;
        println!(
            "batch {}: {}{} triple(s) applied ({} duplicate(s), {} no-op(s) dropped) in {:?}",
            i + 1,
            if *insert { "+" } else { "-" },
            report.applied,
            report.deduped,
            report.noops,
            started.elapsed()
        );
        for (name, outcome) in &report.outcomes {
            match outcome {
                QueryOutcome::Committed {
                    gained,
                    dropped,
                    warm,
                } => println!(
                    "  `{name}`: committed, +{gained}/-{dropped} candidate(s), {}",
                    if *warm { "warm maintenance" } else { "cold re-solve" }
                ),
                QueryOutcome::Healed {
                    via,
                    gained,
                    dropped,
                } => println!(
                    "  `{name}`: healed by {}, +{gained}/-{dropped} candidate(s) vs stale set",
                    match via {
                        dualsim::core::HealPath::Replay => "backlog replay",
                        dualsim::core::HealPath::Rebuild => "cold rebuild",
                    }
                ),
                QueryOutcome::Failed { error, health } => {
                    eprintln!("warning: `{name}` failed batch {}: {error} — now {health}", i + 1);
                    if opts.on_error == OnError::Abort {
                        eprintln!("warning: dropping the rest of the stream (--on-error abort)");
                        break 'stream;
                    }
                }
                QueryOutcome::Stale { health } => {
                    println!("  `{name}`: serving stale — {health}");
                }
            }
        }
    }

    for name in session.query_names().into_iter().map(String::from).collect::<Vec<_>>() {
        let health = session.health(&name).map_err(|e| e.to_string())?.clone();
        println!("— query `{name}`: {health} —");
        let query = parse(session.query_text(&name).map_err(|e| e.to_string())?)
            .map_err(|e| format!("`{name}`: {e}"))?;
        let sois = session.sois(&name).map_err(|e| e.to_string())?;
        let solutions = session.solutions(&name).map_err(|e| e.to_string())?;
        for (b, (soi, solution)) in sois.iter().zip(&solutions).enumerate() {
            if solutions.len() > 1 {
                println!("  — union branch {b} —");
            }
            for var in query.vars() {
                let chi = solution.var_solution(soi, var);
                let count = chi.count_ones();
                let preview: Vec<&str> = chi
                    .iter_ones()
                    .take(5)
                    .map(|n| db.node_name(n as u32))
                    .collect();
                let ellipsis = if count > 5 { ", …" } else { "" };
                println!("  ?{var}: {count} candidates [{}{ellipsis}]", preview.join(", "));
            }
        }
    }
    let s = session.stats();
    println!(
        "session: {} batch(es), {} triple(s) validated once, {} duplicate(s) + {} no-op(s) \
         dropped, {} fan-out application(s)",
        s.batches, s.triples_validated, s.duplicates_dropped, s.noops_dropped,
        s.fanout_applications
    );
    println!(
        "healing: {} failure(s), {} replay heal(s), {} rebuild heal(s), {} failed retr(ies), \
         {} quarantine(s)",
        s.failures, s.replay_heals, s.rebuild_heals, s.failed_retries, s.quarantines
    );
    Ok(())
}

fn cmd_fingerprint(db: &GraphDb, opts: &Opts) -> Result<(), String> {
    use dualsim::core::QuotientIndex;
    let labels: Vec<u32> = (0..db.num_labels() as u32)
        .filter(|&l| !opts.exclude_labels.iter().any(|x| x == db.label_name(l)))
        .collect();
    let started = std::time::Instant::now();
    let index = QuotientIndex::build_for_labels(db, &labels);
    println!(
        "fingerprint over {} of {} predicates:",
        labels.len(),
        db.num_labels()
    );
    println!(
        "  {} blocks for {} nodes ({:.2}x compression)",
        index.num_blocks(),
        db.num_nodes(),
        index.node_compression()
    );
    println!(
        "  quotient: {} triples (original {})",
        index.quotient().num_triples(),
        db.num_triples()
    );
    println!(
        "  {} refinement rounds in {:?}",
        index.rounds,
        started.elapsed()
    );
    Ok(())
}

fn config(opts: &Opts) -> SolverConfig {
    SolverConfig {
        strategy: opts.strategy,
        fixpoint: opts.fixpoint,
        drain: if opts.fixpoint_threads > 1 {
            DrainStrategy::Sharded {
                threads: opts.fixpoint_threads,
            }
        } else {
            DrainStrategy::Sequential
        },
        chi_backend: opts.chi_backend,
        slab_backend: opts.slab_backend,
        kernel_backend: opts.kernel_backend,
        seed_threads: opts.seed_threads,
        early_exit: opts.early_exit,
        drain_budget: opts.drain_budget,
        journal: opts.journal,
        ..SolverConfig::default()
    }
}

/// The query's concrete text, from `--query FILE` or `--query-text`.
fn query_source_text(opts: &Opts) -> Result<String, String> {
    match (&opts.query, &opts.query_text) {
        (Some(path), None) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
        }
        (None, Some(text)) => Ok(text.clone()),
        _ => Err("exactly one of --query / --query-text is required".into()),
    }
}

fn load_query(opts: &Opts) -> Result<Query, String> {
    parse(&query_source_text(opts)?).map_err(|e| e.to_string())
}

fn cmd_stats(db: &GraphDb) -> Result<(), String> {
    println!("nodes     : {}", db.num_nodes());
    println!("triples   : {}", db.num_triples());
    println!("predicates: {}", db.num_labels());
    println!(
        "matrices  : {:.1} KiB (forward + backward adjacency)",
        db.memory_footprint() as f64 / 1024.0
    );
    let mut labels: Vec<(usize, String)> = (0..db.num_labels() as u32)
        .map(|l| (db.num_label_triples(l), db.label_name(l).to_owned()))
        .collect();
    labels.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
    println!("top predicates:");
    for (count, name) in labels.into_iter().take(10) {
        println!("  {count:>9}  {name}");
    }
    Ok(())
}

fn cmd_solve(db: &GraphDb, query: &Query, cfg: &SolverConfig) -> Result<(), String> {
    let started = std::time::Instant::now();
    let branches = solve_query(db, query, cfg);
    let elapsed = started.elapsed();
    for (i, (soi, solution)) in branches.iter().enumerate() {
        if branches.len() > 1 {
            println!("— union branch {i} —");
        }
        for var in query.vars() {
            let chi = solution.var_solution(soi, var);
            let count = chi.count_ones();
            let preview: Vec<&str> = chi
                .iter_ones()
                .take(5)
                .map(|n| db.node_name(n as u32))
                .collect();
            let ellipsis = if count > 5 { ", …" } else { "" };
            println!(
                "?{var}: {count} candidates [{}{ellipsis}]",
                preview.join(", ")
            );
        }
        let s = &solution.stats;
        println!(
            "iterations={} updates={} rowwise={} colwise={} empty={}",
            s.iterations, s.updates, s.rowwise, s.colwise, s.emptied_mandatory
        );
        println!(
            "work: rows_ored={} bits_probed={} counter_inits={} counter_decrements={} \
             delta_removals={} ops={}",
            s.rows_ored,
            s.bits_probed,
            s.counter_inits,
            s.counter_decrements,
            s.delta_removals,
            s.work_ops()
        );
        // The backend-dependent gauges, on their own line: the work
        // counters above are bit-identical across χ/slab backends, but
        // peak storage and the drain's row-pointer loads legitimately
        // differ per backend.
        println!(
            "storage: chi_peak_words={} slab_peak_words={} row_lookups={}",
            s.chi_peak_words, s.slab_peak_words, s.row_lookups
        );
    }
    println!("solved in {elapsed:?}");
    Ok(())
}

fn cmd_prune(
    db: &GraphDb,
    query: &Query,
    cfg: &SolverConfig,
    output: Option<&str>,
) -> Result<(), String> {
    let report = prune(db, query, cfg);
    println!(
        "kept {} of {} triples ({:.2}% pruned) in {:?} ({} iterations)",
        report.num_kept(),
        db.num_triples(),
        100.0 * report.prune_ratio(db),
        report.total_time(),
        report.iterations()
    );
    if let Some(path) = output {
        let pruned = report.pruned_db(db).materialize();
        std::fs::write(path, write_ntriples(&pruned))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("pruned database written to {path}");
    }
    Ok(())
}

fn cmd_eval(db: &GraphDb, query: &Query, opts: &Opts) -> Result<(), String> {
    let engine: Box<dyn Engine> = match opts.engine.as_str() {
        "nested" => Box::new(NestedLoopEngine),
        "hash" => Box::new(HashJoinEngine),
        other => return Err(format!("unknown engine {other:?}")),
    };
    let cfg = config(opts);
    let pruned;
    let view: &dyn GraphView = if opts.pruned {
        if !query.is_well_designed() {
            eprintln!(
                "warning: the query is not well-designed; evaluated on the pruning it may \
                 return rows the full database does not (run without --pruned to check)"
            );
        }
        let report = prune(db, query, &cfg);
        println!(
            "pruning kept {} of {} triples in {:?}",
            report.num_kept(),
            db.num_triples(),
            report.total_time()
        );
        pruned = report.pruned_db(db);
        &pruned
    } else {
        db
    };
    let started = std::time::Instant::now();
    let results = engine.evaluate(view, query);
    println!(
        "{} matches in {:?} ({} engine)",
        results.len(),
        started.elapsed(),
        engine.name()
    );
    for row in results.to_named_rows(db).into_iter().take(opts.limit) {
        let rendered: Vec<String> = row.iter().map(|(v, n)| format!("?{v}={n}")).collect();
        println!("  {}", rendered.join("  "));
    }
    if results.len() > opts.limit {
        println!("  … ({} more rows)", results.len() - opts.limit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_reads_flags() {
        let args: Vec<String> = [
            "prune",
            "--data",
            "db.nt",
            "--query-text",
            "{ ?a p ?b }",
            "--strategy",
            "rowwise",
            "--fixpoint",
            "delta",
            "--fixpoint-threads",
            "4",
            "--chi-backend",
            "rle",
            "--slab-backend",
            "sparse",
            "--seed-threads",
            "3",
            "--no-early-exit",
            "--limit",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.command, "prune");
        assert_eq!(opts.data.as_deref(), Some("db.nt"));
        assert_eq!(opts.strategy, EvalStrategy::RowWise);
        assert_eq!(opts.fixpoint, FixpointMode::DeltaCounting);
        assert_eq!(opts.fixpoint_threads, 4);
        assert_eq!(opts.chi_backend, ChiBackend::Rle);
        assert_eq!(opts.slab_backend, SlabBackend::Sparse);
        assert_eq!(opts.seed_threads, 3);
        assert!(!opts.early_exit);
        assert_eq!(opts.limit, 7);
    }

    #[test]
    fn parse_args_accepts_every_slab_backend_and_rejects_bad_values() {
        for (name, expected) in [
            ("dense", SlabBackend::Dense),
            ("sparse", SlabBackend::Sparse),
            ("auto", SlabBackend::Auto),
        ] {
            let args: Vec<String> = ["solve", "--slab-backend", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(parse_args(&args).unwrap().slab_backend, expected);
        }
        for bad in [&["solve", "--slab-backend", "rle"][..], &["solve", "--seed-threads", "0"][..]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_args_accepts_every_chi_backend_and_rejects_unknown_ones() {
        for (name, expected) in [
            ("dense", ChiBackend::Dense),
            ("rle", ChiBackend::Rle),
            ("auto", ChiBackend::Auto),
        ] {
            let args: Vec<String> = ["solve", "--chi-backend", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(parse_args(&args).unwrap().chi_backend, expected);
        }
        let args: Vec<String> = ["solve", "--chi-backend", "sparse"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_accepts_every_kernel_backend_and_rejects_unknown_ones() {
        for (name, expected) in [
            ("scalar", KernelBackend::Scalar),
            ("unrolled", KernelBackend::Unrolled),
            ("simd", KernelBackend::Simd),
            ("auto", KernelBackend::Auto),
        ] {
            let args: Vec<String> = ["solve", "--kernel-backend", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(parse_args(&args).unwrap().kernel_backend, expected);
        }
        let args: Vec<String> = ["solve", "--kernel-backend", "avx512"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_reads_serve_flags() {
        let args: Vec<String> = [
            "serve",
            "--data",
            "db.nt",
            "--queries",
            "queries/",
            "--updates",
            "u.txt",
            "--wal",
            "wal/",
            "--keep-snapshots",
            "5",
            "--on-error",
            "rollback",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.command, "serve");
        assert_eq!(opts.queries_dir.as_deref(), Some("queries/"));
        assert_eq!(opts.updates.as_deref(), Some("u.txt"));
        assert_eq!(opts.wal.as_deref(), Some("wal/"));
        assert_eq!(opts.keep_snapshots, 5);
        assert_eq!(opts.on_error, OnError::Rollback);
    }

    #[test]
    fn parse_args_defaults_snapshot_retention_to_two() {
        let args: Vec<String> = ["maintain"].iter().map(|s| s.to_string()).collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.keep_snapshots, 2);
        assert!(opts.queries_dir.is_none());
    }

    #[test]
    fn parse_args_rejects_bad_snapshot_retention() {
        let args: Vec<String> = ["serve", "--keep-snapshots", "many"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_rejects_zero_fixpoint_threads() {
        let args: Vec<String> = ["solve", "--fixpoint-threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_rejects_unknown_fixpoint_engine() {
        let args: Vec<String> = ["solve", "--fixpoint", "magic"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_rejects_unknown_flags() {
        let args: Vec<String> = ["solve", "--nope"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn update_streams_parse_into_signed_batches() {
        use dualsim::graph::parse_ntriples;
        let db = parse_ntriples("<a> <p> <b> .\n<b> <p> <c> .\n").unwrap();
        let (batches, skipped) = parse_update_batches(
            "# churn\n- <a> <p> <b> .\n- <b> <p> <c> .\n+ <a> <p> <b> .\n",
            &db,
            false,
        )
        .unwrap();
        assert!(skipped.is_empty());
        let shape: Vec<(bool, usize)> = batches.iter().map(|(s, b)| (*s, b.len())).collect();
        assert_eq!(shape, vec![(false, 2), (true, 1)]);

        let unsigned = parse_update_batches("<a> <p> <b> .\n", &db, false).unwrap_err();
        assert!(unsigned.contains("'+' or '-'"), "{unsigned}");
        let foreign = parse_update_batches("+ <zz> <p> <b> .\n", &db, false).unwrap_err();
        assert!(foreign.contains("outside the database's"), "{foreign}");
        let unterminated = parse_update_batches("+ <a> <p> <b>\n", &db, false).unwrap_err();
        assert!(unterminated.contains("terminating '.'"), "{unterminated}");
    }

    #[test]
    fn skipping_bad_update_lines_keeps_the_rest_and_reports_line_numbers() {
        use dualsim::graph::parse_ntriples;
        let db = parse_ntriples("<a> <p> <b> .\n<b> <p> <c> .\n").unwrap();
        // Line 2 is unsigned, line 4 mentions a foreign node; both are
        // skipped, the surviving lines still group into signed batches.
        let (batches, skipped) = parse_update_batches(
            "- <a> <p> <b> .\n<b> <p> <c> .\n- <b> <p> <c> .\n+ <zz> <p> <b> .\n+ <a> <p> <b> .\n",
            &db,
            true,
        )
        .unwrap();
        let shape: Vec<(bool, usize)> = batches.iter().map(|(s, b)| (*s, b.len())).collect();
        assert_eq!(shape, vec![(false, 2), (true, 1)]);
        assert_eq!(skipped.len(), 2);
        assert!(skipped[0].contains("line 2"), "{}", skipped[0]);
        assert!(skipped[1].contains("line 4"), "{}", skipped[1]);
    }

    #[test]
    fn parse_args_reads_the_robustness_flags() {
        let args: Vec<String> = [
            "maintain",
            "--on-error",
            "rollback",
            "--drain-budget",
            "5000",
            "--no-journal",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.on_error, OnError::Rollback);
        assert_eq!(opts.drain_budget, Some(5000));
        assert!(!opts.journal);

        for (name, expected) in [("skip", OnError::Skip), ("abort", OnError::Abort)] {
            let args: Vec<String> = ["maintain", "--on-error", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(parse_args(&args).unwrap().on_error, expected);
        }
        let bad: Vec<String> = ["maintain", "--on-error", "retry"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn parse_args_reads_the_durability_flags() {
        let args: Vec<String> = [
            "maintain",
            "--wal",
            "state.d",
            "--snapshot-every",
            "16",
            "--resume",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.wal.as_deref(), Some("state.d"));
        assert_eq!(opts.snapshot_every, Some(16));
        assert!(opts.resume);

        let defaults = parse_args(&["maintain".to_string()]).unwrap();
        assert_eq!(defaults.wal, None);
        assert_eq!(defaults.snapshot_every, None);
        assert!(!defaults.resume);

        for bad in [
            &["maintain", "--snapshot-every", "0"][..],
            &["maintain", "--snapshot-every", "soon"][..],
            &["maintain", "--wal"][..],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn resume_is_rejected_outside_maintain_and_needs_a_wal_dir() {
        let solve: Vec<String> = ["solve", "--resume", "--wal", "d"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&solve).unwrap_err().contains("maintain"));
        let no_wal: Vec<String> = ["maintain", "--resume"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&no_wal).unwrap_err().contains("--wal"));
        let with_data: Vec<String> = ["maintain", "--resume", "--wal", "d", "--data", "x.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&with_data).unwrap_err().contains("snapshot"));
        let snap_only: Vec<String> = ["maintain", "--snapshot-every", "4", "--data", "x.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&snap_only).unwrap_err().contains("--wal"));
    }

    #[test]
    fn parse_args_reads_the_updates_flag() {
        let args: Vec<String> = ["maintain", "--data", "db.nt", "--updates", "u.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.command, "maintain");
        assert_eq!(opts.updates.as_deref(), Some("u.txt"));
    }

    #[test]
    fn query_source_must_be_unambiguous() {
        let both: Vec<String> = ["solve", "--data", "x", "--query", "a", "--query-text", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&both).unwrap();
        assert!(load_query(&opts).is_err());
    }
}
