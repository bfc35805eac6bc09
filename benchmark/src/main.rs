//! The repository's benchmark: eight workloads over the library's public API,
//! end-to-end metrics with tracing off and per-layer metrics from a traced
//! run of the same workload and seed. See `README.md` beside this crate.

mod cold;
mod inputs;
mod json;
mod load;
mod metrics;
mod resident;
mod restart;
mod run;
mod stats;
mod suite;
mod sweep;
mod trace;

use inputs::Dataset;
use run::{RunArgs, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
      one run of one workload in this process; prints every metric by name
      with its unit, and as the last line of standard output the result as
      one JSON object
  benchmark suite [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
      every workload, K untraced runs and one traced run each, one process
      per run; prints the table and writes FILE (default
      benchmark/out/results.json)
  benchmark compare OLD.json NEW.json
      one row per workload and end-to-end metric with both medians and
      quartiles and a verdict from the bound; exits 1 on a regression
  benchmark check [--seed N] [--seconds S] [--runs K] [--smoke]
      the suite twice on this build; exits 1 if an end-to-end metric's
      median over the K runs differs by more than its bound or an exact
      count differs at all
  benchmark manifest
      prints BENCHMARK.json
workloads: load-lubm load-dbpedia cold-lubm cold-dbpedia solve-sweep resident-churn
  resident-durable restart-durable";

/// `--flag value` pairs and bare words, in order.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
            switches: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => cli.switches.push("smoke".into()),
                Some(flag) => {
                    let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                    cli.flags.push((flag.to_owned(), value));
                }
                None => cli.words.push(arg),
            }
        }
        Ok(cli)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown argument --{flag}")),
            None => Ok(()),
        }
    }

    fn smoke(&self) -> bool {
        !self.switches.is_empty()
    }
}

fn out_dir(cli: &Cli) -> PathBuf {
    PathBuf::from(cli.flag("out-dir").unwrap_or("benchmark/out"))
}

fn run_workload(args: &RunArgs) -> Result<RunResult, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let outcome = match args.workload.as_str() {
        metrics::LOAD_LUBM => load::run(args, Dataset::Lubm),
        metrics::LOAD_DBPEDIA => load::run(args, Dataset::Dbpedia),
        metrics::COLD_LUBM => cold::run(args, Dataset::Lubm),
        metrics::COLD_DBPEDIA => cold::run(args, Dataset::Dbpedia),
        metrics::SOLVE_SWEEP => sweep::run(args),
        metrics::RESIDENT_CHURN => resident::run(args, false),
        metrics::RESIDENT_DURABLE => resident::run(args, true),
        metrics::RESTART_DURABLE => restart::run(args),
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(RunResult::new(outcome))
}

/// One run of one workload: the body of the `BENCHMARK.json` command.
fn run_one(cli: &Cli) -> Result<ExitCode, String> {
    cli.known(&["workload", "seed", "seconds", "trace", "out-dir"])?;
    let args = RunArgs {
        workload: cli.flag("workload").unwrap_or_default().to_owned(),
        seed: cli.number("seed", 1)?,
        seconds: cli.number("seconds", metrics::RUN_SECONDS as f64)?,
        trace: match cli.flag("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: 0 or 1, not {other:?}")),
        },
        smoke: cli.smoke(),
        out_dir: out_dir(cli),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let result = run_workload(&args)?;
    let tag = format!("{}-trace{}", args.workload, u8::from(args.trace));
    let record = args.out_dir.join(format!("run-{tag}.json"));
    std::fs::write(&record, result.record(&args).to_pretty())
        .map_err(|e| format!("{}: {e}", record.display()))?;
    if args.trace {
        let spans = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
        result
            .tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    print!("{}", result.report(&args));
    println!("{}", result.result_line(args.trace));
    Ok(ExitCode::SUCCESS)
}

fn dispatch() -> Result<ExitCode, String> {
    let cli = Cli::parse(std::env::args().skip(1))?;
    match cli.words.first().map(String::as_str) {
        None if cli.flag("workload").is_some() => run_one(&cli),
        Some("suite") => {
            cli.known(&["seed", "seconds", "runs", "out", "out-dir"])?;
            let options = suite::Options::from_cli(&cli)?;
            let results = suite::run_suite(&options)?;
            let out = cli
                .flag("out")
                .map_or_else(|| options.out_dir.join("results.json"), PathBuf::from);
            std::fs::write(&out, results.to_pretty())
                .map_err(|e| format!("{}: {e}", out.display()))?;
            println!("wrote {}", out.display());
            Ok(if suite::all_correct(&results) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("compare") => match &cli.words[1..] {
            [old, new] => suite::compare_files(old, new),
            _ => Err("compare takes OLD.json NEW.json".into()),
        },
        Some("check") => {
            cli.known(&["seed", "seconds", "runs", "out-dir"])?;
            suite::check(&suite::Options::from_cli(&cli)?)
        }
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("nothing to do".into()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

impl suite::Options {
    fn from_cli(cli: &Cli) -> Result<Self, String> {
        Ok(suite::Options {
            seed: cli.number("seed", 1)?,
            seconds: cli.number("seconds", metrics::RUN_SECONDS as f64)?,
            runs: cli.number("runs", 1usize)?.max(1),
            smoke: cli.smoke(),
            out_dir: out_dir(cli),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PER_LAYER, WORKLOADS};

    fn smoke_run(workload: &str, seed: u64, tag: &str) -> RunResult {
        let args = RunArgs {
            workload: workload.to_owned(),
            seed,
            seconds: 0.05,
            trace: true,
            smoke: true,
            out_dir: std::env::temp_dir().join(format!(
                "dualsim-benchmark-test-{}-{workload}-{tag}",
                std::process::id()
            )),
        };
        let result = run_workload(&args).unwrap();
        // The durable workloads remove their scratch directory themselves.
        assert_eq!(std::fs::read_dir(&args.out_dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&args.out_dir).unwrap();
        result
    }

    /// Every workload at smoke scale: no failed op, and two runs with one
    /// seed agree on every count that is declared exact.
    #[test]
    fn workloads_run_clean_and_equal_seeds_give_identical_counts() {
        for w in WORKLOADS {
            let (a, b) = (smoke_run(w.name, 4, "a"), smoke_run(w.name, 4, "b"));
            for run in [&a, &b] {
                assert!(run.correct, "{}: {:?}", w.name, run.failures);
                assert!(run.attempted >= 1, "{}", w.name);
            }
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                assert_eq!(
                    a.per_layer[m.name], b.per_layer[m.name],
                    "{} {}",
                    w.name, m.name
                );
            }
            // Reported where an op makes several layer calls, 0 elsewhere.
            let share = a.per_layer["trace.attributed_share"];
            let layered = [
                metrics::COLD_LUBM,
                metrics::COLD_DBPEDIA,
                metrics::SOLVE_SWEEP,
            ];
            if layered.contains(&w.name) {
                assert!(
                    share > 0.5 && share <= 1.0,
                    "{}: attributed {share}",
                    w.name
                );
            } else {
                assert_eq!(share, 0.0, "{}", w.name);
            }
        }
        // Another seed is other victims, so other maintenance work, on the
        // same graph, so the same cold solves.
        let other = smoke_run(metrics::RESIDENT_CHURN, 5, "c");
        let same = smoke_run(metrics::RESIDENT_CHURN, 4, "d");
        assert_ne!(
            other.per_layer["core.incremental.work_ops"],
            same.per_layer["core.incremental.work_ops"]
        );
        assert_eq!(
            other.per_layer["graph.memory_bytes"],
            same.per_layer["graph.memory_bytes"]
        );
    }
}
