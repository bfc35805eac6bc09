//! The whole suite in one command, and the two commands that read what it
//! wrote: `compare` and `check`.
//!
//! Every run is a fresh process of this same executable, so that no
//! workload inherits another's heap, page cache warmth aside.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::environment;
use crate::stats::{median_of_runs, quartiles, spread};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Untraced runs per workload; more than one gives `compare` quartiles.
    pub runs: usize,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// One run in a child process; returns its result line and run record.
fn child(options: &Options, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&options.out_dir);
    if options.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}): {}\n{}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let record_path = options
        .out_dir
        .join(format!("run-{workload}-trace{}.json", u8::from(trace)));
    let record = std::fs::read_to_string(&record_path)
        .map_err(|e| format!("{}: {e}", record_path.display()))
        .and_then(|text| Json::parse(&text))?;
    Ok((result, record))
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Runs every workload: `runs` untraced runs and one traced run each.
/// Prints the table as it goes and returns the results document.
pub fn run_suite(options: &Options) -> Result<Json, String> {
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let mut workloads = BTreeMap::new();
    let mut scale = Json::Null;
    for w in WORKLOADS {
        println!("== {} ==", w.name);
        let mut end_to_end: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for _ in 0..options.runs {
            let (result, _) = child(options, w.name, false)?;
            for m in END_TO_END {
                end_to_end
                    .entry(m.name)
                    .or_default()
                    .push(metric_value(&result, m.name));
            }
            attempted.push(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            );
            failed.push(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0));
        }
        for m in END_TO_END {
            println!(
                "  {:<42} {:>16.6} {:<6} runs={} bound {:.0}%",
                m.name,
                median_of_runs(&end_to_end[m.name]),
                m.unit,
                options.runs,
                m.bound * 100.0
            );
        }
        let (traced, record) = child(options, w.name, true)?;
        failed.push(traced.get("failed").and_then(Json::as_f64).unwrap_or(0.0));
        for m in PER_LAYER {
            let value = metric_value(&traced, m.name);
            if value != 0.0 {
                println!("  {:<42} {:>16.6} {:<6}", m.name, value, m.unit);
            }
        }
        let shares = record.get("op_wall_shares").cloned().unwrap_or(Json::Null);
        if let Some((name, share)) = shares.as_obj().and_then(|s| {
            s.iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k, v)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
        }) {
            println!(
                "  largest share of the op wall: {name} ({:.1} %)",
                share * 100.0
            );
        }
        println!(
            "  ops {} failed_ops {}",
            median_of_runs(&attempted),
            failed.iter().sum::<f64>()
        );
        scale = record.get("scale").cloned().unwrap_or(Json::Null);
        workloads.insert(
            w.name,
            Json::obj([
                (
                    "why",
                    Json::str(w.why.split_whitespace().collect::<Vec<_>>().join(" ")),
                ),
                (
                    "ops",
                    Json::Arr(attempted.into_iter().map(Json::Num).collect()),
                ),
                ("failed_ops", Json::Num(failed.iter().sum())),
                (
                    "end_to_end",
                    Json::obj(
                        end_to_end
                            .into_iter()
                            .map(|(k, v)| (k, Json::Arr(v.into_iter().map(Json::Num).collect()))),
                    ),
                ),
                (
                    "per_layer",
                    Json::obj(
                        PER_LAYER
                            .iter()
                            .map(|m| (m.name, Json::Num(metric_value(&traced, m.name)))),
                    ),
                ),
                ("op_wall_shares", shares),
                (
                    "sample_counts",
                    record.get("sample_counts").cloned().unwrap_or(Json::Null),
                ),
                (
                    "detail",
                    record.get("detail").cloned().unwrap_or(Json::Null),
                ),
            ]),
        );
    }
    Ok(Json::obj([
        ("environment", environment()),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("smoke", Json::Bool(options.smoke)),
        ("scale", scale),
        ("workloads", Json::obj(workloads)),
    ]))
}

pub fn all_correct(results: &Json) -> bool {
    results
        .get("workloads")
        .and_then(Json::as_obj)
        .is_some_and(|w| {
            w.values()
                .all(|r| r.get("failed_ops").and_then(Json::as_f64) == Some(0.0))
        })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Unchanged,
    /// The spread between one side's own runs is wider than the bound.
    Unresolved,
}

/// By what share of the old median the new median is worse (negative:
/// better), and what that means under `bound`.
pub fn verdict(old: &[f64], new: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (m_old, m_new) = (median_of_runs(old), median_of_runs(new));
    let worse_by = match better {
        _ if m_old == 0.0 => 0.0,
        Better::Lower => (m_new - m_old) / m_old,
        Better::Higher => (m_old - m_new) / m_old,
    };
    let is_better = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let every_run =
        |wins: &dyn Fn(f64, f64) -> bool| new.iter().all(|n| old.iter().all(|o| wins(*n, *o)));
    let verdict = if spread(old) > bound || spread(new) > bound {
        // Too noisy to call, unless the two sides do not overlap at all.
        if every_run(&|n, o| is_better(n, o)) && worse_by < -bound {
            Verdict::Improved
        } else if every_run(&|n, o| is_better(o, n)) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(Json::as_arr)
        .map(|v| v.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
        None => "-".into(),
    }
}

/// One row per workload and end-to-end metric. Returns the rows' verdicts.
pub fn compare(old: &Json, new: &Json) -> Vec<(String, String, Verdict)> {
    println!(
        "{:<17} {:<12} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "worse by"
    );
    let mut verdicts = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let (a, b) = (values(old, w.name, m.name), values(new, w.name, m.name));
            if a.is_empty() || b.is_empty() {
                println!("{:<17} {:<12} missing on one side", w.name, m.name);
                verdicts.push((w.name.to_owned(), m.name.to_owned(), Verdict::Unresolved));
                continue;
            }
            let (worse_by, v) = verdict(&a, &b, m.better, m.bound);
            println!(
                "{:<17} {:<12} {:>30} {:>30} {:>7.1}%  {v:?} (bound {:.0}%)",
                w.name,
                m.name,
                quartile_text(&a),
                quartile_text(&b),
                worse_by * 100.0,
                m.bound * 100.0
            );
            verdicts.push((w.name.to_owned(), m.name.to_owned(), v));
        }
    }
    verdicts
}

fn read_results(path: &str) -> Result<Json, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
}

/// The allocator policy a results document was measured under.
fn allocator_policy(results: &Json) -> &Json {
    results
        .get("environment")
        .and_then(|e| e.get("glibc_tunables"))
        .unwrap_or(&Json::Null)
}

pub fn compare_files(old: &str, new: &str) -> Result<ExitCode, String> {
    let (old, new) = (read_results(old)?, read_results(new)?);
    // The policy moves every timing by more than the bounds; two sides that
    // differ in it say nothing about the code.
    if allocator_policy(&old) != allocator_policy(&new) {
        return Err(format!(
            "the two results were measured under different allocator policies \
             (environment.glibc_tunables {} and {})",
            allocator_policy(&old).to_line(),
            allocator_policy(&new).to_line()
        ));
    }
    let verdicts = compare(&old, &new);
    let regressed = verdicts
        .iter()
        .filter(|(_, _, v)| *v == Verdict::Regressed)
        .count();
    println!("{regressed} regressed of {}", verdicts.len());
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The per-layer counts of two results that must be equal and are not.
pub fn exact_differences(a: &Json, b: &Json) -> Vec<String> {
    let layer = |r: &Json, w: &str, m: &str| {
        r.get("workloads")
            .and_then(|x| x.get(w))
            .and_then(|x| x.get("per_layer"))
            .and_then(|x| x.get(m))
            .and_then(Json::as_f64)
    };
    let mut out = Vec::new();
    for w in WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (layer(a, w.name, m.name), layer(b, w.name, m.name));
            if x != y {
                out.push(format!("{} {}: {x:?} then {y:?}", w.name, m.name));
            }
        }
    }
    out
}

/// The suite twice on this build: the benchmark's own steadiness.
pub fn check(options: &Options) -> Result<ExitCode, String> {
    let first = run_suite(options)?;
    let second = run_suite(options)?;
    let verdicts = compare(&first, &second);
    let moved: Vec<_> = verdicts
        .iter()
        .filter(|(_, _, v)| *v != Verdict::Unchanged)
        .collect();
    for (w, m, v) in &moved {
        println!("check: {w} {m} differs between two runs of one build: {v:?}");
    }
    let differences = exact_differences(&first, &second);
    for d in &differences {
        println!("check: exact count differs: {d}");
    }
    let failed = !all_correct(&first) || !all_correct(&second);
    if failed {
        println!("check: failed ops");
    }
    Ok(if moved.is_empty() && differences.is_empty() && !failed {
        println!("check: passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let old = [100.0, 102.0, 98.0, 100.0];
        let lower = |new: &[f64]| verdict(&old, new, Better::Lower, 0.10).1;
        assert_eq!(lower(&[104.0, 105.0, 103.0]), Verdict::Unchanged);
        assert_eq!(lower(&[120.0, 121.0, 119.0]), Verdict::Regressed);
        assert_eq!(lower(&[80.0, 81.0, 79.0]), Verdict::Improved);
        let higher = |new: &[f64]| verdict(&old, new, Better::Higher, 0.10).1;
        assert_eq!(higher(&[120.0, 121.0, 119.0]), Verdict::Improved);
        assert_eq!(higher(&[80.0, 81.0, 79.0]), Verdict::Regressed);
        let (worse_by, _) = verdict(&old, &[110.0], Better::Lower, 0.10);
        assert!((worse_by - 0.10).abs() < 1e-9);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_apart() {
        let noisy = [100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[105.0, 135.0, 90.0], Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[40.0, 50.0, 45.0], Better::Lower, 0.10).1,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&noisy, &[240.0, 250.0, 245.0], Better::Lower, 0.10).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_refuses_results_measured_under_different_allocator_policies() {
        let results = |policy: &str| {
            Json::obj([(
                "environment",
                Json::obj([("glibc_tunables", Json::str(policy))]),
            )])
            .to_pretty()
        };
        let dir =
            std::env::temp_dir().join(format!("dualsim-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        std::fs::write(
            path("pinned.json"),
            results("glibc.malloc.trim_threshold=1"),
        )
        .unwrap();
        std::fs::write(path("default.json"), results("")).unwrap();
        let refused = compare_files(&path("pinned.json"), &path("default.json"));
        assert!(refused.is_err_and(|e| e.contains("allocator policies")));
        assert!(compare_files(&path("pinned.json"), &path("pinned.json")).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_counts_are_compared_value_for_value() {
        let results = |iterations: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    crate::metrics::SOLVE_SWEEP,
                    Json::obj([(
                        "per_layer",
                        Json::obj([
                            ("core.solver.iterations", Json::Num(iterations)),
                            ("core.solver.solve_s", Json::Num(iterations / 7.0)),
                        ]),
                    )]),
                )]),
            )])
        };
        assert!(exact_differences(&results(90.0), &results(90.0)).is_empty());
        let diff = exact_differences(&results(90.0), &results(91.0));
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].contains("core.solver.iterations"));
    }
}
