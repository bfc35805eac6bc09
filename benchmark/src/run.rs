//! What every workload shares: the arguments of one run, the meter that
//! times ops and counts failures, and the result a run prints.

use crate::inputs::Scale;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// The arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where traces, run records and the durable workloads' scratch
    /// directories go; inside the checkout.
    pub out_dir: PathBuf,
}

impl RunArgs {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }
}

/// The name of the root span of every op. Its self time is the harness's
/// own glue between the layer calls, and is what tracing cannot attribute.
pub const OP_SPAN: &str = "op";

/// Times the ops of a run, counts the failed ones, and collects the
/// per-layer samples of the traced units.
///
/// A *unit* is what per-layer times are summed over before the median is
/// taken: a pass over the query mix, a batch, a recovery. In a traced run
/// every other unit records spans, and the ratio of the two kinds' wall is
/// the tracing overhead.
#[derive(Default)]
pub struct Meter {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the run record.
    pub failures: Vec<String>,
    latencies_ms: Vec<f64>,
    timed_s: f64,
    /// The ops of each closed round, as a range into `latencies_ms`.
    rounds: Vec<Range<usize>>,
    traced_unit_s: Vec<f64>,
    untraced_unit_s: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Per traced unit, the self time of every span under an op root,
    /// the root's own included; what the shares are computed from.
    op_self_s: BTreeMap<&'static str, Vec<f64>>,
}

pub struct Round {
    ops_before: usize,
}

pub struct Unit {
    traced: bool,
    mark: usize,
    timed_before: f64,
}

impl Meter {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Runs one op under a root span, timed from outside, with a panic
    /// caught and counted as a failed op. Returns the op's value and its
    /// latency in seconds.
    pub fn op<R>(&mut self, tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> Option<(R, f64)> {
        tr.next_op();
        self.attempted += 1;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| tr.span(OP_SPAN, f)));
        let secs = start.elapsed().as_secs_f64();
        self.latencies_ms.push(secs * 1e3);
        self.timed_s += secs;
        match result {
            Ok(value) => Some((value, secs)),
            Err(payload) => {
                let text = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".into());
                self.fail(format!("op {} panicked: {text}", self.attempted));
                None
            }
        }
    }

    pub fn ops_timed(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Sum of the op latencies so far: the closed loop's busy time.
    pub fn timed_s(&self) -> f64 {
        self.timed_s
    }

    /// Opens a round: one repetition of the workload's script (a pass over
    /// the query mix, a snapshot cycle, a fixed number of loads, batch pairs
    /// or recoveries). Every round of a workload holds the same ops, so
    /// each round measures the same thing, and the run reports its best
    /// round, see [`Meter::best_round`].
    pub fn begin_round(&self) -> Round {
        Round {
            ops_before: self.latencies_ms.len(),
        }
    }

    pub fn end_round(&mut self, round: Round) {
        if self.latencies_ms.len() > round.ops_before {
            self.rounds.push(round.ops_before..self.latencies_ms.len());
        }
    }

    pub fn rounds_timed(&self) -> usize {
        self.rounds.len()
    }

    /// Median and 90th-percentile op latency in milliseconds and ops per
    /// second of busy time, each taken within a round and then the best
    /// over the rounds: the lowest latencies, the highest rate.
    ///
    /// Within a round, because a pass over a query mix holds every query
    /// kind once, so a percentile of it is one kind's latency, while the
    /// same percentile of all passes pooled sits where two kinds meet and
    /// jumps between them. The best round, because what interferes on a
    /// shared machine only ever slows the program: the rounds of one run
    /// differ by up to 25% here in phases that last seconds to minutes, and
    /// the fastest one is closest to what the code costs. Every round holds
    /// the workload's whole script, so the library's own periodic costs (a
    /// snapshot batch, the slowest query) are in every round, the best
    /// one too.
    fn best_round(&self) -> [f64; 3] {
        let all = 0..self.latencies_ms.len();
        let rounds = if self.rounds.is_empty() {
            std::slice::from_ref(&all)
        } else {
            &self.rounds
        };
        let mut best = [f64::INFINITY, f64::INFINITY, 0.0];
        for round in rounds {
            let ops = &self.latencies_ms[round.clone()];
            let busy_s = ops.iter().sum::<f64>() / 1e3;
            best[0] = best[0].min(percentile(ops, 0.50));
            best[1] = best[1].min(percentile(ops, 0.90));
            if busy_s > 0.0 {
                best[2] = best[2].max(ops.len() as f64 / busy_s);
            }
        }
        best
    }

    /// Opens the next unit. In a traced run, runs of `stride` units
    /// alternate between recording and not recording, starting with
    /// recording; a stride of 2 keeps a delete batch and the insert batch
    /// that undoes it on the same side.
    pub fn begin_unit(&mut self, tr: &mut Tracer, trace: bool, stride: usize) -> Unit {
        let units = self.traced_unit_s.len() + self.untraced_unit_s.len();
        let traced = trace && (units / stride.max(1)).is_multiple_of(2);
        tr.set_recording(traced);
        Unit {
            traced,
            mark: tr.mark(),
            timed_before: self.timed_s,
        }
    }

    /// Closes a unit: its wall is the latency of the ops in it. For a
    /// recording unit, the self time of its spans is summed per span name
    /// and kept as one sample per name; spans outside the ops (beside
    /// calls) are kept too but do not count as the ops' time.
    pub fn end_unit(&mut self, tr: &mut Tracer, unit: Unit) -> bool {
        let wall = self.timed_s - unit.timed_before;
        tr.set_recording(false);
        if !unit.traced {
            self.untraced_unit_s.push(wall);
            return false;
        }
        self.traced_unit_s.push(wall);
        let sums = tr.self_seconds_since(unit.mark, OP_SPAN);
        for (name, secs) in &sums.in_op {
            self.op_self_s.entry(name).or_default().push(*secs);
        }
        for (name, secs) in sums.in_op.into_iter().chain(sums.beside) {
            if name != OP_SPAN {
                self.sample(name, secs);
            }
        }
        true
    }

    /// Each layer's share of the ops' wall, from the medians of the traced
    /// units' self times, largest first. The root span's own share is the
    /// harness's glue between the layer calls.
    pub fn op_shares(&self) -> Vec<(&'static str, f64)> {
        let medians: Vec<(&'static str, f64)> = self
            .op_self_s
            .iter()
            .map(|(name, secs)| (*name, median(secs)))
            .collect();
        let total: f64 = medians.iter().map(|(_, m)| m).sum();
        let mut shares: Vec<_> = medians
            .into_iter()
            .map(|(name, m)| (name, if total > 0.0 { m / total } else { 0.0 }))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    /// What the layer spans account for of the ops' wall: one minus the
    /// root span's own share. It says something only where an op makes
    /// several layer calls (`cold-*`, `solve-sweep`); an op that is one
    /// call has nothing but that call under its root.
    pub fn attributed_share(&self) -> f64 {
        let glue: f64 = self
            .op_shares()
            .iter()
            .filter(|(name, _)| *name == OP_SPAN)
            .map(|(_, share)| share)
            .sum();
        1.0 - glue
    }

    /// One sample of a per-layer quantity, under a span name (seconds) or
    /// under the metric's own name (already in the metric's unit).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.layers.get(name).map_or(&[], Vec::as_slice)
    }

    /// The median of the samples kept for a per-layer metric: those under
    /// its own name, or else those under its span (the name without
    /// `_s` or `_ms`), converted from seconds. Zero without samples.
    pub fn layer_value(&self, metric: &str) -> f64 {
        if let Some(own) = self.layers.get(metric) {
            return median(own);
        }
        let (span, per_second) = span_of(metric);
        self.layers
            .get(span)
            .map_or(0.0, |secs| median(secs) * per_second)
    }

    fn end_to_end(&self, setup_s: f64) -> BTreeMap<&'static str, f64> {
        let [p50_ms, p90_ms, per_s] = self.best_round();
        BTreeMap::from([
            ("op_p50_ms", p50_ms),
            ("op_p90_ms", p90_ms),
            ("ops_per_s", per_s),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", setup_s),
        ])
    }

    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .map(|m| (m.name, self.layer_value(m.name)))
            .collect();
        if !self.traced_unit_s.is_empty() && !self.untraced_unit_s.is_empty() {
            out.insert(
                "trace.overhead_ratio",
                median(&self.traced_unit_s) / median(&self.untraced_unit_s),
            );
        }
        out
    }
}

/// The span a timed per-layer metric is named after, and the factor from
/// seconds to its unit: `graph.load_s` is span `graph.load` in seconds,
/// `core.incremental.apply_ms` is span `core.incremental.apply` times 1000.
fn span_of(metric: &str) -> (&str, f64) {
    if let Some(span) = metric.strip_suffix("_ms") {
        (span, 1e3)
    } else {
        (metric.strip_suffix("_s").unwrap_or(metric), 1.0)
    }
}

/// Runs `setup` the stated number of times, each time after dropping the
/// previous inputs, and returns the last inputs with the median wall.
/// Spans opened inside are summed per repetition like any other unit.
pub fn repeat_setup<I>(
    meter: &mut Meter,
    tr: &mut Tracer,
    trace: bool,
    repetitions: usize,
    mut setup: impl FnMut(&mut Tracer) -> I,
) -> (I, f64) {
    let mut walls = Vec::new();
    let mut inputs = None;
    for _ in 0..repetitions.max(1) {
        drop(inputs.take());
        tr.set_recording(trace);
        let mark = tr.mark();
        let start = Instant::now();
        inputs = Some(setup(tr));
        walls.push(start.elapsed().as_secs_f64());
        tr.set_recording(false);
        for (name, secs) in tr.self_seconds_since(mark, OP_SPAN).beside {
            meter.sample(name, secs);
        }
    }
    (inputs.expect("at least one repetition"), median(&walls))
}

/// `VmHWM` of this process, in MB (10^6 bytes); 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// What a workload hands back: the meter, the set-up time, the spans, and
/// the detail that goes into the run record only.
pub struct Outcome {
    pub meter: Meter,
    pub setup_s: f64,
    pub tracer: Tracer,
    /// Each layer's share of the op wall, where the workload sizes its
    /// layers beside the op; otherwise the shares come from the op's spans.
    pub shares: Option<Vec<(&'static str, f64)>>,
    /// Graph sizes, per-query rows and whatever else explains the numbers.
    pub detail: Json,
}

/// The result of a run: the line the driver reads and the record beside it.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub sample_counts: BTreeMap<&'static str, usize>,
    pub failures: Vec<String>,
    /// Layer shares of the op wall, largest first; empty in an untraced run.
    pub shares: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    pub detail: Json,
}

impl RunResult {
    pub fn new(outcome: Outcome) -> Self {
        let Outcome {
            meter,
            setup_s,
            tracer,
            shares,
            detail,
        } = outcome;
        let mut sample_counts: BTreeMap<&'static str, usize> = meter
            .layers
            .iter()
            .map(|(name, samples)| (*name, samples.len()))
            .collect();
        sample_counts.insert("ops", meter.ops_timed());
        sample_counts.insert("rounds", meter.rounds_timed());
        RunResult {
            correct: meter.failed == 0 && meter.attempted > 0,
            attempted: meter.attempted.max(1),
            failed: meter.failed,
            end_to_end: meter.end_to_end(setup_s),
            per_layer: meter.per_layer(),
            sample_counts,
            shares: shares.unwrap_or_else(|| meter.op_shares()),
            failures: meter.failures,
            tracer,
            detail,
        }
    }

    /// Every metric of the run by name, with its unit; what a person reads.
    pub fn report(&self, args: &RunArgs) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} seconds {} trace {}{}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            if args.smoke { " (smoke scale)" } else { "" }
        );
        let _ = writeln!(
            out,
            "ops {} failed_ops {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for why in &self.failures {
            let _ = writeln!(out, "  failure: {why}");
        }
        if args.trace {
            for m in PER_LAYER {
                let samples = self.samples_of(m.name);
                let _ = writeln!(
                    out,
                    "  {:<42} {:>16.6} {:<6} n={samples}",
                    m.name, self.per_layer[m.name], m.unit
                );
            }
            for (name, share) in &self.shares {
                let _ = writeln!(
                    out,
                    "  share of op wall: {name:<32} {:>6.1} %",
                    share * 100.0
                );
            }
        } else {
            for m in END_TO_END {
                let samples = match m.name {
                    "setup_s" => format!("{} set-ups", args.scale().setup_repetitions),
                    "peak_rss_mb" => "1 process".to_owned(),
                    _ => format!(
                        "{} ops in {} rounds",
                        self.sample_counts["ops"], self.sample_counts["rounds"]
                    ),
                };
                let _ = writeln!(
                    out,
                    "  {:<14} {:>16.6} {:<4} of {samples}, bound {:.0}%",
                    m.name,
                    self.end_to_end[m.name],
                    m.unit,
                    m.bound * 100.0
                );
            }
        }
        out
    }

    /// How many samples stand behind a per-layer metric.
    fn samples_of(&self, metric: &str) -> usize {
        self.sample_counts
            .get(metric)
            .or_else(|| self.sample_counts.get(span_of(metric).0))
            .copied()
            .unwrap_or(0)
    }

    /// The one line the driver reads: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub fn result_line(&self, trace: bool) -> String {
        let metric = |name: &'static str, unit: &str, value: f64| {
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name, entry)
        };
        let metrics = if trace {
            Json::obj(
                PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, self.per_layer[m.name])),
            )
        } else {
            Json::obj(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, self.end_to_end[m.name])),
            )
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_line()
    }

    /// Everything about the run, for `benchmark/out/run-<workload>-trace<0|1>.json`.
    pub fn record(&self, args: &RunArgs) -> Json {
        let numbers = |values: &BTreeMap<&'static str, f64>| {
            Json::obj(values.iter().map(|(k, v)| (*k, Json::Num(*v))))
        };
        Json::obj([
            ("workload", Json::str(&args.workload)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.smoke)),
            ("environment", environment()),
            ("scale", args.scale().to_json()),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", numbers(&self.end_to_end)),
            ("per_layer", numbers(&self.per_layer)),
            (
                "sample_counts",
                Json::obj(
                    self.sample_counts
                        .iter()
                        .map(|(k, v)| (*k, Json::Num(*v as f64))),
                ),
            ),
            (
                "op_wall_shares",
                Json::obj(self.shares.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            ("detail", self.detail.clone()),
        ])
    }
}

/// The machine and build a run was made on.
pub fn environment() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = dualsim_bitmatrix::KernelBackend::Auto.resolve();
    Json::obj([
        ("nproc", Json::Num(threads as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("rustc", Json::str(env!("BENCHMARK_RUSTC_VERSION"))),
        ("git_commit", Json::str(git_commit())),
        ("kernel_backend", Json::str(kernel.name())),
        (
            "avx2",
            Json::Bool(dualsim_bitmatrix::kernels::simd_available()),
        ),
        ("load_threads", Json::Num(1.0)),
        // The allocator policy `run.sh` sets; it moves the numbers.
        (
            "glibc_tunables",
            Json::str(std::env::var("GLIBC_TUNABLES").unwrap_or_default()),
        ),
    ])
}

/// The checked-out commit, read from `.git` in the current directory
/// without starting a process; the driver's checkout is not a repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| head.clone(), |hash| hash.trim().to_owned()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_op_and_a_wrong_oracle_are_counted_not_fatal() {
        let mut meter = Meter::default();
        let mut tr = Tracer::new();
        assert_eq!(meter.op(&mut tr, |_| 41 + 1).map(|(v, _)| v), Some(42));
        let lost: Option<((), f64)> = meter.op(&mut tr, |_| panic!("boom"));
        assert!(lost.is_none());
        // A deliberately wrong oracle: the op ran, its answer is rejected.
        let (answer, _) = meter.op(&mut tr, |_| 2 + 2).unwrap();
        if answer != 5 {
            meter.fail("oracle mismatch");
        }
        assert_eq!((meter.attempted, meter.failed), (3, 2));
        assert!(meter.failures[0].contains("boom"));
        let result = RunResult::new(Outcome {
            meter,
            setup_s: 0.5,
            tracer: tr,
            shares: None,
            detail: Json::Null,
        });
        assert!(!result.correct);
        let line = Json::parse(&result.result_line(false)).unwrap();
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(2.0));
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn units_alternate_in_a_traced_run_and_layer_values_follow_the_suffix() {
        let mut meter = Meter::default();
        let mut tr = Tracer::new();
        let mut recorded = Vec::new();
        for _ in 0..4 {
            let unit = meter.begin_unit(&mut tr, true, 1);
            meter.op(&mut tr, |tr| {
                tr.span("layer.x", |_| std::hint::black_box(3))
            });
            recorded.push(meter.end_unit(&mut tr, unit));
        }
        assert_eq!(recorded, [true, false, true, false]);
        assert_eq!(meter.samples("layer.x").len(), 2);
        let secs = median(meter.samples("layer.x"));
        assert_eq!(meter.layer_value("layer.x_s"), secs);
        assert_eq!(meter.layer_value("layer.x_ms"), secs * 1e3);
        assert_eq!(meter.layer_value("layer.absent_s"), 0.0);
        meter.sample("layer.count", 7.0);
        assert_eq!(meter.layer_value("layer.count"), 7.0);

        let mut untraced = Meter::default();
        let unit = untraced.begin_unit(&mut tr, false, 1);
        assert!(!untraced.end_unit(&mut tr, unit));
    }

    #[test]
    fn the_best_round_is_reported_and_each_percentile_is_taken_within_a_round() {
        let mut meter = Meter::default();
        // Three passes over six query kinds; the machine stalls in the second.
        for pass in [
            [68.0, 69.0, 68.5, 89.0, 95.0, 160.0],
            [98.0, 99.0, 98.5, 129.0, 135.0, 230.0],
            [67.0, 70.0, 68.5, 90.0, 94.0, 161.0],
        ] {
            let round = meter.begin_round();
            meter.latencies_ms.extend(pass);
            meter.end_round(round);
        }
        let [p50, p90, per_s] = meter.best_round();
        assert_eq!((p50, p90), (89.0, 160.0));
        assert!((per_s - 6.0 / 0.5495).abs() < 1e-9, "{per_s}");
        // Without rounds, all ops are one.
        meter.rounds.clear();
        assert_eq!(meter.best_round()[0], 95.0);
        assert_eq!(Meter::default().best_round()[0], 0.0);
    }

    #[test]
    fn result_lines_carry_exactly_the_declared_metrics() {
        let mut meter = Meter::default();
        let mut tr = Tracer::new();
        meter.op(&mut tr, |_| ());
        let result = RunResult::new(Outcome {
            meter,
            setup_s: 0.25,
            tracer: tr,
            shares: None,
            detail: Json::Null,
        });
        for (trace, expected) in [
            (false, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            (true, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
        ] {
            let line = Json::parse(&result.result_line(trace)).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let mut names: Vec<&str> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            let mut expected = expected;
            names.sort_unstable();
            expected.sort_unstable();
            assert_eq!(names, expected);
        }
    }
}
