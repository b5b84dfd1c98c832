//! The repository's benchmark: one workload per process, end-to-end
//! metrics from untraced passes, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <paper_apps|batch_200|fleet_stream> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench [--seed N] [--seconds S] [--trace 0|1]   # every workload, one child process each
//! ```
//!
//! A run generates the workload's inputs from the seed, sets up
//! [`SETUP_REPS`] times (input generation plus one checked, untimed
//! warm-up pass), then times passes for the given seconds. Every pass is
//! checked: its fingerprints against `pinned.txt` for a pinned seed and
//! against the first warm-up pass for every seed, conformance and job
//! completion inside the pass, and its deterministic work counts against
//! the first pass of its kind (untraced or traced). Allocations per pass
//! are reported with whether they repeat. Human-readable report lines come
//! first; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when any
//! check failed.

mod alloc;
mod batch;
mod fleet;
mod paper;
mod pinned;
mod spans;
mod stats;
mod work;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use spans::{Profile, Tracer};
use stats::Summary;
use work::{layer_values, PassOut, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["paper_apps", "batch_200", "fleet_stream"];

/// End-to-end metrics (untraced runs): name, unit.
const END_TO_END: [(&str, &str); 3] = [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (traced runs): name, unit.
const PER_LAYER: [(&str, &str); 42] = [
    ("simcore.events.processed", "count"),
    ("simcore.events.scheduled", "count"),
    ("simcore.events.cancelled", "count"),
    ("schedsim.build_s", "s"),
    ("schedsim.run_s", "s"),
    ("schedsim.ns_per_event", "ns"),
    ("schedsim.ticks", "count"),
    ("schedsim.context_switches", "count"),
    ("schedsim.picks", "count"),
    ("schedsim.pick_ns", "ns"),
    ("schedsim.balancer.calls", "count"),
    ("schedsim.balancer.s", "s"),
    ("schedsim.decisions.accepted", "count"),
    ("schedsim.decisions.rejected", "count"),
    ("schedsim.hw_prio_transitions", "count"),
    ("workloads.spawn_s", "s"),
    ("tracefmt.records", "count"),
    ("tracefmt.timeline_s", "s"),
    ("simverify.conformance_s", "s"),
    ("cluster.node.runs", "count"),
    ("cluster.node.s", "s"),
    ("batchsim.run_s", "s"),
    ("batchsim.engine_s", "s"),
    ("batchsim.trace_events", "count"),
    ("batchsim.ns_per_trace_event", "ns"),
    ("batchsim.reservations", "count"),
    ("batchsim.backfilled", "count"),
    ("batchsim.queue_peak", "count"),
    ("batchsim.arrivals_s", "s"),
    ("batchsim.render_s", "s"),
    ("batchsim.render_bytes", "B"),
    ("ckpt.count", "count"),
    ("ckpt.bytes", "B"),
    ("ckpt.encode_s", "s"),
    ("ckpt.decode_s", "s"),
    ("ckpt.resume_s", "s"),
    ("check_s", "s"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unspanned_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 2;
/// Worker threads for node kernels: the inline pool, so host thread
/// scheduling stays out of the numbers.
pub const THREADS: usize = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2008,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(bad) = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(name, unit)| !stats::valid_metric_name(name) || !stats::valid_unit(unit))
    {
        eprintln!("perfbench: metric {bad:?} breaks the name or unit grammar");
        return ExitCode::from(2);
    }
    let Some(workload) = args.workload.as_deref() else {
        return run_all(&args);
    };
    let report = match workload {
        "paper_apps" => run::<paper::PaperApps>(workload, &args, started),
        "batch_200" => run::<batch::Batch200>(workload, &args, started),
        _ => run::<fleet::FleetStream>(workload, &args, started),
    };
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Host facts recorded with every result. The commit is `unknown` outside
/// a git checkout; git is kept from searching above the working directory.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let first_line = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    format!(
        "nproc={nproc} rustc=\"{}\" commit={} threads={THREADS}",
        first_line(&rustc, &["-V"]),
        first_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// One reported metric: name, unit, value.
type Metric = (String, String, f64);

fn metric(name: &str, unit: &str, value: f64) -> Metric {
    (name.to_string(), unit.to_string(), value)
}

/// Outcome of one workload run: checked passes and named metric values.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite value with all its digits; `null` (which the result's reader
/// rejects) for a value that is not a number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The checks every pass goes through, and their tally.
struct Checker {
    pins: Vec<pinned::Pin>,
    reference: Option<Vec<pinned::Print>>,
    /// Work counts of the first untraced and the first traced pass (the
    /// traced ones add the balancer wrapper's call count).
    counts: [Option<BTreeMap<&'static str, u64>>; 2],
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: &str, seed: u64) -> Checker {
        let pins = match pinned::parse(pinned::PINNED) {
            Ok(all) => pinned::for_run(&all, seed, workload)
                .into_iter()
                .cloned()
                .collect(),
            Err(e) => panic!("pinned.txt is malformed: {e}"),
        };
        Checker {
            pins,
            reference: None,
            counts: [None, None],
            attempted: 0,
            failed: 0,
        }
    }

    fn mode(&self) -> &'static str {
        if self.pins.is_empty() {
            "held-out (no pinned fingerprints: pass-to-pass equality + conformance)"
        } else {
            "pinned"
        }
    }

    /// Check one pass's outputs and work counts.
    fn pass(&mut self, what: &str, out: &PassOut, traced: bool) {
        let mut bad = out.problems.clone();
        let pins: Vec<&pinned::Pin> = self.pins.iter().collect();
        bad.extend(pinned::check(&pins, &out.prints));
        match &self.reference {
            None => self.reference = Some(out.prints.clone()),
            Some(r) => bad.extend(pinned::diff(r, &out.prints)),
        }
        match &self.counts[usize::from(traced)] {
            None => self.counts[usize::from(traced)] = Some(out.counts.clone()),
            Some(c) if *c != out.counts => bad.push(format!(
                "work counts {:?} differ from the first such pass's {c:?}",
                out.counts
            )),
            Some(_) => {}
        }
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            for b in bad {
                println!("CHECK FAILED {what}: {b}");
            }
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (c0, b0) = alloc::totals();
    let out = f();
    let (c1, b1) = alloc::totals();
    (out, (c1 - c0, b1 - b0))
}

fn run<W: Workload>(workload: &str, args: &Args, started: Instant) -> Report {
    let mut check = Checker::new(workload, args.seed);
    println!(
        "workload {workload} seed={} seconds={} trace={} check={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        check.mode()
    );

    // Set-up: inputs plus one checked warm-up pass, from process start the
    // first time and from scratch after that.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut inputs = None;
    for rep in 0..reps {
        let start = if rep == 0 { started } else { Instant::now() };
        let i = W::inputs(args.seed);
        let warm = W::pass(&i, &mut Tracer::new(false));
        setups.push(start.elapsed().as_secs_f64());
        check.pass(&format!("warm-up {rep}"), &warm, false);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    println!("inputs {}", W::describe(&inputs));
    for (cell, hash) in check.reference.iter().flatten() {
        println!("fingerprint {cell} {hash:016x}");
    }

    let measure = Instant::now();
    let mut pass_s = Vec::new();
    let mut allocs = Vec::new();
    let mut traced = Vec::new();
    while pass_s.len() < MIN_PASSES || measure.elapsed().as_secs_f64() < args.seconds {
        let ((out, tally), secs) = timed(|| counted(|| W::pass(&inputs, &mut Tracer::new(false))));
        check.pass(&format!("pass {}", pass_s.len()), &out, false);
        pass_s.push(secs);
        allocs.push(tally);
        if args.trace {
            traced.push(traced_pass::<W>(&inputs, &mut check, traced.len()));
        }
    }

    let summary = Summary::of(&pass_s).expect("at least MIN_PASSES passes");
    let setup = Summary::of(&setups).expect("at least one set-up");
    println!("pass_s {}", summary.render());
    println!("setup_s {}", setup.render());
    let alloc_per_pass = report_allocs(&allocs);

    let metrics = if args.trace {
        layer_metrics::<W>(&inputs, &traced, summary.median, alloc_per_pass)
    } else {
        let values = [summary.median, setup.median, peak_rss_mib()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| metric(n, u, v))
            .collect()
    };
    println!("host {}", host_line());
    for (name, unit, v) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    println!(
        "check_fail_frac {} ({} of {} passes failed)",
        check.failed as f64 / check.attempted as f64,
        check.failed,
        check.attempted
    );
    println!("passes {} {}", check.attempted, check.failed);
    Report {
        attempted: check.attempted,
        failed: check.failed,
        metrics,
    }
}

/// Print the per-pass allocation tallies and whether they repeat exactly;
/// returns the first timed pass's (count, bytes).
///
/// A difference is reported, not failed: the program's allocation count
/// depends on host time where it snapshots a histogram of host-time
/// samples (`kernel.pick_wall_ns`), whose occupied-bucket list grows with
/// the number of distinct buckets the samples hit.
fn report_allocs(allocs: &[(u64, u64)]) -> (u64, u64) {
    let first = allocs.first().copied().unwrap_or_default();
    let (lo, hi) = (allocs.iter().min(), allocs.iter().max());
    let (lo, hi) = (
        lo.copied().unwrap_or_default(),
        hi.copied().unwrap_or_default(),
    );
    if lo == hi {
        println!(
            "alloc per pass: count={} bytes={} (repeats exactly over {} passes)",
            first.0,
            first.1,
            allocs.len()
        );
    } else {
        println!(
            "alloc per pass: count={}..={} bytes={}..={} (DOES NOT REPEAT over {} passes)",
            lo.0,
            hi.0,
            lo.1,
            hi.1,
            allocs.len()
        );
    }
    first
}

/// One traced pass: its wall time, checked outputs and span profile.
struct Traced {
    secs: f64,
    out: PassOut,
    profile: Profile,
}

fn traced_pass<W: Workload>(inputs: &W::Inputs, check: &mut Checker, n: usize) -> Traced {
    let mut t = Tracer::new(true);
    let (out, secs) = timed(|| t.span("pass", |t| W::pass(inputs, t)));
    check.pass(&format!("traced pass {n}"), &out, true);
    eprint!("{}", spans::render(t.spans()));
    Traced {
        secs,
        out,
        profile: Profile::of(t.spans()),
    }
}

fn layer_metrics<W: Workload>(
    inputs: &W::Inputs,
    traced: &[Traced],
    untraced_pass_s: f64,
    allocs: (u64, u64),
) -> Vec<Metric> {
    let per_pass: Vec<_> = traced
        .iter()
        .map(|tp| match layer_values(&tp.out, &tp.profile) {
            Ok(v) => v,
            Err(e) => panic!("span catalog out of date: {e}"),
        })
        .collect();
    let arrivals: Vec<f64> = traced.iter().map(|_| W::arrivals_s(inputs)).collect();
    let trace_s: Vec<f64> = traced.iter().map(|t| t.secs).collect();
    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        let samples: Vec<f64> = per_pass
            .iter()
            .filter_map(|v| v.get(name).copied())
            .collect();
        let v = if unit == "count" || unit == "B" {
            samples.first().copied().unwrap_or(0.0)
        } else {
            med(&samples)
        };
        values.insert(name, v);
    }
    values.insert("batchsim.arrivals_s", med(&arrivals));
    values.insert("alloc.count", allocs.0 as f64);
    values.insert("alloc.bytes", allocs.1 as f64);
    values.insert("trace.pass_s", med(&trace_s));
    values.insert("trace.overhead_s", med(&trace_s) - untraced_pass_s);
    if let Some(s) = Summary::of(&trace_s) {
        println!("trace.pass_s {}", s.render());
    }
    PER_LAYER
        .iter()
        .map(|(name, unit)| metric(name, unit, values[name]))
        .collect()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every workload, each in its own child process; prints each child's
/// report and then one combined result line whose metric names are
/// prefixed with the workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Report {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::null())
            .output();
        let out = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                total.failed += 1;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            println!("[{w}] {line}");
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                ["metric", name, value, unit] => {
                    total.metrics.push(metric(
                        &format!("{w}.{name}"),
                        unit,
                        value.parse().unwrap_or(f64::NAN),
                    ));
                }
                ["passes", attempted, failed] => {
                    total.attempted += attempted.parse::<u64>().unwrap_or(0);
                    total.failed += failed.parse::<u64>().unwrap_or(1);
                }
                _ => {}
            }
        }
        if !out.status.success() {
            total.failed = total.failed.max(1);
        }
    }
    println!("{}", total.json());
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn catalog_names_and_units_follow_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn benchmark_json_declares_every_emitted_metric_and_workload() {
        let declared = |name: &str, unit: &str| {
            BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let count = BENCHMARK_JSON.matches("\"unit\": ").count();
        assert_eq!(
            count,
            END_TO_END.len() + PER_LAYER.len(),
            "no undeclared extras"
        );
        for w in WORKLOADS {
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{w}\"")),
                "{w}"
            );
        }
    }

    #[test]
    fn every_top_level_span_has_a_per_layer_metric() {
        for (_, metric) in work::TOP_SPANS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload batch_200 --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("batch_200"), 7, 3.0, true)
        );
        let d = parse("").expect("defaults");
        assert_eq!((d.workload, d.seed, d.trace), (None, 2008, false));
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds",
            "--frob 1",
            "--seconds -1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn report_json_has_exactly_the_contract_keys() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("pass_s", "s", 1.25)],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
