//! `paper_apps`: the paper's three applications at their calibrated
//! default sizes, each under the stock kernel (`Baseline`) and the HPC
//! class with the Adaptive heuristic. Bound by the node-kernel layers.
//!
//! Each pass also runs the small MetBench of `TRACE_baseline.txt`
//! (4 ranks, 6 iterations) under the same two modes, so the pinned
//! repository fingerprints are checked on every pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use experiments::{try_run, ExperimentMode, WorkloadKind};
use schedsim::policies::{self, PolicyCtx};
use schedsim::{
    BalanceView, Balancer, ClassCtx, HpcSchedConfig, IterSample, Kernel, KernelBuilder,
    PrioAssignment, SampleOutcome, SharedSink, TaskId,
};
use simcore::{SimDuration, SnapshotError, SnapshotReader, SnapshotWriter};
use simverify::conformance;
use telemetry::{MetricValue, MetricsSnapshot};
use tracefmt::{AppStats, Timeline};
use workloads::metbench::MetBenchConfig;
use workloads::SchedulerSetup;

use crate::spans::Tracer;
use crate::work::{debug_fingerprint, PassOut, Workload};

pub struct PaperApps;

pub struct Cell {
    name: String,
    wl: WorkloadKind,
    mode: ExperimentMode,
}

pub struct Inputs {
    seed: u64,
    cells: Vec<Cell>,
}

const MODES: [ExperimentMode; 2] = [ExperimentMode::Baseline, ExperimentMode::Adaptive];

fn small_metbench() -> WorkloadKind {
    WorkloadKind::MetBench(MetBenchConfig {
        loads: vec![0.05, 0.2, 0.05, 0.2],
        iterations: 6,
        ..Default::default()
    })
}

impl Workload for PaperApps {
    type Inputs = Inputs;

    fn inputs(seed: u64) -> Inputs {
        let apps = [
            ("small-metbench", small_metbench()),
            ("metbench", WorkloadKind::MetBench(Default::default())),
            ("btmz", WorkloadKind::BtMz(Default::default())),
            ("siesta", WorkloadKind::Siesta(Default::default())),
        ];
        let cells = apps
            .iter()
            .flat_map(|(app, wl)| {
                MODES.map(|mode| Cell {
                    name: format!("{app}/{}", mode.label()),
                    wl: wl.clone(),
                    mode,
                })
            })
            .collect();
        Inputs { seed, cells }
    }

    fn pass(inputs: &Inputs, t: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        for cell in &inputs.cells {
            let run = if t.enabled() {
                traced_cell(cell, inputs.seed, t)
            } else {
                try_run(&cell.wl, cell.mode, inputs.seed)
                    .map(|r| CellRun {
                        records: r.records,
                        metrics: r.metrics,
                        clean: r.conformance.is_clean(),
                        balancer_calls: 0,
                    })
                    .map_err(|e| e.to_string())
            };
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    out.problems.push(format!("{}: {e}", cell.name));
                    continue;
                }
            };
            if !run.clean {
                out.problems
                    .push(format!("{}: conformance report not clean", cell.name));
            }
            let print = t.span("check", |_| debug_fingerprint(&run.records));
            out.prints.push((cell.name.clone(), print));
            read_counts(&mut out, &run);
        }
        out
    }

    fn describe(inputs: &Inputs) -> String {
        let names: Vec<&str> = inputs.cells.iter().map(|c| c.name.as_str()).collect();
        format!(
            "{} cells at kernel seed {}: {}",
            names.len(),
            inputs.seed,
            names.join(" ")
        )
    }

    fn arrivals_s(_: &Inputs) -> f64 {
        0.0
    }
}

struct CellRun {
    records: Vec<schedsim::TraceRecord>,
    metrics: MetricsSnapshot,
    clean: bool,
    /// Calls through the balancer timing wrapper (traced cells only).
    balancer_calls: u64,
}

fn read_counts(out: &mut PassOut, run: &CellRun) {
    let m = &run.metrics;
    out.count(
        "simcore.events.processed",
        m.counter("sim.events.processed"),
    );
    out.count(
        "simcore.events.scheduled",
        m.counter("sim.events.scheduled"),
    );
    out.count(
        "simcore.events.cancelled",
        m.counter("sim.events.cancelled"),
    );
    out.count("schedsim.ticks", m.counter("kernel.ticks"));
    out.count(
        "schedsim.context_switches",
        m.counter("kernel.context_switches"),
    );
    out.count(
        "schedsim.hw_prio_transitions",
        m.counter("kernel.hw_prio_transitions"),
    );
    if let Some(h) = m.histogram("kernel.pick_wall_ns") {
        out.count("schedsim.picks", h.count);
        out.host("schedsim.pick_total_ns", h.sum);
    }
    let decisions = |suffix: &str| -> u64 {
        m.metrics
            .iter()
            .filter(|(n, _)| n.starts_with("hpc.decisions.") && n.ends_with(suffix))
            .map(|(_, v)| {
                if let MetricValue::Counter(c) = v {
                    *c
                } else {
                    0
                }
            })
            .sum()
    };
    out.count("schedsim.decisions.accepted", decisions(".accepted"));
    out.count("schedsim.decisions.rejected", decisions(".rejected"));
    out.count("tracefmt.records", run.records.len() as u64);
    out.count("schedsim.balancer.calls", run.balancer_calls);
}

/// The same cell as [`try_run`], assembled from the public layers with a
/// span around each call and the balancer behind a timing wrapper.
fn traced_cell(cell: &Cell, seed: u64, t: &mut Tracer) -> Result<CellRun, String> {
    let timer = BalancerTimer::default();
    let (mut kernel, sink) = t.span("schedsim.build", |_| build(cell, seed, &timer))?;
    let setup = if cell.mode == ExperimentMode::Baseline {
        SchedulerSetup::Baseline
    } else {
        SchedulerSetup::Hpc
    };
    let (ranks, all) = t.span("workloads.spawn", |_| spawn(&cell.wl, &mut kernel, &setup));
    let end = t.span("schedsim.run", |t| {
        let end = kernel.run_until_exited(&all, SimDuration::from_secs(3_600));
        t.attach("schedsim.balancer", timer.ns.load(Ordering::Relaxed));
        end
    });
    if end.is_none() {
        return Err("did not finish within the simulated deadline".into());
    }
    let records = t.span("tracefmt.timeline", |_| {
        let records = sink.snapshot();
        let timeline = Timeline::from_records(&records).filter_tasks(&ranks);
        std::hint::black_box(AppStats::for_tasks(&timeline, &ranks));
        records
    });
    let (metrics, report) = t.span("simverify.conformance", |_| {
        let metrics = kernel.metrics_registry().snapshot();
        let cfg = conformance::CheckConfig::default();
        let report = conformance::check_with_metrics(&records, &metrics, &cfg);
        (metrics, report)
    });
    let balancer_calls = timer.calls.load(Ordering::Relaxed);
    Ok(CellRun {
        records,
        metrics,
        clean: report.is_clean(),
        balancer_calls,
    })
}

fn build(cell: &Cell, seed: u64, timer: &BalancerTimer) -> Result<(Kernel, SharedSink), String> {
    let b = KernelBuilder::new().noise(cell.wl.noise()).seed(seed);
    let mut kernel = match cell.mode.policy_name() {
        None => b.without_hpc_class().try_build(),
        Some(name) => {
            let spec = policies::find(name).ok_or_else(|| format!("unknown policy {name}"))?;
            let hpc = HpcSchedConfig::default();
            let ctx = PolicyCtx {
                tunables: b.tunables(),
                heuristic: hpc.heuristic,
                power5_mechanism: hpc.power5_mechanism,
                policy_only: hpc.policy_only,
            };
            let inner = (spec.make)(&ctx);
            b.balancer(Box::new(Timed {
                inner,
                timer: timer.clone(),
            }))
            .try_build()
        }
    }
    .map_err(|e| e.to_string())?;
    let sink = SharedSink::new();
    kernel.observe(Box::new(sink.clone()));
    Ok((kernel, sink))
}

fn spawn(
    wl: &WorkloadKind,
    kernel: &mut Kernel,
    setup: &SchedulerSetup,
) -> (Vec<TaskId>, Vec<TaskId>) {
    match wl {
        WorkloadKind::MetBench(cfg) => {
            let (workers, master) = workloads::metbench::spawn(kernel, cfg, setup);
            let mut all = workers.clone();
            all.push(master);
            (workers, all)
        }
        WorkloadKind::MetBenchVar(cfg) => {
            let (workers, master) = workloads::metbenchvar::spawn(kernel, cfg, setup);
            let mut all = workers.clone();
            all.push(master);
            (workers, all)
        }
        WorkloadKind::BtMz(cfg) => {
            let ranks = workloads::btmz::spawn(kernel, cfg, setup);
            (ranks.clone(), ranks)
        }
        WorkloadKind::Siesta(cfg) => {
            let ranks = workloads::siesta::spawn(kernel, cfg, setup);
            (ranks.clone(), ranks)
        }
    }
}

/// Calls into the balancer and host nanoseconds spent in them.
#[derive(Clone, Default)]
struct BalancerTimer {
    calls: Arc<AtomicU64>,
    ns: Arc<AtomicU64>,
}

impl BalancerTimer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        // Relaxed: statistics only, read after the run on the same thread.
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// A registry policy behind a timing wrapper: every decision call is
/// forwarded unchanged, so the simulation is identical to the bare policy.
struct Timed {
    inner: Box<dyn Balancer>,
    timer: BalancerTimer,
}

impl Balancer for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, num_cpus: usize) {
        self.inner.init(num_cpus);
    }

    fn attach_telemetry(&mut self, registry: &telemetry::MetricsRegistry) {
        self.inner.attach_telemetry(registry);
    }

    fn on_sample(&mut self, ctx: &ClassCtx<'_>, sample: IterSample) -> SampleOutcome {
        self.timer.time(|| self.inner.on_sample(ctx, sample))
    }

    fn assign_priorities(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        self.timer.time(|| self.inner.assign_priorities(ctx, task))
    }

    fn on_fault(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        self.timer.time(|| self.inner.on_fault(ctx, task))
    }

    fn task_exited(&mut self, task: TaskId) {
        self.timer.time(|| self.inner.task_exited(task));
    }

    fn plan_migrations(
        &mut self,
        view: &BalanceView<'_>,
        cpu: power5::CpuId,
        idle: bool,
        allowed: &dyn Fn(TaskId, power5::CpuId) -> bool,
    ) -> Option<schedsim::class::Migration> {
        self.timer
            .time(|| self.inner.plan_migrations(view, cpu, idle, allowed))
    }

    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.inner.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore(r)
    }
}
