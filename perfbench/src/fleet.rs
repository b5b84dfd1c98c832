//! `fleet_stream`: the fleet-scale streaming engine — 10^5 jobs over 1000
//! nodes, EASY with backfill window 64, lazy arrivals, hashed trace and
//! O(1)-memory statistics. Bound by the batch engine; the service oracle
//! measures at most 24 job classes.
//!
//! The seed draws the class catalog and the arrivals. About one catalog in
//! four is heavy enough to overload the fleet at `scaled_config`'s fixed
//! arrival rate, and an overloaded fleet is another regime (a backlog that
//! grows for the whole run, 2.5× the pass time). So the seed picks, by
//! [`matching_seed`], a `scaled_config` stream whose catalog's estimated
//! node-seconds per job is within [`LOAD_BAND`] of seed 2008's: the same
//! offered load, other classes and arrivals. Seed 2008 is its own stream.

use std::time::Instant;

use fleetsim::{
    class_catalog, run_fleet, scaled_config, FleetConfig, FleetJobs, FleetStreamConfig,
};

use crate::spans::Tracer;
use crate::work::{matching_seed, PassOut, Workload};

pub struct FleetStream;

/// A job count with a recorded fleet row in `BENCH_batch.json`.
const JOBS: u64 = 100_000;
const NODES: usize = 1000;
/// Ranks per reference node (gang sizing granularity).
const NODE_SLOTS: usize = 4;
/// Allowed relative distance from the reference catalog's node-seconds
/// per job.
const LOAD_BAND: f64 = 0.02;

/// Estimated node-seconds per job of the stream's catalog: node count
/// times iterations times the slowest rank's load per iteration, averaged
/// over the (uniformly drawn) classes.
fn node_secs_per_job(stream: &FleetStreamConfig) -> f64 {
    let catalog = class_catalog(stream);
    let total: f64 = catalog
        .iter()
        .map(|c| {
            let nodes = c.loads.len().div_ceil(NODE_SLOTS) as f64;
            let slowest = c.loads.iter().copied().fold(0.0, f64::max);
            nodes * f64::from(c.iterations) * slowest
        })
        .sum();
    total / catalog.len() as f64
}

impl Workload for FleetStream {
    type Inputs = FleetConfig;

    fn inputs(seed: u64) -> FleetConfig {
        let stream_seed = matching_seed(seed, LOAD_BAND, |s| {
            node_secs_per_job(&scaled_config(JOBS, NODES, s).stream)
        });
        let mut cfg = scaled_config(JOBS, NODES, stream_seed);
        cfg.batch.threads = crate::THREADS;
        cfg
    }

    fn pass(cfg: &FleetConfig, t: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        let run = t.span("batchsim.run", |t| {
            let run = run_fleet(cfg);
            t.attach(
                "cluster.node",
                run.pool_metrics.counter("exec.pool.busy_ns"),
            );
            run
        });
        t.span("check", |_| {
            let a = &run.accum;
            if a.jobs != JOBS || a.completed != JOBS || a.degraded != 0 {
                out.problems.push(format!(
                    "{} jobs, {} completed, {} degraded; {JOBS} submitted",
                    a.jobs, a.completed, a.degraded
                ));
            }
        });
        out.prints
            .push((format!("fleet/easy-{JOBS}x{NODES}"), run.trace_hash));
        out.count("batchsim.trace_events", run.trace_events);
        out.count("batchsim.reservations", run.reservations);
        out.count("batchsim.backfilled", run.accum.backfilled);
        out.max_count("batchsim.queue_peak", run.queue_peak.max(0) as u64);
        out.count(
            "cluster.node.runs",
            run.pool_metrics.counter("exec.pool.tasks"),
        );
        out
    }

    fn describe(cfg: &FleetConfig) -> String {
        format!(
            "{JOBS} jobs over {NODES} nodes, stream seed {} ({:.4} estimated node-seconds per job)",
            cfg.stream.seed,
            node_secs_per_job(&cfg.stream)
        )
    }

    fn arrivals_s(cfg: &FleetConfig) -> f64 {
        let start = Instant::now();
        std::hint::black_box(FleetJobs::new(&cfg.stream).count());
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::REFERENCE_SEED;

    #[test]
    fn streams_match_the_reference_load() {
        let cfg = FleetStream::inputs(REFERENCE_SEED);
        assert_eq!(
            cfg.stream,
            scaled_config(JOBS, NODES, REFERENCE_SEED).stream
        );
        let target = node_secs_per_job(&cfg.stream);
        for seed in [1, 9, 10, 15, 19] {
            let cfg = FleetStream::inputs(seed);
            assert!((node_secs_per_job(&cfg.stream) / target - 1.0).abs() <= LOAD_BAND);
            assert_eq!(cfg.batch.threads, crate::THREADS);
        }
    }
}
