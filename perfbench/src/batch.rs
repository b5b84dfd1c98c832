//! `batch_200`: the materialised 200-job heavy/light mix on 4 nodes under
//! FCFS, SJF and EASY, plus EASY through the checkpointed path with every
//! checkpoint encoded in memory and the last one decoded and resumed.
//! Bound by the per-node kernel oracle (every job has its own service key).
//!
//! The cost of a pass follows the stream's offered work (rank loads ×
//! iterations, summed), which varies between seeds with the share of heavy
//! jobs: 165 to 212 over seeds 1-6, against 166.6 for seed 2008. So the
//! seed picks, by [`matching_seed`], a stream whose offered work is within
//! [`WORK_BAND`] of the acceptance stream's (seed 2008). Seed 2008 is its
//! own stream.

use std::time::Instant;

use batchsim::{
    heavy_light_mix, resume_batch, run_batch, run_batch_checkpointed, BatchCheckpoint, BatchConfig,
    BatchJob, BatchOutcome, CheckpointPolicy, Discipline,
};

use crate::pinned::fnv1a;
use crate::spans::Tracer;
use crate::work::{matching_seed, PassOut, Workload};

pub struct Batch200;

const JOBS: usize = 200;
/// Checkpoint cadence of the checkpointed EASY run, in engine events.
const CKPT_EVERY_EVENTS: usize = 50;
/// Allowed relative distance from the reference stream's offered work.
const WORK_BAND: f64 = 0.02;

pub struct Inputs {
    /// Seed of the stream actually run (see the module docs).
    seed: u64,
    stream: Vec<BatchJob>,
}

fn offered_work(stream: &[BatchJob]) -> f64 {
    stream
        .iter()
        .map(|j| j.spec.rank_loads.iter().sum::<f64>() * f64::from(j.spec.iterations))
        .sum()
}

/// Seed of the stream run for `seed`.
fn stream_seed(seed: u64) -> u64 {
    matching_seed(seed, WORK_BAND, |s| offered_work(&heavy_light_mix(s, JOBS)))
}

fn config(seed: u64, discipline: Discipline) -> BatchConfig {
    BatchConfig {
        discipline,
        seed,
        threads: crate::THREADS,
        ..Default::default()
    }
}

impl Workload for Batch200 {
    type Inputs = Inputs;

    fn inputs(seed: u64) -> Inputs {
        let seed = stream_seed(seed);
        Inputs {
            seed,
            stream: heavy_light_mix(seed, JOBS),
        }
    }

    fn pass(inputs: &Inputs, t: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        let mut easy = None;
        for discipline in Discipline::ALL {
            let cfg = config(inputs.seed, discipline);
            let run = t.span("batchsim.run", |t| {
                let run = run_batch(&inputs.stream, &cfg, None);
                attach_nodes(t, &run);
                run
            });
            out.count("batchsim.trace_events", run.events.len() as u64);
            let print = finish(&mut out, t, discipline.label(), &run);
            if discipline == Discipline::Easy {
                easy = Some(print);
            }
        }

        let cfg = config(inputs.seed, Discipline::Easy);
        let policy = CheckpointPolicy {
            every_events: Some(CKPT_EVERY_EVENTS),
            every_jobs: None,
        };
        let mut last = Vec::new();
        let (mut count, mut bytes) = (0, 0);
        let run = t.span("batchsim.run", |t| {
            let run = run_batch_checkpointed(&inputs.stream, &cfg, None, &policy, |c| {
                last = t.span("ckpt.encode", |_| c.encode());
                count += 1;
                bytes += last.len() as u64;
            });
            attach_nodes(t, &run);
            run
        });
        out.count("batchsim.trace_events", run.events.len() as u64);
        out.count("ckpt.count", count);
        out.count("ckpt.bytes", bytes);
        let checkpointed = finish(&mut out, t, "easy-checkpointed", &run);

        let resumed = match t.span("ckpt.decode", |_| BatchCheckpoint::decode(&last)) {
            Ok(ckpt) => {
                let run = t.span("ckpt.resume", |t| {
                    let run = resume_batch(&ckpt);
                    attach_nodes(t, &run);
                    run
                });
                Some(finish(&mut out, t, "easy-resumed", &run))
            }
            Err(e) => {
                out.problems
                    .push(format!("last checkpoint of {count} does not decode: {e}"));
                None
            }
        };
        t.span("check", |_| {
            for (name, print) in [("checkpointed", Some(checkpointed)), ("resumed", resumed)] {
                if print.is_some() && print != easy {
                    out.problems
                        .push(format!("easy-{name} trace differs from the easy run"));
                }
            }
        });
        out
    }

    fn describe(inputs: &Inputs) -> String {
        format!(
            "{JOBS}-job heavy/light stream of seed {} (offered work {:.3}), 4 nodes",
            inputs.seed,
            offered_work(&inputs.stream)
        )
    }

    fn arrivals_s(inputs: &Inputs) -> f64 {
        let start = Instant::now();
        std::hint::black_box(heavy_light_mix(inputs.seed, JOBS));
        start.elapsed().as_secs_f64()
    }
}

/// Node-kernel runs of the outcome, as a child of the open span.
fn attach_nodes(t: &mut Tracer, run: &BatchOutcome) {
    t.attach(
        "cluster.node",
        run.pool_metrics.counter("exec.pool.busy_ns"),
    );
}

/// Render and fingerprint one outcome, check it ran every job cleanly,
/// and read its counts. Trace events are counted by the callers, for the
/// runs whose engine time `batchsim.run` spans (not the resume).
fn finish(out: &mut PassOut, t: &mut Tracer, cell: &str, run: &BatchOutcome) -> u64 {
    let text = t.span("batchsim.render", |_| run.render_trace());
    let print = t.span("check", |_| {
        let completed = run.jobs.iter().filter(|j| !j.outcome.degraded).count();
        if run.jobs.len() != JOBS || completed != JOBS {
            out.problems.push(format!(
                "{cell}: {completed} of {} jobs completed, {JOBS} submitted",
                run.jobs.len()
            ));
        }
        fnv1a(text.bytes())
    });
    out.prints.push((format!("batch/{cell}"), print));
    out.count("batchsim.render_bytes", text.len() as u64);
    out.count("batchsim.reservations", run.reservations.len() as u64);
    out.count(
        "batchsim.backfilled",
        run.metrics.counter("batch.jobs.backfilled"),
    );
    out.max_count(
        "batchsim.queue_peak",
        run.metrics.gauge("batch.queue_depth_peak").max(0) as u64,
    );
    out.count(
        "cluster.node.runs",
        run.pool_metrics.counter("exec.pool.tasks"),
    );
    print
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::REFERENCE_SEED;

    #[test]
    fn streams_match_the_reference_work() {
        assert_eq!(stream_seed(REFERENCE_SEED), REFERENCE_SEED);
        let target = offered_work(&heavy_light_mix(REFERENCE_SEED, JOBS));
        for seed in [1, 2, 3, 6, 42] {
            let work = offered_work(&heavy_light_mix(stream_seed(seed), JOBS));
            assert!((work / target - 1.0).abs() <= WORK_BAND);
        }
    }
}
