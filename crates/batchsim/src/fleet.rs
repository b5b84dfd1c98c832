//! Fleet-scale batch runs: streaming arrivals, O(1)-memory statistics.
//!
//! The classic [`crate::run_batch`] path materialises the whole stream,
//! the whole event trace, and a per-job record map — O(jobs) memory three
//! times over, which is fine at 200 jobs and fatal at 10^6. The fleet
//! layer swaps each of those for a streaming equivalent while running the
//! *same* engine:
//!
//! * arrivals come from a lazy [`crate::arrivals::FleetJobs`] generator
//!   (pure in `(config, index)`, so checkpoints image it as a count);
//! * the event trace folds into an FNV-1a fingerprint as events are
//!   emitted — the hash of the rendered trace, never the trace itself.
//!   Each event renders through [`crate::BatchEvent::write_to`] into an
//!   FNV-1a `fmt::Write` sink, so no line `String` is ever built;
//! * per-job records fold into a [`FleetAccum`] the moment they are
//!   produced, then drop. The per-node placement image of a finished
//!   segment is not copied for them: the accumulator reads scalars only.
//!
//! The engine structures both modes share are O(running) or O(nodes),
//! never O(jobs): running segments live in one
//! [`crate::index::ReleaseIndex`] map keyed `(end, admission seq)`,
//! oracle measurements are shared by reference between the segments that
//! run them, and free nodes are a `u64` bitset scanned lowest id first.
//!
//! This module is covered by simverify rule SV014: statistics here must
//! accumulate into scalars, never into per-job growable containers.

use serde::Serialize;
use telemetry::MetricsSnapshot;

use crate::arrivals::FleetStreamConfig;
use crate::sim::{BatchConfig, JobRecord};
use crate::stats::FleetStats;

/// Configuration of one fleet-scale run: the streaming workload plus the
/// batch engine parameters it drives.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetConfig {
    pub stream: FleetStreamConfig,
    pub batch: BatchConfig,
}

/// O(1)-memory running statistics over job records: scalar sums, counts,
/// and maxima only. Folding records in id order reproduces, bit for bit,
/// the sums the materialised [`FleetStats::from_outcome`] used to take
/// over per-job vectors — same additions in the same order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct FleetAccum {
    pub jobs: u64,
    pub completed: u64,
    pub degraded: u64,
    pub backfilled: u64,
    pub requeued: u64,
    /// Sums and maxima over *completed* jobs, seconds.
    pub wait_sum: f64,
    pub wait_max: f64,
    pub turnaround_sum: f64,
    pub turnaround_max: f64,
    pub slowdown_sum: f64,
    pub slowdown_max: f64,
    /// Node·seconds held, over all jobs (degraded included).
    pub node_secs: f64,
}

impl FleetAccum {
    /// Fold one finished job into the accumulator. Records arrive exactly
    /// once per job (the engine retires a tracker exactly once), so every
    /// count below is a per-job count.
    pub fn fold(&mut self, r: &JobRecord) {
        self.jobs += 1;
        self.node_secs += r.node_secs_held;
        if r.requeues > 0 {
            self.requeued += 1;
        }
        if r.outcome.degraded {
            self.degraded += 1;
            return;
        }
        self.completed += 1;
        if r.backfilled {
            self.backfilled += 1;
        }
        self.wait_sum += r.wait;
        if r.wait > self.wait_max {
            self.wait_max = r.wait;
        }
        self.turnaround_sum += r.turnaround;
        if r.turnaround > self.turnaround_max {
            self.turnaround_max = r.turnaround;
        }
        self.slowdown_sum += r.slowdown;
        if r.slowdown > self.slowdown_max {
            self.slowdown_max = r.slowdown;
        }
    }

    /// Fold every record of a materialised outcome, in id order — the
    /// bridge the classic [`FleetStats::from_outcome`] path uses.
    pub fn from_records(records: &[JobRecord]) -> FleetAccum {
        let mut acc = FleetAccum::default();
        for r in records {
            acc.fold(r);
        }
        acc
    }
}

/// Everything a fleet-scale run produces. Deliberately O(1) in the job
/// count: the trace exists only as its fingerprint, jobs only as the
/// accumulator.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    pub config_nodes: usize,
    /// FNV-1a fingerprint of the rendered event trace — equal to hashing
    /// [`crate::BatchOutcome::render_trace`] of the same run, and the
    /// byte-identity artifact for serial-vs-parallel checks.
    pub trace_hash: u64,
    pub trace_events: u64,
    /// Last event timestamp, seconds.
    pub makespan: f64,
    /// Head-of-queue reservations taken (EASY), deduplicated per blocked
    /// head stretch.
    pub reservations: u64,
    pub queue_peak: i64,
    pub accum: FleetAccum,
    pub stats: FleetStats,
    pub metrics: MetricsSnapshot,
    /// Host wall-clock pool telemetry — excluded from determinism, see
    /// [`crate::BatchOutcome::pool_metrics`].
    pub pool_metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::heavy_light_mix;
    use crate::sim::run_batch;

    #[test]
    fn accum_fold_matches_materialised_stats() {
        let out = run_batch(&heavy_light_mix(7, 40), &BatchConfig::default(), None);
        let acc = FleetAccum::from_records(&out.jobs);
        let from_acc = FleetStats::from_accum(&acc, out.config_nodes, out.makespan);
        let classic = FleetStats::from_outcome(&out);
        assert_eq!(format!("{classic:?}"), format!("{from_acc:?}"));
        assert_eq!(acc.jobs, out.jobs.len() as u64);
    }
}
