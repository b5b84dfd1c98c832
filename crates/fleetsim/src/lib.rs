//! Fleet-scale batch simulation — the million-job subsystem facade.
//!
//! `fleetsim` is the stable front door to the fleet layer that lives in
//! [`batchsim`] (DESIGN.md §15). The classic `batchsim` entry points
//! materialise the arrival stream, the event trace, and a per-job record
//! map — three O(jobs) allocations that are fine at 200 jobs and fatal at
//! 10^6. The fleet layer runs the *same* event-driven engine with each of
//! those swapped for a streaming equivalent:
//!
//! * **arrivals** — [`FleetJobs`], a lazy generator pure in
//!   `(config, index)`; checkpoints image it as `(config, count)` and
//!   replay it forward on resume;
//! * **trace** — folded event-by-event into an FNV-1a fingerprint (the
//!   hash of the rendered trace, never the trace itself): each event
//!   renders through [`batchsim::BatchEvent::write_to`] straight into the
//!   hash, with no per-line `String`, so the serial-vs-parallel
//!   byte-identity gate still holds at any scale;
//! * **statistics** — [`FleetAccum`] scalar sums/counts/maxima plus the
//!   telemetry log2 histograms, enforced O(1)-memory by simverify rule
//!   SV014;
//! * **backfill** — running segments live in one [`ReleaseIndex`] map
//!   keyed `(end, admission seq)`: the next release is its first key and
//!   every EASY shadow computation is O(log n + need) in running jobs
//!   instead of a linear reservation scan;
//! * **node pool** — free nodes are a `u64` bitset with a maintained
//!   count, so an allocation scans words, lowest ids first.
//!
//! Determinism contract: a fleet run is a pure function of its
//! [`FleetConfig`] — same config, same trace hash, byte for byte, at any
//! `threads` count. [`run_fleet`] over a config and [`batchsim::run_batch`]
//! over the materialised prefix of the same stream produce identical
//! traces; the equivalence is property-tested in `tests/fleet_scale.rs`.

pub use batchsim::{
    class_catalog, resume_fleet, run_fleet, run_fleet_until, BatchCheckpoint, BatchConfig,
    ClassSpec, Discipline, FleetAccum, FleetConfig, FleetJobs, FleetOutcome, FleetShape,
    FleetStats, FleetStreamConfig, PendingQueue, ReleaseIndex, BATCH_CHECKPOINT_VERSION,
    NodeShape, TopoPreset,
};

/// A [`FleetConfig`] sized for fleet-scale studies: `jobs` streamed over
/// `nodes` nodes under EASY backfill, offered load tuned below capacity so
/// the pending queue stays bounded as the job count grows.
///
/// The class catalog is kept at 24 shapes regardless of scale, so the
/// service-time oracle measures at most 24 kernels no matter how many
/// jobs stream through — the property that makes 10^6 jobs affordable.
pub fn scaled_config(jobs: u64, nodes: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        stream: FleetStreamConfig {
            seed,
            jobs,
            classes: 24,
            // ~1100 arrivals per simulated second: with a mean gang of ~8
            // nodes holding ~0.19 s each, that offers ~80% of a 1000-node
            // fleet — busy enough that heads block and backfill fires,
            // slack enough that the pending queue stays bounded.
            mean_interarrival: 0.0009,
        },
        batch: BatchConfig {
            num_nodes: nodes,
            discipline: Discipline::Easy,
            // Bound each EASY pass: examine at most 64 queued candidates
            // behind the head (the SLURM `bf_max_job_test` analogue), so a
            // transient backlog cannot make scheduling O(queue).
            backfill_window: Some(64),
            seed,
            ..BatchConfig::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_config_is_easy_and_windowed() {
        let cfg = scaled_config(10_000, 1000, 7);
        assert_eq!(cfg.stream.jobs, 10_000);
        assert_eq!(cfg.batch.num_nodes, 1000);
        assert!(matches!(cfg.batch.discipline, Discipline::Easy));
        assert_eq!(cfg.batch.backfill_window, Some(64));
    }

    #[test]
    fn facade_runs_a_small_fleet() {
        let mut cfg = scaled_config(200, 64, 2008);
        cfg.batch.threads = 1;
        let out = run_fleet(&cfg);
        assert_eq!(out.accum.jobs, 200);
        assert!(out.trace_events > 0);
        assert!(out.makespan > 0.0);
    }
}
