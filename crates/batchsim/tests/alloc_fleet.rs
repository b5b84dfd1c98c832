//! The fleet engine's per-job allocation budget.
//!
//! A counting global allocator tallies allocations per thread (so tests
//! running in parallel cannot disturb each other). Two serial fleet runs
//! differ only in job count; the difference in allocations, divided by
//! the extra jobs, is the engine's marginal cost per job — the fixed cost
//! of the kernel oracle (at most one measurement per class) cancels out.
//! This is a deterministic work counter, gated exactly.

use batchsim::{run_fleet, BatchConfig, Discipline, FleetConfig, FleetStreamConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System` upholds the `GlobalAlloc` contract; the tally touches only a
// const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A serial EASY fleet of 200 nodes at about 80% offered load, with the
/// 64-candidate backfill window of the fleet-scale configuration.
fn fleet(jobs: u64) -> FleetConfig {
    FleetConfig {
        stream: FleetStreamConfig { seed: 2008, jobs, classes: 24, mean_interarrival: 0.0045 },
        batch: BatchConfig {
            num_nodes: 200,
            discipline: Discipline::Easy,
            backfill_window: Some(64),
            threads: 1,
            ..BatchConfig::default()
        },
    }
}

fn allocs_for(jobs: u64) -> u64 {
    let before = allocs_on_this_thread();
    let out = run_fleet(&fleet(jobs));
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(out.accum.completed, jobs, "every job completes");
    allocs
}

#[test]
fn fleet_engine_allocates_at_most_six_times_per_job() {
    let small = allocs_for(1_000);
    let large = allocs_for(4_000);
    let per_job = (large - small) as f64 / 3_000.0;
    assert!(per_job <= 6.0, "{per_job:.2} allocations per job ({small} at 1000, {large} at 4000)");
}
