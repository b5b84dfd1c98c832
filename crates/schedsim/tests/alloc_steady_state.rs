//! The kernel's event path allocates nothing once warm.
//!
//! A counting global allocator tallies allocations per thread (so tests
//! running in parallel cannot disturb each other). Two CPU-bound tasks run
//! on the default topology with no observers; after a warm-up, a further
//! stretch of tick and work-completion events must make zero allocations.
//! This is a deterministic work counter, gated exactly.

use schedsim::program::FnProgram;
use schedsim::{Action, KernelApi, KernelBuilder, SchedPolicy, SpawnOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

#[test]
fn warm_kernel_event_loop_makes_zero_allocations() {
    let mut k = KernelBuilder::new().build();
    let segments = Arc::new(AtomicU64::new(0));
    for i in 0..2 {
        let segments = Arc::clone(&segments);
        k.spawn(
            format!("busy{i}"),
            SchedPolicy::Normal,
            // Endless 2 ms compute segments: each completion is a timer
            // event followed by the next segment.
            Box::new(FnProgram(move |_: &mut KernelApi<'_>| {
                segments.fetch_add(1, Ordering::Relaxed);
                Action::Compute(0.002)
            })),
            SpawnOptions::default(),
        );
    }
    let registry = k.metrics_registry().clone();
    let ticks = registry.counter("kernel.ticks");
    let processed = registry.counter("sim.events.processed");

    for _ in 0..1_000 {
        assert!(k.step(), "an endless workload always has events");
    }
    let (ticks0, events0, segments0) =
        (ticks.get(), processed.get(), segments.load(Ordering::Relaxed));

    let before = allocs_on_this_thread();
    for _ in 0..2_000 {
        k.step();
    }
    let allocs = allocs_on_this_thread() - before;

    let events = processed.get() - events0;
    let tick_events = ticks.get() - ticks0;
    let workdone_events = segments.load(Ordering::Relaxed) - segments0;
    assert_eq!(events, 2_000);
    assert!(tick_events >= 1_000, "ticks {tick_events}");
    assert!(workdone_events >= 100, "work completions {workdone_events}");
    assert_eq!(allocs, 0, "allocations over {events} warm events");
}
