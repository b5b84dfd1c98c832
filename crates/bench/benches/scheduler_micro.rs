//! Scheduler micro-benchmarks: the hot data structures and paths of the
//! simulated kernel.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hpcsched::prelude::*;
use schedsim::program::ScriptedProgram;
use simcore::EventQueue;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..4096u64 {
                q.schedule(simcore::SimTime((i * 37) % 10_000), i);
            }
            while let Some(ev) = q.pop() {
                black_box(ev.payload);
            }
        })
    });
    g.bench_function("schedule_cancel_half_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> =
                (0..4096u64).map(|i| q.schedule(simcore::SimTime(i), i)).collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            while let Some(ev) = q.pop() {
                black_box(ev.payload);
            }
        })
    });
    // The kernel's own pattern on the 4-CPU OpenPower 710: every popped
    // tick re-arms its timer slot, then each CPU's completion slot is
    // re-armed (a cancel plus a schedule; 4096 pops per iteration).
    g.bench_function("rearm_4cpu", |b| {
        const TICK: u64 = 1_000_000;
        b.iter(|| {
            let mut q = EventQueue::<()>::with_timers(8);
            for cpu in 0..4 {
                q.arm(cpu, simcore::SimTime(TICK + cpu as u64));
            }
            for _ in 0..4096 {
                let Some(simcore::Due::Timer { time, timer }) = q.pop_due() else { break };
                let now = time.as_nanos();
                q.arm(timer, simcore::SimTime(now + TICK));
                for cpu in 0..4 {
                    // Completions land beyond the next tick, so every pop
                    // is a tick.
                    q.arm(4 + cpu, simcore::SimTime(now + 2 * TICK + cpu as u64 * 7_919));
                }
                black_box(timer);
            }
        })
    });
    g.finish();
}

fn bench_kernel_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);

    // Full context-switch cycle: two CPU-bound tasks sharing one CPU under
    // CFS, 100ms of simulated time (≈ tens of switches + ticks).
    g.bench_function("cfs_timeslice_cycle_100ms", |b| {
        b.iter(|| {
            let mut k = KernelBuilder::new()
                .topology(Topology::single_core_st())
                .without_hpc_class()
                .build();
            for i in 0..2 {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(10.0)),
                    SpawnOptions::default(),
                );
            }
            k.run_for(SimDuration::from_millis(100));
            black_box(k.metrics().context_switches)
        })
    });

    // The per-event path at its hottest: four endless CPU-bound tasks on
    // the 4-CPU OpenPower 710, so nearly every event is a tick, and every
    // event syncs, settles and refreshes all four CPUs (20,000 steps).
    g.bench_function("tick_storm_4cpu", |b| {
        b.iter(|| {
            let mut k = KernelBuilder::new().build();
            for i in 0..4 {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(1e9)),
                    SpawnOptions::default(),
                );
            }
            for _ in 0..20_000 {
                k.step();
            }
            black_box(k.metrics().ticks)
        })
    });

    // The CFS run queue under load: sixteen endless tasks of 0.5 ms compute
    // segments on the 4-CPU OpenPower 710, so every CPU keeps about three
    // tasks queued behind the running one and each step inserts, pops or
    // steals on a non-empty queue (10,000 steps).
    g.bench_function("cfs_oversubscribed_16on4", |b| {
        b.iter(|| {
            let mut k = KernelBuilder::new().build();
            for i in 0..16 {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(schedsim::program::FnProgram(|_: &mut KernelApi<'_>| {
                        Action::Compute(0.0005)
                    })),
                    SpawnOptions::default(),
                );
            }
            for _ in 0..10_000 {
                k.step();
            }
            black_box(k.metrics().context_switches)
        })
    });

    // Wakeup → priority decision → dispatch: an HPC ping-pong pair.
    g.bench_function("hpc_iteration_pipeline_64_iters", |b| {
        b.iter(|| {
            let mut k = KernelBuilder::new().build();
            let mpi = mpisim::Mpi::new(2, mpisim::MpiConfig::default());
            let mut ids = Vec::new();
            for rank in 0..2usize {
                let mpi = mpi.clone();
                let mut compute = true;
                let mut left = 64u32;
                let load = if rank == 0 { 0.0002 } else { 0.0008 };
                ids.push(k.spawn(
                    format!("r{rank}"),
                    SchedPolicy::Hpc,
                    Box::new(schedsim::program::FnProgram(move |api: &mut KernelApi<'_>| {
                        if compute {
                            compute = false;
                            Action::Compute(load)
                        } else if left > 0 {
                            left -= 1;
                            compute = true;
                            Action::Block(mpi.barrier(api, rank))
                        } else {
                            Action::Exit
                        }
                    })),
                    SpawnOptions { affinity: Some(vec![CpuId(rank)]), ..Default::default() },
                ));
            }
            black_box(k.run_until_exited(&ids, SimDuration::from_secs(10)))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_kernel_paths);
criterion_main!(benches);
